#![warn(missing_docs)]

//! # labstor-sim — simulated storage hardware substrate
//!
//! The LabStor paper evaluates on a Chameleon Cloud "storage hierarchy"
//! node with a real Intel P3700 NVMe drive, a SATA SSD, a SATA HDD and
//! kernel-emulated persistent memory. None of that hardware is available
//! here, so this crate provides the closest synthetic equivalent: RAM-backed
//! devices with *calibrated service-time models*.
//!
//! Two properties make the substitution faithful (see `DESIGN.md` §2):
//!
//! 1. **Data is really stored.** Every write lands in (sparsely allocated)
//!    memory and every read returns it, so filesystems and key-value stores
//!    built on top are testable end-to-end for correctness, crash
//!    consistency, and recovery.
//! 2. **Time is modeled in virtual nanoseconds.** Each operation computes a
//!    model service time (base latency + size/bandwidth + positioning
//!    penalties) and reserves one of a bounded pool of internal channels on
//!    the virtual timeline (`time::ChannelPool`). Saturation, queueing and
//!    device-parallelism effects emerge from the reservation algebra and are
//!    therefore *host-independent*: the same shapes reproduce on a laptop or
//!    a single-core CI box (see `crates/sim/src/time.rs` for the rationale).

pub mod device;
pub mod error;
pub mod model;
pub mod pmem;
pub mod queue;
pub mod stats;
pub mod time;

pub use device::{BlockDevice, SimDevice};
pub use error::{DeviceError, FaultConfig};
pub use model::{DeviceKind, DeviceModel};
pub use pmem::PmemDevice;
pub use queue::{Completion, CompletionStash, IoOp, IoRequest};
pub use time::{Ctx, Resource};

/// Size of a device sector in bytes. All LBAs are sector-granular.
pub const SECTOR_SIZE: usize = 512;
