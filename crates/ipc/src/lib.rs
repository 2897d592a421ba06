#![warn(missing_docs)]

//! # labstor-ipc — shared-memory-style inter-process communication
//!
//! LabStor's IPC Manager connects clients, the Runtime and LabMods through
//! shared memory and a queuing system (paper §III-C). The real system uses
//! a kernel module (`vmalloc` + `remap_pfn_range`) to share pages between
//! address spaces with per-process grants; here "address spaces" are thread
//! domains and a [`shmem::ShmManager`] reproduces the grant discipline: a
//! process handle can only attach a region it has been granted, even among
//! processes of the same user.
//!
//! The queuing primitives mirror the paper's Queue Pairs:
//!
//! * `ring::SpscRing` — a bounded lock-free single-producer /
//!   single-consumer ring; every queue is **ordered** (processed in
//!   sequence by one worker). There are no unordered or intermediate
//!   queues here: a spawned request runs inline on the worker that
//!   dequeued its parent.
//! * [`queue_pair::QueuePair`] — a submission/completion queue pair (one
//!   ring per direction) with the `UPDATE_PENDING`/`UPDATE_ACKED` flags the
//!   Module Manager's live-upgrade protocol relies on.
//!
//! Crossing a domain boundary pays a calibrated cache-transfer cost
//! ([`cost`]): the paper measures shared-memory IPC at 8.4% of a 4 KB I/O
//! (≈1.4 µs round trip) because the Runtime runs on a different core and
//! requests travel through the cache hierarchy.

pub mod buf;
pub mod cost;
pub mod credentials;
pub mod doorbell;
pub mod inline;
pub mod lockwitness;
pub mod manager;
pub mod queue_pair;
pub mod ring;
pub mod shmem;

pub use buf::{
    default_pool, note_payload_copy, payload_copies, payload_copy_bytes, BufHandle, BufferPool,
    PoolConfig, Reservation,
};
pub use credentials::{Credentials, TenantId};
pub use doorbell::Doorbell;
pub use inline::InlineData;
pub use manager::{ClientConnection, IpcManager};
pub use queue_pair::{Envelope, LaneKind, QueueFlags, QueuePair, QueueRole, UpgradeFlag};
pub use shmem::ShmManager;
