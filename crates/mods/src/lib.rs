#![warn(missing_docs)]

//! # labstor-mods — the reference LabMod library
//!
//! The LabMods the paper ships with LabStor (§III-E, §III-F):
//!
//! * **LabFS** ([`labfs`]) — a log-structured, crash-consistent POSIX
//!   filesystem: per-worker block allocators with stealing ([`alloc`],
//!   shared with LabKVS), per-worker metadata logs, in-memory inode
//!   hashmap rebuilt by log replay.
//! * **LabKVS** ([`labkvs`]) — a put/get/remove store: one operation where
//!   POSIX needs open-modify-close.
//! * **Driver LabMods** ([`drivers`]) — one driver mod over four
//!   backends: Kernel MQ Driver (`submit_io_to_hctx` through the Kernel
//!   Ops Manager), SPDK (userspace NVMe queue pairs), DAX (PMEM
//!   load/store), io_uring (the kernel's own block layer, §III-G).
//! * **I/O scheduler LabMods** ([`sched`]) — NoOp and blk-switch
//!   re-implemented in userspace (Fig. 8's Lab-NoOp / Lab-Blk).
//! * **LRU page cache** ([`lru`]) and an adaptive scan-resistant
//!   alternative ([`arc_cache`]) — the paper's hot-swappable-cache-policy
//!   story, **permissions checking** ([`perms`]),
//!   **compression** ([`compress`] over [`compress_algo`]), **tunable
//!   consistency** ([`consistency`]), and the **dummy module**
//!   ([`dummy`]) used by the upgrade and orchestration experiments.
//! * **Generic LabMods** ([`generic`]) — GenericFS and GenericKVS, the
//!   client-side multiplexers that allocate fds and route requests to the
//!   right stack.
//!
//! [`devices`] provides the device registry stacks are wired to, and
//! [`install_all`] registers every factory with a Module Manager (the
//! "LabMod repo" of §III-D).

pub mod alloc;
pub mod arc_cache;
pub mod cache_common;
pub mod compress;
pub mod compress_algo;
pub mod consistency;
pub mod devices;
pub mod drivers;
pub mod dummy;
pub mod flush;
pub mod generic;
pub mod journal;
pub mod labfs;
pub mod labkvs;
pub mod lru;
mod metastore;
pub mod perms;
pub mod sched;

pub use devices::DeviceRegistry;
pub use generic::{FilteredRead, GenericFs, GenericKvs, ScanReply};
pub use journal::RepairReport;

use labstor_core::ModuleManager;

/// Install every bundled LabMod factory into a Module Manager — the
/// equivalent of `mount.repo` on the directory this crate represents.
pub fn install_all(mm: &ModuleManager, devices: &std::sync::Arc<DeviceRegistry>) {
    dummy::install(mm);
    drivers::install(mm, devices);
    sched::install(mm);
    sched::install_blk_switch(mm, devices);
    lru::install(mm);
    arc_cache::install(mm);
    perms::install(mm);
    compress::install(mm);
    consistency::install(mm);
    labfs::install(mm, devices);
    labkvs::install(mm, devices);
}
