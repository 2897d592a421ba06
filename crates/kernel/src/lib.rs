#![warn(missing_docs)]

//! # labstor-kernel — the simulated Linux I/O path
//!
//! LabStor's evaluation compares against the Linux 5.4 kernel I/O stack:
//! POSIX/AIO/libaio/io_uring engines over device files (Fig. 6), the
//! in-kernel NoOp and blk-switch I/O schedulers (Fig. 8), and the ext4,
//! XFS and F2FS filesystems (Figs. 7, 9b, 9c). No kernel is available to
//! instrument here, so this crate *is* the baseline: a structural model of
//! the kernel I/O path with calibrated crossing costs and — critically —
//! **real locks with modeled hold times**, so contention collapse emerges
//! from genuine serialization rather than curve fitting.
//!
//! Components:
//!
//! * [`cost`] — syscall, context-switch, interrupt and copy costs.
//! * [`block`] — the multi-queue block layer: bio allocation, per-core
//!   software queues, pluggable scheduler, dispatch to device hardware
//!   queues. Also exposes the raw `submit_io_to_hctx` path LabStor's
//!   Kernel Driver LabMod uses to bypass it (paper §III-F).
//! * [`sched`] — in-kernel I/O schedulers: NoOp and a blk-switch-like
//!   load-aware steerer.
//! * [`page_cache`] — the kernel page cache (per-file page map, LRU
//!   eviction, writeback).
//! * [`fs`] — ext4/XFS/F2FS-like baseline filesystems over the block
//!   layer, differing in journaling and lock granularity.
//! * [`vfs`] — the VFS: mount table, path resolution, fd tables, and the
//!   syscall surface that charges kernel crossings.
//! * [`engines`] — userspace I/O engines over raw device files: POSIX
//!   (sync), POSIX AIO, libaio, io_uring.

pub mod block;
pub mod cost;
pub mod engines;
pub mod fs;
pub mod page_cache;
pub mod sched;
pub mod vfs;

pub use block::BlockLayer;
pub use sched::KernelSched;
