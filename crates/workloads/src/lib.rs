#![warn(missing_docs)]

//! # labstor-workloads — the paper's workload generators and substrates
//!
//! Implementations of every workload §IV evaluates with:
//!
//! * [`fio`] — a FIO-like generator: read/write mix, sequential/random,
//!   request size, queue depth, thread count (Figs. 5a, 6, 8).
//! * [`fxmark`] — FxMark-like metadata stressors: per-thread file
//!   creation in shared or private directories (Fig. 7).
//! * [`filebench`] — Filebench-like personalities with the default
//!   varmail/webserver/webproxy/fileserver mixes (Fig. 9c).
//! * [`labios`] — the LABIOS worker: 8 KB "labels" stored either through
//!   a POSIX file backend (fopen/fseek/fwrite/fclose) or a single KVS put
//!   (Fig. 9b).
//! * [`pfs`] — an OrangeFS-like parallel filesystem (64 KB striping,
//!   dedicated metadata server) plus the VPIC particle writer and BD-CATS
//!   reader that run over it (Fig. 9a).
//! * [`targets`] — adapters giving every workload a uniform view of a
//!   kernel filesystem (through the simulated VFS) or a LabStor stack
//!   (through GenericFS/GenericKVS).
//! * [`pushdown`] — fixed-width record datasets and host-side reference
//!   scans for the pushdown-vs-client-side-filter comparison.
//! * [`stats`] — virtual-time latency recorders and percentile math.
//! * [`fsmodel`] — the one model of file-system semantics every
//!   file-system target is checked against, and the crash campaign's
//!   state.
//! * [`crash`] — the crash-recovery fuzz campaign: seeded fio/filebench
//!   mixes killed at randomized virtual times, restarted, repaired, and
//!   checked for prefix consistency against the acked history.

pub mod crash;
pub mod filebench;
pub mod fio;
pub mod fsmodel;
pub mod fxmark;
pub mod labios;
pub mod pfs;
pub mod pushdown;
pub mod stats;
pub mod targets;

pub use targets::{FsTarget, LabStorFsTarget};
