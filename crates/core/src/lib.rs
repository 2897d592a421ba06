#![warn(missing_docs)]

//! # labstor-core — the LabStor platform
//!
//! The paper's primary contribution (§III): a modular, extensible,
//! userspace I/O platform built from
//!
//! * **LabMods** ([`labmod`]) — single-purpose, self-contained I/O modules
//!   with a *type*, an *operation*, *state* and a *connector*, plus the
//!   platform APIs that make them upgradable, stackable and monitorable:
//!   `state_update`, `state_repair`, `est_processing_time`. The platform
//!   runs every vertex in one place and measures it there
//!   ([`ModuleManager::counters`]).
//! * **LabStacks** ([`stack`], [`spec`]) — user-composed DAGs of LabMods
//!   defined in a human-readable spec file, mounted into a LabStack
//!   Namespace, modifiable and hot-swappable live.
//! * **The LabStor Runtime** ([`runtime`]) — the execution engine:
//!   IPC-connected clients ([`client`]), a Module Manager with
//!   centralized/decentralized live-upgrade protocols ([`registry`]),
//!   doorbell-driven reactor Workers ([`worker`]: parked until a
//!   producer rings, not polling), a modular Work Orchestrator
//!   ([`orchestrator`]) with the paper's round-robin and dynamic
//!   (latency/compute partitioning) policies, and crash recovery.
//!
//! Requests flow as [`request::Request`] values through
//! `labstor-ipc` queue pairs; module implementations live in
//! `labstor-mods`.

pub mod client;
pub mod labmod;
pub mod orchestrator;
pub mod registry;
pub mod request;
pub mod runtime;
pub mod spec;
pub mod stack;
pub mod worker;

pub use client::Client;
pub use labmod::{LabMod, ModType, StackEnv};
pub use orchestrator::{DynamicPolicy, OrchestratorPolicy, RoundRobinPolicy};
pub use registry::{ModuleManager, UpgradeKind, UpgradeRequest};
pub use request::{BlockOp, FileStat, FsOp, KvsOp, Message, Payload, Request, RespPayload};
pub use runtime::{Runtime, RuntimeConfig};
pub use spec::{StackSpec, VertexSpec};
pub use stack::{ExecMode, LabStack, Namespace};
