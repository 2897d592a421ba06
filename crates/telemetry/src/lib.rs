#![warn(missing_docs)]

//! # labtelem — virtual-time telemetry for LabStor-RS
//!
//! The paper's Work Orchestrator and Fig. 4a anatomy both hinge on
//! per-LabMod performance counters; this crate is the cross-layer record
//! of where a request's *virtual* time actually went (see DESIGN.md §8):
//!
//! * [`SpanRing`] / [`FlightRecorder`] — a fixed-capacity, lock-free
//!   per-thread ring of [`SpanEvent`]s stamped in virtual nanoseconds,
//!   recording client submit → IPC hop → worker dequeue → each LabStack
//!   vertex → device completion → completion hop. Disabled by default;
//!   the disabled cost is one relaxed load and a branch.
//! * [`LogHistogram`] — an HDR-style log-bucketed concurrent histogram
//!   (record / merge / quantile) replacing ad-hoc latency vectors.
//! * [`PerfCounters`] — one vertex's lifetime busy time, request count
//!   and cost quantiles; `labstor-core` keeps one per LabMod uuid and
//!   observes into it where it runs the vertex.
//! * [`ClockCell`] — a worker's published `(now, busy)` virtual-clock
//!   snapshot: one publication path for worker-visible time.
//! * [`Stat`] — the workspace's one counter type for a value that orders
//!   no other memory (counts, extrema, published metrics).
//! * [`export`] — Chrome trace-event JSON (loadable in `chrome://tracing`
//!   or Perfetto) and the Fig. 4a text anatomy built from recorded spans.
//!
//! All timestamps are **virtual nanoseconds** from `labstor_sim::Ctx`;
//! recording never advances a virtual clock, so enabling telemetry cannot
//! perturb simulated results — only host-time overhead changes (measured
//! by `crates/bench/benches/primitives.rs`).

pub mod counters;
pub mod export;
pub mod hist;
pub mod span;
pub mod stat;

pub use counters::PerfCounters;
pub use export::{anatomy, chrome_trace, Anatomy};
pub use hist::LogHistogram;
pub use span::{ClockCell, FlightRecorder, SpanEvent, SpanRing, Stage};
pub use stat::Stat;
