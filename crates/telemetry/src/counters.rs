//! Per-LabMod performance counters: lifetime busy time, request count and
//! a cost histogram for one LabMod instance uuid.
//!
//! The platform owns these, not the LabMods: `labstor-core` observes each
//! vertex's *exclusive* busy time (downstream vertices and the hand-off
//! hop excluded) once per request, in the one function that runs a
//! vertex, into counters its Module Manager keeps per uuid. A LabMod
//! implements `process` and its analytic `est_processing_time` model and
//! is monitored without a line of accounting code (DESIGN.md §8).

use crate::hist::LogHistogram;

/// Concurrent counters of one vertex: a [`LogHistogram`] of the
/// per-request cost, whose exact `sum` and `count` are the lifetime
/// totals.
#[derive(Default)]
pub struct PerfCounters {
    hist: LogHistogram,
}

impl PerfCounters {
    /// Zeroed counters.
    pub fn new() -> PerfCounters {
        PerfCounters::default()
    }

    /// Record one request that cost `ns`.
    pub fn observe(&self, ns: u64) {
        self.hist.record(ns);
    }

    /// Lifetime accounted busy time (the paper's `EstTotalTime`).
    pub fn total_ns(&self) -> u64 {
        self.hist.sum()
    }

    /// Requests observed.
    pub fn ops(&self) -> u64 {
        self.hist.count()
    }

    /// Median observed cost.
    pub fn p50(&self) -> u64 {
        self.hist.p50()
    }

    /// Tail observed cost.
    pub fn p99(&self) -> u64 {
        self.hist.p99()
    }

    /// The cost histogram (for exporters and tests).
    pub fn hist(&self) -> &LogHistogram {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_accumulates_totals_and_quantiles() {
        let p = PerfCounters::new();
        for _ in 0..20 {
            p.observe(400);
        }
        p.observe(10_000);
        assert_eq!(p.total_ns(), 18_000);
        assert_eq!(p.ops(), 21);
        assert_eq!(p.hist().count(), 21);
        assert!(p.p50() >= 400 && p.p50() < 10_000, "p50 {}", p.p50());
        assert!(p.p99() >= 400);
    }
}
