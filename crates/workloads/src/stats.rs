//! Virtual-time measurement: latency recorders, percentile math, and the
//! skew gate that keeps concurrently-driven actors causally close.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bounds the virtual-clock divergence of a group of actor threads.
///
/// Virtual time advances per actor; on a host with fewer cores than
/// actors, one thread can race ahead in *real* time and reserve shared
/// resources (device channels, locks) far in its virtual future, which a
/// lagging actor then observes as spurious queueing. A `SkewGate` is the
/// conservative-PDES windowing fix: each actor publishes its clock and
/// yields while it is more than `max_skew_ns` ahead of the slowest live
/// actor.
pub struct SkewGate {
    clocks: Vec<AtomicU64>,
    max_skew_ns: u64,
}

impl SkewGate {
    /// Gate for `n` actors with the given window.
    pub fn new(n: usize, max_skew_ns: u64) -> Self {
        SkewGate {
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            max_skew_ns,
        }
    }

    /// Publish actor `idx`'s clock and wait (yielding) until the slowest
    /// live actor is within the window.
    pub fn sync(&self, idx: usize, now_ns: u64) {
        self.clocks[idx].store(now_ns, Ordering::Release);
        loop {
            let min = self
                .clocks
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .min()
                .unwrap_or(0);
            if now_ns <= min.saturating_add(self.max_skew_ns) {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Mark actor `idx` finished so it no longer holds others back.
    pub fn finish(&self, idx: usize) {
        self.clocks[idx].store(u64::MAX, Ordering::Release);
    }
}

/// Collects per-operation virtual latencies and the workload's virtual
/// time span; computes the aggregates the paper's figures report.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    latencies: Vec<u64>,
    /// Virtual time the workload started.
    pub start_vt: u64,
    /// Virtual time the workload finished.
    pub end_vt: u64,
    /// Bytes moved.
    pub bytes: u64,
}

impl Recorder {
    /// Empty recorder starting at `start_vt`.
    pub fn new(start_vt: u64) -> Self {
        Recorder {
            latencies: Vec::new(),
            start_vt,
            end_vt: start_vt,
            bytes: 0,
        }
    }

    /// Record one operation.
    pub fn record(&mut self, latency_ns: u64, bytes: usize) {
        self.latencies.push(latency_ns);
        self.bytes += bytes as u64;
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Workload span in virtual ns.
    pub fn span_ns(&self) -> u64 {
        self.end_vt.saturating_sub(self.start_vt).max(1)
    }

    /// Operations per second over the virtual span.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops() as f64 * 1e9 / self.span_ns() as f64
    }

    /// Bandwidth in MB/s over the virtual span.
    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 * 1e9 / self.span_ns() as f64 / 1e6
    }

    /// Mean latency in ns.
    pub fn mean_ns(&self) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        (self.latencies.iter().map(|&l| l as u128).sum::<u128>() / self.latencies.len() as u128)
            as u64
    }

    /// Latency percentile (`p` in [0, 100]).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        percentile(&sorted, p / 100.0)
    }

    /// Merge multiple per-thread recorders: latencies concatenate, the
    /// span covers the earliest start to the latest end, bytes add up.
    pub fn merge(recorders: impl IntoIterator<Item = Recorder>) -> Recorder {
        let mut out = Recorder {
            start_vt: u64::MAX,
            ..Default::default()
        };
        for r in recorders {
            out.start_vt = out.start_vt.min(r.start_vt);
            out.end_vt = out.end_vt.max(r.end_vt);
            out.bytes += r.bytes;
            out.latencies.extend(r.latencies);
        }
        if out.start_vt == u64::MAX {
            out.start_vt = 0;
        }
        out
    }
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending slice;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[1, 2, 3, 4], 1.0), 4);
        // Index (n - 1) * p rounds half away from zero: 0.5 -> 1, 1.5 -> 2.
        assert_eq!(percentile(&[10, 20], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.49), 20);
    }

    #[test]
    fn aggregates_compute() {
        let mut r = Recorder::new(0);
        for l in [100, 200, 300, 400] {
            r.record(l, 1024);
        }
        r.end_vt = 1_000_000_000; // one virtual second
        assert_eq!(r.ops(), 4);
        assert_eq!(r.mean_ns(), 250);
        assert!((r.ops_per_sec() - 4.0).abs() < 1e-9);
        assert!((r.mb_per_sec() - 4096.0 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn percentiles() {
        let mut r = Recorder::new(0);
        for l in 1..=100u64 {
            r.record(l * 10, 0);
        }
        assert_eq!(r.percentile_ns(50.0), 510); // rank rounds up at .5
        assert_eq!(r.percentile_ns(99.0), 990);
        assert_eq!(r.percentile_ns(100.0), 1000);
        assert_eq!(r.percentile_ns(0.0), 10);
    }

    #[test]
    fn empty_is_safe() {
        let r = Recorder::new(5);
        assert_eq!(r.mean_ns(), 0);
        assert_eq!(r.percentile_ns(99.0), 0);
        assert_eq!(r.span_ns(), 1);
    }

    #[test]
    fn skew_gate_blocks_until_peers_catch_up() {
        let gate = std::sync::Arc::new(SkewGate::new(2, 100));
        let g = gate.clone();
        let t = std::thread::spawn(move || {
            // Actor 1 races to 1000; must wait until actor 0 passes 900.
            g.sync(1, 1000);
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!t.is_finished(), "actor 1 must be gated");
        gate.sync(0, 950);
        assert!(t.join().unwrap());
    }

    #[test]
    fn skew_gate_finish_releases_peers() {
        let gate = std::sync::Arc::new(SkewGate::new(2, 10));
        let g = gate.clone();
        let t = std::thread::spawn(move || {
            g.sync(1, 5_000);
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        gate.finish(0);
        t.join().unwrap();
    }

    #[test]
    fn merge_spans_and_latencies() {
        let mut a = Recorder::new(100);
        a.record(10, 1);
        a.end_vt = 200;
        let mut b = Recorder::new(50);
        b.record(20, 2);
        b.end_vt = 400;
        let m = Recorder::merge([a, b]);
        assert_eq!(m.start_vt, 50);
        assert_eq!(m.end_vt, 400);
        assert_eq!(m.ops(), 2);
        assert_eq!(m.bytes, 3);
        assert_eq!(m.span_ns(), 350);
    }
}
