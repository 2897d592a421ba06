//! Lock-free HDR-style log-bucketed histogram.
//!
//! Values (virtual nanoseconds) are binned into base-2 octaves, each
//! split into `SUB` linear sub-buckets, giving a worst-case relative
//! quantile error of `1/SUB` (6.25%) across the whole range — the same
//! scheme HdrHistogram uses. Every counter is a [`Stat`], so `record` is
//! lock-free and safe from any number of threads; `quantile` reads
//! concurrently-updated counters and is approximate by design
//! (monitoring, not accounting).

use crate::Stat;

/// Log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (bounds the relative error at 1/SUB).
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the direct range; covers values up to 2^48 ns (~3 days
/// of virtual time), far beyond any simulated latency.
const OCTAVES: u64 = 44;
/// Total buckets: SUB direct (exact, width 1) + OCTAVES * SUB log-linear.
const N_BUCKETS: usize = (SUB + OCTAVES * SUB) as usize;
/// Values at or above this clamp into the last bucket.
const MAX_VALUE: u64 = (1u64 << (SUB_BITS as u64 + OCTAVES)) - 1;

/// Bucket index for a (clamped) value.
fn index(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let top = 63 - u64::from(v.leading_zeros()); // >= SUB_BITS
    let octave = top - u64::from(SUB_BITS); // 0-based octave above direct range
    let sub = (v >> (top - u64::from(SUB_BITS))) - SUB; // 0..SUB
    (SUB + octave * SUB + sub) as usize
}

/// `[lo, hi)` bounds of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, idx + 1);
    }
    let octave = (idx - SUB) / SUB;
    let sub = (idx - SUB) % SUB;
    let top = octave + u64::from(SUB_BITS);
    let width = 1u64 << (top - u64::from(SUB_BITS));
    let lo = (1u64 << top) + sub * width;
    (lo, lo + width)
}

/// A concurrent log-bucketed histogram of `u64` values (ns).
pub struct LogHistogram {
    counts: Box<[Stat]>,
    count: Stat,
    sum: Stat,
    min: Stat,
    max: Stat,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Empty histogram (~5.8 KB of counters).
    pub fn new() -> Self {
        LogHistogram {
            counts: (0..N_BUCKETS).map(|_| Stat::new(0)).collect(),
            count: Stat::new(0),
            sum: Stat::new(0),
            min: Stat::new(u64::MAX),
            max: Stat::new(0),
        }
    }

    /// Record one value. Lock-free: three [`Stat`] adds, and a min/max
    /// that store only when the value is a new extremum.
    /// Values above the histogram's domain clamp to `MAX_VALUE` —
    /// everywhere, including `min`/`max`/`sum`, so all statistics
    /// describe the same clamped stream.
    pub fn record(&self, v: u64) {
        let v = v.min(MAX_VALUE);
        self.counts[index(v)].add(1);
        self.count.add(1);
        self.sum.add(v);
        self.min.min(v);
        self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of recorded values.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.get();
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max.get()
    }

    /// Mean of recorded values (0 when empty).
    #[cfg(test)]
    fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`: the highest value equivalent to
    /// the bucket holding rank `ceil(q * count)` (HdrHistogram semantics),
    /// clamped to the recorded `[min, max]`. 0 when empty. Within-bucket
    /// error is bounded by 1/16 of the value.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without float edge cases; rank is 1-based.
        let target = (((n as f64) * q).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            cum += c.get();
            if cum >= target {
                let (_, hi) = bounds(idx);
                return (hi - 1).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Tail estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// `[lo, hi)` bounds of the bucket `v` lands in (for tests and docs).
    // api-ok: crates/telemetry/tests/properties.rs checks every value lands in its bucket
    pub fn bucket_bounds(v: u64) -> (u64, u64) {
        bounds(index(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 7, 15] {
            h.record(v);
            let (lo, hi) = LogHistogram::bucket_bounds(v);
            assert_eq!((lo, hi), (v, v + 1));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn index_is_monotone_and_bounds_contain() {
        let mut last = 0usize;
        for v in (0..4096u64).chain((1u64 << 30) - 4..(1 << 30) + 4) {
            let idx = index(v);
            assert!(idx >= last, "index must be monotone at {v}");
            last = idx;
            let (lo, hi) = bounds(idx);
            assert!(lo <= v && v < hi, "{v} outside [{lo},{hi})");
        }
    }

    #[test]
    fn quantiles_bound_error() {
        let h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(100_000);
        }
        let p50 = h.p50();
        // Within one sub-bucket (6.25%) of the true value.
        assert!((100_000..=100_000 + 100_000 / 16 + 1).contains(&p50));
        assert_eq!(h.quantile(1.0), 100_000); // clamped to recorded max
        assert_eq!(h.mean(), 100_000);
    }

    /// Four threads record one shuffled value set, split between them,
    /// into a histogram and into bare `Stat`s; every statistic and every
    /// bucket must equal the sequential fold of the same values.
    #[test]
    fn concurrent_records_equal_the_sequential_fold() {
        // Values spread over many octaves, the domain's clamp included.
        let mut values: Vec<u64> = (0..4000u64).map(|i| i * i * 977 + i % 13).collect();
        values.push(u64::MAX);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..values.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.swap(i, (x % (i as u64 + 1)) as usize);
        }

        let seq = LogHistogram::new();
        for &v in &values {
            seq.record(v);
        }
        let conc = LogHistogram::new();
        let (sum, lo, hi) = (Stat::new(0), Stat::new(u64::MAX), Stat::new(0));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for part in values.chunks(values.len().div_ceil(4)) {
                let (conc, sum, lo, hi, start) = (&conc, &sum, &lo, &hi, &start);
                s.spawn(move || {
                    start.wait();
                    for &v in part {
                        conc.record(v);
                        sum.add(v);
                        lo.min(v);
                        hi.max(v);
                    }
                });
            }
        });

        let fold_sum = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(sum.get(), fold_sum);
        assert_eq!(lo.get(), *values.iter().min().unwrap());
        assert_eq!(hi.get(), u64::MAX);
        assert_eq!(
            (conc.count(), conc.sum(), conc.min(), conc.max()),
            (seq.count(), seq.sum(), seq.min(), seq.max())
        );
        assert_eq!(conc.count(), values.len() as u64);
        for (i, (c, s)) in conc.counts.iter().zip(seq.counts.iter()).enumerate() {
            assert_eq!(c.get(), s.get(), "bucket {i} {:?}", bounds(i));
        }
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        // Everything above the domain clamps to MAX_VALUE, consistently
        // across max/min/quantile.
        assert_eq!(h.max(), MAX_VALUE);
        assert_eq!(h.min(), MAX_VALUE);
        assert_eq!(h.quantile(0.5), MAX_VALUE);
    }
}
