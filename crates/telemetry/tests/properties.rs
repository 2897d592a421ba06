//! Randomized property tests for the labtelem primitives: the
//! histogram's conservation/monotonicity/containment laws and the span
//! ring's loss discipline.

use proptest::prelude::*;

use labstor_telemetry::{LogHistogram, SpanEvent, SpanRing, Stage};

/// Values kept inside the histogram's exact domain (< 2^48) so sums are
/// conserved without clamping.
const DOMAIN: u64 = 1 << 48;

fn stage_of(i: u64) -> Stage {
    match i % 6 {
        0 => Stage::Submit,
        1 => Stage::HopReq,
        2 => Stage::Hop,
        3 => Stage::Vertex,
        4 => Stage::Device,
        _ => Stage::HopResp,
    }
}

/// A span whose fields round-trip the ring's packed encoding exactly
/// (stack ids are truncated to 24 bits in the ring).
fn span(i: u64) -> SpanEvent {
    SpanEvent {
        req_id: i.wrapping_mul(0x9E37_79B9),
        stage: stage_of(i),
        stack: (i as u32).wrapping_mul(7) & 0x00FF_FFFF,
        vertex: (i % 13) as u16,
        ring: (i % 5) as u16,
        t_start_vns: i * 1000,
        t_end_vns: i * 1000 + 450,
    }
}

proptest! {
    /// Quantiles are monotone in `q` and live within `[min, max]`.
    #[test]
    fn hist_quantiles_monotone_and_bounded(
        xs in proptest::collection::vec(0u64..DOMAIN, 1..200),
        qa in 0u32..=100,
        qb in 0u32..=100,
    ) {
        let h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let lo = h.quantile(f64::from(lo_q) / 100.0);
        let hi = h.quantile(f64::from(hi_q) / 100.0);
        prop_assert!(lo <= hi, "q{lo_q}={lo} must not exceed q{hi_q}={hi}");
        prop_assert!(h.min() <= lo && hi <= h.max());
    }

    /// Every in-domain value lands in a bucket whose `[lo, hi)` bounds
    /// contain it, with relative width bounded by the sub-bucket count.
    #[test]
    fn hist_bucket_bounds_contain_value(v in 0u64..DOMAIN) {
        let (lo, hi) = LogHistogram::bucket_bounds(v);
        prop_assert!(lo <= v && v < hi, "{v} outside [{lo},{hi})");
        // Log-bucketing error contract: bucket width <= max(1, lo/16).
        prop_assert!(hi - lo <= (lo / 16).max(1));
    }

    /// Up to `capacity` pushes, the ring loses nothing and returns the
    /// spans oldest-first, bit-exact.
    #[test]
    fn ring_no_loss_up_to_capacity(
        cap_bits in 1u32..=7,
        fill in 0u32..=128,
    ) {
        let cap = 1usize << cap_bits;
        let n = (fill as usize).min(cap);
        let ring = SpanRing::new(cap, 3);
        for i in 0..n as u64 {
            ring.push(&span(i));
        }
        prop_assert_eq!(ring.dropped(), 0);
        let got = ring.snapshot();
        prop_assert_eq!(got.len(), n);
        for (i, ev) in got.iter().enumerate() {
            prop_assert_eq!(*ev, span(i as u64));
        }
    }

    /// Past capacity, the ring overwrites oldest-first: the snapshot is
    /// exactly the newest `capacity` spans in order, and `dropped()`
    /// counts the overwritten remainder.
    #[test]
    fn ring_drops_oldest_first(
        cap_bits in 1u32..=6,
        extra in 1u32..=200,
    ) {
        let cap = 1u64 << cap_bits;
        let total = cap + u64::from(extra);
        let ring = SpanRing::new(cap as usize, 0);
        for i in 0..total {
            ring.push(&span(i));
        }
        prop_assert_eq!(ring.dropped(), total - cap);
        let got = ring.snapshot();
        prop_assert_eq!(got.len(), cap as usize);
        for (k, ev) in got.iter().enumerate() {
            prop_assert_eq!(*ev, span(total - cap + k as u64));
        }
    }
}
