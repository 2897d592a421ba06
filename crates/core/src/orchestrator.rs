//! The Work Orchestrator: queue→worker assignment policies (paper
//! §III-C4).
//!
//! "The WO defines a `rebalance` operation, which takes as input *n*
//! queues and *m* workers," called when a client connects and every `t`
//! ms. The WO is modular; LabStor ships:
//!
//! * **Round-robin** — stripe queues across all workers (the Fig. 5b
//!   baseline: best bandwidth, terrible tail latency under mixed load).
//! * **Dynamic** — classify queues into latency-sensitive (LQs) and
//!   computational (CQs) by the maximum expected processing time of their
//!   requests, place LQs and CQs on disjoint worker subsets, and solve a
//!   modified knapsack: every sack (worker) carries roughly equal weight
//!   (estimated processing time) using the fewest workers that keep the
//!   per-worker load under a threshold.

/// Load summary of one queue, fed to `rebalance`.
#[derive(Debug, Clone, Copy)]
pub struct QueueLoad {
    /// Queue id.
    pub qid: u64,
    /// Estimated processing cost of currently queued requests (ns).
    pub est_load_ns: u64,
    /// Maximum estimated cost of a single request seen on this queue (ns).
    pub max_item_ns: u64,
    /// Demand in milli-workers: processing time consumed (plus backlog)
    /// per unit of virtual time since the last rebalance. 1000 means the
    /// queue keeps exactly one worker busy.
    pub demand_milli: u64,
    /// Median *measured* per-item processing cost from the queue's
    /// labtelem histogram (0 until work has been recorded).
    pub p50_item_ns: u64,
    /// P99 *measured* per-item processing cost from the queue's labtelem
    /// histogram (0 until work has been recorded). When present, the
    /// dynamic policy classifies by this instead of the estimate-derived
    /// `max_item_ns` — one mis-estimated request can no longer pin a
    /// queue in the computational class forever.
    pub p99_item_ns: u64,
}

impl QueueLoad {
    /// The per-item cost the dynamic policy classifies by: the measured
    /// P99 when the queue's histogram has data, else the estimate-derived
    /// maximum (a fresh queue has processed nothing yet).
    pub(crate) fn classify_item_ns(&self) -> u64 {
        if self.p99_item_ns > 0 {
            self.p99_item_ns
        } else {
            self.max_item_ns
        }
    }
}

/// A queue→worker assignment: `assignment[w]` lists the qids worker `w`
/// drains. Its length is the number of *active* workers.
pub type Assignment = Vec<Vec<u64>>;

/// Qids whose worker changed between two assignment shapes (sorted
/// per-worker qid groups), i.e. the queues whose SPSC rings need
/// the drain-and-handoff protocol before the new worker may consume.
///
/// A queue present only in `new` is *not* moved — it has no previous
/// consumer to quiesce. A queue present only in `old` *is* moved: its old
/// consumer must stop even though nobody picks it up.
pub(crate) fn moved_qids(old: &[Vec<u64>], new: &[Vec<u64>]) -> Vec<u64> {
    use std::collections::HashMap;
    fn index(shape: &[Vec<u64>]) -> HashMap<u64, usize> {
        shape
            .iter()
            .enumerate()
            .flat_map(|(w, group)| group.iter().map(move |&q| (q, w)))
            .collect()
    }
    let old_ix = index(old);
    let new_ix = index(new);
    let mut moved: Vec<u64> = old_ix
        .iter()
        .filter(|(qid, w)| new_ix.get(qid) != Some(w))
        .map(|(&qid, _)| qid)
        .collect();
    moved.sort_unstable();
    moved
}

/// Smoothing constant of the weighted-fair pass, in normalized-service
/// milli-units. Small relative to steady-state service totals, so it only
/// damps the scaling while tenants have consumed little service (startup),
/// and prevents a zero-service tenant from zeroing everyone else out.
const FAIR_SMOOTHING_MILLI: u64 = 1_000_000;

/// Weighted-fair pass over queue demands, layered *before* the placement
/// policy: scale each tenant-bound queue's `demand_milli` by how far its
/// tenant's weight-normalized virtual service has run ahead of the
/// least-served tenant — `(min + K) / (norm + K)`. A queue whose tenant
/// has consumed 10× its fair share presents ~1/10 of its raw demand, so
/// the knapsack gives it fewer workers; the floor (1/8 of raw, and never
/// zero for a nonzero demand) guarantees deprioritization, not starvation.
/// Queues with no tenant binding (absent from `norm_service_milli`) pass
/// through untouched, as does everything when a single tenant (or none)
/// is present — then all normalized services are equal.
pub fn apply_weighted_fair(
    loads: &mut [QueueLoad],
    norm_service_milli: &std::collections::HashMap<u64, u64>,
) {
    let min_norm = loads
        .iter()
        .filter_map(|l| norm_service_milli.get(&l.qid).copied())
        .min()
        .unwrap_or(0);
    let k = FAIR_SMOOTHING_MILLI;
    for l in loads.iter_mut() {
        let Some(&norm) = norm_service_milli.get(&l.qid) else {
            continue;
        };
        if norm <= min_norm || l.demand_milli == 0 {
            continue;
        }
        let scaled = ((l.demand_milli as u128).saturating_mul((min_norm + k) as u128)
            / (norm.saturating_add(k)) as u128) as u64;
        l.demand_milli = scaled.max(l.demand_milli / 8).max(1);
    }
}

/// A pluggable rebalance policy.
pub trait OrchestratorPolicy: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Distribute `queues` over at most `max_workers` workers.
    fn rebalance(&self, queues: &[QueueLoad], max_workers: usize) -> Assignment;
}

/// Round-robin: all workers active, queues striped.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobinPolicy;

impl OrchestratorPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn rebalance(&self, queues: &[QueueLoad], max_workers: usize) -> Assignment {
        let n = max_workers.max(1);
        let mut out: Assignment = vec![Vec::new(); n];
        for (i, q) in queues.iter().enumerate() {
            out[i % n].push(q.qid);
        }
        out
    }
}

/// Configuration of the dynamic policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DynamicConfig {
    /// A queue whose largest request exceeds this is computational.
    pub(crate) latency_threshold_ns: u64,
    /// Demand (milli-workers) one worker is allowed to carry — the
    /// "performance loss under a configurable threshold" knob. 900 means
    /// workers are sized for 90% utilization.
    pub(crate) worker_capacity_milli: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            latency_threshold_ns: 100_000, // 100 µs
            worker_capacity_milli: 900,
        }
    }
}

/// The paper's dynamic policy: LQ/CQ classification + balanced knapsack
/// partitioning with the fewest workers under the capacity threshold.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynamicPolicy {
    /// Tunables.
    pub(crate) config: DynamicConfig,
}

impl DynamicPolicy {
    /// Longest-processing-time greedy packing of `queues` into `bins`
    /// sacks of approximately equal weight (the modified knapsack where
    /// "each sack has equal weight"). Demands are bucketed to powers of
    /// two and ties broken by qid so small demand fluctuations do not
    /// reshuffle the assignment every epoch (queue migration is
    /// disruptive: a moved queue lands behind its new worker's timeline).
    fn pack(queues: &[QueueLoad], bins: usize) -> Assignment {
        let bins = bins.max(1);
        let bucket = |d: u64| d.max(1).next_power_of_two();
        let mut sorted: Vec<&QueueLoad> = queues.iter().collect();
        sorted.sort_by_key(|q| (std::cmp::Reverse(bucket(q.demand_milli)), q.qid));
        let mut out: Assignment = vec![Vec::new(); bins];
        let mut weight = vec![0u64; bins];
        for q in sorted {
            let min = (0..bins)
                .min_by_key(|&b| (weight[b], b))
                .expect("bins >= 1");
            out[min].push(q.qid);
            weight[min] += bucket(q.demand_milli);
        }
        out
    }

    fn workers_for(&self, total_demand_milli: u64, queues: usize, budget: usize) -> usize {
        if queues == 0 {
            return 0;
        }
        (total_demand_milli.div_ceil(self.config.worker_capacity_milli.max(1)) as usize)
            .clamp(1, budget.max(1))
    }
}

impl OrchestratorPolicy for DynamicPolicy {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn rebalance(&self, queues: &[QueueLoad], max_workers: usize) -> Assignment {
        let (lqs, cqs): (Vec<QueueLoad>, Vec<QueueLoad>) = queues
            .iter()
            .partition(|q| q.classify_item_ns() <= self.config.latency_threshold_ns);
        let lq_demand: u64 = lqs.iter().map(|q| q.demand_milli).sum();
        let cq_demand: u64 = cqs.iter().map(|q| q.demand_milli).sum();

        let max_workers = max_workers.max(1);
        let mut lq_workers = self.workers_for(lq_demand, lqs.len(), max_workers);
        let mut cq_workers =
            self.workers_for(cq_demand, cqs.len(), max_workers.saturating_sub(lq_workers));
        // At least one worker for each populated class; if only one worker
        // exists in total, both classes share it.
        if lq_workers + cq_workers == 0 {
            return vec![Vec::new()];
        }
        if lq_workers + cq_workers > max_workers {
            // Trim the larger class first.
            while lq_workers + cq_workers > max_workers {
                if cq_workers >= lq_workers && cq_workers > 1 {
                    cq_workers -= 1;
                } else if lq_workers > 1 {
                    lq_workers -= 1;
                } else {
                    break;
                }
            }
        }
        if max_workers == 1 || (lq_workers + cq_workers) > max_workers {
            // Degenerate: everything on one worker.
            let mut all = Vec::new();
            for q in queues {
                all.push(q.qid);
            }
            return vec![all];
        }
        let mut out = Self::pack(&lqs, lq_workers.max(usize::from(!lqs.is_empty())));
        if lqs.is_empty() {
            out.clear();
        }
        if !cqs.is_empty() {
            out.extend(Self::pack(&cqs, cq_workers.max(1)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(qid: u64, demand_milli: u64, max_item: u64) -> QueueLoad {
        QueueLoad {
            qid,
            est_load_ns: demand_milli,
            max_item_ns: max_item,
            demand_milli,
            p50_item_ns: 0,
            p99_item_ns: 0,
        }
    }

    #[test]
    fn weighted_fair_scales_overserved_tenant_down() {
        let mut loads = vec![q(0, 1000, 10), q(1, 1000, 10)];
        let norm = std::collections::HashMap::from([(0u64, 0u64), (1u64, 9_000_000u64)]);
        apply_weighted_fair(&mut loads, &norm);
        // Least-served queue untouched; the 9×-ahead tenant's demand is
        // scaled toward (0 + K)/(9M + K) = 1/10, floored at 1/8.
        assert_eq!(loads[0].demand_milli, 1000);
        assert_eq!(loads[1].demand_milli, 125);
    }

    #[test]
    fn weighted_fair_single_tenant_is_noop() {
        let mut loads = vec![q(0, 700, 10), q(1, 300, 10)];
        let norm = std::collections::HashMap::from([(0u64, 5_000u64), (1u64, 5_000u64)]);
        apply_weighted_fair(&mut loads, &norm);
        assert_eq!(loads[0].demand_milli, 700);
        assert_eq!(loads[1].demand_milli, 300);
    }

    #[test]
    fn weighted_fair_leaves_unbound_queues_alone() {
        let mut loads = vec![q(0, 400, 10), q(1, 400, 10), q(2, 400, 10)];
        let norm = std::collections::HashMap::from([(0u64, 0u64), (1u64, 50_000_000u64)]);
        apply_weighted_fair(&mut loads, &norm);
        assert_eq!(loads[0].demand_milli, 400);
        assert!(loads[1].demand_milli < 400 && loads[1].demand_milli >= 50);
        assert_eq!(loads[2].demand_milli, 400); // untenanted passthrough
    }

    #[test]
    fn weighted_fair_never_zeroes_demand() {
        let mut loads = vec![q(0, 1, 10), q(1, 1, 10)];
        let norm = std::collections::HashMap::from([(0u64, 0u64), (1u64, u64::MAX / 2)]);
        apply_weighted_fair(&mut loads, &norm);
        assert_eq!(loads[1].demand_milli, 1);
    }

    #[test]
    fn moved_qids_detects_regrouping() {
        let old = vec![vec![0, 1], vec![2]];
        let new = vec![vec![0], vec![1, 2]];
        // Queue 1 moved worker 0 → 1; queues 0 and 2 stayed put.
        assert_eq!(moved_qids(&old, &new), vec![1]);
    }

    #[test]
    fn moved_qids_new_queues_are_not_moved() {
        let old = vec![vec![0]];
        let new = vec![vec![0, 1], vec![2]];
        // 1 and 2 are brand new: no previous consumer to quiesce.
        assert!(moved_qids(&old, &new).is_empty());
    }

    #[test]
    fn moved_qids_dropped_queues_are_moved() {
        let old = vec![vec![0, 1]];
        let new = vec![vec![0]];
        // 1 lost its worker: its old consumer must still stop.
        assert_eq!(moved_qids(&old, &new), vec![1]);
    }

    #[test]
    fn moved_qids_identical_shapes_move_nothing() {
        let shape = vec![vec![3, 4], vec![5]];
        assert!(moved_qids(&shape, &shape).is_empty());
    }

    #[test]
    fn round_robin_uses_all_workers() {
        let queues: Vec<QueueLoad> = (0..6).map(|i| q(i, 100, 10)).collect();
        let a = RoundRobinPolicy.rebalance(&queues, 3);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|w| w.len() == 2));
    }

    #[test]
    fn round_robin_covers_every_queue_exactly_once() {
        let queues: Vec<QueueLoad> = (0..7).map(|i| q(i, 1, 1)).collect();
        let a = RoundRobinPolicy.rebalance(&queues, 4);
        let mut all: Vec<u64> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_separates_lq_from_cq() {
        let policy = DynamicPolicy::default();
        // Two fast queues, two slow (compression-style) queues.
        let queues = vec![
            q(0, 100, 3_000),
            q(1, 100, 3_000),
            q(2, 950, 20_000_000),
            q(3, 950, 20_000_000),
        ];
        let a = policy.rebalance(&queues, 8);
        // Find which worker got queue 0; it must not also hold queue 2/3.
        let lq_worker = a.iter().find(|w| w.contains(&0)).expect("queue 0 assigned");
        assert!(
            !lq_worker.contains(&2) && !lq_worker.contains(&3),
            "LQs must not share a worker with CQs: {a:?}"
        );
    }

    #[test]
    fn measured_p99_overrides_estimated_max_item() {
        let policy = DynamicPolicy::default();
        // Queue 0 once saw a wildly over-estimated request (est 20 ms),
        // but its *measured* P99 is 3 µs — the histogram wins and it
        // classifies as latency-sensitive next to queue 1.
        let mut fast_measured = q(0, 100, 20_000_000);
        fast_measured.p50_item_ns = 2_000;
        fast_measured.p99_item_ns = 3_000;
        let queues = vec![
            fast_measured,
            q(1, 100, 3_000),
            q(2, 950, 20_000_000),
            q(3, 950, 20_000_000),
        ];
        let a = policy.rebalance(&queues, 8);
        let w0 = a.iter().find(|w| w.contains(&0)).expect("queue 0 assigned");
        assert!(
            !w0.contains(&2) && !w0.contains(&3),
            "measured-fast queue must not share a worker with CQs: {a:?}"
        );
    }

    #[test]
    fn dynamic_scales_workers_with_load() {
        let policy = DynamicPolicy::default();
        let light: Vec<QueueLoad> = (0..8).map(|i| q(i, 50, 5_000)).collect();
        let heavy: Vec<QueueLoad> = (0..8).map(|i| q(i, 700, 5_000)).collect();
        let a_light = policy.rebalance(&light, 8);
        let a_heavy = policy.rebalance(&heavy, 8);
        assert!(
            a_light.len() < a_heavy.len(),
            "more load → more workers: {} vs {}",
            a_light.len(),
            a_heavy.len()
        );
        assert!(a_heavy.len() <= 8);
    }

    #[test]
    fn dynamic_respects_max_workers() {
        let policy = DynamicPolicy::default();
        let heavy: Vec<QueueLoad> = (0..16).map(|i| q(i, 1_000, 20_000_000)).collect();
        let a = policy.rebalance(&heavy, 4);
        assert!(a.len() <= 4);
        let mut all: Vec<u64> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>(), "all queues assigned");
    }

    #[test]
    fn dynamic_balances_weight_lpt() {
        let queues = vec![q(0, 900, 1), q(1, 500, 1), q(2, 400, 1), q(3, 10, 1)];
        let a = DynamicPolicy::pack(&queues, 2);
        let w: Vec<u64> = a
            .iter()
            .map(|bin| {
                bin.iter()
                    .map(|qid| queues.iter().find(|q| q.qid == *qid).unwrap().est_load_ns)
                    .sum()
            })
            .collect();
        // LPT: 900+10 vs 500+400 — near-equal sacks.
        assert_eq!(w.iter().sum::<u64>(), 1810);
        assert!(w.iter().max().unwrap() - w.iter().min().unwrap() <= 10);
    }

    #[test]
    fn empty_queue_set_yields_one_idle_worker() {
        let a = DynamicPolicy::default().rebalance(&[], 8);
        assert_eq!(a.len(), 1);
        assert!(a[0].is_empty());
    }

    #[test]
    fn single_worker_takes_everything() {
        let queues = vec![q(0, 10, 5_000), q(1, 10, 20_000_000)];
        let a = DynamicPolicy::default().rebalance(&queues, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), 2);
    }
}
