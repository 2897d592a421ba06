//! A run: interleaved trials of the selected workloads, first untraced (the
//! end-to-end metrics), then the two traced passes and the layer probes (the
//! per-layer metrics), with every cross-trial invariant checked on the way.

use std::path::Path;
use std::time::Instant;

use labstor::ipc::default_pool;

use crate::harness::{at_reference_speed, median, Metric, Speed};
use crate::probes;
use crate::report::{def, HostSample, WorkloadReport, PER_LAYER};
use crate::trace::{self, HostSplit, VirtualSplit, LAYERS};
use crate::trial::{run_trial, Mode, TrialResult, VirtualOutcome};
use crate::workloads::Workload;

/// What to run and for how long.
pub struct Plan<'a> {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    /// Measuring budget per workload, in seconds of wall time.
    pub seconds: f64,
    pub end_to_end: bool,
    pub per_layer: bool,
    /// Quarter-size trials, three untraced rounds, one traced round.
    pub smoke: bool,
    /// Where the Chrome traces go.
    pub out_dir: &'a Path,
}

/// Everything gathered about one workload during a run.
struct Gathered {
    w: &'static Workload,
    /// The first trial's outcome: every later trial must reproduce it.
    reference: Option<VirtualOutcome>,
    trials: u64,
    /// Host-side readings of the measured untraced trials.
    samples: Vec<HostSample>,
    pool_live_after: u64,
    virtual_splits: Vec<VirtualSplit>,
    dropped_spans: u64,
    /// Pass H: the split, the machine's speed around the trial, and the
    /// trial's timed region; all wall ns.
    host_splits: Vec<(HostSplit, Speed, f64)>,
    errors: Vec<String>,
}

impl Gathered {
    fn error(&mut self, what: String) {
        if !self.errors.contains(&what) {
            self.errors.push(what);
        }
    }

    /// One trial on a fresh thread, so that thread-local state (the labtelem
    /// rings, allocator caches) starts equal for every trial.
    fn trial(&mut self, plan: &Plan, mode: Mode) -> Option<TrialResult> {
        let (w, seed) = (self.w, plan.seed);
        let ops = if plan.smoke { w.ops / 4 } else { w.ops };
        let joined = std::thread::scope(|s| s.spawn(|| run_trial(w, seed, ops, mode)).join());
        let t = match joined {
            Ok(Ok(t)) => t,
            Ok(Err(e)) => {
                self.error(format!("{mode:?} trial: {e}"));
                return None;
            }
            Err(_) => {
                self.error(format!("{mode:?} trial panicked"));
                return None;
            }
        };
        self.trials += 1;
        self.pool_live_after = self.pool_live_after.max(t.pool_live_after);
        if t.pool_live_after != 0 {
            self.error(format!(
                "{} pool buffers live after a trial",
                t.pool_live_after
            ));
        }
        // Pass H runs a different (instrumented) stack: same ops and
        // answers, different virtual time.
        let same = match (&self.reference, mode) {
            (None, _) => true,
            (Some(r), Mode::Host) => (r.ops, r.failed) == (t.outcome.ops, t.outcome.failed),
            (Some(r), _) => *r == t.outcome,
        };
        if !same {
            let (first, now) = (format!("{:?}", self.reference), format!("{:?}", t.outcome));
            self.error(format!(
                "same seed, different outcome in a {mode:?} trial: first {first}, now {now}"
            ));
        }
        if mode != Mode::Host {
            self.reference.get_or_insert_with(|| t.outcome.clone());
        }
        Some(t)
    }

    fn plain(&mut self, plan: &Plan, measured: bool) {
        let Some(t) = self.trial(plan, Mode::Plain) else {
            return;
        };
        if measured {
            self.samples.push(HostSample {
                wall_ns_per_op: t.wall_ns as f64 / t.outcome.ops as f64,
                speed: t.speed,
                setup_s: t.setup_s,
                setup_speed: t.setup_speed,
                peak_rss_mib: t.peak_rss_mib,
            });
        }
    }

    fn pass_v(&mut self, plan: &Plan, write_trace: bool) {
        let Some(t) = self.trial(plan, Mode::Virtual) else {
            return;
        };
        let split = trace::virtual_split(&t);
        self.dropped_spans += t.dropped_spans;
        if t.dropped_spans != 0 {
            self.error(format!("{} labtelem spans dropped", t.dropped_spans));
        }
        // At depth 1 the stages of a request tile its latency to the ns. In a
        // burst a request also waits, dequeued, behind the earlier requests
        // of its batch, and no labtelem stage covers that wait: the stages
        // can then only fall short, and by how much is reported.
        let measured = t.outcome.lat_sum_vns;
        let tiles = match self.w.depth {
            1 => split.total_ns.abs_diff(measured) <= split.requests,
            _ => split.total_ns <= measured,
        };
        if split.requests != t.outcome.ops || !tiles {
            self.error(format!(
                "pass V stages do not tile virtual latency: {} vns over {} requests, measured {measured} vns over {} ops",
                split.total_ns, split.requests, t.outcome.ops
            ));
        }
        if write_trace {
            let path = plan
                .out_dir
                .join(format!("trace-{}-virtual.json", self.w.name));
            if let Err(e) = std::fs::write(&path, trace::virtual_chrome_trace(&t)) {
                self.error(format!("{}: {e}", path.display()));
            }
        }
        self.virtual_splits.push(split);
    }

    fn pass_h(&mut self, plan: &Plan, write_trace: bool) {
        let Some(t) = self.trial(plan, Mode::Host) else {
            return;
        };
        match trace::host_split(&t) {
            Ok(split) => self.host_splits.push((split, t.speed, t.wall_ns as f64)),
            Err(e) => self.error(format!("pass H: {e}")),
        }
        if write_trace {
            let path = plan
                .out_dir
                .join(format!("trace-{}-host.json", self.w.name));
            if let Err(e) = std::fs::write(&path, trace::host_chrome_trace(&t)) {
                self.error(format!("{}: {e}", path.display()));
            }
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let Some(r) = &self.reference else {
            return Vec::new();
        };
        let n = self.trials as usize;
        let exact = |name: &str, value: f64| Metric {
            n,
            ..Metric::exact(def(name), value)
        };
        let user_bytes = r.user_bytes.max(1) as f64;
        let (host_ns_per_op, setup_s) = self.host_times();
        let rss: Vec<f64> = self.samples.iter().map(|s| s.peak_rss_mib).collect();
        vec![
            Metric::undisturbed(def("host_ns_per_op"), &host_ns_per_op),
            exact(
                "virt_ops_per_s",
                r.ops as f64 * 1e9 / r.virt_ns.max(1) as f64,
            ),
            exact("virt_lat_p50_vns", r.lat_p50_vns as f64),
            exact("virt_lat_p99_vns", r.lat_p99_vns as f64),
            exact(
                "dev_bytes_per_user_byte",
                r.counters.dev_bytes as f64 / user_bytes,
            ),
            exact(
                "copy_bytes_per_user_byte",
                r.counters.copy_bytes as f64 / user_bytes,
            ),
            Metric::undisturbed(def("setup_s"), &setup_s),
            Metric::of(def("peak_rss_mib"), &rss),
        ]
    }

    /// The memory system's speed over this run: the median of the readings
    /// around the timed regions and around the set-ups. A single reading is
    /// noisy (±8 %) and the memory system drifts over minutes, so unlike the
    /// core clock, which switches between trials, it is applied per run.
    fn memory_speed(&self) -> (f64, f64) {
        let timed: Vec<f64> = self.samples.iter().map(|s| s.speed.memory).collect();
        let setup: Vec<f64> = self.samples.iter().map(|s| s.setup_speed.memory).collect();
        (median(&timed), median(&setup))
    }

    /// A wall time of a trial of this run, taken at core speed `core`, at
    /// reference speed.
    fn at_reference(&self, wall: f64, core: f64, memory: f64) -> f64 {
        at_reference_speed(wall, Speed { core, memory }, self.w.core_share)
    }

    /// Per-trial `(host ns per op, set-up s)` at reference speed.
    fn host_times(&self) -> (Vec<f64>, Vec<f64>) {
        let (memory, setup_memory) = self.memory_speed();
        self.samples
            .iter()
            .map(|s| {
                (
                    self.at_reference(s.wall_ns_per_op, s.speed.core, memory),
                    self.at_reference(s.setup_s, s.setup_speed.core, setup_memory),
                )
            })
            .unzip()
    }

    fn per_layer(&self, probe_metrics: &[Metric]) -> Vec<Metric> {
        let Some(r) = &self.reference else {
            return Vec::new();
        };
        let metric = |name: &str, value: f64| Metric::exact(def(name), value);
        let ops = r.ops as f64;
        let c = &r.counters;
        let per_op = |count: u64| count as f64 / ops;
        let lookups = (c.lru_hits + c.lru_misses).max(1) as f64;
        let mut out = vec![
            metric("sim.dev_reads_per_op", per_op(c.dev_reads)),
            metric("sim.dev_writes_per_op", per_op(c.dev_writes)),
            metric("sim.dev_bytes_per_op", per_op(c.dev_bytes)),
            metric("sim.dev_busy_vns_per_op", per_op(c.dev_busy_vns)),
            metric("sim.dev_errors", c.dev_errors as f64),
            metric("mods.lru_hit_ratio", c.lru_hits as f64 / lookups),
            metric("ipc.payload_copies_per_op", per_op(c.copies)),
            metric(
                "ipc.pool_high_water_slots",
                default_pool().high_water() as f64,
            ),
            metric("ipc.pool_alloc_fail_per_op", per_op(r.pool_alloc_fails)),
            metric("ipc.pool_live_after_trial", self.pool_live_after as f64),
            metric("core.worker_busy_vns_per_op", per_op(c.worker_busy_vns)),
            metric("core.worker_processed_per_op", per_op(c.worker_processed)),
            metric("qos.admitted_per_op", per_op(c.qos_admitted)),
            metric("qos.rejected_per_op", per_op(c.qos_rejected)),
        ];

        // Pass V repeats exactly, so its first trial speaks for all.
        let v = self.virtual_splits.first().cloned().unwrap_or_default();
        let layer_ns = |split: &[(&str, u64)], layer: &str| {
            split
                .iter()
                .find(|(l, _)| *l == layer)
                .map_or(0.0, |&(_, ns)| ns as f64 / ops)
        };
        out.push(metric("ipc.virt_hop_ns", per_op(v.hop_ns)));
        for layer in LAYERS {
            let name = format!("mods.{layer}.virt_self_ns");
            out.push(metric(&name, layer_ns(&v.layer_self_ns, layer)));
        }
        out.push(metric("sim.virt_device_ns", per_op(v.device_ns)));
        out.push(metric(
            "telemetry.virt_unattributed_ns",
            per_op(r.lat_sum_vns.saturating_sub(v.total_ns)),
        ));
        out.push(metric("telemetry.spans_per_op", per_op(v.spans)));
        out.push(metric("telemetry.dropped_spans", self.dropped_spans as f64));

        // Pass H is host time: the median over its trials, each brought to
        // reference speed like the untraced trials.
        let memory = self.memory_speed().0;
        let over_trials = |name: &str, pick: &dyn Fn(&HostSplit) -> f64| {
            let samples: Vec<f64> = self
                .host_splits
                .iter()
                .map(|(split, speed, _)| self.at_reference(pick(split), speed.core, memory))
                .collect();
            Metric::of(def(name), &samples)
        };
        out.push(over_trials("core.host_req_hop_ns", &|s| {
            per_op(s.req_hop_ns)
        }));
        out.push(over_trials("core.host_resp_hop_ns", &|s| {
            per_op(s.resp_hop_ns)
        }));
        for layer in LAYERS {
            let name = format!("mods.{layer}.host_self_ns");
            out.push(over_trials(&name, &|s| layer_ns(&s.layer_self_ns, layer)));
        }
        let sampled = |name: &str, samples: &[f64]| Metric::of(def(name), samples);
        let untraced = median(&self.host_times().0) * ops;
        let overhead: Vec<f64> = self
            .host_splits
            .iter()
            .map(|&(_, speed, wall)| self.at_reference(wall, speed.core, memory) / untraced)
            .collect();
        out.push(sampled("trace.host_overhead_ratio", &overhead));
        let wall: Vec<f64> = self.samples.iter().map(|s| s.wall_ns_per_op).collect();
        let core: Vec<f64> = self.samples.iter().map(|s| s.speed.core).collect();
        let memory: Vec<f64> = self.samples.iter().map(|s| s.speed.memory).collect();
        out.push(sampled("host.wall_ns_per_op", &wall));
        out.push(sampled("host.core_speed", &core));
        out.push(sampled("host.memory_speed", &memory));
        out.extend_from_slice(probe_metrics);
        let position = |m: &Metric| PER_LAYER.iter().position(|(name, _)| *name == m.name);
        out.sort_by_key(position);
        out
    }

    fn report(&self, plan: &Plan, probe_metrics: &[Metric]) -> WorkloadReport {
        let (ops, failed) = self
            .reference
            .as_ref()
            .map_or((0, 0), |r| (r.ops, r.failed));
        WorkloadReport {
            name: self.w.name,
            samples: self.samples.clone(),
            attempted: (ops * self.trials).max(1),
            failed: failed * self.trials,
            errors: self.errors.clone(),
            end_to_end: if plan.end_to_end {
                self.end_to_end()
            } else {
                Vec::new()
            },
            per_layer: if plan.per_layer {
                self.per_layer(probe_metrics)
            } else {
                Vec::new()
            },
        }
    }
}

/// Run `plan` and report each of its workloads.
pub fn run(plan: &Plan) -> Vec<WorkloadReport> {
    let mut all: Vec<Gathered> = plan
        .workloads
        .iter()
        .map(|&w| Gathered {
            w,
            reference: None,
            trials: 0,
            samples: Vec::new(),
            pool_live_after: 0,
            virtual_splits: Vec::new(),
            dropped_spans: 0,
            host_splits: Vec::new(),
            errors: Vec::new(),
        })
        .collect();
    let budget = plan.seconds * all.len() as f64;
    // A traced run still needs untraced trials: the counters, and the
    // reference that pass V must reproduce and pass H is compared to.
    let (untraced_share, traced_rounds, min_rounds) = match (plan.smoke, plan.end_to_end) {
        (true, _) => (0.0, 1, 2),
        (false, true) if !plan.per_layer => (1.0, 0, 5),
        (false, true) => (0.6, 2, 5),
        (false, false) => (0.35, 2, 3),
    };
    let start = Instant::now();
    let mut round_cost = 0.0;
    // Round 0 warms up: code, allocator and page cache reach steady state.
    // Interleaving the workloads spreads the host's slow drift over all of
    // them instead of loading it on whichever ran last.
    for round in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if round > min_rounds && elapsed + round_cost > budget * untraced_share {
            break;
        }
        for g in &mut all {
            g.plain(plan, round > 0);
        }
        round_cost = start.elapsed().as_secs_f64() - elapsed;
    }

    let mut probe_metrics = Vec::new();
    if plan.per_layer {
        for round in 0..traced_rounds {
            for g in &mut all {
                g.pass_v(plan, round == 0);
                g.pass_h(plan, round == 0);
            }
        }
        let left = (budget - start.elapsed().as_secs_f64()).max(0.0);
        let probe_budget = if plan.smoke {
            0.02
        } else {
            (left / 16.0).clamp(0.05, 0.3)
        };
        probe_metrics = probes::run(probe_budget);
    }
    all.iter().map(|g| g.report(plan, &probe_metrics)).collect()
}
