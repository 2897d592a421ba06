//! One trial: a fresh device, Runtime and mounted LabStack, an untimed
//! set-up, a timed seeded op stream, and the counters read around it.
//!
//! A trial is the unit of repetition (README, run discipline): its footprint
//! is fixed, so first-touch page faults and the LabFS log region cannot turn
//! a longer run into a different experiment.

use std::sync::Arc;
use std::time::Instant;

use labstor::core::{Client, LabStack, Runtime, RuntimeConfig, StackSpec};
use labstor::ipc::{default_pool, payload_copies, payload_copy_bytes};
use labstor::mods::lru::LruCacheMod;
use labstor::mods::DeviceRegistry;
use labstor::qos::TenantState;
use labstor::sim::{BlockDevice, DeviceKind, SimDevice};
use labstor::telemetry::SpanEvent;

use crate::harness::{self, Speed};
use crate::trace::{self, HostSpan, ProbeSink};
use crate::workloads::Workload;

/// What a trial records besides the end-to-end numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the trial every end-to-end metric comes from.
    Plain,
    /// Pass V: labtelem flight recorder on, stack unmodified.
    Virtual,
    /// Pass H: a `bench_probe` vertex in front of every real vertex.
    Host,
}

/// Monotonic counters of the layers, read before and after the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub dev_reads: u64,
    pub dev_writes: u64,
    pub dev_bytes: u64,
    pub dev_busy_vns: u64,
    pub dev_errors: u64,
    pub lru_hits: u64,
    pub lru_misses: u64,
    pub copies: u64,
    pub copy_bytes: u64,
    pub worker_busy_vns: u64,
    pub worker_processed: u64,
    pub qos_admitted: u64,
    pub qos_rejected: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            dev_reads: self.dev_reads - before.dev_reads,
            dev_writes: self.dev_writes - before.dev_writes,
            dev_bytes: self.dev_bytes - before.dev_bytes,
            dev_busy_vns: self.dev_busy_vns - before.dev_busy_vns,
            dev_errors: self.dev_errors - before.dev_errors,
            lru_hits: self.lru_hits - before.lru_hits,
            lru_misses: self.lru_misses - before.lru_misses,
            copies: self.copies - before.copies,
            copy_bytes: self.copy_bytes - before.copy_bytes,
            worker_busy_vns: self.worker_busy_vns - before.worker_busy_vns,
            worker_processed: self.worker_processed - before.worker_processed,
            qos_admitted: self.qos_admitted - before.qos_admitted,
            qos_rejected: self.qos_rejected - before.qos_rejected,
        }
    }
}

/// Everything in a trial that must repeat exactly when the seed repeats:
/// the virtual clock, every request's virtual latency, and the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualOutcome {
    pub ops: u64,
    pub failed: u64,
    pub user_bytes: u64,
    pub pool_alloc_fails: u64,
    pub virt_ns: u64,
    pub lat_sum_vns: u64,
    pub lat_p50_vns: u64,
    pub lat_p99_vns: u64,
    pub counters: Counters,
}

/// A finished trial. Host times are as the wall clock saw them, each with
/// the machine's speed measured around it (see [`harness::at_reference_speed`]).
pub struct TrialResult {
    pub outcome: VirtualOutcome,
    pub setup_s: f64,
    pub setup_speed: Speed,
    /// The timed region.
    pub wall_ns: u64,
    pub speed: Speed,
    pub peak_rss_mib: f64,
    pub pool_live_after: u64,
    /// Pass V: the labtelem spans of the timed region, and how many were lost.
    pub spans: Vec<SpanEvent>,
    pub dropped_spans: u64,
    /// Pass H: probe spans and the client-side interval of each connector
    /// call (or burst), in ns since the trial's epoch.
    pub host_spans: Vec<HostSpan>,
    pub client_calls: Vec<(u64, u64)>,
    /// Layer name of each vertex of the mounted (uninstrumented) stack.
    pub layers: Vec<&'static str>,
}

/// A virtual and a host timestamp taken when a connector call starts.
#[derive(Clone, Copy)]
pub struct OpStart {
    virt: u64,
    host: u64,
}

/// The handle a workload drives its trial through.
pub struct Trial {
    pub rt: Arc<Runtime>,
    pub stack: Arc<LabStack>,
    pub seed: u64,
    mode: Mode,
    dev: Arc<SimDevice>,
    lru: Option<Arc<dyn labstor::core::LabMod>>,
    tenant: Option<Arc<TenantState>>,
    epoch: Instant,
    sink: Option<Arc<ProbeSink>>,
    // Filled by start()/finish() and the per-op hooks.
    setup_s: f64,
    /// Machine speed before set-up, before the timed region and after it.
    speed: [Speed; 3],
    timed: Option<(Instant, u64, Counters)>,
    wall_ns: u64,
    virt_ns: u64,
    counters: Counters,
    lat_vns: Vec<u64>,
    client_calls: Vec<(u64, u64)>,
    ops: u64,
    failed: u64,
    user_bytes: u64,
    pub pool_alloc_fails: u64,
}

impl Trial {
    fn counters(&self) -> Counters {
        let dev = self.dev.stats().snapshot();
        let (lru_hits, lru_misses) = self
            .lru
            .as_ref()
            .and_then(|m| m.as_any().downcast_ref::<LruCacheMod>())
            .map_or((0, 0), LruCacheMod::hit_stats);
        Counters {
            dev_reads: dev.reads,
            dev_writes: dev.writes,
            dev_bytes: dev.bytes(),
            dev_busy_vns: dev.busy_ns,
            dev_errors: dev.errors,
            lru_hits,
            lru_misses,
            copies: payload_copies(),
            copy_bytes: payload_copy_bytes(),
            worker_busy_vns: self.rt.worker_clocks().iter().map(|&(_, busy)| busy).sum(),
            worker_processed: self.rt.total_processed(),
            qos_admitted: self.tenant.as_ref().map_or(0, |t| t.admitted()),
            qos_rejected: self.tenant.as_ref().map_or(0, |t| t.rejected()),
        }
    }

    /// The counters once they have stopped moving. The worker publishes its
    /// clock after it posts a completion, and LabFS and LabKVS write their
    /// logs from a background thread, so right after the last reply a few
    /// counts are still in flight.
    fn settled_counters(&self) -> Counters {
        let mut last = self.counters();
        for _ in 0..200 {
            // Yield, never sleep: an idle vCPU comes back slower (README).
            let pause = Instant::now();
            while pause.elapsed() < std::time::Duration::from_micros(500) {
                std::thread::yield_now();
            }
            let now = self.counters();
            if now == last {
                break;
            }
            last = now;
        }
        last
    }

    /// Set-up is done: everything from here to [`Trial::finish`] is timed.
    /// `client` is the connection the op stream will use.
    pub fn start(&mut self, client: &Client) {
        self.tenant = client.tenant().cloned();
        self.setup_s = self.epoch.elapsed().as_secs_f64();
        self.speed[1] = Speed::measure();
        if self.mode == Mode::Virtual {
            self.rt.mm.telemetry().enable();
        }
        if let Some(sink) = &self.sink {
            sink.clear(); // set-up requests are not part of the split
        }
        let before = self.settled_counters();
        self.timed = Some((Instant::now(), client.ctx.now(), before));
    }

    /// The op stream is complete.
    pub fn finish(&mut self, client: &Client) {
        let (t0, v0, before) = self.timed.take().expect("finish() follows start()");
        self.wall_ns = t0.elapsed().as_nanos() as u64;
        self.speed[2] = Speed::measure();
        self.virt_ns = client.ctx.now() - v0;
        self.rt.mm.telemetry().disable();
        self.counters = self.settled_counters().since(before);
    }

    /// Call immediately before a connector call that reaches the stack.
    pub fn begin_op(&self, client: &Client) -> OpStart {
        OpStart {
            virt: client.ctx.now(),
            host: match self.mode {
                Mode::Host => self.epoch.elapsed().as_nanos() as u64,
                _ => 0,
            },
        }
    }

    /// Call as soon as that connector call has returned, before checking its
    /// output: checking is the benchmark's work, not the stack's.
    pub fn end_op(&mut self, start: OpStart, client: &Client) {
        self.lat_vns.push(client.ctx.now() - start.virt);
        self.end_call(start);
    }

    /// Record the virtual latency of one operation that the client measured
    /// itself (queue depth above one: `reap_one` returns it).
    pub fn queued_op_done(&mut self, latency_vns: u64) {
        self.lat_vns.push(latency_vns);
    }

    /// Close the client-side host interval opened by `begin_op` (a burst of
    /// queued operations is one interval).
    pub fn end_call(&mut self, start: OpStart) {
        if self.mode == Mode::Host {
            self.client_calls
                .push((start.host, self.epoch.elapsed().as_nanos() as u64));
        }
    }

    /// Count one operation once its output has been checked: `ok` is false
    /// for an error or wrong content.
    pub fn count(&mut self, user_bytes: usize, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
        self.user_bytes += user_bytes as u64;
    }
}

/// The spec's vertex of LabMod type `type_name`, if any.
fn uuid_of<'s>(spec: &'s StackSpec, type_name: &str) -> Option<&'s str> {
    spec.labmods
        .iter()
        .find(|v| v.type_name == type_name)
        .map(|v| v.uuid.as_str())
}

/// Run one trial of `w` with `ops` operations in its timed region (fewer than
/// `w.ops` under `--smoke`) on the calling thread.
pub fn run_trial(w: &Workload, seed: u64, ops: u64, mode: Mode) -> Result<TrialResult, String> {
    harness::reset_peak_rss();
    let speed_before_setup = Speed::measure();
    let epoch = Instant::now();
    let devices = DeviceRegistry::new();
    let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
    // One worker and the admin thread on: the Runtime as users start it,
    // sized for the single client that loads it.
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 1,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    let spec = (w.stack)();
    let layers: Vec<&'static str> = spec
        .labmods
        .iter()
        .map(|v| trace::layer_name(&v.type_name))
        .collect();
    let sink = (mode == Mode::Host).then(|| ProbeSink::install(&rt.mm, epoch));
    let stack = match mode {
        Mode::Host => rt.mount_stack(&trace::instrument(&spec))?,
        _ => rt.mount_stack(&spec)?,
    };
    if mode == Mode::Virtual {
        let capacity = (ops * w.spans_per_op).next_power_of_two() as usize;
        rt.mm.telemetry().set_ring_capacity(capacity);
    }
    let mut trial = Trial {
        lru: uuid_of(&spec, "lru_cache").and_then(|uuid| rt.mm.get(uuid)),
        rt: rt.clone(),
        stack,
        seed,
        mode,
        dev,
        tenant: None,
        epoch,
        sink,
        setup_s: 0.0,
        speed: [speed_before_setup; 3],
        timed: None,
        wall_ns: 0,
        virt_ns: 0,
        counters: Counters::default(),
        lat_vns: Vec::with_capacity(ops as usize),
        client_calls: Vec::with_capacity(match mode {
            Mode::Host => ops as usize,
            _ => 0,
        }),
        ops: 0,
        failed: 0,
        user_bytes: 0,
        pool_alloc_fails: 0,
    };
    (w.run)(&mut trial, ops)?;
    if trial.timed.is_some() || trial.ops == 0 {
        return Err(format!(
            "{}: workload did not complete a timed region",
            w.name
        ));
    }

    let rec = rt.mm.telemetry().clone();
    let (spans, dropped_spans) = match mode {
        Mode::Virtual => (rec.snapshot(), rec.dropped()),
        _ => (Vec::new(), 0),
    };
    let host_spans = trial.sink.as_ref().map_or_else(Vec::new, |s| s.take());
    let peak_rss_mib = harness::peak_rss_mib() - harness::PROBE_BUFFER_MIB as f64;
    rt.shutdown();

    let mut lat = std::mem::take(&mut trial.lat_vns);
    lat.sort_unstable();
    let outcome = VirtualOutcome {
        ops: trial.ops,
        failed: trial.failed,
        user_bytes: trial.user_bytes,
        pool_alloc_fails: trial.pool_alloc_fails,
        virt_ns: trial.virt_ns,
        lat_sum_vns: lat.iter().sum(),
        lat_p50_vns: harness::percentile(&lat, 0.50),
        lat_p99_vns: harness::percentile(&lat, 0.99),
        counters: trial.counters,
    };
    let [s0, s1, s2] = trial.speed;
    let result = TrialResult {
        outcome,
        setup_s: trial.setup_s,
        setup_speed: Speed::between(s0, s1),
        wall_ns: trial.wall_ns,
        speed: Speed::between(s1, s2),
        peak_rss_mib,
        pool_live_after: 0,
        spans,
        dropped_spans,
        host_spans,
        client_calls: std::mem::take(&mut trial.client_calls),
        layers,
    };
    // Dropping the last references tears the LabMods down; only then must
    // every pool buffer be back.
    drop(trial);
    drop(rt);
    drop(devices);
    Ok(TrialResult {
        pool_live_after: default_pool().live(),
        ..result
    })
}
