//! Idle-fleet reactor benchmark: 4096 bound queues, 8 active, emitting
//! `BENCH_reactor.json`.
//!
//! The completion-driven reactor's promise is that *bound but idle*
//! queues cost ~zero worker CPU: workers sleep on their assignment's
//! doorbell and wake only when a producer rings. This bench pits the two
//! waiting disciplines against each other over an identical harness —
//! 4 consumer threads, `BOUND_QUEUES` SPSC pairs split evenly, 8 queues
//! driven by a paced client, the same scan/complete loop — so the ratios
//! measure the idle arm and nothing else:
//!
//! * **reactor phase** — each consumer registers one [`Doorbell`] on all
//!   of its queues and runs the PR 9 `worker_loop` discipline: capture
//!   the epoch, scan, and `wait_past` when the pass found nothing (same
//!   25 ms safety net).
//! * **polling baseline** — the pre-reactor idle arm, verbatim:
//!   `Backoff::snooze` (spin, then yield the host core) after an empty
//!   pass.
//!
//! Worker CPU is read from `/proc/self/task/*/stat` (utime+stime of the
//! phase's consumer threads); the driver tight-spins on `reap` in both
//! phases so the roundtrip histogram isolates the worker-side
//! wake-to-dispatch cost. The interesting numbers are the ratios:
//! `cpu_ratio` (polling ticks / reactor ticks — the idle-fleet savings,
//! target ≥50×) and `wake_ratio` (reactor roundtrip p99 / polling
//! roundtrip p99 — the price of parking, target ≤1.2×).
//!
//! The gate is hard on what this process can count and silent on what
//! only the host's scheduler decides. `cpu_ratio` must be ≥10× (it held
//! 78–199× in every recorded run). The wake side is gated on the
//! reactor workers' own counters, which are exact: **no rescued
//! wakeups** — a `wait_past` that ran into the 25 ms safety net and
//! whose next scan then found work, i.e. a request the doorbell never
//! announced — and **at most one park per paced roundtrip**
//! ([`Doorbell::parks`], not counting parks that ended in the safety
//! net): a ring wakes one park, so more would mean wakeups that found
//! nothing to do. `wake_ratio` divides one host-clock p99 by another;
//! on a 2-vCPU guest its centre sits at the old 3× ceiling for any
//! commit (parent and change failed it alike, up to 108×), so it is
//! reported — every repetition and the median — and not gated.
//! The (reactor, polling) pair is repeated [`REPS`] times, alternately,
//! and the ratios are medians over the repetitions.
//!
//! Usage: `bench_reactor [--smoke]` — `--smoke` shortens the window for
//! CI and writes `target/bench/BENCH_reactor.json` instead.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::Backoff;
use labstor_bench::Report;
use labstor_ipc::{Doorbell, QueueFlags, QueuePair};
use labstor_sim::Ctx;
use labstor_workloads::stats::percentile;

const WORKERS: usize = 4;
const BOUND_QUEUES: usize = 4096;
const ACTIVE_QUEUES: usize = 8;
const QUEUE_DEPTH: usize = 16;
/// The reactor workers' safety-net park bound (mirrors
/// `core::worker::PARK_SAFETY`).
const PARK_SAFETY: Duration = Duration::from_millis(25);
/// Gap between paced roundtrips: the active tenants are lightly loaded,
/// so worker CPU is dominated by how the consumers wait, not by work.
const PACE: Duration = Duration::from_millis(2);
/// (reactor, polling) repetitions; odd, so the median is one of them.
const REPS: usize = 5;

/// Idle arm under test.
#[derive(Clone, Copy, PartialEq)]
enum WaitMode {
    /// PR 9 reactor: park on the per-worker doorbell.
    Doorbell,
    /// Pre-PR 9 polling: `Backoff::snooze` after an empty pass.
    Polling,
}

/// Sum utime+stime clock ticks of every thread whose name starts with
/// `prefix` (thread names land in the `comm` field of
/// `/proc/self/task/<tid>/stat`, truncated to 15 bytes).
fn thread_cpu_ticks(prefix: &str) -> u64 {
    let mut total = 0u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // comm is parenthesized and may itself contain spaces or parens;
        // parse from the last ')'.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        if !stat[open + 1..close].starts_with(prefix) {
            continue;
        }
        let fields: Vec<&str> = stat[close + 2..].split(' ').collect();
        // Fields after comm start at `state` (overall field 3): utime is
        // overall field 14 → index 11, stime 15 → 12.
        let utime: u64 = fields.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
        let stime: u64 = fields.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
        total += utime + stime;
    }
    total
}

struct PhaseResult {
    worker_cpu_ticks: u64,
    ops: usize,
    p50_ns: u64,
    p99_ns: u64,
    /// Summed over the phase's consumers (all zero when polling).
    bells: BellCounts,
}

/// What one reactor consumer counted on its doorbell over its lifetime.
#[derive(Clone, Copy, Default)]
struct BellCounts {
    /// `wait_past` calls that went to sleep ([`Doorbell::parks`]).
    parks: u64,
    /// Parks that ended in the safety net (`wait_past` returned `false`).
    timeouts: u64,
    /// Timeouts whose next scan found work: a wakeup the bell missed.
    rescued: u64,
}

impl BellCounts {
    /// Parks a ring ended, per roundtrip driven. A ring wakes at most
    /// one park, so this is ≤ 1 unless wakeups find nothing to do.
    fn parks_per_roundtrip(&self, ops: usize) -> f64 {
        (self.parks - self.timeouts) as f64 / ops.max(1) as f64
    }
}

/// Run one phase: `WORKERS` consumer threads (named `<prefix>-<i>`) over
/// `BOUND_QUEUES` SPSC pairs, waiting per `mode`; the driver paces
/// roundtrips across the first `ACTIVE_QUEUES` queues and tight-spins on
/// `reap` so the histogram captures worker-side dispatch latency.
fn run_phase(
    mode: WaitMode,
    prefix: &'static str,
    window: Duration,
    settle: Duration,
) -> PhaseResult {
    let qps: Vec<Arc<QueuePair<u64>>> = (0..BOUND_QUEUES)
        .map(|i| Arc::new(QueuePair::new(i as u64, QUEUE_DEPTH, QueueFlags::default())))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let per_worker = BOUND_QUEUES.div_ceil(WORKERS);
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let mine: Vec<Arc<QueuePair<u64>>> = qps
                .iter()
                .skip(w * per_worker)
                .take(per_worker)
                .cloned()
                .collect();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(format!("{prefix}-{w}"))
                .spawn(move || {
                    let bell = Arc::new(Doorbell::new());
                    if mode == WaitMode::Doorbell {
                        // The reactor's wake-set: this worker's bell on
                        // every assigned queue's SQ.
                        for q in &mine {
                            q.register_sq_bell(&bell);
                        }
                    }
                    let mut ctx = Ctx::new();
                    let backoff = Backoff::new();
                    let mut counts = BellCounts::default();
                    let mut timed_out = false;
                    while !stop.load(Ordering::Acquire) {
                        // Capture before the scan (doorbell protocol).
                        let epoch = bell.epoch();
                        let mut did_work = false;
                        for q in &mine {
                            while let Some(env) = q.consume(&mut ctx, 0) {
                                did_work = true;
                                q.complete(env.payload, ctx.now(), 0).unwrap();
                            }
                        }
                        counts.rescued += u64::from(timed_out && did_work);
                        timed_out = false;
                        if did_work {
                            backoff.reset();
                        } else {
                            match mode {
                                // PR 9 idle arm: park until a producer
                                // rings (safety-net bound as in
                                // worker_loop).
                                WaitMode::Doorbell => {
                                    timed_out = !bell.wait_past(epoch, PARK_SAFETY);
                                    counts.timeouts += u64::from(timed_out);
                                }
                                // Pre-PR 9 idle arm: spin, then yield.
                                WaitMode::Polling => backoff.snooze(),
                            }
                        }
                    }
                    counts.parks = bell.parks();
                    counts
                })
                .expect("spawn consumer")
        })
        .collect();

    std::thread::sleep(settle);

    let cpu0 = thread_cpu_ticks(prefix);
    let t0 = Instant::now();
    let mut ctx = Ctx::new();
    let mut lat: Vec<u64> = Vec::new();
    let mut next = 0u64;
    while t0.elapsed() < window {
        let qp = &qps[(next as usize) % ACTIVE_QUEUES];
        let op0 = Instant::now();
        qp.submit(next, ctx.now(), 1).unwrap();
        while qp.reap(&mut ctx, 1).is_none() {
            // Busy observer, but yield the core: the histogram should
            // time the worker's wake-to-dispatch, and on small hosts a
            // hard spin would make the woken worker wait out the
            // driver's scheduling quantum first.
            std::thread::yield_now();
        }
        lat.push(op0.elapsed().as_nanos() as u64);
        next += 1;
        std::thread::sleep(PACE);
    }
    let worker_cpu_ticks = thread_cpu_ticks(prefix) - cpu0;
    stop.store(true, Ordering::Release);
    let mut bells = BellCounts::default();
    for w in workers {
        let counts = w.join().expect("consumer thread");
        bells.parks += counts.parks;
        bells.timeouts += counts.timeouts;
        bells.rescued += counts.rescued;
    }

    lat.sort_unstable();
    PhaseResult {
        worker_cpu_ticks,
        ops: lat.len(),
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        bells,
    }
}

/// One (reactor, polling) repetition.
struct Rep {
    reactor: PhaseResult,
    polling: PhaseResult,
}

impl Rep {
    /// Worker CPU savings of sleeping on doorbells vs scanning. A parked
    /// reactor can legitimately read 0 ticks over the window; clamp the
    /// denominator to one tick so the ratio stays finite.
    fn cpu_ratio(&self) -> f64 {
        self.polling.worker_cpu_ticks as f64 / self.reactor.worker_cpu_ticks.max(1) as f64
    }

    /// Price of the park/wake path on an active queue's roundtrip tail.
    fn wake_ratio(&self) -> f64 {
        self.reactor.p99_ns as f64 / self.polling.p99_ns.max(1) as f64
    }
}

/// Middle element of an odd-length sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> ExitCode {
    let mut report = Report::from_args("reactor_idle_fleet", "BENCH_reactor.json");
    // Smoke shortens the window, not the fleet: the ceilings below were
    // set for 1024 queues per worker, and at an eighth of that the
    // polling arm's scan is so short that it wins any wake race.
    let (window, settle) = if report.smoke() {
        (Duration::from_millis(400), Duration::from_millis(100))
    } else {
        (Duration::from_secs(2), Duration::from_millis(300))
    };

    // Alternate the two arms so a slow stretch of the host lands on both.
    let reps: Vec<Rep> = (0..REPS)
        .map(|_| Rep {
            reactor: run_phase(WaitMode::Doorbell, "bellworker", window, settle),
            polling: run_phase(WaitMode::Polling, "pollworker", window, settle),
        })
        .collect();
    let cpu_ratio = median(reps.iter().map(Rep::cpu_ratio).collect());
    let wake_ratio = median(reps.iter().map(Rep::wake_ratio).collect());

    // The counted invariants hold in every repetition or not at all.
    let rescued: u64 = reps.iter().map(|rep| rep.reactor.bells.rescued).sum();
    let parks_per_roundtrip = reps
        .iter()
        .map(|rep| rep.reactor.bells.parks_per_roundtrip(rep.reactor.ops))
        .fold(0.0, f64::max);

    for (i, rep) in reps.iter().enumerate() {
        for (phase, r) in [("reactor", &rep.reactor), ("polling", &rep.polling)] {
            report.row([
                ("rep", i.into()),
                ("phase", phase.into()),
                ("worker_cpu_ticks", r.worker_cpu_ticks.into()),
                ("ops", r.ops.into()),
                ("roundtrip_p50_ns", r.p50_ns.into()),
                ("roundtrip_p99_ns", r.p99_ns.into()),
                ("parks", r.bells.parks.into()),
                ("park_timeouts", r.bells.timeouts.into()),
                ("rescued_wakeups", r.bells.rescued.into()),
                ("cpu_ratio", rep.cpu_ratio().into()),
                ("wake_p99_ratio", rep.wake_ratio().into()),
            ]);
        }
    }
    report.param("window_ms", window.as_millis() as u64);
    report.param("pace_us", PACE.as_micros() as u64);
    report.param("workers", WORKERS);
    report.param("bound_queues", BOUND_QUEUES);
    report.param("active_queues", ACTIVE_QUEUES);
    report.param("cpu_ratio_target", 50.0);
    report.param("wake_p99_ratio_median", wake_ratio);
    report.param("wake_p99_ratio_target", 1.2);
    report.at_least("cpu_ratio_median", cpu_ratio, 10.0);
    report.at_most("rescued_wakeups", rescued as f64, 0.0);
    report.at_most("parks_per_roundtrip_max", parks_per_roundtrip, 1.0);
    report.finish()
}
