//! Idle-fleet reactor benchmark: 4096 bound queues, 8 active, emitting
//! `BENCH_reactor.json`.
//!
//! The completion-driven reactor's promise is that *bound but idle*
//! queues cost ~zero worker CPU: workers sleep on their assignment's
//! doorbell and wake only when a producer rings. This bench pits the two
//! waiting disciplines against each other over an identical harness —
//! 4 consumer threads, `total_queues` SPSC pairs split evenly, 8 queues
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
//! roundtrip p99 — the price of parking, target ≤1.2×). The CI gate
//! uses conservative floors (≥10× CPU, ≤3× wake p99) so host noise
//! cannot flake the build, mirroring the `bench_ipc` floor-vs-target
//! split.
//!
//! Usage: `bench_reactor [--smoke]` — `--smoke` shrinks the fleet and
//! the window for CI.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::Backoff;
use labstor_bench::percentile;
use labstor_ipc::{Doorbell, LaneKind, QueueFlags, QueuePair, QueueRole};
use labstor_sim::Ctx;

const WORKERS: usize = 4;
const ACTIVE_QUEUES: usize = 8;
const QUEUE_DEPTH: usize = 16;
/// The reactor workers' safety-net park bound (mirrors
/// `core::worker::PARK_SAFETY`).
const PARK_SAFETY: Duration = Duration::from_millis(25);
/// Gap between paced roundtrips: the active tenants are lightly loaded,
/// so worker CPU is dominated by how the consumers wait, not by work.
const PACE: Duration = Duration::from_millis(2);

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
}

/// Run one phase: `WORKERS` consumer threads (named `<prefix>-<i>`) over
/// `total_queues` SPSC pairs, waiting per `mode`; the driver paces
/// roundtrips across the first `ACTIVE_QUEUES` queues and tight-spins on
/// `reap` so the histogram captures worker-side dispatch latency.
fn run_phase(
    mode: WaitMode,
    prefix: &'static str,
    total_queues: usize,
    window: Duration,
    settle: Duration,
) -> PhaseResult {
    let qps: Vec<Arc<QueuePair<u64>>> = (0..total_queues)
        .map(|i| {
            Arc::new(QueuePair::with_lane(
                i as u64,
                QUEUE_DEPTH,
                QueueFlags {
                    ordered: true,
                    role: QueueRole::Primary,
                },
                LaneKind::Spsc,
            ))
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let per_worker = total_queues.div_ceil(WORKERS);
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
                        if did_work {
                            backoff.reset();
                        } else {
                            match mode {
                                // PR 9 idle arm: park until a producer
                                // rings (safety-net bound as in
                                // worker_loop).
                                WaitMode::Doorbell => {
                                    bell.wait_past(epoch, PARK_SAFETY);
                                }
                                // Pre-PR 9 idle arm: spin, then yield.
                                WaitMode::Polling => backoff.snooze(),
                            }
                        }
                    }
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
    for w in workers {
        w.join().expect("consumer thread");
    }

    lat.sort_unstable();
    PhaseResult {
        worker_cpu_ticks,
        ops: lat.len(),
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (total_queues, window, settle) = if smoke {
        (512, Duration::from_millis(400), Duration::from_millis(100))
    } else {
        (4096, Duration::from_secs(2), Duration::from_millis(300))
    };

    let reactor = run_phase(
        WaitMode::Doorbell,
        "bellworker",
        total_queues,
        window,
        settle,
    );
    let polling = run_phase(
        WaitMode::Polling,
        "pollworker",
        total_queues,
        window,
        settle,
    );

    // Worker CPU savings of sleeping on doorbells vs scanning. A parked
    // reactor can legitimately read 0 ticks over the window; clamp the
    // denominator to one tick so the ratio stays finite.
    let cpu_ratio = polling.worker_cpu_ticks as f64 / reactor.worker_cpu_ticks.max(1) as f64;
    // Price of the park/wake path on an active queue's roundtrip tail.
    let wake_ratio = reactor.p99_ns as f64 / polling.p99_ns.max(1) as f64;

    let (cpu_floor, cpu_target) = (10.0, 50.0);
    let (wake_ceil, wake_target) = (3.0, 1.2);
    let pass = cpu_ratio >= cpu_floor && wake_ratio <= wake_ceil;

    let phase_json = |name: &str, r: &PhaseResult| {
        serde_json::json!({
            "phase": name,
            "workers": WORKERS,
            "bound_queues": total_queues,
            "active_queues": ACTIVE_QUEUES,
            "worker_cpu_ticks": r.worker_cpu_ticks,
            "ops": r.ops,
            "roundtrip_p50_ns": r.p50_ns,
            "roundtrip_p99_ns": r.p99_ns,
        })
    };
    let configs: Vec<serde_json::Value> = vec![
        phase_json("reactor", &reactor),
        phase_json("polling_baseline", &polling),
    ];
    let gate = serde_json::json!({
        "compare": "polling worker CPU / reactor worker CPU; reactor p99 / polling p99",
        "cpu_ratio": cpu_ratio,
        "cpu_required_min": cpu_floor,
        "cpu_target": cpu_target,
        "wake_p99_ratio": wake_ratio,
        "wake_required_max": wake_ceil,
        "wake_target": wake_target,
        "pass": pass,
    });
    let window_ms = window.as_millis() as u64;
    let pace_us = PACE.as_micros() as u64;
    let doc = serde_json::json!({
        "benchmark": "reactor_idle_fleet",
        "smoke": smoke,
        "window_ms": window_ms,
        "pace_us": pace_us,
        "configs": configs,
        "gate": gate,
    });
    let out = serde_json::to_string_pretty(&doc).expect("serialize");
    std::fs::write("BENCH_reactor.json", format!("{out}\n")).expect("write BENCH_reactor.json");

    println!(
        "== reactor_idle_fleet ({}) ==",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:>18} {:>10} {:>8} {:>12} {:>12}",
        "phase", "cpu_ticks", "ops", "p50(ns)", "p99(ns)"
    );
    for (name, r) in [("reactor", &reactor), ("polling", &polling)] {
        println!(
            "{:>18} {:>10} {:>8} {:>12} {:>12}",
            name, r.worker_cpu_ticks, r.ops, r.p50_ns, r.p99_ns
        );
    }
    println!(
        "cpu ratio (polling/reactor): {cpu_ratio:.1}x (target {cpu_target}x, floor {cpu_floor}x)"
    );
    println!(
        "wake p99 ratio (reactor/polling): {wake_ratio:.2}x (target {wake_target}x, ceil {wake_ceil}x)"
    );
    if !pass {
        eprintln!(
            "FAIL: reactor idle-fleet gate (cpu_ratio >= {cpu_floor}, wake_ratio <= {wake_ceil})"
        );
        std::process::exit(1);
    }
}
