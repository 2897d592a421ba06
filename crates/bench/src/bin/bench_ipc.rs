//! IPC hot-path benchmark: submit/consume batch size (1/8/32) × client
//! threads (1/4), emitting `BENCH_ipc.json`.
//!
//! Measures the host-side cost of the queue-pair verb path — the thing
//! the batched verbs (`submit_batch`/`consume_batch`/
//! `complete_batch`/`reap_batch`) optimize. Virtual time is tracked too:
//! p50/p99 per-request virtual latency (submit → reap, per-envelope
//! `dequeue_vt`) proves batching does not distort the simulated cost
//! model — batch verbs charge hops per envelope, so the virtual
//! percentiles must stay flat across batch sizes while ops/s climbs.
//!
//! Also the CI regression gate for the batched verbs: the run fails
//! (exit 1) if batch 32 does not at least match batch 1 on single-thread
//! ops/s. Target is ≥2×.
//!
//! Usage: `bench_ipc [--smoke]` — `--smoke` shrinks the op counts for CI
//! and writes `target/bench/BENCH_ipc.json` instead.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use labstor_bench::Report;
use labstor_ipc::{Doorbell, Envelope, QueueFlags, QueuePair};
use labstor_sim::Ctx;
use labstor_workloads::stats::percentile;

/// Request payload: `(request id, client submit virtual time)` — the
/// worker echoes it back so the client can histogram submit→reap virtual
/// latency without a side table.
type Req = (u64, u64);

const RUNTIME_DOMAIN: u32 = 0;
const QUEUE_DEPTH: usize = 1024;
/// Cap on each park of the multi-thread arm (the worker's also bounds how
/// long it takes to notice `stop`).
const PARK: Duration = Duration::from_millis(5);

fn queue(id: u64) -> Arc<QueuePair<Req>> {
    Arc::new(QueuePair::new(id, QUEUE_DEPTH, QueueFlags::default()))
}

/// One config's measurements.
struct ConfigResult {
    batch: usize,
    threads: usize,
    ops: usize,
    ops_per_sec: f64,
    p50_vns: u64,
    p99_vns: u64,
}

/// Single-thread mode: client and worker halves interleaved in one
/// thread, four batched verbs per pass. Deterministic (no scheduler
/// noise), which is what the regression gate compares.
fn run_single(batch: usize, ops: usize) -> ConfigResult {
    let qp = queue(0);
    let mut client = Ctx::new();
    let mut worker = Ctx::new();
    let mut lat: Vec<u64> = Vec::with_capacity(ops);
    let mut pend: Vec<Req> = Vec::with_capacity(batch);
    let mut inbox: Vec<Envelope<Req>> = Vec::with_capacity(batch);
    let mut done: Vec<(Req, u64)> = Vec::with_capacity(batch);
    let mut outbox: Vec<Envelope<Req>> = Vec::with_capacity(batch);
    let mut next: u64 = 0;
    let t0 = Instant::now();
    while lat.len() < ops {
        if pend.is_empty() && (next as usize) < ops {
            let n = batch.min(ops - next as usize);
            let now = client.now();
            for _ in 0..n {
                pend.push((next, now));
                next += 1;
            }
        }
        if !pend.is_empty() {
            qp.submit_batch(&mut pend, client.now(), 1);
        }
        inbox.clear();
        qp.consume_batch(&mut worker, RUNTIME_DOMAIN, &mut inbox, batch);
        for env in inbox.drain(..) {
            done.push((env.payload, worker.now()));
        }
        while !done.is_empty() {
            qp.complete_batch(&mut done, RUNTIME_DOMAIN);
        }
        outbox.clear();
        qp.reap_batch(&mut client, 1, &mut outbox, batch);
        for env in outbox.drain(..) {
            lat.push(env.dequeue_vt.saturating_sub(env.payload.1));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    ConfigResult {
        batch,
        threads: 1,
        ops,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
        p50_vns: percentile(&lat, 0.50),
        p99_vns: percentile(&lat, 0.99),
    }
}

/// Multi-thread mode: `clients` client threads (one queue pair each, so
/// the SPSC per-direction contract holds) against one worker thread
/// draining all queues with the batched verbs. Every thread waits the way
/// the runtime's do: the worker on one bell registered on every SQ, each
/// client on a bell registered on its CQ. (Five threads that waited with
/// a bare `spin_loop` on two vCPUs measured the scheduler's timeslice,
/// not the queue: EXPERIMENTS.md.)
fn run_multi(batch: usize, clients: usize, ops_per_client: usize) -> ConfigResult {
    let qps: Vec<Arc<QueuePair<Req>>> = (0..clients).map(|i| queue(i as u64)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let worker = {
        let qps = qps.clone();
        let stop = stop.clone();
        let bell = Arc::new(Doorbell::new());
        for q in &qps {
            q.register_sq_bell(&bell);
        }
        std::thread::spawn(move || {
            let mut ctx = Ctx::new();
            let mut inbox: Vec<Envelope<Req>> = Vec::with_capacity(batch);
            let mut done: Vec<(Req, u64)> = Vec::with_capacity(batch);
            while !stop.load(Ordering::Acquire) {
                // Capture before the scan (doorbell protocol).
                let epoch = bell.epoch();
                let mut idle = true;
                for q in &qps {
                    inbox.clear();
                    if q.consume_batch(&mut ctx, RUNTIME_DOMAIN, &mut inbox, batch) == 0 {
                        continue;
                    }
                    idle = false;
                    for env in inbox.drain(..) {
                        done.push((env.payload, ctx.now()));
                    }
                    while !done.is_empty() && !stop.load(Ordering::Acquire) {
                        if q.complete_batch(&mut done, RUNTIME_DOMAIN) == 0 {
                            // CQ full: the client is draining it.
                            std::thread::yield_now();
                        }
                    }
                    done.clear();
                }
                if idle {
                    bell.wait_past(epoch, PARK);
                }
            }
        })
    };
    let t0 = Instant::now();
    let handles: Vec<_> = qps
        .iter()
        .enumerate()
        .map(|(i, qp)| {
            let qp = qp.clone();
            let bell = Arc::new(Doorbell::new());
            qp.register_cq_bell(&bell);
            std::thread::spawn(move || {
                let domain = i as u32 + 1;
                let mut ctx = Ctx::new();
                let mut lat: Vec<u64> = Vec::with_capacity(ops_per_client);
                let mut pend: Vec<Req> = Vec::with_capacity(batch);
                let mut outbox: Vec<Envelope<Req>> = Vec::with_capacity(batch);
                let mut next: u64 = 0;
                while lat.len() < ops_per_client {
                    // Capture before the reap (doorbell protocol).
                    let epoch = bell.epoch();
                    if pend.is_empty() && (next as usize) < ops_per_client {
                        let n = batch.min(ops_per_client - next as usize);
                        let now = ctx.now();
                        for _ in 0..n {
                            pend.push((next, now));
                            next += 1;
                        }
                    }
                    let submitted = qp.submit_batch(&mut pend, ctx.now(), domain);
                    outbox.clear();
                    if qp.reap_batch(&mut ctx, domain, &mut outbox, batch) == 0 && submitted == 0 {
                        // Nothing to reap and nothing accepted (all
                        // submitted, or the SQ is full): only a
                        // completion can change either.
                        bell.wait_past(epoch, PARK);
                    }
                    for env in outbox.drain(..) {
                        lat.push(env.dequeue_vt.saturating_sub(env.payload.1));
                    }
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<u64> = Vec::with_capacity(clients * ops_per_client);
    for h in handles {
        lat.extend(h.join().expect("client thread"));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    worker.join().expect("worker thread");
    lat.sort_unstable();
    let ops = clients * ops_per_client;
    ConfigResult {
        batch,
        threads: clients,
        ops,
        ops_per_sec: ops as f64 / elapsed.max(1e-9),
        p50_vns: percentile(&lat, 0.50),
        p99_vns: percentile(&lat, 0.99),
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_args("ipc_hotpath", "BENCH_ipc.json");
    let (ops_single, ops_per_client) = if report.smoke() {
        (2_000, 500)
    } else {
        (100_000, 25_000)
    };

    let mut results: Vec<ConfigResult> = Vec::new();
    for batch in [1usize, 8, 32] {
        results.push(run_single(batch, ops_single));
        results.push(run_multi(batch, 4, ops_per_client));
    }
    for r in &results {
        report.row([
            ("batch", r.batch.into()),
            ("threads", r.threads.into()),
            ("ops", r.ops.into()),
            ("ops_per_sec", r.ops_per_sec.into()),
            ("p50_vns", r.p50_vns.into()),
            ("p99_vns", r.p99_vns.into()),
        ]);
    }
    // Gate: the batched verbs must never fall below the single-verb
    // rate. The target is 2x; the hard floor is 1x so host noise in CI
    // cannot flake the build.
    let single = |batch: usize| {
        results
            .iter()
            .find(|r| r.batch == batch && r.threads == 1)
            .expect("config present")
            .ops_per_sec
    };
    let speedup = single(32) / single(1).max(1e-9);
    report.param("queue_depth", QUEUE_DEPTH);
    report.param("batch32_over_batch1_target", 2.0);
    report.at_least("batch32_over_batch1_ops_per_s", speedup, 1.0);
    report.finish()
}
