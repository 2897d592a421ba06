//! Integration tests for the IPC fast path: the queues connect hands
//! out, the drain-and-handoff protocol under live orchestrator
//! reassignment, and batched-verb equivalence with the single verbs.

use proptest::prelude::*;

use labstor::core::orchestrator::{Assignment, QueueLoad};
use labstor::core::{OrchestratorPolicy, Payload, Runtime, RuntimeConfig};
use labstor::ipc::{Credentials, Envelope, QueueFlags, QueuePair};
use labstor::sim::Ctx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const DUMMY_SPEC: &str = r#"{
    "mount": "dummy::/",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [ { "uuid": "fp_dummy", "type": "dummy", "params": {"work_ns": 1000} } ]
}"#;

fn platform(max_workers: usize) -> Arc<Runtime> {
    let devices = labstor::mods::DeviceRegistry::new();
    devices.add_preset("nvme0", labstor::sim::DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    rt
}

// ---------------------------------------------------------------------
// Connect-time allocation
// ---------------------------------------------------------------------

#[test]
fn runtime_connect_puts_clients_on_the_spsc_lane() {
    let rt = platform(2);
    let client = rt.connect(Credentials::new(1, 0, 0), 3);
    assert_eq!(client.conn.queues.len(), 3);
    for q in &client.conn.queues {
        assert!(q.flags().ordered);
    }
    // Connect is the only source of queues the Runtime serves.
    assert_eq!(rt.ipc.primary_queues().len(), 3);
    rt.shutdown();
}

// ---------------------------------------------------------------------
// Drain-and-handoff under live reassignment
// ---------------------------------------------------------------------

/// A policy that moves every queue to a different worker each time it is
/// consulted: assignment `i -> (i + calls) % workers`. Each `rebalance()`
/// therefore exercises the full drain-and-handoff protocol.
struct ShiftPolicy {
    calls: AtomicUsize,
}

impl OrchestratorPolicy for ShiftPolicy {
    fn name(&self) -> &'static str {
        "shift-every-call"
    }

    fn rebalance(&self, queues: &[QueueLoad], max_workers: usize) -> Assignment {
        let n = max_workers.max(1);
        let off = self.calls.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test-only round counter; atomicity alone suffices
        let mut out: Assignment = vec![Vec::new(); n];
        for (i, q) in queues.iter().enumerate() {
            out[(i + off) % n].push(q.qid);
        }
        out
    }
}

#[test]
fn handoff_under_live_reassignment_loses_nothing_and_keeps_fifo() {
    let rt = platform(4);
    rt.set_policy(Arc::new(ShiftPolicy {
        calls: AtomicUsize::new(0),
    }));
    let stack = rt.ns.get("dummy::/").unwrap();
    // One queue: every request flows through the same ordered SPSC pair,
    // so completions must come back in exact submission order even while
    // the queue is bounced between the four workers.
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flipper = {
        let rt = rt.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                rt.rebalance();
                std::thread::yield_now();
            }
        })
    };

    const BURSTS: usize = 100;
    const BURST: usize = 32;
    let mut submitted: Vec<u64> = Vec::with_capacity(BURSTS * BURST);
    let mut reap_order: Vec<u64> = Vec::with_capacity(BURSTS * BURST);
    for _ in 0..BURSTS {
        let payloads = vec![Payload::Dummy { work_ns: 100 }; BURST];
        let ids = client.submit_all(&stack, payloads).unwrap();
        assert_eq!(ids.len(), BURST);
        submitted.extend(&ids);
        while client.in_flight() > 0 {
            let (resp, _lat) = client.reap_one().unwrap();
            assert!(resp.payload.is_ok(), "request {} failed", resp.id);
            reap_order.push(resp.id);
        }
    }
    stop.store(true, Ordering::Release);
    flipper.join().unwrap();

    // No loss, no duplicates, FIFO: with a single ordered queue the reap
    // order must be exactly the submission order.
    assert_eq!(reap_order, submitted);
    rt.shutdown();
}

#[test]
fn doorbell_rings_during_handoff_strand_no_envelope() {
    // Every rebalance here moves the client's queue to a new worker via
    // the full drain-and-handoff protocol, while the client keeps
    // submitting and *parking* on its completion doorbell (post-PR 9
    // `wait` no longer spins). A submission doorbell that rings while
    // the old worker is draining must either be seen by that worker's
    // final scan or by the new worker's first scan after it registers on
    // the queue — if neither happens the envelope is stranded and the
    // roundtrip below times out.
    let rt = platform(4);
    rt.set_policy(Arc::new(ShiftPolicy {
        calls: AtomicUsize::new(0),
    }));
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flipper = {
        let rt = rt.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                rt.rebalance();
            }
        })
    };

    const OPS: usize = 400;
    let started = std::time::Instant::now();
    for i in 0..OPS {
        let (resp, _lat) = client
            .execute(&stack, Payload::Dummy { work_ns: 100 })
            .unwrap_or_else(|e| panic!("op {i} stranded during handoff: {e:?}"));
        assert!(resp.is_ok(), "op {i} failed: {resp:?}");
    }
    let elapsed = started.elapsed();
    stop.store(true, Ordering::Release);
    flipper.join().unwrap();

    // Liveness must come from doorbells, not from the workers' 25 ms
    // safety-net timeout: systematically lost wakeups would put every op
    // through at least one safety sleep (400 × 25 ms = 10 s).
    assert!(
        elapsed < std::time::Duration::from_secs(6),
        "roundtrips relied on the park safety net: {elapsed:?} for {OPS} ops"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------
// Batched verbs ≡ N single verbs
// ---------------------------------------------------------------------

/// Run `payloads` through a queue pair with the four *single* verbs and
/// return (consumed trace, reaped trace, worker clock, client clock).
type Trace = Vec<(u64, u64, u64)>;

fn run_singles(payloads: &[u64], submit_vt: u64) -> (Trace, Trace, u64, u64) {
    let qp: QueuePair<u64> = QueuePair::new(1, 64, QueueFlags::default());
    let mut wctx = Ctx::new();
    let mut cctx = Ctx::new();
    for &p in payloads {
        qp.submit(p, submit_vt, 1).unwrap();
    }
    let mut consumed = Trace::new();
    while let Some(env) = qp.consume(&mut wctx, 0) {
        consumed.push((env.payload, env.submit_vt, env.dequeue_vt));
        qp.complete(env.payload, env.dequeue_vt, 0).unwrap();
    }
    let mut reaped = Trace::new();
    while let Some(env) = qp.reap(&mut cctx, 1) {
        reaped.push((env.payload, env.submit_vt, env.dequeue_vt));
    }
    (consumed, reaped, wctx.now(), cctx.now())
}

/// Same workload through the *batched* verbs in bursts of `batch`.
fn run_batched(payloads: &[u64], submit_vt: u64, batch: usize) -> (Trace, Trace, u64, u64) {
    let qp: QueuePair<u64> = QueuePair::new(1, 64, QueueFlags::default());
    let mut wctx = Ctx::new();
    let mut cctx = Ctx::new();
    let mut pend: Vec<u64> = payloads.to_vec();
    while !pend.is_empty() {
        assert!(qp.submit_batch(&mut pend, submit_vt, 1) > 0, "depth fits");
    }
    let mut consumed = Trace::new();
    let mut inbox: Vec<Envelope<u64>> = Vec::new();
    let mut done: Vec<(u64, u64)> = Vec::new();
    loop {
        inbox.clear();
        if qp.consume_batch(&mut wctx, 0, &mut inbox, batch) == 0 {
            break;
        }
        for env in inbox.drain(..) {
            consumed.push((env.payload, env.submit_vt, env.dequeue_vt));
            done.push((env.payload, env.dequeue_vt));
        }
        while !done.is_empty() {
            assert!(qp.complete_batch(&mut done, 0) > 0, "depth fits");
        }
    }
    let mut reaped = Trace::new();
    let mut outbox: Vec<Envelope<u64>> = Vec::new();
    loop {
        outbox.clear();
        if qp.reap_batch(&mut cctx, 1, &mut outbox, batch) == 0 {
            break;
        }
        for env in outbox.drain(..) {
            reaped.push((env.payload, env.submit_vt, env.dequeue_vt));
        }
    }
    (consumed, reaped, wctx.now(), cctx.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched verbs must be observationally identical to N single
    /// verbs: same envelope order, same per-envelope
    /// virtual-time stamps, same final worker and client clocks.
    #[test]
    fn batch_verbs_equal_n_singles(
        payloads in proptest::collection::vec(any::<u64>(), 1..48),
        batch in 1usize..9,
        submit_vt in 0u64..10_000,
    ) {
        let (c1, r1, w1, k1) = run_singles(&payloads, submit_vt);
        let (c2, r2, w2, k2) = run_batched(&payloads, submit_vt, batch);
        prop_assert_eq!(c1.len(), payloads.len());
        prop_assert_eq!(&c1, &c2);
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(w1, w2);
        prop_assert_eq!(k1, k2);
    }
}
