//! Runtime workers: completion-driven reactor threads that drain request
//! queues and execute LabStack DAGs (paper §III-C "Workers").
//!
//! The paper's workers "receive requests by polling request queues"; this
//! runtime retires the poll loop (ROADMAP item 2): each worker is an
//! event loop that sleeps on its [`labstor_ipc::Doorbell`] — rung by
//! producers once per submit burst, by the upgrade handshake's flag
//! edges, by assignment publication, and by shutdown — so a worker whose
//! queues are all idle consumes ~zero host CPU (see `DESIGN.md` §13 and
//! the idle-fleet bench `BENCH_reactor.json`). Each worker owns a
//! virtual-time [`Ctx`]; its busy/total split is the CPU-utilization
//! signal Fig. 5a reports.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::utils::Backoff;
use parking_lot::RwLock;

use labstor_ipc::{Doorbell, Envelope, QueuePair, UpgradeFlag};
use labstor_sim::Ctx;
use labstor_telemetry::{ClockCell, SpanEvent, Stage, Stat};

use crate::labmod::{Route, Routes};
use crate::registry::ModuleManager;
use crate::request::{Message, Request, Response};
use crate::stack::Namespace;

/// The Runtime's domain id (address space 0).
pub const RUNTIME_DOMAIN: u32 = 0;

/// Execute one request against its stack's entry vertex, resolving the
/// stack once for it. Workers and clients run requests through their own
/// [`Routes`] instead (`run_request`).
// api-ok: tests/labmod_counters.rs drives stacks through it
pub fn process_request(
    ctx: &mut Ctx,
    req: Request,
    ns: &Namespace,
    mm: &ModuleManager,
    domain: u32,
) -> Response {
    let route = Route::resolve(req.stack, ns, mm);
    run_request(ctx, req, route.as_ref(), mm, domain)
}

/// Execute one request on `route`, its stack's route (`None`: no stack
/// has the request's stack id). Shared by workers (async stacks) and
/// clients (sync stacks).
pub(crate) fn run_request(
    ctx: &mut Ctx,
    req: Request,
    route: Option<&Route>,
    mm: &ModuleManager,
    domain: u32,
) -> Response {
    let id = req.id;
    match route {
        Some(route) => Response {
            id,
            payload: route.run(ctx, req, mm, domain),
        },
        None => Response::err(id, format!("no stack {}", req.stack)),
    }
}

/// A worker's queue assignment, published under a generation counter.
///
/// The reactor loop keeps a **local snapshot** of its queue list and
/// refreshes it only when the generation moved — instead of cloning the
/// `Vec<Arc<QueuePair>>` (and bumping every Arc refcount) on every
/// doorbell wake. After copying a new snapshot the worker publishes the
/// generation it now runs on through `seen`; `Runtime::rebalance` waits
/// for `seen == generation` before un-pausing moved queues, which closes
/// the window where a worker still holding a stale snapshot could consume
/// a queue that was handed to another worker (the ring's
/// single-consumer contract).
pub struct AssignmentCell {
    queues: RwLock<Vec<Arc<QueuePair<Message>>>>,
    generation: AtomicU64,
    seen: AtomicU64,
    /// The owning worker's doorbell. Its wake-set is maintained by
    /// [`AssignmentCell::refresh`], which registers this bell on every
    /// queue of a new snapshot before the worker's first scan of it;
    /// `publish` rings it directly so generation bumps wake a parked
    /// worker.
    bell: Arc<Doorbell>,
}

impl AssignmentCell {
    /// Empty assignment, generation 0 (already "seen").
    pub fn new() -> AssignmentCell {
        AssignmentCell {
            queues: RwLock::new(Vec::new()),
            generation: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            bell: Arc::new(Doorbell::new()),
        }
    }

    /// The owning worker's doorbell (park/wake word of its reactor loop).
    pub fn bell(&self) -> &Arc<Doorbell> {
        &self.bell
    }

    /// Publish a new assignment (orchestrator side), bump the generation,
    /// and ring the worker's bell so a parked worker picks it up
    /// immediately.
    pub fn publish(&self, queues: Vec<Arc<QueuePair<Message>>>) {
        *self.queues.write() = queues; // lock-class: worker.queues
        self.generation.fetch_add(1, Ordering::Release);
        self.bell.ring();
    }

    /// Latest published generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Generation the owning worker has acknowledged running on.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::Acquire)
    }

    /// True when no queues are assigned.
    pub fn is_empty(&self) -> bool {
        self.queues.read().is_empty() // lock-class: worker.queues
    }

    /// Worker side: if the generation moved past `seen_gen`, replace
    /// `cache` with the current assignment, acknowledge via `seen`, and
    /// return true. The acknowledgement is safe to publish here because
    /// the worker calls `refresh` between passes, when it has no envelope
    /// in flight on any queue of the old snapshot.
    fn refresh(&self, cache: &mut Vec<Arc<QueuePair<Message>>>, seen_gen: &mut u64) -> bool {
        let g = self.generation.load(Ordering::Acquire);
        if g == *seen_gen {
            return false;
        }
        cache.clear();
        cache.extend_from_slice(&self.queues.read()); // lock-class: worker.queues
                                                      // Wake-set maintenance: register the worker's bell on every queue
                                                      // of the new snapshot *before* the caller scans it. Producers push
                                                      // then read the slot to ring, so either our scan sees their push
                                                      // or their ring lands on this bell and aborts our park — no
                                                      // envelope is stranded across a handoff (DESIGN.md §13).
        for q in cache.iter() {
            q.register_sq_bell(&self.bell);
        }
        *seen_gen = g;
        self.seen.store(g, Ordering::Release);
        true
    }
}

impl Default for AssignmentCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle to a spawned worker thread.
pub struct Worker {
    /// Worker index.
    pub id: usize,
    /// Queues this worker drains (swapped by the orchestrator), published
    /// under a generation counter so the reactor loop snapshots lazily.
    pub assigned: Arc<AssignmentCell>,
    /// Published `(now, busy)` snapshot of the worker's virtual clock —
    /// the single publication path for worker-visible time.
    pub clock: Arc<ClockCell>,
    /// Requests processed.
    pub processed: Arc<Stat>,
    /// Reactor passes completed (scan-everything rounds). A parked worker
    /// does not accumulate passes — tests and the idle-fleet bench use
    /// this to prove idleness costs no CPU. How its waits ended is on
    /// the bell: `assigned.bell().parks()` (slept) and its `phase_hits`
    /// (rung during the pre-park run).
    pub passes: Arc<Stat>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    /// Spawn a worker thread.
    pub fn spawn(
        id: usize,
        ns: Arc<Namespace>,
        mm: Arc<ModuleManager>,
        watermark: Arc<Stat>,
    ) -> Worker {
        let assigned = Arc::new(AssignmentCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(ClockCell::new());
        let processed = Arc::new(Stat::new(0));
        let passes = Arc::new(Stat::new(0));

        let t_assigned = assigned.clone();
        let t_stop = stop.clone();
        let t_clock = clock.clone();
        let t_processed = processed.clone();
        let t_passes = passes.clone();
        // actor-ok: reactor — one event loop per worker core, parked on
        // its doorbell between bursts.
        let join = std::thread::Builder::new()
            .name(format!("labstor-worker-{id}"))
            .spawn(move || {
                worker_loop(
                    &t_assigned,
                    &ns,
                    &mm,
                    &watermark,
                    &t_stop,
                    &t_clock,
                    &t_processed,
                    &t_passes,
                );
            })
            .expect("spawn worker thread");

        Worker {
            id,
            assigned,
            clock,
            processed,
            passes,
            stop,
            join: Some(join),
        }
    }

    /// Replace this worker's queue assignment.
    pub fn assign(&self, queues: Vec<Arc<QueuePair<Message>>>) {
        self.assigned.publish(queues);
    }

    /// True while the worker has queues assigned.
    pub fn is_active(&self) -> bool {
        !self.assigned.is_empty()
    }

    /// True once the worker thread has picked up the latest assignment
    /// (its next consume can only touch queues of the current snapshot).
    pub fn assignment_current(&self) -> bool {
        self.assigned.seen() == self.assigned.generation()
    }

    /// Stop and join the worker. Rings the bell so a parked reactor
    /// observes the stop flag immediately instead of at its next safety
    /// wakeup.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.assigned.bell().ring();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Safety net on the reactor park. Every wake source rings the bell
/// (submits, upgrade-flag edges, assignment publication, stop), so this
/// bounds the damage of a wake-path bug rather than carrying liveness;
/// one spurious scan per 25 ms is the reactor's whole idle cost.
const PARK_SAFETY: Duration = Duration::from_millis(25);

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    assigned: &AssignmentCell,
    ns: &Namespace,
    mm: &ModuleManager,
    watermark: &Stat,
    stop: &AtomicBool,
    clock: &ClockCell,
    processed: &Stat,
    passes: &Stat,
) {
    let mut ctx = Ctx::new();
    let rec = mm.telemetry().clone();
    let mut routes = Routes::default();
    /// Requests drained per queue per pass: bounds queue starvation.
    const BATCH: usize = 8;
    // Reused per-pass scratch: queue snapshot, drained envelopes, pending
    // completions, per-request work times and telemetry spans. One
    // allocation each for the life of the worker.
    let mut queues: Vec<Arc<QueuePair<Message>>> = Vec::new();
    let mut seen_gen: u64 = 0;
    let mut inbox: Vec<Envelope<Message>> = Vec::with_capacity(BATCH);
    let mut outbox: Vec<(Message, u64)> = Vec::with_capacity(BATCH);
    let mut work_ns: Vec<u64> = Vec::with_capacity(BATCH);
    let mut spans: Vec<SpanEvent> = Vec::with_capacity(BATCH);
    while !stop.load(Ordering::Acquire) {
        // Capture the doorbell epoch *before* refreshing and scanning:
        // any ring landing after this point (a submit, an upgrade edge, a
        // new assignment, stop) makes the park at the bottom return
        // immediately instead of sleeping through it (doorbell protocol —
        // see `labstor_ipc::doorbell` and DESIGN.md §13).
        let epoch = assigned.bell().epoch();
        passes.add(1);

        // Fast-forward across any upgrade pause that completed.
        ctx.idle_until(mm.resume_vt());
        assigned.refresh(&mut queues, &mut seen_gen);
        let mut did_work = false;
        for q in &queues {
            match q.upgrade_flag() {
                UpgradeFlag::UpdatePending => {
                    q.ack_update();
                    continue;
                }
                UpgradeFlag::UpdateAcked => continue,
                UpgradeFlag::None => {}
            }
            // Drain up to BATCH envelopes in one SQ crossing: one
            // consumer-counter publication, one wait-EMA fold, one
            // consumed-counter bump for the whole burst.
            inbox.clear();
            if q.consume_batch(&mut ctx, RUNTIME_DOMAIN, &mut inbox, BATCH) == 0 {
                continue;
            }
            did_work = true;
            let recording = rec.enabled();
            work_ns.clear();
            for env in inbox.drain(..) {
                match env.payload {
                    Message::Req(req) => {
                        if recording {
                            // Submission-queue crossing: from client
                            // submit to this envelope's dequeue (queue
                            // wait + hop); per-envelope times survive the
                            // batch via `dequeue_vt`.
                            spans.push(SpanEvent {
                                req_id: req.id,
                                stage: Stage::HopReq,
                                stack: (req.stack & 0x00FF_FFFF) as u32,
                                vertex: (req.vertex & 0xFFFF) as u16,
                                ring: 0, // stamped by the recorder
                                t_start_vns: env.submit_vt,
                                t_end_vns: env.dequeue_vt,
                            });
                        }
                        let before = ctx.busy();
                        let route = routes.get(req.stack, ns, mm);
                        let resp = run_request(&mut ctx, req, route, mm, RUNTIME_DOMAIN);
                        let spent = ctx.busy() - before;
                        q.add_load(-(spent as i64));
                        work_ns.push(spent);
                        outbox.push((Message::Resp(resp), ctx.now()));
                    }
                    // Responses only flow runtime→client; ignore strays.
                    Message::Resp(_) => {}
                }
            }
            q.record_work_batch(&work_ns);
            processed.add(work_ns.len() as u64);
            if recording && !spans.is_empty() {
                // One enabled-check + one TLS ring lookup for the burst.
                rec.record_batch(spans.drain(..));
            }
            // Post the completions; if the CQ fills, back off boundedly
            // (spin, then yield the host core) — the client is draining
            // it. Bail out on stop so a vanished client cannot wedge
            // shutdown.
            let cq_backoff = Backoff::new();
            while !outbox.is_empty() && !stop.load(Ordering::Acquire) {
                if q.complete_batch(&mut outbox, RUNTIME_DOMAIN) == 0 {
                    cq_backoff.snooze();
                }
            }
            outbox.clear();
        }
        // Single publication path for worker-visible time.
        clock.publish(ctx.now(), ctx.busy());
        watermark.max(ctx.now());
        if !did_work && !stop.load(Ordering::Acquire) {
            // Nothing to do anywhere (including the decommissioned,
            // no-queues case): park until a doorbell rings. The epoch
            // captured at the top of the pass guarantees no ring since
            // then is missed.
            assigned.bell().wait_past(epoch, PARK_SAFETY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labmod::{LabMod, ModType, StackEnv};
    use crate::request::{Payload, RespPayload};
    use crate::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::{Credentials, IpcManager};
    use std::time::{Duration, Instant};

    struct Echo;
    impl LabMod for Echo {
        fn type_name(&self) -> &'static str {
            "echo"
        }
        fn mod_type(&self) -> ModType {
            ModType::Dummy
        }
        fn process(&self, ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
            if let Payload::Dummy { work_ns } = req.payload {
                ctx.advance(work_ns);
            }
            RespPayload::Ok
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1_000
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn setup() -> (Arc<Namespace>, Arc<ModuleManager>, u64) {
        let ns = Namespace::new();
        let mm = Arc::new(ModuleManager::new());
        mm.insert_instance("echo1", Arc::new(Echo));
        let stack = ns
            .mount(LabStack {
                id: 0,
                mount: "dummy::/".into(),
                exec: ExecMode::Async,
                vertices: vec![Vertex {
                    uuid: "echo1".into(),
                    outputs: vec![],
                }],
                authorized_uids: vec![0],
            })
            .unwrap();
        (ns, mm, stack.id)
    }

    #[test]
    fn process_request_resolves_stack_and_mod() {
        let (ns, mm, sid) = setup();
        let mut ctx = Ctx::new();
        let req = Request::new(7, sid, Payload::Dummy { work_ns: 500 }, Credentials::ROOT);
        let resp = process_request(&mut ctx, req, &ns, &mm, RUNTIME_DOMAIN);
        assert_eq!(resp.id, 7);
        assert!(resp.payload.is_ok());
        assert_eq!(ctx.now(), 500);
    }

    #[test]
    fn unknown_stack_errors() {
        let (ns, mm, _) = setup();
        let mut ctx = Ctx::new();
        let req = Request::new(1, 999, Payload::Dummy { work_ns: 0 }, Credentials::ROOT);
        assert!(!process_request(&mut ctx, req, &ns, &mm, 0).payload.is_ok());
    }

    #[test]
    fn worker_drains_assigned_queue() {
        let (ns, mm, sid) = setup();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(64);
        let conn = ipc.connect(Credentials::new(1, 0, 0), 1);
        let watermark = Arc::new(Stat::new(0));
        let mut worker = Worker::spawn(0, ns, mm, watermark);
        worker.assign(vec![conn.queues[0].clone()]);

        let q = &conn.queues[0];
        for i in 0..10 {
            let req = Request::new(i, sid, Payload::Dummy { work_ns: 100 }, Credentials::ROOT);
            q.submit(Message::Req(req), 0, conn.domain).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut got = 0;
        let mut client = Ctx::new();
        while got < 10 && Instant::now() < deadline {
            if let Some(env) = q.reap(&mut client, conn.domain) {
                if let Message::Resp(r) = env.payload {
                    assert!(r.payload.is_ok());
                    got += 1;
                }
            } else {
                std::thread::yield_now();
            }
        }
        assert_eq!(got, 10, "worker must complete all requests");
        assert!(worker.processed.get() >= 10);
        worker.stop();
    }

    #[test]
    fn decommissioned_worker_parks_and_resumes_on_publish() {
        let (ns, mm, sid) = setup();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(64);
        let conn = ipc.connect(Credentials::new(1, 0, 0), 1);
        let watermark = Arc::new(Stat::new(0));
        let mut worker = Worker::spawn(0, ns, mm, watermark);

        // No queues assigned: the reactor must park, not spin. Give it a
        // beat to enter the park, then the pass counter must be bounded by
        // the safety-timeout cadence (a polling loop would log millions).
        std::thread::sleep(Duration::from_millis(40));
        let p0 = worker.passes.get();
        std::thread::sleep(Duration::from_millis(120));
        let parked_passes = worker.passes.get() - p0;
        assert!(
            parked_passes <= 16,
            "decommissioned worker must park, saw {parked_passes} passes in 120ms"
        );

        // Submit *before* assigning: the queue has no registered SQ bell
        // for this worker yet, so only the publish ring can wake it — and
        // the post-refresh scan must find the waiting envelope.
        let q = &conn.queues[0];
        let req = Request::new(1, sid, Payload::Dummy { work_ns: 100 }, Credentials::ROOT);
        q.submit(Message::Req(req), 0, conn.domain).unwrap();
        worker.assign(vec![q.clone()]);

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut client = Ctx::new();
        loop {
            if let Some(env) = q.reap(&mut client, conn.domain) {
                if let Message::Resp(r) = env.payload {
                    assert!(r.payload.is_ok());
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "publish must wake the parked worker"
            );
            std::thread::yield_now();
        }
        worker.stop();
    }

    #[test]
    fn worker_acks_upgrade_and_pauses() {
        let (ns, mm, _) = setup();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(8);
        let conn = ipc.connect(Credentials::new(1, 0, 0), 1);
        let watermark = Arc::new(Stat::new(0));
        let mut worker = Worker::spawn(0, ns, mm, watermark);
        worker.assign(vec![conn.queues[0].clone()]);
        conn.queues[0].mark_update_pending();
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.queues[0].upgrade_flag() != UpgradeFlag::UpdateAcked {
            assert!(Instant::now() < deadline, "worker must ack");
            std::thread::yield_now();
        }
        worker.stop();
    }
}
