//! The LabStor Runtime: warehouse and execution engine of LabStacks
//! (paper §III-C, Fig. 2).
//!
//! Owns the IPC Manager, Module Manager, LabStack Namespace, Workers and
//! Work Orchestrator. An optional admin thread periodically polls for
//! module upgrades (every `t` ms, §III-C2) and rebalances queues
//! (§III-C4). The Runtime can be crashed and restarted while clients keep
//! running — the crash-recovery path of §III-C3.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use labstor_ipc::{Credentials, Doorbell, IpcManager, QueuePair, UpgradeFlag};
use labstor_qos::{TenantPolicy, TenantTable};
use labstor_sim::{Ctx, Watermark};

use crate::client::Client;
use crate::orchestrator::{DynamicPolicy, OrchestratorPolicy, QueueLoad};
use crate::registry::{ModuleManager, UpgradeRequest};
use crate::request::Message;
use crate::spec::StackSpec;
use crate::stack::{LabStack, Namespace};
use crate::worker::Worker;

/// Runtime configuration (the trusted user's "Runtime configuration
/// YAML": worker pool, queue depths, orchestration policy, admin cadence).
pub struct RuntimeConfig {
    /// Maximum worker threads.
    pub max_workers: usize,
    /// Queue-pair depth.
    pub queue_depth: usize,
    /// Work orchestration policy.
    pub policy: Arc<dyn OrchestratorPolicy>,
    /// Spawn the admin thread (upgrade polling + periodic rebalance).
    pub auto_admin: bool,
    /// Admin poll interval (the paper's configurable `t`).
    pub admin_interval: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_workers: 4,
            queue_depth: 256,
            policy: Arc::new(DynamicPolicy::default()),
            auto_admin: true,
            admin_interval: Duration::from_millis(2),
        }
    }
}

/// The Runtime.
pub struct Runtime {
    /// IPC manager (connections, queue pairs, liveness).
    pub ipc: Arc<IpcManager<Message>>,
    /// Module manager (registry, factories, upgrades).
    pub mm: Arc<ModuleManager>,
    /// LabStack namespace.
    pub ns: Arc<Namespace>,
    /// Virtual-time high watermark across workers.
    pub watermark: Arc<Watermark>,
    /// Tenant registry: per-tenant policies, live accounting, and the
    /// qid→tenant binding the weighted-fair rebalance pass consults.
    pub tenants: Arc<TenantTable>,
    workers: Mutex<Vec<Worker>>,
    policy: Mutex<Arc<dyn OrchestratorPolicy>>,
    max_workers: usize,
    admin_stop: Arc<AtomicBool>,
    /// Wakes the admin thread out of its deadline wait: rung by
    /// `request_upgrade` (apply now, not after the poll interval) and by
    /// `shutdown`/`Drop` (exit now).
    admin_bell: Arc<Doorbell>,
    admin: Mutex<Option<JoinHandle<()>>>,
    auto_admin: bool,
    admin_interval: Duration,
    /// Rebalance history: watermark and per-queue work-done at the last
    /// rebalance, for demand estimation.
    rebalance_state: Mutex<RebalanceState>,
    /// Serializes whole rebalance passes (admin tick, `connect`,
    /// `set_policy` may race): the drain-and-handoff protocol toggles
    /// per-queue pause flags and must not interleave with itself.
    rebalance_coord: Mutex<()>,
}

/// Real-time bound on each wait of the drain-and-handoff protocol
/// (old-consumer ack, new-snapshot pickup). Workers ack within one poll
/// pass (microseconds); the bound only matters when a worker is wedged
/// against a full CQ whose client stopped reaping.
const HANDOFF_TIMEOUT: Duration = Duration::from_millis(200);

#[derive(Default)]
struct RebalanceState {
    last_wm: u64,
    last_work: std::collections::HashMap<u64, u64>,
    /// Last applied assignment (per-worker sorted qid groups).
    /// Reassigning queues between workers is disruptive (a moved queue
    /// lands behind the new worker's timeline), so an assignment is only
    /// re-applied when the grouping actually changes.
    last_shape: Vec<Vec<u64>>,
    /// Moved queues still paused because a straggler worker had not yet
    /// picked up the new assignment when the handoff wait timed out. The
    /// next rebalance pass resumes them once every worker runs the
    /// current snapshot — until then they stay paused (safe: idle, never
    /// two consumers).
    pending_resume: Vec<Arc<QueuePair<Message>>>,
}

impl Runtime {
    /// Start the Runtime: spawn workers (and the admin thread when
    /// configured).
    pub fn start(config: RuntimeConfig) -> Arc<Runtime> {
        let ipc = IpcManager::new(config.queue_depth);
        let mm = Arc::new(ModuleManager::new());
        let ns = Namespace::new();
        let watermark = Arc::new(Watermark::new());
        let tenants = Arc::new(TenantTable::new());
        // Attached before any worker runs so LabMods can bill pushdown
        // fuel to the requesting tenant from the first request.
        mm.attach_tenants(tenants.clone());
        let workers = (0..config.max_workers.max(1))
            .map(|i| Worker::spawn(i, ns.clone(), mm.clone(), watermark.clone()))
            .collect();
        let rt = Arc::new(Runtime {
            ipc,
            mm,
            ns,
            watermark,
            tenants,
            workers: Mutex::new(workers),
            policy: Mutex::new(config.policy),
            max_workers: config.max_workers.max(1),
            admin_stop: Arc::new(AtomicBool::new(false)),
            admin_bell: Arc::new(Doorbell::new()),
            admin: Mutex::new(None),
            auto_admin: config.auto_admin,
            admin_interval: config.admin_interval,
            rebalance_state: Mutex::new(RebalanceState::default()),
            rebalance_coord: Mutex::new(()),
        });
        if config.auto_admin {
            rt.spawn_admin();
        }
        rt
    }

    fn spawn_admin(self: &Arc<Self>) {
        let rt = self.clone();
        let stop = self.admin_stop.clone();
        let bell = self.admin_bell.clone();
        let interval = self.admin_interval;
        // actor-ok: admin tick — pending tenant changes, live upgrades
        // and the rebalance, one pass per `admin_interval`.
        let handle = std::thread::Builder::new()
            .name("labstor-admin".into())
            .spawn(move || {
                // Deadline wait, not a fixed sleep: `request_upgrade` and
                // `shutdown` ring the bell to cut the poll interval short.
                // The epoch is captured before the stop check so a ring
                // between check and park aborts the park (doorbell
                // protocol).
                loop {
                    let epoch = bell.epoch();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    rt.admin_tick();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    bell.wait_past(epoch, interval);
                }
            })
            .expect("spawn admin thread");
        *self.admin.lock() = Some(handle); // lock-class: runtime.admin
    }

    /// One admin iteration: process queued upgrades and staged tenant
    /// policy updates (hot updates ride the same asynchronous control
    /// path as live LabMod upgrades), then rebalance.
    pub fn admin_tick(&self) {
        self.tenants.apply_pending();
        if self.mm.pending_upgrades() > 0 {
            let mut admin_ctx = Ctx::at(self.watermark.get());
            self.mm
                .process_upgrades(&mut admin_ctx, &self.ipc, self.workers_running());
            self.watermark.publish(admin_ctx.now());
        }
        self.rebalance();
    }

    fn workers_running(&self) -> bool {
        !self.workers.lock().is_empty() // lock-class: runtime.workers
    }

    /// Swap the orchestration policy live.
    pub fn set_policy(&self, policy: Arc<dyn OrchestratorPolicy>) {
        *self.policy.lock() = policy; // lock-class: runtime.policy
        self.rebalance();
    }

    /// Run the orchestrator's `rebalance` and apply the assignment.
    ///
    /// Demand per queue is estimated as (work processed since the last
    /// rebalance + current backlog) / virtual time elapsed, in
    /// milli-workers — "the total estimated processing time of the queue".
    ///
    /// Queues whose worker changes go through **drain-and-handoff**: each
    /// queue direction is an SPSC ring, so exactly one consumer may touch
    /// a queue at a time. The protocol: pause each moved queue
    /// (`UPDATE_PENDING`), wait for its current consumer to ack (acks
    /// happen between batches, so an acked queue has no envelope in
    /// flight), publish the new assignment, wait until every worker runs
    /// the new snapshot (generation counter), then un-pause. If the
    /// old-consumer ack times out the move is aborted — shape uncommitted,
    /// so the next admin tick retries. If the snapshot pickup times out
    /// the moved queues stay paused (`pending_resume`) until a later pass
    /// observes all workers current; paused means idle, never two
    /// consumers.
    pub fn rebalance(&self) {
        let _coord = self.rebalance_coord.lock(); // lock-class: runtime.coord
        self.rebalance_locked();
    }

    /// Resume queues left paused by a timed-out handoff, once safe.
    /// Returns false while a straggler worker still runs an old snapshot
    /// (callers must not start a new handoff underneath it).
    fn finish_pending_resume(&self) -> bool {
        let pending: Vec<Arc<QueuePair<Message>>> = {
            let mut state = self.rebalance_state.lock(); // lock-class: runtime.state
            std::mem::take(&mut state.pending_resume)
        };
        if pending.is_empty() {
            return true;
        }
        let all_current = {
            let workers = self.workers.lock(); // lock-class: runtime.workers
            workers.iter().all(|w| w.assignment_current())
        };
        if all_current {
            for q in &pending {
                q.clear_update();
            }
            true
        } else {
            self.rebalance_state.lock().pending_resume = pending; // lock-class: runtime.state
            false
        }
    }

    #[allow(clippy::manual_checked_ops)]
    fn rebalance_locked(&self) {
        if !self.finish_pending_resume() {
            return;
        }
        let queues = self.ipc.primary_queues();
        let wm = self.watermark.get();
        let mut state = self.rebalance_state.lock(); // lock-class: runtime.state
        let dt = wm.saturating_sub(state.last_wm);
        // Per-queue worker service consumed since the last pass, charged
        // to the owning tenant below (after the state lock drops).
        let mut service_deltas: Vec<(u64, u64)> = Vec::new();
        let mut loads: Vec<QueueLoad> = queues
            .iter()
            .map(|q| {
                let work = q.work_done_ns();
                let last = state.last_work.insert(q.id, work).unwrap_or(0);
                service_deltas.push((q.id, work.saturating_sub(last)));
                let backlog = q.est_load_ns();
                let mut demand_milli = if dt > 0 {
                    ((work - last + backlog).saturating_mul(1000)) / dt
                } else {
                    // No virtual progress yet: a queue with backlog wants
                    // a worker's attention.
                    if backlog > 0 {
                        1000
                    } else {
                        0
                    }
                };
                // Latency pressure ("optimizing for latency-sensitive
                // requests"): requests waiting much longer than their own
                // processing time mean the worker pool is the bottleneck —
                // inflate the queue's demand so the knapsack adds workers.
                let item = q.max_item_ns().max(1);
                let wait = q.wait_ema_ns();
                if wait > 2 * item {
                    demand_milli = demand_milli
                        .saturating_mul((wait / item).min(8))
                        .max(demand_milli);
                }
                QueueLoad {
                    qid: q.id,
                    est_load_ns: backlog,
                    max_item_ns: q.max_item_ns(),
                    demand_milli,
                    p50_item_ns: q.p50_item_ns(),
                    p99_item_ns: q.p99_item_ns(),
                }
            })
            .collect();
        state.last_wm = wm;
        drop(state);
        // Weighted fairness (the labtenant pass): charge each tenant the
        // virtual service its queues consumed, then scale queue demands by
        // how far each tenant has run ahead of the least-served one. The
        // tenant table (qos.tenants, rank 36) is taken strictly between
        // runtime.state (30, dropped above) and runtime.policy (32 — never
        // held together with the table).
        for &(qid, delta) in &service_deltas {
            if delta > 0 {
                self.tenants.note_qid_service(qid, delta);
            }
        }
        crate::orchestrator::apply_weighted_fair(
            &mut loads,
            &self.tenants.qid_normalized_service(),
        );
        let assignment = {
            let policy = self.policy.lock(); // lock-class: runtime.policy
            policy.rebalance(&loads, self.max_workers)
        };
        let shape: Vec<Vec<u64>> = assignment
            .iter()
            .map(|g| {
                let mut g = g.clone();
                g.sort_unstable();
                g
            })
            .collect();
        let old_shape = {
            let state = self.rebalance_state.lock(); // lock-class: runtime.state
            if state.last_shape == shape {
                return; // sticky: identical grouping
            }
            state.last_shape.clone()
        };
        let moved = crate::orchestrator::moved_qids(&old_shape, &shape);
        let moved_qs: Vec<Arc<QueuePair<Message>>> = queues
            .iter()
            .filter(|q| moved.binary_search(&q.id).is_ok())
            .cloned()
            .collect();
        let all_current = {
            let workers = self.workers.lock(); // lock-class: runtime.workers
            if workers.is_empty() {
                // Nobody to apply it: leave the shape uncommitted so the
                // rebalance after `restart` re-derives the assignment.
                return;
            }
            // 1. Pause moved queues and wait for their current consumers
            //    to ack. Only the old consumer holds a moved queue in its
            //    snapshot at this point, so the ack is its own.
            for q in &moved_qs {
                q.mark_update_pending();
            }
            let deadline = Instant::now() + HANDOFF_TIMEOUT;
            while moved_qs
                .iter()
                .any(|q| q.upgrade_flag() == UpgradeFlag::UpdatePending)
            {
                if Instant::now() > deadline {
                    // Old consumer unresponsive: abort the move. Shape
                    // stays uncommitted, so the next tick retries.
                    for q in &moved_qs {
                        q.clear_update();
                    }
                    return;
                }
                std::thread::yield_now();
            }
            // 2. Publish the new assignment (generation bump per worker).
            for (i, w) in workers.iter().enumerate() {
                let qids = assignment.get(i).cloned().unwrap_or_default();
                let qs = queues
                    .iter()
                    .filter(|q| qids.contains(&q.id))
                    .cloned()
                    .collect();
                w.assign(qs);
            }
            // 3. Wait until every worker runs the new snapshot — after
            //    that no stale snapshot can consume a moved queue.
            let deadline = Instant::now() + HANDOFF_TIMEOUT;
            loop {
                if workers.iter().all(|w| w.assignment_current()) {
                    break true;
                }
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::yield_now();
            }
        };
        // 4. Commit, then resume the moved queues for their new
        //    consumers (or park them in `pending_resume` if a straggler
        //    worker still holds an old snapshot).
        let mut state = self.rebalance_state.lock(); // lock-class: runtime.state
        state.last_shape = shape;
        if all_current {
            for q in &moved_qs {
                q.clear_update();
            }
        } else {
            state.pending_resume = moved_qs;
        }
    }

    /// Number of workers currently holding assignments (the "cores used"
    /// metric of Fig. 5a).
    pub fn active_workers(&self) -> usize {
        self.workers.lock().iter().filter(|w| w.is_active()).count() // lock-class: runtime.workers
    }

    /// Snapshot of per-worker `(virtual now, virtual busy)`.
    pub fn worker_clocks(&self) -> Vec<(u64, u64)> {
        self.workers
            .lock() // lock-class: runtime.workers
            .iter()
            .map(|w| (w.clock.now(), w.clock.busy()))
            .collect()
    }

    /// Total requests processed by all workers.
    pub fn total_processed(&self) -> u64 {
        // relaxed-ok: stat counter; readers tolerate lag
        self.workers
            .lock() // lock-class: runtime.workers
            .iter()
            .map(|w| w.processed.load(Ordering::Relaxed))
            .sum()
    }

    // ---- clients ------------------------------------------------------------

    /// Connect a client (handshake + queue allocation + rebalance, as the
    /// paper specifies rebalance runs "when a new client connects"). The
    /// credentials' tenant is registered with the permissive default
    /// policy (no rate limit, no quota, weight 1); see
    /// [`Runtime::connect_with_policy`] to declare one.
    pub fn connect(self: &Arc<Self>, creds: Credentials, n_queues: usize) -> Client {
        let conn = self.ipc.connect(creds, n_queues);
        let tenant = creds.tenant;
        if !tenant.is_none() {
            // Register-or-noop: an undeclared connection never overwrites
            // a policy declared by an earlier `connect_with_policy`.
            self.tenants.register(tenant, TenantPolicy::default());
            for q in &conn.queues {
                self.tenants.bind_queue(q.id, tenant);
            }
        }
        self.rebalance();
        Client::new(conn, self.clone())
    }

    /// Connect a client declaring a tenant QoS policy in the handshake.
    ///
    /// First connection wins the registration; a later connection with a
    /// different policy stages a hot update (applied immediately here, and
    /// otherwise by the next admin tick). Every connection queue is bound
    /// to the tenant for weighted-fair attribution.
    pub fn connect_with_policy(
        self: &Arc<Self>,
        creds: Credentials,
        n_queues: usize,
        policy: TenantPolicy,
    ) -> Client {
        let conn = self.ipc.connect(creds, n_queues);
        let tenant = creds.tenant;
        if !tenant.is_none() {
            let existing = self.tenants.policy(tenant);
            self.tenants.register(tenant, policy);
            if existing.is_some_and(|p| p != policy) {
                self.tenants.request_policy_update(tenant, policy);
                self.tenants.apply_pending();
            }
            for q in &conn.queues {
                self.tenants.bind_queue(q.id, tenant);
            }
        }
        self.rebalance();
        Client::new(conn, self.clone())
    }

    // ---- stacks -------------------------------------------------------------

    /// Mount a stack from its spec: instantiate every LabMod (idempotent
    /// per UUID), validate, and insert into the Namespace — the overloaded
    /// `mount` command of §III-B.
    pub fn mount_stack(&self, spec: &StackSpec) -> Result<Arc<LabStack>, String> {
        let stack = spec.to_stack()?;
        // §III-D: "the execution of [untrusted] LabMods must be in a
        // separate address space from the Runtime" — an async stack runs
        // on Runtime workers, so untrusted types are only mountable sync.
        if stack.exec == crate::stack::ExecMode::Async {
            for v in &spec.labmods {
                if !self.mm.type_is_trusted(&v.type_name) {
                    return Err(format!(
                        "LabMod type '{}' comes from an untrusted repo and cannot execute in the Runtime's address space; mount the stack with exec=sync",
                        v.type_name
                    ));
                }
            }
        }
        for v in &spec.labmods {
            self.mm.instantiate(&v.uuid, &v.type_name, &v.params)?;
        }
        self.ns.mount(stack)
    }

    /// Parse and mount a JSON spec.
    pub fn mount_stack_json(&self, json: &str) -> Result<Arc<LabStack>, String> {
        self.mount_stack(&StackSpec::parse(json)?)
    }

    /// Queue a module upgrade (`modify.mods`). The admin bell wakes the
    /// admin thread immediately instead of letting the request sit out the
    /// remainder of the poll interval.
    pub fn request_upgrade(&self, req: UpgradeRequest) {
        self.mm.request_upgrade(req);
        self.admin_bell.ring();
    }

    // ---- crash / restart -----------------------------------------------------

    /// Simulate a Runtime crash: workers die, liveness drops. Clients
    /// block in `wait` until restart (§III-C3).
    pub fn crash(&self) {
        self.ipc.set_offline();
        {
            let mut workers = self.workers.lock(); // lock-class: runtime.workers
            for w in workers.iter_mut() {
                w.stop();
            }
            workers.clear();
        }
        // All consumers are gone: forget the applied shape so the
        // post-restart rebalance reassigns from scratch (no handoff — a
        // queue with no live consumer has nobody to quiesce).
        {
            let mut state = self.rebalance_state.lock(); // lock-class: runtime.state
            state.last_shape.clear();
            state.pending_resume.clear();
        }
        // Sweep the pause flags of *every* queue, not just the ones a
        // timed-out handoff parked in `pending_resume`: a crash landing
        // mid-handoff (queues marked UPDATE_PENDING / acked, new
        // assignment never published) leaves the pause bits set in the
        // shared-memory rings, and the dead consumers can never clear
        // them. Un-pausing is safe — no consumer survives a crash, so
        // there is nothing left to quiesce — and required, or the
        // envelopes parked in those rings would never be drained.
        for q in self.ipc.primary_queues() {
            q.clear_update();
        }
    }

    /// Restart after a crash: respawn workers, repair module state, go
    /// back online.
    pub fn restart(&self) {
        {
            let mut workers = self.workers.lock(); // lock-class: runtime.workers
            if workers.is_empty() {
                *workers = (0..self.max_workers)
                    .map(|i| {
                        Worker::spawn(i, self.ns.clone(), self.mm.clone(), self.watermark.clone())
                    })
                    .collect();
            }
        }
        self.mm.repair_all();
        self.rebalance();
        self.ipc.set_online();
    }

    /// Stop everything.
    pub fn shutdown(&self) {
        self.admin_stop.store(true, Ordering::Release);
        self.admin_bell.ring();
        // lock-class: runtime.admin
        if let Some(h) = self.admin.lock().take() {
            let _ = h.join();
        }
        let mut workers = self.workers.lock(); // lock-class: runtime.workers
        for w in workers.iter_mut() {
            w.stop();
        }
        workers.clear();
        self.ipc.set_offline();
    }

    /// Whether this runtime runs its own admin thread.
    pub fn has_admin(&self) -> bool {
        self.auto_admin
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.admin_stop.store(true, Ordering::Release);
        self.admin_bell.ring();
        // lock-class: runtime.admin
        if let Some(h) = self.admin.lock().take() {
            let _ = h.join();
        }
    }
}
