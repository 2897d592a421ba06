//! The LabStor client library (paper §III-D "Application-Side").
//!
//! Applications link this to mount, modify, query and execute LabStacks.
//! For **async** stacks the client packages a request, places it in a
//! shared-memory queue pair and polls the completion queue (`Wait`),
//! detecting Runtime crashes and waiting for restart. For **sync** stacks
//! the DAG executes inline in the client thread — the paper's
//! decentralized mode with no IPC at all.

use std::sync::Arc;
use std::time::{Duration, Instant};

use labstor_ipc::{ClientConnection, Envelope};
use labstor_sim::Ctx;
use labstor_telemetry::{SpanEvent, Stage};

use crate::labmod::Routes;
use crate::request::{Message, Payload, Request, RespPayload, Response};
use crate::runtime::Runtime;
use crate::stack::{ExecMode, LabStack, StackId};
use crate::worker::run_request;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The Runtime went offline and did not return within the timeout.
    RuntimeDown,
    /// No stack governs the given mount path.
    NoStack(String),
    /// Submission queue stayed full past the timeout.
    Backpressure,
    /// The tenant's token-bucket admission rejected the request: typed
    /// backpressure, never a panic. `retry_after_ns` is the virtual delay
    /// after which the same request would be admitted.
    Throttled {
        /// Earliest virtual-time delay (ns) after which a retry can pass.
        retry_after_ns: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RuntimeDown => write!(f, "runtime offline"),
            ClientError::NoStack(p) => write!(f, "no LabStack governs {p}"),
            ClientError::Backpressure => write!(f, "submission queue full"),
            ClientError::Throttled { retry_after_ns } => {
                write!(
                    f,
                    "tenant rate limit: retry after {retry_after_ns} virtual ns"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client. One per application thread — it owns that thread's
/// virtual timeline.
pub struct Client {
    /// The IPC connection (domain + queue pairs).
    pub conn: ClientConnection<Message>,
    /// This client's virtual clock.
    pub ctx: Ctx,
    runtime: Arc<Runtime>,
    next_id: u64,
    rr: usize,
    /// CPU core this client thread is pinned to (stamped on requests).
    pub core: usize,
    /// In-flight async requests: id → (submit virtual time, queue index,
    /// stack id).
    pending: std::collections::HashMap<u64, (u64, usize, u64)>,
    /// Completions of submitted requests not yet handed to the caller, as
    /// `(response, latency_ns)` in completion order: CQ bursts drained by
    /// [`Client::reap_one`] or by a `roundtrip` waiting for another id,
    /// and sync-stack submissions, which complete inline.
    reaped: std::collections::VecDeque<(Response, u64)>,
    /// How long `wait` tolerates an offline Runtime before giving up
    /// ("for a configurable period of time", §III-C3).
    pub offline_timeout: Duration,
    /// Live QoS accounting for this connection's tenant (`None` for the
    /// untenanted identity): token-bucket admission, counters, latency
    /// histogram.
    tenant: Option<Arc<labstor_qos::TenantState>>,
    /// The stacks this client has resolved: a sync request runs on its
    /// route, and an async one is estimated from it.
    routes: Routes,
}

/// Cap on each park of a client `wait` on its completion doorbell. Every
/// completion rings the bell, so the cap only bounds how long a crashed
/// Runtime (whose dead workers never ring) can go unnoticed — the wait
/// loops re-check liveness after each wakeup instead of spin-checking it.
const WAIT_PARK: Duration = Duration::from_millis(5);

/// Estimate a request's processing cost for the orchestrator: the model
/// of its stack's entry vertex, read through the client's routes.
fn estimate(routes: &mut Routes, runtime: &Runtime, req: &Request) -> u64 {
    routes
        .get(req.stack, &runtime.ns, &runtime.mm)
        .and_then(|route| route.slots.first()?.as_ref())
        .map(|slot| slot.instance.est_processing_time(req))
        .unwrap_or(1_000)
}

/// Has a refused submission been retried for longer than `timeout`? The
/// first refusal starts the clock, so a submission the queue accepts at
/// once (every one, short of backpressure) never reads it.
fn backpressure_expired(deadline: &mut Option<Instant>, timeout: Duration) -> bool {
    let now = Instant::now();
    now > *deadline.get_or_insert(now + timeout)
}

impl Client {
    pub(crate) fn new(conn: ClientConnection<Message>, runtime: Arc<Runtime>) -> Client {
        let tenant = runtime.tenants.resolve(conn.creds.tenant);
        Client {
            conn,
            ctx: Ctx::new(),
            runtime,
            tenant,
            next_id: 0,
            rr: 0,
            core: 0,
            pending: std::collections::HashMap::new(),
            reaped: std::collections::VecDeque::new(),
            offline_timeout: Duration::from_secs(5),
            routes: Routes::default(),
        }
    }

    /// The runtime this client is connected to.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// This connection's live tenant accounting, if it bills to one.
    pub fn tenant(&self) -> Option<&Arc<labstor_qos::TenantState>> {
        self.tenant.as_ref()
    }

    /// Token-bucket admission for one request: charge its payload bytes
    /// (min 1 token) against the tenant's bucket at the current virtual
    /// time. Untenanted clients always pass.
    fn admit(&self, cost_bytes: usize) -> Result<(), ClientError> {
        let Some(tenant) = &self.tenant else {
            return Ok(());
        };
        tenant
            .try_admit(self.ctx.now(), (cost_bytes as u64).max(1))
            .map_err(|retry_after_ns| ClientError::Throttled { retry_after_ns })
    }

    /// Record one completion latency into the tenant's histogram (the
    /// per-tenant p99 the isolation gate watches).
    fn observe_tenant_latency(&self, latency_ns: u64) {
        if let Some(tenant) = &self.tenant {
            tenant.observe_latency(latency_ns);
        }
    }

    /// Allocate a zero-copy payload buffer from the shared pool and fill
    /// it in place — the application writes its bytes straight into
    /// shared memory, then submits `FsOp::WriteBuf { buf, .. }` so no
    /// stage ever copies them. Returns `None` when the pool is dry (fall
    /// back to the legacy `Vec` payload).
    ///
    /// The buffer comes back zeroed, or holding only bytes this client's
    /// domain wrote into it before — malloc within a process, calloc
    /// across processes. Pool slots are recycled process-wide across
    /// clients, domains and the Runtime, and a slot is zeroed whole when
    /// it changes domain ([`BufferPool::alloc_for`]), so a partially
    /// filled buffer never carries another domain's or the Runtime's
    /// bytes into storage.
    ///
    /// [`BufferPool::alloc_for`]: labstor_ipc::BufferPool::alloc_for
    pub fn alloc_buf(&self, len: usize) -> Option<labstor_ipc::BufHandle> {
        labstor_ipc::default_pool().alloc_for(self.conn.domain, len)
    }

    /// The shared buffer pool this client allocates payload buffers from.
    pub fn buf_pool(&self) -> &'static labstor_ipc::BufferPool {
        labstor_ipc::default_pool()
    }

    /// Resolve the stack governing `path` (GenericFS-style ancestor walk).
    pub fn resolve(&self, path: &str) -> Result<(Arc<LabStack>, String), ClientError> {
        // lookup-ok: the §III-E path walk of open, unlink, mkdir and GenericKVS
        self.runtime
            .ns
            .resolve(path)
            .ok_or_else(|| ClientError::NoStack(path.to_string()))
    }

    /// The stack mounted under `id` (an open fd's), served from this
    /// client's routes. `None` once it is unmounted.
    pub fn stack(&mut self, id: StackId) -> Option<Arc<LabStack>> {
        let route = self.routes.get(id, &self.runtime.ns, &self.runtime.mm)?;
        Some(route.stack.clone())
    }

    /// Execute `payload` against a stack. Returns the response payload and
    /// the request's virtual latency in ns.
    pub fn execute(
        &mut self,
        stack: &Arc<LabStack>,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        self.next_id += 1;
        let req = Request::on_core(self.next_id, stack.id, payload, self.conn.creds, self.core);
        self.admit(req.payload_bytes())?;
        let start = self.ctx.now();
        match stack.exec {
            ExecMode::Sync => {
                // Decentralized: run the DAG inline, no IPC.
                let resp = self.run_here(req);
                let latency = self.ctx.now() - start;
                self.observe_tenant_latency(latency);
                Ok((resp.payload, latency))
            }
            ExecMode::Async => {
                let resp = self.roundtrip(req)?;
                let latency = self.ctx.now() - start;
                self.observe_tenant_latency(latency);
                Ok((resp, latency))
            }
        }
    }

    /// Run `req` through a sync stack on this thread, on its route.
    fn run_here(&mut self, req: Request) -> Response {
        let route = self
            .routes
            .get(req.stack, &self.runtime.ns, &self.runtime.mm);
        run_request(
            &mut self.ctx,
            req,
            route,
            &self.runtime.mm,
            self.conn.domain,
        )
    }

    /// Put one request on the next queue (round-robin, left in `self.rr`):
    /// book its cost estimate on the queue, submit with backpressure
    /// retry, record the `Submit` span. A refused request takes its
    /// estimate back off the queue — the orchestrator's backlog counts
    /// only work that was queued.
    fn enqueue(&mut self, req: Request) -> Result<(), ClientError> {
        let (id, stack_id) = (req.id, req.stack);
        let est = estimate(&mut self.routes, &self.runtime, &req);
        self.rr = (self.rr + 1) % self.conn.queues.len();
        let qp = &self.conn.queues[self.rr];
        qp.note_item_est(est);
        qp.add_load(est as i64);
        let mut msg = Message::Req(req);
        let mut deadline = None;
        while let Err(back) = qp.submit(msg, self.ctx.now(), self.conn.domain) {
            msg = back;
            if backpressure_expired(&mut deadline, self.offline_timeout) {
                qp.add_load(-(est as i64));
                return Err(ClientError::Backpressure);
            }
            std::thread::yield_now();
        }
        let rec = self.runtime.mm.telemetry();
        if rec.enabled() {
            let now = self.ctx.now();
            rec.record(Stage::Submit, id, stack_id, 0, now, now);
        }
        Ok(())
    }

    /// Submit through a queue pair and wait for the matching completion.
    fn roundtrip(&mut self, req: Request) -> Result<RespPayload, ClientError> {
        let id = req.id;
        let stack_id = req.stack;
        self.enqueue(req)?;
        // Wait: park on the CQ doorbell between reaps; detect a crashed
        // Runtime and wait for its restart, then repair state and
        // resubmit the request (§III-C3).
        loop {
            // Capture before the reap: a completion posted after the scan
            // rings the bell and aborts the park (doorbell protocol).
            let epoch = self.conn.bell.epoch();
            if let Some(env) = self.conn.queues[self.rr].reap(&mut self.ctx, self.conn.domain) {
                // Completion-queue crossing: from the worker's completion
                // post to this reap.
                let (complete_vt, reap_vt) = (env.submit_vt, self.ctx.now());
                if let Message::Resp(resp) = env.payload {
                    let rec = self.runtime.mm.telemetry();
                    if resp.id == id {
                        if rec.enabled() {
                            rec.record(Stage::HopResp, id, stack_id, 0, complete_vt, reap_vt);
                        }
                        return Ok(resp.payload);
                    }
                    // Not ours: an earlier `submit` shares this queue and
                    // `reap_one` will ask for its completion.
                    if let Some(span) = self.bank_completion(resp, complete_vt, reap_vt) {
                        self.runtime.mm.telemetry().record_batch([span]);
                    }
                }
                continue;
            }
            if !self.runtime.ipc.is_online() {
                // The in-flight request may be lost with the crashed
                // Runtime. Per §III-C3 the client library invokes
                // StateRepair in each LabMod once the Runtime returns;
                // resubmission happens in `execute_with_retry`.
                if self.runtime.ipc.wait_online(self.offline_timeout) {
                    self.runtime.mm.repair_all();
                }
                return Err(ClientError::RuntimeDown);
            }
            // Nothing reapable: park until a worker rings. The cap keeps
            // the liveness check above live when the Runtime dies parked.
            self.conn.bell.wait_past(epoch, WAIT_PARK);
        }
    }

    /// Execute with automatic resubmission across a Runtime crash: the
    /// request is retried until the Runtime answers or the offline
    /// timeout expires.
    pub fn execute_with_retry(
        &mut self,
        stack: &Arc<LabStack>,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let deadline = Instant::now() + self.offline_timeout;
        loop {
            match self.execute(stack, payload.clone()) {
                Ok(r) => return Ok(r),
                Err(ClientError::RuntimeDown) if Instant::now() < deadline => {
                    if !self.runtime.ipc.wait_online(self.offline_timeout) {
                        return Err(ClientError::RuntimeDown);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Run `req` through a sync stack on this thread; its response waits,
    /// with its latency, in the same buffer as reaped completions.
    fn run_inline(&mut self, req: Request) {
        let start = self.ctx.now();
        let resp = self.run_here(req);
        self.reaped.push_back((resp, self.ctx.now() - start));
    }

    /// Submit a request without waiting (queue-depth > 1 clients).
    /// Returns the request id to pass to [`Client::reap_one`]. For
    /// sync-mode stacks the request executes inline and its response
    /// waits, with its latency, in the same buffer as reaped completions.
    pub fn submit(&mut self, stack: &Arc<LabStack>, payload: Payload) -> Result<u64, ClientError> {
        self.next_id += 1;
        let req = Request::on_core(self.next_id, stack.id, payload, self.conn.creds, self.core);
        let id = req.id;
        self.admit(req.payload_bytes())?;
        match stack.exec {
            ExecMode::Sync => {
                self.run_inline(req);
                Ok(id)
            }
            ExecMode::Async => {
                // Only this thread reaps, so booking the id after the
                // submit cannot miss its completion.
                self.enqueue(req)?;
                self.pending.insert(id, (self.ctx.now(), self.rr, stack.id));
                Ok(id)
            }
        }
    }

    /// Submit a burst of requests without waiting, returning their ids in
    /// submission order. For an async stack the whole burst targets one
    /// queue (round-robin advances per burst, not per request) and goes
    /// through [`QueuePair::submit_batch`]: one SQ-counter publication and
    /// one batched `Submit`-span flush for the burst, instead of one per
    /// request — the client half of the batched IPC hot path. A sync
    /// stack runs the burst inline, in order. Either way the burst is
    /// admitted whole or refused whole (`Err(Throttled)`, nothing run).
    ///
    /// On backpressure timeout the not-yet-submitted tail is unregistered
    /// (ids and load estimates) and `Err(Backpressure)` is returned;
    /// requests of the burst that did make it in stay in flight and remain
    /// reapable via [`Client::reap_one`].
    ///
    /// [`QueuePair::submit_batch`]: labstor_ipc::QueuePair::submit_batch
    pub fn submit_all(
        &mut self,
        stack: &Arc<LabStack>,
        payloads: Vec<Payload>,
    ) -> Result<Vec<u64>, ClientError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        // Admission charges the whole burst atomically (one bucket
        // operation per burst, on either kind of stack): either every
        // request is admitted or none runs or is queued.
        let mut reqs: Vec<Request> = Vec::with_capacity(payloads.len());
        let mut burst_bytes: usize = 0;
        for p in payloads {
            self.next_id += 1;
            let req = Request::on_core(self.next_id, stack.id, p, self.conn.creds, self.core);
            burst_bytes = burst_bytes.saturating_add(req.payload_bytes().max(1));
            reqs.push(req);
        }
        self.admit(burst_bytes)?;
        if stack.exec == ExecMode::Sync {
            let ids = reqs.iter().map(|r| r.id).collect();
            for req in reqs {
                self.run_inline(req);
            }
            return Ok(ids);
        }
        self.rr = (self.rr + 1) % self.conn.queues.len();
        let qi = self.rr;
        let qp = &self.conn.queues[qi];
        let mut ids = Vec::with_capacity(reqs.len());
        let mut msgs: Vec<Message> = Vec::with_capacity(reqs.len());
        for req in reqs {
            let est = estimate(&mut self.routes, &self.runtime, &req);
            qp.note_item_est(est);
            qp.add_load(est as i64);
            self.pending.insert(req.id, (self.ctx.now(), qi, stack.id));
            ids.push(req.id);
            msgs.push(Message::Req(req));
        }
        let mut deadline = None;
        while !msgs.is_empty() {
            if qp.submit_batch(&mut msgs, self.ctx.now(), self.conn.domain) == 0
                && backpressure_expired(&mut deadline, self.offline_timeout)
            {
                // Unregister the unsubmitted tail (ids and their load
                // estimates); keep ids that made it.
                let mut unqueued = 0u64;
                for m in &msgs {
                    if let Message::Req(r) = m {
                        self.pending.remove(&r.id);
                        unqueued += estimate(&mut self.routes, &self.runtime, r);
                    }
                }
                qp.add_load(-(unqueued as i64));
                return Err(ClientError::Backpressure);
            }
            if !msgs.is_empty() {
                std::thread::yield_now();
            }
        }
        let rec = self.runtime.mm.telemetry();
        if rec.enabled() {
            let now = self.ctx.now();
            let stack_bits = (stack.id & 0x00FF_FFFF) as u32;
            rec.record_batch(ids.iter().map(|&id| SpanEvent {
                req_id: id,
                stage: Stage::Submit,
                stack: stack_bits,
                vertex: 0,
                ring: 0, // stamped by the recorder
                t_start_vns: now,
                t_end_vns: now,
            }));
        }
        Ok(ids)
    }

    /// Completions drained per CQ crossing in [`Client::reap_one`].
    const REAP_BATCH: usize = 8;

    /// Drain one burst of completions from each queue into the local
    /// `reaped` buffer: one CQ crossing (and one batched telemetry flush)
    /// per queue instead of one per completion. Per-envelope `dequeue_vt`
    /// keeps each completion's reap time exact inside the burst.
    fn drain_completions(&mut self) {
        let recording = self.runtime.mm.telemetry().enabled();
        let mut burst: Vec<Envelope<Message>> = Vec::with_capacity(Self::REAP_BATCH);
        let mut spans: Vec<SpanEvent> = Vec::new();
        for qi in 0..self.conn.queues.len() {
            if self.conn.queues[qi].reap_batch(
                &mut self.ctx,
                self.conn.domain,
                &mut burst,
                Self::REAP_BATCH,
            ) == 0
            {
                continue;
            }
            for env in burst.drain(..) {
                let (complete_vt, reap_vt) = (env.submit_vt, env.dequeue_vt);
                if let Message::Resp(resp) = env.payload {
                    let span = self.bank_completion(resp, complete_vt, reap_vt);
                    if recording {
                        spans.extend(span);
                    }
                }
                // Stale requests bounced back after a crash: drop them.
            }
        }
        if recording && !spans.is_empty() {
            self.runtime.mm.telemetry().record_batch(spans);
        }
    }

    /// Book one reaped completion of a `submit`ted request: forget it in
    /// `pending`, observe its latency and queue it for [`Client::reap_one`].
    /// Returns its `HopResp` span (the worker's completion post → this
    /// reap) for the caller to record, or `None` — keeping nothing — for
    /// a response this client is not waiting for: a stale one, from
    /// before a crash.
    fn bank_completion(
        &mut self,
        resp: Response,
        complete_vt: u64,
        reap_vt: u64,
    ) -> Option<SpanEvent> {
        let (submit_vt, _, stack_id) = self.pending.remove(&resp.id)?;
        let latency = reap_vt.saturating_sub(submit_vt);
        self.observe_tenant_latency(latency);
        let span = SpanEvent {
            req_id: resp.id,
            stage: Stage::HopResp,
            stack: (stack_id & 0x00FF_FFFF) as u32,
            vertex: 0,
            ring: 0, // stamped by the recorder
            t_start_vns: complete_vt,
            t_end_vns: reap_vt,
        };
        self.reaped.push_back((resp, latency));
        Some(span)
    }

    /// Reap one completion from any of this client's queues (a sync
    /// stack's are ready as soon as `submit` returns), oldest first.
    /// Returns `(response, latency_ns)`. Blocks (in real time) until
    /// something completes.
    pub fn reap_one(&mut self) -> Result<(Response, u64), ClientError> {
        if let Some(r) = self.reaped.pop_front() {
            return Ok(r);
        }
        let deadline = Instant::now() + self.offline_timeout;
        loop {
            // Capture before the drain (doorbell protocol; see roundtrip).
            let epoch = self.conn.bell.epoch();
            self.drain_completions();
            if let Some(r) = self.reaped.pop_front() {
                return Ok(r);
            }
            if self.pending.is_empty() {
                return Err(ClientError::Backpressure);
            }
            if !self.runtime.ipc.is_online() {
                if self.runtime.ipc.wait_online(self.offline_timeout) {
                    self.runtime.mm.repair_all();
                }
                return Err(ClientError::RuntimeDown);
            }
            if Instant::now() > deadline {
                return Err(ClientError::RuntimeDown);
            }
            // Park until a completion burst rings this connection's bell;
            // the cap keeps the liveness and deadline checks live.
            self.conn.bell.wait_past(epoch, WAIT_PARK);
        }
    }

    /// Requests submitted via [`Client::submit`] not yet reaped
    /// (including inline sync-stack completions and buffered CQ-burst
    /// completions awaiting reap).
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.reaped.len()
    }

    /// Convenience: execute against whatever stack governs `path`.
    pub fn execute_path(
        &mut self,
        path: &str,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let (stack, _) = self.resolve(path)?;
        self.execute(&stack, payload)
    }
}
