//! The LabStor client library (paper §III-D "Application-Side").
//!
//! Applications link this to mount, modify, query and execute LabStacks.
//! A request leaves a [`Client`] one way: `send` numbers a burst, builds
//! its requests and admits it with one token-bucket charge. For **sync**
//! stacks the DAG then executes inline in the client thread — the paper's
//! decentralized mode with no IPC at all. For **async** stacks the burst
//! is booked as pending and placed on one shared-memory queue pair.
//! `submit` is a burst of one, `submit_all` a burst of many, and
//! `execute` is `submit` plus a wait for that id. Completions come back
//! one way too: the wait drains the completion queues, parks on the
//! connection's doorbell (`Wait`) and detects Runtime crashes, waiting
//! for restart.

use std::collections::VecDeque;
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
    /// In-flight async requests as `(id, submit virtual time, stack id)`,
    /// in id order. Completions come back mostly in that order, so
    /// [`unbook`] finds one at or near the front, with no hashing.
    pending: VecDeque<(u64, u64, StackId)>,
    /// Completions of submitted requests not yet handed to the caller, as
    /// `(response, latency_ns)` in completion order: CQ bursts drained by
    /// a wait for any id or for another one, and sync-stack submissions,
    /// which complete inline.
    reaped: VecDeque<(Response, u64)>,
    /// Scratch for the burst being sent and for one CQ's drained burst,
    /// kept so that neither allocates per request.
    sq_burst: Vec<Message>,
    cq_burst: Vec<Envelope<Message>>,
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

/// Forget in-flight request `id`, returning its submit virtual time and
/// stack id; `None` if it is not in flight (a stale response from before
/// a crash).
fn unbook(pending: &mut VecDeque<(u64, u64, StackId)>, id: u64) -> Option<(u64, StackId)> {
    let at = pending.iter().position(|p| p.0 == id)?;
    pending
        .remove(at)
        .map(|(_, submit_vt, stack)| (submit_vt, stack))
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
            pending: VecDeque::new(),
            reaped: VecDeque::new(),
            sq_burst: Vec::new(),
            cq_burst: Vec::new(),
            offline_timeout: Duration::from_secs(5),
            routes: Routes::default(),
        }
    }

    /// This connection's live tenant accounting, if it bills to one.
    pub fn tenant(&self) -> Option<&Arc<labstor_qos::TenantState>> {
        self.tenant.as_ref()
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
    /// stage ever copies them. The slot comes only from the smallest size
    /// class that fits `len`: a block cache keeps a write's buffer while
    /// the blocks stay resident, and a larger slot would pin its spare
    /// bytes with them. Returns `None` when that class is dry (fall back
    /// to the legacy `Vec` payload).
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

    /// Execute `payload` against a stack: [`Client::submit`], then wait
    /// for that request's completion for as long as the Runtime is
    /// online. Returns the response payload and the request's virtual
    /// latency in ns. Completions of earlier submits that the wait reaps
    /// stay owed to [`Client::reap_one`].
    pub fn execute(
        &mut self,
        stack: &Arc<LabStack>,
        payload: Payload,
    ) -> Result<(RespPayload, u64), ClientError> {
        let id = self.submit(stack, payload)?;
        self.wait(Some(id))
            .map(|(resp, latency)| (resp.payload, latency))
            // Lost with a crashed Runtime: `execute_with_retry` resubmits
            // it, so nobody will reap it.
            .inspect_err(|_| {
                unbook(&mut self.pending, id);
            })
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

    /// Submit a request without waiting (queue-depth > 1 clients): a
    /// burst of one. Returns the request id to pass to
    /// [`Client::reap_one`]. For sync-mode stacks the request executes
    /// inline and its response waits, with its latency, in the same
    /// buffer as reaped completions.
    pub fn submit(&mut self, stack: &Arc<LabStack>, payload: Payload) -> Result<u64, ClientError> {
        self.send(stack, std::iter::once(payload))
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
        let n = payloads.len() as u64;
        if n == 0 {
            return Ok(Vec::new());
        }
        let first = self.send(stack, payloads)?;
        Ok((first..first + n).collect())
    }

    /// The one way a request leaves this client. Number the burst, build
    /// its requests and admit it with one charge of its payload bytes
    /// (min 1 token each) against the tenant's token bucket at the
    /// current virtual time (untenanted clients always pass). Then a sync
    /// stack runs it inline, in order, and an async stack's burst goes on
    /// one queue ([`Client::enqueue`]). Returns the first id; a burst's
    /// ids are consecutive. A refused burst runs nothing and queues
    /// nothing.
    fn send(
        &mut self,
        stack: &LabStack,
        payloads: impl IntoIterator<Item = Payload>,
    ) -> Result<u64, ClientError> {
        let first = self.next_id + 1;
        let mut burst = std::mem::take(&mut self.sq_burst);
        let mut cost_bytes: usize = 0;
        for payload in payloads {
            self.next_id += 1;
            let req = Request::on_core(self.next_id, stack.id, payload, self.conn.creds, self.core);
            cost_bytes = cost_bytes.saturating_add(req.payload_bytes().max(1));
            burst.push(Message::Req(req));
        }
        let admitted = match &self.tenant {
            Some(tenant) => tenant
                .try_admit(self.ctx.now(), cost_bytes as u64)
                .map_err(|retry_after_ns| ClientError::Throttled { retry_after_ns }),
            None => Ok(()),
        };
        let sent = admitted.and_then(|()| match stack.exec {
            ExecMode::Sync => {
                for msg in burst.drain(..) {
                    if let Message::Req(req) = msg {
                        self.run_inline(req);
                    }
                }
                Ok(())
            }
            ExecMode::Async => self.enqueue(&mut burst, first, stack.id),
        });
        burst.clear();
        self.sq_burst = burst;
        sent.map(|()| first)
    }

    /// Run `req` through a sync stack on this thread, on its route; its
    /// response waits, with its latency, in the same buffer as reaped
    /// completions, and the latency goes to the tenant's histogram.
    fn run_inline(&mut self, req: Request) {
        let start = self.ctx.now();
        let route = self
            .routes
            .get(req.stack, &self.runtime.ns, &self.runtime.mm);
        let resp = run_request(
            &mut self.ctx,
            req,
            route,
            &self.runtime.mm,
            self.conn.domain,
        );
        let latency = self.ctx.now() - start;
        self.observe_tenant_latency(latency);
        self.reaped.push_back((resp, latency));
    }

    /// Put an admitted burst (ids `first..`) on the next queue
    /// (round-robin, left in `self.rr`): book each request's cost
    /// estimate on the queue and its id in `pending`, submit with
    /// backpressure retry, record the `Submit` spans. Only this thread
    /// reaps, so booking the ids before the submit cannot miss a
    /// completion. On backpressure timeout the unsubmitted tail takes its
    /// ids and estimates back — the orchestrator's backlog counts only
    /// work that was queued.
    fn enqueue(
        &mut self,
        burst: &mut Vec<Message>,
        first: u64,
        stack_id: StackId,
    ) -> Result<(), ClientError> {
        self.rr = (self.rr + 1) % self.conn.queues.len();
        let qp = &self.conn.queues[self.rr];
        let now = self.ctx.now();
        let n = burst.len() as u64;
        for msg in burst.iter() {
            if let Message::Req(req) = msg {
                let est = estimate(&mut self.routes, &self.runtime, req);
                qp.note_item_est(est);
                qp.add_load(est as i64);
                self.pending.push_back((req.id, now, stack_id));
            }
        }
        let mut deadline = None;
        while !burst.is_empty() {
            if qp.submit_batch(burst, now, self.conn.domain) == 0
                && backpressure_expired(&mut deadline, self.offline_timeout)
            {
                let mut unqueued = 0u64;
                for msg in burst.iter() {
                    if let Message::Req(req) = msg {
                        unbook(&mut self.pending, req.id);
                        unqueued += estimate(&mut self.routes, &self.runtime, req);
                    }
                }
                qp.add_load(-(unqueued as i64));
                return Err(ClientError::Backpressure);
            }
            if !burst.is_empty() {
                std::thread::yield_now();
            }
        }
        let rec = self.runtime.mm.telemetry();
        if rec.enabled() {
            let stack_bits = (stack_id & 0x00FF_FFFF) as u32;
            rec.record_batch((first..first + n).map(|id| SpanEvent {
                req_id: id,
                stage: Stage::Submit,
                stack: stack_bits,
                vertex: 0,
                ring: 0, // stamped by the recorder
                t_start_vns: now,
                t_end_vns: now,
            }));
        }
        Ok(())
    }

    /// Completions drained per CQ crossing in [`Client::drain_completions`].
    const REAP_BATCH: usize = 8;

    /// Drain one burst of completions from each queue into the local
    /// `reaped` buffer: one CQ crossing (and one batched telemetry flush)
    /// per queue instead of one per completion. Per-envelope `dequeue_vt`
    /// keeps each completion's reap time exact inside the burst.
    fn drain_completions(&mut self) {
        let recording = self.runtime.mm.telemetry().enabled();
        let mut burst = std::mem::take(&mut self.cq_burst);
        let mut spans: Vec<SpanEvent> = Vec::new();
        for qi in 0..self.conn.queues.len() {
            self.conn.queues[qi].reap_batch(
                &mut self.ctx,
                self.conn.domain,
                &mut burst,
                Self::REAP_BATCH,
            );
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
        self.cq_burst = burst;
        if recording && !spans.is_empty() {
            self.runtime.mm.telemetry().record_batch(spans);
        }
    }

    /// Book one reaped completion of a submitted request: forget it in
    /// `pending`, observe its latency and queue it for its waiter.
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
        let (submit_vt, stack_id) = unbook(&mut self.pending, resp.id)?;
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
    /// something completes, for at most `offline_timeout`.
    pub fn reap_one(&mut self) -> Result<(Response, u64), ClientError> {
        self.wait(None)
    }

    /// Take a banked completion: request `want`'s, or the oldest.
    fn take_reaped(&mut self, want: Option<u64>) -> Option<(Response, u64)> {
        let at = match want {
            Some(id) => self.reaped.iter().position(|(resp, _)| resp.id == id)?,
            None => 0,
        };
        self.reaped.remove(at)
    }

    /// The one completion loop: drain every CQ and bank what it holds,
    /// park on the completion doorbell between drains, and check the
    /// Runtime's liveness after each wakeup, until request `want` (or,
    /// for `None`, any request) has completed. On a crashed Runtime it
    /// waits for the restart, invokes StateRepair in each LabMod once the
    /// Runtime returns (§III-C3) and answers `RuntimeDown`; resubmission
    /// is `execute_with_retry`'s. A wait for any request also gives up
    /// after `offline_timeout`, and answers `Backpressure` when nothing
    /// is owed.
    fn wait(&mut self, want: Option<u64>) -> Result<(Response, u64), ClientError> {
        if let Some(r) = self.take_reaped(want) {
            return Ok(r);
        }
        let deadline = want
            .is_none()
            .then(|| Instant::now() + self.offline_timeout);
        loop {
            // Capture before the drain: a completion posted after the scan
            // rings the bell and aborts the park (doorbell protocol).
            let epoch = self.conn.bell.epoch();
            self.drain_completions();
            if let Some(r) = self.take_reaped(want) {
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
            if deadline.is_some_and(|d| Instant::now() > d) {
                return Err(ClientError::RuntimeDown);
            }
            // Nothing reapable: park until a completion burst rings this
            // connection's bell. The cap keeps the liveness and deadline
            // checks live when the Runtime dies parked.
            self.conn.bell.wait_past(epoch, WAIT_PARK);
        }
    }

    /// Requests submitted via [`Client::submit`] not yet reaped
    /// (including inline sync-stack completions and buffered CQ-burst
    /// completions awaiting reap).
    pub fn in_flight(&self) -> usize {
        self.pending.len() + self.reaped.len()
    }
}
