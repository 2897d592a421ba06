//! Queue Pairs: the request/completion conduits between clients, the
//! Runtime, and LabMods (paper §III-C1).
//!
//! Properties reproduced from the paper:
//!
//! * **Primary queues**: every queue pair carries client-initiated
//!   requests and is allocated by `IpcManager::connect`.
//! * **Ordered**: a queue is drained in sequence by a single worker.
//! * **Upgrade flags**: the Module Manager marks primary queues
//!   `UPDATE_PENDING`; workers acknowledge with `UPDATE_ACKED` before the
//!   upgrade proceeds (§III-C2).
//!
//! Deviation from §III-C1: there are no intermediate or unordered queues.
//! A request spawned by another request runs inline on the worker that
//! dequeued its parent (`StackEnv::forward`), so nothing is ever queued
//! inside the Runtime and upgrade quiescence is "every primary queue
//! acked".
//!
//! ## One ring per direction
//!
//! The SQ and the CQ are each a zero-CAS `SpscRing`, which is sound only
//! with one producer and one consumer per direction at a time:
//!
//! * SQ producer and CQ consumer — the client connection the queue was
//!   allocated for at connect time (a `Client` is one thread).
//! * SQ consumer and CQ producer — the single worker the orchestrator
//!   assigns the queue to. Reassignment goes through the
//!   `UpdatePending`/`UpdateAcked` drain-and-handoff in
//!   `Runtime::rebalance`, so the old consumer has let go before the new
//!   one starts (DESIGN.md §9).
//!
//! Code that builds a pair directly (benches, tests) carries the same
//! obligation. Debug builds verify it dynamically on every queue with
//! per-role access claims.
//!
//! ## Batched verbs
//!
//! `submit_batch` / `consume_batch` / `complete_batch` / `reap_batch`
//! process a burst per call: the ring publication, the flow counters, and
//! the wait-EMA store happen once per batch, while the *virtual-time*
//! accounting (causality idle, per-envelope hop cost) is charged per
//! envelope, exactly as N single verbs would — batching is a host-side
//! optimization and must not change simulated results.
//!
//! ## Virtual-time causality
//!
//! Envelopes carry the producer's virtual timestamp. A consumer whose
//! clock lags the envelope's submit time first idles forward to it — work
//! cannot be processed before it exists. This is the conservative
//! synchronization rule that makes the simulation's timing host-independent
//! (see `labstor_sim::time`).

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use labstor_sim::Ctx;
use labstor_telemetry::{LogHistogram, Stat};
use parking_lot::RwLock;

use crate::cost;
use crate::doorbell::Doorbell;
use crate::ring::SpscRing;

/// What a queue carries: client-initiated requests, always. A one-variant
/// enum because the frozen `benchmark/src/probes.rs`, its only caller,
/// spells `QueueRole::Primary` (ROADMAP 1g).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRole {
    /// Client-initiated requests; participates in upgrade quiescence.
    Primary,
}

/// Static properties of a queue pair.
#[derive(Debug, Clone, Copy)]
pub struct QueueFlags {
    /// Ordered queues are processed in sequence on a single worker.
    pub ordered: bool,
    /// Always [`QueueRole::Primary`].
    pub role: QueueRole,
}

impl Default for QueueFlags {
    fn default() -> Self {
        QueueFlags {
            ordered: true,
            role: QueueRole::Primary,
        }
    }
}

/// The ring a queue-pair direction runs on: SPSC, always. A one-variant
/// enum because the frozen `benchmark/src/probes.rs`, its only caller,
/// passes it to the constructor below (ROADMAP 1g).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Zero-CAS SPSC ring.
    Spsc,
}

/// Live-upgrade handshake state of a primary queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UpgradeFlag {
    /// Normal operation.
    None = 0,
    /// The Module Manager requested quiescence.
    UpdatePending = 1,
    /// The owning worker acknowledged and paused the queue.
    UpdateAcked = 2,
}

/// A request wrapped with provenance used for cost accounting, causality,
/// and queueing-latency measurement.
#[derive(Debug)]
pub struct Envelope<T> {
    /// The request itself.
    pub payload: T,
    /// Virtual time at which the envelope entered the queue.
    pub submit_vt: u64,
    /// Domain (address space) that produced the envelope.
    pub(crate) origin_domain: u32,
    /// Virtual time at which the consumer finished the transfer hop for
    /// this envelope; stamped by `consume`/`reap` (0 while queued). Batch
    /// consumers use it to attribute per-envelope hop spans.
    pub dequeue_vt: u64,
}

/// Debug-only dynamic enforcement of the SPSC contract: each of the four
/// roles (SQ producer/consumer, CQ producer/consumer) may be held by at
/// most one thread at a time. Release builds compile this away — the
/// contract is held by construction (one client per connection, the
/// orchestrator's single-consumer assignment, and the drain-and-handoff
/// protocol in `Runtime::rebalance`).
#[cfg(debug_assertions)]
#[derive(Default)]
struct RoleClaims {
    sq_producer: AtomicBool,
    sq_consumer: AtomicBool,
    cq_producer: AtomicBool,
    cq_consumer: AtomicBool,
}

/// RAII holder of one role; see [`RoleClaims`].
#[cfg(debug_assertions)]
struct Claim<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl<'a> Claim<'a> {
    fn acquire(flag: &'a AtomicBool, what: &'static str) -> Claim<'a> {
        // panic-ok: debug-only contract check — a second concurrent holder
        // of a ring role is exactly the bug this guard exists to catch,
        // and continuing would be UB on the ring.
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "SPSC contract violated: concurrent {what}"
        );
        Claim(flag)
    }
}

#[cfg(debug_assertions)]
impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// A submission/completion queue pair.
///
/// Two bounded FIFO rings; see the module docs for the
/// single-producer/single-consumer contract every caller holds. The Work
/// Orchestrator honours it by assigning each queue to one worker.
pub struct QueuePair<T> {
    /// Unique queue id within the IPC manager.
    pub id: u64,
    flags: QueueFlags,
    sq: SpscRing<Envelope<T>>,
    cq: SpscRing<Envelope<T>>,
    upgrade: AtomicU8,
    /// Estimated total processing cost (ns) of requests currently queued;
    /// maintained by callers via [`QueuePair::add_load`] and consumed by
    /// the Work Orchestrator's partitioner.
    est_load_ns: Stat,
    /// Maximum estimated single-item cost seen (queue classification).
    max_item_ns: Stat,
    /// Cumulative processing time workers spent on this queue's requests
    /// (the orchestrator's demand signal).
    work_done_ns: Stat,
    /// Exponential moving average of the queue wait requests observed
    /// (worker pickup time minus submit time) — the orchestrator's
    /// latency-pressure signal.
    wait_ema_ns: Stat,
    /// Histogram of measured per-item processing cost (everything passed
    /// to [`QueuePair::record_work_batch`]). The Work Orchestrator classifies
    /// queues by its quantiles, falling back to [`QueuePair::max_item_ns`]
    /// while the histogram is still empty.
    item_hist: LogHistogram,
    /// Doorbell of the consumer currently draining the SQ (the assigned
    /// worker). Producers ring it once per successful burst; the worker
    /// re-registers its own bell when an assignment snapshot hands it the
    /// queue. `None` until a consumer registers (rings are dropped, which
    /// is safe: an unregistered consumer is by definition not parked).
    sq_bell: RwLock<Option<Arc<Doorbell>>>,
    /// Doorbell of the completion consumer (the owning client
    /// connection); registered once at connect time.
    cq_bell: RwLock<Option<Arc<Doorbell>>>,
    #[cfg(debug_assertions)]
    claims: RoleClaims,
}

/// The four roles checked by the debug claims.
#[cfg(debug_assertions)]
#[derive(Clone, Copy)]
enum Role {
    SqProducer,
    SqConsumer,
    CqProducer,
    CqConsumer,
}

impl<T> QueuePair<T> {
    /// Create a queue pair with `depth` slots (rounded up to a power of
    /// two) in each direction. The caller owns the single-producer/
    /// single-consumer contract per direction (module docs).
    pub fn new(id: u64, depth: usize, flags: QueueFlags) -> Self {
        QueuePair {
            id,
            flags,
            sq: SpscRing::with_capacity(depth.max(1)),
            cq: SpscRing::with_capacity(depth.max(1)),
            upgrade: AtomicU8::new(UpgradeFlag::None as u8),
            est_load_ns: Stat::new(0),
            max_item_ns: Stat::new(0),
            work_done_ns: Stat::new(0),
            wait_ema_ns: Stat::new(0),
            item_hist: LogHistogram::new(),
            sq_bell: RwLock::new(None),
            cq_bell: RwLock::new(None),
            #[cfg(debug_assertions)]
            claims: RoleClaims::default(),
        }
    }

    /// [`QueuePair::new`], for the frozen `benchmark/src/probes.rs`, its
    /// only caller (ROADMAP 1g).
    pub fn with_lane(id: u64, depth: usize, flags: QueueFlags, _lane: LaneKind) -> Self {
        QueuePair::new(id, depth, flags)
    }

    // ---- doorbells ---------------------------------------------------------
    //
    // Registration/ring race, resolved by the slot lock: a consumer
    // registers its bell *before* scanning the queue; a producer pushes
    // *before* reading the slot to ring. If the producer's slot read
    // happens before the registration write, the consumer's subsequent
    // scan observes the push (the write lock's release/acquire orders it);
    // if it happens after, the ring lands on the registered bell and
    // aborts the park. Either way no envelope is stranded.

    /// Register the SQ consumer's doorbell (called by a worker when an
    /// assignment snapshot hands it this queue, before it first scans).
    pub fn register_sq_bell(&self, bell: &Arc<Doorbell>) {
        let mut slot = self.sq_bell.write(); // lock-class: ipc.bellslot
        *slot = Some(Arc::clone(bell));
    }

    /// Register the CQ consumer's doorbell (the owning client connection;
    /// called once at connect time, before any submission).
    pub fn register_cq_bell(&self, bell: &Arc<Doorbell>) {
        let mut slot = self.cq_bell.write(); // lock-class: ipc.bellslot
        *slot = Some(Arc::clone(bell));
    }

    /// Ring the SQ consumer's doorbell (once per successful submit burst,
    /// and on upgrade-flag edges a parked worker must observe).
    fn ring_sq(&self) {
        let slot = self.sq_bell.read(); // lock-class: ipc.bellslot
        if let Some(bell) = slot.as_ref() {
            bell.ring();
        }
    }

    /// Ring the CQ consumer's doorbell (once per successful completion
    /// burst).
    fn ring_cq(&self) {
        let slot = self.cq_bell.read(); // lock-class: ipc.bellslot
        if let Some(bell) = slot.as_ref() {
            bell.ring();
        }
    }

    /// Static queue properties.
    pub fn flags(&self) -> QueueFlags {
        self.flags
    }

    /// Claim a role for the duration of one verb (debug builds).
    #[cfg(debug_assertions)]
    fn claim(&self, role: Role) -> Claim<'_> {
        let (flag, what) = match role {
            Role::SqProducer => (&self.claims.sq_producer, "SQ producer (submit)"),
            Role::SqConsumer => (&self.claims.sq_consumer, "SQ consumer (consume)"),
            Role::CqProducer => (&self.claims.cq_producer, "CQ producer (complete)"),
            Role::CqConsumer => (&self.claims.cq_consumer, "CQ consumer (reap)"),
        };
        Claim::acquire(flag, what)
    }

    /// Submit a request at virtual time `submit_vt` from `origin_domain`.
    /// Fails (returning the payload) when the submission queue is full —
    /// callers back off and retry, which is the paper's backpressure
    /// behaviour. `Client` submits through [`QueuePair::submit_batch`]
    /// only; this single verb is left for the frozen
    /// `benchmark/src/probes.rs`, `bench_reactor`, the primitives bench
    /// and the tests that pin "batch ≡ N singles" (ROADMAP 1g).
    pub fn submit(&self, payload: T, submit_vt: u64, origin_domain: u32) -> Result<(), T> {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::SqProducer);
        let env = Envelope {
            payload,
            submit_vt,
            origin_domain,
            dequeue_vt: 0,
        };
        // SAFETY: the sole SQ producer is the owning client connection
        // (debug-checked by `_claim`).
        match unsafe { self.sq.producer_push(env) } {
            Ok(()) => {
                self.ring_sq();
                Ok(())
            }
            Err(env) => Err(env.payload),
        }
    }

    /// Batched [`QueuePair::submit`]: move requests from the front of
    /// `payloads` into the SQ until it fills, publishing the burst with
    /// one ring doorbell. Returns how many were queued; leftovers stay in
    /// `payloads` for the caller's backpressure retry. Equivalent to N
    /// single submits at the same `submit_vt`.
    pub fn submit_batch(&self, payloads: &mut Vec<T>, submit_vt: u64, origin_domain: u32) -> usize {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::SqProducer);
        if payloads.is_empty() {
            return 0;
        }
        let wrap = |payload: T| Envelope {
            payload,
            submit_vt,
            origin_domain,
            dequeue_vt: 0,
        };
        // SAFETY: the sole SQ producer is the owning client connection
        // (debug-checked by `_claim`); as sole producer, `free` cannot
        // shrink before the push and the drain iterator is consumed in
        // full.
        let free = unsafe { self.sq.producer_free() };
        let k = payloads.len().min(free);
        // SAFETY: same sole-SQ-producer contract as above.
        let n = unsafe { self.sq.producer_push_iter(payloads.drain(..k).map(wrap)) };
        if n > 0 {
            self.ring_sq(); // one doorbell per burst (PR 3 contract)
        }
        n
    }

    /// Worker side: take the oldest submitted request. The consumer's
    /// clock idles forward to the submit time (causality) and is charged
    /// the transfer cost — cross-domain when the envelope came from
    /// another address space.
    pub fn consume(&self, ctx: &mut Ctx, consumer_domain: u32) -> Option<Envelope<T>> {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::SqConsumer);
        // SAFETY: a queue is drained by a single worker at a time —
        // orchestrator assignment plus the drain-and-handoff protocol
        // (debug-checked by `_claim`).
        let mut env = unsafe { self.sq.consumer_pop() }?;
        // Queue wait: how long the request sat before this worker's
        // timeline reached it (zero when the worker was waiting for it).
        let wait = ctx.now().saturating_sub(env.submit_vt);
        let ema = self.wait_ema_ns.get();
        self.wait_ema_ns.set(ema - ema / 8 + wait / 8);
        arrive(ctx, &mut env, consumer_domain);
        Some(env)
    }

    /// Batched [`QueuePair::consume`]: drain up to `max` requests into
    /// `out` (appended, FIFO). The ring retire and the wait-EMA store
    /// happen once per batch; each envelope's arrival — causality idling
    /// and the transfer hop — is charged per envelope, in order, so the
    /// virtual-time results are identical to N single consumes (the EMA
    /// recurrence is folded locally — bit-identical, since the consumer
    /// is the EMA's only writer). Returns the count drained.
    pub fn consume_batch(
        &self,
        ctx: &mut Ctx,
        consumer_domain: u32,
        out: &mut Vec<Envelope<T>>,
        max: usize,
    ) -> usize {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::SqConsumer);
        let start = out.len();
        // SAFETY: same single-draining-worker contract as `consume`
        // (debug-checked by `_claim`).
        let n = unsafe { self.sq.consumer_pop_batch(out, max) };
        if n == 0 {
            return 0;
        }
        let mut ema = self.wait_ema_ns.get();
        for env in out.iter_mut().skip(start) {
            let wait = ctx.now().saturating_sub(env.submit_vt);
            ema = ema - ema / 8 + wait / 8;
            arrive(ctx, env, consumer_domain);
        }
        self.wait_ema_ns.set(ema);
        n
    }

    /// Worker side: post a completion produced at `complete_vt` back
    /// toward the client.
    pub fn complete(&self, payload: T, complete_vt: u64, origin_domain: u32) -> Result<(), T> {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::CqProducer);
        let env = Envelope {
            payload,
            submit_vt: complete_vt,
            origin_domain,
            dequeue_vt: 0,
        };
        // SAFETY: completions are posted by the queue's single assigned
        // worker (debug-checked by `_claim`).
        match unsafe { self.cq.producer_push(env) } {
            Ok(()) => {
                self.ring_cq();
                Ok(())
            }
            Err(env) => Err(env.payload),
        }
    }

    /// Batched [`QueuePair::complete`]: post completions from the front of
    /// `items` — each a `(payload, complete_vt)` pair, preserving
    /// per-request production times — until the CQ fills. One doorbell
    /// per batch. Returns how many were posted; leftovers stay in `items`
    /// for the caller's bounded-backoff retry.
    pub fn complete_batch(&self, items: &mut Vec<(T, u64)>, origin_domain: u32) -> usize {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::CqProducer);
        if items.is_empty() {
            return 0;
        }
        let wrap = |(payload, complete_vt): (T, u64)| Envelope {
            payload,
            submit_vt: complete_vt,
            origin_domain,
            dequeue_vt: 0,
        };
        // SAFETY: completions are posted by the queue's single assigned
        // worker (debug-checked by `_claim`); as sole CQ producer, `free`
        // cannot shrink before the push and the drain iterator is consumed
        // in full.
        let free = unsafe { self.cq.producer_free() };
        let k = items.len().min(free);
        // SAFETY: same single-completing-worker contract as above.
        let n = unsafe { self.cq.producer_push_iter(items.drain(..k).map(wrap)) };
        if n > 0 {
            self.ring_cq(); // one doorbell per burst (PR 3 contract)
        }
        n
    }

    /// Client side: reap one completion, idling forward to its production
    /// time and paying the transfer cost when it was produced in another
    /// domain. `Client` reaps through [`QueuePair::reap_batch`] only;
    /// this single verb is left for the same callers as
    /// [`QueuePair::submit`] (ROADMAP 1g).
    pub fn reap(&self, ctx: &mut Ctx, consumer_domain: u32) -> Option<Envelope<T>> {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::CqConsumer);
        // SAFETY: completions are reaped only by the owning client
        // connection (debug-checked by `_claim`).
        let mut env = unsafe { self.cq.consumer_pop() }?;
        arrive(ctx, &mut env, consumer_domain);
        Some(env)
    }

    /// Batched [`QueuePair::reap`]: drain up to `max` completions into
    /// `out` (appended, FIFO), one doorbell per batch, virtual-time
    /// charges per envelope — identical results to N single reaps.
    /// Returns the count reaped.
    pub fn reap_batch(
        &self,
        ctx: &mut Ctx,
        consumer_domain: u32,
        out: &mut Vec<Envelope<T>>,
        max: usize,
    ) -> usize {
        #[cfg(debug_assertions)]
        let _claim = self.claim(Role::CqConsumer);
        let start = out.len();
        // SAFETY: same single-reaping-client contract as `reap`
        // (debug-checked by `_claim`).
        let n = unsafe { self.cq.consumer_pop_batch(out, max) };
        for env in out.iter_mut().skip(start) {
            arrive(ctx, env, consumer_domain);
        }
        n
    }

    /// Number of submitted-but-unconsumed requests.
    // api-ok: tests/end_to_end.rs pins the backlog a refused submit leaves
    pub fn sq_depth(&self) -> usize {
        self.sq.len()
    }

    // ---- upgrade handshake ------------------------------------------------

    /// Current upgrade flag.
    pub fn upgrade_flag(&self) -> UpgradeFlag {
        match self.upgrade.load(Ordering::Acquire) {
            1 => UpgradeFlag::UpdatePending,
            2 => UpgradeFlag::UpdateAcked,
            _ => UpgradeFlag::None,
        }
    }

    /// Module Manager: request quiescence on this queue. Rings the SQ
    /// doorbell so a parked worker wakes to acknowledge.
    pub fn mark_update_pending(&self) {
        self.upgrade
            .store(UpgradeFlag::UpdatePending as u8, Ordering::Release);
        self.ring_sq();
    }

    /// Worker: acknowledge the pending update (pauses the queue).
    /// Returns false if no update was pending.
    pub fn ack_update(&self) -> bool {
        self.upgrade
            .compare_exchange(
                UpgradeFlag::UpdatePending as u8,
                UpgradeFlag::UpdateAcked as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Module Manager: resume the queue after the upgrade completes.
    /// Rings the SQ doorbell: requests may have accumulated while the
    /// queue was paused and a parked worker must resume the drain.
    pub fn clear_update(&self) {
        self.upgrade
            .store(UpgradeFlag::None as u8, Ordering::Release);
        self.ring_sq();
    }

    // ---- orchestrator load accounting --------------------------------------

    /// Add (or with a negative value, remove) estimated processing cost.
    pub fn add_load(&self, delta_ns: i64) {
        if delta_ns >= 0 {
            self.est_load_ns.add(delta_ns as u64);
        } else {
            self.est_load_ns.saturating_sub(delta_ns.unsigned_abs());
        }
    }

    /// Estimated processing cost of currently queued requests, in ns.
    pub fn est_load_ns(&self) -> u64 {
        self.est_load_ns.get()
    }

    /// Record the estimated cost of one submitted item; keeps the
    /// maximum. The Work Orchestrator classifies queues as
    /// latency-sensitive or computational from this (paper §III-C4).
    pub fn note_item_est(&self, est_ns: u64) {
        self.max_item_ns.max(est_ns);
    }

    /// Maximum estimated single-item cost seen on this queue.
    pub fn max_item_ns(&self) -> u64 {
        self.max_item_ns.get()
    }

    /// Record the processing done for a batch of this queue's requests,
    /// `ns` per request: one counter update for the batch total; per-item
    /// histogram records (quantiles need the individual values).
    pub fn record_work_batch(&self, per_item_ns: &[u64]) {
        let total: u64 = per_item_ns.iter().sum();
        if total > 0 {
            self.work_done_ns.add(total);
        }
        for &ns in per_item_ns {
            self.item_hist.record(ns);
        }
    }

    /// Cumulative processing time spent on this queue's requests.
    pub fn work_done_ns(&self) -> u64 {
        self.work_done_ns.get()
    }

    /// Recent average queue wait in ns.
    pub fn wait_ema_ns(&self) -> u64 {
        self.wait_ema_ns.get()
    }

    /// Median measured per-item processing cost (0 until work is
    /// recorded).
    pub fn p50_item_ns(&self) -> u64 {
        self.item_hist.p50()
    }

    /// Tail (P99) measured per-item processing cost (0 until work is
    /// recorded).
    pub fn p99_item_ns(&self) -> u64 {
        self.item_hist.p99()
    }
}

/// An envelope's arrival at its consumer: the consumer's clock idles
/// forward to the envelope's production time (causality), pays the
/// transfer hop — cross-domain when the envelope came from another
/// address space — and the envelope is stamped with its dequeue time.
fn arrive<T>(ctx: &mut Ctx, env: &mut Envelope<T>, consumer_domain: u32) {
    ctx.idle_until(env.submit_vt);
    if env.origin_domain != consumer_domain {
        cost::cross_domain_hop(ctx);
    } else {
        cost::same_domain_hop(ctx);
    }
    env.dequeue_vt = ctx.now();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> QueuePair<u32> {
        QueuePair::new(1, 8, QueueFlags::default())
    }

    #[test]
    fn submit_consume_complete_reap() {
        let q = qp();
        q.submit(7, 100, 1).unwrap();
        let mut worker = Ctx::new();
        let env = q.consume(&mut worker, 0).unwrap();
        assert_eq!(env.payload, 7);
        assert_eq!(env.origin_domain, 1);
        // Worker idled to submit time then paid the cross-domain hop.
        assert_eq!(worker.now(), 100 + cost::CROSS_DOMAIN_HOP_NS);
        assert_eq!(env.dequeue_vt, worker.now());
        q.complete(env.payload + 1, worker.now(), 0).unwrap();
        let mut client = Ctx::at(50);
        let done = q.reap(&mut client, 1).unwrap();
        assert_eq!(done.payload, 8);
        assert_eq!(client.now(), worker.now() + cost::CROSS_DOMAIN_HOP_NS);
        assert_eq!(done.dequeue_vt, client.now());
    }

    #[test]
    fn same_domain_hop_is_cheap() {
        let q = qp();
        q.submit(1, 0, 0).unwrap();
        let mut ctx = Ctx::new();
        q.consume(&mut ctx, 0).unwrap();
        assert_eq!(ctx.now(), cost::SAME_DOMAIN_HOP_NS);
    }

    #[test]
    fn consumer_ahead_of_submit_does_not_rewind() {
        let q = qp();
        q.submit(1, 100, 1).unwrap();
        let mut worker = Ctx::at(500);
        q.consume(&mut worker, 0).unwrap();
        assert_eq!(worker.now(), 500 + cost::CROSS_DOMAIN_HOP_NS);
    }

    #[test]
    fn backpressure_when_full() {
        let q = QueuePair::new(1, 2, QueueFlags::default());
        q.submit(1, 0, 0).unwrap();
        q.submit(2, 0, 0).unwrap();
        assert_eq!(q.submit(3, 0, 0), Err(3));
        let mut ctx = Ctx::new();
        q.consume(&mut ctx, 0).unwrap();
        q.submit(3, 0, 0).unwrap();
    }

    #[test]
    fn sq_depth_tracks_flow() {
        let q = qp();
        q.submit(1, 0, 0).unwrap();
        q.submit(2, 0, 0).unwrap();
        assert_eq!(q.sq_depth(), 2);
        let mut ctx = Ctx::new();
        q.consume(&mut ctx, 0).unwrap();
        assert_eq!(q.sq_depth(), 1);
    }

    #[test]
    fn batch_verbs_roundtrip() {
        let q = qp();
        let mut payloads: Vec<u32> = (0..5).collect();
        assert_eq!(q.submit_batch(&mut payloads, 100, 1), 5);
        assert!(payloads.is_empty());
        assert_eq!(q.sq_depth(), 5);

        let mut worker = Ctx::new();
        let mut inbox = Vec::new();
        assert_eq!(q.consume_batch(&mut worker, 0, &mut inbox, 8), 5);
        assert_eq!(q.sq_depth(), 0);
        let order: Vec<u32> = inbox.iter().map(|e| e.payload).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        // First envelope: idle to 100 then cross-domain hop; the rest
        // pay one hop each (already past their submit time).
        assert_eq!(worker.now(), 100 + 5 * cost::CROSS_DOMAIN_HOP_NS);
        assert_eq!(inbox[0].dequeue_vt, 100 + cost::CROSS_DOMAIN_HOP_NS);
        assert_eq!(inbox[4].dequeue_vt, worker.now());

        let mut completions: Vec<(u32, u64)> = inbox
            .iter()
            .map(|e| (e.payload + 10, e.dequeue_vt))
            .collect();
        assert_eq!(q.complete_batch(&mut completions, 0), 5);
        assert!(completions.is_empty());

        let mut client = Ctx::new();
        let mut done = Vec::new();
        assert_eq!(q.reap_batch(&mut client, 1, &mut done, 8), 5);
        let order: Vec<u32> = done.iter().map(|e| e.payload).collect();
        assert_eq!(order, vec![10, 11, 12, 13, 14]);
        // Per-completion production times survive the batch.
        assert_eq!(done[0].submit_vt, 100 + cost::CROSS_DOMAIN_HOP_NS);
    }

    #[test]
    fn batch_submit_backpressure_keeps_leftovers_in_order() {
        let q = QueuePair::new(1, 4, QueueFlags::default());
        let mut payloads: Vec<u32> = (0..7).collect();
        assert_eq!(q.submit_batch(&mut payloads, 0, 0), 4);
        assert_eq!(payloads, vec![4, 5, 6]);
        let mut ctx = Ctx::new();
        let mut inbox = Vec::new();
        assert_eq!(q.consume_batch(&mut ctx, 0, &mut inbox, 2), 2);
        assert_eq!(q.submit_batch(&mut payloads, 0, 0), 2);
        assert_eq!(payloads, vec![6]);
        // FIFO across the partial batches.
        inbox.clear();
        q.consume_batch(&mut ctx, 0, &mut inbox, 16);
        let order: Vec<u32> = inbox.iter().map(|e| e.payload).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
    }

    #[test]
    fn consume_batch_max_zero_is_noop() {
        let q = qp();
        q.submit(1, 0, 0).unwrap();
        let mut ctx = Ctx::new();
        let mut out = Vec::new();
        assert_eq!(q.consume_batch(&mut ctx, 0, &mut out, 0), 0);
        assert_eq!(ctx.now(), 0);
        assert_eq!(q.sq_depth(), 1);
    }

    #[test]
    fn depth_rounds_up_to_a_power_of_two() {
        let q = QueuePair::<u32>::new(9, 5, QueueFlags::default());
        // 5 rounds to 8.
        for i in 0..8 {
            q.submit(i, 0, 0).unwrap();
        }
        assert!(q.submit(9, 0, 0).is_err());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "contract violated")]
    fn a_second_holder_of_a_role_panics() {
        let flag = AtomicBool::new(false);
        let _first = Claim::acquire(&flag, "SQ producer (submit)");
        let _second = Claim::acquire(&flag, "SQ producer (submit)");
    }

    #[test]
    fn doorbells_ring_once_per_burst() {
        let q = qp();
        let worker_bell = Arc::new(Doorbell::new());
        let client_bell = Arc::new(Doorbell::new());
        q.register_sq_bell(&worker_bell);
        q.register_cq_bell(&client_bell);
        let (sq0, cq0) = (worker_bell.epoch(), client_bell.epoch());

        // A 4-item burst rings the SQ bell exactly once.
        let mut payloads: Vec<u32> = (0..4).collect();
        assert_eq!(q.submit_batch(&mut payloads, 0, 0), 4);
        assert_eq!(worker_bell.epoch(), sq0 + 1);
        assert_eq!(client_bell.epoch(), cq0);

        // Singles ring once each.
        q.submit(9, 0, 0).unwrap();
        assert_eq!(worker_bell.epoch(), sq0 + 2);

        // Completions ring the CQ bell, once per burst.
        let mut ctx = Ctx::new();
        let mut inbox = Vec::new();
        q.consume_batch(&mut ctx, 0, &mut inbox, 8);
        let mut completions: Vec<(u32, u64)> =
            inbox.iter().map(|e| (e.payload, e.dequeue_vt)).collect();
        assert_eq!(q.complete_batch(&mut completions, 0), 5);
        assert_eq!(client_bell.epoch(), cq0 + 1);
        assert_eq!(worker_bell.epoch(), sq0 + 2);

        // Upgrade edges ring the SQ bell so a parked worker reacts.
        q.mark_update_pending();
        assert_eq!(worker_bell.epoch(), sq0 + 3);
        q.clear_update();
        assert_eq!(worker_bell.epoch(), sq0 + 4);
    }

    #[test]
    fn failed_submit_does_not_ring() {
        let q = QueuePair::new(1, 2, QueueFlags::default());
        let bell = Arc::new(Doorbell::new());
        q.register_sq_bell(&bell);
        q.submit(1, 0, 0).unwrap();
        q.submit(2, 0, 0).unwrap();
        let e = bell.epoch();
        assert_eq!(q.submit(3, 0, 0), Err(3));
        assert_eq!(bell.epoch(), e, "a rejected submit must not ring");
    }

    #[test]
    fn upgrade_handshake() {
        let q = qp();
        assert_eq!(q.upgrade_flag(), UpgradeFlag::None);
        assert!(!q.ack_update()); // nothing pending
        q.mark_update_pending();
        assert_eq!(q.upgrade_flag(), UpgradeFlag::UpdatePending);
        assert!(q.ack_update());
        assert_eq!(q.upgrade_flag(), UpgradeFlag::UpdateAcked);
        q.clear_update();
        assert_eq!(q.upgrade_flag(), UpgradeFlag::None);
    }

    #[test]
    fn max_item_est_keeps_maximum() {
        let q = qp();
        q.note_item_est(500);
        q.note_item_est(200);
        q.note_item_est(900);
        assert_eq!(q.max_item_ns(), 900);
    }

    #[test]
    fn load_accounting_saturates_at_zero() {
        let q = qp();
        q.add_load(1000);
        q.add_load(-250);
        assert_eq!(q.est_load_ns(), 750);
        q.add_load(-10_000);
        assert_eq!(q.est_load_ns(), 0);
    }

    #[test]
    fn record_work_feeds_item_quantiles() {
        let q = qp();
        assert_eq!((q.p50_item_ns(), q.p99_item_ns()), (0, 0));
        q.record_work_batch(&[1_000; 9]);
        q.record_work_batch(&[1_000_000]);
        let p50 = q.p50_item_ns();
        assert!((1_000..1_100).contains(&p50), "p50 {p50}");
        assert!(q.p99_item_ns() >= 1_000_000);
        assert_eq!(q.work_done_ns(), 9_000 + 1_000_000);
    }

    #[test]
    fn fifo_order_preserved() {
        let q = QueuePair::new(1, 64, QueueFlags::default());
        for i in 0..10 {
            q.submit(i, 0, 0).unwrap();
        }
        let mut ctx = Ctx::new();
        for i in 0..10 {
            assert_eq!(q.consume(&mut ctx, 0).unwrap().payload, i);
        }
    }
}
