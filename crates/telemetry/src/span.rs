//! The span flight recorder: fixed-capacity, lock-free per-thread rings
//! of virtual-time spans.
//!
//! ## Design
//!
//! Each recording thread owns one [`SpanRing`] per [`FlightRecorder`]
//! (auto-registered through a thread-local on first record), so the hot
//! path is strictly single-writer: a push is a handful of atomic stores
//! with no CAS loop and no lock. Readers ([`SpanRing::snapshot`]) validate
//! each slot with a per-slot sequence counter that encodes the wrap count,
//! so a reader can always tell a stable slot from one being overwritten —
//! the classic seqlock, built from plain `AtomicU64`s (no `unsafe`).
//!
//! The ring overwrites oldest-first once full: the recorder is a *flight
//! recorder*, keeping the most recent `capacity` spans per thread and
//! counting what it dropped.
//!
//! ## Cost contract
//!
//! With the recorder disabled (the default), the entire record path is one
//! relaxed `AtomicBool` load and a branch — measured by the
//! `span_recorder` group in `crates/bench/benches/primitives.rs`.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::Stat;

/// Which leg of a request's journey a span covers. Spans of one request
/// tile its end-to-end latency exactly: `HopReq` + the entry `Vertex`
/// (which nests `Hop`/`Vertex`/`Device` children) + `HopResp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client-side submission instant (zero duration, trace marker).
    Submit = 0,
    /// Submission-queue crossing: submit time → worker dequeue (includes
    /// queue wait and the domain hop).
    HopReq = 1,
    /// Inter-stage hand-off inside the DAG (`same_domain_hop`).
    Hop = 2,
    /// One LabStack vertex's `process`, inclusive of its downstream.
    Vertex = 3,
    /// A device service window observed by a driver LabMod.
    Device = 4,
    /// Completion-queue crossing: completion post → client reap.
    HopResp = 5,
}

impl Stage {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::HopReq => "hop-req",
            Stage::Hop => "hop",
            Stage::Vertex => "vertex",
            Stage::Device => "device",
            Stage::HopResp => "hop-resp",
        }
    }

    fn from_u8(v: u8) -> Stage {
        match v {
            1 => Stage::HopReq,
            2 => Stage::Hop,
            3 => Stage::Vertex,
            4 => Stage::Device,
            5 => Stage::HopResp,
            _ => Stage::Submit,
        }
    }
}

/// One recorded span, stamped in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request id the span belongs to.
    pub req_id: u64,
    /// Which leg of the journey.
    pub stage: Stage,
    /// LabStack id (truncated to 24 bits in the ring).
    pub stack: u32,
    /// DAG vertex index (for `Vertex`/`Hop`/`Device` stages).
    pub vertex: u16,
    /// Ring (thread) that recorded the span — the worker id in practice.
    pub ring: u16,
    /// Span start, virtual ns.
    pub t_start_vns: u64,
    /// Span end, virtual ns.
    pub t_end_vns: u64,
}

impl SpanEvent {
    /// Span duration in virtual ns.
    pub fn dur_vns(&self) -> u64 {
        self.t_end_vns.saturating_sub(self.t_start_vns)
    }

    fn meta(&self) -> u64 {
        ((self.stage as u64) << 56)
            | ((self.vertex as u64) << 40)
            | ((self.ring as u64) << 24)
            | (u64::from(self.stack) & 0x00FF_FFFF)
    }

    fn from_parts(req_id: u64, meta: u64, t_start: u64, t_end: u64) -> SpanEvent {
        SpanEvent {
            req_id,
            stage: Stage::from_u8((meta >> 56) as u8),
            stack: ((meta & 0x00FF_FFFF) as u32),
            vertex: ((meta >> 40) & 0xFFFF) as u16,
            ring: ((meta >> 24) & 0xFFFF) as u16,
            t_start_vns: t_start,
            t_end_vns: t_end,
        }
    }
}

/// One ring slot: a seqlock (seq odd = write in progress) over four data
/// words. The final seq value for the `w`-th overwrite of a slot is
/// `2 * (w + 1)`, which lets a snapshot detect being lapped.
struct Slot {
    seq: AtomicU64,
    req_id: AtomicU64,
    meta: AtomicU64,
    t_start: AtomicU64,
    t_end: AtomicU64,
}

/// Fixed-capacity single-writer span ring with overwrite-oldest
/// semantics. `push` is the single-writer hot path; `snapshot` may run
/// from any thread.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total spans ever pushed (the next push's global index).
    head: AtomicU64,
    mask: u64,
    cap_bits: u32,
    ring_id: u16,
}

impl SpanRing {
    /// Ring with at least `capacity` slots (rounded up to a power of two).
    pub fn new(capacity: usize, ring_id: u16) -> SpanRing {
        let cap = capacity.max(2).next_power_of_two();
        SpanRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    req_id: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    t_start: AtomicU64::new(0),
                    t_end: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            cap_bits: cap.trailing_zeros(),
            ring_id,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// This ring's id (stamped into events it records).
    pub fn ring_id(&self) -> u16 {
        self.ring_id
    }

    /// Append one span, overwriting the oldest once full. Must only be
    /// called by the ring's owning thread (single writer).
    pub fn push(&self, ev: &SpanEvent) {
        let n = self.head.load(Ordering::Relaxed); // relaxed-ok: single-writer counter; publication is via the slot seq below
        let slot = &self.slots[(n & self.mask) as usize]; // panic-ok: index is masked to capacity
        let wrap = n >> self.cap_bits;
        // Seqlock write: mark the slot busy (odd), fence so the mark is
        // visible before any field store, write the fields, then publish
        // with the even seq (Release orders the field stores before it).
        slot.seq.store(2 * wrap + 1, Ordering::Relaxed); // relaxed-ok: the Release fence below orders this before the field stores
        fence(Ordering::Release);
        slot.req_id.store(ev.req_id, Ordering::Relaxed); // relaxed-ok: seqlock field; the seq counter carries the ordering
        slot.meta.store(ev.meta(), Ordering::Relaxed); // relaxed-ok: seqlock field; the seq counter carries the ordering
        slot.t_start.store(ev.t_start_vns, Ordering::Relaxed); // relaxed-ok: seqlock field; the seq counter carries the ordering
        slot.t_end.store(ev.t_end_vns, Ordering::Relaxed); // relaxed-ok: seqlock field; the seq counter carries the ordering
        slot.seq.store(2 * wrap + 2, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Total spans ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Spans lost to overwrite so far (oldest-dropped-first).
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.slots.len() as u64)
    }

    /// The last `min(pushed, capacity)` spans, oldest first. Slots being
    /// concurrently overwritten (the writer lapped the reader) are
    /// skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for n in start..head {
            let slot = &self.slots[(n & self.mask) as usize]; // panic-ok: index is masked to capacity
            let expect = 2 * (n >> self.cap_bits) + 2;
            // Seqlock read: seq, fields, fence, seq again — accept only a
            // stable slot still holding push `n`.
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != expect {
                continue; // torn or lapped; the span is gone
            }
            let req_id = slot.req_id.load(Ordering::Relaxed); // relaxed-ok: seqlock field; validated by the seq re-read below
            let meta = slot.meta.load(Ordering::Relaxed); // relaxed-ok: seqlock field; validated by the seq re-read below
            let t_start = slot.t_start.load(Ordering::Relaxed); // relaxed-ok: seqlock field; validated by the seq re-read below
            let t_end = slot.t_end.load(Ordering::Relaxed); // relaxed-ok: seqlock field; validated by the seq re-read below
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed); // relaxed-ok: the Acquire fence orders the field loads before this re-read
            if s2 != s1 {
                continue;
            }
            out.push(SpanEvent::from_parts(req_id, meta, t_start, t_end));
        }
        out
    }
}

/// Default per-thread ring capacity (spans). ~160 KB per ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Recorder ids are global so one thread can record into several
/// recorders (e.g. two Runtimes in one test process) without cross-talk.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's rings, one per recorder it has recorded into.
    static TLS_RINGS: RefCell<Vec<(u64, Arc<SpanRing>)>> = const { RefCell::new(Vec::new()) };
}

/// The span flight recorder: a set of per-thread [`SpanRing`]s plus the
/// master enable switch. Owned by the Runtime's `ModuleManager`, so every
/// component that can reach the module registry can record — and separate
/// Runtimes (separate tests) never share spans.
pub struct FlightRecorder {
    id: u64,
    enabled: AtomicBool,
    ring_capacity: AtomicU64,
    rings: Mutex<Vec<Arc<SpanRing>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl FlightRecorder {
    /// New recorder, **disabled**, with the given per-thread ring
    /// capacity.
    pub fn new(ring_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed), // relaxed-ok: fresh-id allocation; atomicity alone suffices
            enabled: AtomicBool::new(false),
            ring_capacity: AtomicU64::new(ring_capacity.max(2) as u64),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded. This is the *entire* disabled
    /// cost: one relaxed load and a branch at each call site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // relaxed-ok: monitoring toggle; a lagging reader only delays span capture
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-captured spans stay readable).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Set the capacity used for rings created *after* this call (rings
    /// already registered keep their size). Call before `enable` when a
    /// run needs more than [`DEFAULT_RING_CAPACITY`] spans per thread.
    pub fn set_ring_capacity(&self, capacity: usize) {
        self.ring_capacity
            .store(capacity.max(2) as u64, Ordering::Release);
    }

    /// Record one span on the calling thread's ring (created and
    /// registered on first use). No-op while disabled.
    #[inline]
    pub fn record(&self, stage: Stage, req_id: u64, stack: u64, vertex: usize, t0: u64, t1: u64) {
        if !self.enabled() {
            return;
        }
        self.record_slow(stage, req_id, stack, vertex, t0, t1);
    }

    #[cold]
    fn record_slow(&self, stage: Stage, req_id: u64, stack: u64, vertex: usize, t0: u64, t1: u64) {
        self.with_thread_ring(|ring| {
            ring.push(&SpanEvent {
                req_id,
                stage,
                stack: (stack & 0x00FF_FFFF) as u32,
                vertex: (vertex & 0xFFFF) as u16,
                ring: ring.ring_id(),
                t_start_vns: t0,
                t_end_vns: t1,
            });
        });
    }

    /// Record a whole batch of spans on the calling thread's ring: one
    /// enabled check and one thread-local ring lookup for the batch, one
    /// seqlock push per span. The batched IPC hot path stamps its `HopReq`
    /// spans through this. Each event's `ring` field is overwritten with
    /// the calling thread's ring id and `stack` is truncated to 24 bits,
    /// exactly as [`FlightRecorder::record`] does. No-op while disabled.
    #[inline]
    pub fn record_batch<I>(&self, spans: I)
    where
        I: IntoIterator<Item = SpanEvent>,
    {
        if !self.enabled() {
            return;
        }
        self.record_batch_slow(spans.into_iter());
    }

    #[cold]
    fn record_batch_slow(&self, spans: impl Iterator<Item = SpanEvent>) {
        self.with_thread_ring(|ring| {
            for ev in spans {
                ring.push(&SpanEvent {
                    stack: ev.stack & 0x00FF_FFFF,
                    ring: ring.ring_id(),
                    ..ev
                });
            }
        });
    }

    /// Run `f` with the calling thread's ring for this recorder, creating
    /// and registering it on first use.
    fn with_thread_ring<R>(&self, f: impl FnOnce(&SpanRing) -> R) -> R {
        TLS_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            let ring = match rings.iter().find(|(id, _)| *id == self.id) {
                Some((_, r)) => r.clone(),
                None => {
                    let cap = self.ring_capacity.load(Ordering::Acquire) as usize;
                    let mut registry = self.rings.lock().unwrap_or_else(|e| e.into_inner());
                    let r = Arc::new(SpanRing::new(cap, registry.len() as u16));
                    registry.push(r.clone());
                    drop(registry);
                    rings.push((self.id, r.clone()));
                    r
                }
            };
            f(&ring)
        })
    }

    /// All captured spans across every thread's ring, sorted by start
    /// time (ties: longer span first, so parents precede their children).
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let rings: Vec<Arc<SpanRing>> =
            self.rings.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut out: Vec<SpanEvent> = rings.iter().flat_map(|r| r.snapshot()).collect();
        out.sort_by_key(|e| (e.t_start_vns, std::cmp::Reverse(e.t_end_vns), e.stage as u8));
        out
    }

    /// Total spans lost to ring overwrite across all threads.
    pub fn dropped(&self) -> u64 {
        self.rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|r| r.dropped())
            .sum()
    }

    /// Number of per-thread rings registered so far.
    pub fn rings(&self) -> usize {
        self.rings.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// A worker's published virtual-clock snapshot: the single publication
/// path for worker-visible time (`now`, `busy`). Replaces the pair of
/// ad-hoc atomics the worker loop used to store into.
#[derive(Debug, Default)]
pub struct ClockCell {
    now_ns: Stat,
    busy_ns: Stat,
}

impl ClockCell {
    /// Zeroed clock.
    pub fn new() -> ClockCell {
        ClockCell::default()
    }

    /// Publish the owning worker's `(now, busy)` snapshot. Single writer;
    /// readers tolerate staleness (it is a metric, not a fence).
    pub fn publish(&self, now_ns: u64, busy_ns: u64) {
        self.now_ns.set(now_ns);
        self.busy_ns.set(busy_ns);
    }

    /// Last published virtual now.
    pub fn now(&self) -> u64 {
        self.now_ns.get()
    }

    /// Last published virtual busy time.
    pub fn busy(&self) -> u64 {
        self.busy_ns.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> SpanEvent {
        SpanEvent {
            req_id: i,
            stage: Stage::Vertex,
            stack: 3,
            vertex: (i % 5) as u16,
            ring: 0,
            t_start_vns: i * 10,
            t_end_vns: i * 10 + 7,
        }
    }

    #[test]
    fn ring_keeps_everything_up_to_capacity() {
        let r = SpanRing::new(8, 0);
        for i in 0..8 {
            r.push(&ev(i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(r.dropped(), 0);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.req_id, i as u64);
            assert_eq!(e.stage, Stage::Vertex);
            assert_eq!(e.stack, 3);
        }
    }

    #[test]
    fn ring_drops_oldest_first() {
        let r = SpanRing::new(4, 1);
        for i in 0..11 {
            r.push(&ev(i));
        }
        let snap = r.snapshot();
        assert_eq!(r.dropped(), 7);
        let ids: Vec<u64> = snap.iter().map(|e| e.req_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
    }

    #[test]
    fn meta_roundtrip_preserves_fields() {
        let e = SpanEvent {
            req_id: u64::MAX,
            stage: Stage::HopResp,
            stack: 0x00AB_CDEF,
            vertex: 65_535,
            ring: 1_234,
            t_start_vns: 5,
            t_end_vns: 6,
        };
        let back = SpanEvent::from_parts(e.req_id, e.meta(), e.t_start_vns, e.t_end_vns);
        assert_eq!(back, e);
    }

    #[test]
    fn recorder_disabled_records_nothing() {
        let rec = FlightRecorder::new(64);
        rec.record(Stage::Vertex, 1, 1, 0, 0, 10);
        assert_eq!(rec.snapshot().len(), 0);
        assert_eq!(rec.rings(), 0);
    }

    #[test]
    fn recorder_enable_disable_cycle() {
        let rec = FlightRecorder::new(64);
        rec.enable();
        rec.record(Stage::Vertex, 1, 1, 0, 0, 10);
        rec.disable();
        rec.record(Stage::Vertex, 2, 1, 0, 20, 30);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].req_id, 1);
    }

    #[test]
    fn recorders_do_not_share_rings() {
        let a = FlightRecorder::new(64);
        let b = FlightRecorder::new(64);
        a.enable();
        b.enable();
        a.record(Stage::Vertex, 1, 1, 0, 0, 1);
        b.record(Stage::Device, 2, 1, 0, 0, 1);
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
        assert_eq!(a.snapshot()[0].req_id, 1);
        assert_eq!(b.snapshot()[0].req_id, 2);
    }

    #[test]
    fn record_batch_matches_singles_and_stamps_ring() {
        let rec = FlightRecorder::new(64);
        rec.enable();
        rec.record_batch((0..5u64).map(|i| SpanEvent {
            req_id: i,
            stage: Stage::HopReq,
            stack: 0xFFFF_FFFF, // must be truncated to 24 bits
            vertex: 2,
            ring: 999, // must be overwritten with the real ring id
            t_start_vns: 10 * i,
            t_end_vns: 10 * i + 3,
        }));
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.req_id, i as u64);
            assert_eq!(e.stack, 0x00FF_FFFF);
            assert_eq!(e.ring, 0);
            assert_eq!(e.stage, Stage::HopReq);
        }
        assert_eq!(rec.rings(), 1);
    }

    #[test]
    fn record_batch_disabled_is_noop() {
        let rec = FlightRecorder::new(64);
        rec.record_batch(std::iter::once(ev(1)));
        assert_eq!(rec.snapshot().len(), 0);
        assert_eq!(rec.rings(), 0);
    }

    #[test]
    fn snapshot_merges_threads_sorted() {
        let rec = Arc::new(FlightRecorder::new(256));
        rec.enable();
        let r2 = rec.clone();
        let t = std::thread::spawn(move || {
            for i in 0..50u64 {
                r2.record(Stage::Vertex, i, 1, 0, 2 * i, 2 * i + 1);
            }
        });
        for i in 0..50u64 {
            rec.record(Stage::Hop, 100 + i, 1, 0, 2 * i + 1, 2 * i + 2);
        }
        t.join().expect("recorder thread");
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 100);
        assert!(snap
            .windows(2)
            .all(|w| w[0].t_start_vns <= w[1].t_start_vns));
        assert_eq!(rec.rings(), 2);
    }

    #[test]
    fn clock_cell_publishes() {
        let c = ClockCell::new();
        c.publish(100, 40);
        assert_eq!((c.now(), c.busy()), (100, 40));
        c.publish(200, 90);
        assert_eq!((c.now(), c.busy()), (200, 90));
    }
}
