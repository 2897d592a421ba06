//! Reference-counted shared-memory buffer pool: the zero-copy data plane.
//!
//! The control plane (queue pairs, PR 3) moves *envelopes*; payload bytes
//! still rode inside `Vec<u8>`s that were copied at every boundary. The
//! paper's shared-memory IPC maps data buffers once and passes references
//! ("Fast & Flexible IO" makes the same argument): a request carries a
//! `(region, offset, len)` triple and the bytes never move.
//!
//! [`BufferPool`] is a size-classed slab allocator over pool-owned buffer
//! slots (the per-buffer-slot flavor of a ShMemMod region: each slot is a
//! fixed mapping, so accesses need no region-wide lock at all). Free slots
//! per class live on a lock-free Treiber stack whose head packs a 32-bit
//! ABA tag next to the slot index. [`BufHandle`] is the `(region, offset,
//! len)` view: `Clone` is a refcount bump, `Drop` returns the slot to the
//! free list when the last handle dies. A class hands out at most its
//! budget — its configured count plus the [`Reservation`]s held on it —
//! and creates slots only as the budget is used.
//!
//! Ownership rules (DESIGN.md §10):
//! * whoever calls [`BufferPool::alloc`] owns a unique handle and may fill
//!   it in place ([`BufHandle::fill`] / [`BufHandle::write_with`]);
//! * cloning (or [`BufHandle::slice`], or growing one view over an
//!   adjacent one in place with [`BufHandle::extend_with`]) shares the
//!   bytes read-only — all mutation is gated on `refs == 1` *and*
//!   `&mut self`, so a shared buffer can never be written;
//! * the last `Drop` frees; freeing is idempotence-checked by the debug
//!   tracker (a slot may return to the free list exactly once);
//! * every slot carries an owner tag, the domain whose bytes it holds:
//!   [`BufferPool::alloc_for`] zeroes the whole slot only when the tag
//!   names another domain (or none); every other allocation clears it,
//!   and so does a write through any handle but the one an allocation
//!   returned (a clone may have been handed to another domain) — the
//!   pool's stand-in for ShMemMod mapping a region only into the
//!   processes granted it.
//!
//! A global copy counter ([`note_payload_copy`]) instruments every place
//! the stack still memcpy-s payload bytes; the zero-copy e2e test asserts
//! the counter stays flat across a LabFS write→read round trip.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use labstor_telemetry::Stat;

/// Count of intermediate payload copies performed by the stack (test hook).
static PAYLOAD_COPIES: Stat = Stat::new(0);
/// Total bytes those copies moved.
static PAYLOAD_COPY_BYTES: Stat = Stat::new(0);

#[cfg(test)]
thread_local! {
    /// This thread's share of [`PAYLOAD_COPIES`].
    static THREAD_PAYLOAD_COPIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Copies recorded by the calling thread: what a unit test compares
/// exactly, since the tests running beside it bump [`payload_copies`] too.
#[cfg(test)]
pub(crate) fn thread_payload_copies() -> u64 {
    THREAD_PAYLOAD_COPIES.get()
}

/// Record one intermediate payload copy of `bytes` bytes. Every site in
/// the stack that memcpy-s payload data (legacy `Vec` paths, partial-page
/// read-modify-write, copy-on-write) calls this so tests can prove the
/// zero-copy path really is copy-free.
pub fn note_payload_copy(bytes: usize) {
    #[cfg(test)]
    THREAD_PAYLOAD_COPIES.set(THREAD_PAYLOAD_COPIES.get() + 1);
    PAYLOAD_COPIES.add(1);
    PAYLOAD_COPY_BYTES.add(bytes as u64);
}

/// Number of payload copies recorded since process start (test hook).
pub fn payload_copies() -> u64 {
    PAYLOAD_COPIES.get()
}

/// Total payload bytes copied since process start (test hook).
pub fn payload_copy_bytes() -> u64 {
    PAYLOAD_COPY_BYTES.get()
}

/// The process-wide default pool: what clients fill request payloads from
/// and driver mods allocate read targets from when no dedicated pool is
/// plumbed. (Shared memory is process-wide in this reproduction — thread
/// domains stand in for address spaces — so one default arena serves every
/// domain; the grant discipline lives in [`crate::shmem`].) Exhaustion is
/// graceful: `alloc` returns `None`; a read that finds no slot is
/// refused, a write falls back to the copying path.
pub fn default_pool() -> &'static BufferPool {
    static POOL: std::sync::OnceLock<BufferPool> = std::sync::OnceLock::new();
    POOL.get_or_init(BufferPool::with_defaults)
}

/// One pool slot: fixed-size byte backing plus refcount, free-list link
/// and owner tag.
struct Slot {
    /// The mapped bytes. Mutated only through a unique handle (refs == 1,
    /// `&mut BufHandle`); read through shared handles.
    data: UnsafeCell<Box<[u8]>>,
    /// Live-handle count; 0 while the slot sits on the free list.
    refs: AtomicU32,
    /// Encoded index (idx + 1; 0 = end) of the next free slot.
    next: AtomicU32,
    /// The domain whose bytes the slot holds, as `domain + 1`, or
    /// [`NO_OWNER`]. Read and written only by the thread that popped the
    /// slot or through a unique handle, like the bytes it describes.
    owner: AtomicU64,
}

/// Owner tag of a slot whose bytes no domain-scoped allocation may trust
/// (written by the Runtime, a test, or anyone else who called `alloc`).
const NO_OWNER: u64 = 0;

impl Slot {
    fn new() -> Self {
        Slot {
            // Backing bytes are allocated on the slot's first allocation.
            data: UnsafeCell::new(Box::default()),
            refs: AtomicU32::new(0),
            next: AtomicU32::new(0),
            owner: AtomicU64::new(NO_OWNER),
        }
    }
}

/// Slots in a class's first storage bucket, as a power of two; bucket `b`
/// holds `1 << (FIRST_BUCKET_SHIFT + b)`.
const FIRST_BUCKET_SHIFT: u32 = 6;
/// Storage buckets per class: enough for [`MAX_SLOTS`].
const BUCKETS: usize = 25;
/// Most slots one class can index (a free-list link is `idx + 1` in 32
/// bits).
const MAX_SLOTS: usize = ((1 << BUCKETS) - 1) << FIRST_BUCKET_SHIFT;

/// One size class: equally sized slots and two lock-free stacks of them.
/// A stack head packs `tag << 32 | (idx + 1)` — the tag increments on
/// every successful push/pop so a stalled CAS cannot ABA onto a recycled
/// head.
///
/// The class hands out at most its *budget* of slots: its base count plus
/// whatever [`Reservation`]s hold. Slots come into being on first need
/// (the free list is empty and the budget has headroom), in buckets of
/// doubling size that never move, so a live slot stays where its handles
/// point while the class grows. A budget that falls retires slots — free
/// ones at once, live ones when their last handle drops — onto the spare
/// stack, their bytes released, for the next growth to take back.
struct Class {
    buf_size: usize,
    /// Budget with no reservation held.
    base: usize,
    /// Slots reserved above `base`.
    reserved: Stat,
    /// Budget minus slots in circulation (free or live): what the class
    /// may still bring in; negative while it owes retirements.
    headroom: AtomicI64,
    /// Slots created so far: the next fresh index.
    created: AtomicU32,
    buckets: [OnceLock<Box<[Slot]>>; BUCKETS],
    /// Slots ready to hand out.
    free_head: AtomicU64,
    /// Retired slots, out of circulation.
    spare_head: AtomicU64,
}

// SAFETY: `Slot.data` is an UnsafeCell, but all mutable access — to the
// bytes and the owner tag — is gated on `refs == 1` through
// `&mut BufHandle` (see `BufHandle::as_mut_slice`), and slots off the
// handle side (refs == 0) are only touched by the thread that popped them
// or dropped their last handle; the stack CAS pairs (Release push /
// Acquire pop) publish slot contents across threads.
unsafe impl Sync for Class {}
// SAFETY: same argument as Sync; Box<[u8]> is Send.
unsafe impl Send for Class {}

const LOW_MASK: u64 = 0xffff_ffff;

impl Class {
    fn new(buf_size: usize, count: usize) -> Self {
        assert!(count <= MAX_SLOTS, "class too large");
        Class {
            buf_size,
            base: count,
            reserved: Stat::new(0),
            headroom: AtomicI64::new(count as i64),
            created: AtomicU32::new(0),
            buckets: std::array::from_fn(|_| OnceLock::new()),
            free_head: AtomicU64::new(0),
            spare_head: AtomicU64::new(0),
        }
    }

    /// Bucket and position of slot `idx`.
    fn locate(idx: u32) -> (usize, usize) {
        let j = idx as usize + (1 << FIRST_BUCKET_SHIFT);
        let b = (usize::BITS - 1 - j.leading_zeros() - FIRST_BUCKET_SHIFT) as usize;
        (b, j - (1 << (FIRST_BUCKET_SHIFT as usize + b)))
    }

    /// Slot `idx`, which has been created.
    fn slot(&self, idx: u32) -> &Slot {
        let (b, at) = Self::locate(idx);
        &self.buckets[b].get().expect("slot was created")[at]
    }

    /// Slots the class may have in circulation: base plus reservations.
    fn budget(&self) -> usize {
        self.base + self.reserved.get() as usize
    }

    /// Pop a slot off the stack at `head`, or None if it is empty.
    fn pop(&self, head: &AtomicU64) -> Option<(u32, &Slot)> {
        let mut top = head.load(Ordering::Acquire);
        loop {
            let low = (top & LOW_MASK) as u32;
            if low == 0 {
                return None;
            }
            let idx = low - 1;
            let slot = self.slot(idx);
            // relaxed-ok: the value is validated by the tagged CAS below; a stale read only causes a retry or is caught by the ABA tag
            let next = slot.next.load(Ordering::Relaxed);
            let tag = ((top >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(next);
            match head.compare_exchange_weak(top, new, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => return Some((idx, slot)),
                Err(h) => top = h,
            }
        }
    }

    /// Push slot `idx` onto the stack at `head`.
    fn push(&self, head: &AtomicU64, idx: u32, slot: &Slot) {
        let mut top = head.load(Ordering::Acquire);
        loop {
            // relaxed-ok: the link is published by the Release CAS on the head below
            slot.next.store((top & LOW_MASK) as u32, Ordering::Relaxed);
            let tag = ((top >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(idx + 1);
            match head.compare_exchange_weak(top, new, Ordering::Release, Ordering::Acquire) {
                Ok(_) => return,
                Err(h) => top = h,
            }
        }
    }

    /// A free slot: off the free list, or — the cold path, when it is
    /// empty — brought into circulation while the budget has headroom,
    /// from the spare stack or freshly created.
    fn take(&self) -> Option<(u32, &Slot)> {
        self.pop(&self.free_head).or_else(|| self.admit())
    }

    fn admit(&self) -> Option<(u32, &Slot)> {
        let mut room = self.headroom.load(Ordering::Acquire);
        loop {
            if room <= 0 {
                return None;
            }
            match self.headroom.compare_exchange_weak(
                room,
                room - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(r) => room = r,
            }
        }
        if let Some(spare) = self.pop(&self.spare_head) {
            return Some(spare);
        }
        // Circulation never exceeds the largest budget, which `reserve`
        // keeps within MAX_SLOTS.
        let idx = self.created.fetch_add(1, Ordering::AcqRel);
        let (b, at) = Self::locate(idx);
        let len = 1 << (FIRST_BUCKET_SHIFT as usize + b);
        let bucket = self.buckets[b].get_or_init(|| (0..len).map(|_| Slot::new()).collect());
        Some((idx, &bucket[at]))
    }

    /// Return slot `idx`, whose last handle dropped: to the free list, or
    /// to the spare stack while the class owes retirements.
    fn release(&self, idx: u32, slot: &Slot) {
        if self.headroom.load(Ordering::Acquire) < 0 {
            self.retire(idx, slot);
        } else {
            self.push(&self.free_head, idx, slot);
        }
    }

    /// Take slot `idx` out of circulation and release its bytes. The
    /// caller holds the slot exclusively: popped, or its last handle
    /// dropped.
    fn retire(&self, idx: u32, slot: &Slot) {
        // SAFETY: refs == 0 and the slot is on no stack, so no handle and
        // no other thread can reach its bytes until the push below
        // publishes it.
        unsafe { *slot.data.get() = Box::default() };
        self.push(&self.spare_head, idx, slot);
        self.headroom.fetch_add(1, Ordering::AcqRel);
    }

    fn grow(&self, slots: usize) {
        self.reserved.add(slots as u64);
        self.headroom.fetch_add(slots as i64, Ordering::AcqRel);
    }

    /// Lower the budget by `slots`, retiring free slots for what is now
    /// over it; live ones retire as they are freed.
    fn shrink(&self, slots: usize) {
        self.reserved.sub(slots as u64);
        self.headroom.fetch_sub(slots as i64, Ordering::AcqRel);
        while self.headroom.load(Ordering::Acquire) < 0 {
            let Some((idx, slot)) = self.pop(&self.free_head) else {
                break;
            };
            self.retire(idx, slot);
        }
    }

    /// Slots the class can hand out before one is freed: the free list
    /// (an O(n) walk, for a quiescent class) plus the headroom.
    #[cfg(test)]
    fn free_count(&self) -> usize {
        let mut free = 0;
        let mut link = (self.free_head.load(Ordering::Acquire) & LOW_MASK) as u32;
        while link != 0 {
            free += 1;
            link = self.slot(link - 1).next.load(Ordering::Acquire);
        }
        free + self.headroom.load(Ordering::Acquire).max(0) as usize
    }
}

/// Pool configuration: `(buffer size, slot count)` per size class.
/// Classes must be sorted ascending by buffer size.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// `(buf_size_bytes, slot_count)` pairs, ascending by size.
    pub classes: Vec<(usize, usize)>,
}

impl Default for PoolConfig {
    /// Default ladder: 4 KiB ×512, 16 KiB ×128, 64 KiB ×64, 256 KiB ×16
    /// (≈12 MiB of slab). Covers a page, a small record burst, the 64 KiB
    /// bench payload, and a large streaming buffer.
    fn default() -> Self {
        PoolConfig {
            classes: vec![(4096, 512), (16384, 128), (65536, 64), (262144, 16)],
        }
    }
}

struct PoolInner {
    classes: Box<[Class]>,
    /// Allocations currently live (slots out of the free lists).
    live: Stat,
    /// Maximum of `live` ever observed.
    high_water: Stat,
    /// Bytes zero-filled handing slots out: fresh backing, and slots that
    /// changed domain.
    zeroed: Stat,
    /// Debug leak/aliasing tracker: the set of (class, slot) pairs that are
    /// currently allocated. Alloc asserts the pair was absent (no aliasing
    /// of two allocations onto one slot); free asserts it was present
    /// (free-exactly-once).
    #[cfg(debug_assertions)]
    tracker: crate::lockwitness::OrderedMutex<std::collections::HashSet<(u16, u32)>>,
}

/// A size-classed, refcounted shared-memory buffer pool. Cheap to clone
/// (all clones share the slabs).
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Build a pool from an explicit size-class ladder.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(!cfg.classes.is_empty(), "pool needs at least one class");
        let mut prev = 0usize;
        for &(size, _) in &cfg.classes {
            assert!(size > prev, "classes must be ascending by buffer size");
            assert!(
                size <= u32::MAX as usize,
                "a handle indexes its slot in 32 bits"
            );
            prev = size;
        }
        let classes: Box<[Class]> = cfg
            .classes
            .iter()
            .map(|&(size, count)| Class::new(size, count))
            .collect();
        assert!(classes.len() <= u16::MAX as usize);
        BufferPool {
            inner: Arc::new(PoolInner {
                classes,
                live: Stat::new(0),
                high_water: Stat::new(0),
                zeroed: Stat::new(0),
                #[cfg(debug_assertions)]
                tracker: crate::lockwitness::OrderedMutex::new(
                    &crate::lockwitness::POOL_TRACKER,
                    std::collections::HashSet::new(),
                ),
            }),
        }
    }

    /// Build a pool with the default size-class ladder.
    pub fn with_defaults() -> Self {
        BufferPool::new(PoolConfig::default())
    }

    /// Allocate a unique handle of `len` bytes from the smallest class
    /// that fits, falling over to larger classes when one is exhausted.
    /// Returns `None` when `len` exceeds the largest class or the pool is
    /// dry. Contents are unspecified (a recycled slot keeps its old
    /// bytes): fill or zero before exposing the buffer. Clears the slot's
    /// owner tag, since whatever the caller writes (a DMA target's device
    /// bytes, say) belongs to no domain.
    pub fn alloc(&self, len: usize) -> Option<BufHandle> {
        self.alloc_tagged(0..self.inner.classes.len(), len, NO_OWNER)
    }

    /// Allocate like [`BufferPool::alloc`], on behalf of `domain`: the
    /// bytes are zeroed, or hold only what `domain` wrote into the slot
    /// before (malloc within a process, calloc across processes). A slot
    /// last tagged with another domain, or with none, is zeroed whole —
    /// not just its first `len` bytes, which a later, longer allocation
    /// from the same slot would read past — and tagged with `domain`. The
    /// tag holds while only the returned handle writes: a write through a
    /// clone or slice of it clears the tag.
    ///
    /// Unlike `alloc`, it takes a slot only from the smallest class that
    /// fits and returns `None` when that class is dry: a block cache keeps
    /// a client's write buffer for as long as the blocks stay resident, so
    /// a slot from a larger class would pin its spare bytes with them.
    pub fn alloc_for(&self, domain: u32, len: usize) -> Option<BufHandle> {
        let fit = self.inner.classes.iter().position(|c| c.buf_size >= len)?;
        self.alloc_tagged(fit..fit + 1, len, u64::from(domain) + 1)
    }

    /// Take a slot for `len` bytes from the first class in `range` that
    /// fits them and is not dry.
    fn alloc_tagged(&self, range: Range<usize>, len: usize, owner: u64) -> Option<BufHandle> {
        let classes = self.inner.classes.iter().enumerate();
        let fit = classes.take(range.end).skip(range.start);
        for (ci, class) in fit.filter(|(_, c)| c.buf_size >= len) {
            if let Some((slot, s)) = class.take() {
                let class_id = ci as u16;
                {
                    // SAFETY: the slot was just popped off the free list
                    // (refs == 0), so this thread has exclusive access to
                    // its bytes and its owner tag until the handle below
                    // is published; the free-list CAS that handed it over
                    // (Release push / Acquire pop) ordered the previous
                    // owner's writes to both before this point.
                    let data = unsafe { &mut *s.data.get() };
                    // relaxed-ok: only the popping thread touches the tag; the free-list CAS publishes it with the bytes
                    let was = s.owner.load(Ordering::Relaxed);
                    if data.len() != class.buf_size {
                        *data = vec![0u8; class.buf_size].into_boxed_slice();
                        self.inner.zeroed.add(class.buf_size as u64);
                    } else if owner != NO_OWNER && was != owner {
                        data.fill(0);
                        self.inner.zeroed.add(class.buf_size as u64);
                    }
                    // relaxed-ok: as the load above
                    s.owner.store(owner, Ordering::Relaxed);
                }
                // relaxed-ok: the handle is published to other threads through normal channels (queues, locks) that carry the happens-before edge
                s.refs.store(1, Ordering::Relaxed);
                let live = self.inner.live.add(1);
                self.inner.high_water.max(live);
                #[cfg(debug_assertions)]
                {
                    let fresh = self.inner.tracker.lock().insert((class_id, slot)); // lock-class: pool.tracker
                    assert!(fresh, "buffer pool handed out an already-live slot");
                }
                return Some(BufHandle {
                    pool: Arc::clone(&self.inner),
                    at: NonNull::from(s),
                    slot,
                    off: 0,
                    // `new` keeps every class within u32.
                    len: len as u32,
                    class: class_id,
                    minted: true,
                });
            }
        }
        None
    }

    /// Allocate and fill from `src` in one step. This *is* a copy (the
    /// boundary copy into shared memory) and is recorded as one.
    pub fn alloc_from(&self, src: &[u8]) -> Option<BufHandle> {
        let mut h = self.alloc(src.len())?;
        note_payload_copy(src.len());
        // copy-ok: the one boundary copy that moves bytes into shared memory; counted via note_payload_copy
        let ok = h.fill(src);
        debug_assert!(ok, "fresh handle is unique");
        Some(h)
    }

    /// The largest allocation a slot can hold: the top class's size.
    pub fn max_len(&self) -> usize {
        self.inner.classes.last().map_or(0, |c| c.buf_size)
    }

    /// Slots for `len` bytes in byte order, as [`BufferPool::alloc`] hands
    /// them out: one when `len` fits a slot, else [`BufferPool::max_len`]
    /// pieces and one for the rest. `None`, holding nothing, when the pool
    /// lacks any of them.
    pub fn alloc_runs(&self, len: usize) -> Option<Vec<BufHandle>> {
        let step = self.max_len().max(1);
        (0..len.max(1))
            .step_by(step)
            .map(|at| self.alloc((len - at).min(step)))
            .collect()
    }

    /// The longest [`BufferPool::alloc_runs`] an idle pool answers.
    pub fn max_runs_len(&self) -> usize {
        self.inner
            .classes
            .last()
            .map_or(0, |c| c.buf_size * c.budget())
    }

    /// Allocations currently live.
    pub fn live(&self) -> u64 {
        self.inner.live.get()
    }

    /// High-water mark of live allocations.
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.get()
    }

    /// Bytes zero-filled handing slots out since the pool was built.
    // api-ok: tests/alloc_buf_zero_fill.rs counts the zero-fills it pins
    pub fn zeroed_bytes(&self) -> u64 {
        self.inner.zeroed.get()
    }

    /// The size-class ladder as `(buf_size, slot_budget)` pairs: each
    /// class's configured count plus the reservations held on it.
    pub fn class_table(&self) -> Vec<(usize, usize)> {
        self.inner
            .classes
            .iter()
            .map(|c| (c.buf_size, c.budget()))
            .collect()
    }

    /// Raise the slot budget of the class that serves `len`-byte
    /// allocations (the smallest that fits) by `slots`, for as long as the
    /// returned guard lives: room for a holder that keeps that many slots
    /// without taking them from everyone else (a block cache's resident
    /// blocks). Nothing is allocated up front. `None` when no class fits
    /// `len` or the class cannot index that many slots.
    pub fn reserve(&self, len: usize, slots: usize) -> Option<Reservation> {
        let ci = self.inner.classes.iter().position(|c| c.buf_size >= len)?;
        let class = &self.inner.classes[ci];
        if class.budget().checked_add(slots)? > MAX_SLOTS {
            return None;
        }
        class.grow(slots);
        Some(Reservation {
            pool: self.clone(),
            class: ci,
            slots,
        })
    }
}

/// Slots a [`BufferPool`] class holds in its budget for one holder
/// ([`BufferPool::reserve`]); dropping the guard lowers the budget again.
/// Slots over the lowered budget leave circulation: free ones at once,
/// live ones when their last handle drops.
#[must_use = "the reservation ends when the guard drops"]
pub struct Reservation {
    pool: BufferPool,
    class: usize,
    slots: usize,
}

impl Reservation {
    /// A slot of the reserved class, never another's, for `len` bytes, as
    /// [`BufferPool::alloc`] hands one out. `None` when they do not fit
    /// the class's slots or the class is dry.
    pub fn alloc(&self, len: usize) -> Option<BufHandle> {
        self.pool
            .alloc_tagged(self.class..self.class + 1, len, NO_OWNER)
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.inner.classes[self.class].shrink(self.slots);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("classes", &self.class_table())
            .field("live", &self.live())
            .field("high_water", &self.high_water())
            .finish()
    }
}

/// A refcounted view of pool bytes: `(region, offset, len)`. `Clone` bumps
/// the slot refcount; `Drop` of the last handle returns the slot to the
/// free list. Mutation (`fill`, `write_with`) requires a *unique* handle.
pub struct BufHandle {
    pool: Arc<PoolInner>,
    /// Slot `slot` of class `class`: its storage neither moves nor is
    /// freed while `pool` lives, and the handle holds `pool`.
    at: NonNull<Slot>,
    slot: u32,
    off: u32,
    len: u32,
    class: u16,
    /// True only for the handle an allocation returned. Its holder is the
    /// allocator, whose domain the owner tag names; a clone or slice may
    /// have been handed to another domain (a cache hit answering a read),
    /// so a write through one clears the tag.
    minted: bool,
}

// SAFETY: the handle only permits shared reads of the slot bytes unless it
// is unique (refs == 1) and mutably borrowed; refcount traffic is atomic.
unsafe impl Send for BufHandle {}
// SAFETY: `&BufHandle` only exposes read access to the slot bytes
// (`as_slice`); writes demand `&mut self` plus `refs == 1`, so two threads
// sharing a reference cannot race.
unsafe impl Sync for BufHandle {}

impl BufHandle {
    fn slot_ref(&self) -> &Slot {
        // SAFETY: `at` points into a storage bucket of the pool this
        // handle keeps alive; buckets are never moved or freed before the
        // pool is dropped.
        unsafe { self.at.as_ref() }
    }

    /// The viewed byte range inside the slot.
    fn range(&self) -> std::ops::Range<usize> {
        self.off as usize..self.off as usize + self.len as usize
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the view is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing region id (the size class, in this pool).
    pub fn region(&self) -> u64 {
        u64::from(self.class)
    }

    /// Byte offset of this view inside its backing region.
    pub fn offset(&self) -> usize {
        self.slot as usize * self.pool.classes[self.class as usize].buf_size + self.off as usize
    }

    /// True when this is the only live handle on the slot. A `true` result
    /// is stable — no other handle exists to be cloned from — while a
    /// `false` result may be stale (a peer may be mid-drop).
    pub fn is_unique(&self) -> bool {
        self.slot_ref().refs.load(Ordering::Acquire) == 1
    }

    /// Read access to the bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: mutation is only possible through `fill`/`write_with`,
        // which require `refs == 1` and `&mut self`; while this shared
        // borrow is alive either refs > 1 (no writer can exist) or the
        // sole handle is borrowed here (so no `&mut` borrow can coexist).
        let data = unsafe { &*self.slot_ref().data.get() };
        &data[self.range()]
    }

    /// The mutable bytes of a unique handle (e.g. to lend as a device DMA
    /// target); `None` if the slot is shared. Through a clone or slice
    /// that outlived its peers, this clears the slot's owner tag.
    pub fn as_mut_slice(&mut self) -> Option<&mut [u8]> {
        if !self.is_unique() {
            return None;
        }
        if !self.minted {
            // relaxed-ok: refs == 1 gives this thread the slot as exclusively as a pop does; the Release drop and the free-list CAS publish the tag with the bytes
            self.slot_ref().owner.store(NO_OWNER, Ordering::Relaxed);
        }
        // SAFETY: refs == 1 and we hold `&mut self` for as long as the
        // slice lives, so no other handle — and no other borrow of this
        // handle, hence no clone of it — can observe the bytes (or the
        // owner tag set above) mid-write. A concurrent drop of a peer
        // would contradict refs == 1 (a true `is_unique` is stable).
        let data = unsafe { &mut *self.slot_ref().data.get() };
        let range = self.range();
        Some(&mut data[range])
    }

    /// Copy `src` into the front of the view. Fails (returns false)
    /// unless the handle is unique and `src` fits.
    pub fn fill(&mut self, src: &[u8]) -> bool {
        match self.as_mut_slice() {
            Some(dst) if src.len() <= dst.len() => {
                dst[..src.len()].copy_from_slice(src);
                true
            }
            _ => false,
        }
    }

    /// Run `f` over the mutable bytes of a unique handle (in-place fill).
    /// Fails (returns false) if shared.
    pub fn write_with<F: FnOnce(&mut [u8])>(&mut self, f: F) -> bool {
        self.as_mut_slice().map(f).is_some()
    }

    /// A narrowed read-only view of the same bytes (refcount bump, no
    /// copy). Returns `None` if the range falls outside this view.
    pub fn slice(&self, off: usize, len: usize) -> Option<BufHandle> {
        let end = off.checked_add(len)?;
        if end > self.len() {
            return None;
        }
        let mut h = self.clone();
        // Both fit: `end` is within this view, which is within u32.
        h.off += off as u32;
        h.len = len as u32;
        Some(h)
    }

    /// Grow this view in place over `next`, when `next` starts in the same
    /// slot exactly where `self` ends — the inverse of cutting one buffer
    /// into adjacent [`slice`]s. No refcount moves: `self` already holds
    /// its reference on the slot and `next` keeps its own. Returns `false`
    /// and leaves `self` alone for another slot or pool, a gap, an overlap
    /// or the reverse order, so the view never grows over a byte the two
    /// views do not already cover.
    ///
    /// [`slice`]: BufHandle::slice
    pub fn extend_with(&mut self, next: &BufHandle) -> bool {
        if !self.same_slot(next) || self.range().end != next.off as usize {
            return false;
        }
        // Both views lie in one slot, so the sum is within it.
        self.len += next.len;
        true
    }

    /// Shrink the view to its first `new_len` bytes (no-op if larger).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len < self.len() {
            self.len = new_len as u32;
        }
    }

    /// Copy the bytes out into a fresh `Vec`. This is an intermediate
    /// payload copy and is recorded as one.
    pub fn to_vec(&self) -> Vec<u8> {
        note_payload_copy(self.len());
        // copy-ok: explicit materialization for legacy Vec consumers; counted via note_payload_copy
        self.as_slice().to_vec()
    }

    /// True when `other` views the same slot (same allocation).
    pub fn same_slot(&self, other: &BufHandle) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool) && self.class == other.class && self.slot == other.slot
    }

    /// True when the two views' byte ranges intersect. Distinct
    /// allocations must never overlap (the proptest invariant); slices of
    /// one allocation may.
    // api-ok: crates/ipc/tests/buf_properties.rs checks live handles never alias
    pub fn overlaps(&self, other: &BufHandle) -> bool {
        let (a, b) = (self.range(), other.range());
        self.same_slot(other) && a.start < b.end && b.start < a.end
    }
}

impl Clone for BufHandle {
    fn clone(&self) -> Self {
        // relaxed-ok: same protocol as Arc::clone — the fetch_sub/fence pair in Drop provides the release/acquire edge
        let prev = self.slot_ref().refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "cloned a dead handle");
        BufHandle {
            pool: Arc::clone(&self.pool),
            at: self.at,
            slot: self.slot,
            off: self.off,
            len: self.len,
            class: self.class,
            minted: false,
        }
    }
}

impl Drop for BufHandle {
    fn drop(&mut self) {
        // Release so our writes to the bytes happen-before the next owner;
        // the winner (prev == 1) takes the matching Acquire fence. Freeing
        // iff fetch_sub returned 1 is the single-free protocol the labcheck
        // rc model checker verifies (a load-after-sub recheck double-frees).
        let prev = self.slot_ref().refs.fetch_sub(1, Ordering::Release);
        if prev == 1 {
            fence(Ordering::Acquire);
            #[cfg(debug_assertions)]
            {
                let was_live = self.pool.tracker.lock().remove(&(self.class, self.slot)); // lock-class: pool.tracker
                assert!(was_live, "buffer slot freed twice");
            }
            self.pool.live.sub(1);
            self.pool.classes[self.class as usize].release(self.slot, self.slot_ref());
        }
    }
}

impl std::fmt::Debug for BufHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufHandle")
            .field("region", &self.region())
            .field("offset", &self.offset())
            .field("len", &self.len)
            .field("refs", &self.slot_ref().refs.load(Ordering::Acquire))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool() -> BufferPool {
        BufferPool::new(PoolConfig {
            classes: vec![(64, 4), (256, 2)],
        })
    }

    #[test]
    fn alloc_fill_read_roundtrip() {
        let pool = small_pool();
        let mut h = pool.alloc(16).unwrap();
        assert!(h.fill(b"hello zero-copy!"));
        assert_eq!(h.as_slice(), b"hello zero-copy!");
        assert_eq!(h.len(), 16);
        assert_eq!(pool.live(), 1);
        drop(h);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn size_class_selection_and_fallover() {
        let pool = small_pool();
        let a = pool.alloc(64).unwrap();
        assert_eq!(a.region(), 0);
        let b = pool.alloc(65).unwrap();
        assert_eq!(b.region(), 1);
        // Exhaust the small class; the next small alloc falls over.
        let _c = pool.alloc(1).unwrap();
        let _d = pool.alloc(1).unwrap();
        let _e = pool.alloc(1).unwrap();
        let f = pool.alloc(1).unwrap();
        assert_eq!(f.region(), 1);
        // Both classes full now.
        assert!(pool.alloc(1).is_none());
        assert!(pool.alloc(300).is_none());
    }

    #[test]
    fn alloc_runs_cuts_at_the_largest_slot() {
        let pool = small_pool();
        let lens = |runs: &[BufHandle]| runs.iter().map(BufHandle::len).collect::<Vec<_>>();
        assert_eq!(lens(&pool.alloc_runs(0).unwrap()), [0]);
        assert_eq!(lens(&pool.alloc_runs(200).unwrap()), [200]);
        assert_eq!(pool.max_runs_len(), 512);
        let runs = pool.alloc_runs(300).unwrap();
        assert_eq!(lens(&runs), [256, 44]);
        assert_eq!(pool.live(), 2);
        // One 256-byte slot is left: a 600-byte run list takes it, finds
        // none for its second piece, and gives it back.
        assert!(pool.alloc_runs(600).is_none());
        assert_eq!(pool.live(), 2);
        drop(runs);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn clone_blocks_mutation_until_unique() {
        let pool = small_pool();
        let mut h = pool.alloc(8).unwrap();
        assert!(h.fill(b"original"));
        let shared = h.clone();
        assert!(!h.is_unique());
        assert!(!h.fill(b"clobber!"));
        assert_eq!(shared.as_slice(), b"original");
        drop(shared);
        assert!(h.is_unique());
        assert!(h.fill(b"newbytes"));
        assert_eq!(h.as_slice(), b"newbytes");
    }

    #[test]
    fn slice_shares_without_copy() {
        let pool = small_pool();
        let h = pool.alloc_from(b"abcdefgh").unwrap();
        let s = h.slice(2, 3).unwrap();
        assert_eq!(s.as_slice(), b"cde");
        assert!(s.same_slot(&h));
        assert!(s.overlaps(&h));
        assert!(h.slice(7, 2).is_none());
        assert_eq!(pool.live(), 1);
        drop(h);
        assert_eq!(pool.live(), 1); // slice keeps the slot alive
        drop(s);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn extend_with_reunites_adjacent_views_only() {
        let pool = small_pool();
        let h = pool.alloc_from(b"abcdefgh").unwrap();
        let (a, b, c) = (
            h.slice(0, 3).unwrap(),
            h.slice(3, 2).unwrap(),
            h.slice(5, 3).unwrap(),
        );
        let mut ab = a.clone();
        assert!(ab.extend_with(&b));
        assert_eq!(ab.as_slice(), b"abcde");
        assert!(ab.same_slot(&h));
        let mut abc = ab.clone();
        assert!(abc.extend_with(&c));
        assert_eq!(abc.as_slice(), h.as_slice());
        assert!(!a.clone().extend_with(&c), "gap");
        assert!(!ab.clone().extend_with(&b), "overlap");
        assert!(!b.clone().extend_with(&a), "reversed order");
        let other = pool.alloc_from(b"abcdefgh").unwrap();
        assert!(
            !a.clone().extend_with(&other.slice(3, 2).unwrap()),
            "other slot"
        );
        let other_pool = small_pool();
        let foreign = other_pool.alloc_from(b"abcdefgh").unwrap();
        assert!(
            !a.clone().extend_with(&foreign.slice(3, 2).unwrap()),
            "same class and slot index, other pool"
        );
        drop((h, a, b, c, ab, other));
        assert_eq!(pool.live(), 1, "a grown view holds its one reference");
        drop(abc);
        assert_eq!(pool.live(), 0);
    }

    /// One slot per class, so a freed slot is the next one handed out.
    fn one_slot_pool() -> BufferPool {
        BufferPool::new(PoolConfig {
            classes: vec![(4096, 1), (65536, 1)],
        })
    }

    fn filled_for(pool: &BufferPool, domain: u32, len: usize, byte: u8) -> BufHandle {
        let mut h = pool.alloc_for(domain, len).unwrap();
        assert!(h.write_with(|b| b.fill(byte)));
        h
    }

    #[test]
    fn a_slot_comes_back_to_its_domain_with_its_bytes() {
        let pool = one_slot_pool();
        drop(filled_for(&pool, 1, 4096, 0x11));
        let zeroed = pool.zeroed_bytes();
        let h = pool.alloc_for(1, 4096).unwrap();
        assert!(h.as_slice().iter().all(|&b| b == 0x11));
        assert_eq!(pool.zeroed_bytes(), zeroed, "no zero-fill");
    }

    #[test]
    fn another_domain_gets_zeros() {
        let pool = one_slot_pool();
        drop(filled_for(&pool, 1, 4096, 0x11));
        let h = pool.alloc_for(2, 4096).unwrap();
        assert!(h.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_plain_alloc_in_between_clears_the_tag() {
        let pool = one_slot_pool();
        drop(filled_for(&pool, 1, 4096, 0x11));
        // A DMA target: the device's bytes belong to no domain.
        let mut dma = pool.alloc(4096).unwrap();
        assert!(dma.write_with(|b| b.fill(0xD0)));
        drop(dma);
        let h = pool.alloc_for(1, 4096).unwrap();
        assert!(h.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn a_write_through_a_clone_clears_the_tag() {
        let pool = one_slot_pool();
        let mine = filled_for(&pool, 1, 4096, 0x11);
        // A cache keeps a view and answers another domain's read with it.
        let mut theirs = mine.slice(0, 4096).unwrap();
        drop(mine);
        assert!(theirs.write_with(|b| b.fill(0x22)));
        drop(theirs);
        let h = pool.alloc_for(1, 4096).unwrap();
        assert!(h.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn the_minted_flag_fits_in_the_padding() {
        assert_eq!(std::mem::size_of::<BufHandle>(), 32);
    }

    #[test]
    fn a_domain_change_zeroes_the_whole_slot_not_just_len() {
        let pool = one_slot_pool();
        drop(filled_for(&pool, 2, 4096, 0x22));
        drop(filled_for(&pool, 1, 100, 0x11));
        let h = pool.alloc_for(1, 4096).unwrap();
        assert!(h.as_slice()[..100].iter().all(|&b| b == 0x11));
        assert!(
            h.as_slice()[100..].iter().all(|&b| b == 0),
            "domain 2's bytes past the 100 domain 1 wrote"
        );
    }

    #[test]
    fn alloc_for_takes_only_the_class_that_fits() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(4096, 1), (16384, 1)],
        });
        let drained = pool.alloc(4096).unwrap();
        assert_eq!(drained.region(), 0);
        assert!(pool.alloc_for(1, 4096).is_none(), "no spill into 16 KiB");
        let spilled = pool.alloc(4096).unwrap();
        assert_eq!(spilled.region(), 1, "alloc still falls over");
        drop(spilled);
        assert!(pool.alloc_for(1, 4097).is_some(), "16 KiB fits 4097");
        assert!(pool.alloc_for(1, 16385).is_none(), "no class fits");
    }

    #[test]
    fn distinct_allocations_never_overlap() {
        let pool = small_pool();
        let handles: Vec<_> = (0..4).map(|_| pool.alloc(64).unwrap()).collect();
        for (i, a) in handles.iter().enumerate() {
            for b in &handles[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn free_list_recycles_slots() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(32, 1)],
        });
        for round in 0..10 {
            let mut h = pool.alloc(32).unwrap();
            assert!(h.write_with(|b| b[0] = round));
            assert_eq!(h.as_slice()[0], round);
            assert!(pool.alloc(32).is_none());
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.high_water(), 1);
    }

    #[test]
    fn copy_counter_tracks_boundary_copies() {
        let pool = small_pool();
        let before = thread_payload_copies();
        let h = pool.alloc_from(b"counted").unwrap();
        assert_eq!(thread_payload_copies(), before + 1);
        let _s = h.slice(0, 3).unwrap(); // no copy
        let _c = h.clone(); // no copy
        assert_eq!(thread_payload_copies(), before + 1);
        let _v = h.to_vec(); // counted
        assert_eq!(thread_payload_copies(), before + 2);
    }

    #[test]
    fn concurrent_alloc_drop_storm() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 32)],
        });
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        if let Some(mut h) = pool.alloc(64) {
                            let tag = (t as u32) << 16 | i;
                            assert!(h.fill(&tag.to_le_bytes()));
                            let c = h.clone();
                            assert_eq!(
                                u32::from_le_bytes(c.as_slice()[..4].try_into().unwrap()),
                                tag
                            );
                            drop(h);
                            drop(c);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.live(), 0);
        assert!(pool.high_water() <= 32);
        assert_eq!(pool.inner.classes[0].free_count(), 32);
    }

    #[test]
    fn a_reservation_raises_the_budget_while_it_lives() {
        let pool = small_pool();
        let r = pool.reserve(33, 3).unwrap();
        assert_eq!(
            pool.class_table(),
            [(64, 7), (256, 2)],
            "the class that fits"
        );
        let r2 = pool.reserve(1, 1).unwrap();
        assert_eq!(pool.class_table()[0], (64, 8));
        drop(r);
        assert_eq!(pool.class_table()[0], (64, 5));
        drop(r2);
        assert_eq!(pool.class_table(), [(64, 4), (256, 2)]);
        assert!(pool.reserve(257, 1).is_none(), "no class fits");
        assert!(
            pool.reserve(64, MAX_SLOTS).is_none(),
            "past what a class indexes"
        );
        assert_eq!(pool.class_table()[0], (64, 4));
    }

    #[test]
    fn a_reservation_allocates_from_its_class_only() {
        let pool = small_pool();
        let r = pool.reserve(33, 1).unwrap();
        let held: Vec<_> = std::iter::from_fn(|| r.alloc(40)).collect();
        assert_eq!(held.len(), 5, "base plus the reservation");
        assert!(held.iter().all(|h| h.region() == 0 && h.len() == 40));
        assert!(pool.alloc(64).is_some_and(|h| h.region() == 1), "spills");
        drop(held);
        assert!(r.alloc(64).is_some());
        assert!(r.alloc(65).is_none(), "longer than the class's slots");
        // A smaller class that fits is not the reserved one.
        let r = pool.reserve(100, 1).unwrap();
        assert!(r
            .alloc(40)
            .is_some_and(|h| h.region() == 1 && h.len() == 40));
    }

    #[test]
    fn past_base_plus_reservations_alloc_refuses() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 2)],
        });
        let r = pool.reserve(64, 3).unwrap();
        let held: Vec<_> = (0..5).map(|_| pool.alloc(64).unwrap()).collect();
        assert!(pool.alloc(64).is_none());
        // The budget falls with five slots live: they leave circulation as
        // they are freed until two remain.
        drop(r);
        assert!(pool.alloc(64).is_none());
        drop(held);
        assert_eq!(pool.live(), 0);
        let again: Vec<_> = std::iter::from_fn(|| pool.alloc(64)).collect();
        assert_eq!(again.len(), 2);
        // A new reservation brings retired slots back, not fresh ones.
        let _r = pool.reserve(64, 3).unwrap();
        let more: Vec<_> = std::iter::from_fn(|| pool.alloc(64)).collect();
        assert_eq!(more.len(), 3);
        assert_eq!(pool.inner.classes[0].created.load(Ordering::Acquire), 5);
        for h in again.iter().chain(&more) {
            assert!(h.offset() < 5 * 64, "{h:?}");
        }
    }

    #[test]
    fn retired_slots_release_their_bytes() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 1)],
        });
        let r = pool.reserve(64, 1).unwrap();
        let mut a = pool.alloc(64).unwrap();
        let b = pool.alloc(64).unwrap();
        assert!(a.write_with(|x| x.fill(0xEE)));
        drop(a);
        drop(r); // retires the free slot (the one `a` held)
        let zeroed = pool.zeroed_bytes();
        drop(b); // under budget again: back on the free list
        let _r = pool.reserve(64, 1).unwrap();
        let held: Vec<_> = std::iter::from_fn(|| pool.alloc(64)).collect();
        assert_eq!(held.len(), 2);
        assert!(held.iter().all(|h| h.as_slice().iter().all(|&x| x == 0)));
        assert_eq!(
            pool.zeroed_bytes(),
            zeroed + 64,
            "the retired slot's bytes were fresh"
        );
    }

    #[test]
    fn concurrent_alloc_free_storm_across_growth_steps() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 8)],
        });
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let (pool, stop) = (pool.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    let mut i = 0u32;
                    while !stop.load(Ordering::Acquire) {
                        i = i.wrapping_add(1);
                        if let Some(mut h) = pool.alloc(64) {
                            let tag = (t as u32) << 24 | (i & 0xff_ffff);
                            assert!(h.fill(&tag.to_le_bytes()));
                            held.push((tag, h));
                        }
                        // Hold up to 16 at a time, so that the budget's
                        // growth is what lets the threads go past 8 slots.
                        if held.len() > 16 || i.is_multiple_of(7) {
                            for (tag, h) in held.drain(..) {
                                let got = u32::from_le_bytes(h.as_slice()[..4].try_into().unwrap());
                                assert_eq!(got, tag, "two holders of one slot");
                            }
                        }
                    }
                })
            })
            .collect();
        for round in 0..200 {
            let r = pool.reserve(64, 1 + round % 64).unwrap();
            std::thread::yield_now();
            drop(r);
        }
        stop.store(true, Ordering::Release);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.class_table(), [(64, 8)]);
        let all: Vec<_> = std::iter::from_fn(|| pool.alloc(64)).collect();
        assert_eq!(all.len(), 8, "the base budget, no more");
    }
}
