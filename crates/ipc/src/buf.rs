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
//! free list when the last handle dies.
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
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Count of intermediate payload copies performed by the stack (test hook).
static PAYLOAD_COPIES: AtomicU64 = AtomicU64::new(0);
/// Total bytes those copies moved.
static PAYLOAD_COPY_BYTES: AtomicU64 = AtomicU64::new(0);

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
    // relaxed-ok: monotonic test counters; no ordering with payload data is needed
    PAYLOAD_COPIES.fetch_add(1, Ordering::Relaxed);
    // relaxed-ok: same counter pair as above
    PAYLOAD_COPY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Number of payload copies recorded since process start (test hook).
pub fn payload_copies() -> u64 {
    // relaxed-ok: test-hook counter read
    PAYLOAD_COPIES.load(Ordering::Relaxed)
}

/// Total payload bytes copied since process start (test hook).
pub fn payload_copy_bytes() -> u64 {
    // relaxed-ok: test-hook counter read
    PAYLOAD_COPY_BYTES.load(Ordering::Relaxed)
}

/// The process-wide default pool: what clients fill request payloads from
/// and driver mods allocate read targets from when no dedicated pool is
/// plumbed. (Shared memory is process-wide in this reproduction — thread
/// domains stand in for address spaces — so one default arena serves every
/// domain; the grant discipline lives in [`crate::shmem`].) Exhaustion is
/// graceful: `alloc` returns `None` and callers fall back to the legacy
/// copying path.
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

/// One size class: a slab of equally sized slots and its lock-free free
/// list. The free-list head packs `tag << 32 | (idx + 1)` — the tag
/// increments on every successful push/pop so a stalled CAS cannot ABA
/// onto a recycled head.
struct Class {
    buf_size: usize,
    slots: Box<[Slot]>,
    free_head: AtomicU64,
}

// SAFETY: `Slot.data` is an UnsafeCell, but all mutable access — to the
// bytes and the owner tag — is gated on `refs == 1` through
// `&mut BufHandle` (see `BufHandle::as_mut_slice`), and slots on the free
// list (refs == 0) are only touched by the thread that popped them; the
// Treiber-stack CAS pairs (Release push / Acquire pop) publish slot
// contents across threads.
unsafe impl Sync for Class {}
// SAFETY: same argument as Sync; Box<[u8]> is Send.
unsafe impl Send for Class {}

const LOW_MASK: u64 = 0xffff_ffff;

impl Class {
    fn new(buf_size: usize, count: usize) -> Self {
        assert!(count < u32::MAX as usize, "class too large");
        let slots: Box<[Slot]> = (0..count)
            .map(|i| Slot {
                // Backing bytes are allocated lazily on first use, so a
                // pool sized for a large cache costs nothing up front.
                data: UnsafeCell::new(Box::default()),
                refs: AtomicU32::new(0),
                // Thread the initial free list through the slab in order.
                next: AtomicU32::new(if i + 1 < count { i as u32 + 2 } else { 0 }),
                owner: AtomicU64::new(NO_OWNER),
            })
            .collect();
        let free_head = AtomicU64::new(if count == 0 { 0 } else { 1 });
        Class {
            buf_size,
            slots,
            free_head,
        }
    }

    /// Pop a free slot index, or None if the class is exhausted.
    fn pop_free(&self) -> Option<u32> {
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            let low = (head & LOW_MASK) as u32;
            if low == 0 {
                return None;
            }
            let idx = low - 1;
            // relaxed-ok: the value is validated by the tagged CAS below; a stale read only causes a retry or is caught by the ABA tag
            let next = self.slots[idx as usize].next.load(Ordering::Relaxed);
            let tag = ((head >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(next);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }

    /// Push a slot index back onto the free list.
    fn push_free(&self, idx: u32) {
        let slot = &self.slots[idx as usize];
        let mut head = self.free_head.load(Ordering::Acquire);
        loop {
            // relaxed-ok: the link is published by the Release CAS on free_head below
            slot.next.store((head & LOW_MASK) as u32, Ordering::Relaxed);
            let tag = ((head >> 32) + 1) & LOW_MASK;
            let new = (tag << 32) | u64::from(idx + 1);
            match self.free_head.compare_exchange_weak(
                head,
                new,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Number of slots currently on the free list (O(n) walk; stats only).
    fn free_count(&self) -> usize {
        self.slots
            .iter()
            // relaxed-ok: approximate stats counter, no synchronization implied
            .filter(|s| s.refs.load(Ordering::Relaxed) == 0)
            .count()
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
    live: AtomicU64,
    /// Maximum of `live` ever observed.
    high_water: AtomicU64,
    /// Bytes zero-filled handing slots out: fresh backing, and slots that
    /// changed domain.
    zeroed: AtomicU64,
    /// Debug leak/aliasing tracker: the set of (class, slot) pairs that are
    /// currently allocated. Alloc asserts the pair was absent (no aliasing
    /// of two allocations onto one slot); free asserts it was present
    /// (free-exactly-once).
    #[cfg(debug_assertions)]
    tracker: crate::lockwitness::OrderedMutex<std::collections::HashSet<(u16, u32)>>,
}

impl PoolInner {
    fn note_zeroed(&self, bytes: usize) {
        // relaxed-ok: stats counter
        self.zeroed.fetch_add(bytes as u64, Ordering::Relaxed);
    }
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
                live: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
                zeroed: AtomicU64::new(0),
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
        self.alloc_tagged(len, NO_OWNER)
    }

    /// Allocate like [`BufferPool::alloc`], on behalf of `domain`: the
    /// bytes are zeroed, or hold only what `domain` wrote into the slot
    /// before (malloc within a process, calloc across processes). A slot
    /// last tagged with another domain, or with none, is zeroed whole —
    /// not just its first `len` bytes, which a later, longer allocation
    /// from the same slot would read past — and tagged with `domain`. The
    /// tag holds while only the returned handle writes: a write through a
    /// clone or slice of it clears the tag.
    pub fn alloc_for(&self, domain: u32, len: usize) -> Option<BufHandle> {
        self.alloc_tagged(len, u64::from(domain) + 1)
    }

    fn alloc_tagged(&self, len: usize, owner: u64) -> Option<BufHandle> {
        for (ci, class) in self.inner.classes.iter().enumerate() {
            if class.buf_size < len {
                continue;
            }
            if let Some(slot) = class.pop_free() {
                let class_id = ci as u16;
                let s = &class.slots[slot as usize];
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
                        self.inner.note_zeroed(class.buf_size);
                    } else if owner != NO_OWNER && was != owner {
                        data.fill(0);
                        self.inner.note_zeroed(class.buf_size);
                    }
                    // relaxed-ok: as the load above
                    s.owner.store(owner, Ordering::Relaxed);
                }
                // relaxed-ok: the handle is published to other threads through normal channels (queues, locks) that carry the happens-before edge
                s.refs.store(1, Ordering::Relaxed);
                // relaxed-ok: live/high-water are stats counters
                let live = self.inner.live.fetch_add(1, Ordering::Relaxed) + 1;
                // relaxed-ok: monotonic max, stats only
                self.inner.high_water.fetch_max(live, Ordering::Relaxed);
                #[cfg(debug_assertions)]
                {
                    let fresh = self.inner.tracker.lock().insert((class_id, slot)); // lock-class: pool.tracker
                    assert!(fresh, "buffer pool handed out an already-live slot");
                }
                return Some(BufHandle {
                    pool: Arc::clone(&self.inner),
                    class: class_id,
                    minted: true,
                    slot,
                    off: 0,
                    len,
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

    /// Allocations currently live.
    pub fn live(&self) -> u64 {
        // relaxed-ok: stats counter read
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live allocations.
    pub fn high_water(&self) -> u64 {
        // relaxed-ok: stats counter read
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Bytes zero-filled handing slots out since the pool was built.
    pub fn zeroed_bytes(&self) -> u64 {
        // relaxed-ok: stats counter read
        self.inner.zeroed.load(Ordering::Relaxed)
    }

    /// Free slots remaining in the class that would serve a `len`-byte
    /// allocation (stats/tests).
    pub fn free_slots_for(&self, len: usize) -> usize {
        self.inner
            .classes
            .iter()
            .find(|c| c.buf_size >= len)
            .map(|c| c.free_count())
            .unwrap_or(0)
    }

    /// The size-class ladder as `(buf_size, slot_count)` pairs.
    pub fn class_table(&self) -> Vec<(usize, usize)> {
        self.inner
            .classes
            .iter()
            .map(|c| (c.buf_size, c.slots.len()))
            .collect()
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
    class: u16,
    /// True only for the handle an allocation returned. Its holder is the
    /// allocator, whose domain the owner tag names; a clone or slice may
    /// have been handed to another domain (a cache hit answering a read),
    /// so a write through one clears the tag.
    minted: bool,
    slot: u32,
    off: usize,
    len: usize,
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
        &self.pool.classes[self.class as usize].slots[self.slot as usize]
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
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
        self.slot as usize * self.pool.classes[self.class as usize].buf_size + self.off
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
        &data[self.off..self.off + self.len]
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
        Some(&mut data[self.off..self.off + self.len])
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
        if end > self.len {
            return None;
        }
        let mut h = self.clone();
        h.off += off;
        h.len = len;
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
        if !self.same_slot(next) || self.off + self.len != next.off {
            return false;
        }
        self.len += next.len;
        true
    }

    /// Shrink the view to its first `new_len` bytes (no-op if larger).
    pub fn truncate(&mut self, new_len: usize) {
        self.len = self.len.min(new_len);
    }

    /// Copy the bytes out into a fresh `Vec`. This is an intermediate
    /// payload copy and is recorded as one.
    pub fn to_vec(&self) -> Vec<u8> {
        note_payload_copy(self.len);
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
    pub fn overlaps(&self, other: &BufHandle) -> bool {
        self.same_slot(other) && self.off < other.off + other.len && other.off < self.off + self.len
    }
}

impl Clone for BufHandle {
    fn clone(&self) -> Self {
        // relaxed-ok: same protocol as Arc::clone — the fetch_sub/fence pair in Drop provides the release/acquire edge
        let prev = self.slot_ref().refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "cloned a dead handle");
        BufHandle {
            pool: Arc::clone(&self.pool),
            class: self.class,
            minted: false,
            slot: self.slot,
            off: self.off,
            len: self.len,
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
            // relaxed-ok: stats counter
            self.pool.live.fetch_sub(1, Ordering::Relaxed);
            self.pool.classes[self.class as usize].push_free(self.slot);
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
        let dry = pool.alloc(4096).unwrap(); // the 4 KiB class is dry
        drop(filled_for(&pool, 2, 65536, 0x22));
        let small = filled_for(&pool, 1, 4096, 0x11);
        assert_eq!(small.region(), 1, "fell over to the 64 KiB slot");
        drop(small);
        let h = pool.alloc_for(1, 65536).unwrap();
        assert!(h.as_slice()[..4096].iter().all(|&b| b == 0x11));
        assert!(
            h.as_slice()[4096..].iter().all(|&b| b == 0),
            "domain 2's bytes past the 4 KiB domain 1 wrote"
        );
        drop(dry);
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
        assert_eq!(pool.free_slots_for(64), 32);
    }
}
