//! Bounded lock-free single-producer/single-consumer ring.
//!
//! The highest-rate queues in LabStor have a fixed topology: one client
//! thread submitting, one worker consuming (an *ordered* primary queue), or
//! one worker submitting and one client polling (a completion queue). For
//! those, an SPSC ring needs no CAS at all — one release store per side —
//! which is what makes shared-memory queues "friendlier to CPU caches"
//! than syscalls (paper §IV-B).
//!
//! Two ways to hold the single-producer/single-consumer contract:
//!
//! * [`spsc`] returns split [`Producer`]/[`Consumer`] halves, making the
//!   contract a type-system fact. Use this whenever the two endpoints can
//!   own their halves.
//! * `SpscRing::with_capacity` hands out the unsplit ring for callers —
//!   `QueuePair` — that enforce the contract by *protocol* (one client per
//!   connection plus the orchestrator's single-consumer assignment and
//!   drain-and-handoff; see DESIGN.md §9). Those callers go
//!   through the `unsafe` `producer_*`/`consumer_*` operations and carry
//!   the proof obligation themselves.
//!
//! Batched operations publish a whole burst of slots with a *single*
//! release store on the counter — the io_uring-style doorbell batching the
//! IPC hot path is built on. The batched publication protocol is
//! exhaustively model-checked by `labcheck` (`McConfig::batch`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;

/// Shared state of an SPSC ring.
///
/// `head` is only advanced by the consumer, `tail` only by the producer.
/// Each is on its own cache line so the two sides do not false-share.
pub(crate) struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (consumer-owned).
    head: CachePadded<AtomicUsize>,
    /// Next slot to push (producer-owned).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other, so `T: Send` is all the transfer needs.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: shared access goes through the head/tail atomics; slot access
// is serialized by the publication protocol (exhaustively checked by the
// labcheck interleaving model checker).
unsafe impl<T: Send> Sync for SpscRing<T> {}

/// The producing half of an SPSC ring.
pub struct Producer<T> {
    ring: Arc<SpscRing<T>>,
}

/// The consuming half of an SPSC ring.
pub struct Consumer<T> {
    ring: Arc<SpscRing<T>>,
}

/// Create a ring with capacity for `cap` elements (rounded up to a power
/// of two, minimum 2).
pub fn spsc<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
    spsc_from(cap, 0)
}

/// [`spsc`] with both counters pre-set to `start`. The counters are
/// free-running, so any start value is legal; tests use values near
/// `usize::MAX` to exercise the wraparound paths.
fn spsc_from<T>(cap: usize, start: usize) -> (Producer<T>, Consumer<T>) {
    let ring = Arc::new(SpscRing::with_capacity_from(cap, start));
    (Producer { ring: ring.clone() }, Consumer { ring })
}

impl<T> SpscRing<T> {
    /// Create an unsplit ring with capacity for `cap` elements (rounded up
    /// to a power of two, minimum 2). The caller owns the proof that every
    /// `producer_*` call comes from one producer at a time and every
    /// `consumer_*` call from one consumer at a time.
    pub(crate) fn with_capacity(cap: usize) -> SpscRing<T> {
        SpscRing::with_capacity_from(cap, 0)
    }

    fn with_capacity_from(cap: usize, start: usize) -> SpscRing<T> {
        let cap = cap.max(2).next_power_of_two();
        SpscRing {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: CachePadded::new(AtomicUsize::new(start)),
            tail: CachePadded::new(AtomicUsize::new(start)),
        }
    }

    fn cap(&self) -> usize {
        self.buf.len()
    }

    /// Number of elements currently queued (approximate under concurrency).
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// True if no elements are queued (approximate under concurrency).
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots as seen by the producer. The result is a lower bound:
    /// the concurrent consumer can only *create* space.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's sole producer for the duration of the
    /// call (no concurrent `producer_*` call on this ring).
    // SAFETY: contract — producer-owned tail read requires producer identity.
    pub(crate) unsafe fn producer_free(&self) -> usize {
        // relaxed-ok: tail is producer-owned; the caller is its only writer.
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        self.cap() - tail.wrapping_sub(head)
    }

    /// Push one element; returns it back if the ring is full.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's sole producer for the duration of the
    /// call (no concurrent `producer_*` call on this ring).
    // SAFETY: contract — writes the next free slot assuming a unique producer.
    pub(crate) unsafe fn producer_push(&self, value: T) -> Result<(), T> {
        // relaxed-ok: tail is producer-owned; the caller is its only writer.
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.cap() {
            return Err(value);
        }
        // panic-ok: index is masked by cap-1 (cap is a power of two), so
        // it is always in bounds.
        let slot = &self.buf[tail & (self.cap() - 1)];
        // SAFETY: slot is outside [head, tail), so the consumer will not
        // touch it until the release store below publishes it; the caller
        // guarantees no other producer is writing it.
        unsafe { (*slot.get()).write(value) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Push every element yielded by `items` that fits, publishing the
    /// whole burst with a **single** release store on `tail`. Returns how
    /// many were pushed. Elements beyond the free space are left in the
    /// iterator untouched — callers sizing the iterator with
    /// [`SpscRing::producer_free`] get an exact move (free space can only
    /// grow between the two calls, since the caller is the sole producer).
    ///
    /// # Safety
    ///
    /// The caller must be the ring's sole producer for the duration of the
    /// call (no concurrent `producer_*` call on this ring).
    // SAFETY: contract — writes [tail, tail+n) slots assuming a unique producer.
    pub(crate) unsafe fn producer_push_iter<I>(&self, items: I) -> usize
    where
        I: Iterator<Item = T>,
    {
        // relaxed-ok: tail is producer-owned; the caller is its only writer.
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let free = self.cap() - tail.wrapping_sub(head);
        let mut n = 0usize;
        for value in items.take(free) {
            // panic-ok: index is masked by cap-1 (cap is a power of two),
            // so it is always in bounds.
            let slot = &self.buf[tail.wrapping_add(n) & (self.cap() - 1)];
            // SAFETY: slots [tail, tail+free) are outside [head, tail) and
            // unpublished until the release store below; the caller
            // guarantees no other producer is writing them.
            unsafe { (*slot.get()).write(value) };
            n += 1;
        }
        if n > 0 {
            // One release store publishes the whole batch: the consumer's
            // acquire load of `tail` then sees every slot write above.
            self.tail.store(tail.wrapping_add(n), Ordering::Release);
        }
        n
    }

    /// Pop the oldest element, if any.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's sole consumer for the duration of the
    /// call (no concurrent `consumer_*` call on this ring).
    // SAFETY: contract — reads the head slot assuming a unique consumer.
    pub(crate) unsafe fn consumer_pop(&self) -> Option<T> {
        // relaxed-ok: head is consumer-owned; the caller is its only writer.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // panic-ok: index is masked by cap-1 (cap is a power of two), so
        // it is always in bounds.
        let slot = &self.buf[head & (self.cap() - 1)];
        // SAFETY: slot is inside [head, tail), fully written and published
        // by the producer's release store; the caller guarantees it is the
        // only consumer reading it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Pop up to `max` elements into `out` (appended in FIFO order),
    /// retiring the whole burst with a **single** release store on `head`.
    /// Returns how many were popped.
    ///
    /// # Safety
    ///
    /// The caller must be the ring's sole consumer for the duration of the
    /// call (no concurrent `consumer_*` call on this ring).
    // SAFETY: contract — reads [head, head+n) slots assuming a unique consumer.
    pub(crate) unsafe fn consumer_pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        // relaxed-ok: head is consumer-owned; the caller is its only writer.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let avail = tail.wrapping_sub(head).min(max);
        out.reserve(avail);
        for i in 0..avail {
            // panic-ok: index is masked by cap-1 (cap is a power of two),
            // so it is always in bounds.
            let slot = &self.buf[head.wrapping_add(i) & (self.cap() - 1)];
            // SAFETY: slots [head, head+avail) are inside [head, tail),
            // fully written and published by the producer's release store;
            // the caller guarantees it is the only consumer reading them.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        if avail > 0 {
            // One release store retires the whole batch: the producer's
            // acquire load of `head` then knows every slot is reusable.
            self.head.store(head.wrapping_add(avail), Ordering::Release);
        }
        avail
    }
}

impl<T> Producer<T> {
    /// Push an element; returns it back if the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        // SAFETY: `&mut self` on the unique producer half — no other
        // producer can exist.
        unsafe { self.ring.producer_push(value) }
    }

    /// Queue occupancy as seen by the producer.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is queued.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl<T> Consumer<T> {
    /// Pop the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        // SAFETY: `&mut self` on the unique consumer half — no other
        // consumer can exist.
        unsafe { self.ring.consumer_pop() }
    }

    /// Queue occupancy as seen by the consumer.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.ring.len()
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drain any elements never consumed so their drops run. This must
        // be `while head != tail` with `wrapping_add`, not `for i in
        // head..tail`: the counters are free-running and a `Range` where
        // the indices wrapped past `usize::MAX` (tail numerically below
        // head) is empty, which would silently leak every queued element.
        // relaxed-ok: &mut self during drop; no other thread can observe
        // or advance the counters.
        let mut head = self.head.load(Ordering::Relaxed);
        // relaxed-ok: same — exclusive owner during drop.
        let tail = self.tail.load(Ordering::Relaxed);
        while head != tail {
            // panic-ok: index is masked by cap-1, always in bounds.
            let slot = &self.buf[head & (self.cap() - 1)];
            // SAFETY: sole owner during drop; [head, tail) slots are
            // initialized.
            unsafe { (*slot.get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The batched verbs on the split halves: the ring's `producer_push_iter`
    // and `consumer_pop_batch` under the halves' type-level contract.
    impl<T> Producer<T> {
        /// Move elements from the front of `items` into the ring until it is
        /// full, publishing the burst with one release store. Returns how many
        /// moved; leftovers stay in `items` (backpressure).
        fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
            // SAFETY: `&mut self` on the unique producer half — no other
            // producer can exist.
            let free = unsafe { self.ring.producer_free() };
            let k = items.len().min(free);
            // SAFETY: same unique-producer argument as above; `drain(..k)`
            // yields exactly `k <= free` elements, and free space can only
            // have grown since the check (we are the sole producer), so the
            // iterator is fully consumed — nothing is dropped by the drain.
            unsafe { self.ring.producer_push_iter(items.drain(..k)) }
        }
    }

    impl<T> Consumer<T> {
        /// Pop up to `max` elements into `out` (FIFO order), retiring the
        /// burst with one release store. Returns how many were popped.
        fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
            // SAFETY: `&mut self` on the unique consumer half — no other
            // consumer can exist.
            unsafe { self.ring.consumer_pop_batch(out, max) }
        }
    }

    #[test]
    fn fifo_order() {
        let (mut p, mut c) = spsc(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (mut p, mut c) = spsc(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (mut p, _c) = spsc::<u32>(5); // rounds to 8
        for i in 0..8 {
            p.push(i).unwrap();
        }
        assert!(p.push(9).is_err());
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut p, mut c) = spsc(4);
        for i in 0..1000u32 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut p, mut c) = spsc::<u8>(8);
        assert!(p.is_empty());
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn batch_fifo_and_leftovers() {
        let (mut p, mut c) = spsc::<u32>(4);
        let mut items: Vec<u32> = (0..7).collect();
        // Ring holds 4: the first 4 move, 3 stay behind.
        assert_eq!(p.push_batch(&mut items), 4);
        assert_eq!(items, vec![4, 5, 6]);
        let mut out = Vec::new();
        assert_eq!(c.pop_batch(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        // Space freed: the leftovers fit now.
        assert_eq!(p.push_batch(&mut items), 3);
        assert!(items.is_empty());
        out.clear();
        assert_eq!(c.pop_batch(&mut out, 100), 4);
        assert_eq!(out, vec![3, 4, 5, 6]);
        assert_eq!(c.pop_batch(&mut out, 100), 0);
    }

    #[test]
    fn batch_ops_across_counter_wrap() {
        let (mut p, mut c) = spsc_from(4, usize::MAX - 2);
        let mut out = Vec::new();
        for round in 0..8u32 {
            let mut items: Vec<u32> = (round * 3..round * 3 + 3).collect();
            assert_eq!(p.push_batch(&mut items), 3);
            out.clear();
            assert_eq!(c.pop_batch(&mut out, 3), 3);
            assert_eq!(out, (round * 3..round * 3 + 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pop_batch_respects_max() {
        let (mut p, mut c) = spsc::<u8>(8);
        let mut items = vec![1, 2, 3, 4, 5];
        assert_eq!(p.push_batch(&mut items), 5);
        let mut out = Vec::new();
        assert_eq!(c.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(c.pop_batch(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unconsumed_elements_are_dropped() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut p, _c) = spsc(4);
            assert!(p.push(D).is_ok());
            assert!(p.push(D).is_ok());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unconsumed_batch_elements_are_dropped() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut p, _c) = spsc(4);
            let mut items = vec![D, D, D];
            assert_eq!(p.push_batch(&mut items), 3);
            assert!(items.is_empty());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn unconsumed_elements_are_dropped_after_counter_wrap() {
        // Regression: Drop used `for i in head..tail`, an empty range
        // once the counters wrap past usize::MAX, leaking every queued
        // element. Start the counters just below the wrap so the queued
        // elements straddle it.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut p, _c) = spsc_from(4, usize::MAX - 1);
            for _ in 0..3 {
                assert!(p.push(D).is_ok());
            }
            // head = MAX-1, tail = MAX+2 (wrapped to 1): tail < head.
        }
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            3,
            "drain must survive counter wrap"
        );
    }

    #[test]
    fn push_pop_across_counter_wrap() {
        let (mut p, mut c) = spsc_from(4, usize::MAX - 2);
        for i in 0..10u32 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn cross_thread_stress_no_loss_no_dup() {
        const N: u64 = 20_000;
        let (mut p, mut c) = spsc(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        // Full: let the consumer run (matters on 1-core hosts).
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        let mut sum = 0u64;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected, "out of order or duplicated");
                sum += v;
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn cross_thread_batch_stress_no_loss_no_dup() {
        const N: u64 = 20_000;
        const B: usize = 8;
        let (mut p, mut c) = spsc(64);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut pending: Vec<u64> = Vec::new();
            while next < N || !pending.is_empty() {
                while pending.len() < B && next < N {
                    pending.push(next);
                    next += 1;
                }
                if p.push_batch(&mut pending) == 0 {
                    // Full: let the consumer run (matters on 1-core hosts).
                    std::thread::yield_now();
                }
            }
        });
        let mut expected = 0u64;
        let mut out: Vec<u64> = Vec::new();
        while expected < N {
            out.clear();
            if c.pop_batch(&mut out, B) == 0 {
                std::thread::yield_now();
                continue;
            }
            for v in &out {
                assert_eq!(*v, expected, "out of order, lost, or duplicated");
                expected += 1;
            }
        }
        producer.join().unwrap();
    }
}
