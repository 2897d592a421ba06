//! [`Stat`]: the one type for a counter that orders no other memory.
//!
//! A monitoring counter (requests served, bytes copied, cache hits), an
//! extremum (a histogram's min and max, a high-water mark) and a published
//! metric (a worker's virtual clock, a queue's wait EMA) share one
//! property: nobody infers anything about *other* memory from the value
//! they read. Every access is therefore `Relaxed`, and this file is the
//! only place such a counter names that ordering. An atomic that does
//! publish or guard memory — a seqlock word, a ring index, a refcount, a
//! fresh-id counter, a fault knob, a virtual-time reservation — stays a
//! plain `Atomic*` with its own `relaxed-ok` reason (DESIGN.md §7).

use std::sync::atomic::{AtomicU64, Ordering};

/// One `u64` that orders nothing. Each operation is atomic on its own (no
/// update is lost, an extremum never regresses); a reader may see any
/// recent value, and two `Stat`s read one after the other are not a
/// consistent snapshot.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct Stat(AtomicU64);

impl Stat {
    /// A stat holding `v` (usable in a `static`).
    pub const fn new(v: u64) -> Stat {
        Stat(AtomicU64::new(v))
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // relaxed-ok: a Stat orders no other memory
    }

    /// Overwrite the value: a single writer's publication, or a reset.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed); // relaxed-ok: a Stat orders no other memory
    }

    /// Add `n` (wrapping) in one RMW; returns the value after the add.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed).wrapping_add(n) // relaxed-ok: a Stat orders no other memory
    }

    /// Subtract `n` (wrapping) in one RMW.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed); // relaxed-ok: a Stat orders no other memory
    }

    /// Subtract `n`, stopping at zero.
    #[inline]
    pub fn saturating_sub(&self, n: u64) {
        self.update(|cur| Some(cur.saturating_sub(n)));
    }

    /// Raise the value to `v` when `v` is larger. Loads first, so a value
    /// that does not improve stores nothing (`LogHistogram::record` runs
    /// this on every vertex of every request).
    #[inline]
    pub fn max(&self, v: u64) {
        self.update(|cur| (v > cur).then_some(v));
    }

    /// Lower the value to `v` when `v` is smaller; loads first, like
    /// [`Stat::max`].
    #[inline]
    pub fn min(&self, v: u64) {
        self.update(|cur| (v < cur).then_some(v));
    }

    /// Load, then CAS in `f(cur)` until it sticks or `f` returns `None`.
    #[inline]
    fn update(&self, f: impl FnMut(u64) -> Option<u64>) {
        // relaxed-ok: a Stat orders no other memory
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_get_set() {
        let s = Stat::new(5);
        assert_eq!(s.add(3), 8);
        s.sub(2);
        assert_eq!(s.get(), 6);
        s.set(40);
        assert_eq!(s.get(), 40);
        s.saturating_sub(15);
        assert_eq!(s.get(), 25);
        s.saturating_sub(100);
        assert_eq!(s.get(), 0);
    }

    /// The high watermark the runtime's workers publish their clocks into.
    #[test]
    fn max_keeps_the_high_watermark() {
        let w = Stat::default();
        w.max(5);
        w.max(3);
        w.max(9);
        assert_eq!(w.get(), 9);
    }
}
