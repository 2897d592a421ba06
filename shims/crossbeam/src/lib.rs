//! Offline shim for `crossbeam`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the slice of crossbeam it uses: [`utils::CachePadded`] and
//! [`utils::Backoff`].

pub mod utils {
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Pads and aligns a value to (at least) a cache-line boundary so two
    /// adjacent atomics never false-share. 128 bytes covers the spatial
    /// prefetcher pairs on modern x86 and big.LITTLE arm cores.
    #[derive(Default)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wrap `value` in its own cache line.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwrap, returning the inner value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.value.fmt(f)
        }
    }

    /// Exponential backoff for spin loops: spin a few times, then yield
    /// to the OS scheduler, exactly like crossbeam's `Backoff`.
    pub struct Backoff {
        step: AtomicU32,
    }

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    impl Backoff {
        /// Fresh backoff state.
        pub const fn new() -> Self {
            Backoff {
                step: AtomicU32::new(0),
            }
        }

        /// Reset after useful work was found.
        pub fn reset(&self) {
            self.step.store(0, Ordering::Relaxed); // relaxed-ok: backoff heuristic; the step count guards nothing
        }

        /// Busy-wait briefly (for lock-free retry loops).
        pub fn spin(&self) {
            let step = self.step.load(Ordering::Relaxed).min(SPIN_LIMIT); // relaxed-ok: backoff heuristic; the step count guards nothing
            for _ in 0..1u32 << step {
                std::hint::spin_loop();
            }
            if step <= SPIN_LIMIT {
                self.step.store(step + 1, Ordering::Relaxed); // relaxed-ok: backoff heuristic; the step count guards nothing
            }
        }

        /// Back off, yielding the thread once spinning stops paying.
        pub fn snooze(&self) {
            let step = self.step.load(Ordering::Relaxed); // relaxed-ok: backoff heuristic; the step count guards nothing
            if step <= SPIN_LIMIT {
                for _ in 0..1u32 << step {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if step <= YIELD_LIMIT {
                self.step.store(step + 1, Ordering::Relaxed); // relaxed-ok: backoff heuristic; the step count guards nothing
            }
        }

        /// True once the caller should block instead of spinning.
        pub fn is_completed(&self) -> bool {
            self.step.load(Ordering::Relaxed) > YIELD_LIMIT // relaxed-ok: backoff heuristic; the step count guards nothing
        }
    }

    impl Default for Backoff {
        fn default() -> Self {
            Backoff::new()
        }
    }
}
