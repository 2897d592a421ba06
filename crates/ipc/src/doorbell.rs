//! Doorbell: the park/wake primitive behind the completion-driven runtime.
//!
//! Real LabStor queue pairs carry a doorbell word the producer stores to
//! after publishing entries; a futex (or monitor/mwait on dedicated cores)
//! lets the consumer sleep on it. In the simulator the doorbell is an
//! epoch counter plus a condvar: producers bump the epoch once per burst
//! (the PR 3 one-doorbell-per-burst contract) and notify only when a
//! waiter is registered, so the un-contended ring is two atomic ops and
//! parking costs no CPU.
//!
//! # Protocol (lost-wakeup freedom)
//!
//! A consumer captures `epoch()` **before** scanning its queues, scans,
//! and only then parks with `wait_past(captured, timeout)`. Any ring that
//! lands after the capture moves the epoch, so `wait_past` returns
//! immediately instead of parking; any ring that lands before the capture
//! published its items before the scan (rings happen after the push).
//! Inside `wait_past` the epoch is re-checked under the mutex the ringer
//! must take to notify, closing the classic check-then-park window — the
//! planted `ParkWithoutRecheck` bug in `labcheck::mc_doorbell` shows what
//! breaks without it. The waiter-count fast path is the store-buffering
//! litmus test: both sides use `SeqCst` so "ringer misses the waiter while
//! the waiter misses the bump" is an impossible cycle.
//!
//! # Pre-park phase
//!
//! A futex round trip (wake, wait, two cold context switches) costs more
//! than the whole of a small request, so `wait_past` first re-reads the
//! epoch across a short run of `yield_now` calls, *before* registering as
//! a waiter. A peer inside that run is not a waiter: the ringer stays on
//! its two-atomic path and a closed request/response loop makes no futex
//! call at all. The run only ever returns `true` on a moved epoch — what
//! the entry check does — and otherwise falls through to the register →
//! re-check → sleep sequence above, so it is the caller calling
//! `wait_past` a little later and the protocol argument is untouched.
//! The run yields rather than spins: with both ends on one CPU a `pause`
//! loop burns the timeslice the peer needs to ring. Its length sizes
//! itself per bell (`next_run`), so an idle bell pays one yield per
//! park while a busy one never sleeps.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Longest pre-park run. A lone `sched_yield` is ~0.2 us, so the cap is
/// worth about one futex round trip (10-20 us): past that, sleeping is
/// the cheaper way to wait.
const MAX_RUN: u32 = 64;

/// A park that a ring ends this soon would have been caught by a longer
/// run: it counts as a hit when sizing the next one.
const NEAR_MISS: Duration = Duration::from_micros(50);

/// The sizing rule of the pre-park run: double (up to [`MAX_RUN`]) after
/// a wait that a ring ended inside the run or just past it, halve (down
/// to one yield) after a wait that had to sleep.
fn next_run(run: u32, hit: bool) -> u32 {
    if hit {
        (run * 2).min(MAX_RUN)
    } else {
        (run / 2).max(1)
    }
}

/// An epoch-counting park/wake word (condvar-backed futex stand-in).
///
/// `ring` never blocks on a parked waiter's timeslice and is two atomic
/// ops when nobody is parked; `wait_past` consumes no CPU while parked.
pub struct Doorbell {
    /// Ring counter. Monotonically increasing; never reset.
    epoch: AtomicU64,
    /// Number of threads inside `wait_past` past the registration point.
    waiters: AtomicU32,
    /// Serializes the park/notify handshake; held only for the re-check
    /// and the notify, never across a scan.
    mu: Mutex<()>,
    cv: Condvar,
    /// Yields the next `wait_past` makes before registering (a hint:
    /// concurrent waiters may overwrite each other's update).
    run: AtomicU32,
    /// Waits that got as far as registering as a waiter.
    parks: AtomicU64,
    /// Waits that a ring ended inside the pre-park run.
    phase_hits: AtomicU64,
}

impl Doorbell {
    /// A fresh doorbell at epoch 0 with no waiters.
    pub fn new() -> Self {
        Doorbell {
            epoch: AtomicU64::new(0),
            waiters: AtomicU32::new(0),
            mu: Mutex::new(()),
            cv: Condvar::new(),
            run: AtomicU32::new(1),
            parks: AtomicU64::new(0),
            phase_hits: AtomicU64::new(0),
        }
    }

    /// How many `wait_past` calls registered as a waiter (the slow path:
    /// a futex wait, and a futex wake for the ringer).
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed) // relaxed-ok: stat counter; readers tolerate lag
    }

    /// How many `wait_past` calls a ring ended inside the pre-park run,
    /// with no futex call on either side.
    pub fn phase_hits(&self) -> u64 {
        self.phase_hits.load(Ordering::Relaxed) // relaxed-ok: stat counter; readers tolerate lag
    }

    /// Record how a wait ended and size the next pre-park run from it.
    fn resize_run(&self, run: u32, hit: bool) {
        let next = next_run(run, hit);
        if next != run {
            self.run.store(next, Ordering::Relaxed); // relaxed-ok: sizing hint; publishes nothing
        }
    }

    /// The current epoch. Capture this **before** scanning the queues the
    /// doorbell covers; pass the captured value to [`Doorbell::wait_past`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Ring the bell: bump the epoch and wake every parked waiter.
    ///
    /// Called once per successful burst *after* the items are visible in
    /// the queue. `SeqCst` on the bump and the waiter probe pairs with the
    /// waiter's registration (see module docs); the mutex is only taken
    /// when someone is actually parked.
    pub fn ring(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders the notify against a waiter that has
            // re-checked the epoch but not yet entered the condvar wait.
            let _guard = self.mu.lock(); // lock-class: ipc.bell
            self.cv.notify_all();
        }
    }

    /// Park until the epoch moves past `observed` or `timeout` elapses.
    ///
    /// Returns `true` if the epoch moved (a ring happened since the
    /// caller captured `observed`), `false` on timeout. Spurious wakeups
    /// never return early: the epoch is the sole wake condition. The
    /// pre-park run (module docs) counts against `timeout`.
    pub fn wait_past(&self, observed: u64, timeout: Duration) -> bool {
        if self.epoch.load(Ordering::SeqCst) != observed {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let run = self.run.load(Ordering::Relaxed); // relaxed-ok: sizing hint; publishes nothing
        for _ in 0..run {
            std::thread::yield_now();
            if self.epoch.load(Ordering::SeqCst) != observed {
                self.phase_hits.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
                self.resize_run(run, true);
                return true;
            }
        }
        self.parks.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let parked = Instant::now();
        {
            let mut guard = self.mu.lock(); // lock-class: ipc.bell
                                            // Re-check under the mutex: a ring between the caller's queue
                                            // scan and this point already moved the epoch, and its notify
                                            // (which needs `mu`) cannot interleave with this check.
            while self.epoch.load(Ordering::SeqCst) == observed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let _ = self.cv.wait_for(&mut guard, deadline - now);
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        let rung = self.epoch.load(Ordering::SeqCst) != observed;
        self.resize_run(run, rung && parked.elapsed() < NEAR_MISS);
        rung
    }
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell::new()
    }
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("epoch", &self.epoch.load(Ordering::Acquire))
            .field("waiters", &self.waiters.load(Ordering::Acquire))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_before_wait_never_parks() {
        let bell = Doorbell::new();
        let e = bell.epoch();
        bell.ring();
        let t0 = Instant::now();
        assert!(bell.wait_past(e, Duration::from_secs(10)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!((bell.parks(), bell.phase_hits()), (0, 0));
    }

    /// The pre-park run is part of the wait, not in front of it: even at
    /// its longest, a wait nobody rings still ends at the deadline.
    #[test]
    fn pre_park_run_counts_against_the_timeout() {
        let bell = Doorbell::new();
        bell.run.store(MAX_RUN, Ordering::Relaxed); // relaxed-ok: test set-up on one thread
        let e = bell.epoch();
        let t0 = Instant::now();
        assert!(!bell.wait_past(e, Duration::from_millis(10)));
        let took = t0.elapsed();
        assert!(
            took >= Duration::from_millis(10),
            "returned early: {took:?}"
        );
        assert!(took < Duration::from_millis(500), "overslept: {took:?}");
        assert_eq!(bell.epoch(), e);
        assert_eq!((bell.parks(), bell.phase_hits()), (1, 0));
    }

    #[test]
    fn run_length_doubles_on_a_hit_and_halves_on_a_miss() {
        assert_eq!(next_run(1, true), 2);
        assert_eq!(next_run(8, true), 16);
        assert_eq!(next_run(MAX_RUN, true), MAX_RUN);
        assert_eq!(next_run(MAX_RUN / 2 + 1, true), MAX_RUN);
        assert_eq!(next_run(16, false), 8);
        assert_eq!(next_run(3, false), 1);
        assert_eq!(next_run(1, false), 1);
        // A bell nobody rings settles at one yield per park.
        let bell = Doorbell::new();
        bell.run.store(MAX_RUN, Ordering::Relaxed); // relaxed-ok: test set-up on one thread
        for _ in 0..7 {
            assert!(!bell.wait_past(bell.epoch(), Duration::ZERO));
        }
        assert_eq!(bell.run.load(Ordering::Relaxed), 1); // relaxed-ok: test read on one thread
    }

    #[test]
    fn ring_wakes_parked_waiter() {
        let bell = Arc::new(Doorbell::new());
        let bell2 = bell.clone();
        let e = bell.epoch();
        let t = std::thread::spawn(move || bell2.wait_past(e, Duration::from_secs(30)));
        // Let the waiter park (best-effort; correctness doesn't depend on it).
        std::thread::sleep(Duration::from_millis(5));
        bell.ring();
        assert!(t.join().unwrap(), "waiter should observe the ring");
    }

    #[test]
    fn burst_of_rings_counts_every_epoch() {
        let bell = Doorbell::new();
        let e = bell.epoch();
        for _ in 0..64 {
            bell.ring();
        }
        assert_eq!(bell.epoch(), e + 64);
    }

    /// Hammer the registration race: a producer ringing as fast as it can
    /// must never strand a consumer that interleaves capture/scan/park.
    #[test]
    fn no_lost_wakeup_under_stress() {
        let bell = Arc::new(Doorbell::new());
        let work = Arc::new(AtomicU64::new(0));
        const ITEMS: u64 = 2_000;

        let prod = {
            let (bell, work) = (bell.clone(), work.clone());
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    work.fetch_add(1, Ordering::SeqCst);
                    bell.ring();
                }
            })
        };
        let mut seen = 0u64;
        while seen < ITEMS {
            let e = bell.epoch();
            let avail = work.load(Ordering::SeqCst);
            if avail > seen {
                seen = avail;
                continue;
            }
            // Nothing visible: park. A ring between the load above and
            // this call must abort the park via the epoch check.
            bell.wait_past(e, Duration::from_secs(30));
        }
        prod.join().unwrap();
        assert_eq!(seen, ITEMS);
    }
}
