//! Offline shim for `parking_lot`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the tiny slice of the `parking_lot` API it actually uses as a
//! wrapper over `std::sync`. Semantics differ from the real crate in one
//! deliberate way: these locks do not poison — a panic while holding the
//! lock simply releases it (`parking_lot` behaves the same way).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};

/// Non-poisoning mutual-exclusion lock (std-backed shim).
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: StdMutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poison (parking_lot has no poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => MutexGuard { inner: g },
            Err(p) => MutexGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Non-poisoning reader-writer lock (std-backed shim).
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: StdRwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: StdRwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, ignoring poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(g) => RwLockReadGuard { inner: g },
            Err(p) => RwLockReadGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Acquire an exclusive write guard, ignoring poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(g) => RwLockWriteGuard { inner: g },
            Err(p) => RwLockWriteGuard {
                inner: p.into_inner(),
            },
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &*g).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable paired with [`Mutex`] (std-backed shim).
///
/// Like the real `parking_lot` — and unlike `std`, whose `notify_*` is a
/// futex syscall every time — a notify that finds nobody waiting is one
/// load and a branch. `waiters` counts the threads inside `wait` /
/// `wait_for`: a waiter adds itself while it still holds the paired mutex
/// (before the std wait releases it) and subtracts itself once the std
/// wait has handed the mutex back.
///
/// # No lost wakeup
///
/// Contract (every notifier in the workspace meets it): between changing
/// the predicate and calling `notify_*`, the notifier acquires the paired
/// mutex — it changes the predicate while holding it (`InflightSet::claimed`
/// in `InflightGuard::drop`), or it takes the mutex after the change and
/// notifies under it (`Doorbell::ring`: the epoch is an atomic, the waiter
/// re-checks it under `mu`). Call that critical section `N`, and let `W` be the critical
/// section in which a waiter last found the predicate false. The mutex
/// orders the two:
///
/// * `W` before `N`: the waiter's add is inside `W`, so it happens-before
///   the notifier's acquire in `N` and the notify's load reads >= 1 and
///   forwards to std — unless the waiter has already woken and subtracted,
///   which it does holding the mutex again, where it re-checks the
///   predicate: that re-check is the new `W` and the argument restarts.
/// * `N` before `W`: the change is visible to the waiter's check, which
///   therefore does not find the predicate false.
///
/// A predicate changed with no critical section before the notify loses
/// wakeups on `std`'s condvar too; counting adds no new obligation.
pub struct Condvar {
    inner: StdCondvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified, atomically releasing the guard's lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // The std API consumes and returns the guard; replace it in place.
        take_mut(guard, |g| match self.inner.wait(g.inner) {
            Ok(inner) => MutexGuard { inner },
            Err(p) => MutexGuard {
                inner: p.into_inner(),
            },
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Block until notified or `timeout` elapses, atomically releasing the
    /// guard's lock. Returns `true` if the wait timed out without a
    /// notification (matching `parking_lot`'s `WaitTimeoutResult::timed_out`).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let mut timed_out = false;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        take_mut(guard, |g| {
            let (inner, res) = match self.inner.wait_timeout(g.inner, timeout) {
                Ok(pair) => pair,
                Err(p) => p.into_inner(),
            };
            timed_out = res.timed_out();
            MutexGuard { inner }
        });
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Replace `*dest` through a by-value transform.
///
/// `f` must not panic: the value has been moved out and a panic would
/// abort via double-drop protection. The only callers (`Condvar::wait`
/// and `Condvar::wait_for`) merely forward to the std condvar waits,
/// which do not panic.
fn take_mut<T, F: FnOnce(T) -> T>(dest: &mut T, f: F) {
    // SAFETY: we read `*dest` and unconditionally write a replacement
    // before returning; `f` is infallible per the contract above, so the
    // moved-out value is never observed twice.
    unsafe {
        let old = std::ptr::read(dest);
        let new = f(old);
        std::ptr::write(dest, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_many_readers() {
        let l = Arc::new(RwLock::new(7));
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 14);
    }

    #[test]
    fn mutex_released_after_holder_panics() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poison, the lock is usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // No notifier: a short deadline wait must report the timeout.
        {
            let (lock, cv) = &*pair;
            let mut ready = lock.lock();
            let timed_out = cv.wait_for(&mut ready, std::time::Duration::from_millis(5));
            assert!(timed_out);
            assert!(!*ready);
        }
        // With a notifier the waiter observes the flag before any timeout.
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                let _ = cv.wait_for(&mut ready, std::time::Duration::from_secs(30));
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cv.wait(&mut started);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
        }
        t.join().unwrap();
    }

    /// A waiter that has registered is woken by the next notify, and a
    /// wait that ends — by notify or by timeout — deregisters.
    #[test]
    fn condvar_counts_waiters_and_wakes_the_registered() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let (lock, cv) = &*pair;
            cv.notify_all(); // nobody waits: no effect, no count
            assert!(cv.wait_for(&mut lock.lock(), std::time::Duration::from_millis(1)));
            assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        }
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        let (lock, cv) = &*pair;
        // The count only reaches 1 with the waiter past its predicate
        // check, so from here on a skipped notify would strand it.
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        *lock.lock() = true;
        cv.notify_one();
        t.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    /// Two threads hand a turn back and forth, each notifying after its
    /// flip while the other is anywhere between "about to check" and
    /// "parked": a notify wrongly skipped shows as a timed-out wait.
    #[test]
    fn condvar_ping_pong_loses_no_wakeup() {
        const ROUNDS: u32 = 20_000;
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let play = |me: u32, pair: Arc<(Mutex<u32>, Condvar)>| {
            let (turn, cv) = &*pair;
            for _ in 0..ROUNDS {
                let mut t = turn.lock();
                while *t % 2 != me {
                    let timed_out = cv.wait_for(&mut t, std::time::Duration::from_secs(30));
                    assert!(!timed_out || *t % 2 == me, "lost wakeup at turn {}", *t);
                }
                *t += 1;
                drop(t);
                cv.notify_one();
            }
        };
        let other = pair.clone();
        let t = std::thread::spawn(move || play(1, other));
        play(0, pair.clone());
        t.join().unwrap();
        assert_eq!(*pair.0.lock(), 2 * ROUNDS);
        assert_eq!(pair.1.waiters.load(Ordering::SeqCst), 0);
    }
}
