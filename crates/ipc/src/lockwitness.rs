//! Runtime lock-order witness: `OrderedMutex`/`OrderedRwLock` wrappers
//! that enforce the workspace lock-class discipline dynamically.
//!
//! Every lock is tagged with a static [`LockClass`] drawn from the same
//! registry labcheck's `lock-order` lint declares (`labcheck::lint::
//! Config::labstor`, DESIGN.md §"Lock classes & ordering"): classes must
//! be acquired in ascending rank, a non-`nest_within` class may never be
//! held twice by one thread, and `nest_within` classes (the sharded chunk
//! locks) may only nest in ascending instance-address order.
//!
//! In debug builds each thread keeps a stack of held classes; a violating
//! acquisition panics *before blocking* with both backtraces (the held
//! lock's acquisition site and the violating one), turning a potential
//! deadlock into an immediate, attributable test failure. In release
//! builds the wrappers compile down to the plain `parking_lot`
//! primitives: no thread-local, no branch, so the BENCH gates measure the
//! real thing.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One equivalence class of locks in the workspace-wide partial order.
///
/// `rank` mirrors the static registry in `labcheck`; the
/// `lock_registry_matches_labcheck` test keeps the two in sync.
#[derive(Debug)]
pub struct LockClass {
    /// Registry name, e.g. `pagecache.shard`.
    pub(crate) name: &'static str,
    /// Position in the global acquisition order (acquire ascending).
    pub(crate) rank: u16,
    /// Whether two instances of this class may nest (ascending instance
    /// address only) — the sharded chunk-lock pattern.
    pub(crate) nest_within: bool,
}

/// Tenant policy/accounting table (`labstor_qos::TenantTable`). Acquired
/// after the Runtime's rebalance locks (ranks 10–34) during the
/// weighted-fair pass, and must be released before any pool or page-cache
/// lock is taken.
pub static TENANT_TABLE: LockClass = LockClass {
    name: "qos.tenants",
    rank: 36,
    nest_within: false,
};

/// Per-tenant token-bucket state. Nests inside a `qos.tenants` read hold
/// (admission resolves the tenant, then charges its bucket) and is a leaf
/// with respect to the data-path locks below.
pub static TENANT_BUCKET: LockClass = LockClass {
    name: "qos.bucket",
    rank: 38,
    nest_within: false,
};

/// The kernel page cache's lock (`PageCache`: one LRU, one mutex).
pub static PAGECACHE_SHARD: LockClass = LockClass {
    name: "pagecache.shard",
    rank: 70,
    nest_within: false,
};

/// Shared-memory region chunk locks (acquired ascending for multi-chunk
/// transfers).
pub static SHMEM_CHUNK: LockClass = LockClass {
    name: "shmem.chunk",
    rank: 78,
    nest_within: true,
};

/// Buffer-pool debug handle tracker (leaf: nothing nests inside it).
pub static POOL_TRACKER: LockClass = LockClass {
    name: "pool.tracker",
    rank: 90,
    nest_within: false,
};

#[cfg(debug_assertions)]
mod witness {
    use super::LockClass;
    use std::backtrace::Backtrace;
    use std::cell::RefCell;

    struct Held {
        class: &'static LockClass,
        addr: usize,
        acquired_at: Backtrace,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Check `class`/`addr` against everything this thread holds, then
    /// record it. Runs *before* the underlying lock call so a violation
    /// panics instead of deadlocking.
    pub(super) fn enter(class: &'static LockClass, addr: usize) {
        HELD.with(|cell| {
            let held = cell.borrow();
            for h in held.iter() {
                if h.addr == addr {
                    die(
                        "self-deadlock: re-acquiring a lock this thread already holds",
                        class,
                        addr,
                        h,
                    );
                }
                if std::ptr::eq(h.class, class) {
                    if !class.nest_within {
                        die(
                            "lock-reentry: second acquisition of a non-reentrant class",
                            class,
                            addr,
                            h,
                        );
                    }
                    if addr < h.addr {
                        die(
                            "lock-order: same-class nesting must acquire instances in \
                             ascending address order",
                            class,
                            addr,
                            h,
                        );
                    }
                } else if class.rank <= h.class.rank {
                    die(
                        "lock-order: acquiring a class at or below a held class's rank",
                        class,
                        addr,
                        h,
                    );
                }
            }
            drop(held);
            cell.borrow_mut().push(Held {
                class,
                addr,
                acquired_at: Backtrace::capture(),
            });
        });
    }

    /// Remove the entry for `addr`. Searched by token rather than popped
    /// so guards dropped out of acquisition order stay correct.
    pub(super) fn exit(addr: usize) {
        HELD.with(|cell| {
            let mut held = cell.borrow_mut();
            if let Some(i) = held.iter().rposition(|h| h.addr == addr) {
                held.remove(i);
            }
        });
    }

    fn die(kind: &str, acquiring: &'static LockClass, addr: usize, conflict: &Held) -> ! {
        panic!(
            "lockwitness: {kind}\n  \
             acquiring `{}` (rank {}, instance {:#x})\n  \
             conflicts with held `{}` (rank {}, instance {:#x})\n\
             held lock acquired at:\n{}\n\
             violating acquisition at:\n{}",
            acquiring.name,
            acquiring.rank,
            addr,
            conflict.class.name,
            conflict.class.rank,
            conflict.addr,
            conflict.acquired_at,
            Backtrace::capture(),
        );
    }

    /// Guard-held token: its drop releases the witness entry.
    pub(super) struct Token(usize);

    impl Token {
        pub(super) fn acquire(class: &'static LockClass, addr: usize) -> Token {
            enter(class, addr);
            Token(addr)
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            exit(self.0);
        }
    }
}

/// A [`parking_lot::Mutex`] tagged with a [`LockClass`] and checked by the
/// debug-build witness.
pub struct OrderedMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: Mutex<T>,
}

/// Guard for [`OrderedMutex::lock`]; releases the witness entry on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    // Field order matters: the lock must be released before the witness
    // entry, so a contending thread never observes entry-without-lock.
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` in a mutex belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedMutex {
            class,
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// Acquire, checking this thread's held classes first (debug builds).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::Token::acquire(self.class, self.addr());
        OrderedMutexGuard {
            inner: self.inner.lock(), // lock-class: (caller)
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    #[cfg(debug_assertions)]
    fn addr(&self) -> usize {
        self as *const Self as *const u8 as usize
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// A [`parking_lot::RwLock`] tagged with a [`LockClass`] and checked by
/// the debug-build witness. Readers and writers are witnessed alike: a
/// recursive read can still deadlock behind a queued writer, so the
/// discipline treats every acquisition the same way.
pub struct OrderedRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: RwLock<T>,
}

/// Guard for [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T: ?Sized> {
    inner: RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

/// Guard for [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    inner: RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: witness::Token,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` in an rwlock belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// Shared acquire, witness-checked in debug builds.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::Token::acquire(self.class, self.addr());
        OrderedReadGuard {
            inner: self.inner.read(), // lock-class: (caller)
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Exclusive acquire, witness-checked in debug builds.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = witness::Token::acquire(self.class, self.addr());
        OrderedWriteGuard {
            inner: self.inner.write(), // lock-class: (caller)
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    #[cfg(debug_assertions)]
    fn addr(&self) -> usize {
        self as *const Self as *const u8 as usize
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("class", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The witness only exists in debug builds; every panic-expecting test
    // is gated so `--release` test runs (where the wrappers are plain
    // parking_lot) don't hang or spuriously fail.

    fn catch(f: impl FnOnce() + Send + 'static) -> Option<String> {
        std::thread::spawn(f)
            .join()
            .err()
            .map(|e| match e.downcast::<String>() {
                Ok(s) => *s,
                Err(e) => e
                    .downcast::<&'static str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
            })
    }

    #[test]
    #[cfg(debug_assertions)]
    fn self_reentry_panics_instead_of_deadlocking() {
        let msg = catch(|| {
            let m = OrderedMutex::new(&PAGECACHE_SHARD, 0u32);
            let _a = m.lock();
            let _b = m.lock(); // would deadlock without the witness
        })
        .expect("witness should panic");
        assert!(msg.contains("self-deadlock"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn same_class_reentry_on_nonreentrant_class_panics() {
        let msg = catch(|| {
            let a = OrderedMutex::new(&PAGECACHE_SHARD, 0u32);
            let b = OrderedMutex::new(&PAGECACHE_SHARD, 0u32);
            let _a = a.lock();
            let _b = b.lock();
        })
        .expect("witness should panic");
        assert!(msg.contains("lock-reentry"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rank_inversion_panics_with_both_sites() {
        let msg = catch(|| {
            let chunk = OrderedRwLock::new(&SHMEM_CHUNK, ());
            let shard = OrderedMutex::new(&PAGECACHE_SHARD, ());
            let _c = chunk.read(); // rank 78
            let _s = shard.lock(); // rank 70: descending
        })
        .expect("witness should panic");
        assert!(msg.contains("lock-order"), "{msg}");
        assert!(msg.contains("pagecache.shard"), "{msg}");
        assert!(msg.contains("shmem.chunk"), "{msg}");
        assert!(msg.contains("held lock acquired at"), "{msg}");
        assert!(msg.contains("violating acquisition at"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn descending_chunk_instances_panic() {
        let msg = catch(|| {
            let chunks: Vec<_> = (0..3)
                .map(|_| OrderedRwLock::new(&SHMEM_CHUNK, ()))
                .collect();
            let _b = chunks[1].read();
            let _a = chunks[0].read(); // descending instance
        })
        .expect("witness should panic");
        assert!(msg.contains("ascending address order"), "{msg}");
    }

    #[test]
    fn ascending_chunk_sweep_is_clean() {
        // The fixed PR 5 multi-chunk protocol: ascending up-front
        // acquisition, then release all.
        let chunks: Vec<_> = (0..4)
            .map(|_| OrderedRwLock::new(&SHMEM_CHUNK, ()))
            .collect();
        let guards: Vec<_> = chunks.iter().map(|c| c.read()).collect();
        drop(guards);
        let _w = chunks[2].write();
    }

    #[test]
    fn ascending_ranks_are_clean() {
        let shard = OrderedMutex::new(&PAGECACHE_SHARD, ());
        let chunk = OrderedRwLock::new(&SHMEM_CHUNK, ());
        let tracker = OrderedMutex::new(&POOL_TRACKER, ());
        let _s = shard.lock();
        let _c = chunk.write();
        let _t = tracker.lock();
    }

    #[test]
    fn non_lifo_guard_drop_releases_the_right_entry() {
        let shard = OrderedMutex::new(&PAGECACHE_SHARD, ());
        let tracker = OrderedMutex::new(&POOL_TRACKER, ());
        let s = shard.lock();
        let t = tracker.lock();
        drop(s); // out of acquisition order
        drop(t);
        // Both entries gone: a fresh ascending sequence is clean.
        let _s = shard.lock();
        let _t = tracker.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn planted_inversion_across_threads_is_caught() {
        // Two threads taking pagecache.shard and shmem.chunk in opposite
        // orders: the classic ABBA deadlock. The witness catches the
        // descending thread deterministically, on every schedule, without
        // needing the timing to actually deadlock.
        use std::sync::Arc;
        let shard = Arc::new(OrderedMutex::new(&PAGECACHE_SHARD, ()));
        let chunk = Arc::new(OrderedRwLock::new(&SHMEM_CHUNK, ()));

        let (s1, c1) = (shard.clone(), chunk.clone());
        let good = std::thread::spawn(move || {
            let _s = s1.lock();
            let _c = c1.read();
        });
        assert!(good.join().is_ok());

        let msg = catch(move || {
            let _c = chunk.read();
            let _s = shard.lock();
        })
        .expect("witness should panic on the inverted thread");
        assert!(msg.contains("lock-order"), "{msg}");
    }
}
