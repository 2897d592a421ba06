//! The kernel page cache model.
//!
//! Buffered I/O in Linux lands in the page cache: reads fill 4 KB pages
//! from the device and copy them to user space; writes copy user data into
//! pages and mark them dirty for later writeback. Fig. 4a of the paper
//! charges 17% of a 4 KB write to "the page cache … due to data copying" —
//! the copy and lookup costs here are calibrated to that.
//!
//! Concurrency: real data is protected by a real mutex; *modeled* lock
//! contention (what multiple threads would pay on the testbed) is charged
//! through a virtual [`Resource`], so scalability shapes survive the
//! virtual-time design (see `labstor_sim::time`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use labstor_ipc::lockwitness::{OrderedMutex, PAGECACHE_SHARD};
use labstor_sim::{Ctx, Resource};

use crate::cost;

/// Page size in bytes (x86-64).
pub(crate) const PAGE_SIZE: usize = 4096;

/// Key of a cached page: (inode, page index).
pub(crate) type PageKey = (u64, u64);

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// The hasher of [`LruMap`]'s index: one multiply per key word, unkeyed.
/// A client can choose keys — a raw block stack passes its `lba` straight
/// to the cache, and an `(inode, page)` pair follows the file offsets an
/// application picks — so it can make them collide. What that buys it is
/// bounded: the map never holds more entries than the cache's capacity in
/// blocks, so a flood of colliding keys lengthens probes within that many
/// entries and evicts the rest; it cannot grow the table. Std's SipHash
/// defends against that at the cost of most of a lookup on every hit.
///
/// `finish` folds the high half down: block keys are multiples of eight
/// sectors, a product keeps the factor of eight in its low bits, and the
/// table indexes buckets by the low bits — a bare multiply would leave
/// seven buckets in eight empty. The top bits, which the table's control
/// bytes use, are the multiply's best-mixed ones already.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// An LRU map with O(1) touch/insert/evict, built on a slab of doubly
/// linked entries. Used by the page cache and reusable for other caches.
pub struct LruMap<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: std::hash::Hash + Eq + Clone, V> LruMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        LruMap {
            map: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Get a value and mark it most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.slab[idx].value.as_mut()
    }

    /// Peek without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).and_then(|&i| self.slab[i].value.as_ref())
    }

    /// Insert (or replace) a value as most-recently-used. Returns the
    /// previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return self.slab[idx].value.replace(value);
        }
        let idx = if let Some(i) = self.free.pop() {
            self.slab[i] = Entry {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.slab.push(Entry {
                key: key.clone(),
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        None
    }

    /// Remove a key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx].value.take()
    }

    /// Evict the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.slab[idx].key.clone();
        self.map.remove(&key);
        self.unlink(idx);
        self.free.push(idx);
        let value = self.slab[idx].value.take().expect("live entry has a value");
        Some((key, value))
    }

    /// Iterate over `(key, &value)` pairs in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map
            .iter()
            .filter_map(|(k, &idx)| self.slab[idx].value.as_ref().map(|v| (k, v)))
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> Default for LruMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A cached page: its bytes plus dirty state. The page owns its bytes;
/// a writeback snapshot ([`Evicted`]) shares them by refcount.
pub(crate) struct Page {
    /// Page contents (always [`PAGE_SIZE`] bytes).
    pub(crate) data: Arc<[u8]>,
    /// Set when the page holds data not yet written back.
    pub(crate) dirty: bool,
}

/// A dirty page handed back to the filesystem for writeback. `data` is a
/// refcounted view of the page bytes (no deep copy at eviction); if the
/// page is written again before writeback completes, copy-on-write in
/// [`PageCache::write`] preserves this snapshot.
pub(crate) struct Evicted {
    /// (inode, page index) of the evicted page.
    pub(crate) key: PageKey,
    /// Page contents at eviction time.
    pub(crate) data: Arc<[u8]>,
}

/// What the cache mutex guards: the LRU and a count of its dirty pages
/// (so [`PageCache::dirty_bytes`] is a read, not a scan).
struct Inner {
    pages: LruMap<PageKey, Page>,
    dirty_pages: usize,
}

impl Inner {
    /// The dirty count equals a scan of the LRU (debug builds only).
    fn check_dirty_count(&self) {
        debug_assert_eq!(
            self.dirty_pages,
            self.pages.iter().filter(|(_, p)| p.dirty).count()
        );
    }
}

fn zeroed_page() -> Arc<[u8]> {
    Arc::from([0u8; PAGE_SIZE])
}

/// The page cache: 4 KB pages with dirty tracking in one LRU behind one
/// lock — the copying baseline the paper's figures compare LabStor
/// against. Eviction is exact: an insert past capacity evicts at once.
pub(crate) struct PageCache {
    inner: OrderedMutex<Inner>,
    /// Virtual-time serialization of tree/LRU manipulation (mapping lock).
    lock: Resource,
    capacity_pages: usize,
}

impl PageCache {
    /// Cache bounded at `capacity_bytes` (rounded down to whole pages,
    /// minimum one page).
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        PageCache {
            inner: OrderedMutex::new(
                &PAGECACHE_SHARD,
                Inner {
                    pages: LruMap::new(),
                    dirty_pages: 0,
                },
            ),
            lock: Resource::new(),
            capacity_pages: (capacity_bytes / PAGE_SIZE).max(1),
        }
    }

    /// Charge the per-page mapping-lock cost, serialized across threads.
    fn charge_lock(&self, ctx: &mut Ctx) {
        let (_, end) = self.lock.acquire(ctx.now(), cost::PAGE_LOOKUP_NS); // lock-class: pagecache.maplock
        ctx.poll_until(end);
    }

    /// Copy `data` into the cache at byte `offset` of `ino`, marking pages
    /// dirty. A page the copy covers only in part and that misses starts
    /// from what `fill` fetches (with the cache mutex released), so its
    /// other bytes survive; a `false` from `fill` stops the copy there.
    /// Returns dirty pages evicted to make room (for writeback); clean
    /// victims are silently dropped.
    pub(crate) fn write(
        &self,
        ctx: &mut Ctx,
        ino: u64,
        offset: u64,
        data: &[u8],
        mut fill: impl FnMut(&mut Ctx, u64, &mut [u8]) -> bool,
    ) -> Vec<Evicted> {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let pgidx = abs / PAGE_SIZE as u64;
            let pgoff = (abs % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - pgoff).min(data.len() - pos);
            let key = (ino, pgidx);
            self.charge_lock(ctx);
            cost::copy(ctx, n);
            let mut base = zeroed_page();
            let partial_miss = n < PAGE_SIZE && {
                let inner = self.inner.lock(); // lock-class: pagecache.shard
                inner.pages.peek(&key).is_none()
            };
            if partial_miss && !fill(ctx, pgidx, Arc::get_mut(&mut base).expect("fresh page")) {
                break;
            }
            let mut inner = self.inner.lock(); // lock-class: pagecache.shard
            if inner.pages.peek(&key).is_none() {
                inner.pages.insert(
                    key,
                    Page {
                        data: base,
                        dirty: false,
                    },
                );
            }
            let page = inner.pages.get(&key).expect("present under the held lock");
            if Arc::get_mut(&mut page.data).is_none() {
                // A writeback snapshot still shares the bytes: copy on
                // write, so the snapshot keeps what it was taken with.
                labstor_ipc::note_payload_copy(PAGE_SIZE);
                page.data = Arc::from(&page.data[..]);
            }
            let bytes = Arc::get_mut(&mut page.data).expect("page unique under the held lock");
            bytes[pgoff..pgoff + n].copy_from_slice(&data[pos..pos + n]);
            let newly_dirty = !std::mem::replace(&mut page.dirty, true);
            inner.dirty_pages += usize::from(newly_dirty);
            drop(inner);
            pos += n;
        }
        // Evict once the whole copy is in: the same least recently used
        // pages go as when each page made its own room, but none of this
        // write's pages leaves before a later one in it is filled.
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock(); // lock-class: pagecache.shard
        while inner.pages.len() > self.capacity_pages {
            match inner.pages.pop_lru() {
                Some((k, p)) if p.dirty => {
                    inner.dirty_pages -= 1;
                    evicted.push(Evicted {
                        key: k,
                        data: p.data,
                    });
                }
                Some(_) => {}
                None => break,
            }
        }
        inner.check_dirty_count();
        evicted
    }

    /// Read `buf.len()` bytes at byte `offset` of `ino`. For each page
    /// miss, `fill` fetches the page from the device (with the cache
    /// mutex released); returning `false` aborts the read. On success
    /// returns the number of misses; `Err` carries no payload because the
    /// filesystem owns the real error (it is produced inside `fill`).
    #[allow(clippy::result_unit_err)]
    pub(crate) fn read(
        &self,
        ctx: &mut Ctx,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
        mut fill: impl FnMut(&mut Ctx, u64, &mut [u8]) -> bool,
    ) -> Result<usize, ()> {
        let mut misses = 0usize;
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let pgidx = abs / PAGE_SIZE as u64;
            let pgoff = (abs % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - pgoff).min(buf.len() - pos);
            let key = (ino, pgidx);
            self.charge_lock(ctx);
            let hit = {
                let mut inner = self.inner.lock(); // lock-class: pagecache.shard
                match inner.pages.get(&key) {
                    Some(page) => {
                        labstor_ipc::note_payload_copy(n);
                        buf[pos..pos + n].copy_from_slice(&page.data[pgoff..pgoff + n]);
                        true
                    }
                    None => false,
                }
            };
            if !hit {
                misses += 1;
                let mut data = zeroed_page();
                if !fill(ctx, pgidx, Arc::get_mut(&mut data).expect("fresh page")) {
                    return Err(());
                }
                buf[pos..pos + n].copy_from_slice(&data[pgoff..pgoff + n]);
                let mut inner = self.inner.lock(); // lock-class: pagecache.shard
                inner.pages.insert(key, Page { data, dirty: false });
                while inner.pages.len() > self.capacity_pages {
                    // Dirty LRU victims must not be lost: push them back as
                    // most-recent and stop (the cache temporarily exceeds
                    // capacity until writeback — dirty-ratio throttling).
                    match inner.pages.pop_lru() {
                        Some((k, p)) if p.dirty => {
                            inner.pages.insert(k, p);
                            break;
                        }
                        Some(_) => {}
                        None => break,
                    }
                }
                inner.check_dirty_count();
            }
            cost::copy(ctx, n);
            pos += n;
        }
        Ok(misses)
    }

    /// Take every dirty page belonging to `ino` (fsync) or to all inodes
    /// (`None`, sync). Pages are marked clean and returned in page order
    /// for writeback. Each snapshot is a refcount bump, not a deep copy —
    /// a racing re-write of the page copy-on-writes, leaving the
    /// writeback snapshot intact.
    pub(crate) fn take_dirty(&self, ctx: &mut Ctx, ino: Option<u64>) -> Vec<Evicted> {
        self.charge_lock(ctx);
        let mut inner = self.inner.lock(); // lock-class: pagecache.shard
        let mut keys: Vec<PageKey> = inner
            .pages
            .iter()
            .filter(|(k, p)| ino.is_none_or(|i| k.0 == i) && p.dirty)
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        inner.dirty_pages -= keys.len();
        let out = keys
            .into_iter()
            .map(|key| {
                let page = inner.pages.get(&key).expect("key just seen");
                page.dirty = false;
                Evicted {
                    key,
                    data: Arc::clone(&page.data),
                }
            })
            .collect();
        inner.check_dirty_count();
        out
    }

    /// Drop every cached page of `ino` at or beyond `from_page`
    /// (truncate invalidation).
    pub(crate) fn invalidate_from(&self, ino: u64, from_page: u64) {
        let mut inner = self.inner.lock(); // lock-class: pagecache.shard
        let keys: Vec<PageKey> = inner
            .pages
            .iter()
            .map(|(k, _)| *k)
            .filter(|k| k.0 == ino && k.1 >= from_page)
            .collect();
        for k in keys {
            if inner.pages.remove(&k).is_some_and(|p| p.dirty) {
                inner.dirty_pages -= 1;
            }
        }
        inner.check_dirty_count();
    }

    /// Drop every page of `ino` (unlink / cache invalidation).
    pub(crate) fn invalidate(&self, ino: u64) {
        self.invalidate_from(ino, 0);
    }

    /// Bytes of dirty data currently cached.
    pub(crate) fn dirty_bytes(&self) -> usize {
        self.inner.lock().dirty_pages * PAGE_SIZE // lock-class: pagecache.shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_insert_get_evict() {
        let mut l: LruMap<u32, u32> = LruMap::new();
        l.insert(1, 10);
        l.insert(2, 20);
        l.insert(3, 30);
        assert_eq!(l.get(&1), Some(&mut 10)); // touch 1
        let (k, v) = l.pop_lru().unwrap();
        assert_eq!((k, v), (2, 20)); // 2 is now least-recent
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn lru_replace_returns_old() {
        let mut l: LruMap<u32, u32> = LruMap::new();
        l.insert(1, 10);
        assert_eq!(l.insert(1, 11), Some(10));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn lru_remove_and_reuse_slot() {
        let mut l: LruMap<u32, u32> = LruMap::new();
        l.insert(1, 10);
        l.insert(2, 20);
        assert_eq!(l.remove(&1), Some(10));
        assert_eq!(l.remove(&1), None);
        l.insert(3, 30); // reuses the freed slot
        assert_eq!(l.peek(&3), Some(&30));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn lru_pop_on_empty() {
        let mut l: LruMap<u32, u32> = LruMap::new();
        assert!(l.pop_lru().is_none());
        l.insert(1, 1);
        l.pop_lru().unwrap();
        assert!(l.pop_lru().is_none());
    }

    #[test]
    fn block_keys_spread_over_the_low_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        // 4096 block keys (multiples of 8 sectors) into 4096 buckets by
        // the low 12 bits, as the table indexes them. Uniform hashing fills
        // ~63 % of the buckets; without the fold only one in eight can be.
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let mut used = [false; 4096];
        for block in 0..4096u64 {
            used[(hasher.hash_one(block * 8) & 4095) as usize] = true;
        }
        let filled = used.iter().filter(|&&u| u).count();
        assert!(filled > 2048, "{filled} of 4096 buckets used");
    }

    #[test]
    fn cache_write_then_read_hits() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        let data: Vec<u8> = (0..8192).map(|i| (i % 250) as u8).collect();
        let ev = pc.write(&mut ctx, 1, 100, &data, |_, _, _| true);
        assert!(ev.is_empty());
        let mut out = vec![0u8; 8192];
        let misses = pc
            .read(&mut ctx, 1, 100, &mut out, |_, _, _| {
                panic!("must not miss")
            })
            .unwrap();
        assert_eq!(misses, 0);
        assert_eq!(out, data);
    }

    #[test]
    fn cache_miss_calls_fill() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        let mut out = vec![0u8; 4096];
        let misses = pc
            .read(&mut ctx, 9, 0, &mut out, |_, pgidx, page| {
                assert_eq!(pgidx, 0);
                page.fill(7);
                true
            })
            .unwrap();
        assert_eq!(misses, 1);
        assert!(out.iter().all(|&b| b == 7));
        // Second read hits.
        let misses = pc
            .read(&mut ctx, 9, 0, &mut out, |_, _, _| panic!("cached"))
            .unwrap();
        assert_eq!(misses, 0);
    }

    #[test]
    fn failed_fill_aborts_read() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        let mut out = vec![0u8; 4096];
        assert!(pc.read(&mut ctx, 9, 0, &mut out, |_, _, _| false).is_err());
    }

    #[test]
    fn eviction_returns_dirty_pages() {
        let pc = PageCache::new(2 * PAGE_SIZE); // 2-page cache
        let mut ctx = Ctx::new();
        let page = vec![1u8; PAGE_SIZE];
        assert!(pc.write(&mut ctx, 1, 0, &page, |_, _, _| true).is_empty());
        assert!(pc
            .write(&mut ctx, 1, PAGE_SIZE as u64, &page, |_, _, _| true)
            .is_empty());
        let ev = pc.write(&mut ctx, 1, 2 * PAGE_SIZE as u64, &page, |_, _, _| true);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, (1, 0)); // the oldest page went out
    }

    #[test]
    fn read_never_evicts_a_dirty_page() {
        let pc = PageCache::new(2 * PAGE_SIZE); // 2-page cache
        let mut ctx = Ctx::new();
        pc.write(&mut ctx, 1, 0, &[1u8; PAGE_SIZE], |_, _, _| true);
        pc.write(
            &mut ctx,
            1,
            PAGE_SIZE as u64,
            &[2u8; PAGE_SIZE],
            |_, _, _| true,
        );
        let mut out = vec![0u8; PAGE_SIZE];
        let mut miss = |pc: &PageCache, ctx: &mut Ctx, pgidx: u64| {
            pc.read(ctx, 1, pgidx * PAGE_SIZE as u64, &mut out, |_, _, page| {
                page.fill(9);
                true
            })
            .unwrap()
        };
        // A miss on a cache full of dirty pages goes over capacity rather
        // than drop one: both are still there for writeback, intact.
        assert_eq!(miss(&pc, &mut ctx, 2), 1);
        assert_eq!(pc.inner.lock().pages.len(), 3);
        assert_eq!(pc.dirty_bytes(), 2 * PAGE_SIZE);
        let dirty = pc.take_dirty(&mut ctx, None);
        assert_eq!(dirty.len(), 2);
        for (i, d) in dirty.iter().enumerate() {
            assert_eq!(d.key, (1, i as u64));
            assert!(d.data.iter().all(|&b| b == i as u8 + 1));
        }
        // Once they are clean the next miss evicts back down to capacity.
        assert_eq!(miss(&pc, &mut ctx, 3), 1);
        assert_eq!(pc.inner.lock().pages.len(), 2);
        assert_eq!(pc.dirty_bytes(), 0);
    }

    #[test]
    fn take_dirty_per_inode() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        pc.write(&mut ctx, 1, 0, &[1u8; PAGE_SIZE], |_, _, _| true);
        pc.write(&mut ctx, 2, 0, &[2u8; PAGE_SIZE], |_, _, _| true);
        let d1 = pc.take_dirty(&mut ctx, Some(1));
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].key.0, 1);
        // Pages are now clean: second take returns nothing.
        assert!(pc.take_dirty(&mut ctx, Some(1)).is_empty());
        // Inode 2 still dirty via the "all" path.
        assert_eq!(pc.take_dirty(&mut ctx, None).len(), 1);
    }

    #[test]
    fn invalidate_drops_pages() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        pc.write(&mut ctx, 5, 0, &[1u8; PAGE_SIZE], |_, _, _| true);
        pc.invalidate(5);
        assert!(pc.inner.lock().pages.is_empty());
    }

    #[test]
    fn write_charges_copy_cost() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        pc.write(&mut ctx, 1, 0, &[0u8; 4096], |_, _, _| true);
        assert!(ctx.now() >= cost::copy_ns(4096));
    }

    #[test]
    fn write_after_snapshot_copy_on_writes() {
        let pc = PageCache::new(1 << 20);
        let mut ctx = Ctx::new();
        pc.write(&mut ctx, 4, 0, &[1u8; PAGE_SIZE], |_, _, _| true);
        let snap = pc.take_dirty(&mut ctx, Some(4)).pop().unwrap();
        // Re-write the page while the writeback snapshot is live.
        let copies_before = labstor_ipc::payload_copies();
        pc.write(&mut ctx, 4, 0, &[2u8; PAGE_SIZE], |_, _, _| true);
        // The copy is counted. (The counter is process-wide and other
        // tests run beside this one, so only a lower bound is race-free;
        // that the page was copied once and no longer shares the
        // snapshot's bytes is the refcount below.)
        assert!(labstor_ipc::payload_copies() > copies_before);
        assert_eq!(Arc::strong_count(&snap.data), 1);
        // The snapshot still sees the old bytes; the cache sees the new.
        assert!(snap.data.iter().all(|&b| b == 1));
        let mut out = vec![0u8; PAGE_SIZE];
        pc.read(&mut ctx, 4, 0, &mut out, |_, _, _| panic!("hit"))
            .unwrap();
        assert!(out.iter().all(|&b| b == 2));
    }

    #[test]
    fn concurrent_lock_charges_serialize() {
        // Two actors touching the cache at the same virtual instant: the
        // second one's lock acquisition starts after the first's hold.
        let pc = PageCache::new(1 << 20);
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        pc.write(&mut a, 1, 0, &[0u8; 512], |_, _, _| true);
        pc.write(&mut b, 2, 0, &[0u8; 512], |_, _, _| true);
        assert!(
            b.now() > a.now() - cost::copy_ns(512),
            "b queued behind a's lock hold"
        );
    }
}
