//! The block-cache engine behind [`crate::lru`] and [`crate::arc_cache`].
//!
//! The index is block-granular: one entry per [`BLOCK`]-byte block, keyed
//! by the block's first sector, whatever the size of the request that
//! brought the bytes. A multi-block write becomes one entry per block (a
//! pool handle by `slice()` refcount bumps, owned bytes as windows of one
//! shared allocation), so capacity is counted in bytes and an overwrite
//! replaces every block it covers. A multi-block read looks every block
//! up, fetches only the smallest run covering the missing ones in one
//! downstream request, and answers with [`BufHandle::join`] when the
//! blocks are adjacent views of one pool slot — no bytes move — or by
//! gathering each byte once into the response.
//!
//! The two cache LabMods are this engine with a different [`Policy`]: the
//! policy decides what stays resident, the engine does everything else
//! (sharding, the in-flight miss guard, write-back, cost accounting).
//!
//! The contract is block-aligned requests (`lba` a multiple of
//! [`BLOCK_SECTORS`]), which every bundled filesystem LabMod honors.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use labstor_core::{BlockOp, LabMod, ModType, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{note_payload_copy, BufHandle};
use labstor_sim::Ctx;

use crate::arc_cache::ArcPolicy;
use crate::lru::LruPolicy;

/// Bytes per cache entry.
pub const BLOCK: usize = 4096;
/// Sectors per cache entry: the key stride between neighbouring blocks.
pub const BLOCK_SECTORS: u64 = (BLOCK / labstor_sim::SECTOR_SIZE) as u64;
/// Copy cost per KB into/out of the cache (same memcpy as the kernel's —
/// the savings come from lock-free access, not magic memory).
const COPY_NS_PER_KB: u64 = 300;

fn copy_cost(bytes: usize) -> u64 {
    (bytes as u64 * COPY_NS_PER_KB) / 1024
}

/// Bytes held by a cache entry: a refcounted read-only window of whatever
/// carried them. Legacy `Vec` traffic is copied once into a shared
/// allocation per request; zero-copy traffic (`WriteBuf`/`ReadBuf`) keeps
/// the pool handle. Either way a block entry is a window, cutting one out
/// is a refcount bump, and adjacent windows of one allocation join back.
#[derive(Clone)]
pub enum CacheData {
    /// Window of an owned allocation (legacy copying path).
    Owned {
        /// The request's bytes, shared by all its block entries.
        bytes: Arc<[u8]>,
        /// Start of this window.
        off: usize,
        /// Length of this window.
        len: usize,
    },
    /// Shared-memory pool handle (zero-copy path).
    Buf(BufHandle),
}

impl CacheData {
    /// Copy `src` into a fresh shared allocation: the one counted copy
    /// that brings legacy bytes into the cache.
    pub fn owned(src: &[u8]) -> CacheData {
        note_payload_copy(src.len());
        CacheData::Owned {
            bytes: Arc::from(src), // copy-ok: legacy bytes enter the cache by one copy per request; counted above
            off: 0,
            len: src.len(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            CacheData::Owned { len, .. } => *len,
            CacheData::Buf(b) => b.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read view of the bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            CacheData::Owned { bytes, off, len } => &bytes[*off..*off + *len],
            CacheData::Buf(b) => b.as_slice(),
        }
    }

    /// A narrowed window of the same bytes (refcount bump, no copy), or
    /// `None` if the range falls outside this one.
    pub fn slice(&self, off: usize, len: usize) -> Option<CacheData> {
        match self {
            CacheData::Owned {
                bytes,
                off: base,
                len: have,
            } => (off.checked_add(len)? <= *have).then(|| CacheData::Owned {
                bytes: Arc::clone(bytes),
                off: base + off,
                len,
            }),
            CacheData::Buf(b) => b.slice(off, len).map(CacheData::Buf),
        }
    }

    /// One window over `self` followed by `next`, when `next` starts in
    /// the same allocation exactly where `self` ends (see
    /// [`BufHandle::join`]); `None` otherwise.
    pub fn join(&self, next: &CacheData) -> Option<CacheData> {
        match (self, next) {
            (CacheData::Buf(a), CacheData::Buf(b)) => a.join(b).map(CacheData::Buf),
            (
                CacheData::Owned { bytes, off, len },
                CacheData::Owned {
                    bytes: next_bytes,
                    off: next_off,
                    len: next_len,
                },
            ) if Arc::ptr_eq(bytes, next_bytes) && off + len == *next_off => {
                Some(CacheData::Owned {
                    bytes: Arc::clone(bytes),
                    off: *off,
                    len: len + next_len,
                })
            }
            _ => None,
        }
    }

    /// The downstream write that carries these bytes: a handle goes as
    /// `WriteBuf` (refcount bump), owned bytes as a legacy `Write`.
    fn into_write(self, lba: u64) -> Payload {
        match self {
            CacheData::Buf(buf) => Payload::Block(BlockOp::WriteBuf { lba, buf }),
            owned => {
                note_payload_copy(owned.len());
                let data = owned.as_slice().to_vec(); // copy-ok: write-back of legacy bytes needs an owned Vec; counted above
                Payload::Block(BlockOp::Write { lba, data })
            }
        }
    }
}

/// Merge write-back victims that are neighbours both on the device and in
/// memory, so the blocks of one cached extent leave as one write.
fn coalesce(mut victims: Vec<(u64, CacheData)>) -> Vec<(u64, CacheData)> {
    victims.sort_unstable_by_key(|&(lba, _)| lba);
    let mut out: Vec<(u64, CacheData)> = Vec::with_capacity(victims.len());
    for (lba, data) in victims {
        if let Some((last_lba, last)) = out.last_mut() {
            let adjacent = *last_lba + (last.len() / labstor_sim::SECTOR_SIZE) as u64 == lba;
            if let Some(joined) = adjacent.then(|| last.join(&data)).flatten() {
                *last = joined;
                continue;
            }
        }
        out.push((lba, data));
    }
    out
}

/// The replacement policy of one cache shard: which blocks are resident.
/// Everything else about a block cache is the engine's.
pub trait Policy: Default + Send + 'static {
    /// LabMod type name of the cache built on this policy.
    const TYPE_NAME: &'static str;
    /// Modeled cost of looking one block up.
    const LOOKUP_NS: u64;
    /// Fewest blocks a shard may be sized to.
    const MIN_BLOCKS: usize;

    /// The resident block at `lba`, recorded as a hit.
    fn touch(&mut self, lba: u64) -> Option<&CacheData>;
    /// The resident block at `lba`, leaving the policy's state alone.
    fn peek(&self, lba: u64) -> Option<&CacheData>;
    /// Insert or replace the block at `lba`, then hand every block pushed
    /// out to keep the shard within `cap` blocks to `evict`.
    fn admit(
        &mut self,
        lba: u64,
        data: CacheData,
        cap: usize,
        evict: &mut dyn FnMut(u64, CacheData),
    );
    /// Remove and return a resident block, coldest first.
    fn pop_coldest(&mut self) -> Option<(u64, CacheData)>;
    /// Number of resident blocks.
    fn resident(&self) -> usize;
}

struct Shard<P> {
    policy: P,
    /// Resident blocks not yet written downstream (write-back only).
    dirty: HashSet<u64>,
}

/// A sharded, block-granular cache LabMod over replacement policy `P`:
/// write-through by default (data enters the cache and is forwarded),
/// optionally write-back (dirty blocks held until flush or eviction).
pub struct BlockCache<P> {
    shards: Box<[Mutex<Shard<P>>]>,
    inflight: InflightSet,
    per_shard_blocks: usize,
    write_back: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<P: Policy> BlockCache<P> {
    /// Cache of `capacity_bytes` split over `shards` independently locked
    /// policy instances (capacity divides evenly; eviction is per shard).
    pub(crate) fn build(capacity_bytes: usize, write_back: bool, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_blocks = (capacity_bytes / BLOCK).max(P::MIN_BLOCKS);
        BlockCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        policy: P::default(),
                        dirty: HashSet::new(),
                    })
                })
                .collect(),
            inflight: InflightSet::new(),
            per_shard_blocks: capacity_blocks.div_ceil(shards).max(P::MIN_BLOCKS),
            write_back,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of shards the index is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// (hits, misses) so far, counted in **blocks**: a 64 KiB read that
    /// finds 15 of its 16 blocks resident adds 15 hits and 1 miss.
    pub fn hit_stats(&self) -> (u64, u64) {
        // relaxed-ok: stat counter; readers tolerate lag
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Blocks resident across all shards.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().policy.resident()).sum()
    }

    /// Inspect one shard's policy state.
    #[cfg(test)]
    pub(crate) fn with_policy<R>(&self, shard: usize, f: impl FnOnce(&P) -> R) -> R {
        f(&self.shards[shard].lock().policy)
    }

    /// Visit the blocks `lba + k * BLOCK_SECTORS`, `k < blocks`, grouped by
    /// shard: each shard's lock is taken at most once, in ascending shard
    /// order, and never two at a time.
    fn for_blocks(
        &self,
        lba: u64,
        blocks: usize,
        mut visit: impl FnMut(&mut Shard<P>, usize, u64),
    ) {
        let nshards = self.shards.len();
        for (s, shard) in self.shards.iter().enumerate() {
            let mut guard = None;
            for k in 0..blocks {
                let key = lba + k as u64 * BLOCK_SECTORS;
                if shard_of(key, nshards) == s {
                    visit(guard.get_or_insert_with(|| shard.lock()), k, key);
                }
            }
        }
    }

    /// Fill the empty slots of `found` with the resident blocks of the
    /// `len`-byte range at `lba` that are long enough to serve it.
    fn lookup(&self, lba: u64, len: usize, found: &mut [Option<CacheData>]) {
        self.for_blocks(lba, found.len(), |shard, k, key| {
            if found[k].is_none() {
                let need = BLOCK.min(len - k * BLOCK);
                found[k] = shard.policy.touch(key).filter(|d| d.len() >= need).cloned();
            }
        });
    }

    /// Enter the blocks of `data` (an extent starting at `lba`) for which
    /// `want(k)` holds, one entry per block, and return the dirty blocks
    /// this pushed out.
    fn insert(
        &self,
        lba: u64,
        data: &CacheData,
        want: impl Fn(usize) -> bool,
        dirty: bool,
    ) -> Vec<(u64, CacheData)> {
        let mut victims = Vec::new();
        let cap = self.per_shard_blocks;
        self.for_blocks(lba, data.len().div_ceil(BLOCK), |shard, k, key| {
            if !want(k) {
                return;
            }
            let off = k * BLOCK;
            let Some(block) = data.slice(off, BLOCK.min(data.len() - off)) else {
                return;
            };
            let Shard { policy, dirty: set } = shard;
            if dirty {
                set.insert(key);
            } else if !set.is_empty() {
                set.remove(&key);
            }
            policy.admit(key, block, cap, &mut |vlba, vdata| {
                if !set.is_empty() && set.remove(&vlba) {
                    victims.push((vlba, vdata));
                }
            });
        });
        victims
    }

    /// Write evicted or flushed dirty blocks downstream, neighbours merged.
    fn write_back(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        victims: Vec<(u64, CacheData)>,
    ) -> Result<(), RespPayload> {
        for (lba, data) in coalesce(victims) {
            let r = env.forward(ctx, req.derive(data.into_write(lba)));
            if !r.is_ok() {
                return Err(r);
            }
        }
        Ok(())
    }

    /// The write path: index every block of the extent, then forward
    /// (write-through) or acknowledge (write-back).
    fn write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        cached: CacheData,
    ) -> RespPayload {
        let victims = self.insert(lba, &cached, |_| true, self.write_back);
        if let Err(e) = self.write_back(ctx, env, &req, victims) {
            return e;
        }
        if self.write_back {
            RespPayload::Len(cached.len())
        } else {
            env.forward(ctx, req)
        }
    }

    /// The read path. `zero_copy` selects the response shape: a `ReadBuf`
    /// whose blocks are adjacent views of one pool slot answers with a
    /// refcounted `DataBuf` (no memcpy, no copy charge); everything else
    /// gathers into a `Vec` and is charged + counted.
    fn read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        len: usize,
        zero_copy: bool,
    ) -> RespPayload {
        let blocks = len.div_ceil(BLOCK).max(1);
        ctx.advance(P::LOOKUP_NS * blocks as u64);
        // A single-block read stays off the heap.
        let mut one = [None];
        let mut many: Vec<Option<CacheData>>;
        let found: &mut [Option<CacheData>] = if blocks == 1 {
            &mut one
        } else {
            many = (0..blocks).map(|_| None).collect();
            &mut many
        };
        self.lookup(lba, len, found);
        let fetched_blocks = 'fetch: {
            let Some((first, last)) = missing_run(found) else {
                break 'fetch 0;
            };
            // Claim the run so concurrent misses on any of its blocks wait
            // here instead of each fetching downstream, then re-check —
            // the winner's insert turns the losers' misses into hits.
            let claim = self
                .inflight
                .claim(lba + first as u64 * BLOCK_SECTORS, last - first + 1);
            self.lookup(lba, len, found);
            let Some((first, last)) = missing_run(found) else {
                break 'fetch 0;
            };
            // One downstream request for the smallest run that covers
            // every missing block. Resident blocks inside the run are
            // served from the cache all the same: they may be dirty.
            let run_lba = lba + first as u64 * BLOCK_SECTORS;
            let run_len = len.min((last + 1) * BLOCK) - first * BLOCK;
            let fetch = if zero_copy {
                BlockOp::ReadBuf {
                    lba: run_lba,
                    len: run_len,
                }
            } else {
                BlockOp::Read {
                    lba: run_lba,
                    len: run_len,
                }
            };
            let resp = env.forward(ctx, req.derive(Payload::Block(fetch)));
            let fetched = match &resp {
                // Zero-copy downstream: cache the handle by refcount bump.
                RespPayload::DataBuf(h) => CacheData::Buf(h.clone()),
                RespPayload::Data(d) => {
                    ctx.advance(copy_cost(d.len()));
                    CacheData::owned(d)
                }
                _ => return resp,
            };
            if fetched.len() < run_len {
                return RespPayload::Err("short block read".into());
            }
            let missing = found.iter().filter(|b| b.is_none()).count();
            let victims = self.insert(run_lba, &fetched, |k| found[first + k].is_none(), false);
            drop(claim);
            if let Err(e) = self.write_back(ctx, env, &req, victims) {
                return e;
            }
            // relaxed-ok: stat counter; readers tolerate lag
            self.misses.fetch_add(missing as u64, Ordering::Relaxed);
            if missing == blocks {
                // Nothing was resident: what came back is the answer.
                return resp;
            }
            for (k, slot) in found.iter_mut().enumerate().skip(first) {
                if slot.is_none() {
                    let off = (k - first) * BLOCK;
                    *slot = fetched.slice(off, BLOCK.min(fetched.len() - off));
                }
            }
            missing
        };
        // relaxed-ok: stat counter; readers tolerate lag
        self.hits
            .fetch_add((blocks - fetched_blocks) as u64, Ordering::Relaxed);
        answer(ctx, found, len, zero_copy)
    }

    /// Take every dirty block (now clean), shard by shard.
    fn take_dirty(&self) -> Vec<(u64, CacheData)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            let Shard { policy, dirty } = &mut *shard;
            out.extend(
                dirty
                    .drain()
                    .filter_map(|lba| Some((lba, policy.peek(lba)?.clone()))),
            );
        }
        out
    }

    /// Remove every block, coldest first per shard, with its dirty flag
    /// (hot swaps pull warm state out with this; nothing is copied).
    fn drain(&self) -> Vec<(u64, CacheData, bool)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            while let Some((lba, data)) = shard.policy.pop_coldest() {
                let dirty = shard.dirty.remove(&lba);
                out.push((lba, data, dirty));
            }
        }
        out
    }

    /// Take over `prev`'s warm blocks in its recency order.
    fn absorb<Q: Policy>(&self, prev: &BlockCache<Q>) {
        for (lba, data, dirty) in prev.drain() {
            // What does not fit the successor is dropped here, dirty or
            // not: there is no downstream to write to during an upgrade.
            self.insert(lba, &data, |_| true, dirty);
        }
    }
}

/// First and last index of the empty slots, if any.
fn missing_run(found: &[Option<CacheData>]) -> Option<(usize, usize)> {
    let first = found.iter().position(Option::is_none)?;
    let last = found.iter().rposition(Option::is_none)?;
    Some((first, last))
}

/// One handle over all of `found`, when every block is a pool handle and
/// each starts where the previous one ends in the same slot.
fn join_all(found: &mut [Option<CacheData>]) -> Option<BufHandle> {
    if let [only] = found {
        // A single block moves out: no extra refcount round trip.
        return match only.take() {
            Some(CacheData::Buf(h)) => Some(h),
            other => {
                *only = other;
                None
            }
        };
    }
    let mut handles = found.iter().map(|slot| match slot {
        Some(CacheData::Buf(h)) => Some(h),
        _ => None,
    });
    let mut joined = handles.next()??.join(handles.next()??)?;
    for h in handles {
        joined = joined.join(h?)?;
    }
    Some(joined)
}

/// Build the response from the blocks of a `len`-byte read, all present.
fn answer(
    ctx: &mut Ctx,
    found: &mut [Option<CacheData>],
    len: usize,
    zero_copy: bool,
) -> RespPayload {
    if zero_copy {
        if let Some(mut h) = join_all(found) {
            // The zero-copy hit: refcount bumps, no bytes move.
            h.truncate(len);
            return RespPayload::DataBuf(h);
        }
    }
    // Gather: each byte moves once, from its entry into the response.
    note_payload_copy(len);
    ctx.advance(copy_cost(len));
    let mut out = Vec::with_capacity(len);
    for block in found.iter().flatten() {
        let take = block.len().min(len - out.len());
        out.extend_from_slice(&block.as_slice()[..take]); // copy-ok: the copying hit; counted and charged above
    }
    RespPayload::Data(out)
}

// labmod-default-ok: a cache's contents re-warm from misses after a crash (a write-back cache's unflushed blocks are lost with it, as the mode implies); state_update migrates them across upgrades
impl<P: Policy> LabMod for BlockCache<P> {
    fn type_name(&self) -> &'static str {
        P::TYPE_NAME
    }

    fn mod_type(&self) -> ModType {
        ModType::Cache
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        match &req.payload {
            Payload::Block(BlockOp::Write { lba, data }) => {
                // One copy into the cache, one into the DMA-safe buffer
                // handed downstream — "the page cache takes 17% of time
                // due to data copying" (Fig. 4a). One lookup charge per
                // request: the index is updated, not searched.
                ctx.advance(P::LOOKUP_NS + 2 * copy_cost(data.len()));
                let (lba, cached) = (*lba, CacheData::owned(data));
                self.write(ctx, env, req, lba, cached)
            }
            Payload::Block(BlockOp::WriteBuf { lba, buf }) => {
                // Zero-copy write: the cache keeps refcounts on the pool
                // buffer — no memcpy, so only the lookup is charged.
                ctx.advance(P::LOOKUP_NS);
                let (lba, cached) = (*lba, CacheData::Buf(buf.clone()));
                self.write(ctx, env, req, lba, cached)
            }
            Payload::Block(BlockOp::Read { lba, len }) => {
                let (lba, len) = (*lba, *len);
                self.read(ctx, env, req, lba, len, false)
            }
            Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                let (lba, len) = (*lba, *len);
                self.read(ctx, env, req, lba, len, true)
            }
            Payload::Block(BlockOp::Flush) => {
                // Write all dirty blocks, then pass the barrier down.
                match self.write_back(ctx, env, &req, self.take_dirty()) {
                    Ok(()) => env.forward(ctx, req),
                    Err(e) => e,
                }
            }
            _ => env.forward(ctx, req),
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        P::LOOKUP_NS + 2 * copy_cost(req.payload_bytes())
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Hot-swapping cache policies: warm state moves across from
        // either flavor (handles and windows by refcount — no byte copies).
        let old = old.as_any();
        if let Some(prev) = old.downcast_ref::<BlockCache<LruPolicy>>() {
            self.absorb(prev);
        } else if let Some(prev) = old.downcast_ref::<BlockCache<ArcPolicy>>() {
            self.absorb(prev);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The in-flight miss guard. A miss claims the run of blocks it is about
/// to fetch; a second miss touching any of them waits for the claim to
/// clear and re-checks the cache instead of double-fetching (and
/// double-inserting) the blocks. A run is claimed whole or not at all,
/// under one mutex, so two multi-block claims cannot deadlock.
#[derive(Default)]
pub struct InflightSet {
    claimed: Mutex<HashSet<u64>>,
    /// Signaled by [`InflightGuard`]'s drop so losers park instead of
    /// burning a CPU spinning for the winner's (possibly slow, device-
    /// bound) downstream fetch to finish.
    released: Condvar,
}

impl InflightSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claim the `blocks` blocks starting at `lba`, parking on a condvar
    /// while another miss holds any of them. The returned guard releases
    /// the claim (and wakes waiters) on drop.
    pub fn claim(&self, lba: u64, blocks: usize) -> InflightGuard<'_> {
        let guard = InflightGuard {
            set: self,
            lba,
            blocks,
        };
        let mut claimed = self.claimed.lock();
        while guard.keys().any(|k| claimed.contains(&k)) {
            self.released.wait(&mut claimed);
        }
        claimed.extend(guard.keys());
        drop(claimed);
        guard
    }
}

/// RAII claim on a run of blocks being miss-fetched; dropping releases it.
pub struct InflightGuard<'a> {
    set: &'a InflightSet,
    lba: u64,
    blocks: usize,
}

impl InflightGuard<'_> {
    fn keys(&self) -> impl Iterator<Item = u64> {
        let lba = self.lba;
        (0..self.blocks as u64).map(move |k| lba + k * BLOCK_SECTORS)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut claimed = self.set.claimed.lock();
        for key in self.keys() {
            claimed.remove(&key);
        }
        drop(claimed);
        // Wake everyone: waiters on other blocks re-check and sleep again;
        // waiters on these race to claim them (one wins, rest re-wait).
        self.set.released.notify_all();
    }
}

/// Shard index for an lba (splitmix-style avalanche so sequential lbas
/// spread evenly).
pub fn shard_of(lba: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = lba.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % shards as u64) as usize
}

/// Test doubles shared by the cache test suites: a byte-addressed
/// terminal device and a two-vertex stack around a cache instance.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_core::ModuleManager;
    use labstor_ipc::{BufferPool, Credentials};

    /// Terminal "device": a flat byte array addressed by sector, so what
    /// a read returns depends on the bytes written, not on how requests
    /// were cut. Unwritten bytes read as zero.
    pub(crate) struct MemDev {
        pub bytes: Mutex<Vec<u8>>,
        pub writes: AtomicU64,
        /// Every read request seen, as `(lba, len)`.
        pub reads: Mutex<Vec<(u64, usize)>>,
        /// Lands `ReadBuf` completions in this pool (else answers `Data`).
        pub pool: Option<BufferPool>,
        /// Real-time stall per read, to widen race windows in tests.
        pub read_stall: std::time::Duration,
    }

    impl MemDev {
        pub fn new() -> Self {
            MemDev {
                bytes: Mutex::new(Vec::new()),
                writes: AtomicU64::new(0),
                reads: Mutex::new(Vec::new()),
                pool: None,
                read_stall: std::time::Duration::ZERO,
            }
        }

        pub fn poke(&self, lba: u64, src: &[u8]) {
            let at = lba as usize * labstor_sim::SECTOR_SIZE;
            let mut bytes = self.bytes.lock();
            if bytes.len() < at + src.len() {
                bytes.resize(at + src.len(), 0);
            }
            bytes[at..at + src.len()].copy_from_slice(src);
        }

        pub fn peek(&self, lba: u64, len: usize) -> Vec<u8> {
            let at = lba as usize * labstor_sim::SECTOR_SIZE;
            let bytes = self.bytes.lock();
            let mut out = vec![0u8; len];
            if at < bytes.len() {
                let have = len.min(bytes.len() - at);
                out[..have].copy_from_slice(&bytes[at..at + have]);
            }
            out
        }

        pub fn read_count(&self) -> usize {
            self.reads.lock().len()
        }

        pub fn write_count(&self) -> u64 {
            self.writes.load(Ordering::Relaxed)
        }
    }

    impl LabMod for MemDev {
        fn type_name(&self) -> &'static str {
            "memdev"
        }
        fn mod_type(&self) -> ModType {
            ModType::Driver
        }
        fn process(&self, _ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
            match req.payload {
                Payload::Block(BlockOp::Write { lba, data }) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    self.poke(lba, &data);
                    RespPayload::Len(data.len())
                }
                Payload::Block(BlockOp::WriteBuf { lba, buf }) => {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                    self.poke(lba, buf.as_slice());
                    RespPayload::Len(buf.len())
                }
                Payload::Block(BlockOp::Read { lba, len }) => {
                    self.reads.lock().push((lba, len));
                    std::thread::sleep(self.read_stall);
                    RespPayload::Data(self.peek(lba, len))
                }
                Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                    self.reads.lock().push((lba, len));
                    std::thread::sleep(self.read_stall);
                    let data = self.peek(lba, len);
                    match self.pool.as_ref().and_then(|p| p.alloc(len)) {
                        Some(mut h) => {
                            assert!(h.fill(&data));
                            RespPayload::DataBuf(h)
                        }
                        None => RespPayload::Data(data),
                    }
                }
                _ => RespPayload::Ok,
            }
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// A `cache → dev` stack executed inline.
    pub(crate) struct Rig {
        pub mm: ModuleManager,
        pub stack: LabStack,
        pub dev: Arc<MemDev>,
    }

    impl Rig {
        /// Mount `cache` in front of `dev`.
        pub fn around(cache: Arc<dyn LabMod>, dev: MemDev) -> Rig {
            let mm = ModuleManager::new();
            mm.insert_instance("cache", cache);
            let dev = Arc::new(dev);
            mm.insert_instance("dev", dev.clone());
            let stack = LabStack {
                id: 1,
                mount: "x".into(),
                exec: ExecMode::Sync,
                vertices: vec![
                    Vertex {
                        uuid: "cache".into(),
                        outputs: vec![1],
                    },
                    Vertex {
                        uuid: "dev".into(),
                        outputs: vec![],
                    },
                ],
                authorized_uids: vec![],
            };
            Rig { mm, stack, dev }
        }

        /// Instantiate `type_name` through its registered factory.
        pub fn mount(type_name: &str, params: serde_json::Value, dev: MemDev) -> Rig {
            let mm = ModuleManager::new();
            crate::lru::install(&mm);
            crate::arc_cache::install(&mm);
            mm.instantiate("cache", type_name, &params).unwrap();
            Rig::around(mm.get("cache").unwrap(), dev)
        }

        pub fn cache(&self) -> Arc<dyn LabMod> {
            self.mm.get("cache").unwrap()
        }

        pub fn exec(&self, payload: Payload, ctx: &mut Ctx) -> RespPayload {
            let env = StackEnv::new(&self.stack, 0, &self.mm, 0);
            let req = Request::new(1, 1, payload, Credentials::ROOT);
            self.cache().process(ctx, req, &env)
        }

        pub fn write(&self, ctx: &mut Ctx, block: u64, data: Vec<u8>) -> RespPayload {
            let lba = block * BLOCK_SECTORS;
            self.exec(Payload::Block(BlockOp::Write { lba, data }), ctx)
        }

        pub fn read(&self, ctx: &mut Ctx, block: u64, len: usize) -> RespPayload {
            let lba = block * BLOCK_SECTORS;
            self.exec(Payload::Block(BlockOp::Read { lba, len }), ctx)
        }

        pub fn read_buf(&self, ctx: &mut Ctx, block: u64, len: usize) -> RespPayload {
            let lba = block * BLOCK_SECTORS;
            self.exec(Payload::Block(BlockOp::ReadBuf { lba, len }), ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{MemDev, Rig};
    use super::*;
    use labstor_ipc::{BufferPool, PoolConfig};
    use proptest::prelude::*;

    #[test]
    fn inflight_claim_covers_the_run_and_releases_on_drop() {
        let set = InflightSet::new();
        {
            let _g = set.claim(8, 3);
            let claimed = set.claimed.lock();
            assert!([8, 16, 24].iter().all(|k| claimed.contains(k)));
            assert!(!claimed.contains(&32) && !claimed.contains(&0));
        }
        assert!(set.claimed.lock().is_empty());
        let _g2 = set.claim(16, 1); // reclaimable after release
    }

    #[test]
    fn shard_spread_is_even_enough() {
        let mut counts = [0usize; 8];
        for lba in 0..8000u64 {
            counts[shard_of(lba, 8)] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "shard starved: {counts:?}");
        }
    }

    #[test]
    fn windows_slice_and_join_like_handles() {
        let whole = CacheData::owned(b"abcdefgh");
        let (a, b, c) = (
            whole.slice(0, 3).unwrap(),
            whole.slice(3, 2).unwrap(),
            whole.slice(5, 3).unwrap(),
        );
        assert_eq!(b.as_slice(), b"de");
        assert!(whole.slice(7, 2).is_none());
        assert_eq!(a.join(&b).unwrap().as_slice(), b"abcde");
        assert_eq!(
            a.join(&b).unwrap().join(&c).unwrap().as_slice(),
            b"abcdefgh"
        );
        assert!(a.join(&c).is_none(), "gap");
        assert!(b.join(&a).is_none(), "reversed order");
        assert!(
            a.join(&CacheData::owned(b"de")).is_none(),
            "another allocation"
        );
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 1)],
        });
        let h = CacheData::Buf(pool.alloc_from(b"de").unwrap());
        assert!(a.join(&h).is_none() && h.join(&a).is_none(), "mixed arms");
    }

    #[test]
    fn victims_of_one_extent_coalesce_into_one_write() {
        let whole = CacheData::owned(&[7u8; 4 * BLOCK]);
        let block = |k: usize| {
            (
                k as u64 * BLOCK_SECTORS,
                whole.slice(k * BLOCK, BLOCK).unwrap(),
            )
        };
        // Out of order, with block 2 missing: {0,1} merge, {3} stands alone.
        let merged = coalesce(vec![block(3), block(1), block(0)]);
        let shape: Vec<(u64, usize)> = merged.iter().map(|(l, d)| (*l, d.len())).collect();
        assert_eq!(shape, vec![(0, 2 * BLOCK), (3 * BLOCK_SECTORS, BLOCK)]);
        // Device neighbours from different allocations stay apart.
        let other = CacheData::owned(&[8u8; BLOCK]);
        assert_eq!(coalesce(vec![block(0), (BLOCK_SECTORS, other)]).len(), 2);
    }

    /// One step of the model-checked op stream (block units).
    #[derive(Debug, Clone)]
    enum Op {
        Write { block: u64, blocks: usize, seed: u8 },
        WriteBuf { block: u64, blocks: usize, seed: u8 },
        Read { block: u64, blocks: usize },
        ReadBuf { block: u64, blocks: usize },
        Flush,
    }

    const SPACE: u64 = 96; // blocks addressed by the op stream

    fn op_strategy() -> impl Strategy<Value = Op> {
        let extent = || (0u64..SPACE - 32, 1usize..33);
        prop_oneof![
            (extent(), any::<u8>()).prop_map(|((block, blocks), seed)| Op::Write {
                block,
                blocks,
                seed
            }),
            (extent(), any::<u8>()).prop_map(|((block, blocks), seed)| Op::WriteBuf {
                block,
                blocks,
                seed
            }),
            extent().prop_map(|(block, blocks)| Op::Read { block, blocks }),
            extent().prop_map(|(block, blocks)| Op::ReadBuf { block, blocks }),
            (0u8..1).prop_map(|_| Op::Flush),
        ]
    }

    /// Bytes only `(seed, position)` produce, different in every block.
    fn pattern(seed: u8, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| seed.wrapping_mul(31).wrapping_add((i / 97) as u8) ^ (i as u8))
            .collect()
    }

    /// Drive `ops` through a cache over `P` and a flat model side by side.
    fn check_against_flat_model<P: Policy>(
        ops: &[Op],
        shards: usize,
        write_back: bool,
    ) -> Result<(), TestCaseError> {
        // One class, so every handle the run creates is visible in `live`.
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(32 * BLOCK, 64)],
        });
        let mut dev = MemDev::new();
        dev.pool = Some(pool.clone());
        // 8 blocks of capacity against extents of up to 32: eviction on
        // nearly every op, including of blocks the same request inserted.
        let cache = BlockCache::<P>::build(8 * BLOCK, write_back, shards);
        let rig = Rig::around(Arc::new(cache), dev);
        let mut model = vec![0u8; SPACE as usize * BLOCK];
        let mut ctx = Ctx::new();
        for op in ops {
            let reads_before = rig.dev.read_count();
            match *op {
                Op::Write {
                    block,
                    blocks,
                    seed,
                } => {
                    let data = pattern(seed, blocks * BLOCK);
                    let at = block as usize * BLOCK;
                    model[at..at + data.len()].copy_from_slice(&data);
                    prop_assert!(rig.write(&mut ctx, block, data).is_ok());
                }
                Op::WriteBuf {
                    block,
                    blocks,
                    seed,
                } => {
                    let data = pattern(seed, blocks * BLOCK);
                    let at = block as usize * BLOCK;
                    model[at..at + data.len()].copy_from_slice(&data);
                    let buf = pool.alloc_from(&data).expect("cache does not pin the pool");
                    let lba = block * BLOCK_SECTORS;
                    let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
                    prop_assert!(r.is_ok());
                }
                Op::Read { block, blocks } | Op::ReadBuf { block, blocks } => {
                    let len = blocks * BLOCK;
                    let resp = match op {
                        Op::Read { .. } => rig.read(&mut ctx, block, len),
                        _ => rig.read_buf(&mut ctx, block, len),
                    };
                    let at = block as usize * BLOCK;
                    prop_assert!(
                        resp.data_bytes() == Some(&model[at..at + len]),
                        "{:?} returned wrong bytes",
                        op
                    );
                    // The missing blocks come from the device in at most
                    // one request, and it stays inside what was asked for.
                    let reads = rig.dev.reads.lock();
                    prop_assert!(reads.len() - reads_before <= 1, "{:?} read twice", op);
                    if let Some(&(lba, got)) = reads.get(reads_before) {
                        let lo = block * BLOCK_SECTORS;
                        let hi = lo + blocks as u64 * BLOCK_SECTORS;
                        let end = lba + (got / labstor_sim::SECTOR_SIZE) as u64;
                        prop_assert!(lo <= lba && end <= hi && lba % BLOCK_SECTORS == 0);
                    }
                }
                Op::Flush => {
                    prop_assert!(rig.exec(Payload::Block(BlockOp::Flush), &mut ctx).is_ok());
                    prop_assert!(
                        rig.dev.peek(0, model.len()) == model,
                        "flush left dirty data"
                    );
                }
            }
            if !matches!(op, Op::Read { .. } | Op::ReadBuf { .. }) {
                prop_assert!(rig.dev.read_count() == reads_before, "writes never read");
            }
            if !write_back {
                prop_assert!(rig.dev.peek(0, model.len()) == model, "write-through lags");
            }
        }
        drop(rig);
        prop_assert!(pool.live() == 0, "{} handles leaked", pool.live());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of single- and multi-block reads, writes
        /// and flushes over both policies, 1 and 4 shards, write-through
        /// and write-back: every read equals a flat byte model, each
        /// request fetches at most one run, and no handle outlives the
        /// cache.
        #[test]
        fn reads_match_a_flat_model(
            ops in proptest::collection::vec(op_strategy(), 1..60),
            sharded in any::<bool>(),
            write_back in any::<bool>(),
        ) {
            let shards = if sharded { 4 } else { 1 };
            check_against_flat_model::<LruPolicy>(&ops, shards, write_back)?;
            check_against_flat_model::<ArcPolicy>(&ops, shards, write_back)?;
        }
    }
}
