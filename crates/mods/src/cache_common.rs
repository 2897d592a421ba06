//! The block-cache engine behind [`crate::lru`] and [`crate::arc_cache`].
//!
//! The index is block-granular: one entry per [`BLOCK`]-byte block, keyed
//! by the block's first sector, whatever the size of the request that
//! brought the bytes. A multi-block write becomes one entry per block (a
//! pool handle by `slice()` refcount bumps, owned bytes as windows of one
//! shared allocation), so capacity is counted in bytes and an overwrite
//! replaces every block it covers. A request's blocks are walked as one
//! run under the index's one lock. A `ReadBuf` whose blocks are all
//! resident, adjacent views of one pool slot grows one handle over them
//! by reference ([`BufHandle::extend_with`]) and answers with it — one
//! refcount bump, no bytes move. Any other read takes its blocks by
//! value, fetches only the smallest run covering the missing ones in one
//! downstream request, and gathers each byte once into the response.
//!
//! The two cache LabMods are this engine with a different [`Policy`]: the
//! policy decides what stays resident, the engine does everything else
//! (the in-flight miss guard, write-back, cost accounting).
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

    /// Grow this window in place over `next`, when `next` starts in the
    /// same allocation exactly where `self` ends (see
    /// [`BufHandle::extend_with`]); `false`, and no change, otherwise.
    pub fn extend_with(&mut self, next: &CacheData) -> bool {
        match (self, next) {
            (CacheData::Buf(a), CacheData::Buf(b)) => a.extend_with(b),
            (
                CacheData::Owned { bytes, off, len },
                CacheData::Owned {
                    bytes: next_bytes,
                    off: next_off,
                    len: next_len,
                },
            ) if Arc::ptr_eq(bytes, next_bytes) && *off + *len == *next_off => {
                *len += next_len;
                true
            }
            _ => false,
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
            if adjacent && last.extend_with(&data) {
                continue;
            }
        }
        out.push((lba, data));
    }
    out
}

/// The replacement policy of a block cache: which blocks are resident.
/// Everything else about the cache is the engine's.
pub trait Policy: Default + Send + 'static {
    /// LabMod type name of the cache built on this policy.
    const TYPE_NAME: &'static str;
    /// Modeled cost of looking one block up.
    const LOOKUP_NS: u64;
    /// Fewest blocks a cache may be sized to.
    const MIN_BLOCKS: usize;

    /// The resident block at `lba`, recorded as a hit.
    fn touch(&mut self, lba: u64) -> Option<&CacheData>;
    /// The resident block at `lba`, leaving the policy's state alone.
    fn peek(&self, lba: u64) -> Option<&CacheData>;
    /// Insert or replace the block at `lba`, then hand every block pushed
    /// out to keep the cache within `cap` blocks to `evict`.
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

/// What the cache's one lock guards.
struct Index<P> {
    policy: P,
    /// Resident blocks not yet written downstream: a write-back cache's
    /// own, or ones absorbed from a write-back predecessor in a hot swap.
    /// Std's hasher stays: reads never hash it, and a write-through cache
    /// hashes it only while such absorbed blocks remain.
    dirty: HashSet<u64>,
}

/// A block-granular cache LabMod over replacement policy `P`:
/// write-through by default (data is forwarded, and enters the cache once
/// the next stage has taken it), optionally write-back (dirty blocks held
/// until flush or eviction).
pub struct BlockCache<P> {
    index: Mutex<Index<P>>,
    inflight: InflightSet,
    capacity_blocks: usize,
    write_back: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<P: Policy> BlockCache<P> {
    /// Cache of `capacity_bytes`, in whole blocks.
    pub(crate) fn build(capacity_bytes: usize, write_back: bool) -> Self {
        BlockCache {
            index: Mutex::new(Index {
                policy: P::default(),
                dirty: HashSet::new(),
            }),
            inflight: InflightSet::new(),
            capacity_blocks: (capacity_bytes / BLOCK).max(P::MIN_BLOCKS),
            write_back,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
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

    /// Blocks resident.
    pub fn resident_blocks(&self) -> usize {
        self.index.lock().policy.resident()
    }

    /// Inspect the policy's state.
    #[cfg(test)]
    pub(crate) fn with_policy<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        f(&self.index.lock().policy)
    }

    /// The zero-copy hit: one handle over the `len`-byte range at `lba`,
    /// when every block of it is resident as a pool handle that starts
    /// where the one before ends in the same slot. The blocks are walked
    /// by reference under the lock — one refcount bump for the run, none
    /// per block, nothing on the heap. Otherwise `Err(n)`: the first `n`
    /// blocks have been through [`Policy::touch`] and the rest have not.
    fn joined_hit(&self, lba: u64, len: usize, blocks: usize) -> Result<BufHandle, usize> {
        let mut index = self.index.lock();
        let mut run = None;
        for k in 0..blocks {
            let need = BLOCK.min(len - k * BLOCK);
            let block = index.policy.touch(lba + k as u64 * BLOCK_SECTORS);
            if !block.is_some_and(|d| d.len() >= need && grow(&mut run, d)) {
                return Err(k + 1);
            }
        }
        let mut run = run.ok_or(blocks)?;
        run.truncate(len);
        Ok(run)
    }

    /// Fill the empty slots of `found` with the resident blocks of the
    /// `len`-byte range at `lba` that are long enough to serve it. The
    /// first `touched` blocks have been through [`Policy::touch`] for this
    /// request already and are only peeked at, so a request records each
    /// of its hits once.
    fn lookup(&self, lba: u64, len: usize, found: &mut [Option<CacheData>], touched: usize) {
        let mut index = self.index.lock();
        for (k, slot) in found.iter_mut().enumerate() {
            if slot.is_none() {
                let key = lba + k as u64 * BLOCK_SECTORS;
                let need = BLOCK.min(len - k * BLOCK);
                let block = if k < touched {
                    index.policy.peek(key)
                } else {
                    index.policy.touch(key)
                };
                *slot = block.filter(|d| d.len() >= need).cloned();
            }
        }
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
        let mut index = self.index.lock();
        let Index { policy, dirty: set } = &mut *index;
        for k in (0..data.len().div_ceil(BLOCK)).filter(|&k| want(k)) {
            let off = k * BLOCK;
            let Some(block) = data.slice(off, BLOCK.min(data.len() - off)) else {
                continue;
            };
            let key = lba + k as u64 * BLOCK_SECTORS;
            if dirty {
                set.insert(key);
            } else if !set.is_empty() {
                set.remove(&key);
            }
            policy.admit(key, block, self.capacity_blocks, &mut |vlba, vdata| {
                if !set.is_empty() && set.remove(&vlba) {
                    victims.push((vlba, vdata));
                }
            });
        }
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

    /// The write path. Write-through forwards first and indexes the extent
    /// only once the next stage has taken it, so bytes the device refused
    /// never become resident; write-back indexes and acknowledges. Either
    /// way the dirty blocks this pushes out are written back: a
    /// write-through cache makes none of its own but may have absorbed
    /// some from a write-back predecessor in a hot swap.
    fn write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        cached: CacheData,
    ) -> RespPayload {
        if !self.write_back {
            // `forward` consumes the request; write-backs derive from this.
            let origin = req.derive(Payload::Block(BlockOp::Flush));
            let resp = env.forward(ctx, req);
            if resp.is_ok() {
                let victims = self.insert(lba, &cached, |_| true, false);
                if let Err(e) = self.write_back(ctx, env, &origin, victims) {
                    return e;
                }
            }
            return resp;
        }
        let victims = self.insert(lba, &cached, |_| true, true);
        match self.write_back(ctx, env, &req, victims) {
            Ok(()) => RespPayload::Len(cached.len()),
            Err(e) => e,
        }
    }

    /// The read path. `zero_copy` selects the response shape: a `ReadBuf`
    /// whose blocks are all resident, adjacent views of one pool slot
    /// answers with a refcounted `DataBuf` (no memcpy, no copy charge) —
    /// found so at once, or after waiting out another request's fetch of
    /// them. A read that misses every block is answered with what the next
    /// stage returned. Everything else — a legacy `Read`, a run this
    /// request fetched some blocks of, blocks of different slots — gathers
    /// into a `Vec` and is charged + counted.
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
        let touched = match zero_copy.then(|| self.joined_hit(lba, len, blocks)) {
            Some(Ok(h)) => {
                // relaxed-ok: stat counter; readers tolerate lag
                self.hits.fetch_add(blocks as u64, Ordering::Relaxed);
                return RespPayload::DataBuf(h);
            }
            Some(Err(touched)) => touched,
            None => 0,
        };
        // Not one joinable run: take the blocks by value, so that they
        // outlive the lock across the fetch. A single-block read stays off
        // the heap.
        let mut one = [None];
        let mut many: Vec<Option<CacheData>>;
        let found: &mut [Option<CacheData>] = if blocks == 1 {
            &mut one
        } else {
            many = (0..blocks).map(|_| None).collect();
            &mut many
        };
        self.lookup(lba, len, found, touched);
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
            self.lookup(lba, len, found, 0);
            let Some((first, last)) = missing_run(found) else {
                // The winner's fetch made every block resident, usually as
                // views of the one slot it landed in: one run after all.
                if let Some(h) = zero_copy.then(|| joined(found, len)).flatten() {
                    // relaxed-ok: stat counter; readers tolerate lag
                    self.hits.fetch_add(blocks as u64, Ordering::Relaxed);
                    return RespPayload::DataBuf(h);
                }
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
        gather(ctx, found, len)
    }

    /// Take every dirty block (now clean).
    fn take_dirty(&self) -> Vec<(u64, CacheData)> {
        let mut index = self.index.lock();
        let Index { policy, dirty } = &mut *index;
        dirty
            .drain()
            .filter_map(|lba| Some((lba, policy.peek(lba)?.clone())))
            .collect()
    }

    /// Remove every block, coldest first, with its dirty flag (hot swaps
    /// pull warm state out with this; nothing is copied).
    fn drain(&self) -> Vec<(u64, CacheData, bool)> {
        let mut index = self.index.lock();
        let mut out = Vec::new();
        while let Some((lba, data)) = index.policy.pop_coldest() {
            let dirty = index.dirty.remove(&lba);
            out.push((lba, data, dirty));
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

/// Start `run` as a clone of `block`'s pool handle, or grow it in place
/// over a handle that starts where it ends; `false` for anything else.
fn grow(run: &mut Option<BufHandle>, block: &CacheData) -> bool {
    match (run, block) {
        (Some(run), CacheData::Buf(h)) => run.extend_with(h),
        (run, CacheData::Buf(h)) => {
            *run = Some(h.clone());
            true
        }
        _ => false,
    }
}

/// One handle over the first `len` bytes of `found`'s blocks, all present,
/// when they are one run of pool handles.
fn joined(found: &[Option<CacheData>], len: usize) -> Option<BufHandle> {
    let mut run = None;
    if !found.iter().flatten().all(|block| grow(&mut run, block)) {
        return None;
    }
    let mut run = run?;
    run.truncate(len);
    Some(run)
}

/// Build the response from the blocks of a `len`-byte read, all present:
/// each byte moves once, from its entry into the response.
fn gather(ctx: &mut Ctx, found: &[Option<CacheData>], len: usize) -> RespPayload {
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
    /// Std's hasher stays: a key is hashed only on a miss, next to the
    /// downstream request that fetches it.
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
        /// While set, every write is refused and stores nothing.
        pub fail_writes: std::sync::atomic::AtomicBool,
    }

    impl MemDev {
        pub fn new() -> Self {
            MemDev {
                bytes: Mutex::new(Vec::new()),
                writes: AtomicU64::new(0),
                reads: Mutex::new(Vec::new()),
                pool: None,
                read_stall: std::time::Duration::ZERO,
                fail_writes: std::sync::atomic::AtomicBool::new(false),
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
            let refused = self.fail_writes.load(Ordering::SeqCst);
            match req.payload {
                Payload::Block(BlockOp::Write { .. } | BlockOp::WriteBuf { .. }) if refused => {
                    RespPayload::Err("write refused".into())
                }
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
    fn windows_slice_and_extend_like_handles() {
        let whole = CacheData::owned(b"abcdefgh");
        let (a, b, c) = (
            whole.slice(0, 3).unwrap(),
            whole.slice(3, 2).unwrap(),
            whole.slice(5, 3).unwrap(),
        );
        assert_eq!(b.as_slice(), b"de");
        assert!(whole.slice(7, 2).is_none());
        let mut run = a.clone();
        assert!(!run.extend_with(&c), "gap");
        assert!(run.extend_with(&b));
        assert_eq!(run.as_slice(), b"abcde");
        assert!(!run.extend_with(&b), "overlap");
        assert!(run.extend_with(&c));
        assert_eq!(run.as_slice(), b"abcdefgh");
        assert!(!b.clone().extend_with(&a), "reversed order");
        assert!(
            !a.clone().extend_with(&CacheData::owned(b"de")),
            "another allocation"
        );
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(64, 1)],
        });
        let h = CacheData::Buf(pool.alloc_from(b"de").unwrap());
        assert!(
            !a.clone().extend_with(&h) && !h.clone().extend_with(&a),
            "mixed arms"
        );
        assert_eq!(a.as_slice(), b"abc", "a refusal leaves the window alone");
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

    /// The cache the LRU engine must be indistinguishable from, kept the
    /// naive way: resident block numbers, coldest first, each with the
    /// pool allocation its entry is a view of (`None`: owned bytes).
    #[derive(Default)]
    struct NaiveLru {
        blocks: Vec<(u64, Option<u32>)>,
        allocations: u32,
    }

    impl NaiveLru {
        fn origin(&self, block: u64) -> Option<Option<u32>> {
            self.blocks.iter().find(|e| e.0 == block).map(|e| e.1)
        }

        fn touch(&mut self, block: u64) {
            if let Some(i) = self.blocks.iter().position(|e| e.0 == block) {
                let entry = self.blocks.remove(i);
                self.blocks.push(entry);
            }
        }

        fn admit(&mut self, block: u64, origin: Option<u32>) {
            self.blocks.retain(|e| e.0 != block);
            self.blocks.push((block, origin));
            if self.blocks.len() > CAPACITY {
                self.blocks.remove(0);
            }
        }

        fn allocation(&mut self) -> Option<u32> {
            self.allocations += 1;
            Some(self.allocations)
        }

        /// Replay a read of `blocks` through the list — every resident
        /// block touched once in ascending order, then the missing ones
        /// admitted in ascending order as views of what the fetch brought
        /// — and say whether the answer must be a `DataBuf`.
        fn read(&mut self, blocks: std::ops::Range<u64>, zero_copy: bool) -> bool {
            let origins: Vec<_> = blocks.clone().map(|b| self.origin(b)).collect();
            // A handle comes back for one joinable run (consecutive blocks
            // of one allocation are adjacent in it) and for a full miss,
            // which passes the device's own response up.
            let one_slot =
                origins[0].flatten().is_some() && origins.iter().all(|o| *o == origins[0]);
            let data_buf = zero_copy && (one_slot || origins.iter().all(Option::is_none));
            for (block, _) in blocks.clone().zip(&origins).filter(|(_, o)| o.is_some()) {
                self.touch(block);
            }
            if origins.iter().any(Option::is_none) {
                let fetched = zero_copy.then(|| self.allocation()).flatten();
                for (block, _) in blocks.zip(&origins).filter(|(_, o)| o.is_none()) {
                    self.admit(block, fetched);
                }
            }
            data_buf
        }
    }

    /// Blocks the cache under test holds: against extents of up to 32,
    /// eviction on nearly every op, including of blocks the same request
    /// inserted.
    const CAPACITY: usize = 8;

    /// Drive `ops` through a cache over `P` and a flat model side by side;
    /// with `exact_lru`, through a [`NaiveLru`] as well.
    fn check_against_flat_model<P: Policy>(
        ops: &[Op],
        write_back: bool,
        exact_lru: bool,
    ) -> Result<(), TestCaseError> {
        // One class, so every handle the run creates is visible in `live`.
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(32 * BLOCK, 64)],
        });
        let mut dev = MemDev::new();
        dev.pool = Some(pool.clone());
        let cache = Arc::new(BlockCache::<P>::build(CAPACITY * BLOCK, write_back));
        let rig = Rig::around(cache.clone(), dev);
        let mut model = vec![0u8; SPACE as usize * BLOCK];
        let mut lru = NaiveLru::default();
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
                    (block..block + blocks as u64).for_each(|b| lru.admit(b, None));
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
                    let origin = lru.allocation();
                    (block..block + blocks as u64).for_each(|b| lru.admit(b, origin));
                    let buf = pool.alloc_from(&data).expect("cache does not pin the pool");
                    let lba = block * BLOCK_SECTORS;
                    let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
                    prop_assert!(r.is_ok());
                }
                Op::Read { block, blocks } | Op::ReadBuf { block, blocks } => {
                    let len = blocks * BLOCK;
                    let zero_copy = matches!(op, Op::ReadBuf { .. });
                    let resp = if zero_copy {
                        rig.read_buf(&mut ctx, block, len)
                    } else {
                        rig.read(&mut ctx, block, len)
                    };
                    let at = block as usize * BLOCK;
                    prop_assert!(
                        resp.data_bytes() == Some(&model[at..at + len]),
                        "{:?} returned wrong bytes",
                        op
                    );
                    let data_buf = lru.read(block..block + blocks as u64, zero_copy);
                    if exact_lru {
                        prop_assert!(
                            matches!(resp, RespPayload::DataBuf(_)) == data_buf,
                            "{:?} answered {:?}",
                            op,
                            resp
                        );
                    }
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
            if exact_lru {
                // What keeps device traffic per user byte what it is: after
                // every op the same blocks are resident as in the list.
                for block in 0..SPACE {
                    let resident = cache.with_policy(|p| p.peek(block * BLOCK_SECTORS).is_some());
                    prop_assert!(
                        resident == lru.origin(block).is_some(),
                        "after {:?} block {} resident: {}",
                        op,
                        block,
                        resident
                    );
                }
            }
        }
        drop((rig, cache));
        prop_assert!(pool.live() == 0, "{} handles leaked", pool.live());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of single- and multi-block reads, writes
        /// and flushes over both policies, write-through and write-back:
        /// every read equals a flat byte model, each request fetches at
        /// most one run, no handle outlives the cache, and the LRU cache
        /// keeps the blocks — and answers `ReadBuf` with the shape — a
        /// naive per-block LRU list says it must.
        #[test]
        fn reads_match_a_flat_model(
            ops in proptest::collection::vec(op_strategy(), 1..60),
            write_back in any::<bool>(),
        ) {
            check_against_flat_model::<LruPolicy>(&ops, write_back, true)?;
            check_against_flat_model::<ArcPolicy>(&ops, write_back, false)?;
        }
    }

    /// The two response shapes of a fully resident `ReadBuf`.
    #[test]
    fn readbuf_is_a_view_of_one_slot_or_a_gather_across_two() {
        for type_name in ["lru_cache", "arc_cache"] {
            let pool = BufferPool::new(PoolConfig {
                classes: vec![(8 * BLOCK, 2)],
            });
            let rig = Rig::mount(type_name, serde_json::json!({}), MemDev::new());
            let mut ctx = Ctx::new();
            let halves: Vec<BufHandle> = (1..=2)
                .map(|seed| pool.alloc_from(&pattern(seed, 8 * BLOCK)).unwrap())
                .collect();
            for (half, buf) in halves.iter().enumerate() {
                let lba = half as u64 * 8 * BLOCK_SECTORS;
                let buf = buf.clone();
                let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
                assert!(r.is_ok());
            }
            // Inside one slot: a view of the writer's bytes, where they are.
            match rig.read_buf(&mut ctx, 2, 3 * BLOCK - 100) {
                RespPayload::DataBuf(h) => {
                    assert!(h.same_slot(&halves[0]), "{type_name}: a view, not a copy");
                    assert_eq!(h.offset(), halves[0].offset() + 2 * BLOCK);
                    assert_eq!(h.len(), 3 * BLOCK - 100);
                }
                other => panic!("{type_name}: expected DataBuf, got {other:?}"),
            }
            // Across both: neighbours on the device, not in memory.
            match rig.read_buf(&mut ctx, 0, 16 * BLOCK) {
                RespPayload::Data(d) => {
                    assert!(d[..8 * BLOCK] == *halves[0].as_slice());
                    assert!(d[8 * BLOCK..] == *halves[1].as_slice());
                }
                other => panic!("{type_name}: expected Data, got {other:?}"),
            }
            assert_eq!(rig.dev.read_count(), 0, "{type_name}: all resident");
        }
    }

    /// A `ReadBuf` that loses a miss race finds its blocks resident once
    /// the winner's fetch has landed, all in that one slot: it answers
    /// with a view of it, like any other fully resident run.
    #[test]
    fn a_readbuf_that_waited_out_a_fetch_views_the_fetched_slot() {
        for type_name in ["lru_cache", "arc_cache"] {
            let pool = BufferPool::new(PoolConfig {
                classes: vec![(4 * BLOCK, 2)],
            });
            let mut dev = MemDev::new();
            dev.pool = Some(pool.clone());
            dev.read_stall = std::time::Duration::from_millis(40);
            dev.poke(0, &pattern(5, 4 * BLOCK));
            let rig = Rig::mount(type_name, serde_json::json!({}), dev);
            let resps: Vec<RespPayload> = std::thread::scope(|s| {
                let readers = [0u64, 10].map(|delay_ms| {
                    let rig = &rig;
                    s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                        rig.read_buf(&mut Ctx::new(), 0, 4 * BLOCK - 7)
                    })
                });
                readers.map(|r| r.join().unwrap()).into()
            });
            assert_eq!(rig.dev.read_count(), 1, "{type_name}: one fetch");
            match (&resps[0], &resps[1]) {
                (RespPayload::DataBuf(a), RespPayload::DataBuf(b)) => {
                    assert!(a.same_slot(b), "{type_name}: both view the fetched slot");
                    assert_eq!((b.offset(), b.len()), (a.offset(), 4 * BLOCK - 7));
                    assert!(b.as_slice() == &pattern(5, 4 * BLOCK)[..4 * BLOCK - 7]);
                }
                _ => panic!("{type_name}: the loser gathered a copy"),
            }
        }
    }

    /// A write-through cache can hold dirty blocks — the ones a write-back
    /// predecessor handed over in a hot swap — and a write that evicts one
    /// must write it back, as a read that evicts one does: the cache holds
    /// the only copy of those bytes.
    #[test]
    fn write_through_writes_back_the_dirty_blocks_it_absorbed() {
        use crate::arc_cache::ArcCacheMod;
        use crate::lru::LruCacheMod;
        const BLOCKS: usize = 8;
        let successors: [fn() -> Arc<dyn LabMod>; 2] = [
            || Arc::new(ArcCacheMod::new(BLOCKS * BLOCK)),
            || Arc::new(LruCacheMod::new(BLOCKS * BLOCK, false)),
        ];
        for (successor, zero_copy) in successors.into_iter().zip([false, true]) {
            let pool = BufferPool::new(PoolConfig {
                classes: vec![(BLOCK, 4 * BLOCKS)],
            });
            let old = Rig::around(
                Arc::new(LruCacheMod::new(BLOCKS * BLOCK, true)),
                MemDev::new(),
            );
            let mut ctx = Ctx::new();
            for block in 0..BLOCKS as u64 {
                let r = old.write(&mut ctx, block, pattern(block as u8, BLOCK));
                assert!(r.is_ok());
            }
            assert_eq!(old.dev.write_count(), 0, "held back, all dirty");
            let rig = Rig::around(successor(), MemDev::new());
            rig.cache().state_update(old.cache().as_ref());
            // New blocks push every absorbed one out.
            for block in (100..).take(2 * BLOCKS) {
                let data = pattern(block as u8, BLOCK);
                let r = if zero_copy {
                    let buf = pool.alloc_from(&data).unwrap();
                    let lba = block * BLOCK_SECTORS;
                    rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx)
                } else {
                    rig.write(&mut ctx, block, data)
                };
                assert!(r.is_ok());
            }
            for block in 0..BLOCKS as u64 {
                assert!(
                    rig.dev.peek(block * BLOCK_SECTORS, BLOCK) == pattern(block as u8, BLOCK),
                    "{}: dirty block {block} was dropped, not written back",
                    rig.cache().type_name()
                );
            }
        }
    }

    /// An LRU that records the hits it is told of.
    #[derive(Default)]
    struct RecordingLru {
        lru: LruPolicy,
        touched: Vec<u64>,
    }

    impl Policy for RecordingLru {
        const TYPE_NAME: &'static str = "recording_lru";
        const LOOKUP_NS: u64 = LruPolicy::LOOKUP_NS;
        const MIN_BLOCKS: usize = LruPolicy::MIN_BLOCKS;

        fn touch(&mut self, lba: u64) -> Option<&CacheData> {
            let hit = self.lru.touch(lba);
            self.touched
                .extend(hit.is_some().then_some(lba / BLOCK_SECTORS));
            hit
        }
        fn peek(&self, lba: u64) -> Option<&CacheData> {
            self.lru.peek(lba)
        }
        fn admit(
            &mut self,
            lba: u64,
            data: CacheData,
            cap: usize,
            evict: &mut dyn FnMut(u64, CacheData),
        ) {
            self.lru.admit(lba, data, cap, evict)
        }
        fn pop_coldest(&mut self) -> Option<(u64, CacheData)> {
            self.lru.pop_coldest()
        }
        fn resident(&self) -> usize {
            self.lru.resident()
        }
    }

    /// Whichever way a read is answered, the policy hears of each resident
    /// block once, in ascending order — a run that stops being joinable
    /// half way is not told of twice.
    #[test]
    fn a_read_records_each_hit_once_in_ascending_order() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(4 * BLOCK, 1)],
        });
        let cache = Arc::new(BlockCache::<RecordingLru>::build(64 * BLOCK, false));
        let rig = Rig::around(cache.clone(), MemDev::new());
        let mut ctx = Ctx::new();
        let buf = pool.alloc_from(&pattern(1, 4 * BLOCK)).unwrap();
        let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba: 0, buf }), &mut ctx);
        assert!(r.is_ok());
        // Block 2 becomes owned bytes: the run of handles stops there.
        assert!(rig.write(&mut ctx, 2, pattern(2, BLOCK)).is_ok());
        let touched = || std::mem::take(&mut cache.index.lock().policy.touched);
        assert!(matches!(
            rig.read_buf(&mut ctx, 0, 4 * BLOCK),
            RespPayload::Data(_)
        ));
        assert_eq!(touched(), [0, 1, 2, 3], "gathered after a broken run");
        assert!(matches!(
            rig.read_buf(&mut ctx, 0, 2 * BLOCK),
            RespPayload::DataBuf(_)
        ));
        assert_eq!(touched(), [0, 1], "joined");
        assert!(matches!(
            rig.read(&mut ctx, 0, 4 * BLOCK),
            RespPayload::Data(_)
        ));
        assert_eq!(touched(), [0, 1, 2, 3], "legacy read");
        // A miss in the middle: the hits around it, once each.
        rig.dev.poke(5 * BLOCK_SECTORS, &pattern(3, BLOCK));
        assert!(rig.read(&mut ctx, 4, BLOCK).is_ok());
        assert!(rig.read(&mut ctx, 6, BLOCK).is_ok());
        touched();
        assert!(rig.read_buf(&mut ctx, 3, 4 * BLOCK).is_ok());
        assert_eq!(touched(), [3, 4, 6], "one block fetched");
    }

    /// Fails at the parent of PR 24: write-through indexed before it
    /// forwarded and took nothing back when the forward failed.
    #[test]
    fn a_refused_write_through_leaves_nothing_resident() {
        for type_name in ["lru_cache", "arc_cache"] {
            let pool = BufferPool::new(PoolConfig {
                classes: vec![(BLOCK, 2)],
            });
            let rig = Rig::mount(type_name, serde_json::json!({}), MemDev::new());
            let mut ctx = Ctx::new();
            assert!(rig.write(&mut ctx, 1, vec![1u8; BLOCK]).is_ok());
            let live = pool.live();
            rig.dev.fail_writes.store(true, Ordering::SeqCst);
            assert!(!rig.write(&mut ctx, 1, vec![2u8; BLOCK]).is_ok());
            for block in [1, 2] {
                let buf = pool.alloc_from(&[3u8; BLOCK]).unwrap();
                let lba = block * BLOCK_SECTORS;
                let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
                assert!(!r.is_ok(), "{type_name}: the refusal reaches the caller");
            }
            assert_eq!(pool.live(), live, "{type_name}: a refused buffer is let go");
            for block in [1, 2] {
                let r = rig.read(&mut ctx, block, BLOCK);
                assert!(
                    r.data_bytes() == Some(&rig.dev.peek(block * BLOCK_SECTORS, BLOCK)[..]),
                    "{type_name}: block {block} is not what the device holds"
                );
            }
        }
    }
}
