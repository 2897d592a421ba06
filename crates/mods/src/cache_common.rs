//! The block-cache engine behind [`crate::lru`] and [`crate::arc_cache`].
//!
//! The index is block-granular: one entry per `BLOCK`-byte block, keyed
//! by the block's first sector, whatever the size of the request that
//! brought the bytes. Every entry is a pool handle. A `WriteBuf` becomes
//! one entry per block by `slice()` refcount bumps; an owned `Write` is
//! copied once, counted, into one slot per block of the 4 KiB class the
//! cache reserves, and is indexed the same way from there. So capacity is
//! counted in bytes and an overwrite replaces every block it covers. A
//! request's blocks are walked as one run under the index's one lock. A
//! read (`ReadBuf`, the one read verb) whose blocks are all resident,
//! adjacent views of one pool slot grows one handle over them by
//! reference ([`BufHandle::extend_with`]) and answers with it — one
//! refcount bump, no bytes move. Any other read takes its blocks by value
//! and fetches only the smallest run covering the missing ones in one
//! downstream request, then answers with the blocks' views, one handle
//! per run of adjacent views ([`RespPayload::DataRuns`] when there are
//! several). No hit copies a byte. A fetch the stage below refuses (a
//! dry pool's) is passed up, and nothing is cached.
//!
//! The two cache LabMods are this engine with a different [`Policy`]: the
//! policy decides what stays resident, the engine does everything else
//! (the in-flight miss guard, write-back, cost accounting).
//!
//! The contract is block-aligned requests (`lba` a multiple of
//! `BLOCK_SECTORS`), which every bundled filesystem LabMod honors.

use std::collections::HashSet;

use parking_lot::{Condvar, Mutex};

use labstor_core::{BlockOp, LabMod, ModType, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{note_payload_copy, BufHandle, BufferPool, Reservation};
use labstor_sim::Ctx;
use labstor_telemetry::Stat;

use crate::arc_cache::ArcPolicy;
use crate::lru::LruPolicy;

/// Bytes per cache entry.
pub(crate) const BLOCK: usize = 4096;
/// Sectors per cache entry: the key stride between neighbouring blocks.
pub(crate) const BLOCK_SECTORS: u64 = (BLOCK / labstor_sim::SECTOR_SIZE) as u64;
/// Copy cost per KB into/out of the cache (same memcpy as the kernel's —
/// the savings come from lock-free access, not magic memory).
const COPY_NS_PER_KB: u64 = 300;

fn copy_cost(bytes: usize) -> u64 {
    (bytes as u64 * COPY_NS_PER_KB) / 1024
}

/// The blocks of `buf`, an extent, as `(index, view)`: one refcount bump
/// each.
fn blocks_of(buf: &BufHandle) -> impl Iterator<Item = (usize, BufHandle)> + '_ {
    (0..buf.len().div_ceil(BLOCK))
        .filter_map(|k| Some((k, buf.slice(k * BLOCK, BLOCK.min(buf.len() - k * BLOCK))?)))
}

/// One empty slot per block of an `n`-block request, in `one` for a
/// single block (no heap) and in `many` otherwise.
fn per_block<'a>(
    n: usize,
    one: &'a mut [Option<BufHandle>; 1],
    many: &'a mut Vec<Option<BufHandle>>,
) -> &'a mut [Option<BufHandle>] {
    if n <= 1 {
        &mut one[..n]
    } else {
        many.resize_with(n, || None);
        many
    }
}

/// The writes that carry write-back victims downstream: one per run of
/// device neighbours, so the blocks of one cached extent leave as one
/// write. A run of adjacent views of one slot grows back into one handle
/// and goes as a `WriteBuf`; a run over several slots (an owned write's
/// blocks lie in a slot each) is joined into one `Write`, one counted copy.
fn coalesce(mut victims: Vec<(u64, BufHandle)>) -> Vec<BlockOp> {
    victims.sort_unstable_by_key(|&(lba, _)| lba);
    let end = |(lba, h): &(u64, BufHandle)| lba + (h.len() / labstor_sim::SECTOR_SIZE) as u64;
    let runs = victims.chunk_by(|a, b| end(a) == b.0);
    runs.map(|run| {
        let (lba, mut buf) = run[0].clone();
        if run[1..].iter().all(|(_, next)| buf.extend_with(next)) {
            return BlockOp::WriteBuf { lba, buf };
        }
        let mut data = Vec::new();
        crate::generic::copy_into(&mut data, run.iter().map(|(_, h)| h.as_slice()));
        BlockOp::Write { lba, data }
    })
    .collect()
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
    fn touch(&mut self, lba: u64) -> Option<&BufHandle>;
    /// The resident block at `lba`, leaving the policy's state alone.
    fn peek(&self, lba: u64) -> Option<&BufHandle>;
    /// Insert or replace the block at `lba`, then hand every block pushed
    /// out to keep the cache within `cap` blocks to `evict`.
    fn admit(
        &mut self,
        lba: u64,
        data: BufHandle,
        cap: usize,
        evict: &mut dyn FnMut(u64, BufHandle),
    );
    /// Remove and return a resident block, coldest first.
    fn pop_coldest(&mut self) -> Option<(u64, BufHandle)>;
    /// Forget the block at `lba`: nothing will read it again.
    fn remove(&mut self, lba: u64) -> Option<BufHandle>;
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
    /// Writes and discards entered so far. A fetch enters what it read
    /// only if none came by while it was below the cache: a block written
    /// meanwhile holds newer bytes than the fetch read, and a discarded
    /// one may be reused, so what the fetch read is its dead owner's.
    changes: u64,
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
    hits: Stat,
    misses: Stat,
    /// A pool slot per resident block, on top of the transport ladder: a
    /// `ReadBuf` miss keeps the slot the device filled, an owned write's
    /// blocks are copied into slots of this class, and the cache does not
    /// starve clients and drivers of theirs. Declared last, so the blocks
    /// above let their slots go before the budget falls.
    pages: Option<Reservation>,
}

impl<P> BlockCache<P> {
    /// (hits, misses) so far, counted in **blocks**: a 64 KiB read that
    /// finds 15 of its 16 blocks resident adds 15 hits and 1 miss.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

impl<P: Policy> BlockCache<P> {
    /// Cache of `capacity_bytes`, in whole blocks, holding its slot per
    /// resident block in `pool`.
    pub(crate) fn build(pool: &BufferPool, capacity_bytes: usize, write_back: bool) -> Self {
        let capacity_blocks = (capacity_bytes / BLOCK).max(P::MIN_BLOCKS);
        BlockCache {
            index: Mutex::new(Index {
                policy: P::default(),
                dirty: HashSet::new(),
                changes: 0,
            }),
            inflight: InflightSet::new(),
            capacity_blocks,
            write_back,
            hits: Stat::new(0),
            misses: Stat::new(0),
            pages: pool.reserve(BLOCK, capacity_blocks),
        }
    }

    /// Blocks resident.
    // api-ok: tests/cache_discard_churn.rs bounds it by the live files
    pub fn resident_blocks(&self) -> usize {
        self.index.lock().policy.resident()
    }

    /// Inspect the policy's state.
    #[cfg(test)]
    pub(crate) fn with_policy<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        f(&self.index.lock().policy)
    }

    /// The zero-copy hit: one handle over the `len`-byte range at `lba`,
    /// when every block of it is resident and starts where the one before
    /// ends in the same slot. The blocks are walked by reference under
    /// the lock — one refcount bump for the run, none per block, nothing
    /// on the heap. Otherwise `Err(n)`: the first `n` blocks have been
    /// through [`Policy::touch`] and the rest have not.
    fn joined_hit(&self, lba: u64, len: usize, blocks: usize) -> Result<BufHandle, usize> {
        let mut index = self.index.lock();
        let mut run = None;
        for k in 0..blocks {
            let need = BLOCK.min(len - k * BLOCK);
            let block = index.policy.touch(lba + k as u64 * BLOCK_SECTORS);
            if !block.is_some_and(|h| h.len() >= need && grow(&mut run, h)) {
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
    /// of its hits once. Returns the change count, for a fetch to pass to
    /// [`BlockCache::insert`].
    fn lookup(&self, lba: u64, len: usize, found: &mut [Option<BufHandle>], touched: usize) -> u64 {
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
                *slot = block.filter(|h| h.len() >= need).cloned();
            }
        }
        index.changes
    }

    /// Enter `blocks`, each `(k, view)` the `k`-th block of an extent
    /// starting at `lba`, and return the dirty blocks this pushed out. A
    /// fetch passes the change count its lookup saw (`fetched`), and
    /// enters nothing if it has moved since; anything else is a write,
    /// and moves it.
    fn insert(
        &self,
        lba: u64,
        blocks: impl IntoIterator<Item = (usize, BufHandle)>,
        dirty: bool,
        fetched: Option<u64>,
    ) -> Vec<(u64, BufHandle)> {
        let mut victims = Vec::new();
        let mut index = self.index.lock();
        match fetched {
            Some(seen) if seen != index.changes => return victims,
            Some(_) => {}
            None => index.changes += 1,
        }
        let Index {
            policy, dirty: set, ..
        } = &mut *index;
        for (k, block) in blocks {
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

    /// Write evicted or flushed dirty blocks downstream, device neighbours
    /// merged into one write per run ([`coalesce`]).
    fn write_back(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        victims: Vec<(u64, BufHandle)>,
    ) -> Result<(), RespPayload> {
        for write in coalesce(victims) {
            let r = env.forward(ctx, req.derive(Payload::Block(write)));
            if !r.is_ok() {
                return Err(r);
            }
        }
        Ok(())
    }

    /// The write path, for the `len`-byte extent at `lba` whose blocks
    /// are `blocks`. Write-through forwards first and indexes the extent
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
        len: usize,
        blocks: impl IntoIterator<Item = (usize, BufHandle)>,
    ) -> RespPayload {
        if !self.write_back {
            // `forward` consumes the request; write-backs derive from this.
            let origin = req.derive(Payload::Block(BlockOp::Flush));
            let resp = env.forward(ctx, req);
            if resp.is_ok() {
                let victims = self.insert(lba, blocks, false, None);
                if let Err(e) = self.write_back(ctx, env, &origin, victims) {
                    return e;
                }
            }
            return resp;
        }
        let victims = self.insert(lba, blocks, true, None);
        match self.write_back(ctx, env, &req, victims) {
            Ok(()) => RespPayload::Len(len),
            Err(e) => e,
        }
    }

    /// Copy an owned write's bytes into `slots`, one per block, taken from
    /// the class the cache reserves: never a larger class's slot, which a
    /// resident block would pin with its spare bytes. The copy fills each
    /// slot's view whole, so a recycled slot is not zero-filled first.
    /// `false`, with every slot empty again, when the class has too few.
    fn copy_in(&self, data: &[u8], slots: &mut [Option<BufHandle>]) -> bool {
        let copied = slots.iter_mut().zip(data.chunks(BLOCK)).all(|(slot, src)| {
            *slot = self.pages.as_ref().and_then(|pages| pages.alloc(src.len()));
            // owner-ok: the cache fills the slot it just allocated
            // copy-ok: an owned write's one copy into the cache; counted below
            slot.as_mut().is_some_and(|h| h.fill(src))
        });
        if copied {
            note_payload_copy(data.len());
        } else {
            slots.iter_mut().for_each(|slot| *slot = None);
        }
        copied
    }

    /// An owned write with no slots to cache it in: the cache keeps none
    /// of its blocks. A dirty block in the range is written back first —
    /// the write may not cover its last block whole — then the write is
    /// forwarded and the range dropped, as a `Discard` drops it.
    fn write_around(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        len: usize,
    ) -> RespPayload {
        let end = lba + len.div_ceil(BLOCK) as u64 * BLOCK_SECTORS;
        let dirty = self.take_dirty(|key| (lba..end).contains(&key));
        if let Err(e) = self.write_back(ctx, env, &req, dirty) {
            return e;
        }
        let resp = env.forward(ctx, req);
        self.discard(lba, len);
        resp
    }

    /// The read path. A read that misses every block is answered with
    /// what the next stage returned. Otherwise the blocks — resident, or
    /// cut from the one run this request fetched — answer by refcount (no
    /// memcpy, no copy charge): a `DataBuf` when they are adjacent views
    /// of one slot, a `DataRuns` list of one view per run when they lie
    /// in several. A fetch may come back as one handle or as a run list;
    /// one the stage below refuses (a dry pool's) is passed up uncached.
    fn read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: Request,
        lba: u64,
        len: usize,
    ) -> RespPayload {
        let blocks = len.div_ceil(BLOCK).max(1);
        ctx.advance(P::LOOKUP_NS * blocks as u64);
        let touched = match self.joined_hit(lba, len, blocks) {
            Ok(h) => {
                self.hits.add(blocks as u64);
                return RespPayload::DataBuf(h);
            }
            Err(touched) => touched,
        };
        // Not one joinable run: take the blocks by value, so that they
        // outlive the lock across the fetch.
        let (mut one, mut many) = ([None], Vec::new());
        let found = per_block(blocks, &mut one, &mut many);
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
            let changes = self.lookup(lba, len, found, 0);
            let Some((first, last)) = missing_run(found) else {
                // The winner's fetch made every block resident, usually as
                // views of the one slot it landed in: one run after all.
                break 'fetch 0;
            };
            // One downstream request for the smallest run that covers
            // every missing block. Resident blocks inside the run are
            // served from the cache all the same: they may be dirty.
            let run_lba = lba + first as u64 * BLOCK_SECTORS;
            let run_len = len.min((last + 1) * BLOCK) - first * BLOCK;
            let fetch = BlockOp::ReadBuf {
                lba: run_lba,
                len: run_len,
            };
            let resp = env.forward(ctx, req.derive(Payload::Block(fetch)));
            // One handle, or a run list: a fetch longer than a pool slot
            // lands in several, as does one a cache below holds in several.
            let runs = match &resp {
                RespPayload::DataBuf(h) => std::slice::from_ref(h),
                RespPayload::DataRuns(runs) => &runs[..],
                _ => return resp,
            };
            if runs.iter().map(BufHandle::len).sum::<usize>() < run_len {
                return RespPayload::Err("short block read".into());
            }
            if runs.iter().rev().skip(1).any(|r| r.len() % BLOCK != 0) {
                return RespPayload::Err("fetched runs split a block".into());
            }
            // The fetch's blocks, one view each, in order.
            let fetched = || {
                let blocks = runs.iter().flat_map(|r| blocks_of(r).map(|(_, b)| b));
                blocks.take(last + 1 - first).enumerate()
            };
            let missing = found.iter().filter(|b| b.is_none()).count();
            self.misses.add(missing as u64);
            let victims = self.insert(
                run_lba,
                fetched().filter(|&(k, _)| found[first + k].is_none()),
                false,
                Some(changes),
            );
            drop(claim);
            if let Err(e) = self.write_back(ctx, env, &req, victims) {
                return e;
            }
            if missing == blocks {
                // Nothing was resident: what came back is the answer.
                return resp;
            }
            for (k, block) in fetched() {
                found[first + k].get_or_insert(block);
            }
            missing
        };
        self.hits.add((blocks - fetched_blocks) as u64);
        views(found, len)
    }

    /// Drop the resident blocks that start in the `len`-byte range at
    /// `lba`, dirty ones unwritten: nothing will read them again, and a
    /// write-back cache's unflushed bytes are lost in a crash anyway.
    /// Their pool slots go back once no reader holds a view of them. A
    /// block may start at any sector of the range (LabKVS writes a
    /// value's zero-padded tail sector on its own), so every sector is
    /// looked up: a dirty block left behind would be written back over
    /// the sectors' next owner.
    fn discard(&self, lba: u64, len: usize) {
        let mut index = self.index.lock();
        index.changes += 1;
        let Index { policy, dirty, .. } = &mut *index;
        for key in lba..lba + len.div_ceil(labstor_sim::SECTOR_SIZE) as u64 {
            if policy.remove(key).is_some() && !dirty.is_empty() {
                dirty.remove(&key);
            }
        }
    }

    /// Take the dirty blocks whose key `pick` selects (now clean).
    fn take_dirty(&self, pick: impl Fn(u64) -> bool) -> Vec<(u64, BufHandle)> {
        let mut index = self.index.lock();
        let Index { policy, dirty, .. } = &mut *index;
        dirty
            .extract_if(|&lba| pick(lba))
            .filter_map(|lba| Some((lba, policy.peek(lba)?.clone())))
            .collect()
    }

    /// Remove every block, coldest first, with its dirty flag (hot swaps
    /// pull warm state out with this; nothing is copied).
    fn drain(&self) -> Vec<(u64, BufHandle, bool)> {
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
            self.insert(lba, [(0, data)], dirty, None);
        }
    }
}

/// First and last index of the empty slots, if any.
fn missing_run(found: &[Option<BufHandle>]) -> Option<(usize, usize)> {
    let first = found.iter().position(Option::is_none)?;
    let last = found.iter().rposition(Option::is_none)?;
    Some((first, last))
}

/// Start `run` as a clone of `block`, or grow it in place over a block
/// that starts where it ends; `false`, and no change, otherwise.
fn grow(run: &mut Option<BufHandle>, block: &BufHandle) -> bool {
    match run {
        Some(run) => run.extend_with(block),
        None => {
            *run = Some(block.clone());
            true
        }
    }
}

/// The zero-copy answer over the first `len` bytes of `found`'s blocks,
/// all present: one handle when they are one run, else the runs' handles
/// in byte order.
fn views(found: &[Option<BufHandle>], len: usize) -> RespPayload {
    let mut runs = Vec::new();
    let mut run = None;
    for block in found.iter().flatten() {
        if !grow(&mut run, block) {
            runs.extend(run.replace(block.clone()));
        }
    }
    // A read has at least one block; only the last may reach past `len`.
    let Some(mut run) = run else {
        return RespPayload::DataRuns(runs);
    };
    run.truncate(len - runs.iter().map(BufHandle::len).sum::<usize>());
    if runs.is_empty() {
        return RespPayload::DataBuf(run);
    }
    runs.push(run);
    RespPayload::DataRuns(runs)
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
                let (lba, len) = (*lba, data.len());
                let (mut one, mut many) = ([None], Vec::new());
                let slots = per_block(len.div_ceil(BLOCK), &mut one, &mut many);
                if !self.copy_in(data, slots) {
                    return self.write_around(ctx, env, req, lba, len);
                }
                let blocks = slots.iter_mut().enumerate();
                let blocks = blocks.filter_map(|(k, slot)| Some((k, slot.take()?)));
                self.write(ctx, env, req, lba, len, blocks)
            }
            Payload::Block(BlockOp::WriteBuf { lba, buf }) => {
                // Zero-copy write: the cache keeps refcounts on the pool
                // buffer — no memcpy, so only the lookup is charged.
                ctx.advance(P::LOOKUP_NS);
                let (lba, buf) = (*lba, buf.clone());
                self.write(ctx, env, req, lba, buf.len(), blocks_of(&buf))
            }
            Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                let (lba, len) = (*lba, *len);
                self.read(ctx, env, req, lba, len)
            }
            Payload::Block(BlockOp::Flush) => {
                // Write all dirty blocks, then pass the barrier down.
                match self.write_back(ctx, env, &req, self.take_dirty(|_| true)) {
                    Ok(()) => env.forward(ctx, req),
                    Err(e) => e,
                }
            }
            Payload::Block(BlockOp::Discard { lba, len }) => {
                // One lookup charge per request, as for a write.
                ctx.advance(P::LOOKUP_NS);
                self.discard(*lba, *len);
                env.forward(ctx, req)
            }
            _ => env.forward(ctx, req),
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        P::LOOKUP_NS + 2 * copy_cost(req.payload_bytes())
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Hot-swapping cache policies: warm state moves across from
        // either flavor (handles by refcount — no byte copies).
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
pub(crate) struct InflightSet {
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
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Claim the `blocks` blocks starting at `lba`, parking on a condvar
    /// while another miss holds any of them. The returned guard releases
    /// the claim (and wakes waiters) on drop.
    pub(crate) fn claim(&self, lba: u64, blocks: usize) -> InflightGuard<'_> {
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
pub(crate) struct InflightGuard<'a> {
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

/// Test doubles shared by the unit tests: a byte-addressed terminal
/// device, a two-vertex stack around a cache instance, and a stage that
/// runs a test's closure on the block commands that pass it.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_core::{ModuleManager, POOL_DRY};
    use labstor_ipc::Credentials;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// `Some(n)`: `n` live [`Rig`]s use the process pool, whose 4 KiB
    /// slots their caches copy owned writes into. `None`: a test has it
    /// drained ([`PoolUse::exclusive`]), and a rig's cache would find the
    /// class dry and write around itself. Each waits for the other.
    static DEFAULT_POOL: Mutex<Option<usize>> = Mutex::new(Some(0));
    static DEFAULT_POOL_FREED: Condvar = Condvar::new();

    /// Use of the process pool until the guard drops: shared by every
    /// [`Rig`], exclusive for a test that drains a class of it.
    pub(crate) struct PoolUse {
        exclusive: bool,
    }

    impl PoolUse {
        /// Shared use; waits out an exclusive one. A thread that holds a
        /// shared use never waits for another: no exclusive one can start
        /// while it lives.
        pub(crate) fn shared() -> Self {
            let mut users = DEFAULT_POOL.lock();
            loop {
                match &mut *users {
                    Some(n) => {
                        *n += 1;
                        break;
                    }
                    None => DEFAULT_POOL_FREED.wait(&mut users),
                }
            }
            PoolUse { exclusive: false }
        }

        /// Sole use; waits until no other use is live.
        pub(crate) fn exclusive() -> Self {
            let mut users = DEFAULT_POOL.lock();
            while *users != Some(0) {
                DEFAULT_POOL_FREED.wait(&mut users);
            }
            *users = None;
            PoolUse { exclusive: true }
        }
    }

    impl Drop for PoolUse {
        fn drop(&mut self) {
            let mut users = DEFAULT_POOL.lock();
            *users = match *users {
                Some(n) if !self.exclusive => Some(n - 1),
                _ => Some(0),
            };
            DEFAULT_POOL_FREED.notify_all();
        }
    }

    /// What [`Hook`] runs on a block command; `false` disarms it.
    pub(crate) type OnBlock = Box<dyn FnMut(&BlockOp) -> bool + Send>;

    /// A stage that runs its armed closure on each block command before
    /// passing it on. The closure is out while it runs, so what it sends
    /// through the stack passes unhooked. While `refuse` is set, it
    /// answers every write with an error instead.
    #[derive(Default)]
    pub(crate) struct Hook(
        pub(crate) parking_lot::Mutex<Option<OnBlock>>,
        pub(crate) std::sync::atomic::AtomicBool,
    );

    impl Hook {
        pub(crate) fn arm(&self, on: impl FnMut(&BlockOp) -> bool + Send + 'static) {
            *self.0.lock() = Some(Box::new(on));
        }
    }

    impl LabMod for Hook {
        fn type_name(&self) -> &'static str {
            "hook"
        }
        fn mod_type(&self) -> ModType {
            ModType::Filter
        }
        fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
            if let Payload::Block(op) = &req.payload {
                let on = self.0.lock().take();
                if let Some(mut on) = on {
                    if on(op) {
                        self.0.lock().get_or_insert(on);
                    }
                }
                let write = matches!(op, BlockOp::Write { .. } | BlockOp::WriteBuf { .. });
                if write && self.1.load(Ordering::SeqCst) {
                    return RespPayload::Err("write refused".into());
                }
            }
            env.forward(ctx, req)
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Terminal "device": a flat byte array addressed by sector, so what
    /// a read returns depends on the bytes written, not on how requests
    /// were cut. Unwritten bytes read as zero.
    pub(crate) struct MemDev {
        pub bytes: Mutex<Vec<u8>>,
        pub writes: Stat,
        /// Every read request seen, as `(lba, len)`.
        pub reads: Mutex<Vec<(u64, usize)>>,
        /// Lands read completions in this pool; refuses a read when it
        /// has no slot.
        pub pool: BufferPool,
        /// While set, a read is refused, as a driver refuses it when the
        /// pool is dry.
        pub dry: std::sync::atomic::AtomicBool,
        /// Real-time stall per read, to widen race windows in tests.
        pub read_stall: std::time::Duration,
        /// Runs once, inside the next read, before it reads: a command
        /// that overtakes that read.
        pub during_read: Mutex<Option<Box<dyn FnOnce() + Send>>>,
        /// Runs once, inside the next read, after it has read: a command
        /// that lands between the read and its answer reaching the cache.
        pub after_read: Mutex<Option<Box<dyn FnOnce() + Send>>>,
        /// While set, every write is refused and stores nothing.
        pub fail_writes: std::sync::atomic::AtomicBool,
    }

    impl MemDev {
        pub fn new() -> Self {
            MemDev {
                bytes: Mutex::new(Vec::new()),
                writes: Stat::new(0),
                reads: Mutex::new(Vec::new()),
                pool: BufferPool::with_defaults(),
                dry: std::sync::atomic::AtomicBool::new(false),
                read_stall: std::time::Duration::ZERO,
                during_read: Mutex::new(None),
                after_read: Mutex::new(None),
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
            self.writes.get()
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
                    self.writes.add(1);
                    self.poke(lba, &data);
                    RespPayload::Len(data.len())
                }
                Payload::Block(BlockOp::WriteBuf { lba, buf }) => {
                    self.writes.add(1);
                    self.poke(lba, buf.as_slice());
                    RespPayload::Len(buf.len())
                }
                Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                    self.reads.lock().push((lba, len));
                    std::thread::sleep(self.read_stall);
                    let overtake = self.during_read.lock().take();
                    overtake.into_iter().for_each(|run| run());
                    let data = self.peek(lba, len);
                    let overtake = self.after_read.lock().take();
                    overtake.into_iter().for_each(|run| run());
                    let dry = self.dry.load(Ordering::SeqCst);
                    match (!dry).then(|| self.pool.alloc(len)).flatten() {
                        Some(mut h) => {
                            assert!(h.fill(&data));
                            RespPayload::DataBuf(h)
                        }
                        None => RespPayload::Err(POOL_DRY.into()),
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

    /// A data answer's bytes, whatever its shape.
    pub(crate) fn bytes(resp: &RespPayload) -> Option<Vec<u8>> {
        resp.data_parts()
            .map(|parts| parts.collect::<Vec<_>>().concat())
    }

    /// A `cache → dev` stack executed inline.
    pub(crate) struct Rig {
        pub mm: ModuleManager,
        pub stack: LabStack,
        pub dev: Arc<MemDev>,
        _pool: PoolUse,
    }

    impl Rig {
        /// Mount `cache` in front of `dev`.
        pub fn around(cache: Arc<dyn LabMod>, dev: MemDev) -> Rig {
            let _pool = PoolUse::shared();
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
            Rig {
                mm,
                stack,
                dev,
                _pool,
            }
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
            self.exec(Payload::Block(BlockOp::ReadBuf { lba, len }), ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{bytes, MemDev, Rig};
    use super::*;
    use labstor_core::POOL_DRY;
    use labstor_ipc::{default_pool, PoolConfig};
    use proptest::prelude::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

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
    fn victims_of_one_extent_coalesce_into_one_write() {
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(4 * BLOCK, 2)],
        });
        let whole = pool.alloc_from(&[7u8; 4 * BLOCK]).unwrap();
        let block = |k: usize| {
            (
                k as u64 * BLOCK_SECTORS,
                whole.slice(k * BLOCK, BLOCK).unwrap(),
            )
        };
        // Out of order, with block 2 missing: {0,1} merge into one view,
        // {3} stands alone.
        match &coalesce(vec![block(3), block(1), block(0)])[..] {
            [BlockOp::WriteBuf { lba: 0, buf }, BlockOp::WriteBuf { lba, buf: last }] => {
                assert!(buf.same_slot(&whole) && buf.len() == 2 * BLOCK, "a view");
                assert_eq!((*lba, last.len()), (3 * BLOCK_SECTORS, BLOCK));
            }
            other => panic!("expected two views, got {other:?}"),
        }
        // A device neighbour in another slot joins the run, and the run
        // leaves as one write of its joined bytes, a counted copy.
        let other = pool.alloc_from(&[8u8; BLOCK]).unwrap();
        let copies = labstor_ipc::payload_copies();
        match &coalesce(vec![(2 * BLOCK_SECTORS, other), block(1), block(0)])[..] {
            [BlockOp::Write { lba: 0, data }] => {
                assert!(*data == [[7u8; 2 * BLOCK].as_slice(), &[8u8; BLOCK]].concat());
            }
            other => panic!("expected one owned write, got {other:?}"),
        }
        assert!(
            labstor_ipc::payload_copies() > copies,
            "the join is counted"
        );
    }

    /// One step of the model-checked op stream (block units).
    #[derive(Debug, Clone)]
    enum Op {
        Write {
            block: u64,
            blocks: usize,
            seed: u8,
        },
        WriteBuf {
            block: u64,
            blocks: usize,
            seed: u8,
        },
        /// With `dry`, the device refuses a miss, as a driver does when
        /// the pool is dry.
        Read {
            block: u64,
            blocks: usize,
            dry: bool,
        },
        Flush,
    }

    const SPACE: u64 = 96; // blocks addressed by the op stream

    fn op_strategy() -> impl Strategy<Value = Op> {
        let extent = || (0u64..SPACE - 32, 1usize..33);
        prop_oneof![
            1 => (extent(), any::<u8>()).prop_map(|((block, blocks), seed)| Op::Write {
                block,
                blocks,
                seed
            }),
            1 => (extent(), any::<u8>()).prop_map(|((block, blocks), seed)| Op::WriteBuf {
                block,
                blocks,
                seed
            }),
            2 => (extent(), any::<bool>()).prop_map(|((block, blocks), dry)| Op::Read {
                block,
                blocks,
                dry
            }),
            1 => (0u8..1).prop_map(|_| Op::Flush),
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
    /// pool allocation its entry is a view of. An owned write's blocks
    /// take one allocation each.
    #[derive(Default)]
    struct NaiveLru {
        blocks: Vec<(u64, u32)>,
        allocations: u32,
    }

    impl NaiveLru {
        fn origin(&self, block: u64) -> Option<u32> {
            self.blocks.iter().find(|e| e.0 == block).map(|e| e.1)
        }

        fn touch(&mut self, block: u64) {
            if let Some(i) = self.blocks.iter().position(|e| e.0 == block) {
                let entry = self.blocks.remove(i);
                self.blocks.push(entry);
            }
        }

        fn admit(&mut self, block: u64, origin: u32) {
            self.blocks.retain(|e| e.0 != block);
            self.blocks.push((block, origin));
            if self.blocks.len() > CAPACITY {
                self.blocks.remove(0);
            }
        }

        fn allocation(&mut self) -> u32 {
            self.allocations += 1;
            self.allocations
        }

        /// Replay a read of `blocks` through the list — every resident
        /// block touched once in ascending order, then the missing ones
        /// admitted in ascending order as views of what the fetch brought,
        /// unless the device's pool was `dry` and refused the fetch — and
        /// say what shape the answer must have.
        fn read(&mut self, blocks: std::ops::Range<u64>, dry: bool) -> Shape {
            let origins: Vec<_> = blocks.clone().map(|b| self.origin(b)).collect();
            for (block, _) in blocks.clone().zip(&origins).filter(|(_, o)| o.is_some()) {
                self.touch(block);
            }
            let full_miss = origins.iter().all(Option::is_none);
            let hit = origins.iter().all(Option::is_some);
            if !hit && dry {
                // The device's refusal is passed up and nothing admitted.
                return Shape::Refused;
            }
            let fetched = (!hit).then(|| self.allocation());
            for (block, _) in blocks.zip(&origins).filter(|(_, o)| o.is_none()) {
                self.admit(block, fetched.unwrap_or_default());
            }
            if full_miss {
                // The device's own response is passed up.
                return Shape::Buf;
            }
            // Where each block's bytes lie once the fetch has landed.
            // Consecutive blocks of one allocation are adjacent in it: a
            // run ends where the allocation changes.
            let served: Vec<Option<u32>> = origins.iter().map(|o| o.or(fetched)).collect();
            let runs = 1 + served.windows(2).filter(|w| w[0] != w[1]).count();
            if runs == 1 {
                Shape::Buf
            } else {
                Shape::Runs(runs)
            }
        }
    }

    /// The shape of a read's answer.
    #[derive(Debug, PartialEq)]
    enum Shape {
        /// The pool-dry refusal.
        Refused,
        /// One handle: `DataBuf`.
        Buf,
        /// A run list of this many handles: `DataRuns`.
        Runs(usize),
    }

    fn shape(resp: &RespPayload) -> Option<Shape> {
        match resp {
            RespPayload::Err(e) if e == POOL_DRY => Some(Shape::Refused),
            RespPayload::DataBuf(_) => Some(Shape::Buf),
            RespPayload::DataRuns(runs) => Some(Shape::Runs(runs.len())),
            _ => None,
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
        // Every handle the run creates comes from this pool, so `live`
        // sees each: the cache's slots for owned writes, the device's
        // landing buffers and the writers' buffers. The 4 KiB class never
        // runs dry: a 32-block write's slots and the resident blocks fit.
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(BLOCK, 64), (32 * BLOCK, 64)],
        });
        let mut dev = MemDev::new();
        dev.pool = pool.clone();
        let cache = Arc::new(BlockCache::<P>::build(&pool, CAPACITY * BLOCK, write_back));
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
                    for b in block..block + blocks as u64 {
                        let origin = lru.allocation();
                        lru.admit(b, origin);
                    }
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
                Op::Read { block, blocks, dry } => {
                    let len = blocks * BLOCK;
                    rig.dev.dry.store(dry, Ordering::SeqCst);
                    let resp = rig.read(&mut ctx, block, len);
                    let at = block as usize * BLOCK;
                    let refused = matches!(&resp, RespPayload::Err(e) if e == POOL_DRY);
                    prop_assert!(!refused || dry, "{:?}: only a dry fetch is refused", op);
                    prop_assert!(
                        refused || bytes(&resp).as_deref() == Some(&model[at..at + len]),
                        "{:?} returned wrong bytes",
                        op
                    );
                    if let RespPayload::DataRuns(runs) = &resp {
                        prop_assert!(runs.len() >= 2 && runs.iter().all(|r| !r.is_empty()));
                        let joined = runs.windows(2).any(|w| w[0].clone().extend_with(&w[1]));
                        prop_assert!(!joined, "{:?}: two runs join", op);
                    }
                    let want = lru.read(block..block + blocks as u64, dry);
                    if exact_lru {
                        prop_assert!(shape(&resp) == Some(want), "{:?} answered {:?}", op, resp);
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
            if !matches!(op, Op::Read { .. }) {
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
        /// keeps the blocks — and answers each read, with the device's
        /// pool dry or not, with the shape — a naive per-block LRU list
        /// says it must.
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
    fn readbuf_is_a_view_of_one_slot_or_the_views_of_each() {
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
            match rig.read(&mut ctx, 2, 3 * BLOCK - 100) {
                RespPayload::DataBuf(h) => {
                    assert!(h.same_slot(&halves[0]), "{type_name}: a view, not a copy");
                    assert_eq!(h.offset(), halves[0].offset() + 2 * BLOCK);
                    assert_eq!(h.len(), 3 * BLOCK - 100);
                }
                other => panic!("{type_name}: expected DataBuf, got {other:?}"),
            }
            // Across both: neighbours on the device, not in memory. Each
            // run is a view of its writer's bytes, the last one cut short.
            match rig.read(&mut ctx, 0, 16 * BLOCK - 100) {
                RespPayload::DataRuns(runs) => {
                    assert_eq!(runs.len(), 2, "{type_name}");
                    assert!(runs[0].same_slot(&halves[0]) && runs[1].same_slot(&halves[1]));
                    assert!(runs[0].as_slice() == halves[0].as_slice());
                    assert!(runs[1].as_slice() == &halves[1].as_slice()[..8 * BLOCK - 100]);
                }
                other => panic!("{type_name}: expected DataRuns, got {other:?}"),
            }
            assert_eq!(rig.dev.read_count(), 0, "{type_name}: all resident");
        }
    }

    /// A `ReadBuf` that finds some of its blocks resident and fetches the
    /// rest in one run answers with the views of both slots, in byte
    /// order, and copies nothing.
    #[test]
    fn a_partial_readbuf_hit_answers_the_resident_and_the_fetched_runs() {
        for type_name in ["lru_cache", "arc_cache"] {
            let pool = BufferPool::new(PoolConfig {
                classes: vec![(4 * BLOCK, 2)],
            });
            let mut dev = MemDev::new();
            dev.pool = pool.clone();
            dev.poke(2 * BLOCK_SECTORS, &pattern(9, 2 * BLOCK));
            let rig = Rig::mount(type_name, serde_json::json!({}), dev);
            let mut ctx = Ctx::new();
            let head = pool.alloc_from(&pattern(8, 2 * BLOCK)).unwrap();
            let buf = head.clone();
            let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba: 0, buf }), &mut ctx);
            assert!(r.is_ok());
            match rig.read(&mut ctx, 0, 4 * BLOCK - 7) {
                RespPayload::DataRuns(runs) => {
                    assert_eq!(runs.len(), 2, "{type_name}");
                    assert!(runs[0].same_slot(&head), "{type_name}: the resident run");
                    assert!(!runs[1].same_slot(&head), "{type_name}: the fetched run");
                    assert!(runs[0].as_slice() == head.as_slice());
                    assert!(runs[1].as_slice() == &pattern(9, 2 * BLOCK)[..2 * BLOCK - 7]);
                }
                other => panic!("{type_name}: expected DataRuns, got {other:?}"),
            }
            // Only the missing blocks were fetched.
            assert_eq!(*rig.dev.reads.lock(), [(2 * BLOCK_SECTORS, 2 * BLOCK - 7)]);
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
            dev.pool = pool.clone();
            dev.read_stall = std::time::Duration::from_millis(40);
            dev.poke(0, &pattern(5, 4 * BLOCK));
            let rig = Rig::mount(type_name, serde_json::json!({}), dev);
            let resps: Vec<RespPayload> = std::thread::scope(|s| {
                let readers = [0u64, 10].map(|delay_ms| {
                    let rig = &rig;
                    s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                        rig.read(&mut Ctx::new(), 0, 4 * BLOCK - 7)
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
    /// A fetch that a block's `Discard` overtakes answers its read but
    /// does not make what it read resident: reused, the block would
    /// answer its next owner's reads with its dead owner's bytes.
    #[test]
    fn a_fetch_overtaken_by_a_discard_enters_nothing() {
        for cache in ["lru_cache", "arc_cache"] {
            let rig = Rig::mount(cache, serde_json::json!({}), MemDev::new());
            let rig = Arc::new(rig);
            rig.dev.poke(0, &[0xDE; BLOCK]);
            let overtaker = Arc::downgrade(&rig);
            *rig.dev.during_read.lock() = Some(Box::new(move || {
                let rig = overtaker.upgrade().expect("the rig outlives its reads");
                let discard = BlockOp::Discard { lba: 0, len: BLOCK };
                assert!(rig.exec(Payload::Block(discard), &mut Ctx::new()).is_ok());
            }));
            let mut ctx = Ctx::new();
            let dead = bytes(&rig.read(&mut ctx, 0, BLOCK));
            assert_eq!(
                dead,
                Some(vec![0xDE; BLOCK]),
                "{cache}: the read is answered"
            );
            // The block's next owner writes below the cache (a write-around).
            rig.dev.poke(0, &[0x0A; BLOCK]);
            let now = bytes(&rig.read(&mut ctx, 0, BLOCK));
            assert_eq!(
                now,
                Some(vec![0x0A; BLOCK]),
                "{cache}: a dead block was cached"
            );
        }
    }

    /// A write that lands after a miss's fetch has read, but before the
    /// fetch enters what it read, holds the newer bytes: the fetch answers
    /// its read with what it read and enters nothing, so the next read
    /// sees the write.
    #[test]
    fn a_fetch_overtaken_by_a_write_enters_nothing() {
        for cache in ["lru_cache", "arc_cache"] {
            let rig = Rig::mount(cache, serde_json::json!({}), MemDev::new());
            let rig = Arc::new(rig);
            rig.dev.poke(0, &[0xDE; BLOCK]);
            let overtaker = Arc::downgrade(&rig);
            *rig.dev.after_read.lock() = Some(Box::new(move || {
                let rig = overtaker.upgrade().expect("the rig outlives its reads");
                let written = rig.write(&mut Ctx::new(), 0, vec![0x0A; BLOCK]);
                assert!(written.is_ok(), "{written:?}");
            }));
            let mut ctx = Ctx::new();
            let old = bytes(&rig.read(&mut ctx, 0, BLOCK));
            assert_eq!(
                old,
                Some(vec![0xDE; BLOCK]),
                "{cache}: the read is answered"
            );
            let reads = rig.dev.reads.lock().len();
            let now = bytes(&rig.read(&mut ctx, 0, BLOCK));
            assert_eq!(
                now,
                Some(vec![0x0A; BLOCK]),
                "{cache}: the fetch replaced the write's bytes"
            );
            assert_eq!(
                rig.dev.reads.lock().len(),
                reads,
                "{cache}: the write is resident"
            );
        }
    }

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

        fn touch(&mut self, lba: u64) -> Option<&BufHandle> {
            let hit = self.lru.touch(lba);
            self.touched
                .extend(hit.is_some().then_some(lba / BLOCK_SECTORS));
            hit
        }
        fn peek(&self, lba: u64) -> Option<&BufHandle> {
            self.lru.peek(lba)
        }
        fn admit(
            &mut self,
            lba: u64,
            data: BufHandle,
            cap: usize,
            evict: &mut dyn FnMut(u64, BufHandle),
        ) {
            self.lru.admit(lba, data, cap, evict)
        }
        fn pop_coldest(&mut self) -> Option<(u64, BufHandle)> {
            self.lru.pop_coldest()
        }
        fn remove(&mut self, lba: u64) -> Option<BufHandle> {
            self.lru.remove(lba)
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
        let cache = Arc::new(BlockCache::<RecordingLru>::build(
            default_pool(),
            64 * BLOCK,
            false,
        ));
        let rig = Rig::around(cache.clone(), MemDev::new());
        let mut ctx = Ctx::new();
        let buf = pool.alloc_from(&pattern(1, 4 * BLOCK)).unwrap();
        let r = rig.exec(Payload::Block(BlockOp::WriteBuf { lba: 0, buf }), &mut ctx);
        assert!(r.is_ok());
        // Block 2's owned bytes go to a slot of their own: the run of
        // handles stops there.
        assert!(rig.write(&mut ctx, 2, pattern(2, BLOCK)).is_ok());
        let touched = || std::mem::take(&mut cache.index.lock().policy.touched);
        assert!(matches!(
            rig.read(&mut ctx, 0, 4 * BLOCK),
            RespPayload::DataRuns(runs) if runs.len() == 3
        ));
        assert_eq!(touched(), [0, 1, 2, 3], "views after a broken run");
        assert!(matches!(
            rig.read(&mut ctx, 0, 2 * BLOCK),
            RespPayload::DataBuf(_)
        ));
        assert_eq!(touched(), [0, 1], "joined");
        // A slot per owned block from the first block on: the run stops
        // after one.
        assert!(rig.write(&mut ctx, 0, pattern(4, 4 * BLOCK)).is_ok());
        assert!(matches!(
            rig.read(&mut ctx, 0, 4 * BLOCK),
            RespPayload::DataRuns(runs) if runs.len() == 4
        ));
        assert_eq!(touched(), [0, 1, 2, 3], "owned blocks");
        // A miss in the middle: the hits around it, once each.
        rig.dev.poke(5 * BLOCK_SECTORS, &pattern(3, BLOCK));
        assert!(rig.read(&mut ctx, 4, BLOCK).is_ok());
        assert!(rig.read(&mut ctx, 6, BLOCK).is_ok());
        touched();
        assert!(rig.read(&mut ctx, 3, 4 * BLOCK).is_ok());
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
