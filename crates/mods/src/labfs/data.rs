//! LabFS's data path: what a write, read or truncate does to file
//! *bytes*. Each operation asks [`super::meta`] which device blocks
//! stand behind the pages it touches — a write allocates and maps the
//! missing ones in one critical section ([`LabFs::map_range`]) — and then
//! emits `BlockOp`s down the LabStack DAG, coalescing pages that are
//! contiguous on the device. Moved out of `labfs.rs` as it was; the
//! metadata it changes goes through `FsNode::apply` and the store's
//! `commit`.

use std::collections::HashSet;

use labstor_core::{BlockOp, Payload, Request, RespPayload, StackEnv};
use labstor_sim::Ctx;

use super::meta::LogRecord;
use super::{LabFs, BLOCK_SECTORS, FS_BLOCK, META_CPU_NS};

/// Forward one block op downstream with the request's routing intact.
pub(super) fn fwd_block(
    ctx: &mut Ctx,
    env: &StackEnv<'_>,
    req: &Request,
    op: BlockOp,
) -> RespPayload {
    env.forward(ctx, req.derive(Payload::Block(op)))
}

impl LabFs {
    /// Map `[offset, offset+len)` of `ino` to device blocks, allocating
    /// and logging as needed (the metadata half shared by the copying and
    /// zero-copy write paths). Returns the (page, block) extents and the
    /// set of freshly mapped pages.
    ///
    /// A write that starts past an end of file lying inside a mapped page
    /// first zeroes that page from the old end on: what a crash left there
    /// (an append whose size record was lost) must not show through the
    /// gap. Nothing durable shows those bytes, so it is done in place.
    #[allow(clippy::type_complexity)]
    fn map_range(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<(u64, u64)>, HashSet<u64>), RespPayload> {
        let alloc = || self.store.alloc_run(ctx, req.core, 1);
        let (recs, extents, stale) =
            self.store
                .state
                .map_pages(ino, (offset, len), req.creds.uid, alloc)?;
        // Log only what changed: new mappings and growth. `map_pages`
        // applied them all under one inode lock.
        let mut fresh = HashSet::new();
        for rec in &recs {
            if let LogRecord::MapBlock { page, .. } = rec {
                fresh.insert(*page);
            }
            self.store.log_applied(ctx, req.core, rec);
        }
        if let Some((block, keep)) = stale {
            let r = self.rewrite_head(ctx, env, req, block, block, keep);
            if !r.is_ok() {
                return Err(r);
            }
        }
        Ok((extents, fresh))
    }

    /// Write the first `keep` bytes of block `src`, then zeroes, to block
    /// `dst`: one read and one write, like any partial-page write.
    fn rewrite_head(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        src: u64,
        dst: u64,
        keep: usize,
    ) -> RespPayload {
        let (lba, len) = (src * BLOCK_SECTORS, FS_BLOCK);
        let mut page = match fwd_block(ctx, env, req, BlockOp::Read { lba, len }) {
            RespPayload::Data(d) => d,
            other => return other,
        };
        page.truncate(keep);
        page.resize(FS_BLOCK, 0);
        let lba = dst * BLOCK_SECTORS;
        fwd_block(ctx, env, req, BlockOp::Write { lba, data: page })
    }

    /// `Truncate` and `Open { truncate }`: set the size of `ino`. Growing
    /// is a write of no bytes at the new end. Shrinking to the middle of
    /// a mapped page remaps that page to a copy zeroed past the new end:
    /// later appends land in the copy, so a crash that loses this
    /// truncate still finds in the old block what the old size shows.
    pub(super) fn op_truncate(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        size: u64,
    ) -> RespPayload {
        // The page the new end falls in, and what backs it.
        let (old, tail) = match self.store.state.page_map(ino, size, 1) {
            Ok(v) => v,
            Err(e) => return e,
        };
        if size > old {
            return match self.map_range(ctx, env, req, ino, size, 0) {
                Ok(_) => RespPayload::Ok,
                Err(e) => e,
            };
        }
        let keep = (size % FS_BLOCK as u64) as usize;
        let copy = match tail[0].filter(|_| size < old && keep != 0) {
            None => None,
            Some(block) => {
                let Some(fresh) = self.store.alloc_run(ctx, req.core, 1) else {
                    return RespPayload::Err("no space".into());
                };
                let r = self.rewrite_head(ctx, env, req, block, fresh, keep);
                if !r.is_ok() {
                    return r;
                }
                Some(fresh)
            }
        };
        // The size first: without the remap it is still the right file.
        self.store
            .commit(ctx, req.core, &LogRecord::SetSize { ino, size });
        if let Some(block) = copy {
            let page = size / FS_BLOCK as u64;
            self.store
                .commit(ctx, req.core, &LogRecord::MapBlock { ino, page, block });
        }
        RespPayload::Ok
    }

    pub(super) fn op_write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        data: Vec<u8>,
    ) -> RespPayload {
        // Map every touched page to a block, allocating as needed.
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (extents, fresh_pages) = match self.map_range(ctx, env, req, ino, offset, data.len()) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let len = data.len();
        let end = offset + len as u64;
        let whole_pages = offset.is_multiple_of(FS_BLOCK as u64) && len.is_multiple_of(FS_BLOCK);
        if whole_pages && extents.windows(2).all(|w| w[1].1 == w[0].1 + 1) {
            // Whole pages on one contiguous run: the caller's allocation
            // goes downstream as it is, neither zero-filled nor copied.
            let Some(&(_, block)) = extents.first() else {
                return RespPayload::Len(0);
            };
            let lba = block * BLOCK_SECTORS;
            let r = fwd_block(ctx, env, req, BlockOp::Write { lba, data });
            return if r.is_ok() { RespPayload::Len(len) } else { r };
        }
        // Emit block writes downstream. Partially-covered pages that were
        // already mapped (and not freshly allocated) need read-modify-write
        // so neighbouring bytes survive; full pages and fresh pages are
        // written directly, coalescing contiguous full blocks.
        let mut i = 0usize;
        while i < extents.len() {
            let (page, block) = extents[i];
            let pg_start = page * FS_BLOCK as u64;
            let cover_from = pg_start.max(offset);
            let cover_to = (pg_start + FS_BLOCK as u64).min(end);
            let full = cover_from == pg_start && cover_to == pg_start + FS_BLOCK as u64;
            if !full && !fresh_pages.contains(&page) {
                // Partial overwrite of an existing block: read-modify-write.
                let lba = block * BLOCK_SECTORS;
                let read = BlockOp::Read { lba, len: FS_BLOCK };
                let mut payload = match fwd_block(ctx, env, req, read) {
                    RespPayload::Data(d) => d,
                    other => return other,
                };
                payload.resize(FS_BLOCK, 0);
                let dst = (cover_from - pg_start) as usize;
                let src = (cover_from - offset) as usize;
                let n = (cover_to - cover_from) as usize;
                payload[dst..dst + n].copy_from_slice(&data[src..src + n]);
                let r = fwd_block(ctx, env, req, BlockOp::Write { lba, data: payload });
                if !r.is_ok() {
                    return r;
                }
                i += 1;
                continue;
            }
            // Coalesce a run of contiguous blocks that are full or fresh.
            let mut j = i;
            while j + 1 < extents.len() && extents[j + 1].1 == extents[j].1 + 1 {
                let (npage, _) = extents[j + 1];
                let n_start = npage * FS_BLOCK as u64;
                let n_full = offset <= n_start && n_start + FS_BLOCK as u64 <= end;
                if !n_full && !fresh_pages.contains(&npage) {
                    break;
                }
                j += 1;
            }
            let run_bytes = (j - i + 1) * FS_BLOCK;
            let run_start = pg_start.max(offset);
            let run_end = (pg_start + run_bytes as u64).min(end);
            let src = &data[(run_start - offset) as usize..(run_end - offset) as usize];
            // Zero only what the caller's bytes do not cover: the head of
            // a fresh first page, the tail of a fresh last one.
            let mut payload = Vec::with_capacity(run_bytes);
            payload.resize((run_start - pg_start) as usize, 0);
            payload.extend_from_slice(src);
            payload.resize(run_bytes, 0);
            let lba = block * BLOCK_SECTORS;
            let r = fwd_block(ctx, env, req, BlockOp::Write { lba, data: payload });
            if !r.is_ok() {
                return r;
            }
            i = j + 1;
        }
        RespPayload::Len(len)
    }

    /// Read `[offset, offset + len)`, one block request per run of pages
    /// that are contiguous on the device — the mirror image of the write
    /// paths' coalescing. `zero_copy` (the `ReadBuf` op) asks downstream
    /// for pool handles and may answer with one or with inline bytes; the
    /// legacy `Read` op always answers `Data`.
    ///
    /// A read that is a single run hands back a window of whatever came
    /// up — `h.slice(..)` of a handle, the `Vec` itself when it starts at
    /// the window — with no assembly buffer. Holes and scattered files
    /// assemble into one `Vec`, each mapped byte copied (and counted) once.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn op_read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
        zero_copy: bool,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let first_pg = offset / FS_BLOCK as u64;
        let (size, mut mappings) = match self.store.state.page_map(ino, offset, len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        if offset >= size {
            return RespPayload::Data(Vec::new());
        }
        let n = len.min((size - offset) as usize);
        let src = (offset - first_pg * FS_BLOCK as u64) as usize;
        mappings.truncate((src + n).div_ceil(FS_BLOCK));
        let read = |block: u64, pages: usize| {
            let (lba, len) = (block * BLOCK_SECTORS, pages * FS_BLOCK);
            if zero_copy {
                BlockOp::ReadBuf { lba, len }
            } else {
                BlockOp::Read { lba, len }
            }
        };
        let run_from = |i: usize, block: u64| {
            (i..mappings.len())
                .take_while(|&j| mappings[j] == Some(block + (j - i) as u64))
                .count()
        };
        let inline = |win: &[u8]| {
            // Small results skip the handle round trip and ride by value
            // in the envelope.
            zero_copy
                .then(|| labstor_ipc::InlineData::from_slice(win))
                .flatten()
                .map(RespPayload::Inline)
        };
        if mappings.iter().all(Option::is_none) {
            // Hole: hand back zeroes without touching the stack.
            let zeroes = vec![0u8; n];
            return inline(&zeroes).unwrap_or(RespPayload::Data(zeroes));
        }
        if let Some(block) = mappings[0].filter(|&b| run_from(0, b) == mappings.len()) {
            // One run: no assembly, the answer is a window of the response.
            return match fwd_block(ctx, env, req, read(block, mappings.len())) {
                RespPayload::DataBuf(h) => match h.slice(src, n) {
                    None => RespPayload::Err("short block read".into()),
                    Some(win) => inline(win.as_slice()).unwrap_or_else(|| {
                        if zero_copy {
                            // The zero-copy path: a view of the cached/DMA'd run.
                            RespPayload::DataBuf(win)
                        } else {
                            // copy-ok: legacy Read answers with owned bytes; to_vec self-counts
                            RespPayload::Data(win.to_vec())
                        }
                    }),
                },
                RespPayload::Data(mut d) => {
                    let Some(win) = d.get(src..src + n) else {
                        return RespPayload::Err("short block read".into());
                    };
                    if let Some(small) = inline(win) {
                        small
                    } else if src == 0 {
                        d.truncate(n);
                        RespPayload::Data(d)
                    } else {
                        labstor_ipc::note_payload_copy(n);
                        RespPayload::Data(win.to_vec()) // copy-ok: the window starts inside the owned response; counted above
                    }
                }
                other => other,
            };
        }
        // Holes or scattered runs: assemble. Holes stay zero.
        let mut out = vec![0u8; n];
        let mut i = 0usize;
        while i < mappings.len() {
            let Some(block) = mappings[i] else {
                i += 1;
                continue;
            };
            let pages = run_from(i, block);
            let resp = fwd_block(ctx, env, req, read(block, pages));
            let Some(bytes) = resp.data_bytes() else {
                return resp;
            };
            // This run's bytes within the request and within the response.
            let run_start = (first_pg + i as u64) * FS_BLOCK as u64;
            let copy_from = run_start.max(offset);
            let copy_to = (run_start + (pages * FS_BLOCK) as u64).min(offset + n as u64);
            let cnt = (copy_to - copy_from) as usize;
            let Some(win) = bytes
                .get((copy_from - run_start) as usize..)
                .and_then(|b| b.get(..cnt))
            else {
                return RespPayload::Err("short block read".into());
            };
            let dst = (copy_from - offset) as usize;
            labstor_ipc::note_payload_copy(cnt);
            out[dst..dst + cnt].copy_from_slice(win); // copy-ok: assembly of a scattered read; counted above
            i += pages;
        }
        RespPayload::Data(out)
    }

    /// Zero-copy write: fully covered pages are forwarded as `WriteBuf`
    /// slices of the caller's pool buffer (refcount bumps — no memcpy all
    /// the way to the driver, which DMAs from the shared buffer). Partial
    /// pages fall back to the copying path: fresh ones are zero-padded,
    /// existing ones read-modify-write; both copies are counted.
    pub(super) fn op_write_buf(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        buf: &labstor_ipc::BufHandle,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let data_len = buf.len();
        let (extents, fresh_pages) = match self.map_range(ctx, env, req, ino, offset, data_len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let end = offset + data_len as u64;
        let mut i = 0usize;
        while i < extents.len() {
            let (page, block) = extents[i];
            let pg_start = page * FS_BLOCK as u64;
            let cover_from = pg_start.max(offset);
            let cover_to = (pg_start + FS_BLOCK as u64).min(end);
            let full = cover_from == pg_start && cover_to == pg_start + FS_BLOCK as u64;
            if full {
                // Coalesce contiguous fully covered blocks into one slice.
                let mut j = i;
                while j + 1 < extents.len() && extents[j + 1].1 == extents[j].1 + 1 {
                    let n_start = extents[j + 1].0 * FS_BLOCK as u64;
                    if !(offset <= n_start && n_start + FS_BLOCK as u64 <= end) {
                        break;
                    }
                    j += 1;
                }
                let run_pages = j - i + 1;
                let Some(slice) = buf.slice((pg_start - offset) as usize, run_pages * FS_BLOCK)
                else {
                    return RespPayload::Err("write buffer shorter than its extent".into());
                };
                let r = fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::WriteBuf {
                        lba: block * BLOCK_SECTORS,
                        buf: slice,
                    },
                );
                if !r.is_ok() {
                    return r;
                }
                i = j + 1;
                continue;
            }
            // Partial page: copying fallback.
            let dst = (cover_from - pg_start) as usize;
            let src = (cover_from - offset) as usize;
            let cnt = (cover_to - cover_from) as usize;
            let mut payload = if fresh_pages.contains(&page) {
                vec![0u8; FS_BLOCK] // fresh block: pad with zeroes
            } else {
                // Read-modify-write so neighbouring bytes survive.
                let mut p = match fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::Read {
                        lba: block * BLOCK_SECTORS,
                        len: FS_BLOCK,
                    },
                ) {
                    RespPayload::Data(d) => d,
                    RespPayload::DataBuf(h) => h.to_vec(), // copy-ok: RMW needs owned bytes; to_vec self-counts
                    other => return other,
                };
                p.resize(FS_BLOCK, 0);
                p
            };
            labstor_ipc::note_payload_copy(cnt);
            payload[dst..dst + cnt].copy_from_slice(&buf.as_slice()[src..src + cnt]); // copy-ok: partial-page patch; counted above
            let r = fwd_block(
                ctx,
                env,
                req,
                BlockOp::Write {
                    lba: block * BLOCK_SECTORS,
                    data: payload,
                },
            );
            if !r.is_ok() {
                return r;
            }
            i += 1;
        }
        RespPayload::Len(data_len)
    }
}
