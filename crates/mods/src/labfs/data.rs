//! LabFS's data path: what a write, read or truncate does to file
//! *bytes*. Each operation asks [`super::meta`] which device blocks
//! stand behind the pages it touches — a write allocates and maps the
//! missing ones in one critical section ([`LabFs::map_range`]) — and then
//! emits `BlockOp`s down the LabStack DAG, coalescing pages that are
//! contiguous on the device. Both write verbs take one walk
//! ([`LabFs::op_write`]) and every partial page one patcher
//! ([`LabFs::patch_page`]); the metadata they change goes through
//! `FsNode::apply` and the store's `commit`.

use labstor_core::{BlockOp, FsOp, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::BufHandle;
use labstor_sim::Ctx;

use super::meta::{LogRecord, Mapping};
use super::{LabFs, BLOCK_SECTORS, FS_BLOCK, META_CPU_NS};
use crate::generic::owned_bytes;

/// Forward one block op downstream with the request's routing intact.
pub(super) fn fwd_block(
    ctx: &mut Ctx,
    env: &StackEnv<'_>,
    req: &Request,
    op: BlockOp,
) -> RespPayload {
    env.forward(ctx, req.derive(Payload::Block(op)))
}

/// The bytes a write carries: the caller's `Vec` (the legacy `Write`)
/// or its pool buffer (`WriteBuf`).
pub(super) enum Source {
    Owned(Vec<u8>),
    Buf(BufHandle),
}

impl Source {
    /// The target `(ino, offset)` and bytes of a write verb; the `Vec`
    /// moves out of the request, the handle is shared by refcount.
    pub(super) fn take(payload: &mut Payload) -> Option<(u64, u64, Source)> {
        match payload {
            Payload::Fs(FsOp::Write { ino, offset, data }) => {
                Some((*ino, *offset, Source::Owned(std::mem::take(data))))
            }
            Payload::Fs(FsOp::WriteBuf { ino, offset, buf }) => {
                Some((*ino, *offset, Source::Buf(buf.clone())))
            }
            _ => None,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Source::Owned(data) => data,
            Source::Buf(buf) => buf.as_slice(),
        }
    }
}

impl LabFs {
    /// Map `[offset, offset+len)` of `ino` to device blocks, allocating
    /// as needed (a write's metadata half). The records made — a
    /// `MapBlock` per page backed, a `SetSize` when it grows — are not
    /// logged yet: a block, fresh or recycled, holds what it held before
    /// until the write lands. The [`Mapping`] keeps them locked, and the
    /// caller logs them, or takes them back, once its data commands are
    /// done ([`LabFs::settle`]). Until then no other operation on the inode
    /// sees them, and no frame maps the blocks.
    ///
    /// A write that starts past an end of file lying inside a mapped page
    /// first zeroes that page from the old end on: what a crash left there
    /// (an append whose size record was lost) must not show through the
    /// gap. Nothing durable shows those bytes, so it is done in place.
    fn map_range(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<Mapping<'_>, RespPayload> {
        let alloc = |goal| self.store.alloc_run(ctx, req.core, 1, goal);
        let mapping = self.store.state.map_pages(
            &self.store.pins,
            ino,
            (offset, len),
            req.creds.uid,
            alloc,
        )?;
        if let Some((block, keep)) = mapping.stale {
            let r = self.patch_page(ctx, env, req, Some(block), block, |p| p[keep..].fill(0));
            if !r.is_ok() {
                return Err(self.settle(ctx, req, mapping, r));
            }
        }
        Ok(mapping)
    }

    /// End the operation that made `mapping`, with `resp` what its data
    /// commands answered. Its records are logged now that its bytes are
    /// down, in the order `map_pages` applied them and before another
    /// apply on the inode; if the bytes are not down, the records are
    /// taken back and their blocks go back to the allocator, so no page
    /// maps a block that does not hold its bytes. Returns `resp`.
    fn settle(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        mut mapping: Mapping<'_>,
        resp: RespPayload,
    ) -> RespPayload {
        if resp.is_ok() {
            for rec in &mapping.recs {
                self.store.log_applied(ctx, req.core, rec);
            }
        } else {
            self.store.unalloc(req.core, mapping.undo());
        }
        resp
    }

    /// Write one page to block `dst`: zeroes, or what block `base` holds
    /// when there is one, changed by `patch`. One write, after one read
    /// when there is a base. Every partial-page write goes through here,
    /// and so does a truncate's copy of a page's head.
    fn patch_page(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        base: Option<u64>,
        dst: u64,
        patch: impl FnOnce(&mut [u8]),
    ) -> RespPayload {
        let mut page = match base {
            None => vec![0u8; FS_BLOCK],
            Some(block) => {
                let (lba, len) = (block * BLOCK_SECTORS, FS_BLOCK);
                // A patch needs owned bytes: a view is copied out once,
                // counted; a dry pool's `Vec` moves.
                match owned_bytes(fwd_block(ctx, env, req, BlockOp::ReadBuf { lba, len })) {
                    Ok(d) => d,
                    Err(other) => return other,
                }
            }
        };
        page.resize(FS_BLOCK, 0);
        patch(&mut page);
        let lba = dst * BLOCK_SECTORS;
        fwd_block(ctx, env, req, BlockOp::Write { lba, data: page })
    }

    /// `Truncate` and `Open { truncate }`: set the size of `ino`. Growing
    /// maps a range of no bytes at the new end. Shrinking to the middle of
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
        let (old, tail, pin) = match self.store.state.page_map(&self.store.pins, ino, size, 1) {
            Ok(v) => v,
            Err(e) => return e,
        };
        if size > old {
            drop(pin);
            return match self.map_range(ctx, env, req, ino, size, 0) {
                Ok(mapping) => self.settle(ctx, req, mapping, RespPayload::Ok),
                Err(e) => e,
            };
        }
        let keep = (size % FS_BLOCK as u64) as usize;
        let copy = match tail.first().filter(|_| size < old && keep != 0) {
            None => None,
            Some(run) => {
                let Some(fresh) = self.store.alloc_run(ctx, req.core, 1, None) else {
                    return RespPayload::Err("no space".into());
                };
                let r =
                    self.patch_page(ctx, env, req, Some(run.block), fresh, |p| p[keep..].fill(0));
                if !r.is_ok() {
                    return r;
                }
                Some(fresh)
            }
        };
        // The tail page is read: what the records free may go.
        drop(pin);
        // The size first: without the remap it is still the right file.
        self.store
            .commit(ctx, env, req, &LogRecord::SetSize { ino, size });
        if let Some(block) = copy {
            let page = size / FS_BLOCK as u64;
            self.store
                .commit(ctx, env, req, &LogRecord::MapBlock { ino, page, block });
        }
        RespPayload::Ok
    }

    /// `Write` and `WriteBuf`: map every page `src` touches, then walk
    /// them in runs of pages that are contiguous on the device. A run
    /// extends over fully covered pages, and over freshly mapped partial
    /// ones when `src` is an owned `Vec`: those bytes are assembled
    /// anyway, so joining the page costs no copy and saves a command. A
    /// handle run must be bytes of one slot, so it stops at a partial
    /// page. A handle run goes down as a `WriteBuf` slice; an owned run
    /// that is the whole `Vec` moves it, any other is assembled once and
    /// zero-padded. Every other page is patched (`patch_page`): from
    /// zeroes when it is fresh, else from its block, so neighbouring
    /// bytes survive. The write logs its records after its data commands,
    /// or takes them back ([`LabFs::settle`]).
    pub(super) fn op_write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        src: Source,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let len = src.as_slice().len();
        if len == 0 {
            // No bytes change nothing, not even the size (POSIX).
            return RespPayload::Len(0);
        }
        let mapping = match self.map_range(ctx, env, req, ino, offset, len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let resp = self.write_runs(ctx, env, req, (offset, src), &mapping);
        self.settle(ctx, req, mapping, resp)
    }

    /// `op_write`'s data half: the block commands that put `src`, at
    /// `offset`, on the runs `mapping` put behind it.
    fn write_runs(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        (offset, mut src): (u64, Source),
        mapping: &Mapping<'_>,
    ) -> RespPayload {
        let (runs, recs) = (&mapping.runs, &mapping.recs);
        let len = src.as_slice().len();
        let fresh = |pg: u64| {
            recs.iter()
                .any(|r| matches!(*r, LogRecord::MapBlock { page, .. } if page == pg))
        };
        let end = offset + len as u64;
        let page = FS_BLOCK as u64;
        let owned = matches!(src, Source::Owned(_));
        let joins = |pg: u64| {
            let full = offset <= pg * page && (pg + 1) * page <= end;
            full || (owned && fresh(pg))
        };
        // Each run's pages are contiguous on the device: cut it into
        // stretches of joining pages and single pages that do not.
        for run in runs.iter() {
            let mut next = run.page;
            while next < run.end() {
                let (pg, joined) = (next, joins(next));
                next += 1;
                while joined && next < run.end() && joins(next) {
                    next += 1;
                }
                let (block, pages) = (run.block + (pg - run.page), next - pg);
                // These pages, and the bytes of `src` that land in them, from
                // `at` on.
                let (start, run_len) = (pg * page, pages as usize * FS_BLOCK);
                let from = start.max(offset);
                let bytes =
                    (from - offset) as usize..((start + run_len as u64).min(end) - offset) as usize;
                let at = (from - start) as usize;
                let r = if !joined {
                    let base = (!fresh(pg)).then_some(block);
                    let bytes = &src.as_slice()[bytes];
                    self.patch_page(ctx, env, req, base, block, |p| {
                        labstor_ipc::note_payload_copy(bytes.len());
                        p[at..at + bytes.len()].copy_from_slice(bytes); // copy-ok: partial-page patch; counted above
                    })
                } else {
                    let lba = block * BLOCK_SECTORS;
                    let op = match &mut src {
                        Source::Buf(buf) => match buf.slice(bytes.start, run_len) {
                            Some(buf) => BlockOp::WriteBuf { lba, buf },
                            None => {
                                return RespPayload::Err(
                                    "write buffer shorter than its extent".into(),
                                )
                            }
                        },
                        // The whole `Vec` on one run: it goes downstream as
                        // the caller allocated it, neither zeroed nor copied.
                        Source::Owned(data) if start == offset && run_len == len => {
                            BlockOp::Write {
                                lba,
                                data: std::mem::take(data),
                            }
                        }
                        // Zero only what the bytes do not cover: the head of
                        // a fresh first page, the tail of a fresh last one.
                        Source::Owned(data) => {
                            let mut padded = Vec::with_capacity(run_len);
                            padded.resize(at, 0);
                            labstor_ipc::note_payload_copy(bytes.len());
                            padded.extend_from_slice(&data[bytes]); // copy-ok: run assembly of owned bytes; counted above
                            padded.resize(run_len, 0);
                            BlockOp::Write { lba, data: padded }
                        }
                    };
                    fwd_block(ctx, env, req, op)
                };
                if !r.is_ok() {
                    return r;
                }
            }
        }
        RespPayload::Len(len)
    }

    /// `ReadBuf`: read `[offset, offset + len)`, one block `ReadBuf` per
    /// run of pages that are contiguous on the device — the mirror image
    /// of the write path's coalescing.
    ///
    /// A read that is a single run hands back a window of whatever came
    /// up — `h.slice(..)` of a handle, the views of a run list that the
    /// window crosses (one view is answered as a handle), a dry pool's
    /// `Vec` itself when it starts at the window — with no assembly
    /// buffer. Small results ride
    /// inline. Holes and scattered files assemble into one `Vec`, each
    /// mapped byte copied (and counted) once.
    pub(super) fn op_read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let first_pg = offset / FS_BLOCK as u64;
        let (size, runs, _pin) = match self
            .store
            .state
            .page_map(&self.store.pins, ino, offset, len)
        {
            Ok(v) => v,
            Err(e) => return e,
        };
        if offset >= size {
            return RespPayload::Data(Vec::new());
        }
        let n = len.min((size - offset) as usize);
        let src = (offset - first_pg * FS_BLOCK as u64) as usize;
        let pages = (src + n).div_ceil(FS_BLOCK) as u64;
        let read = |block: u64, pages: u64| BlockOp::ReadBuf {
            lba: block * BLOCK_SECTORS,
            len: pages as usize * FS_BLOCK,
        };
        // Small results skip the handle round trip and ride by value in
        // the envelope.
        let inline = |win: &[u8]| labstor_ipc::InlineData::from_slice(win).map(RespPayload::Inline);
        if runs.is_empty() {
            // Hole: hand back zeroes without touching the stack.
            let zeroes = vec![0u8; n];
            return inline(&zeroes).unwrap_or(RespPayload::Data(zeroes));
        }
        if let Some(run) = runs
            .first()
            .filter(|r| r.page == first_pg && r.pages == pages)
        {
            // One run: no assembly, the answer is a window of the response.
            let short = || RespPayload::Err("short block read".into());
            let one_view =
                |win: BufHandle| inline(win.as_slice()).unwrap_or(RespPayload::DataBuf(win));
            return match fwd_block(ctx, env, req, read(run.block, pages)) {
                RespPayload::DataBuf(h) => h.slice(src, n).map_or_else(short, one_view),
                RespPayload::DataRuns(runs) => match window(runs, src, n) {
                    None => short(),
                    Some(views) if views.len() > 1 => RespPayload::DataRuns(views),
                    Some(mut views) => views.pop().map_or(RespPayload::Data(Vec::new()), one_view),
                },
                RespPayload::Data(mut d) => {
                    let Some(win) = d.get(src..src + n) else {
                        return short();
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
        for run in runs.iter() {
            let resp = fwd_block(ctx, env, req, read(run.block, run.pages));
            let Some(parts) = resp.data_parts() else {
                return resp;
            };
            // This run's bytes within the request and within the response.
            let run_start = run.page * FS_BLOCK as u64;
            let copy_from = run_start.max(offset);
            let copy_to = (run.end() * FS_BLOCK as u64).min(offset + n as u64);
            let cnt = (copy_to - copy_from) as usize;
            let mut skip = (copy_from - run_start) as usize;
            let (mut dst, end) = ((copy_from - offset) as usize, (copy_to - offset) as usize);
            for part in parts {
                let from = skip.min(part.len());
                let take = (part.len() - from).min(end - dst);
                // copy-ok: assembly of a scattered read; counted below
                out[dst..dst + take].copy_from_slice(&part[from..from + take]);
                skip -= from;
                dst += take;
            }
            if dst < end {
                return RespPayload::Err("short block read".into());
            }
            labstor_ipc::note_payload_copy(cnt);
        }
        RespPayload::Data(out)
    }
}

/// Cut `runs`, a run list in byte order, to the window `[src, src + n)`
/// in place: the runs the window crosses, each narrowed to its share of
/// it. `None` if the runs end before the window does.
fn window(mut runs: Vec<BufHandle>, src: usize, n: usize) -> Option<Vec<BufHandle>> {
    let (mut at, end) = (0, src + n);
    runs.retain_mut(|run| {
        let start = at;
        at += run.len();
        let (lo, hi) = (src.max(start), end.min(at));
        match (lo < hi).then(|| run.slice(lo - start, hi - lo)).flatten() {
            Some(view) => {
                *run = view;
                true
            }
            None => false,
        }
    });
    (at >= end).then_some(runs)
}
