//! LabFS's pushdown hook: `ReadFiltered` runs a verified program over a
//! file range in-stack and ships back only the result (DESIGN.md §14).
//! Moved out of `labfs.rs` as it was.

use labstor_core::{BlockOp, Request, RespPayload, StackEnv};
use labstor_sim::Ctx;

use super::data::fwd_block;
use super::{LabFs, BLOCK_SECTORS, FS_BLOCK, META_CPU_NS};

impl LabFs {
    /// Pushdown read: run a verified program over the file range
    /// in-stack and ship back only the result. Every page is scanned in
    /// place — cache hits stay refcounted handle slices, legacy `Data`
    /// answers are scanned where they sit — so the hit path counts
    /// **zero** payload copies. Fuel is metered per instruction across
    /// the whole range and billed to the requesting tenant afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn op_read_filtered(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        use labstor_pushdown::{scan, Action, ScanOut};

        let rlen = prog.record_len();
        // Records must pack pages exactly: no record straddles a block
        // boundary, so each page scans independently over one slice.
        if rlen > FS_BLOCK || !FS_BLOCK.is_multiple_of(rlen) {
            return RespPayload::Err(format!(
                "pushdown: record length {rlen} does not pack {FS_BLOCK}-byte pages"
            ));
        }
        if !offset.is_multiple_of(rlen as u64) {
            return RespPayload::Err(format!(
                "pushdown: offset {offset} not aligned to {rlen}-byte records"
            ));
        }
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (size, mappings) = match self.store.state.page_map(ino, offset, len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let avail = size.saturating_sub(offset) as usize;
        let n = (len.min(avail) / rlen) * rlen; // whole records only
        let mut fuel = prog.fuel_budget();
        let mut out = ScanOut::default();
        let mut matched: Vec<u8> = Vec::new();
        let first_pg = offset / FS_BLOCK as u64;
        static ZERO_PAGE: [u8; FS_BLOCK] = [0u8; FS_BLOCK];
        for (idx, mapping) in mappings.iter().enumerate() {
            let pg = first_pg + idx as u64;
            let pg_start = pg * FS_BLOCK as u64;
            let win_from = pg_start.max(offset);
            let win_to = (pg_start + FS_BLOCK as u64).min(offset + n as u64);
            if win_from >= win_to {
                continue;
            }
            let src = (win_from - pg_start) as usize;
            let cnt = (win_to - win_from) as usize;
            let base_index = (win_from - offset) / rlen as u64;
            // Holes read as zeroes; scan the shared zero page so hole
            // semantics match a plain read without materializing pages.
            let hole_resp;
            let window: &[u8] = match mapping {
                None => &ZERO_PAGE[src..src + cnt],
                Some(block) => {
                    hole_resp = fwd_block(
                        ctx,
                        env,
                        req,
                        BlockOp::ReadBuf {
                            lba: block * BLOCK_SECTORS,
                            len: FS_BLOCK,
                        },
                    );
                    match &hole_resp {
                        // The pushdown payoff: scan the cached/DMA'd
                        // block in place through the handle — no copy.
                        RespPayload::DataBuf(h) if h.len() >= src + cnt => {
                            &h.as_slice()[src..src + cnt]
                        }
                        RespPayload::Data(d) if d.len() >= src + cnt => &d[src..src + cnt],
                        RespPayload::DataBuf(_) | RespPayload::Data(_) => {
                            return RespPayload::Err("short block read".into())
                        }
                        _ => return hole_resp.clone(),
                    }
                }
            };
            let before_hits = out.hits.len();
            let scan_result = scan(prog, window, base_index, &mut fuel, &mut out);
            if prog.action() == Action::Select {
                for &hit in &out.hits[before_hits..] {
                    // copy-ok: materializing the (rare) matching records is
                    // the result, not a payload move; the pool boundary
                    // below self-counts if it leaves inline range.
                    matched.extend_from_slice(&window[hit..hit + rlen]);
                }
            }
            if scan_result.is_err() {
                let used = prog.fuel_budget() - fuel;
                let _ = env.charge_fuel(ctx, &req.creds, used);
                return RespPayload::Err(format!(
                    "pushdown: out of fuel after {} records",
                    out.records
                ));
            }
        }
        let used = prog.fuel_budget() - fuel;
        if let Err(retry_vns) = env.charge_fuel(ctx, &req.creds, used) {
            return RespPayload::Err(format!(
                "pushdown: tenant {} over fuel budget, retry in {retry_vns} vns",
                req.creds.tenant.as_u32()
            ));
        }
        match prog.action() {
            Action::Count | Action::Sum => {
                let reply = labstor_pushdown::AggReply {
                    records: out.records,
                    matches: out.matches,
                    agg: out.agg,
                    fuel_used: used,
                };
                match labstor_ipc::InlineData::from_slice(&reply.encode()) {
                    Some(d) => RespPayload::Inline(d),
                    None => RespPayload::Err("pushdown: aggregate too large".into()),
                }
            }
            Action::Select => match labstor_ipc::InlineData::from_slice(&matched) {
                Some(d) => RespPayload::Inline(d),
                None => match labstor_ipc::default_pool().alloc_from(&matched) {
                    Some(h) => RespPayload::DataBuf(h),
                    None => RespPayload::Data(matched),
                },
            },
        }
    }
}
