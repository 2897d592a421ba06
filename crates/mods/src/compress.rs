//! The compression LabMod (the paper's "Active Storage" example and the
//! C-LabStack of the request-partitioning experiment, Fig. 5b).
//!
//! Compresses block writes before forwarding them downstream and
//! transparently decompresses reads. Real compression runs
//! ([`crate::compress_algo`]); the *modeled* CPU cost is calibrated to the
//! paper's ZLIB anchor (32 MB ≈ 20 ms), which is what makes the
//! C-LabStack "computational" to the Work Orchestrator.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::{Ctx, SECTOR_SIZE};

use crate::compress_algo::{compress, compress_cost_ns, decompress, decompress_cost_ns};

/// Compressed-extent bookkeeping: original and stored lengths per LBA.
#[derive(Debug, Clone, Copy)]
struct Extent {
    orig_len: usize,
    /// Exact compressed token-stream length (before sector padding).
    comp_len: usize,
    /// Sector-padded length actually stored downstream.
    stored_len: usize,
    /// Incompressible data is stored raw.
    raw: bool,
}

impl Extent {
    /// Sectors of the original bytes.
    fn sectors(&self) -> u64 {
        self.orig_len.div_ceil(SECTOR_SIZE) as u64
    }

    /// Sectors of the stored bytes.
    fn stored_sectors(&self) -> u64 {
        (self.stored_len / SECTOR_SIZE) as u64
    }
}

/// The compression LabMod.
pub(crate) struct CompressMod {
    /// Extents by first lba.
    extents: RwLock<BTreeMap<u64, Extent>>,
}

impl CompressMod {
    /// New compressor.
    pub(crate) fn new() -> Self {
        CompressMod {
            extents: RwLock::new(BTreeMap::new()),
        }
    }

    /// Forget the extents that start in the `len` bytes at `lba`: a
    /// write there replaced them, or a discard said they are dead.
    fn forget(&self, lba: u64, len: usize) {
        let end = lba + len.div_ceil(SECTOR_SIZE) as u64;
        let mut extents = self.extents.write();
        while let Some((&at, _)) = extents.range(lba..end).next() {
            extents.remove(&at);
        }
    }

    /// Before a discard of `[lba, end)`: an extent whose stored bytes lie
    /// in that range is cut by what is written there next, though some of
    /// its sectors may lie outside it and live on — the nearest extent
    /// that starts before `lba` when its stored bytes reach `lba`, and one
    /// that starts inside and ends past `end`. Decode each, newest first,
    /// and store its live sectors again as extents of their own, each cut
    /// short where another extent starts.
    fn keep_live(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        (lba, end): (u64, u64),
    ) -> Result<(), RespPayload> {
        let cut: Vec<(u64, Extent)> = {
            let extents = self.extents.read();
            let head = extents.range(..lba).next_back();
            let head = head.filter(|(&at, e)| at + e.stored_sectors() > lba);
            let inside = extents
                .range(lba..end)
                .filter(|(&at, e)| at + e.sectors() > end);
            inside.chain(head).rev().map(|(&at, &e)| (at, e)).collect()
        };
        for (at, e) in cut {
            let data = self.fetch_decoded(ctx, env, req, at, e)?;
            self.extents.write().remove(&at);
            for (from, to) in [(at, lba), (end, at + e.sectors())] {
                if from >= to {
                    continue;
                }
                let next = self.extents.read().range(from..to).next().map(|(&n, _)| n);
                let to = next.unwrap_or(to);
                let bytes = |lba: u64| ((lba.max(at) - at) as usize * SECTOR_SIZE).min(data.len());
                let live = &data[bytes(from)..bytes(to)];
                if !live.is_empty() {
                    let r = self.do_write(ctx, env, req, from, live);
                    if !r.is_ok() {
                        return Err(r);
                    }
                }
            }
        }
        Ok(())
    }

    /// The extent that holds sector `lba`, with its first lba.
    fn covering(&self, lba: u64) -> Option<(u64, Extent)> {
        let extents = self.extents.read();
        let (&at, &e) = extents.range(..=lba).next_back()?;
        (lba < at + e.sectors()).then_some((at, e))
    }

    /// Compress `data`, record the extent, and forward the stored bytes.
    /// Compression is a transform, not a copy: the stored stream is new
    /// bytes either way, so `Write` and `WriteBuf` share this path.
    fn do_write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        lba: u64,
        data: &[u8],
    ) -> RespPayload {
        let orig_len = data.len();
        ctx.advance(compress_cost_ns(orig_len));
        let compressed = compress(data);
        let (stored, raw) = if compressed.len() < orig_len {
            (compressed, false)
        } else {
            labstor_ipc::note_payload_copy(orig_len);
            // copy-ok: incompressible payloads are stored verbatim; counted just above
            (data.to_vec(), true)
        };
        let comp_len = stored.len();
        let stored = pad_to_sectors(stored);
        self.forget(lba, orig_len);
        self.extents.write().insert(
            lba,
            Extent {
                orig_len,
                comp_len,
                stored_len: stored.len(),
                raw,
            },
        );
        let fwd = req.derive(Payload::Block(BlockOp::Write { lba, data: stored }));
        match env.forward(ctx, fwd) {
            r if r.is_ok() => RespPayload::Len(orig_len),
            err => err,
        }
    }

    /// Fetch an extent's stored bytes and decode them to the original.
    fn fetch_decoded(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        lba: u64,
        e: Extent,
    ) -> Result<Vec<u8>, RespPayload> {
        let fwd = req.derive(Payload::Block(BlockOp::ReadBuf {
            lba,
            len: e.stored_len,
        }));
        let resp = env.forward(ctx, fwd);
        // The decoder reads one slice: the answer's own, or a run list
        // joined by one counted copy.
        let joined;
        let stored = match resp.data_bytes() {
            Some(bytes) => bytes,
            None => {
                joined = crate::generic::owned_bytes(resp.clone())?;
                &joined
            }
        };
        if e.raw {
            let raw = &stored[..e.orig_len.min(stored.len())];
            labstor_ipc::note_payload_copy(raw.len());
            Ok(raw.to_vec()) // copy-ok: raw extents decode by a copy out of the answer; counted above
        } else {
            ctx.advance(decompress_cost_ns(e.orig_len));
            decompress(&stored[..e.comp_len.min(stored.len())])
                .map_err(|err| RespPayload::Err(format!("decompression failed: {err}")))
        }
    }
}

impl Default for CompressMod {
    fn default() -> Self {
        Self::new()
    }
}

fn pad_to_sectors(mut data: Vec<u8>) -> Vec<u8> {
    let padded = data.len().div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
    data.resize(padded.max(SECTOR_SIZE), 0);
    data
}

// labmod-default-ok: the extent map migrates in state_update but lives in memory only, so a restart loses it and compressed blocks then read back raw (ROADMAP 25); no map is kept on the device for a repair pass to check
impl LabMod for CompressMod {
    fn type_name(&self) -> &'static str {
        "compress"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filter
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        match &req.payload {
            Payload::Block(BlockOp::Write { lba, data }) => {
                // Legacy Vec ingress: compress borrows the payload in
                // place, so even this path copies nothing extra.
                self.do_write(ctx, env, &req, *lba, data)
            }
            Payload::Block(BlockOp::WriteBuf { lba, buf }) => {
                // Zero-copy ingress: compress straight out of the shared
                // buffer — no `Vec` materialization of the input.
                let (lba, buf) = (*lba, buf.clone());
                self.do_write(ctx, env, &req, lba, buf.as_slice())
            }
            Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                let (lba, len) = (*lba, *len);
                match self.covering(lba) {
                    // A raw extent is stored verbatim where it starts: a
                    // read inside its bytes goes down unchanged, and what
                    // comes up is the answer, no copy.
                    Some((at, e))
                        if e.raw && (lba - at) as usize * SECTOR_SIZE + len <= e.orig_len =>
                    {
                        env.forward(ctx, req)
                    }
                    Some((at, e)) => match self.fetch_decoded(ctx, env, &req, at, e) {
                        Ok(data) => {
                            // The read's window of the decoded extent lands
                            // in pool slots so upstream stages share it by
                            // refcount.
                            let skip = ((lba - at) as usize * SECTOR_SIZE).min(data.len());
                            let end = (skip + len).min(data.len());
                            crate::generic::pooled_answer(&data[skip..end])
                        }
                        Err(resp) => resp,
                    },
                    // Unknown extent: pass through untouched (downstream
                    // answers zero-copy directly).
                    None => env.forward(ctx, req),
                }
            }
            Payload::Block(BlockOp::Discard { lba, len }) => {
                let (lba, len) = (*lba, *len);
                let end = lba + len.div_ceil(SECTOR_SIZE) as u64;
                if let Err(resp) = self.keep_live(ctx, env, &req, (lba, end)) {
                    return resp;
                }
                self.forget(lba, len);
                env.forward(ctx, req)
            }
            _ => env.forward(ctx, req),
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        // Size-scaled: the orchestrator's CQ/LQ split keys off this model,
        // and an average over mixed request sizes would misclassify small
        // requests.
        compress_cost_ns(req.payload_bytes())
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<CompressMod>() {
            *self.extents.write() = prev.extents.read().clone();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory (no parameters).
pub(crate) fn install(mm: &ModuleManager) {
    mm.register_factory(
        "compress",
        Arc::new(|_params| Arc::new(CompressMod::new()) as Arc<dyn LabMod>),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct MemDev {
        blocks: Mutex<std::collections::HashMap<u64, Vec<u8>>>,
        bytes_written: AtomicU64,
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
                    self.bytes_written
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    let n = data.len();
                    self.blocks.lock().insert(lba, data);
                    RespPayload::Len(n)
                }
                Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                    let data = match self.blocks.lock().get(&lba) {
                        Some(d) => d[..len.min(d.len())].to_vec(),
                        None => vec![0u8; len],
                    };
                    let pool = labstor_ipc::default_pool();
                    RespPayload::DataBuf(pool.alloc_from(&data).expect("a pool slot"))
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

    fn setup() -> (ModuleManager, LabStack, Arc<MemDev>) {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate("cz", "compress", &serde_json::Value::Null)
            .unwrap();
        let dev = Arc::new(MemDev {
            blocks: Mutex::new(Default::default()),
            bytes_written: AtomicU64::new(0),
        });
        mm.insert_instance("dev", dev.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "cz".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "dev".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        (mm, stack, dev)
    }

    fn exec(mm: &ModuleManager, stack: &LabStack, payload: Payload, ctx: &mut Ctx) -> RespPayload {
        let env = StackEnv::new(stack, 0, mm, 0);
        mm.get("cz")
            .unwrap()
            .process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
    }

    #[test]
    fn compressible_writes_shrink_on_device() {
        let (mm, stack, dev) = setup();
        let mut ctx = Ctx::new();
        let data: Vec<u8> = std::iter::repeat_n(b"particle:0042 vx=1.0 vy=2.0 ", 4096)
            .flatten()
            .copied()
            .collect();
        let orig = data.len();
        let w = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: data.clone(),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == orig));
        assert!(
            dev.bytes_written.load(Ordering::Relaxed) < orig as u64 / 2,
            "device received compressed bytes"
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::ReadBuf { lba: 0, len: orig }),
            &mut ctx,
        );
        assert!(
            r.data_bytes() == Some(&data[..]),
            "transparent decompression"
        );
    }

    #[test]
    fn incompressible_writes_stored_raw() {
        let (mm, stack, _dev) = setup();
        let mut ctx = Ctx::new();
        let mut x = 0x9e3779b9u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 8,
                data: data.clone(),
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::ReadBuf {
                lba: 8,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(r.data_bytes() == Some(&data[..]));
    }

    #[test]
    fn zero_copy_write_read_roundtrip() {
        let (mm, stack, dev) = setup();
        let mut ctx = Ctx::new();
        let data: Vec<u8> = std::iter::repeat_n(b"sensor:17 t=300K p=1.0atm he=4 ", 2048)
            .flatten()
            .copied()
            .collect();
        let mut h = labstor_ipc::default_pool()
            .alloc(data.len())
            .expect("pool has a big-enough class");
        h.write_with(|b| b.copy_from_slice(&data));
        let w = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::WriteBuf { lba: 4, buf: h }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == data.len()));
        assert!(
            dev.bytes_written.load(Ordering::Relaxed) < data.len() as u64 / 2,
            "device received compressed bytes"
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::ReadBuf {
                lba: 4,
                len: data.len(),
            }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), &data[..]),
            other => panic!("expected a zero-copy DataBuf, got {other:?}"),
        }
    }

    #[test]
    fn compression_cost_dominates_clock() {
        let (mm, stack, _dev) = setup();
        let mut ctx = Ctx::new();
        let data = vec![7u8; 32 << 20]; // the paper's 32 MB request
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write { lba: 0, data }),
            &mut ctx,
        );
        assert!(
            ctx.now() >= 15_000_000,
            "32 MB ≈ 20 ms of compression, got {} ns",
            ctx.now()
        );
    }

    /// A block LabFS freed and reused: its old extent is discarded, and
    /// a longer write from an earlier lba now covers it. A read at the
    /// reused lba decodes the new extent, not the dead one.
    #[test]
    fn a_read_inside_a_newer_extent_decodes_it_not_a_discarded_one() {
        let (mm, stack, _dev) = setup();
        let mut ctx = Ctx::new();
        let mut run = |payload| exec(&mm, &stack, Payload::Block(payload), &mut ctx);
        let old = vec![0x11u8; 8 * SECTOR_SIZE];
        assert!(run(BlockOp::Write { lba: 16, data: old }).is_ok());
        assert!(run(BlockOp::Discard {
            lba: 16,
            len: 8 * SECTOR_SIZE
        })
        .is_ok());
        let cz = mm.get("cz").unwrap();
        let cz = cz.as_any().downcast_ref::<CompressMod>().unwrap();
        assert!(cz.covering(16).is_none(), "the discard forgot the extent");
        let new: Vec<u8> = (0..16 * SECTOR_SIZE).map(|i| (i / 100) as u8).collect();
        assert!(run(BlockOp::Write {
            lba: 8,
            data: new.clone()
        })
        .is_ok());
        let len = 8 * SECTOR_SIZE;
        let r = run(BlockOp::ReadBuf { lba: 16, len });
        assert_eq!(r.data_bytes(), Some(&new[len..]));
        // An extent a newer write starts inside of is forgotten too.
        assert!(run(BlockOp::Write {
            lba: 12,
            data: vec![0x22; len]
        })
        .is_ok());
        let r = run(BlockOp::ReadBuf { lba: 12, len });
        assert_eq!(r.data_bytes(), Some(&[0x22; 8 * SECTOR_SIZE][..]));
    }

    /// `len` bytes of xorshift noise, which does not compress.
    fn noise(len: usize, mut x: u32) -> Vec<u8> {
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        };
        (0..len).map(|_| step()).collect()
    }

    /// An extent whose stored bytes reach into a discarded range keeps
    /// the sectors outside it: a write to the discarded ones does not cut
    /// its stream, and its head and tail still read back.
    #[test]
    fn a_discard_inside_an_extents_stored_bytes_keeps_the_rest_of_it() {
        use crate::cache_common::testing::{bytes, MemDev as FlatDev, Rig};
        let rig = Rig::around(Arc::new(CompressMod::new()), FlatDev::new());
        let mut ctx = Ctx::new();
        let sectors = |n: usize| n * SECTOR_SIZE;
        // Noise, zeroes, noise: it compresses, but its stored bytes still
        // run past its eighth sector.
        let old = [
            noise(sectors(8), 1),
            vec![0; sectors(8)],
            noise(sectors(8), 3),
        ]
        .concat();
        let data = old.clone();
        assert!(rig
            .exec(Payload::Block(BlockOp::Write { lba: 8, data }), &mut ctx)
            .is_ok());
        let cz = rig.cache();
        let cz = cz.as_any().downcast_ref::<CompressMod>().unwrap();
        let (_, e) = cz.covering(8).unwrap();
        assert!(!e.raw && e.stored_sectors() > 8, "{e:?}");
        let discard = BlockOp::Discard {
            lba: 16,
            len: sectors(8),
        };
        assert!(rig.exec(Payload::Block(discard), &mut ctx).is_ok());
        let new = noise(sectors(8), 2);
        let data = new.clone();
        assert!(rig
            .exec(Payload::Block(BlockOp::Write { lba: 16, data }), &mut ctx)
            .is_ok());
        for (lba, want) in [
            (8, &old[..sectors(8)]),
            (16, &new[..]),
            (24, &old[sectors(16)..]),
        ] {
            let r = rig.exec(
                Payload::Block(BlockOp::ReadBuf {
                    lba,
                    len: sectors(8),
                }),
                &mut ctx,
            );
            assert!(bytes(&r).as_deref() == Some(want), "sector {lba}");
        }
        // An extent that starts inside a discard and ends past it keeps
        // its tail.
        let data = old.clone();
        assert!(rig
            .exec(Payload::Block(BlockOp::Write { lba: 40, data }), &mut ctx)
            .is_ok());
        let discard = BlockOp::Discard {
            lba: 36,
            len: sectors(8),
        };
        assert!(rig.exec(Payload::Block(discard), &mut ctx).is_ok());
        let data = noise(sectors(8), 4);
        assert!(rig
            .exec(Payload::Block(BlockOp::Write { lba: 36, data }), &mut ctx)
            .is_ok());
        let len = sectors(20);
        let r = rig.exec(Payload::Block(BlockOp::ReadBuf { lba: 44, len }), &mut ctx);
        assert!(
            bytes(&r).as_deref() == Some(&old[sectors(4)..]),
            "sector 44"
        );
    }

    #[test]
    fn extent_map_survives_upgrade() {
        let (mm, stack, _dev) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: vec![1u8; 4096],
            }),
            &mut ctx,
        );
        let old = mm.get("cz").unwrap();
        let newer = CompressMod::new();
        newer.state_update(old.as_ref());
        assert_eq!(newer.extents.read().len(), 1);
    }
}
