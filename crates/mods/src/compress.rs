//! The compression LabMod (the paper's "Active Storage" example and the
//! C-LabStack of the request-partitioning experiment, Fig. 5b).
//!
//! Compresses block writes before forwarding them downstream and
//! transparently decompresses reads. Real compression runs
//! ([`crate::compress_algo`]); the *modeled* CPU cost is calibrated to the
//! paper's ZLIB anchor (32 MB ≈ 20 ms), which is what makes the
//! C-LabStack "computational" to the Work Orchestrator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::Ctx;

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

/// The compression LabMod.
pub struct CompressMod {
    extents: RwLock<HashMap<u64, Extent>>,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl CompressMod {
    /// New compressor.
    pub fn new() -> Self {
        CompressMod {
            extents: RwLock::new(HashMap::new()),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
        }
    }

    /// Cumulative (input bytes, stored bytes) — the achieved ratio.
    pub fn ratio_stats(&self) -> (u64, u64) {
        // relaxed-ok: stat counter; readers tolerate lag
        (
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
        )
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
        self.bytes_in.fetch_add(orig_len as u64, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        self.bytes_out
            .fetch_add(stored.len() as u64, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
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
        let fwd = req.derive(Payload::Block(BlockOp::Read {
            lba,
            len: e.stored_len,
        }));
        let stored = match env.forward(ctx, fwd) {
            RespPayload::Data(stored) => stored,
            RespPayload::DataBuf(h) => h.to_vec(), // copy-ok: decoder needs owned bytes; to_vec self-counts
            other => return Err(other),
        };
        if e.raw {
            let mut d = stored;
            d.truncate(e.orig_len);
            Ok(d)
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
    let sector = labstor_sim::SECTOR_SIZE;
    let padded = data.len().div_ceil(sector) * sector;
    data.resize(padded.max(sector), 0);
    data
}

// labmod-default-ok: the extent map migrates in state_update; after a crash the stack re-reads extents from the device, so no repair pass is needed
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
            Payload::Block(BlockOp::Read { lba, len }) => {
                let (lba, len) = (*lba, *len);
                let extent = self.extents.read().get(&lba).copied();
                match extent {
                    Some(e) => match self.fetch_decoded(ctx, env, &req, lba, e) {
                        Ok(mut data) => {
                            data.truncate(len.min(data.len()));
                            RespPayload::Data(data)
                        }
                        Err(resp) => resp,
                    },
                    // Unknown extent: pass through untouched.
                    None => env.forward(ctx, req),
                }
            }
            Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                let (lba, len) = (*lba, *len);
                let extent = self.extents.read().get(&lba).copied();
                match extent {
                    Some(e) => match self.fetch_decoded(ctx, env, &req, lba, e) {
                        Ok(mut data) => {
                            data.truncate(len.min(data.len()));
                            // The decoder's output lands in a pool buffer so
                            // upstream stages share it by refcount.
                            match labstor_ipc::default_pool().alloc_from(&data) {
                                Some(h) => RespPayload::DataBuf(h),
                                None => RespPayload::Data(data), // pool dry: legacy Vec fallback
                            }
                        }
                        Err(resp) => resp,
                    },
                    // Unknown extent: downstream answers zero-copy directly.
                    None => env.forward(ctx, req),
                }
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
pub fn install(mm: &ModuleManager) {
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

    struct MemDev {
        blocks: Mutex<HashMap<u64, Vec<u8>>>,
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
                Payload::Block(BlockOp::Read { lba, len }) => match self.blocks.lock().get(&lba) {
                    Some(d) => RespPayload::Data(d[..len.min(d.len())].to_vec()),
                    None => RespPayload::Data(vec![0u8; len]),
                },
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
            blocks: Mutex::new(HashMap::new()),
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
            Payload::Block(BlockOp::Read { lba: 0, len: orig }),
            &mut ctx,
        );
        assert!(
            matches!(r, RespPayload::Data(d) if d == data),
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
            Payload::Block(BlockOp::Read {
                lba: 8,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == data));
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
