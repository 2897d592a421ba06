//! LabFS: the log-structured, crash-consistent POSIX filesystem LabMod
//! (paper §III-E).
//!
//! Architecture, straight from the paper:
//!
//! * **Scalable per-worker block allocator** — "evenly divides device
//!   blocks among the pool of workers. Workers can steal from one another
//!   if more space is needed." ([`crate::alloc::BlockAllocator`])
//! * **Per-worker metadata log** — "LabFS uses a per-worker log for
//!   tracking metadata operations. As opposed to storing inodes and
//!   bitmaps on-disk as traditional FSes do, LabFS only stores the log
//!   and reconstructs inodes in-memory by traversing the log."
//!   ([`LogRecord`], over a [`crate::journal`])
//! * **Flat inode hashmap** — "LabFS stores all files in a single hashmap,
//!   which supports insert, rename, and delete operations with minimal
//!   contention" — here sharded for the same minimal-contention goal.
//! * **Provenance tracking** — each inode carries an operation counter and
//!   last-writer identity.
//!
//! Namespace/metadata operations touch only LabFS state and its log; data
//! operations emit `BlockOp`s down the LabStack DAG (cache → scheduler →
//! driver). The log itself is written to a reserved device region via a
//! direct handle — exactly the paper's decentralized-metadata option where
//! latency-critical log state bypasses the stack.
//!
//! The file is split where those two halves meet. `meta` owns the
//! records, the maps and the one `apply` that changes them — the
//! `StateMachine` the shared engine (`crate::metastore`) logs, replays
//! and allocates for; `data` is the read/write/truncate path and
//! `pushdown` the filtered read, both of which only ask `meta` where a
//! file's pages are. What is left here is the struct, the [`LabMod`]
//! dispatch — each metadata arm validates, builds a [`LogRecord`] and
//! hands it to the store's `commit` — and [`install`].

use std::sync::Arc;

use labstor_core::{
    BlockOp, FsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::{Ctx, SimDevice};

use crate::devices::DeviceRegistry;
use crate::journal::RepairReport;
use crate::metastore::{self, MetaStore, LOG_APPEND_NS};

mod data;
mod meta;
mod pushdown;

pub use meta::{LogRecord, NameSnapshot};

/// Filesystem block size.
pub const FS_BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (FS_BLOCK / labstor_sim::SECTOR_SIZE) as u64;
/// Blocks reserved per worker log region.
const LOG_BLOCKS_PER_WORKER: u64 = 2048;

/// CPU cost of one hashmap-based metadata lookup.
const META_CPU_NS: u64 = 300;
/// CPU cost of a file creation: inode init, log record construction,
/// provenance setup. Calibrated against Fig. 7's ablations (removing the
/// 450 ns permissions stage buys ~7%, removing the ~1.3 µs IPC path ~20%).
const CREATE_CPU_NS: u64 = 4_200;

/// The LabFS LabMod.
pub struct LabFs {
    /// The name and inode maps (changed only by `meta::Meta::apply`)
    /// with their log and block allocator.
    store: MetaStore<meta::Meta>,
}

impl LabFs {
    /// Build LabFS over `device` with `workers` allocator/log shards.
    pub fn new(device: Arc<SimDevice>, workers: usize) -> Self {
        let geometry = (LOG_BLOCKS_PER_WORKER, BLOCK_SECTORS, 4096);
        LabFs {
            store: MetaStore::new(device, workers, geometry, meta::Meta::new),
        }
    }

    /// Drop all in-memory state and rebuild it by scanning the on-device
    /// journal regions — the crash-recovery path behind `state_repair`.
    /// Each region replays the longest prefix of committed frames and
    /// discards any torn or stale tail.
    pub fn replay_from_device(&self) -> RepairReport {
        self.store.replay()
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        self.store.last_repair()
    }

    /// Number of live files/directories.
    pub fn file_count(&self) -> usize {
        self.store.state.file_count()
    }

    /// Provenance query: (ops, last_writer) for an inode.
    pub fn provenance(&self, ino: u64) -> Option<(u64, u32)> {
        self.store.state.provenance(ino)
    }

    /// Every name, sorted, with its inode's journaled state — what a
    /// replay of the log must reproduce. Provenance is not journaled and
    /// therefore not in it.
    pub fn snapshot(&self) -> Vec<NameSnapshot> {
        self.store.state.snapshot()
    }

    // ---- operations ----------------------------------------------------

    fn op_create(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        path: &str,
        mode: u16,
        is_dir: bool,
    ) -> RespPayload {
        ctx.advance(CREATE_CPU_NS);
        if self.store.state.lookup(path).is_some() {
            return RespPayload::Err(format!("{path}: file exists"));
        }
        let ino = self.store.state.fresh_ino();
        let rec = LogRecord::Create {
            path: path.to_string(),
            ino,
            mode,
            uid: req.creds.uid,
            gid: req.creds.gid,
            is_dir,
        };
        if self.store.commit(ctx, req.core, &rec) {
            RespPayload::Ino(ino)
        } else {
            // Lost a race for the name between the lookup and the apply.
            RespPayload::Err(format!("{path}: file exists"))
        }
    }
}

impl LabMod for LabFs {
    fn type_name(&self) -> &'static str {
        "labfs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filesystem
    }

    fn process(&self, ctx: &mut Ctx, mut req: Request, env: &StackEnv<'_>) -> RespPayload {
        if let Payload::Fs(FsOp::Write { ino, offset, data }) = &mut req.payload {
            // A write's bytes move out of the request: a whole-page run
            // goes downstream as the allocation the caller made.
            let (ino, offset, data) = (*ino, *offset, std::mem::take(data));
            return self.op_write(ctx, env, &req, ino, offset, data);
        }
        match &req.payload {
            Payload::Fs(FsOp::Create { path, mode }) => {
                self.op_create(ctx, &req, path, *mode, false)
            }
            Payload::Fs(FsOp::Mkdir { path, mode }) => self.op_create(ctx, &req, path, *mode, true),
            Payload::Fs(FsOp::Open {
                path,
                create,
                truncate,
            }) => {
                ctx.advance(META_CPU_NS);
                match self.store.state.lookup(path) {
                    Some(ino) => {
                        if *truncate {
                            self.op_truncate(ctx, env, &req, ino, 0);
                        }
                        RespPayload::Ino(ino)
                    }
                    None if *create => self.op_create(ctx, &req, path, 0o644, false),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::WriteBuf { ino, offset, buf }) => {
                self.op_write_buf(ctx, env, &req, *ino, *offset, buf)
            }
            Payload::Fs(FsOp::Read { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len, false)
            }
            Payload::Fs(FsOp::ReadBuf { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len, true)
            }
            Payload::Fs(FsOp::ReadFiltered {
                ino,
                offset,
                len,
                prog,
            }) => self.op_read_filtered(ctx, env, &req, *ino, *offset, *len, prog),
            Payload::Fs(FsOp::Rename { from, to }) => {
                ctx.advance(META_CPU_NS);
                let rec = LogRecord::Rename {
                    from: from.clone(),
                    to: to.clone(),
                };
                if self.store.commit(ctx, req.core, &rec) {
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("{from}: not found"))
                }
            }
            Payload::Fs(FsOp::Unlink { path }) => {
                ctx.advance(META_CPU_NS);
                if self
                    .store
                    .commit(ctx, req.core, &LogRecord::Unlink { path: path.clone() })
                {
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("{path}: not found"))
                }
            }
            Payload::Fs(FsOp::Stat { path }) => {
                ctx.advance(META_CPU_NS);
                match self.store.state.stat(path) {
                    Some(st) => RespPayload::Stat(st),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::Readdir { path }) => {
                let prefix = if path.ends_with('/') {
                    path.clone()
                } else {
                    format!("{path}/")
                };
                let mut names = self.store.state.children(&prefix);
                ctx.advance(100 * names.len().max(1) as u64);
                names.sort();
                RespPayload::Names(names)
            }
            Payload::Fs(FsOp::Truncate { ino, size }) => {
                ctx.advance(META_CPU_NS);
                self.op_truncate(ctx, env, &req, *ino, *size)
            }
            Payload::Fs(FsOp::Fsync { .. }) => {
                // Persist the metadata log, then barrier the data path.
                if let Err(e) = self.store.sync(ctx) {
                    return RespPayload::Err(e.to_string());
                }
                env.forward(ctx, req.derive(Payload::Block(BlockOp::Flush)))
            }
            // Pass non-FS payloads through (e.g. a barrier travelling the
            // stack).
            _ => env.forward(ctx, req),
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        match &req.payload {
            Payload::Fs(FsOp::Write { data, .. }) => 2_000 + data.len() as u64,
            Payload::Fs(FsOp::WriteBuf { buf, .. }) => 2_000 + buf.len() as u64,
            Payload::Fs(
                FsOp::Read { len, .. } | FsOp::ReadBuf { len, .. } | FsOp::ReadFiltered { len, .. },
            ) => 2_000 + *len as u64,
            _ => META_CPU_NS + LOG_APPEND_NS,
        }
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Upgrades move the whole in-memory state across instances.
        if let Some(prev) = old.as_any().downcast_ref::<LabFs>() {
            self.store.absorb(&prev.store);
        }
    }

    fn state_repair(&self) {
        self.replay_from_device();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"device": "<name>", "workers": <n>}`.
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    metastore::install(mm, devices, "labfs", |dev, workers, _| {
        LabFs::new(dev, workers)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::{BlockDevice, DeviceKind};

    struct Harness {
        mm: ModuleManager,
        stack: LabStack,
    }

    impl Harness {
        fn new() -> (Harness, Arc<SimDevice>) {
            let devices = DeviceRegistry::new();
            let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
            let mm = ModuleManager::new();
            install(&mm, &devices);
            crate::drivers::install(&mm, &devices);
            mm.instantiate(
                "fs",
                "labfs",
                &serde_json::json!({"device": "nvme0", "workers": 4}),
            )
            .unwrap();
            mm.instantiate(
                "drv",
                "kernel_driver",
                &serde_json::json!({"device": "nvme0"}),
            )
            .unwrap();
            let stack = LabStack {
                id: 1,
                mount: "fs::/t".into(),
                exec: ExecMode::Sync,
                vertices: vec![
                    Vertex {
                        uuid: "fs".into(),
                        outputs: vec![1],
                    },
                    Vertex {
                        uuid: "drv".into(),
                        outputs: vec![],
                    },
                ],
                authorized_uids: vec![],
            };
            (Harness { mm, stack }, dev)
        }

        fn exec(&self, payload: Payload, ctx: &mut Ctx) -> RespPayload {
            let env = StackEnv::new(&self.stack, 0, &self.mm, 0);
            self.mm.get("fs").unwrap().process(
                ctx,
                Request::new(1, 1, payload, Credentials::ROOT),
                &env,
            )
        }

        fn labfs(&self) -> Arc<dyn LabMod> {
            self.mm.get("fs").unwrap()
        }

        /// One acked journal transaction: create `path`, then fsync it.
        fn create_and_fsync(&self, ctx: &mut Ctx, path: &str) {
            let ino = ino_of(self.exec(
                Payload::Fs(FsOp::Create {
                    path: path.into(),
                    mode: 0o644,
                }),
                ctx,
            ));
            assert!(self.exec(Payload::Fs(FsOp::Fsync { ino }), ctx).is_ok());
        }
    }

    fn ino_of(resp: RespPayload) -> u64 {
        match resp {
            RespPayload::Ino(i) => i,
            other => panic!("expected ino, got {other:?}"),
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/a".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..10_000).map(|i| (i % 247) as u8).collect();
        let w = h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: data.clone(),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == data.len()));
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == data));
    }

    #[test]
    fn open_creates_and_truncates() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: true,
                truncate: false,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![1u8; 100],
            }),
            &mut ctx,
        );
        let again = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: false,
                truncate: true,
            }),
            &mut ctx,
        ));
        assert_eq!(ino, again);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/o".into() }), &mut ctx);
        assert!(matches!(st, RespPayload::Stat(s) if s.size == 0));
    }

    #[test]
    fn readdir_lists_children_only() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/x".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/y".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/sub/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let names = h.exec(Payload::Fs(FsOp::Readdir { path: "/d".into() }), &mut ctx);
        assert!(
            matches!(names, RespPayload::Names(n) if n == vec!["x".to_string(), "y".to_string()])
        );
    }

    #[test]
    fn unlink_then_stat_fails() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/gone".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Stat {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn duplicate_create_rejected() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/dup".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Create {
                    path: "/dup".into(),
                    mode: 0o644
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn sparse_read_returns_zeroes() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/s".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // Write page 2 only.
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 2 * FS_BLOCK as u64,
                data: vec![7u8; FS_BLOCK],
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d.iter().all(|&b| b == 0)));
    }

    #[test]
    fn unaligned_overwrite_roundtrips() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/u".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![1u8; 8192],
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 100,
                len: 500,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d.len() == 500 && d.iter().all(|&b| b == 1)));
    }

    /// Terminal stage that notes where each legacy write's bytes live.
    struct WriteSpy {
        store: crate::cache_common::testing::MemDev,
        /// `(address, length)` of every `BlockOp::Write` buffer.
        writes: parking_lot::Mutex<Vec<(usize, usize)>>,
    }

    impl LabMod for WriteSpy {
        fn type_name(&self) -> &'static str {
            "write_spy"
        }
        fn mod_type(&self) -> labstor_core::ModType {
            labstor_core::ModType::Driver
        }
        fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
            if let Payload::Block(BlockOp::Write { data, .. }) = &req.payload {
                self.writes
                    .lock()
                    .push((data.as_ptr() as usize, data.len()));
            }
            self.store.process(ctx, req, env)
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn aligned_write_moves_the_callers_allocation_downstream() {
        let (h, _) = Harness::new();
        let spy = Arc::new(WriteSpy {
            store: crate::cache_common::testing::MemDev::new(),
            writes: parking_lot::Mutex::new(Vec::new()),
        });
        h.mm.insert_instance("drv", spy.clone());
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/m".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let write = |ctx: &mut Ctx, offset: u64, data: Vec<u8>| {
            let n = data.len();
            let r = h.exec(Payload::Fs(FsOp::Write { ino, offset, data }), ctx);
            assert!(matches!(r, RespPayload::Len(got) if got == n), "{r:?}");
        };
        // 64 KiB of whole pages on fresh, contiguous blocks: one block
        // write, and its buffer is the Vec the caller allocated.
        let mut model: Vec<u8> = (0..16 * FS_BLOCK).map(|i| (i % 241) as u8).collect();
        let data = model.clone();
        let allocation = (data.as_ptr() as usize, data.len());
        write(&mut ctx, 0, data);
        assert_eq!(*spy.writes.lock(), vec![allocation]);

        // A patch inside mapped pages reads, modifies and writes each
        // page it touches; the neighbouring bytes survive.
        let at = 2 * FS_BLOCK - 100;
        write(&mut ctx, at as u64, vec![0xEE; 300]);
        model[at..at + 300].fill(0xEE);
        // An unaligned append: the tail of the mapped last page is patched,
        // the fresh pages go out as one run, zero-padded to the block.
        let at = model.len() - 10;
        write(&mut ctx, at as u64, vec![0xDD; 2 * FS_BLOCK]);
        model.resize(at + 2 * FS_BLOCK, 0);
        model[at..].fill(0xDD);
        let lens: Vec<usize> = spy.writes.lock()[1..].iter().map(|w| w.1).collect();
        assert_eq!(lens, vec![FS_BLOCK, FS_BLOCK, FS_BLOCK, 2 * FS_BLOCK]);

        let len = model.len();
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == model));
    }

    #[test]
    fn zero_copy_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let mut buf = labstor_ipc::default_pool().alloc(2 * FS_BLOCK).unwrap();
        buf.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 249) as u8;
            }
        });
        let expect = buf.to_vec();
        let w = h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf,
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == 2 * FS_BLOCK));
        // A single-page read answers with a refcounted DataBuf slice.
        let r = h.exec(
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(hdl) => assert_eq!(hdl.as_slice(), &expect[..FS_BLOCK]),
            other => panic!("expected DataBuf, got {other:?}"),
        }
        // An unaligned multi-page read assembles byte-identically.
        let r = h.exec(
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 100,
                len: FS_BLOCK + 500,
            }),
            &mut ctx,
        );
        let got = match &r {
            RespPayload::DataBuf(h2) => h2.as_slice().to_vec(),
            RespPayload::Data(d) => d.clone(),
            other => panic!("expected data, got {other:?}"),
        };
        assert_eq!(&got[..], &expect[100..100 + FS_BLOCK + 500]);
    }

    #[test]
    fn crash_recovery_replays_log() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/p".into(),
                mode: 0o600,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..FS_BLOCK * 2).map(|i| (i % 251) as u8).collect();
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: data.clone(),
            }),
            &mut ctx,
        );
        // Persist the log (fsync), then wipe all in-memory state and
        // replay from the device: everything must come back.
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 1);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/p".into() }), &mut ctx);
        assert!(
            matches!(st, RespPayload::Stat(s) if s.size == data.len() as u64 && s.mode == 0o600)
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(
            matches!(r, RespPayload::Data(d) if d == data),
            "data blocks survive via replayed mappings"
        );
    }

    #[test]
    fn repair_reports_clean_replay() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/clean".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert!(fs.last_repair().is_none(), "no repair has run yet");
        let rep = fs.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert!(rep.records_replayed >= 1);
        assert!(rep.is_clean());
        assert_eq!(fs.last_repair(), Some(rep));
    }

    #[test]
    fn stale_era_frame_does_not_extend_a_repaired_log() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        for i in 1..=4 {
            h.create_and_fsync(&mut ctx, &format!("/a{i}"));
        }
        // Txn 5 is acked, but the device silently lands none of it.
        dev.faults().set_torn(1, true);
        h.create_and_fsync(&mut ctx, "/a5");
        dev.faults().set_torn(0, false);
        h.create_and_fsync(&mut ctx, "/a6");

        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert_eq!(fs.replay_from_device().txns_replayed, 4);
        assert_eq!(fs.file_count(), 4);
        // A new txn 5 of the same length lands right in front of old 6.
        h.create_and_fsync(&mut ctx, "/b5");
        let rep = fs.replay_from_device();
        assert_eq!(
            rep.txns_replayed, 5,
            "old txn 6 follows a txn 5 it never saw"
        );
        assert_eq!(fs.file_count(), 5);
        let a6 = h.exec(Payload::Fs(FsOp::Stat { path: "/a6".into() }), &mut ctx);
        assert!(
            !a6.is_ok(),
            "/a6 belongs to no prefix of the repaired history"
        );
        assert!(h
            .exec(Payload::Fs(FsOp::Stat { path: "/b5".into() }), &mut ctx)
            .is_ok());
    }

    #[test]
    fn silently_torn_flush_is_caught_by_crc_on_replay() {
        // Find a seed whose first torn write lands zero sectors, so the
        // flush's body write vanishes entirely while still being acked.
        let seed = (1..256u64)
            .find(|&s| {
                let f = labstor_sim::FaultConfig::default();
                f.set_seed(s);
                f.set_torn(1, true);
                f.torn_sectors(8) == Some(0)
            })
            .expect("some seed tears to zero sectors");
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/stays".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        dev.faults().set_seed(seed);
        dev.faults().set_torn(1, true);
        let ino2 = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/ghost".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // The fsync is acked — the device lies about the torn write.
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: ino2 }), &mut ctx)
            .is_ok());
        dev.faults().set_torn(0, false);
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let rep = fs.replay_from_device();
        // The CRC chain catches what the ack hid: only txn 1 survives.
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn unflushed_ops_lost_on_crash() {
        // Without fsync the log never reached the device: a crash loses
        // the file — honest log-structured semantics.
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/volatile".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 0);
    }

    /// Create `path`, write `fill` × `len` at offset 0, fsync; returns the ino.
    fn write_file(h: &Harness, ctx: &mut Ctx, path: &str, fill: u8, len: usize) -> u64 {
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: path.into(),
                mode: 0o644,
            }),
            ctx,
        ));
        let data = vec![fill; len];
        let w = h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data,
            }),
            ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == len), "{w:?}");
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), ctx).is_ok());
        ino
    }

    fn assert_file(h: &Harness, ctx: &mut Ctx, ino: u64, fill: u8, len: usize) {
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len,
            }),
            ctx,
        );
        let intact = r.data_bytes() == Some(&vec![fill; len][..]);
        assert!(
            intact,
            "ino {ino} no longer reads back as {len} x {fill:#x}"
        );
    }

    #[test]
    fn upgrade_does_not_hand_out_live_blocks_again() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let old = write_file(&h, &mut ctx, "/old", 0xA1, 3 * FS_BLOCK);
        let newer = Arc::new(LabFs::new(dev, 4));
        newer.state_update(h.labfs().as_ref());
        h.mm.insert_instance("fs", newer);
        let new = write_file(&h, &mut ctx, "/new", 0xB2, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, old, 0xA1, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, new, 0xB2, 3 * FS_BLOCK);
    }

    #[test]
    fn restart_does_not_hand_out_live_blocks_again() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let old = write_file(&h, &mut ctx, "/old", 0xA1, 3 * FS_BLOCK);
        let fresh = Arc::new(LabFs::new(dev, 4));
        assert!(fresh.replay_from_device().is_clean());
        h.mm.insert_instance("fs", fresh);
        let new = write_file(&h, &mut ctx, "/new", 0xB2, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, old, 0xA1, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, new, 0xB2, 3 * FS_BLOCK);
    }

    /// `2 × FS_BLOCK` of 0xAA, `cut` (some way of truncating to 0),
    /// fsync, optionally crash + repair, then 10 bytes at offset 100:
    /// what the first 110 bytes read back as.
    fn reads_after_cut(cut: impl Fn(&Harness, &mut Ctx, u64), recover: bool) -> Vec<u8> {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = write_file(&h, &mut ctx, "/t", 0xAA, 2 * FS_BLOCK);
        cut(&h, &mut ctx, ino);
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        if recover {
            h.labfs().state_repair();
        }
        let data = vec![0x55u8; 10];
        let offset = 100;
        let w = h.exec(Payload::Fs(FsOp::Write { ino, offset, data }), &mut ctx);
        assert!(matches!(w, RespPayload::Len(10)), "{w:?}");
        let (offset, len) = (0, 110);
        let r = h.exec(Payload::Fs(FsOp::Read { ino, offset, len }), &mut ctx);
        r.data_bytes().expect("read after cut").to_vec()
    }

    /// A truncate must mean the same thing replayed as it did live: the
    /// recovered instance and the un-crashed one agree byte for byte.
    fn cut_replays_as_it_ran(cut: impl Fn(&Harness, &mut Ctx, u64)) {
        let live = reads_after_cut(&cut, false);
        let mut want = vec![0u8; 110];
        want[100..].fill(0x55);
        assert_eq!(live, want, "un-crashed instance");
        assert_eq!(reads_after_cut(&cut, true), live, "recovered instance");
    }

    #[test]
    fn truncate_replays_as_it_ran() {
        cut_replays_as_it_ran(|h, ctx, ino| {
            let r = h.exec(Payload::Fs(FsOp::Truncate { ino, size: 0 }), ctx);
            assert!(r.is_ok(), "{r:?}");
        });
    }

    #[test]
    fn open_truncate_replays_as_it_ran() {
        cut_replays_as_it_ran(|h, ctx, ino| {
            let open = FsOp::Open {
                path: "/t".into(),
                create: false,
                truncate: true,
            };
            assert_eq!(ino_of(h.exec(Payload::Fs(open), ctx)), ino);
        });
    }

    #[test]
    fn shrinking_truncate_zeroes_the_rest_of_its_page() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = write_file(&h, &mut ctx, "/t", 0xAA, FS_BLOCK);
        let r = h.exec(Payload::Fs(FsOp::Truncate { ino, size: 100 }), &mut ctx);
        assert!(r.is_ok(), "{r:?}");
        let data = vec![0x55u8; 10];
        let offset = 200;
        h.exec(Payload::Fs(FsOp::Write { ino, offset, data }), &mut ctx);
        let mut want = vec![0xAAu8; 100];
        want.resize(200, 0);
        want.resize(210, 0x55);
        let (offset, len) = (0, 210);
        let r = h.exec(Payload::Fs(FsOp::Read { ino, offset, len }), &mut ctx);
        assert!(
            r.data_bytes() == Some(&want[..]),
            "the gap after a shrink reads as zeroes, not the old bytes"
        );
        // Growing by truncate exposes the same zeroes, and the whole
        // history means the same replayed.
        let r = h.exec(Payload::Fs(FsOp::Truncate { ino, size: 150 }), &mut ctx);
        assert!(r.is_ok(), "{r:?}");
        let size = 2 * FS_BLOCK as u64;
        let r = h.exec(Payload::Fs(FsOp::Truncate { ino, size }), &mut ctx);
        assert!(r.is_ok(), "{r:?}");
        want.truncate(150);
        want.resize(size as usize, 0);
        for recovered in [false, true] {
            let (offset, len) = (0, want.len());
            let r = h.exec(Payload::Fs(FsOp::Read { ino, offset, len }), &mut ctx);
            assert!(r.data_bytes() == Some(&want[..]), "recovered: {recovered}");
            assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
            h.labfs().state_repair();
        }
    }

    /// The on-device format is pinned: a fixed op list leaves these exact
    /// bytes in worker 0's log region (crc32 recorded at 314d2b2, before
    /// live operations went through `apply`).
    #[test]
    fn log_region_bytes_are_the_recorded_ones() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let create = |ctx: &mut Ctx, path: &str| {
            let (path, mode) = (path.to_string(), 0o640);
            h.exec(Payload::Fs(FsOp::Create { path, mode }), ctx)
        };
        let a = ino_of(create(&mut ctx, "/a"));
        assert!(!create(&mut ctx, "/a").is_ok(), "takes no inode number");
        let (path, mode) = ("/d".to_string(), 0o755);
        h.exec(Payload::Fs(FsOp::Mkdir { path, mode }), &mut ctx);
        let b = ino_of(create(&mut ctx, "/d/b"));
        for (ino, offset, len) in [(a, 0, 10_000), (b, 5_000, 300), (a, 9_000, 8_192)] {
            let data = vec![7u8; len];
            h.exec(Payload::Fs(FsOp::Write { ino, offset, data }), &mut ctx);
        }
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: a }), &mut ctx)
            .is_ok());
        let (from, to) = ("/a".to_string(), "/d/c".to_string());
        h.exec(Payload::Fs(FsOp::Rename { from, to }), &mut ctx);
        let size = FS_BLOCK as u64;
        h.exec(Payload::Fs(FsOp::Truncate { ino: a, size }), &mut ctx);
        let open = FsOp::Open {
            path: "/d/b".into(),
            create: false,
            truncate: true,
        };
        h.exec(Payload::Fs(open), &mut ctx);
        let path = "/d/b".to_string();
        h.exec(Payload::Fs(FsOp::Unlink { path }), &mut ctx);
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: a }), &mut ctx)
            .is_ok());
        let mut region = vec![0u8; 8 * labstor_sim::SECTOR_SIZE];
        dev.read(&mut ctx, 0, &mut region).unwrap();
        assert_eq!(crate::journal::crc32(&region), 3_603_469_264);
    }

    #[test]
    fn provenance_tracks_ops_and_writer() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/prov".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![0u8; 10],
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![0u8; 10],
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let (ops, writer) = fs.provenance(ino).unwrap();
        assert_eq!(ops, 3); // create + 2 writes
        assert_eq!(writer, 0);
    }

    #[test]
    fn log_records_roundtrip() {
        let records = vec![
            LogRecord::Create {
                path: "/x/y".into(),
                ino: 42,
                mode: 0o600,
                uid: 7,
                gid: 8,
                is_dir: true,
            },
            LogRecord::MapBlock {
                ino: 42,
                page: 3,
                block: 999,
            },
            LogRecord::SetSize {
                ino: 42,
                size: 12345,
            },
            LogRecord::Unlink {
                path: "/x/y".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.extend_from_slice(&[0u8; 64]); // end-of-log padding
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = LogRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}
