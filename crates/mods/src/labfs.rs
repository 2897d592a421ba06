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

pub use meta::LogRecord;
pub(crate) use meta::NameSnapshot;

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
    #[cfg(test)]
    pub(crate) fn last_repair(&self) -> Option<RepairReport> {
        self.store.last_repair()
    }

    /// Number of live files/directories.
    #[cfg(test)]
    pub(crate) fn file_count(&self) -> usize {
        self.store.state.file_count()
    }

    /// Provenance query: (ops, last_writer) for an inode.
    #[cfg(test)]
    pub(crate) fn provenance(&self, ino: u64) -> Option<(u64, u32)> {
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
        env: &StackEnv<'_>,
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
        if self.store.commit(ctx, env, req, &rec) {
            RespPayload::Ino(ino)
        } else {
            // No directory to go in, or lost a race for the name between
            // the lookup and the apply.
            RespPayload::Err(format!("{path}: exists, or no directory to go in"))
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
        if let Some((ino, offset, src)) = data::Source::take(&mut req.payload) {
            return self.op_write(ctx, env, &req, ino, offset, src);
        }
        match &req.payload {
            Payload::Fs(FsOp::Create { path, mode }) => {
                self.op_create(ctx, env, &req, path, *mode, false)
            }
            Payload::Fs(FsOp::Mkdir { path, mode }) => {
                self.op_create(ctx, env, &req, path, *mode, true)
            }
            Payload::Fs(FsOp::Open {
                path,
                create,
                truncate,
            }) => {
                ctx.advance(META_CPU_NS);
                match self.store.state.lookup(path) {
                    Some(ino) if *truncate => match self.op_truncate(ctx, env, &req, ino, 0) {
                        RespPayload::Ok => RespPayload::Ino(ino),
                        err => err,
                    },
                    Some(ino) => RespPayload::Ino(ino),
                    None if *create => self.op_create(ctx, env, &req, path, 0o644, false),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::ReadBuf { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len)
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
                if self.store.commit(ctx, env, &req, &rec) {
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("{from} → {to}: no such name, or no place to go"))
                }
            }
            Payload::Fs(FsOp::Unlink { path }) => {
                ctx.advance(META_CPU_NS);
                let rec = LogRecord::Unlink { path: path.clone() };
                if self.store.commit(ctx, env, &req, &rec) {
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!(
                        "{path}: not found, or a directory with names under it"
                    ))
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
            Payload::Fs(
                FsOp::Write { .. }
                | FsOp::WriteBuf { .. }
                | FsOp::ReadBuf { .. }
                | FsOp::ReadFiltered { .. },
            ) => 2_000 + req.payload_bytes() as u64,
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
    use crate::cache_common::testing::Hook;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::{BlockDevice, DeviceKind};
    use std::sync::atomic::Ordering;

    struct Harness {
        mm: ModuleManager,
        stack: LabStack,
    }

    impl Harness {
        fn new() -> (Harness, Arc<SimDevice>) {
            Harness::over(vec![])
        }

        /// LabFS, then `stages` in order, then the kernel driver.
        fn over(stages: Vec<(&str, Arc<dyn LabMod>)>) -> (Harness, Arc<SimDevice>) {
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
            let mut uuids = vec!["fs"];
            for (uuid, stage) in stages {
                mm.insert_instance(uuid, stage);
                uuids.push(uuid);
            }
            uuids.push("drv");
            let last = uuids.len() - 1;
            let vertices = uuids.into_iter().enumerate().map(|(i, uuid)| Vertex {
                uuid: uuid.into(),
                outputs: if i < last { vec![i + 1] } else { vec![] },
            });
            let stack = LabStack {
                id: 1,
                mount: "fs::/t".into(),
                exec: ExecMode::Sync,
                vertices: vertices.collect(),
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

    /// A data answer's bytes, whatever its shape.
    fn bytes_of(resp: &RespPayload) -> Option<Vec<u8>> {
        resp.data_parts()
            .map(|parts| parts.collect::<Vec<_>>().concat())
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert_eq!(bytes_of(&r), Some(data));
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
            Payload::Fs(FsOp::Mkdir {
                path: "/d/sub".into(),
                mode: 0o755,
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
        assert!(matches!(names, RespPayload::Names(n) if n == ["sub", "x", "y"]));
    }

    /// Namespace calls for the tests below.
    impl Harness {
        fn fs(&self, ctx: &mut Ctx, op: FsOp) -> RespPayload {
            self.exec(Payload::Fs(op), ctx)
        }

        fn create(&self, ctx: &mut Ctx, path: &str) -> RespPayload {
            let (path, mode) = (path.to_string(), 0o644);
            self.fs(ctx, FsOp::Create { path, mode })
        }

        fn mkdir(&self, ctx: &mut Ctx, path: &str) -> RespPayload {
            let (path, mode) = (path.to_string(), 0o755);
            self.fs(ctx, FsOp::Mkdir { path, mode })
        }

        fn unlink(&self, ctx: &mut Ctx, path: &str) -> RespPayload {
            let path = path.to_string();
            self.fs(ctx, FsOp::Unlink { path })
        }

        fn rename(&self, ctx: &mut Ctx, from: &str, to: &str) -> RespPayload {
            let (from, to) = (from.to_string(), to.to_string());
            self.fs(ctx, FsOp::Rename { from, to })
        }

        /// `data` at offset 0 of `ino`.
        fn write(&self, ctx: &mut Ctx, ino: u64, data: Vec<u8>) -> RespPayload {
            self.fs(
                ctx,
                FsOp::Write {
                    ino,
                    offset: 0,
                    data,
                },
            )
        }

        fn size(&self, ctx: &mut Ctx, path: &str) -> Option<u64> {
            let path = path.to_string();
            match self.fs(ctx, FsOp::Stat { path }) {
                RespPayload::Stat(st) => Some(st.size),
                _ => None,
            }
        }
    }

    #[test]
    fn a_new_name_needs_a_directory_to_go_in() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        assert!(!h.create(&mut ctx, "/nodir/x").is_ok());
        let path = "/nodir/y".to_string();
        let open = FsOp::Open {
            path,
            create: true,
            truncate: false,
        };
        assert!(!h.fs(&mut ctx, open).is_ok());
        assert!(h.create(&mut ctx, "/f").is_ok());
        assert!(!h.mkdir(&mut ctx, "/f/sub").is_ok());
        assert!(h.mkdir(&mut ctx, "/d").is_ok());
        assert!(h.create(&mut ctx, "/d/x").is_ok());
        let names = h.fs(&mut ctx, FsOp::Readdir { path: "/".into() });
        assert!(matches!(names, RespPayload::Names(n) if n == ["d", "f"]));
    }

    #[test]
    fn unlink_refuses_a_directory_with_a_name_under_it() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.mkdir(&mut ctx, "/d2");
        h.create(&mut ctx, "/d2/x");
        assert!(!h.unlink(&mut ctx, "/d2").is_ok());
        assert_eq!(h.size(&mut ctx, "/d2/x"), Some(0));
        assert!(h.unlink(&mut ctx, "/d2/x").is_ok());
        assert!(h.unlink(&mut ctx, "/d2").is_ok());
    }

    #[test]
    fn a_directory_rename_moves_every_name_under_it() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        h.mkdir(&mut ctx, "/d");
        h.mkdir(&mut ctx, "/d/sub");
        let ino = ino_of(h.create(&mut ctx, "/d/x"));
        h.create(&mut ctx, "/d/sub/y");
        let data = b"hello".to_vec();
        h.fs(
            &mut ctx,
            FsOp::Write {
                ino,
                offset: 0,
                data,
            },
        );
        assert!(h.rename(&mut ctx, "/d", "/e").is_ok());
        assert_eq!(h.size(&mut ctx, "/e/x"), Some(5));
        assert_eq!(h.size(&mut ctx, "/e/sub/y"), Some(0));
        assert_eq!(h.size(&mut ctx, "/d/x"), None);
        // Replay runs the same move.
        assert!(h.fs(&mut ctx, FsOp::Fsync { ino }).is_ok());
        let replayed = LabFs::new(dev, 4);
        assert!(replayed.replay_from_device().is_clean());
        let labfs = h.labfs();
        let live = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert_eq!(replayed.snapshot(), live.snapshot());
    }

    #[test]
    fn a_directory_never_moves_under_itself() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        h.mkdir(&mut ctx, "/d");
        let ino = ino_of(h.create(&mut ctx, "/d/x"));
        assert!(!h.rename(&mut ctx, "/d", "/d/y").is_ok(), "EINVAL");
        assert!(
            !h.rename(&mut ctx, "/d", "/d/x").is_ok(),
            "onto a name under it"
        );
        assert_eq!(h.size(&mut ctx, "/d/x"), Some(0));
        // The refusal is `apply`'s, so a replay that met such a record
        // would refuse it too; and nothing was logged.
        let labfs = h.labfs();
        let live = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let rec = LogRecord::Rename {
            from: "/d".into(),
            to: "/d/y".into(),
        };
        assert!(crate::metastore::StateMachine::apply(&live.store.state, &rec).is_none());
        assert!(h.fs(&mut ctx, FsOp::Fsync { ino }).is_ok());
        let replayed = LabFs::new(dev, 4);
        assert!(replayed.replay_from_device().is_clean());
        assert_eq!(replayed.snapshot(), live.snapshot());
    }

    #[test]
    fn rename_and_open_refuse_what_they_cannot_do() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.create(&mut ctx, "/a");
        h.mkdir(&mut ctx, "/d");
        h.create(&mut ctx, "/d/x");
        // Onto itself: nothing changes, the inode included.
        assert!(h.rename(&mut ctx, "/a", "/a").is_ok());
        assert_eq!(h.size(&mut ctx, "/a"), Some(0));
        assert!(!h.rename(&mut ctx, "/a", "/nodir/a").is_ok());
        assert!(!h.rename(&mut ctx, "/a", "/d").is_ok());
        assert_eq!(h.size(&mut ctx, "/d/x"), Some(0));
        let path = "/d".to_string();
        let open = FsOp::Open {
            path,
            create: false,
            truncate: true,
        };
        assert!(!h.fs(&mut ctx, open).is_ok(), "O_TRUNC on a directory");
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        assert_eq!(bytes_of(&r), Some(vec![0u8; FS_BLOCK]));
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 100,
                len: 500,
            }),
            &mut ctx,
        );
        assert_eq!(bytes_of(&r), Some(vec![1u8; 500]));
    }

    /// Terminal stage that notes every block command and where each
    /// legacy write's bytes live.
    struct WriteSpy {
        store: crate::cache_common::testing::MemDev,
        /// `(address, length)` of every `BlockOp::Write` buffer.
        writes: parking_lot::Mutex<Vec<(usize, usize)>>,
        /// `(kind, lba, length)` of every `BlockOp` but a discard, in
        /// arrival order.
        ops: parking_lot::Mutex<Vec<(&'static str, u64, usize)>>,
        /// `(lba, length)` of every `BlockOp::Discard`, which commands no
        /// device, in arrival order.
        discards: parking_lot::Mutex<Vec<(u64, usize)>>,
    }

    impl WriteSpy {
        /// Put a fresh spy in place of `h`'s driver.
        fn mount(h: &Harness) -> Arc<WriteSpy> {
            let spy = Arc::new(WriteSpy {
                store: crate::cache_common::testing::MemDev::new(),
                writes: parking_lot::Mutex::new(Vec::new()),
                ops: parking_lot::Mutex::new(Vec::new()),
                discards: parking_lot::Mutex::new(Vec::new()),
            });
            h.mm.insert_instance("drv", spy.clone());
            spy
        }
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
            if let Payload::Block(op) = &req.payload {
                let (kind, lba, len) = match op {
                    BlockOp::Write { lba, data } => ("write", *lba, data.len()),
                    BlockOp::WriteBuf { lba, buf } => ("write_buf", *lba, buf.len()),
                    BlockOp::ReadBuf { lba, len } => ("read", *lba, *len),
                    BlockOp::Flush => ("flush", 0, 0),
                    BlockOp::Discard { lba, len } => {
                        self.discards.lock().push((*lba, *len));
                        return RespPayload::Ok;
                    }
                };
                self.ops.lock().push((kind, lba, len));
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
        let spy = WriteSpy::mount(&h);
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len,
            }),
            &mut ctx,
        );
        assert_eq!(bytes_of(&r), Some(model));
    }

    /// The block commands one fixed script emits when its writes go as
    /// the legacy `Write` and as the pool `WriteBuf`: the whole cut of
    /// the write path into device commands, pinned per verb.
    #[test]
    fn block_commands_are_the_recorded_ones() {
        fn run(pooled: bool) -> Vec<(&'static str, u64, usize)> {
            let (h, _) = Harness::new();
            let spy = WriteSpy::mount(&h);
            let mut ctx = Ctx::new();
            let create = |ctx: &mut Ctx, path: &str| {
                ino_of(h.exec(
                    Payload::Fs(FsOp::Create {
                        path: path.into(),
                        mode: 0o644,
                    }),
                    ctx,
                ))
            };
            let (a, b) = (create(&mut ctx, "/a"), create(&mut ctx, "/b"));
            let write = |ctx: &mut Ctx, ino: u64, offset: u64, len: usize| {
                let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
                let op = if pooled {
                    let buf = labstor_ipc::default_pool().alloc_from(&data).unwrap();
                    FsOp::WriteBuf { ino, offset, buf }
                } else {
                    FsOp::Write { ino, offset, data }
                };
                let r = h.exec(Payload::Fs(op), ctx);
                assert!(matches!(r, RespPayload::Len(n) if n == len), "{r:?}");
            };
            let page = FS_BLOCK as u64;
            // Aligned, onto contiguous fresh pages.
            write(&mut ctx, a, 0, 2 * FS_BLOCK);
            // Aligned, onto a mapped page and a fresh one that another
            // file's block keeps apart from it.
            write(&mut ctx, b, 0, FS_BLOCK);
            write(&mut ctx, a, page, 2 * FS_BLOCK);
            // A patch inside two mapped pages.
            write(&mut ctx, a, 2 * page - 100, 300);
            // Unaligned append: a mapped partial tail, then fresh pages.
            write(&mut ctx, a, 3 * page - 10, 2 * FS_BLOCK);
            // Past an end of file that lies inside a mapped page.
            write(&mut ctx, a, 6 * page + 100, 100);
            // Truncate to the middle of a mapped page.
            let r = h.exec(
                Payload::Fs(FsOp::Truncate {
                    ino: a,
                    size: page + 50,
                }),
                &mut ctx,
            );
            assert!(r.is_ok(), "{r:?}");
            let ops = spy.ops.lock().clone();
            ops
        }
        // Data block `block` (past the four workers' log regions), `pages` long.
        let cmd = |kind, block: u64, pages: usize| {
            let lba = (4 * LOG_BLOCKS_PER_WORKER + block) * BLOCK_SECTORS;
            (kind, lba, pages * FS_BLOCK)
        };
        let (r, w, wb) = ("read", "write", "write_buf");
        let shared_tail = [
            // The stale head: the old end's page rewritten in place,
            // then the fresh page past it, zero-padded.
            cmd(r, 5, 1),
            cmd(w, 5, 1),
            cmd(w, 6, 1),
            // Truncate: page 1's head copied to a fresh block.
            cmd(r, 1, 1),
            cmd(w, 7, 1),
        ];
        let patches = [
            cmd(r, 1, 1),
            cmd(w, 1, 1),
            cmd(r, 3, 1),
            cmd(w, 3, 1),
            cmd(r, 3, 1),
            cmd(w, 3, 1),
        ];
        let owned = [
            [cmd(w, 0, 2), cmd(w, 2, 1), cmd(w, 1, 1), cmd(w, 3, 1)].as_slice(),
            &patches,
            // The fresh pages of the append go as one zero-padded run.
            &[cmd(w, 4, 2)],
            &shared_tail,
        ]
        .concat();
        let pooled = [
            [cmd(wb, 0, 2), cmd(wb, 2, 1), cmd(wb, 1, 1), cmd(wb, 3, 1)].as_slice(),
            &patches,
            // A handle run stops at the partial page, patched from zeroes.
            &[cmd(wb, 4, 1), cmd(w, 5, 1)],
            &shared_tail,
        ]
        .concat();
        assert_eq!(run(false), owned);
        assert_eq!(run(true), pooled);
    }

    /// Each record that unmaps blocks sends one discard per run of them
    /// that is contiguous on the device: unlink, rename onto a live
    /// file, a shrinking truncate and its tail remap, `Open{truncate}`.
    #[test]
    fn freed_blocks_are_discarded_in_device_runs() {
        let (h, _) = Harness::new();
        let spy = WriteSpy::mount(&h);
        let mut ctx = Ctx::new();
        let page = FS_BLOCK as u64;
        let write = |ctx: &mut Ctx, ino: u64, pg: u64, pages: usize| {
            let data = vec![7u8; pages * FS_BLOCK];
            let r = h.fs(
                ctx,
                FsOp::Write {
                    ino,
                    offset: pg * page,
                    data,
                },
            );
            assert!(r.is_ok(), "{r:?}");
        };
        let (a, b) = (
            ino_of(h.create(&mut ctx, "/a")),
            ino_of(h.create(&mut ctx, "/b")),
        );
        write(&mut ctx, a, 0, 2); // blocks 0, 1
        write(&mut ctx, b, 0, 1); // block 2
        write(&mut ctx, a, 2, 1); // block 3
        let c = ino_of(h.create(&mut ctx, "/c"));
        write(&mut ctx, c, 0, 3); // blocks 4, 5, 6
        assert!(spy.discards.lock().is_empty(), "writes free nothing");
        assert!(h.unlink(&mut ctx, "/a").is_ok());
        assert!(h.rename(&mut ctx, "/c", "/b").is_ok());
        // To mid page 1: page 2 goes, page 1's head moves to block 7.
        let r = h.fs(
            &mut ctx,
            FsOp::Truncate {
                ino: c,
                size: page + 50,
            },
        );
        assert!(r.is_ok(), "{r:?}");
        let grow = FsOp::Truncate {
            ino: c,
            size: 9 * page,
        };
        assert!(h.fs(&mut ctx, grow).is_ok(), "growing frees nothing");
        let (path, create, truncate) = ("/b".to_string(), false, true);
        assert!(h
            .fs(
                &mut ctx,
                FsOp::Open {
                    path,
                    create,
                    truncate
                }
            )
            .is_ok());
        // Data block `block` (past the four workers' log regions).
        let run = |block: u64, pages: usize| {
            (
                (4 * LOG_BLOCKS_PER_WORKER + block) * BLOCK_SECTORS,
                pages * FS_BLOCK,
            )
        };
        let expect = [
            // unlink /a
            run(0, 2),
            run(3, 1),
            // /c renamed over /b
            run(2, 1),
            // the truncate's size, then its remap
            run(6, 1),
            run(5, 1),
            // O_TRUNC: pages 0 and 1
            run(4, 1),
            run(7, 1),
        ];
        assert_eq!(*spy.discards.lock(), expect);
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
        let got = bytes_of(&r).expect("data");
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert_eq!(
            bytes_of(&r),
            Some(data),
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
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len,
            }),
            ctx,
        );
        let intact = bytes_of(&r) == Some(vec![fill; len]);
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

    /// The blocks behind `path`'s pages, in page order.
    fn blocks_of(fs: &dyn LabMod, path: &str) -> Vec<u64> {
        let fs = fs.as_any().downcast_ref::<LabFs>().unwrap();
        let snap = fs.snapshot().into_iter().filter(|n| n.0 == path);
        snap.flat_map(|n| n.2).map(|(_, block)| block).collect()
    }

    /// A block goes back to the allocator only once the unlink that freed
    /// it is durable: a crash before then brings the file back, and its
    /// blocks still hold its bytes.
    #[test]
    fn an_unlinked_file_keeps_its_blocks_until_the_unlink_is_durable() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let x = write_file(&h, &mut ctx, "/x", 0xA1, 4 * FS_BLOCK);
        assert!(h.unlink(&mut ctx, "/x").is_ok());
        let y = ino_of(h.create(&mut ctx, "/y"));
        assert!(h.write(&mut ctx, y, vec![0xB2; 4 * FS_BLOCK]).is_ok());
        // Power cut: neither the unlink nor anything of /y is on the log.
        let fresh = Arc::new(LabFs::new(dev, 4));
        assert!(fresh.replay_from_device().is_clean());
        h.mm.insert_instance("fs", fresh);
        assert_eq!(h.size(&mut ctx, "/y"), None);
        assert_file(&h, &mut ctx, x, 0xA1, 4 * FS_BLOCK);
    }

    /// A write logs its mapping after its data commands, onto recycled
    /// blocks (an unlinked /x's) and onto fresh ones alike. A durability
    /// point that another worker reaches while the data is on its way,
    /// then a crash, maps no page of the new file onto a block that does
    /// not hold its bytes yet: neither /x's nor never-written zeroes.
    #[test]
    fn a_block_is_mapped_on_media_only_after_its_bytes() {
        for recycled in [true, false] {
            let hook = Arc::new(Hook::default());
            let (h, dev) = Harness::over(vec![("hook", hook.clone())]);
            let mut ctx = Ctx::new();
            let mut old = Vec::new();
            if recycled {
                write_file(&h, &mut ctx, "/x", 0xA1, 4 * FS_BLOCK);
                old = blocks_of(h.labfs().as_ref(), "/x");
                assert!(h.unlink(&mut ctx, "/x").is_ok());
            }
            let y = ino_of(h.create(&mut ctx, "/y"));
            assert!(h.fs(&mut ctx, FsOp::Fsync { ino: y }).is_ok());
            // `(block, first byte)` of each page of /y that a crash image
            // maps onto other bytes than its own.
            let stale = Arc::new(parking_lot::Mutex::new(Vec::new()));
            hook.arm({
                let (fs, dev, stale) = (h.labfs(), dev.clone(), stale.clone());
                move |op| {
                    if matches!(op, BlockOp::Write { .. } | BlockOp::WriteBuf { .. }) {
                        let fs = fs.as_any().downcast_ref::<LabFs>().unwrap();
                        fs.store.sync(&mut Ctx::new()).unwrap();
                        let crashed = LabFs::new(dev.clone(), 4);
                        crashed.replay_from_device();
                        for block in blocks_of(&crashed, "/y") {
                            let mut page = vec![0u8; FS_BLOCK];
                            let lba = block * BLOCK_SECTORS;
                            dev.read(&mut Ctx::new(), lba, &mut page).unwrap();
                            if page != [0xB2; FS_BLOCK] {
                                stale.lock().push((block, page[0]));
                            }
                        }
                    }
                    true
                }
            });
            assert!(h.write(&mut ctx, y, vec![0xB2; 4 * FS_BLOCK]).is_ok());
            assert_eq!(*stale.lock(), vec![], "recycled: {recycled}");
            if recycled {
                assert_eq!(blocks_of(h.labfs().as_ref(), "/y"), old, "/x's blocks");
            }
            assert_file(&h, &mut ctx, y, 0xB2, 4 * FS_BLOCK);
        }
    }

    /// A block cached dirty in a write-back LRU, then freed and reused,
    /// reads back and flushes as its new owner's. A write that allocates
    /// while the free's discard is still on its way to the cache does not
    /// get the block: the discard would drop that write's bytes.
    #[test]
    fn a_block_cached_dirty_then_reused_holds_its_new_owners_bytes() {
        let hook = Arc::new(Hook::default());
        let lru = Arc::new(crate::lru::LruCacheMod::new(1 << 20, true));
        let (h, dev) = Harness::over(vec![("hook", hook.clone()), ("lru", lru)]);
        let h = Arc::new(h);
        let mut ctx = Ctx::new();
        // A name so long that the unlink's record kicks its own frame: the
        // free is durable before its discard goes down.
        let x = format!("/{}", "x".repeat(32 * 1024));
        let ino = ino_of(h.create(&mut ctx, &x));
        assert!(h.write(&mut ctx, ino, vec![0xA1; 2 * FS_BLOCK]).is_ok());
        let old = blocks_of(h.labfs().as_ref(), &x);
        let z = ino_of(h.create(&mut ctx, "/z"));
        hook.arm({
            let h = Arc::downgrade(&h);
            move |op| {
                if !matches!(op, BlockOp::Discard { .. }) {
                    return true;
                }
                let h = h.upgrade().expect("the harness outlives its stack");
                let data = vec![0xC3; 2 * FS_BLOCK];
                assert!(h.write(&mut Ctx::new(), z, data).is_ok());
                false
            }
        });
        assert!(h.unlink(&mut ctx, &x).is_ok());
        assert_file(&h, &mut ctx, z, 0xC3, 2 * FS_BLOCK);
        let y = ino_of(h.create(&mut ctx, "/y"));
        assert!(h.write(&mut ctx, y, vec![0xB2; 2 * FS_BLOCK]).is_ok());
        assert_eq!(blocks_of(h.labfs().as_ref(), "/y"), old, "/x's blocks");
        assert_file(&h, &mut ctx, y, 0xB2, 2 * FS_BLOCK);
        assert!(h.fs(&mut ctx, FsOp::Fsync { ino: y }).is_ok());
        for (path, fill) in [("/y", 0xB2), ("/z", 0xC3)] {
            for block in blocks_of(h.labfs().as_ref(), path) {
                let mut page = vec![0u8; FS_BLOCK];
                dev.read(&mut ctx, block * BLOCK_SECTORS, &mut page)
                    .unwrap();
                assert!(
                    page == [fill; FS_BLOCK],
                    "{path}'s block {block} on the device"
                );
            }
        }
    }

    /// Varmail's shape — create, two 8 KiB appends, fsync, unlink — takes
    /// no fresh block after its first cycle: each reuses the blocks of the
    /// file two cycles back, and every file stays one run on the device.
    #[test]
    fn a_varmail_loop_reuses_its_blocks() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let mut free = Vec::new();
        for cycle in 0..16u8 {
            let path = format!("/mail{cycle}");
            let ino = ino_of(h.create(&mut ctx, &path));
            for half in 0..2 {
                let (offset, data) = (half * 2 * FS_BLOCK as u64, vec![cycle; 2 * FS_BLOCK]);
                assert!(h.fs(&mut ctx, FsOp::Write { ino, offset, data }).is_ok());
            }
            assert!(h.fs(&mut ctx, FsOp::Fsync { ino }).is_ok());
            let run = blocks_of(labfs.as_ref(), &path);
            assert!(run.windows(2).all(|w| w[1] == w[0] + 1), "{cycle}: {run:?}");
            assert_file(&h, &mut ctx, ino, cycle, 4 * FS_BLOCK);
            assert!(h.unlink(&mut ctx, &path).is_ok());
            free.push(fs.store.free_units());
        }
        assert!(free.iter().all(|&f| f == free[0]), "{free:?}");
    }

    /// A command of /f's still on its way down when /f is unlinked and
    /// the unlink made durable keeps /f's blocks from the next file until
    /// it is done: the late write lands on no block of /g's, the late read
    /// returns /f's bytes, and /g holds its own. Once the command is done,
    /// the blocks are reused.
    #[test]
    fn a_command_in_flight_keeps_its_blocks_from_the_next_owner() {
        for read in [false, true] {
            let hook = Arc::new(Hook::default());
            let (h, _) = Harness::over(vec![("hook", hook.clone())]);
            let h = Arc::new(h);
            let mut ctx = Ctx::new();
            let f = write_file(&h, &mut ctx, "/f", 0xA1, 4 * FS_BLOCK);
            let old = blocks_of(h.labfs().as_ref(), "/f");
            let g = Arc::new(parking_lot::Mutex::new(0));
            hook.arm({
                let (h, g) = (Arc::downgrade(&h), g.clone());
                move |_| {
                    let h = h.upgrade().expect("the harness outlives its stack");
                    let mut ctx = Ctx::new();
                    assert!(h.unlink(&mut ctx, "/f").is_ok());
                    let ino = ino_of(h.create(&mut ctx, "/g"));
                    assert!(h.fs(&mut ctx, FsOp::Fsync { ino }).is_ok());
                    assert!(h.write(&mut ctx, ino, vec![0xB2; 4 * FS_BLOCK]).is_ok());
                    *g.lock() = ino;
                    false
                }
            });
            if read {
                assert_file(&h, &mut ctx, f, 0xA1, 4 * FS_BLOCK);
            } else {
                assert!(h.write(&mut ctx, f, vec![0xC3; 4 * FS_BLOCK]).is_ok());
            }
            let g = *g.lock();
            assert_file(&h, &mut ctx, g, 0xB2, 4 * FS_BLOCK);
            assert!(h.fs(&mut ctx, FsOp::Fsync { ino: g }).is_ok());
            let next = ino_of(h.create(&mut ctx, "/h"));
            assert!(h.write(&mut ctx, next, vec![0xD4; 4 * FS_BLOCK]).is_ok());
            assert_eq!(blocks_of(h.labfs().as_ref(), "/h"), old, "/f's blocks");
        }
    }

    /// A write that the stack refuses maps none of its blocks, recycled
    /// (an unlinked /x's) or fresh, in memory or on the log: the file
    /// reads back as it was, the blocks go back to the allocator, and from
    /// there to the next write.
    #[test]
    fn a_refused_write_maps_none_of_its_blocks() {
        for recycled in [true, false] {
            let hook = Arc::new(Hook::default());
            let (h, dev) = Harness::over(vec![("hook", hook.clone())]);
            let labfs = h.labfs();
            let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
            let mut ctx = Ctx::new();
            let mut old = Vec::new();
            if recycled {
                write_file(&h, &mut ctx, "/x", 0xA1, 4 * FS_BLOCK);
                old = blocks_of(labfs.as_ref(), "/x");
                assert!(h.unlink(&mut ctx, "/x").is_ok());
            }
            let y = ino_of(h.create(&mut ctx, "/y"));
            assert!(h.fs(&mut ctx, FsOp::Fsync { ino: y }).is_ok());
            let free = fs.store.free_units();
            hook.1.store(true, Ordering::SeqCst);
            assert!(!h.write(&mut ctx, y, vec![0xB2; 4 * FS_BLOCK]).is_ok());
            hook.1.store(false, Ordering::SeqCst);
            assert_eq!(h.size(&mut ctx, "/y"), Some(0), "recycled: {recycled}");
            assert_eq!(blocks_of(labfs.as_ref(), "/y"), Vec::<u64>::new());
            assert_eq!(fs.store.free_units(), free, "recycled: {recycled}");
            assert!(h.fs(&mut ctx, FsOp::Fsync { ino: y }).is_ok());
            let crashed = LabFs::new(dev, 4);
            assert!(crashed.replay_from_device().is_clean());
            assert_eq!(blocks_of(&crashed, "/y"), Vec::<u64>::new());
            assert!(h.write(&mut ctx, y, vec![0xB2; 4 * FS_BLOCK]).is_ok());
            if recycled {
                assert_eq!(blocks_of(labfs.as_ref(), "/y"), old, "/x's blocks");
            }
            assert_file(&h, &mut ctx, y, 0xB2, 4 * FS_BLOCK);
        }
    }

    /// A write onto recycled blocks logs its records after its data, and
    /// a second writer's growth of the same file, fsynced meanwhile, is
    /// logged after them: a crash image keeps the whole file, not the
    /// first writer's shorter size replayed over the second's.
    #[test]
    fn a_recycled_writes_records_keep_their_place_on_the_log() {
        use std::sync::mpsc;
        let hook = Arc::new(Hook::default());
        let (h, dev) = Harness::over(vec![("hook", hook.clone())]);
        let h = Arc::new(h);
        let mut ctx = Ctx::new();
        write_file(&h, &mut ctx, "/x", 0xA1, 4 * FS_BLOCK);
        assert!(h.unlink(&mut ctx, "/x").is_ok());
        let f = ino_of(h.create(&mut ctx, "/f"));
        assert!(h.fs(&mut ctx, FsOp::Fsync { ino: f }).is_ok());
        let (go, went) = mpsc::channel();
        let (done, finished) = mpsc::channel();
        let second = std::thread::spawn({
            let h = h.clone();
            move || {
                went.recv().expect("the first write starts");
                let mut ctx = Ctx::new();
                let (offset, data) = (4 * FS_BLOCK as u64, vec![0xB2; 4 * FS_BLOCK]);
                assert!(h
                    .fs(
                        &mut ctx,
                        FsOp::Write {
                            ino: f,
                            offset,
                            data
                        }
                    )
                    .is_ok());
                assert!(h.fs(&mut ctx, FsOp::Fsync { ino: f }).is_ok());
                // The first writer stops waiting after a while.
                let _ = done.send(());
            }
        });
        hook.arm(move |op| {
            if !matches!(op, BlockOp::Write { .. } | BlockOp::WriteBuf { .. }) {
                return true;
            }
            go.send(()).expect("the second writer waits");
            // Time for the second writer to overtake this one, if it can.
            let _ = finished.recv_timeout(std::time::Duration::from_millis(200));
            false
        });
        assert!(h.write(&mut ctx, f, vec![0xC3; 4 * FS_BLOCK]).is_ok());
        second.join().expect("the second writer");
        assert!(h.fs(&mut ctx, FsOp::Fsync { ino: f }).is_ok());
        let fresh = Arc::new(LabFs::new(dev, 4));
        assert!(fresh.replay_from_device().is_clean());
        h.mm.insert_instance("fs", fresh);
        assert_eq!(h.size(&mut ctx, "/f"), Some(8 * FS_BLOCK as u64));
        let r = h.fs(
            &mut ctx,
            FsOp::ReadBuf {
                ino: f,
                offset: 0,
                len: 8 * FS_BLOCK,
            },
        );
        let want = [vec![0xC3; 4 * FS_BLOCK], vec![0xB2; 4 * FS_BLOCK]].concat();
        assert!(bytes_of(&r) == Some(want), "/f's bytes after the crash");
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
        let r = h.exec(Payload::Fs(FsOp::ReadBuf { ino, offset, len }), &mut ctx);
        bytes_of(&r).expect("read after cut")
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
        let r = h.exec(Payload::Fs(FsOp::ReadBuf { ino, offset, len }), &mut ctx);
        assert!(
            bytes_of(&r) == Some(want.clone()),
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
            let r = h.exec(Payload::Fs(FsOp::ReadBuf { ino, offset, len }), &mut ctx);
            assert!(bytes_of(&r) == Some(want.clone()), "recovered: {recovered}");
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
