//! Property-based tests: core data structures and invariants checked
//! against reference models under randomized operation sequences.

use proptest::prelude::*;

use labstor::core::labmod::{LabMod, StackEnv};
use labstor::core::stack::{ExecMode, LabStack, Vertex};
use labstor::core::{FsOp, KvsOp, Payload, RespPayload};
use labstor::core::{ModuleManager, Request};
use labstor::ipc::Credentials;
use labstor::kernel::page_cache::LruMap;
use labstor::mods::alloc::BlockAllocator;
use labstor::mods::compress_algo::{compress, decompress};
use labstor::mods::labfs::{LabFs, LogRecord};
use labstor::mods::labkvs::LabKvs;
use labstor::sim::{Ctx, DeviceKind, SimDevice};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compression_roundtrips_any_data(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn compression_roundtrips_repetitive_data(
        unit in proptest::collection::vec(any::<u8>(), 1..32),
        reps in 1usize..2000,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = decompress(&data); // may Err, must not panic
    }
}

// ---------------------------------------------------------------------
// LRU map vs a reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    Insert(u8, u32),
    Get(u8),
    Remove(u8),
    PopLru,
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| LruOp::Insert(k, v)),
        any::<u8>().prop_map(LruOp::Get),
        any::<u8>().prop_map(LruOp::Remove),
        Just(LruOp::PopLru),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_matches_reference_model(ops in proptest::collection::vec(lru_op(), 0..400)) {
        let mut lru: LruMap<u8, u32> = LruMap::new();
        // Reference: map + recency list (front = most recent).
        let mut model: HashMap<u8, u32> = HashMap::new();
        let mut order: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                LruOp::Insert(k, v) => {
                    let got = lru.insert(k, v);
                    let expect = model.insert(k, v);
                    prop_assert_eq!(got, expect);
                    order.retain(|&x| x != k);
                    order.insert(0, k);
                }
                LruOp::Get(k) => {
                    let got = lru.get(&k).copied();
                    let expect = model.get(&k).copied();
                    prop_assert_eq!(got, expect);
                    if expect.is_some() {
                        order.retain(|&x| x != k);
                        order.insert(0, k);
                    }
                }
                LruOp::Remove(k) => {
                    let got = lru.remove(&k);
                    let expect = model.remove(&k);
                    prop_assert_eq!(got, expect);
                    order.retain(|&x| x != k);
                }
                LruOp::PopLru => {
                    let got = lru.pop_lru();
                    let expect = order.pop().map(|k| {
                        let v = model.remove(&k).expect("model in sync");
                        (k, v)
                    });
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
    }
}

// ---------------------------------------------------------------------
// Block allocator
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocator_never_double_allocates(
        workers in 1usize..8,
        total in 16u64..512,
        picks in proptest::collection::vec((0usize..8, any::<bool>()), 1..600),
    ) {
        let a = BlockAllocator::new(0, total, workers, 7);
        let mut seen = HashSet::new();
        let mut allocated = 0u64;
        for (w, decommission) in picks {
            if decommission {
                // Conservation must hold across worker decommissions.
                let before = a.free_blocks();
                a.decommission(w);
                prop_assert_eq!(a.free_blocks(), before);
                continue;
            }
            match a.alloc(w) {
                Some(b) => {
                    prop_assert!(b < total, "block {} out of range", b);
                    prop_assert!(seen.insert(b), "block {} allocated twice", b);
                    allocated += 1;
                }
                None => {
                    // Exhausted: every block must have been handed out.
                    prop_assert_eq!(allocated, total);
                    break;
                }
            }
        }
        prop_assert_eq!(a.free_blocks(), total - allocated);
    }

    #[test]
    fn alloc_runs_never_overlap_across_workers(
        workers in 1usize..6,
        total in 64u64..4096,
        batch in 1u64..64,
        picks in proptest::collection::vec((0usize..6, 1u64..40), 1..400),
    ) {
        let a = BlockAllocator::new(0, total, workers, batch);
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (w, n) in picks {
            // `None` means no shard holds `n` contiguous units any more;
            // a later, shorter run may still fit.
            if let Some(first) = a.alloc_run(w, n) {
                prop_assert!(first + n <= total, "run past the end");
                runs.push((first, first + n));
            }
        }
        runs.sort_unstable();
        for pair in runs.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "runs overlap: {:?}", pair);
        }
        let handed_out: u64 = runs.iter().map(|r| r.1 - r.0).sum();
        prop_assert!(handed_out + a.free_blocks() <= total);
    }
}

// ---------------------------------------------------------------------
// LabFS log records
// ---------------------------------------------------------------------

fn log_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (
            "[a-z/]{1,24}",
            any::<u64>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>()
        )
            .prop_map(|(path, ino, mode, uid, gid, is_dir)| LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir
            }),
        "[a-z/]{1,24}".prop_map(|path| LogRecord::Unlink { path }),
        (any::<u64>(), any::<u64>()).prop_map(|(ino, size)| LogRecord::SetSize { ino, size }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(ino, page, block)| LogRecord::MapBlock { ino, page, block }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn log_records_roundtrip(records in proptest::collection::vec(log_record(), 0..50)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.extend_from_slice(&[0u8; 32]); // padding tail
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = LogRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        prop_assert_eq!(decoded, records);
    }

    #[test]
    fn log_decode_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut pos = 0;
        while LogRecord::decode(&garbage, &mut pos).is_some() {
            if pos >= garbage.len() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// LabFS vs an in-memory file model (crash consistency included)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FsAction {
    Create(u8),
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Unlink(u8),
    Rename {
        from: u8,
        to: u8,
    },
    FsyncAndCrash,
}

fn fs_action() -> impl Strategy<Value = FsAction> {
    prop_oneof![
        3 => any::<u8>().prop_map(|f| FsAction::Create(f % 8)),
        4 => (any::<u8>(), any::<u16>(), 1u16..2048, any::<u8>()).prop_map(|(f, o, l, b)| {
            FsAction::Write { file: f % 8, offset: o % 8192, len: l, fill: b }
        }),
        3 => (any::<u8>(), any::<u16>(), 1u16..2048).prop_map(|(f, o, l)| {
            FsAction::Read { file: f % 8, offset: o % 8192, len: l }
        }),
        1 => any::<u8>().prop_map(|f| FsAction::Unlink(f % 8)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(f, t)| FsAction::Rename {
            from: f % 8,
            to: t % 8
        }),
        1 => Just(FsAction::FsyncAndCrash),
    ]
}

/// Drive LabFS (sync stack over a driver) and a plain in-memory model with
/// the same operations; any divergence is a bug. `FsyncAndCrash` flushes
/// the log, wipes in-memory state and replays — afterwards the two must
/// still agree.
fn labfs_harness() -> (ModuleManager, LabStack, Arc<SimDevice>) {
    let devices = labstor::mods::DeviceRegistry::new();
    let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
    let mm = ModuleManager::new();
    labstor::mods::install_all(&mm, &devices);
    mm.instantiate(
        "prop_fs",
        "labfs",
        &serde_json::json!({"device": "nvme0", "workers": 4}),
    )
    .unwrap();
    mm.instantiate(
        "prop_drv",
        "kernel_driver",
        &serde_json::json!({"device": "nvme0"}),
    )
    .unwrap();
    let stack = LabStack {
        id: 1,
        mount: "fs::/prop".into(),
        exec: ExecMode::Sync,
        vertices: vec![
            Vertex {
                uuid: "prop_fs".into(),
                outputs: vec![1],
            },
            Vertex {
                uuid: "prop_drv".into(),
                outputs: vec![],
            },
        ],
        authorized_uids: vec![0],
    };
    (mm, stack, dev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn labfs_matches_file_model(actions in proptest::collection::vec(fs_action(), 0..60)) {
        let (mm, stack, _dev) = labfs_harness();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let fs_mod = mm.get("prop_fs").unwrap();
        let mut ctx = Ctx::new();
        let exec = |payload: Payload, ctx: &mut Ctx| {
            fs_mod.process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
        };

        // Model: name → (ino, bytes). Unsynced model for live ops; synced
        // snapshot for post-crash comparison.
        let mut model: HashMap<String, (u64, Vec<u8>)> = HashMap::new();
        let mut synced: HashMap<String, (u64, Vec<u8>)> = HashMap::new();

        for action in actions {
            match action {
                FsAction::Create(f) => {
                    let path = format!("/f{f}");
                    let resp = exec(Payload::Fs(FsOp::Create { path: path.clone(), mode: 0o644 }), &mut ctx);
                    match resp {
                        RespPayload::Ino(ino) => {
                            prop_assert!(!model.contains_key(&path), "created over existing");
                            model.insert(path, (ino, Vec::new()));
                        }
                        RespPayload::Err(_) => prop_assert!(model.contains_key(&path)),
                        other => prop_assert!(false, "unexpected {:?}", other),
                    }
                }
                FsAction::Write { file, offset, len, fill } => {
                    let path = format!("/f{file}");
                    let Some(&(ino, _)) = model.get(&path) else { continue };
                    let data = vec![fill; len as usize];
                    let resp = exec(
                        Payload::Fs(FsOp::Write { ino, offset: offset as u64, data: data.clone() }),
                        &mut ctx,
                    );
                    prop_assert!(matches!(resp, RespPayload::Len(n) if n == len as usize));
                    let content = &mut model.get_mut(&path).unwrap().1;
                    let end = offset as usize + len as usize;
                    if content.len() < end {
                        content.resize(end, 0);
                    }
                    content[offset as usize..end].fill(fill);
                }
                FsAction::Read { file, offset, len } => {
                    let path = format!("/f{file}");
                    let Some((ino, content)) = model.get(&path) else { continue };
                    let resp = exec(
                        Payload::Fs(FsOp::Read { ino: *ino, offset: offset as u64, len: len as usize }),
                        &mut ctx,
                    );
                    let RespPayload::Data(got) = resp else {
                        prop_assert!(false, "read failed");
                        return Ok(());
                    };
                    let start = (offset as usize).min(content.len());
                    let end = (offset as usize + len as usize).min(content.len());
                    prop_assert_eq!(&got, &content[start..end]);
                }
                FsAction::Unlink(f) => {
                    let path = format!("/f{f}");
                    let resp = exec(Payload::Fs(FsOp::Unlink { path: path.clone() }), &mut ctx);
                    prop_assert_eq!(resp.is_ok(), model.remove(&path).is_some());
                }
                FsAction::Rename { from, to } => {
                    if from == to {
                        continue; // same-path rename: model ambiguity, skip
                    }
                    let (fp, tp) = (format!("/f{from}"), format!("/f{to}"));
                    let resp = exec(
                        Payload::Fs(FsOp::Rename { from: fp.clone(), to: tp.clone() }),
                        &mut ctx,
                    );
                    prop_assert_eq!(resp.is_ok(), model.contains_key(&fp));
                    if resp.is_ok() {
                        let entry = model.remove(&fp).expect("exists");
                        model.insert(tp, entry);
                    }
                }
                FsAction::FsyncAndCrash => {
                    // fsync everything that exists, then crash + replay.
                    for (ino, _) in model.values() {
                        let resp = exec(Payload::Fs(FsOp::Fsync { ino: *ino }), &mut ctx);
                        prop_assert!(resp.is_ok());
                    }
                    synced = model.clone();
                    let fs = fs_mod.as_any().downcast_ref::<LabFs>().unwrap();
                    fs.state_repair();
                    model = synced.clone();
                    // Every synced file must be back with its contents.
                    for (path, (ino, content)) in &model {
                        let resp = exec(Payload::Fs(FsOp::Stat { path: path.clone() }), &mut ctx);
                        prop_assert!(resp.is_ok(), "{} lost in replay", path);
                        if !content.is_empty() {
                            let resp = exec(
                                Payload::Fs(FsOp::Read { ino: *ino, offset: 0, len: content.len() }),
                                &mut ctx,
                            );
                            let RespPayload::Data(got) = resp else {
                                prop_assert!(false, "read after replay failed");
                                return Ok(());
                            };
                            prop_assert_eq!(&got, content);
                        }
                    }
                }
            }
        }
        let _ = synced;
    }
}

// ---------------------------------------------------------------------
// Live state = replayed state (LabFS and LabKVS)
// ---------------------------------------------------------------------

const PAGE: u32 = labstor::mods::labfs::FS_BLOCK as u32;

#[derive(Debug, Clone)]
enum MetaAction {
    Create(u8),
    Mkdir(u8),
    Write {
        file: u8,
        offset: u32,
        len: u32,
        fill: u8,
    },
    Truncate {
        file: u8,
        size: u32,
    },
    OpenTruncate(u8),
    Rename {
        from: u8,
        to: u8,
    },
    Unlink(u8),
    Fsync,
}

fn meta_action() -> impl Strategy<Value = MetaAction> {
    // Offsets, lengths and sizes on page boundaries and off them, inside
    // what earlier writes mapped (overwrites) and past it (gaps).
    let aligned = || (0u32..5).prop_map(|p| p * PAGE);
    let anywhere = || 0u32..5 * PAGE;
    prop_oneof![
        3 => any::<u8>().prop_map(|f| MetaAction::Create(f % 5)),
        1 => any::<u8>().prop_map(|d| MetaAction::Mkdir(d % 2)),
        3 => (any::<u8>(), aligned(), 1u32..3, any::<u8>()).prop_map(|(f, offset, pages, fill)| {
            MetaAction::Write { file: f % 5, offset, len: pages * PAGE, fill }
        }),
        4 => (any::<u8>(), anywhere(), 1u32..6000, any::<u8>()).prop_map(|(f, offset, len, fill)| {
            MetaAction::Write { file: f % 5, offset, len, fill }
        }),
        1 => any::<u8>().prop_map(|f| MetaAction::Truncate { file: f % 5, size: 0 }),
        1 => (any::<u8>(), aligned()).prop_map(|(f, size)| MetaAction::Truncate { file: f % 5, size }),
        3 => (any::<u8>(), anywhere()).prop_map(|(f, size)| MetaAction::Truncate { file: f % 5, size }),
        1 => any::<u8>().prop_map(|f| MetaAction::OpenTruncate(f % 5)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(f, t)| MetaAction::Rename { from: f % 5, to: t % 5 }),
        1 => any::<u8>().prop_map(|f| MetaAction::Unlink(f % 5)),
        1 => Just(MetaAction::Fsync),
    ]
}

#[derive(Debug, Clone)]
enum KvAction {
    /// Put (a fresh key or an overwrite at another length; zero allowed).
    Put {
        key: u8,
        len: u16,
        fill: u8,
    },
    Remove(u8),
    Flush,
}

fn kv_action() -> impl Strategy<Value = KvAction> {
    prop_oneof![
        5 => (any::<u8>(), 0u16..3000, any::<u8>())
            .prop_map(|(k, len, fill)| KvAction::Put { key: k % 6, len, fill }),
        1 => (any::<u8>(), any::<u8>())
            .prop_map(|(k, fill)| KvAction::Put { key: k % 6, len: 0, fill }),
        2 => any::<u8>().prop_map(|k| KvAction::Remove(k % 6)),
        1 => Just(KvAction::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LabFS keeps nothing on the device but its log, so the state a live
    /// instance reached must be the state a fresh instance folds out of
    /// that log: same names, and per inode the same size, mode, owner,
    /// kind and block map (`LabFs::snapshot`). Provenance (`ops`,
    /// `last_writer`) is not journaled and is not compared. Every file
    /// must also read back, from the live and from the replayed
    /// instance, as a flat byte model in which gaps are zeroes.
    #[test]
    fn live_state_equals_replayed_state(actions in proptest::collection::vec(meta_action(), 0..40)) {
        let (mm, stack, dev) = labfs_harness();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let mut ctx = Ctx::new();
        let exec = |payload: Payload, ctx: &mut Ctx| {
            let fs = mm.get("prop_fs").unwrap();
            fs.process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
        };
        let fsync = |ctx: &mut Ctx| exec(Payload::Fs(FsOp::Fsync { ino: 0 }), ctx).is_ok();
        // name → (ino, bytes); directories are not modeled beyond existing.
        let mut model: HashMap<String, (u64, Vec<u8>)> = HashMap::new();
        for action in actions {
            match action {
                MetaAction::Create(f) => {
                    let path = format!("/f{f}");
                    let resp = exec(Payload::Fs(FsOp::Create { path: path.clone(), mode: 0o640 }), &mut ctx);
                    match resp {
                        RespPayload::Ino(ino) => prop_assert!(model.insert(path, (ino, Vec::new())).is_none()),
                        other => prop_assert!(model.contains_key(&path), "create: {:?}", other),
                    }
                }
                MetaAction::Mkdir(d) => {
                    exec(Payload::Fs(FsOp::Mkdir { path: format!("/d{d}"), mode: 0o755 }), &mut ctx);
                }
                MetaAction::Write { file, offset, len, fill } => {
                    let Some((ino, content)) = model.get_mut(&format!("/f{file}")) else { continue };
                    let (offset, len) = (offset as usize, len as usize);
                    let write = FsOp::Write { ino: *ino, offset: offset as u64, data: vec![fill; len] };
                    let resp = exec(Payload::Fs(write), &mut ctx);
                    prop_assert!(matches!(resp, RespPayload::Len(n) if n == len), "write: {:?}", resp);
                    content.resize(content.len().max(offset + len), 0);
                    content[offset..offset + len].fill(fill);
                }
                MetaAction::Truncate { file, size } => {
                    let Some((ino, content)) = model.get_mut(&format!("/f{file}")) else { continue };
                    let resp = exec(Payload::Fs(FsOp::Truncate { ino: *ino, size: size as u64 }), &mut ctx);
                    prop_assert!(resp.is_ok(), "truncate: {:?}", resp);
                    content.resize(size as usize, 0);
                }
                MetaAction::OpenTruncate(f) => {
                    let path = format!("/f{f}");
                    let open = FsOp::Open { path: path.clone(), create: false, truncate: true };
                    let resp = exec(Payload::Fs(open), &mut ctx);
                    match model.get_mut(&path) {
                        Some((ino, content)) => {
                            prop_assert!(matches!(resp, RespPayload::Ino(i) if i == *ino), "open: {:?}", resp);
                            content.clear();
                        }
                        None => prop_assert!(!resp.is_ok()),
                    }
                }
                MetaAction::Rename { from, to } => {
                    if from == to {
                        continue; // same-path rename: model ambiguity, skip
                    }
                    let (fp, tp) = (format!("/f{from}"), format!("/f{to}"));
                    let resp = exec(Payload::Fs(FsOp::Rename { from: fp.clone(), to: tp.clone() }), &mut ctx);
                    prop_assert_eq!(resp.is_ok(), model.contains_key(&fp));
                    if let Some(entry) = model.remove(&fp) {
                        model.insert(tp, entry); // onto a live name: it is replaced
                    }
                }
                MetaAction::Unlink(f) => {
                    let path = format!("/f{f}");
                    let resp = exec(Payload::Fs(FsOp::Unlink { path: path.clone() }), &mut ctx);
                    prop_assert_eq!(resp.is_ok(), model.remove(&path).is_some());
                }
                MetaAction::Fsync => {
                    prop_assert!(fsync(&mut ctx), "fsync");
                }
            }
        }
        prop_assert!(fsync(&mut ctx), "final fsync");

        let live_mod = mm.get("prop_fs").unwrap();
        let live = live_mod.as_any().downcast_ref::<LabFs>().unwrap().snapshot();
        let replayed = Arc::new(LabFs::new(dev, 4));
        prop_assert!(replayed.replay_from_device().is_clean());
        prop_assert_eq!(&replayed.snapshot(), &live);
        let mut files: Vec<(&String, u64)> = model.iter().map(|(path, (ino, _))| (path, *ino)).collect();
        files.sort();
        let named: Vec<(&String, u64)> =
            live.iter().filter(|(_, st, _)| !st.is_dir).map(|(path, st, _)| (path, st.ino)).collect();
        prop_assert_eq!(named, files);

        for instance in ["live", "replayed"] {
            for (path, (ino, content)) in &model {
                // Ask for a page more than there is: the size must clip it.
                let read = FsOp::Read { ino: *ino, offset: 0, len: content.len() + PAGE as usize };
                let resp = exec(Payload::Fs(read), &mut ctx);
                prop_assert!(resp.data_bytes() == Some(&content[..]), "{} {} does not read back", instance, path);
            }
            mm.insert_instance("prop_fs", replayed.clone());
        }
    }

    /// The LabKVS twin: the key map a live instance reached is the one a
    /// fresh instance folds out of the op log, and every value reads back.
    #[test]
    fn live_kvs_index_equals_replayed_index(actions in proptest::collection::vec(kv_action(), 0..40)) {
        let devices = labstor::mods::DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        labstor::mods::install_all(&mm, &devices);
        let params = serde_json::json!({"device": "nvme0", "workers": 4});
        mm.instantiate("prop_kv", "labkvs", &params).unwrap();
        mm.instantiate("prop_drv", "kernel_driver", &params).unwrap();
        let vertex = |uuid: &str, outputs| Vertex { uuid: uuid.into(), outputs };
        let stack = LabStack {
            id: 1,
            mount: "kv::/prop".into(),
            exec: ExecMode::Sync,
            vertices: vec![vertex("prop_kv", vec![1]), vertex("prop_drv", vec![])],
            authorized_uids: vec![0],
        };
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let mut ctx = Ctx::new();
        let exec = |op: KvsOp, ctx: &mut Ctx| {
            let kv = mm.get("prop_kv").unwrap();
            kv.process(ctx, Request::new(1, 1, Payload::Kvs(op), Credentials::ROOT), &env)
        };
        let live_mod = mm.get("prop_kv").unwrap();
        let live = live_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for action in actions {
            match action {
                KvAction::Put { key, len, fill } => {
                    let (key, value) = (format!("k{key}"), vec![fill; len as usize]);
                    let resp = exec(KvsOp::Put { key: key.clone(), value: value.clone() }, &mut ctx);
                    prop_assert!(matches!(resp, RespPayload::Len(n) if n == value.len()), "put: {:?}", resp);
                    model.insert(key, value);
                }
                KvAction::Remove(key) => {
                    let key = format!("k{key}");
                    let resp = exec(KvsOp::Remove { key: key.clone() }, &mut ctx);
                    prop_assert_eq!(resp.is_ok(), model.remove(&key).is_some());
                }
                KvAction::Flush => prop_assert!(live.flush_logs(&mut ctx).is_ok()),
            }
        }
        prop_assert!(live.flush_logs(&mut ctx).is_ok());

        let replayed = Arc::new(LabKvs::new(dev, 4));
        prop_assert!(replayed.replay_from_device().is_clean());
        prop_assert_eq!(replayed.snapshot(), live.snapshot());
        let lens: HashMap<String, usize> = model.iter().map(|(k, v)| (k.clone(), v.len())).collect();
        prop_assert_eq!(live.snapshot().into_iter().map(|(k, (len, _))| (k, len)).collect::<HashMap<_, _>>(), lens);
        for instance in ["live", "replayed"] {
            for (key, value) in &model {
                let resp = exec(KvsOp::Get { key: key.clone() }, &mut ctx);
                prop_assert!(resp.data_bytes() == Some(&value[..]), "{} {} does not read back", instance, key);
            }
            mm.insert_instance("prop_kv", replayed.clone());
        }
    }
}
