//! Property-based tests: core data structures and invariants checked
//! against reference models under randomized operation sequences.

#[allow(dead_code)]
mod fs_harness;

use proptest::prelude::*;

use labstor::core::labmod::StackEnv;
use labstor::core::stack::{ExecMode, LabStack, Vertex};
use labstor::core::{KvsOp, Payload, RespPayload};
use labstor::core::{ModuleManager, Request};
use labstor::ipc::Credentials;
use labstor::kernel::page_cache::LruMap;
use labstor::mods::alloc::BlockAllocator;
use labstor::mods::compress_algo::{compress, decompress};
use labstor::mods::labfs::LogRecord;
use labstor::mods::labkvs::LabKvs;
use labstor::sim::{Ctx, DeviceKind};
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
            match a.alloc_run(w, 1) {
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
// LabFS against the one file model, and live state = replayed state
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LabFS on Lab-D through hand-built owned writes (`FsOp::Write`
    /// carries its bytes in a `Vec`) equals `FsModel` after
    /// every step, and after the `repair_all` that follows each fsync.
    /// One of the targets of the proptest in `tests/fs_model.rs`.
    #[test]
    fn labfs_matches_file_model(script in fs_harness::script()) {
        fs_harness::run(fs_harness::labfs(false, true), &script)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LabFS keeps nothing on the device but its log, so the state a live
    /// instance reached must be the state a fresh instance folds out of
    /// that log (`LabFs::snapshot`), and every file must read back as
    /// `FsModel` has it from the live and from the replayed instance.
    /// The scripts are three times as long as `tests/fs_model.rs`'s, so
    /// the state is checked only at the end.
    #[test]
    fn live_state_equals_replayed_state(
        script in proptest::collection::vec(fs_harness::action(), 1..192),
    ) {
        let mut sut = fs_harness::labfs(false, false);
        let model = fs_harness::drive(&mut sut, &script, false)?;
        fs_harness::replay(sut, &model)?;
    }
}

// ---------------------------------------------------------------------
// Live state = replayed state (LabKVS)
// ---------------------------------------------------------------------

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

    /// The key map a live instance reached is the one a fresh instance
    /// folds out of the op log, and every value reads back.
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
