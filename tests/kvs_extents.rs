//! LabKVS against a flat model, over the real labkvs → driver stack
//! (DESIGN.md §12, "LabKVS on-device layout").
//!
//! Every stored value is one device-contiguous, sector-granular extent:
//! a get of any size is at most one device read of exactly the covering
//! sectors, a put writes exactly the covering sectors, and no two live
//! values ever share a sector — also across a restart, where a fresh
//! instance rebuilds its allocator from the replayed log.
//!
//! The tests here read process-wide counters (the default pool's live
//! count, the payload-copy counter), so they take turns.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use labstor::core::stack::{ExecMode, LabStack, Vertex};
use labstor::core::{
    BlockOp, KvsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::labkvs::LabKvs;
use labstor::mods::DeviceRegistry;
use labstor::sim::{BlockDevice, Ctx, DeviceKind, SimDevice, SECTOR_SIZE};

static TURN: Mutex<()> = Mutex::new(());

/// Sits between labkvs and the driver and records what crosses.
#[derive(Default)]
struct BlockSpy {
    /// `(lba, bytes, address of an owned Vec's allocation)` per write.
    writes: Mutex<Vec<(u64, usize, Option<usize>)>>,
}

// labmod-default-ok: a test probe that is never upgraded or repaired
impl LabMod for BlockSpy {
    fn type_name(&self) -> &'static str {
        "block_spy"
    }
    fn mod_type(&self) -> ModType {
        ModType::Filter
    }
    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let seen = match &req.payload {
            Payload::Block(BlockOp::Write { lba, data }) => {
                Some((*lba, data.len(), Some(data.as_ptr() as usize)))
            }
            Payload::Block(BlockOp::WriteBuf { lba, buf }) => Some((*lba, buf.len(), None)),
            _ => None,
        };
        self.writes.lock().unwrap().extend(seen);
        env.forward(ctx, req)
    }
    fn est_processing_time(&self, _req: &Request) -> u64 {
        1
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// labkvs → spy → kernel_driver over one simulated NVMe.
struct Rig {
    mm: ModuleManager,
    stack: LabStack,
    dev: Arc<SimDevice>,
    spy: Arc<BlockSpy>,
    workers: usize,
    ctx: Ctx,
}

impl Rig {
    fn new(workers: usize) -> Rig {
        let devices = DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        labstor::mods::drivers::install(&mm, &devices);
        mm.insert_instance("kv", Arc::new(LabKvs::new(dev.clone(), workers)));
        let spy = Arc::new(BlockSpy::default());
        mm.insert_instance("spy", spy.clone());
        mm.instantiate(
            "drv",
            "kernel_driver",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let vertex = |uuid: &str, outputs: Vec<usize>| Vertex {
            uuid: uuid.into(),
            outputs,
        };
        let stack = LabStack {
            id: 1,
            mount: "kv::/x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                vertex("kv", vec![1]),
                vertex("spy", vec![2]),
                vertex("drv", vec![]),
            ],
            authorized_uids: vec![],
        };
        Rig {
            mm,
            stack,
            dev,
            spy,
            workers,
            ctx: Ctx::new(),
        }
    }

    fn kvs(&self) -> Arc<dyn LabMod> {
        self.mm.get("kv").unwrap()
    }

    /// Run one KVS op on `core`; returns the response and the block
    /// writes it sent downstream. A key's puts and removes must all come
    /// in on one core: each worker has its own log, and replay does not
    /// order one log's records against another's.
    fn exec(&mut self, core: usize, op: KvsOp) -> (RespPayload, Vec<(u64, usize, Option<usize>)>) {
        self.spy.writes.lock().unwrap().clear();
        let env = StackEnv::new(&self.stack, 0, &self.mm, 0);
        let req = Request::on_core(1, 1, Payload::Kvs(op), Credentials::ROOT, core);
        let resp = self.kvs().process(&mut self.ctx, req, &env);
        let writes = std::mem::take(&mut *self.spy.writes.lock().unwrap());
        (resp, writes)
    }

    /// Make everything durable, then boot a brand-new instance over the
    /// same media, as a restart does.
    fn restart(&mut self) {
        let kvs = self.kvs();
        let old = kvs.as_any().downcast_ref::<LabKvs>().unwrap();
        old.flush_logs(&mut self.ctx).unwrap();
        let fresh = LabKvs::new(self.dev.clone(), self.workers);
        assert!(fresh.replay_from_device().is_clean());
        self.mm.insert_instance("kv", Arc::new(fresh));
    }
}

const LENGTHS: [usize; 14] = [
    0, 1, 511, 512, 513, 1024, 1536, 4095, 4096, 4097, 8192, 10_000, 16_385, 20_480,
];

#[derive(Debug, Clone)]
enum Op {
    Put {
        key: usize,
        len: usize,
        pooled: bool,
    },
    Get {
        key: usize,
    },
    Remove {
        key: usize,
    },
    Restart,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0usize..6, 0usize..LENGTHS.len(), any::<bool>()).prop_map(
            |(key, len, pooled)| Op::Put { key, len: LENGTHS[len], pooled }
        ),
        4 => (0usize..6).prop_map(|key| Op::Get { key }),
        1 => (0usize..6).prop_map(|key| Op::Remove { key }),
        1 => Just(Op::Restart),
    ]
}

/// The bytes put number `stamp` stores.
fn value(stamp: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + stamp * 7 + 1) as u8).collect()
}

fn sectors(len: usize) -> u64 {
    len.div_ceil(SECTOR_SIZE) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kvs_matches_a_flat_model(
        four_workers in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        let mut rig = Rig::new(if four_workers { 4 } else { 1 });
        // key → (bytes, first lba, sectors)
        let mut model: HashMap<usize, (Vec<u8>, u64, u64)> = HashMap::new();
        for (stamp, op) in ops.into_iter().enumerate() {
            match op {
                Op::Put { key, len, pooled } => {
                    let bytes = value(stamp, len);
                    let put = if pooled && len > 0 {
                        let buf = default_pool().alloc_from(&bytes).expect("pool space");
                        KvsOp::PutBuf { key: format!("k{key}"), buf }
                    } else {
                        KvsOp::Put { key: format!("k{key}"), value: bytes.clone() }
                    };
                    let (resp, writes) = rig.exec(key, put);
                    prop_assert!(matches!(resp, RespPayload::Len(n) if n == len), "{:?}", resp);
                    // The writes tile one extent of exactly the covering sectors.
                    let lba = writes.first().map_or(0, |w| w.0);
                    let mut at = lba;
                    for &(w_lba, w_bytes, _) in &writes {
                        prop_assert_eq!(w_lba, at); // one put's writes are contiguous
                        prop_assert_eq!(w_bytes % SECTOR_SIZE, 0);
                        at += (w_bytes / SECTOR_SIZE) as u64;
                    }
                    prop_assert_eq!(at - lba, sectors(len));
                    let most = if pooled { 2 } else { 1 };
                    prop_assert!(writes.len() <= most);
                    // No other live value shares a sector with this one.
                    for (other, &(_, o_lba, o_n)) in model.iter().filter(|(k, _)| **k != key) {
                        prop_assert!(
                            at == lba || o_n == 0 || at <= o_lba || o_lba + o_n <= lba,
                            "k{} [{}, {}) overlaps k{} [{}, {})",
                            key, lba, at, other, o_lba, o_lba + o_n
                        );
                    }
                    model.insert(key, (bytes, lba, sectors(len)));
                }
                Op::Get { key } => {
                    let before = rig.dev.stats().snapshot();
                    let (resp, _) = rig.exec(0, KvsOp::Get { key: format!("k{key}") });
                    let after = rig.dev.stats().snapshot();
                    match model.get(&key) {
                        Some((bytes, _, n)) => {
                            prop_assert!(resp.data_bytes() == Some(&bytes[..]), "get k{}", key);
                            prop_assert_eq!(after.reads - before.reads, u64::from(*n > 0));
                            prop_assert_eq!(
                                after.bytes_read - before.bytes_read,
                                n * SECTOR_SIZE as u64
                            );
                        }
                        None => {
                            prop_assert!(matches!(resp, RespPayload::Err(_)), "{:?}", resp);
                            prop_assert_eq!(after.reads, before.reads);
                        }
                    }
                }
                Op::Remove { key } => {
                    let (resp, writes) = rig.exec(key, KvsOp::Remove { key: format!("k{key}") });
                    prop_assert_eq!(resp.is_ok(), model.remove(&key).is_some());
                    prop_assert!(writes.is_empty());
                }
                Op::Restart => rig.restart(),
            }
        }
        // A last restart, then everything the model holds reads back.
        rig.restart();
        for (key, (bytes, _, _)) in &model {
            let (resp, _) = rig.exec(0, KvsOp::Get { key: format!("k{key}") });
            prop_assert!(resp.data_bytes() == Some(&bytes[..]), "k{} after restart", key);
        }
        drop(rig);
        // No pool buffer outlives its request.
        prop_assert_eq!(default_pool().live(), 0);
    }
}

#[test]
fn a_put_copies_at_most_its_tail_sector() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut rig = Rig::new(1);
    let copied = labstor::ipc::payload_copy_bytes;

    // A sector-multiple Vec goes downstream as the allocation the caller
    // made: one write, nothing copied.
    let bytes = value(1, 2 * SECTOR_SIZE);
    let allocation = bytes.as_ptr() as usize;
    let before = copied();
    let put = KvsOp::Put {
        key: "aligned".into(),
        value: bytes,
    };
    let (resp, writes) = rig.exec(0, put);
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(copied() - before, 0);
    assert_eq!(writes.len(), 1);
    assert_eq!(writes[0].1, 2 * SECTOR_SIZE);
    assert_eq!(writes[0].2, Some(allocation));

    // A pool buffer travels as a slice of itself up to the last whole
    // sector; only the tail is copied into a padded sector.
    let bytes = value(2, 9 * SECTOR_SIZE + 511);
    let buf = default_pool().alloc_from(&bytes).expect("pool space");
    let before = copied();
    let put = KvsOp::PutBuf {
        key: "pooled".into(),
        buf,
    };
    let (resp, writes) = rig.exec(0, put);
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(copied() - before, 511);
    let shape: Vec<_> = writes.iter().map(|w| (w.1, w.2.is_some())).collect();
    assert_eq!(shape, vec![(9 * SECTOR_SIZE, false), (SECTOR_SIZE, true)]);
    let (resp, _) = rig.exec(
        0,
        KvsOp::Get {
            key: "pooled".into(),
        },
    );
    assert!(resp.data_bytes() == Some(&bytes[..]));
}
