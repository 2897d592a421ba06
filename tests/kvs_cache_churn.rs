//! LabKVS reuses the extents it frees once the free is durable, so a
//! cache below it must let a replaced or removed value go: the value's
//! `Discard` drops its blocks, dirty ones unwritten. Otherwise the cache
//! fills with dead values, and a write-back cache later writes a dead
//! value's bytes over the extent's next owner.
//!
//! Over labkvs → lru_cache → noop_sched → kernel_driver, write-through
//! and write-back: a fixed key set is replaced and removed round after
//! round, each round made durable, with values of two shapes — a 1 KiB
//! owned `Put` (one write) and a 5 119-byte `PutBuf` (its 4 608-byte
//! prefix as a slice of the pool buffer, then its zero-padded tail sector
//! on its own, a cache block that starts off the value's 4 KiB grid).
//! What the cache holds stays bounded by the live keys, the extents are
//! recycled, and after other keys push every block out and the cache is
//! flushed, each live value reads back, through the stack and from the
//! device. Last, an 8 KiB owned `Put`, whose blocks the cache copies into
//! a 4 KiB slot each: a `Get` below LabKVS finds them in two slots, `Get`
//! answers with their views and no copy, and `GetWhere` answers the same
//! after joining them for its scan, one counted copy.
//!
//! This file holds a single test: it compares the default pool's live
//! slots before and after, and the integration tests of one file share
//! one process and pool.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use labstor::core::{
    BlockOp, Client, KvsOp, LabStack, Payload, RespPayload, Runtime, RuntimeConfig,
};
use labstor::ipc::{default_pool, payload_copy_bytes, Credentials};
use labstor::mods::labkvs::LabKvs;
use labstor::mods::lru::LruCacheMod;
use labstor::mods::DeviceRegistry;
use labstor::pushdown::Program;
use labstor::sim::{BlockDevice, Ctx, DeviceKind, SECTOR_SIZE};

const KEYS: usize = 8;
const ROUNDS: usize = 60;
/// The cache's capacity in 4 KiB blocks: room for every live value.
const CACHE_BLOCKS: usize = 64;
/// The most cache blocks one value takes: the `PutBuf` shape's two
/// head blocks and its tail sector.
const BLOCKS_PER_VALUE: usize = 3;

/// The bytes of put number `stamp`, in one of the two shapes.
fn value(stamp: usize) -> Vec<u8> {
    let len = if stamp.is_multiple_of(2) {
        1024
    } else {
        9 * SECTOR_SIZE + 511
    };
    (0..len).map(|i| (i * 13 + stamp * 7 + 1) as u8).collect()
}

fn spec(write_back: bool) -> String {
    let capacity = CACHE_BLOCKS * 4096;
    format!(
        r#"{{
    "mount": "kv::/churn",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        {{ "uuid": "churn_kv", "type": "labkvs", "params": {{"device": "nvme0", "workers": 1}}, "outputs": ["churn_lru"] }},
        {{ "uuid": "churn_lru", "type": "lru_cache", "params": {{"capacity_bytes": {capacity}, "write_back": {write_back}}}, "outputs": ["churn_sched"] }},
        {{ "uuid": "churn_sched", "type": "noop_sched", "outputs": ["churn_drv"] }},
        {{ "uuid": "churn_drv", "type": "kernel_driver", "params": {{"device": "nvme0"}} }}
    ]
}}"#
    )
}

fn run(client: &mut Client, stack: &std::sync::Arc<LabStack>, op: KvsOp) -> RespPayload {
    client.execute(stack, Payload::Kvs(op)).unwrap().0
}

fn put(client: &mut Client, stack: &std::sync::Arc<LabStack>, key: &str, bytes: &[u8]) {
    let key = key.to_string();
    let op = if bytes.len().is_multiple_of(SECTOR_SIZE) {
        KvsOp::Put {
            key,
            value: bytes.to_vec(),
        }
    } else {
        let buf = default_pool().alloc_from(bytes).expect("pool space");
        KvsOp::PutBuf { key, buf }
    };
    let resp = run(client, stack, op);
    assert!(
        matches!(resp, RespPayload::Len(n) if n == bytes.len()),
        "{resp:?}"
    );
}

fn churn(write_back: bool) {
    let devices = DeviceRegistry::new();
    let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let stack = rt.mount_stack_json(&spec(write_back)).unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let kv_mod = rt.mm.get("churn_kv").unwrap();
    let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
    let lru_mod = rt.mm.get("churn_lru").unwrap();
    let lru = lru_mod.as_any().downcast_ref::<LruCacheMod>().unwrap();
    let mode = if write_back {
        "write-back"
    } else {
        "write-through"
    };

    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    let (mut puts, mut extents) = (0, HashSet::new());
    for round in 0..ROUNDS {
        for k in 0..KEYS {
            let (key, bytes) = (format!("k{k}"), value(round * KEYS + k));
            put(&mut client, &stack, &key, &bytes);
            extents.insert(kv.snapshot()[&key].1);
            puts += 1;
            model.insert(key, bytes);
        }
        // Two keys go until the next round puts them back.
        for k in [round % KEYS, (round + 3) % KEYS] {
            let key = format!("k{k}");
            let resp = run(&mut client, &stack, KvsOp::Remove { key: key.clone() });
            assert!(resp.is_ok(), "{resp:?}");
            model.remove(&key);
        }
        kv.flush_logs(&mut Ctx::new()).unwrap();
        let bound = BLOCKS_PER_VALUE * model.len();
        let resident = lru.resident_blocks();
        assert!(
            resident <= bound,
            "{mode}, round {round}: {resident} blocks resident for {} live keys",
            model.len()
        );
    }
    assert!(
        extents.len() * 4 < puts,
        "{mode}: {} extents for {puts} puts: freed extents were not reused",
        extents.len()
    );

    // Other keys push every block out (a write-back cache writes its
    // dirty ones back), then the cache is flushed.
    for k in 0..2 * CACHE_BLOCKS {
        put(&mut client, &stack, &format!("filler{k}"), &value(0));
    }
    let flushed = client
        .execute(&stack, Payload::Block(BlockOp::Flush))
        .unwrap()
        .0;
    assert!(flushed.is_ok(), "{flushed:?}");
    let snapshot = kv.snapshot();
    for (key, bytes) in &model {
        let got = run(&mut client, &stack, KvsOp::Get { key: key.clone() });
        assert!(
            got.data_bytes() == Some(&bytes[..]),
            "{mode}: {key} through the stack"
        );
        let (len, lba) = snapshot[key];
        let mut media = vec![0u8; len.next_multiple_of(SECTOR_SIZE)];
        dev.read(&mut Ctx::new(), lba, &mut media).unwrap();
        assert!(media[..len] == bytes[..], "{mode}: {key} on the device");
        assert!(
            media[len..].iter().all(|&b| b == 0),
            "{mode}: {key}'s padding"
        );
    }

    // A value the cache holds in two slots comes up as a run list: the
    // answer is its views, and only the pushdown scan joins them.
    let split: Vec<u8> = (0..2 * 4096).map(|i| (i % 251) as u8).collect();
    put(&mut client, &stack, "split", &split);
    let first = u32::from_le_bytes(split[..4].try_into().unwrap());
    let prog = Program::count_where_u32_eq(64, 0, first).verify().unwrap();
    let key = || "split".to_string();
    let get_where = KvsOp::GetWhere {
        key: key(),
        prog: Arc::new(prog),
    };
    for (op, copied) in [(KvsOp::Get { key: key() }, 0), (get_where, split.len())] {
        let bytes = payload_copy_bytes();
        let got = run(&mut client, &stack, op);
        assert_eq!(payload_copy_bytes() - bytes, copied as u64, "{mode}");
        let RespPayload::DataRuns(runs) = &got else {
            panic!("{mode}: {got:?}");
        };
        assert_eq!(runs.len(), 2, "{mode}");
        assert_eq!(
            got.data_parts().unwrap().collect::<Vec<_>>().concat(),
            split,
            "{mode}"
        );
    }
    drop(client);
    rt.shutdown();
}

#[test]
fn replaced_and_removed_values_leave_the_cache_and_their_extents_are_reused() {
    let live = default_pool().live();
    churn(false);
    churn(true);
    assert_eq!(default_pool().live(), live, "every pool slot came back");
}
