//! The bytes the buffer pool zero-fills for a `seq64k`-shaped client —
//! bursts of eight 64 KiB `alloc_buf` + fill + `WriteBuf`, then the eight
//! `ReadBuf` read-backs, through LabFS, an LRU cache and a driver. A slot
//! is zeroed only when it changes domain, so each 64 KiB write costs
//! 65 536 zeroed bytes the first time its slot is used (the fresh slot's
//! backing) and none once every slot it cycles through has been used once.
//!
//! This file holds a single test: `zeroed_bytes` is a process-wide count
//! on the default pool, and the integration tests of one file share one
//! process.

use std::sync::Arc;

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::DeviceRegistry;
use labstor::sim::DeviceKind;

const SPEC: &str = r#"{
    "mount": "fs::/z",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "z_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["z_lru"] },
        { "uuid": "z_lru", "type": "lru_cache", "params": {"capacity_bytes": 2097152}, "outputs": ["z_sched"] },
        { "uuid": "z_sched", "type": "noop_sched", "outputs": ["z_drv"] },
        { "uuid": "z_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const CHUNK: usize = 64 << 10;
const CHUNKS: u64 = (16 << 20) / CHUNK as u64;
const DEPTH: u64 = 8;

#[test]
fn a_64k_write_zero_fills_nothing_once_its_slots_have_been_used() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt: Arc<Runtime> = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let stack = rt.mount_stack_json(SPEC).unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let open = Payload::Fs(FsOp::Open {
        path: "/seq.bin".into(),
        create: true,
        truncate: false,
    });
    let RespPayload::Ino(ino) = client.execute(&stack, open).unwrap().0 else {
        panic!("open failed");
    };

    // Zeroed bytes per write, in write order.
    let mut per_write = Vec::new();
    for burst in 0..2 * CHUNKS / DEPTH {
        let chunks: Vec<u64> = (0..DEPTH).map(|i| (burst * DEPTH + i) % CHUNKS).collect();
        let mut writes = Vec::new();
        for &c in &chunks {
            let before = default_pool().zeroed_bytes();
            let mut buf = client.alloc_buf(CHUNK).expect("pool has a 64 KiB slot");
            per_write.push(default_pool().zeroed_bytes() - before);
            assert!(buf.write_with(|b| b.fill((c % 255) as u8 + 1)));
            let offset = c * CHUNK as u64;
            writes.push(Payload::Fs(FsOp::WriteBuf { ino, offset, buf }));
        }
        let reads = chunks
            .iter()
            .map(|&c| {
                Payload::Fs(FsOp::ReadBuf {
                    ino,
                    offset: c * CHUNK as u64,
                    len: CHUNK,
                })
            })
            .collect();
        for payloads in [writes, reads] {
            let ids = client.submit_all(&stack, payloads).unwrap();
            for _ in ids {
                let (resp, _) = client.reap_one().unwrap();
                assert!(!matches!(resp.payload, RespPayload::Err(_)), "{resp:?}");
            }
        }
    }

    // A run of writes that each take a fresh slot and zero-fill all of it
    // (no more than the class has slots), then none ever again.
    let warm = per_write.iter().take_while(|&&z| z == CHUNK as u64).count();
    let slots_in_class = default_pool()
        .class_table()
        .into_iter()
        .find(|&(size, _)| size == CHUNK)
        .map_or(0, |(_, count)| count);
    assert!(
        (1..=slots_in_class).contains(&warm),
        "{warm} zero-filled writes for {slots_in_class} slots"
    );
    assert!(
        per_write[warm..].iter().all(|&z| z == 0),
        "a write zero-filled after warm-up: {per_write:?}"
    );
    rt.shutdown();
}
