//! Varmail's churn — create a file, write it in two 8 KiB halves, unlink
//! it — must not fill the block cache with dead blocks. LabFS never
//! reuses a freed block, so nothing would read those blocks again, yet a
//! cache that is not told they died keeps them, and with them the 16 KiB
//! pool slots the writes came in: after 64 files the class is dry and
//! every later `GenericFs::write` falls back to the copying `Write`. LabFS
//! discards an unlinked file's blocks, so what the cache and the pool
//! hold stays bounded by the live files.
//!
//! This file holds a single test: it compares the default pool's live
//! slots and the process-wide copy counter before and after, and the
//! integration tests of one file share one process and pool.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, payload_copies, Credentials};
use labstor::mods::lru::LruCacheMod;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

/// Lab-D: labfs → lru_cache (16 MiB, write-through) → noop_sched →
/// kernel_driver, run inline in the client.
const SPEC: &str = r#"{
    "mount": "fs::/churn",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "churn_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["churn_lru"] },
        { "uuid": "churn_lru", "type": "lru_cache", "params": {"capacity_bytes": 16777216}, "outputs": ["churn_sched"] },
        { "uuid": "churn_sched", "type": "noop_sched", "outputs": ["churn_drv"] },
        { "uuid": "churn_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const CYCLES: u64 = 300;
const HALF: usize = 8192;
/// Blocks (4 KiB) and pool slots (16 KiB, one per write) of one file.
const FILE_BLOCKS: usize = 2 * HALF / 4096;
const FILE_SLOTS: u64 = 2;

#[test]
fn unlinked_files_leave_the_cache_and_the_pool() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let lru = rt.mm.get("churn_lru").unwrap();
    let lru = lru.as_any().downcast_ref::<LruCacheMod>().unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    let (live, copies) = (default_pool().live(), payload_copies());
    for cycle in 0..CYCLES {
        let path = "fs::/churn/mail";
        let fd = fs.open(path, true, false).unwrap();
        for half in 0..2u8 {
            let bytes = vec![cycle as u8 ^ half; HALF];
            assert_eq!(fs.write(fd, &bytes).unwrap(), HALF, "cycle {cycle}");
        }
        fs.close(fd).unwrap();
        assert_eq!(
            lru.resident_blocks(),
            FILE_BLOCKS,
            "cycle {cycle}: one live file"
        );
        assert_eq!(default_pool().live(), live + FILE_SLOTS, "cycle {cycle}");
        fs.unlink(path).unwrap();
        assert_eq!(lru.resident_blocks(), 0, "cycle {cycle}: no live file");
        assert_eq!(default_pool().live(), live, "cycle {cycle}: slots back");
    }
    // A pool write counts one copy (into its slot); the owned `Write`
    // counts two (into the `Vec`, then into the cache).
    assert_eq!(
        payload_copies() - copies,
        2 * CYCLES,
        "every write went down as a pool handle"
    );
    drop(fs);
    rt.shutdown();
}
