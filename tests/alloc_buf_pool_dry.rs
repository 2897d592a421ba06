//! `GenericFs::write` takes its pool buffer only from the size class that
//! fits the write (`Client::alloc_buf`). With the 4 KiB class drained, a
//! 4 KiB write must still succeed — as the legacy copying `Write` — with
//! the right bytes, and must leave no slot of a larger class behind in
//! the cache: a block cache keeps a write's buffer for as long as the
//! block stays resident.
//!
//! This file holds a single test: it drains a class of the default pool,
//! and the integration tests of one file share one process and pool.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

/// Lab-D: labfs → lru_cache (1 MiB) → noop_sched → kernel_driver, run
/// inline in the client.
const SPEC: &str = r#"{
    "mount": "fs::/dry",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "dry_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["dry_lru"] },
        { "uuid": "dry_lru", "type": "lru_cache", "params": {"capacity_bytes": 1048576}, "outputs": ["dry_sched"] },
        { "uuid": "dry_sched", "type": "noop_sched", "outputs": ["dry_drv"] },
        { "uuid": "dry_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const PAGE: usize = 4096;

#[test]
fn a_write_with_its_class_drained_falls_back_and_spills_nowhere() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/dry/data.bin", true, false).unwrap();

    // Drain the 4 KiB class: `alloc` falls over to 16 KiB once it is dry.
    let pool = default_pool();
    let mut held = Vec::new();
    loop {
        let h = pool.alloc(PAGE).expect("a larger class has room");
        if h.region() != 0 {
            break;
        }
        held.push(h);
    }
    assert!(
        fs.client().alloc_buf(PAGE).is_none(),
        "no spill into 16 KiB"
    );

    let page: Vec<u8> = (0..PAGE).map(|i| (i % 239) as u8).collect();
    let live = pool.live();
    assert_eq!(fs.write(fd, &page), Ok(PAGE));
    assert_eq!(pool.live(), live, "the cached block holds no pool slot");
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), page);

    // With the class refilled, the next write rides a 4 KiB slot, which
    // the cache keeps.
    drop(held);
    let live = pool.live();
    fs.seek(fd, PAGE as u64).unwrap();
    assert_eq!(fs.write(fd, &page), Ok(PAGE));
    assert_eq!(pool.live(), live + 1, "the cache kept the write's slot");
    fs.seek(fd, PAGE as u64).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), page);
    rt.shutdown();
}
