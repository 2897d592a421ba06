//! A block cache keeps a pool slot for each block a `ReadBuf` miss brought
//! in, and a warm 16 MiB cache holds more of them than the default pool's
//! whole transport ladder (720 slots). The cache reserves its pages in the
//! pool, so clients and drivers still find slots once it is warm: an
//! `alloc_buf` succeeds and a zero-copy read of an uncached page is
//! answered. When the cache goes, so does its reservation.
//!
//! This file holds a single test: it reads the default pool's budget and
//! depends on which slots are live, and the integration tests of one file
//! share one process and pool.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

/// Lab-D: labfs → lru_cache (16 MiB) → noop_sched → kernel_driver, run
/// inline in the client.
const SPEC: &str = r#"{
    "mount": "fs::/res",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "res_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["res_lru"] },
        { "uuid": "res_lru", "type": "lru_cache", "params": {"capacity_bytes": 16777216}, "outputs": ["res_sched"] },
        { "uuid": "res_sched", "type": "noop_sched", "outputs": ["res_drv"] },
        { "uuid": "res_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const PAGE: usize = 4096;
const FILE_PAGES: usize = (32 << 20) / PAGE;
const READS: usize = 2048;

fn page_bytes(page: usize) -> Vec<u8> {
    (0..PAGE).map(|i| (page * 7 + i / 64) as u8).collect()
}

#[test]
fn a_warm_cache_leaves_the_transport_slots_free() {
    let base = default_pool().class_table()[0];
    assert_eq!(base, (PAGE, 512));
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/res/data.bin", true, false).unwrap();
    for chunk in (0..FILE_PAGES).collect::<Vec<_>>().chunks(16) {
        let bytes: Vec<u8> = chunk.iter().flat_map(|&p| page_bytes(p)).collect();
        assert_eq!(fs.write(fd, &bytes).unwrap(), bytes.len());
    }
    assert_eq!(
        default_pool().class_table()[0],
        (PAGE, 512 + (16 << 20) / PAGE),
        "the cache reserved a slot per block"
    );

    // The write pushed the first half of the file out of the cache: each
    // of these reads misses and leaves its device-filled slot resident.
    for page in 0..READS {
        fs.seek(fd, (page * PAGE) as u64).unwrap();
        assert_eq!(fs.read(fd, PAGE).unwrap(), page_bytes(page), "page {page}");
    }
    assert!(
        default_pool().live() >= READS as u64,
        "the misses are cached as pool slots: {} live",
        default_pool().live()
    );

    let buf = fs.client().alloc_buf(PAGE);
    assert!(buf.is_some(), "alloc_buf after {READS} cached misses");
    drop(buf);
    let uncached = READS + 100;
    fs.seek(fd, (uncached * PAGE) as u64).unwrap();
    let got = fs
        .read_buf(fd, PAGE)
        .map(|h| h.as_slice() == page_bytes(uncached));
    assert_eq!(got, Ok(true), "read_buf of an uncached page");

    drop(fs);
    rt.shutdown();
    drop(rt);
    assert_eq!(
        default_pool().class_table()[0],
        base,
        "the budget falls back when the cache goes"
    );
}
