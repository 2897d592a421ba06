//! A dry pool costs a request its zero-copy path, never its bytes.
//!
//! * `GenericFs::write` takes its pool buffer only from the size class
//!   that fits the write (`Client::alloc_buf`). With the 4 KiB class
//!   drained, a 4 KiB write must still succeed — as the copying `Write` —
//!   with the right bytes, and must leave no slot of a larger class
//!   behind in the cache: a block cache keeps a write's buffer for as
//!   long as the block stays resident.
//! * A read has one verb, `ReadBuf`. A cache miss with every class
//!   drained reaches the driver, which answers with an owned `Vec`
//!   instead of a pool buffer; the cache and LabFS pass that on, and the
//!   read must return the right bytes. Once the pool is refilled, a miss
//!   lands in a pool slot again.
//!
//! This file holds a single test: it drains the default pool, and the
//! integration tests of one file share one process and pool.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::{BlockDevice, DeviceKind};

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
/// Blocks the 1 MiB cache holds.
const CACHE_PAGES: usize = 256;

/// The bytes of page `page` of the file: different in every page.
fn page_bytes(page: usize) -> Vec<u8> {
    (0..PAGE).map(|i| (i % 239) as u8 ^ page as u8).collect()
}

#[test]
fn a_write_with_its_class_drained_falls_back_and_spills_nowhere() {
    let devices = DeviceRegistry::new();
    let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/dry/data.bin", true, false).unwrap();
    for page in 0..2 {
        assert_eq!(fs.write(fd, &page_bytes(page)), Ok(PAGE));
    }
    // A file as large as the cache pushes both pages out; unlinking it
    // leaves the cache room, so the writes below evict nothing.
    let filler = fs.open("fs::/dry/filler.bin", true, false).unwrap();
    for page in 0..CACHE_PAGES {
        assert_eq!(fs.write(filler, &page_bytes(page)), Ok(PAGE));
    }
    fs.close(filler).unwrap();
    fs.unlink("fs::/dry/filler.bin").unwrap();
    // Read page `page` back; it must miss the cache.
    let read_evicted = |fs: &mut GenericFs, page: usize| {
        let reads = dev.stats().snapshot().reads;
        fs.seek(fd, (page * PAGE) as u64).unwrap();
        assert_eq!(fs.read(fd, PAGE).unwrap(), page_bytes(page), "page {page}");
        assert_eq!(
            dev.stats().snapshot().reads,
            reads + 1,
            "page {page} missed"
        );
    };

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

    let page: Vec<u8> = (0..PAGE).map(|i| (i % 241) as u8).collect();
    let live = pool.live();
    let at = 2 * PAGE as u64;
    fs.seek(fd, at).unwrap();
    assert_eq!(fs.write(fd, &page), Ok(PAGE));
    assert_eq!(pool.live(), live, "the cached block holds no pool slot");
    fs.seek(fd, at).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), page);

    // Drain every class: the driver has no slot to land a miss in.
    held.extend(std::iter::from_fn(|| pool.alloc(1)));
    assert!(pool.alloc(PAGE).is_none(), "the pool is dry");
    read_evicted(&mut fs, 0);

    // With the pool refilled, the next write rides a 4 KiB slot, which
    // the cache keeps, and a miss lands in a slot again.
    drop(held);
    let live = pool.live();
    fs.seek(fd, at + PAGE as u64).unwrap();
    assert_eq!(fs.write(fd, &page), Ok(PAGE));
    assert_eq!(pool.live(), live + 1, "the cache kept the write's slot");
    fs.seek(fd, at + PAGE as u64).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), page);
    let live = pool.live();
    read_evicted(&mut fs, 1);
    assert_eq!(pool.live(), live + 1, "the cache kept the miss's slot");
    rt.shutdown();
}
