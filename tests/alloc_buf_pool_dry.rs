//! A dry pool costs a write its zero-copy path, never its bytes, and
//! refuses a read, which answers in pool handles only.
//!
//! * `GenericFs::write` takes its pool buffer only from the size class
//!   that fits the write (`Client::alloc_buf`). With the 4 KiB class
//!   drained, a 4 KiB write must still succeed — as the copying `Write` —
//!   with the right bytes, and must leave no slot of a larger class
//!   behind in the cache: a block cache keeps a write's buffer for as
//!   long as the block stays resident.
//! * A read has one verb, `ReadBuf`. A cache miss with every class
//!   drained reaches the driver, which has no slot to land it in: it
//!   refuses the read with `POOL_DRY` before the device reads a block,
//!   and the cache and LabFS pass the refusal up. Once the pool is
//!   refilled, the same read returns the right bytes, and a miss lands in
//!   a pool slot again.
//! * A block cache copies an owned write's bytes into 4 KiB slots only.
//!   With that class drained, a write-back cache keeps none of the
//!   write's blocks, no slot of a larger class either, and writes a dirty
//!   block the write covers only in part back before it forwards the
//!   write: no dirty byte is lost.
//!
//! This file holds a single test: it drains the default pool, and the
//! integration tests of one file share one process and pool.

use labstor::core::{BlockOp, Payload, Runtime, RuntimeConfig, POOL_DRY};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::generic::GenericFsError;
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

/// A write-back LRU straight on a driver, for block commands by hand.
const WRITE_BACK: &str = r#"{
    "mount": "blk::/dry_wb",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "wb_lru", "type": "lru_cache", "params": {"capacity_bytes": 1048576, "write_back": true}, "outputs": ["wb_drv"] },
        { "uuid": "wb_drv", "type": "kernel_driver", "params": {"device": "nvme1"} }
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

    // Drain every class: the driver has no slot to land a miss in, and
    // refuses the read before the device reads a block.
    held.extend(std::iter::from_fn(|| pool.alloc(1)));
    assert!(pool.alloc(PAGE).is_none(), "the pool is dry");
    let reads = dev.stats().snapshot().reads;
    fs.seek(fd, 0).unwrap();
    let refused = Err(GenericFsError::Fs(POOL_DRY.into()));
    assert_eq!(fs.read(fd, PAGE), refused);
    assert_eq!(dev.stats().snapshot().reads, reads, "a refused read");

    // With the pool refilled, the same read returns its bytes, the next
    // write rides a 4 KiB slot, which the cache keeps, and a miss lands
    // in a slot again.
    drop(held);
    read_evicted(&mut fs, 0);
    let live = pool.live();
    fs.seek(fd, at + PAGE as u64).unwrap();
    assert_eq!(fs.write(fd, &page), Ok(PAGE));
    assert_eq!(pool.live(), live + 1, "the cache kept the write's slot");
    fs.seek(fd, at + PAGE as u64).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), page);
    let live = pool.live();
    read_evicted(&mut fs, 1);
    assert_eq!(pool.live(), live + 1, "the cache kept the miss's slot");

    // Block 1 dirty in a write-back cache, then the 4 KiB class drained
    // and an owned write of block 0 and the first sector of block 1.
    let nvme1 = devices.add_preset("nvme1", DeviceKind::Nvme);
    let wb = rt.mount_stack_json(WRITE_BACK).unwrap();
    let client = fs.client_mut();
    let write = |lba, data| Payload::Block(BlockOp::Write { lba, data });
    let old = page_bytes(7);
    let r = client.execute(&wb, write(PAGE as u64 / 512, old.clone()));
    assert!(r.unwrap().0.is_ok());
    assert_eq!(nvme1.stats().snapshot().writes, 0, "block 1 is dirty");
    let mut held = Vec::new();
    loop {
        let h = pool.alloc(PAGE).expect("a larger class has room");
        if h.region() != 0 {
            break;
        }
        held.push(h);
    }
    let new: Vec<u8> = (0..PAGE + 512).map(|i| (i % 233) as u8).collect();
    let live = pool.live();
    assert!(client
        .execute(&wb, write(0, new.clone()))
        .unwrap()
        .0
        .is_ok());
    assert_eq!(
        pool.live(),
        live - 1,
        "block 1's slot went back and no slot of any class was kept"
    );
    assert_eq!(
        nvme1.stats().snapshot().writes,
        2,
        "the dirty block, then the write"
    );
    drop(held);
    let reads = nvme1.stats().snapshot().reads;
    let read = Payload::Block(BlockOp::ReadBuf {
        lba: 0,
        len: 2 * PAGE,
    });
    let resp = client.execute(&wb, read).unwrap().0;
    let got = resp.data_parts().map(|p| p.collect::<Vec<_>>().concat());
    let want = [&new[..], &old[512..]].concat();
    assert!(got == Some(want), "the write and block 1's dirty tail");
    assert_eq!(nvme1.stats().snapshot().reads, reads + 1, "a miss");
    rt.shutdown();
}
