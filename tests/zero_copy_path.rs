//! End-to-end zero-copy proof: a LabFS `WriteBuf` → `ReadBuf` round trip
//! through the full platform (client → IPC → worker → perms → LabFS →
//! LRU cache) is byte-identical AND performs zero intermediate payload
//! copies on the read-hit path, asserted via the global copy-counter
//! hook (`labstor::ipc::payload_copies`). A `GenericFs::write` of
//! caller-owned bytes pays exactly one counted copy, and the page reads
//! back the same way. A hand-built legacy `FsOp::Write` counts exactly
//! the bytes LabFS patches and assembles and the base page a patch
//! copies out, and none when its `Vec` moves. Last, `rw4k`'s preload
//! through a 16 MiB LRU, where most 64 KiB writes find the pool class dry
//! and go as owned `Write`s: every later hit on a page of it copies
//! nothing and costs the same virtual time.
//!
//! This file intentionally holds a single test: the counter is
//! process-global, and rust integration-test files are separate
//! processes, so the delta assertion cannot race with unrelated suites.

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::{BlockDevice, DeviceKind};
use std::sync::Arc;

const SPEC: &str = r#"{
    "mount": "fs::/zc",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "zc_perm", "type": "permissions", "outputs": ["zc_fs"] },
        { "uuid": "zc_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 2}, "outputs": ["zc_lru"] },
        { "uuid": "zc_lru", "type": "lru_cache", "params": {"capacity_bytes": 4194304}, "outputs": ["zc_drv"] },
        { "uuid": "zc_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

/// LabFS straight on a driver: nothing below it copies.
const BARE: &str = r#"{
    "mount": "fs::/zc_bare",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "zb_fs", "type": "labfs", "params": {"device": "nvme1", "workers": 1}, "outputs": ["zb_drv"] },
        { "uuid": "zb_drv", "type": "kernel_driver", "params": {"device": "nvme1"} }
    ]
}"#;

/// Lab-D as `rw4k_d_qd1` mounts it: a 16 MiB write-through LRU, run
/// inline in the client.
const LAB_D: &str = r#"{
    "mount": "fs::/zc_d",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "zd_fs", "type": "labfs", "params": {"device": "nvme2", "workers": 1}, "outputs": ["zd_lru"] },
        { "uuid": "zd_lru", "type": "lru_cache", "params": {"capacity_bytes": 16777216}, "outputs": ["zd_sched"] },
        { "uuid": "zd_sched", "type": "noop_sched", "outputs": ["zd_drv"] },
        { "uuid": "zd_drv", "type": "kernel_driver", "params": {"device": "nvme2"} }
    ]
}"#;

const PAGE: usize = 4096;

#[test]
fn labfs_readbuf_round_trip_is_byte_identical_and_copy_free() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt: Arc<Runtime> = Runtime::start(RuntimeConfig {
        max_workers: 2,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    // Fill a full page in place inside a pool buffer — the client-side
    // half of the zero-copy contract — and write it through the stack.
    let fd = fs.open("fs::/zc/hot.bin", true, false).unwrap();
    let mut buf = labstor::ipc::default_pool()
        .alloc(PAGE)
        .expect("pool has a 4 KiB slot");
    assert!(buf.write_with(|b| {
        for (i, x) in b.iter_mut().enumerate() {
            *x = (i % 251) as u8;
        }
    }));
    let expect: Vec<u8> = (0..PAGE).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.write_buf(fd, buf).unwrap(), PAGE);
    fs.fsync(fd).unwrap();

    // The write-through cache now holds the block as a pool handle. A
    // page-aligned single-page read must come back as refcount bumps end
    // to end: LRU hit → DataBuf slice → LabFS slice → client handle.
    fs.seek(fd, 0).unwrap();
    let before = labstor::ipc::payload_copies();
    let h = fs.read_buf(fd, PAGE).unwrap();
    let after = labstor::ipc::payload_copies();
    assert_eq!(h.len(), PAGE);
    assert_eq!(h.as_slice(), &expect[..], "round trip is byte-identical");
    assert_eq!(
        after - before,
        0,
        "read-hit path must not copy payload bytes"
    );

    // Re-reading through a second handle shares the same cached page.
    fs.seek(fd, 0).unwrap();
    let before = labstor::ipc::payload_copies();
    let h2 = fs.read_buf(fd, PAGE).unwrap();
    assert_eq!(labstor::ipc::payload_copies() - before, 0);
    assert_eq!(h2.as_slice(), h.as_slice());

    // The legacy copying API still agrees on content (and is *allowed*
    // to copy — no delta assertion here).
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, PAGE).unwrap(), expect);

    // `write(2)` from caller-owned bytes copies them once, into a pool
    // buffer, and the cache keeps that buffer: reading the page back is
    // a hit answered by refcount bumps, not by a pooled copy of owned
    // bytes (which `read_buf` would count).
    let page: Vec<u8> = (0..PAGE).map(|i| (i % 241) as u8).collect();
    fs.seek(fd, PAGE as u64).unwrap();
    let before = labstor::ipc::payload_copies();
    assert_eq!(fs.write(fd, &page).unwrap(), PAGE);
    assert_eq!(
        labstor::ipc::payload_copies() - before,
        1,
        "write(2) copies into shared memory once"
    );
    fs.seek(fd, PAGE as u64).unwrap();
    let before = labstor::ipc::payload_copies();
    let h3 = fs.read_buf(fd, PAGE).unwrap();
    assert_eq!(
        labstor::ipc::payload_copies() - before,
        0,
        "the cache kept write(2)'s pool buffer"
    );
    assert_eq!(h3.as_slice(), &page[..]);

    fs.close(fd).unwrap();

    // The legacy `FsOp::Write` on a stack with no cache, so LabFS's own
    // copies are all the counter sees. Whole pages on one device run move
    // the caller's `Vec` and copy nothing; an unaligned write patches the
    // mapped page it starts in and assembles its fresh pages into one
    // run, each byte copied and counted once. The patch reads its base
    // page with `ReadBuf`, the one read verb, and copies the driver's
    // pool buffer out once, counted: one more copy, of a page.
    devices.add_preset("nvme1", DeviceKind::Nvme);
    let bare = rt.mount_stack_json(BARE).unwrap();
    let fd = fs.open("fs::/zc_bare/legacy.bin", true, false).unwrap();
    let ino = fs.stat("fs::/zc_bare/legacy.bin").unwrap().ino;
    let mut model: Vec<u8> = Vec::new();
    for (offset, len, copies) in [(0, 2 * PAGE, 0), (2 * PAGE - 100, 100 + PAGE + 50, 3)] {
        let data: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        model.resize(model.len().max(offset + len), 0);
        model[offset..offset + len].copy_from_slice(&data);
        let op = FsOp::Write {
            ino,
            offset: offset as u64,
            data,
        };
        let copies_before = labstor::ipc::payload_copies();
        let bytes_before = labstor::ipc::payload_copy_bytes();
        let resp = fs.client_mut().execute(&bare, Payload::Fs(op)).unwrap().0;
        assert!(matches!(resp, RespPayload::Len(n) if n == len), "{resp:?}");
        assert_eq!(
            labstor::ipc::payload_copies() - copies_before,
            copies,
            "at {offset}"
        );
        let copied = if copies == 0 { 0 } else { (len + PAGE) as u64 };
        assert_eq!(
            labstor::ipc::payload_copy_bytes() - bytes_before,
            copied,
            "at {offset}"
        );
    }
    assert_eq!(fs.read(fd, model.len()).unwrap(), model);
    fs.close(fd).unwrap();

    // `rw4k`'s preload: 1 024 × 64 KiB `write(2)`s through the 16 MiB
    // LRU. The cache pins the 64 KiB class's slots, so most writes find
    // it dry and go as owned `Write`s, whose bytes the cache copies into
    // a 4 KiB slot per block (one counted copy more per write). The last
    // 16 MiB stay resident, and a hit on any of its pages is a view.
    const CHUNK: usize = 16 * PAGE;
    const CHUNKS: usize = 1024;
    const CACHED_PAGES: usize = 4096;
    let page_of = |page: usize| -> Vec<u8> {
        (0..PAGE)
            .map(|i| (i % 251) as u8 ^ (page / 16) as u8)
            .collect()
    };
    devices.add_preset("nvme2", DeviceKind::Nvme);
    rt.mount_stack_json(LAB_D).unwrap();
    let fd = fs.open("fs::/zc_d/preload.bin", true, false).unwrap();
    let copies = labstor::ipc::payload_copies();
    for c in 0..CHUNKS {
        let chunk: Vec<u8> = (0..16).flat_map(|k| page_of(16 * c + k)).collect();
        assert_eq!(fs.write(fd, &chunk), Ok(CHUNK));
    }
    let owned = labstor::ipc::payload_copies() - copies - CHUNKS as u64;
    assert!(owned > 0, "no preload write went as an owned Write");
    let nvme2 = devices.block("nvme2").unwrap();
    let reads = nvme2.stats().snapshot().reads;
    let mut costs = std::collections::BTreeSet::new();
    for page in CHUNKS * 16 - CACHED_PAGES..CHUNKS * 16 {
        fs.seek(fd, (page * PAGE) as u64).unwrap();
        let (copies, at) = (labstor::ipc::payload_copies(), fs.client().ctx.now());
        let h = fs.read_buf(fd, PAGE).unwrap();
        costs.insert(fs.client().ctx.now() - at);
        assert_eq!(
            labstor::ipc::payload_copies() - copies,
            0,
            "page {page}: a hit copies nothing"
        );
        assert!(h.as_slice() == page_of(page), "page {page}");
    }
    assert_eq!(nvme2.stats().snapshot().reads, reads, "every read hit");
    assert_eq!(costs.len(), 1, "every hit costs the same: {costs:?}");
    fs.close(fd).unwrap();
    rt.shutdown();
}
