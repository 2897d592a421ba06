//! Heap allocations per operation on the steady-state data path through a
//! sync Lab-D stack (labfs → lru_cache 16 MiB → noop_sched →
//! kernel_driver). A sync stack runs the whole request on the calling
//! thread, so a global allocator that counts that thread's calls counts
//! everything the operation allocates.
//!
//! Per operation, before LabFS's page map became a run map
//! (`labfs/meta.rs`: a lookup answers a few runs inline instead of a
//! `Vec` with one entry per page) and now:
//!
//! | operation                   | before | now |
//! |-----------------------------|-------:|----:|
//! | 4 KiB `ReadBuf` miss        |      1 |   0 |
//! | 4 KiB `ReadBuf` hit         |      1 |   0 |
//! | 4 KiB legacy `Write`        |      2 |   0 |
//! | 4 KiB `GenericFs::write`    |      1 |   0 |
//! | empty `GenericFs::write`    |      0 |   0 |
//! | 64 KiB `WriteBuf` overwrite |      — |   0 |
//! | 64 KiB `ReadBuf` hit        |      — |   0 |
//!
//! The legacy `Write`'s `Vec` is the caller's, made before the count
//! starts. The run map took one of its allocations; the other was the
//! cache's `Arc<[u8]>` of the page, gone since the cache copies an owned
//! write's bytes into a pool slot per block instead. `GenericFs::write`
//! sends `WriteBuf`, so no payload `Vec` is made, and an empty one sends
//! nothing, takes no pool slot and copies nothing.
//!
//! Varmail's flow on the same stack — create a file, append two 8 KiB
//! halves, fsync, read the 16 KiB back (a hit on blocks in the two pool
//! slots the appends took), unlink. "Before" is before LabFS reused the
//! blocks it frees and the journal kept its frame buffer:
//!
//! | operation                | before | after | what allocates                                                        |
//! |--------------------------|-------:|------:|-----------------------------------------------------------------------|
//! | create (`open`)          |      5 |     4 | the resolved path, LabFS's path, its name-shard lock list, the name map's key |
//! | 8 KiB append             |     3* |     2 | `map_pages`' records, the new file's first run                        |
//! | fsync                    |      2 |     0 |                                                                       |
//! | 16 KiB `GenericFs::read` |      3 |     3 | the cache's per-block lookup slots, the `DataRuns` list, `GenericFs::read`'s copy-out |
//!
//! The journal's frame buffer used to be replaced by a fresh one at each
//! fsync, then padded to whole sectors by a reallocation, and grown again
//! by the next create and append: one allocation each of the create, the
//! append and the fsync, and the fsync's second. It is now one buffer per
//! log, emptied after each write and grown by doubling from one sector,
//! so its padding fits. \* every eighth append took one more, at the same
//! place in every run: `SimDevice::store` created a 128 KiB backing chunk,
//! because each file took 16 KiB of blocks never used before. Now each
//! file takes the blocks an unlink two files back freed, so the device
//! stops growing. The pending-free and free-list bookkeeping keeps its
//! capacity and allocates nothing per op. The same counts hold in debug
//! and release builds.
//!
//! `kvs_mix_min_qd1`'s shapes on its own stack (labkvs → noop_sched →
//! kernel_driver, sync, on a device of its own), warm. "Before" is before
//! LabKVS reused the extents it frees:
//!
//! | operation              | before | after | what allocates                                  |
//! |------------------------|-------:|------:|-------------------------------------------------|
//! | replacing 1 KiB `Put`  |    2\* |     2 | the record's key, the key map's key             |
//! | 1 KiB `Get`            |      0 |     0 |                                                 |
//!
//! \* every 128th put took one more: `SimDevice::store` created a
//! 128 KiB backing chunk, because each put took 1 KiB of sectors never
//! used before. Now a put takes an extent an earlier put freed, once that
//! free is durable, and the device stops growing. The key and the value
//! are the caller's, made before the count starts; the value goes down
//! as the write. The extent's `Discard` allocates nothing, and neither
//! do the pending frees and the free list, whose slots are reused.
//!
//! This file holds a single test: it reads which slots the default pool
//! has free, and the integration tests of one file share one process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use labstor::core::{Client, FsOp, KvsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::{BlockDevice, DeviceKind};

thread_local! {
    /// Allocator calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_call() {
    // A thread being torn down has no counter left; its calls are not
    // the measured thread's.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// per thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System::alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's contract is `System::realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's contract is `System::dealloc`'s.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const SPEC: &str = r#"{
    "mount": "fs::/ap",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "ap_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["ap_lru"] },
        { "uuid": "ap_lru", "type": "lru_cache", "params": {"capacity_bytes": 16777216}, "outputs": ["ap_sched"] },
        { "uuid": "ap_sched", "type": "noop_sched", "outputs": ["ap_drv"] },
        { "uuid": "ap_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

/// `kvs_mix_min_qd1`'s stack, run inline in the client, on a device of
/// its own.
const KV_SPEC: &str = r#"{
    "mount": "kv::/ap",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "ap_kv", "type": "labkvs", "params": {"device": "nvme1", "workers": 1}, "outputs": ["ap_ksched"] },
        { "uuid": "ap_ksched", "type": "noop_sched", "outputs": ["ap_kdrv"] },
        { "uuid": "ap_kdrv", "type": "kernel_driver", "params": {"device": "nvme1"} }
    ]
}"#;

const PAGE: usize = 4096;
/// Half of a varmail file: one append.
const HALF: usize = 8192;
/// A 32 MiB file: twice the cache.
const FILE_PAGES: u64 = 8192;
/// One sequential write or read of the 64 KiB shapes.
const CHUNK: usize = 16 * PAGE;
/// Cache capacity in pages.
const CACHE_PAGES: u64 = 4096;
/// Operations measured per shape.
const OPS: usize = 64;
/// `kvs_mix_min_qd1`'s key count and value size.
const KEYS: usize = 4096;
const VALUE: usize = 1024;
/// Replacing puts measured: 256 KiB of values.
const KV_PUTS: usize = 256;

/// Allocator calls `op` makes on this thread.
fn calls(op: impl FnOnce()) -> u64 {
    let before = CALLS.get();
    op();
    CALLS.get() - before
}

#[test]
fn steady_state_allocations_per_op_are_the_recorded_ones() {
    // Debug builds' lock witness captures a backtrace per acquisition when
    // backtraces are on; what is counted here is the data path's own.
    std::env::set_var("RUST_LIB_BACKTRACE", "0");
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    devices.add_preset("nvme1", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let stack = rt.mount_stack_json(SPEC).unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let open = Payload::Fs(FsOp::Open {
        path: "/data.bin".into(),
        create: true,
        truncate: false,
    });
    let RespPayload::Ino(ino) = client.execute(&stack, open).unwrap().0 else {
        panic!("open failed");
    };
    let run = |client: &mut Client, payload: Payload| {
        let resp = client.execute(&stack, payload).unwrap().0;
        assert!(resp.is_ok(), "{resp:?}");
    };
    let write = |page: u64, data: Vec<u8>| {
        let offset = page * PAGE as u64;
        Payload::Fs(FsOp::Write { ino, offset, data })
    };
    let read_buf = |page: u64| {
        let offset = page * PAGE as u64;
        Payload::Fs(FsOp::ReadBuf {
            ino,
            offset,
            len: PAGE,
        })
    };
    for page in (0..FILE_PAGES).step_by(16) {
        run(&mut client, write(page, vec![0x5a; 16 * PAGE]));
    }

    // Warm-up: misses on the first pages push the written (owned) blocks
    // out until the cache holds only blocks a miss brought in; each
    // measured miss evicts one of those. Past the pool's 720 transport
    // slots, so that a cache that keeps them all (a miss that finds the
    // pool dry evicts a block that had found it dry too) is measured in
    // that state.
    let warm = CACHE_PAGES + 1024;
    (0..warm).for_each(|page| run(&mut client, read_buf(page)));
    // Pages past `warm` were evicted: misses; then, just read, hits.
    let pages = warm..warm + OPS as u64;
    let miss: Vec<u64> = pages
        .clone()
        .map(|p| calls(|| run(&mut client, read_buf(p))))
        .collect();
    let hit: Vec<u64> = pages
        .clone()
        .map(|p| calls(|| run(&mut client, read_buf(p))))
        .collect();
    let legacy: Vec<u64> = pages
        .map(|p| {
            let op = write(p, vec![0xa5; PAGE]);
            calls(|| run(&mut client, op))
        })
        .collect();

    // 64 KiB overwrites from a pool buffer, then hits on what they wrote.
    let chunks = (0..OPS as u64).map(|c| c * CHUNK as u64);
    let write64k: Vec<u64> = chunks
        .clone()
        .map(|offset| {
            let mut buf = client.alloc_buf(CHUNK).expect("a free 64 KiB slot");
            buf.write_with(|b| b.fill(0x96));
            let op = Payload::Fs(FsOp::WriteBuf { ino, offset, buf });
            calls(|| run(&mut client, op))
        })
        .collect();
    let nvme = devices.block("nvme0").unwrap();
    let device_reads = nvme.stats().snapshot().reads;
    let read64k: Vec<u64> = chunks
        .map(|offset| {
            let op = Payload::Fs(FsOp::ReadBuf {
                ino,
                offset,
                len: CHUNK,
            });
            calls(|| run(&mut client, op))
        })
        .collect();
    let hits64k = nvme.stats().snapshot().reads == device_reads;

    // The same overwrites through GenericFS, from caller-owned bytes.
    let mut fs = GenericFs::new(client);
    let fd = fs.open("fs::/ap/data.bin", false, false).unwrap();
    let page = [0x3c; PAGE];
    let generic: Vec<u64> = (warm..warm + OPS as u64)
        .map(|p| {
            fs.seek(fd, p * PAGE as u64).unwrap();
            calls(|| assert_eq!(fs.write(fd, &page), Ok(PAGE)))
        })
        .collect();

    let pool = labstor::ipc::default_pool();
    let (live, copies) = (pool.live(), labstor::ipc::payload_copies());
    let empty = calls(|| assert_eq!(fs.write(fd, b""), Ok(0)));
    let after = (pool.live(), labstor::ipc::payload_copies());

    // Varmail's flow: create a file, append two 8 KiB halves, fsync, read
    // the whole file back (a hit on the two slots the appends took), then
    // unlink it. The first cycles warm the maps and the journal.
    let half = [0x6d; HALF];
    let mut varmail = |cycle: usize| {
        let path = format!("fs::/ap/mail{cycle}");
        let mut mail = 0;
        let create = calls(|| mail = fs.open(&path, true, false).unwrap());
        let append = calls(|| assert_eq!(fs.write(mail, &half), Ok(HALF)));
        assert_eq!(fs.write(mail, &half), Ok(HALF));
        let fsync = calls(|| fs.fsync(mail).unwrap());
        fs.seek(mail, 0).unwrap();
        let read = calls(|| assert_eq!(fs.read(mail, 2 * HALF).unwrap().len(), 2 * HALF));
        fs.close(mail).unwrap();
        fs.unlink(&path).unwrap();
        [create, append, fsync, read]
    };
    (0..3 * OPS).for_each(|cycle| {
        varmail(cycle);
    });
    let flows: Vec<[u64; 4]> = (0..OPS).map(&mut varmail).collect();
    let shape = |k: usize| flows.iter().map(|f| f[k]).collect::<Vec<u64>>();

    assert_eq!(miss, [0; OPS], "ReadBuf miss");
    assert_eq!(hit, [0; OPS], "ReadBuf hit");
    assert_eq!(legacy, [0; OPS], "legacy Write");
    assert_eq!(generic, [0; OPS], "GenericFs::write");
    assert_eq!(
        (empty, after),
        (0, (live, copies)),
        "empty GenericFs::write"
    );
    assert_eq!(write64k, [0; OPS], "64 KiB WriteBuf overwrite");
    assert!(hits64k, "the 64 KiB reads read the device");
    assert_eq!(read64k, [0; OPS], "64 KiB ReadBuf hit");
    assert_eq!(shape(0), [4; OPS], "varmail create");
    assert_eq!(shape(1), [2; OPS], "varmail 8 KiB append");
    assert_eq!(shape(2), [0; OPS], "varmail fsync");
    assert_eq!(shape(3), [3; OPS], "varmail 16 KiB read over two slots");

    // kvs_mix's shapes: replacing 1 KiB puts over 4096 keys in a
    // scattered order, and 1 KiB gets. Eight puts per key warm the key
    // map, the journal and the free list: every durability point since
    // the first has handed back the extents the puts before it freed.
    // 256 puts would take two 128 KiB device chunks if they landed on
    // sectors never used before.
    let kv_stack = rt.mount_stack_json(KV_SPEC).unwrap();
    let mut kv = rt.connect(Credentials::new(1, 0, 0), 1);
    let mut run_kv = |payload: Payload| {
        let resp = kv.execute(&kv_stack, payload).unwrap().0;
        assert!(resp.is_ok(), "{resp:?}");
    };
    let key = |i: usize| format!("k{:04}", i * 1237 % KEYS);
    let put = |i: usize| {
        let (key, value) = (key(i), vec![i as u8; VALUE]);
        Payload::Kvs(KvsOp::Put { key, value })
    };
    (0..9 * KEYS).for_each(|i| run_kv(put(i)));
    let kv_put: Vec<u64> = (9 * KEYS..9 * KEYS + KV_PUTS)
        .map(|i| {
            let op = put(i);
            calls(|| run_kv(op))
        })
        .collect();
    let kv_get: Vec<u64> = (0..OPS)
        .map(|i| {
            let op = Payload::Kvs(KvsOp::Get { key: key(i) });
            calls(|| run_kv(op))
        })
        .collect();
    assert_eq!(kv_put, [2; KV_PUTS], "kvs_mix replacing 1 KiB put");
    assert_eq!(kv_get, [0; OPS], "kvs_mix 1 KiB get");
    rt.shutdown();
}
