//! Heap allocations per operation on the steady-state data path: a warmed
//! 4 KiB `ReadBuf` miss, a `ReadBuf` hit, a legacy `Write` and a
//! `GenericFs::write` (one: it sends `WriteBuf`, so neither a payload
//! `Vec` nor the cache's `Arc<[u8]>` copy is made), and an empty
//! `GenericFs::write` (none: it sends nothing, takes no pool slot and
//! copies nothing) through a sync Lab-D
//! stack (labfs → lru_cache 16 MiB → noop_sched → kernel_driver). A sync stack runs the whole request on the calling
//! thread, so a global allocator that counts that thread's calls counts
//! everything the operation allocates.
//!
//! Per operation, before → after the block cache reserved its pages in
//! the buffer pool and device completions stopped arriving in a fresh
//! `Vec`:
//!
//! | operation      | before | after |
//! |----------------|-------:|------:|
//! | `ReadBuf` miss |      4 |     1 |
//! | `ReadBuf` hit  |      2 |     1 |
//! | legacy `Write` |      3 |     2 |
//!
//! Before, a warm cache held every transport slot, so a miss fell back to
//! the driver's owned `Vec` and the cache's `Arc<[u8]>` copy of it, and a
//! hit on such a block gathered into a new `Vec`; every device command's
//! completion came back in a `Vec` of its own.
//!
//! Varmail's flow on the same stack — create a file, append two 8 KiB
//! halves, fsync, read the 16 KiB back, unlink — per operation, before
//! and after a `ReadBuf` hit on blocks in two pool slots (each append
//! took its own) began to answer with the slots' views, a `DataRuns` run
//! list, instead of a copy the cache gathered:
//!
//! | operation                | before | after |
//! |--------------------------|-------:|------:|
//! | create (`open`)          |      5 |     5 |
//! | 8 KiB append             |     5* |    5* |
//! | fsync                    |      2 |     2 |
//! | 16 KiB `GenericFs::read` |      3 |     4 |
//!
//! \* every eighth append takes 6, at the same place in every run. The
//! read gains one: the run list is a `Vec` of its own, while the cache's
//! gathered `Vec` became `GenericFs::read`'s copy-out. The same counts
//! hold in debug and release builds.
//!
//! This file holds a single test: it reads which slots the default pool
//! has free, and the integration tests of one file share one process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

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

const PAGE: usize = 4096;
/// Half of a varmail file: one append.
const HALF: usize = 8192;
/// A 32 MiB file: twice the cache.
const FILE_PAGES: u64 = 8192;
/// Cache capacity in pages.
const CACHE_PAGES: u64 = 4096;
/// Operations measured per shape.
const OPS: usize = 64;

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
    let mut run = |payload: Payload| {
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
        run(write(page, vec![0x5a; 16 * PAGE]));
    }

    // Warm-up: misses on the first pages push the written (owned) blocks
    // out until the cache holds only blocks a miss brought in; each
    // measured miss evicts one of those. Past the pool's 720 transport
    // slots, so that a cache that keeps them all (a miss that finds the
    // pool dry evicts a block that had found it dry too) is measured in
    // that state.
    let warm = CACHE_PAGES + 1024;
    (0..warm).for_each(|page| run(read_buf(page)));
    // Pages past `warm` were evicted: misses; then, just read, hits.
    let pages = warm..warm + OPS as u64;
    let miss: Vec<u64> = pages.clone().map(|p| calls(|| run(read_buf(p)))).collect();
    let hit: Vec<u64> = pages.clone().map(|p| calls(|| run(read_buf(p)))).collect();
    let legacy: Vec<u64> = pages
        .map(|p| {
            let op = write(p, vec![0xa5; PAGE]);
            calls(|| run(op))
        })
        .collect();

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

    assert_eq!(miss, [1; OPS], "ReadBuf miss");
    assert_eq!(hit, [1; OPS], "ReadBuf hit");
    assert_eq!(legacy, [2; OPS], "legacy Write");
    assert_eq!(generic, [1; OPS], "GenericFs::write");
    assert_eq!(
        (empty, after),
        (0, (live, copies)),
        "empty GenericFs::write"
    );
    let appends: Vec<u64> = (0..OPS).map(|i| if i % 8 == 0 { 6 } else { 5 }).collect();
    assert_eq!(shape(0), [5; OPS], "varmail create");
    assert_eq!(shape(1), appends, "varmail 8 KiB append");
    assert_eq!(shape(2), [2; OPS], "varmail fsync");
    assert_eq!(shape(3), [4; OPS], "varmail 16 KiB read over two slots");
    rt.shutdown();
}
