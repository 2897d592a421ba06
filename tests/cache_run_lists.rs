//! A `ReadBuf` whose blocks a cache holds in several pool slots — varmail's
//! file, written as two 8 KiB appends that each took a slot of their own —
//! is answered with the slots' views, a `RespPayload::DataRuns` run list,
//! never with a gathered copy. Over LabFS on an LRU and an ARC cache, for
//! a full hit over the two slots and for a partial hit (one slot resident,
//! the other fetched), this checks the bytes and the counted copies: none
//! inside the stack, exactly one in `GenericFs::read` and exactly one in
//! `GenericFs::read_buf`. It also checks LabFS's window of a run list.
//!
//! This file holds a single test: it reads the process-wide copy counter,
//! and the integration tests of one file share one process.

use std::sync::Arc;

use labstor::core::{FsOp, LabStack, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::{payload_copies, Credentials};
use labstor::mods::arc_cache::ArcCacheMod;
use labstor::mods::lru::LruCacheMod;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

const HALF: usize = 8192;
const FILE: usize = 2 * HALF;

/// Lab-D over `cache`, four blocks of it: one file's two halves fill it.
fn spec(cache: &str) -> String {
    format!(
        r#"{{
        "mount": "fs::/{cache}",
        "exec": "sync",
        "authorized_uids": [0],
        "labmods": [
            {{ "uuid": "{cache}_fs", "type": "labfs", "params": {{"device": "nvme0", "workers": 1}}, "outputs": ["{cache}_c"] }},
            {{ "uuid": "{cache}_c", "type": "{cache}", "params": {{"capacity_bytes": 16384}}, "outputs": ["{cache}_sched"] }},
            {{ "uuid": "{cache}_sched", "type": "noop_sched", "outputs": ["{cache}_drv"] }},
            {{ "uuid": "{cache}_drv", "type": "kernel_driver", "params": {{"device": "nvme0"}} }}
        ]
    }}"#
    )
}

/// The bytes of a file whose halves are `seed` and `seed + 1`.
fn file_bytes(seed: u8) -> Vec<u8> {
    (0..FILE)
        .map(|i| (seed + (i / HALF) as u8).wrapping_mul(37) ^ (i / 7) as u8)
        .collect()
}

/// Counted payload copies `op` makes.
fn copies<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = payload_copies();
    let out = op();
    (out, payload_copies() - before)
}

/// A data answer's bytes, whatever its shape.
fn bytes(resp: &RespPayload) -> Vec<u8> {
    let parts = resp.data_parts().expect("a data answer");
    parts.collect::<Vec<_>>().concat()
}

struct Case<'a> {
    fs: &'a mut GenericFs,
    stack: &'a Arc<LabStack>,
    mount: String,
    /// (hits, misses) of the cache, in blocks.
    hit_stats: &'a dyn Fn() -> (u64, u64),
}

impl Case<'_> {
    /// Write file `name` in two appends; with `evict_head`, then write a
    /// filler file that pushes the first half's two blocks out.
    fn make(&mut self, name: &str, seed: u8, evict_head: bool) -> (i32, u64) {
        let path = format!("{}/{name}", self.mount);
        let fd = self.fs.open(&path, true, false).unwrap();
        let data = file_bytes(seed);
        for half in data.chunks(HALF) {
            assert_eq!(self.fs.write(fd, half), Ok(HALF));
        }
        if evict_head {
            let filler = format!("{}/filler", self.mount);
            let f = self.fs.open(&filler, true, true).unwrap();
            assert_eq!(self.fs.write(f, &[0xee; HALF]), Ok(HALF));
            self.fs.close(f).unwrap();
        }
        let ino = self.fs.stat(&path).unwrap().ino;
        (fd, ino)
    }

    /// Unlink `name` and the filler: their blocks leave the cache.
    fn drop_files(&mut self, name: &str) {
        for file in [name, "filler"] {
            let _ = self.fs.unlink(&format!("{}/{file}", self.mount));
        }
    }

    fn read_buf_op(&mut self, ino: u64, offset: u64, len: usize) -> RespPayload {
        let op = Payload::Fs(FsOp::ReadBuf { ino, offset, len });
        self.fs.client_mut().execute(self.stack, op).unwrap().0
    }

    /// The three readers of one file shape, each on a fresh file: the
    /// stack's own answer, `GenericFs::read` and `GenericFs::read_buf`.
    fn check(&mut self, label: &str, partial: bool) {
        let (hits, misses) = (self.hit_stats)();
        let (fd, ino) = self.make("raw", 1, partial);
        let (resp, n) = copies(|| self.read_buf_op(ino, 0, FILE));
        assert!(
            matches!(&resp, RespPayload::DataRuns(runs) if runs.len() == 2),
            "{label}: {resp:?}"
        );
        assert!(bytes(&resp) == file_bytes(1), "{label}: stack bytes");
        assert_eq!(n, 0, "{label}: the stack copies nothing");
        let fetched = if partial { 2 } else { 0 };
        assert_eq!(
            (self.hit_stats)(),
            (hits + 4 - fetched, misses + fetched),
            "{label}: blocks hit and fetched"
        );
        drop(resp);
        self.fs.close(fd).unwrap();
        self.drop_files("raw");

        let (fd, _) = self.make("read", 2, partial);
        self.fs.seek(fd, 0).unwrap();
        let (got, n) = copies(|| self.fs.read(fd, FILE).unwrap());
        assert!(got == file_bytes(2), "{label}: read bytes");
        assert_eq!(n, 1, "{label}: read(2) copies out once");
        self.fs.close(fd).unwrap();
        self.drop_files("read");

        let (fd, _) = self.make("read_buf", 3, partial);
        self.fs.seek(fd, 0).unwrap();
        let (got, n) = copies(|| self.fs.read_buf(fd, FILE).unwrap());
        assert!(got.as_slice() == file_bytes(3), "{label}: read_buf bytes");
        assert_eq!(n, 1, "{label}: read_buf pools the runs once");
        drop(got);
        self.fs.close(fd).unwrap();
        self.drop_files("read_buf");
    }

    /// LabFS's single-run window of a run list, on a fully resident file.
    fn windows(&mut self, label: &str) {
        let (fd, ino) = self.make("window", 4, false);
        let data = file_bytes(4);
        // Starts inside the first run, ends inside the last.
        let (src, n) = (1000, FILE - 1000 - 500);
        let (resp, copied) = copies(|| self.read_buf_op(ino, src as u64, n));
        match &resp {
            RespPayload::DataRuns(runs) => {
                let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
                assert_eq!(lens, [HALF - src, n - (HALF - src)], "{label}");
            }
            other => panic!("{label}: expected DataRuns, got {other:?}"),
        }
        assert!(bytes(&resp) == data[src..src + n], "{label}: window bytes");
        assert_eq!(copied, 0, "{label}: a window is views");
        // Inside one run: a handle, or inline bytes when small.
        let resp = self.read_buf_op(ino, (HALF + 100) as u64, 4000);
        assert!(matches!(resp, RespPayload::DataBuf(_)), "{label}: {resp:?}");
        assert!(bytes(&resp) == data[HALF + 100..HALF + 4100]);
        let resp = self.read_buf_op(ino, 10, 20);
        assert!(matches!(resp, RespPayload::Inline(_)), "{label}: {resp:?}");
        assert!(bytes(&resp) == data[10..30]);
        self.fs.close(fd).unwrap();
        self.drop_files("window");
    }
}

#[test]
fn a_hit_across_two_slots_is_answered_with_their_views() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    for cache in ["lru_cache", "arc_cache"] {
        let stack = rt.mount_stack_json(&spec(cache)).unwrap();
        let module = rt.mm.get(&format!("{cache}_c")).unwrap();
        let hit_stats = || {
            let any = module.as_any();
            any.downcast_ref::<LruCacheMod>()
                .map(LruCacheMod::hit_stats)
                .or_else(|| {
                    any.downcast_ref::<ArcCacheMod>()
                        .map(ArcCacheMod::hit_stats)
                })
                .unwrap()
        };
        let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
        let mut case = Case {
            fs: &mut fs,
            stack: &stack,
            mount: format!("fs::/{cache}"),
            hit_stats: &hit_stats,
        };
        case.check(&format!("{cache} full hit"), false);
        case.check(&format!("{cache} partial hit"), true);
        case.windows(cache);
    }
    rt.shutdown();
}
