//! Differential test of LabFS's two write verbs. `GenericFs::write` sends
//! its bytes as a pool buffer (`FsOp::WriteBuf`) and a hand-built
//! `FsOp::Write` sends them as an owned `Vec`; LabFS patches partial
//! pages on the two paths with different code. The same random writes go
//! to one file through each, on a write-back Lab-D stack (sync labfs →
//! lru_cache → noop_sched → kernel_driver) whose cache is small enough
//! to evict, and both files must read back the same bytes and size as a
//! plain byte-vector model — from the cache, and again after an fsync.

use proptest::prelude::*;

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

const SPEC: &str = r#"{
    "mount": "fs::/wv",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "wv_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["wv_lru"] },
        { "uuid": "wv_lru", "type": "lru_cache", "params": {"capacity_bytes": 32768, "write_back": true}, "outputs": ["wv_sched"] },
        { "uuid": "wv_sched", "type": "noop_sched", "outputs": ["wv_drv"] },
        { "uuid": "wv_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const PAGE: u64 = 4096;

/// One write: `len` bytes derived from `seed` at `offset`.
#[derive(Debug, Clone)]
struct Write {
    offset: u64,
    len: u64,
    seed: u8,
}

fn write(offset: u64, len: u64, seed: u8) -> Write {
    Write { offset, len, seed }
}

fn write_op() -> impl Strategy<Value = Write> {
    prop_oneof![
        // Empty.
        1 => (0..8 * PAGE).prop_map(|o| write(o, 0, 0)),
        // Inside one page.
        3 => (0..8u64, 0..PAGE, 1..PAGE, any::<u8>())
            .prop_map(|(p, o, l, s)| write(p * PAGE + o, l.min(PAGE - o), s)),
        // Across one page boundary.
        3 => (0..8u64, 1..PAGE, 1..PAGE, any::<u8>())
            .prop_map(|(p, h, t, s)| write((p + 1) * PAGE - h, h + t, s)),
        // Whole pages.
        2 => (0..8u64, 1..4u64, any::<u8>()).prop_map(|(p, n, s)| write(p * PAGE, n * PAGE, s)),
        // Several pages, unaligned.
        2 => (0..8 * PAGE, 2 * PAGE..4 * PAGE, any::<u8>()).prop_map(|(o, l, s)| write(o, l, s)),
        // Past every earlier end: leaves a hole.
        1 => (12 * PAGE..16 * PAGE, 1..2 * PAGE, any::<u8>()).prop_map(|(o, l, s)| write(o, l, s)),
    ]
}

fn bytes(w: &Write) -> Vec<u8> {
    (0..w.len).map(|i| w.seed ^ (i % 251) as u8).collect()
}

/// The size and bytes of `path`, read from offset 0 through `fs`.
fn read_back(fs: &mut GenericFs, path: &str, fd: i32) -> (u64, Vec<u8>) {
    let size = fs.stat(path).unwrap().size;
    fs.seek(fd, 0).unwrap();
    (size, fs.read(fd, size as usize + PAGE as usize).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generic_write_and_hand_built_write_read_back_the_same(
        writes in proptest::collection::vec(write_op(), 1..24),
    ) {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        let rt = Runtime::start(RuntimeConfig {
            max_workers: 1,
            ..Default::default()
        });
        labstor::mods::install_all(&rt.mm, &devices);
        let stack = rt.mount_stack_json(SPEC).unwrap();
        let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
        let (pooled, owned) = ("fs::/wv/pooled.bin", "fs::/wv/owned.bin");
        let fa = fs.open(pooled, true, false).unwrap();
        let fb = fs.open(owned, true, false).unwrap();
        let ino = fs.stat(owned).unwrap().ino;

        let mut model: Vec<u8> = Vec::new();
        for w in &writes {
            let data = bytes(w);
            fs.seek(fa, w.offset).unwrap();
            prop_assert_eq!(fs.write(fa, &data), Ok(data.len()));
            let op = Payload::Fs(FsOp::Write { ino, offset: w.offset, data: data.clone() });
            let resp = fs.client_mut().execute(&stack, op).unwrap().0;
            prop_assert!(matches!(resp, RespPayload::Len(n) if n == data.len()), "{:?}", resp);
            if data.is_empty() {
                // No bytes change nothing, not even the size.
                continue;
            }
            let end = (w.offset + w.len) as usize;
            if model.len() < end {
                model.resize(end, 0);
            }
            model[w.offset as usize..end].copy_from_slice(&data);
        }

        for round in ["cached", "after fsync"] {
            if round == "after fsync" {
                fs.fsync(fa).unwrap();
                fs.fsync(fb).unwrap();
            }
            let (a_size, a) = read_back(&mut fs, pooled, fa);
            let (b_size, b) = read_back(&mut fs, owned, fb);
            prop_assert!(a_size == b_size, "sizes {} and {} ({})", a_size, b_size, round);
            prop_assert!(a == b, "bytes differ ({})", round);
            prop_assert!(a_size == model.len() as u64, "size {} vs model {} ({})", a_size, model.len(), round);
            prop_assert!(a == model, "bytes differ from the model ({})", round);
        }
        rt.shutdown();
    }
}
