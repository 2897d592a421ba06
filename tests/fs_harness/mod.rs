//! The one proptest for every file system, shared by the tests that run
//! it: the [`FsAction`] alphabet, the targets, and the driver that runs a
//! script through the one interpreter (`fsmodel::step`, which the crash
//! campaign runs too) on a target and on the one [`FsModel`] and checks
//! the whole state after each step. `tests/fs_model.rs` says what each
//! target is and what is checked; `tests/properties.rs` runs the two
//! LabFS targets whose properties it has always held.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use labstor::core::client::Client;
use labstor::core::{FsOp, LabStack, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::core::{StackSpec, VertexSpec};
use labstor::ipc::Credentials;
use labstor::kernel::fs::{FsProfile, KernelFs};
use labstor::kernel::vfs::Vfs;
use labstor::kernel::BlockLayer;
use labstor::mods::labfs::LabFs;
use labstor::mods::DeviceRegistry;
use labstor::sim::{DeviceKind, SimDevice};
use labstor::workloads::fsmodel::{self, first_difference, FsAction, FsModel};
use labstor::workloads::targets::{FsTarget, KernelFsTarget, LabStorFsTarget};

const PAGE: u64 = 4096;
const MOUNT: &str = "fs::/m";

/// The names a script works on: files in the root, two directories and
/// files in them. A directory's name may also be created as a file,
/// which leaves the names under it without a directory.
const FS_PATHS: [&str; 11] = [
    "/f0", "/f1", "/f2", "/d0", "/d1", "/d0/f0", "/d0/f1", "/d0/f2", "/d1/f0", "/d1/f1", "/d1/f2",
];

const LAB_D: &str = r#"{
    "mount": "fs::/m",
    "exec": "sync",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "m_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 4}, "outputs": ["m_lru"] },
        { "uuid": "m_lru", "type": "lru_cache", "params": {"capacity_bytes": 32768, "write_back": true}, "outputs": ["m_sched"] },
        { "uuid": "m_sched", "type": "noop_sched", "outputs": ["m_drv"] },
        { "uuid": "m_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

// ---------------------------------------------------------------------
// The alphabet
// ---------------------------------------------------------------------

fn path() -> impl Strategy<Value = String> {
    (0..FS_PATHS.len()).prop_map(|i| FS_PATHS[i].to_string())
}

fn fd() -> impl Strategy<Value = usize> {
    any::<u8>().prop_map(usize::from)
}

fn write(fd: usize, offset: u64, len: u64, seed: u8) -> FsAction {
    let len = len as usize;
    FsAction::Write {
        fd,
        offset,
        len,
        seed,
    }
}

pub fn action() -> impl Strategy<Value = FsAction> {
    prop_oneof![
        4 => path().prop_map(|path| FsAction::Open { path, create: true, truncate: false }),
        1 => path().prop_map(|path| FsAction::Open { path, create: false, truncate: true }),
        1 => path().prop_map(|path| FsAction::Open { path, create: false, truncate: false }),
        2 => path().prop_map(|path| FsAction::Mkdir { path }),
        // Empty.
        1 => (fd(), 0..16 * PAGE).prop_map(|(fd, offset)| write(fd, offset, 0, 0)),
        // Inside one page.
        3 => (fd(), 0..8u64, 0..PAGE, 1..PAGE, any::<u8>())
            .prop_map(|(fd, p, o, l, s)| write(fd, p * PAGE + o, l.min(PAGE - o), s)),
        // Across one page boundary.
        3 => (fd(), 0..8u64, 1..PAGE, 1..PAGE, any::<u8>())
            .prop_map(|(fd, p, h, t, s)| write(fd, (p + 1) * PAGE - h, h + t, s)),
        // Whole pages.
        2 => (fd(), 0..8u64, 1..4u64, any::<u8>()).prop_map(|(fd, p, n, s)| write(fd, p * PAGE, n * PAGE, s)),
        // Several pages, unaligned: a partial head, whole pages, a
        // partial tail.
        2 => (fd(), 0..8 * PAGE, 2 * PAGE..4 * PAGE, any::<u8>())
            .prop_map(|(fd, o, l, s)| write(fd, o, l, s)),
        // Past every earlier end: leaves a hole.
        1 => (fd(), 12 * PAGE..16 * PAGE, 1..2 * PAGE, any::<u8>())
            .prop_map(|(fd, o, l, s)| write(fd, o, l, s)),
        3 => (fd(), 0..12 * PAGE, 1..3 * PAGE as usize)
            .prop_map(|(fd, offset, len)| FsAction::Read { fd, offset, len }),
        // Up or down to a page boundary, and anywhere (mostly mid-page).
        1 => (fd(), 0..6u64).prop_map(|(fd, p)| FsAction::Truncate { fd, size: p * PAGE }),
        2 => (fd(), 0..12 * PAGE).prop_map(|(fd, size)| FsAction::Truncate { fd, size }),
        // Onto itself, onto any name, a directory onto a top-level name,
        // and a directory under itself (refused: EINVAL).
        1 => path().prop_map(|p| FsAction::Rename { from: p.clone(), to: p }),
        2 => (path(), path()).prop_map(|(from, to)| FsAction::Rename { from, to }),
        1 => (0..2usize, 0..5usize)
            .prop_map(|(d, to)| FsAction::Rename { from: FS_PATHS[3 + d].into(), to: FS_PATHS[to].into() }),
        1 => (0..2usize, 0..3usize)
            .prop_map(|(d, f)| FsAction::Rename { from: FS_PATHS[3 + d].into(), to: FS_PATHS[5 + 3 * d + f].into() }),
        1 => path().prop_map(|path| FsAction::Unlink { path }),
        1 => fd().prop_map(|fd| FsAction::Fsync { fd }),
    ]
}

pub fn script() -> impl Strategy<Value = Vec<FsAction>> {
    proptest::collection::vec(action(), 1..64)
}

// ---------------------------------------------------------------------
// The targets
// ---------------------------------------------------------------------

/// One file system under test, and what only LabFS offers.
pub struct Subject {
    fs: Box<dyn FsTarget>,
    labfs: Option<LabFsStack>,
}

/// A mounted LabFS stack: readdir, repair and replay.
struct LabFsStack {
    rt: Arc<Runtime>,
    stack: Arc<LabStack>,
    dev: Arc<SimDevice>,
    client: Client,
}

impl LabFsStack {
    fn readdir(&mut self, dir: &str) -> Result<Vec<String>, String> {
        let op = Payload::Fs(FsOp::Readdir { path: dir.into() });
        match self.client.execute(&self.stack, op) {
            Ok((RespPayload::Names(names), _)) => Ok(names),
            other => Err(format!("readdir {dir}: {other:?}")),
        }
    }
}

pub fn labfs(all: bool, owned: bool) -> Subject {
    let devices = DeviceRegistry::new();
    let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 1,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    let mut spec: StackSpec = serde_json::from_str(LAB_D).unwrap();
    if all {
        spec.exec = "async".into();
        let perms = VertexSpec {
            uuid: "m_perm".into(),
            type_name: "permissions".into(),
            params: serde_json::Value::Null,
            outputs: vec!["m_fs".into()],
        };
        spec.labmods.insert(0, perms);
    }
    let stack = rt.mount_stack(&spec).unwrap();
    let connect = || rt.connect(Credentials::new(1, 0, 0), 1);
    let label = if all { "labfs-all" } else { "labfs-d" };
    let target = LabStorFsTarget::new(connect(), MOUNT, label);
    let fs: Box<dyn FsTarget> = if owned {
        let (stack, fds) = (stack.clone(), HashMap::new());
        Box::new(OwnedWrites {
            inner: target,
            stack,
            fds,
        })
    } else {
        Box::new(target)
    };
    let client = connect();
    Subject {
        fs,
        labfs: Some(LabFsStack {
            rt,
            stack,
            dev,
            client,
        }),
    }
}

pub fn kernel(name: &str, profile: FsProfile, cache_bytes: usize) -> Subject {
    let label = format!("{name} with {cache_bytes} B of page cache");
    let vfs = Vfs::new();
    let block = BlockLayer::new(SimDevice::preset(DeviceKind::Nvme));
    vfs.mount("/mnt", KernelFs::new(profile, block, cache_bytes));
    Subject {
        fs: Box::new(KernelFsTarget::new(vfs, "/mnt", &label, 1, 0)),
        labfs: None,
    }
}

/// LabFS through hand-built owned writes: `FsOp::Write` carries its
/// bytes in a `Vec`, where GenericFs sends a pool buffer, so the cache
/// holds owned windows and a read of them gathers. Reads are `FsOp::ReadBuf`
/// sent by hand; every other call goes through GenericFs.
struct OwnedWrites {
    inner: LabStorFsTarget,
    stack: Arc<LabStack>,
    /// fd → (inode, position), for the hand-built calls.
    fds: HashMap<i32, (u64, u64)>,
}

impl OwnedWrites {
    /// Send `op` for `fd`'s inode at its position; advance the position
    /// by the bytes the answer moved.
    fn call(&mut self, fd: i32, op: impl FnOnce(u64, u64) -> FsOp) -> Result<RespPayload, String> {
        let (ino, pos) = *self.fds.get(&fd).ok_or(format!("bad fd {fd}"))?;
        let resp = self
            .inner
            .gfs
            .client_mut()
            .execute(&self.stack, Payload::Fs(op(ino, pos)))
            .map_err(|e| e.to_string())?
            .0;
        let moved = match (&resp, resp.data_parts()) {
            (RespPayload::Len(n), _) => *n,
            (_, Some(parts)) => parts.map(<[u8]>::len).sum(),
            (other, None) => return Err(format!("{other:?}")),
        };
        self.fds.insert(fd, (ino, pos + moved as u64));
        Ok(resp)
    }
}

impl FsTarget for OwnedWrites {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> Result<i32, String> {
        let fd = self.inner.open(path, create, truncate)?;
        let st = self.inner.gfs.stat(&format!("{MOUNT}{path}"));
        self.fds.insert(fd, (st.map_err(|e| e.to_string())?.ino, 0));
        Ok(fd)
    }

    fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, String> {
        let data = data.to_vec();
        match self.call(fd, |ino, offset| FsOp::Write { ino, offset, data })? {
            RespPayload::Len(n) => Ok(n),
            other => Err(format!("{other:?}")),
        }
    }

    fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, String> {
        let resp = self.call(fd, |ino, offset| FsOp::ReadBuf { ino, offset, len })?;
        let bytes = resp
            .data_parts()
            .map(|parts| parts.collect::<Vec<_>>().concat());
        bytes.ok_or_else(|| format!("{resp:?}"))
    }

    fn seek(&mut self, fd: i32, pos: u64) -> Result<(), String> {
        self.fds.get_mut(&fd).ok_or(format!("bad fd {fd}"))?.1 = pos;
        self.inner.seek(fd, pos)
    }

    fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), String> {
        self.inner.ftruncate(fd, size)
    }

    fn fsync(&mut self, fd: i32) -> Result<(), String> {
        self.inner.fsync(fd)
    }

    fn close(&mut self, fd: i32) -> Result<(), String> {
        self.fds.remove(&fd);
        self.inner.close(fd)
    }

    fn unlink(&mut self, path: &str) -> Result<(), String> {
        self.inner.unlink(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), String> {
        self.inner.rename(from, to)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), String> {
        self.inner.mkdir(path)
    }

    fn stat_size(&mut self, path: &str) -> Result<u64, String> {
        self.inner.stat_size(path)
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn sync_to(&mut self, vt: u64) {
        self.inner.sync_to(vt)
    }

    fn label(&self) -> String {
        format!("{} with owned writes", self.inner.label())
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

fn agree<T: PartialEq + Debug>(what: &str, target: T, model: T) -> Result<(), String> {
    if target == model {
        Ok(())
    } else {
        Err(format!("{what}: target {target:?}, model {model:?}"))
    }
}

/// The whole state: every name's size, every file's bytes (read through
/// a fresh fd) and, on LabFS, every listing.
fn check(sut: &mut Subject, model: &FsModel) -> Result<(), String> {
    let fs = &mut sut.fs;
    for path in FS_PATHS {
        agree(path, fs.stat_size(path).ok(), model.size(path))?;
    }
    for (path, bytes) in model.files() {
        let fd = fs.open(path, false, false)?;
        let got = fs.read(fd, bytes.len() + PAGE as usize)?;
        fs.close(fd)?;
        if got != bytes {
            return Err(format!("{path}: {}", first_difference(&got, bytes)));
        }
    }
    if let Some(lab) = &mut sut.labfs {
        for dir in std::iter::once("/").chain(FS_PATHS) {
            agree(dir, lab.readdir(dir)?, model.children(dir))?;
        }
    }
    Ok(())
}

/// Drive `sut` through `script` against the model, checking after every
/// step; then, on LabFS, compare the live state with a replay of the
/// device.
pub fn run(mut sut: Subject, script: &[FsAction]) -> Result<(), TestCaseError> {
    let model = drive(&mut sut, script, true)?;
    replay(sut, &model)
}

/// Drive `sut` through `script` against the model. The whole state is
/// checked after every step, or with `every_step` false only after the
/// last one. Returns the model the script reached.
pub fn drive(
    sut: &mut Subject,
    script: &[FsAction],
    every_step: bool,
) -> Result<FsModel, TestCaseError> {
    let mut model = FsModel::new();
    let mut fds = Vec::new();
    let label = sut.fs.label();
    for (i, action) in script.iter().enumerate() {
        let last = i + 1 == script.len();
        fsmodel::step(&mut *sut.fs, &mut model, &mut fds, action)
            .map_err(|d| d.to_string())
            .and_then(|()| {
                // After an fsync that ran, rebuild LabFS from the device.
                let synced = matches!(action, FsAction::Fsync { .. }) && !fds.is_empty();
                if let (true, Some(lab)) = (synced, &sut.labfs) {
                    lab.rt.mm.repair_all();
                }
                match every_step || last {
                    true => check(sut, &model),
                    false => Ok(()),
                }
            })
            .map_err(|e| {
                TestCaseError::fail(format!(
                    "{label}, step {i} {action:?}: {e}\nscript: {script:#?}"
                ))
            })?;
    }
    Ok(model)
}

/// On LabFS: fsync, then fold a fresh instance out of the device. It
/// must have the live instance's `LabFs::snapshot` (names, and per inode
/// size, mode, owner, kind and block map; provenance is not journaled),
/// and, put in the live one's place, must equal `model` too. Other
/// targets have nothing to replay.
pub fn replay(mut sut: Subject, model: &FsModel) -> Result<(), TestCaseError> {
    let label = sut.fs.label();
    let Some(lab) = sut.labfs.as_mut() else {
        return Ok(());
    };
    let sync = Payload::Fs(FsOp::Fsync { ino: 0 });
    let resp = lab.client.execute(&lab.stack, sync).map(|r| r.0);
    prop_assert!(
        matches!(resp, Ok(ref r) if r.is_ok()),
        "final fsync: {:?}",
        resp
    );
    let live_mod = lab.rt.mm.get("m_fs").unwrap();
    let live = live_mod.as_any().downcast_ref::<LabFs>().unwrap();
    // As many shards and logs as LAB_D's `workers`.
    let replayed = Arc::new(LabFs::new(lab.dev.clone(), 4));
    prop_assert!(replayed.replay_from_device().is_clean());
    let same = replayed.snapshot() == live.snapshot();
    prop_assert!(
        same,
        "{}: a replay of the device differs from the live state",
        label
    );
    lab.rt.mm.insert_instance("m_fs", replayed);
    let rt = lab.rt.clone();
    let read_back = check(&mut sut, model);
    rt.shutdown();
    read_back.map_err(|e| TestCaseError::fail(format!("{label}, replayed: {e}")))
}

pub const CACHE_BYTES: [usize; 2] = [4 << 20, 2 * PAGE as usize];
