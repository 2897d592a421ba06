//! Target adapters: one interface over kernel filesystems and LabStor
//! stacks so each workload is written once and runs against every
//! configuration a figure compares.

use std::sync::Arc;

use labstor_core::client::Client;
use labstor_kernel::vfs::{Cred, OpenFlags, Vfs};
use labstor_mods::generic::{GenericFs, GenericFsError};
use labstor_sim::Ctx;

/// A POSIX-ish filesystem as seen by a workload thread. Implementations
/// own the thread's virtual clock.
pub trait FsTarget {
    /// Open (optionally creating/truncating); returns an fd.
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> Result<i32, String>;
    /// Write at the fd position.
    fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, String>;
    /// Read at the fd position.
    fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, String>;
    /// Seek (SEEK_SET).
    fn seek(&mut self, fd: i32, pos: u64) -> Result<(), String>;
    /// Truncate via fd.
    fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), String>;
    /// fsync.
    fn fsync(&mut self, fd: i32) -> Result<(), String>;
    /// close.
    fn close(&mut self, fd: i32) -> Result<(), String>;
    /// unlink.
    fn unlink(&mut self, path: &str) -> Result<(), String>;
    /// rename.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), String>;
    /// mkdir.
    fn mkdir(&mut self, path: &str) -> Result<(), String>;
    /// stat; returns file size.
    fn stat_size(&mut self, path: &str) -> Result<u64, String>;
    /// This thread's virtual clock, in ns.
    fn now_ns(&self) -> u64;
    /// Fast-forward this actor's clock to `vt` if it is in the future
    /// (used when the target models a server receiving remote requests).
    fn sync_to(&mut self, vt: u64);
    /// Short label for reports ("ext4", "labfs-all", …).
    fn label(&self) -> String;
}

/// A workload thread talking to a kernel filesystem through the simulated
/// VFS (syscalls, page cache, block layer — the baseline path).
pub struct KernelFsTarget {
    /// The VFS holding the mounted filesystem.
    pub(crate) vfs: Arc<Vfs>,
    /// This thread's virtual clock.
    pub ctx: Ctx,
    /// Simulated pid owning the fd table.
    pub(crate) pid: u32,
    /// Core the thread runs on.
    pub(crate) core: usize,
    /// Credentials.
    pub(crate) cred: Cred,
    /// Mount prefix to prepend to workload paths.
    pub(crate) mount: String,
    label: String,
}

impl KernelFsTarget {
    /// New adapter for `(vfs, mount)`; `label` names the filesystem.
    pub fn new(vfs: Arc<Vfs>, mount: &str, label: &str, pid: u32, core: usize) -> Self {
        KernelFsTarget {
            vfs,
            ctx: Ctx::new(),
            pid,
            core,
            cred: Cred::ROOT,
            mount: mount.trim_end_matches('/').to_string(),
            label: label.to_string(),
        }
    }

    fn full(&self, path: &str) -> String {
        format!("{}{}", self.mount, path)
    }
}

impl FsTarget for KernelFsTarget {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> Result<i32, String> {
        let full = self.full(path);
        self.vfs
            .open(
                &mut self.ctx,
                self.core,
                self.pid,
                self.cred,
                &full,
                OpenFlags {
                    create,
                    truncate,
                    append: false,
                },
                0o644,
            )
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, String> {
        self.vfs
            .write(&mut self.ctx, self.core, self.pid, fd, data)
            .map_err(|e| e.to_string())
    }

    fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, String> {
        let mut buf = vec![0u8; len];
        let n = self
            .vfs
            .read(&mut self.ctx, self.core, self.pid, fd, &mut buf)
            .map_err(|e| e.to_string())?;
        buf.truncate(n);
        Ok(buf)
    }

    fn seek(&mut self, fd: i32, pos: u64) -> Result<(), String> {
        self.vfs
            .seek(&mut self.ctx, self.pid, fd, pos)
            .map_err(|e| e.to_string())
    }

    fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), String> {
        self.vfs
            .ftruncate(&mut self.ctx, self.core, self.pid, fd, size)
            .map_err(|e| e.to_string())
    }

    fn fsync(&mut self, fd: i32) -> Result<(), String> {
        self.vfs
            .fsync(&mut self.ctx, self.core, self.pid, fd)
            .map_err(|e| e.to_string())
    }

    fn close(&mut self, fd: i32) -> Result<(), String> {
        self.vfs
            .close(&mut self.ctx, self.pid, fd)
            .map_err(|e| e.to_string())
    }

    fn unlink(&mut self, path: &str) -> Result<(), String> {
        let full = self.full(path);
        self.vfs
            .unlink(&mut self.ctx, self.core, self.cred, &full)
            .map_err(|e| e.to_string())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), String> {
        let (f, t) = (self.full(from), self.full(to));
        self.vfs
            .rename(&mut self.ctx, self.core, self.cred, &f, &t)
            .map_err(|e| e.to_string())
    }

    fn mkdir(&mut self, path: &str) -> Result<(), String> {
        let full = self.full(path);
        self.vfs
            .mkdir(&mut self.ctx, self.core, self.cred, &full, 0o755)
            .map_err(|e| e.to_string())
    }

    fn stat_size(&mut self, path: &str) -> Result<u64, String> {
        let full = self.full(path);
        self.vfs
            .stat(&mut self.ctx, &full)
            .map(|s| s.size)
            .map_err(|e| e.to_string())
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }

    fn sync_to(&mut self, vt: u64) {
        self.ctx.idle_until(vt);
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// A workload thread talking to a LabStor stack through GenericFS.
pub struct LabStorFsTarget {
    /// The GenericFS connector (owns the client and its clock).
    pub gfs: GenericFs,
    /// Mount prefix to prepend to workload paths.
    pub(crate) mount: String,
    label: String,
}

impl LabStorFsTarget {
    /// New adapter over a connected client; paths go under `mount`.
    pub fn new(client: Client, mount: &str, label: &str) -> Self {
        LabStorFsTarget {
            gfs: GenericFs::new(client),
            mount: mount.trim_end_matches('/').to_string(),
            label: label.to_string(),
        }
    }

    fn full(&self, path: &str) -> String {
        format!("{}{}", self.mount, path)
    }

    fn map<T>(r: Result<T, GenericFsError>) -> Result<T, String> {
        r.map_err(|e| e.to_string())
    }
}

impl FsTarget for LabStorFsTarget {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> Result<i32, String> {
        let p = self.full(path);
        Self::map(self.gfs.open(&p, create, truncate))
    }

    fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, String> {
        Self::map(self.gfs.write(fd, data))
    }

    fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, String> {
        Self::map(self.gfs.read(fd, len))
    }

    fn seek(&mut self, fd: i32, pos: u64) -> Result<(), String> {
        Self::map(self.gfs.seek(fd, pos))
    }

    fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), String> {
        Self::map(self.gfs.ftruncate(fd, size))
    }

    fn fsync(&mut self, fd: i32) -> Result<(), String> {
        Self::map(self.gfs.fsync(fd))
    }

    fn close(&mut self, fd: i32) -> Result<(), String> {
        Self::map(self.gfs.close(fd))
    }

    fn unlink(&mut self, path: &str) -> Result<(), String> {
        let p = self.full(path);
        Self::map(self.gfs.unlink(&p))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), String> {
        let (f, t) = (self.full(from), self.full(to));
        Self::map(self.gfs.rename(&f, &t))
    }

    fn mkdir(&mut self, path: &str) -> Result<(), String> {
        let p = self.full(path);
        Self::map(self.gfs.mkdir(&p, 0o755))
    }

    fn stat_size(&mut self, path: &str) -> Result<u64, String> {
        let p = self.full(path);
        Self::map(self.gfs.stat(&p)).map(|s| s.size)
    }

    fn now_ns(&self) -> u64 {
        self.gfs.client().ctx.now()
    }

    fn sync_to(&mut self, vt: u64) {
        self.gfs.client_mut().ctx.idle_until(vt);
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::ExecMode;
    use labstor_core::{Runtime, RuntimeConfig, StackSpec};
    use labstor_kernel::fs::{FsProfile, KernelFs};
    use labstor_kernel::BlockLayer;
    use labstor_mods::DeviceRegistry;
    use labstor_sim::{DeviceKind, SimDevice};

    fn kernel_target() -> KernelFsTarget {
        let vfs = Vfs::new();
        let dev = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount(
            "/mnt",
            KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 8 << 20),
        );
        KernelFsTarget::new(vfs, "/mnt", "ext4", 1, 0)
    }

    fn labstor_target() -> LabStorFsTarget {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        let rt = Runtime::start(RuntimeConfig {
            auto_admin: false,
            ..Default::default()
        });
        labstor_mods::install_all(&rt.mm, &devices);
        let spec = StackSpec {
            mount: "fs::/b".into(),
            exec: "sync".into(),
            authorized_uids: vec![0],
            labmods: vec![
                labstor_core::VertexSpec {
                    uuid: "fs1".into(),
                    type_name: "labfs".into(),
                    params: serde_json::json!({"device": "nvme0", "workers": 4}),
                    outputs: vec!["drv1".into()],
                },
                labstor_core::VertexSpec {
                    uuid: "drv1".into(),
                    type_name: "kernel_driver".into(),
                    params: serde_json::json!({"device": "nvme0"}),
                    outputs: vec![],
                },
            ],
        };
        let stack = rt.mount_stack(&spec).unwrap();
        assert_eq!(stack.exec, ExecMode::Sync);
        let client = rt.connect(labstor_ipc::Credentials::new(1, 0, 0), 1);
        let t = LabStorFsTarget::new(client, "fs::/b", "labfs-d");
        rt.shutdown();
        t
    }

    fn exercise(t: &mut dyn FsTarget) {
        let fd = t.open("/w.txt", true, false).unwrap();
        assert_eq!(t.write(fd, b"hello target").unwrap(), 12);
        t.seek(fd, 0).unwrap();
        assert_eq!(t.read(fd, 12).unwrap(), b"hello target");
        t.fsync(fd).unwrap();
        t.close(fd).unwrap();
        assert_eq!(t.stat_size("/w.txt").unwrap(), 12);
        t.unlink("/w.txt").unwrap();
        assert!(t.stat_size("/w.txt").is_err());
        assert!(t.now_ns() > 0, "virtual time advanced");
    }

    #[test]
    fn kernel_target_full_cycle() {
        let mut t = kernel_target();
        exercise(&mut t);
        assert_eq!(t.label(), "ext4");
    }

    #[test]
    fn labstor_target_full_cycle() {
        let mut t = labstor_target();
        exercise(&mut t);
        assert_eq!(t.label(), "labfs-d");
    }
}
