//! The Virtual Filesystem layer: the kernel's syscall surface for files.
//!
//! Baseline workloads (FxMark, Filebench, LABIOS's POSIX backend) enter
//! here: every call charges a syscall crossing, resolves the mount, and
//! dispatches to the mounted [`KernelFs`]. Per-process fd tables
//! reproduce the open-modify-close discipline whose cost Fig. 9b contrasts
//! with LabKVS's single put/get.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_sim::Ctx;

use crate::cost;
use crate::fs::{FsError, KernelFs};

/// Kernel-side credentials (the kernel has its own copy of the identity a
/// process carries; LabStor's IPC credentials convert into this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cred {
    /// User id.
    pub(crate) uid: u32,
    /// Primary group id.
    pub(crate) gid: u32,
}

impl Cred {
    /// The superuser.
    pub const ROOT: Cred = Cred { uid: 0, gid: 0 };

    /// Unix permission check against `(owner_uid, owner_gid, mode)`;
    /// `want` is an rwx bitmask (4=r, 2=w, 1=x).
    pub(crate) fn allows(&self, owner_uid: u32, owner_gid: u32, mode: u16, want: u16) -> bool {
        if self.uid == 0 {
            return true;
        }
        let bits = if self.uid == owner_uid {
            (mode >> 6) & 0o7
        } else if self.gid == owner_gid {
            (mode >> 3) & 0o7
        } else {
            mode & 0o7
        };
        bits & want == want
    }
}

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Result of a `stat` call.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    /// File or directory.
    #[cfg(test)]
    pub(crate) kind: FileKind,
    /// Size in bytes.
    pub size: u64,
}

/// `open(2)` flags subset used by the workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenFlags {
    /// Create if missing (O_CREAT).
    pub create: bool,
    /// Truncate to zero on open (O_TRUNC).
    pub truncate: bool,
    /// All writes go to EOF (O_APPEND).
    pub append: bool,
}

/// VFS-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// No filesystem mounted for the path.
    NoMount(String),
    /// Bad file descriptor.
    BadFd(i32),
    /// Underlying filesystem error.
    Fs(FsError),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NoMount(p) => write!(f, "no filesystem mounted for {p}"),
            VfsError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            VfsError::Fs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VfsError {}

impl From<FsError> for VfsError {
    fn from(e: FsError) -> Self {
        VfsError::Fs(e)
    }
}

struct OpenFile {
    fs: Arc<KernelFs>,
    ino: u64,
    pos: u64,
}

#[derive(Default)]
struct FdTable {
    next_fd: i32,
    open: HashMap<i32, OpenFile>,
}

/// The VFS: mount table + per-process fd tables + the syscall surface.
#[derive(Default)]
pub struct Vfs {
    mounts: RwLock<Vec<(String, Arc<KernelFs>)>>,
    tables: RwLock<HashMap<u32, FdTable>>,
}

impl Vfs {
    /// Empty VFS.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Mount `fs` at `prefix` (longest-prefix dispatch).
    pub fn mount(&self, prefix: &str, fs: Arc<KernelFs>) {
        let mut mounts = self.mounts.write(); // lock-class: vfs.mounts
        mounts.push((prefix.trim_end_matches('/').to_string(), fs));
        mounts.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    /// Resolve a path to `(filesystem, fs-relative path)`.
    fn route<'p>(&self, path: &'p str) -> Result<(Arc<KernelFs>, &'p str), VfsError> {
        let mounts = self.mounts.read(); // lock-class: vfs.mounts
        for (prefix, fs) in mounts.iter() {
            if let Some(rest) = path.strip_prefix(prefix.as_str()) {
                if rest.is_empty() || rest.starts_with('/') || prefix.is_empty() {
                    let rel = if rest.is_empty() { "/" } else { rest };
                    return Ok((fs.clone(), rel));
                }
            }
        }
        Err(VfsError::NoMount(path.to_string()))
    }

    fn with_fd<R>(
        &self,
        pid: u32,
        fd: i32,
        f: impl FnOnce(&mut OpenFile) -> R,
    ) -> Result<R, VfsError> {
        let mut tables = self.tables.write(); // lock-class: vfs.table
        let table = tables.get_mut(&pid).ok_or(VfsError::BadFd(fd))?;
        let file = table.open.get_mut(&fd).ok_or(VfsError::BadFd(fd))?;
        Ok(f(file))
    }

    /// `open(2)`. Returns a process-local fd.
    #[allow(clippy::too_many_arguments)] // mirrors the syscall surface
    pub fn open(
        &self,
        ctx: &mut Ctx,
        core: usize,
        pid: u32,
        cred: Cred,
        path: &str,
        flags: OpenFlags,
        mode: u16,
    ) -> Result<i32, VfsError> {
        cost::syscall(ctx);
        let (fs, rel) = self.route(path)?;
        let ino = match fs.lookup(ctx, rel) {
            Ok(ino) => ino,
            Err(FsError::NotFound) if flags.create => fs.create(ctx, core, rel, mode, cred)?,
            Err(e) => return Err(e.into()),
        };
        if flags.truncate {
            fs.truncate(ctx, core, ino, 0)?;
        }
        // O_APPEND starts the cursor at EOF; each write then re-lands at
        // the position this fd's own writes advanced to.
        let pos = if flags.append {
            fs.stat(ctx, rel)?.size
        } else {
            0
        };
        let mut tables = self.tables.write(); // lock-class: vfs.table
        let table = tables.entry(pid).or_default();
        table.next_fd += 1;
        let fd = table.next_fd;
        table.open.insert(fd, OpenFile { fs, ino, pos });
        Ok(fd)
    }

    /// `close(2)`.
    pub fn close(&self, ctx: &mut Ctx, pid: u32, fd: i32) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let mut tables = self.tables.write(); // lock-class: vfs.table
        let table = tables.get_mut(&pid).ok_or(VfsError::BadFd(fd))?;
        table
            .open
            .remove(&fd)
            .map(|_| ())
            .ok_or(VfsError::BadFd(fd))
    }

    /// `write(2)` at the current position (or EOF with O_APPEND).
    pub fn write(
        &self,
        ctx: &mut Ctx,
        core: usize,
        pid: u32,
        fd: i32,
        data: &[u8],
    ) -> Result<usize, VfsError> {
        cost::syscall(ctx);
        let (fs, ino, off) = self.with_fd(pid, fd, |f| (f.fs.clone(), f.ino, f.pos))?;
        let n = fs.write(ctx, core, ino, off, data)?;
        self.with_fd(pid, fd, |f| f.pos = off + n as u64)?;
        Ok(n)
    }

    /// `read(2)` at the current position.
    pub fn read(
        &self,
        ctx: &mut Ctx,
        core: usize,
        pid: u32,
        fd: i32,
        buf: &mut [u8],
    ) -> Result<usize, VfsError> {
        cost::syscall(ctx);
        let (fs, ino, off) = self.with_fd(pid, fd, |f| (f.fs.clone(), f.ino, f.pos))?;
        let n = fs.read(ctx, core, ino, off, buf)?;
        self.with_fd(pid, fd, |f| f.pos = off + n as u64)?;
        Ok(n)
    }

    /// `lseek(2)` (SEEK_SET only — what the workloads use).
    pub fn seek(&self, ctx: &mut Ctx, pid: u32, fd: i32, pos: u64) -> Result<(), VfsError> {
        cost::syscall(ctx);
        self.with_fd(pid, fd, |f| f.pos = pos)
    }

    /// `fsync(2)`.
    pub fn fsync(&self, ctx: &mut Ctx, core: usize, pid: u32, fd: i32) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let (fs, ino) = self.with_fd(pid, fd, |f| (f.fs.clone(), f.ino))?;
        Ok(fs.fsync(ctx, core, ino)?)
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(
        &self,
        ctx: &mut Ctx,
        core: usize,
        pid: u32,
        fd: i32,
        size: u64,
    ) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let (fs, ino) = self.with_fd(pid, fd, |f| (f.fs.clone(), f.ino))?;
        Ok(fs.truncate(ctx, core, ino, size)?)
    }

    /// `unlink(2)`.
    pub fn unlink(
        &self,
        ctx: &mut Ctx,
        core: usize,
        cred: Cred,
        path: &str,
    ) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let (fs, rel) = self.route(path)?;
        Ok(fs.unlink(ctx, core, rel, cred)?)
    }

    /// `rename(2)`: both paths must resolve into the same mount.
    pub fn rename(
        &self,
        ctx: &mut Ctx,
        core: usize,
        cred: Cred,
        from: &str,
        to: &str,
    ) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let (fs_a, rel_from) = self.route(from)?;
        let rel_from = rel_from.to_string();
        let (fs_b, rel_to) = self.route(to)?;
        let rel_to = rel_to.to_string();
        if !Arc::ptr_eq(&fs_a, &fs_b) {
            return Err(VfsError::Fs(FsError::Io(
                "cross-mount rename (EXDEV)".into(),
            )));
        }
        Ok(fs_a.rename(ctx, core, &rel_from, &rel_to, cred)?)
    }

    /// `mkdir(2)`.
    pub fn mkdir(
        &self,
        ctx: &mut Ctx,
        core: usize,
        cred: Cred,
        path: &str,
        mode: u16,
    ) -> Result<(), VfsError> {
        cost::syscall(ctx);
        let (fs, rel) = self.route(path)?;
        fs.mkdir(ctx, core, rel, mode, cred)?;
        Ok(())
    }

    /// `stat(2)`.
    pub fn stat(&self, ctx: &mut Ctx, path: &str) -> Result<Stat, VfsError> {
        cost::syscall(ctx);
        let (fs, rel) = self.route(path)?;
        Ok(fs.stat(ctx, rel)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockLayer;
    use crate::fs::FsProfile;
    use labstor_sim::{DeviceKind, SimDevice};

    fn vfs() -> Arc<Vfs> {
        let v = Vfs::new();
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let fs = KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 8 << 20);
        v.mount("/mnt", fs);
        v
    }

    #[test]
    fn open_write_read_close() {
        let v = vfs();
        let mut ctx = Ctx::new();
        let fd = v
            .open(
                &mut ctx,
                0,
                1,
                Cred::ROOT,
                "/mnt/hello",
                OpenFlags {
                    create: true,
                    ..Default::default()
                },
                0o644,
            )
            .unwrap();
        v.write(&mut ctx, 0, 1, fd, b"hello world").unwrap();
        v.seek(&mut ctx, 1, fd, 0).unwrap();
        let mut out = [0u8; 11];
        assert_eq!(v.read(&mut ctx, 0, 1, fd, &mut out).unwrap(), 11);
        assert_eq!(&out, b"hello world");
        v.close(&mut ctx, 1, fd).unwrap();
        assert_eq!(v.close(&mut ctx, 1, fd), Err(VfsError::BadFd(fd)));
    }

    #[test]
    fn unmounted_path_rejected() {
        let v = vfs();
        let mut ctx = Ctx::new();
        assert!(matches!(
            v.open(
                &mut ctx,
                0,
                1,
                Cred::ROOT,
                "/other/x",
                OpenFlags::default(),
                0
            ),
            Err(VfsError::NoMount(_))
        ));
    }

    #[test]
    fn bad_fd_rejected() {
        let v = vfs();
        let mut ctx = Ctx::new();
        assert_eq!(v.close(&mut ctx, 1, 42), Err(VfsError::BadFd(42)));
        let mut b = [0u8; 1];
        assert!(matches!(
            v.read(&mut ctx, 0, 1, 42, &mut b),
            Err(VfsError::BadFd(42))
        ));
    }

    #[test]
    fn mount_precedence_longest_prefix() {
        let v = Vfs::new();
        let d1 = SimDevice::preset(DeviceKind::Nvme);
        let d2 = SimDevice::preset(DeviceKind::Nvme);
        let fs1 = KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(d1), 1 << 20);
        let fs2 = KernelFs::new(FsProfile::xfs_like(), BlockLayer::new(d2), 1 << 20);
        v.mount("/a", fs1);
        v.mount("/a/b", fs2);
        let (fs, rel) = v.route("/a/b/file").unwrap();
        assert_eq!(fs.name(), "xfs");
        assert_eq!(rel, "/file");
        let (fs, _) = v.route("/a/file").unwrap();
        assert_eq!(fs.name(), "ext4");
    }

    #[test]
    fn each_syscall_charges_crossing() {
        let v = vfs();
        let mut ctx = Ctx::new();
        let before = ctx.now();
        let _ = v.stat(&mut ctx, "/mnt/");
        assert!(ctx.now() >= before + cost::SYSCALL_NS);
    }
}
