//! FxMark-like metadata stressors (Fig. 7).
//!
//! FxMark's file-creation microbenchmarks: each thread creates `files`
//! empty files, either all in one **shared** directory (MWCM — maximal
//! contention on the directory and journal locks) or each in a **private**
//! directory (MWCL — contention only on allocator/journal internals).
//! Throughput is creations per second over the merged virtual span.

use crate::stats::Recorder;
use crate::targets::FsTarget;

/// Where threads create their files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// All threads share one directory.
    SharedDir,
    /// Each thread owns a private directory.
    PrivateDir,
}

/// One thread's job.
#[derive(Debug, Clone)]
pub struct FxmarkJob {
    /// Files to create.
    pub files: usize,
    /// Directory sharing mode.
    pub mode: CreateMode,
    /// Thread index (names files uniquely).
    pub thread: usize,
}

/// Run a create-intensive job on a target. The caller runs one job per
/// thread (each with its own target) and merges the recorders.
pub fn run_create(job: &FxmarkJob, target: &mut dyn FsTarget) -> Result<Recorder, String> {
    let dir = match job.mode {
        CreateMode::SharedDir => "/shared".to_string(),
        CreateMode::PrivateDir => format!("/priv{}", job.thread),
    };
    // Directory may already exist (shared mode, later threads).
    let _ = target.mkdir(&dir);
    let mut rec = Recorder::new(target.now_ns());
    for i in 0..job.files {
        let path = format!("{dir}/t{}f{i}", job.thread);
        let t0 = target.now_ns();
        let fd = target.open(&path, true, false)?;
        target.close(fd)?;
        rec.record(target.now_ns() - t0, 0);
    }
    rec.end_vt = target.now_ns();
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::KernelFsTarget;
    use labstor_kernel::fs::{FsProfile, KernelFs};
    use labstor_kernel::vfs::Vfs;
    use labstor_kernel::BlockLayer;
    use labstor_sim::{DeviceKind, SimDevice};

    fn target() -> KernelFsTarget {
        let vfs = Vfs::new();
        let dev = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount(
            "/mnt",
            KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 8 << 20),
        );
        KernelFsTarget::new(vfs, "/mnt", "ext4", 1, 0)
    }

    #[test]
    fn creates_the_requested_files() {
        let mut t = target();
        let job = FxmarkJob {
            files: 25,
            mode: CreateMode::SharedDir,
            thread: 0,
        };
        let rec = run_create(&job, &mut t).unwrap();
        assert_eq!(rec.ops(), 25);
        assert!(rec.mean_ns() > 0);
        // All files exist.
        assert!(t.stat_size("/shared/t0f24").is_ok());
    }

    #[test]
    fn private_dirs_do_not_collide() {
        let vfs = {
            let vfs = Vfs::new();
            let dev = SimDevice::preset(DeviceKind::Nvme);
            vfs.mount(
                "/mnt",
                KernelFs::new(FsProfile::xfs_like(), BlockLayer::new(dev), 8 << 20),
            );
            vfs
        };
        for thread in 0..3 {
            let mut t = KernelFsTarget::new(vfs.clone(), "/mnt", "xfs", thread as u32 + 1, thread);
            let job = FxmarkJob {
                files: 5,
                mode: CreateMode::PrivateDir,
                thread,
            };
            assert_eq!(run_create(&job, &mut t).unwrap().ops(), 5);
        }
    }
}
