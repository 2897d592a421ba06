//! The LABIOS worker workload (Fig. 9b).
//!
//! LABIOS stores *labels*. "Typically, LABIOS stores labels by translating
//! them to a UNIX file which is written on the disk by POSIX I/O. Each
//! label write triggers a sequence of POSIX calls (fopen(), fseek(),
//! ftruncate(), fclose())" — four syscalls. The LabKVS backend "simply
//! performs put/get, which reduces the number of syscalls from 4 down
//! to 1."

use labstor_mods::generic::GenericKvs;

use crate::fio::XorShift;
use crate::stats::Recorder;
use crate::targets::FsTarget;

/// One LABIOS worker job.
#[derive(Debug, Clone)]
pub struct LabiosJob {
    /// Labels to store.
    pub(crate) labels: usize,
    /// Label payload size (the paper uses 8 KB).
    pub(crate) label_bytes: usize,
    /// Random (true, NVMe test) or sequential label ids.
    pub(crate) random: bool,
    /// Number of distinct label ids (steady-state workers overwrite a
    /// bounded label space; only the first touch of an id creates).
    pub(crate) id_space: u64,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl LabiosJob {
    /// The paper's configuration: 8 KB labels, random, single thread,
    /// steady-state overwrites over a bounded id space.
    pub fn paper(labels: usize) -> Self {
        LabiosJob {
            labels,
            label_bytes: 8 * 1024,
            random: true,
            id_space: (labels as u64 / 4).max(1),
            seed: 9,
        }
    }
}

/// Store labels through a POSIX file backend: open-seek-write-close per
/// label (the file-translation path).
pub fn run_file_backend(job: &LabiosJob, target: &mut dyn FsTarget) -> Result<Recorder, String> {
    let mut rng = XorShift::new(job.seed);
    let payload: Vec<u8> = (0..job.label_bytes).map(|i| (i % 251) as u8).collect();
    let mut rec = Recorder::new(target.now_ns());
    for i in 0..job.labels {
        let id = if job.random {
            rng.next() % job.id_space
        } else {
            i as u64 % job.id_space
        };
        let path = format!("/label_{id}");
        let t0 = target.now_ns();
        // fopen / fseek / fwrite / fclose — the four-call sequence.
        let fd = target.open(&path, true, false)?;
        target.seek(fd, 0)?;
        let n = target.write(fd, &payload)?;
        target.close(fd)?;
        rec.record(target.now_ns() - t0, n);
    }
    rec.end_vt = target.now_ns();
    Ok(rec)
}

/// Store labels through LabKVS: one put per label.
pub fn run_kvs_backend(job: &LabiosJob, kvs: &mut GenericKvs) -> Result<Recorder, String> {
    let mut rng = XorShift::new(job.seed);
    let payload: Vec<u8> = (0..job.label_bytes).map(|i| (i % 251) as u8).collect();
    let mut rec = Recorder::new(kvs.client().ctx.now());
    for i in 0..job.labels {
        let id = if job.random {
            rng.next() % job.id_space
        } else {
            i as u64 % job.id_space
        };
        let key = format!("/label_{id}");
        let t0 = kvs.client().ctx.now();
        let n = kvs.put(&key, payload.clone()).map_err(|e| e.to_string())?;
        rec.record(kvs.client().ctx.now() - t0, n);
    }
    rec.end_vt = kvs.client().ctx.now();
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::KernelFsTarget;
    use labstor_core::{Runtime, RuntimeConfig, StackSpec, VertexSpec};
    use labstor_kernel::fs::{FsProfile, KernelFs};
    use labstor_kernel::vfs::Vfs;
    use labstor_kernel::BlockLayer;
    use labstor_mods::DeviceRegistry;
    use labstor_sim::{DeviceKind, SimDevice};

    #[test]
    fn file_backend_stores_labels() {
        let vfs = Vfs::new();
        let dev = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount(
            "/mnt",
            KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 8 << 20),
        );
        let mut t = KernelFsTarget::new(vfs, "/mnt", "ext4", 1, 0);
        let job = LabiosJob {
            labels: 10,
            label_bytes: 8192,
            random: false,
            id_space: 10,
            seed: 1,
        };
        let rec = run_file_backend(&job, &mut t).unwrap();
        assert_eq!(rec.ops(), 10);
        assert_eq!(rec.bytes, 10 * 8192);
        assert_eq!(t.stat_size("/label_3").unwrap(), 8192);
    }

    #[test]
    fn kvs_backend_beats_file_backend() {
        // Same device model; KVS needs 1 op per label vs 4 syscalls.
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        let rt = Runtime::start(RuntimeConfig {
            auto_admin: false,
            ..Default::default()
        });
        labstor_mods::install_all(&rt.mm, &devices);
        let spec = StackSpec {
            mount: "/".into(),
            exec: "sync".into(),
            authorized_uids: vec![0],
            labmods: vec![
                VertexSpec {
                    uuid: "kvs1".into(),
                    type_name: "labkvs".into(),
                    params: serde_json::json!({"device": "nvme0", "workers": 4}),
                    outputs: vec!["drv1".into()],
                },
                VertexSpec {
                    uuid: "drv1".into(),
                    type_name: "kernel_driver".into(),
                    params: serde_json::json!({"device": "nvme0"}),
                    outputs: vec![],
                },
            ],
        };
        rt.mount_stack(&spec).unwrap();
        let client = rt.connect(labstor_ipc::Credentials::new(1, 0, 0), 1);
        let mut kvs = GenericKvs::new(client);
        let job = LabiosJob::paper(200);
        let kv_rec = run_kvs_backend(&job, &mut kvs).unwrap();
        rt.shutdown();

        // Sustained-write regime: a low dirty threshold keeps the kernel
        // path device-bound like the paper's long-running LABIOS workers.
        let vfs = Vfs::new();
        let dev2 = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount(
            "/mnt",
            KernelFs::with_dirty_threshold(
                FsProfile::ext4_like(),
                BlockLayer::new(dev2),
                8 << 20,
                16 << 10,
            ),
        );
        let mut t = KernelFsTarget::new(vfs, "/mnt", "ext4", 1, 0);
        let file_rec = run_file_backend(&job, &mut t).unwrap();

        assert_eq!(kv_rec.ops(), 200);
        assert!(
            kv_rec.mean_ns() < file_rec.mean_ns(),
            "kvs {} ns vs file {} ns",
            kv_rec.mean_ns(),
            file_rec.mean_ns()
        );
    }
}
