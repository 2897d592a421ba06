//! Property-based tests for the kernel substrate: VFS fd semantics, the
//! PFS striping layer and virtual-time contention. The baseline
//! filesystems are checked against the one file-system model in
//! `tests/fs_model.rs`.

use proptest::prelude::*;

use labstor::kernel::fs::{FsProfile, KernelFs};
use labstor::kernel::vfs::{Cred, OpenFlags, Vfs};
use labstor::kernel::BlockLayer;
use labstor::sim::{Ctx, DeviceKind, SimDevice};
use labstor::workloads::pfs::{Pfs, PfsConfig};
use labstor::workloads::targets::{FsTarget, KernelFsTarget};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pfs_roundtrips_arbitrary_extents(
        writes in proptest::collection::vec(
            (0u64..600_000, proptest::collection::vec(any::<u8>(), 1..30_000)),
            1..8
        )
    ) {
        // Overlapping striped writes must read back like a flat byte array.
        let vfs = Vfs::new();
        let mdev = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount("/m", KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(mdev), 8 << 20));
        let pool: Vec<Box<dyn FsTarget + Send>> = (0..2)
            .map(|i| {
                Box::new(KernelFsTarget::new(vfs.clone(), "/m", "ext4", i + 1, i as usize))
                    as Box<dyn FsTarget + Send>
            })
            .collect();
        let data_servers = (0..3).map(|_| SimDevice::preset(DeviceKind::Nvme)).collect();
        let pfs = Pfs::new(pool, data_servers, PfsConfig::default());

        let mut ctx = Ctx::new();
        let mut flat: Vec<u8> = Vec::new();
        for (offset, data) in &writes {
            pfs.write(&mut ctx, "file", *offset, data).unwrap();
            let end = *offset as usize + data.len();
            if flat.len() < end {
                flat.resize(end, 0);
            }
            flat[*offset as usize..end].copy_from_slice(data);
        }
        let got = pfs.read(&mut ctx, "file", 0, flat.len()).unwrap();
        prop_assert_eq!(got, flat);
    }
}

#[test]
fn vfs_fd_positions_are_per_process() {
    let vfs = Vfs::new();
    let dev = SimDevice::preset(DeviceKind::Nvme);
    vfs.mount(
        "/m",
        KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 1 << 20),
    );
    let mut ctx = Ctx::new();
    let fd_a = vfs
        .open(
            &mut ctx,
            0,
            1,
            Cred::ROOT,
            "/m/x",
            OpenFlags {
                create: true,
                ..Default::default()
            },
            0o644,
        )
        .unwrap();
    vfs.write(&mut ctx, 0, 1, fd_a, b"0123456789").unwrap();
    // Process 2 opens the same file: independent cursor.
    let fd_b = vfs
        .open(&mut ctx, 0, 2, Cred::ROOT, "/m/x", OpenFlags::default(), 0)
        .unwrap();
    let mut buf = [0u8; 4];
    vfs.read(&mut ctx, 0, 2, fd_b, &mut buf).unwrap();
    assert_eq!(&buf, b"0123");
    // Process 1's cursor is still at EOF.
    let mut buf1 = [0u8; 4];
    assert_eq!(vfs.read(&mut ctx, 0, 1, fd_a, &mut buf1).unwrap(), 0);
}

#[test]
fn kernel_fs_virtual_contention_is_monotone_in_threads() {
    // More concurrent creators never *increase* per-create throughput
    // beyond the journal pipeline bound — the Fig. 7 plateau.
    let vfs = Vfs::new();
    let dev = SimDevice::preset(DeviceKind::Nvme);
    vfs.mount(
        "/m",
        KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(dev), 1 << 20),
    );
    let hold = FsProfile::ext4_like().meta_hold_ns;
    let mut targets: Vec<KernelFsTarget> = (0..4)
        .map(|t| KernelFsTarget::new(vfs.clone(), "/m", "ext4", t + 1, t as usize))
        .collect();
    const FILES: usize = 200;
    for i in 0..FILES {
        for (t, target) in targets.iter_mut().enumerate() {
            let fd = target.open(&format!("/t{t}_{i}"), true, false).unwrap();
            target.close(fd).unwrap();
        }
    }
    let span = targets.iter().map(|t| t.ctx.now()).max().unwrap();
    let total_ops = (FILES * targets.len()) as u64;
    // Throughput is capped by serialized journal holds.
    let min_span = total_ops * hold;
    assert!(
        span as f64 > min_span as f64 * 0.8,
        "span {span} cannot beat the journal pipeline bound {min_span}"
    );
}
