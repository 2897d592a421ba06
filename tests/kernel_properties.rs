//! Property-based tests for the kernel substrate: baseline filesystems
//! against a reference model, VFS fd semantics, and the PFS striping
//! layer.

use proptest::prelude::*;

use labstor::kernel::fs::{FsProfile, KernelFs};
use labstor::kernel::vfs::{Cred, OpenFlags, Vfs};
use labstor::kernel::BlockLayer;
use labstor::sim::{Ctx, DeviceKind, SimDevice};
use labstor::workloads::pfs::{Pfs, PfsConfig};
use labstor::workloads::targets::{FsTarget, KernelFsTarget};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum KfsAction {
    Create(u8),
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Truncate {
        file: u8,
        size: u16,
    },
    Fsync(u8),
    Unlink(u8),
    Rename {
        from: u8,
        to: u8,
    },
}

fn kfs_action() -> impl Strategy<Value = KfsAction> {
    prop_oneof![
        3 => any::<u8>().prop_map(|f| KfsAction::Create(f % 6)),
        4 => (any::<u8>(), any::<u16>(), 1u16..3000, any::<u8>()).prop_map(|(f, o, l, b)| {
            KfsAction::Write { file: f % 6, offset: o % 10_000, len: l, fill: b }
        }),
        3 => (any::<u8>(), any::<u16>(), 1u16..3000).prop_map(|(f, o, l)| {
            KfsAction::Read { file: f % 6, offset: o % 10_000, len: l }
        }),
        1 => (any::<u8>(), any::<u16>()).prop_map(|(f, s)| KfsAction::Truncate {
            file: f % 6,
            size: s % 10_000
        }),
        1 => any::<u8>().prop_map(|f| KfsAction::Fsync(f % 6)),
        1 => any::<u8>().prop_map(|f| KfsAction::Unlink(f % 6)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(f, t)| KfsAction::Rename {
            from: f % 6,
            to: t % 6
        }),
    ]
}

/// Page-cache sizes each profile runs under: one that never evicts, and
/// two pages, where most reads come back from the device after an
/// eviction and its writeback.
const CACHE_BYTES: [usize; 2] = [4 << 20, 2 * 4096];

fn check_kernel_fs(
    profile: FsProfile,
    cache_bytes: usize,
    actions: &[KfsAction],
) -> Result<(), TestCaseError> {
    use labstor::kernel::vfs::Filesystem;
    let dev = SimDevice::preset(DeviceKind::Nvme);
    let fs = KernelFs::new(profile, BlockLayer::new(dev), cache_bytes);
    let mut ctx = Ctx::new();
    let mut model: HashMap<String, (u64, Vec<u8>)> = HashMap::new();
    for a in actions.iter().cloned() {
        match a {
            KfsAction::Create(f) => {
                let path = format!("/f{f}");
                let r = fs.create(&mut ctx, 0, &path, 0o644, Cred::ROOT);
                prop_assert_eq!(r.is_ok(), !model.contains_key(&path));
                if let Ok(ino) = r {
                    model.insert(path, (ino, Vec::new()));
                }
            }
            KfsAction::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let path = format!("/f{file}");
                let Some(&(ino, _)) = model.get(&path) else {
                    continue;
                };
                let data = vec![fill; len as usize];
                let n = fs.write(&mut ctx, 0, ino, offset as u64, &data).unwrap();
                prop_assert_eq!(n, len as usize);
                let content = &mut model.get_mut(&path).unwrap().1;
                let end = offset as usize + len as usize;
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[offset as usize..end].fill(fill);
            }
            KfsAction::Read { file, offset, len } => {
                let path = format!("/f{file}");
                let Some((ino, content)) = model.get(&path) else {
                    continue;
                };
                let mut buf = vec![0u8; len as usize];
                let n = fs.read(&mut ctx, 0, *ino, offset as u64, &mut buf).unwrap();
                let start = (offset as usize).min(content.len());
                let end = (offset as usize + len as usize).min(content.len());
                prop_assert_eq!(n, end - start);
                prop_assert_eq!(&buf[..n], &content[start..end]);
            }
            KfsAction::Truncate { file, size } => {
                let path = format!("/f{file}");
                let Some(&(ino, _)) = model.get(&path) else {
                    continue;
                };
                fs.truncate(&mut ctx, 0, ino, size as u64).unwrap();
                let content = &mut model.get_mut(&path).unwrap().1;
                content.resize(size as usize, 0);
            }
            KfsAction::Fsync(f) => {
                let path = format!("/f{f}");
                let Some(&(ino, _)) = model.get(&path) else {
                    continue;
                };
                fs.fsync(&mut ctx, 0, ino).unwrap();
            }
            KfsAction::Unlink(f) => {
                let path = format!("/f{f}");
                let r = fs.unlink(&mut ctx, 0, &path, Cred::ROOT);
                prop_assert_eq!(r.is_ok(), model.remove(&path).is_some());
            }
            KfsAction::Rename { from, to } => {
                let (fp, tp) = (format!("/f{from}"), format!("/f{to}"));
                let r = fs.rename(&mut ctx, 0, &fp, &tp, Cred::ROOT);
                prop_assert_eq!(r.is_ok(), model.contains_key(&fp));
                if r.is_ok() && from != to {
                    let entry = model.remove(&fp).expect("exists");
                    model.insert(tp, entry);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ext4_like_matches_model(actions in proptest::collection::vec(kfs_action(), 0..50)) {
        for cache_bytes in CACHE_BYTES {
            check_kernel_fs(FsProfile::ext4_like(), cache_bytes, &actions)?;
        }
    }

    #[test]
    fn xfs_like_matches_model(actions in proptest::collection::vec(kfs_action(), 0..50)) {
        for cache_bytes in CACHE_BYTES {
            check_kernel_fs(FsProfile::xfs_like(), cache_bytes, &actions)?;
        }
    }

    #[test]
    fn f2fs_like_matches_model(actions in proptest::collection::vec(kfs_action(), 0..50)) {
        for cache_bytes in CACHE_BYTES {
            check_kernel_fs(FsProfile::f2fs_like(), cache_bytes, &actions)?;
        }
    }

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
