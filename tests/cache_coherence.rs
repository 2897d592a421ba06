//! A block cache under LabFS must never serve bytes an overwrite replaced.
//!
//! LabFS coalesces a multi-page write into one block request but used to
//! read back page by page, and the caches stored each request as one entry
//! under its first lba: the page-sized entries the read-back filled were
//! left stale by the next multi-page overwrite. Both cache LabMods are
//! driven through labfs → cache → kernel_driver here, with every client
//! API that reaches them.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

const PAGE: usize = 4096;

fn mount(cache: &str) -> (std::sync::Arc<Runtime>, GenericFs) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 1,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    let spec = format!(
        r#"{{
            "mount": "fs::/cc",
            "exec": "async",
            "authorized_uids": [0],
            "labmods": [
                {{ "uuid": "cc_fs", "type": "labfs", "params": {{"device": "nvme0", "workers": 1}}, "outputs": ["cc_cache"] }},
                {{ "uuid": "cc_cache", "type": "{cache}", "params": {{"capacity_bytes": 4194304}}, "outputs": ["cc_drv"] }},
                {{ "uuid": "cc_drv", "type": "kernel_driver", "params": {{"device": "nvme0"}} }}
            ]
        }}"#
    );
    rt.mount_stack_json(&spec).unwrap();
    let fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    (rt, fs)
}

/// Which pages of `got` differ from `want`.
fn stale_pages(got: &[u8], want: &[u8]) -> Vec<usize> {
    assert_eq!(got.len(), want.len());
    (0..got.len().div_ceil(PAGE))
        .filter(|&p| {
            let range = p * PAGE..got.len().min((p + 1) * PAGE);
            got[range.clone()] != want[range]
        })
        .collect()
}

fn legacy_overwrite_is_visible(cache: &str) {
    let (rt, mut fs) = mount(cache);
    let fd = fs.open("fs::/cc/legacy.bin", true, false).unwrap();
    let (gen_a, gen_b) = (vec![0xAA; 4 * PAGE], vec![0xBB; 4 * PAGE]);
    assert_eq!(fs.write(fd, &gen_a).unwrap(), gen_a.len());
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, gen_a.len()).unwrap(), gen_a);
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.write(fd, &gen_b).unwrap(), gen_b.len());
    fs.seek(fd, 0).unwrap();
    let got = fs.read(fd, gen_b.len()).unwrap();
    assert_eq!(stale_pages(&got, &gen_b), Vec::<usize>::new(), "{cache}");
    // Page by page as well: every granularity sees the same bytes.
    for page in 0..4 {
        fs.seek(fd, (page * PAGE) as u64).unwrap();
        assert_eq!(
            fs.read(fd, PAGE).unwrap(),
            gen_b[..PAGE],
            "{cache} page {page}"
        );
    }
    rt.shutdown();
}

fn pool_handle_overwrite_is_visible(cache: &str) {
    let (rt, mut fs) = mount(cache);
    let fd = fs.open("fs::/cc/handle.bin", true, false).unwrap();
    let pool = labstor::ipc::default_pool();
    let (gen_a, gen_b) = (vec![0xA5; 4 * PAGE], vec![0x5B; 4 * PAGE]);
    for (round, generation) in [&gen_a, &gen_b].into_iter().enumerate() {
        fs.seek(fd, 0).unwrap();
        let buf = pool.alloc_from(generation).expect("pool has a 16 KiB slot");
        assert_eq!(fs.write_buf(fd, buf).unwrap(), generation.len());
        // Whole, then page by page (which is what used to plant the
        // page-sized entries the next round's overwrite left behind).
        fs.seek(fd, 0).unwrap();
        let got = fs.read_buf(fd, generation.len()).unwrap();
        assert_eq!(
            stale_pages(got.as_slice(), generation),
            Vec::<usize>::new(),
            "{cache} round {round}"
        );
        for page in 0..4 {
            fs.seek(fd, (page * PAGE) as u64).unwrap();
            let got = fs.read_buf(fd, PAGE).unwrap();
            assert_eq!(got.as_slice(), &generation[..PAGE], "{cache} page {page}");
        }
    }
    rt.shutdown();
}

fn unaligned_overwrite_is_visible(cache: &str) {
    let (rt, mut fs) = mount(cache);
    let fd = fs.open("fs::/cc/straddle.bin", true, false).unwrap();
    let mut want = vec![0x11; 4 * PAGE];
    assert_eq!(fs.write(fd, &want).unwrap(), want.len());
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, want.len()).unwrap(), want);
    // 1000 bytes straddling the boundary between pages 1 and 2.
    let at = 2 * PAGE - 300;
    fs.seek(fd, at as u64).unwrap();
    assert_eq!(fs.write(fd, &[0x77; 1000]).unwrap(), 1000);
    want[at..at + 1000].fill(0x77);
    fs.seek(fd, 0).unwrap();
    let got = fs.read(fd, want.len()).unwrap();
    assert_eq!(stale_pages(&got, &want), Vec::<usize>::new(), "{cache}");
    // And a multi-page overwrite on top of the patched pages.
    fs.seek(fd, PAGE as u64).unwrap();
    assert_eq!(fs.write(fd, &vec![0x33; 2 * PAGE]).unwrap(), 2 * PAGE);
    want[PAGE..3 * PAGE].fill(0x33);
    fs.seek(fd, 0).unwrap();
    let got = fs.read(fd, want.len()).unwrap();
    assert_eq!(stale_pages(&got, &want), Vec::<usize>::new(), "{cache}");
    rt.shutdown();
}

#[test]
fn lru_cache_never_serves_overwritten_bytes() {
    legacy_overwrite_is_visible("lru_cache");
    pool_handle_overwrite_is_visible("lru_cache");
    unaligned_overwrite_is_visible("lru_cache");
}

#[test]
fn arc_cache_never_serves_overwritten_bytes() {
    legacy_overwrite_is_visible("arc_cache");
    pool_handle_overwrite_is_visible("arc_cache");
    unaligned_overwrite_is_visible("arc_cache");
}
