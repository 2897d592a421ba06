//! Quickstart: mount a LabStack from a spec file and do file I/O.
//!
//! This walks the paper's §III-E example end to end:
//!
//! 1. register simulated devices (stand-ins for `/dev/nvme0n1`),
//! 2. start the LabStor Runtime and install the bundled LabMod repo,
//! 3. mount a LabStack — permissions → LabFS → LRU cache → NoOp
//!    scheduler → Kernel Driver — from a human-readable spec,
//! 4. talk POSIX to it through the GenericFS connector.
//!
//! Run with: `cargo run --release --example quickstart`

use labstor::core::{Runtime, RuntimeConfig};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;

fn main() {
    // 1. The machine's storage (a simulated Intel P3700-class NVMe).
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);

    // 2. Runtime + LabMod repo.
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    // 3. A LabStack spec — the paper's "human-readable schema file".
    let spec = r#"{
        "mount": "fs::/b",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "perm1",  "type": "permissions",  "outputs": ["labfs1"] },
            { "uuid": "labfs1", "type": "labfs",
              "params": {"device": "nvme0", "workers": 4}, "outputs": ["lru1"] },
            { "uuid": "lru1",   "type": "lru_cache",
              "params": {"capacity_bytes": 67108864},     "outputs": ["sched1"] },
            { "uuid": "sched1", "type": "noop_sched",     "outputs": ["drv1"] },
            { "uuid": "drv1",   "type": "kernel_driver",
              "params": {"device": "nvme0"} }
        ]
    }"#;
    let stack = rt.mount_stack_json(spec).expect("mount LabStack");
    println!(
        "mounted LabStack '{}' (id {}, {} LabMods)",
        stack.mount,
        stack.id,
        stack.vertices.len()
    );

    // 4. A client app doing POSIX through GenericFS (the LD_PRELOAD shim).
    let client = rt.connect(labstor::ipc::Credentials::new(1, 1000, 1000), 1);
    let mut fs = GenericFs::new(client);

    let fd = fs.open("fs::/b/hello.txt", true, false).expect("open");
    let hello = b"Hello from a userspace I/O stack!";
    let n = fs.write(fd, hello).expect("write");
    fs.fsync(fd).expect("fsync");
    fs.seek(fd, 0).expect("seek");
    let back = fs.read(fd, n).expect("read");
    fs.close(fd).expect("close");
    println!(
        "wrote and read back {n} bytes: {:?}",
        String::from_utf8_lossy(&back)
    );
    assert_eq!((n, &back[..]), (33, &hello[..]), "the bytes read back");

    let st = fs.stat("fs::/b/hello.txt").expect("stat");
    println!("stat: ino={} size={} mode={:o}", st.ino, st.size, st.mode);
    assert_eq!(st.size, 33, "stat's size");

    // Virtual-time accounting: what this I/O *would* have cost on the
    // modeled hardware.
    println!(
        "client spent {:.1} µs of virtual time ({} ns busy)",
        fs.client().ctx.now() as f64 / 1e3,
        fs.client().ctx.busy()
    );

    rt.shutdown();
    println!("done");
}
