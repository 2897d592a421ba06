//! Composable I/O services: active storage, interface convergence, and
//! dynamic semantics imposition (paper §III-B).
//!
//! This example demonstrates three of the paper's LabStack benefits:
//!
//! * **Active storage** — a compression LabMod transparently compresses
//!   data before it reaches the driver.
//! * **Interface convergence** — a POSIX stack and a KVS stack deployed
//!   side by side on the same machine, no translation middleware.
//! * **Dynamic semantics imposition** — strengthening a running stack's
//!   durability by inserting a consistency LabMod with `modify_stack`,
//!   while the application keeps running.
//!
//! Run with: `cargo run --release --example custom_stack`

use labstor::core::stack::Vertex;
use labstor::core::{BlockOp, Payload, Runtime, RuntimeConfig};
use labstor::mods::{DeviceRegistry, GenericFs, GenericKvs};
use labstor::sim::{BlockDevice, DeviceKind};

fn main() {
    let devices = DeviceRegistry::new();
    let nvme = devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    // --- Active storage: a compressing block stack -----------------------
    let compress_spec = r#"{
        "mount": "blk::/z",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "zip1", "type": "compress", "outputs": ["zdrv1"] },
            { "uuid": "zdrv1", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#;
    let zstack = rt
        .mount_stack_json(compress_spec)
        .expect("compression stack");
    let mut client = rt.connect(labstor::ipc::Credentials::new(1, 0, 0), 1);

    let compressible: Vec<u8> = std::iter::repeat_n(b"temperature=23.4 pressure=1013 ", 4096)
        .flatten()
        .copied()
        .collect();
    let before = nvme.stats().snapshot().bytes_written;
    let (resp, latency) = client
        .execute(
            &zstack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: compressible.clone(),
            }),
        )
        .expect("compressed write");
    assert!(resp.is_ok());
    let stored = nvme.stats().snapshot().bytes_written - before;
    println!(
        "active storage: wrote {} bytes, device stored {} bytes ({:.0}:1), {:.1} µs",
        compressible.len(),
        stored,
        compressible.len() as f64 / stored as f64,
        latency as f64 / 1e3
    );
    let (resp, _) = client
        .execute(
            &zstack,
            Payload::Block(BlockOp::ReadBuf {
                lba: 0,
                len: compressible.len(),
            }),
        )
        .expect("read back");
    let parts = resp.data_parts().expect("read back data");
    assert_eq!(parts.collect::<Vec<_>>().concat(), compressible);
    println!("active storage: transparent decompression verified");

    // --- Interface convergence: POSIX and KVS side by side ----------------
    devices.add_preset("nvme1", DeviceKind::Nvme);
    rt.mount_stack_json(
        r#"{
        "mount": "fs::/data",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "cfs", "type": "labfs", "params": {"device": "nvme1"}, "outputs": ["cfsd"] },
            { "uuid": "cfsd", "type": "kernel_driver", "params": {"device": "nvme1"} }
        ]
    }"#,
    )
    .expect("posix stack");
    rt.mount_stack_json(
        r#"{
        "mount": "kv::/data",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "ckv", "type": "labkvs", "params": {"device": "nvme1"}, "outputs": ["ckvd"] },
            { "uuid": "ckvd", "type": "kernel_driver", "params": {"device": "nvme1"} }
        ]
    }"#,
    )
    .expect("kvs stack");

    let mut fs = GenericFs::new(rt.connect(labstor::ipc::Credentials::new(2, 0, 0), 1));
    let fd = fs.open("fs::/data/report.txt", true, false).expect("open");
    fs.write(fd, b"quarterly numbers").expect("write");
    fs.close(fd).expect("close");

    let mut kvs = GenericKvs::new(rt.connect(labstor::ipc::Credentials::new(3, 0, 0), 1));
    kvs.put("kv::/data/report-meta", b"author=alice".to_vec())
        .expect("put");
    println!(
        "interface convergence: POSIX file ({} bytes) and KV pair ({:?}) on one device",
        fs.stat("fs::/data/report.txt").expect("stat").size,
        String::from_utf8_lossy(&kvs.get("kv::/data/report-meta").expect("get")),
    );

    // --- Dynamic semantics: insert a consistency stage live ---------------
    rt.mm
        .instantiate("fsync1", "consistency", &serde_json_policy())
        .expect("consistency mod");
    let old = rt.ns.get("blk::/z").expect("mounted");
    let mut vertices = old.vertices.clone();
    // zip1 → fsync1 → zdrv1
    let drv_idx = 1;
    vertices.push(Vertex {
        uuid: "fsync1".into(),
        outputs: vec![drv_idx],
    });
    let fsync_idx = vertices.len() - 1;
    vertices[0].outputs = vec![fsync_idx];
    rt.ns.modify("blk::/z", 0, vertices).expect("modify_stack");
    println!("dynamic semantics: consistency LabMod inserted into blk::/z while mounted");

    let zstack = rt.ns.get("blk::/z").expect("still mounted");
    let flushes_before = nvme.stats().snapshot().ops();
    let (resp, _) = client
        .execute(
            &zstack,
            Payload::Block(BlockOp::Write {
                lba: 4096,
                data: vec![7u8; 4096],
            }),
        )
        .expect("durable write");
    assert!(resp.is_ok());
    println!(
        "dynamic semantics: write now flows zip1 → fsync1 → driver (device ops {} → {})",
        flushes_before,
        nvme.stats().snapshot().ops()
    );

    rt.shutdown();
    println!("done");
}

fn serde_json_policy() -> serde_json::Value {
    serde_json::json!({"policy": "flush_each"})
}
