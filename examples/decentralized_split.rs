//! Decentralized I/O system designs (paper §III-B).
//!
//! "One approach is to decouple metadata and data operations, enabling
//! security for metadata and increased performance for data operations.
//! In LabStor this can be done by using two separate LabStacks: one for
//! metadata that asynchronously executes in a separate runtime, and
//! another for data that synchronously executes at the client using
//! Driver LabMods."
//!
//! Both stacks name the *same* LabFS instance (same UUID → same Module
//! Registry entry), so block allocations made on the metadata path are
//! the shared state the client-side data path uses — the paper's
//! "state required for the data operations can be stored in shared
//! memory between the two LabStacks".
//!
//! Run with: `cargo run --release --example decentralized_split`

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::mods::DeviceRegistry;
use labstor::sim::DeviceKind;

fn main() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    // Metadata stack: permissions-checked, executed by Runtime workers
    // (a separate address space — the secure path).
    rt.mount_stack_json(
        r#"{
        "mount": "meta::/d", "exec": "async", "authorized_uids": [0],
        "labmods": [
            { "uuid": "ds_perm", "type": "permissions", "outputs": ["ds_fs"] },
            { "uuid": "ds_fs", "type": "labfs", "params": {"device": "nvme0"}, "outputs": ["ds_drv"] },
            { "uuid": "ds_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .expect("metadata stack");

    // Data stack: the same LabFS + driver instances, executed *inline in
    // the client* — no IPC on the data path.
    rt.mount_stack_json(
        r#"{
        "mount": "data::/d", "exec": "sync", "authorized_uids": [0],
        "labmods": [
            { "uuid": "ds_fs", "type": "labfs", "params": {"device": "nvme0"}, "outputs": ["ds_drv"] },
            { "uuid": "ds_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .expect("data stack");

    let meta = rt.ns.get("meta::/d").unwrap();
    let data_stack = rt.ns.get("data::/d").unwrap();
    let mut client = rt.connect(labstor::ipc::Credentials::new(1, 1000, 1000), 1);

    // 1. Metadata op through the secure async path.
    let t0 = client.ctx.now();
    let ino = match client
        .execute(
            &meta,
            Payload::Fs(FsOp::Create {
                path: "/big.dat".into(),
                mode: 0o644,
            }),
        )
        .expect("create")
        .0
    {
        RespPayload::Ino(i) => i,
        other => panic!("create failed: {other:?}"),
    };
    let meta_latency = client.ctx.now() - t0;

    // 2. Data ops through the client-side sync path — same inode, shared
    //    allocator/mapping state, zero IPC.
    //    The bytes go in a pool slot the client fills in place.
    let payload = vec![0x42u8; 64 * 1024];
    let mut buf = client.alloc_buf(payload.len()).expect("a pool slot");
    assert!(buf.fill(&payload));
    let t0 = client.ctx.now();
    let (resp, _) = client
        .execute(
            &data_stack,
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf,
            }),
        )
        .expect("data write");
    assert!(resp.is_ok());
    let data_latency = client.ctx.now() - t0;

    // 3. Read back through the *metadata* view to prove both stacks see
    //    one filesystem.
    let (resp, _) = client
        .execute(
            &meta,
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: payload.len(),
            }),
        )
        .expect("read via meta view");
    match resp.data_parts() {
        Some(parts) => assert_eq!(parts.collect::<Vec<_>>().concat(), payload),
        None => panic!("read failed: {resp:?}"),
    }

    println!(
        "metadata create via secure async path: {:.2} µs",
        meta_latency as f64 / 1e3
    );
    println!(
        "64KB data write via client-side path:  {:.2} µs",
        data_latency as f64 / 1e3
    );
    println!("both views agree on file content ✓");

    // The same create through the data-path-style sync stack (for
    // comparison): cheaper because it skips permissions *and* IPC — the
    // paper's "fully decentralized designs … improving latency (but at a
    // cost to security)".
    let t0 = client.ctx.now();
    client
        .execute(
            &data_stack,
            Payload::Fs(FsOp::Create {
                path: "/fast.dat".into(),
                mode: 0o644,
            }),
        )
        .expect("decentralized create");
    println!(
        "decentralized create (no perms, no IPC):  {:.2} µs",
        (client.ctx.now() - t0) as f64 / 1e3
    );

    rt.shutdown();
    println!("done");
}
