//! Crash recovery (paper §III-C3) and LabFS log replay.
//!
//! "If the LabStor Runtime crashes, Wait will eventually detect that the
//! Runtime is offline and wait for it to be restarted … If restarted, the
//! LabStor client library in each process will iterate over the LabStack
//! Namespace, invoke the StateRepair API in each LabMod, and then
//! continue."
//!
//! LabFS's `state_repair` is a real recovery: it drops all in-memory
//! metadata and rebuilds it by replaying the per-worker logs persisted on
//! the device — so files that were fsync'd survive the crash, and data
//! blocks are still reachable through the replayed mappings.
//!
//! Run with: `cargo run --release --example crash_recovery`

use labstor::core::{FsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::mods::DeviceRegistry;
use labstor::sim::DeviceKind;

fn main() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    let stack = rt
        .mount_stack_json(
            r#"{
        "mount": "fs::/p",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "pfs1", "type": "labfs", "params": {"device": "nvme0"}, "outputs": ["pdrv1"] },
            { "uuid": "pdrv1", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
        )
        .expect("mount");
    let mut client = rt.connect(labstor::ipc::Credentials::new(1, 0, 0), 1);

    // Write a file and fsync it: the metadata log reaches the device.
    let ino = match client
        .execute(
            &stack,
            Payload::Fs(FsOp::Create {
                path: "/journal.dat".into(),
                mode: 0o600,
            }),
        )
        .expect("create")
        .0
    {
        RespPayload::Ino(i) => i,
        other => panic!("create failed: {other:?}"),
    };
    // The bytes go in a pool slot the client fills in place.
    let payload: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
    let mut buf = client.alloc_buf(payload.len()).expect("a pool slot");
    assert!(buf.fill(&payload));
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf,
            }),
        )
        .expect("write");
    assert!(resp.is_ok(), "write failed: {resp:?}");
    client
        .execute(&stack, Payload::Fs(FsOp::Fsync { ino }))
        .expect("fsync");
    // A second file, created but *not* fsync'd: honest log-structured
    // semantics say a crash loses it.
    client
        .execute(
            &stack,
            Payload::Fs(FsOp::Create {
                path: "/volatile.tmp".into(),
                mode: 0o600,
            }),
        )
        .expect("create volatile");
    println!("wrote /journal.dat (fsync'd) and /volatile.tmp (not fsync'd)");

    // Crash the Runtime: workers die, clients see it offline. A client
    // request issued now fails over and waits for restart.
    println!("simulating Runtime crash…");
    rt.crash();
    assert!(!rt.ipc.is_online());

    // The administrator restarts it; restart() re-spawns workers and runs
    // state_repair on every registered LabMod (LabFS replays its log).
    println!("administrator restarts the Runtime (LabMods run StateRepair)…");
    rt.restart();
    assert!(rt.ipc.is_online());

    // The fsync'd file survives, with its data.
    let (resp, _) = client
        .execute_with_retry(
            &stack,
            Payload::Fs(FsOp::Stat {
                path: "/journal.dat".into(),
            }),
        )
        .expect("stat after recovery");
    match resp {
        RespPayload::Stat(st) => {
            println!(
                "/journal.dat recovered: size {} mode {:o}",
                st.size, st.mode
            );
            assert_eq!(st.size, payload.len() as u64);
        }
        other => panic!("stat failed: {other:?}"),
    }
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: payload.len(),
            }),
        )
        .expect("read after recovery");
    match resp.data_parts() {
        Some(parts) => {
            assert_eq!(parts.collect::<Vec<_>>().concat(), payload);
            println!("data blocks intact through the replayed mappings ✓");
        }
        None => panic!("read failed: {resp:?}"),
    }

    // The unsynced file is gone — the log never reached the device.
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Fs(FsOp::Stat {
                path: "/volatile.tmp".into(),
            }),
        )
        .expect("stat volatile");
    assert!(!resp.is_ok(), "unsynced create must not survive: {resp:?}");
    println!("/volatile.tmp lost, as log-structured semantics dictate ✓");

    rt.shutdown();
    println!("done");
}
