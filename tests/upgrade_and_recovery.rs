//! Integration tests for live upgrades, crash recovery, and failure
//! injection across the whole platform.

use labstor::core::{
    FsOp, Payload, RespPayload, Runtime, RuntimeConfig, UpgradeKind, UpgradeRequest,
};
use labstor::ipc::Credentials;
use labstor::mods::dummy::DummyMod;
use labstor::mods::DeviceRegistry;
use labstor::sim::DeviceKind;
use std::sync::Arc;

fn platform() -> (Arc<Runtime>, Arc<DeviceRegistry>) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 2,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    (rt, devices)
}

const DUMMY_SPEC: &str = r#"{
    "mount": "dummy::/",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [ { "uuid": "ur_dummy", "type": "dummy", "params": {"work_ns": 2000} } ]
}"#;

#[test]
fn centralized_upgrade_under_traffic_preserves_state() {
    let (rt, d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);

    const N: usize = 5000;
    for i in 0..N {
        if i == N / 2 {
            rt.request_upgrade(UpgradeRequest {
                uuid: "ur_dummy".into(),
                type_name: "dummy".into(),
                params: serde_json::json!({"work_ns": 2000}),
                kind: UpgradeKind::Centralized,
                code_bytes: 1 << 20,
                code_device: Some(d.block("nvme0").unwrap()),
            });
        }
        let (resp, _) = client
            .execute(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
        assert!(
            matches!(resp, RespPayload::Ok),
            "message {i} failed after upgrade"
        );
    }
    let m = rt.mm.get("ur_dummy").unwrap();
    let dm = m.as_any().downcast_ref::<DummyMod>().unwrap();
    assert!(dm.version >= 2, "new code installed");
    assert_eq!(
        dm.count(),
        N as u64,
        "counter transferred and kept counting"
    );
    rt.shutdown();
}

#[test]
fn decentralized_upgrade_also_works() {
    let (rt, d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    for _ in 0..100 {
        client
            .execute(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
    }
    rt.request_upgrade(UpgradeRequest {
        uuid: "ur_dummy".into(),
        type_name: "dummy".into(),
        params: serde_json::Value::Null,
        kind: UpgradeKind::Decentralized,
        code_bytes: 1 << 20,
        code_device: Some(d.block("nvme0").unwrap()),
    });
    for _ in 0..200 {
        let (resp, _) = client
            .execute(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
        assert!(resp.is_ok());
    }
    let m = rt.mm.get("ur_dummy").unwrap();
    assert_eq!(m.as_any().downcast_ref::<DummyMod>().unwrap().count(), 300);
    rt.shutdown();
}

#[test]
fn upgrade_pause_costs_virtual_time() {
    let (rt, d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    for _ in 0..50 {
        client
            .execute(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
    }
    let before = client.ctx.now();
    rt.request_upgrade(UpgradeRequest {
        uuid: "ur_dummy".into(),
        type_name: "dummy".into(),
        params: serde_json::Value::Null,
        kind: UpgradeKind::Centralized,
        code_bytes: 1 << 20,
        code_device: Some(d.block("nvme0").unwrap()),
    });
    // Let the admin thread pick the upgrade up (real-time wait), then the
    // resumed timeline must reflect the pause.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while rt.mm.pending_upgrades() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "admin never processed the upgrade"
        );
        std::thread::yield_now();
    }
    for _ in 0..50 {
        client
            .execute(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
    }
    // The ~4 ms upgrade (1 MB code read + link) lands on the timeline.
    assert!(
        client.ctx.now() - before > 3_000_000,
        "upgrade pause missing from virtual time: {} ns",
        client.ctx.now() - before
    );
    rt.shutdown();
}

#[test]
fn crash_then_restart_recovers_labfs_state() {
    let (rt, _d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "fs::/r",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "ur_fs", "type": "labfs", "params": {"device": "nvme0"}, "outputs": ["ur_drv"] },
            { "uuid": "ur_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("fs::/r").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);

    let ino = match client
        .execute(
            &stack,
            Payload::Fs(FsOp::Create {
                path: "/kept".into(),
                mode: 0o644,
            }),
        )
        .unwrap()
        .0
    {
        RespPayload::Ino(i) => i,
        other => panic!("{other:?}"),
    };
    let data = vec![0xABu8; 12_288];
    client
        .execute(
            &stack,
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: data.clone(),
            }),
        )
        .unwrap();
    client
        .execute(&stack, Payload::Fs(FsOp::Fsync { ino }))
        .unwrap();

    rt.crash();
    assert!(!rt.ipc.is_online());
    rt.restart();

    let (resp, _) = client
        .execute_with_retry(
            &stack,
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
        )
        .unwrap();
    match resp {
        RespPayload::Data(d) => assert_eq!(d, data, "log replay restored the mapping"),
        other => panic!("read failed after recovery: {other:?}"),
    }
    rt.shutdown();
}

#[test]
fn client_sees_runtime_down_without_restart() {
    let (rt, _d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    client.offline_timeout = std::time::Duration::from_millis(100);
    client
        .execute(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap();
    rt.crash();
    let err = client
        .execute(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap_err();
    assert_eq!(err, labstor::core::client::ClientError::RuntimeDown);
    rt.shutdown();
}

#[test]
fn runtime_down_detection_parks_and_honors_the_timeout() {
    // Post-PR 9 the crashed-runtime wait parks on the liveness doorbell
    // instead of spin-checking. A crash with no restart must still
    // resolve: the client waits out `offline_timeout` (no bell ever
    // rings "online") and returns the typed error — neither hanging on
    // the park nor returning before the restart window has passed.
    let (rt, _d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    client.offline_timeout = std::time::Duration::from_millis(200);
    rt.crash();
    let started = std::time::Instant::now();
    let err = client
        .execute(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(err, labstor::core::client::ClientError::RuntimeDown);
    assert!(
        elapsed >= std::time::Duration::from_millis(150),
        "gave up before the restart window: {elapsed:?}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "parked wait failed to time out: {elapsed:?}"
    );
    rt.shutdown();
}

#[test]
fn device_faults_surface_as_errors_not_hangs() {
    let (rt, d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/f",
        "exec": "sync",
        "authorized_uids": [0],
        "labmods": [ { "uuid": "ur_fdrv", "type": "kernel_driver", "params": {"device": "nvme0"} } ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("blk::/f").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    d.block("nvme0").unwrap().faults().set_period(2); // every 2nd op fails
    let mut failures = 0;
    for i in 0..10 {
        let (resp, _) = client
            .execute(
                &stack,
                Payload::Block(labstor::core::BlockOp::Write {
                    lba: i * 8,
                    data: vec![0u8; 512],
                }),
            )
            .unwrap();
        if !resp.is_ok() {
            failures += 1;
        }
    }
    assert_eq!(
        failures, 5,
        "deterministic injection: every 2nd command fails"
    );
    rt.shutdown();
}

#[test]
fn crash_between_handoff_and_policy_apply_loses_no_envelopes() {
    use labstor::ipc::UpgradeFlag;
    use labstor::qos::TenantPolicy;
    use std::collections::HashSet;

    // Manual admin: the test plays the admin thread so it can kill the
    // Runtime at an exact point of the admin sequence — after the
    // rebalance drain-and-handoff paused the tenant's queues, before
    // `apply_pending` applies the staged policy update.
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 2,
        auto_admin: false,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();

    let creds = Credentials::new(9, 9, 9);
    let mut client = rt.connect_with_policy(creds, 2, TenantPolicy::default().with_weight(1));
    let m = rt.mm.get("ur_dummy").unwrap();
    let dm = m.as_any().downcast_ref::<DummyMod>().unwrap();

    // Warm-up traffic establishes an applied queue shape.
    const WARM: u64 = 50;
    for _ in 0..WARM {
        client
            .execute(&stack, Payload::Dummy { work_ns: 1000 })
            .unwrap();
    }
    rt.admin_tick();
    assert_eq!(dm.count(), WARM);

    // The admin pauses the queues for a drain-and-handoff
    // (UPDATE_PENDING) and the workers ack, parking the rings…
    let queues = rt.ipc.primary_queues();
    for q in &queues {
        q.mark_update_pending();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while queues
        .iter()
        .any(|q| q.upgrade_flag() == UpgradeFlag::UpdatePending)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "workers never acked the pause"
        );
        std::thread::yield_now();
    }

    // …so a burst submitted now is genuinely in flight: admitted into
    // the rings, consumed by nobody.
    const BURST: usize = 48;
    let ids = client
        .submit_all(&stack, vec![Payload::Dummy { work_ns: 1000 }; BURST])
        .unwrap();
    assert_eq!(client.in_flight(), BURST);
    assert_eq!(dm.count(), WARM, "paused queues must not be consumed");

    // A tenant policy update is staged but not yet applied…
    rt.tenants
        .request_policy_update(creds.tenant, TenantPolicy::default().with_weight(4));
    assert_eq!(rt.tenants.policy(creds.tenant).unwrap().weight, 1);

    // …and the Runtime dies right there, between the handoff and
    // `apply_pending`. The pause flags and the staged update both
    // survive the crash (they live outside the workers).
    rt.crash();
    assert!(!rt.ipc.is_online());

    // Restart; the next admin tick applies the staged policy.
    rt.restart();
    rt.admin_tick();
    assert_eq!(rt.tenants.policy(creds.tenant).unwrap().weight, 4);

    // Every parked envelope completes exactly once: none lost to the
    // stale pause flags, none duplicated by a second consumer.
    let mut seen = HashSet::new();
    for _ in 0..BURST {
        let (resp, _) = client.reap_one().expect("in-flight envelope lost");
        assert!(resp.payload.is_ok());
        assert!(seen.insert(resp.id), "envelope {} completed twice", resp.id);
    }
    let submitted: HashSet<u64> = ids.into_iter().collect();
    assert_eq!(
        seen, submitted,
        "completions must match the submitted burst"
    );
    assert_eq!(
        dm.count(),
        WARM + BURST as u64,
        "each envelope processed exactly once across the crash"
    );
    rt.shutdown();
}

#[test]
fn repair_all_is_idempotent() {
    let (rt, _d) = platform();
    rt.mount_stack_json(DUMMY_SPEC).unwrap();
    rt.mm.repair_all();
    rt.mm.repair_all();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let (resp, _) = client
        .execute(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap();
    assert!(resp.is_ok());
    rt.shutdown();
}

#[test]
fn storage_mod_upgrade_mid_workload_keeps_every_pre_upgrade_byte() {
    use labstor::core::KvsOp;

    let (rt, d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "kv::/u",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "up_kv", "type": "labkvs", "params": {"device": "nvme0", "workers": 2}, "outputs": ["up_kvd"] },
            { "uuid": "up_kvd", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    // Its own device: LabFS and LabKVS each lay out a whole device.
    d.add_preset("nvme1", DeviceKind::Nvme);
    rt.mount_stack_json(
        r#"{
        "mount": "fs::/u",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "up_fs", "type": "labfs", "params": {"device": "nvme1", "workers": 2}, "outputs": ["up_fsd"] },
            { "uuid": "up_fsd", "type": "kernel_driver", "params": {"device": "nvme1"} }
        ]
    }"#,
    )
    .unwrap();
    let kv = rt.ns.get("kv::/u").unwrap();
    let fs = rt.ns.get("fs::/u").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);

    // Value i and file i hold `len(i)` bytes of one fill byte each.
    let len = |i: usize| 700 + 913 * (i % 11);
    let kv_fill = |i: usize| vec![(i % 251) as u8 + 1; len(i)];
    let fs_fill = |i: usize| vec![(i % 241) as u8 + 7; len(i)];
    let (first_kv, first_fs) = (rt.mm.get("up_kv").unwrap(), rt.mm.get("up_fs").unwrap());
    let mut inos = Vec::new();
    const N: usize = 60;
    for i in 0..N {
        if i == N / 2 {
            for (uuid, type_name, device) in
                [("up_kv", "labkvs", "nvme0"), ("up_fs", "labfs", "nvme1")]
            {
                rt.request_upgrade(UpgradeRequest {
                    uuid: uuid.into(),
                    type_name: type_name.into(),
                    params: serde_json::json!({"device": device, "workers": 2}),
                    kind: UpgradeKind::Centralized,
                    code_bytes: 1 << 16,
                    code_device: None,
                });
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while rt.mm.pending_upgrades() > 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "admin never processed the upgrades"
                );
                std::thread::yield_now();
            }
        }
        let put = KvsOp::Put {
            key: format!("k{i}"),
            value: kv_fill(i),
        };
        let (resp, _) = client.execute(&kv, Payload::Kvs(put)).unwrap();
        assert!(
            matches!(resp, RespPayload::Len(n) if n == len(i)),
            "{resp:?}"
        );
        let create = FsOp::Create {
            path: format!("/f{i}"),
            mode: 0o644,
        };
        let ino = match client.execute(&fs, Payload::Fs(create)).unwrap().0 {
            RespPayload::Ino(ino) => ino,
            other => panic!("create /f{i}: {other:?}"),
        };
        inos.push(ino);
        let write = FsOp::Write {
            ino,
            offset: 0,
            data: fs_fill(i),
        };
        let (resp, _) = client.execute(&fs, Payload::Fs(write)).unwrap();
        assert!(
            matches!(resp, RespPayload::Len(n) if n == len(i)),
            "{resp:?}"
        );
    }
    for (uuid, before) in [("up_kv", &first_kv), ("up_fs", &first_fs)] {
        let now = rt.mm.get(uuid).unwrap();
        assert!(!Arc::ptr_eq(before, &now), "{uuid} was never swapped");
    }

    for (i, &ino) in inos.iter().enumerate() {
        let get = KvsOp::Get {
            key: format!("k{i}"),
        };
        let (resp, _) = client.execute(&kv, Payload::Kvs(get)).unwrap();
        assert!(
            resp.data_bytes() == Some(&kv_fill(i)[..]),
            "value k{i} changed across the upgrade"
        );
        let read = FsOp::Read {
            ino,
            offset: 0,
            len: len(i),
        };
        let (resp, _) = client.execute(&fs, Payload::Fs(read)).unwrap();
        assert!(
            resp.data_bytes() == Some(&fs_fill(i)[..]),
            "file /f{i} changed across the upgrade"
        );
    }
    rt.shutdown();
}
