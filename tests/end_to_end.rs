//! End-to-end integration: client → IPC → Runtime workers → LabStack DAG
//! → simulated device, and back.

use labstor::core::{FsOp, KvsOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::{Credentials, UpgradeFlag};
use labstor::mods::{DeviceRegistry, GenericFs, GenericKvs};
use labstor::sim::DeviceKind;
use std::sync::Arc;

fn platform(workers: usize) -> (Arc<Runtime>, Arc<DeviceRegistry>) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig {
        max_workers: workers,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    (rt, devices)
}

const FS_SPEC: &str = r#"{
    "mount": "fs::/b",
    "exec": "async",
    "authorized_uids": [0],
    "labmods": [
        { "uuid": "e2e_perm", "type": "permissions", "outputs": ["e2e_fs"] },
        { "uuid": "e2e_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 4}, "outputs": ["e2e_lru"] },
        { "uuid": "e2e_lru", "type": "lru_cache", "params": {"capacity_bytes": 4194304}, "outputs": ["e2e_sched"] },
        { "uuid": "e2e_sched", "type": "noop_sched", "outputs": ["e2e_drv"] },
        { "uuid": "e2e_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

#[test]
fn posix_lifecycle_through_full_stack() {
    let (rt, _d) = platform(2);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    let fd = fs.open("fs::/b/a.bin", true, false).unwrap();
    let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.write(fd, &data).unwrap(), data.len());
    fs.fsync(fd).unwrap();
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, data.len()).unwrap(), data);
    // Partial read at an unaligned offset.
    fs.seek(fd, 12_345).unwrap();
    assert_eq!(fs.read(fd, 777).unwrap(), data[12_345..12_345 + 777]);
    fs.close(fd).unwrap();

    assert_eq!(fs.stat("fs::/b/a.bin").unwrap().size, data.len() as u64);
    fs.unlink("fs::/b/a.bin").unwrap();
    assert!(fs.stat("fs::/b/a.bin").is_err());
    rt.shutdown();
}

#[test]
fn permissions_enforced_through_stack() {
    let (rt, _d) = platform(1);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let mut alice = GenericFs::new(rt.connect(Credentials::new(1, 100, 100), 1));
    let mut bob = GenericFs::new(rt.connect(Credentials::new(2, 200, 200), 1));

    let fd = alice.open("fs::/b/private", true, false).unwrap();
    alice.close(fd).unwrap();
    // Bob cannot open Alice's 0644-created file for create/write intent…
    // (the PermsMod records ownership at create; 0644 lets him read)
    assert!(bob.open("fs::/b/private", false, false).is_ok());
    // …but a 0600 file stays private. GenericFs.open(create) uses the
    // permissions mod default mode (0644); exercise through Stat denial
    // by making a directory read-protected instead.
    let mut root = GenericFs::new(rt.connect(Credentials::new(3, 0, 0), 1));
    assert!(
        root.open("fs::/b/private", false, false).is_ok(),
        "root always passes"
    );
    rt.shutdown();
}

#[test]
fn kvs_roundtrip_through_stack() {
    let (rt, _d) = platform(2);
    rt.mount_stack_json(
        r#"{
        "mount": "kv::/s",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "e2e_kv", "type": "labkvs", "params": {"device": "nvme0"}, "outputs": ["e2e_kvd"] },
            { "uuid": "e2e_kvd", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    let mut kvs = GenericKvs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    for i in 0..50 {
        let val = vec![i as u8; 1000 + i * 13];
        kvs.put(&format!("kv::/s/key{i}"), val.clone()).unwrap();
        assert_eq!(kvs.get(&format!("kv::/s/key{i}")).unwrap(), val);
    }
    kvs.remove("kv::/s/key7").unwrap();
    assert!(kvs.get("kv::/s/key7").is_err());
    rt.shutdown();
}

#[test]
fn sync_and_async_stacks_agree_on_content() {
    let (rt, _d) = platform(2);
    let mut async_spec: labstor::core::StackSpec = serde_json::from_str(FS_SPEC).unwrap();
    async_spec.mount = "fs::/async".into();
    rt.mount_stack(&async_spec).unwrap();
    let mut sync_spec = async_spec.clone();
    sync_spec.mount = "fs::/sync".into();
    sync_spec.exec = "sync".into();
    rt.mount_stack(&sync_spec).unwrap();

    // Both mounts share LabMod instances (same UUIDs → same registry
    // entries, the paper's multi-view feature): a file written through the
    // async view is visible through the sync view.
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/async/shared.txt", true, false).unwrap();
    fs.write(fd, b"multi-view").unwrap();
    fs.close(fd).unwrap();
    let fd = fs.open("fs::/sync/shared.txt", false, false).unwrap();
    assert_eq!(fs.read(fd, 10).unwrap(), b"multi-view");
    fs.close(fd).unwrap();
    rt.shutdown();
}

#[test]
fn rename_moves_files_across_the_namespace() {
    let (rt, _d) = platform(2);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/b/old_name", true, false).unwrap();
    fs.write(fd, b"contents survive renames").unwrap();
    fs.close(fd).unwrap();
    fs.rename("fs::/b/old_name", "fs::/b/new_name").unwrap();
    assert!(fs.stat("fs::/b/old_name").is_err());
    let fd = fs.open("fs::/b/new_name", false, false).unwrap();
    assert_eq!(fs.read(fd, 24).unwrap(), b"contents survive renames");
    fs.close(fd).unwrap();
    // POSIX semantics: rename over an existing target replaces it.
    let fd = fs.open("fs::/b/other", true, false).unwrap();
    fs.write(fd, b"doomed").unwrap();
    fs.close(fd).unwrap();
    fs.rename("fs::/b/new_name", "fs::/b/other").unwrap();
    let fd = fs.open("fs::/b/other", false, false).unwrap();
    assert_eq!(fs.read(fd, 24).unwrap(), b"contents survive renames");
    fs.close(fd).unwrap();
    // Missing source errors.
    assert!(fs.rename("fs::/b/ghost", "fs::/b/x").is_err());
    rt.shutdown();
}

#[test]
fn execve_fd_state_survives_address_space_swap() {
    // §III-F: "For execve, open fd state is copied to the LabStor Runtime
    // and is reloaded upon completion."
    let (rt, _d) = platform(2);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let fd = fs.open("fs::/b/exec.log", true, false).unwrap();
    fs.write(fd, b"before-exec|").unwrap();
    // "execve": serialize fd state, tear down the old connector, bring up
    // a new one in a fresh connection, restore.
    let blob = fs.save_fds();
    drop(fs);
    let new_client = rt.connect(Credentials::new(1, 0, 0), 1);
    let mut fs = GenericFs::restore_fds(new_client, &blob).unwrap();
    // The inherited fd keeps its position: the append lands after the
    // pre-exec bytes.
    fs.write(fd, b"after-exec").unwrap();
    fs.seek(fd, 0).unwrap();
    assert_eq!(fs.read(fd, 22).unwrap(), b"before-exec|after-exec");
    fs.close(fd).unwrap();
    rt.shutdown();
}

#[test]
fn refused_submissions_leave_no_load_estimate_behind() {
    // The orchestrator's backlog (`est_load_ns`) must count only requests
    // that are in the ring: every way a submission can be refused with
    // `Backpressure` takes its estimate back off the queue.
    use labstor::core::client::ClientError;
    let devices = DeviceRegistry::new();
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 1,
        queue_depth: 4,
        auto_admin: false, // nothing un-pauses the queue behind the test
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    rt.mount_stack_json(
        r#"{
        "mount": "dummy::/",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [ { "uuid": "bp_dummy", "type": "dummy", "params": {"work_ns": 500} } ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    client.offline_timeout = std::time::Duration::from_millis(20);
    let q = client.conn.queues[0].clone();
    // Stop the drain: the worker acks the pending flag and leaves the
    // queue alone until it is cleared.
    q.mark_update_pending();
    while q.upgrade_flag() != UpgradeFlag::UpdateAcked {
        std::thread::yield_now();
    }
    let dummy = || Payload::Dummy { work_ns: 500 };
    let ids: Vec<u64> = (0..4)
        .map(|_| client.submit(&stack, dummy()).unwrap())
        .collect();
    let queued = 4 * q.max_item_ns();
    assert!(queued > 0);
    assert_eq!((q.sq_depth(), q.est_load_ns()), (4, queued));

    assert_eq!(
        client.submit(&stack, dummy()),
        Err(ClientError::Backpressure)
    );
    assert_eq!(q.est_load_ns(), queued, "after a refused submit");
    assert_eq!(
        client.submit_all(&stack, vec![dummy(), dummy(), dummy()]),
        Err(ClientError::Backpressure)
    );
    assert_eq!(q.est_load_ns(), queued, "after a refused burst");
    assert_eq!(
        client.execute(&stack, dummy()).unwrap_err(),
        ClientError::Backpressure
    );
    assert_eq!(q.est_load_ns(), queued, "after a refused execute");
    assert_eq!(
        client.in_flight(),
        ids.len(),
        "a refused execute leaves no id"
    );

    // The four that made it in are served once the queue resumes.
    q.clear_update();
    client.offline_timeout = std::time::Duration::from_secs(5);
    for id in ids {
        assert_eq!(client.reap_one().unwrap().0.id, id);
    }
    rt.shutdown();
}

#[test]
fn a_throttled_burst_on_a_sync_stack_runs_none_of_it() {
    // `submit_all` admits a burst as one charge on either kind of stack:
    // a sync stack that ran the admitted prefix inline would leave
    // completions under ids the caller never received, and a caller that
    // retries the burst would run them twice.
    use labstor::core::client::ClientError;
    use labstor::qos::TenantPolicy;
    let (rt, _d) = platform(1);
    let stack = dummy_stack(&rt, "sync", "e2e_dummy_throttled");
    let creds = Credentials::new(1, 0, 0).with_tenant(1u32.into());
    // Three tokens of burst and a refill too slow to matter; one request
    // of a dummy payload costs one token.
    let policy = TenantPolicy::rate_limited(1, 3);
    let mut client = rt.connect_with_policy(creds, 1, policy);
    let dummy = || Payload::Dummy { work_ns: 100 };
    client.execute(&stack, dummy()).unwrap();
    let ran = || rt.mm.counters("e2e_dummy_throttled").unwrap().ops();
    assert_eq!(ran(), 1);

    // Two tokens left: the bucket covers two of the burst's three.
    assert!(matches!(
        client.submit_all(&stack, vec![dummy(), dummy(), dummy()]),
        Err(ClientError::Throttled { .. })
    ));
    assert_eq!(client.in_flight(), 0, "no completion without an id");
    assert_eq!(ran(), 1, "nothing of the refused burst ran");
    // A burst the bucket covers is admitted whole.
    let ids = client.submit_all(&stack, vec![dummy(), dummy()]).unwrap();
    assert_eq!((ids.len(), client.in_flight(), ran()), (2, 2, 3));
    // The bucket is empty now: a refused execute runs nothing and leaves
    // no id behind either.
    assert!(matches!(
        client.execute(&stack, dummy()),
        Err(ClientError::Throttled { .. })
    ));
    assert_eq!((client.in_flight(), ran()), (2, 3));
    rt.shutdown();
}

#[test]
fn every_sync_stack_completion_reaches_the_tenant_latency_histogram() {
    // `execute`, `submit_all` and `submit` on a sync stack complete five
    // requests inline; each one's latency belongs in the tenant's
    // histogram, whichever verb sent it.
    let (rt, _d) = platform(1);
    let stack = dummy_stack(&rt, "sync", "e2e_dummy_tenant_latency");
    let creds = Credentials::new(1, 0, 0).with_tenant(7u32.into());
    let mut client = rt.connect(creds, 1);
    let dummy = || Payload::Dummy { work_ns: 100 };
    client.execute(&stack, dummy()).unwrap();
    client
        .submit_all(&stack, vec![dummy(), dummy(), dummy()])
        .unwrap();
    client.submit(&stack, dummy()).unwrap();
    assert_eq!(client.tenant().unwrap().completions(), 5);
    rt.shutdown();
}

/// One dummy request on a fresh Runtime and client, sent by `execute` or
/// by `submit` + `reap_one`: its latency and the client's clock after it.
fn one_dummy_request(exec: &str, by_execute: bool) -> (u64, u64) {
    let (rt, _d) = platform(1);
    let stack = dummy_stack(&rt, exec, "e2e_dummy_one");
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let payload = Payload::Dummy { work_ns: 700 };
    let latency = if by_execute {
        client.execute(&stack, payload).unwrap().1
    } else {
        let id = client.submit(&stack, payload).unwrap();
        let (resp, latency) = client.reap_one().unwrap();
        assert_eq!(resp.id, id);
        latency
    };
    let now = client.ctx.now();
    rt.shutdown();
    (latency, now)
}

#[test]
fn execute_and_submit_then_reap_agree_in_virtual_time() {
    for exec in ["sync", "async"] {
        let executed = one_dummy_request(exec, true);
        assert!(executed.0 > 0, "{exec}: {executed:?}");
        assert_eq!(executed, one_dummy_request(exec, false), "{exec} stack");
    }
}

#[test]
fn many_clients_no_loss() {
    let (rt, _d) = platform(4);
    rt.mount_stack_json(
        r#"{
        "mount": "dummy::/",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [ { "uuid": "e2e_dummy", "type": "dummy", "params": {"work_ns": 500} } ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    std::thread::scope(|s| {
        for c in 0..6 {
            let rt = rt.clone();
            let stack = stack.clone();
            s.spawn(move || {
                let mut client = rt.connect(Credentials::new(c + 10, 0, 0), 1);
                for _ in 0..500 {
                    let (resp, _) = client
                        .execute(&stack, Payload::Dummy { work_ns: 0 })
                        .unwrap();
                    assert!(matches!(resp, RespPayload::Ok));
                }
            });
        }
    });
    assert!(rt.total_processed() >= 3000);
    rt.shutdown();
}

#[test]
fn client_async_window_completes_out_of_order_submissions() {
    let (rt, _d) = platform(2);
    rt.mount_stack_json(
        r#"{
        "mount": "dummy::/",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [ { "uuid": "e2e_dummy2", "type": "dummy", "params": {"work_ns": 1000} } ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("dummy::/").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    for _ in 0..16 {
        client
            .submit(&stack, Payload::Dummy { work_ns: 0 })
            .unwrap();
    }
    let mut done = 0;
    while client.in_flight() > 0 {
        let (resp, latency) = client.reap_one().unwrap();
        assert!(resp.payload.is_ok());
        assert!(latency > 0);
        done += 1;
    }
    assert_eq!(done, 16);
    rt.shutdown();
}

/// A dummy-only stack at `dummy::/`, 1 µs of work per message.
fn dummy_stack(rt: &Runtime, exec: &str, uuid: &str) -> Arc<labstor::core::LabStack> {
    rt.mount_stack_json(&format!(
        r#"{{
        "mount": "dummy::/",
        "exec": "{exec}",
        "authorized_uids": [0],
        "labmods": [ {{ "uuid": "{uuid}", "type": "dummy", "params": {{"work_ns": 1000}} }} ]
    }}"#
    ))
    .unwrap()
}

#[test]
fn execute_keeps_the_completions_of_earlier_submits() {
    // `submit(A)`, then `execute(B)` on the same queue: B's wait reaps A's
    // completion first. It must be kept for `reap_one`, not dropped — a
    // dropped one leaves A pending forever and `reap_one` waits out the
    // offline timeout before answering `RuntimeDown`.
    let (rt, _d) = platform(1);
    let stack = dummy_stack(&rt, "async", "e2e_dummy3");
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    client.offline_timeout = std::time::Duration::from_millis(500);
    let a = client
        .submit(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap();
    let (resp, _) = client
        .execute(&stack, Payload::Dummy { work_ns: 0 })
        .unwrap();
    assert!(resp.is_ok());
    assert_eq!(client.in_flight(), 1, "A is still owed to the caller");
    let (resp, latency) = client
        .reap_one()
        .expect("A's completion was reaped, not lost");
    assert_eq!(resp.id, a);
    assert!(resp.payload.is_ok());
    assert!(latency > 0);
    assert_eq!(client.in_flight(), 0);
    rt.shutdown();
}

#[test]
fn sync_stack_submissions_reap_in_order_with_their_latency() {
    // An async stack reaps a, b, c with their latencies; a sync stack
    // (which completes inline) must look the same to the caller.
    let (rt, _d) = platform(1);
    let stack = dummy_stack(&rt, "sync", "e2e_dummy4");
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let ids = client
        .submit_all(
            &stack,
            vec![
                Payload::Dummy { work_ns: 100 },
                Payload::Dummy { work_ns: 200 },
                Payload::Dummy { work_ns: 300 },
            ],
        )
        .unwrap();
    assert_eq!(client.in_flight(), 3);
    let reaped: Vec<(u64, u64)> = (0..3)
        .map(|_| {
            let (resp, latency) = client.reap_one().unwrap();
            (resp.id, latency)
        })
        .collect();
    assert_eq!(
        reaped,
        [(ids[0], 100), (ids[1], 200), (ids[2], 300)],
        "submission order, each with the virtual time its inline run took"
    );
    rt.shutdown();
}

#[test]
fn fs_and_kvs_payload_costs_show_in_virtual_time() {
    // A 1 MB write must cost more virtual time than a 4 KB write.
    let (rt, _d) = platform(1);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let stack = rt.ns.get("fs::/b").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let ino = match client
        .execute(
            &stack,
            Payload::Fs(FsOp::Create {
                path: "/c.bin".into(),
                mode: 0o644,
            }),
        )
        .unwrap()
        .0
    {
        RespPayload::Ino(i) => i,
        other => panic!("{other:?}"),
    };
    let (_, small) = client
        .execute(
            &stack,
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![0u8; 4096],
            }),
        )
        .unwrap();
    let (_, large) = client
        .execute(
            &stack,
            Payload::Fs(FsOp::Write {
                ino,
                offset: 4096,
                data: vec![0u8; 1 << 20],
            }),
        )
        .unwrap();
    assert!(large > small * 10, "1MB {large} ns vs 4KB {small} ns");
    // And a KVS op flows too.
    rt.mount_stack_json(
        r#"{
        "mount": "kv::/t",
        "exec": "sync",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "e2e_kv2", "type": "labkvs", "params": {"device": "nvme0"}, "outputs": ["e2e_kvd2"] },
            { "uuid": "e2e_kvd2", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    let kstack = rt.ns.get("kv::/t").unwrap();
    let (resp, _) = client
        .execute(
            &kstack,
            Payload::Kvs(KvsOp::Put {
                key: "k".into(),
                value: vec![1u8; 100],
            }),
        )
        .unwrap();
    assert!(resp.is_ok());
    rt.shutdown();
}

#[test]
fn varmail_2000_flows_fit_the_metadata_log() {
    // Two fsyncs per flow, ~200 bytes of log records each: sealed in one
    // 512-byte frame apiece they take about a quarter of the 8 MiB
    // region. (Padded to a 4 KiB block plus a 4 KiB commit block the
    // region filled between 500 and 600 flows.)
    use labstor::workloads::filebench::{run_filebench, FilebenchJob, Personality};
    use labstor::workloads::targets::LabStorFsTarget;

    let (rt, _d) = platform(1);
    rt.mount_stack_json(FS_SPEC).unwrap();
    let client = rt.connect(Credentials::new(1, 0, 0), 1);
    let mut target = LabStorFsTarget::new(client, "fs::/b", "labfs-all");
    let job = FilebenchJob {
        personality: Personality::Varmail,
        iterations: 2000,
        thread: 0,
        seed: 7,
    };
    let rec = run_filebench(&job, &mut target).expect("no flow fails, so no RegionFull");
    assert_eq!(rec.ops(), 2000);
    rt.shutdown();
}
