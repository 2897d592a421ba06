//! Integration tests for LabStack composition: specs, namespaces,
//! multi-view deployment, live DAG modification, and authorization.

use labstor::core::stack::Vertex;
use labstor::core::{BlockOp, Payload, Runtime, RuntimeConfig, StackSpec};
use labstor::ipc::Credentials;
use labstor::mods::DeviceRegistry;
use labstor::sim::{BlockDevice, DeviceKind};
use std::sync::Arc;

fn platform() -> (Arc<Runtime>, Arc<DeviceRegistry>) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    devices.add_pmem("pmemdax0", labstor::sim::PmemDevice::preset());
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 2,
        ..Default::default()
    });
    labstor::mods::install_all(&rt.mm, &devices);
    (rt, devices)
}

#[test]
fn compression_stack_shrinks_device_traffic() {
    let (rt, d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/z", "exec": "sync", "authorized_uids": [0],
        "labmods": [
            { "uuid": "sc_zip", "type": "compress", "outputs": ["sc_drv"] },
            { "uuid": "sc_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("blk::/z").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let data: Vec<u8> = std::iter::repeat_n(b"AAAABBBB", 8192)
        .flatten()
        .copied()
        .collect();
    let before = d.block("nvme0").unwrap().stats().snapshot().bytes_written;
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: data.clone(),
            }),
        )
        .unwrap();
    assert!(resp.is_ok());
    let written = d.block("nvme0").unwrap().stats().snapshot().bytes_written - before;
    assert!(
        written < data.len() as u64 / 4,
        "compression reduced traffic: {written}"
    );
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Block(BlockOp::ReadBuf {
                lba: 0,
                len: data.len(),
            }),
        )
        .unwrap();
    let parts = resp.data_parts().map(|p| p.collect::<Vec<_>>().concat());
    assert_eq!(parts, Some(data));
    rt.shutdown();
}

#[test]
fn dax_stack_serves_byte_addressable_pmem() {
    let (rt, _d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/pm", "exec": "sync", "authorized_uids": [0],
        "labmods": [ { "uuid": "sc_dax", "type": "dax", "params": {"device": "pmemdax0"} } ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("blk::/pm").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    // Arbitrary length — no sector alignment needed on DAX.
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 3,
                data: b"bytes".to_vec(),
            }),
        )
        .unwrap();
    assert!(resp.is_ok());
    let (resp, _) = client
        .execute(&stack, Payload::Block(BlockOp::ReadBuf { lba: 3, len: 5 }))
        .unwrap();
    let parts = resp.data_parts().map(|p| p.collect::<Vec<_>>().concat());
    assert_eq!(parts.as_deref(), Some(&b"bytes"[..]));
    rt.shutdown();
}

#[test]
fn modify_stack_inserts_and_removes_vertices_live() {
    let (rt, d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/m", "exec": "sync", "authorized_uids": [500],
        "labmods": [
            { "uuid": "sc_sched", "type": "noop_sched", "outputs": ["sc_mdrv"] },
            { "uuid": "sc_mdrv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    // Insert a consistency stage live (authorized uid).
    rt.mm
        .instantiate(
            "sc_cons",
            "consistency",
            &serde_json::json!({"policy": "flush_each"}),
        )
        .unwrap();
    let old = rt.ns.get("blk::/m").unwrap();
    let mut vs = old.vertices.clone();
    vs.push(Vertex {
        uuid: "sc_cons".into(),
        outputs: vec![1],
    });
    let cons = vs.len() - 1;
    vs[0].outputs = vec![cons];
    rt.ns.modify("blk::/m", 500, vs).unwrap();

    let stack = rt.ns.get("blk::/m").unwrap();
    assert_eq!(stack.vertices.len(), 3);
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let dev = d.block("nvme0").unwrap();
    let ops_before = dev.stats().snapshot().ops();
    let (resp, _) = client
        .execute(
            &stack,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: vec![1u8; 512],
            }),
        )
        .unwrap();
    assert!(resp.is_ok());
    // flush_each adds a barrier after the write (two queue entries).
    assert!(dev.stats().snapshot().ops() > ops_before);

    // Remove the stage again.
    let mut vs = stack.vertices.clone();
    vs[0].outputs = vec![1];
    vs.truncate(2);
    rt.ns.modify("blk::/m", 500, vs).unwrap();
    assert_eq!(rt.ns.get("blk::/m").unwrap().vertices.len(), 2);
    rt.shutdown();
}

#[test]
fn unauthorized_modification_rejected() {
    let (rt, _d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/sec", "exec": "sync", "authorized_uids": [500],
        "labmods": [ { "uuid": "sc_sdrv", "type": "kernel_driver", "params": {"device": "nvme0"} } ]
    }"#,
    )
    .unwrap();
    let vs = rt.ns.get("blk::/sec").unwrap().vertices.clone();
    assert!(
        rt.ns.modify("blk::/sec", 777, vs.clone()).is_err(),
        "stranger rejected"
    );
    assert!(
        rt.ns.modify("blk::/sec", 500, vs.clone()).is_ok(),
        "authorized user allowed"
    );
    assert!(rt.ns.modify("blk::/sec", 0, vs).is_ok(), "root allowed");
    assert!(rt.ns.unmount("blk::/sec", 777).is_err());
    assert!(rt.ns.unmount("blk::/sec", 500).is_ok());
    rt.shutdown();
}

#[test]
fn bad_specs_rejected_at_mount() {
    let (rt, _d) = platform();
    // Unknown LabMod type.
    assert!(rt
        .mount_stack_json(
            r#"{"mount": "x::/a", "labmods": [ {"uuid": "g", "type": "ghost_mod"} ]}"#
        )
        .is_err());
    // Cyclic DAG.
    assert!(rt
        .mount_stack_json(
            r#"{"mount": "x::/b", "labmods": [
                {"uuid": "a", "type": "dummy", "outputs": ["b"]},
                {"uuid": "b", "type": "dummy", "outputs": ["a"]}
            ]}"#
        )
        .is_err());
    // Duplicate mount.
    rt.mount_stack_json(r#"{"mount": "x::/c", "labmods": [ {"uuid": "c1", "type": "dummy"} ]}"#)
        .unwrap();
    assert!(rt
        .mount_stack_json(r#"{"mount": "x::/c", "labmods": [ {"uuid": "c2", "type": "dummy"} ]}"#)
        .is_err());
    rt.shutdown();
}

#[test]
fn uuid_reuse_shares_instances_across_stacks() {
    let (rt, _d) = platform();
    let spec_a = r#"{"mount": "d::/a", "labmods": [ {"uuid": "shared_dummy", "type": "dummy"} ]}"#;
    let spec_b = r#"{"mount": "d::/b", "labmods": [ {"uuid": "shared_dummy", "type": "dummy"} ]}"#;
    rt.mount_stack_json(spec_a).unwrap();
    rt.mount_stack_json(spec_b).unwrap();
    let a = rt.ns.get("d::/a").unwrap();
    let b = rt.ns.get("d::/b").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    client.execute(&a, Payload::Dummy { work_ns: 10 }).unwrap();
    client.execute(&b, Payload::Dummy { work_ns: 10 }).unwrap();
    let m = rt.mm.get("shared_dummy").unwrap();
    let dm = m
        .as_any()
        .downcast_ref::<labstor::mods::dummy::DummyMod>()
        .unwrap();
    assert_eq!(dm.count(), 2, "one instance served both mounts");
    rt.shutdown();
}

#[test]
fn cache_policy_hot_swap_through_upgrade_protocol() {
    // The paper's running modify.mods example: swap the LRU cache for the
    // adaptive one while traffic flows; warm blocks migrate.
    let (rt, d) = platform();
    rt.mount_stack_json(
        r#"{
        "mount": "blk::/hs", "exec": "async", "authorized_uids": [0],
        "labmods": [
            { "uuid": "hs_cache", "type": "lru_cache", "params": {"capacity_bytes": 1048576}, "outputs": ["hs_drv"] },
            { "uuid": "hs_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .unwrap();
    let stack = rt.ns.get("blk::/hs").unwrap();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    for lba in 0..8u64 {
        let (resp, _) = client
            .execute(
                &stack,
                Payload::Block(BlockOp::Write {
                    lba: lba * 8,
                    data: vec![lba as u8; 4096],
                }),
            )
            .unwrap();
        assert!(resp.is_ok());
    }
    rt.request_upgrade(labstor::core::UpgradeRequest {
        uuid: "hs_cache".into(),
        type_name: "arc_cache".into(),
        params: serde_json::json!({"capacity_bytes": 1048576}),
        kind: labstor::core::UpgradeKind::Centralized,
        code_bytes: 1 << 20,
        code_device: Some(d.block("nvme0").unwrap()),
    });
    // Keep the app running through the swap.
    for lba in 0..8u64 {
        let (resp, _) = client
            .execute(
                &stack,
                Payload::Block(BlockOp::ReadBuf {
                    lba: lba * 8,
                    len: 4096,
                }),
            )
            .unwrap();
        let parts = resp.data_parts().map(|p| p.collect::<Vec<_>>().concat());
        assert_eq!(parts, Some(vec![lba as u8; 4096]));
    }
    // Wait for the swap to land (pending_upgrades drops when the admin
    // *starts*; poll the registry for the installed instance instead).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let arc_mod = loop {
        let m = rt.mm.get("hs_cache").unwrap();
        if m.as_any().is::<labstor::mods::arc_cache::ArcCacheMod>() {
            break m;
        }
        assert!(std::time::Instant::now() < deadline, "swap never landed");
        std::thread::yield_now();
    };
    let arc = arc_mod
        .as_any()
        .downcast_ref::<labstor::mods::arc_cache::ArcCacheMod>()
        .expect("swapped to the adaptive policy");
    let dev_reads_before = d.block("nvme0").unwrap().stats().snapshot().reads;
    for lba in 0..8u64 {
        let (resp, _) = client
            .execute(
                &stack,
                Payload::Block(BlockOp::ReadBuf {
                    lba: lba * 8,
                    len: 4096,
                }),
            )
            .unwrap();
        assert!(resp.is_ok());
    }
    assert_eq!(
        d.block("nvme0").unwrap().stats().snapshot().reads,
        dev_reads_before,
        "warm blocks migrated: re-reads served from the swapped-in cache"
    );
    let (hits, _) = arc.hit_stats();
    assert!(hits >= 8);
    rt.shutdown();
}

#[test]
fn untrusted_mods_cannot_run_in_runtime_address_space() {
    // §III-D: untrusted LabMods may be used and debugged, but only in a
    // separate address space — i.e. sync (client-side) stacks.
    let (rt, _d) = platform();
    rt.mm.mount_repo("community", 1000).unwrap();
    rt.mm
        .register_factory_in_repo(
            "community",
            "sketchy_dummy",
            std::sync::Arc::new(|params| {
                // Reuse the dummy implementation under a new type name.
                let work = params.get("work_ns").and_then(|v| v.as_u64()).unwrap_or(0);
                std::sync::Arc::new(labstor::mods::dummy::DummyMod::new(1, work))
                    as std::sync::Arc<dyn labstor::core::LabMod>
            }),
        )
        .unwrap();
    // Async mount rejected…
    let err = rt
        .mount_stack_json(
            r#"{"mount": "u::/a", "exec": "async",
                "labmods": [ {"uuid": "sk1", "type": "sketchy_dummy"} ]}"#,
        )
        .unwrap_err();
    assert!(err.contains("untrusted"), "{err}");
    // …sync mount allowed and functional.
    rt.mount_stack_json(
        r#"{"mount": "u::/a", "exec": "sync",
            "labmods": [ {"uuid": "sk1", "type": "sketchy_dummy"} ]}"#,
    )
    .unwrap();
    let stack = rt.ns.get("u::/a").unwrap();
    let mut client = rt.connect(Credentials::new(1, 1000, 1000), 1);
    let (resp, _) = client
        .execute(&stack, Payload::Dummy { work_ns: 10 })
        .unwrap();
    assert!(resp.is_ok());
    rt.shutdown();
}

#[test]
fn spec_roundtrips_through_json() {
    let spec = StackSpec::chain(
        "fs::/rt",
        labstor::core::ExecMode::Async,
        &[
            ("p1", "permissions"),
            ("f1", "labfs"),
            ("d1", "kernel_driver"),
        ],
    );
    let json = spec.to_json();
    let again = StackSpec::parse(&json).unwrap();
    let stack = again.to_stack().unwrap();
    assert_eq!(stack.vertices.len(), 3);
    assert_eq!(stack.vertices[0].outputs, vec![1]);
    assert_eq!(stack.vertices[1].outputs, vec![2]);
}

#[test]
fn shared_memory_grants_isolate_processes() {
    // ShMemMod semantics at the IPC layer (§III-C1).
    let shm = labstor::ipc::ShmManager::new();
    let region = shm.create_region(4096, 100);
    shm.grant(region, 200).unwrap();
    let a = shm.attach(region, 100).unwrap();
    let b = shm.attach(region, 200).unwrap();
    assert!(shm.attach(region, 999).is_err(), "ungranted pid rejected");
    a.write(0, b"shared state").unwrap();
    let mut out = vec![0u8; 12];
    b.read(0, &mut out).unwrap();
    assert_eq!(&out, b"shared state");
}
