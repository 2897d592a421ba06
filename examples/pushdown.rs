//! Pushdown quickstart: run verified bytecode filters *inside* the
//! storage stack and ship bytes, not pages.
//!
//! The walk:
//!
//! 1. mount a LabFS stack and write a file of fixed-width records,
//! 2. build a tiny filter program (`key == 7`), verify it client-side,
//! 3. attach it to a single `read_filtered` — the LabFS LabMod scans
//!    cached pages in place and ships back a 32-byte aggregate,
//! 4. do the same against LabKVS: a point-query whose level-walk
//!    resubmission happens in-stack, and a prefix scan that ships only
//!    matching keys.
//!
//! Run with: `cargo run --release --example pushdown`

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::{DeviceRegistry, FilteredRead, GenericFs, GenericKvs, ScanReply};
use labstor::pushdown::Program;
use labstor::sim::DeviceKind;
use labstor::workloads::pushdown::{make_records, KEY_OFF, RECORD_LEN};
use std::sync::Arc;

fn main() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    rt.mount_stack_json(
        r#"{
        "mount": "fs::/pd",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "fs1",  "type": "labfs",
              "params": {"device": "nvme0", "workers": 4}, "outputs": ["lru1"] },
            { "uuid": "lru1", "type": "lru_cache",
              "params": {"capacity_bytes": 67108864},      "outputs": ["drv1"] },
            { "uuid": "drv1", "type": "kernel_driver",
              "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .expect("mount LabFS stack");
    rt.mount_stack_json(
        r#"{
        "mount": "kv::/pd",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "kv1",  "type": "labkvs",
              "params": {"device": "nvme0", "levels": 2}, "outputs": ["kdrv1"] },
            { "uuid": "kdrv1", "type": "kernel_driver",
              "params": {"device": "nvme0"} }
        ]
    }"#,
    )
    .expect("mount LabKVS stack");

    // A 64 KiB file of 64-byte records; keys cycle 0..99, so `key == 7`
    // selects 1% of the records.
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    let data = make_records(1024);
    let fd = fs.open("fs::/pd/records.bin", true, false).unwrap();
    fs.write(fd, &data).unwrap();
    fs.fsync(fd).unwrap();
    fs.seek(fd, 0).unwrap();

    // Count in-stack: the verifier proves termination (forward-only
    // jumps, bounds-checked loads, fuel-metered) before anything runs
    // kernel-side; `Arc<VerifiedProgram>` is the only attachable type.
    let count = Arc::new(
        Program::count_where_u32_eq(RECORD_LEN, KEY_OFF as u16, 7)
            .verify()
            .expect("program verifies"),
    );
    let agg = match fs.read_filtered(fd, data.len(), count).unwrap() {
        FilteredRead::Agg(agg) => agg,
        other => panic!("unexpected reply: {other:?}"),
    };
    let shipped = agg.encode().len();
    println!(
        "labfs: scanned {} records in-stack, {} matched, {} fuel — shipped {shipped} bytes instead of {}",
        agg.records,
        agg.matches,
        agg.fuel_used,
        data.len()
    );
    assert_eq!((agg.records, agg.matches, shipped), (1024, 11, 32));

    // KVS: values are single records; `get_where` ships the value only
    // if the predicate matches, and `scan_where` evaluates the program
    // over every value under the prefix inside the LabMod.
    let mut kvs = GenericKvs::new(rt.connect(Credentials::new(1, 0, 0), 1));
    for i in 0..10u32 {
        let mut rec = vec![0u8; RECORD_LEN];
        rec[..4].copy_from_slice(&(i % 2).to_le_bytes());
        kvs.put(&format!("kv::/pd/user{i}"), rec).unwrap();
    }
    let odd = Arc::new(
        Program::select_where_u32_eq(RECORD_LEN, 0, 1)
            .verify()
            .unwrap(),
    );
    let keys = match kvs.scan_where("kv::/pd/user", odd.clone()).unwrap() {
        ScanReply::Keys(keys) => keys,
        other => panic!("unexpected reply: {other:?}"),
    };
    println!(
        "labkvs: {} of 10 values matched the scan predicate",
        keys.len()
    );
    assert_eq!(keys.len(), 5);
    let hit = kvs.get_where("kv::/pd/user3", odd).unwrap();
    println!(
        "labkvs: get_where(user3) -> {}",
        if hit.is_some() {
            "value (predicate matched)"
        } else {
            "no bytes shipped"
        }
    );
    assert!(hit.is_some(), "user3's value matches");

    rt.shutdown();
}
