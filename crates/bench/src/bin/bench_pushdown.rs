//! Pushdown vs client-side filtering benchmark, emitting
//! `BENCH_pushdown.json`.
//!
//! The PR 10 experiment: a filtered scan over a 256 KiB file of 64-byte
//! records at 1% selectivity (one key value out of [`KEY_SPACE`]),
//! two ways:
//!
//! - `client_scan` — the legacy shape: `read(2)` ships every page to the
//!   client (one counted copy-out), which then runs the predicate
//!   itself (charged at `cost::SCAN_NS_PER_KB` of virtual time).
//! - `pushdown` — a verified count program attached to a single
//!   `ReadFiltered`: the LabFS LabMod runs the filter in place over
//!   cached page slices and ships back a 32-byte aggregate riding
//!   inline in the response envelope.
//!
//! Also the CI regression gate for the pushdown subsystem (DESIGN.md
//! §14): the run fails (exit 1) unless pushdown moves ≥ 100× fewer
//! payload bytes over IPC, is ≥ 3× faster in modeled virtual time, and
//! performs **zero** counted payload copies on its hit path — and both
//! sides must agree with the host-side reference count exactly.
//!
//! Usage: `bench_pushdown [--smoke]` — `--smoke` shrinks the repetition
//! count for CI (the dataset stays at the paper-shaped 256 KiB) and
//! writes `target/bench/BENCH_pushdown.json` instead.

use std::process::ExitCode;
use std::sync::Arc;

use labstor_bench::{labfs_stack_spec, runtime_with_mods, LabVariant, Report};
use labstor_ipc::Credentials;
use labstor_kernel::cost;
use labstor_mods::{DeviceRegistry, FilteredRead, GenericFs};
use labstor_pushdown::Program;
use labstor_sim::DeviceKind;
use labstor_workloads::pushdown::{
    client_scan_count, make_records, KEY_OFF, KEY_SPACE, RECORD_LEN,
};

/// Dataset size: 256 KiB — 64 file blocks of 64 64-byte records.
const DATA_BYTES: usize = 256 * 1024;
/// The key value the filter selects: 1/[`KEY_SPACE`] of the records.
const MATCH_KEY: u32 = 7;
/// File block size (mirrors `labstor_mods::labfs::FS_BLOCK`).
const PAGE: usize = 4096;

struct SideResult {
    /// Virtual ns per scan, averaged over repetitions.
    vns_per_scan: u64,
    /// Payload bytes shipped over IPC per scan.
    ipc_bytes: u64,
    /// Counted payload copies per scan (from the global copy counter).
    copies: u64,
    /// Matches reported.
    matches: u64,
    /// Pushdown fuel retired per scan (0 for the client side).
    fuel: u64,
}

fn write_dataset(fs: &mut GenericFs, path: &str, data: &[u8]) -> i32 {
    let fd = fs.open(path, true, true).expect("open dataset");
    for page in data.chunks(PAGE) {
        let mut buf = labstor_ipc::default_pool()
            .alloc(page.len())
            .expect("pool slot");
        assert!(buf.write_with(|b| b.copy_from_slice(page)));
        assert_eq!(fs.write_buf(fd, buf).expect("write page"), page.len());
    }
    fs.fsync(fd).expect("fsync dataset");
    fd
}

/// The legacy client: ship everything, scan at home.
fn run_client_scan(fs: &mut GenericFs, fd: i32, reps: usize, expect: u64) -> SideResult {
    let mut vns_total = 0u64;
    let mut copies_total = 0u64;
    let mut matches = 0u64;
    for _ in 0..reps {
        fs.seek(fd, 0).expect("seek");
        let copies_before = labstor_ipc::payload_copies();
        let t0 = fs.client().ctx.now();
        let data = fs.read(fd, DATA_BYTES).expect("read dataset");
        assert_eq!(data.len(), DATA_BYTES);
        // The predicate runs client-side over every shipped byte,
        // charged at the calibrated scan rate.
        cost::scan(&mut fs.client_mut().ctx, data.len());
        matches = client_scan_count(&data, MATCH_KEY);
        vns_total += fs.client().ctx.now() - t0;
        copies_total += labstor_ipc::payload_copies() - copies_before;
        assert_eq!(matches, expect, "client scan disagrees with reference");
    }
    SideResult {
        vns_per_scan: vns_total / reps as u64,
        ipc_bytes: DATA_BYTES as u64,
        copies: copies_total / reps as u64,
        matches,
        fuel: 0,
    }
}

/// The pushdown client: ship the program down, the count back up.
fn run_pushdown(fs: &mut GenericFs, fd: i32, reps: usize, expect: u64) -> SideResult {
    let prog = Arc::new(
        Program::count_where_u32_eq(RECORD_LEN, KEY_OFF as u16, MATCH_KEY)
            .verify()
            .expect("count program verifies"),
    );
    let mut vns_total = 0u64;
    let mut copies_total = 0u64;
    let mut matches = 0u64;
    let mut fuel = 0u64;
    for _ in 0..reps {
        fs.seek(fd, 0).expect("seek");
        let copies_before = labstor_ipc::payload_copies();
        let t0 = fs.client().ctx.now();
        let reply = fs
            .read_filtered(fd, DATA_BYTES, prog.clone())
            .expect("pushdown read");
        vns_total += fs.client().ctx.now() - t0;
        copies_total += labstor_ipc::payload_copies() - copies_before;
        let agg = match reply {
            FilteredRead::Agg(agg) => agg,
            other => panic!("count program must return an aggregate, got {other:?}"),
        };
        assert_eq!(agg.records, (DATA_BYTES / RECORD_LEN) as u64);
        matches = agg.matches;
        fuel = agg.fuel_used;
        assert_eq!(matches, expect, "pushdown disagrees with reference");
    }
    SideResult {
        vns_per_scan: vns_total / reps as u64,
        ipc_bytes: labstor_pushdown::AggReply::LEN as u64,
        copies: copies_total / reps as u64,
        matches,
        fuel,
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_args("pushdown_filtered_scan", "BENCH_pushdown.json");
    let reps = if report.smoke() { 2 } else { 8 };

    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, 2, true);
    // Cache sized to hold the whole dataset: both sides scan warm pages,
    // so the comparison isolates the data movement, not the device.
    let spec = labfs_stack_spec(LabVariant::Min, "fs::/pd", "nvme0", 2, 2 * DATA_BYTES);
    rt.mount_stack(&spec).expect("stack mounts");
    let mut fs = GenericFs::new(rt.connect(Credentials::new(1, 0, 0), 1));

    let data = make_records(DATA_BYTES / RECORD_LEN);
    let expect = client_scan_count(&data, MATCH_KEY);
    assert_eq!(
        expect,
        (DATA_BYTES / RECORD_LEN / KEY_SPACE as usize) as u64 + 1,
        "1% selectivity shape"
    );
    let fd = write_dataset(&mut fs, "fs::/pd/records.bin", &data);

    // Warm the cache once on each path before measuring.
    fs.seek(fd, 0).expect("seek");
    let _ = fs.read(fd, DATA_BYTES).expect("warm read");

    let client = run_client_scan(&mut fs, fd, reps, expect);
    let pushdown = run_pushdown(&mut fs, fd, reps, expect);
    rt.shutdown();

    for (mode, r) in [("client_scan", &client), ("pushdown", &pushdown)] {
        report.row([
            ("mode", mode.into()),
            ("vns_per_scan", r.vns_per_scan.into()),
            ("ipc_payload_bytes", r.ipc_bytes.into()),
            ("payload_copies", r.copies.into()),
            ("fuel_per_scan", r.fuel.into()),
        ]);
    }
    report.param("data_bytes", DATA_BYTES);
    report.param("record_len", RECORD_LEN);
    report.param("selectivity", 1.0 / KEY_SPACE as f64);
    report.param("matches", pushdown.matches);
    report.param("reps", reps);
    // Pushdown ships >= 100x fewer payload bytes over IPC, runs >= 3x
    // faster in modeled time at 1% selectivity, and copies no payload.
    report.at_least(
        "ipc_bytes_ratio",
        client.ipc_bytes as f64 / pushdown.ipc_bytes.max(1) as f64,
        100.0,
    );
    report.at_least(
        "modeled_speedup",
        client.vns_per_scan as f64 / pushdown.vns_per_scan.max(1) as f64,
        3.0,
    );
    report.at_most("pushdown_payload_copies", pushdown.copies as f64, 0.0);
    report.finish()
}
