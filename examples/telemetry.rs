//! labtelem quickstart: record a span flight, export a Chrome trace, and
//! print the per-stage anatomy.
//!
//! 1. mount the quickstart LabStack (permissions → LabFS → LRU cache →
//!    NoOp scheduler → Kernel Driver),
//! 2. enable the flight recorder and push 4 KB writes + reads through,
//! 3. dump the Chrome trace — open it at `chrome://tracing` or
//!    <https://ui.perfetto.dev>,
//! 4. fold the same spans into a Fig.-4a-style anatomy and check the
//!    books: the per-stage exclusive times must tile the end-to-end
//!    virtual latency exactly,
//! 5. print the per-LabMod counters the platform keeps
//!    (`ModuleManager::counters_table`) and check the two telemetries
//!    against each other: every vertex's counter is the anatomy's
//!    exclusive time for it, to the nanosecond.
//!
//! Run with: `cargo run --release --example telemetry [TRACE.json]`
//! (default `results/telemetry_trace.json`, the committed sample).

use labstor::core::{Runtime, RuntimeConfig};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::sim::DeviceKind;
use labstor::telemetry::{anatomy, chrome_trace, SpanEvent, Stage};

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/telemetry_trace.json".into());
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);

    let spec = r#"{
        "mount": "fs::/b",
        "exec": "async",
        "authorized_uids": [0],
        "labmods": [
            { "uuid": "perm1",  "type": "permissions",  "outputs": ["labfs1"] },
            { "uuid": "labfs1", "type": "labfs",
              "params": {"device": "nvme0", "workers": 4}, "outputs": ["lru1"] },
            { "uuid": "lru1",   "type": "lru_cache",
              "params": {"capacity_bytes": 1048576},      "outputs": ["sched1"] },
            { "uuid": "sched1", "type": "noop_sched",     "outputs": ["drv1"] },
            { "uuid": "drv1",   "type": "kernel_driver",
              "params": {"device": "nvme0"} }
        ]
    }"#;
    let stack = rt.mount_stack_json(spec).expect("mount LabStack");
    println!("mounted LabStack '{}' (id {})", stack.mount, stack.id);

    // Spans carry the vertex index; name them after the spec order.
    let names = [
        "permissions",
        "labfs",
        "lru cache",
        "noop sched",
        "kernel driver",
    ];
    let label = |s: &SpanEvent| match s.stage {
        Stage::Vertex => names
            .get(s.vertex as usize)
            .copied()
            .unwrap_or("vertex?")
            .to_string(),
        Stage::Device => "device i/o".to_string(),
        _ => "ipc (shm queues)".to_string(),
    };

    // Flip the recorder on — while off, every record() is one relaxed
    // load and a branch.
    let rec = rt.mm.telemetry().clone();
    rec.enable();

    let client = rt.connect(labstor::ipc::Credentials::new(1, 0, 0), 1);
    let mut fs = GenericFs::new(client);
    let fd = fs.open("fs::/b/data.bin", true, false).expect("open");
    let block = vec![0xA5u8; 4096];
    const OPS: usize = 64;
    for _ in 0..OPS {
        fs.write(fd, &block).expect("write");
    }
    fs.seek(fd, 0).expect("seek");
    for _ in 0..OPS {
        fs.read(fd, 4096).expect("read");
    }
    fs.close(fd).expect("close");

    let spans = rec.snapshot();
    assert_eq!(rec.dropped(), 0, "ring overflow");
    println!("recorded {} spans", spans.len());

    // Chrome trace-event JSON (virtual µs on the timeline).
    if let Some(dir) = std::path::Path::new(&trace_path).parent() {
        std::fs::create_dir_all(dir).expect("mkdir for the trace");
    }
    let trace = chrome_trace(&spans, label);
    std::fs::write(&trace_path, &trace).expect("write trace");
    println!("wrote {trace_path} ({} bytes)", trace.len());

    // Anatomy: exclusive per-stage times. The recorder's span model
    // guarantees the stages tile each request's end-to-end extent, so
    // the category sum must equal the total to the nanosecond.
    let a = anatomy(&spans, label);
    let accounted: u64 = a.categories.iter().map(|(_, ns)| ns).sum();
    assert!(
        accounted.abs_diff(a.total_ns) <= a.requests,
        "stage exclusives ({accounted} ns) must tile end-to-end latency ({} ns) to ±1 ns/request",
        a.total_ns
    );
    println!(
        "\nanatomy over {} requests (avg end-to-end {} ns, books balance to the ns):",
        a.requests,
        a.total_ns / a.requests.max(1)
    );
    for (name, ns) in &a.categories {
        println!("  {name:<18} {:>12} ns  {:>5.1}%", ns, a.pct(name));
    }

    // The other telemetry: the counters the platform keeps per LabMod
    // UUID, observed where it runs each vertex — exclusive busy time. No
    // vertex above the driver idles here, so busy and wall virtual time
    // agree and each counter is the anatomy's figure for that vertex; the
    // driver's busy time contains the device window the anatomy books
    // under "device i/o".
    println!("\nper-LabMod counters (exclusive busy virtual ns, measured by the platform):");
    println!(
        "  {:<8} {:<14} {:>6} {:>12} {:>8} {:>8}",
        "uuid", "type", "ops", "total ns", "p50 ns", "p99 ns"
    );
    let table = rt.mm.counters_table();
    assert_eq!(table.len(), names.len(), "one row per vertex");
    for row in &table {
        println!(
            "  {:<8} {:<14} {:>6} {:>12} {:>8} {:>8}",
            row.uuid, row.type_name, row.ops, row.total_ns, row.p50_ns, row.p99_ns
        );
        let vertex = stack
            .vertices
            .iter()
            .position(|v| v.uuid == row.uuid)
            .expect("a vertex of the stack");
        let device_ns = if vertex + 1 == names.len() {
            a.ns("device i/o")
        } else {
            0
        };
        assert_eq!(
            row.total_ns,
            a.ns(names[vertex]) + device_ns,
            "{}: counter vs span anatomy",
            row.uuid
        );
    }
    println!("  (each is the anatomy's exclusive time for its vertex — the driver's plus its device window — to the ns)");

    rt.shutdown();
    println!("done");
}
