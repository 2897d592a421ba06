//! Fig. 4a — I/O stack anatomy.
//!
//! "We run a test where we read/write 4KB of data from/to an NVMe drive
//! using LabFS. We capture the amount of time spent in different LabMods
//! on the data path. A LabStack resembling that of a traditional I/O
//! stack is configured to use LabFS, permissions checking, No-Op I/O
//! scheduling, LRU Page Cache, and the Kernel Driver LabMod. The LabStor
//! Runtime uses a single worker."
//!
//! Paper shares of a 4 KB write: I/O ≈66%(*), page cache 17%, IPC 8.4%,
//! NoOp scheduler 5%, FS metadata 3%, permissions 3%, driver ~1%.
//! (*) "I/O takes the most time as expected. Software amounts to 34%."
//!
//! The stage times come from the labtelem flight recorder: every request
//! leaves Submit/HopReq/Vertex/Device/HopResp spans in virtual time, and
//! `labstor_telemetry::anatomy` computes per-stage *exclusive* time by
//! subtracting each nested span from its parent — the vertex spans are
//! inclusive, the Device span sits inside the driver's, and whatever no
//! stage accounts for lands in the hop (IPC) categories.

use labstor_bench::{fmt_ns, labfs_stack_spec, print_table, runtime_with_mods, LabVariant};
use labstor_core::{FsOp, Payload, RespPayload};
use labstor_mods::DeviceRegistry;
use labstor_sim::DeviceKind;
use labstor_telemetry::{anatomy, SpanEvent, Stage};

fn main() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, 1, true); // single worker
                                                   // A cache smaller than the working set: reads exercise the full path
                                                   // (the paper reports "results are similar for reads").
    let spec = labfs_stack_spec(LabVariant::All, "fs::/b", "nvme0", 1, 1 << 20);
    let stack = rt.mount_stack(&spec).expect("stack mounts");
    let mut client = rt.connect(labstor_ipc::Credentials::new(1, 0, 0), 1);

    const OPS: usize = 2000;
    let data = vec![0x5Au8; 4096];

    // Stage names per vertex index (order from labfs_stack_spec).
    let names = [
        "permissions",
        "labfs (metadata)",
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

    let rec = rt.mm.telemetry().clone();
    rec.set_ring_capacity(1 << 16); // one pass is ~24k spans
    rec.enable();

    let ino = match client
        .execute(
            &stack,
            Payload::Fs(FsOp::Open {
                path: "/file".into(),
                create: true,
                truncate: false,
            }),
        )
        .expect("open")
        .0
    {
        RespPayload::Ino(i) => i,
        other => panic!("open failed: {other:?}"),
    };

    for direction in ["write", "read"] {
        let t0 = client.ctx.now();

        for i in 0..OPS {
            let off = (i % 1024) as u64 * 4096;
            let payload = if direction == "write" {
                Payload::Fs(FsOp::Write {
                    ino,
                    offset: off,
                    data: data.clone(),
                })
            } else {
                Payload::Fs(FsOp::ReadBuf {
                    ino,
                    offset: off,
                    len: 4096,
                })
            };
            let (resp, _) = client.execute(&stack, payload).expect("op");
            assert!(resp.is_ok(), "{direction} failed: {resp:?}");
        }

        // Rings persist across passes: keep only this pass's spans.
        let spans: Vec<SpanEvent> = rec
            .snapshot()
            .into_iter()
            .filter(|s| s.t_start_vns >= t0)
            .collect();
        assert_eq!(rec.dropped(), 0, "ring too small, spans lost");
        let a = anatomy(&spans, label);
        let total_latency = a.total_ns;

        let order = [
            names[0],
            names[1],
            names[2],
            names[3],
            names[4],
            "ipc (shm queues)",
            "device i/o",
        ];
        let table: Vec<Vec<String>> = order
            .iter()
            .map(|name| {
                let ns = a.ns(name);
                vec![
                    name.to_string(),
                    fmt_ns(ns / OPS as u64),
                    format!("{:.1}%", ns as f64 * 100.0 / total_latency as f64),
                ]
            })
            .collect();
        print_table(
            &format!("Fig 4a: anatomy of a 4KB {direction} through Lab-All on NVMe ({OPS} ops, avg latency {})",
                fmt_ns(total_latency / OPS as u64)),
            &["stage", "per-op", "share"],
            &table,
        );
    }
    println!(
        "\npaper (write): io ~66%  cache 17%  ipc 8.4%  sched 5%  fs-meta 3%  perms 3%  driver ~1%"
    );
    rt.shutdown();
}
