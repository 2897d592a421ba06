//! Fig. 5a — Work orchestration: dynamic CPU allocation.
//!
//! "We run a workload where each client thread randomly writes 1GB of
//! data with 4KB request sizes and vary the number of clients (between 1
//! and 16). The LabStack tested uses no-op scheduling with Kernel Driver
//! LabMod over NVMe. We compare three worker configurations: 1 worker,
//! 8 workers, and a dynamic number of workers."
//!
//! Paper: with ≤2 clients a single worker saturates the load; past 4
//! clients it bottlenecks (−50% IOPS). 8 workers give maximum performance
//! at 25% higher CPU than the dynamic policy, which only needs ~4 cores;
//! at 16 clients dynamic ≈ 8 workers in both IOPS and CPU.
//!
//! (Scaled: 32 MB per client instead of 1 GB — saturation depends on
//! rates, not totals.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use labstor_bench::{print_table, runtime_with_mods};
use labstor_core::{RoundRobinPolicy, StackSpec, VertexSpec};
use labstor_mods::DeviceRegistry;
use labstor_sim::DeviceKind;
use labstor_telemetry::Stat;
use labstor_workloads::fio::{run_fio, FioJob, RwMode, StackTarget};
use labstor_workloads::stats::Recorder;

const OPS_PER_CLIENT: usize = 8192; // 32 MB of 4 KB writes
const CLIENT_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

enum WorkerCfg {
    Static(usize),
    Dynamic(usize),
}

impl WorkerCfg {
    fn label(&self) -> String {
        match self {
            WorkerCfg::Static(n) => format!("{n}-worker"),
            WorkerCfg::Dynamic(n) => format!("dynamic(max {n})"),
        }
    }
}

/// Returns (aggregate IOPS, average active worker cores).
fn run(cfg: &WorkerCfg, clients: usize) -> (f64, f64) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let max_workers = match cfg {
        WorkerCfg::Static(n) | WorkerCfg::Dynamic(n) => *n,
    };
    let rt = runtime_with_mods(&devices, max_workers, true);
    if let WorkerCfg::Static(_) = cfg {
        // Fixed worker pool: plain striping, no scaling decisions.
        rt.set_policy(Arc::new(RoundRobinPolicy));
    }
    let spec = StackSpec {
        mount: "blk::/w".into(),
        exec: "async".into(),
        authorized_uids: vec![0],
        labmods: vec![
            VertexSpec {
                uuid: "sched5a".into(),
                type_name: "noop_sched".into(),
                params: serde_json::Value::Null,
                outputs: vec!["drv5a".into()],
            },
            VertexSpec {
                uuid: "drv5a".into(),
                type_name: "kernel_driver".into(),
                params: serde_json::json!({"device": "nvme0"}),
                outputs: vec![],
            },
        ],
    };
    let stack = rt.mount_stack(&spec).expect("stack mounts");

    // Sample the active worker count while clients run.
    let stop = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(Stat::new(0));
    let active_sum = Arc::new(Stat::new(0));
    let sampler = {
        let rt = rt.clone();
        let stop = stop.clone();
        let samples = samples.clone();
        let active_sum = active_sum.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                active_sum.add(rt.active_workers() as u64);
                samples.add(1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };

    let recorders: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let rt = rt.clone();
                let stack = stack.clone();
                s.spawn(move || {
                    let client = rt.connect(labstor_ipc::Credentials::new(t as u32 + 1, 0, 0), 1);
                    let mut target = StackTarget::new(client, stack, t, "lab");
                    let job = FioJob {
                        mode: RwMode::RandWrite,
                        bs: 4096,
                        ops: OPS_PER_CLIENT,
                        iodepth: 1,
                        span_bytes: 64 << 20,
                        seed: t as u64 + 1,
                    };
                    run_fio(&job, &mut target).expect("fio")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    stop.store(true, Ordering::Release);
    let _ = sampler.join();

    let merged = Recorder::merge(recorders);
    let avg_active = if samples.get() > 0 {
        active_sum.get() as f64 / samples.get() as f64
    } else {
        0.0
    };
    let cores = match cfg {
        // Static pools dedicate (busy-poll) every worker core.
        WorkerCfg::Static(n) => *n as f64,
        WorkerCfg::Dynamic(_) => avg_active,
    };
    rt.shutdown();
    (merged.ops_per_sec(), cores)
}

fn main() {
    let configs = [
        WorkerCfg::Static(1),
        WorkerCfg::Static(8),
        WorkerCfg::Dynamic(8),
    ];
    let mut rows = Vec::new();
    for &clients in &CLIENT_COUNTS {
        for cfg in &configs {
            let (iops, cores) = run(cfg, clients);
            rows.push(vec![
                clients.to_string(),
                cfg.label(),
                format!("{:.0}", iops / 1000.0),
                format!("{cores:.1}"),
            ]);
        }
    }
    print_table(
        "Fig 5a: dynamic CPU allocation (4KB random writes per client, NoOp+KernelDriver on NVMe)",
        &["clients", "workers", "kIOPS", "cores"],
        &rows,
    );
    println!("\npaper: 1 worker saturates ≥4 clients; 8 workers = max IOPS at +25% CPU;");
    println!("       dynamic matches 8-worker IOPS with ~4 cores at 8 clients");
}
