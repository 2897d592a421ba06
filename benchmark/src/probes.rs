//! Layer probes: one tight loop per primitive, over public functions only.
//! They say what a single layer costs alone, so that a change in an
//! end-to-end number can be traced to (or cleared of) a primitive.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use labstor::core::{ModuleManager, Namespace};
use labstor::ipc::ring::spsc;
use labstor::ipc::{
    BufferPool, Doorbell, Envelope, LaneKind, QueueFlags, QueuePair, QueueRole, TenantId,
};
use labstor::kernel::sched::IoClass;
use labstor::kernel::BlockLayer;
use labstor::mods::DeviceRegistry;
use labstor::pushdown::interp::scan_all;
use labstor::pushdown::Program;
use labstor::qos::{TenantPolicy, TenantTable};
use labstor::sim::{BlockDevice, Ctx, DeviceKind, SimDevice};
use labstor::telemetry::{FlightRecorder, Stage};
use labstor::workloads::pushdown::{make_records, RECORD_LEN};

use crate::harness::{time_per_op, Metric};
use crate::workloads::WORKLOADS;

const CLIENT_DOMAIN: u32 = 1;
const RUNTIME_DOMAIN: u32 = 0;

fn spsc_queue() -> QueuePair<u64> {
    let flags = QueueFlags {
        ordered: true,
        role: QueueRole::Primary,
    };
    QueuePair::with_lane(0, 256, flags, LaneKind::Spsc)
}

/// Two threads waking each other through a pair of doorbells: the cost of one
/// request wake plus one completion wake, which is what a QD1 hop pays.
fn doorbell_pingpong(budget_s: f64) -> f64 {
    const ROUNDS: u64 = 200;
    let wait = Duration::from_millis(50);
    let (ping, pong) = (Arc::new(Doorbell::new()), Arc::new(Doorbell::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let (ping, pong, stop) = (ping.clone(), pong.clone(), stop.clone());
        // Captured before the thread exists, so the first ring is not missed.
        let mut seen = ping.epoch();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if ping.wait_past(seen, wait) {
                    seen = ping.epoch();
                    pong.ring();
                }
            }
        })
    };
    let ns = time_per_op(budget_s, ROUNDS, || {
        for _ in 0..ROUNDS {
            let seen = pong.epoch();
            ping.ring();
            while !pong.wait_past(seen, wait) {}
        }
    });
    stop.store(true, Ordering::Release);
    ping.ring();
    echo.join().expect("echo thread");
    ns
}

/// Every layer probe, each run for about `budget_s` seconds.
pub fn run(budget_s: f64) -> Vec<Metric> {
    const N: u64 = 1_000;
    let mut out = Vec::new();
    let mut probe = |name: &'static str, iters: u64, batch: &mut dyn FnMut()| {
        let ns = time_per_op(budget_s, iters, batch);
        out.push(Metric::exact((name, "ns"), ns));
    };
    let pingpong = doorbell_pingpong(budget_s);

    let (mut tx, mut rx) = spsc::<u64>(256);
    probe("ipc.ring_push_pop_ns", N, &mut || {
        for i in 0..N {
            let _ = tx.push(black_box(i));
            black_box(rx.pop());
        }
    });

    let qp = spsc_queue();
    let (mut client, mut worker) = (Ctx::new(), Ctx::new());
    probe("ipc.qp_roundtrip_ns", N, &mut || {
        for i in 0..N {
            let _ = qp.submit(i, client.now(), CLIENT_DOMAIN);
            if let Some(env) = qp.consume(&mut worker, RUNTIME_DOMAIN) {
                let _ = qp.complete(env.payload, worker.now(), RUNTIME_DOMAIN);
            }
            black_box(qp.reap(&mut client, CLIENT_DOMAIN));
        }
    });

    let qp = spsc_queue();
    let mut pend: Vec<u64> = Vec::with_capacity(32);
    let mut inbox: Vec<Envelope<u64>> = Vec::with_capacity(32);
    let mut done: Vec<(u64, u64)> = Vec::with_capacity(32);
    probe("ipc.qp_batch32_ns_per_op", 32 * 32, &mut || {
        for _ in 0..32 {
            pend.extend(0..32);
            qp.submit_batch(&mut pend, client.now(), CLIENT_DOMAIN);
            qp.consume_batch(&mut worker, RUNTIME_DOMAIN, &mut inbox, 32);
            done.extend(inbox.drain(..).map(|env| (env.payload, env.dequeue_vt)));
            qp.complete_batch(&mut done, RUNTIME_DOMAIN);
            qp.reap_batch(&mut client, CLIENT_DOMAIN, &mut inbox, 32);
            black_box(inbox.len());
            inbox.clear();
        }
    });

    let bell = Doorbell::new();
    probe("ipc.doorbell_ring_idle_ns", N, &mut || {
        for _ in 0..N {
            bell.ring();
        }
    });

    let pool = BufferPool::with_defaults();
    probe("ipc.pool_alloc_free_4k_ns", N, &mut || {
        for _ in 0..N {
            black_box(pool.alloc(4096));
        }
    });
    probe("ipc.pool_alloc_free_64k_ns", N, &mut || {
        for _ in 0..N {
            black_box(pool.alloc(64 << 10));
        }
    });

    // 4 KiB write then read of the same block, over a 4 MiB region.
    let dev = SimDevice::preset(DeviceKind::Nvme);
    let mut ctx = Ctx::new();
    let mut page = vec![0x5Au8; 4096];
    probe("sim.dev_rw4k_ns", 2 * 256, &mut || {
        for block in 0..256u64 {
            let _ = dev.write(&mut ctx, block * 8, &page);
            let _ = dev.read(&mut ctx, block * 8, &mut page);
        }
    });
    let layer = BlockLayer::new(SimDevice::preset(DeviceKind::Nvme));
    probe("kernel.blocklayer_rw4k_ns", 2 * 256, &mut || {
        for block in 0..256u64 {
            let _ = layer.sync_write(&mut ctx, 0, IoClass::Latency, block * 8, page.clone());
            black_box(
                layer
                    .sync_read(&mut ctx, 0, IoClass::Latency, block * 8, 4096)
                    .ok(),
            );
        }
    });

    // What every hop between two vertices pays to find the next LabMod.
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let (ns, mm) = (Namespace::new(), ModuleManager::new());
    labstor::mods::install_all(&mm, &devices);
    let spec = (WORKLOADS[0].stack)();
    for v in &spec.labmods {
        mm.instantiate(&v.uuid, &v.type_name, &v.params)
            .expect("bundled LabMod types");
    }
    let stack = ns
        .mount(spec.to_stack().expect("valid spec"))
        .expect("free mount");
    probe("core.namespace_resolve_ns", N, &mut || {
        for i in 0..N as usize {
            let s = ns.get_id(stack.id).expect("mounted");
            black_box(mm.get(&s.vertices[i % s.vertices.len()].uuid));
        }
    });

    let rec = FlightRecorder::new(1 << 12);
    let mut record = || {
        for i in 0..N {
            rec.record(Stage::Vertex, i, 1, 0, i, i + 1);
        }
    };
    probe("telemetry.record_disabled_ns", N, &mut record);
    rec.enable();
    probe("telemetry.record_enabled_ns", N, &mut record);

    let tenants = TenantTable::new();
    let tenant = tenants
        .register(TenantId(7), TenantPolicy::rate_limited(1 << 40, 1 << 30))
        .expect("a real tenant id");
    let mut now = 0u64;
    probe("qos.try_admit_ns", N, &mut || {
        for _ in 0..N {
            now += 1_000;
            let _ = black_box(tenant.try_admit(now, 4096));
        }
    });

    let records = (256 << 10) / RECORD_LEN;
    let data = make_records(records);
    let prog = Program::count_where_u32_eq(RECORD_LEN, 0, 7)
        .verify()
        .expect("bundled count program");
    probe("pushdown.interp_ns_per_record", records as u64, &mut || {
        black_box(scan_all(&prog, black_box(&data)).ok());
    });

    out.push(Metric::exact(("ipc.doorbell_pingpong_ns", "ns"), pingpong));
    out
}
