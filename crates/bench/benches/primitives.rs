//! Criterion micro-benchmarks of the platform's real (wall-clock)
//! primitives: the data structures whose host performance determines how
//! fast the simulation itself runs, and which in the real LabStor *are*
//! the hot path (rings, queue pairs, registry lookups, log encoding).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use labstor_core::{ModuleManager, Payload, Request, RespPayload};
use labstor_ipc::ring::spsc;
use labstor_ipc::{Credentials, QueueFlags, QueuePair};
use labstor_kernel::page_cache::LruMap;
use labstor_mods::alloc::BlockAllocator;
use labstor_mods::compress_algo::{compress, decompress};
use labstor_mods::labfs::LogRecord;
use labstor_sim::Ctx;
use labstor_telemetry::{FlightRecorder, LogHistogram, Stage};

fn bench_spsc_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc_ring");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop", |b| {
        let (mut p, mut cns) = spsc::<u64>(1024);
        b.iter(|| {
            p.push(std::hint::black_box(42)).unwrap();
            std::hint::black_box(cns.pop().unwrap());
        });
    });
    g.finish();
}

fn bench_queue_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_pair");
    g.throughput(Throughput::Elements(1));
    g.bench_function("submit_consume_complete_reap", |b| {
        let qp: QueuePair<u64> = QueuePair::new(1, 1024, QueueFlags::default());
        let mut worker = Ctx::new();
        let mut client = Ctx::new();
        b.iter(|| {
            qp.submit(7, client.now(), 1).unwrap();
            let env = qp.consume(&mut worker, 0).unwrap();
            qp.complete(env.payload, worker.now(), 0).unwrap();
            std::hint::black_box(qp.reap(&mut client, 1).unwrap());
        });
    });
    g.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mm = ModuleManager::new();
    labstor_mods::dummy::install(&mm);
    for i in 0..100 {
        mm.instantiate(&format!("mod{i}"), "dummy", &serde_json::Value::Null)
            .unwrap();
    }
    c.bench_function("registry_lookup_100_mods", |b| {
        b.iter(|| std::hint::black_box(mm.get("mod57")).is_some());
    });
}

fn bench_lru_map(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_map");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert_get_evict_4k_entries", |b| {
        let mut lru: LruMap<u64, u64> = LruMap::new();
        for i in 0..4096u64 {
            lru.insert(i, i);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            lru.insert(4096 + k, k);
            std::hint::black_box(lru.get(&(k % 4096)));
            lru.pop_lru();
        });
    });
    g.finish();
}

fn bench_block_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_allocator");
    g.throughput(Throughput::Elements(1));
    g.bench_function("alloc_own_shard", |b| {
        b.iter_batched(
            || BlockAllocator::new(0, 1 << 22, 8, 4096),
            |a| {
                for _ in 0..1000 {
                    std::hint::black_box(a.alloc_run(3, 1, None));
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("alloc_with_stealing", |b| {
        b.iter_batched(
            // Shard 0 tiny: most allocations steal.
            || BlockAllocator::new(0, 8 * 1024, 8, 64),
            |a| {
                for _ in 0..1500 {
                    std::hint::black_box(a.alloc_run(0, 1, None));
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let compressible: Vec<u8> = std::iter::repeat_n(b"particle x=1.25 y=2.50 vz=9.9 ", 4369)
        .flatten()
        .copied()
        .take(128 * 1024)
        .collect();
    let mut incompressible = vec![0u8; 128 * 1024];
    let mut x = 0x2545F4914F6CDD1Du64;
    for b in incompressible.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    let mut g = c.benchmark_group("compression_128k");
    g.throughput(Throughput::Bytes(128 * 1024));
    g.bench_function("compress_text", |b| {
        b.iter(|| std::hint::black_box(compress(&compressible)));
    });
    g.bench_function("compress_random", |b| {
        b.iter(|| std::hint::black_box(compress(&incompressible)));
    });
    let packed = compress(&compressible);
    g.bench_function("decompress_text", |b| {
        b.iter(|| std::hint::black_box(decompress(&packed).unwrap()));
    });
    g.finish();
}

fn bench_log_encoding(c: &mut Criterion) {
    let rec = LogRecord::Create {
        path: "/data/run42/checkpoint.h5".into(),
        ino: 123456,
        mode: 0o644,
        uid: 1000,
        gid: 1000,
        is_dir: false,
    };
    let mut g = c.benchmark_group("labfs_log");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_create", |b| {
        let mut buf = Vec::with_capacity(4096);
        b.iter(|| {
            buf.clear();
            rec.encode(&mut buf);
            std::hint::black_box(buf.len());
        });
    });
    let mut encoded = Vec::new();
    rec.encode(&mut encoded);
    g.bench_function("decode_create", |b| {
        b.iter(|| {
            let mut pos = 0;
            std::hint::black_box(LogRecord::decode(&encoded, &mut pos).unwrap());
        });
    });
    g.finish();
}

fn bench_request_dispatch(c: &mut Criterion) {
    // The full inline DAG dispatch a sync-stack client performs.
    let devices = labstor_mods::DeviceRegistry::new();
    devices.add_preset("nvme0", labstor_sim::DeviceKind::Nvme);
    let mm = ModuleManager::new();
    labstor_mods::install_all(&mm, &devices);
    mm.instantiate("b_fs", "labfs", &serde_json::json!({"device": "nvme0"}))
        .unwrap();
    mm.instantiate(
        "b_drv",
        "kernel_driver",
        &serde_json::json!({"device": "nvme0"}),
    )
    .unwrap();
    let stack = labstor_core::LabStack {
        id: 1,
        mount: "fs::/bench".into(),
        exec: labstor_core::ExecMode::Sync,
        vertices: vec![
            labstor_core::stack::Vertex {
                uuid: "b_fs".into(),
                outputs: vec![1],
            },
            labstor_core::stack::Vertex {
                uuid: "b_drv".into(),
                outputs: vec![],
            },
        ],
        authorized_uids: vec![0],
    };
    let m = mm.get("b_fs").unwrap();
    let env = labstor_core::StackEnv::new(&stack, 0, &mm, 0);
    let mut ctx = Ctx::new();
    // Pre-create a file.
    let resp = m.process(
        &mut ctx,
        Request::new(
            1,
            1,
            Payload::Fs(labstor_core::FsOp::Create {
                path: "/b".into(),
                mode: 0o644,
            }),
            Credentials::ROOT,
        ),
        &env,
    );
    let ino = match resp {
        RespPayload::Ino(i) => i,
        other => panic!("{other:?}"),
    };
    let mut g = c.benchmark_group("stack_dispatch");
    g.throughput(Throughput::Elements(1));
    g.bench_function("labfs_4k_write_host_cost", |b| {
        let data = vec![0u8; 4096];
        b.iter(|| {
            let resp = m.process(
                &mut ctx,
                Request::new(
                    2,
                    1,
                    Payload::Fs(labstor_core::FsOp::Write {
                        ino,
                        offset: 0,
                        data: data.clone(),
                    }),
                    Credentials::ROOT,
                ),
                &env,
            );
            std::hint::black_box(resp);
        });
    });
    g.finish();
}

/// The ISSUE's disabled-mode cost contract: `record` on a disabled
/// recorder must be one relaxed load + branch, measured against the
/// enabled path on the same 4 KB-write-shaped span stream.
fn bench_span_recorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("span_recorder");
    g.throughput(Throughput::Elements(1));
    g.bench_function("record_disabled", |b| {
        let rec = FlightRecorder::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 12_150;
            rec.record(Stage::Vertex, std::hint::black_box(t), 1, 2, t, t + 450);
        });
    });
    g.bench_function("record_enabled", |b| {
        let rec = FlightRecorder::default();
        rec.enable();
        let mut t = 0u64;
        b.iter(|| {
            t += 12_150;
            rec.record(Stage::Vertex, std::hint::black_box(t), 1, 2, t, t + 450);
        });
    });
    g.bench_function("hist_record", |b| {
        let h = LogHistogram::new();
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 4_096) % 1_000_000;
            h.record(std::hint::black_box(t));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spsc_ring,
    bench_queue_pair,
    bench_registry,
    bench_lru_map,
    bench_block_allocator,
    bench_compression,
    bench_log_encoding,
    bench_request_dispatch,
    bench_span_recorder
);
criterion_main!(benches);
