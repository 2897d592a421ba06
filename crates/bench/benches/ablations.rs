//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each measures *virtual* time (the modeled metric) inside a criterion
//! wall-clock harness — criterion gives us repetition and reporting; the
//! interesting number is printed as the measured virtual cost per
//! configuration at the end of each group.
//!
//! Ablations:
//! * sync vs async LabStack execution (the `Lab-D` decision);
//! * permissions stage on/off (tunable access control);
//! * LRU cache on/off for re-read workloads;
//! * compression on/off for compressible bulk writes (active storage);
//! * block-allocator stealing vs pre-balanced shards;
//! * ordered vs unordered queue draining.

use criterion::{criterion_group, criterion_main, Criterion};

use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::StackEnv;
use labstor_core::{ModuleManager, Payload, Request, RespPayload};
use labstor_ipc::Credentials;
use labstor_mods::alloc::BlockAllocator;
use labstor_mods::DeviceRegistry;
use labstor_sim::{Ctx, DeviceKind};

/// Build a sync-exec stack from `(uuid, type, params)` triples (inline
/// dispatch keeps the criterion loop deterministic).
fn stack_of(mm: &ModuleManager, mods: &[(&str, &str, serde_json::Value)]) -> LabStack {
    for (uuid, ty, params) in mods {
        mm.instantiate(uuid, ty, params).unwrap();
    }
    LabStack {
        id: 1,
        mount: "bench::/".into(),
        exec: ExecMode::Sync,
        vertices: mods
            .iter()
            .enumerate()
            .map(|(i, (uuid, _, _))| Vertex {
                uuid: uuid.to_string(),
                outputs: if i + 1 < mods.len() {
                    vec![i + 1]
                } else {
                    vec![]
                },
            })
            .collect(),
        authorized_uids: vec![0],
    }
}

fn run_op(mm: &ModuleManager, stack: &LabStack, ctx: &mut Ctx, payload: Payload) -> RespPayload {
    let env = StackEnv::new(stack, 0, mm, 0);
    let m = mm.get(&stack.vertices[0].uuid).unwrap();
    m.process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
}

fn setup() -> (ModuleManager, std::sync::Arc<DeviceRegistry>) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let mm = ModuleManager::new();
    labstor_mods::install_all(&mm, &devices);
    (mm, devices)
}

fn ablate_permissions(c: &mut Criterion) {
    let (mm, _d) = setup();
    let with = stack_of(
        &mm,
        &[
            ("ab_perm", "permissions", serde_json::Value::Null),
            ("ab_fs1", "labfs", serde_json::json!({"device": "nvme0"})),
            (
                "ab_drv1",
                "kernel_driver",
                serde_json::json!({"device": "nvme0"}),
            ),
        ],
    );
    let without = stack_of(
        &mm,
        &[
            ("ab_fs1", "labfs", serde_json::Value::Null),
            ("ab_drv1", "kernel_driver", serde_json::Value::Null),
        ],
    );
    let mut g = c.benchmark_group("ablate_permissions");
    for (name, stack) in [("with_perms", &with), ("without_perms", &without)] {
        let mut ctx = Ctx::new();
        let mut n = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                n += 1;
                let r = run_op(
                    &mm,
                    stack,
                    &mut ctx,
                    Payload::Fs(labstor_core::FsOp::Create {
                        path: format!("/{name}{n}"),
                        mode: 0o644,
                    }),
                );
                std::hint::black_box(r);
            });
        });
        println!("  [{name}] virtual cost/op ≈ {} ns", ctx.now() / n.max(1));
    }
    g.finish();
}

fn ablate_lru_cache(c: &mut Criterion) {
    let (mm, _d) = setup();
    let cached = stack_of(
        &mm,
        &[
            (
                "ab_lru",
                "lru_cache",
                serde_json::json!({"capacity_bytes": 8388608}),
            ),
            (
                "ab_drv2",
                "kernel_driver",
                serde_json::json!({"device": "nvme0"}),
            ),
        ],
    );
    let raw = stack_of(
        &mm,
        &[("ab_drv2", "kernel_driver", serde_json::Value::Null)],
    );
    // Warm: write a block once, then re-read it repeatedly.
    let mut g = c.benchmark_group("ablate_lru_reread");
    for (name, stack) in [("with_cache", &cached), ("without_cache", &raw)] {
        let mut ctx = Ctx::new();
        run_op(
            &mm,
            stack,
            &mut ctx,
            Payload::Block(labstor_core::BlockOp::Write {
                lba: 0,
                data: vec![7u8; 4096],
            }),
        );
        let mut n = 0u64;
        let base = ctx.now();
        g.bench_function(name, |b| {
            b.iter(|| {
                n += 1;
                std::hint::black_box(run_op(
                    &mm,
                    stack,
                    &mut ctx,
                    Payload::Block(labstor_core::BlockOp::Read { lba: 0, len: 4096 }),
                ));
            });
        });
        println!(
            "  [{name}] virtual cost/re-read ≈ {} ns",
            (ctx.now() - base) / n.max(1)
        );
    }
    g.finish();
}

fn ablate_compression(c: &mut Criterion) {
    let (mm, d) = setup();
    let compressed = stack_of(
        &mm,
        &[
            ("ab_zip", "compress", serde_json::Value::Null),
            (
                "ab_drv3",
                "kernel_driver",
                serde_json::json!({"device": "nvme0"}),
            ),
        ],
    );
    let plain = stack_of(
        &mm,
        &[("ab_drv3", "kernel_driver", serde_json::Value::Null)],
    );
    let data: Vec<u8> = std::iter::repeat_n(b"sensor=42.1,43.0,41.8;", 12000)
        .flatten()
        .copied()
        .take(256 * 1024)
        .collect();
    let dev = d.block("nvme0").unwrap();
    let mut g = c.benchmark_group("ablate_compression_256k");
    for (name, stack) in [("with_compression", &compressed), ("without", &plain)] {
        let mut ctx = Ctx::new();
        let mut n = 0u64;
        let bytes_before = labstor_sim::BlockDevice::stats(dev.as_ref())
            .snapshot()
            .bytes_written;
        g.bench_function(name, |b| {
            b.iter(|| {
                n += 1;
                std::hint::black_box(run_op(
                    &mm,
                    stack,
                    &mut ctx,
                    Payload::Block(labstor_core::BlockOp::Write {
                        lba: 0,
                        data: data.clone(),
                    }),
                ));
            });
        });
        let written = labstor_sim::BlockDevice::stats(dev.as_ref())
            .snapshot()
            .bytes_written
            - bytes_before;
        println!(
            "  [{name}] virtual cost/op ≈ {} ns, media bytes/op ≈ {}",
            ctx.now() / n.max(1),
            written / n.max(1)
        );
    }
    g.finish();
}

fn ablate_allocator_stealing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablate_allocator");
    g.bench_function("balanced_shards", |b| {
        b.iter_batched(
            || BlockAllocator::new(0, 1 << 20, 8, 4096),
            |a| {
                for w in 0..8 {
                    for _ in 0..200 {
                        std::hint::black_box(a.alloc(w));
                    }
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("skewed_single_worker_steals", |b| {
        b.iter_batched(
            || BlockAllocator::new(0, 1 << 20, 8, 4096),
            |a| {
                for _ in 0..1600 {
                    std::hint::black_box(a.alloc(0));
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn ablate_exec_mode(c: &mut Criterion) {
    // sync (inline) vs async (through a live Runtime worker).
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = labstor_core::Runtime::start(labstor_core::RuntimeConfig {
        max_workers: 1,
        ..Default::default()
    });
    labstor_mods::install_all(&rt.mm, &devices);
    for (mount, exec) in [("d::/sync", "sync"), ("d::/async", "async")] {
        rt.mount_stack_json(&format!(
            r#"{{"mount": "{mount}", "exec": "{exec}", "authorized_uids": [0],
                 "labmods": [ {{"uuid": "ab_dummy", "type": "dummy", "params": {{"work_ns": 1000}} }} ]}}"#
        ))
        .unwrap();
    }
    let mut g = c.benchmark_group("ablate_exec_mode");
    for mount in ["d::/sync", "d::/async"] {
        let stack = rt.ns.get(mount).unwrap();
        let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
        let mut n = 0u64;
        g.bench_function(mount, |b| {
            b.iter(|| {
                n += 1;
                let (resp, _) = client
                    .execute(&stack, Payload::Dummy { work_ns: 0 })
                    .unwrap();
                std::hint::black_box(resp);
            });
        });
        println!(
            "  [{mount}] virtual latency/op ≈ {} ns",
            client.ctx.now() / n.max(1)
        );
    }
    rt.shutdown();
    g.finish();
}

fn ablate_cache_policy(c: &mut Criterion) {
    // LRU vs the adaptive (ARC-style) policy on a scan-polluted workload:
    // 8 hot blocks re-read between 64-block scans. The adaptive policy's
    // ghost lists keep the hot set resident.
    let (mm, _d) = setup();
    let lru = stack_of(
        &mm,
        &[
            (
                "ab_lruc",
                "lru_cache",
                serde_json::json!({"capacity_bytes": 16 * 4096}),
            ),
            (
                "ab_drv4",
                "kernel_driver",
                serde_json::json!({"device": "nvme0"}),
            ),
        ],
    );
    let arc = stack_of(
        &mm,
        &[
            (
                "ab_arcc",
                "arc_cache",
                serde_json::json!({"capacity_bytes": 16 * 4096}),
            ),
            ("ab_drv4", "kernel_driver", serde_json::Value::Null),
        ],
    );
    let mut g = c.benchmark_group("ablate_cache_policy_scan");
    for (name, stack) in [("lru", &lru), ("arc", &arc)] {
        let mut ctx = Ctx::new();
        // Prime hot set.
        for lba in 0..8u64 {
            run_op(
                &mm,
                stack,
                &mut ctx,
                Payload::Block(labstor_core::BlockOp::Write {
                    lba: lba * 8,
                    data: vec![1u8; 4096],
                }),
            );
        }
        for _ in 0..3 {
            for lba in 0..8u64 {
                run_op(
                    &mm,
                    stack,
                    &mut ctx,
                    Payload::Block(labstor_core::BlockOp::Read {
                        lba: lba * 8,
                        len: 4096,
                    }),
                );
            }
        }
        let mut n = 0u64;
        let base = ctx.now();
        g.bench_function(name, |b| {
            b.iter(|| {
                n += 1;
                // Three scan blocks + one hot re-read per iteration: the
                // scan pressure between hot touches (24 blocks per lap of
                // the 8-block hot set) exceeds the 16-block capacity, so a
                // recency-only policy loses the hot set.
                for k in 0..3 {
                    let cold = 1000 + ((n * 3 + k) % 512) * 8;
                    run_op(
                        &mm,
                        stack,
                        &mut ctx,
                        Payload::Block(labstor_core::BlockOp::Read {
                            lba: cold,
                            len: 4096,
                        }),
                    );
                }
                std::hint::black_box(run_op(
                    &mm,
                    stack,
                    &mut ctx,
                    Payload::Block(labstor_core::BlockOp::Read {
                        lba: (n % 8) * 8,
                        len: 4096,
                    }),
                ));
            });
        });
        println!(
            "  [{name}] virtual cost/hot-reread-pair ≈ {} ns",
            (ctx.now() - base) / n.max(1)
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = ablate_permissions, ablate_lru_cache, ablate_compression, ablate_allocator_stealing, ablate_exec_mode, ablate_cache_policy
}
criterion_main!(benches);
