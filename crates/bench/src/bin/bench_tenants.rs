//! Noisy-neighbor tenant isolation benchmark, emitting
//! `BENCH_tenants.json`.
//!
//! One hostile tenant hammers 256 KiB writes at an async block LabStack
//! while a fleet of latency-sensitive tenants (99 in the full run) do
//! 4 KiB reads. Three configurations:
//!
//! - `solo` — the victim fleet alone: the isolation baseline.
//! - `contended_noqos` — hostile added, every tenant on the permissive
//!   default policy (no token bucket, weight 1): the damage case.
//! - `contended_qos` — victims declare `LatencySensitive` weight-4
//!   policies; the hostile tenant is admitted through a token bucket and
//!   deprioritized by the weighted-fair pass in the orchestrator.
//!
//! Also the CI regression gate for the labtenant subsystem (DESIGN.md
//! §11): the run fails (exit 1) if the QoS run's aggregate victim p99
//! blows past the isolation ceiling relative to solo, or if the hostile
//! tenant's admitted virtual throughput escapes its bucket rate. Target
//! is p99(qos) ≤ 2× p99(solo); the hard ceiling is deliberately lenient
//! so host scheduling noise cannot flake CI.
//!
//! Usage: `bench_tenants [--smoke]` — `--smoke` shrinks the fleet and op
//! counts for CI and writes `target/bench/BENCH_tenants.json` instead.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use labstor_bench::{runtime_with_mods, Report};
use labstor_core::client::ClientError;
use labstor_core::{BlockOp, Payload, StackSpec, VertexSpec};
use labstor_ipc::Credentials;
use labstor_mods::DeviceRegistry;
use labstor_qos::TenantPolicy;
use labstor_sim::DeviceKind;
use labstor_workloads::stats::{percentile, SkewGate};

/// Victim request size (4 KiB reads).
const VICTIM_BYTES: usize = 4096;
/// Hostile request size (256 KiB writes).
const HOSTILE_BYTES: usize = 256 * 1024;
/// Device span the fleet reads across (sectors of 512 B).
const SPAN_SECTORS: u64 = (64 << 20) / 512;
/// Hostile pipeline depth: 256 KiB writes kept in flight per batch.
const HOSTILE_DEPTH: usize = 8;
/// Hostile token-bucket rate in the QoS run (bytes of payload per
/// virtual second): 8 MiB/s, ~32 hostile writes per virtual second.
const HOSTILE_RATE: u64 = 8 * 1024 * 1024;
/// Hostile bucket burst: one full pipeline batch.
const HOSTILE_BURST: u64 = (HOSTILE_DEPTH * HOSTILE_BYTES) as u64;
/// Victim open-loop arrival interval: one 4 KiB read per 2 ms of virtual
/// time per tenant (500 IOPS each). Open-loop pacing keeps latency
/// measurements honest under contention (no coordinated omission).
const VICTIM_INTERVAL_NS: u64 = 2_000_000;
/// Conservative-PDES window: no actor's virtual clock may run more than
/// this far ahead of the slowest live actor, so a throttled tenant
/// idling forward cannot drag shared worker clocks into its future.
/// Kept tight (an eighth of the victim interval) because inter-client
/// skew is a latency measurement floor: worker clocks ride the
/// front-runner, and a lagging victim observes that lead as latency.
const MAX_SKEW_NS: u64 = 250_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Solo,
    ContendedNoQos,
    ContendedQos,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Solo => "solo",
            Mode::ContendedNoQos => "contended_noqos",
            Mode::ContendedQos => "contended_qos",
        }
    }

    fn hostile(self) -> bool {
        self != Mode::Solo
    }
}

/// Hostile-side measurements (zeroed when the mode runs no hostile).
#[derive(Debug, Default, Clone, Copy)]
struct HostileStats {
    ops: u64,
    throttled: u64,
    bytes: u64,
    /// The hostile clock at exit — admitted bytes over this window is the
    /// virtual throughput the bucket gate checks.
    elapsed_vns: u64,
}

struct RunResult {
    mode: Mode,
    victim_p50_vns: u64,
    victim_p99_vns: u64,
    victim_ops: u64,
    hostile: HostileStats,
    /// Per-tenant accounting snapshot from the runtime's `TenantTable`.
    tenants_json: serde_json::Value,
}

fn block_stack_spec() -> StackSpec {
    StackSpec {
        mount: "blk::/t".into(),
        exec: "async".into(),
        authorized_uids: vec![0],
        labmods: vec![
            VertexSpec {
                uuid: "sched_t".into(),
                type_name: "noop_sched".into(),
                params: serde_json::Value::Null,
                outputs: vec!["drv_t".into()],
            },
            VertexSpec {
                uuid: "drv_t".into(),
                type_name: "kernel_driver".into(),
                params: serde_json::json!({"device": "nvme0"}),
                outputs: vec![],
            },
        ],
    }
}

/// Deterministic per-thread LBA sequence (splitmix64).
fn next_lba(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Keep the op inside the span, sector-aligned to its size.
    let sectors = (VICTIM_BYTES / 512) as u64;
    (z % (SPAN_SECTORS - sectors)) / sectors * sectors
}

fn run(mode: Mode, victims: usize, ops_per_victim: usize) -> RunResult {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = runtime_with_mods(&devices, 4, true);
    let stack = rt.mount_stack(&block_stack_spec()).expect("stack mounts");

    let victim_policy = TenantPolicy::default().with_weight(4);
    let hostile_policy = TenantPolicy::rate_limited(HOSTILE_RATE, HOSTILE_BURST).with_weight(1);

    let stop = Arc::new(AtomicBool::new(false));
    let actors = victims + usize::from(mode.hostile());
    let gate = Arc::new(SkewGate::new(actors, MAX_SKEW_NS));
    let (lat, hostile) = std::thread::scope(|s| {
        // The hostile tenant runs for as long as the fleet does: writes
        // 256 KiB as fast as admission lets it, backing off by the
        // bucket's retry-after hint in virtual time when throttled.
        let hostile_handle = mode.hostile().then(|| {
            let rt = rt.clone();
            let stack = stack.clone();
            let stop = stop.clone();
            let gate = gate.clone();
            s.spawn(move || {
                let creds = Credentials::new(1000, 0, 0).with_tenant(1000.into());
                let mut client = match mode {
                    Mode::ContendedQos => rt.connect_with_policy(creds, 1, hostile_policy),
                    _ => rt.connect(creds, 1),
                };
                let mut stats = HostileStats::default();
                let mut lba = 0u64;
                while !stop.load(Ordering::Acquire) {
                    gate.sync(victims, client.ctx.now());
                    // Pipeline a full batch of writes; `submit_all`
                    // charges the whole burst against the bucket at once.
                    let payloads: Vec<Payload> = (0..HOSTILE_DEPTH)
                        .map(|_| {
                            let p = Payload::Block(BlockOp::Write {
                                lba,
                                data: vec![0xa5; HOSTILE_BYTES],
                            });
                            lba = (lba + (HOSTILE_BYTES / 512) as u64) % SPAN_SECTORS;
                            p
                        })
                        .collect();
                    match client.submit_all(&stack, payloads) {
                        Ok(ids) => {
                            for _ in &ids {
                                client.reap_one().expect("hostile completion");
                            }
                            stats.ops += ids.len() as u64;
                            stats.bytes += (ids.len() * HOSTILE_BYTES) as u64;
                        }
                        Err(ClientError::Throttled { retry_after_ns }) => {
                            stats.throttled += 1;
                            let target = client.ctx.now() + retry_after_ns;
                            client.ctx.idle_until(target);
                        }
                        Err(e) => panic!("hostile tenant: {e}"),
                    }
                }
                gate.finish(victims);
                stats.elapsed_vns = client.ctx.now();
                stats
            })
        });

        let victim_handles: Vec<_> = (0..victims)
            .map(|i| {
                let rt = rt.clone();
                let stack = stack.clone();
                let gate = gate.clone();
                s.spawn(move || {
                    let tenant = i as u32 + 1;
                    let creds = Credentials::new(tenant, 0, 0).with_tenant(tenant.into());
                    let mut client = match mode {
                        Mode::ContendedNoQos => rt.connect(creds, 1),
                        _ => rt.connect_with_policy(creds, 1, victim_policy),
                    };
                    let mut rng = tenant as u64;
                    let mut lat = Vec::with_capacity(ops_per_victim);
                    let start = client.ctx.now();
                    for op in 0..ops_per_victim {
                        // Open-loop arrival: one read per interval, paced
                        // in virtual time and held inside the skew window.
                        client
                            .ctx
                            .idle_until(start + op as u64 * VICTIM_INTERVAL_NS);
                        gate.sync(i, client.ctx.now());
                        let payload = Payload::Block(BlockOp::ReadBuf {
                            lba: next_lba(&mut rng),
                            len: VICTIM_BYTES,
                        });
                        match client.execute(&stack, payload) {
                            Ok((_, latency)) => lat.push(latency),
                            Err(e) => panic!("victim tenant {tenant}: {e}"),
                        }
                    }
                    gate.finish(i);
                    lat
                })
            })
            .collect();

        let mut lat: Vec<u64> = Vec::with_capacity(victims * ops_per_victim);
        for h in victim_handles {
            lat.extend(h.join().expect("victim thread"));
        }
        stop.store(true, Ordering::Release);
        let hostile = hostile_handle
            .map(|h| h.join().expect("hostile thread"))
            .unwrap_or_default();
        (lat, hostile)
    });

    let tenants_json = rt.tenants.export_json();
    rt.shutdown();
    let mut lat = lat;
    lat.sort_unstable();
    RunResult {
        mode,
        victim_p50_vns: percentile(&lat, 0.50),
        victim_p99_vns: percentile(&lat, 0.99),
        victim_ops: lat.len() as u64,
        hostile,
        tenants_json,
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_args("tenant_isolation", "BENCH_tenants.json");
    let (victims, ops_per_victim) = if report.smoke() { (12, 40) } else { (99, 200) };

    let results: Vec<RunResult> = [Mode::Solo, Mode::ContendedNoQos, Mode::ContendedQos]
        .into_iter()
        .map(|m| run(m, victims, ops_per_victim))
        .collect();
    for r in &results {
        report.row([
            ("mode", r.mode.label().into()),
            ("victim_ops", r.victim_ops.into()),
            ("victim_p50_vns", r.victim_p50_vns.into()),
            ("victim_p99_vns", r.victim_p99_vns.into()),
            ("hostile_ops", r.hostile.ops.into()),
            ("hostile_throttled", r.hostile.throttled.into()),
            ("hostile_bytes", r.hostile.bytes.into()),
            ("hostile_elapsed_vns", r.hostile.elapsed_vns.into()),
            ("tenants", r.tenants_json.clone()),
        ]);
    }
    let find = |m: Mode| results.iter().find(|r| r.mode == m).expect("mode ran");
    let (solo, noqos, qos) = (
        find(Mode::Solo),
        find(Mode::ContendedNoQos),
        find(Mode::ContendedQos),
    );
    let p99_over_solo = |r: &RunResult| r.victim_p99_vns as f64 / solo.victim_p99_vns.max(1) as f64;
    let hostile_secs = qos.hostile.elapsed_vns as f64 / 1e9;
    report.param("victims", victims);
    report.param("ops_per_victim", ops_per_victim);
    report.param("victim_bytes", VICTIM_BYTES);
    report.param("hostile_bytes_per_op", HOSTILE_BYTES);
    report.param("hostile_bucket_rate", HOSTILE_RATE);
    report.param("hostile_bucket_burst", HOSTILE_BURST);
    report.param(
        "hostile_rate_bytes_per_vsec",
        qos.hostile.bytes as f64 / hostile_secs.max(1e-9),
    );
    report.param("damage_ratio_noqos", p99_over_solo(noqos));
    report.param("isolation_ratio_target", 2.0);
    // With QoS on, the fleet's aggregate p99 stays near solo: target 2x,
    // the hard ceiling lenient so CI noise cannot flake. The hostile
    // tenant's admitted virtual throughput stays at its bucket rate
    // (burst slack + 2x leniency).
    report.at_most("isolation_ratio", p99_over_solo(qos), 16.0);
    report.at_most(
        "hostile_bytes_over_bucket_allowance",
        qos.hostile.bytes as f64
            / (2.0 * (HOSTILE_RATE as f64 * hostile_secs + HOSTILE_BURST as f64)),
        1.0,
    );
    report.finish()
}
