//! Data-path benchmark: read hits on a warm block cache — emits
//! `BENCH_datapath.json`.
//!
//! **Read-hit sweep** — payload size (4 KiB / 64 KiB / 256 KiB) × mode.
//! A client half submits read descriptors over a queue pair; the worker
//! half serves each with one `BlockOp::ReadBuf` from a pre-warmed
//! `LruCacheMod`. The two modes are named after the verb that warmed the
//! cache: `owned` with `BlockOp::Write`s, whose bytes the cache copied
//! into one pool slot per 4 KiB block, so a hit of several blocks answers
//! with the slots' views (`RespPayload::DataRuns`); `pool` with pool
//! buffer `BlockOp::WriteBuf`s, so every hit answers with one `BufHandle`
//! slice. Either way a hit is refcount bumps. Each run records the most
//! payload bytes one hit copied, its wall-clock ops/s and the modeled
//! per-hit virtual cost.
//!
//! Gate (run fails with exit 1 if it misses), so that a copying hit
//! cannot come back:
//! * no hit, of any size in either mode, copies a payload byte;
//! * each mode's 64 KiB modeled cost per hit stays at most what the
//!   committed full run measured (deterministic, so the bound is exact).
//!
//! Usage: `bench_datapath [--smoke]` — `--smoke` shrinks op counts for CI
//! and writes `target/bench/BENCH_datapath.json` instead.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use labstor_bench::Report;
use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::{BlockOp, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{default_pool, payload_copy_bytes, Credentials, Envelope, QueueFlags, QueuePair};
use labstor_sim::{Ctx, SECTOR_SIZE};

const RUNTIME_DOMAIN: u32 = 0;
const CLIENT_DOMAIN: u32 = 1;
const QUEUE_DEPTH: usize = 256;
const BATCH: usize = 8;
/// Distinct cached blocks the read-hit sweep cycles through (bounded by
/// the default pool's 256 KiB class, which has 16 slots).
const NBLOCKS: u64 = 8;

/// Modeled cost of one 64 KiB hit on an owned-warmed cache: sixteen
/// single-block slots, answered by their views.
const OWNED_64K_HIT_VNS: f64 = 3000.0;
/// Modeled cost of one 64 KiB hit on a pool-warmed cache: one slot.
const POOL_64K_HIT_VNS: f64 = 3000.0;

/// Queue message: the lba to read going down, the response coming back.
type Msg = (u64, Option<RespPayload>);

fn queue() -> Arc<QueuePair<Msg>> {
    Arc::new(QueuePair::new(0, QUEUE_DEPTH, QueueFlags::default()))
}

/// One read-hit configuration's measurements.
struct ReadHit {
    size: usize,
    /// Warmed with `WriteBuf`s (else with owned `Write`s).
    pool: bool,
    ops: usize,
    /// Most payload bytes one hit copied.
    max_copy_bytes: u64,
    ops_per_sec: f64,
    gib_per_sec: f64,
    /// Modeled (virtual) busy ns per hit on the worker side.
    virt_hit_ns: f64,
}

/// Build a single-vertex stack around a warm write-back LRU cache so
/// every benchmarked read is a hit served straight from the mod, warmed
/// with `WriteBuf`s when `pool`, else with owned `Write`s.
fn warm_cache(size: usize, pool: bool) -> (ModuleManager, LabStack) {
    let mm = ModuleManager::new();
    labstor_mods::lru::install(&mm);
    mm.instantiate(
        "cache",
        "lru_cache",
        &serde_json::json!({"capacity_bytes": 64usize << 20, "write_back": true}),
    )
    .expect("instantiate lru_cache");
    let stack = LabStack {
        id: 1,
        mount: "bench".into(),
        exec: ExecMode::Sync,
        vertices: vec![Vertex {
            uuid: "cache".into(),
            outputs: vec![],
        }],
        authorized_uids: vec![],
    };
    let env = StackEnv::new(&stack, 0, &mm, RUNTIME_DOMAIN);
    let cache = mm.get("cache").expect("cache registered");
    let mut ctx = Ctx::new();
    for extent in 0..NBLOCKS {
        let lba = extent * (size / SECTOR_SIZE) as u64;
        let op = if pool {
            let mut buf = default_pool().alloc(size).expect("pool has a slot");
            assert!(buf.write_with(|b| b.fill(extent as u8)), "fresh handle");
            BlockOp::WriteBuf { lba, buf }
        } else {
            let data = vec![extent as u8; size];
            BlockOp::Write { lba, data }
        };
        let resp = cache.process(
            &mut ctx,
            Request::new(extent, stack.id, Payload::Block(op), Credentials::ROOT),
            &env,
        );
        assert!(
            matches!(resp, RespPayload::Len(n) if n == size),
            "warm write cached"
        );
    }
    (mm, stack)
}

/// Client and worker halves interleaved in one thread (deterministic, no
/// scheduler noise): the client streams lbas over the queue pair, the
/// worker answers each from the cache mod, the client checks a byte of
/// every response.
fn run_readhit(size: usize, pool: bool, ops: usize) -> ReadHit {
    let (mm, stack) = warm_cache(size, pool);
    let env = StackEnv::new(&stack, 0, &mm, RUNTIME_DOMAIN);
    let cache = mm.get("cache").expect("cache registered");
    let qp = queue();
    let mut client = Ctx::new();
    let mut worker = Ctx::new();
    let vbase = worker.busy();
    let mut pend: Vec<Msg> = Vec::with_capacity(BATCH);
    let mut inbox: Vec<Envelope<Msg>> = Vec::with_capacity(BATCH);
    let mut done: Vec<(Msg, u64)> = Vec::with_capacity(BATCH);
    let mut outbox: Vec<Envelope<Msg>> = Vec::with_capacity(BATCH);
    let mut next: u64 = 0;
    let mut reaped = 0usize;
    let mut max_copy_bytes = 0;
    let t0 = Instant::now();
    while reaped < ops {
        if pend.is_empty() && (next as usize) < ops {
            let n = BATCH.min(ops - next as usize);
            for _ in 0..n {
                pend.push((next % NBLOCKS, None));
                next += 1;
            }
        }
        if !pend.is_empty() {
            qp.submit_batch(&mut pend, client.now(), CLIENT_DOMAIN);
        }
        inbox.clear();
        qp.consume_batch(&mut worker, RUNTIME_DOMAIN, &mut inbox, BATCH);
        for env_msg in inbox.drain(..) {
            let extent = env_msg.payload.0;
            let lba = extent * (size / SECTOR_SIZE) as u64;
            let op = BlockOp::ReadBuf { lba, len: size };
            let copied = payload_copy_bytes();
            let resp = cache.process(
                &mut worker,
                Request::new(extent, stack.id, Payload::Block(op), Credentials::ROOT),
                &env,
            );
            max_copy_bytes = max_copy_bytes.max(payload_copy_bytes() - copied);
            done.push(((extent, Some(resp)), worker.now()));
        }
        while !done.is_empty() {
            qp.complete_batch(&mut done, RUNTIME_DOMAIN);
        }
        outbox.clear();
        qp.reap_batch(&mut client, CLIENT_DOMAIN, &mut outbox, BATCH);
        for env_msg in outbox.drain(..) {
            let (extent, resp) = env_msg.payload;
            let resp = resp.expect("worker filled the response");
            if pool {
                assert!(
                    matches!(resp, RespPayload::DataBuf(_)),
                    "a hit on one buffer answers with one handle"
                );
            }
            let parts: Vec<&[u8]> = resp.data_parts().expect("hit carries data").collect();
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), size);
            assert_eq!(parts[0][0], extent as u8, "payload integrity");
            reaped += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    ReadHit {
        size,
        pool,
        ops,
        max_copy_bytes,
        ops_per_sec: ops as f64 / elapsed,
        gib_per_sec: (ops * size) as f64 / elapsed / (1u64 << 30) as f64,
        virt_hit_ns: (worker.busy() - vbase) as f64 / ops as f64,
    }
}

fn main() -> ExitCode {
    let mut report = Report::from_args("datapath", "BENCH_datapath.json");
    let hit_ops = if report.smoke() { 4_000 } else { 40_000 };

    let mut hits: Vec<ReadHit> = Vec::new();
    for size in [4 * 1024usize, 64 * 1024, 256 * 1024] {
        for pool in [false, true] {
            hits.push(run_readhit(size, pool, hit_ops));
        }
    }
    for h in &hits {
        report.row([
            ("payload_bytes", h.size.into()),
            ("mode", if h.pool { "pool" } else { "owned" }.into()),
            ("ops", h.ops.into()),
            ("ops_per_sec", h.ops_per_sec.into()),
            ("gib_per_sec", h.gib_per_sec.into()),
            ("virt_hit_ns", h.virt_hit_ns.into()),
            ("max_copy_bytes", h.max_copy_bytes.into()),
        ]);
    }

    let most_copied = hits.iter().map(|h| h.max_copy_bytes).max().unwrap_or(0);
    report.at_most("hit_copy_bytes_max", most_copied as f64, 0.0);
    // The committed full run's 64 KiB costs per hit, one per mode.
    for (pool, name, bound) in [
        (false, "owned_64k_virt_hit_ns", OWNED_64K_HIT_VNS),
        (true, "pool_64k_virt_hit_ns", POOL_64K_HIT_VNS),
    ] {
        let h = hits
            .iter()
            .find(|h| h.size == 64 * 1024 && h.pool == pool)
            .expect("config present");
        report.at_most(name, h.virt_hit_ns, bound);
    }
    report.finish()
}
