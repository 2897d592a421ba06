//! Data-path benchmark: copy vs zero-copy read hits — emits
//! `BENCH_datapath.json`.
//!
//! **Read-hit sweep** — payload size (4 KiB / 64 KiB / 256 KiB) × mode
//! (copying `BlockOp::Read` vs zero-copy `BlockOp::ReadBuf`). A client
//! half submits read descriptors over a queue pair; the worker half
//! serves them from a pre-warmed `LruCacheMod` whose blocks live in the
//! shared buffer pool. The copying mode clones the cached bytes into
//! `RespPayload::Data` per hit; the zero-copy mode answers with a
//! `BufHandle` slice — a refcount bump. Both wall-clock ops/s and the
//! modeled per-hit virtual cost are recorded.
//!
//! Gate (run fails with exit 1 if it misses): zero-copy read hits at
//! 64 KiB must not fall below the copying baseline on wall-clock ops/s
//! (target 2×, floor 1× to keep CI hosts from flaking the build) AND must
//! beat it ≥2× on modeled virtual cost (deterministic, so the floor is
//! the target).
//!
//! Usage: `bench_datapath [--smoke]` — `--smoke` shrinks op counts for CI
//! and writes `target/bench/BENCH_datapath.json` instead.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use labstor_bench::Report;
use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::{BlockOp, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{default_pool, Credentials, Envelope, QueueFlags, QueuePair};
use labstor_sim::{Ctx, SECTOR_SIZE};

const RUNTIME_DOMAIN: u32 = 0;
const CLIENT_DOMAIN: u32 = 1;
const QUEUE_DEPTH: usize = 256;
const BATCH: usize = 8;
/// Distinct cached blocks the read-hit sweep cycles through (bounded by
/// the default pool's 256 KiB class, which has 16 slots).
const NBLOCKS: u64 = 8;

/// Queue message: the lba to read going down, the response coming back.
type Msg = (u64, Option<RespPayload>);

fn queue() -> Arc<QueuePair<Msg>> {
    Arc::new(QueuePair::new(0, QUEUE_DEPTH, QueueFlags::default()))
}

/// One read-hit configuration's measurements.
struct ReadHit {
    size: usize,
    zero_copy: bool,
    ops: usize,
    ops_per_sec: f64,
    gib_per_sec: f64,
    /// Modeled (virtual) busy ns per hit on the worker side.
    virt_hit_ns: f64,
}

/// Build a single-vertex stack around a warm write-back LRU cache so
/// every benchmarked read is a hit served straight from the mod.
fn warm_cache(size: usize) -> (ModuleManager, LabStack) {
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
        let mut buf = default_pool().alloc(size).expect("pool has a slot");
        assert!(buf.write_with(|b| b.fill(extent as u8)), "fresh handle");
        let resp = cache.process(
            &mut ctx,
            Request::new(
                extent,
                stack.id,
                Payload::Block(BlockOp::WriteBuf {
                    lba: extent * (size / SECTOR_SIZE) as u64,
                    buf,
                }),
                Credentials::ROOT,
            ),
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
fn run_readhit(size: usize, zero_copy: bool, ops: usize) -> ReadHit {
    let (mm, stack) = warm_cache(size);
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
            let op = if zero_copy {
                BlockOp::ReadBuf { lba, len: size }
            } else {
                BlockOp::Read { lba, len: size }
            };
            let resp = cache.process(
                &mut worker,
                Request::new(extent, stack.id, Payload::Block(op), Credentials::ROOT),
                &env,
            );
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
            if zero_copy {
                assert!(
                    matches!(resp, RespPayload::DataBuf(_)),
                    "zero-copy hit must answer with a handle"
                );
            }
            let bytes = resp.data_bytes().expect("hit carries data");
            assert_eq!(bytes.len(), size);
            assert_eq!(bytes[0], extent as u8, "payload integrity");
            reaped += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    ReadHit {
        size,
        zero_copy,
        ops,
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
        for zero_copy in [false, true] {
            hits.push(run_readhit(size, zero_copy, hit_ops));
        }
    }
    for h in &hits {
        report.row([
            ("payload_bytes", h.size.into()),
            ("mode", if h.zero_copy { "zerocopy" } else { "copy" }.into()),
            ("ops", h.ops.into()),
            ("ops_per_sec", h.ops_per_sec.into()),
            ("gib_per_sec", h.gib_per_sec.into()),
            ("virt_hit_ns", h.virt_hit_ns.into()),
        ]);
    }

    let find_hit = |zc: bool| {
        hits.iter()
            .find(|h| h.size == 64 * 1024 && h.zero_copy == zc)
            .expect("config present")
    };
    let (copy64, zc64) = (find_hit(false), find_hit(true));
    // Wall floor 1.0 (never regress, CI-noise proof); the modeled cost is
    // deterministic so it gates at the full 2x target.
    report.param("zero_copy_64k_target", 2.0);
    report.at_least(
        "zero_copy_64k_wall_speedup",
        zc64.ops_per_sec / copy64.ops_per_sec.max(1e-9),
        1.0,
    );
    report.at_least(
        "zero_copy_64k_modeled_speedup",
        copy64.virt_hit_ns / zc64.virt_hit_ns.max(1e-9),
        2.0,
    );
    report.finish()
}
