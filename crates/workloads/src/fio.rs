//! FIO-like block workload generator (Figs. 5a, 6, 8).
//!
//! Closed-loop per-thread generator with configurable read/write mix,
//! access pattern, request size and queue depth, over any
//! [`BlockTarget`]: a kernel I/O engine (POSIX/AIO/libaio/io_uring), a
//! LabStor stack (driver mods, scheduler stacks), or PMEM via DAX.

use std::collections::VecDeque;
use std::sync::Arc;

use labstor_core::client::Client;
use labstor_core::{BlockOp, LabStack, Payload};
use labstor_kernel::engines::{IoEngineKind, RawEngine};
use labstor_kernel::sched::IoClass;
use labstor_sim::{Ctx, IoRequest, PmemDevice};

use crate::stats::Recorder;

/// Access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwMode {
    /// Random writes.
    RandWrite,
    /// Random reads.
    RandRead,
    /// Sequential writes.
    SeqWrite,
    /// Sequential reads.
    SeqRead,
    /// Random mix: this many reads per 100 operations (fio's `rwmixread`).
    RandMix {
        /// Read percentage, 0–100.
        read_pct: u8,
    },
}

impl RwMode {
    /// True for the random variants.
    pub(crate) fn is_random(self) -> bool {
        matches!(
            self,
            RwMode::RandWrite | RwMode::RandRead | RwMode::RandMix { .. }
        )
    }

    /// Decide whether operation drawing `roll` (an RNG sample) writes.
    pub(crate) fn writes_this_op(self, roll: u64) -> bool {
        match self {
            RwMode::RandWrite | RwMode::SeqWrite => true,
            RwMode::RandRead | RwMode::SeqRead => false,
            RwMode::RandMix { read_pct } => (roll % 100) as u8 >= read_pct,
        }
    }
}

/// One fio job description (per thread).
#[derive(Debug, Clone)]
pub struct FioJob {
    /// Access pattern.
    pub mode: RwMode,
    /// Request size in bytes (sector multiple).
    pub bs: usize,
    /// Operations to perform.
    pub ops: usize,
    /// Outstanding requests (QD).
    pub iodepth: usize,
    /// Address-space span in bytes the job touches.
    pub span_bytes: u64,
    /// RNG seed (per-thread offset recommended).
    pub seed: u64,
}

#[cfg(test)]
impl FioJob {
    /// 4 KB random writes, QD1 — the paper's most common configuration.
    fn rand_write_4k(ops: usize) -> Self {
        FioJob {
            mode: RwMode::RandWrite,
            bs: 4096,
            ops,
            iodepth: 1,
            span_bytes: 256 << 20,
            seed: 1,
        }
    }
}

/// Anything fio can drive: asynchronous block submission with FIFO waits.
pub trait BlockTarget {
    /// Queue one operation (write if `data` is `Some`). Returns a
    /// submission-time marker used for latency accounting.
    fn submit(&mut self, lba: u64, len: usize, data: Option<Vec<u8>>) -> Result<(), String>;
    /// Make all queued submissions visible to the device (io_uring-style
    /// batching; no-op elsewhere).
    fn kick(&mut self) -> Result<(), String>;
    /// Wait for the *oldest* outstanding operation; returns its virtual
    /// latency in ns.
    fn wait_one(&mut self) -> Result<u64, String>;
    /// Outstanding operations.
    fn in_flight(&self) -> usize;
    /// This thread's virtual clock.
    fn now_ns(&self) -> u64;
    /// Label for reports.
    fn label(&self) -> String;
}

/// Simple xorshift for reproducible offsets without pulling `rand` into
/// the hot loop.
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Run one fio job against a target; returns the thread's recorder.
pub fn run_fio(job: &FioJob, target: &mut dyn BlockTarget) -> Result<Recorder, String> {
    run_fio_inner(job, target, None)
}

/// Like [`run_fio`] but synchronized through a
/// [`SkewGate`](crate::stats::SkewGate): actor `idx` never runs more than
/// the gate's window ahead of its slowest peer. Required whenever several
/// fio threads share devices and the host has fewer cores than threads.
pub fn run_fio_gated(
    job: &FioJob,
    target: &mut dyn BlockTarget,
    gate: &crate::stats::SkewGate,
    idx: usize,
) -> Result<Recorder, String> {
    let r = run_fio_inner(job, target, Some((gate, idx)));
    gate.finish(idx);
    r
}

fn run_fio_inner(
    job: &FioJob,
    target: &mut dyn BlockTarget,
    gate: Option<(&crate::stats::SkewGate, usize)>,
) -> Result<Recorder, String> {
    let mut rec = Recorder::new(target.now_ns());
    let mut rng = XorShift::new(job.seed);
    let sectors_per_bs = (job.bs / labstor_sim::SECTOR_SIZE) as u64;
    let span_blocks = (job.span_bytes / job.bs as u64).max(1);
    let mut seq_cursor = 0u64;
    let payload: Vec<u8> = (0..job.bs).map(|i| (i % 251) as u8).collect();

    let mut issued = 0usize;
    while issued < job.ops || target.in_flight() > 0 {
        // Fill the window.
        while issued < job.ops && target.in_flight() < job.iodepth.max(1) {
            let block = if job.mode.is_random() {
                rng.next() % span_blocks
            } else {
                let b = seq_cursor;
                seq_cursor = (seq_cursor + 1) % span_blocks;
                b
            };
            let lba = block * sectors_per_bs;
            if job.mode.writes_this_op(rng.next()) {
                target.submit(lba, job.bs, Some(payload.clone()))?;
            } else {
                target.submit(lba, job.bs, None)?;
            }
            issued += 1;
        }
        target.kick()?;
        let latency = target.wait_one()?;
        rec.record(latency, job.bs);
        if let Some((gate, idx)) = gate {
            gate.sync(idx, target.now_ns());
        }
    }
    rec.end_vt = target.now_ns();
    Ok(rec)
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

/// A kernel I/O engine as a fio target.
pub struct EngineTarget {
    engine: RawEngine,
    ctx: Ctx,
    core: usize,
    class: IoClass,
    /// (token, submit_vt) FIFO; io_uring tokens appear at kick time.
    outstanding: VecDeque<(labstor_kernel::engines::Token, u64)>,
    /// Submit-times of staged-but-unkicked SQEs (io_uring).
    staged_vts: Vec<u64>,
    next_tag: u64,
    label: String,
}

impl EngineTarget {
    /// Wrap an engine for fio.
    pub fn new(engine: RawEngine, core: usize, class: IoClass) -> Self {
        let label = engine.kind().label().to_string();
        EngineTarget {
            engine,
            ctx: Ctx::new(),
            core,
            class,
            outstanding: VecDeque::new(),
            staged_vts: Vec::new(),
            next_tag: 1,
            label,
        }
    }
}

impl BlockTarget for EngineTarget {
    fn submit(&mut self, lba: u64, len: usize, data: Option<Vec<u8>>) -> Result<(), String> {
        self.next_tag += 1;
        let req = match data {
            Some(d) => IoRequest::write(lba, d, self.next_tag),
            None => IoRequest::read(lba, len, self.next_tag),
        };
        let vt = self.ctx.now();
        let token = self
            .engine
            .submit(&mut self.ctx, self.core, self.class, req)
            .map_err(|e| e.to_string())?;
        if self.engine.kind() == IoEngineKind::IoUring {
            self.staged_vts.push(vt);
        } else {
            self.outstanding.push_back((token, vt));
        }
        Ok(())
    }

    fn kick(&mut self) -> Result<(), String> {
        if self.engine.kind() == IoEngineKind::IoUring && !self.staged_vts.is_empty() {
            let tokens = self.engine.kick(&mut self.ctx).map_err(|e| e.to_string())?;
            for (token, vt) in tokens.into_iter().zip(self.staged_vts.drain(..)) {
                self.outstanding.push_back((token, vt));
            }
        }
        Ok(())
    }

    fn wait_one(&mut self) -> Result<u64, String> {
        let (token, vt) = self
            .outstanding
            .pop_front()
            .ok_or_else(|| "nothing in flight".to_string())?;
        let c = self.engine.wait(&mut self.ctx, token);
        if let Err(e) = c.result {
            return Err(e.to_string());
        }
        Ok(self.ctx.now().saturating_sub(vt))
    }

    fn in_flight(&self) -> usize {
        self.outstanding.len() + self.staged_vts.len()
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// A LabStor stack as a fio target (block payloads straight into the
/// stack's entry vertex — driver-only stacks reproduce Fig. 6's LabStor
/// rows; scheduler stacks reproduce Fig. 8's Lab rows).
pub struct StackTarget {
    client: Client,
    stack: Arc<LabStack>,
    label: String,
}

impl StackTarget {
    /// Wrap a client + stack; `core` stamps requests for core-affine
    /// scheduling.
    pub fn new(mut client: Client, stack: Arc<LabStack>, core: usize, label: &str) -> Self {
        client.core = core;
        StackTarget {
            client,
            stack,
            label: label.to_string(),
        }
    }
}

impl BlockTarget for StackTarget {
    fn submit(&mut self, lba: u64, len: usize, data: Option<Vec<u8>>) -> Result<(), String> {
        let payload = match data {
            Some(d) => Payload::Block(BlockOp::Write { lba, data: d }),
            None => Payload::Block(BlockOp::ReadBuf { lba, len }),
        };
        self.client
            .submit(&self.stack, payload)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn kick(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn wait_one(&mut self) -> Result<u64, String> {
        let (resp, latency) = self.client.reap_one().map_err(|e| e.to_string())?;
        if resp.payload.is_ok() {
            Ok(latency)
        } else {
            Err(format!("{:?}", resp.payload))
        }
    }

    fn in_flight(&self) -> usize {
        self.client.in_flight()
    }

    fn now_ns(&self) -> u64 {
        self.client.ctx.now()
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

/// PMEM through DAX as a fio target (byte-addressable, synchronous).
pub struct DaxTarget {
    dev: Arc<PmemDevice>,
    ctx: Ctx,
    /// Latency of the op performed at submit (DAX is synchronous).
    done: VecDeque<u64>,
}

impl DaxTarget {
    /// Wrap a PMEM device.
    pub fn new(dev: Arc<PmemDevice>) -> Self {
        DaxTarget {
            dev,
            ctx: Ctx::new(),
            done: VecDeque::new(),
        }
    }
}

impl BlockTarget for DaxTarget {
    fn submit(&mut self, lba: u64, len: usize, data: Option<Vec<u8>>) -> Result<(), String> {
        let offset = lba * labstor_sim::SECTOR_SIZE as u64;
        let t0 = self.ctx.now();
        match data {
            Some(d) => {
                self.dev
                    .store(&mut self.ctx, offset, &d)
                    .map_err(|e| e.to_string())?;
            }
            None => {
                let mut buf = vec![0u8; len];
                self.dev
                    .load(&mut self.ctx, offset, &mut buf)
                    .map_err(|e| e.to_string())?;
            }
        }
        self.done.push_back(self.ctx.now() - t0);
        Ok(())
    }

    fn kick(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn wait_one(&mut self) -> Result<u64, String> {
        self.done
            .pop_front()
            .ok_or_else(|| "nothing in flight".to_string())
    }

    fn in_flight(&self) -> usize {
        self.done.len()
    }

    fn now_ns(&self) -> u64 {
        self.ctx.now()
    }

    fn label(&self) -> String {
        "dax".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_kernel::BlockLayer;
    use labstor_sim::{DeviceKind, SimDevice};

    fn engine_target(kind: IoEngineKind) -> EngineTarget {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        EngineTarget::new(
            RawEngine::new(kind, BlockLayer::new(dev)),
            0,
            IoClass::Latency,
        )
    }

    #[test]
    fn qd1_write_job_completes() {
        let mut t = engine_target(IoEngineKind::Posix);
        let rec = run_fio(&FioJob::rand_write_4k(50), &mut t).unwrap();
        assert_eq!(rec.ops(), 50);
        assert!(rec.mean_ns() > 0);
        assert!(
            rec.span_ns() >= 50 * 10_000,
            "50 NVMe writes take 500+ µs of virtual time"
        );
    }

    #[test]
    fn qd32_has_higher_throughput_than_qd1() {
        // A single submission queue maps to one device service chain
        // (queue-affine arbitration — see `labstor_sim::time::ChannelPool`),
        // so QD only overlaps *software* cost with media time. Spreading
        // the same QD32 across queues (as multi-queue apps do) is what
        // buys device parallelism.
        let job1 = FioJob {
            iodepth: 1,
            ..FioJob::rand_write_4k(200)
        };
        let job32 = FioJob {
            iodepth: 32,
            ..FioJob::rand_write_4k(200)
        };
        let mut t1 = engine_target(IoEngineKind::IoUring);
        let mut t32 = engine_target(IoEngineKind::IoUring);
        let r1 = run_fio(&job1, &mut t1).unwrap();
        let r32 = run_fio(&job32, &mut t32).unwrap();
        assert!(
            r32.ops_per_sec() > r1.ops_per_sec() * 1.1,
            "QD32 {} ops/s vs QD1 {} ops/s",
            r32.ops_per_sec(),
            r1.ops_per_sec()
        );
    }

    #[test]
    fn parallelism_comes_from_multiple_queues() {
        // Eight QD1 streams on eight different cores (→ eight hardware
        // queues) finish ~8x faster than eight sequential streams.
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let layer = BlockLayer::new(dev);
        let mut spans = Vec::new();
        for core in 0..8 {
            let engine = RawEngine::new(IoEngineKind::IoUring, layer.clone());
            let mut t = EngineTarget::new(engine, core, IoClass::Latency);
            let r = run_fio(&FioJob::rand_write_4k(50), &mut t).unwrap();
            spans.push(r.span_ns());
        }
        let makespan = spans.iter().max().copied().unwrap();
        let serial: u64 = spans.iter().sum();
        assert!(
            makespan * 4 < serial,
            "queues overlap: makespan {makespan} serial {serial}"
        );
    }

    #[test]
    fn all_engines_complete_reads_and_writes() {
        for kind in IoEngineKind::all() {
            for mode in [RwMode::RandWrite, RwMode::SeqRead] {
                let mut t = engine_target(kind);
                let job = FioJob {
                    mode,
                    ..FioJob::rand_write_4k(20)
                };
                let rec = run_fio(&job, &mut t).unwrap();
                assert_eq!(rec.ops(), 20, "{} {:?}", kind.label(), mode);
            }
        }
    }

    #[test]
    fn dax_target_runs() {
        let mut t = DaxTarget::new(PmemDevice::preset());
        let job = FioJob {
            bs: 4096,
            ..FioJob::rand_write_4k(30)
        };
        let rec = run_fio(&job, &mut t).unwrap();
        assert_eq!(rec.ops(), 30);
        // PMEM 4 KB ≈ 1.2 µs: far faster than NVMe's 12 µs.
        assert!(rec.mean_ns() < 5_000, "mean {}", rec.mean_ns());
    }

    #[test]
    fn sequential_mode_wraps_span() {
        let mut t = engine_target(IoEngineKind::Posix);
        let job = FioJob {
            mode: RwMode::SeqWrite,
            bs: 4096,
            ops: 10,
            iodepth: 1,
            span_bytes: 4 * 4096, // wraps after 4 ops
            seed: 3,
        };
        let rec = run_fio(&job, &mut t).unwrap();
        assert_eq!(rec.ops(), 10);
    }

    #[test]
    fn mixed_mode_interleaves_reads_and_writes() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let layer = BlockLayer::new(dev.clone());
        let mut t = EngineTarget::new(
            RawEngine::new(IoEngineKind::Posix, layer),
            0,
            IoClass::Latency,
        );
        let job = FioJob {
            mode: RwMode::RandMix { read_pct: 70 },
            ..FioJob::rand_write_4k(300)
        };
        let rec = run_fio(&job, &mut t).unwrap();
        assert_eq!(rec.ops(), 300);
        let s = labstor_sim::BlockDevice::stats(dev.as_ref()).snapshot();
        // ~70/30 split within generous tolerance.
        assert!(
            s.reads > 150 && s.writes > 40,
            "reads {} writes {}",
            s.reads,
            s.writes
        );
        assert_eq!(s.reads + s.writes, 300);
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }
}
