//! The five workloads: closed loop, one client, every op a connector call
//! that reaches the stack. Each carries a shadow model of what the stack
//! must return, so a wrong byte counts as a failed operation.

use std::sync::Arc;

use labstor::core::{Client, FsOp, LabStack, Payload, RespPayload, StackSpec};
use labstor::ipc::{Credentials, TenantId};
use labstor::mods::{GenericFs, GenericKvs};
use labstor::qos::TenantPolicy;
use labstor::workloads::filebench::{run_filebench, FilebenchJob, Personality};
use labstor::workloads::{FsTarget, LabStorFsTarget};
use labstor_bench::{labfs_stack_spec, labkvs_stack_spec, LabVariant};

use crate::trial::Trial;

/// A workload: its LabStack, its op stream, and why it is in the set.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub stack: fn() -> StackSpec,
    /// Set up, then drive a timed region of the given number of operations.
    pub run: fn(&mut Trial, u64) -> Result<(), String>,
    /// Share of the timed region, at speed 1, that scales with the core clock
    /// and not with the memory system
    /// ([`crate::harness::at_reference_speed`]); fitted, see README.
    pub core_share: f64,
    /// Requests the client keeps in flight.
    pub depth: u64,
    /// Operations in one trial's timed region (`--smoke` runs a quarter).
    pub ops: u64,
    /// Upper bound on labtelem spans one thread records per op (sizes the
    /// pass-V rings; the harness checks that none were dropped).
    pub spans_per_op: u64,
}

const FS_MOUNT: &str = "fs::/b";
const KV_MOUNT: &str = "kv::/b";
const PAGE: usize = 4096;
/// Requests of a Filebench varmail run that reach the stack: the fileset
/// preallocation (one mkdir, then open + write for each of 64 files) and each
/// flow (unlink, open, write, fsync, open, write, fsync, open, read).
const VARMAIL_PREALLOC: u64 = 1 + 64 * 2;
const VARMAIL_FLOW: u64 = 9;
/// Transfer size of `seq64k_min_qd8`.
const CHUNK: usize = 64 << 10;

fn fs_stack(variant: LabVariant, cache_bytes: usize) -> StackSpec {
    labfs_stack_spec(variant, FS_MOUNT, "nvme0", 1, cache_bytes)
}

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rw4k_all_qd1",
        why: "Fig. 4a stack (perms, labfs, lru, sched, driver; async): most of an op is the client-worker hop, so queue, doorbell and reactor changes show here",
        stack: || fs_stack(LabVariant::All, 16 << 20),
        run: rw4k,
        core_share: 0.7,
        depth: 1,
        ops: 30_000,
        spans_per_op: 16,
    },
    Workload {
        name: "rw4k_d_qd1",
        why: "the same op stream through Lab-D, run inline in the client: no ipc, so an ipc change must leave it flat and a mod or sim change shows most",
        stack: || fs_stack(LabVariant::Decentralized, 16 << 20),
        run: rw4k,
        core_share: 0.45,
        depth: 1,
        ops: 100_000,
        spans_per_op: 16,
    },
    Workload {
        name: "seq64k_min_qd8",
        why: "64 KiB pool-handle writes and read-backs in bursts of 8: per-byte costs (BufferPool, batched verbs, zero-copy arms) and cache insert-then-hit",
        stack: || fs_stack(LabVariant::Min, 2 << 20),
        run: seq64k,
        core_share: 0.4,
        depth: 8,
        ops: 12_000,
        spans_per_op: 128,
    },
    Workload {
        name: "varmail_all",
        why: "Filebench varmail on Lab-All: create, append, fsync, delete; labfs metadata, journal commit and FlushDaemon, the same mods used for durability",
        stack: || fs_stack(LabVariant::All, 16 << 20),
        run: varmail,
        core_share: 0.85,
        depth: 1,
        ops: VARMAIL_PREALLOC + 400 * VARMAIL_FLOW,
        spans_per_op: 64,
    },
    Workload {
        name: "kvs_mix_min_qd1",
        why: "the only workload on labkvs, its op-log journal and qos admission: 60/40 get/put of 1 KiB values over 4096 keys",
        stack: || labkvs_stack_spec(LabVariant::Min, KV_MOUNT, "nvme0", 1),
        run: kvs_mix,
        core_share: 0.75,
        depth: 1,
        ops: 25_000,
        spans_per_op: 16,
    },
];

/// splitmix64: the whole op stream of a trial is a function of `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Fill `buf` with the words only `(id, generation)` produces.
fn fill(buf: &mut [u8], id: u64, generation: u32) {
    let base = ((id << 32) | u64::from(generation)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (i, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&base.wrapping_add(i as u64).to_le_bytes());
    }
}

/// True if `buf` is exactly what [`fill`] wrote for `(id, generation)`.
fn holds(buf: &[u8], id: u64, generation: u32) -> bool {
    let base = ((id << 32) | u64::from(generation)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    buf.len().is_multiple_of(8)
        && buf
            .chunks_exact(8)
            .enumerate()
            .all(|(i, word)| word == base.wrapping_add(i as u64).to_le_bytes())
}

fn connect(t: &Trial) -> Client {
    t.rt.connect(Credentials::new(1, 0, 0), 1)
}

/// `rw4k_*`: uniform 4 KiB offsets over a 64 MiB file, 70 % read / 30 % write.
/// The shadow model is one generation tag per page.
fn rw4k(t: &mut Trial, ops: u64) -> Result<(), String> {
    const FILE_PAGES: u64 = (64 << 20) / PAGE as u64;
    const PRELOAD_PAGES: usize = 16;
    let mut fs = GenericFs::new(connect(t));
    let fd = fs
        .open(&format!("{FS_MOUNT}/data.bin"), true, false)
        .map_err(|e| e.to_string())?;
    let mut chunk = vec![0u8; PRELOAD_PAGES * PAGE];
    for first in (0..FILE_PAGES).step_by(PRELOAD_PAGES) {
        for (i, page) in chunk.chunks_exact_mut(PAGE).enumerate() {
            fill(page, first + i as u64, 0);
        }
        fs.write(fd, &chunk).map_err(|e| e.to_string())?;
    }
    let mut generation = vec![0u32; FILE_PAGES as usize];
    let mut rng = Rng(t.seed);
    let mut buf = vec![0u8; PAGE];

    t.start(fs.client());
    for _ in 0..ops {
        let page = rng.below(FILE_PAGES);
        fs.seek(fd, page * PAGE as u64).map_err(|e| e.to_string())?;
        if rng.below(100) < 70 {
            let op = t.begin_op(fs.client());
            let data = fs.read(fd, PAGE);
            t.end_op(op, fs.client());
            let ok = data.is_ok_and(|d| holds(&d, page, generation[page as usize]));
            t.count(PAGE, ok);
        } else {
            generation[page as usize] += 1;
            fill(&mut buf, page, generation[page as usize]);
            let op = t.begin_op(fs.client());
            let written = fs.write(fd, &buf);
            t.end_op(op, fs.client());
            t.count(PAGE, written == Ok(PAGE));
        }
    }
    t.finish(fs.client());
    Ok(())
}

/// `seq64k_min_qd8`: the pool-handle API in bursts of eight — a write burst,
/// then a read-back burst of the same offsets, sequential over 16 MiB from a
/// seeded starting chunk.
fn seq64k(t: &mut Trial, ops: u64) -> Result<(), String> {
    const CHUNKS: u64 = (16 << 20) / CHUNK as u64;
    const DEPTH: u64 = 8;
    let mut client = connect(t);
    let stack = t.stack.clone();
    let open = Payload::Fs(FsOp::Open {
        path: "/seq.bin".into(),
        create: true,
        truncate: false,
    });
    let ino = match client.execute(&stack, open).map_err(|e| e.to_string())?.0 {
        RespPayload::Ino(ino) => ino,
        other => return Err(format!("open: {other:?}")),
    };
    let mut generation = vec![0u32; CHUNKS as usize];
    let mut scratch = vec![0u8; CHUNK];
    let first = Rng(t.seed).below(CHUNKS);

    t.start(&client);
    for burst in 0..ops / (2 * DEPTH) {
        let chunks: Vec<u64> = (0..DEPTH)
            .map(|i| (first + burst * DEPTH + i) % CHUNKS)
            .collect();
        let mut writes = Vec::with_capacity(chunks.len());
        for &c in &chunks {
            generation[c as usize] += 1;
            let offset = c * CHUNK as u64;
            let op = match client.alloc_buf(CHUNK) {
                Some(mut buf) => {
                    buf.write_with(|b| fill(b, c, generation[c as usize]));
                    FsOp::WriteBuf { ino, offset, buf }
                }
                None => {
                    // Pool dry: the documented fallback is the copying verb.
                    t.pool_alloc_fails += 1;
                    fill(&mut scratch, c, generation[c as usize]);
                    FsOp::Write {
                        ino,
                        offset,
                        data: scratch.clone(),
                    }
                }
            };
            writes.push(Payload::Fs(op));
        }
        burst_of(t, &mut client, &stack, writes, |_, resp| {
            matches!(resp, RespPayload::Len(CHUNK))
        })?;

        let reads = chunks
            .iter()
            .map(|&c| {
                Payload::Fs(FsOp::ReadBuf {
                    ino,
                    offset: c * CHUNK as u64,
                    len: CHUNK,
                })
            })
            .collect();
        burst_of(t, &mut client, &stack, reads, |i, resp| {
            let c = chunks[i];
            resp.data_bytes()
                .is_some_and(|data| data.len() == CHUNK && holds(data, c, generation[c as usize]))
        })?;
    }
    t.finish(&client);
    Ok(())
}

/// Submit `payloads` as one batch, reap every completion, and check each
/// with `check(index in the burst, response)`.
fn burst_of(
    t: &mut Trial,
    client: &mut Client,
    stack: &Arc<LabStack>,
    payloads: Vec<Payload>,
    check: impl Fn(usize, &RespPayload) -> bool,
) -> Result<(), String> {
    let call = t.begin_op(client);
    let ids = client
        .submit_all(stack, payloads)
        .map_err(|e| e.to_string())?;
    let mut responses = Vec::with_capacity(ids.len());
    for _ in 0..ids.len() {
        let (resp, latency_vns) = client.reap_one().map_err(|e| e.to_string())?;
        t.queued_op_done(latency_vns);
        responses.push(resp);
    }
    t.end_call(call);
    for resp in responses {
        let ok = ids
            .iter()
            .position(|&id| id == resp.id)
            .is_some_and(|i| check(i, &resp.payload));
        t.count(CHUNK, ok);
    }
    Ok(())
}

/// Times and checks every [`FsTarget`] call of a Filebench run that reaches
/// the stack (`seek` and `close` are client-side bookkeeping).
struct CheckedTarget<'t> {
    inner: LabStorFsTarget,
    trial: &'t mut Trial,
}

impl CheckedTarget<'_> {
    fn op<T>(
        &mut self,
        call: impl FnOnce(&mut LabStorFsTarget) -> Result<T, String>,
        judge: impl FnOnce(&T) -> (usize, bool),
    ) -> Result<T, String> {
        let start = self.trial.begin_op(self.inner.gfs.client());
        let out = call(&mut self.inner);
        self.trial.end_op(start, self.inner.gfs.client());
        let (user_bytes, ok) = out.as_ref().map_or((0, false), judge);
        self.trial.count(user_bytes, ok);
        out
    }

    /// A call that moves no user bytes and is right whenever it succeeds.
    fn meta_op<T>(
        &mut self,
        call: impl FnOnce(&mut LabStorFsTarget) -> Result<T, String>,
    ) -> Result<T, String> {
        self.op(call, |_| (0, true))
    }
}

impl FsTarget for CheckedTarget<'_> {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> Result<i32, String> {
        self.meta_op(|t| t.open(path, create, truncate))
    }
    fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, String> {
        self.op(|t| t.write(fd, data), |&n| (n, n == data.len()))
    }
    fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, String> {
        // Filebench writes byte `i % 253` at offset i and varmail reads
        // whole files from offset 0.
        self.op(
            |t| t.read(fd, len),
            |d| {
                let pattern = d.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8);
                (d.len(), d.len() == len && pattern)
            },
        )
    }
    fn seek(&mut self, fd: i32, pos: u64) -> Result<(), String> {
        self.inner.seek(fd, pos)
    }
    fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), String> {
        self.meta_op(|t| t.ftruncate(fd, size))
    }
    fn fsync(&mut self, fd: i32) -> Result<(), String> {
        self.meta_op(|t| t.fsync(fd))
    }
    fn close(&mut self, fd: i32) -> Result<(), String> {
        self.inner.close(fd)
    }
    fn unlink(&mut self, path: &str) -> Result<(), String> {
        self.meta_op(|t| t.unlink(path))
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), String> {
        self.meta_op(|t| t.rename(from, to))
    }
    fn mkdir(&mut self, path: &str) -> Result<(), String> {
        self.meta_op(|t| t.mkdir(path))
    }
    fn stat_size(&mut self, path: &str) -> Result<u64, String> {
        self.meta_op(|t| t.stat_size(path))
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn sync_to(&mut self, vt: u64) {
        self.inner.sync_to(vt);
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

/// `varmail_all`: 400 varmail flows over a 64 x 16 KiB fileset. The fileset
/// preallocation is part of `run_filebench`, so it is timed too.
fn varmail(t: &mut Trial, ops: u64) -> Result<(), String> {
    let job = FilebenchJob {
        personality: Personality::Varmail,
        iterations: ((ops - VARMAIL_PREALLOC) / VARMAIL_FLOW) as usize,
        thread: 0,
        seed: t.seed,
    };
    let inner = LabStorFsTarget::new(connect(t), FS_MOUNT, "labfs-all");
    t.start(inner.gfs.client());
    let mut target = CheckedTarget { inner, trial: t };
    run_filebench(&job, &mut target)?;
    let CheckedTarget { inner, trial } = target;
    trial.finish(inner.gfs.client());
    Ok(())
}

/// `kvs_mix_min_qd1`: 60 % get / 40 % put of 1 KiB values over 4096 keys.
/// (At 50/50 the median latency sits on the boundary between the get mode
/// and the put mode, and flipped between them from seed to seed.)
/// The shadow model is one generation tag per key.
fn kvs_mix(t: &mut Trial, ops: u64) -> Result<(), String> {
    const KEYS: u64 = 4096;
    const VALUE: usize = 1024;
    // A policy that never limits, so that admission and accounting run on
    // every request without refusing any.
    let policy = TenantPolicy::rate_limited(1 << 40, 1 << 30);
    let creds = Credentials::new(1, 0, 0).with_tenant(TenantId(7));
    let mut kvs = GenericKvs::new(t.rt.connect_with_policy(creds, 1, policy));
    let keys: Vec<String> = (0..KEYS).map(|k| format!("{KV_MOUNT}/k{k:04}")).collect();
    let mut value = vec![0u8; VALUE];
    for (k, key) in keys.iter().enumerate() {
        fill(&mut value, k as u64, 0);
        kvs.put(key, value.clone()).map_err(|e| e.to_string())?;
    }
    let mut generation = vec![0u32; KEYS as usize];
    let mut rng = Rng(t.seed);

    t.start(kvs.client());
    for _ in 0..ops {
        let k = rng.below(KEYS) as usize;
        if rng.below(100) < 60 {
            let op = t.begin_op(kvs.client());
            let got = kvs.get(&keys[k]);
            t.end_op(op, kvs.client());
            let ok = got.is_ok_and(|v| v.len() == VALUE && holds(&v, k as u64, generation[k]));
            t.count(VALUE, ok);
        } else {
            generation[k] += 1;
            fill(&mut value, k as u64, generation[k]);
            let stored = value.clone();
            let op = t.begin_op(kvs.client());
            let put = kvs.put(&keys[k], stored);
            t.end_op(op, kvs.client());
            t.count(VALUE, put == Ok(VALUE));
        }
    }
    t.finish(kvs.client());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_pattern_detects_any_change() {
        let mut buf = vec![0u8; PAGE];
        fill(&mut buf, 17, 3);
        assert!(holds(&buf, 17, 3));
        assert!(!holds(&buf, 17, 4), "stale generation");
        assert!(!holds(&buf, 18, 3), "neighbouring page");
        buf[PAGE - 1] ^= 1;
        assert!(!holds(&buf, 17, 3), "one flipped bit");
        assert!(!holds(&buf[..PAGE - 4], 17, 3), "short read");
    }

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng(seed);
            (0..8).map(|_| r.below(1 << 20)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn workload_names_are_unique_and_specs_valid() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!((w.stack)().to_stack().is_ok(), "{}", w.name);
            assert!(w.why.len() <= 200, "{}", w.name);
        }
    }
}
