//! Crash-recovery fuzz campaign over LabFS and LabKVS.
//!
//! Each trial runs a seeded fio-like or filebench-like operation mix
//! against a freshly built stack (LabFS or LabKVS over the Kernel MQ
//! driver on a simulated NVMe device), kills the device at a randomized
//! virtual time with [`labstor_sim::FaultConfig::set_crash_at`],
//! restarts a brand-new module instance over the *same* media, runs
//! `state_repair`, and asserts the recovered state equals the model
//! state after some prefix of the acknowledged-operation history — a
//! prefix no shorter than the last acknowledged durability point
//! (fsync / log flush).
//!
//! The harness is single-threaded on core 0, so every operation lands in
//! one journal log and the acknowledged history is totally ordered. A
//! trial runs the mix twice: once uncrashed to measure the run's
//! virtual-time span (and to prove the mix itself is error-free), then
//! again on a fresh device with the crash armed at a per-trial fraction
//! of that span — and, for every second trial, moved from there into the
//! next durability point's journal write, because that write is the only
//! place a crash can tear a frame: a one-sector frame lands whole or not
//! at all, so the tears recovery has to discard are the ones inside the
//! multi-sector frames the fio and fileserver mixes fsync.
//! The LabFS mixes overwrite no byte a durable state still shows
//! (appends, truncates, unlink + recreate): LabFS journals metadata, not
//! file data, so an in-place data overwrite before the metadata commit is
//! the documented ext4-ordered-mode gap, not a bug this campaign hunts.
//! The fio mix truncates to a random size — mid-page more often than not,
//! sometimes a short extension — and keeps appending to the cut file
//! before the next fsync: LabFS must not let those appends, or the cut
//! itself, touch the block the last durable size still covers. The
//! LabKVS mix does overwrite live keys, at a different length each time:
//! a put always lands in a fresh extent and the old one stays reachable
//! until the new record is durable, so either value is a legal prefix
//! state.
//!
//! After the prefix check every trial keeps going on the recovered
//! instance: it writes a few new values (or files) and re-checks that
//! what recovery rebuilt still reads back unchanged — a recovered
//! allocator that handed out a live extent again would fail here. A
//! LabFS trial then extends every surviving file by an unaligned write
//! past a gap and checks it against a flat model: the gap must read as
//! zeroes even where the blocks behind it hold what a truncate cut off or
//! an append whose size record the crash lost.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::{FsOp, KvsOp, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::Credentials;
use labstor_mods::journal::crc32;
use labstor_mods::labfs::LabFs;
use labstor_mods::labkvs::LabKvs;
use labstor_mods::{DeviceRegistry, RepairReport};
use labstor_sim::{BlockDevice, Ctx, DeviceKind, SimDevice};

use crate::fio::XorShift;
use crate::fsmodel::FsModel;

/// Which operation mix a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWorkload {
    /// fio-like write-heavy mix over a fixed file set: random-size
    /// appends, periodic fsync, occasional truncate (to a random size)
    /// and rewrite.
    FioWrite,
    /// Filebench varmail: unlink → create → append → fsync → append →
    /// fsync → read, over a small mail set.
    Varmail,
    /// Filebench fileserver: large appends, whole-file reads, deletes of
    /// older files, sparser fsyncs.
    Fileserver,
    /// LabKVS mix: puts, removes, explicit log flushes, read-backs.
    KvsMix,
}

impl CrashWorkload {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CrashWorkload::FioWrite => "fio-write",
            CrashWorkload::Varmail => "varmail",
            CrashWorkload::Fileserver => "fileserver",
            CrashWorkload::KvsMix => "kvs-mix",
        }
    }

    /// All mixes, fio first.
    pub fn all() -> [CrashWorkload; 4] {
        [
            CrashWorkload::FioWrite,
            CrashWorkload::Varmail,
            CrashWorkload::Fileserver,
            CrashWorkload::KvsMix,
        ]
    }

    fn is_kvs(self) -> bool {
        self == CrashWorkload::KvsMix
    }
}

/// Outcome of one crash trial.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Mix the trial ran.
    pub workload: CrashWorkload,
    /// Trial seed.
    pub seed: u64,
    /// Virtual time the power cut was armed at (`None` = baseline-only
    /// trial, which happens when the mix errored uncrashed).
    pub crash_at: Option<u64>,
    /// Operations acknowledged before the crash.
    pub(crate) acked_ops: usize,
    /// History index of the last acknowledged durability point.
    pub durable_floor: usize,
    /// History index whose model state the recovered state matched.
    pub matched_prefix: Option<usize>,
    /// What `state_repair` reported after the restart.
    pub repair: RepairReport,
    /// A prefix-consistency (or harness) violation, if any.
    pub violation: Option<String>,
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Crash trials per workload mix.
    pub trials_per_workload: usize,
    /// Flow iterations per trial.
    pub flows: usize,
    /// Base seed; trial seeds derive from it deterministically.
    pub base_seed: u64,
}

/// Results of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every trial, in execution order.
    pub trials: Vec<TrialReport>,
}

impl CampaignReport {
    /// Trials that violated prefix consistency (or hit harness errors).
    pub fn violations(&self) -> Vec<&TrialReport> {
        self.trials
            .iter()
            .filter(|t| t.violation.is_some())
            .collect()
    }

    /// Trials whose crash actually interrupted the mix (the armed cut
    /// fired before the workload finished).
    pub fn crashes(&self) -> usize {
        self.trials.iter().filter(|t| t.crash_at.is_some()).count()
    }

    /// Trials whose recovery discarded a torn tail — the interesting
    /// crash points.
    pub fn torn_tails(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.repair.torn_tail || t.repair.txns_discarded > 0)
            .count()
    }

    /// Trials whose crash landed *inside* a journal frame's one write:
    /// recovery found the header sector on media and the payload torn.
    pub fn mid_frame_tears(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.repair.mid_frame_tears > 0)
            .count()
    }

    /// One-line summary.
    // api-ok: tests/crash_fuzz.rs prints it when a check fails
    pub fn summary(&self) -> String {
        format!(
            "{} trials, {} crash points, {} torn tails discarded ({} mid-frame), {} violations",
            self.trials.len(),
            self.crashes(),
            self.torn_tails(),
            self.mid_frame_tears(),
            self.violations().len()
        )
    }
}

/// Run `cfg.trials_per_workload` seeded crash points for every mix.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut trials = Vec::new();
    for (wi, w) in CrashWorkload::all().into_iter().enumerate() {
        for i in 0..cfg.trials_per_workload {
            let seed = cfg
                .base_seed
                .wrapping_add(wi as u64 * 0x9E37_79B9)
                .wrapping_add(i as u64 * 7919);
            // Spread crash points across 5%–95% of the run.
            let permille = 50 + (seed.wrapping_mul(2654435761) % 900);
            trials.push(run_trial(w, seed, cfg.flows, permille as u32));
        }
    }
    CampaignReport { trials }
}

/// Run one trial: baseline pass, crashed pass, restart, repair, verify.
pub fn run_trial(
    workload: CrashWorkload,
    seed: u64,
    flows: usize,
    crash_permille: u32,
) -> TrialReport {
    // Baseline: same seed, no crash. Measures the virtual-time span and
    // proves the mix is error-free, so any error in the crashed pass is
    // attributable to the cut.
    let base = run_once(workload, seed, flows, None);
    let mut report = TrialReport {
        workload,
        seed,
        crash_at: None,
        acked_ops: 0,
        durable_floor: 0,
        matched_prefix: None,
        repair: RepairReport::default(),
        violation: None,
    };
    if let Some(v) = base.violation {
        report.violation = Some(format!("baseline run failed: {v}"));
        return report;
    }
    let crash_at = base.crash_point(seed, crash_permille);
    report.crash_at = Some(crash_at);

    let run = run_once(workload, seed, flows, Some(crash_at));
    if let Some(v) = run.violation {
        report.violation = Some(v);
        return report;
    }
    report.acked_ops = run.digests.len() - 1;
    report.durable_floor = run.durable_floor;

    // Restart: clear the fault, boot a brand-new module instance over the
    // same media, and repair.
    run.dev.faults().clear_crash();
    let boot = Boot::new(&run.dev, workload.is_kvs());
    report.repair = boot.repair();

    // The recovered state must equal the model state after some
    // acknowledged prefix, no shorter than the last acked durability
    // point.
    let mut ctx = Ctx::new();
    let recovered = match boot.observed_digest(&mut ctx, &run.candidates) {
        Ok(d) => d,
        Err(e) => {
            report.violation = Some(format!("post-recovery scan failed: {e}"));
            return report;
        }
    };
    report.matched_prefix = (run.durable_floor..run.digests.len())
        .rev()
        .find(|&k| run.digests[k] == recovered);
    if report.matched_prefix.is_none() {
        report.violation = Some(format!(
            "recovered state matches no acked prefix >= durability floor \
             (floor {}, acked {}, crash_at {}, repair: {})",
            run.durable_floor,
            run.digests.len() - 1,
            crash_at,
            report.repair,
        ));
        return report;
    }

    // Life goes on after recovery: new writes on the recovered instance
    // must land outside everything it recovered.
    let after = boot
        .write_after_recovery(&mut ctx)
        .and_then(|()| boot.observed_digest(&mut ctx, &run.candidates));
    match after {
        Ok(d) if d == recovered => {}
        Ok(_) => {
            report.violation = Some("writes after recovery changed a recovered value".to_string());
        }
        Err(e) => report.violation = Some(format!("post-recovery writes failed: {e}")),
    }
    if report.violation.is_none() && !workload.is_kvs() {
        report.violation = boot.extend_survivors(&mut ctx, &run.candidates).err();
    }
    report
}

/// Repair idempotence probe (for the property tests): run a crashed
/// workload, then check that (a) repairing twice leaves the same state as
/// repairing once, and (b) a crash *during* repair followed by a clean
/// repair also converges to that state. Returns a violation description.
// api-ok: tests/crash_fuzz.rs runs it over every fuzzed crash point
pub fn check_repair_idempotence(
    workload: CrashWorkload,
    seed: u64,
    flows: usize,
    crash_permille: u32,
) -> Result<(), String> {
    let base = run_once(workload, seed, flows, None);
    if let Some(v) = base.violation {
        return Err(format!("baseline run failed: {v}"));
    }
    let crash_at = base.crash_point(seed, crash_permille);
    let run = run_once(workload, seed, flows, Some(crash_at));
    if let Some(v) = run.violation {
        return Err(v);
    }
    run.dev.faults().clear_crash();

    let boot = Boot::new(&run.dev, workload.is_kvs());
    boot.repair();
    let mut ctx = Ctx::new();
    let once = boot.observed_digest(&mut ctx, &run.candidates)?;
    // Repair is a read-only scan of media: doing it again must converge
    // to the same state.
    let twice_report = boot.repair();
    let twice = boot.observed_digest(&mut ctx, &run.candidates)?;
    if once != twice {
        return Err(format!("second repair diverged (repair: {twice_report})"));
    }
    // Crash in the middle of a repair (the recovery scan itself loses
    // power), then repair cleanly: same state again.
    let boot2 = Boot::new(&run.dev, workload.is_kvs());
    run.dev.faults().set_crash_at(40_000); // a few reads into the scan
    let _ = boot2.repair(); // partial: scan reads die at the cut
    run.dev.faults().clear_crash();
    boot2.repair();
    let mut ctx2 = Ctx::new();
    let after = boot2.observed_digest(&mut ctx2, &run.candidates)?;
    if once != after {
        return Err("repair after crashed repair diverged".to_string());
    }
    Ok(())
}

// ---- harness ----------------------------------------------------------

/// One "boot" of the stack: a module manager holding the FS/KVS entry
/// module and the kernel driver, wired over a shared device.
struct Boot {
    mm: ModuleManager,
    stack: LabStack,
    entry: &'static str,
    kvs: bool,
}

impl Boot {
    fn new(dev: &Arc<SimDevice>, kvs: bool) -> Boot {
        let devices = DeviceRegistry::new();
        devices.add_block("dev0", dev.clone());
        let mm = ModuleManager::new();
        labstor_mods::labfs::install(&mm, &devices);
        labstor_mods::labkvs::install(&mm, &devices);
        labstor_mods::drivers::install(&mm, &devices);
        let (entry, type_name) = if kvs {
            ("kvs", "labkvs")
        } else {
            ("fs", "labfs")
        };
        // One worker = one journal log = a totally ordered history.
        mm.instantiate(
            entry,
            type_name,
            &serde_json::json!({"device": "dev0", "workers": 1}),
        )
        .expect("instantiate entry module");
        mm.instantiate(
            "drv",
            "kernel_driver",
            &serde_json::json!({"device": "dev0"}),
        )
        .expect("instantiate driver");
        let stack = LabStack {
            id: 1,
            mount: format!("{entry}::/cf"),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: entry.into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "drv".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        Boot {
            mm,
            stack,
            entry,
            kvs,
        }
    }

    fn exec(&self, ctx: &mut Ctx, payload: Payload) -> RespPayload {
        let env = StackEnv::new(&self.stack, 0, &self.mm, 0);
        self.mm.get(self.entry).expect("entry module").process(
            ctx,
            Request::new(1, 1, payload, Credentials::ROOT),
            &env,
        )
    }

    /// The entry module as the storage mod `M` it is. Both are the same
    /// metadata engine behind the same calls, but the engine's type is
    /// private to `labstor-mods`: this is the one downcast.
    fn with_entry<M: 'static, R>(&self, f: impl FnOnce(&M) -> R) -> R {
        let entry = self.mm.get(self.entry).expect("entry module");
        f(entry.as_any().downcast_ref().expect("entry module's type"))
    }

    /// Run the module's crash-recovery path and return its report.
    fn repair(&self) -> RepairReport {
        if self.kvs {
            self.with_entry(LabKvs::replay_from_device)
        } else {
            self.with_entry(LabFs::replay_from_device)
        }
    }

    /// Flush the KVS op log (LabKVS's durability point; LabFS uses fsync).
    fn kv_flush(&self, ctx: &mut Ctx) -> Result<(), String> {
        self.with_entry(|kv: &LabKvs| kv.flush_logs(ctx))
            .map_err(|e| e.to_string())
    }

    /// A short write phase on the recovered instance, outside the
    /// candidate namespace: a few values (or files) of assorted sizes,
    /// each read back.
    fn write_after_recovery(&self, ctx: &mut Ctx) -> Result<(), String> {
        if !self.kvs {
            let (path, mode) = ("/post-recovery".to_string(), 0o755);
            match self.exec(ctx, Payload::Fs(FsOp::Mkdir { path, mode })) {
                RespPayload::Ino(_) => {}
                other => return Err(format!("mkdir /post-recovery: {other:?}")),
            }
        }
        for (i, len) in [700usize, 4096, 5000, 1].into_iter().enumerate() {
            let name = format!("post-recovery/object-{i}");
            let data = vec![0xC0 | i as u8; len];
            let read_back = if self.kvs {
                let put = KvsOp::Put {
                    key: name.clone(),
                    value: data.clone(),
                };
                match self.exec(ctx, Payload::Kvs(put)) {
                    RespPayload::Len(_) => {}
                    other => return Err(format!("put {name}: {other:?}")),
                }
                self.exec(ctx, Payload::Kvs(KvsOp::Get { key: name.clone() }))
            } else {
                let create = FsOp::Create {
                    path: format!("/{name}"),
                    mode: 0o644,
                };
                let ino = match self.exec(ctx, Payload::Fs(create)) {
                    RespPayload::Ino(ino) => ino,
                    other => return Err(format!("create {name}: {other:?}")),
                };
                let write = FsOp::Write {
                    ino,
                    offset: 0,
                    data: data.clone(),
                };
                match self.exec(ctx, Payload::Fs(write)) {
                    RespPayload::Len(_) => {}
                    other => return Err(format!("write {name}: {other:?}")),
                }
                let (offset, len) = (0, data.len());
                self.exec(ctx, Payload::Fs(FsOp::Read { ino, offset, len }))
            };
            if read_back.data_bytes() != Some(&data[..]) {
                return Err(format!("{name} does not read back"));
            }
        }
        Ok(())
    }

    /// The first `len` bytes of file `ino`.
    fn read_file(
        &self,
        ctx: &mut Ctx,
        name: &str,
        ino: u64,
        len: usize,
    ) -> Result<Vec<u8>, String> {
        let offset = 0;
        match self.exec(ctx, Payload::Fs(FsOp::Read { ino, offset, len })) {
            RespPayload::Data(d) => Ok(d),
            other => match other.data_parts() {
                Some(parts) => Ok(parts.collect::<Vec<_>>().concat()),
                None => Err(format!("read {name}: {other:?}")),
            },
        }
    }

    /// LabFS only: extend every surviving file by an unaligned write past
    /// a gap — inside the page its recovered end falls in, or beyond it —
    /// and check the whole file against a flat model. The gap must read
    /// as zeroes whatever the blocks behind it held before the crash: the
    /// tail a truncate cut off, or an append whose size record was lost.
    fn extend_survivors(&self, ctx: &mut Ctx, candidates: &BTreeSet<String>) -> Result<(), String> {
        for (i, name) in candidates.iter().enumerate() {
            let st = match self.exec(ctx, Payload::Fs(FsOp::Stat { path: name.clone() })) {
                RespPayload::Stat(st) if !st.is_dir => st,
                _ => continue, // absent
            };
            let mut model = self.read_file(ctx, name, st.ino, st.size as usize)?;
            let data = vec![0xE0 | (i % 16) as u8; 300 + 7 * i];
            model.resize(model.len() + 1 + (i * 1237) % 6000, 0);
            let write = FsOp::Write {
                ino: st.ino,
                offset: model.len() as u64,
                data: data.clone(),
            };
            match self.exec(ctx, Payload::Fs(write)) {
                RespPayload::Len(_) => model.extend_from_slice(&data),
                other => return Err(format!("extend {name}: {other:?}")),
            }
            if self.read_file(ctx, name, st.ino, model.len())? != model {
                return Err(format!(
                    "{name}: extended past a gap, it no longer reads back as recovered + zeroes + new bytes"
                ));
            }
        }
        Ok(())
    }

    /// Digest of the live (post-recovery) state over the candidate
    /// namespace, computed the same way as the model's snapshots.
    fn observed_digest(&self, ctx: &mut Ctx, candidates: &BTreeSet<String>) -> Result<u64, String> {
        let mut entries: Vec<(String, usize, u32)> = Vec::new();
        for name in candidates {
            if self.kvs {
                let resp = self.exec(ctx, Payload::Kvs(KvsOp::Get { key: name.clone() }));
                match resp.data_bytes() {
                    Some(d) => entries.push((name.clone(), d.len(), crc32(d))),
                    None if matches!(resp, RespPayload::Err(_)) => {} // absent
                    None => return Err(format!("get {name}: {resp:?}")),
                }
            } else {
                let st = match self.exec(ctx, Payload::Fs(FsOp::Stat { path: name.clone() })) {
                    RespPayload::Stat(st) => st,
                    RespPayload::Err(_) => continue, // absent
                    other => return Err(format!("stat {name}: {other:?}")),
                };
                if st.is_dir {
                    continue;
                }
                let data = self.read_file(ctx, name, st.ino, st.size as usize)?;
                entries.push((name.clone(), data.len(), crc32(&data)));
            }
        }
        Ok(fold_digest(entries))
    }
}

/// Order-independent 64-bit digest over (name, size, content crc).
fn fold_digest(mut entries: Vec<(String, usize, u32)>) -> u64 {
    entries.sort();
    let mut h = 0xcbf29ce484222325u64;
    let mut byte = |b: u8| h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    for (name, len, crc) in &entries {
        for b in name.as_bytes() {
            byte(*b);
        }
        for b in (*len as u64).to_le_bytes() {
            byte(b);
        }
        for b in crc.to_le_bytes() {
            byte(b);
        }
    }
    h
}

// ---- model + workload driver ------------------------------------------

struct RunOutcome {
    dev: Arc<SimDevice>,
    end_vt: u64,
    /// Virtual time each durability point (fsync / log flush) began.
    sync_starts: Vec<u64>,
    /// `digests[k]` = model digest after the first `k` acked operations.
    digests: Vec<u64>,
    /// Index of the last acked durability point in `digests`.
    durable_floor: usize,
    /// Every name the mix ever touched (the verification namespace).
    candidates: BTreeSet<String>,
    violation: Option<String>,
}

impl RunOutcome {
    /// Where to cut power in the crashed pass of this (baseline) run:
    /// `permille` of the way through, and for odd seeds moved on from
    /// there into the journal write of the next durability point.
    fn crash_point(&self, seed: u64, permille: u32) -> u64 {
        let uniform = (self.end_vt * permille as u64 / 1000).max(1);
        if seed & 1 == 0 {
            return uniform;
        }
        // The frame write starts when its durability point does and lasts
        // at least the device's fixed write latency.
        let write_ns = self.dev.model().write_latency_ns;
        match self.sync_starts.iter().find(|&&start| start >= uniform) {
            Some(start) => start + 1 + seed.wrapping_mul(2654435761) % write_ns,
            None => uniform,
        }
    }
}

/// Drives one pass of a mix, maintaining the model and the acked-history
/// digests. Stops at the first error: a crash if one is armed, a
/// violation otherwise.
struct Driver<'a> {
    boot: &'a Boot,
    ctx: Ctx,
    /// What the acknowledged history should produce: a KVS key is a file.
    model: FsModel,
    /// `(size, content crc)` of every file in `model`, by name: the
    /// digest's entries, refreshed for the name an acked operation
    /// changed.
    entries: HashMap<String, (usize, u32)>,
    digests: Vec<u64>,
    durable_floor: usize,
    sync_starts: Vec<u64>,
    inos: HashMap<String, u64>,
    dir_ino: u64,
    candidates: BTreeSet<String>,
    crashed: bool,
    expect_crash: bool,
    violation: Option<String>,
}

impl Driver<'_> {
    fn live(&self) -> bool {
        !self.crashed && self.violation.is_none()
    }

    /// Record an error response: the armed crash, or a violation.
    fn error(&mut self, what: &str, msg: String) {
        if self.expect_crash {
            self.crashed = true;
        } else {
            self.violation = Some(format!("{what}: {msg}"));
        }
    }

    /// Acknowledge an operation that changed the file `touched`, if any:
    /// record the digest of the model state it left.
    fn ack(&mut self, touched: Option<&str>) {
        if let Some(path) = touched {
            let bytes = self
                .model
                .lookup(path)
                .and_then(|ino| self.model.read(ino, 0, usize::MAX));
            match bytes {
                Some(bytes) => self
                    .entries
                    .insert(path.to_string(), (bytes.len(), crc32(bytes))),
                None => self.entries.remove(path),
            };
        }
        let entries = self
            .entries
            .iter()
            .map(|(k, &(len, crc))| (k.clone(), len, crc));
        self.digests.push(fold_digest(entries.collect()));
    }

    /// The model's inode for `path`, which an acked operation touched.
    fn modeled(&self, path: &str) -> u64 {
        self.model.lookup(path).expect("modeled file")
    }

    fn create(&mut self, path: &str) {
        if !self.live() {
            return;
        }
        self.candidates.insert(path.to_string());
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Create {
                path: path.to_string(),
                mode: 0o644,
            }),
        ) {
            RespPayload::Ino(i) => {
                self.inos.insert(path.to_string(), i);
                match self.model.open(path, true, false) {
                    Some(_) => self.ack(Some(path)),
                    None => self.violation = Some(format!("create {path}: the model refuses it")),
                }
            }
            RespPayload::Err(e) => self.error("create", e),
            other => self.violation = Some(format!("create {path}: {other:?}")),
        }
    }

    /// Append `data` at the current end of file (overwrite-free by
    /// construction).
    fn append(&mut self, path: &str, data: Vec<u8>) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            self.violation = Some(format!("append {path}: no ino"));
            return;
        };
        let offset = self.model.size(path).unwrap_or(0);
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Write {
                ino,
                offset,
                data: data.clone(),
            }),
        ) {
            RespPayload::Len(_) => {
                self.model.write(self.modeled(path), offset, &data);
                self.ack(Some(path));
            }
            RespPayload::Err(e) => self.error("append", e),
            other => self.violation = Some(format!("append {path}: {other:?}")),
        }
    }

    /// Set the file's size: a shrink to anywhere inside it (mid-page
    /// more often than not) or a short zero-filled extension.
    fn truncate(&mut self, path: &str, size: usize) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            return;
        };
        let op = FsOp::Truncate {
            ino,
            size: size as u64,
        };
        match self.boot.exec(&mut self.ctx, Payload::Fs(op)) {
            RespPayload::Ok => {
                self.model.truncate(self.modeled(path), size as u64);
                self.ack(Some(path));
            }
            RespPayload::Err(e) => self.error("truncate", e),
            other => self.violation = Some(format!("truncate {path}: {other:?}")),
        }
    }

    fn unlink(&mut self, path: &str) {
        if !self.live() || self.model.lookup(path).is_none() {
            return;
        }
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Unlink {
                path: path.to_string(),
            }),
        ) {
            RespPayload::Ok => {
                self.model.unlink(path);
                self.inos.remove(path);
                self.ack(Some(path));
            }
            RespPayload::Err(e) => self.error("unlink", e),
            other => self.violation = Some(format!("unlink {path}: {other:?}")),
        }
    }

    /// LabFS durability point: fsync flushes every buffered log record as
    /// a journal transaction and barriers the data path.
    fn fsync(&mut self) {
        if !self.live() {
            return;
        }
        self.sync_starts.push(self.ctx.now());
        match self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Fsync { ino: self.dir_ino }),
        ) {
            r if r.is_ok() => {
                self.ack(None);
                self.durable_floor = self.digests.len() - 1;
            }
            RespPayload::Err(e) => self.error("fsync", e),
            other => self.violation = Some(format!("fsync: {other:?}")),
        }
    }

    /// Live read-back check (also an acked operation).
    fn read_check(&mut self, path: &str) {
        if !self.live() {
            return;
        }
        let Some(&ino) = self.inos.get(path) else {
            return;
        };
        let modeled = self.model.read(self.modeled(path), 0, usize::MAX);
        let want = modeled.expect("modeled file").to_vec();
        let resp = self.boot.exec(
            &mut self.ctx,
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: want.len().max(1),
            }),
        );
        match (resp.data_bytes().map(|d| d == want), resp) {
            (Some(true), _) => self.ack(None),
            (Some(false), _) => self.violation = Some(format!("live read mismatch on {path}")),
            (None, RespPayload::Err(e)) => self.error("read", e),
            (None, other) => self.violation = Some(format!("read {path}: {other:?}")),
        }
    }

    fn put(&mut self, key: &str, value: Vec<u8>) {
        if !self.live() {
            return;
        }
        self.candidates.insert(key.to_string());
        match self.boot.exec(
            &mut self.ctx,
            Payload::Kvs(KvsOp::Put {
                key: key.to_string(),
                value: value.clone(),
            }),
        ) {
            // A put is a create-or-truncate and a write at offset 0.
            RespPayload::Len(_) => match self.model.open(key, true, true) {
                Some(ino) => {
                    self.model.write(ino, 0, &value);
                    self.ack(Some(key));
                }
                None => self.violation = Some(format!("put {key}: the model refuses it")),
            },
            RespPayload::Err(e) => self.error("put", e),
            other => self.violation = Some(format!("put {key}: {other:?}")),
        }
    }

    fn remove(&mut self, key: &str) {
        if !self.live() || self.model.lookup(key).is_none() {
            return;
        }
        match self.boot.exec(
            &mut self.ctx,
            Payload::Kvs(KvsOp::Remove {
                key: key.to_string(),
            }),
        ) {
            RespPayload::Ok => {
                self.model.unlink(key);
                self.ack(Some(key));
            }
            RespPayload::Err(e) => self.error("remove", e),
            other => self.violation = Some(format!("remove {key}: {other:?}")),
        }
    }

    /// LabKVS durability point: persist the op log.
    fn kv_flush(&mut self) {
        if !self.live() {
            return;
        }
        self.sync_starts.push(self.ctx.now());
        match self.boot.kv_flush(&mut self.ctx) {
            Ok(()) => {
                self.ack(None);
                self.durable_floor = self.digests.len() - 1;
            }
            Err(e) => self.error("kv flush", e),
        }
    }
}

/// Deterministic payload bytes for one operation.
fn payload_bytes(rng: &mut XorShift, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

fn run_once(workload: CrashWorkload, seed: u64, flows: usize, crash_at: Option<u64>) -> RunOutcome {
    let dev = SimDevice::preset(DeviceKind::Nvme);
    // How many sectors of a write the cut straddles still land is seeded:
    // per trial, so the same frame tears differently across trials.
    dev.faults().set_seed(seed);
    if let Some(t) = crash_at {
        dev.faults().set_crash_at(t);
    }
    let boot = Boot::new(&dev, workload.is_kvs());
    let mut d = Driver {
        boot: &boot,
        ctx: Ctx::new(),
        model: FsModel::new(),
        entries: HashMap::new(),
        digests: Vec::new(),
        durable_floor: 0,
        sync_starts: Vec::new(),
        inos: HashMap::new(),
        dir_ino: 0,
        candidates: BTreeSet::new(),
        crashed: false,
        expect_crash: crash_at.is_some(),
        violation: None,
    };
    d.ack(None); // state after zero ops

    if workload.is_kvs() {
        // Every key is under this one prefix: the model's key names are
        // files in it.
        d.model.mkdir("bucket-7");
    } else {
        // The shared directory is op 1 of the history (digest unchanged —
        // only files are digested, the directory is structural).
        match d.boot.exec(
            &mut d.ctx,
            Payload::Fs(FsOp::Mkdir {
                path: "/cf".into(),
                mode: 0o755,
            }),
        ) {
            RespPayload::Ino(i) => {
                d.dir_ino = i;
                d.model.mkdir("/cf");
                d.ack(None);
            }
            RespPayload::Err(e) => d.error("mkdir", e),
            other => d.violation = Some(format!("mkdir: {other:?}")),
        }
    }

    let mut rng = XorShift::new(seed | 1);
    for flow in 0..flows {
        if !d.live() {
            break;
        }
        match workload {
            CrashWorkload::FioWrite => {
                for _ in 0..4 {
                    let path = format!("/cf/f{}", rng.next() % 8);
                    if d.model.lookup(&path).is_none() {
                        d.create(&path);
                    }
                    let len = 512 + (rng.next() % 8192) as usize;
                    let data = payload_bytes(&mut rng, len);
                    d.append(&path, data);
                }
                if flow % 5 == 4 {
                    let path = format!("/cf/f{}", rng.next() % 8);
                    let len = d.model.size(&path).unwrap_or(0) as usize;
                    d.truncate(&path, rng.next() as usize % (len + 1024));
                }
                if flow % 2 == 1 {
                    d.fsync();
                }
            }
            CrashWorkload::Varmail => {
                let path = format!("/cf/v{}", rng.next() % 6);
                d.unlink(&path);
                d.create(&path);
                let half = 2048 + (rng.next() % 2048) as usize;
                let first = payload_bytes(&mut rng, half);
                let second = payload_bytes(&mut rng, half);
                d.append(&path, first);
                d.fsync();
                d.append(&path, second);
                d.fsync();
                d.read_check(&path);
            }
            CrashWorkload::Fileserver => {
                let path = format!("/cf/s{flow}");
                d.create(&path);
                for _ in 0..4 {
                    let data = payload_bytes(&mut rng, 4096);
                    d.append(&path, data);
                }
                d.read_check(&path);
                if flow >= 2 {
                    d.unlink(&format!("/cf/s{}", flow - 2));
                }
                if flow % 3 == 2 {
                    d.fsync();
                }
            }
            CrashWorkload::KvsMix => {
                // Object-store keys and a flush every fourth flow: a dozen
                // puts make an op-log frame of more than one sector, the
                // only kind a crash can tear.
                for _ in 0..3 {
                    let key = format!("bucket-7/object-{:04}", rng.next() % 12);
                    let len = 200 + (rng.next() % 6000) as usize;
                    let value = payload_bytes(&mut rng, len);
                    d.put(&key, value);
                }
                // One in-place overwrite of a live key, at another length
                // (down to zero, up to a dozen sectors).
                let live: Vec<(&str, &[u8])> = d.model.files().collect();
                if !live.is_empty() {
                    let (key, old) = live[rng.next() as usize % live.len()];
                    let (key, old_len) = (key.to_string(), old.len());
                    let len = (old_len + 300 + (rng.next() % 3000) as usize) % 6200;
                    let value = payload_bytes(&mut rng, len);
                    d.put(&key, value);
                }
                if rng.next().is_multiple_of(5) {
                    let key = format!("bucket-7/object-{:04}", rng.next() % 12);
                    d.remove(&key);
                }
                if flow % 4 == 3 {
                    d.kv_flush();
                }
            }
        }
    }
    // End every run on a durability point so a late crash still has a
    // device operation to hit.
    if d.live() {
        if workload.is_kvs() {
            d.kv_flush();
        } else {
            d.fsync();
        }
    }
    let end_vt = d.ctx.now();
    RunOutcome {
        dev,
        end_vt,
        sync_starts: d.sync_starts,
        digests: d.digests,
        durable_floor: d.durable_floor,
        candidates: d.candidates,
        violation: d.violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_are_error_free() {
        for w in CrashWorkload::all() {
            let out = run_once(w, 7, 4, None);
            assert!(
                out.violation.is_none(),
                "{}: {:?}",
                w.label(),
                out.violation
            );
            assert!(out.digests.len() > 4, "{} acked too few ops", w.label());
            assert!(
                out.durable_floor > 0,
                "{} never reached durability",
                w.label()
            );
        }
    }

    #[test]
    fn trials_recover_a_consistent_prefix() {
        for w in CrashWorkload::all() {
            for (i, permille) in [300u32, 700u32].iter().enumerate() {
                let t = run_trial(w, 11 + i as u64, 4, *permille);
                assert!(t.violation.is_none(), "{}: {:?}", w.label(), t.violation);
                assert!(t.matched_prefix.is_some(), "{}: no match", w.label());
                assert!(t.matched_prefix.unwrap() >= t.durable_floor);
            }
        }
    }

    #[test]
    fn mid_run_crashes_leave_work_to_discard() {
        // Across a handful of seeds, at least one fio crash point must
        // actually cost the workload acked-but-volatile operations
        // (acked > floor), proving the cut lands mid-epoch.
        let mut saw_volatile_tail = false;
        for seed in 0..6u64 {
            let t = run_trial(CrashWorkload::FioWrite, 100 + seed, 4, 500);
            assert!(t.violation.is_none(), "{:?}", t.violation);
            saw_volatile_tail |= t.acked_ops > t.durable_floor;
        }
        assert!(saw_volatile_tail, "every crash landed on a clean boundary");
    }

    #[test]
    fn small_campaign_is_violation_free() {
        let report = run_campaign(&CampaignConfig {
            trials_per_workload: 2,
            flows: 3,
            base_seed: 42,
        });
        assert_eq!(report.trials.len(), 8);
        assert!(report.violations().is_empty(), "{:#?}", report.violations());
        assert_eq!(report.crashes(), 8);
    }

    #[test]
    fn repair_is_idempotent_after_a_crash() {
        check_repair_idempotence(CrashWorkload::FioWrite, 5, 4, 400).unwrap();
        check_repair_idempotence(CrashWorkload::KvsMix, 6, 4, 600).unwrap();
    }
}
