//! Crash-recovery fuzz campaign over LabFS and LabKVS (DESIGN.md §12).
//!
//! Each trial runs a seeded operation mix against a freshly mounted stack
//! (LabFS or LabKVS over the Kernel MQ driver on a simulated NVMe device,
//! run in the client), kills the device at a randomized virtual time with
//! [`labstor_sim::FaultConfig::set_crash_at`], mounts a brand-new stack
//! over the *same* media, runs `state_repair`, and asserts the recovered
//! state equals the model state after some prefix of the acknowledged
//! history no shorter than the last acknowledged fsync / log flush.
//!
//! A file-system mix is a script of [`FsAction`]s generated from the
//! trial's seed and run through the one interpreter
//! ([`crate::fsmodel::step`]) over GenericFS; the KVS mix sends its puts
//! and removes through GenericKVS, and a key is a file of the model. The
//! mix runs twice: uncrashed, to measure its span and prove it
//! error-free, then on a fresh device cut at a per-trial fraction of that
//! span — for odd seeds moved on into the next durability point's journal
//! write, the only place a cut can tear a (multi-sector) frame. The LabFS
//! mixes overwrite no byte a durable state still shows: LabFS journals
//! metadata, not data, so an overwrite before the commit is the
//! ordered-mode gap, not a bug this campaign hunts. A LabKVS put always
//! lands in a fresh extent, so its mix overwrites live keys.
//!
//! After the prefix check, new values (or files) must not change what
//! recovery rebuilt, and on LabFS every surviving file, extended past a
//! gap, must read back as recovered bytes + zeroes + new bytes.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use labstor_core::{Runtime, RuntimeConfig};
use labstor_ipc::Credentials;
use labstor_mods::generic::{GenericFsError, GenericKvs};
use labstor_mods::labfs::LabFs;
use labstor_mods::labkvs::LabKvs;
use labstor_mods::{DeviceRegistry, RepairReport};
use labstor_sim::{BlockDevice, DeviceKind, SimDevice};

use crate::fio::XorShift;
use crate::fsmodel::{pattern, step, Answer, Divergence, FsAction, FsModel};
use crate::targets::{FsTarget, LabStorFsTarget};

/// Which operation mix a trial runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWorkload {
    /// fio-like write-heavy mix over a fixed file set: random-size
    /// appends, periodic fsync, occasional truncate (to a random size).
    FioWrite,
    /// Filebench varmail: unlink → create → append → fsync → append →
    /// fsync → read, over a small mail set.
    Varmail,
    /// Filebench fileserver: large appends, whole-file reads, deletes of
    /// older files, sparser fsyncs.
    Fileserver,
    /// LabKVS mix: puts, removes, explicit log flushes.
    KvsMix,
    /// Namespace churn: mkdir, create + small append, renames of any
    /// name onto any name, directory moves, unlinks.
    Namespace,
}

impl CrashWorkload {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CrashWorkload::FioWrite => "fio-write",
            CrashWorkload::Varmail => "varmail",
            CrashWorkload::Fileserver => "fileserver",
            CrashWorkload::KvsMix => "kvs-mix",
            CrashWorkload::Namespace => "namespace",
        }
    }

    /// All mixes, fio first; a new mix goes last, so the others keep
    /// their trial seeds.
    pub fn all() -> [CrashWorkload; 5] {
        [
            CrashWorkload::FioWrite,
            CrashWorkload::Varmail,
            CrashWorkload::Fileserver,
            CrashWorkload::KvsMix,
            CrashWorkload::Namespace,
        ]
    }

    fn is_kvs(self) -> bool {
        self == CrashWorkload::KvsMix
    }

    /// The script a file-system mix runs for `seed` and `flows`; `None`
    /// for the KVS mix, whose verbs are not file-system actions.
    fn script(self, seed: u64, flows: usize) -> Option<Vec<FsAction>> {
        let flow: fn(&mut Gen, usize) = match self {
            CrashWorkload::FioWrite => fio_write,
            CrashWorkload::Varmail => varmail,
            CrashWorkload::Fileserver => fileserver,
            CrashWorkload::KvsMix => return None,
            CrashWorkload::Namespace => namespace,
        };
        let mut g = Gen::new(seed);
        for i in 0..flows {
            flow(&mut g, i);
        }
        // End every run on a durability point so a late crash still has
        // a device operation to hit.
        g.fsync();
        Some(g.script)
    }
}

/// Outcome of one crash trial.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// Mix the trial ran.
    pub workload: CrashWorkload,
    /// Trial seed.
    pub seed: u64,
    /// Where in the uncrashed run's span the cut was armed, in ‰:
    /// `run_trial(workload, seed, flows, crash_permille)` replays it.
    pub crash_permille: u32,
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
    let mut report = TrialReport {
        workload,
        seed,
        crash_permille,
        crash_at: None,
        acked_ops: 0,
        durable_floor: 0,
        matched_prefix: None,
        repair: RepairReport::default(),
        violation: None,
    };
    report.violation = verify(&mut report, flows).err();
    report
}

/// The trial `r` describes, filling in what it finds.
fn verify(r: &mut TrialReport, flows: usize) -> Result<(), String> {
    let run = crashed_run(r.workload, r.seed, flows, r.crash_permille).map_err(|(at, v)| {
        r.crash_at = at;
        v
    })?;
    r.crash_at = Some(run.crash_at);
    r.acked_ops = run.digests.len() - 1;
    r.durable_floor = run.durable_floor;

    // Restart: a brand-new stack over the same media, repaired.
    let boot = Boot::new(&run.dev, r.workload.is_kvs());
    r.repair = boot.repair();

    // The recovered state must equal the model state after some
    // acknowledged prefix, no shorter than the last acked durability
    // point.
    let mut conn = boot.connect();
    let recovered = conn
        .observe(&run.candidates)
        .map_err(|e| format!("post-recovery scan failed: {e}"))?;
    let found = digest(&recovered);
    r.matched_prefix = (run.durable_floor..run.digests.len())
        .rev()
        .find(|&k| run.digests[k] == found);
    if r.matched_prefix.is_none() {
        return Err(format!(
            "recovered state matches no acked prefix >= durability floor \
             (floor {}, acked {}, crash_at {}, repair: {})",
            run.durable_floor, r.acked_ops, run.crash_at, r.repair,
        ));
    }

    // Life goes on after recovery: new writes on the recovered instance
    // must land outside everything it recovered.
    let after = conn
        .write_after_recovery(&recovered)
        .and_then(|()| conn.observe(&run.candidates))
        .map_err(|e| format!("post-recovery writes failed: {e}"))?;
    if digest(&after) != found {
        return Err("writes after recovery changed a recovered value".to_string());
    }
    match &mut conn {
        Conn::Fs(fs) => extend_survivors(fs, &recovered),
        Conn::Kvs(_) => Ok(()),
    }
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
    let run = crashed_run(workload, seed, flows, crash_permille).map_err(|(_, v)| v)?;
    let stats = || run.dev.stats().snapshot();
    let boot = Boot::new(&run.dev, workload.is_kvs());
    let before = stats();
    boot.repair();
    // The scan's reads run back to back on its own clock, from 0.
    let scan_ns = stats().busy_ns - before.busy_ns;
    let mut conn = boot.connect();
    let once = digest(&conn.observe(&run.candidates)?);
    // Repair is a read-only scan of media: doing it again must converge
    // to the same state.
    let twice_report = boot.repair();
    if digest(&conn.observe(&run.candidates)?) != once {
        return Err(format!("second repair diverged (repair: {twice_report})"));
    }
    // Crash in the middle of a repair (the recovery scan itself loses
    // power), then repair cleanly: same state again. The cut lies inside
    // the span of the clean scan's reads, so some read must be refused.
    let boot2 = Boot::new(&run.dev, workload.is_kvs());
    let errors = stats().errors;
    run.dev
        .faults()
        .set_crash_at(1 + seed % scan_ns.saturating_sub(1).max(1));
    boot2.repair(); // partial: scan reads die at the cut
    run.dev.faults().clear_crash();
    if stats().errors == errors {
        return Err(format!(
            "the cut inside the repair scan ({scan_ns} ns of reads) refused no device command"
        ));
    }
    boot2.repair();
    if digest(&boot2.connect().observe(&run.candidates)?) != once {
        return Err("repair after crashed repair diverged".to_string());
    }
    Ok(())
}

/// The baseline pass, which proves the mix error-free, then the pass cut
/// at `crash_permille` of its span, with the cut cleared after. A
/// violation comes with the cut, if the baseline got that far.
fn crashed_run(
    workload: CrashWorkload,
    seed: u64,
    flows: usize,
    crash_permille: u32,
) -> Result<Run, (Option<u64>, String)> {
    let base = run_once(workload, seed, flows, None);
    if let Some(v) = base.violation {
        return Err((None, format!("baseline run failed: {v}")));
    }
    let crash_at = base.crash_point(seed, crash_permille);
    let run = run_once(workload, seed, flows, Some(crash_at));
    if let Some(v) = run.violation {
        return Err((Some(crash_at), v));
    }
    run.dev.faults().clear_crash();
    Ok(run)
}

// ---- the stack ----------------------------------------------------------

const FS_MOUNT: &str = "fs::/crash";
const KVS_MOUNT: &str = "kvs::/bucket-7";

/// One "boot" of the stack: a Runtime with the FS/KVS entry module over
/// the kernel driver, mounted sync (every op runs inline on the client's
/// clock) over a shared device. Dropping it shuts the Runtime down.
struct Boot {
    rt: Arc<Runtime>,
    kvs: bool,
}

impl Boot {
    fn new(dev: &Arc<SimDevice>, kvs: bool) -> Boot {
        let devices = DeviceRegistry::new();
        devices.add_block("dev0", dev.clone());
        let rt = Runtime::start(RuntimeConfig {
            max_workers: 1,
            auto_admin: false,
            ..Default::default()
        });
        labstor_mods::install_all(&rt.mm, &devices);
        let (mount, type_name) = match kvs {
            true => (KVS_MOUNT, "labkvs"),
            false => (FS_MOUNT, "labfs"),
        };
        // One worker = one journal log = a totally ordered history.
        let spec = format!(
            r#"{{"mount": "{mount}", "exec": "sync", "labmods": [
                {{"uuid": "entry", "type": "{type_name}",
                  "params": {{"device": "dev0", "workers": 1}}, "outputs": ["drv"]}},
                {{"uuid": "drv", "type": "kernel_driver", "params": {{"device": "dev0"}}}}
            ]}}"#
        );
        rt.mount_stack_json(&spec).expect("mount the crash stack");
        Boot { rt, kvs }
    }

    /// A connection through the client every workload uses.
    fn connect(&self) -> Conn {
        let client = self.rt.connect(Credentials::ROOT, 1);
        match self.kvs {
            true => Conn::Kvs(GenericKvs::new(client)),
            false => Conn::Fs(LabStorFsTarget::new(client, FS_MOUNT, "labfs")),
        }
    }

    /// The entry module as the storage mod `M` it is. Both are the same
    /// metadata engine behind the same calls, but the engine's type is
    /// private to `labstor-mods`: this is the one downcast.
    fn with_entry<M: 'static, R>(&self, f: impl FnOnce(&M) -> R) -> R {
        let entry = self.rt.mm.get("entry").expect("entry module");
        f(entry.as_any().downcast_ref().expect("entry module's type"))
    }

    /// Run the module's crash-recovery path and return its report.
    fn repair(&self) -> RepairReport {
        match self.kvs {
            true => self.with_entry(LabKvs::replay_from_device),
            false => self.with_entry(LabFs::replay_from_device),
        }
    }
}

impl Drop for Boot {
    fn drop(&mut self) {
        self.rt.shutdown();
    }
}

/// A client connection to a boot's stack.
enum Conn {
    Fs(LabStorFsTarget),
    Kvs(GenericKvs),
}

impl Conn {
    /// The state of `names` as the stack serves it, as a model: a
    /// directory, a file with the bytes its size covers, or absent.
    fn observe(&mut self, names: &BTreeSet<String>) -> Result<FsModel, String> {
        let mut model = FsModel::new();
        for name in names {
            // A directory (`None`), a file's bytes, or absent.
            let found = match self {
                Conn::Kvs(kvs) => kvs.get(&format!("{KVS_MOUNT}{name}")).map(Some),
                Conn::Fs(fs) => match fs.gfs.stat(&fs.full(name)) {
                    Ok(st) if st.is_dir => Ok(None),
                    Ok(st) => {
                        let fd = fs.open(name, false, false)?;
                        let bytes = fs.read(fd, st.size as usize + 1)?;
                        fs.close(fd)?;
                        Ok(Some(bytes))
                    }
                    Err(e) => Err(e),
                },
            };
            let made = match found {
                Ok(None) => model.mkdir(name),
                Ok(Some(bytes)) => (model.open(name, true, false))
                    .filter(|&ino| model.write(ino, 0, &bytes).is_some()),
                Err(GenericFsError::Fs(_)) => continue, // absent
                Err(e) => return Err(format!("{name}: {e}")),
            };
            made.ok_or(format!("{name}: under no directory"))?;
        }
        Ok(model)
    }

    /// A short write phase on the recovered instance, outside the
    /// candidate namespace: a few values (or files) of assorted sizes,
    /// each read back.
    fn write_after_recovery(&mut self, recovered: &FsModel) -> Result<(), String> {
        let lens = [700usize, 4096, 5000, 1];
        match self {
            Conn::Fs(fs) => {
                let mut g = Gen::over(recovered.clone(), 0xC0);
                g.push(FsAction::Mkdir {
                    path: "/post-recovery".into(),
                });
                for (i, len) in lens.into_iter().enumerate() {
                    let path = format!("/post-recovery/object-{i}");
                    g.open(path.clone());
                    g.append(&path, len);
                    g.read_back(&path);
                }
                run_script(fs, recovered, &g.script)
            }
            Conn::Kvs(kvs) => {
                for (i, len) in lens.into_iter().enumerate() {
                    let key = format!("{KVS_MOUNT}/post-recovery/object-{i}");
                    let value = pattern(len, 0xC0 | i as u8);
                    kvs.put(&key, value.clone())
                        .map_err(|e| format!("put {key}: {e}"))?;
                    if kvs.get(&key).ok() != Some(value) {
                        return Err(format!("{key} does not read back"));
                    }
                }
                Ok(())
            }
        }
    }
}

/// LabFS only: extend every surviving file by an unaligned write past a
/// gap — inside the page its recovered end falls in, or beyond it — and
/// read it back. The gap must read as zeroes whatever the blocks behind
/// it held before the crash: the tail a truncate cut off, or an append
/// whose size record was lost.
fn extend_survivors(fs: &mut LabStorFsTarget, recovered: &FsModel) -> Result<(), String> {
    let mut g = Gen::over(recovered.clone(), 0xE0);
    for (i, (name, bytes)) in recovered.files().enumerate() {
        g.open(name.into());
        g.write(
            name,
            (bytes.len() + 1 + (i * 1237) % 6000) as u64,
            300 + 7 * i,
        );
        g.read_back(name);
    }
    run_script(fs, recovered, &g.script).map_err(|e| format!("extended past a gap: {e}"))
}

/// Run `script` through the interpreter from the state `model`.
fn run_script(fs: &mut dyn FsTarget, model: &FsModel, script: &[FsAction]) -> Result<(), String> {
    let (mut model, mut fds) = (model.clone(), Vec::new());
    (script.iter())
        .try_for_each(|action| step(fs, &mut model, &mut fds, action))
        .map_err(|d| d.to_string())
}

/// 64-bit digest of a state: every name, in name order, with its file's
/// bytes or `None` for a directory. Only digests one process made are
/// compared.
fn digest(model: &FsModel) -> u64 {
    let mut h = DefaultHasher::new();
    model.names().for_each(|entry| entry.hash(&mut h));
    h.finish()
}

// ---- one pass of a mix ---------------------------------------------------

/// One pass of a mix and its acknowledged history.
struct Run {
    dev: Arc<SimDevice>,
    /// The client's clock at the end of an uncrashed pass.
    end_vt: u64,
    /// Where the pass was cut (0 uncrashed).
    crash_at: u64,
    /// What the acknowledged history should produce: a KVS key is a file.
    model: FsModel,
    /// `digests[k]` = model digest after the first `k` acked operations.
    digests: Vec<u64>,
    /// Index of the last acked durability point in `digests`.
    durable_floor: usize,
    /// Virtual time each durability point (fsync / log flush) began.
    sync_starts: Vec<u64>,
    /// Every name the pass tried or the model held: what is verified.
    candidates: BTreeSet<String>,
    violation: Option<String>,
}

impl Run {
    /// Acknowledge an operation: record the digest of the model state it
    /// left; a durability point moves the floor to it.
    fn ack(&mut self, durable: bool) {
        let names = self.model.names().map(|(name, _)| name.to_string());
        self.candidates.extend(names);
        self.digests.push(digest(&self.model));
        if durable {
            self.durable_floor = self.digests.len() - 1;
        }
    }

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

/// One pass of a mix on a fresh device, cut at `crash_at` if set. Stops
/// at the first divergence: with a cut armed, a refusal is the cut;
/// anything else is a violation.
fn run_once(workload: CrashWorkload, seed: u64, flows: usize, crash_at: Option<u64>) -> Run {
    let dev = SimDevice::preset(DeviceKind::Nvme);
    // How many sectors of a write the cut straddles still land is seeded:
    // per trial, so the same frame tears differently across trials.
    dev.faults().set_seed(seed);
    if let Some(t) = crash_at {
        dev.faults().set_crash_at(t);
    }
    let boot = Boot::new(&dev, workload.is_kvs());
    let mut run = Run {
        dev,
        end_vt: 0,
        crash_at: crash_at.unwrap_or(0),
        model: FsModel::new(),
        digests: Vec::new(),
        durable_floor: 0,
        sync_starts: Vec::new(),
        candidates: BTreeSet::new(),
        violation: None,
    };
    run.ack(false); // state after zero ops
    let ran = match (boot.connect(), workload.script(seed, flows)) {
        (Conn::Fs(mut fs), Some(script)) => run_fs(&mut fs, &mut run, &script),
        (Conn::Kvs(mut kvs), None) => run_kvs(&boot, &mut kvs, &mut run, seed, flows),
        _ => unreachable!("a KVS boot runs the KVS mix"),
    };
    match ran {
        Ok(end_vt) => run.end_vt = end_vt,
        Err(Divergence::Refused(_)) if crash_at.is_some() => {}
        Err(d) => run.violation = Some(d.to_string()),
    }
    run
}

/// Run a file-system mix's script, acknowledging each action that both
/// the stack and the model answered alike. Returns the client's clock.
fn run_fs(fs: &mut LabStorFsTarget, run: &mut Run, script: &[FsAction]) -> Result<u64, Divergence> {
    let mut fds = Vec::new();
    for action in script {
        if let FsAction::Open { path, .. }
        | FsAction::Mkdir { path }
        | FsAction::Rename { to: path, .. } = action
        {
            run.candidates.insert(path.clone());
        }
        // LabFS's durability point: fsync flushes every buffered log
        // record as a journal transaction and barriers the data path.
        let sync = matches!(action, FsAction::Fsync { .. });
        if sync {
            run.sync_starts.push(fs.now_ns());
        }
        step(fs, &mut run.model, &mut fds, action)?;
        run.ack(sync);
    }
    Ok(fs.now_ns())
}

/// The KVS mix: object-store keys and a log flush every fourth flow — a
/// dozen puts make an op-log frame of more than one sector, the only
/// kind a crash can tear. A put is a create-or-truncate and a write at
/// offset 0 of the model. Returns the client's clock.
fn run_kvs(
    boot: &Boot,
    kvs: &mut GenericKvs,
    run: &mut Run,
    seed: u64,
    flows: usize,
) -> Result<u64, Divergence> {
    let refused = |what: String| move |e| Divergence::Refused(format!("{what}: {e}"));
    let put = |kvs: &mut GenericKvs, run: &mut Run, key: String, value: Vec<u8>| {
        run.candidates.insert(key.clone());
        let full = format!("{KVS_MOUNT}{key}");
        kvs.put(&full, value.clone())
            .map_err(refused(format!("put {key}")))?;
        let ino = run.model.open(&key, true, true);
        run.model.write(ino.expect("a key in the root"), 0, &value);
        run.ack(false);
        Ok(())
    };
    let flush = |kvs: &mut GenericKvs, run: &mut Run| {
        let ctx = &mut kvs.client_mut().ctx;
        run.sync_starts.push(ctx.now());
        boot.with_entry(|kv: &LabKvs| kv.flush_logs(ctx))
            .map_err(|e| Divergence::Refused(format!("kv flush: {e}")))?;
        run.ack(true);
        Ok(())
    };
    let mut rng = XorShift::new(seed | 1);
    let bytes = |rng: &mut XorShift, len: usize| -> Vec<u8> {
        (0..len).map(|_| rng.next() as u8).collect()
    };
    for flow in 0..flows {
        for _ in 0..3 {
            let key = format!("/object-{:04}", rng.next() % 12);
            let len = 200 + (rng.next() % 6000) as usize;
            put(kvs, run, key, bytes(&mut rng, len))?;
        }
        // One in-place overwrite of a live key, at another length
        // (down to zero, up to a dozen sectors).
        let live = run.model.files().count();
        let pick = (live > 0).then(|| rng.next() as usize % live);
        if let Some((key, old)) = pick.and_then(|i| run.model.files().nth(i)) {
            let (key, len) = (key.to_string(), old.len() + 300);
            let len = (len + (rng.next() % 3000) as usize) % 6200;
            put(kvs, run, key, bytes(&mut rng, len))?;
        }
        if rng.next().is_multiple_of(5) {
            let key = format!("/object-{:04}", rng.next() % 12);
            if run.model.lookup(&key).is_some() {
                let full = format!("{KVS_MOUNT}{key}");
                kvs.remove(&full)
                    .map_err(refused(format!("remove {key}")))?;
                run.model.unlink(&key);
                run.ack(false);
            }
        }
        if flow % 4 == 3 {
            flush(kvs, run)?;
        }
    }
    flush(kvs, run)?;
    Ok(kvs.client().ctx.now())
}

// ---- the file-system mixes ----------------------------------------------

/// A script being generated, with a scratch model of the state it
/// leaves: what the mixes read back, where they append, what is live.
struct Gen {
    script: Vec<FsAction>,
    model: FsModel,
    /// The model inode behind each fd the script opened, in fd order.
    fds: Vec<u64>,
    rng: XorShift,
}

impl Gen {
    /// A script from the state `model`, with no fd open.
    fn over(model: FsModel, seed: u64) -> Gen {
        let (script, fds, rng) = (Vec::new(), Vec::new(), XorShift::new(seed | 1));
        Gen {
            script,
            model,
            fds,
            rng,
        }
    }

    /// A script that makes the shared directory and opens it as fd 0,
    /// the fd every fsync goes through.
    fn new(seed: u64) -> Gen {
        let mut g = Gen::over(FsModel::new(), seed);
        g.push(FsAction::Mkdir { path: "/cf".into() });
        g.open("/cf".into());
        g
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.rng.next() % n
    }

    /// Add `action` to the script and apply it to the scratch model.
    fn push(&mut self, action: FsAction) {
        let ino = action.fd().map_or(0, |fd| self.fds[fd]);
        if let Some(Answer::Opened(ino)) = self.model.apply(ino, &action) {
            self.fds.push(ino);
        }
        self.script.push(action);
    }

    /// Open `path`, made first as an empty file if it is missing.
    fn open(&mut self, path: String) {
        let (create, truncate) = (true, false);
        self.push(FsAction::Open {
            path,
            create,
            truncate,
        });
    }

    /// The latest fd opened on what `path` names.
    fn fd(&self, path: &str) -> Option<usize> {
        let ino = self.model.lookup(path)?;
        self.fds.iter().rposition(|&fd_ino| fd_ino == ino)
    }

    /// Write `len` bytes at `offset` of what `path` names.
    fn write(&mut self, path: &str, offset: u64, len: usize) {
        let seed = self.rng.next() as u8;
        if let Some(fd) = self.fd(path) {
            self.push(FsAction::Write {
                fd,
                offset,
                len,
                seed,
            });
        }
    }

    /// Append `len` bytes to `path` (overwrite-free by construction).
    fn append(&mut self, path: &str, len: usize) {
        let size = self.model.size(path).unwrap_or(0);
        self.write(path, size, len);
    }

    /// Live read-back of the whole file `path`.
    fn read_back(&mut self, path: &str) {
        if let (Some(fd), Some(size)) = (self.fd(path), self.model.size(path)) {
            let len = (size as usize).max(1);
            self.push(FsAction::Read { fd, offset: 0, len });
        }
    }

    /// Unlink `path` if it names anything.
    fn unlink(&mut self, path: String) {
        if self.model.lookup(&path).is_some() {
            self.push(FsAction::Unlink { path });
        }
    }

    fn fsync(&mut self) {
        self.push(FsAction::Fsync { fd: 0 });
    }
}

/// fio-write: four random-size appends over eight files, an fsync every
/// second flow, a truncate to a random size every fifth.
fn fio_write(g: &mut Gen, flow: usize) {
    for _ in 0..4 {
        let path = format!("/cf/f{}", g.pick(8));
        if g.model.lookup(&path).is_none() {
            g.open(path.clone());
        }
        let len = 512 + g.pick(8192) as usize;
        g.append(&path, len);
    }
    if flow % 5 == 4 {
        let path = format!("/cf/f{}", g.pick(8));
        let size = g.rng.next() % (g.model.size(&path).unwrap_or(0) + 1024);
        if let Some(fd) = g.fd(&path) {
            g.push(FsAction::Truncate { fd, size });
        }
    }
    if flow % 2 == 1 {
        g.fsync();
    }
}

/// varmail: recreate a mail file, append and fsync twice, read it back.
fn varmail(g: &mut Gen, _flow: usize) {
    let path = format!("/cf/v{}", g.pick(6));
    g.unlink(path.clone());
    g.open(path.clone());
    let half = 2048 + g.pick(2048) as usize;
    g.append(&path, half);
    g.fsync();
    g.append(&path, half);
    g.fsync();
    g.read_back(&path);
}

/// fileserver: a new file of four 4 KiB appends, read back; the file two
/// flows older deleted; an fsync every third flow.
fn fileserver(g: &mut Gen, flow: usize) {
    let path = format!("/cf/s{flow}");
    g.open(path.clone());
    for _ in 0..4 {
        g.append(&path, 4096);
    }
    g.read_back(&path);
    if flow >= 2 {
        g.unlink(format!("/cf/s{}", flow - 2));
    }
    if flow % 3 == 2 {
        g.fsync();
    }
}

/// namespace: over `/cf/nK`, `/cf/dK` and `/cf/dK/nK`, a mkdir, a
/// create plus a small append, a rename of any name onto any name, and
/// sometimes a directory move or an unlink; an fsync every second flow.
/// A refusal is a step too: the stack must refuse what the model does.
fn namespace(g: &mut Gen, flow: usize) {
    // One of the first `kinds` of: /cf/nK, /cf/dK/nK, /cf/dK.
    let name = |g: &mut Gen, kinds| match g.pick(kinds) {
        0 => format!("/cf/n{}", g.pick(4)),
        1 => format!("/cf/d{}/n{}", g.pick(3), g.pick(4)),
        _ => format!("/cf/d{}", g.pick(3)),
    };
    let path = format!("/cf/d{}", g.pick(3));
    g.push(FsAction::Mkdir { path });
    let file = name(g, 2);
    g.open(file.clone());
    let len = 1 + g.pick(600) as usize;
    g.append(&file, len);
    let (from, to) = (name(g, 3), name(g, 3));
    g.push(FsAction::Rename { from, to });
    match g.pick(4) {
        0 => {
            let (from, to) = (format!("/cf/d{}", g.pick(3)), name(g, 3));
            g.push(FsAction::Rename { from, to });
        }
        1 => {
            let path = name(g, 3);
            g.unlink(path);
        }
        _ => {}
    }
    if flow % 2 == 1 {
        g.fsync();
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
        assert_eq!(report.trials.len(), 10);
        assert!(report.violations().is_empty(), "{:#?}", report.violations());
        assert_eq!(report.crashes(), 10);
    }

    #[test]
    fn repair_is_idempotent_after_a_crash() {
        check_repair_idempotence(CrashWorkload::FioWrite, 5, 4, 400).unwrap();
        check_repair_idempotence(CrashWorkload::KvsMix, 6, 4, 600).unwrap();
    }
}
