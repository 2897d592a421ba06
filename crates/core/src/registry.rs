//! The Module Manager: registry, factories, and live-upgrade protocols
//! (paper §III-C2).
//!
//! The Module Registry is a map from instance UUID to LabMod instance
//! ("a hashmap in shared memory") and, beside it, the performance
//! counters the platform keeps for that UUID — they belong to the UUID,
//! not the instance, so they outlive every upgrade. Upgrades are queued
//! and processed by the Runtime admin, which quiesces primary queues
//! (`UPDATE_PENDING` → `UPDATE_ACKED`; there are no intermediate queues to
//! drain, so every primary queue acked *is* quiescence), loads the new
//! module code from storage, transfers state via `state_update`, swaps the
//! registry entry, and resumes the queues.
//!
//! Two protocols exist because operators can live in the Runtime *or* in
//! client address spaces: **centralized** updates the Runtime's copy;
//! **decentralized** additionally propagates the swap to every connected
//! client (slightly slower — Table I).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use labstor_ipc::{IpcManager, UpgradeFlag};
use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::labmod::LabMod;
use crate::request::Message;
use crate::stack::LabStack;

/// Factory that builds a LabMod instance from JSON parameters.
pub(crate) type ModFactory = Arc<dyn Fn(&serde_json::Value) -> Arc<dyn LabMod> + Send + Sync>;

/// Which upgrade protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeKind {
    /// Update the Runtime's instance only.
    Centralized,
    /// Update the Runtime and every connected client.
    Decentralized,
}

/// A queued `modify.mods` upgrade request.
pub struct UpgradeRequest {
    /// UUID of the instance to upgrade.
    pub uuid: String,
    /// Factory (type) name of the replacement code.
    pub type_name: String,
    /// Initialization parameters for the new instance.
    pub params: serde_json::Value,
    /// Protocol to use.
    pub kind: UpgradeKind,
    /// Size of the module binary on storage ("the dummy module is 1MB and
    /// located on an NVMe; the I/O cost accounted for the majority of time
    /// spent in the upgrade process" — Table I).
    pub code_bytes: usize,
    /// Device holding the module binary, if its load should be charged.
    pub code_device: Option<Arc<SimDevice>>,
}

/// Fixed cost of linking/relocating a loaded module (dlopen of a ~1 MB
/// object plus allocator work), calibrated so one upgrade lands near the
/// paper's ≈5 ms.
const MODULE_LINK_NS: u64 = 3_600_000;
/// Cost of transferring state between instances per upgrade ("a few bytes
/// of pointers").
const STATE_TRANSFER_NS: u64 = 2_000;
/// Extra per-client propagation cost for the decentralized protocol.
const PER_CLIENT_PROPAGATE_NS: u64 = 150_000;

/// A LabMod repo: a named source of LabMod types with an owner and a
/// trust level (§III-D). "A LabMod repo which is owned by the same user
/// as the LabStor Runtime is considered trustworthy by default. Untrusted
/// LabMods … must be \[executed\] in a separate address space from the
/// Runtime."
#[derive(Debug, Clone)]
pub struct ModRepo {
    /// Owning uid.
    pub(crate) owner_uid: u32,
    /// Whether the Runtime may execute this repo's mods in-process.
    pub(crate) trusted: bool,
}

/// What the registry holds under one UUID. A slot is immutable: an
/// upgrade publishes a new slot with the new instance and the *same*
/// counters, so a resolved route holds both behind one `Arc`.
pub(crate) struct Slot {
    pub(crate) instance: Arc<dyn LabMod>,
    pub(crate) counters: Arc<PerfCounters>,
}

/// One row of [`ModuleManager::counters_table`]: what the platform has
/// measured for a UUID so far. Times are exclusive busy virtual ns (see
/// `labmod::run_vertex` for exactly what that covers).
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Instance UUID.
    pub uuid: String,
    /// Type of the instance currently registered under it.
    pub type_name: &'static str,
    /// Requests the vertex has processed.
    pub ops: u64,
    /// Lifetime exclusive busy time (the paper's `EstTotalTime`).
    pub total_ns: u64,
    /// Median per-request cost.
    pub p50_ns: u64,
    /// Tail per-request cost.
    pub p99_ns: u64,
}

/// The Module Manager.
pub struct ModuleManager {
    registry: RwLock<HashMap<String, Arc<Slot>>>,
    /// Bumped under the registry write lock by every slot published
    /// (every instantiate and every upgrade): a route resolved at one
    /// epoch is current while the epoch still reads the same.
    epoch: AtomicU64,
    factories: RwLock<HashMap<String, ModFactory>>,
    /// Mounted repos by name.
    repos: RwLock<HashMap<String, ModRepo>>,
    /// Which repo provides each factory (type name → repo name).
    factory_repo: RwLock<HashMap<String, String>>,
    /// Maximum repos one (non-root) user may mount.
    max_repos_per_user: usize,
    upgrades: Mutex<Vec<UpgradeRequest>>,
    /// Virtual time at which the last upgrade window ended; resuming
    /// workers fast-forward to it so the pause costs virtual time.
    resume_vt: AtomicU64,
    /// The Runtime's span flight recorder (disabled by default). Owned
    /// here so every component that can reach the registry — workers,
    /// clients, LabMods via `StackEnv` — records into the same recorder,
    /// and separate Runtimes never share spans.
    telemetry: Arc<labstor_telemetry::FlightRecorder>,
    /// The Runtime's tenant table, attached once at startup so
    /// kernel-side LabMods can bill pushdown fuel to the requesting
    /// tenant. Standalone managers (unit harnesses) leave it unset and
    /// fuel is charged to virtual time only.
    tenants: std::sync::OnceLock<Arc<labstor_qos::TenantTable>>,
}

impl Default for ModuleManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ModuleManager {
    /// Empty manager.
    pub fn new() -> Self {
        ModuleManager {
            registry: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            factories: RwLock::new(HashMap::new()),
            repos: RwLock::new(HashMap::new()),
            factory_repo: RwLock::new(HashMap::new()),
            max_repos_per_user: 8,
            upgrades: Mutex::new(Vec::new()),
            resume_vt: AtomicU64::new(0),
            telemetry: Arc::new(labstor_telemetry::FlightRecorder::default()),
            tenants: std::sync::OnceLock::new(),
        }
    }

    /// Attach the Runtime's tenant table (once, at startup). Later calls
    /// are ignored — the first table wins, matching `OnceLock`.
    pub(crate) fn attach_tenants(&self, tenants: Arc<labstor_qos::TenantTable>) {
        let _ = self.tenants.set(tenants);
    }

    /// The attached tenant table, if this manager belongs to a Runtime.
    pub(crate) fn tenants(&self) -> Option<&Arc<labstor_qos::TenantTable>> {
        self.tenants.get()
    }

    /// The span flight recorder shared by everything attached to this
    /// Runtime. Disabled by default; `FlightRecorder::enable` turns
    /// recording on.
    pub fn telemetry(&self) -> &Arc<labstor_telemetry::FlightRecorder> {
        &self.telemetry
    }

    // ---- repos --------------------------------------------------------

    /// Mount a repo (the unprivileged `mount.repo` command). Repos owned
    /// by the Runtime's user (root here) are trusted by default; others
    /// are untrusted unless root marks them otherwise. Enforces the
    /// configurable per-user repo limit.
    // api-ok: §III-B repo commands (tests/stack_composition.rs)
    pub fn mount_repo(&self, name: &str, owner_uid: u32) -> Result<(), String> {
        let mut repos = self.repos.write(); // lock-class: registry.repos
        if repos.contains_key(name) {
            return Err(format!("repo '{name}' already mounted"));
        }
        if owner_uid != 0 {
            let owned = repos.values().filter(|r| r.owner_uid == owner_uid).count();
            if owned >= self.max_repos_per_user {
                return Err(format!(
                    "uid {owner_uid} at the repo limit ({})",
                    self.max_repos_per_user
                ));
            }
        }
        repos.insert(
            name.to_string(),
            ModRepo {
                owner_uid,
                trusted: owner_uid == 0,
            },
        );
        Ok(())
    }

    /// Unmount a repo (`unmount.repo`): only the owner or root.
    // api-ok: §III-B repo commands
    pub fn unmount_repo(&self, name: &str, uid: u32) -> Result<(), String> {
        let mut repos = self.repos.write(); // lock-class: registry.repos
        let repo = repos
            .get(name)
            .ok_or_else(|| format!("repo '{name}' not mounted"))?;
        if uid != 0 && uid != repo.owner_uid {
            return Err(format!("uid {uid} may not unmount repo '{name}'"));
        }
        repos.remove(name);
        Ok(())
    }

    /// Look up a mounted repo (§III-B repo commands).
    pub fn repo(&self, name: &str) -> Option<ModRepo> {
        self.repos.read().get(name).cloned() // lock-class: registry.repos
    }

    /// Register a LabMod type as provided by `repo` (must be mounted).
    // api-ok: §III-B repo commands (tests/stack_composition.rs)
    pub fn register_factory_in_repo(
        &self,
        repo: &str,
        type_name: &str,
        factory: ModFactory,
    ) -> Result<(), String> {
        // lock-class: registry.repos
        if !self.repos.read().contains_key(repo) {
            return Err(format!("repo '{repo}' not mounted"));
        }
        self.factory_repo
            .write() // lock-class: registry.factories
            .insert(type_name.to_string(), repo.to_string());
        self.factories
            .write() // lock-class: registry.factories
            .insert(type_name.to_string(), factory);
        Ok(())
    }

    /// True if the type comes from a trusted repo (types registered with
    /// the plain [`ModuleManager::register_factory`] count as built-in and
    /// trusted).
    pub(crate) fn type_is_trusted(&self, type_name: &str) -> bool {
        // lock-class: registry.factories
        match self.factory_repo.read().get(type_name) {
            Some(repo) => self
                .repos
                .read() // lock-class: registry.repos
                .get(repo)
                .map(|r| r.trusted)
                .unwrap_or(false),
            None => true,
        }
    }

    // ---- factories & registry ---------------------------------------------

    /// Register a LabMod type ("installing a repo" makes its types
    /// available).
    pub fn register_factory(&self, type_name: &str, factory: ModFactory) {
        self.factories
            .write() // lock-class: registry.factories
            .insert(type_name.to_string(), factory);
    }

    /// Instantiate `type_name` under `uuid` unless that UUID already
    /// exists (mount semantics: "a LabMod is only instantiated if its UUID
    /// did not exist in the registry"). Returns the registered instance:
    /// of two mounts racing on one UUID, each builds one, the first to
    /// take the write lock registers its own, and both get that one.
    pub fn instantiate(
        &self,
        uuid: &str,
        type_name: &str,
        params: &serde_json::Value,
    ) -> Result<Arc<dyn LabMod>, String> {
        if let Some(existing) = self.get(uuid) {
            return Ok(existing);
        }
        let factory = self
            .factories
            .read() // lock-class: registry.factories
            .get(type_name)
            .cloned()
            .ok_or_else(|| format!("no LabMod type '{type_name}' installed"))?;
        let instance = factory(params);
        let mut registry = self.registry.write(); // lock-class: registry.instances
        let slot = registry.entry(uuid.to_string()).or_insert_with(|| {
            self.epoch.fetch_add(1, Ordering::Release);
            Arc::new(Slot {
                instance,
                counters: Default::default(),
            })
        });
        Ok(slot.instance.clone())
    }

    /// Register `instance` under `uuid` (tests, in-process composition,
    /// and every upgrade). A UUID seen before keeps its counters, whatever
    /// the type of the instance that replaces the old one.
    pub fn insert_instance(&self, uuid: &str, instance: Arc<dyn LabMod>) {
        let mut registry = self.registry.write(); // lock-class: registry.instances
        let counters = registry
            .get(uuid)
            .map(|slot| slot.counters.clone())
            .unwrap_or_default();
        registry.insert(uuid.to_string(), Arc::new(Slot { instance, counters }));
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The registry's epoch: it moves whenever a slot is published.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The slot of every vertex of `stack`, by vertex index (`None` where
    /// the UUID is not loaded), in one registry read.
    pub(crate) fn resolve(&self, stack: &LabStack) -> Box<[Option<Arc<Slot>>]> {
        let registry = self.registry.read(); // lock-class: registry.instances
        stack
            .vertices
            .iter()
            .map(|v| registry.get(&v.uuid).cloned())
            .collect()
    }

    /// Look up an instance.
    pub fn get(&self, uuid: &str) -> Option<Arc<dyn LabMod>> {
        let registry = self.registry.read(); // lock-class: registry.instances
        registry.get(uuid).map(|slot| slot.instance.clone())
    }

    /// All `(uuid, instance)` pairs.
    pub(crate) fn instances(&self) -> Vec<(String, Arc<dyn LabMod>)> {
        self.registry
            .read() // lock-class: registry.instances
            .iter()
            .map(|(k, v)| (k.clone(), v.instance.clone()))
            .collect()
    }

    /// The platform-measured counters of `uuid`: one observation per
    /// request the vertex processed, of its exclusive busy virtual ns.
    /// They start when the UUID is first registered and survive every
    /// upgrade of it.
    pub fn counters(&self, uuid: &str) -> Option<Arc<PerfCounters>> {
        let registry = self.registry.read(); // lock-class: registry.instances
        registry.get(uuid).map(|slot| slot.counters.clone())
    }

    /// Every UUID's counters, sorted by UUID.
    pub fn counters_table(&self) -> Vec<CounterRow> {
        let mut slots: Vec<(String, Arc<Slot>)> = self
            .registry
            .read() // lock-class: registry.instances
            .iter()
            .map(|(uuid, slot)| (uuid.clone(), slot.clone()))
            .collect();
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        slots
            .into_iter()
            .map(|(uuid, slot)| CounterRow {
                uuid,
                type_name: slot.instance.type_name(),
                ops: slot.counters.ops(),
                total_ns: slot.counters.total_ns(),
                p50_ns: slot.counters.p50(),
                p99_ns: slot.counters.p99(),
            })
            .collect()
    }

    /// Invoke `state_repair` on every registered instance (client-side
    /// crash recovery, §III-C3).
    pub fn repair_all(&self) {
        for (_, m) in self.instances() {
            m.state_repair();
        }
    }

    // ---- upgrades ----------------------------------------------------------

    /// Queue an upgrade (the `modify.mods` API).
    pub fn request_upgrade(&self, req: UpgradeRequest) {
        self.upgrades.lock().push(req); // lock-class: registry.upgrades
    }

    /// Number of queued upgrades.
    pub fn pending_upgrades(&self) -> usize {
        self.upgrades.lock().len() // lock-class: registry.upgrades
    }

    /// Virtual time workers must fast-forward to after a pause.
    pub(crate) fn resume_vt(&self) -> u64 {
        self.resume_vt.load(Ordering::Acquire)
    }

    /// Run the upgrade protocol over all queued requests. Called by the
    /// Runtime admin every `t` ms. `admin_ctx` should start at the current
    /// worker high-watermark. Returns the number of upgrades applied.
    ///
    /// `workers_running` tells the protocol whether live workers will ack
    /// the pending flags (true in the full Runtime) or whether the admin
    /// must ack on their behalf (standalone/unit-test use).
    pub fn process_upgrades(
        &self,
        admin_ctx: &mut Ctx,
        ipc: &IpcManager<Message>,
        workers_running: bool,
    ) -> usize {
        let batch: Vec<UpgradeRequest> = std::mem::take(&mut *self.upgrades.lock()); // lock-class: registry.upgrades
        if batch.is_empty() {
            return 0;
        }
        // 1. Quiesce: mark primary queues, wait for worker acks.
        let primaries = ipc.primary_queues();
        for q in &primaries {
            q.mark_update_pending();
        }
        if workers_running {
            let deadline = Instant::now() + Duration::from_secs(10);
            while primaries
                .iter()
                .any(|q| q.upgrade_flag() == UpgradeFlag::UpdatePending)
            {
                if Instant::now() > deadline {
                    break; // worker died; proceed rather than deadlock
                }
                std::thread::yield_now();
            }
        } else {
            for q in &primaries {
                q.ack_update();
            }
        }
        // 2. Apply each upgrade.
        let n = batch.len();
        for up in batch {
            // Load the module binary from storage (dominant cost).
            if let Some(dev) = &up.code_device {
                let mut remaining = up.code_bytes;
                let mut lba = 0u64;
                let mut buf = vec![0u8; 128 * 1024];
                while remaining > 0 {
                    let chunk = remaining.min(buf.len());
                    let aligned = chunk.next_multiple_of(labstor_sim::SECTOR_SIZE);
                    let _ = dev.read(admin_ctx, lba, &mut buf[..aligned]);
                    lba += (aligned / labstor_sim::SECTOR_SIZE) as u64;
                    remaining -= chunk;
                }
            }
            admin_ctx.advance(MODULE_LINK_NS);
            // Build the replacement and pull state across.
            let built = self
                .factories
                .read() // lock-class: registry.factories
                .get(&up.type_name)
                .cloned()
                .map(|f| f(&up.params));
            if let Some(new_instance) = built {
                if let Some(old) = self.get(&up.uuid) {
                    new_instance.state_update(old.as_ref());
                    admin_ctx.advance(STATE_TRANSFER_NS);
                }
                self.insert_instance(&up.uuid, new_instance);
            }
            // Decentralized: propagate the swap to every connected client.
            if up.kind == UpgradeKind::Decentralized {
                let clients = ipc.connections().len() as u64;
                admin_ctx.advance(clients * PER_CLIENT_PROPAGATE_NS);
            }
        }
        // 3. Resume: publish the post-upgrade virtual time and unpause.
        self.resume_vt.store(admin_ctx.now(), Ordering::Release);
        for q in &primaries {
            q.clear_update();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labmod::{ModType, StackEnv};
    use crate::request::{Request, RespPayload};
    use labstor_sim::DeviceKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A mod holding a counter that must survive upgrades.
    struct Versioned {
        version: u64,
        counter: AtomicU64,
    }

    impl LabMod for Versioned {
        fn type_name(&self) -> &'static str {
            "versioned"
        }
        fn mod_type(&self) -> ModType {
            ModType::Dummy
        }
        fn process(&self, _ctx: &mut Ctx, _req: Request, _env: &StackEnv<'_>) -> RespPayload {
            self.counter.fetch_add(1, Ordering::Relaxed);
            RespPayload::Ok
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            100
        }
        fn state_update(&self, old: &dyn LabMod) {
            if let Some(prev) = old.as_any().downcast_ref::<Versioned>() {
                self.counter
                    .store(prev.counter.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn manager_with_factory() -> ModuleManager {
        let mm = ModuleManager::new();
        let version = Arc::new(AtomicU64::new(1));
        let v = version.clone();
        mm.register_factory(
            "versioned",
            Arc::new(move |_params| {
                Arc::new(Versioned {
                    version: v.fetch_add(1, Ordering::Relaxed),
                    counter: AtomicU64::new(0),
                }) as Arc<dyn LabMod>
            }),
        );
        mm
    }

    #[test]
    fn instantiate_is_idempotent_per_uuid() {
        let mm = manager_with_factory();
        let a = mm
            .instantiate("u1", "versioned", &serde_json::Value::Null)
            .unwrap();
        let b = mm
            .instantiate("u1", "versioned", &serde_json::Value::Null)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same uuid must reuse the instance");
        let c = mm
            .instantiate("u2", "versioned", &serde_json::Value::Null)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    /// Two mounts sharing a UUID, racing: both build an instance (the
    /// factory holds each until the other has arrived), and both must get
    /// back the one the registry kept.
    #[test]
    fn racing_instantiates_of_one_uuid_get_the_registered_instance() {
        let mm = ModuleManager::new();
        let both_building = Arc::new(std::sync::Barrier::new(2));
        let gate = both_building.clone();
        mm.register_factory(
            "versioned",
            Arc::new(move |_params| {
                gate.wait();
                Arc::new(Versioned {
                    version: 1,
                    counter: AtomicU64::new(0),
                }) as Arc<dyn LabMod>
            }),
        );
        let mounted: Vec<Arc<dyn LabMod>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        mm.instantiate("shared", "versioned", &serde_json::Value::Null)
                            .unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let registered = mm.get("shared").unwrap();
        for instance in &mounted {
            assert!(Arc::ptr_eq(instance, &registered));
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mm = ModuleManager::new();
        assert!(mm
            .instantiate("u", "ghost", &serde_json::Value::Null)
            .is_err());
    }

    #[test]
    fn centralized_upgrade_swaps_and_preserves_state() {
        let mm = manager_with_factory();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(8);
        let old = mm
            .instantiate("u1", "versioned", &serde_json::Value::Null)
            .unwrap();
        let old_v = old.as_any().downcast_ref::<Versioned>().unwrap();
        old_v.counter.store(42, Ordering::Relaxed);
        let before_version = old_v.version;

        mm.request_upgrade(UpgradeRequest {
            uuid: "u1".into(),
            type_name: "versioned".into(),
            params: serde_json::Value::Null,
            kind: UpgradeKind::Centralized,
            code_bytes: 1 << 20,
            code_device: Some(SimDevice::preset(DeviceKind::Nvme)),
        });
        let mut admin = Ctx::new();
        assert_eq!(mm.process_upgrades(&mut admin, &ipc, false), 1);

        let new = mm.get("u1").unwrap();
        let new_v = new.as_any().downcast_ref::<Versioned>().unwrap();
        assert!(
            new_v.version > before_version,
            "a fresh instance was installed"
        );
        assert_eq!(
            new_v.counter.load(Ordering::Relaxed),
            42,
            "state transferred"
        );
        // Cost: code read + link + state transfer — milliseconds, not µs.
        assert!(admin.now() > 3_000_000, "upgrade cost {} ns", admin.now());
        assert_eq!(mm.resume_vt(), admin.now());
    }

    #[test]
    fn upgrade_quiesces_and_resumes_queues() {
        let mm = manager_with_factory();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(8);
        let conn = ipc.connect(labstor_ipc::Credentials::new(1, 0, 0), 1);
        mm.instantiate("u1", "versioned", &serde_json::Value::Null)
            .unwrap();
        mm.request_upgrade(UpgradeRequest {
            uuid: "u1".into(),
            type_name: "versioned".into(),
            params: serde_json::Value::Null,
            kind: UpgradeKind::Centralized,
            code_bytes: 0,
            code_device: None,
        });
        let mut admin = Ctx::new();
        mm.process_upgrades(&mut admin, &ipc, false);
        assert_eq!(
            conn.queues[0].upgrade_flag(),
            UpgradeFlag::None,
            "queues resumed"
        );
    }

    #[test]
    fn decentralized_costs_more_with_clients() {
        let mm = manager_with_factory();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(8);
        for pid in 0..4 {
            ipc.connect(labstor_ipc::Credentials::new(pid, 0, 0), 1);
        }
        mm.instantiate("u1", "versioned", &serde_json::Value::Null)
            .unwrap();
        let run = |kind: UpgradeKind| {
            mm.request_upgrade(UpgradeRequest {
                uuid: "u1".into(),
                type_name: "versioned".into(),
                params: serde_json::Value::Null,
                kind,
                code_bytes: 0,
                code_device: None,
            });
            let mut admin = Ctx::new();
            mm.process_upgrades(&mut admin, &ipc, false);
            admin.now()
        };
        let central = run(UpgradeKind::Centralized);
        let decentral = run(UpgradeKind::Decentralized);
        assert!(
            decentral > central,
            "decentralized propagates to clients: {decentral} vs {central}"
        );
    }

    #[test]
    fn no_upgrades_is_free() {
        let mm = ModuleManager::new();
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(1);
        let mut admin = Ctx::new();
        assert_eq!(mm.process_upgrades(&mut admin, &ipc, false), 0);
        assert_eq!(admin.now(), 0);
    }

    #[test]
    fn repo_mount_limits_and_ownership() {
        let mm = ModuleManager::new();
        // Per-user limit.
        for i in 0..8 {
            mm.mount_repo(&format!("u{i}"), 1000).unwrap();
        }
        assert!(mm.mount_repo("one-too-many", 1000).is_err());
        // Root is unlimited.
        for i in 0..12 {
            mm.mount_repo(&format!("r{i}"), 0).unwrap();
        }
        // Ownership on unmount.
        assert!(mm.unmount_repo("u0", 2000).is_err(), "stranger rejected");
        mm.unmount_repo("u0", 1000).unwrap();
        mm.unmount_repo("u1", 0).unwrap(); // root may
        assert!(mm.mount_repo("u0", 1000).is_ok(), "slot freed");
    }

    #[test]
    fn repo_trust_follows_ownership() {
        let mm = ModuleManager::new();
        mm.mount_repo("system", 0).unwrap();
        mm.mount_repo("sketchy", 1000).unwrap();
        mm.register_factory_in_repo(
            "system",
            "sys_mod",
            Arc::new(|_p| {
                Arc::new(Versioned {
                    version: 1,
                    counter: AtomicU64::new(0),
                }) as Arc<dyn LabMod>
            }),
        )
        .unwrap();
        mm.register_factory_in_repo(
            "sketchy",
            "sketchy_mod",
            Arc::new(|_p| {
                Arc::new(Versioned {
                    version: 1,
                    counter: AtomicU64::new(0),
                }) as Arc<dyn LabMod>
            }),
        )
        .unwrap();
        assert!(mm.type_is_trusted("sys_mod"));
        assert!(!mm.type_is_trusted("sketchy_mod"));
        // Built-ins (no repo) are trusted.
        assert!(mm.type_is_trusted("anything_builtin"));
        // Registering into an unmounted repo fails.
        assert!(mm
            .register_factory_in_repo("ghost", "x", Arc::new(|_p| unreachable!()))
            .is_err());
    }

    #[test]
    fn repair_all_reaches_every_instance() {
        // state_repair is a no-op for Versioned; this just exercises the
        // call path over multiple instances.
        let mm = manager_with_factory();
        mm.instantiate("a", "versioned", &serde_json::Value::Null)
            .unwrap();
        mm.instantiate("b", "versioned", &serde_json::Value::Null)
            .unwrap();
        mm.repair_all();
        assert_eq!(mm.instances().len(), 2);
    }
}
