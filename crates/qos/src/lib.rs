#![warn(missing_docs)]

//! # labstor-qos (labtenant) — multi-tenant quality-of-service
//!
//! LabStor composes an I/O stack per application; this crate makes the
//! *application* a first-class policy object. Following PAIO's
//! software-defined storage argument (per-tenant data-plane policies —
//! rate limiting, prioritization — stacked over an unmodified data path),
//! a [`TenantId`] rides the existing `Credentials` handshake and policy is
//! enforced at two choke points that already exist:
//!
//! 1. **Admission** — [`TokenBucket`] rate limiting in `Client::submit`,
//!    charged in *virtual time* so simulated workloads are reproducible.
//!    Rejects are typed errors with a retry-after hint, never panics.
//! 2. **Scheduling** — per-tenant virtual-time service counters feed a
//!    weighted-fair pass in the Work Orchestrator: a hostile tenant's
//!    queues are deprioritized, not starved, and latency-sensitive
//!    tenants keep their workers.
//!
//! The [`TenantTable`] is the registry: it owns declared policies
//! ([`TenantPolicy`]) and live accounting ([`TenantState`]), binds queue
//! ids to tenants for the orchestrator, and applies *hot* policy updates
//! through the same admin tick that drives live LabMod upgrades
//! ([`TenantTable::request_policy_update`] / [`TenantTable::apply_pending`]).
//!
//! ## Lock discipline
//!
//! `qos.tenants` (rank 36) nests after the runtime rebalance locks
//! (10–34) and strictly before every data-path lock (registry, pool,
//! page-cache lock, ≥ 40). `qos.bucket` (rank 38) nests inside a table
//! read.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use labstor_ipc::lockwitness::{OrderedMutex, OrderedRwLock, TENANT_BUCKET, TENANT_TABLE};
use labstor_ipc::TenantId;
use labstor_telemetry::{LogHistogram, Stat};

/// Nanoseconds per second: the fixed-point scale of [`TokenBucket`]
/// accounting (one token = `NS_PER_SEC` token-nanoseconds).
pub(crate) const NS_PER_SEC: u64 = 1_000_000_000;

/// Declared per-tenant policy: what the handshake (or an admin hot update)
/// attaches to a [`TenantId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Weighted-fair share weight. Service is normalized by this: a
    /// weight-2 tenant may consume twice the virtual service of a
    /// weight-1 tenant before the orchestrator deprioritizes it.
    /// Must be ≥ 1 (0 is clamped to 1).
    pub weight: u32,
    /// Token-bucket refill rate in payload bytes per virtual second;
    /// 0 = unlimited (admission always passes).
    pub(crate) rate_bytes_per_sec: u64,
    /// Token-bucket burst capacity in payload bytes. Oversize requests
    /// (cost > burst) are clamped to the burst: they drain the bucket
    /// fully instead of livelocking.
    pub(crate) burst_bytes: u64,
}

impl Default for TenantPolicy {
    /// The permissive default: weight 1, no quota, no rate limit.
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            rate_bytes_per_sec: 0,
            burst_bytes: 0,
        }
    }
}

impl TenantPolicy {
    /// A rate-limited policy: `rate` bytes/s sustained, `burst` bytes of
    /// burst headroom.
    pub fn rate_limited(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        TenantPolicy {
            rate_bytes_per_sec,
            burst_bytes,
            ..TenantPolicy::default()
        }
    }

    /// The same policy with a different weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// A token bucket in virtual time, fixed-point in token-nanoseconds.
///
/// The tank holds `tokens × NS_PER_SEC` so refill (`dt_ns × rate`) is
/// exact integer arithmetic — no fractional-token loss, which is what the
/// conservation proptest pins down: admitted cost over any window never
/// exceeds `burst + rate × elapsed`.
#[derive(Debug)]
pub struct TokenBucket {
    /// Refill rate in tokens per second (token-ns per ns).
    rate: u64,
    /// Tank capacity in token-ns (`burst × NS_PER_SEC`).
    burst_scaled: u64,
    /// Current fill in token-ns.
    tank: u64,
    /// Virtual timestamp of the last refill.
    last_vt: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens per virtual second with `burst`
    /// tokens of capacity, starting full. `rate == 0` means unlimited:
    /// every admit succeeds.
    pub fn new(rate: u64, burst: u64) -> Self {
        let burst_scaled = burst.saturating_mul(NS_PER_SEC);
        TokenBucket {
            rate,
            burst_scaled,
            tank: burst_scaled,
            last_vt: 0,
        }
    }

    /// Reconfigure rate/burst in place (hot policy update). The tank is
    /// clamped to the new burst; accrued debt or credit otherwise carries
    /// over so an update cannot mint a free burst.
    pub(crate) fn reconfigure(&mut self, rate: u64, burst: u64) {
        self.rate = rate;
        self.burst_scaled = burst.saturating_mul(NS_PER_SEC);
        self.tank = self.tank.min(self.burst_scaled);
    }

    /// Refill for the elapsed virtual time. Non-monotonic `now` (a caller
    /// on a stale clock) is ignored rather than panicking.
    fn refill(&mut self, now_vt: u64) {
        if now_vt <= self.last_vt {
            return;
        }
        let dt = now_vt - self.last_vt;
        self.last_vt = now_vt;
        let add = (dt as u128).saturating_mul(self.rate as u128);
        let tank = (self.tank as u128).saturating_add(add);
        self.tank = tank.min(self.burst_scaled as u128) as u64;
    }

    /// Try to admit a request of `cost` tokens at virtual time `now_vt`.
    /// `Err(retry_after_ns)` is the earliest virtual delay after which the
    /// same request could pass — the backpressure hint surfaced to
    /// clients. Costs above the burst are clamped to it (they drain the
    /// full bucket), so oversize requests throttle instead of livelocking.
    pub fn try_admit(&mut self, now_vt: u64, cost: u64) -> Result<(), u64> {
        if self.rate == 0 {
            return Ok(());
        }
        self.refill(now_vt);
        let charge = (cost as u128)
            .saturating_mul(NS_PER_SEC as u128)
            .min(self.burst_scaled as u128) as u64;
        if self.tank >= charge {
            self.tank -= charge;
            return Ok(());
        }
        let deficit = charge - self.tank;
        let retry = (deficit as u128).div_ceil(self.rate as u128);
        Err(retry.min(u64::MAX as u128) as u64)
    }

    /// Current fill in whole tokens (floor).
    pub fn tokens(&self) -> u64 {
        self.tank / NS_PER_SEC
    }
}

/// Live accounting for one tenant: the object the hot paths touch.
///
/// Everything here is either an atomic or the `qos.bucket` mutex, so the
/// admission check in `Client::submit` never takes the table lock.
pub struct TenantState {
    id: TenantId,
    /// Weighted-fair weight (hot-updatable; always ≥ 1).
    weight: AtomicU32,
    bucket: OrderedMutex<TokenBucket>,
    admitted: Stat,
    rejected: Stat,
    /// Virtual service consumed (worker-observed item-ns), the
    /// weighted-fair currency.
    service_vns: Stat,
    /// Pushdown fuel retired on behalf of this tenant (one unit per
    /// bytecode instruction executed inside the stack).
    fuel_used: Stat,
    /// Completion latency histogram (virtual ns), the per-tenant p99.
    latency: LogHistogram,
}

impl TenantState {
    fn new(id: TenantId, policy: &TenantPolicy) -> Self {
        TenantState {
            id,
            weight: AtomicU32::new(policy.weight.max(1)),
            bucket: OrderedMutex::new(
                &TENANT_BUCKET,
                TokenBucket::new(policy.rate_bytes_per_sec, policy.burst_bytes),
            ),
            admitted: Stat::new(0),
            rejected: Stat::new(0),
            service_vns: Stat::new(0),
            fuel_used: Stat::new(0),
            latency: LogHistogram::new(),
        }
    }

    /// The tenant this state bills to.
    pub(crate) fn id(&self) -> TenantId {
        self.id
    }

    /// Admission check: charge `cost` tokens (payload bytes) at virtual
    /// time `now_vt`. Success bumps the admitted counter; failure bumps
    /// rejected and returns the retry-after hint in virtual ns.
    pub fn try_admit(&self, now_vt: u64, cost: u64) -> Result<(), u64> {
        let verdict = self.bucket.lock().try_admit(now_vt, cost); // lock-class: qos.bucket
        match verdict {
            Ok(()) => {
                self.admitted.add(1);
                Ok(())
            }
            Err(retry) => {
                self.rejected.add(1);
                Err(retry)
            }
        }
    }

    /// Apply a (possibly hot) policy update to the live state.
    pub(crate) fn apply_policy(&self, policy: &TenantPolicy) {
        // relaxed-ok: weight is a tuning knob read by the next rebalance pass
        self.weight.store(policy.weight.max(1), Ordering::Relaxed);
        self.bucket // lock-class: qos.bucket
            .lock()
            .reconfigure(policy.rate_bytes_per_sec, policy.burst_bytes);
    }

    /// Current weighted-fair weight (≥ 1).
    pub(crate) fn weight(&self) -> u32 {
        // relaxed-ok: tuning knob read
        self.weight.load(Ordering::Relaxed).max(1)
    }

    /// Charge `vns` virtual nanoseconds of worker service to this tenant.
    pub(crate) fn note_service(&self, vns: u64) {
        self.service_vns.add(vns);
    }

    /// Charge `fuel` pushdown instruction units to this tenant.
    pub fn note_fuel(&self, fuel: u64) {
        self.fuel_used.add(fuel);
    }

    /// Total pushdown fuel retired for this tenant so far.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used.get()
    }

    /// Service normalized by weight (`service × 1000 / weight`): the
    /// virtual-time currency the weighted-fair pass compares across
    /// tenants.
    pub(crate) fn normalized_service_milli(&self) -> u64 {
        self.service_vns
            .get()
            .saturating_mul(1000)
            .checked_div(u64::from(self.weight()))
            .unwrap_or(0)
    }

    /// Record one completion latency (virtual ns).
    pub fn observe_latency(&self, ns: u64) {
        self.latency.record(ns);
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.get()
    }

    /// Requests rejected by admission so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// p99 completion latency (virtual ns; 0 with no samples).
    pub fn p99_ns(&self) -> u64 {
        self.latency.p99()
    }

    /// p50 completion latency (virtual ns; 0 with no samples).
    pub(crate) fn p50_ns(&self) -> u64 {
        self.latency.p50()
    }

    /// Completions observed.
    pub fn completions(&self) -> u64 {
        self.latency.count()
    }
}

impl std::fmt::Debug for TenantState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantState")
            .field("id", &self.id)
            .field("weight", &self.weight())
            .field("admitted", &self.admitted())
            .field("rejected", &self.rejected())
            .field("service_vns", &self.service_vns.get())
            .field("p99_ns", &self.p99_ns())
            .finish()
    }
}

struct TableInner {
    tenants: HashMap<TenantId, Arc<TenantState>>,
    policies: HashMap<TenantId, TenantPolicy>,
    by_qid: HashMap<u64, TenantId>,
    /// Policy updates staged by `request_policy_update`, applied by the
    /// next admin tick (the live-upgrade path).
    pending: Vec<(TenantId, TenantPolicy)>,
}

/// The tenant registry the Runtime owns: declared policies, live
/// accounting, and the qid→tenant binding the orchestrator consults.
///
/// Guarded by the `qos.tenants` witness lock (rank 36): acquired after the
/// runtime rebalance locks, released before any data-path lock.
pub struct TenantTable {
    inner: OrderedRwLock<TableInner>,
}

impl Default for TenantTable {
    fn default() -> Self {
        TenantTable::new()
    }
}

impl TenantTable {
    /// An empty table.
    pub fn new() -> Self {
        TenantTable {
            inner: OrderedRwLock::new(
                &TENANT_TABLE,
                TableInner {
                    tenants: HashMap::new(),
                    policies: HashMap::new(),
                    by_qid: HashMap::new(),
                    pending: Vec::new(),
                },
            ),
        }
    }

    /// Register `tenant` with `policy`, or fetch its existing state.
    /// Registration is first-writer-wins: re-registering (a second
    /// connection from the same tenant) keeps the original policy — use
    /// [`TenantTable::request_policy_update`] to change it. Returns `None`
    /// only for [`TenantId::NONE`], which is never tracked.
    pub fn register(&self, tenant: TenantId, policy: TenantPolicy) -> Option<Arc<TenantState>> {
        if tenant.is_none() {
            return None;
        }
        let mut inner = self.inner.write(); // lock-class: qos.tenants
        let state = inner
            .tenants
            .entry(tenant)
            .or_insert_with(|| Arc::new(TenantState::new(tenant, &policy)));
        let state = Arc::clone(state);
        inner.policies.entry(tenant).or_insert(policy);
        Some(state)
    }

    /// The live state for `tenant`, if registered.
    pub fn resolve(&self, tenant: TenantId) -> Option<Arc<TenantState>> {
        let inner = self.inner.read(); // lock-class: qos.tenants
        inner.tenants.get(&tenant).cloned()
    }

    /// The declared policy for `tenant`, if registered.
    pub fn policy(&self, tenant: TenantId) -> Option<TenantPolicy> {
        let inner = self.inner.read(); // lock-class: qos.tenants
        inner.policies.get(&tenant).copied()
    }

    /// Bind queue `qid` to `tenant` (the handshake records each connection
    /// queue here so the orchestrator can attribute load).
    pub fn bind_queue(&self, qid: u64, tenant: TenantId) {
        if tenant.is_none() {
            return;
        }
        let mut inner = self.inner.write(); // lock-class: qos.tenants
        inner.by_qid.insert(qid, tenant);
    }

    /// The tenant bound to queue `qid`, if any.
    #[cfg(test)]
    fn tenant_of_qid(&self, qid: u64) -> Option<TenantId> {
        let inner = self.inner.read(); // lock-class: qos.tenants
        inner.by_qid.get(&qid).copied()
    }

    /// Charge `vns` of worker service to the tenant bound to `qid`
    /// (no-op for unbound queues).
    pub fn note_qid_service(&self, qid: u64, vns: u64) {
        let state = {
            let inner = self.inner.read(); // lock-class: qos.tenants
            inner
                .by_qid
                .get(&qid)
                .and_then(|t| inner.tenants.get(t).cloned())
        };
        if let Some(state) = state {
            state.note_service(vns);
        }
    }

    /// Per-qid normalized service (`service × 1000 / weight` of the bound
    /// tenant): the snapshot the orchestrator's weighted-fair pass scales
    /// queue demand by. Unbound queues are absent (treated as untenanted).
    pub fn qid_normalized_service(&self) -> HashMap<u64, u64> {
        let inner = self.inner.read(); // lock-class: qos.tenants
        inner
            .by_qid
            .iter()
            .filter_map(|(&qid, t)| {
                inner
                    .tenants
                    .get(t)
                    .map(|s| (qid, s.normalized_service_milli()))
            })
            .collect()
    }

    /// Stage a hot policy update; it takes effect at the next admin tick
    /// ([`TenantTable::apply_pending`]), riding the same asynchronous
    /// control path as live LabMod upgrades.
    pub fn request_policy_update(&self, tenant: TenantId, policy: TenantPolicy) {
        if tenant.is_none() {
            return;
        }
        let mut inner = self.inner.write(); // lock-class: qos.tenants
        inner.pending.push((tenant, policy));
    }

    /// Apply all staged policy updates. Returns how many were applied
    /// (updates for unregistered tenants are dropped).
    pub fn apply_pending(&self) -> usize {
        let (staged, states) = {
            let mut inner = self.inner.write(); // lock-class: qos.tenants
            let staged: Vec<_> = inner.pending.drain(..).collect();
            let mut states = Vec::with_capacity(staged.len());
            for (tenant, policy) in &staged {
                if let Some(state) = inner.tenants.get(tenant) {
                    states.push(Some(Arc::clone(state)));
                    inner.policies.insert(*tenant, *policy);
                } else {
                    states.push(None);
                }
            }
            (staged, states)
        };
        // Bucket reconfiguration (qos.bucket, rank 38) happens after the
        // table write lock is released: 38 > 36 would be a legal nesting,
        // but not holding the table across it keeps admission hot paths
        // from ever waiting on an admin tick.
        let mut applied = 0;
        for ((_, policy), state) in staged.iter().zip(states) {
            if let Some(state) = state {
                state.apply_policy(policy);
                applied += 1;
            }
        }
        applied
    }

    /// Number of registered tenants.
    pub(crate) fn len(&self) -> usize {
        let inner = self.inner.read(); // lock-class: qos.tenants
        inner.tenants.len()
    }

    /// True when no tenant is registered.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every registered tenant's live state.
    pub(crate) fn all(&self) -> Vec<Arc<TenantState>> {
        let inner = self.inner.read(); // lock-class: qos.tenants
        let mut v: Vec<_> = inner.tenants.values().cloned().collect();
        v.sort_by_key(|s| s.id());
        v
    }

    /// Export per-tenant accounting as a JSON document (the trace path:
    /// the same shape the bench artifacts and exporters consume).
    pub fn export_json(&self) -> serde_json::Value {
        let tenants: Vec<serde_json::Value> = self
            .all()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "tenant": s.id().as_u32(),
                    "weight": s.weight(),
                    "admitted": s.admitted(),
                    "rejected": s.rejected(),
                    "service_vns": s.service_vns.get(),
                    "fuel_used": s.fuel_used(),
                    "completions": s.completions(),
                    "p50_ns": s.p50_ns(),
                    "p99_ns": s.p99_ns(),
                })
            })
            .collect();
        serde_json::json!({ "tenants": tenants })
    }
}

impl std::fmt::Debug for TenantTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantTable")
            .field("tenants", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(100, 50);
        assert_eq!(b.tokens(), 50);
        assert!(b.try_admit(0, 30).is_ok());
        assert_eq!(b.tokens(), 20);
        assert!(b.try_admit(0, 20).is_ok());
        let retry = b.try_admit(0, 10).unwrap_err();
        // 10 tokens at 100/s: 0.1 s = 100 ms of virtual time.
        assert_eq!(retry, 100_000_000);
    }

    #[test]
    fn bucket_refills_in_virtual_time_and_caps_at_burst() {
        let mut b = TokenBucket::new(1000, 100);
        assert!(b.try_admit(0, 100).is_ok());
        assert_eq!(b.tokens(), 0);
        // 50 ms at 1000/s = 50 tokens.
        assert!(b.try_admit(50_000_000, 50).is_ok());
        // A huge gap still caps at burst.
        assert!(b.try_admit(10 * NS_PER_SEC, 100).is_ok());
        assert!(b.try_admit(10 * NS_PER_SEC, 1).is_err());
    }

    #[test]
    fn oversize_cost_clamps_to_burst_instead_of_livelocking() {
        let mut b = TokenBucket::new(100, 10);
        // cost 50 > burst 10: clamped, drains the full bucket.
        assert!(b.try_admit(0, 50).is_ok());
        assert_eq!(b.tokens(), 0);
        // And it can eventually pass again once the bucket refills.
        let retry = b.try_admit(0, 50).unwrap_err();
        assert!(b.try_admit(retry, 50).is_ok());
    }

    #[test]
    fn zero_rate_is_unlimited() {
        let mut b = TokenBucket::new(0, 0);
        for now in 0..100 {
            assert!(b.try_admit(now, 1 << 40).is_ok());
        }
    }

    #[test]
    fn non_monotonic_now_does_not_mint_tokens() {
        let mut b = TokenBucket::new(100, 10);
        assert!(b.try_admit(NS_PER_SEC, 10).is_ok());
        // Clock goes backwards: no refill, no panic.
        assert!(b.try_admit(0, 1).is_err());
    }

    #[test]
    fn state_counts_admits_and_rejects() {
        let s = TenantState::new(TenantId(1), &TenantPolicy::rate_limited(100, 10));
        assert!(s.try_admit(0, 10).is_ok());
        assert!(s.try_admit(0, 10).is_err());
        assert_eq!(s.admitted(), 1);
        assert_eq!(s.rejected(), 1);
        s.observe_latency(1000);
        s.observe_latency(2000);
        assert_eq!(s.completions(), 2);
        assert!(s.p99_ns() >= 2000);
    }

    #[test]
    fn table_registers_binds_and_attributes_service() {
        let t = TenantTable::new();
        assert!(t.is_empty());
        assert!(t
            .register(TenantId::NONE, TenantPolicy::default())
            .is_none());
        let a = t
            .register(TenantId(1), TenantPolicy::default().with_weight(2))
            .unwrap();
        let b = t.register(TenantId(2), TenantPolicy::default()).unwrap();
        assert_eq!(t.len(), 2);
        t.bind_queue(10, TenantId(1));
        t.bind_queue(11, TenantId(2));
        assert_eq!(t.tenant_of_qid(10), Some(TenantId(1)));
        t.note_qid_service(10, 4000);
        t.note_qid_service(11, 4000);
        assert_eq!(a.service_vns.get(), 4000);
        let norm = t.qid_normalized_service();
        // Equal raw service, but tenant 1 has weight 2 → half the
        // normalized service.
        assert_eq!(norm[&10], 2_000_000);
        assert_eq!(norm[&11], 4_000_000);
        assert_eq!(b.service_vns.get(), 4000);
    }

    #[test]
    fn reregistration_keeps_original_policy() {
        let t = TenantTable::new();
        let first = t
            .register(TenantId(1), TenantPolicy::default().with_weight(4))
            .unwrap();
        let second = t
            .register(TenantId(1), TenantPolicy::default().with_weight(9))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.weight(), 4);
        assert_eq!(t.policy(TenantId(1)).unwrap().weight, 4);
    }

    #[test]
    fn hot_policy_update_rides_apply_pending() {
        let t = TenantTable::new();
        let s = t
            .register(TenantId(3), TenantPolicy::rate_limited(1000, 100))
            .unwrap();
        assert!(s.try_admit(0, 100).is_ok());
        t.request_policy_update(
            TenantId(3),
            TenantPolicy::rate_limited(10, 1).with_weight(5),
        );
        // Not applied yet.
        assert_eq!(s.weight(), 1);
        assert_eq!(t.apply_pending(), 1);
        assert_eq!(s.weight(), 5);
        assert_eq!(t.policy(TenantId(3)).unwrap().weight, 5);
        // New bucket: burst 1, so a 100-byte request clamps to 1 token.
        assert!(s.try_admit(NS_PER_SEC, 100).is_ok());
        assert!(s.try_admit(NS_PER_SEC, 1).is_err());
        // Updates for unknown tenants are dropped.
        t.request_policy_update(TenantId(99), TenantPolicy::default());
        assert_eq!(t.apply_pending(), 0);
    }

    #[test]
    fn export_json_lists_tenants() {
        let t = TenantTable::new();
        t.register(TenantId(1), TenantPolicy::default());
        t.register(TenantId(2), TenantPolicy::default());
        let doc = t.export_json();
        let tenants = doc["tenants"].as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0]["tenant"].as_u64(), Some(1));
    }
}
