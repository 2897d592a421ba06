//! The LabMod abstraction (paper §III-A).
//!
//! A LabMod is "an independent, self-contained code object implementing a
//! well-defined, distinct, single-purpose functionality" comprised of four
//! elements:
//!
//! * **type** — the API set it implements ([`ModType`]);
//! * **operation** — [`LabMod::process`]: well-defined input → output;
//! * **state** — whatever the implementation keeps internally;
//! * **connector** — the client-side entry that packages requests (the
//!   [`crate::client::Client`] and the Generic LabMods in `labstor-mods`).
//!
//! To be upgradable, stackable and monitorable, every LabMod implements
//! the platform APIs: [`LabMod::state_update`] (live upgrade),
//! [`LabMod::state_repair`] (crash recovery) and
//! [`LabMod::est_processing_time`] (its cost model, consumed by the Work
//! Orchestrator). The paper's other monitoring API, `EstTotalTime`, is
//! not the LabMod's to implement: the platform measures every vertex
//! where it runs it (`run_vertex`, below) and answers through
//! [`ModuleManager::counters`].

use std::any::Any;
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use labstor_sim::Ctx;
use labstor_telemetry::Stage;

use crate::registry::{ModuleManager, Slot};
use crate::request::{Request, RespPayload};
use crate::stack::{LabStack, Namespace, StackId};

/// The API family a LabMod implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModType {
    /// POSIX-style filesystem.
    Filesystem,
    /// Key-value store.
    Kvs,
    /// Page/content cache.
    Cache,
    /// I/O scheduler.
    Scheduler,
    /// Storage driver (Kernel MQ, SPDK, DAX).
    Driver,
    /// Request filter/transformer (permissions, compression, consistency).
    Filter,
    /// Test/benchmark module.
    Dummy,
}

/// A LabStor module.
///
/// Implementations are shared (`&self`) because one instance serves many
/// workers; interior state uses its own synchronization (the paper's mods
/// do the same across Runtime threads).
pub trait LabMod: Send + Sync {
    /// The factory/type name this instance was built from (e.g. "labfs").
    fn type_name(&self) -> &'static str;

    /// The API family.
    fn mod_type(&self) -> ModType;

    /// Process one request, possibly forwarding derived requests to the
    /// next DAG stage through `env`.
    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload;

    /// Estimated processing time of `req` in ns: the mod's analytic model
    /// of *this* request, which the Work Orchestrator uses to classify
    /// queues as latency-sensitive or computational until the queue has
    /// measured completions of its own.
    fn est_processing_time(&self, req: &Request) -> u64;

    /// Live upgrade: pull state out of the instance being replaced.
    /// Implementations downcast `old` via [`LabMod::as_any`].
    fn state_update(&self, _old: &dyn LabMod) {}

    /// Crash recovery: re-derive volatile state after a Runtime restart
    /// (e.g. LabFS replays its metadata log).
    fn state_repair(&self) {}

    /// Downcast support for `state_update`.
    fn as_any(&self) -> &dyn Any;
}

/// Execution environment handed to [`LabMod::process`]: the stack being
/// executed, the current vertex, and the module registry — everything a
/// mod needs to forward work to its DAG outputs.
pub struct StackEnv<'a> {
    /// The LabStack being executed.
    pub stack: &'a LabStack,
    /// Index of the vertex currently executing.
    pub vertex: usize,
    /// The Module Manager (telemetry, tenants).
    pub(crate) registry: &'a ModuleManager,
    /// Domain (address space) executing this stage.
    pub(crate) domain: u32,
    /// The registry slot of every vertex of `stack`, by vertex index,
    /// resolved once for the whole request (a [`Route`]'s, borrowed).
    slots: Cow<'a, [Option<Arc<Slot>>]>,
    /// Busy time of every vertex this one has forwarded to so far, each
    /// with its hand-off hop: what `run_vertex` takes off this vertex's
    /// own busy time. One request on one thread, hence a `Cell`.
    children_busy_ns: Cell<u64>,
}

/// A mounted stack resolved for running: the stack as the Namespace held
/// it and, by vertex index, the registry slot of each vertex (`None`
/// where the UUID is not loaded).
pub(crate) struct Route {
    pub(crate) stack: Arc<LabStack>,
    pub(crate) slots: Box<[Option<Arc<Slot>>]>,
}

impl Route {
    /// Resolve stack `id`: one namespace read, and one registry read for
    /// every vertex. `None` if no stack has that id.
    pub(crate) fn resolve(id: StackId, ns: &Namespace, mm: &ModuleManager) -> Option<Route> {
        let stack = ns.get_id(id)?; // lookup-ok: the Routes miss path
        let slots = mm.resolve(&stack); // lookup-ok: the Routes miss path
        Some(Route { stack, slots })
    }

    /// Run `req` on its vertex of this route (the entry vertex, unless
    /// the request names another).
    pub(crate) fn run(
        &self,
        ctx: &mut Ctx,
        req: Request,
        mm: &ModuleManager,
        domain: u32,
    ) -> RespPayload {
        let slots = Cow::Borrowed(&*self.slots);
        let env = StackEnv::with_slots(&self.stack, slots, req.vertex, mm, domain);
        run_vertex(ctx, env, req, None)
    }
}

/// The routes one owner — a worker loop, a client — has resolved. They
/// are current while the Namespace's and the registry's epochs read what
/// they read when the routes were resolved; the first lookup after either
/// moves drops them all. A hit is two loads and a scan of a few entries.
#[derive(Default)]
pub(crate) struct Routes {
    epochs: (u64, u64),
    routes: Vec<Route>,
}

impl Routes {
    /// The route of stack `id`, resolved if this owner has no current
    /// one. `None` if no stack has that id.
    pub(crate) fn get(
        &mut self,
        id: StackId,
        ns: &Namespace,
        mm: &ModuleManager,
    ) -> Option<&Route> {
        // Read before resolving: a change that lands after these loads
        // leaves the routes tagged with the older epochs, so the next
        // lookup resolves again.
        let epochs = (ns.epoch(), mm.epoch());
        if epochs != self.epochs {
            self.routes.clear();
            self.epochs = epochs;
        }
        match self.routes.iter().position(|r| r.stack.id == id) {
            Some(i) => self.routes.get(i),
            None => {
                self.routes.push(Route::resolve(id, ns, mm)?);
                self.routes.last()
            }
        }
    }
}

/// Run one vertex of a LabStack — the only place the platform calls
/// [`LabMod::process`]. `env` names the vertex; `parent` is the forwarding
/// vertex's account, `None` for a stack's entry vertex.
///
/// In order: take the instance and its counters from the slots the
/// request's route resolved, charge the same-domain hand-off hop if there
/// is a parent (`Hop` span), run `process` (`Vertex` span, inclusive of
/// everything downstream), observe the vertex's counters, credit the
/// parent.
///
/// **What a vertex's counter means.** One observation per request, of the
/// vertex's *exclusive busy* virtual ns on the clock every stage of the
/// request shares: the busy time `process` added to `ctx`, minus the
/// inclusive busy time of each vertex it forwarded to, minus those
/// forwards' hops. A hop is therefore charged to neither side (it is the
/// `Hop` span), modeled CPU work and a driver's polling for its device
/// are counted, and time the actor merely idled forward is not. A vertex
/// that answers without forwarding, or with an error, is observed like
/// any other.
pub(crate) fn run_vertex(
    ctx: &mut Ctx,
    env: StackEnv<'_>,
    mut req: Request,
    parent: Option<&Cell<u64>>,
) -> RespPayload {
    let Some(vertex) = env.stack.vertices.get(env.vertex) else {
        return RespPayload::Err(format!(
            "stack {} has no vertex {}",
            env.stack.id, env.vertex
        ));
    };
    let Some(slot) = env.slots.get(env.vertex).and_then(Option::as_ref) else {
        return RespPayload::Err(format!("module {} not loaded", vertex.uuid));
    };
    let rec = env.registry.telemetry();
    let recording = rec.enabled();
    let (req_id, stack_id) = (req.id, env.stack.id);
    let arrived_busy = ctx.busy();
    if parent.is_some() {
        let hop_t0 = ctx.now();
        labstor_ipc::cost::same_domain_hop(ctx);
        if recording {
            // The inter-stage hand-off is IPC cost, not either vertex's —
            // record it so the anatomy attributes it right.
            rec.record(Stage::Hop, req_id, stack_id, env.vertex, hop_t0, ctx.now());
        }
    }
    req.vertex = env.vertex;
    let (t0, busy0) = (ctx.now(), ctx.busy());
    let resp = slot.instance.process(ctx, req, &env);
    slot.counters
        .observe((ctx.busy() - busy0).saturating_sub(env.children_busy_ns.get()));
    if recording {
        // Inclusive: downstream vertices, hops and device windows recorded
        // inside `process` nest under this span in the trace.
        rec.record(Stage::Vertex, req_id, stack_id, env.vertex, t0, ctx.now());
    }
    if let Some(account) = parent {
        account.set(account.get() + (ctx.busy() - arrived_busy));
    }
    resp
}

impl<'a> StackEnv<'a> {
    /// The environment of vertex `vertex` of `stack`, executing in
    /// `domain`. It resolves every vertex of `stack` once, here.
    pub fn new(
        stack: &'a LabStack,
        vertex: usize,
        registry: &'a ModuleManager,
        domain: u32,
    ) -> StackEnv<'a> {
        let slots = registry.resolve(stack); // lookup-ok: an env built by hand resolves once
        StackEnv::with_slots(
            stack,
            Cow::Owned(slots.into_vec()),
            vertex,
            registry,
            domain,
        )
    }

    /// The environment of vertex `vertex` of `stack`, whose slots are
    /// already resolved.
    fn with_slots(
        stack: &'a LabStack,
        slots: Cow<'a, [Option<Arc<Slot>>]>,
        vertex: usize,
        registry: &'a ModuleManager,
        domain: u32,
    ) -> StackEnv<'a> {
        StackEnv {
            stack,
            vertex,
            registry,
            domain,
            slots,
            children_busy_ns: Cell::new(0),
        }
    }

    /// Forward a derived request to the current vertex's first output.
    ///
    /// This is the paper's asynchronous message-passing between stages,
    /// executed inline on the worker: the hand-off cost is charged and the
    /// next operator runs on the same timeline. Returns `Ok` if the vertex
    /// has no outputs (end of chain).
    pub fn forward(&self, ctx: &mut Ctx, req: Request) -> RespPayload {
        let outputs = match self.stack.vertices.get(self.vertex) {
            Some(v) => &v.outputs,
            None => return RespPayload::Err(format!("no vertex {} in stack", self.vertex)),
        };
        let Some(&next) = outputs.first() else {
            return RespPayload::Ok;
        };
        self.forward_to(ctx, next, req)
    }

    /// Forward a derived request to a specific output vertex.
    pub(crate) fn forward_to(&self, ctx: &mut Ctx, next: usize, req: Request) -> RespPayload {
        let slots = Cow::Borrowed(&*self.slots);
        let env = StackEnv::with_slots(self.stack, slots, next, self.registry, self.domain);
        run_vertex(ctx, env, req, Some(&self.children_busy_ns))
    }

    /// Bill `fuel` pushdown instruction units to the requesting tenant.
    ///
    /// Two charges keep the execution honest: virtual time advances by
    /// [`labstor_pushdown::FUEL_NS`] per unit (the interpreter's modeled
    /// cost — the worker timeline pays for the scan), and the tenant's
    /// token bucket is debited the same units it would pay for payload
    /// bytes, so a hostile program competes against its own bandwidth
    /// budget instead of starving neighbors. Over-budget tenants get the
    /// retry-after hint back (`Err(retry_vns)`); callers withhold the
    /// result and return a throttled error. Standalone managers (unit
    /// harnesses) have no tenant table: time is charged, admission is a
    /// no-op.
    pub fn charge_fuel(
        &self,
        ctx: &mut Ctx,
        creds: &labstor_ipc::Credentials,
        fuel: u64,
    ) -> Result<(), u64> {
        ctx.advance(fuel.saturating_mul(labstor_pushdown::FUEL_NS));
        let Some(table) = self.registry.tenants() else {
            return Ok(());
        };
        let Some(state) = table.resolve(creds.tenant) else {
            return Ok(());
        };
        state.note_fuel(fuel);
        state.try_admit(ctx.now(), fuel)
    }

    /// Record a device service window (`[t0, t1]` in virtual ns) observed
    /// by this vertex — driver LabMods call this with the completion's
    /// `done_at - service_ns .. done_at`. No-op while the recorder is
    /// disabled.
    pub fn stamp_device(&self, req_id: u64, t0: u64, t1: u64) {
        self.registry
            .telemetry()
            .record(Stage::Device, req_id, self.stack.id, self.vertex, t0, t1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Payload;
    use crate::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A mod that counts invocations and forwards.
    struct Probe {
        hits: AtomicU64,
        forward: bool,
    }

    impl LabMod for Probe {
        fn type_name(&self) -> &'static str {
            "probe"
        }
        fn mod_type(&self) -> ModType {
            ModType::Dummy
        }
        fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
            self.hits.fetch_add(1, Ordering::Relaxed);
            ctx.advance(100);
            if self.forward {
                env.forward(ctx, req)
            } else {
                RespPayload::Ok
            }
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            100
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn chain_stack() -> (ModuleManager, LabStack, Arc<Probe>, Arc<Probe>) {
        let mm = ModuleManager::new();
        let a = Arc::new(Probe {
            hits: AtomicU64::new(0),
            forward: true,
        });
        let b = Arc::new(Probe {
            hits: AtomicU64::new(0),
            forward: false,
        });
        mm.insert_instance("a", a.clone());
        mm.insert_instance("b", b.clone());
        let stack = LabStack {
            id: 1,
            mount: "fs::/t".into(),
            exec: ExecMode::Async,
            vertices: vec![
                Vertex {
                    uuid: "a".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "b".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![0],
        };
        (mm, stack, a, b)
    }

    #[test]
    fn forward_walks_the_chain() {
        let (mm, stack, a, b) = chain_stack();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let mut ctx = Ctx::new();
        let req = Request::new(
            1,
            1,
            Payload::Dummy { work_ns: 0 },
            Credentials::new(1, 0, 0),
        );
        let head = mm.get("a").unwrap();
        let resp = head.process(&mut ctx, req, &env);
        assert!(resp.is_ok());
        assert_eq!(a.hits.load(Ordering::Relaxed), 1);
        assert_eq!(b.hits.load(Ordering::Relaxed), 1);
        // Both stages' work plus the inter-stage hop are on the clock.
        assert!(ctx.now() >= 200 + labstor_ipc::cost::SAME_DOMAIN_HOP_NS);
    }

    /// A mod that does `work_ns` of work, then fans out to every output.
    struct FanOut {
        work_ns: u64,
    }

    impl LabMod for FanOut {
        fn type_name(&self) -> &'static str {
            "fan_out"
        }
        fn mod_type(&self) -> ModType {
            ModType::Dummy
        }
        fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
            ctx.advance(self.work_ns);
            let mut last = RespPayload::Ok;
            for &next in &env.stack.vertices[env.vertex].outputs {
                last = env.forward_to(ctx, next, req.clone());
            }
            last
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            self.work_ns
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn every_vertex_is_observed_its_exclusive_busy_time() {
        // a fans out to b and c; c forwards to d.
        let mm = ModuleManager::new();
        let work = [("a", 100), ("b", 200), ("c", 300), ("d", 400)];
        for (uuid, work_ns) in work {
            mm.insert_instance(uuid, Arc::new(FanOut { work_ns }));
        }
        let vertex = |uuid: &str, outputs: Vec<usize>| Vertex {
            uuid: uuid.into(),
            outputs,
        };
        let ns = crate::stack::Namespace::new();
        let stack = ns
            .mount(LabStack {
                id: 0,
                mount: "fan::/".into(),
                exec: ExecMode::Sync,
                vertices: vec![
                    vertex("a", vec![1, 2]),
                    vertex("b", vec![]),
                    vertex("c", vec![3]),
                    vertex("d", vec![]),
                ],
                authorized_uids: vec![0],
            })
            .unwrap();
        let mut ctx = Ctx::new();
        for id in 0..3 {
            let req = Request::new(
                id,
                stack.id,
                Payload::Dummy { work_ns: 0 },
                Credentials::ROOT,
            );
            assert!(crate::worker::process_request(&mut ctx, req, &ns, &mm, 0)
                .payload
                .is_ok());
        }
        // The parent is credited with both children (c's includes d), and
        // the three hops belong to no vertex.
        for (uuid, work_ns) in work {
            let c = mm.counters(uuid).unwrap();
            assert_eq!((c.ops(), c.total_ns()), (3, 3 * work_ns), "{uuid}");
        }
        let hops = 3 * labstor_ipc::cost::SAME_DOMAIN_HOP_NS;
        assert_eq!(ctx.busy(), 3 * (1_000 + hops));
        let table = mm.counters_table();
        assert_eq!(
            table.iter().map(|r| r.uuid.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c", "d"]
        );
        assert_eq!(table[2].type_name, "fan_out");
        assert_eq!((table[2].ops, table[2].total_ns), (3, 900));
        assert_eq!((table[2].p50_ns, table[2].p99_ns), (300, 300));
    }

    #[test]
    fn forward_past_end_is_ok() {
        let (mm, stack, _, _) = chain_stack();
        let env = StackEnv::new(&stack, 1, &mm, 0);
        let mut ctx = Ctx::new();
        let req = Request::new(
            1,
            1,
            Payload::Dummy { work_ns: 0 },
            Credentials::new(1, 0, 0),
        );
        assert!(env.forward(&mut ctx, req).is_ok());
    }

    #[test]
    fn forward_to_missing_vertex_errors() {
        let (mm, stack, _, _) = chain_stack();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let mut ctx = Ctx::new();
        let req = Request::new(
            1,
            1,
            Payload::Dummy { work_ns: 0 },
            Credentials::new(1, 0, 0),
        );
        assert!(!env.forward_to(&mut ctx, 9, req).is_ok());
    }
}
