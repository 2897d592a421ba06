//! The dummy LabMod: configurable processing cost plus upgrade-visible
//! state. The live-upgrade experiment (Table I) "messages a dummy module
//! 100,000 times"; the orchestration experiments use it to generate
//! latency-sensitive and computational load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use labstor_core::{LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_sim::Ctx;
use labstor_telemetry::Stat;

/// A module that spends a configurable amount of virtual work per message
/// and counts how many messages it has seen.
pub struct DummyMod {
    /// Module "version", bumped by each upgrade factory call.
    pub version: u64,
    /// Default per-message work when the request does not carry one.
    pub(crate) default_work_ns: u64,
    count: Stat,
}

impl DummyMod {
    /// New dummy of a given version.
    pub fn new(version: u64, default_work_ns: u64) -> Self {
        DummyMod {
            version,
            default_work_ns,
            count: Stat::new(0),
        }
    }

    /// Messages processed (survives upgrades via `state_update`).
    pub fn count(&self) -> u64 {
        self.count.get()
    }
}

// labmod-default-ok: its message count migrates in state_update; no durable state exists, so the repair default is safe
impl LabMod for DummyMod {
    fn type_name(&self) -> &'static str {
        "dummy"
    }

    fn mod_type(&self) -> ModType {
        ModType::Dummy
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let work = match req.payload {
            Payload::Dummy { work_ns } if work_ns > 0 => work_ns,
            _ => self.default_work_ns,
        };
        ctx.advance(work);
        self.count.add(1);
        // Dummies are usually terminal but forward if stacked.
        if env.stack.vertices[env.vertex].outputs.is_empty() {
            RespPayload::Ok
        } else {
            env.forward(ctx, req)
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        // The request carries its own cost.
        match req.payload {
            Payload::Dummy { work_ns } if work_ns > 0 => work_ns,
            _ => self.default_work_ns,
        }
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<DummyMod>() {
            self.count.set(prev.count());
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the dummy factory. Params: `{"work_ns": <u64>}` (default 0).
/// Each factory call bumps the version so upgrades are observable.
pub fn install(mm: &ModuleManager) {
    let version = Arc::new(AtomicU64::new(0));
    mm.register_factory(
        "dummy",
        Arc::new(move |params| {
            let work = params.get("work_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            Arc::new(DummyMod::new(version.fetch_add(1, Ordering::Relaxed) + 1, work)) // relaxed-ok: fresh-id allocation; atomicity alone suffices
                as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;

    fn env_for(mm: &ModuleManager, stack: &LabStack) -> Request {
        let _ = (mm, stack);
        Request::new(1, 1, Payload::Dummy { work_ns: 0 }, Credentials::ROOT)
    }

    #[test]
    fn charges_configured_work() {
        let mm = ModuleManager::new();
        install(&mm);
        let m = mm
            .instantiate("d1", "dummy", &serde_json::json!({"work_ns": 2_500}))
            .unwrap();
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Async,
            vertices: vec![Vertex {
                uuid: "d1".into(),
                outputs: vec![],
            }],
            authorized_uids: vec![],
        };
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let mut ctx = Ctx::new();
        let req = env_for(&mm, &stack);
        assert!(m.process(&mut ctx, req, &env).is_ok());
        assert_eq!(ctx.now(), 2_500);
    }

    #[test]
    fn request_work_overrides_default() {
        let mm = ModuleManager::new();
        install(&mm);
        let m = mm
            .instantiate("d1", "dummy", &serde_json::json!({"work_ns": 10}))
            .unwrap();
        let req = Request::new(1, 1, Payload::Dummy { work_ns: 777 }, Credentials::ROOT);
        assert_eq!(m.est_processing_time(&req), 777);
    }

    #[test]
    fn state_survives_upgrade() {
        let mm = ModuleManager::new();
        install(&mm);
        let old = mm
            .instantiate("d1", "dummy", &serde_json::Value::Null)
            .unwrap();
        let old_dummy = old.as_any().downcast_ref::<DummyMod>().unwrap();
        old_dummy.count.set(123);
        let newer = DummyMod::new(99, 0);
        newer.state_update(old.as_ref());
        assert_eq!(newer.count(), 123);
    }
}
