//! The tunable-consistency LabMod (the paper's "configurable consistency"
//! building block, §III-B).
//!
//! Sits in a block path and imposes a durability policy on writes:
//!
//! * `relaxed` — pass writes through; durability only on explicit flush.
//! * `flush_each` — append a flush barrier after every write
//!   (write-through durability, O_SYNC-style).
//! * `flush_every_n` — amortized group commit: a barrier after every
//!   `n`-th write.
//!
//! Because it is a stack vertex, consistency can be strengthened or
//! relaxed live via `modify_stack` — the paper's Dynamic Semantics
//! Imposition.

use std::sync::Arc;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::Ctx;
use labstor_telemetry::Stat;

/// Cost of deciding whether this write is followed by a barrier.
const BARRIER_CHECK_NS: u64 = 50;

/// Durability policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Flush only when asked.
    Relaxed,
    /// Barrier after every write.
    FlushEach,
    /// Barrier after every `n` writes.
    FlushEveryN(u64),
}

/// The consistency LabMod.
pub(crate) struct ConsistencyMod {
    policy: Policy,
    /// Writes seen, the `FlushEveryN` count.
    writes: Stat,
}

impl ConsistencyMod {
    /// New filter with a policy.
    pub(crate) fn new(policy: Policy) -> Self {
        ConsistencyMod {
            policy,
            writes: Stat::new(0),
        }
    }
}

// labmod-default-ok: the write count migrates in state_update; barrier policy is config-derived, so the repair default is safe
impl LabMod for ConsistencyMod {
    fn type_name(&self) -> &'static str {
        "consistency"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filter
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        ctx.advance(BARRIER_CHECK_NS);
        let is_write = matches!(
            req.payload,
            Payload::Block(BlockOp::Write { .. } | BlockOp::WriteBuf { .. })
        );
        // Pre-build the barrier (avoiding a clone of the write payload).
        let template = is_write.then(|| req.derive(Payload::Block(BlockOp::Flush)));
        let resp = env.forward(ctx, req);
        if resp.is_ok() && is_write {
            let n = self.writes.add(1);
            let flush_now = match self.policy {
                Policy::Relaxed => false,
                Policy::FlushEach => true,
                Policy::FlushEveryN(k) => k > 0 && n.is_multiple_of(k),
            };
            if flush_now {
                if let Some(f) = template {
                    let r = env.forward(ctx, f);
                    if !r.is_ok() {
                        return r;
                    }
                }
            }
        }
        resp
    }

    fn est_processing_time(&self, _req: &Request) -> u64 {
        BARRIER_CHECK_NS
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<ConsistencyMod>() {
            self.writes.set(prev.writes.get());
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"policy": "relaxed"|"flush_each",
/// "flush_every": <n>}`.
pub(crate) fn install(mm: &ModuleManager) {
    mm.register_factory(
        "consistency",
        Arc::new(|params| {
            let policy = match params.get("policy").and_then(|v| v.as_str()) {
                Some("flush_each") => Policy::FlushEach,
                Some("flush_every_n") => Policy::FlushEveryN(
                    params
                        .get("flush_every")
                        .and_then(|v| v.as_u64())
                        .unwrap_or(8),
                ),
                _ => Policy::Relaxed,
            };
            Arc::new(ConsistencyMod::new(policy)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;

    struct FlushCounter {
        writes: Stat,
        flushes: Stat,
    }
    impl LabMod for FlushCounter {
        fn type_name(&self) -> &'static str {
            "flush_counter"
        }
        fn mod_type(&self) -> ModType {
            ModType::Driver
        }
        fn process(&self, _ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
            match req.payload {
                Payload::Block(BlockOp::Write { .. }) => {
                    self.writes.add(1);
                    RespPayload::Ok
                }
                Payload::Block(BlockOp::Flush) => {
                    self.flushes.add(1);
                    RespPayload::Ok
                }
                _ => RespPayload::Ok,
            }
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn run_policy(params: serde_json::Value, writes: u64) -> (u64, u64) {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate("c", "consistency", &params).unwrap();
        let counter = Arc::new(FlushCounter {
            writes: Stat::new(0),
            flushes: Stat::new(0),
        });
        mm.insert_instance("dev", counter.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "c".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "dev".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let m = mm.get("c").unwrap();
        let mut ctx = Ctx::new();
        for i in 0..writes {
            let req = Request::new(
                i,
                1,
                Payload::Block(BlockOp::Write {
                    lba: i * 8,
                    data: vec![0u8; 512],
                }),
                Credentials::ROOT,
            );
            assert!(m.process(&mut ctx, req, &env).is_ok());
        }
        (counter.writes.get(), counter.flushes.get())
    }

    #[test]
    fn relaxed_never_flushes() {
        assert_eq!(
            run_policy(serde_json::json!({"policy": "relaxed"}), 10),
            (10, 0)
        );
    }

    #[test]
    fn flush_each_barriers_every_write() {
        assert_eq!(
            run_policy(serde_json::json!({"policy": "flush_each"}), 10),
            (10, 10)
        );
    }

    #[test]
    fn group_commit_amortizes() {
        assert_eq!(
            run_policy(
                serde_json::json!({"policy": "flush_every_n", "flush_every": 4}),
                10
            ),
            (10, 2)
        );
    }
}
