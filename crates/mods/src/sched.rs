//! I/O scheduler LabMods (Fig. 8's Lab-NoOp and Lab-Blk).
//!
//! "We integrate the No-Op and blk-switch I/O schedulers into LabStor and
//! compare against their in-kernel counterparts." A scheduler LabMod sits
//! between a filesystem/cache stage and a Driver LabMod: it picks the
//! hardware queue (`qid_hint`) and forwards. Because it runs in userspace
//! there is no block-layer bookkeeping around it — the ~20% latency
//! reduction the paper reports over the in-kernel versions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::{Ctx, SimDevice};

use crate::devices::{device_param, DeviceRegistry};

/// Scheduler stage cost: keying the request to a hardware queue and
/// preparing the dispatch descriptor the driver submits ("the No-Op I/O
/// scheduler only amounts to about 5% of I/O time, as it only keys a
/// request to a hardware queue" — Fig. 4a).
const LAB_SCHED_NS: u64 = 850;
/// Request size at or below which blk-switch treats a request as
/// latency-sensitive.
const LATENCY_SIZE_BYTES: usize = 16 * 1024;

/// Lab-NoOp: map to a hardware queue by originating core.
pub struct NoopSchedMod {
    queues: usize,
}

impl NoopSchedMod {
    /// Schedule across `queues` hardware queues.
    pub fn new(queues: usize) -> Self {
        NoopSchedMod {
            queues: queues.max(1),
        }
    }
}

// labmod-default-ok: scheduling decisions are per-request and the queue-pressure history is advisory; a fresh instance re-learns it, so defaults are safe
impl LabMod for NoopSchedMod {
    fn type_name(&self) -> &'static str {
        "noop_sched"
    }

    fn mod_type(&self) -> ModType {
        ModType::Scheduler
    }

    fn process(&self, ctx: &mut Ctx, mut req: Request, env: &StackEnv<'_>) -> RespPayload {
        ctx.advance(LAB_SCHED_NS);
        req.qid_hint = Some(req.core % self.queues);
        env.forward(ctx, req)
    }

    fn est_processing_time(&self, _req: &Request) -> u64 {
        LAB_SCHED_NS
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Lab-Blk: blk-switch-like steering on live queue depths.
pub struct BlkSwitchSchedMod {
    dev: Arc<SimDevice>,
    /// Depth above which throughput requests spill to the least-loaded
    /// queue.
    congestion_threshold: usize,
    /// Round-robin cursor for spreading latency requests.
    cursor: AtomicUsize,
    /// Bulk-traffic history (app steering).
    history: labstor_kernel::sched::BulkHistory,
}

impl BlkSwitchSchedMod {
    /// Steer over `dev`'s hardware queues.
    pub fn new(dev: Arc<SimDevice>, congestion_threshold: usize) -> Self {
        BlkSwitchSchedMod {
            history: labstor_kernel::sched::BulkHistory::new(dev.num_queues()),
            dev,
            congestion_threshold,
            cursor: AtomicUsize::new(0),
        }
    }

    fn least_loaded(&self) -> usize {
        labstor_kernel::sched::least_loaded_queue(
            &self.dev,
            &self.history,
            self.cursor.fetch_add(1, Ordering::Relaxed), // relaxed-ok: fresh-id allocation; atomicity alone suffices
        )
    }
}

// labmod-default-ok: scheduling decisions are per-request and the queue-pressure history is advisory; a fresh instance re-learns it, so defaults are safe
impl LabMod for BlkSwitchSchedMod {
    fn type_name(&self) -> &'static str {
        "blk_switch_sched"
    }

    fn mod_type(&self) -> ModType {
        ModType::Scheduler
    }

    fn process(&self, ctx: &mut Ctx, mut req: Request, env: &StackEnv<'_>) -> RespPayload {
        ctx.advance(LAB_SCHED_NS);
        // A small block data op; the barrier carries no data to hurry.
        let is_latency = matches!(&req.payload, Payload::Block(op) if !matches!(op, BlockOp::Flush))
            && req.payload_bytes() <= LATENCY_SIZE_BYTES;
        let n = self.dev.num_queues();
        let qid = if is_latency {
            // Steer latency requests to the least-loaded channel group.
            self.least_loaded()
        } else {
            let home = req.core % n;
            let qid = if self.dev.queue_depth(home) > self.congestion_threshold {
                self.least_loaded()
            } else {
                home
            };
            self.history.record(qid, req.payload_bytes());
            qid
        };
        req.qid_hint = Some(qid);
        env.forward(ctx, req)
    }

    fn est_processing_time(&self, _req: &Request) -> u64 {
        LAB_SCHED_NS
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register scheduler factories.
///
/// * `noop_sched` params: `{"queues": <n>}` (default 32).
/// * `blk_switch_sched` params: `{"device": "<name>",
///   "congestion_threshold": <n>}` (default 64).
pub fn install(mm: &ModuleManager) {
    mm.register_factory(
        "noop_sched",
        Arc::new(|params| {
            let queues = params.get("queues").and_then(|v| v.as_u64()).unwrap_or(32) as usize;
            Arc::new(NoopSchedMod::new(queues)) as Arc<dyn LabMod>
        }),
    );
}

/// Blk-switch needs device visibility; registered separately with the
/// registry in scope.
pub fn install_blk_switch(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "blk_switch_sched",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            let threshold = params
                .get("congestion_threshold")
                .and_then(|v| v.as_u64())
                .unwrap_or(64) as usize;
            Arc::new(BlkSwitchSchedMod::new(dev, threshold)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::{BlockDevice, DeviceKind, IoRequest};

    /// Terminal mod recording the qid hint it received.
    struct HintProbe {
        seen: AtomicUsize,
    }
    impl LabMod for HintProbe {
        fn type_name(&self) -> &'static str {
            "hint_probe"
        }
        fn mod_type(&self) -> ModType {
            ModType::Driver
        }
        fn process(&self, _ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
            self.seen
                .store(req.qid_hint.unwrap_or(usize::MAX), Ordering::Relaxed);
            RespPayload::Ok
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn run_sched(mm: &ModuleManager, sched_uuid: &str, req: Request) -> usize {
        let probe = Arc::new(HintProbe {
            seen: AtomicUsize::new(usize::MAX),
        });
        mm.insert_instance("probe", probe.clone());
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: sched_uuid.into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "probe".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        let env = StackEnv::new(&stack, 0, mm, 0);
        let m = mm.get(sched_uuid).unwrap();
        let mut ctx = Ctx::new();
        assert!(m.process(&mut ctx, req, &env).is_ok());
        probe.seen.load(Ordering::Relaxed)
    }

    #[test]
    fn noop_maps_by_core() {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate("n", "noop_sched", &serde_json::json!({"queues": 8}))
            .unwrap();
        let mut req = Request::new(
            1,
            1,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: vec![0u8; 512],
            }),
            Credentials::ROOT,
        );
        req.core = 11;
        assert_eq!(run_sched(&mm, "n", req), 11 % 8);
    }

    #[test]
    fn blk_switch_avoids_congested_queue() {
        let devices = DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        install_blk_switch(&mm, &devices);
        mm.instantiate(
            "b",
            "blk_switch_sched",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        // Congest queue 3.
        for i in 0..10 {
            dev.submit_at(3, IoRequest::write(i * 8, vec![0u8; 512], i), 0)
                .unwrap();
        }
        let mut req = Request::new(
            1,
            1,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: vec![0u8; 4096],
            }),
            Credentials::ROOT,
        );
        req.core = 3; // home queue is the congested one
        let qid = run_sched(&mm, "b", req);
        assert_ne!(qid, 3, "latency write must be steered away");
    }

    #[test]
    fn blk_switch_keeps_bulk_affinity_when_clear() {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        install_blk_switch(&mm, &devices);
        mm.instantiate(
            "b",
            "blk_switch_sched",
            &serde_json::json!({"device": "nvme0"}),
        )
        .unwrap();
        let mut req = Request::new(
            1,
            1,
            Payload::Block(BlockOp::Write {
                lba: 0,
                data: vec![0u8; 64 * 1024],
            }),
            Credentials::ROOT,
        );
        req.core = 7;
        let qid = run_sched(&mm, "b", req);
        assert_eq!(qid, 7);
    }
}
