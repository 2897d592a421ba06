//! Driver LabMods: the storage endpoints of LabStacks (paper §III-A
//! "Driver LabMods", §III-F "Kernel Driver LabMod", §III-G).
//!
//! There is one Driver LabMod, `DriverMod`, and one request path:
//! decode the block op into an `IoRequest`, pick the hardware queue,
//! hand the command to the backend, stamp the Device span, shape the
//! answer. A `Backend` holds only what differs between the four ways this
//! machine reaches media — `kernel_driver` (`KernelHctx`), `spdk`
//! (`SpdkQueuePair`), `dax` (`DaxMap`) and `iouring_driver` (`IoUring`):
//! its costs and its submit-and-wait.
//! Adding a driver is one `Backend` impl and one line in `install`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use labstor_core::{
    BlockOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv, POOL_DRY,
};
use labstor_kernel::block::CompletionMode::DriverPoll;
use labstor_kernel::engines::{IoEngineKind, RawEngine};
use labstor_kernel::sched::IoClass;
use labstor_kernel::BlockLayer;
use labstor_sim::{
    BlockDevice, Completion, CompletionStash, Ctx, DeviceError, DeviceModel, IoOp, IoRequest,
    PmemDevice, SimDevice, SECTOR_SIZE,
};

use crate::devices::{device_param, DeviceRegistry};

/// Cost of packaging a command through the Kernel Driver LabMod's request
/// structures ("the complex allocation of structures required by the
/// Kernel Driver" that SPDK avoids — Fig. 6's 12% gap at 4 KB).
const KDRV_ALLOC_NS: u64 = 1_350;
/// Packaging cost when an upstream scheduler stage already keyed the
/// request and prepared the dispatch descriptor (`qid_hint` set): the
/// driver only fills in the command and rings the doorbell.
const KDRV_PREKEYED_NS: u64 = 250;
/// Cost of writing an SQE + doorbell on a user-mapped SPDK queue pair.
const SPDK_SUBMIT_NS: u64 = 200;

/// Where a command is submitted.
#[derive(Clone, Copy)]
struct Route {
    /// The submitting core.
    core: usize,
    /// `qid_hint` or `core`, clamped to the device's queue count
    /// (schedulers upstream may be configured for wider devices).
    qid: usize,
    /// An upstream scheduler keyed the request (`qid_hint` was set).
    prekeyed: bool,
}

/// One way of reaching media. Everything the drivers share lives in
/// [`DriverMod`]; a backend is its costs and its submit-and-wait.
trait Backend: Send + Sync + 'static {
    /// Factory / `type_name` string.
    const TYPE_NAME: &'static str;
    /// Software cost the analytic estimate (`est_processing_time`) adds
    /// to the media transfer.
    const EST_BASE_NS: u64;

    /// The performance model of the device behind this backend.
    fn model(&self) -> &DeviceModel;

    /// Charge the packaging cost, reach the media and wait: one blocking
    /// command. `Err` is a refused submission; a command the device
    /// accepted and then failed comes back as a completion whose
    /// `result` is the error. `io.tag` is the backend's to assign. The
    /// command's buffers are the caller's, lent for this call: a read
    /// with an `io.dest` lands there and completes with an empty `Vec`.
    fn issue(
        &self,
        ctx: &mut Ctx,
        route: Route,
        io: IoRequest<'_>,
    ) -> Result<Completion, DeviceError>;
}

/// The Driver LabMod: one request path over a [`Backend`].
struct DriverMod<B> {
    backend: B,
}

impl<B: Backend> DriverMod<B> {
    /// Issue one command and stamp its Device span: the completion's
    /// bytes (empty for a read that landed in its `dest`), or the error
    /// answer.
    fn submit(
        &self,
        ctx: &mut Ctx,
        route: Route,
        req: &Request,
        env: &StackEnv<'_>,
        io: IoRequest<'_>,
    ) -> Result<Vec<u8>, RespPayload> {
        let done = self.backend.issue(ctx, route, io).and_then(|c| {
            // The completion's media service window is the Device span
            // (the labtelem recorder no-ops while disabled).
            env.stamp_device(req.id, c.done_at.saturating_sub(c.service_ns), c.done_at);
            c.result
        });
        done.map_err(|e| RespPayload::Err(e.to_string()))
    }

    /// A `ReadBuf`: the bytes land in a pool slot, the modeled DMA
    /// target, and the slot is the answer. A read longer than the largest
    /// slot lands in slot-sized pieces, one command each, and answers a
    /// run list. A read the pool has no slots for is refused before the
    /// device sees it. A failed command answers `Err`, and the slots,
    /// whatever they hold, go back to the pool unseen.
    fn read(
        &self,
        ctx: &mut Ctx,
        route: Route,
        req: &Request,
        env: &StackEnv<'_>,
        (lba, len): (u64, usize),
    ) -> RespPayload {
        // One slot, in `one` (no list to allocate), or the pieces.
        let pool = labstor_ipc::default_pool();
        let (mut one, mut many) = (None, Vec::new());
        if len <= pool.max_len() {
            one = pool.alloc(len);
        } else {
            many = pool.alloc_runs(len).unwrap_or_default();
        }
        if one.is_none() && many.is_empty() {
            return RespPayload::Err(POOL_DRY.into());
        }
        let mut at = lba;
        for slot in one.iter_mut().chain(&mut many) {
            // owner-ok: the driver's own DMA targets, allocated above (a plain `alloc`, so their owner tags are clear)
            let dst = slot.as_mut_slice().expect("a fresh slot is unique");
            let sectors = (dst.len() / SECTOR_SIZE) as u64;
            let io = IoRequest::read_into(at, dst, 0);
            if let Err(e) = self.submit(ctx, route, req, env, io) {
                return e;
            }
            at += sectors;
        }
        one.map_or(RespPayload::DataRuns(many), RespPayload::DataBuf)
    }
}

// labmod-default-ok: device drivers are stateless shims over the (simulated) device; device state outlives the module instance, so there is nothing to migrate or repair
impl<B: Backend> LabMod for DriverMod<B> {
    fn type_name(&self) -> &'static str {
        B::TYPE_NAME
    }

    fn mod_type(&self) -> ModType {
        ModType::Driver
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let route = Route {
            core: req.core,
            qid: req.qid_hint.unwrap_or(req.core) % self.backend.model().hw_queues.max(1),
            prekeyed: req.qid_hint.is_some(),
        };
        // A write answers the length it wrote, a flush `Ok`.
        let (io, written) = match req.payload {
            Payload::Block(BlockOp::Write { lba, ref data }) => {
                (IoRequest::write(lba, data.as_slice(), 0), Some(data.len()))
            }
            // The device DMAs straight out of the shared buffer.
            Payload::Block(BlockOp::WriteBuf { lba, ref buf }) => {
                (IoRequest::write(lba, buf.as_slice(), 0), Some(buf.len()))
            }
            Payload::Block(BlockOp::ReadBuf { lba, len }) => {
                return self.read(ctx, route, &req, env, (lba, len))
            }
            Payload::Block(BlockOp::Flush) => (IoRequest::flush(0), None),
            // The simulated media have no TRIM: nothing to command, no
            // cost. The stages above have already let the sectors go.
            Payload::Block(BlockOp::Discard { .. }) => return RespPayload::Ok,
            _ => return RespPayload::Err(format!("{} handles block ops only", B::TYPE_NAME)),
        };
        match self.submit(ctx, route, &req, env, io) {
            Ok(_) => written.map_or(RespPayload::Ok, RespPayload::Len),
            // A failed barrier is as much an error as a failed write:
            // `Ok` would acknowledge durability that never happened.
            Err(e) => e,
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        let write = matches!(
            req.payload,
            Payload::Block(BlockOp::Write { .. } | BlockOp::WriteBuf { .. })
        );
        let transfer_ns = self.backend.model().transfer_ns(write, req.payload_bytes());
        B::EST_BASE_NS + transfer_ns
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Kernel MQ driver: submits through the Kernel Ops Manager's
/// `submit_io_to_hctx` (the re-implemented `blk_mq_try_issue_directly`),
/// bypassing the kernel block layer's allocation/bookkeeping/scheduling,
/// and reaps by driver polling. One syscall-free path into MQ hardware
/// queues.
struct KernelHctx(Arc<BlockLayer>);

fn kdrv_alloc_ns(route: Route) -> u64 {
    if route.prekeyed {
        KDRV_PREKEYED_NS
    } else {
        KDRV_ALLOC_NS
    }
}

impl Backend for KernelHctx {
    const TYPE_NAME: &'static str = "kernel_driver";
    const EST_BASE_NS: u64 = KDRV_ALLOC_NS;

    fn model(&self) -> &DeviceModel {
        self.0.device().model()
    }

    fn issue(
        &self,
        ctx: &mut Ctx,
        route: Route,
        mut io: IoRequest<'_>,
    ) -> Result<Completion, DeviceError> {
        // A barrier carries no data to build request structures for.
        if io.op != IoOp::Flush {
            ctx.advance(kdrv_alloc_ns(route));
        }
        let tag = self.0.alloc_tag();
        io.tag = tag;
        self.0.submit_io_to_hctx(ctx, route.qid, io)?;
        Ok(self.0.wait_for_tag(ctx, route.qid, tag, DriverPoll))
    }
}

/// SPDK, userspace NVMe: the device's queue pairs are mapped into the
/// process (BAR mapping), so submission avoids even "the complex
/// allocation of structures required by the Kernel Driver" — the extra
/// 12% of Fig. 6.
struct SpdkQueuePair {
    dev: Arc<SimDevice>,
    /// Command identifiers must be unique per device, not per request
    /// stream — concurrent streams on shared queues would otherwise reap
    /// each other's completions.
    next_cid: AtomicU64,
    /// Completions reaped on behalf of other pollers sharing a queue.
    stash: CompletionStash,
}

impl SpdkQueuePair {
    fn new(dev: Arc<SimDevice>) -> Self {
        SpdkQueuePair {
            dev,
            next_cid: AtomicU64::new(1),
            stash: CompletionStash::default(),
        }
    }

    /// Spin-poll the queue pair for one tag (pure userspace polling).
    /// Foreign completions on a shared queue are stashed for their
    /// waiters, never dropped.
    fn wait(&self, ctx: &mut Ctx, qid: usize, tag: u64) -> Completion {
        loop {
            if let Some(c) = self.stash.take(tag) {
                return c;
            }
            if let Some(due) = self.dev.next_due(qid) {
                ctx.poll_until(due);
                if let Some(c) = self.stash.reap(self.dev.as_ref(), qid, ctx.now(), 32, tag) {
                    return c;
                }
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Backend for SpdkQueuePair {
    const TYPE_NAME: &'static str = "spdk";
    const EST_BASE_NS: u64 = SPDK_SUBMIT_NS;

    fn model(&self) -> &DeviceModel {
        self.dev.model()
    }

    fn issue(
        &self,
        ctx: &mut Ctx,
        route: Route,
        mut io: IoRequest<'_>,
    ) -> Result<Completion, DeviceError> {
        if io.op != IoOp::Flush {
            ctx.advance(SPDK_SUBMIT_NS);
        }
        let cid = self.next_cid.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
        io.tag = cid;
        self.dev.submit_at(route.qid, io, ctx.now())?;
        Ok(self.wait(ctx, route.qid, cid))
    }
}

/// DAX: byte-addressable PMEM via load/store; block conventions (queues,
/// alignment) are skipped entirely.
struct DaxMap(Arc<PmemDevice>);

impl Backend for DaxMap {
    const TYPE_NAME: &'static str = "dax";
    const EST_BASE_NS: u64 = 0;

    fn model(&self) -> &DeviceModel {
        self.0.model()
    }

    fn issue(
        &self,
        ctx: &mut Ctx,
        _route: Route,
        io: IoRequest<'_>,
    ) -> Result<Completion, DeviceError> {
        let t0 = ctx.now();
        // LBAs keep block-op sector units for stackability; DAX's
        // byte-addressability means transfers need no alignment and
        // lengths are arbitrary.
        let offset = io.lba * SECTOR_SIZE as u64;
        let result = match io.op {
            IoOp::Write => self.0.store(ctx, offset, &io.data).map(|_| Vec::new()),
            IoOp::Read => match io.dest {
                Some(dst) => self.0.load(ctx, offset, dst).map(|_| Vec::new()),
                None => {
                    let mut buf = vec![0u8; io.len];
                    self.0.load(ctx, offset, &mut buf).map(|_| buf)
                }
            },
            IoOp::Flush => {
                self.0.drain(ctx);
                Ok(Vec::new())
            }
        };
        // The whole synchronous load/store window is media time.
        Ok(Completion {
            tag: io.tag,
            result,
            service_ns: ctx.now() - t0,
            done_at: ctx.now(),
        })
    }
}

/// io_uring (§III-G "Re-implementation Overhead"): "for situations where
/// it is more desirable to rely on the already-tested policies provided
/// by the kernel, LabMods built on top of kernel APIs such as I/O uring
/// can be used to inherit some of the kernel's functionality." Every
/// command goes through the kernel's block layer and scheduler — slower
/// than `submit_io_to_hctx`, but it reuses kernel policy wholesale.
struct IoUring(RawEngine);

impl Backend for IoUring {
    const TYPE_NAME: &'static str = "iouring_driver";
    /// Stand-in for the syscall round trip.
    const EST_BASE_NS: u64 = 2_000;

    fn model(&self) -> &DeviceModel {
        self.0.block_layer().device().model()
    }

    fn issue(
        &self,
        ctx: &mut Ctx,
        route: Route,
        io: IoRequest<'_>,
    ) -> Result<Completion, DeviceError> {
        let class = if io.len <= 16 * 1024 {
            IoClass::Latency
        } else {
            IoClass::Throughput
        };
        // The kernel's scheduler picks the queue from the submitting
        // core; the engine assigns the tag.
        self.0.rw_sync(ctx, route.core, class, io)
    }
}

/// Register `B`'s factory under `B::TYPE_NAME`; `open` binds a backend to
/// the named device.
fn register<B: Backend>(
    mm: &ModuleManager,
    devices: &Arc<DeviceRegistry>,
    open: fn(&DeviceRegistry, &str) -> Option<B>,
) {
    let reg = devices.clone();
    mm.register_factory(
        B::TYPE_NAME,
        Arc::new(move |params| {
            let name = device_param(params);
            let backend =
                open(&reg, &name).unwrap_or_else(|| panic!("{}: no device '{name}'", B::TYPE_NAME));
            Arc::new(DriverMod { backend }) as Arc<dyn LabMod>
        }),
    );
}

/// Register the four driver factories. Params: `{"device": "<name>"}`.
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    register(mm, devices, |reg, name| reg.layer(name).map(KernelHctx));
    register(mm, devices, |reg, name| {
        reg.block(name).map(SpdkQueuePair::new)
    });
    register(mm, devices, |reg, name| reg.pmem(name).map(DaxMap));
    register(mm, devices, |reg, name| {
        let ring = |layer| IoUring(RawEngine::new(IoEngineKind::IoUring, layer));
        reg.layer(name).map(ring)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Namespace, Vertex};
    use labstor_core::worker::process_request;
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    /// One row per driver factory: the device it binds and whether it
    /// routes by `qid_hint` (the io_uring path leaves queue choice to the
    /// kernel scheduler; PMEM has no queues).
    const DRIVERS: [(&str, &str, bool); 4] = [
        ("kernel_driver", "nvme0", true),
        ("spdk", "nvme0", true),
        ("iouring_driver", "nvme0", false),
        ("dax", "pmem0", false),
    ];

    /// A fresh machine (idle channels) with one instance of `ty` as "drv".
    fn machine(ty: &str, device: &str) -> (ModuleManager, Arc<DeviceRegistry>) {
        let devices = DeviceRegistry::new();
        devices.add_preset("nvme0", DeviceKind::Nvme);
        devices.add_pmem("pmem0", PmemDevice::preset());
        let mm = ModuleManager::new();
        install(&mm, &devices);
        mm.instantiate("drv", ty, &serde_json::json!({ "device": device }))
            .unwrap();
        (mm, devices)
    }

    /// Run `op` on "drv" as the platform does (a one-vertex stack), so
    /// the Module Manager's counters see it.
    fn run(mm: &ModuleManager, op: Payload, qid_hint: Option<usize>, ctx: &mut Ctx) -> RespPayload {
        let ns = Namespace::new();
        let stack = ns
            .mount(LabStack {
                id: 0,
                mount: "x".into(),
                exec: ExecMode::Sync,
                vertices: vec![Vertex {
                    uuid: "drv".into(),
                    outputs: vec![],
                }],
                authorized_uids: vec![],
            })
            .unwrap();
        let mut req = Request::new(1, stack.id, op, Credentials::ROOT);
        req.qid_hint = qid_hint;
        process_request(ctx, req, &ns, mm, 0).payload
    }

    fn write(lba: u64, data: Vec<u8>) -> Payload {
        Payload::Block(BlockOp::Write { lba, data })
    }

    fn write_buf(lba: u64, len: usize, fill: u8) -> Payload {
        write_buf_from(lba, &vec![fill; len])
    }

    fn write_buf_from(lba: u64, data: &[u8]) -> Payload {
        let mut buf = labstor_ipc::default_pool().alloc(data.len()).unwrap();
        assert!(buf.fill(data));
        Payload::Block(BlockOp::WriteBuf { lba, buf })
    }

    fn read_buf(lba: u64, len: usize) -> Payload {
        Payload::Block(BlockOp::ReadBuf { lba, len })
    }

    /// Leave `0x5A` in every free 4 KiB pool slot, so that the next
    /// `ReadBuf` is handed a destination that holds neither its answer
    /// (the slot a `WriteBuf` of the same bytes just freed) nor zeroes.
    fn poison_free_slots() {
        // Not while a cache test copies owned writes into the class.
        let _sole = crate::cache_common::testing::PoolUse::exclusive();
        let pool = labstor_ipc::default_pool();
        // Drain the class that serves 4 KiB until it refuses — its budget
        // moves while other tests' caches hold reservations — and stop at
        // the first slot that spills into a larger class.
        let class = pool.class_table().iter().position(|c| c.0 >= 4096);
        let mut held: Vec<_> = std::iter::from_fn(|| pool.alloc(4096))
            .take_while(|h| Some(h.region() as usize) == class)
            .collect();
        for h in &mut held {
            assert!(h.write_with(|b| b.fill(0x5a)));
        }
    }

    /// Every driver answers the same script the same way.
    #[test]
    fn all_drivers_conform() {
        let mut first_write_ns = Vec::new();
        for (ty, device, routes_by_hint) in DRIVERS {
            let (mm, devices) = machine(ty, device);
            let mut ctx = Ctx::new();
            let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();

            let w = run(&mm, write(8, data.clone()), None, &mut ctx);
            assert!(matches!(w, RespPayload::Len(4096)), "{ty}: {w:?}");
            first_write_ns.push(ctx.now());
            match run(&mm, read_buf(8, 4096), None, &mut ctx) {
                RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), data, "{ty}"),
                other => panic!("{ty}: expected DataBuf, got {other:?}"),
            }

            // The destination a `ReadBuf` is lent holds 0x5A, never the
            // answer: a backend that does not fill all of it is caught.
            let w = run(&mm, write_buf_from(16, &data), None, &mut ctx);
            assert!(matches!(w, RespPayload::Len(4096)), "{ty}: {w:?}");
            poison_free_slots();
            match run(&mm, read_buf(16, 4096), None, &mut ctx) {
                RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), data, "{ty}"),
                other => panic!("{ty}: expected DataBuf, got {other:?}"),
            }
            // Never written: all zero.
            poison_free_slots();
            match run(&mm, read_buf(1 << 20, 4096), None, &mut ctx) {
                RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), [0u8; 4096], "{ty}"),
                other => panic!("{ty}: expected DataBuf, got {other:?}"),
            }

            let f = run(&mm, Payload::Block(BlockOp::Flush), None, &mut ctx);
            assert!(matches!(f, RespPayload::Ok), "{ty}: {f:?}");

            // A discard: no device command, no charge.
            let (before, media) = (
                ctx.now(),
                devices.block(device).map(|d| d.stats().snapshot()),
            );
            let discard = Payload::Block(BlockOp::Discard { lba: 8, len: 8192 });
            let d = run(&mm, discard, None, &mut ctx);
            assert!(matches!(d, RespPayload::Ok), "{ty}: {d:?}");
            assert_eq!(ctx.now(), before, "{ty}: a discard costs nothing");
            assert_eq!(
                devices.block(device).map(|d| d.stats().snapshot()),
                media,
                "{ty}"
            );

            let before = ctx.now();
            let resp = run(&mm, Payload::Dummy { work_ns: 1 }, None, &mut ctx);
            assert!(!resp.is_ok(), "{ty} must reject non-block payloads");
            assert_eq!(ctx.now(), before, "{ty}: a rejected payload costs nothing");

            if ty == "dax" {
                // Arbitrary length: DAX does not care about sector multiples.
                let w = run(&mm, write(1234, b"dax bytes".to_vec()), None, &mut ctx);
                assert!(matches!(w, RespPayload::Len(9)), "{w:?}");
                match run(&mm, read_buf(1234, 9), None, &mut ctx) {
                    RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), b"dax bytes"),
                    other => panic!("unexpected {other:?}"),
                }
            }

            // `qid_hint` is honoured (clamped to the device's 32 queues):
            // with a foreign command parked on queue 5 until t = 1 ms, a
            // write hinted there waits behind it on the in-order CQ and a
            // write hinted next door does not.
            if routes_by_hint {
                let dev = devices.block(device).unwrap();
                dev.submit_at(5, IoRequest::write(0, vec![0u8; 512], u64::MAX), 1_000_000)
                    .unwrap();
                let mut next_door = Ctx::new();
                let w = run(&mm, write(64, vec![1u8; 512]), Some(4), &mut next_door);
                assert!(matches!(w, RespPayload::Len(512)), "{ty}: {w:?}");
                assert!(next_door.now() < 1_000_000, "{ty}: {}", next_door.now());
                let mut behind = Ctx::new();
                let w = run(&mm, write(64, vec![1u8; 512]), Some(32 + 5), &mut behind);
                assert!(matches!(w, RespPayload::Len(512)), "{ty}: {w:?}");
                assert!(behind.now() >= 1_000_000, "{ty}: {}", behind.now());
            } else {
                let w = run(&mm, write(64, vec![1u8; 512]), Some(5), &mut ctx);
                assert!(matches!(w, RespPayload::Len(512)), "{ty}: {w:?}");
            }
        }
        // Fig. 6's ordering from idle channels: SPDK's user-mapped queue
        // pair beats the Kernel Driver's request packaging, which beats
        // inheriting the kernel block layer through io_uring.
        let [kd, sp, iu, _dax] = first_write_ns[..] else {
            panic!("one sample per driver");
        };
        assert!(sp < kd, "spdk {sp} must beat kernel driver {kd}");
        assert!(kd < iu, "hctx path {kd} must beat io_uring path {iu}");
    }

    /// A failed completion is an `Err` answer — for writes, reads and,
    /// above all, the barrier: acknowledging a flush the device reported
    /// as failed acknowledges durability that never happened.
    #[test]
    fn failed_completions_surface_as_errors() {
        type Arm = fn(&SimDevice);
        let faults: [(&str, Arm); 2] = [
            ("powered off", |dev| dev.faults().set_crash_at(0)),
            ("media error", |dev| dev.faults().set_period(1)),
        ];
        for (ty, device, _) in DRIVERS {
            if ty == "dax" {
                // PMEM has no fault model; its one failure is an access
                // past the end of the region.
                let (mm, devices) = machine(ty, device);
                let end = devices.pmem(device).unwrap().len() / labstor_sim::SECTOR_SIZE as u64;
                let mut ctx = Ctx::new();
                assert!(!run(&mm, write(end, vec![1u8; 512]), None, &mut ctx).is_ok());
                assert!(!run(&mm, read_buf(end, 512), None, &mut ctx).is_ok());
                continue;
            }
            for (fault, arm) in faults {
                let (mm, devices) = machine(ty, device);
                arm(&devices.block(device).unwrap());
                let mut ctx = Ctx::new();
                let ops = [
                    ("write", write(8, vec![1u8; 4096])),
                    ("write_buf", write_buf(8, 4096, 1)),
                    ("read_buf", read_buf(8, 4096)),
                    ("flush", Payload::Block(BlockOp::Flush)),
                ];
                for (name, op) in ops {
                    let resp = run(&mm, op, None, &mut ctx);
                    assert!(
                        matches!(resp, RespPayload::Err(_)),
                        "{ty}: {name} on a {fault} device answered {resp:?}"
                    );
                }
            }
        }
    }

    /// `ctx.now()` after each step of {4 KiB Write, 4 KiB ReadBuf, 4 KiB
    /// WriteBuf, 4 KiB ReadBuf, Flush, 128 KiB Write} on a fresh machine.
    /// `ctx.busy()` is pinned too: it equals `ctx.now()` on every path,
    /// because a driver polls — it never idles its core — and so is the
    /// platform's counter for the vertex, which is that busy time.
    type Pins = [u64; 6];

    /// Captured at the commit before the four driver mods became one
    /// (`71a5861`), in `DRIVERS` order. The refactor's contract is that
    /// virtual time does not move.
    const COST_PINS: [Pins; 4] = [
        [13655, 24617, 38272, 49234, 49384, 129869],
        [12355, 22017, 34372, 44034, 44034, 123219],
        [15715, 28737, 44452, 57474, 61104, 143649],
        [1182, 1994, 3176, 3988, 4088, 26433],
    ];
    /// Only the Kernel Driver prices a request an upstream scheduler
    /// already keyed (`qid_hint` set) differently.
    const KERNEL_DRIVER_PREKEYED: Pins = [12555, 22417, 34972, 44834, 44984, 124369];

    fn cost_script(ty: &str, device: &str, qid_hint: Option<usize>) -> Pins {
        let (mm, _devices) = machine(ty, device);
        let mut ctx = Ctx::new();
        let steps = [
            write(8, vec![7u8; 4096]),
            read_buf(8, 4096),
            write_buf(16, 4096, 0xab),
            read_buf(16, 4096),
            Payload::Block(BlockOp::Flush),
            write(256, vec![9u8; 128 * 1024]),
        ];
        steps.map(|op| {
            assert!(run(&mm, op, qid_hint, &mut ctx).is_ok(), "{ty}");
            assert_eq!(ctx.busy(), ctx.now(), "{ty}");
            assert_eq!(mm.counters("drv").unwrap().total_ns(), ctx.busy(), "{ty}");
            ctx.now()
        })
    }

    #[test]
    fn virtual_costs_are_the_recorded_ones() {
        for ((ty, device, _), plain) in DRIVERS.into_iter().zip(COST_PINS) {
            assert_eq!(cost_script(ty, device, None), plain, "{ty}, no hint");
            let hinted = match ty {
                "kernel_driver" => KERNEL_DRIVER_PREKEYED,
                _ => plain,
            };
            assert_eq!(cost_script(ty, device, Some(1)), hinted, "{ty}, qid_hint");
        }
    }
}
