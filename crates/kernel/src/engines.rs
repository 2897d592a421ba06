//! Userspace I/O engines over raw device files (Fig. 6 baselines).
//!
//! The paper's storage-interface evaluation writes directly to device
//! files (`/dev/nvme0n1`) with O_DIRECT through four kernel interfaces:
//!
//! * **POSIX** — synchronous `pread`/`pwrite`: a syscall per operation and
//!   a blocked (interrupt + wakeup) completion.
//! * **POSIX AIO** — glibc's thread-pool AIO: the POSIX path plus two
//!   extra context switches (hand-off to the AIO thread and completion
//!   notification) — "amounting up to 60-70% overhead on NVMe and PMEM".
//! * **libaio** — `io_submit`/`io_getevents`: two syscalls per batch, no
//!   AIO threads, still the full block layer per command.
//! * **io_uring** — SQ/CQ rings in shared memory: one `io_uring_enter`
//!   per submitted batch, completions reaped from the CQ with *no*
//!   syscall.
//!
//! LabStor's own storage paths (Kernel Driver, SPDK, DAX LabMods) live in
//! `labstor-mods`; Fig. 6 compares them against these.

use std::sync::Arc;

use labstor_sim::{Completion, Ctx, DeviceError, IoRequest};

use crate::block::{BlockLayer, CompletionMode};
use crate::cost;
use crate::sched::IoClass;

/// Which kernel interface an engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoEngineKind {
    /// Synchronous POSIX read/write with O_DIRECT.
    Posix,
    /// POSIX AIO (glibc thread pool).
    PosixAio,
    /// Linux native AIO (io_submit/io_getevents).
    Libaio,
    /// io_uring with polled completion reaping.
    IoUring,
}

impl IoEngineKind {
    /// Label used in bench output (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            IoEngineKind::Posix => "posix",
            IoEngineKind::PosixAio => "posix-aio",
            IoEngineKind::Libaio => "libaio",
            IoEngineKind::IoUring => "io_uring",
        }
    }

    /// All baseline engines, in the paper's presentation order.
    pub fn all() -> [IoEngineKind; 4] {
        [
            IoEngineKind::Posix,
            IoEngineKind::PosixAio,
            IoEngineKind::Libaio,
            IoEngineKind::IoUring,
        ]
    }
}

/// Cost of pinning user pages for O_DIRECT (get_user_pages).
const GUP_NS: u64 = 250;
/// Writing one SQE into the io_uring submission ring (user memory).
const SQE_WRITE_NS: u64 = 90;
/// Reaping one CQE from the io_uring completion ring (user memory).
const CQE_READ_NS: u64 = 70;

/// Handle for an in-flight asynchronous operation.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    tag: u64,
    qid: usize,
}

/// One io_uring submission: the command, its class and submitting core.
type Sqe<'a> = (IoRequest<'a>, IoClass, usize);

/// A raw-device I/O engine of a given kind.
pub struct RawEngine {
    kind: IoEngineKind,
    block: Arc<BlockLayer>,
    /// SQEs staged in the ring but not yet submitted (io_uring only).
    staged: parking_lot::Mutex<Vec<Sqe<'static>>>,
}

impl RawEngine {
    /// Create an engine over a block layer.
    pub fn new(kind: IoEngineKind, block: Arc<BlockLayer>) -> Self {
        RawEngine {
            kind,
            block,
            staged: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Engine kind.
    pub fn kind(&self) -> IoEngineKind {
        self.kind
    }

    /// The block layer this engine submits through.
    pub fn block_layer(&self) -> &Arc<BlockLayer> {
        &self.block
    }

    /// Queue one operation. For POSIX/AIO/libaio the submission syscall is
    /// charged here; for io_uring the SQE is only staged until [`Self::kick`].
    ///
    /// The caller's tag is replaced with a block-layer-unique one (returned
    /// in the [`Token`]): engines sharing a device must never collide on
    /// tags or they would reap each other's completions.
    pub fn submit(
        &self,
        ctx: &mut Ctx,
        core: usize,
        class: IoClass,
        mut req: IoRequest<'_>,
    ) -> Result<Token, DeviceError> {
        req.tag = self.block.alloc_tag();
        let tag = req.tag;
        match self.kind {
            IoEngineKind::Posix => {
                cost::syscall(ctx);
                ctx.advance(GUP_NS);
                let qid = self.block.submit_io_to_blk(ctx, core, class, req)?;
                Ok(Token { tag, qid })
            }
            IoEngineKind::PosixAio => {
                // Enqueue to the AIO thread pool: library bookkeeping, a
                // futex wake of the worker thread and the switch into it;
                // the worker then runs the POSIX path.
                cost::syscall(ctx);
                cost::context_switch(ctx);
                cost::context_switch(ctx);
                ctx.advance(cost::WAKEUP_NS + GUP_NS);
                let qid = self.block.submit_io_to_blk(ctx, core, class, req)?;
                Ok(Token { tag, qid })
            }
            IoEngineKind::Libaio => {
                cost::syscall(ctx); // io_submit
                ctx.advance(GUP_NS);
                let qid = self.block.submit_io_to_blk(ctx, core, class, req)?;
                Ok(Token { tag, qid })
            }
            IoEngineKind::IoUring => {
                ctx.advance(SQE_WRITE_NS);
                // copy-ok: a staged SQE outlives this call, so on the host it owns its bytes (a `Vec` payload is moved; the modeled SQE points at user pages either way); `rw_sync` never stages
                let sqe = (req.into_owned(), class, core);
                self.staged.lock().push(sqe); // lock-class: engines.staged

                // The queue is only chosen at kick time, and so is the
                // token to wait on.
                Ok(Token {
                    tag,
                    qid: usize::MAX,
                })
            }
        }
    }

    /// Submit all staged SQEs with one `io_uring_enter` (no-op for other
    /// engines). Returns tokens in staging order.
    pub fn kick(&self, ctx: &mut Ctx) -> Result<Vec<Token>, DeviceError> {
        if self.kind != IoEngineKind::IoUring {
            return Ok(Vec::new());
        }
        let staged: Vec<_> = std::mem::take(&mut *self.staged.lock()); // lock-class: engines.staged
        if staged.is_empty() {
            return Ok(Vec::new());
        }
        self.enter(ctx, staged)
    }

    /// One `io_uring_enter` for `sqes`, in order.
    fn enter<'a>(
        &self,
        ctx: &mut Ctx,
        sqes: impl IntoIterator<Item = Sqe<'a>>,
    ) -> Result<Vec<Token>, DeviceError> {
        cost::syscall(ctx); // one enter for the whole batch
        let mut tokens = Vec::new();
        for (mut req, class, core) in sqes {
            req.tag = self.block.alloc_tag();
            let tag = req.tag;
            let qid = self.block.submit_io_to_blk(ctx, core, class, req)?;
            tokens.push(Token { tag, qid });
        }
        Ok(tokens)
    }

    /// Wait for one operation to complete, charging the engine's
    /// completion discipline.
    pub fn wait(&self, ctx: &mut Ctx, token: Token) -> Completion {
        match self.kind {
            IoEngineKind::Posix => {
                self.block
                    .wait_for_tag(ctx, token.qid, token.tag, CompletionMode::Block)
            }
            IoEngineKind::PosixAio => {
                // aio_suspend syscall; the AIO worker takes the completion
                // wakeup, then signals and switches back to the caller.
                cost::syscall(ctx);
                let c = self
                    .block
                    .wait_for_tag(ctx, token.qid, token.tag, CompletionMode::Block);
                cost::context_switch(ctx);
                cost::context_switch(ctx);
                ctx.advance(cost::WAKEUP_NS);
                c
            }
            IoEngineKind::Libaio => {
                cost::syscall(ctx); // io_getevents
                self.block
                    .wait_for_tag(ctx, token.qid, token.tag, CompletionMode::Block)
            }
            IoEngineKind::IoUring => {
                ctx.advance(CQE_READ_NS);
                self.block
                    .wait_for_tag(ctx, token.qid, token.tag, CompletionMode::PollCq)
            }
        }
    }

    /// One complete synchronous operation (submit + kick + wait): the
    /// queue-depth-1 discipline Fig. 6 measures.
    pub fn rw_sync(
        &self,
        ctx: &mut Ctx,
        core: usize,
        class: IoClass,
        req: IoRequest<'_>,
    ) -> Result<Completion, DeviceError> {
        let token = match self.kind {
            // The caller waits right here, so the SQE keeps its borrowed
            // buffers: written and entered in one go, behind whatever is
            // already staged, at the charges of `submit` + `kick`.
            IoEngineKind::IoUring => {
                ctx.advance(SQE_WRITE_NS);
                let staged = std::mem::take(&mut *self.staged.lock()); // lock-class: engines.staged
                let sqes = staged.into_iter().chain([(req, class, core)]);
                self.enter(ctx, sqes)?.pop().expect("one SQE entered")
            }
            _ => self.submit(ctx, core, class, req)?,
        };
        Ok(self.wait(ctx, token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::{DeviceKind, SimDevice};

    fn engine(kind: IoEngineKind) -> RawEngine {
        RawEngine::new(kind, BlockLayer::new(SimDevice::preset(DeviceKind::Nvme)))
    }

    fn one_write(kind: IoEngineKind, bytes: usize) -> u64 {
        let e = engine(kind);
        let mut ctx = Ctx::new();
        let c = e
            .rw_sync(
                &mut ctx,
                0,
                IoClass::Latency,
                IoRequest::write(0, vec![0u8; bytes], 1),
            )
            .unwrap();
        assert!(c.is_ok());
        ctx.now()
    }

    #[test]
    fn data_roundtrips_through_every_engine() {
        for kind in IoEngineKind::all() {
            let e = engine(kind);
            let mut ctx = Ctx::new();
            let data: Vec<u8> = (0..4096).map(|i| (i % 239) as u8).collect();
            e.rw_sync(
                &mut ctx,
                0,
                IoClass::Latency,
                IoRequest::write(64, data.clone(), 1),
            )
            .unwrap();
            let c = e
                .rw_sync(&mut ctx, 0, IoClass::Latency, IoRequest::read(64, 4096, 2))
                .unwrap();
            assert_eq!(c.result.unwrap(), data, "engine {}", kind.label());
            // Lent buffers: a synchronous op borrows them on every engine.
            let lent: Vec<u8> = data.iter().map(|b| !b).collect();
            let w = IoRequest::write(64, &lent[..], 3);
            assert!(e.rw_sync(&mut ctx, 0, IoClass::Latency, w).unwrap().is_ok());
            let mut dest = vec![0xEEu8; 4096];
            let r = IoRequest::read_into(64, &mut dest, 4);
            let c = e.rw_sync(&mut ctx, 0, IoClass::Latency, r).unwrap();
            assert!(c.result.unwrap().is_empty(), "engine {}", kind.label());
            assert_eq!(dest, lent, "engine {}", kind.label());
        }
    }

    #[test]
    fn uring_rw_sync_borrows_at_the_price_of_submit_kick_wait() {
        let data = vec![5u8; 4096];
        let e = engine(IoEngineKind::IoUring);
        let mut sync = Ctx::new();
        let w = IoRequest::write(64, &data[..], 1);
        assert!(e
            .rw_sync(&mut sync, 0, IoClass::Latency, w)
            .unwrap()
            .is_ok());

        let e = engine(IoEngineKind::IoUring);
        let mut staged = Ctx::new();
        let w = IoRequest::write(64, &data[..], 1);
        e.submit(&mut staged, 0, IoClass::Latency, w).unwrap();
        let token = e.kick(&mut staged).unwrap().pop().unwrap();
        assert!(e.wait(&mut staged, token).is_ok());
        assert_eq!((sync.now(), sync.busy()), (staged.now(), staged.busy()));

        // A staged SQE outlives the call that lent it a destination, so
        // its bytes come back in the completion instead.
        let mut dest = vec![0xEEu8; 4096];
        let r = IoRequest::read_into(64, &mut dest, 2);
        e.submit(&mut staged, 0, IoClass::Latency, r).unwrap();
        let token = e.kick(&mut staged).unwrap().pop().unwrap();
        assert_eq!(e.wait(&mut staged, token).result.unwrap(), data);
        assert!(dest.iter().all(|&b| b == 0xEE));

        // `rw_sync` enters what was staged before it, ahead of its own.
        let first = IoRequest::write(128, vec![1u8; 512], 3);
        e.submit(&mut staged, 0, IoClass::Latency, first).unwrap();
        let r = IoRequest::read(128, 512, 4);
        let c = e.rw_sync(&mut staged, 0, IoClass::Latency, r).unwrap();
        assert_eq!(c.result.unwrap(), vec![1u8; 512]);
        assert!(e.kick(&mut staged).unwrap().is_empty());
    }

    #[test]
    fn engine_latency_ordering_matches_fig6() {
        // At 4 KB / QD1 on NVMe: AIO > POSIX > libaio > io_uring.
        let aio = one_write(IoEngineKind::PosixAio, 4096);
        let posix = one_write(IoEngineKind::Posix, 4096);
        let libaio = one_write(IoEngineKind::Libaio, 4096);
        let uring = one_write(IoEngineKind::IoUring, 4096);
        assert!(aio > posix, "aio {aio} vs posix {posix}");
        assert!(
            posix > libaio || posix > uring,
            "posix must beat at most one async engine"
        );
        assert!(
            uring < libaio,
            "io_uring avoids the getevents syscall: {uring} vs {libaio}"
        );
    }

    #[test]
    fn large_requests_shrink_relative_gaps() {
        let small_gap = one_write(IoEngineKind::PosixAio, 4096) as f64
            / one_write(IoEngineKind::IoUring, 4096) as f64;
        let large_gap = one_write(IoEngineKind::PosixAio, 128 * 1024) as f64
            / one_write(IoEngineKind::IoUring, 128 * 1024) as f64;
        assert!(
            large_gap < small_gap,
            "software overhead must wash out at 128 KB: {large_gap:.3} vs {small_gap:.3}"
        );
    }

    #[test]
    fn uring_batches_one_syscall_for_many_sqes() {
        let e = engine(IoEngineKind::IoUring);
        let mut ctx = Ctx::new();
        for i in 0..8 {
            e.submit(
                &mut ctx,
                0,
                IoClass::Throughput,
                IoRequest::write(i * 8, vec![0u8; 512], i),
            )
            .unwrap();
        }
        let before = ctx.now();
        let tokens = e.kick(&mut ctx).unwrap();
        assert_eq!(tokens.len(), 8);
        // Exactly one syscall was charged in the kick (plus per-req block
        // layer work).
        let per_req = cost::BIO_ALLOC_NS
            + cost::BLOCK_LAYER_NS
            + cost::SCHED_DECIDE_NS
            + cost::DRIVER_SUBMIT_NS;
        assert_eq!(ctx.now() - before, cost::SYSCALL_NS + 8 * per_req);
        for t in tokens {
            assert!(e.wait(&mut ctx, t).is_ok());
        }
    }

    #[test]
    fn injected_device_faults_surface_through_every_engine() {
        for kind in IoEngineKind::all() {
            let dev = SimDevice::preset(DeviceKind::Nvme);
            dev.faults().set_period(1); // everything fails
            let e = RawEngine::new(kind, BlockLayer::new(dev));
            let mut ctx = Ctx::new();
            let c = e
                .rw_sync(
                    &mut ctx,
                    0,
                    IoClass::Latency,
                    IoRequest::write(0, vec![0u8; 512], 1),
                )
                .unwrap();
            assert!(
                c.result.is_err(),
                "{} must surface the media error",
                kind.label()
            );
        }
    }

    #[test]
    fn kick_is_noop_for_sync_engines() {
        let e = engine(IoEngineKind::Posix);
        let mut ctx = Ctx::new();
        assert!(e.kick(&mut ctx).unwrap().is_empty());
        assert_eq!(ctx.now(), 0);
    }
}
