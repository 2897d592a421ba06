//! The multi-queue block layer.
//!
//! Models the Linux `blk-mq` path: bio/request allocation, per-request
//! bookkeeping, an I/O scheduler decision, and dispatch into one of the
//! device's hardware queues. Completions are discovered either by blocking
//! (interrupt + wakeup — the default kernel path) or by polling.
//!
//! It also exposes the two submission entry points LabStor's Kernel Driver
//! LabMod gets from the Kernel Ops Manager (paper §III-F):
//!
//! * `submit_io_to_hctx` — place a request *directly* on a hardware
//!   dispatch queue, bypassing the block layer's allocation, bookkeeping
//!   and scheduling (the re-implemented `blk_mq_try_issue_directly`).
//! * `submit_io_to_blk` — the standard full block-layer path.
//!
//! Completions are reaped by polling (`wait_for_tag` in
//! [`CompletionMode::DriverPoll`]) for pollable devices.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use labstor_sim::{
    BlockDevice, Completion, CompletionStash, Ctx, DeviceError, IoRequest, SimDevice,
};

use crate::cost;
use crate::sched::{IoClass, KernelSched, NoopSched};

/// How a waiter discovers its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionMode {
    /// Block until an interrupt wakes the task (POSIX, libaio, AIO):
    /// idle wait + interrupt + wakeup + context switch back in.
    Block,
    /// Busy-poll a completion ring in user memory (io_uring CQ): the
    /// interrupt still posts the completion but no wakeup/context switch
    /// is paid.
    PollCq,
    /// Pure driver polling of the device CQ (LabStor Kernel Driver LabMod,
    /// SPDK): no interrupt at all; the polling core is busy.
    DriverPoll,
}

/// The block layer instance fronting one device.
pub struct BlockLayer {
    dev: Arc<SimDevice>,
    sched: Arc<dyn KernelSched>,
    next_tag: AtomicU64,
    /// Completions reaped from a shared hardware queue on behalf of other
    /// waiters (the IRQ handler completes everything it finds).
    stash: CompletionStash,
}

impl BlockLayer {
    /// Wrap a device with the default NoOp scheduler.
    pub fn new(dev: Arc<SimDevice>) -> Arc<Self> {
        Self::with_sched(dev, Arc::new(NoopSched))
    }

    /// Wrap a device with an explicit scheduler.
    pub fn with_sched(dev: Arc<SimDevice>, sched: Arc<dyn KernelSched>) -> Arc<Self> {
        Arc::new(BlockLayer {
            dev,
            sched,
            next_tag: AtomicU64::new(1),
            stash: CompletionStash::default(),
        })
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<SimDevice> {
        &self.dev
    }

    /// Allocate a unique request tag.
    pub fn alloc_tag(&self) -> u64 {
        self.next_tag.fetch_add(1, Ordering::Relaxed) // relaxed-ok: fresh-id allocation; atomicity alone suffices
    }

    /// Full block-layer submission (`submit_io_to_blk`): bio allocation,
    /// bookkeeping, scheduler decision, driver dispatch. Returns the
    /// hardware queue chosen.
    pub(crate) fn submit_io_to_blk(
        &self,
        ctx: &mut Ctx,
        core: usize,
        class: IoClass,
        req: IoRequest<'_>,
    ) -> Result<usize, DeviceError> {
        ctx.advance(cost::BIO_ALLOC_NS + cost::BLOCK_LAYER_NS + cost::SCHED_DECIDE_NS);
        let qid = self.sched.select_queue(&self.dev, core, req.len, class);
        ctx.advance(cost::DRIVER_SUBMIT_NS);
        self.dev.submit_at(qid, req, ctx.now())?;
        Ok(qid)
    }

    /// Direct hardware-queue submission (`submit_io_to_hctx`): bypasses
    /// allocation, bookkeeping and scheduling — the path LabStor's Kernel
    /// Driver LabMod uses. Only the doorbell/command packaging is paid.
    pub fn submit_io_to_hctx(
        &self,
        ctx: &mut Ctx,
        qid: usize,
        req: IoRequest<'_>,
    ) -> Result<(), DeviceError> {
        ctx.advance(cost::DRIVER_SUBMIT_NS);
        self.dev.submit_at(qid, req, ctx.now())
    }

    /// Wait for the completion of `tag` on hardware queue `qid`.
    ///
    /// Shared queues are handled like Linux's IRQ path: whoever processes
    /// completions completes *everything* it finds, stashing other
    /// waiters' results. In-order CQ consumption (and therefore
    /// head-of-line blocking behind slow commands ahead of `tag`) is
    /// preserved by the device's queue model.
    pub fn wait_for_tag(
        &self,
        ctx: &mut Ctx,
        qid: usize,
        tag: u64,
        mode: CompletionMode,
    ) -> Completion {
        loop {
            if let Some(c) = self.stash.take(tag) {
                self.charge_completion(ctx, c.done_at, mode);
                return c;
            }
            match self.dev.next_due(qid) {
                Some(due) => {
                    // Advance to the deadline of the CQ head, then reap.
                    match mode {
                        CompletionMode::Block => ctx.idle_until(due),
                        CompletionMode::PollCq | CompletionMode::DriverPoll => ctx.poll_until(due),
                    };
                    if let Some(c) = self.stash.reap(self.dev.as_ref(), qid, ctx.now(), 64, tag) {
                        self.charge_completion(ctx, c.done_at, mode);
                        return c;
                    }
                }
                None => {
                    // Nothing in flight here: another thread must be about
                    // to stash our completion (it reaped a batch containing
                    // it). Let it run.
                    std::thread::yield_now();
                }
            }
        }
    }

    fn charge_completion(&self, ctx: &mut Ctx, done_at: u64, mode: CompletionMode) {
        match mode {
            CompletionMode::Block => {
                ctx.idle_until(done_at);
                ctx.advance(cost::INTERRUPT_NS + cost::WAKEUP_NS + cost::CONTEXT_SWITCH_NS);
            }
            CompletionMode::PollCq => {
                ctx.poll_until(done_at);
                ctx.advance(cost::INTERRUPT_NS);
            }
            CompletionMode::DriverPoll => {
                ctx.poll_until(done_at);
            }
        }
    }

    /// Convenience: synchronous write through the full block layer
    /// (submit + blocked wait). Returns the completion.
    pub fn sync_write(
        &self,
        ctx: &mut Ctx,
        core: usize,
        class: IoClass,
        lba: u64,
        data: Vec<u8>,
    ) -> Result<Completion, DeviceError> {
        let tag = self.alloc_tag();
        let qid = self.submit_io_to_blk(ctx, core, class, IoRequest::write(lba, data, tag))?;
        Ok(self.wait_for_tag(ctx, qid, tag, CompletionMode::Block))
    }

    /// Convenience: synchronous read through the full block layer.
    pub fn sync_read(
        &self,
        ctx: &mut Ctx,
        core: usize,
        class: IoClass,
        lba: u64,
        len: usize,
    ) -> Result<Completion, DeviceError> {
        let tag = self.alloc_tag();
        let qid = self.submit_io_to_blk(ctx, core, class, IoRequest::read(lba, len, tag))?;
        Ok(self.wait_for_tag(ctx, qid, tag, CompletionMode::Block))
    }

    /// Flush barrier on the queue the scheduler picks for `core`.
    pub(crate) fn sync_flush(&self, ctx: &mut Ctx, core: usize) -> Result<(), DeviceError> {
        let tag = self.alloc_tag();
        let qid = self.submit_io_to_blk(ctx, core, IoClass::Throughput, IoRequest::flush(tag))?;
        self.wait_for_tag(ctx, qid, tag, CompletionMode::Block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::{DeviceKind, DeviceModel};

    fn layer() -> Arc<BlockLayer> {
        BlockLayer::new(SimDevice::new(DeviceModel::preset(DeviceKind::Nvme)))
    }

    #[test]
    fn sync_write_read_roundtrip() {
        let b = layer();
        let mut ctx = Ctx::new();
        let data: Vec<u8> = (0..4096).map(|i| (i % 241) as u8).collect();
        let c = b
            .sync_write(&mut ctx, 0, IoClass::Throughput, 64, data.clone())
            .unwrap();
        assert!(c.is_ok());
        let c = b
            .sync_read(&mut ctx, 0, IoClass::Throughput, 64, 4096)
            .unwrap();
        assert_eq!(c.result.unwrap(), data);
    }

    #[test]
    fn blocked_wait_charges_interrupt_path() {
        let b = layer();
        let mut ctx = Ctx::new();
        b.sync_write(&mut ctx, 0, IoClass::Latency, 0, vec![0u8; 4096])
            .unwrap();
        let sw_cost = cost::BIO_ALLOC_NS
            + cost::BLOCK_LAYER_NS
            + cost::SCHED_DECIDE_NS
            + cost::DRIVER_SUBMIT_NS
            + cost::INTERRUPT_NS
            + cost::WAKEUP_NS
            + cost::CONTEXT_SWITCH_NS;
        let media = b.device().model().transfer_ns(true, 4096);
        assert_eq!(ctx.now(), sw_cost + media);
        // The media portion was idle (interrupt-driven), software busy.
        assert_eq!(ctx.busy(), sw_cost);
    }

    #[test]
    fn hctx_path_is_cheaper_than_blk_path() {
        let b = layer();
        let mut full = Ctx::new();
        let mut direct = Ctx::new();
        let t1 = b.alloc_tag();
        b.submit_io_to_blk(
            &mut full,
            0,
            IoClass::Latency,
            IoRequest::write(0, vec![0u8; 512], t1),
        )
        .unwrap();
        let t2 = b.alloc_tag();
        b.submit_io_to_hctx(&mut direct, 1, IoRequest::write(8, vec![0u8; 512], t2))
            .unwrap();
        assert!(direct.now() < full.now());
        assert_eq!(direct.now(), cost::DRIVER_SUBMIT_NS);
    }

    #[test]
    fn driver_poll_mode_skips_interrupt() {
        let b = layer();
        let mut ctx = Ctx::new();
        let tag = b.alloc_tag();
        b.submit_io_to_hctx(&mut ctx, 0, IoRequest::write(0, vec![0u8; 4096], tag))
            .unwrap();
        let c = b.wait_for_tag(&mut ctx, 0, tag, CompletionMode::DriverPoll);
        assert!(c.is_ok());
        let media = b.device().model().transfer_ns(true, 4096);
        assert_eq!(ctx.now(), cost::DRIVER_SUBMIT_NS + media);
        // Polling burns the core: everything is busy time.
        assert_eq!(ctx.busy(), ctx.now());
    }

    #[test]
    fn shared_queue_stash_delivers_other_waiters_completion() {
        let b = layer();
        let mut a = Ctx::new();
        let t1 = b.alloc_tag();
        let t2 = b.alloc_tag();
        // Submit two commands on the same queue, then wait for the SECOND
        // first: the first gets stashed, and a later wait finds it.
        b.submit_io_to_hctx(&mut a, 0, IoRequest::write(0, vec![0u8; 512], t1))
            .unwrap();
        b.submit_io_to_hctx(&mut a, 0, IoRequest::write(8, vec![0u8; 512], t2))
            .unwrap();
        let c2 = b.wait_for_tag(&mut a, 0, t2, CompletionMode::DriverPoll);
        assert_eq!(c2.tag, t2);
        let c1 = b.wait_for_tag(&mut a, 0, t1, CompletionMode::DriverPoll);
        assert_eq!(c1.tag, t1);
    }

    #[test]
    fn flush_completes() {
        let b = layer();
        let mut ctx = Ctx::new();
        b.sync_write(&mut ctx, 0, IoClass::Throughput, 0, vec![1u8; 512])
            .unwrap();
        b.sync_flush(&mut ctx, 0).unwrap();
    }
}
