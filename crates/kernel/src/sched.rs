//! In-kernel I/O schedulers (Fig. 8 baselines).
//!
//! The paper integrates two schedulers both in the kernel and as LabMods:
//!
//! * **NoOp** — "maps I/O requests to device queues based on the CPU core
//!   the request originated" — Linux's `none` elevator with the default
//!   core→hctx mapping.
//! * **blk-switch** \[20\] — "takes into consideration the load emplaced
//!   on a queue": it steers requests away from congested hardware queues,
//!   eliminating head-of-line blocking between throughput- and
//!   latency-bound applications sharing a core.
//!
//! The scheduler picks a hardware queue; head-of-line blocking then
//! emerges naturally because completion queues are consumed in order (see
//! `labstor_sim::queue::HwQueue::poll`).

use std::sync::Arc;

use labstor_sim::{BlockDevice, SimDevice};
use labstor_telemetry::Stat;

/// Priority class a submitter can attach to a request. Blk-switch uses it
/// to separate latency-sensitive from throughput traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// Small, latency-critical requests (QD1 style).
    Latency,
    /// Bulk throughput requests.
    Throughput,
}

/// An in-kernel I/O scheduler: selects the hardware queue a request is
/// dispatched to.
pub trait KernelSched: Send + Sync {
    /// Scheduler name (reported in bench output).
    fn name(&self) -> &'static str;

    /// Pick the hardware queue for a request of `bytes` issued from
    /// `core` with class `class`.
    fn select_queue(
        &self,
        dev: &Arc<SimDevice>,
        core: usize,
        bytes: usize,
        class: IoClass,
    ) -> usize;
}

/// NoOp: static core→queue mapping, no load awareness.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSched;

impl KernelSched for NoopSched {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn select_queue(
        &self,
        dev: &Arc<SimDevice>,
        core: usize,
        _bytes: usize,
        _class: IoClass,
    ) -> usize {
        core % dev.num_queues()
    }
}

/// Blk-switch-like: latency-class requests are steered to the least-loaded
/// queue; throughput requests keep core affinity unless their home queue
/// is heavily congested, in which case they spill to the least-loaded one
/// (app-steering + req-steering from the blk-switch paper).
#[derive(Debug)]
pub struct BlkSwitchSched {
    /// Queue depth above which throughput requests spill over.
    pub(crate) congestion_threshold: usize,
    /// Rotates tie-breaks so concurrent latency flows spread out.
    cursor: std::sync::atomic::AtomicUsize,
    /// Bulk-traffic history (app steering).
    history: BulkHistory,
}

impl Default for BlkSwitchSched {
    fn default() -> Self {
        BlkSwitchSched {
            congestion_threshold: 64,
            cursor: std::sync::atomic::AtomicUsize::new(0),
            history: BulkHistory::new(64),
        }
    }
}

impl BlkSwitchSched {
    /// Least-loaded queue, weighing the *service-channel group* a queue
    /// maps to (queues sharing a channel share its backlog) ahead of the
    /// queue's own depth, with a rotating scan start to spread ties.
    pub(crate) fn least_loaded(&self, dev: &Arc<SimDevice>) -> usize {
        least_loaded_queue(
            dev,
            &self.history,
            self.cursor
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed), // relaxed-ok: fresh-id allocation; atomicity alone suffices
        )
    }
}

/// Per-queue bulk-traffic history: blk-switch's *app steering* keeps
/// latency requests off queues (and their service channels) that
/// throughput applications use, even between bursts when instantaneous
/// depth looks low.
#[derive(Debug)]
pub struct BulkHistory {
    per_queue: Vec<Stat>,
}

impl BulkHistory {
    /// History over `queues` queues.
    pub fn new(queues: usize) -> Self {
        BulkHistory {
            per_queue: (0..queues.max(1)).map(|_| Stat::new(0)).collect(),
        }
    }

    /// Record bulk bytes submitted to `qid`.
    pub fn record(&self, qid: usize, bytes: usize) {
        let slot = &self.per_queue[qid % self.per_queue.len()];
        // EMA-ish: decay an eighth, add the new sample.
        let cur = slot.get();
        slot.set(cur - cur / 8 + bytes as u64);
    }

    /// Recent bulk pressure on `qid`.
    pub(crate) fn pressure(&self, qid: usize) -> u64 {
        self.per_queue[qid % self.per_queue.len()].get()
    }
}

/// Shared steering helper (also used by the userspace scheduler LabMod):
/// pick the queue whose *service-channel group* carries the least bulk
/// history and the least instantaneous depth.
pub fn least_loaded_queue(dev: &Arc<SimDevice>, history: &BulkHistory, rotate: usize) -> usize {
    let n = dev.num_queues();
    let c = dev.model().channels.max(1);
    let mut group_depth = vec![0usize; c];
    let mut group_bulk = vec![0u64; c];
    for q in 0..n {
        group_depth[q % c] += dev.queue_depth(q);
        group_bulk[q % c] += history.pressure(q);
    }
    (0..n)
        .map(|i| (rotate + i) % n)
        .min_by_key(|&q| (group_bulk[q % c], group_depth[q % c], dev.queue_depth(q)))
        .unwrap_or(0)
}

impl KernelSched for BlkSwitchSched {
    fn name(&self) -> &'static str {
        "blk-switch"
    }

    fn select_queue(
        &self,
        dev: &Arc<SimDevice>,
        core: usize,
        bytes: usize,
        class: IoClass,
    ) -> usize {
        match class {
            IoClass::Latency => self.least_loaded(dev),
            IoClass::Throughput => {
                let home = core % dev.num_queues();
                let qid = if dev.queue_depth(home) > self.congestion_threshold {
                    self.least_loaded(dev)
                } else {
                    home
                };
                self.history.record(qid, bytes);
                qid
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::{BlockDevice, DeviceKind, DeviceModel, IoRequest};

    fn nvme() -> Arc<SimDevice> {
        SimDevice::new(DeviceModel::preset(DeviceKind::Nvme))
    }

    #[test]
    fn noop_maps_by_core() {
        let d = nvme();
        let s = NoopSched;
        let n = d.num_queues();
        assert_eq!(s.select_queue(&d, 0, 4096, IoClass::Latency), 0);
        assert_eq!(s.select_queue(&d, 3, 4096, IoClass::Throughput), 3 % n);
        assert_eq!(s.select_queue(&d, n + 1, 4096, IoClass::Latency), 1);
    }

    #[test]
    fn blk_switch_steers_latency_away_from_congestion() {
        let d = nvme();
        let s = BlkSwitchSched::default();
        // Congest queue 0 with a pile of writes.
        for i in 0..8 {
            d.submit_at(0, IoRequest::write(i * 8, vec![0u8; 512], i), 0)
                .unwrap();
        }
        let q = s.select_queue(&d, 0, 4096, IoClass::Latency);
        assert_ne!(q, 0, "latency request must avoid the congested queue");
    }

    #[test]
    fn blk_switch_keeps_throughput_affinity_when_uncongested() {
        let d = nvme();
        let s = BlkSwitchSched::default();
        assert_eq!(
            s.select_queue(&d, 5, 65536, IoClass::Throughput),
            5 % d.num_queues()
        );
    }

    #[test]
    fn blk_switch_spills_throughput_past_threshold() {
        let d = nvme();
        let s = BlkSwitchSched {
            congestion_threshold: 4,
            ..Default::default()
        };
        for i in 0..6 {
            d.submit_at(2, IoRequest::write(i * 8, vec![0u8; 512], i), 0)
                .unwrap();
        }
        let q = s.select_queue(&d, 2, 65536, IoClass::Throughput);
        assert_ne!(q, 2, "congested home queue must spill");
    }
}
