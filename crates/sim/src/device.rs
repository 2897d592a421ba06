//! The RAM-backed simulated block device.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::error::{DeviceError, FaultConfig};
use crate::model::DeviceModel;
use crate::queue::{Completion, HwQueue, IoOp, IoRequest, PendingIo};
use crate::stats::DeviceStats;
use crate::time::{ChannelPool, Ctx};
use crate::SECTOR_SIZE;

/// Sectors per lazily-allocated backing chunk (128 KB chunks).
const CHUNK_SECTORS: u64 = 256;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;
/// Chunk slots per lazily-created group (32 MB of device).
const GROUP_CHUNKS: usize = 256;
type ChunkSlot = RwLock<Option<Box<[u8]>>>;

/// Object-safe interface to a block device, implemented by [`SimDevice`].
///
/// Kept minimal on purpose: higher layers (the simulated kernel block layer,
/// Driver LabMods) build their submission paths on these primitives.
pub trait BlockDevice: Send + Sync {
    /// The device's performance model.
    fn model(&self) -> &DeviceModel;
    /// Cumulative statistics.
    fn stats(&self) -> &DeviceStats;
    /// Submit a command to hardware queue `qid` at virtual time `at`,
    /// without waiting for it.
    fn submit_at(&self, qid: usize, req: IoRequest<'_>, at: u64) -> Result<(), DeviceError>;
    /// Reap the oldest completion of queue `qid` if it is due at or
    /// before virtual time `now`.
    fn reap(&self, qid: usize, now: u64) -> Option<Completion>;
    /// Virtual deadline of the oldest in-flight command on `qid`, if any.
    fn next_due(&self, qid: usize) -> Option<u64>;
    /// Synchronously read `buf.len()` bytes at `lba`, advancing the
    /// caller's clock to completion. Returns modeled service ns.
    fn read(&self, ctx: &mut Ctx, lba: u64, buf: &mut [u8]) -> Result<u64, DeviceError>;
    /// Synchronously write `buf` at `lba`, advancing the caller's clock to
    /// completion. Returns modeled service ns.
    fn write(&self, ctx: &mut Ctx, lba: u64, buf: &[u8]) -> Result<u64, DeviceError>;
}

/// A simulated storage device: sparse RAM-backed media plus the timing
/// model described in [`crate::model`].
///
/// # Timing
///
/// Each command reserves the internal *channel* that frees up earliest
/// (`ChannelPool`); its completion deadline is
/// `max(now, channel_free) + service`. Synchronous callers advance their
/// virtual clock to the deadline; asynchronous callers discover it via
/// [`BlockDevice::reap`]. Channel occupancy creates genuine queueing when
/// offered load exceeds the device's internal parallelism.
///
/// # Data visibility
///
/// Write payloads land in the backing store at submission. A read that is
/// submitted after a write but polled before the write's virtual deadline
/// can observe the new data "early" — the same window a real drive's
/// volatile write cache exposes, so higher layers must not rely on
/// completion order for durability (that is what flushes are for).
pub struct SimDevice {
    model: DeviceModel,
    stats: DeviceStats,
    faults: FaultConfig,
    /// Sparse backing store, one slot per 128 KB chunk; the slots
    /// themselves come into being a group at a time, on first touch, so
    /// creating a device costs the same whatever its capacity.
    chunks: Vec<OnceLock<Box<[ChunkSlot]>>>,
    /// Internal channel pool (virtual-time reservations).
    channels: ChannelPool,
    /// Hardware submission/completion queue pairs.
    queues: Vec<HwQueue>,
    /// Head position for the seek model (sector after last access).
    head: AtomicU64,
}

impl SimDevice {
    /// Create a device from a model.
    pub fn new(model: DeviceModel) -> Arc<Self> {
        let n_chunks = model.capacity_sectors().div_ceil(CHUNK_SECTORS) as usize;
        Arc::new(SimDevice {
            chunks: (0..n_chunks.div_ceil(GROUP_CHUNKS))
                .map(|_| OnceLock::new())
                .collect(),
            channels: ChannelPool::new(model.channels),
            queues: (0..model.hw_queues.max(1))
                .map(|_| HwQueue::default())
                .collect(),
            head: AtomicU64::new(0),
            stats: DeviceStats::default(),
            faults: FaultConfig::default(),
            model,
        })
    }

    /// Create a device from a preset kind.
    pub fn preset(kind: crate::DeviceKind) -> Arc<Self> {
        Self::new(DeviceModel::preset(kind))
    }

    /// Fault injection controls.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Number of hardware queues exposed.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Commands submitted but not yet reaped on queue `qid` (0 for an
    /// unknown queue id). Load-aware schedulers key off this.
    pub fn queue_depth(&self, qid: usize) -> usize {
        self.queues.get(qid).map(|q| q.depth()).unwrap_or(0)
    }

    fn validate(&self, lba: u64, bytes: usize) -> Result<(), DeviceError> {
        if bytes == 0 || !bytes.is_multiple_of(SECTOR_SIZE) {
            return Err(DeviceError::BadTransfer { bytes });
        }
        let sectors = (bytes / SECTOR_SIZE) as u64;
        let cap = self.model.capacity_sectors();
        if lba + sectors > cap {
            return Err(DeviceError::OutOfRange {
                lba,
                sectors,
                capacity_sectors: cap,
            });
        }
        Ok(())
    }

    /// Compute the modeled service time and whether a seek was paid.
    fn service_ns(&self, write: bool, lba: u64, bytes: usize) -> (u64, bool) {
        let mut ns = self.model.transfer_ns(write, bytes);
        let mut seeked = false;
        if self.model.seek_ns > 0 {
            let end = lba + (bytes / SECTOR_SIZE) as u64;
            let prev = self.head.swap(end, Ordering::Relaxed); // relaxed-ok: seek-model bookkeeping for the simulated head position
            let dist = prev.abs_diff(lba);
            if dist > self.model.seek_threshold_sectors {
                ns += self.model.seek_ns;
                seeked = true;
            }
        }
        (ns, seeked)
    }

    /// Deliver an async completion on `queue`, due at `due`.
    fn deliver(
        &self,
        queue: &HwQueue,
        tag: u64,
        result: Result<Vec<u8>, DeviceError>,
        service_ns: u64,
        due: u64,
    ) {
        queue.push(PendingIo {
            due,
            completion: Completion {
                tag,
                result,
                service_ns,
                done_at: due,
            },
        });
    }

    fn slot(&self, chunk_idx: usize) -> &ChunkSlot {
        let group = self.chunks[chunk_idx / GROUP_CHUNKS]
            .get_or_init(|| (0..GROUP_CHUNKS).map(|_| RwLock::new(None)).collect());
        &group[chunk_idx % GROUP_CHUNKS]
    }

    /// Copy `src` into the sparse backing store at `lba`.
    fn store(&self, lba: u64, src: &[u8]) {
        for (chunk_idx, chunk_off, span) in chunk_spans(lba, src.len()) {
            let mut slot = self.slot(chunk_idx).write(); // lock-class: sim.chunk
            let chunk = slot.get_or_insert_with(|| vec![0u8; CHUNK_BYTES].into_boxed_slice());
            chunk[chunk_off..chunk_off + span.len()].copy_from_slice(&src[span]);
        }
    }

    /// Walk the stored bytes of `[lba, lba + bytes)` in order: `sink`
    /// gets each span of the transfer with the chunk bytes under it, or
    /// `None` where nothing was ever written (a hole reads as zeroes).
    fn load(&self, lba: u64, bytes: usize, mut sink: impl FnMut(Range<usize>, Option<&[u8]>)) {
        for (chunk_idx, chunk_off, span) in chunk_spans(lba, bytes) {
            let slot = self.slot(chunk_idx).read(); // lock-class: sim.chunk
            let stored = slot
                .as_deref()
                .map(|c| &c[chunk_off..chunk_off + span.len()]);
            sink(span, stored);
        }
    }

    /// Read the range at `lba` into all of `dst`.
    fn load_into(&self, lba: u64, dst: &mut [u8]) {
        self.load(lba, dst.len(), |span, stored| match stored {
            Some(src) => dst[span].copy_from_slice(src),
            None => dst[span].fill(0),
        });
    }

    /// Read `len` bytes at `lba` into a fresh `Vec`, each byte written once.
    fn load_vec(&self, lba: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.load(lba, len, |span, stored| match stored {
            Some(src) => out.extend_from_slice(src),
            None => out.resize(span.end, 0),
        });
        out
    }
}

/// Cut the transfer `[lba, lba + bytes)` at backing-chunk boundaries:
/// `(chunk index, offset in the chunk, span of the transfer)` per piece.
fn chunk_spans(lba: u64, bytes: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let start = lba as usize * SECTOR_SIZE;
    let mut done = 0usize;
    std::iter::from_fn(move || {
        let off = start + done;
        let n = (CHUNK_BYTES - off % CHUNK_BYTES).min(bytes - done);
        let span = done..done + n;
        done += n;
        (n > 0).then_some((off / CHUNK_BYTES, off % CHUNK_BYTES, span))
    })
}

impl BlockDevice for SimDevice {
    fn model(&self) -> &DeviceModel {
        &self.model
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn submit_at(&self, qid: usize, req: IoRequest<'_>, at: u64) -> Result<(), DeviceError> {
        let queue = self.queues.get(qid).ok_or(DeviceError::NoSuchQueue {
            qid,
            hw_queues: self.queues.len(),
        })?;
        // Power cut: from `crash_at` on the device is dead. The host's
        // driver observes this immediately, so the command fails with a
        // typed completion rather than hanging a poller.
        if let Some(cut) = self.faults.crash_at() {
            if at >= cut {
                self.stats.record_error();
                self.deliver(
                    queue,
                    req.tag,
                    Err(DeviceError::PoweredOff { crash_at: cut }),
                    0,
                    at,
                );
                return Ok(());
            }
        }
        if self.faults.should_fail() {
            // The media burns the command's modeled bus/transfer time
            // before reporting failure, so the error completion is
            // charged in virtual time like a success would be.
            let service_ns = match req.op {
                IoOp::Flush => 0,
                IoOp::Write => self.model.transfer_ns(true, req.data.len()),
                IoOp::Read => self.model.transfer_ns(false, req.len),
            };
            self.stats.record_error();
            let due = if service_ns > 0 {
                self.channels.acquire_affine(qid, at, service_ns).1
            } else {
                at
            };
            self.deliver(
                queue,
                req.tag,
                Err(DeviceError::MediaError { lba: req.lba }),
                service_ns,
                due,
            );
            return Ok(());
        }
        match req.op {
            IoOp::Flush => {
                // Barrier: due when everything queued ahead of it is due.
                let due = queue.last_due().unwrap_or(at).max(at);
                if let Some(cut) = self.faults.crash_at() {
                    if due > cut {
                        // Power died before the barrier resolved: no
                        // durability point was reached.
                        self.stats.record_error();
                        self.deliver(
                            queue,
                            req.tag,
                            Err(DeviceError::PoweredOff { crash_at: cut }),
                            0,
                            due,
                        );
                        return Ok(());
                    }
                }
                self.deliver(queue, req.tag, Ok(Vec::new()), 0, due);
            }
            IoOp::Write => {
                if let Err(e) = self.validate(req.lba, req.data.len()) {
                    self.stats.record_error();
                    self.deliver(queue, req.tag, Err(e), 0, at);
                    return Ok(());
                }
                let (ns, seeked) = self.service_ns(true, req.lba, req.data.len());
                let sectors = (req.data.len() / SECTOR_SIZE) as u64;
                // Queue-affine channel: one queue's backlog does not block
                // other queues' commands (NVMe round-robin SQ arbitration).
                let due = self.channels.acquire_affine(qid, at, ns).1;
                if let Some(cut) = self.faults.crash_at() {
                    if due > cut {
                        // The media work straddles the power cut: a seeded
                        // prefix of sectors lands, the rest is lost, and
                        // the host sees the typed error at the cut.
                        let landed = self.faults.crash_torn_sectors(req.lba, sectors);
                        self.store(req.lba, &req.data[..landed as usize * SECTOR_SIZE]);
                        self.stats.record_error();
                        self.deliver(
                            queue,
                            req.tag,
                            Err(DeviceError::PoweredOff { crash_at: cut }),
                            ns,
                            due.max(cut),
                        );
                        return Ok(());
                    }
                }
                if let Some(landed) = self.faults.torn_sectors(sectors) {
                    self.store(req.lba, &req.data[..landed as usize * SECTOR_SIZE]);
                    if self.faults.torn_silent() {
                        // Silent tear: acked as a full success — only a
                        // checksum on replay can tell the difference.
                        self.stats.record(true, req.data.len(), ns, seeked);
                        self.deliver(queue, req.tag, Ok(Vec::new()), ns, due);
                    } else {
                        self.stats.record_error();
                        self.deliver(
                            queue,
                            req.tag,
                            Err(DeviceError::TornWrite {
                                lba: req.lba,
                                sectors_written: landed,
                                sectors_requested: sectors,
                            }),
                            ns,
                            due,
                        );
                    }
                    return Ok(());
                }
                self.store(req.lba, &req.data);
                self.stats.record(true, req.data.len(), ns, seeked);
                self.deliver(queue, req.tag, Ok(Vec::new()), ns, due);
            }
            IoOp::Read => {
                // Like a write's payload, a lent destination is the length.
                let len = req.dest.as_ref().map_or(req.len, |dst| dst.len());
                if let Err(e) = self.validate(req.lba, len) {
                    self.stats.record_error();
                    self.deliver(queue, req.tag, Err(e), 0, at);
                    return Ok(());
                }
                let (ns, seeked) = self.service_ns(false, req.lba, len);
                let due = self.channels.acquire_affine(qid, at, ns).1;
                if let Some(cut) = self.faults.crash_at() {
                    if due > cut {
                        // The device died before the data came back.
                        self.stats.record_error();
                        self.deliver(
                            queue,
                            req.tag,
                            Err(DeviceError::PoweredOff { crash_at: cut }),
                            ns,
                            due.max(cut),
                        );
                        return Ok(());
                    }
                }
                let data = match req.dest {
                    Some(dst) => {
                        self.load_into(req.lba, dst);
                        Vec::new()
                    }
                    None => self.load_vec(req.lba, len),
                };
                self.stats.record(false, len, ns, seeked);
                self.deliver(queue, req.tag, Ok(data), ns, due);
            }
        }
        Ok(())
    }

    fn reap(&self, qid: usize, now: u64) -> Option<Completion> {
        self.queues.get(qid).and_then(|q| q.reap(now))
    }

    fn next_due(&self, qid: usize) -> Option<u64> {
        self.queues.get(qid).and_then(|q| q.next_due())
    }

    fn read(&self, ctx: &mut Ctx, lba: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        self.validate(lba, buf.len())?;
        if let Some(cut) = self.faults.crash_at() {
            if ctx.now() >= cut {
                self.stats.record_error();
                return Err(DeviceError::PoweredOff { crash_at: cut });
            }
        }
        if self.faults.should_fail() {
            // Charge the bus time the failed command consumed.
            let ns = self.model.transfer_ns(false, buf.len());
            let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
            self.stats.record_error();
            ctx.idle_until(end);
            return Err(DeviceError::MediaError { lba });
        }
        let (ns, seeked) = self.service_ns(false, lba, buf.len());
        let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
        if let Some(cut) = self.faults.crash_at() {
            if end > cut {
                // The device died before the data came back.
                self.stats.record_error();
                ctx.idle_until(cut);
                return Err(DeviceError::PoweredOff { crash_at: cut });
            }
        }
        self.load_into(lba, buf);
        self.stats.record(false, buf.len(), ns, seeked);
        ctx.idle_until(end);
        Ok(ns)
    }

    fn write(&self, ctx: &mut Ctx, lba: u64, buf: &[u8]) -> Result<u64, DeviceError> {
        self.validate(lba, buf.len())?;
        if let Some(cut) = self.faults.crash_at() {
            if ctx.now() >= cut {
                self.stats.record_error();
                return Err(DeviceError::PoweredOff { crash_at: cut });
            }
        }
        if self.faults.should_fail() {
            // Charge the bus time the failed command consumed.
            let ns = self.model.transfer_ns(true, buf.len());
            let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
            self.stats.record_error();
            ctx.idle_until(end);
            return Err(DeviceError::MediaError { lba });
        }
        let (ns, seeked) = self.service_ns(true, lba, buf.len());
        let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
        let sectors = (buf.len() / SECTOR_SIZE) as u64;
        if let Some(cut) = self.faults.crash_at() {
            if end > cut {
                // Power loss mid-write: a seeded prefix of sectors lands,
                // the rest is lost, and the caller never gets an ack.
                let landed = self.faults.crash_torn_sectors(lba, sectors);
                self.store(lba, &buf[..landed as usize * SECTOR_SIZE]);
                self.stats.record_error();
                ctx.idle_until(cut);
                return Err(DeviceError::PoweredOff { crash_at: cut });
            }
        }
        if let Some(landed) = self.faults.torn_sectors(sectors) {
            self.store(lba, &buf[..landed as usize * SECTOR_SIZE]);
            ctx.idle_until(end);
            if self.faults.torn_silent() {
                // Silent tear: acked as a full success.
                self.stats.record(true, buf.len(), ns, seeked);
                return Ok(ns);
            }
            self.stats.record_error();
            return Err(DeviceError::TornWrite {
                lba,
                sectors_written: landed,
                sectors_requested: sectors,
            });
        }
        self.store(lba, buf);
        self.stats.record(true, buf.len(), ns, seeked);
        ctx.idle_until(end);
        Ok(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DeviceKind, DeviceModel};

    fn dev(kind: DeviceKind) -> Arc<SimDevice> {
        SimDevice::new(DeviceModel::preset(kind))
    }

    /// Every completion of queue 0 due by `now`, in order.
    fn reap_all(d: &SimDevice, now: u64) -> Vec<Completion> {
        std::iter::from_fn(|| d.reap(0, now)).collect()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        d.write(&mut ctx, 100, &data).unwrap();
        let mut out = vec![0u8; 4096];
        d.read(&mut ctx, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unwritten_reads_as_zero() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        let mut out = vec![0xFFu8; 512];
        d.read(&mut ctx, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn cross_chunk_transfer() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        // Straddle the 256-sector chunk boundary.
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 255) as u8).collect();
        d.write(&mut ctx, CHUNK_SECTORS - 8, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        d.read(&mut ctx, CHUNK_SECTORS - 8, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let d = dev(DeviceKind::Hdd);
        let cap = d.model().capacity_sectors();
        let mut buf = vec![0u8; 512];
        let mut ctx = Ctx::new();
        assert!(matches!(
            d.read(&mut ctx, cap, &mut buf),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn non_sector_transfer_rejected() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        assert!(matches!(
            d.write(&mut ctx, 0, &[1, 2, 3]),
            Err(DeviceError::BadTransfer { .. })
        ));
        let mut empty: [u8; 0] = [];
        assert!(matches!(
            d.read(&mut ctx, 0, &mut empty),
            Err(DeviceError::BadTransfer { .. })
        ));
    }

    #[test]
    fn sync_io_advances_clock_by_model_time() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        let buf = vec![0u8; 4096];
        let ns = d.write(&mut ctx, 0, &buf).unwrap();
        assert_eq!(ns, d.model().transfer_ns(true, 4096));
        assert_eq!(ctx.now(), ns);
    }

    #[test]
    fn async_submit_poll_roundtrip() {
        let d = dev(DeviceKind::Nvme);
        d.submit_at(0, IoRequest::write(0, vec![7u8; 512], 42), 0)
            .unwrap();
        let due = d.next_due(0).expect("one in flight");
        assert!(d.reap(0, due - 1).is_none(), "not due yet");
        let c = reap_all(&d, due);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].tag, 42);
        d.submit_at(0, IoRequest::read(0, 512, 43), due).unwrap();
        let due2 = d.next_due(0).unwrap();
        let c = reap_all(&d, due2);
        assert_eq!(c[0].result.as_ref().unwrap(), &vec![7u8; 512]);
    }

    #[test]
    fn bad_queue_id_rejected() {
        let d = dev(DeviceKind::SataSsd); // 1 hw queue
        assert!(matches!(
            d.submit_at(5, IoRequest::flush(0), 0),
            Err(DeviceError::NoSuchQueue { .. })
        ));
    }

    #[test]
    fn fault_injection_fails_op() {
        let d = dev(DeviceKind::Nvme);
        d.faults().set_period(1); // fail everything
        let mut buf = vec![0u8; 512];
        let mut ctx = Ctx::new();
        assert!(matches!(
            d.read(&mut ctx, 0, &mut buf),
            Err(DeviceError::MediaError { .. })
        ));
        assert_eq!(d.stats().snapshot().errors, 1);
    }

    #[test]
    fn media_errors_are_charged_in_virtual_time() {
        let d = dev(DeviceKind::Nvme);
        d.faults().set_period(1);
        // Sync: the failed read still advances the caller's clock.
        let mut ctx = Ctx::new();
        let mut buf = vec![0u8; 4096];
        assert!(matches!(
            d.read(&mut ctx, 0, &mut buf),
            Err(DeviceError::MediaError { .. })
        ));
        assert_eq!(ctx.now(), d.model().transfer_ns(false, 4096));
        // Async: the error completion's deadline reflects the bus time.
        d.submit_at(0, IoRequest::write(0, vec![0u8; 4096], 1), 0)
            .unwrap();
        let c = reap_all(&d, u64::MAX);
        assert_eq!(c.len(), 1);
        assert!(matches!(c[0].result, Err(DeviceError::MediaError { .. })));
        assert_eq!(c[0].service_ns, d.model().transfer_ns(true, 4096));
        assert!(c[0].done_at >= c[0].service_ns);
    }

    #[test]
    fn torn_write_lands_prefix_and_surfaces_typed_error() {
        let d = dev(DeviceKind::Nvme);
        d.faults().set_seed(7);
        d.faults().set_torn(1, false);
        let mut ctx = Ctx::new();
        let data = vec![0xABu8; 8 * 512];
        let landed = match d.write(&mut ctx, 0, &data) {
            Err(DeviceError::TornWrite {
                sectors_written,
                sectors_requested,
                ..
            }) => {
                assert_eq!(sectors_requested, 8);
                assert!(sectors_written < 8);
                sectors_written
            }
            other => panic!("expected TornWrite, got {other:?}"),
        };
        d.faults().set_torn(0, false);
        let mut out = vec![0u8; 8 * 512];
        d.read(&mut ctx, 0, &mut out).unwrap();
        let cut = landed as usize * 512;
        assert!(out[..cut].iter().all(|&b| b == 0xAB));
        assert!(out[cut..].iter().all(|&b| b == 0));
    }

    #[test]
    fn silent_torn_write_acks_success() {
        let d = dev(DeviceKind::Nvme);
        d.faults().set_seed(9);
        d.faults().set_torn(1, true);
        let mut ctx = Ctx::new();
        let data = vec![0xCDu8; 4 * 512];
        d.write(&mut ctx, 0, &data).expect("silent tear acks");
        d.faults().set_torn(0, false);
        let mut out = vec![0u8; 4 * 512];
        d.read(&mut ctx, 0, &mut out).unwrap();
        assert_ne!(out, data, "only a strict prefix landed");
    }

    #[test]
    fn power_cut_kills_later_commands_and_tears_straddlers() {
        let d = dev(DeviceKind::Nvme);
        let mut ctx = Ctx::new();
        d.write(&mut ctx, 0, &[1u8; 512]).unwrap();
        // Cut power mid-way through the next write's service window.
        d.faults().set_crash_at(ctx.now() + 1);
        assert!(matches!(
            d.write(&mut ctx, 8, &[2u8; 8 * 512]),
            Err(DeviceError::PoweredOff { .. })
        ));
        // The device is now dead: even a zero-length-of-time op fails.
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            d.read(&mut ctx, 0, &mut buf),
            Err(DeviceError::PoweredOff { .. })
        ));
        // Restore power: pre-cut data intact, straddler at most a prefix.
        d.faults().clear_crash();
        let mut ctx2 = Ctx::new();
        d.read(&mut ctx2, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 512]);
        let mut out = vec![0u8; 8 * 512];
        d.read(&mut ctx2, 8, &mut out).unwrap();
        let landed = out.iter().take_while(|&&b| b == 2).count();
        assert!(landed < 8 * 512, "straddling write must not land fully");
        assert!(out[landed..].iter().all(|&b| b == 0));
    }

    #[test]
    fn hdd_pays_seek_on_random_access() {
        let d = dev(DeviceKind::Hdd);
        let buf = vec![0u8; 4096];
        let mut ctx = Ctx::new();
        d.write(&mut ctx, 0, &buf).unwrap();
        let before = ctx.now();
        d.write(&mut ctx, 500_000, &buf).unwrap(); // far away: seek
        let with_seek = ctx.now() - before;
        let before = ctx.now();
        d.write(&mut ctx, 500_008, &buf).unwrap(); // sequential: no seek
        let without_seek = ctx.now() - before;
        assert_eq!(d.stats().snapshot().seeks, 1);
        assert!(with_seek > without_seek + d.model().seek_ns / 2);
    }

    #[test]
    fn channels_limit_concurrency() {
        // A 1-channel device serializes two overlapping sync writes.
        let mut m = DeviceModel::preset(DeviceKind::Nvme);
        m.channels = 1;
        let d = SimDevice::new(m);
        let service = d.model().transfer_ns(true, 512);
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        d.write(&mut a, 0, &[0u8; 512]).unwrap();
        d.write(&mut b, 8, &[0u8; 512]).unwrap();
        assert_eq!(a.now(), service);
        assert_eq!(b.now(), 2 * service); // queued behind a
    }

    #[test]
    fn wide_device_parallelizes() {
        let mut m = DeviceModel::preset(DeviceKind::Nvme);
        m.channels = 4;
        let d = SimDevice::new(m);
        let service = d.model().transfer_ns(true, 512);
        let ends: Vec<u64> = (0..4)
            .map(|i| {
                let mut ctx = Ctx::new();
                d.write(&mut ctx, i * 8, &[0u8; 512]).unwrap();
                ctx.now()
            })
            .collect();
        assert!(
            ends.iter().all(|&e| e == service),
            "all four run in parallel: {ends:?}"
        );
    }

    #[test]
    fn flush_is_barrier() {
        let d = dev(DeviceKind::Nvme);
        d.submit_at(0, IoRequest::write(0, vec![0u8; 512], 1), 0)
            .unwrap();
        let write_due = d.next_due(0).unwrap();
        d.submit_at(0, IoRequest::flush(2), 0).unwrap();
        // Flush is due no earlier than the write.
        let c = reap_all(&d, write_due);
        assert_eq!(c.len(), 2);
        assert_eq!((c[0].tag, c[1].tag), (1, 2));
        assert!(c[1].done_at >= c[0].done_at);
    }
}
