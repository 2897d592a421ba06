//! Journal frame writes on the flush timeline: a foreground buffer swap
//! plus a frame writer with a virtual-time line of its own.
//!
//! LabFS and LabKVS both append metadata records to per-worker in-memory
//! logs and persist them as journal frames (see [`crate::journal`]).
//! Writing the device on the caller's clock would stall its worker for
//! the full media time of every buffered frame. A flush has two halves
//! instead, both run by the thread that kicks it:
//!
//! * **Kick** — the caller, holding its log's mutex, swaps the pending
//!   records out, reserves the frame's sectors, sequence number and chain
//!   value, seals it, and hands the bytes to the [`FrameWriter`]. Appends
//!   keep filling a fresh frame.
//! * **Write** — the writer issues the frame as one device write under
//!   its mutex, on the flush timeline rather than the caller's clock.
//!   The mutex orders the writes, which keeps each log's sequence chain
//!   in submission order on media; a frame counts as durable once its
//!   write returned, which it has by the time `submit` returns.
//!
//! # Virtual-time accounting
//!
//! A frame's write starts at `max(durable_vt, submit_vt)` — it can
//! neither begin before the foreground kicked it (`submit_vt`, causality)
//! nor before the previous frame finished (`durable_vt`, frames are
//! serialized on one timeline). [`FrameWriter::sync`] then charges the
//! *waiter* with `idle_until(durable_vt)`: the caller's envelope pays
//! exactly the wall-clock it would have waited for durability, but as
//! idle time, not busy time — the device work itself is never billed to
//! the envelope's busy counter.
//!
//! # Errors
//!
//! The kick fails fast (region-full is detected before any cursor moves).
//! Device errors happen after the cursors already advanced, and a kick
//! from `append` has nobody to report to, so they are *sticky*: the first
//! one is latched and every subsequent [`FrameWriter::sync`] reports it
//! until crash recovery calls [`FrameWriter::reset`]. A failed frame
//! leaves a hole in the journal chain, and the latch guarantees no later
//! durability point can report `Ok` past that hole.

use std::sync::Arc;

use parking_lot::Mutex;

use labstor_sim::{BlockDevice, Ctx, DeviceError, SimDevice};

#[derive(Default)]
struct State {
    /// Virtual time at which everything written so far is durable.
    durable_vt: u64,
    /// First device error, latched until [`FrameWriter::reset`].
    first_err: Option<DeviceError>,
}

/// The journal's frame writer, one per module instance. See module docs.
pub struct FrameWriter {
    device: Arc<SimDevice>,
    state: Mutex<State>,
}

impl FrameWriter {
    /// A writer for `device`.
    pub fn new(device: Arc<SimDevice>) -> Self {
        FrameWriter {
            device,
            state: Mutex::new(State::default()),
        }
    }

    /// Write one sealed frame at device `sector` on the flush timeline.
    /// The caller has already swapped the records out of its log and
    /// advanced the log's cursors — the writer only does device work.
    pub fn submit(&self, frame: Vec<u8>, sector: u64, submit_vt: u64) {
        let mut st = self.state.lock();
        // One write per frame: the frame seals itself, so nothing has to
        // follow it.
        let mut ctx = Ctx::at(st.durable_vt.max(submit_vt));
        if let Err(e) = self.device.write(&mut ctx, sector, &frame) {
            st.first_err.get_or_insert(e);
        }
        st.durable_vt = ctx.now();
    }

    /// Durability point: every submitted frame is on the device, so
    /// charge the waiter's clock up to the durable instant and surface
    /// any latched write error.
    pub fn sync(&self, ctx: &mut Ctx) -> Result<(), DeviceError> {
        let (durable, err) = {
            let st = self.state.lock();
            (st.durable_vt, st.first_err.clone())
        };
        ctx.idle_until(durable);
        err.map_or(Ok(()), Err)
    }

    /// Crash-recovery reset: clear the error latch and rewind the
    /// durability clock for the post-recovery timeline.
    pub fn reset(&self) {
        *self.state.lock() = State::default();
    }

    /// Carry durability-clock and error-latch continuity from the
    /// instance being replaced during an upgrade.
    pub fn absorb(&self, prev: &FrameWriter) {
        let (vt, err) = {
            let st = prev.state.lock();
            (st.durable_vt, st.first_err.clone())
        };
        let mut st = self.state.lock();
        st.durable_vt = st.durable_vt.max(vt);
        if st.first_err.is_none() {
            st.first_err = err;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{replay_scan, LogRegion};
    use labstor_sim::{DeviceKind, SECTOR_SIZE};

    fn read_sectors(dev: &Arc<SimDevice>) -> impl Fn(u64, u64) -> Option<Vec<u8>> + '_ {
        move |sector, n| {
            let mut ctx = Ctx::new();
            let mut buf = vec![0u8; n as usize * SECTOR_SIZE];
            dev.read(&mut ctx, sector, &mut buf).ok().map(|_| buf)
        }
    }

    #[test]
    fn flushes_are_replayable_and_sync_reports_durable_time() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let writer = FrameWriter::new(dev.clone());
        let mut log = LogRegion::new(0, 64);
        for seq in 1..=3u8 {
            log.append(&writer, 0, |b| b.extend_from_slice(&[seq; 100]));
            log.kick(&writer, 0).unwrap();
        }
        let mut ctx = Ctx::new();
        writer.sync(&mut ctx).unwrap();
        // The waiter's clock moved to the durable instant, as idle time.
        assert!(ctx.now() > 0);
        assert_eq!(ctx.busy(), 0);
        assert_eq!(
            dev.stats().snapshot().writes,
            3,
            "one device write per frame"
        );
        let outcome = replay_scan(64, read_sectors(&dev));
        assert_eq!(outcome.txns.len(), 3);
        assert_eq!(outcome.txns[2].0, 3);
        assert!(!outcome.torn_tail);
    }

    #[test]
    fn device_error_is_sticky_until_reset() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let writer = FrameWriter::new(dev.clone());
        // Out-of-range start sector: the write fails on the device.
        let far = dev.model().capacity_sectors() + 10;
        writer.submit(vec![1u8; SECTOR_SIZE], far, 0);
        let mut ctx = Ctx::new();
        assert!(matches!(
            writer.sync(&mut ctx),
            Err(DeviceError::OutOfRange { .. })
        ));
        // Still latched on a later, healthy flush.
        writer.submit(vec![2u8; SECTOR_SIZE], 0, 0);
        assert!(writer.sync(&mut ctx).is_err());
        writer.reset();
        writer.submit(vec![3u8; SECTOR_SIZE], 0, 0);
        assert!(writer.sync(&mut ctx).is_ok());
    }

    #[test]
    fn sync_with_nothing_queued_is_cheap_and_ok() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let writer = FrameWriter::new(dev);
        let mut ctx = Ctx::new();
        assert!(writer.sync(&mut ctx).is_ok());
        assert_eq!(ctx.now(), 0);
    }
}
