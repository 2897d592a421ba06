//! Double-buffered journal flush: a foreground buffer swap plus a
//! background flush daemon.
//!
//! LabFS and LabKVS both append metadata records to per-worker in-memory
//! logs and persist them as journal frames (see [`crate::journal`]).
//! Before this module the persist step wrote the device synchronously on
//! the caller's clock, so an fsync stalled its worker for the full media
//! time of every buffered frame. The daemon splits that into two halves:
//!
//! * **Kick (foreground)** — the caller, holding its log's mutex, swaps
//!   the pending records out, reserves the frame's sectors, sequence
//!   number and chain value, seals it, and hands the bytes to the daemon.
//!   Appends can keep filling a fresh frame while the old one flushes.
//! * **Flush (background)** — a single daemon thread writes each frame on
//!   its own virtual-time line, one device write per frame. Jobs run
//!   FIFO, which keeps each log's sequence chain in submission order on
//!   media; a frame counts as durable only once its write returned.
//!
//! # Virtual-time accounting
//!
//! The daemon's clock for a job starts at
//! `max(durable_vt, submit_vt)` — a flush can neither begin before the
//! foreground kicked it (`submit_vt`, causality) nor before the previous
//! flush finished (`durable_vt`, the device work is serialized through
//! one daemon). [`FlushDaemon::sync`] then charges the *waiter* with
//! `idle_until(durable_vt)`: the caller's envelope pays exactly the
//! wall-clock it would have waited for durability, but as idle time, not
//! busy time — the device work itself is no longer billed to the
//! envelope's busy counter.
//!
//! # Errors
//!
//! The foreground half still fails fast (region-full is detected before
//! any cursor moves). Device errors happen on the daemon thread after the
//! cursors already advanced, so they are *sticky*: the first one is
//! latched and every subsequent [`FlushDaemon::sync`] reports it until
//! crash recovery calls [`FlushDaemon::reset`]. That latch is what makes
//! background kicks safe — a frame that silently died in the background
//! leaves a hole in the journal chain, and the latch guarantees no later
//! durability point can report `Ok` past that hole.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use labstor_sim::{BlockDevice, Ctx, DeviceError, SimDevice};

/// One sealed-but-unwritten journal frame.
struct FlushJob {
    frame: Vec<u8>,
    /// Device sector the frame starts at.
    sector: u64,
    /// Caller's virtual time at the kick; the flush cannot start earlier.
    submit_vt: u64,
}

struct Shared {
    device: Arc<SimDevice>,
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<FlushJob>,
    /// A job has been popped but its device write is still running.
    in_flight: bool,
    /// Virtual time at which everything flushed so far is durable.
    durable_vt: u64,
    /// First device error, latched until [`FlushDaemon::reset`].
    first_err: Option<DeviceError>,
    stop: bool,
}

/// Background flush daemon, one per module instance. See module docs.
pub struct FlushDaemon {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl FlushDaemon {
    /// Spawn the daemon for `device`.
    pub fn new(device: Arc<SimDevice>) -> Self {
        let shared = Arc::new(Shared {
            device,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        });
        let worker = shared.clone();
        let handle = std::thread::Builder::new()
            .name("labstor-flush".into())
            .spawn(move || Self::run(&worker))
            .expect("spawn flush daemon");
        FlushDaemon {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Foreground half: enqueue one sealed frame for device `sector`.
    /// The caller has already swapped the records out of its log and
    /// advanced the log's cursors — the daemon only does device work.
    pub fn submit(&self, frame: Vec<u8>, sector: u64, submit_vt: u64) {
        let mut st = self.shared.state.lock();
        st.queue.push_back(FlushJob {
            frame,
            sector,
            submit_vt,
        });
        self.shared.cv.notify_all();
    }

    /// Durability point: wait until every submitted frame is on the
    /// device, charge the waiter's clock up to the durable instant, and
    /// surface any latched flush error.
    pub fn sync(&self, ctx: &mut Ctx) -> Result<(), DeviceError> {
        let mut st = self.shared.state.lock();
        while st.in_flight || !st.queue.is_empty() {
            self.shared.cv.wait(&mut st);
        }
        let durable = st.durable_vt;
        let err = st.first_err.clone();
        drop(st);
        ctx.idle_until(durable);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Wait until the daemon is idle without touching anyone's clock
    /// (upgrade/maintenance paths that need quiescence, not durability
    /// accounting).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while st.in_flight || !st.queue.is_empty() {
            self.shared.cv.wait(&mut st);
        }
    }

    /// Crash-recovery reset: drop queued work (the crash beat it to the
    /// device — replay trusts media, not these buffers), wait out any
    /// in-flight write, clear the error latch, and rewind the durability
    /// clock for the post-recovery timeline.
    pub fn reset(&self) {
        let mut st = self.shared.state.lock();
        st.queue.clear();
        while st.in_flight {
            self.shared.cv.wait(&mut st);
        }
        st.queue.clear();
        st.first_err = None;
        st.durable_vt = 0;
    }

    /// Carry durability-clock and error-latch continuity from the
    /// instance being replaced during an upgrade.
    pub fn absorb(&self, prev: &FlushDaemon) {
        prev.drain();
        let (vt, err) = {
            let st = prev.shared.state.lock();
            (st.durable_vt, st.first_err.clone())
        };
        let mut st = self.shared.state.lock();
        st.durable_vt = st.durable_vt.max(vt);
        if st.first_err.is_none() {
            st.first_err = err;
        }
    }

    fn run(shared: &Shared) {
        loop {
            let (job, durable_vt) = {
                let mut st = shared.state.lock();
                loop {
                    if st.stop {
                        return;
                    }
                    if let Some(job) = st.queue.pop_front() {
                        st.in_flight = true;
                        break (job, st.durable_vt);
                    }
                    shared.cv.wait(&mut st);
                }
            };
            // Device work runs on the daemon's own timeline, outside the
            // state lock so kicks never wait on media. One write per
            // frame: the frame seals itself, so nothing has to follow it.
            let mut ctx = Ctx::at(durable_vt.max(job.submit_vt));
            let res = shared.device.write(&mut ctx, job.sector, &job.frame);
            let mut st = shared.state.lock();
            st.durable_vt = st.durable_vt.max(ctx.now());
            if let Err(e) = res {
                st.first_err.get_or_insert(e);
            }
            st.in_flight = false;
            shared.cv.notify_all();
        }
    }
}

impl Drop for FlushDaemon {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.stop = true;
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
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
        let daemon = FlushDaemon::new(dev.clone());
        let mut log = LogRegion::new(0, 64);
        for seq in 1..=3u8 {
            log.append(&daemon, 0, |b| b.extend_from_slice(&[seq; 100]));
            log.kick(&daemon, 0).unwrap();
        }
        let mut ctx = Ctx::new();
        daemon.sync(&mut ctx).unwrap();
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
        let daemon = FlushDaemon::new(dev.clone());
        // Out-of-range start sector: the write fails on the device.
        let far = dev.model().capacity_sectors() + 10;
        daemon.submit(vec![1u8; SECTOR_SIZE], far, 0);
        let mut ctx = Ctx::new();
        assert!(matches!(
            daemon.sync(&mut ctx),
            Err(DeviceError::OutOfRange { .. })
        ));
        // Still latched on a later, healthy flush.
        daemon.submit(vec![2u8; SECTOR_SIZE], 0, 0);
        assert!(daemon.sync(&mut ctx).is_err());
        daemon.reset();
        daemon.submit(vec![3u8; SECTOR_SIZE], 0, 0);
        assert!(daemon.sync(&mut ctx).is_ok());
    }

    #[test]
    fn sync_with_nothing_queued_is_cheap_and_ok() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let daemon = FlushDaemon::new(dev);
        let mut ctx = Ctx::new();
        assert!(daemon.sync(&mut ctx).is_ok());
        assert_eq!(ctx.now(), 0);
    }
}
