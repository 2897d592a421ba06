//! Hardware submission/completion queues for simulated devices.
//!
//! A [`HwQueue`] mirrors an NVMe queue pair: commands are *submitted* and
//! their completions are later *polled*. Each submitted command carries a
//! virtual-time deadline computed by the device's channel model; `poll`
//! surfaces completions whose deadline has passed on the caller's
//! timeline. The device genuinely works "in parallel" with the CPU: a
//! submitting actor's clock does not advance while the command is in
//! flight.

use std::borrow::Cow;
use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::error::DeviceError;

/// Kind of I/O command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Read `len` bytes starting at `lba`.
    Read,
    /// Write the request payload starting at `lba`.
    Write,
    /// Barrier: completes when all previously submitted commands on the
    /// same queue have completed.
    Flush,
}

/// A block I/O command addressed to a device hardware queue.
///
/// The command borrows its buffers for `'a`: the device moves the bytes
/// at submission ([`crate::BlockDevice::submit_at`]) and keeps nothing of
/// the request afterwards, so a caller that waits for the completion can
/// lend a slice it owns instead of giving up a `Vec`.
#[derive(Debug)]
pub struct IoRequest<'a> {
    /// Command kind.
    pub op: IoOp,
    /// Starting logical block address (in 512-byte sectors).
    pub lba: u64,
    /// Transfer length in bytes (sector multiple). For writes this must
    /// equal `data.len()`, for [`IoRequest::read_into`] `dest.len()`.
    pub len: usize,
    /// Payload for writes, lent or owned; empty for reads and flushes.
    pub data: Cow<'a, [u8]>,
    /// Where a read lands. `Some`: the device fills all of it at
    /// submission — or, if the command fails, none of it — and the
    /// completion carries an empty `Vec`. `None`: the completion carries
    /// the bytes.
    pub dest: Option<&'a mut [u8]>,
    /// Caller-chosen tag returned in the matching [`Completion`].
    pub tag: u64,
}

impl<'a> IoRequest<'a> {
    /// Build a read request whose bytes come back in the completion.
    pub fn read(lba: u64, len: usize, tag: u64) -> Self {
        IoRequest {
            op: IoOp::Read,
            lba,
            len,
            data: Cow::Borrowed(&[]),
            dest: None,
            tag,
        }
    }

    /// Build a read request that lands in `dest`.
    pub fn read_into(lba: u64, dest: &'a mut [u8], tag: u64) -> Self {
        IoRequest {
            len: dest.len(),
            dest: Some(dest),
            ..IoRequest::read(lba, 0, tag)
        }
    }

    /// Build a write request. A `Vec<u8>` is moved in, a `&'a [u8]` lent;
    /// neither is copied.
    pub fn write(lba: u64, data: impl Into<Cow<'a, [u8]>>, tag: u64) -> Self {
        let data = data.into();
        IoRequest {
            op: IoOp::Write,
            lba,
            len: data.len(),
            data,
            dest: None,
            tag,
        }
    }

    /// Build a flush barrier.
    pub fn flush(tag: u64) -> Self {
        IoRequest {
            op: IoOp::Flush,
            ..IoRequest::read(0, 0, tag)
        }
    }

    /// Detach the command from its caller's buffers, for a queue that
    /// holds it past the call that built it. A lent write payload is
    /// copied (an owned one is moved); a `read_into` becomes a `read` of
    /// the same range, its bytes arriving in the completion instead.
    pub fn into_owned(self) -> IoRequest<'static> {
        IoRequest {
            op: self.op,
            lba: self.lba,
            len: self.len,
            // copy-ok: this is the copy `into_owned` names; the lint sees its call sites
            data: Cow::Owned(self.data.into_owned()),
            dest: None,
            tag: self.tag,
        }
    }
}

/// Result of a completed command.
#[derive(Debug)]
pub struct Completion {
    /// Tag of the originating [`IoRequest`].
    pub tag: u64,
    /// Read data (empty for writes/flushes) or the failure.
    pub result: Result<Vec<u8>, DeviceError>,
    /// Modeled media service time in ns.
    pub service_ns: u64,
    /// Virtual time at which the command completed.
    pub done_at: u64,
}

impl Completion {
    /// True if the command succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// A command whose media work has been scheduled and which becomes
/// visible to `poll` once the caller's virtual clock reaches `due`.
pub(crate) struct PendingIo {
    pub due: u64,
    pub completion: Completion,
}

/// One hardware submission/completion queue pair.
///
/// The mutex maps to per-queue hardware serialization: contention on one
/// `HwQueue` models doorbell/CQ contention on one NVMe queue pair, which is
/// exactly why real multi-queue drivers give each core its own pair.
#[derive(Default)]
pub struct HwQueue {
    pending: Mutex<VecDeque<PendingIo>>,
}

impl HwQueue {
    pub(crate) fn push(&self, io: PendingIo) {
        self.pending.lock().push_back(io); // lock-class: sim.queue
    }

    /// Number of commands submitted but not yet reaped.
    pub fn depth(&self) -> usize {
        self.pending.lock().len() // lock-class: sim.queue
    }

    /// Reap up to `max` completions due at or before virtual time `now`.
    ///
    /// Completions are reaped in submission order per queue (like an NVMe
    /// completion queue): a due entry behind a not-yet-due entry waits,
    /// which models in-order CQ consumption on one queue pair.
    pub fn poll(&self, now: u64, max: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut q = self.pending.lock(); // lock-class: sim.queue
        while out.len() < max {
            match q.front() {
                Some(p) if p.due <= now => {
                    out.push(q.pop_front().expect("front checked").completion);
                }
                _ => break,
            }
        }
        out
    }

    /// Virtual time at which the *next* (oldest) pending command completes.
    /// A poller can `poll_until` this to model spin-polling for it.
    pub fn next_due(&self) -> Option<u64> {
        self.pending.lock().front().map(|p| p.due) // lock-class: sim.queue
    }

    /// The latest deadline currently queued (used to implement flush
    /// barriers). `None` when the queue is empty.
    pub(crate) fn last_due(&self) -> Option<u64> {
        self.pending.lock().iter().map(|p| p.due).max() // lock-class: sim.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(tag: u64, due: u64) -> PendingIo {
        PendingIo {
            due,
            completion: Completion {
                tag,
                result: Ok(Vec::new()),
                service_ns: 0,
                done_at: due,
            },
        }
    }

    #[test]
    fn poll_respects_deadlines() {
        let q = HwQueue::default();
        q.push(done(1, 100));
        q.push(done(2, 200));
        let c = q.poll(150, 16);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].tag, 1);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.next_due(), Some(200));
    }

    #[test]
    fn poll_is_in_order() {
        let q = HwQueue::default();
        // First entry not due yet: the due one behind it must wait.
        q.push(done(1, 500));
        q.push(done(2, 100));
        assert!(q.poll(200, 16).is_empty());
        assert_eq!(q.poll(500, 16).len(), 2);
    }

    #[test]
    fn poll_honors_max() {
        let q = HwQueue::default();
        for t in 0..10 {
            q.push(done(t, 0));
        }
        assert_eq!(q.poll(0, 3).len(), 3);
        assert_eq!(q.depth(), 7);
    }

    #[test]
    fn request_constructors() {
        let r = IoRequest::write(8, vec![0u8; 1024], 7);
        assert_eq!(r.len, 1024);
        assert_eq!(r.op, IoOp::Write);
        assert!(matches!(r.data, Cow::Owned(_)), "a Vec is moved in");
        let lent = [1u8; 512];
        let r = IoRequest::write(8, &lent[..], 7);
        assert_eq!(r.len, 512);
        assert!(matches!(r.data, Cow::Borrowed(_)), "a slice is lent");
        let r = IoRequest::read(8, 512, 9);
        assert_eq!(r.op, IoOp::Read);
        assert!(r.data.is_empty() && r.dest.is_none());
        let mut dest = [0u8; 1024];
        let r = IoRequest::read_into(8, &mut dest, 9);
        assert_eq!((r.op, r.len), (IoOp::Read, 1024));
        assert!(r.dest.is_some());
        assert_eq!(IoRequest::flush(1).op, IoOp::Flush);
    }

    #[test]
    fn into_owned_detaches_from_the_callers_buffers() {
        let lent = [3u8; 512];
        let r = IoRequest::write(8, &lent[..], 7).into_owned();
        assert!(matches!(&r.data, Cow::Owned(v) if v[..] == lent));
        let mut dest = [0u8; 512];
        let r = IoRequest::read_into(16, &mut dest, 9).into_owned();
        assert_eq!((r.op, r.lba, r.len, r.tag), (IoOp::Read, 16, 512, 9));
        assert!(r.dest.is_none(), "the bytes come back in the completion");
    }
}
