//! Hardware submission/completion queues for simulated devices.
//!
//! A `HwQueue` mirrors an NVMe queue pair: commands are *submitted* and
//! their completions are later *polled*. Each submitted command carries a
//! virtual-time deadline computed by the device's channel model; `reap`
//! surfaces completions whose deadline has passed on the caller's
//! timeline. The device genuinely works "in parallel" with the CPU: a
//! submitting actor's clock does not advance while the command is in
//! flight.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use labstor_telemetry::Stat;

use crate::device::BlockDevice;
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
/// visible to `reap` once the caller's virtual clock reaches `due`.
pub(crate) struct PendingIo {
    pub(crate) due: u64,
    pub(crate) completion: Completion,
}

/// One hardware submission/completion queue pair.
///
/// The mutex maps to per-queue hardware serialization: contention on one
/// `HwQueue` models doorbell/CQ contention on one NVMe queue pair, which is
/// exactly why real multi-queue drivers give each core its own pair.
#[derive(Default)]
pub(crate) struct HwQueue {
    pending: Mutex<VecDeque<PendingIo>>,
}

impl HwQueue {
    pub(crate) fn push(&self, io: PendingIo) {
        self.pending.lock().push_back(io); // lock-class: sim.queue
    }

    /// Number of commands submitted but not yet reaped.
    pub(crate) fn depth(&self) -> usize {
        self.pending.lock().len() // lock-class: sim.queue
    }

    /// Reap the oldest completion if it is due at or before virtual time
    /// `now`.
    ///
    /// Completions are reaped in submission order per queue (like an NVMe
    /// completion queue): a due entry behind a not-yet-due entry waits,
    /// which models in-order CQ consumption on one queue pair.
    pub(crate) fn reap(&self, now: u64) -> Option<Completion> {
        let mut q = self.pending.lock(); // lock-class: sim.queue
        match q.front() {
            Some(p) if p.due <= now => q.pop_front().map(|p| p.completion),
            _ => None,
        }
    }

    /// Virtual time at which the *next* (oldest) pending command completes.
    /// A poller can `poll_until` this to model spin-polling for it.
    pub(crate) fn next_due(&self) -> Option<u64> {
        self.pending.lock().front().map(|p| p.due) // lock-class: sim.queue
    }

    /// The latest deadline currently queued (used to implement flush
    /// barriers). `None` when the queue is empty.
    pub(crate) fn last_due(&self) -> Option<u64> {
        self.pending.lock().iter().map(|p| p.due).max() // lock-class: sim.queue
    }
}

/// Completions reaped from a shared hardware queue on behalf of other
/// waiters: like Linux's IRQ path, whoever reaps completes everything it
/// finds and leaves the others' completions here for them.
#[derive(Default)]
pub struct CompletionStash {
    by_tag: Mutex<HashMap<u64, Completion>>,
    /// Entries in `by_tag`, kept under its lock: while it reads 0 a waiter
    /// skips the lock and the hash. A stale 0 only sends it round its wait
    /// loop once more.
    held: Stat,
}

impl CompletionStash {
    /// `tag`'s completion, if another waiter stashed it.
    pub fn take(&self, tag: u64) -> Option<Completion> {
        if self.held.get() == 0 {
            return None;
        }
        let mut by_tag = self.by_tag.lock(); // lock-class: block.stash
        let c = by_tag.remove(&tag)?;
        self.held.sub(1);
        Some(c)
    }

    /// Reap up to `max` completions of queue `qid` due by `now`, in order,
    /// and return `tag`'s if it was among them; stash the others.
    pub fn reap(
        &self,
        dev: &dyn BlockDevice,
        qid: usize,
        now: u64,
        max: usize,
        tag: u64,
    ) -> Option<Completion> {
        let mut found = None;
        for _ in 0..max {
            let Some(c) = dev.reap(qid, now) else {
                break;
            };
            if c.tag == tag {
                found = Some(c);
            } else {
                let mut by_tag = self.by_tag.lock(); // lock-class: block.stash
                by_tag.insert(c.tag, c);
                self.held.add(1);
            }
        }
        found
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
        assert_eq!(q.reap(150).map(|c| c.tag), Some(1));
        assert!(q.reap(150).is_none());
        assert_eq!(q.depth(), 1);
        assert_eq!(q.next_due(), Some(200));
    }

    #[test]
    fn poll_is_in_order() {
        let q = HwQueue::default();
        // First entry not due yet: the due one behind it must wait.
        q.push(done(1, 500));
        q.push(done(2, 100));
        assert!(q.reap(200).is_none());
        assert_eq!(q.reap(500).map(|c| c.tag), Some(1));
        assert_eq!(q.reap(500).map(|c| c.tag), Some(2));
    }

    #[test]
    fn poll_honors_max() {
        let dev = crate::SimDevice::preset(crate::DeviceKind::Nvme);
        for t in 0..10 {
            dev.submit_at(0, IoRequest::flush(t), 0).unwrap();
        }
        let stash = CompletionStash::default();
        assert!(stash.reap(dev.as_ref(), 0, u64::MAX, 3, 99).is_none());
        assert_eq!(dev.queue_depth(0), 7);
        // The three reaped are stashed for their waiters, once each.
        assert_eq!(stash.take(1).map(|c| c.tag), Some(1));
        assert!(stash.take(1).is_none());
        assert_eq!(stash.held.get(), 2);
        let c = stash.reap(dev.as_ref(), 0, u64::MAX, 16, 5);
        assert_eq!(c.map(|c| c.tag), Some(5));
        assert_eq!((dev.queue_depth(0), stash.held.get()), (0, 8));
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
