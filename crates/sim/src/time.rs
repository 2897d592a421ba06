//! Virtual-time engine: per-actor clocks and contended-resource
//! reservations.
//!
//! ## Why virtual time
//!
//! The paper's evaluation sweeps up to 24 client threads and 16 Runtime
//! workers on a 48-hardware-thread testbed. Reproducing those *shapes* with
//! wall-clock measurement requires at least that much real parallelism;
//! this reproduction must run anywhere (including single-core CI boxes).
//! So the simulator separates **execution** from **time**:
//!
//! * Execution is real: clients, workers and devices are real threads and
//!   real lock-free data structures; requests genuinely flow through them.
//! * Time is virtual: every actor carries a [`Ctx`] clock (ns). Modeled
//!   costs — device service, syscalls, context switches, IPC hops —
//!   advance the clock arithmetically. Contended resources (device
//!   channels, kernel locks, worker CPUs) are [`Resource`]s reserved with
//!   an atomic compare-exchange max, so serialization, queueing and
//!   saturation emerge exactly as they would from contention on real
//!   hardware, independent of how many host cores execute the simulation.
//!
//! When actor A hands work to actor B (queue pair, completion), B's clock
//! merges forward to the handoff timestamp — the conservative causality
//! rule of a discrete-event simulation, applied at message boundaries.

use std::sync::atomic::{AtomicU64, Ordering};

/// A virtual-time actor context: one per client thread, worker, or other
/// timeline-owning entity.
///
/// Not `Clone`/`Sync` on purpose — a timeline has exactly one owner. Hand
/// timestamps (plain `u64` ns) across threads, not contexts.
#[derive(Debug)]
pub struct Ctx {
    now_ns: u64,
    /// Total ns this actor spent doing modeled work (vs idling forward).
    busy_ns: u64,
}

impl Ctx {
    /// A context starting at virtual time zero.
    pub fn new() -> Self {
        Ctx {
            now_ns: 0,
            busy_ns: 0,
        }
    }

    /// A context starting at `now_ns`.
    pub fn at(now_ns: u64) -> Self {
        Ctx { now_ns, busy_ns: 0 }
    }

    /// Current virtual time in ns.
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// Total modeled busy time accumulated by this actor.
    pub fn busy(&self) -> u64 {
        self.busy_ns
    }

    /// Spend `ns` of modeled work (advances the clock and busy counter).
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
        self.busy_ns += ns;
    }

    /// Jump forward to `t` if it is in the future (idle wait — advances the
    /// clock, not the busy counter). Returns the idle ns skipped.
    pub fn idle_until(&mut self, t: u64) -> u64 {
        if t > self.now_ns {
            let idle = t - self.now_ns;
            self.now_ns = t;
            idle
        } else {
            0
        }
    }

    /// Busy-wait (polling) until `t`: advances the clock *and* the busy
    /// counter, like a polling driver burning its core. Returns ns spent.
    pub fn poll_until(&mut self, t: u64) -> u64 {
        if t > self.now_ns {
            let spent = t - self.now_ns;
            self.now_ns = t;
            self.busy_ns += spent;
            spent
        } else {
            0
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

/// A serially-reusable resource on the virtual timeline: a device channel,
/// a kernel lock, a CPU core. Reservations linearize through an atomic.
#[derive(Debug, Default)]
pub struct Resource {
    free_at: AtomicU64,
}

impl Resource {
    /// New resource, free from time zero.
    pub fn new() -> Self {
        Resource {
            free_at: AtomicU64::new(0),
        }
    }

    /// Reserve the resource for `service_ns` starting no earlier than
    /// `at`. Returns `(start, end)` of the granted slot.
    ///
    /// This is the heart of contention modeling: if the resource is busy
    /// until `f > at`, the caller's slot starts at `f` — i.e. the caller
    /// queues, exactly like a thread spinning on a held lock or a command
    /// waiting for a device channel.
    pub fn acquire(&self, at: u64, service_ns: u64) -> (u64, u64) {
        let mut free = self.free_at.load(Ordering::Relaxed); // relaxed-ok: virtual-time arbitration; the counter is the only shared state
        loop {
            let start = free.max(at);
            let end = start + service_ns;
            match self
                .free_at
                .compare_exchange_weak(free, end, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return (start, end),
                Err(f) => free = f,
            }
        }
    }

    /// When the resource next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at.load(Ordering::Relaxed) // relaxed-ok: virtual-time arbitration; the counter is the only shared state
    }

    /// Reset to free-from-zero (between experiment phases).
    pub fn reset(&self) {
        self.free_at.store(0, Ordering::Relaxed); // relaxed-ok: virtual-time arbitration; the counter is the only shared state
    }
}

/// A pool of interchangeable resources (e.g. a device's internal channels):
/// a reservation takes the channel that frees earliest.
#[derive(Debug)]
pub struct ChannelPool {
    channels: Vec<Resource>,
}

impl ChannelPool {
    /// Pool of `n` channels (minimum 1).
    pub fn new(n: usize) -> Self {
        ChannelPool {
            channels: (0..n.max(1)).map(|_| Resource::new()).collect(),
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if the pool has no channels (never — minimum is 1).
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Reserve `service_ns` on the channel affine to `key` (e.g. a
    /// hardware-queue id). Queue-affine channels give each submission
    /// queue its own service chain — the arbitration that lets one
    /// queue's backlog not stall another queue's commands, as NVMe's
    /// round-robin SQ arbitration does.
    pub fn acquire_affine(&self, key: usize, at: u64, service_ns: u64) -> (u64, u64) {
        self.channels[key % self.channels.len()].acquire(at, service_ns) // lock-class: sim.channel
    }

    /// Reserve `service_ns` on the earliest-free channel from `at`.
    /// Returns `(start, end)`.
    pub fn acquire(&self, at: u64, service_ns: u64) -> (u64, u64) {
        loop {
            let (idx, free) = self
                .channels
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.free_at()))
                .min_by_key(|&(_, f)| f)
                .expect("pool has at least one channel");
            let start = free.max(at);
            let end = start + service_ns;
            if self.channels[idx]
                .free_at
                .compare_exchange(free, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return (start, end);
            }
        }
    }

    /// Reset all channels.
    pub fn reset(&self) {
        for c in &self.channels {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_advances_and_tracks_busy() {
        let mut c = Ctx::new();
        c.advance(100);
        assert_eq!((c.now(), c.busy()), (100, 100));
        assert_eq!(c.idle_until(250), 150);
        assert_eq!((c.now(), c.busy()), (250, 100));
        assert_eq!(c.idle_until(10), 0); // past: no-op
        assert_eq!(c.poll_until(300), 50);
        assert_eq!((c.now(), c.busy()), (300, 150));
    }

    #[test]
    fn resource_serializes_overlapping_requests() {
        let r = Resource::new();
        let (s1, e1) = r.acquire(0, 100);
        let (s2, e2) = r.acquire(0, 100);
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 200)); // queued behind the first
        let (s3, _) = r.acquire(500, 10);
        assert_eq!(s3, 500); // idle gap: starts on request
    }

    #[test]
    fn channel_pool_parallelizes_up_to_width() {
        let p = ChannelPool::new(2);
        let (s1, _) = p.acquire(0, 100);
        let (s2, _) = p.acquire(0, 100);
        let (s3, e3) = p.acquire(0, 100);
        assert_eq!((s1, s2), (0, 0)); // two channels run in parallel
        assert_eq!((s3, e3), (100, 200)); // third queues
    }

    #[test]
    fn pool_reset_clears_reservations() {
        let p = ChannelPool::new(1);
        p.acquire(0, 1000);
        p.reset();
        assert_eq!(p.acquire(0, 10), (0, 10));
    }

    #[test]
    fn concurrent_resource_reservations_never_overlap() {
        use std::sync::Arc;
        let r = Arc::new(Resource::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut slots = Vec::new();
                for _ in 0..1000 {
                    slots.push(r.acquire(0, 7));
                }
                slots
            }));
        }
        let mut all: Vec<(u64, u64)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        // Slots must tile [0, 7*4000) with no overlap and no gap.
        for (i, &(s, e)) in all.iter().enumerate() {
            assert_eq!(s, i as u64 * 7);
            assert_eq!(e, s + 7);
        }
    }
}
