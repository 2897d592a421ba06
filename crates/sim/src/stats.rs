//! Lock-free per-device statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative device statistics, updated with relaxed atomics on the hot
/// path and read coherently enough for reporting (individual counters are
/// exact; cross-counter snapshots are approximate, which is fine for the
/// throughput/latency aggregates the harnesses report).
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Completed read commands.
    pub reads: AtomicU64,
    /// Completed write commands.
    pub writes: AtomicU64,
    /// Bytes read from media.
    pub bytes_read: AtomicU64,
    /// Bytes written to media.
    pub bytes_written: AtomicU64,
    /// Total modeled service time spent on media, in ns.
    pub busy_ns: AtomicU64,
    /// Accesses that paid a positioning (seek) penalty.
    pub seeks: AtomicU64,
    /// Commands that failed (fault injection or out-of-range).
    pub errors: AtomicU64,
}

/// A point-in-time copy of [`DeviceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Bytes read from media.
    pub bytes_read: u64,
    /// Bytes written to media.
    pub bytes_written: u64,
    /// Total modeled media service time in ns.
    pub busy_ns: u64,
    /// Accesses that paid a positioning penalty.
    pub seeks: u64,
    /// Failed commands.
    pub errors: u64,
}

impl DeviceStats {
    /// Record a completed command.
    pub fn record(&self, write: bool, bytes: usize, service_ns: u64, seeked: bool) {
        if write {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.bytes_written
                .fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
        if seeked {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a failed command.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total completed commands.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = DeviceStats::default();
        s.record(true, 4096, 1000, false);
        s.record(false, 512, 500, true);
        s.record_error();
        let snap = s.snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.bytes_written, 4096);
        assert_eq!(snap.bytes_read, 512);
        assert_eq!(snap.busy_ns, 1500);
        assert_eq!(snap.seeks, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.ops(), 2);
        assert_eq!(snap.bytes(), 4608);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = DeviceStats::default();
        s.record(true, 1, 1, true);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = std::sync::Arc::new(DeviceStats::default());
        let mut handles = vec![];
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record(true, 1, 1, false);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().writes, 8000);
    }
}
