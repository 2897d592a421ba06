//! Lock-free per-device statistics counters.

use labstor_telemetry::Stat;

/// Cumulative device statistics: one [`Stat`] per counter, so each
/// counter is exact while a cross-counter [`DeviceStats::snapshot`] is
/// approximate, which is fine for the throughput/latency aggregates the
/// harnesses report.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Completed read commands.
    reads: Stat,
    /// Completed write commands.
    writes: Stat,
    /// Bytes read from media.
    bytes_read: Stat,
    /// Bytes written to media.
    bytes_written: Stat,
    /// Total modeled service time spent on media, in ns.
    busy_ns: Stat,
    /// Accesses that paid a positioning (seek) penalty.
    seeks: Stat,
    /// Commands that failed (fault injection or out-of-range).
    errors: Stat,
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
            self.writes.add(1);
            self.bytes_written.add(bytes as u64);
        } else {
            self.reads.add(1);
            self.bytes_read.add(bytes as u64);
        }
        self.busy_ns.add(service_ns);
        if seeked {
            self.seeks.add(1);
        }
    }

    /// Record a failed command.
    pub fn record_error(&self) {
        self.errors.add(1);
    }

    /// Copy out the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            busy_ns: self.busy_ns.get(),
            seeks: self.seeks.get(),
            errors: self.errors.get(),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.bytes_read.set(0);
        self.bytes_written.set(0);
        self.busy_ns.set(0);
        self.seeks.set(0);
        self.errors.set(0);
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
