//! Device error types and deterministic fault injection.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Errors a simulated device can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Access beyond the device capacity.
    OutOfRange {
        /// Requested start LBA.
        lba: u64,
        /// Requested transfer length in sectors.
        sectors: u64,
        /// The device's capacity in sectors.
        capacity_sectors: u64,
    },
    /// Zero-length or non-sector-multiple transfer.
    BadTransfer {
        /// Offending transfer size in bytes.
        bytes: usize,
    },
    /// Injected media failure (see [`FaultConfig`]).
    MediaError {
        /// LBA of the failed command.
        lba: u64,
    },
    /// Injected torn write: only a prefix of the requested sectors landed
    /// on media before the command failed (see [`FaultConfig::set_torn`]).
    TornWrite {
        /// LBA of the torn command.
        lba: u64,
        /// Sectors that actually reached media (a strict prefix).
        sectors_written: u64,
        /// Sectors the command asked for.
        sectors_requested: u64,
    },
    /// The device lost power at a configured virtual time
    /// (see [`FaultConfig::set_crash_at`]); the command did not complete.
    PoweredOff {
        /// Virtual time of the power cut.
        crash_at: u64,
    },
    /// Submitted to a hardware queue id the device does not expose.
    NoSuchQueue {
        /// Requested queue id.
        qid: usize,
        /// Number of queues the device exposes.
        hw_queues: usize,
    },
    /// Byte-addressed access on a device that is not byte-addressable.
    NotByteAddressable,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfRange {
                lba,
                sectors,
                capacity_sectors,
            } => write!(
                f,
                "access at lba {lba} (+{sectors} sectors) beyond capacity {capacity_sectors}"
            ),
            DeviceError::BadTransfer { bytes } => {
                write!(
                    f,
                    "transfer of {bytes} bytes is not a positive sector multiple"
                )
            }
            DeviceError::MediaError { lba } => write!(f, "media error at lba {lba}"),
            DeviceError::TornWrite {
                lba,
                sectors_written,
                sectors_requested,
            } => write!(
                f,
                "torn write at lba {lba}: {sectors_written}/{sectors_requested} sectors landed"
            ),
            DeviceError::PoweredOff { crash_at } => {
                write!(f, "device powered off at virtual time {crash_at}")
            }
            DeviceError::NoSuchQueue { qid, hw_queues } => {
                write!(
                    f,
                    "hardware queue {qid} out of range (device has {hw_queues})"
                )
            }
            DeviceError::NotByteAddressable => {
                write!(f, "device is not byte-addressable")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Deterministic fault injection.
///
/// Every knob is period-based ("fail every nth command") or a fixed
/// virtual-time point, and torn-write prefix lengths derive from a seeded
/// mix of a per-config counter — so a `(seed, knob settings)` pair replays
/// the exact same fault schedule. A period of 0 (the default) disables the
/// corresponding injection. All counters are independent so enabling one
/// fault class does not perturb another's schedule.
///
/// Fault classes:
/// - **Media errors** ([`set_period`](Self::set_period)): the command
///   fails wholesale with [`DeviceError::MediaError`]; no data moves.
/// - **Torn writes** ([`set_torn`](Self::set_torn)): a seeded strict
///   prefix of the write's sectors lands. Loud mode surfaces
///   [`DeviceError::TornWrite`]; silent mode acks success (the journal
///   CRC must catch it on replay).
/// - **Power cut** ([`set_crash_at`](Self::set_crash_at)): commands at or
///   after the cut fail with [`DeviceError::PoweredOff`]; a write
///   straddling the cut lands a seeded prefix (torn by power loss).
#[derive(Debug)]
pub struct FaultConfig {
    period: AtomicU64,
    counter: AtomicU64,
    seed: AtomicU64,
    torn_period: AtomicU64,
    torn_counter: AtomicU64,
    torn_silent: AtomicBool,
    /// Virtual time of the power cut; `u64::MAX` means "never".
    crash_at: AtomicU64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            period: AtomicU64::new(0),
            counter: AtomicU64::new(0),
            seed: AtomicU64::new(0x9E3779B97F4A7C15),
            torn_period: AtomicU64::new(0),
            torn_counter: AtomicU64::new(0),
            torn_silent: AtomicBool::new(false),
            crash_at: AtomicU64::new(u64::MAX),
        }
    }
}

/// xorshift64* finalizer: decorrelates sequential counters into prefix
/// lengths without pulling in an RNG crate.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultConfig {
    /// Fail every `period`-th command from now on (0 disables).
    // api-ok: tests/upgrade_and_recovery.rs fails the device under a stack
    pub fn set_period(&self, period: u64) {
        self.period.store(period, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        self.counter.store(0, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// Returns true if the current command should fail.
    pub fn should_fail(&self) -> bool {
        let period = self.period.load(Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        if period == 0 {
            return false;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: fault-injection knob; guards no other memory
        n.is_multiple_of(period)
    }

    /// Seed the torn-write prefix generator (also resets its counter so a
    /// fresh seed replays a fresh deterministic schedule).
    pub fn set_seed(&self, seed: u64) {
        // Avoid the all-zero xorshift fixed point.
        self.seed.store(seed | 1, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        self.torn_counter.store(0, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// Tear every `period`-th write (0 disables): only a seeded strict
    /// prefix of its sectors lands. With `silent` the device still acks
    /// success; otherwise it completes with [`DeviceError::TornWrite`].
    // api-ok: crates/sim/tests/borrowed_io.rs tears borrowed writes
    pub fn set_torn(&self, period: u64, silent: bool) {
        self.torn_period.store(period, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        self.torn_counter.store(0, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        self.torn_silent.store(silent, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// If the current write should tear, returns how many of its
    /// `sectors` land (a strict prefix, possibly zero). `None` means the
    /// write proceeds in full.
    pub fn torn_sectors(&self, sectors: u64) -> Option<u64> {
        let period = self.torn_period.load(Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        if period == 0 || sectors == 0 {
            return None;
        }
        let n = self.torn_counter.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: fault-injection knob; guards no other memory
        if !n.is_multiple_of(period) {
            return None;
        }
        let seed = self.seed.load(Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        Some(mix64(seed ^ n) % sectors)
    }

    /// Whether torn writes are silent (acked as success).
    pub fn torn_silent(&self) -> bool {
        self.torn_silent.load(Ordering::Relaxed) // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// Cut power at virtual time `at`: commands submitted at or after it
    /// fail with [`DeviceError::PoweredOff`], and a write whose media work
    /// straddles it lands only a seeded prefix of sectors.
    pub fn set_crash_at(&self, at: u64) {
        self.crash_at.store(at, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// Restore power (recovery I/O after a crash runs fault-free).
    pub fn clear_crash(&self) {
        self.crash_at.store(u64::MAX, Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
    }

    /// The configured power-cut time, if one is armed.
    pub fn crash_at(&self) -> Option<u64> {
        let at = self.crash_at.load(Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        (at != u64::MAX).then_some(at)
    }

    /// Seeded prefix length for a write torn by power loss: how many of
    /// its `sectors` land, keyed on the write's start LBA so distinct
    /// straddling writes tear differently.
    pub fn crash_torn_sectors(&self, lba: u64, sectors: u64) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let seed = self.seed.load(Ordering::Relaxed); // relaxed-ok: fault-injection knob; guards no other memory
        mix64(seed ^ lba.wrapping_mul(0xA24B_AED4_963E_E407)) % sectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let f = FaultConfig::default();
        assert!((0..100).all(|_| !f.should_fail()));
    }

    #[test]
    fn fails_every_nth() {
        let f = FaultConfig::default();
        f.set_period(3);
        let fails: Vec<bool> = (0..9).map(|_| f.should_fail()).collect();
        assert_eq!(
            fails,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn torn_writes_are_seeded_and_periodic() {
        let f = FaultConfig::default();
        f.set_seed(42);
        f.set_torn(2, false);
        let a: Vec<Option<u64>> = (0..6).map(|_| f.torn_sectors(8)).collect();
        assert!(a[0].is_none() && a[2].is_none() && a[4].is_none());
        for t in [a[1], a[3], a[5]] {
            assert!(t.expect("every 2nd tears") < 8, "strict prefix");
        }
        // Same seed replays the same schedule.
        let g = FaultConfig::default();
        g.set_seed(42);
        g.set_torn(2, false);
        let b: Vec<Option<u64>> = (0..6).map(|_| g.torn_sectors(8)).collect();
        assert_eq!(a, b);
        // A different seed gives a different schedule (for this seed pair).
        let h = FaultConfig::default();
        h.set_seed(45);
        h.set_torn(2, false);
        let c: Vec<Option<u64>> = (0..6).map(|_| h.torn_sectors(8)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn crash_point_arm_and_clear() {
        let f = FaultConfig::default();
        assert_eq!(f.crash_at(), None);
        f.set_crash_at(1_000);
        assert_eq!(f.crash_at(), Some(1_000));
        let torn = f.crash_torn_sectors(7, 16);
        assert!(torn < 16);
        assert_eq!(torn, f.crash_torn_sectors(7, 16), "lba-keyed, stable");
        f.clear_crash();
        assert_eq!(f.crash_at(), None);
    }

    #[test]
    fn display_messages() {
        let e = DeviceError::OutOfRange {
            lba: 10,
            sectors: 2,
            capacity_sectors: 8,
        };
        assert!(e.to_string().contains("lba 10"));
        assert!(DeviceError::NotByteAddressable
            .to_string()
            .contains("byte-addressable"));
    }
}
