//! Device performance models calibrated against the paper's testbed.
//!
//! The paper's Chameleon "storage hierarchy" node carries an Intel P3700
//! NVMe (2 TB), an Intel SSDSC2BX01 SATA SSD (1.6 TB), a Seagate
//! ST600MP0005 SAS HDD (600 GB) and bootloader-emulated PMEM. The presets
//! below use the published datasheet characteristics of those parts.

/// Which class of storage hardware a model describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Rotational disk: single actuator, seek + rotational penalties.
    Hdd,
    /// SATA/SAS solid-state drive: AHCI single submission queue.
    SataSsd,
    /// NVMe SSD: many hardware queues, deep internal parallelism, pollable.
    Nvme,
    /// Persistent memory: byte-addressable, accessed with loads/stores.
    Pmem,
}

impl DeviceKind {
    /// Short lowercase label used in reports and bench output.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::Hdd => "hdd",
            DeviceKind::SataSsd => "ssd",
            DeviceKind::Nvme => "nvme",
            DeviceKind::Pmem => "pmem",
        }
    }
}

/// Performance/shape parameters of a simulated device.
///
/// Service time of one transfer is
/// `base_latency + bytes / bandwidth (+ positioning penalty on HDDs)`,
/// executed on one of `channels` internal channels (concurrent transfers
/// beyond that queue up), submitted through one of `hw_queues` hardware
/// queues.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// Total capacity in bytes.
    pub(crate) capacity: u64,
    /// Fixed per-command read latency in ns (controller + media access).
    pub(crate) read_latency_ns: u64,
    /// Fixed per-command write latency in ns.
    pub write_latency_ns: u64,
    /// Sustained read bandwidth in bytes per second.
    pub(crate) read_bw_bps: u64,
    /// Sustained write bandwidth in bytes per second.
    pub(crate) write_bw_bps: u64,
    /// Internal parallelism: number of transfers serviced concurrently.
    pub channels: usize,
    /// Number of hardware submission/completion queue pairs exposed.
    pub hw_queues: usize,
    /// Average positioning penalty (seek + rotation) in ns for a
    /// non-contiguous access. Zero for solid-state devices.
    pub(crate) seek_ns: u64,
    /// LBA distance (in sectors) above which an access pays `seek_ns`.
    pub(crate) seek_threshold_sectors: u64,
    /// True if the device is byte-addressable via load/store (PMEM).
    pub(crate) byte_addressable: bool,
}

impl DeviceModel {
    /// Intel P3700-class NVMe SSD (the paper's NVMe device).
    ///
    /// Datasheet: ~20 µs read / ~20 µs write 4K latency class; we use
    /// 10 µs write base + bandwidth so a 4 KB write services in ~11.5 µs,
    /// matching Fig. 4a where "I/O" is ~66% of a ~17 µs total.
    pub(crate) fn nvme_p3700(capacity: u64) -> Self {
        DeviceModel {
            capacity,
            read_latency_ns: 8_000,
            write_latency_ns: 10_000,
            read_bw_bps: 2_800_000_000,
            write_bw_bps: 1_900_000_000,
            channels: 16,
            hw_queues: 32,
            seek_ns: 0,
            seek_threshold_sectors: 0,
            byte_addressable: false,
        }
    }

    /// Intel SSDSC2BX01-class SATA SSD (the paper's SSD device).
    pub(crate) fn sata_ssd(capacity: u64) -> Self {
        DeviceModel {
            capacity,
            read_latency_ns: 55_000,
            write_latency_ns: 60_000,
            read_bw_bps: 550_000_000,
            write_bw_bps: 500_000_000,
            channels: 8,
            hw_queues: 1,
            seek_ns: 0,
            seek_threshold_sectors: 0,
            byte_addressable: false,
        }
    }

    /// Seagate ST600MP0005-class 15K SAS HDD (the paper's HDD device).
    ///
    /// 15 000 RPM → 2 ms average rotational latency; ~2.5 ms average seek.
    pub(crate) fn hdd_15k(capacity: u64) -> Self {
        DeviceModel {
            capacity,
            read_latency_ns: 100_000,
            write_latency_ns: 100_000,
            read_bw_bps: 250_000_000,
            write_bw_bps: 230_000_000,
            channels: 1,
            hw_queues: 1,
            seek_ns: 4_500_000,
            seek_threshold_sectors: 256,
            byte_addressable: false,
        }
    }

    /// Bootloader-emulated persistent memory (DRAM-backed, as in the paper).
    pub(crate) fn pmem(capacity: u64) -> Self {
        DeviceModel {
            capacity,
            read_latency_ns: 300,
            write_latency_ns: 500,
            read_bw_bps: 8_000_000_000,
            write_bw_bps: 6_000_000_000,
            channels: 8,
            hw_queues: 1,
            seek_ns: 0,
            seek_threshold_sectors: 0,
            byte_addressable: true,
        }
    }

    /// Preset for a device kind with a default lab-scale capacity
    /// (big enough for every experiment, small enough to stay sparse).
    pub fn preset(kind: DeviceKind) -> Self {
        // Capacities are the paper's devices scaled down 1000x; data is
        // sparse so this only bounds LBA ranges.
        match kind {
            DeviceKind::Nvme => Self::nvme_p3700(2_000_000_000),
            DeviceKind::SataSsd => Self::sata_ssd(1_600_000_000),
            DeviceKind::Hdd => Self::hdd_15k(600_000_000),
            DeviceKind::Pmem => Self::pmem(1_000_000_000),
        }
    }

    /// Model service time in ns for a transfer of `bytes`, ignoring
    /// positioning penalties (those depend on head position — see
    /// [`crate::SimDevice`]).
    pub fn transfer_ns(&self, write: bool, bytes: usize) -> u64 {
        let (lat, bw) = if write {
            (self.write_latency_ns, self.write_bw_bps)
        } else {
            (self.read_latency_ns, self.read_bw_bps)
        };
        lat + (bytes as u64).saturating_mul(1_000_000_000) / bw.max(1)
    }

    /// Capacity in 512-byte sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity / crate::SECTOR_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_shapes() {
        let nvme = DeviceModel::preset(DeviceKind::Nvme);
        let ssd = DeviceModel::preset(DeviceKind::SataSsd);
        let hdd = DeviceModel::preset(DeviceKind::Hdd);
        let pmem = DeviceModel::preset(DeviceKind::Pmem);
        // Latency ordering: pmem < nvme < ssd < hdd.
        assert!(pmem.write_latency_ns < nvme.write_latency_ns);
        assert!(nvme.write_latency_ns < ssd.write_latency_ns);
        assert!(ssd.write_latency_ns < hdd.write_latency_ns + hdd.seek_ns);
        // Only the HDD seeks; only PMEM is byte-addressable.
        assert!(hdd.seek_ns > 0 && nvme.seek_ns == 0);
        assert!(pmem.byte_addressable && !nvme.byte_addressable);
        // NVMe is multi-queue, SATA is single-queue.
        assert!(nvme.hw_queues > 1 && ssd.hw_queues == 1);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = DeviceModel::preset(DeviceKind::Nvme);
        let t4k = m.transfer_ns(true, 4096);
        let t128k = m.transfer_ns(true, 128 * 1024);
        assert!(t128k > t4k);
        // The size-dependent component should dominate at 128 KB.
        assert!(t128k - m.write_latency_ns > (t4k - m.write_latency_ns) * 20);
    }

    #[test]
    fn read_faster_than_write_on_nvme() {
        let m = DeviceModel::preset(DeviceKind::Nvme);
        assert!(m.transfer_ns(false, 4096) < m.transfer_ns(true, 4096));
    }

    #[test]
    fn capacity_sectors_round() {
        let m = DeviceModel::nvme_p3700(1024 * 1024);
        assert_eq!(m.capacity_sectors(), 2048);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DeviceKind::Nvme.label(), "nvme");
        assert_eq!(DeviceKind::Hdd.label(), "hdd");
        assert_eq!(DeviceKind::SataSsd.label(), "ssd");
        assert_eq!(DeviceKind::Pmem.label(), "pmem");
    }
}
