//! An OrangeFS-like parallel filesystem and the VPIC/BD-CATS workloads
//! that run over it (Fig. 9a).
//!
//! The paper's deployment: "We use OrangeFS with the metadata server
//! deployed separately from the data servers and with a stripe size of
//! 64KB." The metadata server's *local* I/O stack is what the experiment
//! varies (kernel filesystems vs LabFS LabStacks); the data servers are
//! raw devices of varying kinds.
//!
//! [`Pfs`] reproduces that topology: one metadata server (any
//! [`FsTarget`] — its timeline is the MDS's own CPU, so clients queue at
//! it exactly like RPCs at a busy server) plus `N` data servers striping
//! file contents 64 KB at a time.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::Stat;

use crate::stats::Recorder;
use crate::targets::FsTarget;

/// PFS deployment parameters.
#[derive(Debug, Clone)]
pub struct PfsConfig {
    /// Stripe size in bytes (the paper uses 64 KB).
    pub(crate) stripe: usize,
    /// One-way network latency per RPC in ns (HPC interconnect class).
    pub(crate) net_ns: u64,
    /// Network bandwidth in bytes/sec.
    pub(crate) net_bw_bps: u64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            stripe: 64 * 1024,
            net_ns: 8_000,
            net_bw_bps: 10_000_000_000,
        }
    }
}

/// The parallel filesystem.
pub struct Pfs {
    /// The metadata server's request-service threads ("trove" threads in
    /// OrangeFS terms), each a timeline over the *same* local stack —
    /// concurrent RPCs contend on the stack's own locks, which is exactly
    /// what the experiment varies.
    mds_pool: Vec<Mutex<Box<dyn FsTarget + Send>>>,
    mds_rr: std::sync::atomic::AtomicUsize,
    mds_ops: Stat,
    data: Vec<Arc<SimDevice>>,
    cfg: PfsConfig,
    /// Per-data-server allocation cursors (sectors).
    cursors: Vec<Mutex<u64>>,
    /// (file, stripe index) → (server, lba).
    layout: Mutex<HashMap<(String, u64), (usize, u64)>>,
}

impl Pfs {
    /// Build a PFS over a pool of metadata-service targets (all views of
    /// one local stack) and data-server devices.
    pub fn new(
        mds_pool: Vec<Box<dyn FsTarget + Send>>,
        data: Vec<Arc<SimDevice>>,
        cfg: PfsConfig,
    ) -> Self {
        assert!(!mds_pool.is_empty(), "need at least one MDS service thread");
        Pfs {
            mds_pool: mds_pool.into_iter().map(Mutex::new).collect(),
            mds_rr: std::sync::atomic::AtomicUsize::new(0),
            mds_ops: Stat::new(0),
            cursors: (0..data.len()).map(|_| Mutex::new(0)).collect(),
            data,
            cfg,
            layout: Mutex::new(HashMap::new()),
        }
    }

    /// Metadata operations served so far.
    pub fn mds_ops(&self) -> u64 {
        self.mds_ops.get()
    }

    /// One metadata RPC: the client's clock travels to the MDS, one of the
    /// MDS service threads performs a real operation on the shared local
    /// stack, the reply travels back. MDS saturation emerges because each
    /// service thread's timeline only moves forward and the local stack's
    /// locks are shared across threads.
    fn meta_rpc(
        &self,
        client: &mut Ctx,
        op: impl FnOnce(&mut dyn FsTarget) -> Result<(), String>,
    ) -> Result<(), String> {
        let idx = self.mds_rr.fetch_add(1, std::sync::atomic::Ordering::Relaxed) // relaxed-ok: fresh-id allocation; atomicity alone suffices
            % self.mds_pool.len();
        let mut mds = self.mds_pool[idx].lock();
        self.mds_ops.add(1);
        let arrive = client.now() + self.cfg.net_ns;
        mds.sync_to(arrive);
        op(mds.as_mut())?;
        let done = mds.now_ns();
        client.idle_until(done + self.cfg.net_ns);
        Ok(())
    }

    /// Register a file's stripe `idx` with the MDS (create-on-first-touch
    /// semantics: a dfile metadata object is created on the MDS's local
    /// stack, a pure metadata operation).
    fn ensure_stripe(
        &self,
        client: &mut Ctx,
        file: &str,
        idx: u64,
    ) -> Result<(usize, u64), String> {
        if let Some(&loc) = self.layout.lock().get(&(file.to_string(), idx)) {
            // Known stripe: still a lookup RPC (stripe location query).
            let path = format!("{}_s{idx}", meta_path(file));
            self.meta_rpc(client, move |mds| {
                let _ = mds.stat_size(&path)?;
                Ok(())
            })?;
            return Ok(loc);
        }
        // New stripe: create the dfile metadata object.
        self.meta_rpc(client, |mds| {
            let fd = mds.open(&format!("{}_s{idx}", meta_path(file)), true, false)?;
            mds.close(fd)?;
            Ok(())
        })?;
        // Allocate the stripe on a data server (round robin by stripe).
        let server = (idx as usize) % self.data.len();
        let sectors = (self.cfg.stripe / labstor_sim::SECTOR_SIZE) as u64;
        let lba = {
            let mut cur = self.cursors[server].lock();
            let lba = *cur;
            *cur += sectors;
            lba
        };
        self.layout
            .lock()
            .insert((file.to_string(), idx), (server, lba));
        Ok((server, lba))
    }

    /// Write `data` to `file` at `offset` from a client with clock `ctx`.
    pub fn write(&self, ctx: &mut Ctx, file: &str, offset: u64, data: &[u8]) -> Result<(), String> {
        let stripe = self.cfg.stripe as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let idx = abs / stripe;
            let within = (abs % stripe) as usize;
            let n = (self.cfg.stripe - within).min(data.len() - pos);
            let (server, lba) = self.ensure_stripe(ctx, file, idx)?;
            // Network transfer to the data server.
            ctx.advance(self.cfg.net_ns + (n as u64 * 1_000_000_000) / self.cfg.net_bw_bps);
            // Sector-granular device write with read-modify-write at the
            // unaligned edges so neighbouring bytes survive.
            let sector = labstor_sim::SECTOR_SIZE;
            let inner = within % sector;
            let sect_off = (within / sector) as u64;
            let aligned_len = (inner + n).next_multiple_of(sector);
            let mut buf = vec![0u8; aligned_len];
            if inner != 0 || !(inner + n).is_multiple_of(sector) {
                self.data[server]
                    .read(ctx, lba + sect_off, &mut buf)
                    .map_err(|e| e.to_string())?;
            }
            buf[inner..inner + n].copy_from_slice(&data[pos..pos + n]);
            self.data[server]
                .write(ctx, lba + sect_off, &buf)
                .map_err(|e| e.to_string())?;
            pos += n;
        }
        Ok(())
    }

    /// Read `len` bytes of `file` at `offset`.
    pub fn read(
        &self,
        ctx: &mut Ctx,
        file: &str,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, String> {
        let stripe = self.cfg.stripe as u64;
        let mut out = vec![0u8; len];
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let idx = abs / stripe;
            let within = (abs % stripe) as usize;
            let n = (self.cfg.stripe - within).min(len - pos);
            let loc = self.layout.lock().get(&(file.to_string(), idx)).copied();
            // Stripe lookup RPC.
            let path = format!("{}_s{idx}", meta_path(file));
            self.meta_rpc(ctx, move |mds| {
                let _ = mds.stat_size(&path);
                Ok(())
            })?;
            if let Some((server, lba)) = loc {
                let aligned_len = (within % labstor_sim::SECTOR_SIZE + n)
                    .next_multiple_of(labstor_sim::SECTOR_SIZE);
                let sect_off = (within / labstor_sim::SECTOR_SIZE) as u64;
                let mut buf = vec![0u8; aligned_len];
                self.data[server]
                    .read(ctx, lba + sect_off, &mut buf)
                    .map_err(|e| e.to_string())?;
                let inner = within % labstor_sim::SECTOR_SIZE;
                out[pos..pos + n].copy_from_slice(&buf[inner..inner + n]);
                ctx.advance(self.cfg.net_ns + (n as u64 * 1_000_000_000) / self.cfg.net_bw_bps);
            }
            pos += n;
        }
        Ok(out)
    }
}

fn meta_path(file: &str) -> String {
    format!("/meta_{}", file.replace('/', "_"))
}

// ---------------------------------------------------------------------
// VPIC and BD-CATS
// ---------------------------------------------------------------------

/// VPIC particle-writer configuration. The paper: 640 processes, 8M
/// particles each of 8 floats, 16 timesteps (165 GB total) — scaled here.
#[derive(Debug, Clone)]
pub struct VpicConfig {
    /// Simulated MPI processes.
    pub processes: usize,
    /// Particles per process.
    pub particles: usize,
    /// Timesteps.
    pub steps: usize,
}

impl VpicConfig {
    /// Bytes one process writes per step (8 f32 per particle).
    pub(crate) fn bytes_per_step(&self) -> usize {
        self.particles * 8 * 4
    }
}

/// Run the VPIC write phase: every process writes its particle buffer to
/// its own file each timestep. Processes interleave step by step so
/// device and MDS contention overlap like a real parallel job.
pub fn run_vpic(pfs: &Pfs, cfg: &VpicConfig) -> Result<Recorder, String> {
    let mut clocks: Vec<Ctx> = (0..cfg.processes).map(|_| Ctx::new()).collect();
    let bytes = cfg.bytes_per_step();
    let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    let mut rec = Recorder::new(0);
    for step in 0..cfg.steps {
        for (p, ctx) in clocks.iter_mut().enumerate() {
            let t0 = ctx.now();
            pfs.write(
                ctx,
                &format!("particle_p{p}"),
                (step * bytes) as u64,
                &payload,
            )?;
            rec.record(ctx.now() - t0, bytes);
        }
    }
    rec.end_vt = clocks.iter().map(|c| c.now()).max().unwrap_or(0);
    Ok(rec)
}

/// Run the BD-CATS read phase: every process reads the particle data
/// back (the clustering input scan).
pub fn run_bdcats(pfs: &Pfs, cfg: &VpicConfig) -> Result<Recorder, String> {
    let mut clocks: Vec<Ctx> = (0..cfg.processes).map(|_| Ctx::new()).collect();
    let bytes = cfg.bytes_per_step();
    let mut rec = Recorder::new(0);
    for step in 0..cfg.steps {
        for (p, ctx) in clocks.iter_mut().enumerate() {
            let t0 = ctx.now();
            let data = pfs.read(ctx, &format!("particle_p{p}"), (step * bytes) as u64, bytes)?;
            if data.len() != bytes {
                return Err(format!("short read: {} of {bytes}", data.len()));
            }
            rec.record(ctx.now() - t0, bytes);
        }
    }
    rec.end_vt = clocks.iter().map(|c| c.now()).max().unwrap_or(0);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::KernelFsTarget;
    use labstor_kernel::fs::{FsProfile, KernelFs};
    use labstor_kernel::vfs::Vfs;
    use labstor_kernel::BlockLayer;
    use labstor_sim::DeviceKind;

    fn pfs(n_data: usize) -> Pfs {
        let vfs = Vfs::new();
        let mdev = SimDevice::preset(DeviceKind::Nvme);
        vfs.mount(
            "/m",
            KernelFs::new(FsProfile::ext4_like(), BlockLayer::new(mdev), 8 << 20),
        );
        let pool: Vec<Box<dyn FsTarget + Send>> = (0..4)
            .map(|i| {
                Box::new(KernelFsTarget::new(
                    vfs.clone(),
                    "/m",
                    "ext4",
                    i + 1,
                    i as usize,
                )) as Box<dyn FsTarget + Send>
            })
            .collect();
        let data = (0..n_data)
            .map(|_| SimDevice::preset(DeviceKind::Nvme))
            .collect();
        Pfs::new(pool, data, PfsConfig::default())
    }

    #[test]
    fn write_read_roundtrip_across_stripes() {
        let p = pfs(4);
        let mut ctx = Ctx::new();
        // 200 KB spans four 64 KB stripes.
        let data: Vec<u8> = (0..200_000).map(|i| (i % 249) as u8).collect();
        p.write(&mut ctx, "f", 0, &data).unwrap();
        let back = p.read(&mut ctx, "f", 0, data.len()).unwrap();
        assert_eq!(back, data);
        assert!(p.mds_ops() > 4, "stripe registrations hit the MDS");
    }

    #[test]
    fn stripes_spread_across_servers() {
        let p = pfs(4);
        let mut ctx = Ctx::new();
        let data = vec![7u8; 4 * 64 * 1024];
        p.write(&mut ctx, "f", 0, &data).unwrap();
        let writes: Vec<u64> = p.data.iter().map(|d| d.stats().snapshot().writes).collect();
        assert!(
            writes.iter().all(|&w| w == 1),
            "one stripe per server: {writes:?}"
        );
    }

    #[test]
    fn vpic_then_bdcats() {
        let p = pfs(2);
        let cfg = VpicConfig {
            processes: 3,
            particles: 4096,
            steps: 2,
        };
        let w = run_vpic(&p, &cfg).unwrap();
        assert_eq!(w.ops(), 6);
        assert_eq!(w.bytes, (3 * 2 * cfg.bytes_per_step()) as u64);
        let r = run_bdcats(&p, &cfg).unwrap();
        assert_eq!(r.ops(), 6);
        assert!(r.span_ns() > 0);
    }

    #[test]
    fn mds_serializes_concurrent_clients() {
        // Two clients doing metadata-heavy writes at the same virtual
        // time: the second one's RPCs queue behind the first's at the MDS.
        let p = pfs(1);
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        let data = vec![1u8; 64 * 1024];
        p.write(&mut a, "fa", 0, &data).unwrap();
        let solo = a.now();
        p.write(&mut b, "fb", 0, &data).unwrap();
        assert!(b.now() >= solo / 2, "MDS timeline pushed b past a's usage");
    }
}
