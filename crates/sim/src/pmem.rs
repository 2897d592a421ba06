//! Byte-addressable persistent-memory device (DAX substrate).
//!
//! The paper's PMEM experiments use bootloader-emulated persistent memory
//! accessed through DAX: the device is mapped into the application address
//! space and accessed with CPU loads/stores, bypassing all block I/O
//! conventions. [`PmemDevice`] reproduces that: byte-granular `load`/`store`
//! with a latency model of media access, no sector alignment, no queues.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::DeviceError;
use crate::model::DeviceModel;
use crate::stats::DeviceStats;
use crate::time::{ChannelPool, Ctx};

/// Bytes per lazily-allocated backing chunk.
const CHUNK_BYTES: usize = 128 * 1024;

/// A byte-addressable persistent-memory region.
pub struct PmemDevice {
    model: DeviceModel,
    stats: DeviceStats,
    channels: ChannelPool,
    chunks: Vec<RwLock<Option<Box<[u8]>>>>,
}

impl PmemDevice {
    /// Create a PMEM device. The model must be byte-addressable.
    pub(crate) fn new(model: DeviceModel) -> Result<Arc<Self>, DeviceError> {
        if !model.byte_addressable {
            return Err(DeviceError::NotByteAddressable);
        }
        let n_chunks = (model.capacity as usize).div_ceil(CHUNK_BYTES);
        Ok(Arc::new(PmemDevice {
            chunks: (0..n_chunks).map(|_| RwLock::new(None)).collect(),
            channels: ChannelPool::new(model.channels),
            stats: DeviceStats::default(),
            model,
        }))
    }

    /// Create a PMEM device with the default preset.
    pub fn preset() -> Arc<Self> {
        Self::new(DeviceModel::preset(crate::DeviceKind::Pmem)).expect("preset is byte-addressable")
    }

    /// The device's performance model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Cumulative statistics.
    #[cfg(test)]
    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Capacity in bytes.
    pub fn len(&self) -> u64 {
        self.model.capacity
    }

    /// True if the region has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.model.capacity == 0
    }

    fn validate(&self, offset: u64, bytes: usize) -> Result<(), DeviceError> {
        if offset + bytes as u64 > self.model.capacity {
            return Err(DeviceError::OutOfRange {
                lba: offset / crate::SECTOR_SIZE as u64,
                sectors: bytes.div_ceil(crate::SECTOR_SIZE) as u64,
                capacity_sectors: self.model.capacity_sectors(),
            });
        }
        Ok(())
    }

    /// CPU-store `buf` at byte `offset`. Returns modeled ns.
    ///
    /// The store is a real memcpy; the modeled cost (media write latency +
    /// bandwidth) advances the caller's clock as *busy* time — a CPU
    /// stalled on `clwb`/`ntstore` drains is not idle.
    pub fn store(&self, ctx: &mut Ctx, offset: u64, buf: &[u8]) -> Result<u64, DeviceError> {
        self.validate(offset, buf.len())?;
        self.copy(true, offset, Some(buf), None);
        let ns = self.model.transfer_ns(true, buf.len());
        let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
        ctx.poll_until(end);
        self.stats.record(true, buf.len(), ns, false);
        Ok(ns)
    }

    /// CPU-load into `buf` from byte `offset`. Returns modeled ns.
    pub fn load(&self, ctx: &mut Ctx, offset: u64, buf: &mut [u8]) -> Result<u64, DeviceError> {
        self.validate(offset, buf.len())?;
        self.copy(false, offset, None, Some(buf));
        let ns = self.model.transfer_ns(false, buf.len());
        let (_, end) = self.channels.acquire(ctx.now(), ns); // lock-class: sim.channel
        ctx.poll_until(end);
        self.stats.record(false, buf.len(), ns, false);
        Ok(ns)
    }

    /// Persistence barrier (sfence + cacheline writeback drain): a small
    /// fixed cost.
    pub fn drain(&self, ctx: &mut Ctx) -> u64 {
        let ns = 100;
        ctx.advance(ns);
        ns
    }

    fn copy(&self, write: bool, offset: u64, src: Option<&[u8]>, dst: Option<&mut [u8]>) {
        let bytes = src
            .map(|b| b.len())
            .or(dst.as_ref().map(|b| b.len()))
            .unwrap_or(0);
        let mut off = offset as usize;
        let mut done = 0usize;
        let mut dst = dst;
        while done < bytes {
            let idx = off / CHUNK_BYTES;
            let coff = off % CHUNK_BYTES;
            let n = (CHUNK_BYTES - coff).min(bytes - done);
            if write {
                let s = &src.expect("store source")[done..done + n];
                let mut slot = self.chunks[idx].write(); // lock-class: sim.chunk
                let chunk = slot.get_or_insert_with(|| vec![0u8; CHUNK_BYTES].into_boxed_slice());
                chunk[coff..coff + n].copy_from_slice(s);
            } else {
                let d = &mut dst.as_mut().expect("load destination")[done..done + n];
                let slot = self.chunks[idx].read(); // lock-class: sim.chunk
                match slot.as_ref() {
                    Some(chunk) => d.copy_from_slice(&chunk[coff..coff + n]),
                    None => d.fill(0),
                }
            }
            off += n;
            done += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip_unaligned() {
        let p = PmemDevice::preset();
        let mut ctx = Ctx::new();
        let data = b"hello persistent world";
        p.store(&mut ctx, 12_345, data).unwrap();
        let mut out = vec![0u8; data.len()];
        p.load(&mut ctx, 12_345, &mut out).unwrap();
        assert_eq!(&out, data);
    }

    #[test]
    fn cross_chunk_store() {
        let p = PmemDevice::preset();
        let mut ctx = Ctx::new();
        let data: Vec<u8> = (0..300_000).map(|i| (i % 253) as u8).collect();
        let off = CHUNK_BYTES as u64 - 17;
        p.store(&mut ctx, off, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        p.load(&mut ctx, off, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_rejected() {
        let p = PmemDevice::preset();
        let cap = p.len();
        let mut ctx = Ctx::new();
        assert!(p.store(&mut ctx, cap - 2, &[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn non_byte_addressable_model_rejected() {
        let m = DeviceModel::preset(crate::DeviceKind::Nvme);
        assert!(matches!(
            PmemDevice::new(m),
            Err(DeviceError::NotByteAddressable)
        ));
    }

    #[test]
    fn accesses_advance_clock_as_busy() {
        let p = PmemDevice::preset();
        let mut ctx = Ctx::new();
        p.store(&mut ctx, 0, &[0u8; 64]).unwrap();
        assert!(ctx.now() > 0);
        assert_eq!(ctx.busy(), ctx.now(), "pmem access is CPU-busy");
        let s = p.stats().snapshot();
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn drain_has_fixed_cost() {
        let p = PmemDevice::preset();
        let mut ctx = Ctx::new();
        let ns = p.drain(&mut ctx);
        assert_eq!(ctx.now(), ns);
    }
}
