//! Grant-based shared memory regions (the ShMemMod analog).
//!
//! The paper's ShMemMod allocates regions with `vmalloc` and maps them into
//! a user's address space with `remap_pfn_range` — but *only* for processes
//! the Runtime has granted access, "enabling both high-performance and
//! security, even among processes launched by the same user."
//!
//! Here a region is a byte arena; the grant discipline is identical:
//! [`ShmManager::attach`] fails unless the attaching pid has been granted,
//! and revocation invalidates future attaches (existing handles model
//! already-mapped pages, which in the real system also stay mapped).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::lockwitness::{OrderedRwLock, SHMEM_CHUNK};

/// Errors from the shared-memory manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// The region id is unknown.
    NoSuchRegion(u64),
    /// The pid has not been granted access to the region.
    NotGranted {
        /// Region id the attach targeted.
        region: u64,
        /// The pid lacking a grant.
        pid: u32,
    },
    /// Access beyond the region size.
    OutOfBounds {
        /// Region id.
        region: u64,
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// The region's size.
        size: usize,
    },
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::NoSuchRegion(id) => write!(f, "no shared-memory region {id}"),
            ShmError::NotGranted { region, pid } => {
                write!(f, "pid {pid} has no grant for region {region}")
            }
            ShmError::OutOfBounds {
                region,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) beyond region {region} size {size}"
            ),
        }
    }
}

impl std::error::Error for ShmError {}

/// Regions are split into independently locked chunks of this many bytes
/// so concurrent buffer fills at different offsets don't serialize on one
/// region-wide lock.
const CHUNK_BYTES: usize = 4096;

struct Region {
    /// Independently locked fixed-size chunks; the last chunk may be
    /// short. A region-spanning access acquires every chunk it touches up
    /// front, in ascending index order (consistent order ⇒ no lock
    /// cycles), and holds them all for the duration of the copy so a
    /// multi-chunk write stays atomic with respect to a concurrent read
    /// of the same span — the same guarantee the old region-wide RwLock
    /// gave, without serializing accesses to disjoint chunks.
    chunks: Box<[OrderedRwLock<Box<[u8]>>]>,
    size: usize,
    grants: RwLock<HashSet<u32>>,
}

impl Region {
    fn with_size(size: usize) -> Self {
        let nchunks = size.div_ceil(CHUNK_BYTES).max(1);
        let chunks: Box<[OrderedRwLock<Box<[u8]>>]> = (0..nchunks)
            .map(|i| {
                let len = (size - (i * CHUNK_BYTES).min(size)).min(CHUNK_BYTES);
                OrderedRwLock::new(&SHMEM_CHUNK, vec![0u8; len].into_boxed_slice())
            })
            .collect();
        Region {
            chunks,
            size,
            grants: RwLock::new(HashSet::new()),
        }
    }
}

/// A mapped view of a granted region.
///
/// Cloning is cheap (the mapping is shared); reads and writes go straight
/// to the region bytes.
#[derive(Clone)]
pub struct ShmRegionHandle {
    id: u64,
    region: Arc<Region>,
}

impl ShmRegionHandle {
    /// Region id this handle maps.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.region.size
    }

    /// True for a zero-sized region.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bounds_check(&self, offset: usize, len: usize) -> Result<(), ShmError> {
        offset
            .checked_add(len)
            .filter(|&e| e <= self.region.size)
            .map(|_| ())
            .ok_or(ShmError::OutOfBounds {
                region: self.id,
                offset,
                len,
                size: self.region.size,
            })
    }

    /// Indices of the chunks a `[offset, offset+len)` span touches.
    /// Caller guarantees `len > 0` and the span is in bounds.
    fn chunk_range(offset: usize, len: usize) -> std::ops::RangeInclusive<usize> {
        (offset / CHUNK_BYTES)..=((offset + len - 1) / CHUNK_BYTES)
    }

    /// Copy bytes out of the region. Locks only the chunks the span
    /// touches (all up front, ascending, held for the whole copy), so
    /// fills of disjoint buffers proceed in parallel while a read of a
    /// multi-chunk span never observes a torn concurrent write.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<(), ShmError> {
        self.bounds_check(offset, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let range = Self::chunk_range(offset, buf.len());
        let first = *range.start();
        let guards: Vec<_> = range.map(|i| self.region.chunks[i].read()).collect(); // lock-class: shmem.chunk
        let mut pos = offset;
        let mut copied = 0;
        while copied < buf.len() {
            let chunk_idx = pos / CHUNK_BYTES;
            let chunk_off = pos % CHUNK_BYTES;
            let data = &guards[chunk_idx - first];
            let n = (data.len() - chunk_off).min(buf.len() - copied);
            buf[copied..copied + n].copy_from_slice(&data[chunk_off..chunk_off + n]);
            pos += n;
            copied += n;
        }
        Ok(())
    }

    /// Copy bytes into the region. Same locking discipline as
    /// [`ShmRegionHandle::read`]: every touched chunk is write-locked up
    /// front in ascending order and held until the whole span is copied,
    /// so the write is atomic with respect to concurrent readers.
    pub fn write(&self, offset: usize, buf: &[u8]) -> Result<(), ShmError> {
        self.bounds_check(offset, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let range = Self::chunk_range(offset, buf.len());
        let first = *range.start();
        let mut guards: Vec<_> = range.map(|i| self.region.chunks[i].write()).collect(); // lock-class: shmem.chunk
        let mut pos = offset;
        let mut copied = 0;
        while copied < buf.len() {
            let chunk_idx = pos / CHUNK_BYTES;
            let chunk_off = pos % CHUNK_BYTES;
            let data = &mut guards[chunk_idx - first];
            let n = (data.len() - chunk_off).min(buf.len() - copied);
            data[chunk_off..chunk_off + n].copy_from_slice(&buf[copied..copied + n]);
            pos += n;
            copied += n;
        }
        Ok(())
    }
}

/// The Runtime-owned shared memory manager.
// api-ok: §III-C ShMemMod grants (tests/stack_composition.rs)
#[derive(Default)]
pub struct ShmManager {
    regions: RwLock<HashMap<u64, Arc<Region>>>,
    next_id: RwLock<u64>,
}

impl ShmManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a region of `size` bytes, owned by (and granted to)
    /// `owner_pid`. Returns the region id.
    // api-ok: §III-C ShMemMod grants (tests/stack_composition.rs)
    pub fn create_region(&self, size: usize, owner_pid: u32) -> u64 {
        let mut next = self.next_id.write(); // lock-class: shmem.ids
        let id = *next;
        *next += 1;
        let region = Arc::new(Region::with_size(size));
        region.grants.write().insert(owner_pid); // lock-class: shmem.grants
        self.regions.write().insert(id, region); // lock-class: shmem.grants
        id
    }

    /// Grant `pid` the right to attach `region`.
    // api-ok: §III-C ShMemMod grants (tests/stack_composition.rs)
    pub fn grant(&self, region: u64, pid: u32) -> Result<(), ShmError> {
        let regions = self.regions.read(); // lock-class: shmem.regions
        let r = regions.get(&region).ok_or(ShmError::NoSuchRegion(region))?;
        r.grants.write().insert(pid); // lock-class: shmem.grants
        Ok(())
    }

    /// Revoke `pid`'s grant. Existing handles stay valid (pages already
    /// mapped), future attaches fail.
    // api-ok: §III-C ShMemMod grants
    pub fn revoke(&self, region: u64, pid: u32) -> Result<(), ShmError> {
        let regions = self.regions.read(); // lock-class: shmem.regions
        let r = regions.get(&region).ok_or(ShmError::NoSuchRegion(region))?;
        r.grants.write().remove(&pid); // lock-class: shmem.grants
        Ok(())
    }

    /// Map the region into `pid`'s address space.
    // api-ok: §III-C ShMemMod grants (tests/stack_composition.rs)
    pub fn attach(&self, region: u64, pid: u32) -> Result<ShmRegionHandle, ShmError> {
        let regions = self.regions.read(); // lock-class: shmem.regions
        let r = regions.get(&region).ok_or(ShmError::NoSuchRegion(region))?;
        // lock-class: shmem.grants
        if !r.grants.read().contains(&pid) {
            return Err(ShmError::NotGranted { region, pid });
        }
        Ok(ShmRegionHandle {
            id: region,
            region: r.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_can_attach_and_rw() {
        let m = ShmManager::new();
        let id = m.create_region(64, 100);
        let h = m.attach(id, 100).unwrap();
        h.write(10, b"abc").unwrap();
        let mut out = [0u8; 3];
        h.read(10, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn ungranted_pid_rejected() {
        let m = ShmManager::new();
        let id = m.create_region(64, 100);
        match m.attach(id, 200) {
            Err(ShmError::NotGranted { region, pid }) => {
                assert_eq!((region, pid), (id, 200));
            }
            other => panic!("expected NotGranted, got {:?}", other.err()),
        }
    }

    #[test]
    fn grant_then_attach() {
        let m = ShmManager::new();
        let id = m.create_region(64, 100);
        m.grant(id, 200).unwrap();
        assert!(m.attach(id, 200).is_ok());
    }

    #[test]
    fn revoke_blocks_future_attach_not_existing_handle() {
        let m = ShmManager::new();
        let id = m.create_region(64, 100);
        m.grant(id, 200).unwrap();
        let h = m.attach(id, 200).unwrap();
        m.revoke(id, 200).unwrap();
        assert!(m.attach(id, 200).is_err());
        // Already-mapped handle still works.
        h.write(0, &[1]).unwrap();
    }

    #[test]
    fn oob_access_rejected() {
        let m = ShmManager::new();
        let id = m.create_region(16, 1);
        let h = m.attach(id, 1).unwrap();
        assert!(h.write(10, &[0u8; 10]).is_err());
        let mut buf = [0u8; 20];
        assert!(h.read(0, &mut buf).is_err());
    }

    #[test]
    fn rw_spans_chunk_boundaries() {
        let m = ShmManager::new();
        let id = m.create_region(3 * CHUNK_BYTES + 100, 1);
        let h = m.attach(id, 1).unwrap();
        assert_eq!(h.len(), 3 * CHUNK_BYTES + 100);
        // A write straddling chunks 0..=3, ending in the short tail chunk.
        let pattern: Vec<u8> = (0..(2 * CHUNK_BYTES + 150))
            .map(|i| (i % 251) as u8)
            .collect();
        let start = CHUNK_BYTES - 50;
        h.write(start, &pattern).unwrap();
        let mut out = vec![0u8; pattern.len()];
        h.read(start, &mut out).unwrap();
        assert_eq!(out, pattern);
        // Tail-exact write; one past it fails.
        h.write(3 * CHUNK_BYTES + 99, &[7]).unwrap();
        assert!(h.write(3 * CHUNK_BYTES + 100, &[7]).is_err());
    }

    #[test]
    fn multi_chunk_write_is_atomic_wrt_concurrent_read() {
        // Regression: chunk locks used to be taken and released one chunk
        // at a time, so a reader could see half-old, half-new bytes of a
        // write spanning the chunk boundary.
        let m = ShmManager::new();
        let id = m.create_region(2 * CHUNK_BYTES, 1);
        let writer = m.attach(id, 1).unwrap();
        let reader = m.attach(id, 1).unwrap();
        let off = CHUNK_BYTES / 2; // span straddles chunks 0 and 1
        let span = CHUNK_BYTES;
        writer.write(off, &vec![0u8; span]).unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..400u32 {
                    writer.write(off, &vec![(i % 2) as u8; span]).unwrap();
                }
            });
            s.spawn(move || {
                let mut buf = vec![0u8; span];
                for _ in 0..400 {
                    reader.read(off, &mut buf).unwrap();
                    let first = buf[0];
                    assert!(
                        buf.iter().all(|&b| b == first),
                        "torn read across the chunk boundary"
                    );
                }
            });
        });
    }

    #[test]
    fn handles_share_the_same_bytes() {
        let m = ShmManager::new();
        let id = m.create_region(8, 1);
        m.grant(id, 2).unwrap();
        let a = m.attach(id, 1).unwrap();
        let b = m.attach(id, 2).unwrap();
        a.write(0, &[42]).unwrap();
        let mut out = [0u8; 1];
        b.read(0, &mut out).unwrap();
        assert_eq!(out[0], 42);
    }
}
