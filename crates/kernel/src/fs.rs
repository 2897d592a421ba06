//! Baseline kernel filesystems: ext4-, XFS- and F2FS-like.
//!
//! The paper compares LabFS/LabKVS against EXT4, XFS and F2FS (Figs. 7,
//! 9b, 9c). What matters for those comparisons is not byte-exact on-disk
//! formats but the *cost structure* of the kernel FS path:
//!
//! * every operation enters through a syscall and the VFS;
//! * metadata operations serialize on journaling/log locks — "the kernel
//!   filesystems scale very poorly, as they use locking in order to ensure
//!   the correctness of their data structures" (Fig. 7 discussion);
//! * data goes through the page cache (copy) and reaches the device via
//!   the block layer on writeback/fsync.
//!
//! [`KernelFs`] implements a real filesystem (hierarchical namespace, real
//! data blocks on the simulated device, journal region, fsync semantics)
//! parameterized by an [`FsProfile`] that captures how the three baselines
//! differ: journal-lock domains (ext4/F2FS global vs XFS per-allocation-
//! group), per-operation lock hold times, and log-structured vs in-place
//! allocation.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use labstor_sim::{BlockDevice, Ctx, Resource};

use crate::block::BlockLayer;
use crate::cost;
use crate::page_cache::{PageCache, PAGE_SIZE};
use crate::sched::IoClass;
use crate::vfs::{Cred, FileKind, Filesystem, Stat};

/// Filesystem errors (mapped to errno-style failures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component or file not found (ENOENT).
    NotFound,
    /// File already exists (EEXIST).
    Exists,
    /// Path component is not a directory (ENOTDIR).
    NotDir,
    /// Operation on a directory where a file is required (EISDIR).
    IsDir,
    /// Directory not empty on rmdir (ENOTEMPTY).
    NotEmpty,
    /// Out of data blocks (ENOSPC).
    NoSpace,
    /// Permission denied (EACCES).
    Perm,
    /// Device failure during I/O (EIO).
    Io(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::Perm => write!(f, "permission denied"),
            FsError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Cost/locking profile distinguishing the baseline filesystems.
#[derive(Debug, Clone)]
pub struct FsProfile {
    /// Reported name ("ext4", "xfs", "f2fs").
    pub name: &'static str,
    /// Number of independent metadata-lock domains. ext4's jbd2 journal
    /// and F2FS's log are global (1); XFS has per-AG locks (16).
    pub lock_domains: usize,
    /// Virtual hold time of the metadata lock per namespace operation
    /// (journal handle start/stop, log reservation).
    pub meta_hold_ns: u64,
    /// CPU cost of creating an inode (init, bitmap, dirent insert).
    pub create_cpu_ns: u64,
    /// Journal bytes persisted per metadata operation at commit time.
    pub journal_bytes_per_op: usize,
    /// Log-structured data allocation (F2FS): strictly sequential LBAs,
    /// which HDDs love and which skips in-place extent lookup cost.
    pub log_structured: bool,
    /// Block-allocator lock hold per extent allocation.
    pub alloc_hold_ns: u64,
}

impl FsProfile {
    /// ext4-like: global jbd2 journal, moderate per-op costs.
    pub fn ext4_like() -> Self {
        FsProfile {
            name: "ext4",
            lock_domains: 1,
            meta_hold_ns: 9_000,
            create_cpu_ns: 3_500,
            journal_bytes_per_op: 256,
            log_structured: false,
            alloc_hold_ns: 350,
        }
    }

    /// XFS-like: per-allocation-group metadata locks, heavier single-op
    /// CPU (btree manipulation), larger log records.
    pub fn xfs_like() -> Self {
        FsProfile {
            name: "xfs",
            lock_domains: 16,
            meta_hold_ns: 10_000,
            create_cpu_ns: 4_000,
            journal_bytes_per_op: 384,
            log_structured: false,
            alloc_hold_ns: 400,
        }
    }

    /// F2FS-like: log-structured, global node/segment locks, cheaper
    /// allocation.
    pub fn f2fs_like() -> Self {
        FsProfile {
            name: "f2fs",
            lock_domains: 1,
            meta_hold_ns: 8_000,
            create_cpu_ns: 3_000,
            journal_bytes_per_op: 192,
            log_structured: true,
            alloc_hold_ns: 200,
        }
    }
}

const BLOCK_SECTORS: u64 = (PAGE_SIZE / labstor_sim::SECTOR_SIZE) as u64;
/// Blocks reserved for the journal at the front of the device.
const JOURNAL_BLOCKS: u64 = 4096;
/// Root inode number.
pub const ROOT_INO: u64 = 1;

struct Inode {
    kind: FileKind,
    size: u64,
    uid: u32,
    gid: u32,
    mode: u16,
    /// page index → data block number (sparse).
    blocks: HashMap<u64, u64>,
    /// Directory entries (dirs only).
    children: HashMap<String, u64>,
    nlink: u32,
}

impl Inode {
    fn new(kind: FileKind, uid: u32, gid: u32, mode: u16) -> Self {
        Inode {
            kind,
            size: 0,
            uid,
            gid,
            mode,
            blocks: HashMap::new(),
            children: HashMap::new(),
            nlink: 1,
        }
    }
}

/// A kernel filesystem instance over one block device.
pub struct KernelFs {
    profile: FsProfile,
    block: Arc<BlockLayer>,
    cache: PageCache,
    inodes: RwLock<HashMap<u64, Inode>>,
    next_ino: AtomicU64,
    /// Per-domain bump allocators over disjoint device regions.
    alloc_next: Vec<AtomicU64>,
    alloc_end: Vec<u64>,
    /// Virtual metadata-lock domains (journal handles / AG locks).
    meta_locks: Vec<Resource>,
    /// Virtual per-directory locks (i_rwsem), hashed by parent ino.
    dir_locks: Vec<Resource>,
    /// Virtual allocator locks, one per domain.
    alloc_locks: Vec<Resource>,
    /// Journal running state: pending record bytes + next journal block.
    journal: Mutex<JournalState>,
    /// Dirty-byte threshold that triggers foreground writeback.
    dirty_threshold: usize,
}

struct JournalState {
    pending_bytes: usize,
    next_block: u64,
}

impl KernelFs {
    /// Create a filesystem over `block` with `cache_bytes` of page cache.
    pub fn new(profile: FsProfile, block: Arc<BlockLayer>, cache_bytes: usize) -> Arc<Self> {
        Self::with_dirty_threshold(profile, block, cache_bytes, 64 << 20)
    }

    /// Like [`KernelFs::new`] with an explicit dirty threshold.
    pub fn with_dirty_threshold(
        profile: FsProfile,
        block: Arc<BlockLayer>,
        cache_bytes: usize,
        dirty_threshold: usize,
    ) -> Arc<Self> {
        let total_blocks = block.device().model().capacity_sectors() / BLOCK_SECTORS;
        let data_blocks = total_blocks.saturating_sub(JOURNAL_BLOCKS);
        let domains = profile.lock_domains.max(1);
        let per_domain = data_blocks / domains as u64;
        let mut inodes = HashMap::new();
        inodes.insert(ROOT_INO, Inode::new(FileKind::Dir, 0, 0, 0o755));
        let fs = KernelFs {
            cache: PageCache::new(cache_bytes),
            inodes: RwLock::new(inodes),
            next_ino: AtomicU64::new(ROOT_INO + 1),
            alloc_next: (0..domains)
                .map(|d| AtomicU64::new(JOURNAL_BLOCKS + d as u64 * per_domain))
                .collect(),
            alloc_end: (0..domains)
                .map(|d| JOURNAL_BLOCKS + (d as u64 + 1) * per_domain)
                .collect(),
            meta_locks: (0..domains).map(|_| Resource::new()).collect(),
            dir_locks: (0..64).map(|_| Resource::new()).collect(),
            alloc_locks: (0..domains).map(|_| Resource::new()).collect(),
            journal: Mutex::new(JournalState {
                pending_bytes: 0,
                next_block: 0,
            }),
            dirty_threshold,
            profile,
            block,
        };
        Arc::new(fs)
    }

    /// The filesystem's profile.
    pub fn profile(&self) -> &FsProfile {
        &self.profile
    }

    /// Dirty-byte threshold that triggers foreground writeback throttling
    /// (Linux's dirty_ratio analog). Sustained write workloads become
    /// device-bound once they cross it.
    pub fn set_dirty_threshold(&mut self, bytes: usize) {
        self.dirty_threshold = bytes;
    }

    /// Number of inodes (including the root).
    pub fn inode_count(&self) -> usize {
        self.inodes.read().len() // lock-class: fs.inodes
    }

    // ---- internal helpers ---------------------------------------------

    fn domain_of(&self, ino: u64) -> usize {
        (ino as usize) % self.meta_locks.len()
    }

    /// Serialize on the metadata (journal/log) lock of a domain.
    fn take_meta_lock(&self, ctx: &mut Ctx, domain: usize) {
        let (_, end) = self.meta_locks[domain].acquire(ctx.now(), self.profile.meta_hold_ns); // lock-class: fs.meta
        ctx.poll_until(end);
    }

    /// Serialize on the per-directory lock.
    fn take_dir_lock(&self, ctx: &mut Ctx, parent: u64) {
        let idx = (parent as usize) % self.dir_locks.len();
        let (_, end) = self.dir_locks[idx].acquire(ctx.now(), 300); // lock-class: fs.dir
        ctx.poll_until(end);
    }

    /// Append a journal record for one metadata operation.
    fn journal_append(&self, bytes: usize) {
        self.journal.lock().pending_bytes += bytes; // lock-class: fs.journal
    }

    /// Allocate one data block in `domain`. Charges the allocator lock.
    fn alloc_block(&self, ctx: &mut Ctx, domain: usize) -> Result<u64, FsError> {
        let (_, end) = self.alloc_locks[domain].acquire(ctx.now(), self.profile.alloc_hold_ns); // lock-class: fs.alloc
        ctx.poll_until(end);
        // Log-structured FSes allocate strictly sequentially from a single
        // head; in-place FSes allocate inside the inode's group.
        let d = if self.profile.log_structured {
            0
        } else {
            domain
        };
        let b = self.alloc_next[d].fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
        if b >= self.alloc_end[d] {
            return Err(FsError::NoSpace);
        }
        Ok(b)
    }

    /// Resolve a `/`-separated path to an inode, charging the VFS walk.
    fn resolve(&self, ctx: &mut Ctx, path: &str) -> Result<u64, FsError> {
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        cost::path_walk(ctx, parts.len().max(1));
        let inodes = self.inodes.read(); // lock-class: fs.inodes
        let mut cur = ROOT_INO;
        for part in parts {
            let node = inodes.get(&cur).ok_or(FsError::NotFound)?;
            if node.kind != FileKind::Dir {
                return Err(FsError::NotDir);
            }
            cur = *node.children.get(part).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Split a path into (parent inode, final component).
    fn resolve_parent<'p>(&self, ctx: &mut Ctx, path: &'p str) -> Result<(u64, &'p str), FsError> {
        let trimmed = path.trim_end_matches('/');
        let (dir, name) = match trimmed.rfind('/') {
            Some(i) => (&trimmed[..i], &trimmed[i + 1..]),
            None => ("", trimmed),
        };
        if name.is_empty() {
            return Err(FsError::Exists); // the root itself
        }
        let parent = self.resolve(ctx, dir)?;
        Ok((parent, name))
    }

    fn make_node(
        &self,
        ctx: &mut Ctx,
        path: &str,
        kind: FileKind,
        mode: u16,
        cred: Cred,
    ) -> Result<u64, FsError> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        self.take_dir_lock(ctx, parent);
        self.take_meta_lock(ctx, self.domain_of(parent));
        ctx.advance(self.profile.create_cpu_ns);
        let mut inodes = self.inodes.write(); // lock-class: fs.inodes
        let pnode = inodes.get(&parent).ok_or(FsError::NotFound)?;
        if pnode.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        if !cred.allows(pnode.uid, pnode.gid, pnode.mode, 0o2) {
            return Err(FsError::Perm);
        }
        if pnode.children.contains_key(name) {
            return Err(FsError::Exists);
        }
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
        inodes.insert(ino, Inode::new(kind, cred.uid, cred.gid, mode));
        inodes
            .get_mut(&parent)
            .expect("parent present")
            .children
            .insert(name.to_string(), ino);
        drop(inodes);
        self.journal_append(self.profile.journal_bytes_per_op);
        Ok(ino)
    }

    /// Write back a set of dirty pages through the block layer, merging
    /// pages that map to contiguous device blocks into single requests —
    /// the block layer's plug/merge behavior (its cost is part of
    /// `BLOCK_LAYER_NS`).
    fn writeback(
        &self,
        ctx: &mut Ctx,
        core: usize,
        pages: Vec<crate::page_cache::Evicted>,
    ) -> Result<(), FsError> {
        // Resolve block numbers, dropping pages of unlinked inodes.
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        {
            let inodes = self.inodes.read(); // lock-class: fs.inodes
            let mut resolved: Vec<(u64, Arc<[u8]>)> = pages
                .into_iter()
                .filter_map(|p| {
                    let (ino, pgidx) = p.key;
                    inodes
                        .get(&ino)
                        .and_then(|n| n.blocks.get(&pgidx))
                        .map(|&b| (b, p.data))
                })
                .collect();
            resolved.sort_by_key(|(b, _)| *b);
            for (b, data) in resolved {
                match runs.last_mut() {
                    Some((start, buf)) if *start + (buf.len() / PAGE_SIZE) as u64 == b => {
                        buf.extend_from_slice(&data);
                    }
                    _ => runs.push((b, data.to_vec())),
                }
            }
        }
        for (blockno, buf) in runs {
            self.block
                .sync_write(ctx, core, IoClass::Throughput, blockno * BLOCK_SECTORS, buf)
                .map_err(|e| FsError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Flush pending journal records sequentially into the journal region.
    fn journal_commit(&self, ctx: &mut Ctx, core: usize) -> Result<(), FsError> {
        let (bytes, start_block) = {
            let mut j = self.journal.lock(); // lock-class: fs.journal
            let bytes = j.pending_bytes;
            j.pending_bytes = 0;
            let blocks = bytes.div_ceil(PAGE_SIZE) as u64;
            let start = j.next_block;
            j.next_block = (j.next_block + blocks) % JOURNAL_BLOCKS;
            (bytes, start)
        };
        if bytes == 0 {
            return Ok(());
        }
        let mut remaining = bytes;
        let mut block_no = start_block;
        while remaining > 0 {
            let n = remaining.min(PAGE_SIZE);
            self.block
                .sync_write(
                    ctx,
                    core,
                    IoClass::Latency,
                    (block_no % JOURNAL_BLOCKS) * BLOCK_SECTORS,
                    vec![0u8; PAGE_SIZE],
                )
                .map_err(|e| FsError::Io(e.to_string()))?;
            block_no += 1;
            remaining -= n;
        }
        Ok(())
    }
}

impl Filesystem for KernelFs {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn create(
        &self,
        ctx: &mut Ctx,
        _core: usize,
        path: &str,
        mode: u16,
        cred: Cred,
    ) -> Result<u64, FsError> {
        self.make_node(ctx, path, FileKind::File, mode, cred)
    }

    fn mkdir(
        &self,
        ctx: &mut Ctx,
        _core: usize,
        path: &str,
        mode: u16,
        cred: Cred,
    ) -> Result<u64, FsError> {
        self.make_node(ctx, path, FileKind::Dir, mode, cred)
    }

    fn lookup(&self, ctx: &mut Ctx, path: &str) -> Result<u64, FsError> {
        self.resolve(ctx, path)
    }

    fn write(
        &self,
        ctx: &mut Ctx,
        core: usize,
        ino: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<usize, FsError> {
        // Allocate backing blocks for any new pages.
        let first_pg = offset / PAGE_SIZE as u64;
        let last_pg = (offset + data.len() as u64).div_ceil(PAGE_SIZE as u64);
        let domain = self.domain_of(ino);
        {
            // Collect missing pages under the read lock, then allocate.
            let missing: Vec<u64> = {
                let inodes = self.inodes.read(); // lock-class: fs.inodes
                let node = inodes.get(&ino).ok_or(FsError::NotFound)?;
                if node.kind == FileKind::Dir {
                    return Err(FsError::IsDir);
                }
                (first_pg..last_pg)
                    .filter(|p| !node.blocks.contains_key(p))
                    .collect()
            };
            if !missing.is_empty() {
                let mut allocated = Vec::with_capacity(missing.len());
                for _ in &missing {
                    allocated.push(self.alloc_block(ctx, domain)?);
                }
                let mut inodes = self.inodes.write(); // lock-class: fs.inodes
                let node = inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
                for (p, b) in missing.into_iter().zip(allocated) {
                    node.blocks.entry(p).or_insert(b);
                }
            }
        }
        // Copy into the page cache.
        let evicted = self.cache.write(ctx, ino, offset, data);
        self.writeback(ctx, core, evicted)?;
        // Update size.
        {
            let mut inodes = self.inodes.write(); // lock-class: fs.inodes
            let node = inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
            node.size = node.size.max(offset + data.len() as u64);
        }
        // Foreground writeback throttling past the dirty threshold.
        if self.cache.dirty_bytes() > self.dirty_threshold {
            let dirty = self.cache.take_dirty(ctx, None);
            self.writeback(ctx, core, dirty)?;
        }
        Ok(data.len())
    }

    fn read(
        &self,
        ctx: &mut Ctx,
        core: usize,
        ino: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize, FsError> {
        let size = {
            let inodes = self.inodes.read(); // lock-class: fs.inodes
            let node = inodes.get(&ino).ok_or(FsError::NotFound)?;
            if node.kind == FileKind::Dir {
                return Err(FsError::IsDir);
            }
            node.size
        };
        if offset >= size {
            return Ok(0);
        }
        let n = buf.len().min((size - offset) as usize);
        let block = &self.block;
        let inodes = &self.inodes;
        let mut io_err = None;
        let res = self
            .cache
            .read(ctx, ino, offset, &mut buf[..n], |ctx, pgidx, page| {
                let blockno = {
                    let map = inodes.read(); // lock-class: fs.inodes
                    map.get(&ino).and_then(|nd| nd.blocks.get(&pgidx)).copied()
                };
                match blockno {
                    Some(b) => match block.sync_read(
                        ctx,
                        core,
                        IoClass::Latency,
                        b * BLOCK_SECTORS,
                        PAGE_SIZE,
                    ) {
                        Ok(c) => match c.result {
                            Ok(data) => {
                                page.copy_from_slice(&data);
                                true
                            }
                            Err(e) => {
                                io_err = Some(FsError::Io(e.to_string()));
                                false
                            }
                        },
                        Err(e) => {
                            io_err = Some(FsError::Io(e.to_string()));
                            false
                        }
                    },
                    // Hole: reads as zeroes.
                    None => true,
                }
            });
        match res {
            Ok(_) => Ok(n),
            Err(()) => Err(io_err.unwrap_or(FsError::Io("page fill failed".into()))),
        }
    }

    fn unlink(&self, ctx: &mut Ctx, _core: usize, path: &str, cred: Cred) -> Result<(), FsError> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        self.take_dir_lock(ctx, parent);
        self.take_meta_lock(ctx, self.domain_of(parent));
        ctx.advance(self.profile.create_cpu_ns / 2);
        let mut inodes = self.inodes.write(); // lock-class: fs.inodes
        let pnode = inodes.get(&parent).ok_or(FsError::NotFound)?;
        if !cred.allows(pnode.uid, pnode.gid, pnode.mode, 0o2) {
            return Err(FsError::Perm);
        }
        let ino = *pnode.children.get(name).ok_or(FsError::NotFound)?;
        if let Some(node) = inodes.get(&ino) {
            if node.kind == FileKind::Dir && !node.children.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        inodes
            .get_mut(&parent)
            .expect("parent present")
            .children
            .remove(name);
        inodes.remove(&ino);
        drop(inodes);
        self.cache.invalidate(ino);
        self.journal_append(self.profile.journal_bytes_per_op);
        Ok(())
    }

    fn rename(
        &self,
        ctx: &mut Ctx,
        _core: usize,
        from: &str,
        to: &str,
        cred: Cred,
    ) -> Result<(), FsError> {
        let (fparent, fname) = self.resolve_parent(ctx, from)?;
        let (tparent, tname) = self.resolve_parent(ctx, to)?;
        self.take_dir_lock(ctx, fparent.min(tparent));
        if fparent != tparent {
            self.take_dir_lock(ctx, fparent.max(tparent));
        }
        self.take_meta_lock(ctx, self.domain_of(fparent));
        ctx.advance(self.profile.create_cpu_ns / 2);
        let mut inodes = self.inodes.write(); // lock-class: fs.inodes
        for parent in [fparent, tparent] {
            let p = inodes.get(&parent).ok_or(FsError::NotFound)?;
            if !cred.allows(p.uid, p.gid, p.mode, 0o2) {
                return Err(FsError::Perm);
            }
        }
        let ino = *inodes
            .get(&fparent)
            .and_then(|p| p.children.get(fname))
            .ok_or(FsError::NotFound)?;
        // POSIX: renaming a file onto itself succeeds and does nothing.
        if fparent == tparent && fname == tname {
            return Ok(());
        }
        // Replace any existing target (dropping its inode), then move.
        let replaced = inodes
            .get_mut(&tparent)
            .expect("checked")
            .children
            .insert(tname.to_string(), ino);
        inodes
            .get_mut(&fparent)
            .expect("checked")
            .children
            .remove(fname);
        if let Some(old) = replaced {
            if old != ino {
                inodes.remove(&old);
                drop(inodes);
                self.cache.invalidate(old);
            }
        }
        self.journal_append(self.profile.journal_bytes_per_op);
        Ok(())
    }

    fn stat(&self, ctx: &mut Ctx, path: &str) -> Result<Stat, FsError> {
        let ino = self.resolve(ctx, path)?;
        ctx.advance(200);
        let inodes = self.inodes.read(); // lock-class: fs.inodes
        let node = inodes.get(&ino).ok_or(FsError::NotFound)?;
        Ok(Stat {
            ino,
            kind: node.kind,
            size: node.size,
            uid: node.uid,
            gid: node.gid,
            mode: node.mode,
            nlink: node.nlink,
        })
    }

    fn readdir(&self, ctx: &mut Ctx, path: &str) -> Result<Vec<String>, FsError> {
        let ino = self.resolve(ctx, path)?;
        let inodes = self.inodes.read(); // lock-class: fs.inodes
        let node = inodes.get(&ino).ok_or(FsError::NotFound)?;
        if node.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        ctx.advance(100 * node.children.len().max(1) as u64);
        Ok(node.children.keys().cloned().collect())
    }

    fn truncate(&self, ctx: &mut Ctx, _core: usize, ino: u64, size: u64) -> Result<(), FsError> {
        self.take_meta_lock(ctx, self.domain_of(ino));
        let old_size;
        {
            let mut inodes = self.inodes.write(); // lock-class: fs.inodes
            let node = inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
            if node.kind == FileKind::Dir {
                return Err(FsError::IsDir);
            }
            old_size = node.size;
            node.size = size;
            let keep = size.div_ceil(PAGE_SIZE as u64);
            node.blocks.retain(|&pg, _| pg < keep);
        }
        if size < old_size {
            // Stale cached bytes beyond the new EOF must disappear: zero
            // the tail of the partial EOF page and drop whole pages past it
            // (i_size truncation semantics).
            let keep = size.div_ceil(PAGE_SIZE as u64);
            self.cache.invalidate_from(ino, keep);
            let tail = (size % PAGE_SIZE as u64) as usize;
            if tail != 0 {
                let zero_to = (old_size.min(keep * PAGE_SIZE as u64) - size) as usize;
                if zero_to > 0 {
                    self.cache.write(ctx, ino, size, &vec![0u8; zero_to]);
                }
            }
        }
        self.journal_append(self.profile.journal_bytes_per_op / 2);
        Ok(())
    }

    fn fsync(&self, ctx: &mut Ctx, core: usize, ino: u64) -> Result<(), FsError> {
        let dirty = self.cache.take_dirty(ctx, Some(ino));
        self.writeback(ctx, core, dirty)?;
        self.journal_commit(ctx, core)?;
        self.block
            .sync_flush(ctx, core)
            .map_err(|e| FsError::Io(e.to_string()))
    }

    fn sync(&self, ctx: &mut Ctx, core: usize) -> Result<(), FsError> {
        let dirty = self.cache.take_dirty(ctx, None);
        self.writeback(ctx, core, dirty)?;
        self.journal_commit(ctx, core)?;
        self.block
            .sync_flush(ctx, core)
            .map_err(|e| FsError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::{DeviceKind, DeviceModel, SimDevice};

    fn fs(profile: FsProfile) -> Arc<KernelFs> {
        let dev = SimDevice::new(DeviceModel::preset(DeviceKind::Nvme));
        KernelFs::new(profile, BlockLayer::new(dev), 16 << 20)
    }

    fn root() -> Cred {
        Cred { uid: 0, gid: 0 }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        let ino = f.create(&mut ctx, 0, "/a.txt", 0o644, root()).unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        assert_eq!(f.write(&mut ctx, 0, ino, 0, &data).unwrap(), data.len());
        let mut out = vec![0u8; data.len()];
        assert_eq!(f.read(&mut ctx, 0, ino, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn read_survives_fsync_and_cache_invalidation() {
        // Data must round-trip through the real device, not just the cache.
        let f = fs(FsProfile::xfs_like());
        let mut ctx = Ctx::new();
        let ino = f.create(&mut ctx, 0, "/b", 0o644, root()).unwrap();
        let data = vec![42u8; 3 * PAGE_SIZE];
        f.write(&mut ctx, 0, ino, 0, &data).unwrap();
        f.fsync(&mut ctx, 0, ino).unwrap();
        f.cache.invalidate(ino);
        let mut out = vec![0u8; data.len()];
        f.read(&mut ctx, 0, ino, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn directories_nest() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        f.mkdir(&mut ctx, 0, "/d", 0o755, root()).unwrap();
        f.mkdir(&mut ctx, 0, "/d/e", 0o755, root()).unwrap();
        f.create(&mut ctx, 0, "/d/e/f", 0o644, root()).unwrap();
        assert!(f.lookup(&mut ctx, "/d/e/f").is_ok());
        assert_eq!(f.readdir(&mut ctx, "/d").unwrap(), vec!["e".to_string()]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        f.create(&mut ctx, 0, "/x", 0o644, root()).unwrap();
        assert_eq!(
            f.create(&mut ctx, 0, "/x", 0o644, root()),
            Err(FsError::Exists)
        );
    }

    #[test]
    fn missing_path_is_not_found() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        assert_eq!(f.lookup(&mut ctx, "/nope"), Err(FsError::NotFound));
        assert_eq!(
            f.create(&mut ctx, 0, "/no/dir/file", 0o644, root()),
            Err(FsError::NotFound)
        );
    }

    #[test]
    fn unlink_removes_and_stat_reflects() {
        let f = fs(FsProfile::f2fs_like());
        let mut ctx = Ctx::new();
        let ino = f.create(&mut ctx, 0, "/gone", 0o644, root()).unwrap();
        f.write(&mut ctx, 0, ino, 0, &[1u8; 100]).unwrap();
        let st = f.stat(&mut ctx, "/gone").unwrap();
        assert_eq!((st.size, st.kind), (100, FileKind::File));
        f.unlink(&mut ctx, 0, "/gone", root()).unwrap();
        assert_eq!(f.lookup(&mut ctx, "/gone"), Err(FsError::NotFound));
    }

    #[test]
    fn rmdir_nonempty_rejected() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        f.mkdir(&mut ctx, 0, "/d", 0o755, root()).unwrap();
        f.create(&mut ctx, 0, "/d/f", 0o644, root()).unwrap();
        assert_eq!(f.unlink(&mut ctx, 0, "/d", root()), Err(FsError::NotEmpty));
    }

    #[test]
    fn permissions_enforced_on_create() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        // Root dir is 0755 owned by root: a non-root user cannot create.
        let user = Cred {
            uid: 1000,
            gid: 1000,
        };
        assert_eq!(
            f.create(&mut ctx, 0, "/denied", 0o644, user),
            Err(FsError::Perm)
        );
    }

    #[test]
    fn truncate_shrinks() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        let ino = f.create(&mut ctx, 0, "/t", 0o644, root()).unwrap();
        f.write(&mut ctx, 0, ino, 0, &vec![9u8; 3 * PAGE_SIZE])
            .unwrap();
        f.truncate(&mut ctx, 0, ino, 10).unwrap();
        assert_eq!(f.stat(&mut ctx, "/t").unwrap().size, 10);
        let mut out = vec![0u8; 100];
        assert_eq!(f.read(&mut ctx, 0, ino, 0, &mut out).unwrap(), 10);
    }

    #[test]
    fn sparse_holes_read_zero() {
        let f = fs(FsProfile::ext4_like());
        let mut ctx = Ctx::new();
        let ino = f.create(&mut ctx, 0, "/s", 0o644, root()).unwrap();
        // Write only the third page; pages 0-1 are holes.
        f.write(&mut ctx, 0, ino, 2 * PAGE_SIZE as u64, &[5u8; PAGE_SIZE])
            .unwrap();
        let mut out = vec![0xFFu8; PAGE_SIZE];
        f.read(&mut ctx, 0, ino, 0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn metadata_lock_serializes_creates() {
        // Two actors creating at the same virtual instant on a 1-domain FS
        // must serialize on the journal lock.
        let f = fs(FsProfile::ext4_like());
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        f.create(&mut a, 0, "/f1", 0o644, root()).unwrap();
        f.create(&mut b, 1, "/f2", 0o644, root()).unwrap();
        let hold = f.profile().meta_hold_ns;
        assert!(
            b.now() >= a.now().min(2 * hold),
            "second create must queue behind the first's journal hold: a={} b={}",
            a.now(),
            b.now()
        );
    }

    #[test]
    fn xfs_domains_allow_parallel_metadata() {
        // With 16 lock domains, creates under different parents mostly
        // land in different domains and do not serialize.
        let f = fs(FsProfile::xfs_like());
        let mut setup = Ctx::new();
        f.mkdir(&mut setup, 0, "/d0", 0o755, root()).unwrap();
        f.mkdir(&mut setup, 0, "/d1", 0o755, root()).unwrap();
        let mut a = Ctx::new();
        let mut b = Ctx::new();
        f.create(&mut a, 0, "/d0/f", 0o644, root()).unwrap();
        f.create(&mut b, 1, "/d1/f", 0o644, root()).unwrap();
        // d0 is ino 2, d1 is ino 3 → domains 2 and 3: independent locks.
        let serial = a.now() + f.profile().meta_hold_ns;
        assert!(b.now() < serial, "independent domains must not serialize");
    }

    #[test]
    fn f2fs_allocates_sequentially() {
        let f = fs(FsProfile::f2fs_like());
        let mut ctx = Ctx::new();
        let i1 = f.create(&mut ctx, 0, "/a", 0o644, root()).unwrap();
        let i2 = f.create(&mut ctx, 0, "/b", 0o644, root()).unwrap();
        f.write(&mut ctx, 0, i1, 0, &[1u8; PAGE_SIZE]).unwrap();
        f.write(&mut ctx, 0, i2, 0, &[2u8; PAGE_SIZE]).unwrap();
        f.write(&mut ctx, 0, i1, PAGE_SIZE as u64, &[3u8; PAGE_SIZE])
            .unwrap();
        let inodes = f.inodes.read();
        let b1: Vec<u64> = {
            let n = inodes.get(&i1).unwrap();
            let mut v: Vec<u64> = n.blocks.values().copied().collect();
            v.sort_unstable();
            v
        };
        let b2: Vec<u64> = inodes.get(&i2).unwrap().blocks.values().copied().collect();
        // All three blocks come from one sequential head.
        assert_eq!(b1, vec![JOURNAL_BLOCKS, JOURNAL_BLOCKS + 2]);
        assert_eq!(b2, vec![JOURNAL_BLOCKS + 1]);
    }
}
