//! LabFS: the log-structured, crash-consistent POSIX filesystem LabMod
//! (paper §III-E).
//!
//! Architecture, straight from the paper:
//!
//! * **Scalable per-worker block allocator** — "evenly divides device
//!   blocks among the pool of workers. Workers can steal from one another
//!   if more space is needed." ([`BlockAllocator`])
//! * **Per-worker metadata log** — "LabFS uses a per-worker log for
//!   tracking metadata operations. As opposed to storing inodes and
//!   bitmaps on-disk as traditional FSes do, LabFS only stores the log
//!   and reconstructs inodes in-memory by traversing the log."
//!   ([`LogRecord`], over a [`Journal`])
//! * **Flat inode hashmap** — "LabFS stores all files in a single hashmap,
//!   which supports insert, rename, and delete operations with minimal
//!   contention" — here sharded for the same minimal-contention goal.
//! * **Provenance tracking** — each inode carries an operation counter and
//!   last-writer identity.
//!
//! Namespace/metadata operations touch only LabFS state and its log; data
//! operations emit `BlockOp`s down the LabStack DAG (cache → scheduler →
//! driver). The log itself is written to a reserved device region via a
//! direct handle — exactly the paper's decentralized-metadata option where
//! latency-critical log state bypasses the stack.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    BlockOp, FileStat, FsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload,
    StackEnv,
};
use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::alloc::BlockAllocator;
use crate::devices::{device_param, DeviceRegistry};
use crate::journal::{Journal, RepairReport};

/// Filesystem block size.
pub const FS_BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (FS_BLOCK / labstor_sim::SECTOR_SIZE) as u64;
/// Blocks reserved per worker log region.
const LOG_BLOCKS_PER_WORKER: u64 = 2048;

/// CPU cost of one hashmap-based metadata lookup.
const META_CPU_NS: u64 = 300;
/// CPU cost of a file creation: inode init, log record construction,
/// provenance setup. Calibrated against Fig. 7's ablations (removing the
/// 450 ns permissions stage buys ~7%, removing the ~1.3 µs IPC path ~20%).
const CREATE_CPU_NS: u64 = 4_200;
/// CPU cost of appending one log record to the in-memory log buffer.
const LOG_APPEND_NS: u64 = 80;
/// CPU cost of one block allocation (bump pointer).
const ALLOC_NS: u64 = 40;

// ---------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------

/// A metadata log record. The log is the *only* persistent metadata:
/// replaying it reconstructs every inode (crash consistency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// File or directory creation.
    Create {
        /// Full path key.
        path: String,
        /// Assigned inode.
        ino: u64,
        /// Permission bits.
        mode: u16,
        /// Owner uid.
        uid: u32,
        /// Owner gid.
        gid: u32,
        /// Directory flag.
        is_dir: bool,
    },
    /// Removal.
    Unlink {
        /// Full path key.
        path: String,
    },
    /// File size change (extend or truncate).
    SetSize {
        /// Inode.
        ino: u64,
        /// New size in bytes.
        size: u64,
    },
    /// Data block mapping.
    MapBlock {
        /// Inode.
        ino: u64,
        /// File page index.
        page: u64,
        /// Device block number.
        block: u64,
    },
    /// Rename (the flat hashmap's key move).
    Rename {
        /// Existing path key.
        from: String,
        /// New path key.
        to: String,
    },
}

impl LogRecord {
    /// Serialize into `out` (length-prefixed strings, little endian).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                out.push(1);
                out.extend_from_slice(&(path.len() as u32).to_le_bytes());
                out.extend_from_slice(path.as_bytes());
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&gid.to_le_bytes());
                out.push(u8::from(*is_dir));
            }
            LogRecord::Unlink { path } => {
                out.push(2);
                out.extend_from_slice(&(path.len() as u32).to_le_bytes());
                out.extend_from_slice(path.as_bytes());
            }
            LogRecord::SetSize { ino, size } => {
                out.push(3);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&size.to_le_bytes());
            }
            LogRecord::MapBlock { ino, page, block } => {
                out.push(4);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&block.to_le_bytes());
            }
            LogRecord::Rename { from, to } => {
                out.push(5);
                out.extend_from_slice(&(from.len() as u32).to_le_bytes());
                out.extend_from_slice(from.as_bytes());
                out.extend_from_slice(&(to.len() as u32).to_le_bytes());
                out.extend_from_slice(to.as_bytes());
            }
        }
    }

    /// Decode one record from `buf[*pos..]`, advancing `pos`. Returns
    /// `None` at a zero tag (end-of-log padding) or on truncation.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Option<&'b [u8]> {
            let s = &buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let path = String::from_utf8(take(buf, pos, len)?.to_vec()).ok()?;
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let mode = u16::from_le_bytes(take(buf, pos, 2)?.try_into().ok()?);
                let uid = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?);
                let gid = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?);
                let is_dir = *take(buf, pos, 1)?.first()? != 0;
                Some(LogRecord::Create {
                    path,
                    ino,
                    mode,
                    uid,
                    gid,
                    is_dir,
                })
            }
            2 => {
                let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let path = String::from_utf8(take(buf, pos, len)?.to_vec()).ok()?;
                Some(LogRecord::Unlink { path })
            }
            3 => {
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let size = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                Some(LogRecord::SetSize { ino, size })
            }
            4 => {
                let ino = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let page = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let block = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                Some(LogRecord::MapBlock { ino, page, block })
            }
            5 => {
                let flen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let from = String::from_utf8(take(buf, pos, flen)?.to_vec()).ok()?;
                let tlen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a path string — metadata, not payload bytes
                let to = String::from_utf8(take(buf, pos, tlen)?.to_vec()).ok()?;
                Some(LogRecord::Rename { from, to })
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// LabFS
// ---------------------------------------------------------------------

struct FsNode {
    ino: u64,
    size: u64,
    uid: u32,
    gid: u32,
    mode: u16,
    is_dir: bool,
    /// page index → device block.
    blocks: HashMap<u64, u64>,
    /// Provenance: operations applied to this inode.
    ops: u64,
    /// Provenance: uid of the last writer.
    last_writer: u32,
}

/// The LabFS LabMod.
pub struct LabFs {
    /// Sharded path → ino ("a single hashmap" with minimal contention).
    names: Vec<RwLock<HashMap<String, u64>>>,
    /// Sharded ino → node.
    nodes: Vec<RwLock<HashMap<u64, FsNode>>>,
    allocator: BlockAllocator,
    /// The per-worker metadata logs, written to a reserved device region
    /// through a direct handle.
    journal: Journal,
    next_ino: AtomicU64,
    perf: PerfCounters,
    /// Busy time spent in downstream stages (subtracted so
    /// `est_total_time` reports LabFS-exclusive work).
    downstream_ns: AtomicU64,
}

impl LabFs {
    /// Build LabFS over `device` with `workers` allocator/log shards.
    pub fn new(device: Arc<SimDevice>, workers: usize) -> Self {
        let workers = workers.max(1);
        let total_blocks = device.model().capacity_sectors() / BLOCK_SECTORS;
        let log_blocks = LOG_BLOCKS_PER_WORKER * workers as u64;
        let shards = workers.next_power_of_two().max(16);
        LabFs {
            names: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            nodes: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            allocator: BlockAllocator::new(log_blocks, total_blocks, workers, 4096),
            journal: Journal::new(device, workers, LOG_BLOCKS_PER_WORKER * BLOCK_SECTORS),
            next_ino: AtomicU64::new(1),
            perf: PerfCounters::new(),
            downstream_ns: AtomicU64::new(0),
        }
    }

    /// Forward while attributing the downstream busy time to downstream.
    fn fwd(&self, ctx: &mut Ctx, env: &StackEnv<'_>, req: Request) -> RespPayload {
        let before = ctx.busy();
        let r = env.forward(ctx, req);
        self.downstream_ns
            .fetch_add(ctx.busy() - before, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        r
    }

    fn name_shard_idx(&self, path: &str) -> usize {
        let mut h = 0xcbf29ce484222325u64;
        for b in path.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        (h as usize) % self.names.len()
    }

    fn name_shard(&self, path: &str) -> &RwLock<HashMap<String, u64>> {
        &self.names[self.name_shard_idx(path)]
    }

    fn node_shard(&self, ino: u64) -> &RwLock<HashMap<u64, FsNode>> {
        &self.nodes[(ino as usize) % self.nodes.len()]
    }

    /// Append a record to the originating worker's log.
    fn log(&self, ctx: &mut Ctx, core: usize, rec: &LogRecord) {
        ctx.advance(LOG_APPEND_NS);
        self.journal.append(core, ctx.now(), |buf| rec.encode(buf));
    }

    /// Apply one log record to the in-memory maps (used by replay).
    fn apply(&self, rec: LogRecord) {
        match rec {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                self.name_shard(&path).write().insert(path, ino);
                self.node_shard(ino).write().insert(
                    ino,
                    FsNode {
                        ino,
                        size: 0,
                        uid,
                        gid,
                        mode,
                        is_dir,
                        blocks: HashMap::new(),
                        ops: 1,
                        last_writer: uid,
                    },
                );
                // Keep ino allocation ahead of everything replayed.
                self.next_ino.fetch_max(ino + 1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
            }
            LogRecord::Unlink { path } => {
                if let Some(ino) = self.name_shard(&path).write().remove(&path) {
                    self.node_shard(ino).write().remove(&ino);
                }
            }
            LogRecord::SetSize { ino, size } => {
                if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                    n.size = size;
                }
            }
            LogRecord::MapBlock { ino, page, block } => {
                self.allocator.reserve(block, block + 1);
                if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                    n.blocks.insert(page, block);
                }
            }
            LogRecord::Rename { from, to } => {
                self.rename_in_maps(&from, &to);
            }
        }
    }

    /// Move a key between name shards, replacing any existing target
    /// (POSIX rename semantics). Returns false if `from` does not exist.
    fn rename_in_maps(&self, from: &str, to: &str) -> bool {
        // Lock discipline: a rename may span two shards; take the lower
        // shard index first.
        let fi = self.name_shard_idx(from);
        let ti = self.name_shard_idx(to);
        if fi == ti {
            let mut shard = self.names[fi].write();
            let Some(ino) = shard.remove(from) else {
                return false;
            };
            if let Some(old) = shard.insert(to.to_string(), ino) {
                self.node_shard(old).write().remove(&old);
            }
            true
        } else {
            let (lo, hi) = (fi.min(ti), fi.max(ti));
            let mut lo_guard = self.names[lo].write();
            let mut hi_guard = self.names[hi].write();
            let (from_shard, to_shard) = if fi == lo {
                (&mut lo_guard, &mut hi_guard)
            } else {
                (&mut hi_guard, &mut lo_guard)
            };
            let Some(ino) = from_shard.remove(from) else {
                return false;
            };
            if let Some(old) = to_shard.insert(to.to_string(), ino) {
                self.node_shard(old).write().remove(&old);
            }
            true
        }
    }

    /// Drop all in-memory state and rebuild it by scanning the on-device
    /// journal regions — the crash-recovery path behind `state_repair`.
    /// Each region replays the longest prefix of committed frames and
    /// discards any torn or stale tail (see [`Journal::replay`]).
    pub fn replay_from_device(&self) -> RepairReport {
        for shard in &self.names {
            shard.write().clear();
        }
        for shard in &self.nodes {
            shard.write().clear();
        }
        self.journal
            .replay(|buf, pos| LogRecord::decode(buf, pos).map(|rec| self.apply(rec)))
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        self.journal.last_repair()
    }

    /// Number of live files/directories.
    pub fn file_count(&self) -> usize {
        self.names.iter().map(|s| s.read().len()).sum()
    }

    /// Provenance query: (ops, last_writer) for an inode.
    pub fn provenance(&self, ino: u64) -> Option<(u64, u32)> {
        self.node_shard(ino)
            .read()
            .get(&ino)
            .map(|n| (n.ops, n.last_writer))
    }

    // ---- operations ----------------------------------------------------

    fn op_create(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        path: &str,
        mode: u16,
        is_dir: bool,
    ) -> RespPayload {
        ctx.advance(CREATE_CPU_NS);
        let ino = {
            let mut names = self.name_shard(path).write();
            if names.contains_key(path) {
                return RespPayload::Err(format!("{path}: file exists"));
            }
            let ino = self.next_ino.fetch_add(1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
            names.insert(path.to_string(), ino);
            ino
        };
        self.node_shard(ino).write().insert(
            ino,
            FsNode {
                ino,
                size: 0,
                uid: req.creds.uid,
                gid: req.creds.gid,
                mode,
                is_dir,
                blocks: HashMap::new(),
                ops: 1,
                last_writer: req.creds.uid,
            },
        );
        self.log(
            ctx,
            req.core,
            &LogRecord::Create {
                path: path.to_string(),
                ino,
                mode,
                uid: req.creds.uid,
                gid: req.creds.gid,
                is_dir,
            },
        );
        RespPayload::Ino(ino)
    }

    /// Map `[offset, offset+len)` of `ino` to device blocks, allocating
    /// and logging as needed (the metadata half shared by the copying and
    /// zero-copy write paths). Returns the (page, block) extents and the
    /// set of freshly mapped pages.
    #[allow(clippy::type_complexity)]
    fn map_range(
        &self,
        ctx: &mut Ctx,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<(u64, u64)>, std::collections::HashSet<u64>), RespPayload> {
        let first_pg = offset / FS_BLOCK as u64;
        let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
        let mut extents: Vec<(u64, u64)> = Vec::new(); // (page, block)
        let mut fresh: Vec<(u64, u64)> = Vec::new(); // newly mapped
        let grew;
        {
            let mut shard = self.node_shard(ino).write();
            let Some(node) = shard.get_mut(&ino) else {
                return Err(RespPayload::Err(format!("no inode {ino}")));
            };
            if node.is_dir {
                return Err(RespPayload::Err("is a directory".into()));
            }
            for pg in first_pg..last_pg {
                match node.blocks.get(&pg) {
                    Some(&b) => extents.push((pg, b)),
                    None => {
                        ctx.advance(ALLOC_NS);
                        let Some(b) = self.allocator.alloc(req.core) else {
                            return Err(RespPayload::Err("no space".into()));
                        };
                        node.blocks.insert(pg, b);
                        extents.push((pg, b));
                        fresh.push((pg, b));
                    }
                }
            }
            grew = offset + len as u64 > node.size;
            node.size = node.size.max(offset + len as u64);
            node.ops += 1;
            node.last_writer = req.creds.uid;
        }
        // Log only what changed: new mappings and growth.
        for &(pg, b) in &fresh {
            self.log(
                ctx,
                req.core,
                &LogRecord::MapBlock {
                    ino,
                    page: pg,
                    block: b,
                },
            );
        }
        if grew {
            self.log(
                ctx,
                req.core,
                &LogRecord::SetSize {
                    ino,
                    size: offset + len as u64,
                },
            );
        }
        Ok((extents, fresh.iter().map(|&(pg, _)| pg).collect()))
    }

    fn op_write(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        data: Vec<u8>,
    ) -> RespPayload {
        // Map every touched page to a block, allocating as needed.
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (extents, fresh_pages) = match self.map_range(ctx, req, ino, offset, data.len()) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let len = data.len();
        let end = offset + len as u64;
        let whole_pages = offset.is_multiple_of(FS_BLOCK as u64) && len.is_multiple_of(FS_BLOCK);
        if whole_pages && extents.windows(2).all(|w| w[1].1 == w[0].1 + 1) {
            // Whole pages on one contiguous run: the caller's allocation
            // goes downstream as it is, neither zero-filled nor copied.
            let Some(&(_, block)) = extents.first() else {
                return RespPayload::Len(0);
            };
            let lba = block * BLOCK_SECTORS;
            let r = self.fwd_block(ctx, env, req, BlockOp::Write { lba, data });
            return if r.is_ok() { RespPayload::Len(len) } else { r };
        }
        // Emit block writes downstream. Partially-covered pages that were
        // already mapped (and not freshly allocated) need read-modify-write
        // so neighbouring bytes survive; full pages and fresh pages are
        // written directly, coalescing contiguous full blocks.
        let mut i = 0usize;
        while i < extents.len() {
            let (page, block) = extents[i];
            let pg_start = page * FS_BLOCK as u64;
            let cover_from = pg_start.max(offset);
            let cover_to = (pg_start + FS_BLOCK as u64).min(end);
            let full = cover_from == pg_start && cover_to == pg_start + FS_BLOCK as u64;
            if !full && !fresh_pages.contains(&page) {
                // Partial overwrite of an existing block: read-modify-write.
                let lba = block * BLOCK_SECTORS;
                let read = BlockOp::Read { lba, len: FS_BLOCK };
                let mut payload = match self.fwd_block(ctx, env, req, read) {
                    RespPayload::Data(d) => d,
                    other => return other,
                };
                payload.resize(FS_BLOCK, 0);
                let dst = (cover_from - pg_start) as usize;
                let src = (cover_from - offset) as usize;
                let n = (cover_to - cover_from) as usize;
                payload[dst..dst + n].copy_from_slice(&data[src..src + n]);
                let r = self.fwd_block(ctx, env, req, BlockOp::Write { lba, data: payload });
                if !r.is_ok() {
                    return r;
                }
                i += 1;
                continue;
            }
            // Coalesce a run of contiguous blocks that are full or fresh.
            let mut j = i;
            while j + 1 < extents.len() && extents[j + 1].1 == extents[j].1 + 1 {
                let (npage, _) = extents[j + 1];
                let n_start = npage * FS_BLOCK as u64;
                let n_full = offset <= n_start && n_start + FS_BLOCK as u64 <= end;
                if !n_full && !fresh_pages.contains(&npage) {
                    break;
                }
                j += 1;
            }
            let run_bytes = (j - i + 1) * FS_BLOCK;
            let run_start = pg_start.max(offset);
            let run_end = (pg_start + run_bytes as u64).min(end);
            let src = &data[(run_start - offset) as usize..(run_end - offset) as usize];
            // Zero only what the caller's bytes do not cover: the head of
            // a fresh first page, the tail of a fresh last one.
            let mut payload = Vec::with_capacity(run_bytes);
            payload.resize((run_start - pg_start) as usize, 0);
            payload.extend_from_slice(src);
            payload.resize(run_bytes, 0);
            let lba = block * BLOCK_SECTORS;
            let r = self.fwd_block(ctx, env, req, BlockOp::Write { lba, data: payload });
            if !r.is_ok() {
                return r;
            }
            i = j + 1;
        }
        RespPayload::Len(len)
    }

    /// Read `[offset, offset + len)`, one block request per run of pages
    /// that are contiguous on the device — the mirror image of the write
    /// paths' coalescing. `zero_copy` (the `ReadBuf` op) asks downstream
    /// for pool handles and may answer with one or with inline bytes; the
    /// legacy `Read` op always answers `Data`.
    ///
    /// A read that is a single run hands back a window of whatever came
    /// up — `h.slice(..)` of a handle, the `Vec` itself when it starts at
    /// the window — with no assembly buffer. Holes and scattered files
    /// assemble into one `Vec`, each mapped byte copied (and counted) once.
    #[allow(clippy::too_many_arguments)]
    fn op_read(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
        zero_copy: bool,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let first_pg = offset / FS_BLOCK as u64;
        let (size, mut mappings): (u64, Vec<Option<u64>>) = {
            let shard = self.node_shard(ino).read();
            let Some(node) = shard.get(&ino) else {
                return RespPayload::Err(format!("no inode {ino}"));
            };
            if node.is_dir {
                return RespPayload::Err("is a directory".into());
            }
            let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
            (
                node.size,
                (first_pg..last_pg)
                    .map(|pg| node.blocks.get(&pg).copied())
                    .collect(),
            )
        };
        if offset >= size {
            return RespPayload::Data(Vec::new());
        }
        let n = len.min((size - offset) as usize);
        let src = (offset - first_pg * FS_BLOCK as u64) as usize;
        mappings.truncate((src + n).div_ceil(FS_BLOCK));
        let read = |block: u64, pages: usize| {
            let (lba, len) = (block * BLOCK_SECTORS, pages * FS_BLOCK);
            if zero_copy {
                BlockOp::ReadBuf { lba, len }
            } else {
                BlockOp::Read { lba, len }
            }
        };
        let run_from = |i: usize, block: u64| {
            (i..mappings.len())
                .take_while(|&j| mappings[j] == Some(block + (j - i) as u64))
                .count()
        };
        let inline = |win: &[u8]| {
            // Small results skip the handle round trip and ride by value
            // in the envelope.
            zero_copy
                .then(|| labstor_ipc::InlineData::from_slice(win))
                .flatten()
                .map(RespPayload::Inline)
        };
        if mappings.iter().all(Option::is_none) {
            // Hole: hand back zeroes without touching the stack.
            let zeroes = vec![0u8; n];
            return inline(&zeroes).unwrap_or(RespPayload::Data(zeroes));
        }
        if let Some(block) = mappings[0].filter(|&b| run_from(0, b) == mappings.len()) {
            // One run: no assembly, the answer is a window of the response.
            return match self.fwd_block(ctx, env, req, read(block, mappings.len())) {
                RespPayload::DataBuf(h) => match h.slice(src, n) {
                    None => RespPayload::Err("short block read".into()),
                    Some(win) => inline(win.as_slice()).unwrap_or_else(|| {
                        if zero_copy {
                            // The zero-copy path: a view of the cached/DMA'd run.
                            RespPayload::DataBuf(win)
                        } else {
                            // copy-ok: legacy Read answers with owned bytes; to_vec self-counts
                            RespPayload::Data(win.to_vec())
                        }
                    }),
                },
                RespPayload::Data(mut d) => {
                    let Some(win) = d.get(src..src + n) else {
                        return RespPayload::Err("short block read".into());
                    };
                    if let Some(small) = inline(win) {
                        small
                    } else if src == 0 {
                        d.truncate(n);
                        RespPayload::Data(d)
                    } else {
                        labstor_ipc::note_payload_copy(n);
                        RespPayload::Data(win.to_vec()) // copy-ok: the window starts inside the owned response; counted above
                    }
                }
                other => other,
            };
        }
        // Holes or scattered runs: assemble. Holes stay zero.
        let mut out = vec![0u8; n];
        let mut i = 0usize;
        while i < mappings.len() {
            let Some(block) = mappings[i] else {
                i += 1;
                continue;
            };
            let pages = run_from(i, block);
            let resp = self.fwd_block(ctx, env, req, read(block, pages));
            let Some(bytes) = resp.data_bytes() else {
                return resp;
            };
            // This run's bytes within the request and within the response.
            let run_start = (first_pg + i as u64) * FS_BLOCK as u64;
            let copy_from = run_start.max(offset);
            let copy_to = (run_start + (pages * FS_BLOCK) as u64).min(offset + n as u64);
            let cnt = (copy_to - copy_from) as usize;
            let Some(win) = bytes
                .get((copy_from - run_start) as usize..)
                .and_then(|b| b.get(..cnt))
            else {
                return RespPayload::Err("short block read".into());
            };
            let dst = (copy_from - offset) as usize;
            labstor_ipc::note_payload_copy(cnt);
            out[dst..dst + cnt].copy_from_slice(win); // copy-ok: assembly of a scattered read; counted above
            i += pages;
        }
        RespPayload::Data(out)
    }

    /// Record this request's own busy time (downstream's subtracted).
    fn observed(&self, ctx: &Ctx, before: u64, resp: RespPayload) -> RespPayload {
        let downstream = self.downstream_ns.swap(0, Ordering::Relaxed); // relaxed-ok: stat counter; readers tolerate lag
        self.perf
            .observe((ctx.busy() - before).saturating_sub(downstream));
        resp
    }

    /// Forward one block op downstream with the request's routing intact.
    fn fwd_block(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        op: BlockOp,
    ) -> RespPayload {
        let mut fwd = Request::new(req.id, req.stack, Payload::Block(op), req.creds);
        fwd.vertex = env.vertex;
        fwd.core = req.core;
        fwd.qid_hint = req.qid_hint;
        self.fwd(ctx, env, fwd)
    }

    /// Zero-copy write: fully covered pages are forwarded as `WriteBuf`
    /// slices of the caller's pool buffer (refcount bumps — no memcpy all
    /// the way to the driver, which DMAs from the shared buffer). Partial
    /// pages fall back to the copying path: fresh ones are zero-padded,
    /// existing ones read-modify-write; both copies are counted.
    fn op_write_buf(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        buf: &labstor_ipc::BufHandle,
    ) -> RespPayload {
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let data_len = buf.len();
        let (extents, fresh_pages) = match self.map_range(ctx, req, ino, offset, data_len) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let end = offset + data_len as u64;
        let mut i = 0usize;
        while i < extents.len() {
            let (page, block) = extents[i];
            let pg_start = page * FS_BLOCK as u64;
            let cover_from = pg_start.max(offset);
            let cover_to = (pg_start + FS_BLOCK as u64).min(end);
            let full = cover_from == pg_start && cover_to == pg_start + FS_BLOCK as u64;
            if full {
                // Coalesce contiguous fully covered blocks into one slice.
                let mut j = i;
                while j + 1 < extents.len() && extents[j + 1].1 == extents[j].1 + 1 {
                    let n_start = extents[j + 1].0 * FS_BLOCK as u64;
                    if !(offset <= n_start && n_start + FS_BLOCK as u64 <= end) {
                        break;
                    }
                    j += 1;
                }
                let run_pages = j - i + 1;
                let Some(slice) = buf.slice((pg_start - offset) as usize, run_pages * FS_BLOCK)
                else {
                    return RespPayload::Err("write buffer shorter than its extent".into());
                };
                let r = self.fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::WriteBuf {
                        lba: block * BLOCK_SECTORS,
                        buf: slice,
                    },
                );
                if !r.is_ok() {
                    return r;
                }
                i = j + 1;
                continue;
            }
            // Partial page: copying fallback.
            let dst = (cover_from - pg_start) as usize;
            let src = (cover_from - offset) as usize;
            let cnt = (cover_to - cover_from) as usize;
            let mut payload = if fresh_pages.contains(&page) {
                vec![0u8; FS_BLOCK] // fresh block: pad with zeroes
            } else {
                // Read-modify-write so neighbouring bytes survive.
                let mut p = match self.fwd_block(
                    ctx,
                    env,
                    req,
                    BlockOp::Read {
                        lba: block * BLOCK_SECTORS,
                        len: FS_BLOCK,
                    },
                ) {
                    RespPayload::Data(d) => d,
                    RespPayload::DataBuf(h) => h.to_vec(), // copy-ok: RMW needs owned bytes; to_vec self-counts
                    other => return other,
                };
                p.resize(FS_BLOCK, 0);
                p
            };
            labstor_ipc::note_payload_copy(cnt);
            payload[dst..dst + cnt].copy_from_slice(&buf.as_slice()[src..src + cnt]); // copy-ok: partial-page patch; counted above
            let r = self.fwd_block(
                ctx,
                env,
                req,
                BlockOp::Write {
                    lba: block * BLOCK_SECTORS,
                    data: payload,
                },
            );
            if !r.is_ok() {
                return r;
            }
            i += 1;
        }
        RespPayload::Len(data_len)
    }

    /// Pushdown read: run a verified program over the file range
    /// in-stack and ship back only the result. Every page is scanned in
    /// place — cache hits stay refcounted handle slices, legacy `Data`
    /// answers are scanned where they sit — so the hit path counts
    /// **zero** payload copies. Fuel is metered per instruction across
    /// the whole range and billed to the requesting tenant afterwards.
    #[allow(clippy::too_many_arguments)]
    fn op_read_filtered(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        ino: u64,
        offset: u64,
        len: usize,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        use labstor_pushdown::{scan, Action, ScanOut};

        let rlen = prog.record_len();
        // Records must pack pages exactly: no record straddles a block
        // boundary, so each page scans independently over one slice.
        if rlen > FS_BLOCK || !FS_BLOCK.is_multiple_of(rlen) {
            return RespPayload::Err(format!(
                "pushdown: record length {rlen} does not pack {FS_BLOCK}-byte pages"
            ));
        }
        if !offset.is_multiple_of(rlen as u64) {
            return RespPayload::Err(format!(
                "pushdown: offset {offset} not aligned to {rlen}-byte records"
            ));
        }
        ctx.advance(META_CPU_NS); // inode + mapping lookup
        let (size, mappings): (u64, Vec<Option<u64>>) = {
            let shard = self.node_shard(ino).read();
            let Some(node) = shard.get(&ino) else {
                return RespPayload::Err(format!("no inode {ino}"));
            };
            if node.is_dir {
                return RespPayload::Err("is a directory".into());
            }
            let first_pg = offset / FS_BLOCK as u64;
            let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
            (
                node.size,
                (first_pg..last_pg)
                    .map(|pg| node.blocks.get(&pg).copied())
                    .collect(),
            )
        };
        let avail = size.saturating_sub(offset) as usize;
        let n = (len.min(avail) / rlen) * rlen; // whole records only
        let mut fuel = prog.fuel_budget();
        let mut out = ScanOut::default();
        let mut matched: Vec<u8> = Vec::new();
        let first_pg = offset / FS_BLOCK as u64;
        static ZERO_PAGE: [u8; FS_BLOCK] = [0u8; FS_BLOCK];
        for (idx, mapping) in mappings.iter().enumerate() {
            let pg = first_pg + idx as u64;
            let pg_start = pg * FS_BLOCK as u64;
            let win_from = pg_start.max(offset);
            let win_to = (pg_start + FS_BLOCK as u64).min(offset + n as u64);
            if win_from >= win_to {
                continue;
            }
            let src = (win_from - pg_start) as usize;
            let cnt = (win_to - win_from) as usize;
            let base_index = (win_from - offset) / rlen as u64;
            // Holes read as zeroes; scan the shared zero page so hole
            // semantics match a plain read without materializing pages.
            let hole_resp;
            let window: &[u8] = match mapping {
                None => &ZERO_PAGE[src..src + cnt],
                Some(block) => {
                    hole_resp = self.fwd_block(
                        ctx,
                        env,
                        req,
                        BlockOp::ReadBuf {
                            lba: block * BLOCK_SECTORS,
                            len: FS_BLOCK,
                        },
                    );
                    match &hole_resp {
                        // The pushdown payoff: scan the cached/DMA'd
                        // block in place through the handle — no copy.
                        RespPayload::DataBuf(h) if h.len() >= src + cnt => {
                            &h.as_slice()[src..src + cnt]
                        }
                        RespPayload::Data(d) if d.len() >= src + cnt => &d[src..src + cnt],
                        RespPayload::DataBuf(_) | RespPayload::Data(_) => {
                            return RespPayload::Err("short block read".into())
                        }
                        _ => return hole_resp.clone(),
                    }
                }
            };
            let before_hits = out.hits.len();
            let scan_result = scan(prog, window, base_index, &mut fuel, &mut out);
            if prog.action() == Action::Select {
                for &hit in &out.hits[before_hits..] {
                    // copy-ok: materializing the (rare) matching records is
                    // the result, not a payload move; the pool boundary
                    // below self-counts if it leaves inline range.
                    matched.extend_from_slice(&window[hit..hit + rlen]);
                }
            }
            if scan_result.is_err() {
                let used = prog.fuel_budget() - fuel;
                let _ = env.charge_fuel(ctx, &req.creds, used);
                return RespPayload::Err(format!(
                    "pushdown: out of fuel after {} records",
                    out.records
                ));
            }
        }
        let used = prog.fuel_budget() - fuel;
        if let Err(retry_vns) = env.charge_fuel(ctx, &req.creds, used) {
            return RespPayload::Err(format!(
                "pushdown: tenant {} over fuel budget, retry in {retry_vns} vns",
                req.creds.tenant.as_u32()
            ));
        }
        match prog.action() {
            Action::Count | Action::Sum => {
                let reply = labstor_pushdown::AggReply {
                    records: out.records,
                    matches: out.matches,
                    agg: out.agg,
                    fuel_used: used,
                };
                match labstor_ipc::InlineData::from_slice(&reply.encode()) {
                    Some(d) => RespPayload::Inline(d),
                    None => RespPayload::Err("pushdown: aggregate too large".into()),
                }
            }
            Action::Select => match labstor_ipc::InlineData::from_slice(&matched) {
                Some(d) => RespPayload::Inline(d),
                None => match labstor_ipc::default_pool().alloc_from(&matched) {
                    Some(h) => RespPayload::DataBuf(h),
                    None => RespPayload::Data(matched),
                },
            },
        }
    }
}

impl LabMod for LabFs {
    fn type_name(&self) -> &'static str {
        "labfs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filesystem
    }

    fn process(&self, ctx: &mut Ctx, mut req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        if let Payload::Fs(FsOp::Write { ino, offset, data }) = &mut req.payload {
            // A write's bytes move out of the request: a whole-page run
            // goes downstream as the allocation the caller made.
            let (ino, offset, data) = (*ino, *offset, std::mem::take(data));
            let resp = self.op_write(ctx, env, &req, ino, offset, data);
            return self.observed(ctx, before, resp);
        }
        let resp = match &req.payload {
            Payload::Fs(FsOp::Create { path, mode }) => {
                self.op_create(ctx, &req, path, *mode, false)
            }
            Payload::Fs(FsOp::Mkdir { path, mode }) => self.op_create(ctx, &req, path, *mode, true),
            Payload::Fs(FsOp::Open {
                path,
                create,
                truncate,
            }) => {
                ctx.advance(META_CPU_NS);
                let existing = self.name_shard(path).read().get(path).copied();
                match existing {
                    Some(ino) => {
                        if *truncate {
                            if let Some(n) = self.node_shard(ino).write().get_mut(&ino) {
                                n.size = 0;
                                n.blocks.clear();
                                n.ops += 1;
                            }
                            self.log(ctx, req.core, &LogRecord::SetSize { ino, size: 0 });
                        }
                        RespPayload::Ino(ino)
                    }
                    None if *create => self.op_create(ctx, &req, path, 0o644, false),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::WriteBuf { ino, offset, buf }) => {
                self.op_write_buf(ctx, env, &req, *ino, *offset, buf)
            }
            Payload::Fs(FsOp::Read { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len, false)
            }
            Payload::Fs(FsOp::ReadBuf { ino, offset, len }) => {
                self.op_read(ctx, env, &req, *ino, *offset, *len, true)
            }
            Payload::Fs(FsOp::ReadFiltered {
                ino,
                offset,
                len,
                prog,
            }) => self.op_read_filtered(ctx, env, &req, *ino, *offset, *len, prog),
            Payload::Fs(FsOp::Rename { from, to }) => {
                ctx.advance(META_CPU_NS);
                if self.rename_in_maps(from, to) {
                    self.log(
                        ctx,
                        req.core,
                        &LogRecord::Rename {
                            from: from.clone(),
                            to: to.clone(),
                        },
                    );
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("{from}: not found"))
                }
            }
            Payload::Fs(FsOp::Unlink { path }) => {
                ctx.advance(META_CPU_NS);
                let removed = self.name_shard(path).write().remove(path);
                match removed {
                    Some(ino) => {
                        self.node_shard(ino).write().remove(&ino);
                        self.log(ctx, req.core, &LogRecord::Unlink { path: path.clone() });
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::Stat { path }) => {
                ctx.advance(META_CPU_NS);
                let ino = self.name_shard(path).read().get(path).copied();
                match ino.and_then(|i| {
                    self.node_shard(i).read().get(&i).map(|n| FileStat {
                        ino: n.ino,
                        size: n.size,
                        is_dir: n.is_dir,
                        uid: n.uid,
                        gid: n.gid,
                        mode: n.mode,
                    })
                }) {
                    Some(st) => RespPayload::Stat(st),
                    None => RespPayload::Err(format!("{path}: not found")),
                }
            }
            Payload::Fs(FsOp::Readdir { path }) => {
                let prefix = if path.ends_with('/') {
                    path.clone()
                } else {
                    format!("{path}/")
                };
                let mut names: Vec<String> = Vec::new();
                for shard in &self.names {
                    for key in shard.read().keys() {
                        if let Some(rest) = key.strip_prefix(&prefix) {
                            if !rest.is_empty() && !rest.contains('/') {
                                names.push(rest.to_string());
                            }
                        }
                    }
                }
                ctx.advance(100 * names.len().max(1) as u64);
                names.sort();
                RespPayload::Names(names)
            }
            Payload::Fs(FsOp::Truncate { ino, size }) => {
                ctx.advance(META_CPU_NS);
                let mut shard = self.node_shard(*ino).write();
                match shard.get_mut(ino) {
                    Some(n) => {
                        n.size = *size;
                        let keep = size.div_ceil(FS_BLOCK as u64);
                        n.blocks.retain(|&pg, _| pg < keep);
                        n.ops += 1;
                        drop(shard);
                        self.log(
                            ctx,
                            req.core,
                            &LogRecord::SetSize {
                                ino: *ino,
                                size: *size,
                            },
                        );
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("no inode {ino}")),
                }
            }
            Payload::Fs(FsOp::Fsync { .. }) => {
                // Persist the metadata log, then barrier the data path.
                if let Err(e) = self.journal.sync(ctx) {
                    return RespPayload::Err(e.to_string());
                }
                let mut fwd =
                    Request::new(req.id, req.stack, Payload::Block(BlockOp::Flush), req.creds);
                fwd.vertex = env.vertex;
                fwd.core = req.core;
                self.fwd(ctx, env, fwd)
            }
            // Pass non-FS payloads through (e.g. a barrier travelling the
            // stack).
            _ => self.fwd(ctx, env, req),
        };
        self.observed(ctx, before, resp)
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(match &req.payload {
            Payload::Fs(FsOp::Write { data, .. }) => 2_000 + data.len() as u64,
            Payload::Fs(FsOp::WriteBuf { buf, .. }) => 2_000 + buf.len() as u64,
            Payload::Fs(
                FsOp::Read { len, .. } | FsOp::ReadBuf { len, .. } | FsOp::ReadFiltered { len, .. },
            ) => 2_000 + *len as u64,
            _ => META_CPU_NS + LOG_APPEND_NS,
        })
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        // Upgrades move the whole in-memory state across instances.
        if let Some(prev) = old.as_any().downcast_ref::<LabFs>() {
            self.perf.absorb(&prev.perf);
            for (mine, theirs) in self.names.iter().zip(prev.names.iter()) {
                *mine.write() = theirs.read().clone();
            }
            for (mine, theirs) in self.nodes.iter().zip(prev.nodes.iter()) {
                let mut m = mine.write();
                let t = theirs.read();
                m.clear();
                for (k, v) in t.iter() {
                    m.insert(
                        *k,
                        FsNode {
                            ino: v.ino,
                            size: v.size,
                            uid: v.uid,
                            gid: v.gid,
                            mode: v.mode,
                            is_dir: v.is_dir,
                            blocks: v.blocks.clone(),
                            ops: v.ops,
                            last_writer: v.last_writer,
                        },
                    );
                }
            }
            self.journal.absorb(&prev.journal);
            self.allocator.absorb(&prev.allocator);
            // relaxed-ok: fresh-id allocation; atomicity alone suffices
            self.next_ino
                .store(prev.next_ino.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    fn state_repair(&self) {
        self.replay_from_device();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"device": "<name>", "workers": <n>}`.
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "labfs",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            let workers = params.get("workers").and_then(|v| v.as_u64()).unwrap_or(8) as usize;
            Arc::new(LabFs::new(dev, workers)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    struct Harness {
        mm: ModuleManager,
        stack: LabStack,
    }

    impl Harness {
        fn new() -> (Harness, Arc<SimDevice>) {
            let devices = DeviceRegistry::new();
            let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
            let mm = ModuleManager::new();
            install(&mm, &devices);
            crate::drivers::install(&mm, &devices);
            mm.instantiate(
                "fs",
                "labfs",
                &serde_json::json!({"device": "nvme0", "workers": 4}),
            )
            .unwrap();
            mm.instantiate(
                "drv",
                "kernel_driver",
                &serde_json::json!({"device": "nvme0"}),
            )
            .unwrap();
            let stack = LabStack {
                id: 1,
                mount: "fs::/t".into(),
                exec: ExecMode::Sync,
                vertices: vec![
                    Vertex {
                        uuid: "fs".into(),
                        outputs: vec![1],
                    },
                    Vertex {
                        uuid: "drv".into(),
                        outputs: vec![],
                    },
                ],
                authorized_uids: vec![],
            };
            (Harness { mm, stack }, dev)
        }

        fn exec(&self, payload: Payload, ctx: &mut Ctx) -> RespPayload {
            let env = StackEnv {
                stack: &self.stack,
                vertex: 0,
                registry: &self.mm,
                domain: 0,
            };
            self.mm.get("fs").unwrap().process(
                ctx,
                Request::new(1, 1, payload, Credentials::ROOT),
                &env,
            )
        }

        fn labfs(&self) -> Arc<dyn LabMod> {
            self.mm.get("fs").unwrap()
        }

        /// One acked journal transaction: create `path`, then fsync it.
        fn create_and_fsync(&self, ctx: &mut Ctx, path: &str) {
            let ino = ino_of(self.exec(
                Payload::Fs(FsOp::Create {
                    path: path.into(),
                    mode: 0o644,
                }),
                ctx,
            ));
            assert!(self.exec(Payload::Fs(FsOp::Fsync { ino }), ctx).is_ok());
        }
    }

    fn ino_of(resp: RespPayload) -> u64 {
        match resp {
            RespPayload::Ino(i) => i,
            other => panic!("expected ino, got {other:?}"),
        }
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/a".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..10_000).map(|i| (i % 247) as u8).collect();
        let w = h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: data.clone(),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == data.len()));
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == data));
    }

    #[test]
    fn open_creates_and_truncates() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: true,
                truncate: false,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![1u8; 100],
            }),
            &mut ctx,
        );
        let again = ino_of(h.exec(
            Payload::Fs(FsOp::Open {
                path: "/o".into(),
                create: false,
                truncate: true,
            }),
            &mut ctx,
        ));
        assert_eq!(ino, again);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/o".into() }), &mut ctx);
        assert!(matches!(st, RespPayload::Stat(s) if s.size == 0));
    }

    #[test]
    fn readdir_lists_children_only() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/x".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/y".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/d/sub/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let names = h.exec(Payload::Fs(FsOp::Readdir { path: "/d".into() }), &mut ctx);
        assert!(
            matches!(names, RespPayload::Names(n) if n == vec!["x".to_string(), "y".to_string()])
        );
    }

    #[test]
    fn unlink_then_stat_fails() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/gone".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Stat {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Unlink {
                    path: "/gone".into()
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn duplicate_create_rejected() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/dup".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        assert!(!h
            .exec(
                Payload::Fs(FsOp::Create {
                    path: "/dup".into(),
                    mode: 0o644
                }),
                &mut ctx
            )
            .is_ok());
    }

    #[test]
    fn sparse_read_returns_zeroes() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/s".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // Write page 2 only.
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 2 * FS_BLOCK as u64,
                data: vec![7u8; FS_BLOCK],
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d.iter().all(|&b| b == 0)));
    }

    #[test]
    fn unaligned_overwrite_roundtrips() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/u".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![1u8; 8192],
            }),
            &mut ctx,
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 100,
                len: 500,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d.len() == 500 && d.iter().all(|&b| b == 1)));
    }

    /// Terminal stage that notes where each legacy write's bytes live.
    struct WriteSpy {
        store: crate::cache_common::testing::MemDev,
        /// `(address, length)` of every `BlockOp::Write` buffer.
        writes: parking_lot::Mutex<Vec<(usize, usize)>>,
    }

    impl LabMod for WriteSpy {
        fn type_name(&self) -> &'static str {
            "write_spy"
        }
        fn mod_type(&self) -> labstor_core::ModType {
            labstor_core::ModType::Driver
        }
        fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
            if let Payload::Block(BlockOp::Write { data, .. }) = &req.payload {
                self.writes
                    .lock()
                    .push((data.as_ptr() as usize, data.len()));
            }
            self.store.process(ctx, req, env)
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn aligned_write_moves_the_callers_allocation_downstream() {
        let (h, _) = Harness::new();
        let spy = Arc::new(WriteSpy {
            store: crate::cache_common::testing::MemDev::new(),
            writes: parking_lot::Mutex::new(Vec::new()),
        });
        h.mm.insert_instance("drv", spy.clone());
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/m".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let write = |ctx: &mut Ctx, offset: u64, data: Vec<u8>| {
            let n = data.len();
            let r = h.exec(Payload::Fs(FsOp::Write { ino, offset, data }), ctx);
            assert!(matches!(r, RespPayload::Len(got) if got == n), "{r:?}");
        };
        // 64 KiB of whole pages on fresh, contiguous blocks: one block
        // write, and its buffer is the Vec the caller allocated.
        let mut model: Vec<u8> = (0..16 * FS_BLOCK).map(|i| (i % 241) as u8).collect();
        let data = model.clone();
        let allocation = (data.as_ptr() as usize, data.len());
        write(&mut ctx, 0, data);
        assert_eq!(*spy.writes.lock(), vec![allocation]);

        // A patch inside mapped pages reads, modifies and writes each
        // page it touches; the neighbouring bytes survive.
        let at = 2 * FS_BLOCK - 100;
        write(&mut ctx, at as u64, vec![0xEE; 300]);
        model[at..at + 300].fill(0xEE);
        // An unaligned append: the tail of the mapped last page is patched,
        // the fresh pages go out as one run, zero-padded to the block.
        let at = model.len() - 10;
        write(&mut ctx, at as u64, vec![0xDD; 2 * FS_BLOCK]);
        model.resize(at + 2 * FS_BLOCK, 0);
        model[at..].fill(0xDD);
        let lens: Vec<usize> = spy.writes.lock()[1..].iter().map(|w| w.1).collect();
        assert_eq!(lens, vec![FS_BLOCK, FS_BLOCK, FS_BLOCK, 2 * FS_BLOCK]);

        let len = model.len();
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len,
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == model));
    }

    #[test]
    fn zero_copy_write_read_roundtrip() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/z".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        let mut buf = labstor_ipc::default_pool().alloc(2 * FS_BLOCK).unwrap();
        buf.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 249) as u8;
            }
        });
        let expect = buf.to_vec();
        let w = h.exec(
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: 0,
                buf,
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == 2 * FS_BLOCK));
        // A single-page read answers with a refcounted DataBuf slice.
        let r = h.exec(
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 0,
                len: FS_BLOCK,
            }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(hdl) => assert_eq!(hdl.as_slice(), &expect[..FS_BLOCK]),
            other => panic!("expected DataBuf, got {other:?}"),
        }
        // An unaligned multi-page read assembles byte-identically.
        let r = h.exec(
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: 100,
                len: FS_BLOCK + 500,
            }),
            &mut ctx,
        );
        let got = match &r {
            RespPayload::DataBuf(h2) => h2.as_slice().to_vec(),
            RespPayload::Data(d) => d.clone(),
            other => panic!("expected data, got {other:?}"),
        };
        assert_eq!(&got[..], &expect[100..100 + FS_BLOCK + 500]);
    }

    #[test]
    fn crash_recovery_replays_log() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/p".into(),
                mode: 0o600,
            }),
            &mut ctx,
        ));
        let data: Vec<u8> = (0..FS_BLOCK * 2).map(|i| (i % 251) as u8).collect();
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: data.clone(),
            }),
            &mut ctx,
        );
        // Persist the log (fsync), then wipe all in-memory state and
        // replay from the device: everything must come back.
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 1);
        let st = h.exec(Payload::Fs(FsOp::Stat { path: "/p".into() }), &mut ctx);
        assert!(
            matches!(st, RespPayload::Stat(s) if s.size == data.len() as u64 && s.mode == 0o600)
        );
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len: data.len(),
            }),
            &mut ctx,
        );
        assert!(
            matches!(r, RespPayload::Data(d) if d == data),
            "data blocks survive via replayed mappings"
        );
    }

    #[test]
    fn repair_reports_clean_replay() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/clean".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert!(fs.last_repair().is_none(), "no repair has run yet");
        let rep = fs.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert!(rep.records_replayed >= 1);
        assert!(rep.is_clean());
        assert_eq!(fs.last_repair(), Some(rep));
    }

    #[test]
    fn header_landed_payload_torn_txn_is_discarded_and_reported() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/durable".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        // A crash inside the one write of a second, two-sector frame: its
        // header sector landed, the rest of its payload did not.
        for i in 0..12 {
            let rec = LogRecord::Create {
                path: format!("/lost-with-a-name-long-enough-to-spill-{i}"),
                ino: 100 + i,
                mode: 0o644,
                uid: 0,
                gid: 0,
                is_dir: false,
            };
            fs.log(&mut ctx, 0, &rec);
        }
        let (sector, frame) = fs.journal.seal_next(0).unwrap();
        assert_eq!(frame.len(), 2 * labstor_sim::SECTOR_SIZE);
        dev.write(&mut ctx, sector, &frame[..labstor_sim::SECTOR_SIZE])
            .unwrap();
        let rep = fs.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(rep.txns_discarded, 1);
        assert_eq!(rep.mid_frame_tears, 1);
        assert!(rep.torn_tail);
        assert_eq!(
            fs.file_count(),
            1,
            "the torn frame was never acked, so none of it may appear"
        );
        // Appends resume after the committed prefix: the next fsync
        // overwrites the torn tail.
        let ino2 = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/after".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: ino2 }), &mut ctx)
            .is_ok());
        assert!(fs.replay_from_device().is_clean());
        assert_eq!(fs.file_count(), 2);
    }

    #[test]
    fn stale_era_frame_does_not_extend_a_repaired_log() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        for i in 1..=4 {
            h.create_and_fsync(&mut ctx, &format!("/a{i}"));
        }
        // Txn 5 is acked, but the device silently lands none of it.
        dev.faults().set_torn(1, true);
        h.create_and_fsync(&mut ctx, "/a5");
        dev.faults().set_torn(0, false);
        h.create_and_fsync(&mut ctx, "/a6");

        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        assert_eq!(fs.replay_from_device().txns_replayed, 4);
        assert_eq!(fs.file_count(), 4);
        // A new txn 5 of the same length lands right in front of old 6.
        h.create_and_fsync(&mut ctx, "/b5");
        let rep = fs.replay_from_device();
        assert_eq!(
            rep.txns_replayed, 5,
            "old txn 6 follows a txn 5 it never saw"
        );
        assert_eq!(fs.file_count(), 5);
        let a6 = h.exec(Payload::Fs(FsOp::Stat { path: "/a6".into() }), &mut ctx);
        assert!(
            !a6.is_ok(),
            "/a6 belongs to no prefix of the repaired history"
        );
        assert!(h
            .exec(Payload::Fs(FsOp::Stat { path: "/b5".into() }), &mut ctx)
            .is_ok());
    }

    #[test]
    fn silently_torn_flush_is_caught_by_crc_on_replay() {
        // Find a seed whose first torn write lands zero sectors, so the
        // flush's body write vanishes entirely while still being acked.
        let seed = (1..256u64)
            .find(|&s| {
                let f = labstor_sim::FaultConfig::default();
                f.set_seed(s);
                f.set_torn(1, true);
                f.torn_sectors(8) == Some(0)
            })
            .expect("some seed tears to zero sectors");
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/stays".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), &mut ctx).is_ok());
        dev.faults().set_seed(seed);
        dev.faults().set_torn(1, true);
        let ino2 = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/ghost".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        // The fsync is acked — the device lies about the torn write.
        assert!(h
            .exec(Payload::Fs(FsOp::Fsync { ino: ino2 }), &mut ctx)
            .is_ok());
        dev.faults().set_torn(0, false);
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let rep = fs.replay_from_device();
        // The CRC chain catches what the ack hid: only txn 1 survives.
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn unflushed_ops_lost_on_crash() {
        // Without fsync the log never reached the device: a crash loses
        // the file — honest log-structured semantics.
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        h.exec(
            Payload::Fs(FsOp::Create {
                path: "/volatile".into(),
                mode: 0o644,
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        fs.state_repair();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn state_update_preserves_files_and_the_journal_chain() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        h.create_and_fsync(&mut ctx, "/keep");
        let old = h.labfs();
        let newer = Arc::new(LabFs::new(dev, 4));
        newer.state_update(old.as_ref());
        assert_eq!(newer.file_count(), 1);
        // The upgraded instance appends after the old one's frame, with
        // its sector cursor, sequence number and chain value: a crash
        // after the upgrade replays both eras as one log.
        h.mm.insert_instance("fs", newer.clone());
        h.create_and_fsync(&mut ctx, "/after");
        let rep = newer.replay_from_device();
        assert_eq!(rep.txns_replayed, 2);
        assert!(rep.is_clean());
        assert_eq!(newer.file_count(), 2);
    }

    /// Create `path`, write `fill` × `len` at offset 0, fsync; returns the ino.
    fn write_file(h: &Harness, ctx: &mut Ctx, path: &str, fill: u8, len: usize) -> u64 {
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: path.into(),
                mode: 0o644,
            }),
            ctx,
        ));
        let data = vec![fill; len];
        let w = h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data,
            }),
            ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == len), "{w:?}");
        assert!(h.exec(Payload::Fs(FsOp::Fsync { ino }), ctx).is_ok());
        ino
    }

    fn assert_file(h: &Harness, ctx: &mut Ctx, ino: u64, fill: u8, len: usize) {
        let r = h.exec(
            Payload::Fs(FsOp::Read {
                ino,
                offset: 0,
                len,
            }),
            ctx,
        );
        let intact = r.data_bytes() == Some(&vec![fill; len][..]);
        assert!(
            intact,
            "ino {ino} no longer reads back as {len} x {fill:#x}"
        );
    }

    #[test]
    fn upgrade_does_not_hand_out_live_blocks_again() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let old = write_file(&h, &mut ctx, "/old", 0xA1, 3 * FS_BLOCK);
        let newer = Arc::new(LabFs::new(dev, 4));
        newer.state_update(h.labfs().as_ref());
        h.mm.insert_instance("fs", newer);
        let new = write_file(&h, &mut ctx, "/new", 0xB2, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, old, 0xA1, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, new, 0xB2, 3 * FS_BLOCK);
    }

    #[test]
    fn restart_does_not_hand_out_live_blocks_again() {
        let (h, dev) = Harness::new();
        let mut ctx = Ctx::new();
        let old = write_file(&h, &mut ctx, "/old", 0xA1, 3 * FS_BLOCK);
        let fresh = Arc::new(LabFs::new(dev, 4));
        assert!(fresh.replay_from_device().is_clean());
        h.mm.insert_instance("fs", fresh);
        let new = write_file(&h, &mut ctx, "/new", 0xB2, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, old, 0xA1, 3 * FS_BLOCK);
        assert_file(&h, &mut ctx, new, 0xB2, 3 * FS_BLOCK);
    }

    #[test]
    fn provenance_tracks_ops_and_writer() {
        let (h, _) = Harness::new();
        let mut ctx = Ctx::new();
        let ino = ino_of(h.exec(
            Payload::Fs(FsOp::Create {
                path: "/prov".into(),
                mode: 0o644,
            }),
            &mut ctx,
        ));
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![0u8; 10],
            }),
            &mut ctx,
        );
        h.exec(
            Payload::Fs(FsOp::Write {
                ino,
                offset: 0,
                data: vec![0u8; 10],
            }),
            &mut ctx,
        );
        let labfs = h.labfs();
        let fs = labfs.as_any().downcast_ref::<LabFs>().unwrap();
        let (ops, writer) = fs.provenance(ino).unwrap();
        assert_eq!(ops, 3); // create + 2 writes
        assert_eq!(writer, 0);
    }

    #[test]
    fn log_records_roundtrip() {
        let records = vec![
            LogRecord::Create {
                path: "/x/y".into(),
                ino: 42,
                mode: 0o600,
                uid: 7,
                gid: 8,
                is_dir: true,
            },
            LogRecord::MapBlock {
                ino: 42,
                page: 3,
                block: 999,
            },
            LogRecord::SetSize {
                ino: 42,
                size: 12345,
            },
            LogRecord::Unlink {
                path: "/x/y".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.extend_from_slice(&[0u8; 64]); // end-of-log padding
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = LogRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}
