//! LabFS's metadata state machine: the log records, the in-memory maps
//! they describe, and the one `apply` that turns the former into the
//! latter (DESIGN.md §12, "Metadata state machine").
//!
//! LabFS "only stores the log and reconstructs inodes in-memory by
//! traversing the log", so the live state is right exactly when it equals
//! `fold(apply, log)`. Here that holds by construction: the name map, the
//! inode map and `next_ino` are private to this module, and what changes
//! them is [`Meta::apply`] (node-level records through `FsNode::apply`),
//! called with the same [`LogRecord`] by a live operation and by replay
//! — both through the engine ([`crate::metastore::MetaStore`]), which
//! [`Meta`] is the [`StateMachine`] of. Allocation stays outside `apply`
//! — a block or an inode number is taken before the record that names it
//! exists, so the engine's replay reserves next to `apply` and the live
//! path takes no allocator lock it did not take before — and so does
//! provenance (`ops`, `last_writer`), which no record carries and replay
//! does not restore.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use labstor_core::{FileStat, RespPayload};

use super::FS_BLOCK;
use crate::metastore::{put_str, shard_of, take, take_str, StateMachine};

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
                put_str(out, path);
                out.extend_from_slice(&ino.to_le_bytes());
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&gid.to_le_bytes());
                out.push(u8::from(*is_dir));
            }
            LogRecord::Unlink { path } => {
                out.push(2);
                put_str(out, path);
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
                put_str(out, from);
                put_str(out, to);
            }
        }
    }

    /// Decode one record from `buf[*pos..]`, advancing `pos`. Returns
    /// `None` at a zero tag (end-of-log padding) or on truncation.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let path = take_str(buf, pos)?;
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
                let path = take_str(buf, pos)?;
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
                let from = take_str(buf, pos)?;
                let to = take_str(buf, pos)?;
                Some(LogRecord::Rename { from, to })
            }
            _ => None,
        }
    }
}

/// One name with its inode's journaled state: the attributes and the
/// sorted (page, block) map.
pub type NameSnapshot = (String, FileStat, Vec<(u64, u64)>);

#[derive(Clone)]
struct FsNode {
    stat: FileStat,
    /// page index → device block.
    blocks: HashMap<u64, u64>,
    /// Provenance: operations applied to this inode.
    ops: u64,
    /// Provenance: uid of the last writer.
    last_writer: u32,
}

impl FsNode {
    /// Apply a node-level record. A `SetSize` that shrinks the file drops
    /// the mappings past the new end, so a later write there starts from
    /// a fresh block; one that grows it touches no mapping (an append
    /// stays O(pages written), not O(pages mapped)).
    fn apply(&mut self, rec: &LogRecord) {
        match *rec {
            LogRecord::SetSize { size, .. } => {
                if size < self.stat.size {
                    let keep = size.div_ceil(FS_BLOCK as u64);
                    self.blocks.retain(|&pg, _| pg < keep);
                }
                self.stat.size = size;
            }
            LogRecord::MapBlock { page, block, .. } => {
                self.blocks.insert(page, block);
            }
            // Namespace records change the maps, not an inode.
            LogRecord::Create { .. } | LogRecord::Unlink { .. } | LogRecord::Rename { .. } => {}
        }
    }
}

/// The flat, sharded name and inode maps ("a single hashmap" with
/// minimal contention) and the inode-number allocator.
pub(super) struct Meta {
    /// Sharded path → ino.
    names: Vec<RwLock<HashMap<String, u64>>>,
    /// Sharded ino → node.
    nodes: Vec<RwLock<HashMap<u64, FsNode>>>,
    next_ino: AtomicU64,
}

impl Meta {
    pub(super) fn new(shards: usize) -> Self {
        Meta {
            names: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            nodes: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            next_ino: AtomicU64::new(1),
        }
    }

    fn name_shard_idx(&self, path: &str) -> usize {
        shard_of(path, self.names.len())
    }

    fn name_shard(&self, path: &str) -> &RwLock<HashMap<String, u64>> {
        &self.names[self.name_shard_idx(path)]
    }

    fn node_shard(&self, ino: u64) -> &RwLock<HashMap<u64, FsNode>> {
        &self.nodes[(ino as usize) % self.nodes.len()]
    }
}

impl StateMachine for Meta {
    type Record = LogRecord;

    fn encode(rec: &LogRecord, out: &mut Vec<u8>) {
        rec.encode(out)
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
        LogRecord::decode(buf, pos)
    }

    fn units(rec: &LogRecord) -> Range<u64> {
        match *rec {
            LogRecord::MapBlock { block, .. } => block..block + 1,
            _ => 0..0,
        }
    }

    /// Apply one record to the maps — the only way they change, live and
    /// on replay. Returns whether it took effect: a create over a live
    /// name, an unlink or rename of a missing one and a size or mapping
    /// for an unknown inode change nothing, which is the live operation's
    /// existence check made under the shard lock.
    fn apply(&self, rec: &LogRecord) -> bool {
        match rec {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                {
                    let mut names = self.name_shard(path).write();
                    if names.contains_key(path) {
                        return false;
                    }
                    names.insert(path.clone(), *ino);
                }
                let stat = FileStat {
                    ino: *ino,
                    size: 0,
                    is_dir: *is_dir,
                    uid: *uid,
                    gid: *gid,
                    mode: *mode,
                };
                let node = FsNode {
                    stat,
                    blocks: HashMap::new(),
                    ops: 1,
                    last_writer: *uid,
                };
                self.node_shard(*ino).write().insert(*ino, node);
                // Keep ino allocation ahead of everything applied (a
                // no-op live, where `fresh_ino` already moved past it).
                self.next_ino.fetch_max(ino + 1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
                true
            }
            LogRecord::Unlink { path } => {
                let Some(ino) = self.name_shard(path).write().remove(path) else {
                    return false;
                };
                self.node_shard(ino).write().remove(&ino);
                true
            }
            LogRecord::SetSize { ino, .. } | LogRecord::MapBlock { ino, .. } => {
                let mut nodes = self.node_shard(*ino).write();
                let Some(node) = nodes.get_mut(ino) else {
                    return false;
                };
                node.apply(rec);
                node.ops += 1; // live, a truncate; `map_pages` counts a write
                true
            }
            LogRecord::Rename { from, to } => self.rename_in_maps(from, to),
        }
    }

    /// `next_ino` is not rewound: a number this instance handed out is
    /// not handed out again.
    fn clear(&self) {
        self.names.iter().for_each(|shard| shard.write().clear());
        self.nodes.iter().for_each(|shard| shard.write().clear());
    }

    fn absorb(&self, prev: &Meta) {
        for (mine, theirs) in self.names.iter().zip(&prev.names) {
            *mine.write() = theirs.read().clone();
        }
        for (mine, theirs) in self.nodes.iter().zip(&prev.nodes) {
            *mine.write() = theirs.read().clone();
        }
        // relaxed-ok: fresh-id allocation; atomicity alone suffices
        self.next_ino
            .store(prev.next_ino.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Meta {
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

    /// `map_range`'s metadata half: in one critical section on `ino`,
    /// back every page of `[offset, offset + len)` with a block — `alloc`
    /// supplies the missing ones, all of them before anything changes —
    /// and grow the size to cover the range. Every change is a record,
    /// made by `FsNode::apply` and returned for the caller to log. With
    /// them come the (page, block) extents and, when the range starts
    /// past an end of file that lies inside a mapped page, that page's
    /// `(block, offset of the old end in it)`.
    #[allow(clippy::type_complexity)]
    pub(super) fn map_pages(
        &self,
        ino: u64,
        (offset, len): (u64, usize),
        writer: u32,
        mut alloc: impl FnMut() -> Option<u64>,
    ) -> Result<(Vec<LogRecord>, Vec<(u64, u64)>, Option<(u64, usize)>), RespPayload> {
        let mut shard = self.node_shard(ino).write();
        let Some(node) = shard.get_mut(&ino) else {
            return Err(RespPayload::Err(format!("no inode {ino}")));
        };
        if node.stat.is_dir {
            return Err(RespPayload::Err("is a directory".into()));
        }
        let (old, end) = (node.stat.size, offset + len as u64);
        let old_end = (old % FS_BLOCK as u64) as usize;
        let stale = (offset > old && old_end != 0)
            .then(|| node.blocks.get(&(old / FS_BLOCK as u64)))
            .flatten()
            .map(|&block| (block, old_end));
        let first_pg = offset / FS_BLOCK as u64;
        // No bytes, no pages: a truncate grows a file by such a write.
        let last_pg = if len == 0 {
            first_pg
        } else {
            end.div_ceil(FS_BLOCK as u64)
        };
        let (mut recs, mut extents) = (Vec::new(), Vec::new());
        for page in first_pg..last_pg {
            let block = match node.blocks.get(&page) {
                Some(&block) => block,
                None => {
                    let Some(block) = alloc() else {
                        return Err(RespPayload::Err("no space".into()));
                    };
                    recs.push(LogRecord::MapBlock { ino, page, block });
                    block
                }
            };
            extents.push((page, block));
        }
        if end > old {
            recs.push(LogRecord::SetSize { ino, size: end });
        }
        recs.iter().for_each(|rec| node.apply(rec));
        node.ops += 1;
        node.last_writer = writer;
        Ok((recs, extents, stale))
    }

    /// The inode number for a create's record; wasted if the create then
    /// loses a race for its name.
    pub(super) fn fresh_ino(&self) -> u64 {
        self.next_ino.fetch_add(1, Ordering::Relaxed) // relaxed-ok: fresh-id allocation; atomicity alone suffices
    }

    pub(super) fn lookup(&self, path: &str) -> Option<u64> {
        self.name_shard(path).read().get(path).copied()
    }

    pub(super) fn stat(&self, path: &str) -> Option<FileStat> {
        let ino = self.lookup(path)?;
        self.node_shard(ino).read().get(&ino).map(|n| n.stat)
    }

    /// The size of file `ino` and the device block behind each page of
    /// `[offset, offset + len)` (`None` = hole).
    pub(super) fn page_map(
        &self,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<(u64, Vec<Option<u64>>), RespPayload> {
        let shard = self.node_shard(ino).read();
        let Some(node) = shard.get(&ino) else {
            return Err(RespPayload::Err(format!("no inode {ino}")));
        };
        if node.stat.is_dir {
            return Err(RespPayload::Err("is a directory".into()));
        }
        let first_pg = offset / FS_BLOCK as u64;
        let last_pg = (offset + len as u64).div_ceil(FS_BLOCK as u64);
        Ok((
            node.stat.size,
            (first_pg..last_pg)
                .map(|pg| node.blocks.get(&pg).copied())
                .collect(),
        ))
    }

    /// Names directly under `prefix` (which ends in `/`), unsorted.
    pub(super) fn children(&self, prefix: &str) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for shard in &self.names {
            for key in shard.read().keys() {
                if let Some(rest) = key.strip_prefix(prefix) {
                    if !rest.is_empty() && !rest.contains('/') {
                        names.push(rest.to_string());
                    }
                }
            }
        }
        names
    }

    pub(super) fn file_count(&self) -> usize {
        self.names.iter().map(|s| s.read().len()).sum()
    }

    pub(super) fn provenance(&self, ino: u64) -> Option<(u64, u32)> {
        self.node_shard(ino)
            .read()
            .get(&ino)
            .map(|n| (n.ops, n.last_writer))
    }

    /// See `LabFs::snapshot`.
    pub(super) fn snapshot(&self) -> Vec<NameSnapshot> {
        let mut snap = Vec::new();
        for shard in &self.names {
            for (path, ino) in shard.read().iter() {
                if let Some(node) = self.node_shard(*ino).read().get(ino) {
                    let mut blocks: Vec<_> = node.blocks.iter().map(|(p, b)| (*p, *b)).collect();
                    blocks.sort_unstable();
                    snap.push((path.clone(), node.stat, blocks));
                }
            }
        }
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}
