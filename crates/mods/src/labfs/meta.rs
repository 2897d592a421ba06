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

use parking_lot::{RwLock, RwLockWriteGuard};

use labstor_core::{FileStat, RespPayload};

use super::FS_BLOCK;
use crate::metastore::{put_str, shard_of, take, take_str, Pin, Pins, StateMachine, Unnamed};

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
pub(crate) type NameSnapshot = (String, FileStat, Vec<(u64, u64)>);

/// Pages `[page, page + pages)` of a file, on device blocks
/// `[block, block + pages)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Run {
    pub(super) page: u64,
    pub(super) block: u64,
    pub(super) pages: u64,
}

impl Run {
    /// The first page past the run.
    pub(super) fn end(&self) -> u64 {
        self.page + self.pages
    }

    fn blocks(&self) -> Range<u64> {
        self.block..self.block + self.pages
    }
}

/// Runs a lookup returns inline; more spill to the heap.
const INLINE_RUNS: usize = 4;

/// The runs behind a range of pages, in page order, as a slice. Up to
/// [`INLINE_RUNS`] of them take no heap allocation, so a lookup on a file
/// laid out in one run (or a few) allocates nothing.
#[derive(Default)]
pub(super) struct Runs {
    inline: [Run; INLINE_RUNS],
    len: usize,
    /// Every run, once there are more than fit inline.
    spill: Vec<Run>,
}

impl Runs {
    fn push(&mut self, run: Run) {
        if self.spill.is_empty() && self.len < INLINE_RUNS {
            self.inline[self.len] = run;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(run);
        }
    }
}

impl std::ops::Deref for Runs {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// A file's page map as runs: sorted by page, disjoint, and each as long
/// as it can be (no run ends where the next begins, on the block just
/// before the next one's). Each page is allocated at the block after its
/// predecessor's when that one is free, so a file lies in a few runs, a
/// lookup is one binary search and a range's answer a few runs, however
/// many pages it spans. What it unmaps it reports as runs of blocks.
#[derive(Clone, Default)]
struct RunMap(Vec<Run>);

impl RunMap {
    /// The index of the first run that ends past `page`.
    fn find(&self, page: u64) -> usize {
        self.0.partition_point(|r| r.end() <= page)
    }

    /// The block behind `page`, `None` for a hole.
    fn get(&self, page: u64) -> Option<u64> {
        let run = self.0.get(self.find(page))?;
        (run.page <= page).then(|| run.block + (page - run.page))
    }

    /// The runs behind `pages`, cut to them; holes are left out.
    fn runs(&self, pages: Range<u64>) -> Runs {
        let mut out = Runs::default();
        if pages.is_empty() {
            return out;
        }
        for run in self.0[self.find(pages.start)..]
            .iter()
            .take_while(|r| r.page < pages.end)
        {
            let (lo, hi) = (run.page.max(pages.start), run.end().min(pages.end));
            let block = run.block + (lo - run.page);
            out.push(Run {
                page: lo,
                block,
                pages: hi - lo,
            });
        }
        out
    }

    /// Map `page` to `block`, joining the runs on either side that it
    /// continues, and return the block it mapped before, as a run: a
    /// remap splits its run around the page.
    fn map(&mut self, page: u64, block: u64) -> Option<Range<u64>> {
        let old = self.unmap(page);
        let i = self.find(page);
        let pages = 1;
        self.0.insert(i, Run { page, block, pages });
        self.join(i);
        if i > 0 {
            self.join(i - 1);
        }
        old
    }

    /// Make runs `i` and `i + 1` one when the second continues the first.
    fn join(&mut self, i: usize) {
        if let Some(&[a, b]) = self.0.get(i..i + 2) {
            if a.end() == b.page && a.blocks().end == b.block {
                self.0[i].pages += b.pages;
                self.0.remove(i + 1);
            }
        }
    }

    /// Unmap `page`, splitting its run around it, and return its block,
    /// as a run.
    fn unmap(&mut self, page: u64) -> Option<Range<u64>> {
        let i = self.split(page);
        self.split(page + 1);
        (self.0.get(i)?.page == page).then(|| self.0.remove(i).blocks())
    }

    /// Unmap every page from `keep` on and return their blocks.
    fn cut(&mut self, keep: u64) -> Vec<Range<u64>> {
        let i = self.split(keep);
        self.0.drain(i..).map(|r| r.blocks()).collect()
    }

    /// Cut the run that holds `page` past its first page in two, so that
    /// no run spans `page - 1` and `page`, and return the index of the
    /// first run from `page` on.
    fn split(&mut self, page: u64) -> usize {
        let i = self.find(page);
        match self.0.get(i).copied() {
            Some(run) if run.page < page => {
                let head = page - run.page;
                self.0[i].pages = head;
                let (block, pages) = (run.block + head, run.pages - head);
                self.0.insert(i + 1, Run { page, block, pages });
                i + 1
            }
            _ => i,
        }
    }

    /// Every `(page, block)`, in page order.
    fn pages(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0
            .iter()
            .flat_map(|r| (0..r.pages).map(move |k| (r.page + k, r.block + k)))
    }
}

#[derive(Clone)]
struct FsNode {
    stat: FileStat,
    /// Page index → device block, as runs.
    blocks: RunMap,
    /// Provenance: operations applied to this inode.
    ops: u64,
    /// Provenance: uid of the last writer.
    last_writer: u32,
}

impl FsNode {
    /// Apply a node-level record and return the runs of blocks it
    /// unmapped. A `SetSize` that shrinks the file cuts the runs past the
    /// new end, so a later write there starts from a fresh block; one that
    /// grows it touches no mapping. A `MapBlock` joins the run it
    /// continues (an append's page extends the last run); over a mapped
    /// page (a truncate's remap of its tail) it splits that page's run and
    /// unmaps the old block.
    fn apply(&mut self, rec: &LogRecord) -> Vec<Range<u64>> {
        match *rec {
            LogRecord::SetSize { size, .. } => {
                let freed = if size < self.stat.size {
                    self.blocks.cut(size.div_ceil(FS_BLOCK as u64))
                } else {
                    Vec::new()
                };
                self.stat.size = size;
                freed
            }
            LogRecord::MapBlock { page, block, .. } => {
                self.blocks.map(page, block).into_iter().collect()
            }
            // Namespace records change the maps, not an inode.
            LogRecord::Create { .. } | LogRecord::Unlink { .. } | LogRecord::Rename { .. } => {
                Vec::new()
            }
        }
    }
}

/// A write's pages, backed and mapped by [`Meta::map_pages`]. When it
/// applied a record it holds the write lock of its inode's shard until it
/// drops: no other operation on the inode sees the records or changes
/// the inode, and [`Mapping::undo`] can take them back. Without one it
/// holds only the pin on the blocks behind the range.
pub(super) struct Mapping<'a> {
    /// The records applied, in order: a `MapBlock` per page backed, then
    /// a `SetSize` when the write grows the file.
    pub(super) recs: Vec<LogRecord>,
    /// The runs behind the range.
    pub(super) runs: Runs,
    /// When the range starts past an end of file that lies inside a
    /// mapped page, that page's `(block, offset of the old end in it)`.
    pub(super) stale: Option<(u64, usize)>,
    ino: u64,
    /// The size before the write.
    old: u64,
    shard: Option<RwLockWriteGuard<'a, HashMap<u64, FsNode>>>,
    _pin: Pin<'a>,
}

impl Mapping<'_> {
    /// Take the records back: unmap the pages they backed and restore the
    /// size. Returns the runs of blocks that backed them.
    pub(super) fn undo(&mut self) -> Vec<Range<u64>> {
        let ino = self.ino;
        let Some(node) = self.shard.as_mut().and_then(|s| s.get_mut(&ino)) else {
            return Vec::new();
        };
        let pages = self.recs.iter().filter_map(|rec| match *rec {
            LogRecord::MapBlock { page, .. } => Some(page),
            _ => None,
        });
        let blocks = pages.filter_map(|page| node.blocks.unmap(page)).collect();
        node.stat.size = self.old;
        blocks
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

/// Write locks on some of [`Meta`]'s name shards, indexed by shard.
struct NameLocks<'a>(Vec<Option<RwLockWriteGuard<'a, HashMap<String, u64>>>>);

impl NameLocks<'_> {
    /// The locked shard `path` hashes to.
    fn shard(&mut self, path: &str) -> &mut HashMap<String, u64> {
        let i = shard_of(path, self.0.len());
        self.0[i]
            .as_deref_mut()
            .expect("the shard of a name an apply touches is locked")
    }

    fn get(&self, path: &str) -> Option<u64> {
        let i = shard_of(path, self.0.len());
        let shard = self.0[i]
            .as_deref()
            .expect("the shard of a name an apply touches is locked");
        shard.get(path).copied()
    }
}

/// The directory `path` goes in, `None` for the root.
fn parent_of(path: &str) -> Option<&str> {
    match path.rfind('/') {
        None | Some(0) => None,
        Some(i) => Some(&path[..i]),
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
    /// on replay. Returns `None` when it took no effect: a create over a
    /// live name, an unlink or rename of a missing one and a size or
    /// mapping for an unknown inode change nothing, and neither do the
    /// namespace refusals — a create or rename whose new name has no
    /// directory to go in, an unlink of or a rename onto a directory with
    /// names under it, a directory's rename to a name under itself. That
    /// is the live operation's check, made under the name-shard locks, so
    /// no other apply changes its answer before the change. `Some` holds
    /// the device blocks no page maps any more: an unlinked or renamed-
    /// over inode's, a shrunk file's tail, a remapped page's old block.
    fn apply(&self, rec: &LogRecord) -> Option<Unnamed> {
        self.apply_record(rec).map(Unnamed::Runs)
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
    /// [`StateMachine::apply`]'s change: the runs of blocks no page maps
    /// any more in `Some`.
    fn apply_record(&self, rec: &LogRecord) -> Option<Vec<Range<u64>>> {
        match rec {
            LogRecord::Create {
                path,
                ino,
                mode,
                uid,
                gid,
                is_dir,
            } => {
                // The parent's shard too, so no unlink or rename of the
                // parent can slip in between the check and the insert.
                let parent = parent_of(path).map(|p| self.name_shard_idx(p));
                let own = self.name_shard_idx(path);
                let mut names = self.lock_names(|i| i == own || Some(i) == parent);
                if names.get(path).is_some() || !self.parent_is_dir(&names, path) {
                    return None;
                }
                names.shard(path).insert(path.clone(), *ino);
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
                    blocks: RunMap::default(),
                    ops: 1,
                    last_writer: *uid,
                };
                self.node_shard(*ino).write().insert(*ino, node);
                // Keep ino allocation ahead of everything applied (a
                // no-op live, where `fresh_ino` already moved past it).
                self.next_ino.fetch_max(ino + 1, Ordering::Relaxed); // relaxed-ok: fresh-id allocation; atomicity alone suffices
                Some(Vec::new())
            }
            LogRecord::Unlink { path } => {
                let mut names = self.lock_names(|_| true);
                if self.has_children(&names, path) {
                    return None;
                }
                let ino = names.shard(path).remove(path)?;
                Some(self.drop_node(ino))
            }
            LogRecord::SetSize { ino, .. } | LogRecord::MapBlock { ino, .. } => {
                let mut nodes = self.node_shard(*ino).write();
                let node = nodes.get_mut(ino)?;
                node.ops += 1; // live, a truncate; `map_pages` counts a write
                Some(node.apply(rec))
            }
            LogRecord::Rename { from, to } => self.rename_in_maps(from, to),
        }
    }

    /// Move `from`, and when it is a directory every name under it, to
    /// `to`, replacing what `to` named (POSIX rename semantics), and
    /// return the replaced inode's blocks. Renaming a name onto itself
    /// changes nothing. `None` if `from` does not exist, if `to` has no
    /// directory to go in or is a directory with names under it, or if
    /// `to` lies under `from` (EINVAL: the moved directory would hang
    /// under itself, cut off from the root).
    fn rename_in_maps(&self, from: &str, to: &str) -> Option<Vec<Range<u64>>> {
        let mut names = self.lock_names(|_| true);
        let ino = names.get(from)?;
        if from == to {
            return Some(Vec::new());
        }
        let into_itself = to
            .strip_prefix(from)
            .is_some_and(|rest| rest.starts_with('/'));
        if into_itself || !self.parent_is_dir(&names, to) || self.has_children(&names, to) {
            return None;
        }
        let mut moved = vec![(to.to_string(), ino)];
        if self.is_dir(ino) {
            let under = format!("{from}/");
            for shard in names.0.iter_mut().flatten() {
                let keys: Vec<String> = shard
                    .keys()
                    .filter(|k| k.starts_with(&under))
                    .cloned()
                    .collect();
                for key in keys {
                    let child = shard.remove(&key).expect("key just listed");
                    moved.push((format!("{to}{}", &key[from.len()..]), child));
                }
            }
        }
        names.shard(from).remove(from);
        let mut freed = Vec::new();
        for (key, ino) in moved {
            if let Some(old) = names.shard(&key).insert(key, ino) {
                freed.extend(self.drop_node(old));
            }
        }
        Some(freed)
    }

    /// Remove inode `ino`, which no name maps any more, and return the
    /// runs of blocks its pages mapped.
    fn drop_node(&self, ino: u64) -> Vec<Range<u64>> {
        let node = self.node_shard(ino).write().remove(&ino);
        node.map_or_else(Vec::new, |mut n| n.blocks.cut(0))
    }

    /// Write-lock the name shards whose index `want` picks, in index
    /// order: every apply that takes more than one takes them in that
    /// order, so no two deadlock.
    fn lock_names(&self, want: impl Fn(usize) -> bool) -> NameLocks<'_> {
        let shards = self.names.iter().enumerate();
        NameLocks(shards.map(|(i, s)| want(i).then(|| s.write())).collect())
    }

    fn is_dir(&self, ino: u64) -> bool {
        let nodes = self.node_shard(ino).read();
        nodes.get(&ino).is_some_and(|n| n.stat.is_dir)
    }

    /// Whether a new name at `path` has a directory to go in: the root,
    /// or a directory that exists. `names` holds the parent's shard.
    fn parent_is_dir(&self, names: &NameLocks<'_>, path: &str) -> bool {
        match parent_of(path) {
            None => true,
            Some(parent) => names.get(parent).is_some_and(|ino| self.is_dir(ino)),
        }
    }

    /// Whether `path` is a directory with a name under it. `names` holds
    /// every shard.
    fn has_children(&self, names: &NameLocks<'_>, path: &str) -> bool {
        let under = format!("{path}/");
        names.get(path).is_some_and(|ino| self.is_dir(ino))
            && names
                .0
                .iter()
                .flatten()
                .any(|shard| shard.keys().any(|k| k.starts_with(&under)))
    }

    /// `map_range`'s metadata half: under the write lock of `ino`'s
    /// shard, back every page of `[offset, offset + len)` with a block —
    /// `alloc` supplies the missing ones, all of them before anything
    /// changes, each asked for at the block after the previous page's, so
    /// a file that grows stays one run; if it runs dry, the blocks it gave
    /// go to `unalloc` — and grow the size to cover the range. Every
    /// change is a record, made by `FsNode::apply` and returned for the
    /// caller to log, in the [`Mapping`] that pins the blocks behind the
    /// range in `pins` and, exactly when it applied a record, keeps the
    /// lock until the caller has logged or undone it.
    pub(super) fn map_pages<'a>(
        &'a self,
        pins: &'a Pins,
        ino: u64,
        (offset, len): (u64, usize),
        writer: u32,
        mut alloc: impl FnMut(Option<u64>) -> Option<u64>,
        mut unalloc: impl FnMut(Range<u64>),
    ) -> Result<Mapping<'a>, RespPayload> {
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
            .then(|| node.blocks.get(old / FS_BLOCK as u64))
            .flatten()
            .map(|block| (block, old_end));
        let first_pg = offset / FS_BLOCK as u64;
        // No bytes, no pages: a truncate grows a file by such a range.
        let last_pg = if len == 0 {
            first_pg
        } else {
            end.div_ceil(FS_BLOCK as u64)
        };
        let mapped = node.blocks.runs(first_pg..last_pg);
        // The holes are the gaps between the mapped runs.
        let mut recs = Vec::new();
        let mut hole_start = first_pg;
        let bounds = mapped.iter().map(|r| (r.page, r.end()));
        for (hole_end, next) in bounds.chain([(last_pg, last_pg)]) {
            let mut goal = None;
            for page in hole_start..hole_end {
                if page == hole_start {
                    let before = page.checked_sub(1).and_then(|p| node.blocks.get(p));
                    goal = before.map(|b| b + 1);
                }
                let Some(block) = alloc(goal) else {
                    for rec in &recs {
                        if let LogRecord::MapBlock { block, .. } = *rec {
                            unalloc(block..block + 1);
                        }
                    }
                    return Err(RespPayload::Err("no space".into()));
                };
                recs.push(LogRecord::MapBlock { ino, page, block });
                goal = Some(block + 1);
            }
            hole_start = next;
        }
        if end > old {
            recs.push(LogRecord::SetSize { ino, size: end });
        }
        // Growth and fresh pages: these records unmap nothing.
        for rec in &recs {
            node.apply(rec);
        }
        let runs = if recs.is_empty() {
            mapped
        } else {
            node.blocks.runs(first_pg..last_pg)
        };
        node.ops += 1;
        node.last_writer = writer;
        let stale_block = stale.map(|(block, _)| block..block + 1);
        let _pin = pins.pin(runs.iter().map(Run::blocks).chain(stale_block));
        // A pure overwrite lets go now: its pin keeps its blocks.
        let shard = (!recs.is_empty()).then_some(shard);
        Ok(Mapping {
            recs,
            runs,
            stale,
            ino,
            old,
            shard,
            _pin,
        })
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

    /// The size of file `ino` and the runs behind the pages of
    /// `[offset, offset + len)` that hold bytes below that size, pinned
    /// in `pins` for as long as the caller keeps the [`Pin`]; holes are
    /// left out.
    pub(super) fn page_map<'a>(
        &self,
        pins: &'a Pins,
        ino: u64,
        offset: u64,
        len: usize,
    ) -> Result<(u64, Runs, Pin<'a>), RespPayload> {
        let shard = self.node_shard(ino).read();
        let Some(node) = shard.get(&ino) else {
            return Err(RespPayload::Err(format!("no inode {ino}")));
        };
        if node.stat.is_dir {
            return Err(RespPayload::Err("is a directory".into()));
        }
        let first_pg = offset / FS_BLOCK as u64;
        let end = (offset + len as u64).min(node.stat.size);
        let last_pg = end.div_ceil(FS_BLOCK as u64);
        let runs = node.blocks.runs(first_pg..last_pg);
        let pin = pins.pin(runs.iter().map(Run::blocks));
        Ok((node.stat.size, runs, pin))
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

    #[cfg(test)]
    pub(super) fn file_count(&self) -> usize {
        self.names.iter().map(|s| s.read().len()).sum()
    }

    #[cfg(test)]
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
                    snap.push((path.clone(), node.stat, node.blocks.pages().collect()));
                }
            }
        }
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    const INO: u64 = 7;
    const PATH: &str = "/f";
    /// Pages the scripts touch.
    const SPACE: u64 = 48;
    const PAGE: u64 = FS_BLOCK as u64;

    #[derive(Debug, Clone)]
    enum Op {
        /// Map `pages` pages from `page` on to fresh blocks: one after
        /// the other (`gap` 0) or `gap` blocks apart.
        Map { page: u64, pages: u64, gap: u64 },
        /// Map one page to a fresh block, mapped or not (a truncate's
        /// copy of its tail).
        Remap { page: u64 },
        /// Set the size: a shrink cuts the map, a growth leaves it.
        Size { size: u64 },
        /// Unlink the file and create it again, empty.
        Unlink,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0..SPACE, 1u64..10, 0u64..3)
                .prop_map(|(page, pages, gap)| Op::Map { page, pages, gap }),
            1 => (0..SPACE).prop_map(|page| Op::Remap { page }),
            2 => (0..SPACE, any::<bool>(), 1..PAGE).prop_map(|(page, mid, at)| Op::Size {
                size: page * PAGE + if mid { at } else { 0 },
            }),
            1 => (0u8..1).prop_map(|_| Op::Unlink),
        ]
    }

    fn create() -> LogRecord {
        LogRecord::Create {
            path: PATH.into(),
            ino: INO,
            mode: 0o644,
            uid: 0,
            gid: 0,
            is_dir: false,
        }
    }

    /// The flat model: page → block, and the size.
    #[derive(Default)]
    struct Model {
        pages: BTreeMap<u64, u64>,
        size: u64,
    }

    impl Model {
        /// What `rec` unmaps, as `FsNode::apply` must report it.
        fn apply(&mut self, rec: &LogRecord) -> Vec<u64> {
            match *rec {
                LogRecord::MapBlock { page, block, .. } => {
                    self.pages.insert(page, block).into_iter().collect()
                }
                LogRecord::SetSize { size, .. } => {
                    let mut freed = Vec::new();
                    if size < self.size {
                        freed = self
                            .pages
                            .split_off(&size.div_ceil(PAGE))
                            .into_values()
                            .collect();
                    }
                    self.size = size;
                    freed
                }
                LogRecord::Unlink { .. } => {
                    self.size = 0;
                    std::mem::take(&mut self.pages).into_values().collect()
                }
                _ => Vec::new(),
            }
        }

        /// `page_map`'s answer, page by page joined into runs.
        fn runs(&self, offset: u64, len: u64) -> Vec<Run> {
            let end = (offset + len).min(self.size).div_ceil(PAGE);
            let mut runs: Vec<Run> = Vec::new();
            for (&page, &block) in self.pages.range(offset / PAGE..end.max(offset / PAGE)) {
                match runs.last_mut() {
                    Some(r) if r.end() == page && r.blocks().end == block => r.pages += 1,
                    _ => runs.push(Run {
                        page,
                        block,
                        pages: 1,
                    }),
                }
            }
            runs
        }
    }

    /// The records an op is made of, with `next` the first fresh block.
    fn records(op: &Op, next: &mut u64) -> Vec<LogRecord> {
        let mut fresh = |gap: u64| {
            let block = *next;
            *next += 1 + gap;
            block
        };
        match *op {
            Op::Map { page, pages, gap } => (page..page + pages)
                .map(|page| LogRecord::MapBlock {
                    ino: INO,
                    page,
                    block: fresh(gap),
                })
                .collect(),
            Op::Remap { page } => vec![LogRecord::MapBlock {
                ino: INO,
                page,
                block: fresh(0),
            }],
            Op::Size { size } => vec![LogRecord::SetSize { ino: INO, size }],
            Op::Unlink => vec![LogRecord::Unlink { path: PATH.into() }, create()],
        }
    }

    /// Every way the run map answers must equal the flat model's.
    fn check(meta: &Meta, model: &Model) -> Result<(), TestCaseError> {
        let shard = meta.node_shard(INO).read();
        let runs = &shard.get(&INO).expect("the file exists").blocks;
        for page in 0..SPACE + 16 {
            let (got, want) = (runs.get(page), model.pages.get(&page).copied());
            prop_assert!(got == want, "page {}: {:?}, not {:?}", page, got, want);
        }
        for w in runs.0.windows(2) {
            prop_assert!(w[0].pages > 0 && w[0].end() <= w[1].page, "{:?} overlap", w);
            let joins = w[0].end() == w[1].page && w[0].blocks().end == w[1].block;
            prop_assert!(!joins, "{:?} should be one run", w);
        }
        drop(shard);
        let snap = meta.snapshot();
        let want: Vec<(u64, u64)> = model.pages.iter().map(|(&p, &b)| (p, b)).collect();
        prop_assert_eq!(&snap[0].2, &want);
        prop_assert_eq!(snap[0].1.size, model.size);
        for (offset, len) in [(0, SPACE * PAGE), (5 * PAGE + 9, 3 * PAGE), (17 * PAGE, 1)] {
            let (size, got, _) = meta
                .page_map(&Pins::default(), INO, offset, len as usize)
                .unwrap();
            prop_assert_eq!(size, model.size);
            let want = model.runs(offset, len);
            prop_assert!(
                got[..] == want[..],
                "{}+{}: {:?}, not {:?}",
                offset,
                len,
                &got[..],
                want
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random maps on contiguous and scattered blocks, remaps,
        /// shrinks to a page boundary and to mid-page, growths and
        /// unlinks: after each, every page's block, the snapshot, a
        /// range's runs and the blocks each record freed are the flat
        /// model's.
        #[test]
        fn run_map_matches_a_flat_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let meta = Meta::new(2);
            let mut model = Model::default();
            let mut next = 1000;
            prop_assert!(meta.apply_record(&create()).is_some());
            for op in &ops {
                for rec in records(op, &mut next) {
                    let freed = meta.apply_record(&rec).expect("the file exists");
                    let mut freed: Vec<u64> = freed.into_iter().flatten().collect();
                    let mut want = model.apply(&rec);
                    freed.sort_unstable();
                    want.sort_unstable();
                    prop_assert!(freed == want, "{:?} of {:?} freed {:?}, not {:?}", rec, op, freed, want);
                }
                check(&meta, &model)?;
            }
        }
    }

    #[test]
    fn a_remap_splits_one_run_into_three() {
        let meta = Meta::new(1);
        let freed = |rec| {
            let runs = meta.apply_record(rec)?;
            Some(runs.into_iter().flatten().collect::<Vec<u64>>())
        };
        assert!(meta.apply_record(&create()).is_some());
        for page in 0..8 {
            let rec = LogRecord::MapBlock {
                ino: INO,
                page,
                block: 100 + page,
            };
            assert_eq!(meta.apply_record(&rec), Some(Vec::new()));
        }
        let set = LogRecord::SetSize {
            ino: INO,
            size: 8 * PAGE,
        };
        assert_eq!(meta.apply_record(&set), Some(Vec::new()));
        let run = |page, block, pages| Run { page, block, pages };
        assert_eq!(
            meta.page_map(&Pins::default(), INO, 0, 8 * FS_BLOCK)
                .unwrap()
                .1[..],
            [run(0, 100, 8)]
        );
        let remap = LogRecord::MapBlock {
            ino: INO,
            page: 3,
            block: 500,
        };
        assert_eq!(freed(&remap), Some(vec![103]));
        let three = [run(0, 100, 3), run(3, 500, 1), run(4, 104, 4)];
        assert_eq!(
            meta.page_map(&Pins::default(), INO, 0, 8 * FS_BLOCK)
                .unwrap()
                .1[..],
            three
        );
        // Mapping the old block back joins the three again.
        let back = LogRecord::MapBlock {
            ino: INO,
            page: 3,
            block: 103,
        };
        assert_eq!(freed(&back), Some(vec![500]));
        assert_eq!(
            meta.page_map(&Pins::default(), INO, 0, 8 * FS_BLOCK)
                .unwrap()
                .1[..],
            [run(0, 100, 8)]
        );
    }
}
