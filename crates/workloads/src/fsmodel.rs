//! One model of what a file system does: the oracle that every
//! file-system target (LabFS on each stack, the kernel-like profiles
//! behind the VFS) is checked against, op by op, in `tests/fs_model.rs`,
//! and the state the crash campaign ([`crate::crash`]) digests its
//! acknowledged history from. DESIGN.md §6 states the contract it
//! encodes, including where that contract is not POSIX.
//!
//! A name is a full path ("/d0/f1"). The root is always there; a name
//! with no `/` after its first character lives in it. Every other name
//! needs its parent to be a directory. A name refers to an inode, and
//! an open fd refers to the inode, not the name: I/O through an fd
//! fails once its inode is unlinked or renamed over.

use std::collections::{BTreeMap, HashMap};

/// One step of a file-system script. Names are full paths; an `fd`
/// indexes the script's successful opens, modulo their count (a script
/// with none skips the step).
// api-ok: tests/fs_harness/ drives every file-system target with it
#[derive(Debug, Clone)]
pub enum FsAction {
    /// `open(2)`: with `create` a missing file is made, with `truncate`
    /// an existing one is cut to no bytes.
    Open {
        /// Name to open.
        path: &'static str,
        /// O_CREAT.
        create: bool,
        /// O_TRUNC.
        truncate: bool,
    },
    /// `mkdir(2)`.
    Mkdir {
        /// Name to make.
        path: &'static str,
    },
    /// Seek to `offset`, then write `len` bytes derived from `seed`.
    Write {
        /// Open fd.
        fd: usize,
        /// Byte offset.
        offset: u64,
        /// Bytes written (0 allowed).
        len: usize,
        /// Seed of the bytes.
        seed: u8,
    },
    /// Seek to `offset`, then read up to `len` bytes.
    Read {
        /// Open fd.
        fd: usize,
        /// Byte offset.
        offset: u64,
        /// Bytes asked for.
        len: usize,
    },
    /// `ftruncate(2)`.
    Truncate {
        /// Open fd.
        fd: usize,
        /// New size.
        size: u64,
    },
    /// `rename(2)`.
    Rename {
        /// Existing name.
        from: &'static str,
        /// New name.
        to: &'static str,
    },
    /// `unlink(2)` (of a file or of an empty directory).
    Unlink {
        /// Name to remove.
        path: &'static str,
    },
    /// `fsync(2)`.
    Fsync {
        /// Open fd.
        fd: usize,
    },
}

/// What an inode is.
#[derive(Debug, Clone)]
enum Node {
    Dir,
    File(Vec<u8>),
}

/// The namespace and the bytes of every file, changed only by the
/// operations that succeed. Each operation returns what a correct file
/// system answers: `None` or `false` where it must refuse.
#[derive(Debug, Clone, Default)]
pub struct FsModel {
    /// Full path → inode number.
    names: BTreeMap<String, u64>,
    /// Live inodes; an unlinked or replaced one is gone.
    nodes: HashMap<u64, Node>,
    next_ino: u64,
}

/// The directory `path` is a name in; `None` for the root.
fn parent(path: &str) -> Option<&str> {
    match path.rfind('/') {
        None | Some(0) => None,
        Some(i) => Some(&path[..i]),
    }
}

impl FsModel {
    /// An empty file system: only the root.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inode `path` names.
    pub fn lookup(&self, path: &str) -> Option<u64> {
        self.names.get(path).copied()
    }

    fn is_dir(&self, path: &str) -> bool {
        let node = self.lookup(path).and_then(|ino| self.nodes.get(&ino));
        matches!(node, Some(Node::Dir))
    }

    /// Whether a name at `path` has a directory to live in.
    fn has_parent(&self, path: &str) -> bool {
        parent(path).is_none_or(|dir| self.is_dir(dir))
    }

    /// Whether `path` is a directory with a name under it.
    fn has_children(&self, path: &str) -> bool {
        let under = format!("{path}/");
        self.is_dir(path) && self.names.keys().any(|k| k.starts_with(&under))
    }

    fn make(&mut self, path: &str, node: Node) -> Option<u64> {
        if self.names.contains_key(path) || !self.has_parent(path) {
            return None;
        }
        self.next_ino += 1;
        self.names.insert(path.to_string(), self.next_ino);
        self.nodes.insert(self.next_ino, node);
        Some(self.next_ino)
    }

    /// `open(2)`: the inode `path` names, made first as an empty file
    /// when it is missing and `create` is set. `truncate` cuts a file to
    /// no bytes and refuses a directory.
    pub fn open(&mut self, path: &str, create: bool, truncate: bool) -> Option<u64> {
        let Some(ino) = self.lookup(path) else {
            return create
                .then(|| self.make(path, Node::File(Vec::new())))
                .flatten();
        };
        match self.nodes.get_mut(&ino) {
            Some(Node::File(bytes)) if truncate => bytes.clear(),
            Some(Node::Dir) if truncate => return None,
            _ => {}
        }
        Some(ino)
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str) -> Option<u64> {
        self.make(path, Node::Dir)
    }

    fn file(&mut self, ino: u64) -> Option<&mut Vec<u8>> {
        match self.nodes.get_mut(&ino) {
            Some(Node::File(bytes)) => Some(bytes),
            _ => None,
        }
    }

    /// `pwrite(2)` to inode `ino`: the gap between the old end and
    /// `offset` reads as zeroes. No bytes change nothing, not even the
    /// size, and need no live file behind the fd.
    pub fn write(&mut self, ino: u64, offset: u64, data: &[u8]) -> Option<usize> {
        if data.is_empty() {
            return Some(0);
        }
        let bytes = self.file(ino)?;
        let (start, end) = (offset as usize, offset as usize + data.len());
        bytes.resize(bytes.len().max(end), 0);
        bytes[start..end].copy_from_slice(data);
        Some(data.len())
    }

    /// `pread(2)` of inode `ino`: what lies in `[offset, offset + len)`,
    /// clipped to the end of the file.
    pub fn read(&self, ino: u64, offset: u64, len: usize) -> Option<&[u8]> {
        let Some(Node::File(bytes)) = self.nodes.get(&ino) else {
            return None;
        };
        let start = (offset as usize).min(bytes.len());
        Some(&bytes[start..start + len.min(bytes.len() - start)])
    }

    /// `ftruncate(2)`: growing adds zeroes.
    pub fn truncate(&mut self, ino: u64, size: u64) -> bool {
        self.file(ino)
            .map(|bytes| bytes.resize(size as usize, 0))
            .is_some()
    }

    /// `rename(2)`: `from`, and every name under it, moves to `to`,
    /// replacing what `to` named. Refused when `from` is missing, when
    /// `to` has no directory to live in, when `to` is a directory with
    /// names under it, or when `to` lies under `from` (EINVAL). A name
    /// renamed onto itself stays.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        if !self.names.contains_key(from) || !self.has_parent(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let into_itself = to
            .strip_prefix(from)
            .is_some_and(|rest| rest.starts_with('/'));
        if into_itself || self.has_children(to) {
            return false;
        }
        if let Some(old) = self.names.remove(to) {
            self.nodes.remove(&old);
        }
        let under = format!("{from}/");
        let moved: Vec<String> = self
            .names
            .keys()
            .filter(|k| *k == from || k.starts_with(&under))
            .cloned()
            .collect();
        for key in moved {
            let ino = self.names.remove(&key).expect("key just listed");
            self.names
                .insert(format!("{to}{}", &key[from.len()..]), ino);
        }
        true
    }

    /// `unlink(2)` of a file, or of a directory with no names under it.
    pub fn unlink(&mut self, path: &str) -> bool {
        if self.has_children(path) {
            return false;
        }
        self.names
            .remove(path)
            .map(|ino| self.nodes.remove(&ino))
            .is_some()
    }

    /// What `stat(2)` reports as the size of `path`: a directory has 0.
    pub fn size(&self, path: &str) -> Option<u64> {
        match self.nodes.get(&self.lookup(path)?)? {
            Node::Dir => Some(0),
            Node::File(bytes) => Some(bytes.len() as u64),
        }
    }

    /// Every file, by name, in name order.
    pub fn files(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.names
            .iter()
            .filter_map(|(path, ino)| match self.nodes.get(ino) {
                Some(Node::File(bytes)) => Some((path.as_str(), &bytes[..])),
                _ => None,
            })
    }

    /// The names directly in directory `dir` ("/" for the root), sorted.
    pub fn children(&self, dir: &str) -> Vec<String> {
        let under = format!("{}/", dir.trim_end_matches('/'));
        self.names
            .keys()
            .filter_map(|k| k.strip_prefix(&under))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_directory_rename_moves_its_names_and_refuses_a_full_target() {
        let mut m = FsModel::new();
        assert!(m.mkdir("/d0").is_some() && m.mkdir("/d1").is_some());
        let x = m.open("/d0/f0", true, false).unwrap();
        assert_eq!(m.write(x, 2, b"abc"), Some(3));
        assert!(m.open("/nodir/f0", true, false).is_none());
        assert!(m.rename("/d0", "/d1"));
        assert_eq!(m.read(x, 0, 10), Some(&[0, 0, b'a', b'b', b'c'][..]));
        assert_eq!(m.lookup("/d1/f0"), Some(x));
        assert_eq!(m.children("/"), ["d1"]);
        assert!(m.mkdir("/d0").is_some());
        assert!(
            !m.rename("/d0", "/d1"),
            "onto a directory with a name in it"
        );
        assert!(!m.unlink("/d1"));
        assert!(!m.rename("/d1", "/d1/f1"), "under itself");
        assert!(!m.rename("/d1", "/d1/f0"), "onto a name under itself");
        assert_eq!(m.lookup("/d1/f0"), Some(x));
        assert!(m.unlink("/d1/f0") && m.unlink("/d1"));
        assert_eq!(m.write(x, 0, b"z"), None, "the fd's inode is gone");
        assert_eq!(m.write(x, 0, b""), Some(0));
    }
}
