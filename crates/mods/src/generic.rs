//! Generic LabMods: GenericFS and GenericKVS (paper §III-A "Management
//! LabMods").
//!
//! "Generic LabMods are in charge of creating I/O requests and forwarding
//! them to the appropriate I/O system… loaded into clients using
//! LD_PRELOAD, enabling seamless support for legacy applications."
//! GenericFS "manages the allocation of file descriptors and the routing
//! of I/O requests to the proper filesystem implementation"; GenericKVS
//! only does the routing.
//!
//! Here they are client-side connectors wrapping a [`Client`]: they expose
//! a POSIX-ish (resp. put/get/remove) API, resolve each path against the
//! LabStack Namespace exactly as §III-E walks it, keep the fd→stack
//! mapping, and reproduce the fork/clone fd-inheritance semantics of
//! §III-F.

use std::collections::HashMap;
use std::sync::Arc;

use labstor_core::client::{Client, ClientError};
use labstor_core::{FileStat, FsOp, KvsOp, LabStack, Payload, RespPayload};
use labstor_pushdown::{AggReply, VerifiedProgram};

/// What a pushdown read ships back: orders of magnitude fewer bytes
/// than the pages it scanned.
#[derive(Debug, Clone)]
pub enum FilteredRead {
    /// A 32-byte aggregate (count/sum) that rode inline in the envelope.
    Agg(AggReply),
    /// Matching records small enough to ride inline (≤ 64 B total).
    Inline(Vec<u8>),
    /// Matching records in a pooled buffer (selective but not tiny).
    Buf(labstor_ipc::BufHandle),
}

/// What a pushdown KVS scan ships back.
#[derive(Debug, Clone)]
pub enum ScanReply {
    /// A 32-byte aggregate over all scanned values.
    Agg(AggReply),
    /// The keys whose values matched the predicate.
    Keys(Vec<String>),
}

/// A GenericFS error: either a client-level failure or an FS-level one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenericFsError {
    /// IPC / routing failure.
    Client(String),
    /// The filesystem rejected the operation.
    Fs(String),
    /// Unknown file descriptor.
    BadFd(i32),
}

impl std::fmt::Display for GenericFsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenericFsError::Client(e) => write!(f, "client error: {e}"),
            GenericFsError::Fs(e) => write!(f, "fs error: {e}"),
            GenericFsError::BadFd(fd) => write!(f, "bad fd {fd}"),
        }
    }
}

impl std::error::Error for GenericFsError {}

impl From<ClientError> for GenericFsError {
    fn from(e: ClientError) -> Self {
        GenericFsError::Client(e.to_string())
    }
}

/// Execute one request: a client failure or an `Err` response comes back
/// as the matching [`GenericFsError`], any other response as its payload.
fn call(
    client: &mut Client,
    stack: &Arc<LabStack>,
    payload: Payload,
) -> Result<RespPayload, GenericFsError> {
    match client.execute(stack, payload)?.0 {
        RespPayload::Err(e) => Err(GenericFsError::Fs(e)),
        resp => Ok(resp),
    }
}

/// A data answer's bytes as one owned `Vec`, or the answer back when it
/// carries none. A `Vec` is handed on as it is, inline bytes are copied
/// out of the envelope uncounted, and a handle or a run list pays the one
/// counted copy-out an owned-`Vec` API makes.
pub(crate) fn owned_bytes(resp: RespPayload) -> Result<Vec<u8>, RespPayload> {
    match resp {
        RespPayload::Data(d) => Ok(d),
        RespPayload::Inline(d) => Ok(d.to_vec()), // copy-ok: inline envelope copy-out, uncounted by design
        other => other.data_parts().map(copy_out).ok_or(other),
    }
}

/// One counted copy of `parts` into a `Vec` sized once.
pub(crate) fn copy_out<'a>(parts: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
    let len = parts.clone().map(<[u8]>::len).sum();
    labstor_ipc::note_payload_copy(len);
    let mut out = Vec::with_capacity(len);
    // copy-ok: the copy-out of a handle or of each run; counted above
    parts.for_each(|part| out.extend_from_slice(part));
    out
}

struct OpenEntry {
    stack_id: u64,
    ino: u64,
    pos: u64,
}

/// The GenericFS connector: POSIX calls in, routed LabStack requests out.
pub struct GenericFs {
    client: Client,
    fds: HashMap<i32, OpenEntry>,
    next_fd: i32,
}

impl GenericFs {
    /// Wrap a connected client.
    pub fn new(client: Client) -> Self {
        GenericFs {
            client,
            fds: HashMap::new(),
            next_fd: 0,
        }
    }

    /// The wrapped client (e.g. to read its virtual clock).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Mutable access to the wrapped client.
    pub fn client_mut(&mut self) -> &mut Client {
        &mut self.client
    }

    fn unexpected(resp: RespPayload) -> GenericFsError {
        GenericFsError::Fs(format!("unexpected response {resp:?}"))
    }

    /// Execute `op` on `stack`: see [`call`].
    fn call(&mut self, stack: &Arc<LabStack>, op: FsOp) -> Result<RespPayload, GenericFsError> {
        call(&mut self.client, stack, Payload::Fs(op))
    }

    /// `open(2)`: resolve the governing stack (path, then ancestors — the
    /// §III-E walk), send an Open, allocate an fd.
    pub fn open(
        &mut self,
        path: &str,
        create: bool,
        truncate: bool,
    ) -> Result<i32, GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let resp = self.call(
            &stack,
            FsOp::Open {
                path: rel,
                create,
                truncate,
            },
        )?;
        match resp {
            RespPayload::Ino(ino) => {
                self.next_fd += 1;
                self.fds.insert(
                    self.next_fd,
                    OpenEntry {
                        stack_id: stack.id,
                        ino,
                        pos: 0,
                    },
                );
                Ok(self.next_fd)
            }
            other => Err(Self::unexpected(other)),
        }
    }

    fn entry(&self, fd: i32) -> Result<(u64, u64, u64), GenericFsError> {
        self.fds
            .get(&fd)
            .map(|e| (e.stack_id, e.ino, e.pos))
            .ok_or(GenericFsError::BadFd(fd))
    }

    fn stack_of(&mut self, stack_id: u64) -> Result<Arc<labstor_core::LabStack>, GenericFsError> {
        self.client
            .stack(stack_id)
            .ok_or_else(|| GenericFsError::Client(format!("stack {stack_id} vanished")))
    }

    /// `write(2)` at the fd's position.
    ///
    /// The mirror of [`GenericFs::read`]: the bytes are copied once, and
    /// counted, into a pool buffer of the class that fits
    /// ([`Client::alloc_buf`]) and ride the zero-copy `WriteBuf` path, so
    /// a block cache keeps that buffer instead of copying them again.
    /// When that class is dry the bytes go, copied and counted the same,
    /// as the legacy `Write`. No bytes send nothing: the fd is checked
    /// and the write returns 0.
    ///
    /// [`Client::alloc_buf`]: labstor_core::Client::alloc_buf
    pub fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, GenericFsError> {
        if data.is_empty() {
            return self.entry(fd).map(|_| 0);
        }
        self.write_op(fd, |fs, ino, offset| {
            labstor_ipc::note_payload_copy(data.len());
            match fs.client.alloc_buf(data.len()) {
                Some(mut buf) => {
                    // owner-ok: the client fills the buffer its own domain just allocated
                    // copy-ok: write(2)'s one boundary copy into shared memory; counted above
                    let filled = buf.fill(data);
                    debug_assert!(filled, "fresh handle is unique");
                    FsOp::WriteBuf { ino, offset, buf }
                }
                None => FsOp::Write {
                    ino,
                    offset,
                    data: data.to_vec(), // copy-ok: the pool-dry fallback's one copy; counted above
                },
            }
        })
    }

    /// `read(2)` at the fd's position.
    ///
    /// Delegates to the zero-copy `ReadBuf` path plus one copy-out:
    /// the stack assembles the result without the legacy path's counted
    /// server-side copy, and small results ride inline in the envelope
    /// (zero counted copies end to end). Large results pay exactly the
    /// one client-side copy-out an owned-`Vec` API requires.
    pub fn read(&mut self, fd: i32, len: usize) -> Result<Vec<u8>, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let resp = self.call(
            &stack,
            FsOp::ReadBuf {
                ino,
                offset: pos,
                len,
            },
        )?;
        let d = owned_bytes(resp).map_err(Self::unexpected)?;
        self.fds.get_mut(&fd).expect("entry checked").pos = pos + d.len() as u64;
        Ok(d)
    }

    /// Zero-copy `write(2)`: the caller filled a pool buffer in place
    /// (see [`Client::alloc_buf`]) and every stage below passes the
    /// handle by refcount bump, never by copy.
    ///
    /// [`Client::alloc_buf`]: labstor_core::Client::alloc_buf
    pub fn write_buf(
        &mut self,
        fd: i32,
        buf: labstor_ipc::BufHandle,
    ) -> Result<usize, GenericFsError> {
        self.write_op(fd, |_, ino, offset| FsOp::WriteBuf { ino, offset, buf })
    }

    /// Both writes' tail: send the op `make` builds for the fd's inode
    /// and position, then advance the position by what was written.
    fn write_op(
        &mut self,
        fd: i32,
        make: impl FnOnce(&mut Self, u64, u64) -> FsOp,
    ) -> Result<usize, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let op = make(self, ino, pos);
        match self.call(&stack, op)? {
            RespPayload::Len(n) => {
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + n as u64;
                Ok(n)
            }
            other => Err(Self::unexpected(other)),
        }
    }

    /// Zero-copy `read(2)`: returns a refcounted view of shared memory —
    /// a page-cache hit costs a refcount bump, not a copy. Pools any other
    /// data answer by one counted copy: a legacy `Vec` or inline bytes
    /// when a stage downgraded, the runs of bytes that lie in several
    /// slots.
    // api-ok: tests/zero_copy_path.rs pins its copy count
    pub fn read_buf(
        &mut self,
        fd: i32,
        len: usize,
    ) -> Result<labstor_ipc::BufHandle, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let resp = self.call(
            &stack,
            FsOp::ReadBuf {
                ino,
                offset: pos,
                len,
            },
        )?;
        let h = match resp {
            RespPayload::DataBuf(h) => h,
            other => {
                let Some(parts) = other.data_parts() else {
                    return Err(Self::unexpected(other));
                };
                let len = parts.clone().map(<[u8]>::len).sum();
                let mut h = labstor_ipc::default_pool()
                    .alloc(len)
                    .ok_or_else(|| GenericFsError::Fs("buffer pool exhausted".into()))?;
                labstor_ipc::note_payload_copy(len);
                // owner-ok: the client fills the buffer its own domain just allocated
                let filled = h.write_with(|dst| {
                    let mut at = 0;
                    for part in parts {
                        // copy-ok: the answer pooled for the handle API; counted above
                        dst[at..at + part.len()].copy_from_slice(part);
                        at += part.len();
                    }
                });
                debug_assert!(filled, "fresh handle is unique");
                h
            }
        };
        self.fds.get_mut(&fd).expect("entry checked").pos = pos + h.len() as u64;
        Ok(h)
    }

    /// Pushdown read at the fd's position (pread-style: the position
    /// does **not** advance — the stack consumed the pages, not the
    /// client). The verified program runs inside the filesystem LabMod
    /// over cached/DMA'd pages in place; only the result ships back.
    pub fn read_filtered(
        &mut self,
        fd: i32,
        len: usize,
        prog: Arc<VerifiedProgram>,
    ) -> Result<FilteredRead, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let is_select = prog.action() == labstor_pushdown::Action::Select;
        let resp = self.call(
            &stack,
            FsOp::ReadFiltered {
                ino,
                offset: pos,
                len,
                prog,
            },
        )?;
        match resp {
            RespPayload::Inline(d) if is_select => Ok(FilteredRead::Inline(d.to_vec())), // copy-ok: inline copy-out
            RespPayload::Inline(d) => AggReply::decode(d.as_slice())
                .map(FilteredRead::Agg)
                .ok_or_else(|| GenericFsError::Fs("malformed pushdown aggregate".into())),
            RespPayload::DataBuf(h) => Ok(FilteredRead::Buf(h)),
            RespPayload::Data(d) => Ok(FilteredRead::Inline(d)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// `lseek(2)` (SEEK_SET).
    pub fn seek(&mut self, fd: i32, pos: u64) -> Result<(), GenericFsError> {
        self.fds
            .get_mut(&fd)
            .map(|e| e.pos = pos)
            .ok_or(GenericFsError::BadFd(fd))
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&mut self, fd: i32, size: u64) -> Result<(), GenericFsError> {
        let (sid, ino, _) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        self.call(&stack, FsOp::Truncate { ino, size })?;
        Ok(())
    }

    /// `fsync(2)`.
    pub fn fsync(&mut self, fd: i32) -> Result<(), GenericFsError> {
        let (sid, ino, _) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        self.call(&stack, FsOp::Fsync { ino })?;
        Ok(())
    }

    /// `close(2)`.
    pub fn close(&mut self, fd: i32) -> Result<(), GenericFsError> {
        self.fds
            .remove(&fd)
            .map(|_| ())
            .ok_or(GenericFsError::BadFd(fd))
    }

    /// `rename(2)` — both paths must resolve to the same stack.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), GenericFsError> {
        let (stack_a, rel_from) = self.client.resolve(from)?;
        let (stack_b, rel_to) = self.client.resolve(to)?;
        if stack_a.id != stack_b.id {
            return Err(GenericFsError::Fs("cross-stack rename (EXDEV)".into()));
        }
        self.call(
            &stack_a,
            FsOp::Rename {
                from: rel_from,
                to: rel_to,
            },
        )?;
        Ok(())
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> Result<(), GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        self.call(&stack, FsOp::Unlink { path: rel })?;
        Ok(())
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u16) -> Result<(), GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        self.call(&stack, FsOp::Mkdir { path: rel, mode })?;
        Ok(())
    }

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> Result<FileStat, GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let resp = self.call(&stack, FsOp::Stat { path: rel })?;
        match resp {
            RespPayload::Stat(st) => Ok(st),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Fork semantics (§III-F): the child gets a *new* connection (new
    /// shared-memory queue pairs) and a copy of the parent's open fds.
    // api-ok: §III-F fork interception
    pub fn fork(&self, child_client: Client) -> GenericFs {
        GenericFs {
            client: child_client,
            fds: self
                .fds
                .iter()
                .map(|(fd, e)| {
                    (
                        *fd,
                        OpenEntry {
                            stack_id: e.stack_id,
                            ino: e.ino,
                            pos: e.pos,
                        },
                    )
                })
                .collect(),
            next_fd: self.next_fd,
        }
    }

    /// Execve semantics (§III-F): "open fd state is copied to the LabStor
    /// Runtime and is reloaded upon completion". [`GenericFs::save_fds`]
    /// serializes the table; the post-exec process reconnects and calls
    /// [`GenericFs::restore_fds`] with the saved blob.
    // api-ok: §III-F execve interception (tests/end_to_end.rs)
    pub fn save_fds(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.fds.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.next_fd as u32).to_le_bytes());
        let mut entries: Vec<(&i32, &OpenEntry)> = self.fds.iter().collect();
        entries.sort_by_key(|(fd, _)| **fd);
        for (fd, e) in entries {
            out.extend_from_slice(&fd.to_le_bytes());
            out.extend_from_slice(&e.stack_id.to_le_bytes());
            out.extend_from_slice(&e.ino.to_le_bytes());
            out.extend_from_slice(&e.pos.to_le_bytes());
        }
        out
    }

    /// Rebuild a GenericFS in a fresh address space from a saved fd blob.
    // api-ok: §III-F execve interception (tests/end_to_end.rs)
    pub fn restore_fds(client: Client, blob: &[u8]) -> Result<GenericFs, GenericFsError> {
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], GenericFsError> {
            let s = blob
                .get(*pos..*pos + n)
                .ok_or_else(|| GenericFsError::Client("truncated fd blob".into()))?;
            *pos += n;
            Ok(s)
        };
        let mut pos = 0usize;
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let next_fd = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as i32;
        let mut fds = HashMap::with_capacity(count);
        for _ in 0..count {
            let fd = i32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let stack_id = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let ino = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let fpos = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            fds.insert(
                fd,
                OpenEntry {
                    stack_id,
                    ino,
                    pos: fpos,
                },
            );
        }
        Ok(GenericFs {
            client,
            fds,
            next_fd,
        })
    }
}

/// The GenericKVS connector: routes put/get/remove to a KVS stack.
pub struct GenericKvs {
    client: Client,
}

impl GenericKvs {
    /// Wrap a connected client.
    pub fn new(client: Client) -> Self {
        GenericKvs { client }
    }

    /// The wrapped client.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Mutable access to the wrapped client.
    pub fn client_mut(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Resolve `key`'s stack and execute the op `op` builds from its
    /// stack-relative key: see [`call`].
    fn call(
        &mut self,
        key: &str,
        op: impl FnOnce(String) -> KvsOp,
    ) -> Result<RespPayload, GenericFsError> {
        let (stack, rel) = self.client.resolve(key)?;
        call(&mut self.client, &stack, Payload::Kvs(op(rel)))
    }

    /// Store a value. One request, one round trip — the paper's point.
    pub fn put(&mut self, key: &str, value: Vec<u8>) -> Result<usize, GenericFsError> {
        let resp = self.call(key, |key| KvsOp::Put { key, value })?;
        match resp {
            RespPayload::Len(n) => Ok(n),
            other => Err(GenericFs::unexpected(other)),
        }
    }

    /// Fetch a value.
    ///
    /// Delegates to the zero-copy response path plus one copy-out:
    /// small values ride inline in the envelope (zero counted copies),
    /// larger ones arrive as a refcounted handle and pay exactly the
    /// one client-side copy-out an owned-`Vec` API requires.
    pub fn get(&mut self, key: &str) -> Result<Vec<u8>, GenericFsError> {
        let resp = self.call(key, |key| KvsOp::Get { key })?;
        owned_bytes(resp).map_err(GenericFs::unexpected)
    }

    /// Pushdown point-query: fetch `key`'s value only if the verified
    /// program matches it, walking deeper table levels in-stack on a
    /// miss (no client round trip per level). `Ok(None)` means the key
    /// exists but the predicate rejected its value.
    pub fn get_where(
        &mut self,
        key: &str,
        prog: Arc<VerifiedProgram>,
    ) -> Result<Option<Vec<u8>>, GenericFsError> {
        let resp = self.call(key, |key| KvsOp::GetWhere { key, prog })?;
        match resp {
            RespPayload::Ok => Ok(None),
            other => owned_bytes(other).map(Some).map_err(GenericFs::unexpected),
        }
    }

    /// Pushdown range scan: evaluate the verified program over every
    /// value whose key starts with `prefix` — inside the KVS LabMod —
    /// and ship back only matching keys or a 32-byte aggregate.
    pub fn scan_where(
        &mut self,
        prefix: &str,
        prog: Arc<VerifiedProgram>,
    ) -> Result<ScanReply, GenericFsError> {
        let resp = self.call(prefix, |prefix| KvsOp::ScanWhere { prefix, prog })?;
        match resp {
            RespPayload::Names(keys) => Ok(ScanReply::Keys(keys)),
            RespPayload::Inline(d) => AggReply::decode(d.as_slice())
                .map(ScanReply::Agg)
                .ok_or_else(|| GenericFsError::Fs("malformed pushdown aggregate".into())),
            other => Err(GenericFs::unexpected(other)),
        }
    }

    /// Delete a key.
    pub fn remove(&mut self, key: &str) -> Result<(), GenericFsError> {
        self.call(key, |key| KvsOp::Remove { key })?;
        Ok(())
    }
}
