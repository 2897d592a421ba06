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
use labstor_core::{FileStat, FsOp, KvsOp, Payload, RespPayload};
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

    fn fs_err(resp: RespPayload) -> GenericFsError {
        match resp {
            RespPayload::Err(e) => GenericFsError::Fs(e),
            other => GenericFsError::Fs(format!("unexpected response {other:?}")),
        }
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
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::Open {
                path: rel,
                create,
                truncate,
            }),
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
            other => Err(Self::fs_err(other)),
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
    pub fn write(&mut self, fd: i32, data: &[u8]) -> Result<usize, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::Write {
                ino,
                offset: pos,
                data: data.to_vec(),
            }),
        )?;
        match resp {
            RespPayload::Len(n) => {
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + n as u64;
                Ok(n)
            }
            other => Err(Self::fs_err(other)),
        }
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
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: pos,
                len,
            }),
        )?;
        match resp {
            RespPayload::Inline(d) => {
                let d = d.to_vec(); // copy-ok: inline envelope copy-out, uncounted by design
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + d.len() as u64;
                Ok(d)
            }
            RespPayload::Data(d) => {
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + d.len() as u64;
                Ok(d)
            }
            RespPayload::DataBuf(h) => {
                let d = h.to_vec(); // copy-ok: read(2) returns owned bytes; to_vec self-counts
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + d.len() as u64;
                Ok(d)
            }
            other => Err(Self::fs_err(other)),
        }
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
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::WriteBuf {
                ino,
                offset: pos,
                buf,
            }),
        )?;
        match resp {
            RespPayload::Len(n) => {
                self.fds.get_mut(&fd).expect("entry checked").pos = pos + n as u64;
                Ok(n)
            }
            other => Err(Self::fs_err(other)),
        }
    }

    /// Zero-copy `read(2)`: returns a refcounted view of shared memory —
    /// a page-cache hit costs a refcount bump, not a copy. Falls back to
    /// pooling a legacy `Vec` response (counted) when a stage downgraded.
    pub fn read_buf(
        &mut self,
        fd: i32,
        len: usize,
    ) -> Result<labstor_ipc::BufHandle, GenericFsError> {
        let (sid, ino, pos) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::ReadBuf {
                ino,
                offset: pos,
                len,
            }),
        )?;
        let h = match resp {
            RespPayload::DataBuf(h) => h,
            RespPayload::Inline(d) => labstor_ipc::default_pool()
                .alloc_from(d.as_slice())
                .ok_or_else(|| GenericFsError::Fs("buffer pool exhausted".into()))?,
            RespPayload::Data(d) => labstor_ipc::default_pool()
                .alloc_from(&d)
                .ok_or_else(|| GenericFsError::Fs("buffer pool exhausted".into()))?,
            other => return Err(Self::fs_err(other)),
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
        let (resp, _) = self.client.execute(
            &stack,
            Payload::Fs(FsOp::ReadFiltered {
                ino,
                offset: pos,
                len,
                prog,
            }),
        )?;
        match resp {
            RespPayload::Inline(d) if is_select => Ok(FilteredRead::Inline(d.to_vec())), // copy-ok: inline copy-out
            RespPayload::Inline(d) => AggReply::decode(d.as_slice())
                .map(FilteredRead::Agg)
                .ok_or_else(|| GenericFsError::Fs("malformed pushdown aggregate".into())),
            RespPayload::DataBuf(h) => Ok(FilteredRead::Buf(h)),
            RespPayload::Data(d) => Ok(FilteredRead::Inline(d)),
            other => Err(Self::fs_err(other)),
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
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Truncate { ino, size }))?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(Self::fs_err(resp))
        }
    }

    /// `fsync(2)`.
    pub fn fsync(&mut self, fd: i32) -> Result<(), GenericFsError> {
        let (sid, ino, _) = self.entry(fd)?;
        let stack = self.stack_of(sid)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Fsync { ino }))?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(Self::fs_err(resp))
        }
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
        let (resp, _) = self.client.execute(
            &stack_a,
            Payload::Fs(FsOp::Rename {
                from: rel_from,
                to: rel_to,
            }),
        )?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(Self::fs_err(resp))
        }
    }

    /// `unlink(2)`.
    pub fn unlink(&mut self, path: &str) -> Result<(), GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Unlink { path: rel }))?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(Self::fs_err(resp))
        }
    }

    /// `mkdir(2)`.
    pub fn mkdir(&mut self, path: &str, mode: u16) -> Result<(), GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Mkdir { path: rel, mode }))?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(Self::fs_err(resp))
        }
    }

    /// `stat(2)`.
    pub fn stat(&mut self, path: &str) -> Result<FileStat, GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Stat { path: rel }))?;
        match resp {
            RespPayload::Stat(st) => Ok(st),
            other => Err(Self::fs_err(other)),
        }
    }

    /// `readdir(3)`.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, GenericFsError> {
        let (stack, rel) = self.client.resolve(path)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Fs(FsOp::Readdir { path: rel }))?;
        match resp {
            RespPayload::Names(n) => Ok(n),
            other => Err(Self::fs_err(other)),
        }
    }

    /// Open fd count.
    pub fn open_fds(&self) -> usize {
        self.fds.len()
    }

    /// Fork semantics (§III-F): the child gets a *new* connection (new
    /// shared-memory queue pairs) and a copy of the parent's open fds.
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

    fn route(
        &self,
        key: &str,
    ) -> Result<(std::sync::Arc<labstor_core::LabStack>, String), ClientError> {
        self.client.resolve(key)
    }

    /// Store a value. One request, one round trip — the paper's point.
    pub fn put(&mut self, key: &str, value: Vec<u8>) -> Result<usize, GenericFsError> {
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::Put { key: rel, value }))?;
        match resp {
            RespPayload::Len(n) => Ok(n),
            other => Err(GenericFs::fs_err(other)),
        }
    }

    /// Zero-copy put: the caller filled a pool buffer in place and the
    /// KVS forwards full blocks as refcounted slices of it.
    pub fn put_buf(
        &mut self,
        key: &str,
        buf: labstor_ipc::BufHandle,
    ) -> Result<usize, GenericFsError> {
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::PutBuf { key: rel, buf }))?;
        match resp {
            RespPayload::Len(n) => Ok(n),
            other => Err(GenericFs::fs_err(other)),
        }
    }

    /// Fetch a value.
    ///
    /// Delegates to the zero-copy response path plus one copy-out:
    /// small values ride inline in the envelope (zero counted copies),
    /// larger ones arrive as a refcounted handle and pay exactly the
    /// one client-side copy-out an owned-`Vec` API requires.
    pub fn get(&mut self, key: &str) -> Result<Vec<u8>, GenericFsError> {
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::Get { key: rel }))?;
        match resp {
            RespPayload::Inline(d) => Ok(d.to_vec()), // copy-ok: inline envelope copy-out, uncounted by design
            RespPayload::Data(d) => Ok(d),
            RespPayload::DataBuf(h) => Ok(h.to_vec()), // copy-ok: owned-Vec API; to_vec self-counts
            other => Err(GenericFs::fs_err(other)),
        }
    }

    /// Zero-copy fetch: single-block values arrive as a refcounted view
    /// of the driver's DMA buffer. Inline and legacy `Vec` responses are
    /// pooled (one counted copy) so the return type stays uniform.
    pub fn get_buf(&mut self, key: &str) -> Result<labstor_ipc::BufHandle, GenericFsError> {
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::Get { key: rel }))?;
        match resp {
            RespPayload::DataBuf(h) => Ok(h),
            RespPayload::Inline(d) => labstor_ipc::default_pool()
                .alloc_from(d.as_slice())
                .ok_or_else(|| GenericFsError::Fs("buffer pool exhausted".into())),
            RespPayload::Data(d) => labstor_ipc::default_pool()
                .alloc_from(&d)
                .ok_or_else(|| GenericFsError::Fs("buffer pool exhausted".into())),
            other => Err(GenericFs::fs_err(other)),
        }
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
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::GetWhere { key: rel, prog }))?;
        match resp {
            RespPayload::Ok => Ok(None),
            RespPayload::Inline(d) => Ok(Some(d.to_vec())), // copy-ok: inline envelope copy-out, uncounted by design
            RespPayload::Data(d) => Ok(Some(d)),
            RespPayload::DataBuf(h) => Ok(Some(h.to_vec())), // copy-ok: owned-Vec API; to_vec self-counts
            other => Err(GenericFs::fs_err(other)),
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
        let (stack, rel) = self.route(prefix)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::ScanWhere { prefix: rel, prog }))?;
        match resp {
            RespPayload::Names(keys) => Ok(ScanReply::Keys(keys)),
            RespPayload::Inline(d) => AggReply::decode(d.as_slice())
                .map(ScanReply::Agg)
                .ok_or_else(|| GenericFsError::Fs("malformed pushdown aggregate".into())),
            other => Err(GenericFs::fs_err(other)),
        }
    }

    /// Delete a key.
    pub fn remove(&mut self, key: &str) -> Result<(), GenericFsError> {
        let (stack, rel) = self.route(key)?;
        let (resp, _) = self
            .client
            .execute(&stack, Payload::Kvs(KvsOp::Remove { key: rel }))?;
        if resp.is_ok() {
            Ok(())
        } else {
            Err(GenericFs::fs_err(resp))
        }
    }
}
