//! The request/response vocabulary flowing through LabStor queues.
//!
//! LabMods "take a well-defined input, process the input, and produce a
//! well-defined output" (§III-A). The platform ships interface payloads
//! for the I/O types it bundles — POSIX-style file operations, key-value
//! operations, block I/O between stack stages — plus a `Custom` escape
//! hatch so third-party LabMods can define their own interfaces without
//! touching the platform.

use labstor_ipc::{BufHandle, Credentials, InlineData};
use labstor_pushdown::VerifiedProgram;
use std::sync::Arc;

/// POSIX-flavoured file operations (the GenericFS/LabFS interface).
#[derive(Debug, Clone)]
pub enum FsOp {
    /// Create a regular file; respond with its inode.
    Create {
        /// Stack-relative path.
        path: String,
        /// Permission bits.
        mode: u16,
    },
    /// Resolve (and optionally create) a file; respond with its inode.
    Open {
        /// Stack-relative path.
        path: String,
        /// Create if missing.
        create: bool,
        /// Truncate to zero length.
        truncate: bool,
    },
    /// Create a directory.
    Mkdir {
        /// Stack-relative path.
        path: String,
        /// Permission bits.
        mode: u16,
    },
    /// Write `data` at `offset` of inode `ino`.
    Write {
        /// Target inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Payload.
        data: Vec<u8>,
    },
    /// Zero-copy write: the payload lives in a pooled shared-memory
    /// buffer; stages pass the handle by refcount bump, never by copy.
    WriteBuf {
        /// Target inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Shared-memory payload.
        buf: BufHandle,
    },
    /// Read `len` bytes at `offset` of inode `ino`, the one file read
    /// verb. The answer is data of any shape ([`RespPayload::data_parts`]
    /// reads them all): a [`RespPayload::DataBuf`] view of a cache hit or
    /// of the pool buffer a miss landed in, a [`RespPayload::DataRuns`]
    /// list when the bytes lie in several pool slots, small results
    /// [`RespPayload::Inline`]. A read that finds no pool slot for its
    /// bytes is refused with [`POOL_DRY`], and so is one longer than the
    /// pool holds at once: read long ranges in pieces (`GenericFs::read`
    /// sends one per largest slot).
    ReadBuf {
        /// Source inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Pushdown read: run a verified bytecode program over `len` bytes
    /// at `offset` inside the stack, shipping back only the result
    /// (aggregate or matching records) instead of the pages. The program
    /// attachment rides the envelope by `Arc` — verified once
    /// client-side, trusted by type thereafter.
    ReadFiltered {
        /// Source inode.
        ino: u64,
        /// Byte offset (must be record-aligned).
        offset: u64,
        /// Bytes to scan.
        len: usize,
        /// The verified filter/aggregation program.
        prog: Arc<VerifiedProgram>,
    },
    /// Remove a file or empty directory.
    Unlink {
        /// Stack-relative path.
        path: String,
    },
    /// Rename a file or directory.
    Rename {
        /// Existing path.
        from: String,
        /// New path (replaced if it exists, POSIX-style).
        to: String,
    },
    /// Stat a path.
    Stat {
        /// Stack-relative path.
        path: String,
    },
    /// List a directory.
    Readdir {
        /// Stack-relative path.
        path: String,
    },
    /// Set file size.
    Truncate {
        /// Target inode.
        ino: u64,
        /// New size.
        size: u64,
    },
    /// Persist one file.
    Fsync {
        /// Target inode.
        ino: u64,
    },
}

/// Key-value operations (the GenericKVS/LabKVS interface).
#[derive(Debug, Clone)]
pub enum KvsOp {
    /// Store a value under a key (single round trip — the paper's point
    /// versus open-modify-close).
    Put {
        /// Key.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Fetch a value.
    Get {
        /// Key.
        key: String,
    },
    /// Delete a key.
    Remove {
        /// Key.
        key: String,
    },
    /// Zero-copy put: the value lives in a pooled shared-memory buffer.
    PutBuf {
        /// Key.
        key: String,
        /// Shared-memory value bytes.
        buf: BufHandle,
    },
    /// Pushdown point-query: fetch `key`'s value only if the program
    /// matches it. A miss at the first table level triggers the in-stack
    /// resubmission hook (walk the next level) instead of a client
    /// round trip.
    GetWhere {
        /// Key.
        key: String,
        /// The verified predicate program.
        prog: Arc<VerifiedProgram>,
    },
    /// Pushdown scan: evaluate the program over every value whose key
    /// starts with `prefix`, shipping back matching keys or an
    /// aggregate instead of the values.
    ScanWhere {
        /// Key prefix selecting the scan range.
        prefix: String,
        /// The verified predicate/aggregation program.
        prog: Arc<VerifiedProgram>,
    },
}

/// Block I/O between stack stages (filesystem → cache → scheduler →
/// driver).
#[derive(Debug, Clone)]
pub enum BlockOp {
    /// Write sectors.
    Write {
        /// Start LBA (512-byte sectors).
        lba: u64,
        /// Payload (sector multiple).
        data: Vec<u8>,
    },
    /// Zero-copy sector write: payload passed by shared-memory handle.
    WriteBuf {
        /// Start LBA (512-byte sectors).
        lba: u64,
        /// Payload (sector multiple) in a pooled buffer.
        buf: BufHandle,
    },
    /// Read sectors, the one block read verb: respond with
    /// [`RespPayload::DataBuf`], or with [`RespPayload::DataRuns`] when
    /// the bytes lie in several pool slots — a read longer than the
    /// largest slot lands in slot-sized pieces at the driver. A read that
    /// finds no pool slot is refused with [`POOL_DRY`].
    ReadBuf {
        /// Start LBA.
        lba: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Durability barrier.
    Flush,
    /// Nothing will read these sectors again (a freed file's blocks): a
    /// cache drops them, dirty ones included, and every stage passes the
    /// hint on. No bytes move.
    Discard {
        /// Start LBA.
        lba: u64,
        /// Bytes covered.
        len: usize,
    },
}

/// The operation a request carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// File operation.
    Fs(FsOp),
    /// Key-value operation.
    Kvs(KvsOp),
    /// Block operation.
    Block(BlockOp),
    /// No-op of a given simulated processing size (upgrade/orchestration
    /// experiments message a "dummy module").
    Dummy {
        /// Modeled processing cost in ns.
        work_ns: u64,
    },
    /// Third-party interface: an op name and opaque bytes.
    Custom {
        /// Operation name (dispatched by the receiving LabMod).
        op: String,
        /// Opaque payload.
        data: Vec<u8>,
    },
}

/// Stat data returned through responses (mirrors the kernel's, but owned
/// by the platform vocabulary so mods need not depend on the kernel
/// crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Inode number.
    pub ino: u64,
    /// Size in bytes.
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Permission bits.
    pub mode: u16,
}

/// A request addressed to (the entry vertex of) a LabStack.
#[derive(Debug, Clone)]
pub struct Request {
    /// Unique request id (chosen by the submitting connector).
    pub id: u64,
    /// Target LabStack.
    pub(crate) stack: u64,
    /// Target vertex within the stack DAG (entry vertex = 0).
    pub(crate) vertex: usize,
    /// The operation.
    pub payload: Payload,
    /// Credentials of the originating process.
    pub creds: Credentials,
    /// CPU core the request originated on (NoOp scheduling keys off it).
    pub core: usize,
    /// Hardware-queue hint set by an I/O scheduler LabMod for the driver.
    pub qid_hint: Option<usize>,
}

impl Request {
    /// Build a request for a stack's entry vertex.
    pub fn new(id: u64, stack: u64, payload: Payload, creds: Credentials) -> Self {
        Request {
            id,
            stack,
            vertex: 0,
            payload,
            creds,
            core: 0,
            qid_hint: None,
        }
    }

    /// Same, tagged with the originating CPU core.
    pub fn on_core(id: u64, stack: u64, payload: Payload, creds: Credentials, core: usize) -> Self {
        Request {
            id,
            stack,
            vertex: 0,
            payload,
            creds,
            core,
            qid_hint: None,
        }
    }

    /// A request a vertex originates on behalf of this one — the same id,
    /// stack, credentials, originating core and queue hint around a new
    /// `payload`. Forwarding it addresses it to the next vertex.
    pub fn derive(&self, payload: Payload) -> Request {
        Request {
            id: self.id,
            stack: self.stack,
            vertex: self.vertex,
            payload,
            creds: self.creds,
            core: self.core,
            qid_hint: self.qid_hint,
        }
    }

    /// Approximate payload size in bytes (used for cost estimation).
    pub fn payload_bytes(&self) -> usize {
        match &self.payload {
            Payload::Fs(FsOp::Write { data, .. }) => data.len(),
            Payload::Fs(FsOp::ReadBuf { len, .. } | FsOp::ReadFiltered { len, .. }) => *len,
            Payload::Fs(FsOp::WriteBuf { buf, .. }) => buf.len(),
            Payload::Kvs(KvsOp::Put { value, .. }) => value.len(),
            Payload::Kvs(KvsOp::PutBuf { buf, .. }) => buf.len(),
            Payload::Block(BlockOp::Write { data, .. }) => data.len(),
            Payload::Block(BlockOp::ReadBuf { len, .. }) => *len,
            Payload::Block(BlockOp::WriteBuf { buf, .. }) => buf.len(),
            Payload::Custom { data, .. } => data.len(),
            _ => 0,
        }
    }
}

/// The [`RespPayload::Err`] text of a read refused because the buffer
/// pool had no slot for its bytes: every read answers in pool handles.
pub const POOL_DRY: &str = "buffer pool dry";

/// What a completed request returns.
#[derive(Debug, Clone)]
pub enum RespPayload {
    /// Success with no data.
    Ok,
    /// An inode (create/open).
    Ino(u64),
    /// Zero-copy read result: a refcounted view of shared-memory bytes
    /// (a page-cache hit is a refcount bump, not a copy).
    DataBuf(BufHandle),
    /// Zero-copy read result whose bytes lie in several pool slots (a
    /// cache hit on blocks that different writes brought in): the views
    /// of each run, in byte order — always two or more, none empty.
    /// Passing it on moves refcounts, not bytes; [`RespPayload::data_parts`]
    /// reads it.
    DataRuns(Vec<BufHandle>),
    /// Small result (≤ 64 B) carried by value inside the response
    /// envelope — no BufferPool round trip, zero counted payload
    /// copies. Pushdown aggregates and short KVS values ride here.
    Inline(InlineData),
    /// Bytes written.
    Len(usize),
    /// Stat result.
    Stat(FileStat),
    /// Directory listing.
    Names(Vec<String>),
    /// Failure with a message.
    Err(String),
}

impl RespPayload {
    /// True unless the payload is an error.
    pub fn is_ok(&self) -> bool {
        !matches!(self, RespPayload::Err(_))
    }

    /// The returned bytes when they are one contiguous slice (inline
    /// envelope or one shared-memory handle); `None` for
    /// non-data payloads and for a [`RespPayload::DataRuns`] run list,
    /// whose bytes are not contiguous — read any data answer with
    /// [`RespPayload::data_parts`].
    pub fn data_bytes(&self) -> Option<&[u8]> {
        match self {
            RespPayload::DataBuf(b) => Some(b.as_slice()),
            RespPayload::Inline(d) => Some(d.as_slice()),
            _ => None,
        }
    }

    /// The bytes of a data answer, whatever its shape, as the slices
    /// that hold them in byte order: one for `DataBuf` and `Inline`, one
    /// per run for `DataRuns`. `None` for non-data payloads.
    pub fn data_parts(&self) -> Option<impl Iterator<Item = &[u8]> + Clone + '_> {
        let (one, runs): (Option<&[u8]>, &[BufHandle]) = match self {
            RespPayload::DataRuns(runs) => (None, runs),
            other => (Some(other.data_bytes()?), &[]),
        };
        Some(one.into_iter().chain(runs.iter().map(BufHandle::as_slice)))
    }
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// Id of the originating request.
    pub id: u64,
    /// Result payload.
    pub payload: RespPayload,
}

impl Response {
    /// Success response.
    #[cfg(test)]
    fn ok(id: u64, payload: RespPayload) -> Self {
        Response { id, payload }
    }

    /// Error response.
    pub(crate) fn err(id: u64, msg: impl Into<String>) -> Self {
        Response {
            id,
            payload: RespPayload::Err(msg.into()),
        }
    }
}

/// What flows through queue pairs: requests toward workers, responses
/// back.
#[derive(Debug, Clone)]
pub enum Message {
    /// Client → Runtime.
    Req(Request),
    /// Runtime → client.
    Resp(Response),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_parts_read_every_data_shape_in_byte_order() {
        let pool = labstor_ipc::BufferPool::new(labstor_ipc::PoolConfig {
            classes: vec![(64, 2)],
        });
        let (a, b) = (
            pool.alloc_from(b"head").unwrap(),
            pool.alloc_from(b"tail").unwrap(),
        );
        let parts = |r: &RespPayload| r.data_parts().map(|p| p.collect::<Vec<_>>().concat());
        let runs = RespPayload::DataRuns(vec![a.clone(), b]);
        assert_eq!(parts(&runs).as_deref(), Some(&b"headtail"[..]));
        assert_eq!(runs.data_bytes(), None, "a run list is not one slice");
        let inline = RespPayload::Inline(InlineData::from_slice(b"in").unwrap());
        for (r, want) in [(RespPayload::DataBuf(a), &b"head"[..]), (inline, b"in")] {
            assert_eq!(parts(&r).as_deref(), Some(want));
            assert_eq!(r.data_bytes(), Some(want));
        }
        assert!(RespPayload::Len(3).data_parts().is_none());
    }

    #[test]
    fn payload_bytes_reflect_data() {
        let creds = Credentials::new(1, 0, 0);
        let w = Request::new(
            1,
            0,
            Payload::Fs(FsOp::Write {
                ino: 1,
                offset: 0,
                data: vec![0u8; 4096],
            }),
            creds,
        );
        assert_eq!(w.payload_bytes(), 4096);
        let r = Request::new(
            2,
            0,
            Payload::Fs(FsOp::ReadBuf {
                ino: 1,
                offset: 0,
                len: 512,
            }),
            creds,
        );
        assert_eq!(r.payload_bytes(), 512);
        let d = Request::new(3, 0, Payload::Dummy { work_ns: 10 }, creds);
        assert_eq!(d.payload_bytes(), 0);
    }

    #[test]
    fn response_helpers() {
        assert!(Response::ok(1, RespPayload::Ok).payload.is_ok());
        assert!(!Response::err(1, "nope").payload.is_ok());
    }
}
