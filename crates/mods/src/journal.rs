//! Sealed journal frames shared by the LabFS metadata log and the LabKVS
//! op log.
//!
//! A flush becomes one *frame*, issued as ONE device write:
//!
//! ```text
//! sector k   : [ header | payload ...          ]
//! sector k+1…: [ payload continued | zero fill ]
//! ```
//!
//! The header carries a sequence number that increases by one per frame,
//! the payload length and CRC32, the header CRC of the *previous* frame
//! (`prev_crc`, 0 for the first) and its own CRC32. There is no commit
//! record: the device tears at sector granularity — any subset of a
//! frame's sectors may be missing after a crash — so a frame is committed
//! iff its header CRC, its sequence number, its chain field and its
//! payload CRC all validate. The payload CRC is the commit point. The
//! writer acks a frame only after its write returned, and one
//! [`FrameWriter`] issues the writes of a log in submission order.
//!
//! Recovery ([`replay_scan`]) discovers the log extent from media alone:
//! it walks the region from the start, one frame at a time, and *stops at
//! the first invalid frame*. Whatever follows — a torn frame, stale bytes
//! from a previous era — is discarded, making replay prefix-consistent:
//! the recovered state is exactly the first N committed frames for some N,
//! never a subset with holes. `prev_crc` is what keeps a stale frame from
//! extending a recovered log: after a repair truncates the log at frame k
//! and a new frame k is appended, the old frame k+1 still on media names
//! the *old* frame k as its predecessor and is rejected.
//!
//! [`LogRegion`] is one worker's log over one device region (the frame
//! under construction plus sector cursors); [`Journal`] is a module's set
//! of regions with the writer that writes them. LabFS and LabKVS keep
//! only their record encode, decode and apply.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use labstor_sim::{BlockDevice, Ctx, DeviceError, SimDevice, SECTOR_SIZE};

use crate::flush::FrameWriter;

/// Magic tag opening a frame header.
pub const FRAME_MAGIC: u32 = 0x4C42_4A32; // "LBJ2"

/// Encoded header size: magic, seq, payload_len, payload_crc, prev_crc,
/// header_crc.
pub const HEADER_SIZE: usize = 4 + 8 + 4 + 4 + 4 + 4;
/// The header bytes `header_crc` covers.
const HEADER_CRC_AT: usize = HEADER_SIZE - 4;

/// Pending payload bytes at which [`LogRegion::append`] kicks a frame
/// onto the flush timeline, so a durability point usually finds most of
/// the work already written and bounds the bytes a log buffers.
const FLUSH_KICK_BYTES: usize = 32 * 1024;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled so the journal has no
// dependency the build environment would have to download.
// ---------------------------------------------------------------------

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC-32 (IEEE) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Frame seal / parse
// ---------------------------------------------------------------------

/// Sectors a frame with `payload_len` payload bytes occupies on media.
fn frame_sectors(payload_len: usize) -> u64 {
    (HEADER_SIZE + payload_len).div_ceil(SECTOR_SIZE) as u64
}

/// Write the header over `frame[..HEADER_SIZE]`; returns its CRC.
fn write_header(
    frame: &mut [u8],
    seq: u64,
    payload_len: u32,
    payload_crc: u32,
    prev_crc: u32,
) -> u32 {
    frame[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame[4..12].copy_from_slice(&seq.to_le_bytes());
    frame[12..16].copy_from_slice(&payload_len.to_le_bytes());
    frame[16..20].copy_from_slice(&payload_crc.to_le_bytes());
    frame[20..24].copy_from_slice(&prev_crc.to_le_bytes());
    let header_crc = crc32(&frame[..HEADER_CRC_AT]);
    frame[HEADER_CRC_AT..HEADER_SIZE].copy_from_slice(&header_crc.to_le_bytes());
    header_crc
}

/// Seal `frame` — [`HEADER_SIZE`] reserved bytes followed by the payload
/// — in place: fill the header, zero-pad to whole sectors. Returns the
/// header CRC, which the next frame of the log carries as `prev_crc`.
fn seal_frame(frame: &mut Vec<u8>, seq: u64, prev_crc: u32) -> u32 {
    let payload = &frame[HEADER_SIZE..];
    let payload_len = u32::try_from(payload.len()).expect("a frame fits its log region");
    let payload_crc = crc32(payload);
    let header_crc = write_header(frame, seq, payload_len, payload_crc, prev_crc);
    frame.resize(frame.len().next_multiple_of(SECTOR_SIZE), 0);
    header_crc
}

/// A header whose own CRC validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameHeader {
    seq: u64,
    payload_len: u32,
    payload_crc: u32,
    prev_crc: u32,
    header_crc: u32,
}

/// Outcome of parsing a frame's first sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeaderParse {
    /// A well-formed header.
    Valid(FrameHeader),
    /// All-zero bytes: never-written region (clean end of log).
    Empty,
    /// Nonzero bytes that are not a valid header (torn or stale).
    Corrupt,
}

/// Parse the frame header at the start of `sector`.
fn parse_header(sector: &[u8]) -> HeaderParse {
    if sector.len() < HEADER_SIZE {
        return HeaderParse::Corrupt;
    }
    if sector.iter().all(|&b| b == 0) {
        return HeaderParse::Empty;
    }
    let u32_at = |at: usize| u32::from_le_bytes(sector[at..at + 4].try_into().expect("sized"));
    let header_crc = u32_at(HEADER_CRC_AT);
    if u32_at(0) != FRAME_MAGIC || crc32(&sector[..HEADER_CRC_AT]) != header_crc {
        return HeaderParse::Corrupt;
    }
    HeaderParse::Valid(FrameHeader {
        seq: u64::from_le_bytes(sector[4..12].try_into().expect("sized")),
        payload_len: u32_at(12),
        payload_crc: u32_at(16),
        prev_crc: u32_at(20),
        header_crc,
    })
}

// ---------------------------------------------------------------------
// Prefix-consistent region scan
// ---------------------------------------------------------------------

/// Result of scanning one log region.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Committed transactions in order: `(seq, payload)`.
    pub txns: Vec<(u64, Vec<u8>)>,
    /// First sector after the last committed frame, relative to the
    /// region start — the first invalid sector, and the resume point for
    /// new appends.
    pub next_sector: u64,
    /// Header CRC of the last committed frame (0 when there is none):
    /// the `prev_crc` of the next append.
    pub last_header_crc: u32,
    /// Torn or stale frames discarded at the tail.
    pub txns_discarded: u64,
    /// True when the scan stopped on nonzero garbage rather than a clean
    /// (all-zero) end of log.
    pub torn_tail: bool,
    /// True when the scan stopped *inside* a frame: its header landed and
    /// chains, its payload did not.
    pub mid_frame_tear: bool,
}

/// Walk a log region frame by frame, validating each and stopping at the
/// first invalid one.
///
/// `read` fetches raw bytes: `read(sector, n)` returns the bytes of `n`
/// sectors starting `sector` sectors into the region, or `None` on device
/// error (treated as end of scan). Reads are incremental — proportional
/// to the actual log extent, not the region size — so recovery cost
/// scales with what was written.
pub fn replay_scan<F>(region_sectors: u64, mut read: F) -> ScanOutcome
where
    F: FnMut(u64, u64) -> Option<Vec<u8>>,
{
    let mut out = ScanOutcome::default();
    while out.next_sector < region_sectors {
        let at = out.next_sector;
        let Some(first) = read(at, 1) else {
            break;
        };
        let header = match parse_header(&first) {
            HeaderParse::Empty => break, // clean end of log
            // A sequence number or chain field that does not continue
            // this log marks a frame of an earlier era (leftover bytes
            // past a shorter newer log): not part of this log's prefix.
            HeaderParse::Valid(h)
                if h.seq == out.txns.len() as u64 + 1 && h.prev_crc == out.last_header_crc =>
            {
                h
            }
            HeaderParse::Valid(_) | HeaderParse::Corrupt => {
                out.torn_tail = true;
                out.txns_discarded += 1;
                break;
            }
        };
        let payload_len = header.payload_len as usize;
        let sectors = frame_sectors(payload_len);
        if sectors > region_sectors - at {
            // Payload claims to extend past the region: corrupt length.
            out.torn_tail = true;
            out.txns_discarded += 1;
            break;
        }
        let frame = if sectors == 1 {
            first
        } else {
            match read(at, sectors) {
                Some(frame) => frame,
                None => break,
            }
        };
        let payload = &frame[HEADER_SIZE..HEADER_SIZE + payload_len];
        if crc32(payload) != header.payload_crc {
            // The header sector landed, some payload sector did not: the
            // frame never committed and was never acked.
            out.torn_tail = true;
            out.mid_frame_tear = true;
            out.txns_discarded += 1;
            break;
        }
        out.txns.push((header.seq, payload.to_vec()));
        out.next_sector = at + sectors;
        out.last_header_crc = header.header_crc;
    }
    out
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a journal durability point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The next frame does not fit what is left of its log region. The
    /// log has no checkpoint, so this is permanent until a repair.
    RegionFull {
        /// Sectors the frame needs.
        need_sectors: u64,
        /// Sectors left in the region.
        free_sectors: u64,
    },
    /// A frame write failed on the device.
    Device(DeviceError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::RegionFull {
                need_sectors,
                free_sectors,
            } => write!(
                f,
                "journal log region full: the next frame needs {need_sectors} sectors, \
                 {free_sectors} are free"
            ),
            JournalError::Device(e) => write!(f, "journal write failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<DeviceError> for JournalError {
    fn from(e: DeviceError) -> Self {
        JournalError::Device(e)
    }
}

// ---------------------------------------------------------------------
// One log region
// ---------------------------------------------------------------------

/// One worker's log: the frame under construction plus sector cursors
/// into its reserved device region. Each flush seals the frame and hands
/// it to the [`FrameWriter`] as one device write.
#[derive(Debug, Clone)]
pub struct LogRegion {
    /// [`HEADER_SIZE`] reserved bytes, then the records appended since
    /// the last kick.
    frame: Vec<u8>,
    /// First device sector of the region.
    start_sector: u64,
    /// Region size in sectors.
    sectors: u64,
    /// Next free sector, relative to `start_sector`.
    next_sector: u64,
    /// Sequence number of the next frame (starts at 1).
    next_seq: u64,
    /// Header CRC of the last sealed frame (0 before the first).
    prev_crc: u32,
    /// Region-full met by a kick, from `append` or a durability point:
    /// every durability point returns it until a repair, and no record
    /// is buffered past it.
    full: Option<JournalError>,
}

fn empty_frame() -> Vec<u8> {
    vec![0u8; HEADER_SIZE]
}

impl LogRegion {
    /// An empty log over `sectors` device sectors from `start_sector`.
    pub fn new(start_sector: u64, sectors: u64) -> Self {
        LogRegion {
            frame: empty_frame(),
            start_sector,
            sectors,
            next_sector: 0,
            next_seq: 1,
            prev_crc: 0,
            full: None,
        }
    }

    /// Append one encoded record. Once enough bytes are pending they are
    /// kicked as a frame on the flush timeline, so the append path never
    /// charges its caller device time. A full log drops the record: it
    /// could never reach media.
    pub fn append(&mut self, flush: &FrameWriter, now: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.full.is_some() {
            return;
        }
        encode(&mut self.frame);
        if self.frame.len() - HEADER_SIZE >= FLUSH_KICK_BYTES {
            self.submit_next(flush, now);
        }
    }

    /// Seal the pending records as this log's next frame and hand it to
    /// the [`FrameWriter`], which has written it when this returns.
    /// Returns the region-full error if this or an earlier kick met it.
    pub fn kick(&mut self, flush: &FrameWriter, now: u64) -> Result<(), JournalError> {
        self.submit_next(flush, now);
        match &self.full {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn submit_next(&mut self, flush: &FrameWriter, now: u64) {
        if let Some((sector, frame)) = self.seal_next() {
            flush.submit(frame, sector, now);
        }
    }

    /// Reserve the next frame (sectors, sequence number, chain value) and
    /// seal the pending records into it: `(device sector, frame bytes)`.
    /// Cursors advance here, so appends fill a fresh frame. `None` when
    /// nothing is pending or the region is full, which leaves the cursors
    /// untouched, latches the error and drops the pending records.
    pub(crate) fn seal_next(&mut self) -> Option<(u64, Vec<u8>)> {
        let payload_len = self.frame.len() - HEADER_SIZE;
        if payload_len == 0 || self.full.is_some() {
            return None;
        }
        let need_sectors = frame_sectors(payload_len);
        let free_sectors = self.sectors - self.next_sector;
        if need_sectors > free_sectors {
            self.full = Some(JournalError::RegionFull {
                need_sectors,
                free_sectors,
            });
            self.frame.truncate(HEADER_SIZE);
            return None;
        }
        let mut frame = std::mem::replace(&mut self.frame, empty_frame());
        self.prev_crc = seal_frame(&mut frame, self.next_seq, self.prev_crc);
        let sector = self.start_sector + self.next_sector;
        self.next_sector += need_sectors;
        self.next_seq += 1;
        Some((sector, frame))
    }

    /// Rebuild this log from media: scan the region ([`replay_scan`]),
    /// hand every record of every committed frame to `apply`, and resume
    /// appends right after the last committed frame. `apply(payload,
    /// pos)` decodes and applies the record at `payload[*pos..]` and
    /// advances `pos`; `None` means the bytes there are no record.
    pub fn replay(
        &mut self,
        device: &SimDevice,
        mut apply: impl FnMut(&[u8], &mut usize) -> Option<()>,
    ) -> RepairReport {
        let mut ctx = Ctx::new(); // recovery timeline; not client-visible
        let start_sector = self.start_sector;
        let outcome = replay_scan(self.sectors, |sector, n| {
            let mut buf = vec![0u8; n as usize * SECTOR_SIZE];
            device
                .read(&mut ctx, start_sector + sector, &mut buf)
                .ok()
                .map(|_| buf)
        });
        let mut report = RepairReport {
            txns_replayed: outcome.txns.len() as u64,
            txns_discarded: outcome.txns_discarded,
            torn_tail: outcome.torn_tail,
            mid_frame_tears: u64::from(outcome.mid_frame_tear),
            ..RepairReport::default()
        };
        for (_seq, payload) in &outcome.txns {
            let mut pos = 0usize;
            while pos < payload.len() {
                match apply(payload, &mut pos) {
                    Some(()) => report.records_replayed += 1,
                    None => {
                        // A committed payload should decode cleanly; a
                        // malformed entry is surfaced, not swallowed.
                        report.records_discarded += 1;
                        break;
                    }
                }
            }
        }
        self.resume_after(&outcome);
        report
    }

    /// Resume appends right after the last committed frame `outcome`
    /// found. Whatever was pending or latched predates the crash.
    fn resume_after(&mut self, outcome: &ScanOutcome) {
        *self = LogRegion {
            next_sector: outcome.next_sector,
            next_seq: outcome.txns.len() as u64 + 1,
            prev_crc: outcome.last_header_crc,
            ..LogRegion::new(self.start_sector, self.sectors)
        };
    }
}

// ---------------------------------------------------------------------
// A module's journal: its log regions and the writer that writes them
// ---------------------------------------------------------------------

/// The per-worker log regions of one LabFS or LabKVS instance, laid out
/// back to back from sector 0 of `device`, and the [`FrameWriter`] that
/// writes their frames.
pub struct Journal {
    regions: Vec<Mutex<LogRegion>>,
    /// Direct handle for log persistence and replay.
    device: Arc<SimDevice>,
    /// Writes every kicked frame on the flush timeline (see
    /// [`crate::flush`]).
    flush: FrameWriter,
    /// What the most recent [`Journal::replay`] found.
    last_repair: Mutex<Option<RepairReport>>,
}

impl Journal {
    /// `workers` regions of `sectors_per_worker` sectors each.
    pub fn new(device: Arc<SimDevice>, workers: usize, sectors_per_worker: u64) -> Self {
        Journal {
            regions: (0..workers as u64)
                .map(|w| Mutex::new(LogRegion::new(w * sectors_per_worker, sectors_per_worker)))
                .collect(),
            flush: FrameWriter::new(device.clone()),
            device,
            last_repair: Mutex::new(None),
        }
    }

    /// Append one record to the log of the worker running on `core`.
    pub fn append(&self, core: usize, now: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        self.regions[core % self.regions.len()]
            .lock()
            .append(&self.flush, now, encode);
    }

    /// Durability point: kick every log's pending records as one frame
    /// each — every kicked frame is then on the device — and charge the
    /// waiter's clock up to the instant the last one landed.
    pub fn sync(&self, ctx: &mut Ctx) -> Result<(), JournalError> {
        for region in &self.regions {
            region.lock().kick(&self.flush, ctx.now())?;
        }
        Ok(self.flush.sync(ctx)?)
    }

    /// Crash recovery: rebuild every log from media (see
    /// [`LogRegion::replay`]). The scan trusts media, not in-memory
    /// cursors, so the writer's error latch and durability clock are
    /// cleared first: they describe the timeline before the crash.
    pub fn replay(&self, mut apply: impl FnMut(&[u8], &mut usize) -> Option<()>) -> RepairReport {
        self.flush.reset();
        let mut report = RepairReport::default();
        for region in &self.regions {
            report.merge(&region.lock().replay(&self.device, &mut apply));
        }
        *self.last_repair.lock() = Some(report);
        report
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        *self.last_repair.lock()
    }

    /// Live upgrade: carry the logs over from the instance being
    /// replaced, so the new one appends after the old one's frames
    /// instead of overwriting the log from the start (which would orphan
    /// pre-upgrade metadata on the next crash). The writer's durability
    /// clock and error latch carry over; a kick writes its frame before
    /// it lets go of its region, so the cursors copied under the region
    /// locks are final.
    pub fn absorb(&self, prev: &Journal) {
        self.flush.absorb(&prev.flush);
        for (mine, theirs) in self.regions.iter().zip(prev.regions.iter()) {
            *mine.lock() = theirs.lock().clone();
        }
    }

    /// Seal the pending records of worker `core`'s log without writing
    /// them, so a test can land any subset of the frame's sectors itself.
    #[cfg(test)]
    pub(crate) fn seal_next(&self, core: usize) -> Option<(u64, Vec<u8>)> {
        self.regions[core].lock().seal_next()
    }
}

// ---------------------------------------------------------------------
// Repair report
// ---------------------------------------------------------------------

/// What `state_repair` found and did, aggregated across all log regions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Committed transactions replayed.
    pub txns_replayed: u64,
    /// Log records applied from committed transactions.
    pub records_replayed: u64,
    /// Torn or stale frames discarded.
    pub txns_discarded: u64,
    /// Committed transactions whose payload stopped decoding part-way.
    pub records_discarded: u64,
    /// Regions whose scan stopped inside a frame: the header sector
    /// landed, the payload did not (a tear only a multi-sector frame can
    /// show; a one-sector frame lands whole or not at all).
    pub mid_frame_tears: u64,
    /// True if any log region ended in nonzero garbage (torn tail).
    pub torn_tail: bool,
}

impl RepairReport {
    /// Fold another region's findings into this report.
    pub fn merge(&mut self, other: &RepairReport) {
        self.txns_replayed += other.txns_replayed;
        self.records_replayed += other.records_replayed;
        self.txns_discarded += other.txns_discarded;
        self.records_discarded += other.records_discarded;
        self.mid_frame_tears += other.mid_frame_tears;
        self.torn_tail |= other.torn_tail;
    }

    /// True when the log replayed without discarding anything.
    pub fn is_clean(&self) -> bool {
        self.txns_discarded == 0 && !self.torn_tail
    }
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repair: {} txns ({} records) replayed, {} txns discarded ({} mid-frame), \
             {} malformed{}",
            self.txns_replayed,
            self.records_replayed,
            self.txns_discarded,
            self.mid_frame_tears,
            self.records_discarded,
            if self.torn_tail { ", torn tail" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::DeviceKind;
    use proptest::prelude::*;

    /// Region size the unit tests scan, in sectors.
    const REGION: u64 = 1024;

    /// In-memory "region" the scan closures read from.
    fn reader(region: &[u8]) -> impl FnMut(u64, u64) -> Option<Vec<u8>> + '_ {
        move |sector, n| {
            let start = sector as usize * SECTOR_SIZE;
            let end = start + n as usize * SECTOR_SIZE;
            region.get(start..end).map(|s| s.to_vec())
        }
    }

    fn scan(region: &[u8]) -> ScanOutcome {
        replay_scan((region.len() / SECTOR_SIZE) as u64, reader(region))
    }

    /// Seal `payload` as `log`'s next frame: `(region sector, bytes)`.
    fn seal(log: &mut LogRegion, payload: &[u8]) -> (usize, Vec<u8>) {
        log.frame.extend_from_slice(payload);
        let (sector, frame) = log.seal_next().expect("fits the region");
        (sector as usize, frame)
    }

    fn put(region: &mut [u8], sector: usize, bytes: &[u8]) {
        region[sector * SECTOR_SIZE..][..bytes.len()].copy_from_slice(bytes);
    }

    /// A region holding `payloads` as the consecutive frames of one log.
    fn region_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut region = vec![0u8; REGION as usize * SECTOR_SIZE];
        let mut log = LogRegion::new(0, REGION);
        for payload in payloads {
            let (sector, frame) = seal(&mut log, payload);
            put(&mut region, sector, &frame);
        }
        region
    }

    /// The log a repair that found `out` resumes with.
    fn resumed(out: &ScanOutcome) -> LogRegion {
        let mut log = LogRegion::new(0, REGION);
        log.resume_after(out);
        log
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_scan_recovers_all_txns() {
        let out = scan(&region_with(&[b"alpha", b"beta-beta", b"gamma"]));
        assert_eq!(out.txns.len(), 3);
        assert_eq!(out.txns[0], (1, b"alpha".to_vec()));
        assert_eq!(out.txns[2], (3, b"gamma".to_vec()));
        assert_eq!(out.next_sector, 3, "a small frame is one sector, sealed");
        assert_eq!(out.txns_discarded, 0);
        assert!(!out.torn_tail);
    }

    #[test]
    fn multi_sector_payload_roundtrips() {
        let big = vec![0x5Au8; 3 * SECTOR_SIZE + 100];
        let out = scan(&region_with(&[&big]));
        assert_eq!(out.txns.len(), 1);
        assert_eq!(out.txns[0].1, big);
        assert_eq!(out.next_sector, frame_sectors(big.len()));
        assert_eq!(out.next_sector, 4);
    }

    #[test]
    fn header_landed_payload_torn_discards_the_frame() {
        let second = vec![0x33u8; 2 * SECTOR_SIZE];
        let mut region = region_with(&[b"first", &second]);
        // The second frame is sectors 1..4; its middle sector never landed.
        region[2 * SECTOR_SIZE..3 * SECTOR_SIZE].fill(0);
        let out = scan(&region);
        assert_eq!(out.txns.len(), 1);
        assert_eq!(out.txns_discarded, 1);
        assert!(out.torn_tail && out.mid_frame_tear);
        assert_eq!(out.next_sector, 1, "appends resume after the last frame");
    }

    #[test]
    fn flipped_payload_byte_fails_the_crc() {
        let mut region = region_with(&[b"first", b"second"]);
        region[SECTOR_SIZE + HEADER_SIZE] ^= 0xFF;
        let out = scan(&region);
        assert_eq!(out.txns.len(), 1);
        assert_eq!(out.txns_discarded, 1);
        assert!(out.torn_tail);
    }

    #[test]
    fn corrupt_header_stops_scan() {
        let mut region = region_with(&[b"first", b"second"]);
        region[SECTOR_SIZE + 2] ^= 0x40; // flip a header byte of txn 2
        let out = scan(&region);
        assert_eq!(out.txns.len(), 1);
        assert!(out.torn_tail && !out.mid_frame_tear);
    }

    #[test]
    fn remnants_past_an_overwritten_torn_tail_are_ignored() {
        // Era 1: txn 1 committed, then a four-sector txn 2 of which the
        // last sector never landed. Recovery resumes at sector 1; era 2
        // writes a *shorter* txn 2 there, leaving era-1 payload sectors
        // beyond it. Those fragments must not parse as log.
        let mut region = vec![0u8; REGION as usize * SECTOR_SIZE];
        let mut era1 = LogRegion::new(0, REGION);
        let (s1, f1) = seal(&mut era1, b"one");
        put(&mut region, s1, &f1);
        let (s2, torn) = seal(&mut era1, &[0x77u8; 3 * SECTOR_SIZE]);
        put(&mut region, s2, &torn[..3 * SECTOR_SIZE]);
        let out = scan(&region);
        assert_eq!((out.txns.len(), out.next_sector), (1, 1));
        let (s2, short) = seal(&mut resumed(&out), b"short");
        put(&mut region, s2, &short);
        let out = scan(&region);
        assert_eq!(out.txns.len(), 2);
        assert_eq!(out.txns[1].1, b"short".to_vec());
        assert_eq!(out.next_sector, 2);
        // Sector 2 holds era-1 payload bytes (0x77…): flagged torn, not
        // replayed.
        assert!(out.torn_tail);
    }

    #[test]
    fn stale_era_frame_does_not_extend_a_recovered_log() {
        // Six one-sector frames, all acked; the device silently tore the
        // fifth (none of its sectors landed).
        let payloads: Vec<Vec<u8>> = (1..=6u8).map(|i| vec![i; 40]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let mut region = region_with(&refs);
        region[4 * SECTOR_SIZE..5 * SECTOR_SIZE].fill(0);
        let out = scan(&region);
        assert_eq!((out.txns.len(), out.next_sector), (4, 4));
        // The repaired log appends a different txn 5 of the same length,
        // which lands right in front of the old txn 6.
        let (sector, frame) = seal(&mut resumed(&out), &[0xEE; 40]);
        assert_eq!(sector, 4);
        put(&mut region, sector, &frame);
        let out = scan(&region);
        let seqs: Vec<u64> = out.txns.iter().map(|t| t.0).collect();
        assert_eq!(
            seqs,
            vec![1, 2, 3, 4, 5],
            "old txn 6 follows a txn 5 it never saw"
        );
        assert_eq!(out.txns[4].1, vec![0xEE; 40]);
        assert_eq!(out.next_sector, 5);
        assert!(out.torn_tail, "the stale frame is reported, not replayed");
    }

    #[test]
    fn seq_gap_stops_scan() {
        // A frame whose seq does not continue the log is not part of the
        // prefix, even with a matching chain field.
        let mut region = vec![0u8; REGION as usize * SECTOR_SIZE];
        let mut log = LogRegion::new(0, REGION);
        let (s1, f1) = seal(&mut log, b"one");
        put(&mut region, s1, &f1);
        log.next_seq = 3; // gap: no seq 2
        let (s3, f3) = seal(&mut log, b"three");
        put(&mut region, s3, &f3);
        let out = scan(&region);
        assert_eq!(out.txns.len(), 1);
        assert_eq!(out.txns_discarded, 1);
        assert!(out.torn_tail);
    }

    #[test]
    fn empty_region_is_clean() {
        let out = scan(&vec![0u8; 64 * SECTOR_SIZE]);
        assert!(out.txns.is_empty());
        assert_eq!(out.next_sector, 0);
        assert!(!out.torn_tail);
    }

    #[test]
    fn oversized_payload_len_rejected() {
        // A well-formed header claiming a payload beyond the region.
        let mut region = vec![0u8; 4 * SECTOR_SIZE];
        write_header(&mut region, 1, 100 * SECTOR_SIZE as u32, 0, 0);
        let out = scan(&region);
        assert!(out.txns.is_empty());
        assert!(out.torn_tail);
    }

    #[test]
    fn region_full_in_a_background_kick_reaches_the_next_durability_point() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let flush = FrameWriter::new(dev);
        let mut log = LogRegion::new(0, 8);
        // One record past the kick threshold: the background kick finds
        // no room, which the append path has nobody to tell.
        log.append(&flush, 0, |b| b.resize(b.len() + FLUSH_KICK_BYTES, 7));
        let full = JournalError::RegionFull {
            need_sectors: frame_sectors(FLUSH_KICK_BYTES),
            free_sectors: 8,
        };
        assert_eq!(log.kick(&flush, 0), Err(full.clone()));
        // Permanent until a repair: nothing was consumed or reserved.
        assert_eq!(log.kick(&flush, 0), Err(full));
        assert_eq!((log.next_sector, log.next_seq), (0, 1));
    }

    /// Every observable of one fixed flush script on a fresh NVMe device:
    /// `ctx.now()` and `ctx.busy()` after each durability point, then the
    /// device's write count and bytes written.
    type TimelinePins = [u64; 8];

    /// Captured at `86bd0d1`, where a background thread wrote the frames.
    /// Moving the writes onto the kicking thread must not move the
    /// timeline: a frame starts at `max(durable_vt, submit_vt)`.
    const TIMELINE_PINS: TimelinePins = [118394, 250, 50010569, 300, 50010569, 0, 6, 109568];

    #[test]
    fn flush_timeline_is_the_recorded_one() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let journal = Journal::new(dev.clone(), 2, 256);
        let record = |b: &mut Vec<u8>| b.resize(b.len() + 3000, 0x5A);
        // Region 0 crosses FLUSH_KICK_BYTES twice (at the 11th and 22nd
        // record): two frames kicked by `append`, two records left over.
        for i in 1..=24u64 {
            journal.append(0, 1_000 * i, record);
        }
        // Region 1 kicks once, with a `submit_vt` far behind the durable
        // point region 0's frames reached.
        for i in 1..=12u64 {
            journal.append(1, 10 + i, record);
        }
        // A durability point from a clock behind the durable point: both
        // pending tails go out, and the clock idles forward.
        let mut behind = Ctx::at(500);
        behind.advance(250);
        journal.sync(&mut behind).unwrap();
        // One from a clock ahead of it: the frame starts at the kick.
        journal.append(1, 40_000, |b| b.extend_from_slice(&[9; 100]));
        let mut ahead = Ctx::at(50_000_000);
        ahead.advance(300);
        journal.sync(&mut ahead).unwrap();
        // Nothing pending: a clock behind idles to the same durable point.
        let mut idle = Ctx::at(1_000);
        journal.sync(&mut idle).unwrap();
        let stats = dev.stats().snapshot();
        let got = [
            behind.now(),
            behind.busy(),
            ahead.now(),
            ahead.busy(),
            idle.now(),
            idle.busy(),
            stats.writes,
            stats.bytes_written,
        ];
        assert_eq!(got, TIMELINE_PINS);
    }

    #[test]
    fn a_frame_kicked_by_append_is_on_the_device_when_append_returns() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let journal = Journal::new(dev.clone(), 1, 128);
        journal.append(0, 0, |b| b.resize(b.len() + FLUSH_KICK_BYTES, 7));
        // No durability point: the kick itself wrote the frame.
        let stats = dev.stats().snapshot();
        let sectors = frame_sectors(FLUSH_KICK_BYTES);
        assert_eq!(
            (stats.writes, stats.bytes_written),
            (1, sectors * SECTOR_SIZE as u64)
        );
        let out = replay_scan(128, |sector, n| {
            let mut buf = vec![0u8; n as usize * SECTOR_SIZE];
            dev.read(&mut Ctx::new(), sector, &mut buf)
                .ok()
                .map(|_| buf)
        });
        assert_eq!(out.txns.len(), 1);
        assert_eq!(out.next_sector, sectors);
    }

    #[test]
    fn a_full_log_drops_later_records_instead_of_buffering_them() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let journal = Journal::new(dev.clone(), 1, 1);
        // 1 MiB into a one-sector region: the first kick latches the error.
        for _ in 0..1024 {
            journal.append(0, 0, |b| b.resize(b.len() + 1024, 7));
        }
        assert_eq!(journal.regions[0].lock().frame.len(), HEADER_SIZE);
        let full = JournalError::RegionFull {
            need_sectors: frame_sectors(FLUSH_KICK_BYTES),
            free_sectors: 1,
        };
        assert_eq!(
            journal.regions[0].lock().kick(&journal.flush, 0),
            Err(full.clone())
        );
        assert_eq!(journal.sync(&mut Ctx::new()), Err(full.clone()));
        assert_eq!(journal.sync(&mut Ctx::new()), Err(full));
        assert_eq!(journal.regions[0].lock().frame.len(), HEADER_SIZE);
        assert_eq!(dev.stats().snapshot().writes, 0);
    }

    #[test]
    fn repair_report_merge_and_display() {
        let mut a = RepairReport {
            txns_replayed: 2,
            records_replayed: 10,
            ..Default::default()
        };
        let b = RepairReport {
            txns_replayed: 1,
            records_replayed: 3,
            txns_discarded: 1,
            records_discarded: 2,
            mid_frame_tears: 1,
            torn_tail: true,
        };
        a.merge(&b);
        assert_eq!(a.txns_replayed, 3);
        assert_eq!(a.records_replayed, 13);
        assert_eq!(a.mid_frame_tears, 1);
        assert!(a.torn_tail);
        assert!(!a.is_clean());
        assert!(a.to_string().contains("torn tail"));
        assert!(RepairReport::default().is_clean());
    }

    /// xorshift64: the proptest's source of payload and garbage bytes.
    fn fill(seed: u64, buf: &mut [u8], nonzero: bool) {
        let mut x = seed | 1;
        for b in buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = if nonzero {
                (x % 255) as u8 + 1
            } else {
                x as u8
            };
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 1–6 frames of 1 B … 40 KiB; of the last one only the sectors
        /// in `landed` reach media (any subset, not only a prefix), over
        /// zeroes or over stale garbage that also follows the tail. The
        /// scan returns exactly the intact prefix and resumes at the
        /// first invalid sector.
        #[test]
        fn scan_returns_exactly_the_intact_prefix(
            lens in proptest::collection::vec(1usize..=40 * 1024, 1..7),
            seed in any::<u64>(),
            landed in (any::<u64>(), any::<u64>()),
            stale in any::<bool>(),
        ) {
            let mut region = vec![0u8; REGION as usize * SECTOR_SIZE];
            let mut log = LogRegion::new(0, REGION);
            let mut payloads = Vec::new();
            let mut frames = Vec::new();
            for (i, len) in lens.iter().enumerate() {
                // Nonzero payload bytes: a payload sector that did not
                // land always differs from one that did.
                let mut payload = vec![0u8; *len];
                fill(seed ^ (i as u64 + 1), &mut payload, true);
                frames.push(seal(&mut log, &payload));
                payloads.push(payload);
            }
            let (last_sector, last) = frames.pop().expect("at least one frame");
            if stale {
                fill(seed, &mut region[last_sector * SECTOR_SIZE..], false);
            }
            for (sector, frame) in &frames {
                put(&mut region, *sector, frame);
            }
            let landed = (landed.0 as u128) << 64 | landed.1 as u128;
            let sectors = last.len() / SECTOR_SIZE;
            for s in (0..sectors).filter(|s| landed >> s & 1 == 1) {
                put(&mut region, last_sector + s, &last[s * SECTOR_SIZE..][..SECTOR_SIZE]);
            }
            let whole = (0..sectors).all(|s| landed >> s & 1 == 1);
            let intact = if whole { payloads.len() } else { payloads.len() - 1 };

            let out = scan(&region);
            let got: Vec<&[u8]> = out.txns.iter().map(|t| t.1.as_slice()).collect();
            let want: Vec<&[u8]> = payloads[..intact].iter().map(|p| p.as_slice()).collect();
            prop_assert_eq!(got, want);
            let resume = if whole { last_sector + sectors } else { last_sector };
            prop_assert_eq!(out.next_sector, resume as u64);
            prop_assert_eq!(out.mid_frame_tear, !whole && landed & 1 == 1);
        }
    }
}
