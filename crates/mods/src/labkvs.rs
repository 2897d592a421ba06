//! LabKVS: the key-value store LabMod (paper §III-E).
//!
//! "LabKVS is similarly designed to LabFS; however, LabKVS implements a
//! put/get/remove API, which creates keys and stores data using a single
//! syscall, as opposed to the three (open-modify-close) required by
//! POSIX." It shares LabFS's architecture: sharded key map, per-worker
//! block allocation, per-worker operation log, replay-based recovery.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    BlockOp, KvsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::{BlockDevice, Ctx, SimDevice};
use labstor_telemetry::PerfCounters;

use crate::devices::{device_param, DeviceRegistry};
use crate::journal::{Journal, JournalError, RepairReport};
use crate::labfs::BlockAllocator;

const KV_BLOCK: usize = 4096;
const BLOCK_SECTORS: u64 = (KV_BLOCK / labstor_sim::SECTOR_SIZE) as u64;
const LOG_BLOCKS_PER_WORKER: u64 = 1024;

/// CPU cost of one key-map operation.
const KV_CPU_NS: u64 = 250;

/// A stored value's location: its length and the device blocks holding it.
#[derive(Debug, Clone)]
struct ValueLoc {
    len: usize,
    blocks: Vec<u64>,
}

/// KVS log record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KvRecord {
    Put {
        key: String,
        len: u64,
        blocks: Vec<u64>,
    },
    Remove {
        key: String,
    },
}

impl KvRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KvRecord::Put { key, len, blocks } => {
                out.push(1);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                for b in blocks {
                    out.extend_from_slice(&b.to_le_bytes());
                }
            }
            KvRecord::Remove { key } => {
                out.push(2);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<KvRecord> {
        fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Option<&'b [u8]> {
            let s = &buf.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        }
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let klen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a key string — metadata, not payload bytes
                let key = String::from_utf8(take(buf, pos, klen)?.to_vec()).ok()?;
                let len = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let n = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?));
                }
                Some(KvRecord::Put { key, len, blocks })
            }
            2 => {
                let klen = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
                // copy-ok: log-record decode of a key string — metadata, not payload bytes
                let key = String::from_utf8(take(buf, pos, klen)?.to_vec()).ok()?;
                Some(KvRecord::Remove { key })
            }
            _ => None,
        }
    }
}

/// The LabKVS LabMod.
pub struct LabKvs {
    shards: Vec<RwLock<HashMap<String, ValueLoc>>>,
    allocator: BlockAllocator,
    /// The per-worker op logs (see [`crate::journal`]).
    journal: Journal,
    perf: PerfCounters,
    /// Table levels the `GetWhere` resubmission hook walks on a miss
    /// (LSM-style: level 0 is the primary namespace, deeper levels are
    /// probed in-stack instead of bouncing back to the client).
    resub_levels: u32,
}

/// The key a value lives under at table `level` (level 0 is the key
/// itself). Deeper levels use a reserved prefix so they never collide
/// with user keys; `GetWhere` walks them in-stack on a miss.
pub fn level_key(level: u32, key: &str) -> String {
    if level == 0 {
        key.to_string()
    } else {
        format!("~L{level}~{key}")
    }
}

impl LabKvs {
    /// Build LabKVS over `device` with `workers` allocator/log shards
    /// and the default two resubmission levels.
    pub fn new(device: Arc<SimDevice>, workers: usize) -> Self {
        Self::with_levels(device, workers, 2)
    }

    /// Build LabKVS with an explicit number of `GetWhere` table levels.
    pub fn with_levels(device: Arc<SimDevice>, workers: usize, levels: u32) -> Self {
        let workers = workers.max(1);
        let total_blocks = device.model().capacity_sectors() / BLOCK_SECTORS;
        let log_blocks = LOG_BLOCKS_PER_WORKER * workers as u64;
        let n_shards = workers.next_power_of_two().max(16);
        LabKvs {
            shards: (0..n_shards).map(|_| RwLock::new(HashMap::new())).collect(),
            allocator: BlockAllocator::new(log_blocks, total_blocks, workers, 4096),
            journal: Journal::new(device, workers, LOG_BLOCKS_PER_WORKER * BLOCK_SECTORS),
            perf: PerfCounters::new(),
            resub_levels: levels.max(1),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, ValueLoc>> {
        let mut h = 0xcbf29ce484222325u64;
        for b in key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Append a record to the originating worker's log.
    fn log(&self, ctx: &mut Ctx, core: usize, rec: &KvRecord) {
        ctx.advance(80);
        self.journal.append(core, ctx.now(), |buf| rec.encode(buf));
    }

    /// LabKVS's durability point: persist every log's pending records as
    /// one journal frame each, then wait until they are on the device.
    pub fn flush_logs(&self, ctx: &mut Ctx) -> Result<(), JournalError> {
        self.journal.sync(ctx)
    }

    /// Apply one replayed record to the key map.
    fn apply(&self, rec: KvRecord) {
        match rec {
            KvRecord::Put { key, len, blocks } => {
                self.shard(&key).write().insert(
                    key,
                    ValueLoc {
                        len: len as usize,
                        blocks,
                    },
                );
            }
            KvRecord::Remove { key } => {
                self.shard(&key).write().remove(&key);
            }
        }
    }

    /// Rebuild the key map by scanning the on-device journal regions,
    /// replaying the longest prefix of committed frames and discarding
    /// any torn or stale tail (see [`Journal::replay`]).
    pub fn replay_from_device(&self) -> RepairReport {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.journal
            .replay(|buf, pos| KvRecord::decode(buf, pos).map(|rec| self.apply(rec)))
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        self.journal.last_repair()
    }

    /// Number of live keys.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Allocate blocks for a `len`-byte value on `core`.
    fn alloc_blocks(&self, ctx: &mut Ctx, core: usize, len: usize) -> Option<Vec<u64>> {
        let n_blocks = len.div_ceil(KV_BLOCK);
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            ctx.advance(40);
            blocks.push(self.allocator.alloc(core)?);
        }
        Some(blocks)
    }

    /// Record a completed put in the log and key map.
    fn commit_put(&self, ctx: &mut Ctx, core: usize, key: &str, len: usize, blocks: Vec<u64>) {
        self.log(
            ctx,
            core,
            &KvRecord::Put {
                key: key.to_string(),
                len: len as u64,
                blocks: blocks.clone(),
            },
        );
        self.shard(key)
            .write()
            .insert(key.to_string(), ValueLoc { len, blocks });
    }

    /// Zero-copy put: full blocks of the caller's pool buffer travel
    /// downstream as refcounted [`labstor_ipc::BufHandle`] slices; only
    /// the zero-padded tail block is materialized as a `Vec`.
    fn do_put_buf(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        key: &str,
        buf: &labstor_ipc::BufHandle,
    ) -> RespPayload {
        ctx.advance(KV_CPU_NS);
        let Some(blocks) = self.alloc_blocks(ctx, req.core, buf.len()) else {
            return RespPayload::Err("no space".into());
        };
        let full_bytes = (buf.len() / KV_BLOCK) * KV_BLOCK;
        let mut ops = Vec::new();
        let mut i = 0usize;
        while i < blocks.len() {
            let mut j = i;
            while j + 1 < blocks.len() && blocks[j + 1] == blocks[j] + 1 {
                j += 1;
            }
            let byte_from = i * KV_BLOCK;
            let byte_to = ((j + 1) * KV_BLOCK).min(buf.len().next_multiple_of(KV_BLOCK));
            let zc_to = byte_to.min(full_bytes);
            let mut copy_from = byte_from;
            if byte_from < zc_to {
                if let Some(s) = buf.slice(byte_from, zc_to - byte_from) {
                    ops.push(BlockOp::WriteBuf {
                        lba: blocks[i] * BLOCK_SECTORS,
                        buf: s,
                    });
                    copy_from = zc_to;
                }
            }
            if copy_from < byte_to {
                let mut payload = vec![0u8; byte_to - copy_from];
                let n = buf.len().saturating_sub(copy_from).min(payload.len());
                labstor_ipc::note_payload_copy(n);
                // copy-ok: the zero-padded tail block cannot alias the pool buffer; counted via note_payload_copy
                payload[..n].copy_from_slice(&buf.as_slice()[copy_from..copy_from + n]);
                let block = blocks[i] + ((copy_from - byte_from) / KV_BLOCK) as u64;
                ops.push(BlockOp::Write {
                    lba: block * BLOCK_SECTORS,
                    data: payload,
                });
            }
            i = j + 1;
        }
        for op in ops {
            let mut fwd = Request::new(req.id, req.stack, Payload::Block(op), req.creds);
            fwd.vertex = env.vertex;
            fwd.core = req.core;
            let r = env.forward(ctx, fwd);
            if !r.is_ok() {
                return r;
            }
        }
        self.commit_put(ctx, req.core, key, buf.len(), blocks);
        RespPayload::Len(buf.len())
    }

    /// Fetch a stored value. Single-block values ride the zero-copy path
    /// end to end: the driver lands the DMA in a pool buffer and we hand
    /// back a refcounted slice of it as [`RespPayload::DataBuf`].
    fn read_value(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        loc: &ValueLoc,
    ) -> RespPayload {
        if loc.blocks.len() == 1 && loc.len > 0 {
            let mut fwd = Request::new(
                req.id,
                req.stack,
                Payload::Block(BlockOp::ReadBuf {
                    lba: loc.blocks[0] * BLOCK_SECTORS,
                    len: KV_BLOCK,
                }),
                req.creds,
            );
            fwd.vertex = env.vertex;
            fwd.core = req.core;
            return match env.forward(ctx, fwd) {
                RespPayload::DataBuf(h) => {
                    let want = loc.len.min(h.len());
                    // Small values skip the BufferPool round trip and
                    // ride by value in the envelope — the client-side
                    // copy-out this saves is a counted one.
                    if let Some(d) =
                        labstor_ipc::InlineData::from_slice(h.as_slice().get(..want).unwrap_or(&[]))
                    {
                        return RespPayload::Inline(d);
                    }
                    match h.slice(0, want) {
                        Some(s) => RespPayload::DataBuf(s),
                        None => RespPayload::Data(h.to_vec()), // copy-ok: unreachable slice failure; to_vec self-counts
                    }
                }
                // copy-ok: legacy Vec from a pool-dry driver; truncation copy counted below
                RespPayload::Data(d) => {
                    let want = loc.len.min(d.len());
                    labstor_ipc::note_payload_copy(want);
                    RespPayload::Data(d[..want].to_vec()) // copy-ok: counted just above
                }
                other => other,
            };
        }
        let mut out = Vec::with_capacity(loc.len);
        for (idx, b) in loc.blocks.iter().enumerate() {
            let want = (loc.len - idx * KV_BLOCK).min(KV_BLOCK);
            let mut fwd = Request::new(
                req.id,
                req.stack,
                Payload::Block(BlockOp::Read {
                    lba: b * BLOCK_SECTORS,
                    len: KV_BLOCK,
                }),
                req.creds,
            );
            fwd.vertex = env.vertex;
            fwd.core = req.core;
            match env.forward(ctx, fwd) {
                RespPayload::Data(d) => {
                    labstor_ipc::note_payload_copy(want);
                    // copy-ok: multi-block reassembly into one contiguous value; counted just above
                    out.extend_from_slice(&d[..want]);
                }
                RespPayload::DataBuf(h) => {
                    labstor_ipc::note_payload_copy(want);
                    // copy-ok: multi-block reassembly into one contiguous value; counted just above
                    out.extend_from_slice(&h.as_slice()[..want]);
                }
                other => return other,
            }
        }
        RespPayload::Data(out)
    }

    /// Pushdown point-query with the in-stack resubmission hook: probe
    /// the key at level 0 and, on a miss, walk the deeper table levels
    /// right here instead of bouncing a "not found" back to the client
    /// for each level. A found value is evaluated in place; only a
    /// matching value ships. Returns [`RespPayload::Ok`] when the key
    /// exists but the predicate rejects it.
    fn do_get_where(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        key: &str,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        for level in 0..self.resub_levels {
            ctx.advance(KV_CPU_NS); // one key-map probe per level walked
            let lkey = level_key(level, key);
            let loc = self.shard(&lkey).read().get(&lkey).cloned();
            let Some(loc) = loc else {
                continue; // resubmission hook: try the next level in-stack
            };
            let resp = self.read_value(ctx, env, req, &loc);
            let mut fuel = prog.fuel_budget();
            let mut out = labstor_pushdown::ScanOut::default();
            let scanned = match resp.data_bytes() {
                Some(bytes) => labstor_pushdown::scan(prog, bytes, 0, &mut fuel, &mut out),
                None => return resp, // downstream error; propagate as-is
            };
            let used = prog.fuel_budget() - fuel;
            if let Err(retry_vns) = env.charge_fuel(ctx, &req.creds, used) {
                return RespPayload::Err(format!(
                    "pushdown: tenant {} over fuel budget, retry in {retry_vns} vns",
                    req.creds.tenant.as_u32()
                ));
            }
            if scanned.is_err() {
                return RespPayload::Err("pushdown: out of fuel".into());
            }
            return if out.matches > 0 {
                resp
            } else {
                // Key present, predicate rejected it: nothing ships.
                RespPayload::Ok
            };
        }
        RespPayload::Err(format!("no key '{key}'"))
    }

    /// Pushdown range scan: evaluate the program over every value whose
    /// key starts with `prefix`, shipping back only matching keys
    /// ([`labstor_pushdown::Action::Select`]) or a 32-byte aggregate.
    fn do_scan_where(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        prefix: &str,
        prog: &labstor_pushdown::VerifiedProgram,
    ) -> RespPayload {
        use labstor_pushdown::Action;
        // Deterministic scan order across the sharded map.
        let mut entries: Vec<(String, ValueLoc)> = Vec::new();
        for shard in &self.shards {
            let m = shard.read();
            for (k, loc) in m.iter() {
                if k.starts_with(prefix) {
                    entries.push((k.clone(), loc.clone()));
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fuel = prog.fuel_budget();
        let mut out = labstor_pushdown::ScanOut::default();
        let mut matched_keys: Vec<String> = Vec::new();
        for (k, loc) in &entries {
            ctx.advance(KV_CPU_NS); // per-entry key-map touch
            let resp = self.read_value(ctx, env, req, loc);
            let Some(bytes) = resp.data_bytes() else {
                return resp; // downstream error; propagate as-is
            };
            let before_matches = out.matches;
            let scanned = labstor_pushdown::scan(prog, bytes, 0, &mut fuel, &mut out);
            if scanned.is_err() {
                let used = prog.fuel_budget() - fuel;
                let _ = env.charge_fuel(ctx, &req.creds, used);
                return RespPayload::Err(format!(
                    "pushdown: out of fuel after {} values",
                    out.records
                ));
            }
            if out.matches > before_matches {
                matched_keys.push(k.clone());
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
            Action::Select => RespPayload::Names(matched_keys),
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
        }
    }
}

impl LabMod for LabKvs {
    fn type_name(&self) -> &'static str {
        "labkvs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Kvs
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        let before = ctx.busy();
        let resp = match &req.payload {
            Payload::Kvs(KvsOp::Put { key, value }) => {
                ctx.advance(KV_CPU_NS);
                let Some(blocks) = self.alloc_blocks(ctx, req.core, value.len()) else {
                    return RespPayload::Err("no space".into());
                };
                // One downstream write per contiguous block run.
                let mut i = 0usize;
                while i < blocks.len() {
                    let mut j = i;
                    while j + 1 < blocks.len() && blocks[j + 1] == blocks[j] + 1 {
                        j += 1;
                    }
                    let byte_from = i * KV_BLOCK;
                    let byte_to = ((j + 1) * KV_BLOCK).min(value.len().next_multiple_of(KV_BLOCK));
                    let mut payload = vec![0u8; byte_to - byte_from];
                    let copy_to = value.len().min(byte_to) - byte_from.min(value.len());
                    if byte_from < value.len() {
                        labstor_ipc::note_payload_copy(copy_to);
                        // copy-ok: legacy Vec put path; counted just above (PutBuf avoids this)
                        payload[..copy_to].copy_from_slice(&value[byte_from..byte_from + copy_to]);
                    }
                    let mut fwd = Request::new(
                        req.id,
                        req.stack,
                        Payload::Block(BlockOp::Write {
                            lba: blocks[i] * BLOCK_SECTORS,
                            data: payload,
                        }),
                        req.creds,
                    );
                    fwd.vertex = env.vertex;
                    fwd.core = req.core;
                    let r = env.forward(ctx, fwd);
                    if !r.is_ok() {
                        return r;
                    }
                    i = j + 1;
                }
                self.commit_put(ctx, req.core, key, value.len(), blocks);
                RespPayload::Len(value.len())
            }
            Payload::Kvs(KvsOp::PutBuf { key, buf }) => self.do_put_buf(ctx, env, &req, key, buf),
            Payload::Kvs(KvsOp::Get { key }) => {
                ctx.advance(KV_CPU_NS);
                let loc = self.shard(key).read().get(key).cloned();
                match loc {
                    Some(loc) => self.read_value(ctx, env, &req, &loc),
                    None => RespPayload::Err(format!("no key '{key}'")),
                }
            }
            Payload::Kvs(KvsOp::GetWhere { key, prog }) => {
                self.do_get_where(ctx, env, &req, key, prog)
            }
            Payload::Kvs(KvsOp::ScanWhere { prefix, prog }) => {
                self.do_scan_where(ctx, env, &req, prefix, prog)
            }
            Payload::Kvs(KvsOp::Remove { key }) => {
                ctx.advance(KV_CPU_NS);
                let removed = self.shard(key).write().remove(key);
                match removed {
                    Some(_) => {
                        self.log(ctx, req.core, &KvRecord::Remove { key: key.clone() });
                        RespPayload::Ok
                    }
                    None => RespPayload::Err(format!("no key '{key}'")),
                }
            }
            _ => env.forward(ctx, req),
        };
        self.perf.observe(ctx.busy() - before);
        resp
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        self.perf.est_ns(KV_CPU_NS + req.payload_bytes() as u64)
    }

    fn est_total_time(&self) -> u64 {
        self.perf.total_ns()
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<LabKvs>() {
            self.perf.absorb(&prev.perf);
            for (mine, theirs) in self.shards.iter().zip(prev.shards.iter()) {
                *mine.write() = theirs.read().clone();
            }
            self.journal.absorb(&prev.journal);
        }
    }

    fn state_repair(&self) {
        self.replay_from_device();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"device": "<name>", "workers": <n>,
/// "levels": <n>}` (levels: `GetWhere` resubmission depth, default 2).
pub fn install(mm: &ModuleManager, devices: &Arc<DeviceRegistry>) {
    let reg = devices.clone();
    mm.register_factory(
        "labkvs",
        Arc::new(move |params| {
            let name = device_param(params);
            let dev = reg
                .block(&name)
                .unwrap_or_else(|| panic!("no block device '{name}'"));
            let workers = params.get("workers").and_then(|v| v.as_u64()).unwrap_or(8) as usize;
            let levels = params.get("levels").and_then(|v| v.as_u64()).unwrap_or(2) as u32;
            Arc::new(LabKvs::with_levels(dev, workers, levels)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;

    fn setup() -> (ModuleManager, LabStack) {
        let (mm, stack, _dev) = setup_with_device();
        (mm, stack)
    }

    fn setup_with_device() -> (ModuleManager, LabStack, Arc<SimDevice>) {
        let devices = DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        install(&mm, &devices);
        crate::drivers::install(&mm, &devices);
        mm.instantiate(
            "kv",
            "labkvs",
            &serde_json::json!({"device": "nvme0", "workers": 4}),
        )
        .unwrap();
        mm.instantiate("drv", "spdk", &serde_json::json!({"device": "nvme0"}))
            .unwrap();
        let stack = LabStack {
            id: 1,
            mount: "kv::/".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "kv".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "drv".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        (mm, stack, dev)
    }

    fn exec(mm: &ModuleManager, stack: &LabStack, payload: Payload, ctx: &mut Ctx) -> RespPayload {
        let env = StackEnv {
            stack,
            vertex: 0,
            registry: mm,
            domain: 0,
        };
        mm.get("kv")
            .unwrap()
            .process(ctx, Request::new(1, 1, payload, Credentials::ROOT), &env)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value: Vec<u8> = (0..10_000).map(|i| (i % 249) as u8).collect();
        let w = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "a".into(),
                value: value.clone(),
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(n) if n == value.len()));
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "a".into() }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == value));
    }

    #[test]
    fn overwrite_replaces_value() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "k".into(),
                value: vec![1u8; 100],
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "k".into(),
                value: vec![2u8; 50],
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "k".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&[2u8; 50][..]));
    }

    #[test]
    fn put_buf_roundtrips_with_zero_copy_full_blocks() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        // Not a block multiple: two full blocks ride as refcounted
        // slices, the 777-byte tail is zero-padded and copied.
        let n = KV_BLOCK * 2 + 777;
        let mut h = labstor_ipc::default_pool()
            .alloc(n)
            .expect("pool has a big-enough class");
        h.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = (i % 251) as u8;
            }
        });
        let expect = h.to_vec();
        let w = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::PutBuf {
                key: "zc".into(),
                buf: h,
            }),
            &mut ctx,
        );
        assert!(matches!(w, RespPayload::Len(m) if m == n));
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "zc".into() }),
            &mut ctx,
        );
        assert_eq!(r.data_bytes(), Some(&expect[..]));
    }

    #[test]
    fn single_block_get_answers_with_pool_buffer() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value = vec![0x5au8; 500];
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "s".into(),
                value: value.clone(),
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "s".into() }),
            &mut ctx,
        );
        match r {
            RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), &value[..]),
            other => panic!("expected a zero-copy DataBuf, got {other:?}"),
        }
    }

    #[test]
    fn remove_then_get_fails() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "x".into(),
                value: vec![1],
            }),
            &mut ctx,
        );
        assert!(exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
        assert!(!exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
        assert!(!exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "x".into() }),
            &mut ctx
        )
        .is_ok());
    }

    #[test]
    fn empty_value_roundtrips() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "empty".into(),
                value: vec![],
            }),
            &mut ctx,
        );
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get {
                key: "empty".into(),
            }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d.is_empty()));
    }

    #[test]
    fn recovery_replays_puts_and_removes() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        let value: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "keep".into(),
                value: value.clone(),
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "drop".into(),
                value: vec![9u8; 10],
            }),
            &mut ctx,
        );
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Remove { key: "drop".into() }),
            &mut ctx,
        );
        let kv_mod = mm.get("kv").unwrap();
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        kv.flush_logs(&mut ctx).unwrap();
        kv.replay_from_device();
        assert_eq!(kv.key_count(), 1);
        let r = exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Get { key: "keep".into() }),
            &mut ctx,
        );
        assert!(matches!(r, RespPayload::Data(d) if d == value));
    }

    #[test]
    fn header_landed_payload_torn_kv_txn_is_discarded_and_reported() {
        let (mm, stack, dev) = setup_with_device();
        let mut ctx = Ctx::new();
        exec(
            &mm,
            &stack,
            Payload::Kvs(KvsOp::Put {
                key: "durable".into(),
                value: vec![1u8; 64],
            }),
            &mut ctx,
        );
        let kv_mod = mm.get("kv").unwrap();
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        kv.flush_logs(&mut ctx).unwrap();
        // A crash inside the one write of a second, three-sector frame:
        // its first two sectors landed, its last did not.
        let ghost = KvRecord::Put {
            key: "ghost".into(),
            len: 8,
            blocks: (0..140).collect(),
        };
        kv.log(&mut ctx, 0, &ghost);
        let (sector, frame) = kv.journal.seal_next(0).unwrap();
        assert_eq!(frame.len(), 3 * labstor_sim::SECTOR_SIZE);
        dev.write(&mut ctx, sector, &frame[..2 * labstor_sim::SECTOR_SIZE])
            .unwrap();
        let rep = kv.replay_from_device();
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(rep.txns_discarded, 1);
        assert_eq!(rep.mid_frame_tears, 1);
        assert!(rep.torn_tail);
        assert_eq!(kv.key_count(), 1, "ghost was never acked");
        assert_eq!(kv.last_repair(), Some(rep));
    }

    #[test]
    fn kv_record_roundtrip() {
        let records = vec![
            KvRecord::Put {
                key: "alpha".into(),
                len: 777,
                blocks: vec![5, 6, 7],
            },
            KvRecord::Remove {
                key: "alpha".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        buf.push(0);
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = KvRecord::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}
