//! LabKVS: the key-value store LabMod (paper §III-E).
//!
//! "LabKVS is similarly designed to LabFS; however, LabKVS implements a
//! put/get/remove API, which creates keys and stores data using a single
//! syscall, as opposed to the three (open-modify-close) required by
//! POSIX." It shares LabFS's architecture — sharded key map, per-worker
//! allocation, per-worker operation log, replay-based recovery — by
//! sharing its engine: the key map here is the `StateMachine` a
//! `crate::metastore::MetaStore` logs, replays and allocates for. A
//! value is one device-contiguous run of sectors (DESIGN.md §12, "LabKVS
//! on-device layout"): a put is one write, a get one read, of exactly
//! the covering sectors.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    BlockOp, KvsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::{Ctx, SimDevice};

use crate::devices::DeviceRegistry;
use crate::journal::{JournalError, RepairReport};
use crate::metastore::{self, put_str, shard_of, take, take_str, MetaStore, StateMachine};

const SECTOR: usize = labstor_sim::SECTOR_SIZE;
/// Sectors reserved per worker log region (4 MiB).
const LOG_SECTORS_PER_WORKER: u64 = 8192;
/// Sectors a dry allocator shard takes from the richest one (16 MiB).
const STEAL_SECTORS: u64 = 32 * 1024;

/// CPU cost of one key-map operation.
const KV_CPU_NS: u64 = 250;

/// A stored value's location: one device-contiguous extent of
/// `len.div_ceil(SECTOR)` sectors starting at `lba` (DESIGN.md §12,
/// "LabKVS on-device layout"). A zero-length value owns no sectors.
#[derive(Debug, Clone, Copy)]
struct ValueLoc {
    len: usize,
    lba: u64,
}

/// Sectors covering a `len`-byte value.
fn sectors_for(len: usize) -> u64 {
    len.div_ceil(SECTOR) as u64
}

/// KVS log record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KvRecord {
    Put { key: String, len: u64, lba: u64 },
    Remove { key: String },
}

/// The sharded key map: LabKVS's state, changed only by
/// [`StateMachine::apply`] (DESIGN.md §12, "Metadata state machine").
struct KeyMap {
    shards: Vec<RwLock<HashMap<String, ValueLoc>>>,
}

impl KeyMap {
    fn new(shards: usize) -> Self {
        KeyMap {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, ValueLoc>> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    fn get(&self, key: &str) -> Option<ValueLoc> {
        self.shard(key).read().get(key).copied()
    }
}

impl StateMachine for KeyMap {
    type Record = KvRecord;

    fn encode(rec: &KvRecord, out: &mut Vec<u8>) {
        match rec {
            KvRecord::Put { key, len, lba } => {
                out.push(1);
                put_str(out, key);
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(&lba.to_le_bytes());
            }
            KvRecord::Remove { key } => {
                out.push(2);
                put_str(out, key);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<KvRecord> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            1 => {
                let key = take_str(buf, pos)?;
                let len = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                let lba = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
                Some(KvRecord::Put { key, len, lba })
            }
            2 => Some(KvRecord::Remove {
                key: take_str(buf, pos)?,
            }),
            _ => None,
        }
    }

    fn units(rec: &KvRecord) -> Range<u64> {
        match *rec {
            KvRecord::Put { len, lba, .. } => lba..lba.saturating_add(sectors_for(len as usize)),
            KvRecord::Remove { .. } => 0..0,
        }
    }

    /// `false` means there was no such key to remove.
    fn apply(&self, rec: &KvRecord) -> bool {
        match rec {
            KvRecord::Put { key, len, lba } => {
                let (len, lba) = (*len as usize, *lba);
                let loc = ValueLoc { len, lba };
                self.shard(key).write().insert(key.clone(), loc);
                true
            }
            KvRecord::Remove { key } => self.shard(key).write().remove(key).is_some(),
        }
    }

    fn clear(&self) {
        self.shards.iter().for_each(|shard| shard.write().clear());
    }

    fn absorb(&self, prev: &KeyMap) {
        for (mine, theirs) in self.shards.iter().zip(&prev.shards) {
            *mine.write() = theirs.read().clone();
        }
    }
}

/// The LabKVS LabMod.
pub struct LabKvs {
    /// The key map with its per-worker op logs and sector allocator.
    store: MetaStore<KeyMap>,
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
        let geometry = (LOG_SECTORS_PER_WORKER, 1, STEAL_SECTORS);
        LabKvs {
            store: MetaStore::new(device, workers, geometry, KeyMap::new),
            resub_levels: levels.max(1),
        }
    }

    /// LabKVS's durability point: persist every log's pending records as
    /// one journal frame each, then wait until they are on the device.
    pub fn flush_logs(&self, ctx: &mut Ctx) -> Result<(), JournalError> {
        self.store.sync(ctx)
    }

    /// Rebuild the key map by scanning the on-device journal regions:
    /// clear it, then fold `apply` over the longest prefix of committed
    /// frames, discarding any torn or stale tail.
    pub fn replay_from_device(&self) -> RepairReport {
        self.store.replay()
    }

    /// What the most recent repair found, if one has run.
    pub fn last_repair(&self) -> Option<RepairReport> {
        self.store.last_repair()
    }

    /// Number of live keys.
    pub fn key_count(&self) -> usize {
        self.store.state.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Every key with its value's `(length, first sector)`: what a
    /// replay of the op log must reproduce.
    pub fn snapshot(&self) -> std::collections::BTreeMap<String, (usize, u64)> {
        let mut snap = std::collections::BTreeMap::new();
        for shard in &self.store.state.shards {
            for (key, loc) in shard.read().iter() {
                snap.insert(key.clone(), (loc.len, loc.lba));
            }
        }
        snap
    }

    /// Store a `len`-byte value: carve its extent from the originating
    /// worker's allocator shard, forward the write(s) `writes` builds for
    /// that extent, then record the put in the log and key map. A
    /// zero-length value allocates nothing and touches no device.
    fn put_extent(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        key: &str,
        len: usize,
        writes: impl FnOnce(u64) -> [Option<BlockOp>; 2],
    ) -> RespPayload {
        ctx.advance(KV_CPU_NS);
        let mut lba = 0;
        if len > 0 {
            let Some(first) = self.store.alloc_run(ctx, req.core, sectors_for(len)) else {
                return RespPayload::Err("no space".into());
            };
            lba = first;
            for op in writes(lba).into_iter().flatten() {
                let r = env.forward(ctx, req.derive(Payload::Block(op)));
                if !r.is_ok() {
                    return r;
                }
            }
        }
        let rec = KvRecord::Put {
            key: key.to_string(),
            len: len as u64,
            lba,
        };
        self.store.commit(ctx, req.core, &rec);
        RespPayload::Len(len)
    }

    /// Fetch a stored value: one device read of the covering sectors,
    /// answered as a slice of the driver's DMA buffer (inline when small).
    fn read_value(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        loc: ValueLoc,
    ) -> RespPayload {
        if loc.len == 0 {
            return RespPayload::Data(Vec::new());
        }
        let read = BlockOp::ReadBuf {
            lba: loc.lba,
            len: loc.len.next_multiple_of(SECTOR),
        };
        match env.forward(ctx, req.derive(Payload::Block(read))) {
            RespPayload::DataBuf(mut h) => {
                h.truncate(loc.len);
                // Small values skip the BufferPool round trip and ride
                // by value in the envelope — the client-side copy-out
                // this saves is a counted one.
                match labstor_ipc::InlineData::from_slice(h.as_slice()) {
                    Some(d) => RespPayload::Inline(d),
                    None => RespPayload::DataBuf(h),
                }
            }
            // A pool-dry driver answers with an owned Vec.
            RespPayload::Data(mut d) => {
                d.truncate(loc.len);
                RespPayload::Data(d)
            }
            other => other,
        }
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
            let Some(loc) = self.store.state.get(&lkey) else {
                continue; // resubmission hook: try the next level in-stack
            };
            let resp = self.read_value(ctx, env, req, loc);
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
        for shard in &self.store.state.shards {
            let m = shard.read();
            for (k, loc) in m.iter() {
                if k.starts_with(prefix) {
                    entries.push((k.clone(), *loc));
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut fuel = prog.fuel_budget();
        let mut out = labstor_pushdown::ScanOut::default();
        let mut matched_keys: Vec<String> = Vec::new();
        for (k, loc) in &entries {
            ctx.advance(KV_CPU_NS); // per-entry key-map touch
            let resp = self.read_value(ctx, env, req, *loc);
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

/// One write of `value` padded with zeroes to the sector: the caller's
/// allocation as it is when the length is a sector multiple.
fn padded_write(lba: u64, mut value: Vec<u8>) -> BlockOp {
    let padded = value.len().next_multiple_of(SECTOR);
    if padded > value.capacity() {
        // Growing the allocation for the tail sector's padding moves the bytes.
        labstor_ipc::note_payload_copy(value.len());
    }
    value.resize(padded, 0);
    BlockOp::Write { lba, data: value }
}

/// The writes of a pool buffer: its sector-multiple prefix as a
/// refcounted slice, then the zero-padded tail sector, if any.
fn pooled_writes(lba: u64, buf: &labstor_ipc::BufHandle) -> [Option<BlockOp>; 2] {
    let prefix = buf.len() / SECTOR * SECTOR;
    let head = (prefix > 0).then(|| {
        let mut h = buf.clone();
        h.truncate(prefix);
        BlockOp::WriteBuf { lba, buf: h }
    });
    let tail = (prefix < buf.len()).then(|| {
        let mut data = vec![0u8; SECTOR];
        let rest = &buf.as_slice()[prefix..];
        labstor_ipc::note_payload_copy(rest.len());
        // copy-ok: the zero-padded tail sector cannot alias the pool buffer; counted via note_payload_copy
        data[..rest.len()].copy_from_slice(rest);
        BlockOp::Write {
            lba: lba + (prefix / SECTOR) as u64,
            data,
        }
    });
    [head, tail]
}

impl LabMod for LabKvs {
    fn type_name(&self) -> &'static str {
        "labkvs"
    }

    fn mod_type(&self) -> ModType {
        ModType::Kvs
    }

    fn process(&self, ctx: &mut Ctx, mut req: Request, env: &StackEnv<'_>) -> RespPayload {
        if let Payload::Kvs(KvsOp::Put { key, value }) = &mut req.payload {
            // A put's bytes move out of the request: the caller's own
            // allocation goes downstream, padded to the sector in place.
            let (key, value) = (std::mem::take(key), std::mem::take(value));
            return self.put_extent(ctx, env, &req, &key, value.len(), |lba| {
                [Some(padded_write(lba, value)), None]
            });
        }
        match &req.payload {
            Payload::Kvs(KvsOp::PutBuf { key, buf }) => {
                self.put_extent(ctx, env, &req, key, buf.len(), |lba| {
                    pooled_writes(lba, buf)
                })
            }
            Payload::Kvs(KvsOp::Get { key }) => {
                ctx.advance(KV_CPU_NS);
                match self.store.state.get(key) {
                    Some(loc) => self.read_value(ctx, env, &req, loc),
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
                let rec = KvRecord::Remove { key: key.clone() };
                if self.store.commit(ctx, req.core, &rec) {
                    RespPayload::Ok
                } else {
                    RespPayload::Err(format!("no key '{key}'"))
                }
            }
            _ => env.forward(ctx, req),
        }
    }

    fn est_processing_time(&self, req: &Request) -> u64 {
        KV_CPU_NS + req.payload_bytes() as u64
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<LabKvs>() {
            self.store.absorb(&prev.store);
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
    metastore::install(mm, devices, "labkvs", |dev, workers, params| {
        let levels = params.get("levels").and_then(|v| v.as_u64()).unwrap_or(2) as u32;
        LabKvs::with_levels(dev, workers, levels)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::{BlockDevice, DeviceKind};

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
        let env = StackEnv::new(stack, 0, mm, 0);
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
        assert_eq!(r.data_bytes(), Some(&value[..]));
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
    fn put_buf_roundtrips_with_a_zero_copy_prefix() {
        let (mm, stack) = setup();
        let mut ctx = Ctx::new();
        // Not a sector multiple: the 17-sector prefix rides as one
        // refcounted slice, the 73-byte tail is zero-padded and copied.
        let n = SECTOR * 17 + 73;
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
    fn get_answers_with_a_view_of_the_dma_buffer() {
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
        assert_eq!(r.data_bytes(), Some(&value[..]));
    }

    fn put(mm: &ModuleManager, stack: &LabStack, ctx: &mut Ctx, key: &str, value: &[u8]) {
        let put = KvsOp::Put {
            key: key.into(),
            value: value.to_vec(),
        };
        let w = exec(mm, stack, Payload::Kvs(put), ctx);
        assert!(
            matches!(w, RespPayload::Len(n) if n == value.len()),
            "{w:?}"
        );
    }

    fn assert_value(mm: &ModuleManager, stack: &LabStack, ctx: &mut Ctx, key: &str, want: &[u8]) {
        let r = exec(mm, stack, Payload::Kvs(KvsOp::Get { key: key.into() }), ctx);
        assert!(r.data_bytes() == Some(want), "'{key}' no longer reads back");
    }

    /// Put `old`, swap in the instance `successor` builds from the live
    /// one, put `new`: both must read back (the successor must not carve
    /// `new` out of the sectors `old` lives in).
    fn old_value_survives(successor: impl FnOnce(&LabKvs, Arc<SimDevice>, &mut Ctx) -> LabKvs) {
        let (mm, stack, dev) = setup_with_device();
        let mut ctx = Ctx::new();
        let (old, new) = (vec![0xA1u8; 1500], vec![0xB2u8; 1500]);
        put(&mm, &stack, &mut ctx, "old", &old);
        let prev = mm.get("kv").unwrap();
        let next = successor(
            prev.as_any().downcast_ref::<LabKvs>().unwrap(),
            dev,
            &mut ctx,
        );
        mm.insert_instance("kv", Arc::new(next));
        put(&mm, &stack, &mut ctx, "new", &new);
        assert_value(&mm, &stack, &mut ctx, "old", &old);
        assert_value(&mm, &stack, &mut ctx, "new", &new);
    }

    #[test]
    fn upgrade_does_not_hand_out_live_extents_again() {
        old_value_survives(|prev, dev, _| {
            let next = LabKvs::new(dev, 4);
            next.state_update(prev);
            next
        });
    }

    #[test]
    fn restart_does_not_hand_out_live_extents_again() {
        old_value_survives(|prev, dev, ctx| {
            prev.flush_logs(ctx).unwrap();
            let next = LabKvs::new(dev, 4);
            assert!(next.replay_from_device().is_clean());
            next
        });
    }

    /// "A record that did not apply is not logged" holds for LabKVS by
    /// going through the engine's `commit` (`metastore::tests::
    /// a_commit_that_does_not_apply_appends_nothing`): removing a key
    /// that is not there leaves the log region as it was.
    #[test]
    fn remove_of_a_missing_key_appends_nothing() {
        let (mm, stack, dev) = setup_with_device();
        let mut ctx = Ctx::new();
        put(&mm, &stack, &mut ctx, "there", &[7u8; 10]);
        let kv_mod = mm.get("kv").unwrap();
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        let region = |ctx: &mut Ctx| {
            kv.flush_logs(ctx).unwrap();
            let mut bytes = vec![0u8; 4 * SECTOR];
            dev.read(&mut Ctx::new(), 0, &mut bytes).unwrap();
            bytes
        };
        let before = region(&mut ctx);
        let remove = KvsOp::Remove {
            key: "not-there".into(),
        };
        assert!(!exec(&mm, &stack, Payload::Kvs(remove), &mut ctx).is_ok());
        assert_eq!(region(&mut ctx), before);
    }

    /// `MetaStore::absorb`'s precondition, through the admin path that
    /// can break it: an upgrade whose params change the worker count.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must keep the store's geometry")]
    fn upgrade_to_another_worker_count_is_refused_in_debug_builds() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        LabKvs::new(dev.clone(), 32).state_update(&LabKvs::new(dev, 8));
    }

    /// The on-device op log is pinned, as LabFS's is by
    /// `log_region_bytes_are_the_recorded_ones`: a fixed op list on two
    /// of four workers leaves these exact bytes in the two log regions,
    /// this key map and this virtual clock (recorded at 2ab0d7e, before
    /// the log moved into `metastore`).
    #[test]
    fn log_region_bytes_are_the_recorded_ones() {
        let (mm, stack, dev) = setup_with_device();
        let mut ctx = Ctx::new();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let kv_mod = mm.get("kv").unwrap();
        let mut on = |core: usize, op: KvsOp| {
            let req = Request::on_core(1, 1, Payload::Kvs(op), Credentials::ROOT, core);
            kv_mod.process(&mut ctx, req, &env)
        };
        let put = |key: &str, len: usize| KvsOp::Put {
            key: key.into(),
            value: vec![0x5A; len],
        };
        let remove = |key: &str| KvsOp::Remove { key: key.into() };
        for (i, len) in [1, 512, 700, 4096, 0].into_iter().enumerate() {
            assert!(on(i % 2, put(&format!("k{len}"), len)).is_ok());
        }
        assert!(on(1, put("k700", 513)).is_ok(), "an overwrite");
        assert!(on(0, remove("k512")).is_ok());
        assert!(!on(1, remove("never-put")).is_ok(), "logs nothing");
        let kv = kv_mod.as_any().downcast_ref::<LabKvs>().unwrap();
        kv.flush_logs(&mut ctx).unwrap();

        let mut regions = vec![0u8; 2 * 4 * SECTOR];
        let (r0, r1) = regions.split_at_mut(4 * SECTOR);
        let mut scan = Ctx::new(); // reading back is not part of the pinned timeline
        dev.read(&mut scan, 0, r0).unwrap();
        dev.read(&mut scan, LOG_SECTORS_PER_WORKER, r1).unwrap();
        assert_eq!(crate::journal::crc32(&regions), 2_462_000_023);
        assert_eq!(kv.key_count(), 4);
        let snap: Vec<_> = kv.snapshot().into_iter().collect();
        let want = [
            ("k0", (0, 0)),
            ("k1", (1, 32_768)),
            ("k4096", (4096, 1_001_139)),
            ("k700", (513, 1_001_147)),
        ];
        assert_eq!(snap, want.map(|(k, loc)| (k.to_string(), loc)));
        assert_eq!(ctx.now(), 78_167);
    }

    #[test]
    fn kv_record_roundtrip() {
        let records = vec![
            KvRecord::Put {
                key: "alpha".into(),
                len: 777,
                lba: 81_920,
            },
            KvRecord::Remove {
                key: "alpha".into(),
            },
        ];
        let mut buf = Vec::new();
        for r in &records {
            KeyMap::encode(r, &mut buf);
        }
        buf.push(0);
        let mut pos = 0;
        let mut decoded = Vec::new();
        while let Some(r) = KeyMap::decode(&buf, &mut pos) {
            decoded.push(r);
        }
        assert_eq!(decoded, records);
    }
}
