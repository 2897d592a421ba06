//! The log-structured metadata engine under LabFS and LabKVS (paper
//! §III-E: "LabKVS is similarly designed to LabFS"; DESIGN.md §12,
//! "Metadata state machine").
//!
//! Both mods keep only a log on the device and rebuild their in-memory
//! maps by traversing it, so the live state is right exactly when it
//! equals `fold(apply, log)`. [`MetaStore`] is that machine, once: it owns
//! the per-worker [`Journal`] and [`BlockAllocator`] and is the only code
//! that appends to the one or reserves in the other. What differs between
//! the mods — the records and the maps they describe — is a
//! [`StateMachine`], which the engine is generic over (static dispatch:
//! no `dyn`, no lock and no allocation of its own on the commit path).

use std::ops::Range;
use std::sync::Arc;

use labstor_core::{LabMod, ModuleManager};
use labstor_sim::{BlockDevice, Ctx, SimDevice};

use crate::alloc::BlockAllocator;
use crate::devices::{device_param, DeviceRegistry};
use crate::journal::{Journal, JournalError, RepairReport};

/// CPU cost of appending one log record to the in-memory log buffer.
pub(crate) const LOG_APPEND_NS: u64 = 80;
/// CPU cost of one allocation (bump pointer).
const ALLOC_NS: u64 = 40;

/// What a storage mod brings to the engine: a record type with its wire
/// format, and the in-memory state those records describe.
pub(crate) trait StateMachine {
    /// One logged metadata change.
    type Record;

    /// Serialize `rec` onto `out`. The first byte is a nonzero tag.
    fn encode(rec: &Self::Record, out: &mut Vec<u8>);

    /// Decode one record from `buf[*pos..]`, advancing `pos`. `None` at
    /// a zero tag (end-of-log padding) or on truncation.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self::Record>;

    /// The allocator units `rec` names (none for most records). Live,
    /// [`MetaStore::alloc_run`] took them before the record existed and
    /// replay reserves them, so `apply` never touches the allocator.
    fn units(rec: &Self::Record) -> Range<u64>;

    /// Apply one record — the only way the state changes, live and on
    /// replay. `false` means it changed nothing (the name exists, the
    /// key does not): the live operation's existence check.
    fn apply(&self, rec: &Self::Record) -> bool;

    /// Forget everything a replay rebuilds.
    fn clear(&self);

    /// Live upgrade: take over `prev`'s whole state.
    fn absorb(&self, prev: &Self);
}

/// One mod's metadata: the state, the log it is the fold of, and the
/// allocator whose units the log's records name.
pub(crate) struct MetaStore<S: StateMachine> {
    /// To read; it changes through [`MetaStore::commit`].
    pub(crate) state: S,
    allocator: BlockAllocator,
    /// The per-worker logs, written to a reserved device region through
    /// a direct handle.
    journal: Journal,
    /// (workers, log units per worker, sectors per unit, steal batch).
    geometry: (usize, u64, u64, u64),
}

impl<S: StateMachine> MetaStore<S> {
    /// Divide `device` among `workers`: a log region of `log_units`
    /// allocator units each from sector 0, an allocator shard each of
    /// the rest. A unit is `unit_sectors` sectors; a dry shard steals
    /// `steal_batch` units. `state` builds the maps for a shard count,
    /// which like the rest follows from `workers` — so two stores with
    /// one geometry pair up index by index.
    pub(crate) fn new(
        device: Arc<SimDevice>,
        workers: usize,
        (log_units, unit_sectors, steal_batch): (u64, u64, u64),
        state: impl FnOnce(usize) -> S,
    ) -> Self {
        let workers = workers.max(1);
        let total_units = device.model().capacity_sectors() / unit_sectors;
        let log_end = log_units * workers as u64;
        MetaStore {
            state: state(workers.next_power_of_two().max(16)),
            allocator: BlockAllocator::new(log_end, total_units, workers, steal_batch),
            journal: Journal::new(device, workers, log_units * unit_sectors),
            geometry: (workers, log_units, unit_sectors, steal_batch),
        }
    }

    /// `n` contiguous units from the allocator shard of the worker on
    /// `core` (stealing when dry); `None` when no shard holds such a run.
    pub(crate) fn alloc_run(&self, ctx: &mut Ctx, core: usize, n: u64) -> Option<u64> {
        ctx.advance(ALLOC_NS);
        self.allocator.alloc_run(core, n)
    }

    /// The one way a live operation changes metadata: apply `rec`, then
    /// — only if it applied — append it to the log of the worker on
    /// `core`, so replay folds the same `apply` over the same records.
    /// `false` (nothing changed, nothing logged) is the operation's
    /// "exists" / "not found".
    pub(crate) fn commit(&self, ctx: &mut Ctx, core: usize, rec: &S::Record) -> bool {
        let applied = self.state.apply(rec);
        if applied {
            self.log_applied(ctx, core, rec);
        }
        applied
    }

    /// Log a record the state has *already* applied, inside a critical
    /// section of its own that spans several records (LabFS maps every
    /// page of a write under one inode lock). Everything else commits.
    pub(crate) fn log_applied(&self, ctx: &mut Ctx, core: usize, rec: &S::Record) {
        ctx.advance(LOG_APPEND_NS);
        let now = ctx.now();
        self.journal.append(core, now, |buf| S::encode(rec, buf));
    }

    /// Durability point: persist every log's pending records as one
    /// frame each, then wait until they are on the device.
    pub(crate) fn sync(&self, ctx: &mut Ctx) -> Result<(), JournalError> {
        self.journal.sync(ctx)
    }

    /// Crash recovery: forget the state and rebuild it as the fold of
    /// `apply` over every committed frame on the device, region by
    /// region, discarding any torn or stale tail ([`Journal::replay`]).
    /// The units the records name leave the allocator here, not in
    /// `apply`: live, `alloc_run` took them.
    pub(crate) fn replay(&self) -> RepairReport {
        self.state.clear();
        self.journal.replay(|buf, pos| {
            let rec = S::decode(buf, pos)?;
            let units = S::units(&rec);
            if !units.is_empty() {
                self.allocator.reserve(units.start, units.end);
            }
            self.state.apply(&rec);
            Some(())
        })
    }

    /// What the most recent [`MetaStore::replay`] found, if one has run.
    pub(crate) fn last_repair(&self) -> Option<RepairReport> {
        self.journal.last_repair()
    }

    /// Live upgrade: take over `prev`'s maps, its frame chain (every
    /// frame `prev` kicked is already written, so the cursors the journal
    /// copies are final) and its allocator cursors.
    ///
    /// **Both sides must have the same geometry** — in practice the same
    /// worker count: map shards, log regions and allocator shards pair
    /// up by index, so another count files keys under shards their hash
    /// never probes and lays new log regions over live data. Checked in
    /// debug builds only: `state_update` has no error channel (DESIGN.md
    /// §12, "Open defect").
    pub(crate) fn absorb(&self, prev: &Self) {
        debug_assert_eq!(
            self.geometry, prev.geometry,
            "a live upgrade must keep the store's geometry"
        );
        self.state.absorb(&prev.state);
        self.journal.absorb(&prev.journal);
        self.allocator.absorb(&prev.allocator);
    }
}

/// Register `type_name`'s factory: `build` gets the block device named
/// by the params' `"device"`, their `"workers"` (default 8), and the
/// params themselves for anything else it reads.
pub(crate) fn install<M: LabMod + 'static>(
    mm: &ModuleManager,
    devices: &Arc<DeviceRegistry>,
    type_name: &str,
    build: impl Fn(Arc<SimDevice>, usize, &serde_json::Value) -> M + Send + Sync + 'static,
) {
    let reg = devices.clone();
    let factory = move |params: &serde_json::Value| {
        let name = device_param(params);
        let dev = reg
            .block(&name)
            .unwrap_or_else(|| panic!("no block device '{name}'"));
        let workers = params.get("workers").and_then(|v| v.as_u64()).unwrap_or(8) as usize;
        Arc::new(build(dev, workers, params)) as Arc<dyn LabMod>
    };
    mm.register_factory(type_name, Arc::new(factory));
}

/// The map shard (of `shards`) a name lives in: FNV-1a.
pub(crate) fn shard_of(name: &str, shards: usize) -> usize {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
    }
    (h as usize) % shards
}

/// The next `n` bytes of a record being decoded.
pub(crate) fn take<'b>(buf: &'b [u8], pos: &mut usize, n: usize) -> Option<&'b [u8]> {
    let s = buf.get(*pos..*pos + n)?;
    *pos += n;
    Some(s)
}

/// Encode a name: u32 little-endian length, then the bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Decode what [`put_str`] wrote.
pub(crate) fn take_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().ok()?) as usize;
    // copy-ok: log-record decode of a path or key — metadata, not payload bytes
    String::from_utf8(take(buf, pos, len)?.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    //! The engine over a toy machine: what LabFS and LabKVS get from
    //! `MetaStore` is checked here once, not once per mod.

    use std::collections::BTreeSet;

    use labstor_sim::{DeviceKind, SECTOR_SIZE};
    use parking_lot::Mutex;

    use super::*;

    /// A set of numbers. `Insert(n)` names allocator unit `n`.
    struct Set(Mutex<BTreeSet<u64>>);

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64),
        Remove(u64),
    }

    impl StateMachine for Set {
        type Record = Op;

        fn encode(rec: &Op, out: &mut Vec<u8>) {
            let (tag, n) = match *rec {
                Op::Insert(n) => (1, n),
                Op::Remove(n) => (2, n),
            };
            out.push(tag);
            out.extend_from_slice(&n.to_le_bytes());
        }

        fn decode(buf: &[u8], pos: &mut usize) -> Option<Op> {
            let tag = take(buf, pos, 1)?[0];
            let n = u64::from_le_bytes(take(buf, pos, 8)?.try_into().ok()?);
            match tag {
                1 => Some(Op::Insert(n)),
                2 => Some(Op::Remove(n)),
                _ => None,
            }
        }

        fn units(rec: &Op) -> Range<u64> {
            match *rec {
                Op::Insert(n) => n..n + 1,
                Op::Remove(_) => 0..0,
            }
        }

        fn apply(&self, rec: &Op) -> bool {
            match *rec {
                Op::Insert(n) => self.0.lock().insert(n),
                Op::Remove(n) => self.0.lock().remove(&n),
            }
        }

        fn clear(&self) {
            self.0.lock().clear();
        }

        fn absorb(&self, prev: &Set) {
            *self.0.lock() = prev.0.lock().clone();
        }
    }

    /// Sectors per log region of the test geometry.
    const LOG_UNITS: u64 = 64;

    fn store(device: &Arc<SimDevice>) -> MetaStore<Set> {
        MetaStore::new(device.clone(), 2, (LOG_UNITS, 1, 16), |_| {
            Set(Mutex::new(BTreeSet::new()))
        })
    }

    fn members(store: &MetaStore<Set>) -> Vec<u64> {
        store.state.0.lock().iter().copied().collect()
    }

    /// Allocate a unit on `core` and insert it.
    fn insert_fresh(store: &MetaStore<Set>, ctx: &mut Ctx, core: usize) -> u64 {
        let unit = store.alloc_run(ctx, core, 1).expect("space");
        assert!(store.commit(ctx, core, &Op::Insert(unit)));
        unit
    }

    /// The first sectors of both log regions.
    fn log_bytes(device: &SimDevice) -> Vec<u8> {
        let mut ctx = Ctx::new();
        let mut bytes = vec![0u8; 2 * 4 * SECTOR_SIZE];
        let (r0, r1) = bytes.split_at_mut(4 * SECTOR_SIZE);
        device.read(&mut ctx, 0, r0).unwrap();
        device.read(&mut ctx, LOG_UNITS, r1).unwrap();
        bytes
    }

    #[test]
    fn a_commit_that_does_not_apply_appends_nothing() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let s = store(&dev);
        let mut ctx = Ctx::new();
        assert!(s.commit(&mut ctx, 0, &Op::Insert(1)));
        s.sync(&mut ctx).unwrap();
        let before = (log_bytes(&dev), ctx.now());

        assert!(!s.commit(&mut ctx, 0, &Op::Insert(1)), "already a member");
        assert!(!s.commit(&mut ctx, 1, &Op::Remove(9)), "not a member");
        assert_eq!(ctx.now(), before.1, "no append was charged");
        assert!(s.journal.seal_next(0).is_none(), "nothing is pending");
        assert!(s.journal.seal_next(1).is_none(), "nothing is pending");
        s.sync(&mut ctx).unwrap();
        assert_eq!(log_bytes(&dev), before.0);
        // The next frame of worker 0's log is still its second.
        assert!(s.commit(&mut ctx, 0, &Op::Insert(2)));
        let (sector, frame) = s.journal.seal_next(0).unwrap();
        assert_eq!(sector, 1);
        assert_eq!(u64::from_le_bytes(frame[4..12].try_into().unwrap()), 2);
    }

    #[test]
    fn replay_is_clear_plus_fold_and_reserves_every_named_unit() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let old = store(&dev);
        let mut ctx = Ctx::new();
        let a = insert_fresh(&old, &mut ctx, 0);
        let b = insert_fresh(&old, &mut ctx, 1);
        let c = insert_fresh(&old, &mut ctx, 0);
        assert!(old.commit(&mut ctx, 1, &Op::Remove(b)));
        old.sync(&mut ctx).unwrap();
        insert_fresh(&old, &mut ctx, 0); // never synced: lost with the crash

        let fresh = store(&dev);
        assert!(fresh.last_repair().is_none(), "no repair has run yet");
        assert!(
            fresh.commit(&mut ctx, 0, &Op::Insert(999)),
            "not in the log"
        );
        let rep = fresh.replay();
        assert_eq!((rep.txns_replayed, rep.records_replayed), (2, 4));
        assert!(rep.is_clean());
        assert_eq!(fresh.last_repair(), Some(rep));
        assert_eq!(members(&fresh), vec![a, c]);
        // A fresh allocator starts where the old one did: without the
        // reserve, `a` is the first unit worker 0 hands out again.
        for core in [0, 1, 0, 1] {
            let unit = fresh.alloc_run(&mut ctx, core, 1).unwrap();
            assert!(
                ![a, b, c].contains(&unit),
                "unit {unit} is named by the log"
            );
        }
    }

    #[test]
    fn absorb_continues_the_frame_chain_and_the_allocator_cursors() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let old = store(&dev);
        let mut ctx = Ctx::new();
        let a = insert_fresh(&old, &mut ctx, 0);
        old.sync(&mut ctx).unwrap();

        let new = store(&dev);
        new.absorb(&old);
        assert_eq!(members(&new), vec![a]);
        let b = insert_fresh(&new, &mut ctx, 0);
        assert_eq!(b, a + 1, "the cursor carried over");
        // The upgraded store appends after the old one's frame, with its
        // sector cursor, sequence number and chain value: a crash after
        // the upgrade replays both eras as one log.
        new.sync(&mut ctx).unwrap();
        let rep = store(&dev).replay();
        assert_eq!(rep.txns_replayed, 2);
        assert!(rep.is_clean());
        let rep = new.replay();
        assert_eq!(rep.txns_replayed, 2);
        assert_eq!(members(&new), vec![a, b]);
    }

    #[test]
    fn header_landed_payload_torn_frame_is_discarded_and_reported() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let s = store(&dev);
        let mut ctx = Ctx::new();
        assert!(s.commit(&mut ctx, 0, &Op::Insert(1)));
        s.sync(&mut ctx).unwrap();
        // A crash inside the one write of a second, two-sector frame: its
        // header sector landed, the rest of its payload did not.
        for n in 100..200 {
            assert!(s.commit(&mut ctx, 0, &Op::Insert(n)));
        }
        let (sector, frame) = s.journal.seal_next(0).unwrap();
        assert_eq!(frame.len(), 2 * SECTOR_SIZE);
        dev.write(&mut ctx, sector, &frame[..SECTOR_SIZE]).unwrap();
        let rep = s.replay();
        assert_eq!(rep.txns_replayed, 1);
        assert_eq!(rep.txns_discarded, 1);
        assert_eq!(rep.mid_frame_tears, 1);
        assert!(rep.torn_tail);
        assert_eq!(s.last_repair(), Some(rep));
        assert_eq!(
            members(&s),
            vec![1],
            "the torn frame was never acked, so none of it may appear"
        );
        // Appends resume after the committed prefix: the next sync
        // overwrites the torn tail.
        assert!(s.commit(&mut ctx, 0, &Op::Insert(2)));
        s.sync(&mut ctx).unwrap();
        assert!(s.replay().is_clean());
        assert_eq!(members(&s), vec![1, 2]);
    }

    /// ROADMAP item 4b's reproducer. Replay goes region by region, so the
    /// order *between* two workers' logs is lost: worker 1's `Remove(7)`
    /// replays after both of worker 0's `Insert(7)`s and 7 is gone. The
    /// assertion is the correct one and fails today (EXPERIMENTS.md, "One
    /// metadata engine"); the PR that orders records across regions
    /// removes the `#[ignore]`.
    #[test]
    #[ignore = "ROADMAP 4b: replay goes region by region"]
    fn cross_worker_order_survives_replay() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let s = store(&dev);
        let mut ctx = Ctx::new();
        assert!(s.commit(&mut ctx, 0, &Op::Insert(7)));
        assert!(s.commit(&mut ctx, 1, &Op::Remove(7)));
        assert!(s.commit(&mut ctx, 0, &Op::Insert(7)));
        s.sync(&mut ctx).unwrap();
        assert_eq!(members(&s), vec![7]);
        let fresh = store(&dev);
        assert!(fresh.replay().is_clean());
        assert_eq!(members(&fresh), vec![7], "the last acked op inserted 7");
    }
}
