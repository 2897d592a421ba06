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
//!
//! Units a record frees — LabFS's unmapped blocks, LabKVS's replaced or
//! removed extents — are reused, but only once the stack below has been
//! told they are dead, the record is durable and no operation that
//! looked them up is still in flight ([`MetaStore::commit`], [`Pins`]):
//! until then a crash could bring back the record's old owner, whose
//! bytes must still be there, and a late command could still reach them.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use labstor_core::{BlockOp, LabMod, ModuleManager, Payload, Request, StackEnv};
use labstor_sim::{BlockDevice, Ctx, SimDevice, SECTOR_SIZE};

use crate::alloc::BlockAllocator;
use crate::devices::{device_param, DeviceRegistry};
use crate::journal::{Journal, JournalError, RepairReport};

/// CPU cost of appending one log record to the in-memory log buffer.
pub(crate) const LOG_APPEND_NS: u64 = 80;
/// CPU cost of one allocation (a bump pointer or a first fit).
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
    /// replay. `None` means it changed nothing (the name exists, the key
    /// does not): the live operation's existence check. `Some` carries
    /// the units the record left unnamed.
    fn apply(&self, rec: &Self::Record) -> Option<Unnamed>;

    /// Forget everything a replay rebuilds.
    fn clear(&self);

    /// Live upgrade: take over `prev`'s whole state.
    fn absorb(&self, prev: &Self);
}

/// The units a record left unnamed.
pub(crate) enum Unnamed {
    /// One run, empty when the record freed nothing: a replaced or
    /// removed LabKVS value's extent. Reported without a heap allocation.
    Run(Range<u64>),
    /// Units in any order: the blocks a LabFS record unmapped.
    Units(Vec<u64>),
}

impl Unnamed {
    /// Nothing left unnamed.
    pub(crate) const NONE: Unnamed = Unnamed::Run(0..0);

    /// Sort the units, so that [`Unnamed::runs`] finds the longest runs.
    fn sort(&mut self) {
        if let Unnamed::Units(units) = self {
            units.sort_unstable();
        }
    }

    /// The units as `(first, n)` runs that are contiguous, in order.
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (run, mut rest) = match self {
            Unnamed::Run(run) => (Some(run.clone()).filter(|r| !r.is_empty()), &[][..]),
            Unnamed::Units(units) => (None, &units[..]),
        };
        let run = run.map(|r| (r.start, r.end - r.start));
        run.into_iter().chain(std::iter::from_fn(move || {
            let &first = rest.first()?;
            let n = 1 + rest.windows(2).take_while(|w| w[1] == w[0] + 1).count();
            rest = &rest[n..];
            Some((first, n as u64))
        }))
    }
}

/// Allocator units per pin region.
const PIN_REGION_UNITS: u64 = 64;
/// Pin regions: region `u / PIN_REGION_UNITS` of unit `u` counts in slot
/// `% PIN_REGIONS`, one bit of a pin mask.
const PIN_REGIONS: usize = 64;

/// The pin mask of units `[first, first + n)`.
fn pin_mask(first: u64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let (lo, hi) = (first / PIN_REGION_UNITS, (first + n - 1) / PIN_REGION_UNITS);
    match hi - lo {
        k if k + 1 >= PIN_REGIONS as u64 => u64::MAX,
        k => ((1u64 << (k + 1)) - 1).rotate_left((lo % PIN_REGIONS as u64) as u32),
    }
}

fn for_each_region(mut mask: u64, mut f: impl FnMut(usize)) {
    while mask != 0 {
        f(mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
}

/// Per pin region, the operations in flight that looked up a unit in it
/// ([`Pin`]). Regions are coarse: a pin holds back every freed unit that
/// shares one with what it looked up.
pub(crate) struct Pins([AtomicU32; PIN_REGIONS]);

impl Default for Pins {
    fn default() -> Self {
        Pins(std::array::from_fn(|_| AtomicU32::new(0)))
    }
}

impl Pins {
    /// Pin the regions of `runs` until the returned [`Pin`] drops. Taken
    /// under the lock of the map shard the lookup read, so a free that
    /// applies after the lookup finds the pin.
    pub(crate) fn pin(&self, runs: impl IntoIterator<Item = Range<u64>>) -> Pin<'_> {
        let mut pin = Pin {
            pins: self,
            mask: 0,
        };
        runs.into_iter().for_each(|run| pin.add(run));
        pin
    }

    /// Whether a [`Pin`] covers a region of units `[first, first + n)`.
    fn pinned(&self, first: u64, n: u64) -> bool {
        let mut pinned = false;
        for_each_region(pin_mask(first, n), |r| {
            pinned |= self.0[r].load(Ordering::SeqCst) != 0;
        });
        pinned
    }
}

/// An operation's hold on the units it looked up, from the lookup until
/// its data commands are done. A unit a record frees goes back to the
/// allocator only while no pin covers its region, so a command still on
/// its way to a unit its owner lost neither lands on nor reads the
/// unit's next owner's bytes.
pub(crate) struct Pin<'a> {
    pins: &'a Pins,
    mask: u64,
}

impl Pin<'_> {
    /// Pin units `run` as well, under the lock of the map shard that
    /// named them.
    pub(crate) fn add(&mut self, run: Range<u64>) {
        let new = pin_mask(run.start, run.end - run.start) & !self.mask;
        for_each_region(new, |r| {
            self.pins.0[r].fetch_add(1, Ordering::SeqCst);
        });
        self.mask |= new;
    }
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        for_each_region(self.mask, |r| {
            self.pins.0[r].fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// A run of freed units waiting for its freeing record's frame: `(frame,
/// first, n)`.
type Pending = (u64, u64, u64);

/// One mod's metadata: the state, the log it is the fold of, and the
/// allocator whose units the log's records name.
pub(crate) struct MetaStore<S: StateMachine> {
    /// To read; it changes through [`MetaStore::commit`].
    pub(crate) state: S,
    /// What the operations in flight looked up: a mod pins the units a
    /// lookup of `state` finds, under the lock that lookup holds.
    pub(crate) pins: Pins,
    allocator: BlockAllocator,
    /// The per-worker logs, written to a reserved device region through
    /// a direct handle.
    journal: Journal,
    /// Per log, the freed runs waiting for a frame, in the order their
    /// records were committed — so in frame order, and the runs a
    /// durability point frees are a prefix.
    pending: Vec<Mutex<VecDeque<Pending>>>,
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
            pins: Pins::default(),
            allocator: BlockAllocator::new(log_end, total_units, workers, steal_batch),
            journal: Journal::new(device, workers, log_units * unit_sectors),
            pending: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            geometry: (workers, log_units, unit_sectors, steal_batch),
        }
    }

    /// `n` contiguous units from the allocator shard of the worker on
    /// `core` (stealing when dry), from `goal` on when it has them free
    /// ([`BlockAllocator::alloc_run`]). Fresh or recycled, they read as
    /// what they held before: no record may name them before the caller's
    /// bytes are down. `None` when no shard holds such a run.
    pub(crate) fn alloc_run(
        &self,
        ctx: &mut Ctx,
        core: usize,
        n: u64,
        goal: Option<u64>,
    ) -> Option<u64> {
        ctx.advance(ALLOC_NS);
        self.allocator.alloc_run(core, n, goal)
    }

    /// The one way a live operation changes metadata: apply `rec`, then
    /// — only if it applied — append it to the log of the worker on
    /// `req.core`, so replay folds the same `apply` over the same
    /// records. `false` (nothing changed, nothing logged) is the
    /// operation's "exists" / "not found".
    ///
    /// The units `rec` left unnamed are then dead: one `Discard` per
    /// contiguous run of them goes down `env`, so a cache lets their
    /// blocks, and the pool slots behind them, go. The discard is a hint:
    /// the record stands whatever the stack answers. Only once every
    /// stage has taken the discards are the units recycled: they go back
    /// to the allocator when the frame holding `rec` is durable and no
    /// operation that looked them up before `rec` is still in flight —
    /// now, or at a later durability point. Until then a crash can undo
    /// `rec`, and the units still hold what its undone state reads; and a
    /// late data command still reads or writes them. So no discard can
    /// overtake the units' next owner's write either.
    pub(crate) fn commit(
        &self,
        ctx: &mut Ctx,
        env: &StackEnv<'_>,
        req: &Request,
        rec: &S::Record,
    ) -> bool {
        let Some(mut unnamed) = self.state.apply(rec) else {
            return false;
        };
        let frame = self.log_applied(ctx, req.core, rec);
        unnamed.sort();
        let unit_sectors = self.geometry.2;
        for (first, n) in unnamed.runs() {
            let (lba, sectors) = (first * unit_sectors, n * unit_sectors);
            let discard = BlockOp::Discard {
                lba,
                len: sectors as usize * SECTOR_SIZE,
            };
            env.forward(ctx, req.derive(Payload::Block(discard)));
        }
        // A full log dropped the record: it is never durable, and the
        // units stay taken.
        if let Some(frame) = frame {
            let log = req.core % self.pending.len();
            let mut pending = self.pending[log].lock();
            pending.extend(unnamed.runs().map(|(first, n)| (frame, first, n)));
            self.release(log, &mut pending);
        }
        true
    }

    /// Log a record the state has *already* applied, inside a critical
    /// section of its own that spans several records (LabFS maps every
    /// page of a write under one inode lock). Everything else commits.
    /// Returns the sequence number of the frame the record went into.
    pub(crate) fn log_applied(&self, ctx: &mut Ctx, core: usize, rec: &S::Record) -> Option<u64> {
        ctx.advance(LOG_APPEND_NS);
        let now = ctx.now();
        self.journal.append(core, now, |buf| S::encode(rec, buf))
    }

    /// Give log `log`'s freed runs whose frame is durable back to the
    /// allocator, into the shard of the worker that freed them: pop the
    /// durable prefix, and stop at a run an operation in flight has
    /// pinned (it goes at a later durability point or free). The work is
    /// the runs given back, whatever waits behind them.
    fn release(&self, log: usize, pending: &mut VecDeque<Pending>) {
        let durable = self.journal.durable(log);
        while let Some(&(frame, first, n)) = pending.front() {
            if frame > durable || self.pins.pinned(first, n) {
                break;
            }
            pending.pop_front();
            self.allocator.free(log, first, n);
        }
    }

    /// Give back units `alloc_run` handed out on `core` that no record
    /// names: a LabFS write or LabKVS put whose data commands failed.
    pub(crate) fn unalloc(&self, core: usize, units: impl IntoIterator<Item = u64>) {
        for unit in units {
            self.allocator.free(core, unit, 1);
        }
    }

    /// Durability point: persist every log's pending records as one
    /// frame each, then wait until they are on the device. The units
    /// whose freeing records it made durable go back to the allocator.
    pub(crate) fn sync(&self, ctx: &mut Ctx) -> Result<(), JournalError> {
        let synced = self.journal.sync(ctx);
        for (log, pending) in self.pending.iter().enumerate() {
            self.release(log, &mut pending.lock());
        }
        synced
    }

    /// Crash recovery: forget the state and rebuild it as the fold of
    /// `apply` over every committed frame on the device, region by
    /// region, discarding any torn or stale tail ([`Journal::replay`]).
    /// The units the records name leave the allocator here, not in
    /// `apply`: live, `alloc_run` took them. Units a replayed record
    /// frees stay taken, and so do the freed units still waiting for a
    /// frame: the free list is not rebuilt, so this needs no scan beyond
    /// the log's (units already on it stay: their frees are on media).
    /// Nothing below is told of them: no cache holds a block a replay
    /// could find.
    pub(crate) fn replay(&self) -> RepairReport {
        self.state.clear();
        self.pending
            .iter()
            .for_each(|pending| pending.lock().clear());
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

    /// Units the allocator can still hand out.
    #[cfg(test)]
    pub(crate) fn free_units(&self) -> u64 {
        self.allocator.free_blocks()
    }

    /// What the most recent [`MetaStore::replay`] found, if one has run.
    #[cfg(test)]
    pub(crate) fn last_repair(&self) -> Option<RepairReport> {
        self.journal.last_repair()
    }

    /// Live upgrade: take over `prev`'s maps, its frame chain (every
    /// frame `prev` kicked is already written, so the cursors the journal
    /// copies are final), its allocator cursors and free lists, and the
    /// freed units still waiting for a frame.
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
        for (mine, theirs) in self.pending.iter().zip(&prev.pending) {
            mine.lock().clone_from(&theirs.lock());
        }
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

    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;
    use labstor_sim::DeviceKind;
    use parking_lot::Mutex;

    use super::*;

    /// A set of numbers. `Insert(n)` names allocator unit `n`, and
    /// `Remove(n)` frees it.
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

        fn apply(&self, rec: &Op) -> Option<Unnamed> {
            match *rec {
                Op::Insert(n) => self.0.lock().insert(n).then_some(Unnamed::NONE),
                Op::Remove(n) => self.0.lock().remove(&n).then(|| Unnamed::Run(n..n + 1)),
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

    /// Commit `op` from a worker on `core`, over a stack with nothing
    /// below the store: its discards go nowhere.
    fn commit(store: &MetaStore<Set>, ctx: &mut Ctx, core: usize, op: Op) -> bool {
        let stack = LabStack {
            id: 1,
            mount: "t".into(),
            exec: ExecMode::Sync,
            vertices: vec![Vertex {
                uuid: "store".into(),
                outputs: vec![],
            }],
            authorized_uids: vec![],
        };
        let mm = ModuleManager::new();
        let env = StackEnv::new(&stack, 0, &mm, 0);
        let req = Request::on_core(
            1,
            1,
            Payload::Block(BlockOp::Flush),
            Credentials::ROOT,
            core,
        );
        store.commit(ctx, &env, &req, &op)
    }

    /// Allocate a unit on `core` and insert it.
    fn insert_fresh(store: &MetaStore<Set>, ctx: &mut Ctx, core: usize) -> u64 {
        let unit = store.alloc_run(ctx, core, 1, None).expect("space");
        assert!(commit(store, ctx, core, Op::Insert(unit)));
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
        assert!(commit(&s, &mut ctx, 0, Op::Insert(1)));
        s.sync(&mut ctx).unwrap();
        let before = (log_bytes(&dev), ctx.now());

        assert!(!commit(&s, &mut ctx, 0, Op::Insert(1)), "already a member");
        assert!(!commit(&s, &mut ctx, 1, Op::Remove(9)), "not a member");
        assert_eq!(ctx.now(), before.1, "no append was charged");
        assert!(s.journal.seal_next(0).is_none(), "nothing is pending");
        assert!(s.journal.seal_next(1).is_none(), "nothing is pending");
        s.sync(&mut ctx).unwrap();
        assert_eq!(log_bytes(&dev), before.0);
        // The next frame of worker 0's log is still its second.
        assert!(commit(&s, &mut ctx, 0, Op::Insert(2)));
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
        assert!(commit(&old, &mut ctx, 1, Op::Remove(b)));
        old.sync(&mut ctx).unwrap();
        insert_fresh(&old, &mut ctx, 0); // never synced: lost with the crash

        let fresh = store(&dev);
        assert!(fresh.last_repair().is_none(), "no repair has run yet");
        assert!(
            commit(&fresh, &mut ctx, 0, Op::Insert(999)),
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
            let unit = fresh.alloc_run(&mut ctx, core, 1, None).unwrap();
            assert!(
                ![a, b, c].contains(&unit),
                "unit {unit} is named by the log"
            );
        }
    }

    #[test]
    fn a_freed_unit_is_reused_only_once_its_record_is_durable() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let s = store(&dev);
        let mut ctx = Ctx::new();
        let a = insert_fresh(&s, &mut ctx, 0);
        s.sync(&mut ctx).unwrap();
        assert!(commit(&s, &mut ctx, 0, Op::Remove(a)));
        // The removal is still in memory: a crash would bring `a` back.
        let b = s.alloc_run(&mut ctx, 0, 1, None).unwrap();
        assert_eq!(b, a + 1);
        s.sync(&mut ctx).unwrap();
        assert_eq!(s.alloc_run(&mut ctx, 0, 1, None), Some(a));
        // What still waits when a replay comes stays taken: the frame it
        // waits for may be the one the crash lost.
        assert!(commit(&s, &mut ctx, 0, Op::Insert(a)));
        assert!(commit(&s, &mut ctx, 0, Op::Remove(a)));
        s.replay();
        s.sync(&mut ctx).unwrap();
        for core in [0, 1, 0, 1] {
            let unit = s.alloc_run(&mut ctx, core, 1, None).unwrap();
            assert_ne!(unit, a);
        }
    }

    #[test]
    fn a_pinned_unit_waits_for_its_pin_and_holds_back_the_frees_behind_it() {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let s = store(&dev);
        let mut ctx = Ctx::new();
        let a = insert_fresh(&s, &mut ctx, 0);
        // `b` is in another pin region than `a`.
        let b = s
            .alloc_run(&mut ctx, 0, 1, Some(a + PIN_REGION_UNITS))
            .unwrap();
        assert!(commit(&s, &mut ctx, 0, Op::Insert(b)));
        s.sync(&mut ctx).unwrap();
        let pin = s.pins.pin(std::iter::once(a..a + 1));
        assert!(commit(&s, &mut ctx, 0, Op::Remove(a)));
        assert!(commit(&s, &mut ctx, 0, Op::Remove(b)));
        s.sync(&mut ctx).unwrap();
        // Durable, but a lookup still holds `a`, and `b` waits behind it.
        let c = s.alloc_run(&mut ctx, 0, 1, None).unwrap();
        assert_eq!(c, b + 1, "off the cursor");
        drop(pin);
        s.sync(&mut ctx).unwrap();
        assert_eq!(s.alloc_run(&mut ctx, 0, 1, None), Some(a));
        assert_eq!(s.alloc_run(&mut ctx, 0, 1, None), Some(b));
    }

    #[test]
    fn unnamed_units_are_reported_as_sorted_runs() {
        let mut units = Unnamed::Units(vec![9, 3, 4, 11, 10, 5]);
        units.sort();
        assert_eq!(units.runs().collect::<Vec<_>>(), [(3, 3), (9, 3)]);
        let run = Unnamed::Run(7..9);
        assert_eq!(run.runs().collect::<Vec<_>>(), [(7, 2)]);
        assert_eq!(Unnamed::NONE.runs().count(), 0);
        // Regions wrap around the mask: a pin covers a unit 64 regions on.
        let pins = Pins::default();
        let _pin = pins.pin(std::iter::once(0..1));
        assert!(pins.pinned(PIN_REGION_UNITS * PIN_REGIONS as u64, 1));
        assert!(!pins.pinned(PIN_REGION_UNITS, 1));
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
        assert!(commit(&s, &mut ctx, 0, Op::Insert(1)));
        s.sync(&mut ctx).unwrap();
        // A crash inside the one write of a second, two-sector frame: its
        // header sector landed, the rest of its payload did not.
        for n in 100..200 {
            assert!(commit(&s, &mut ctx, 0, Op::Insert(n)));
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
        assert!(commit(&s, &mut ctx, 0, Op::Insert(2)));
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
        assert!(commit(&s, &mut ctx, 0, Op::Insert(7)));
        assert!(commit(&s, &mut ctx, 1, Op::Remove(7)));
        assert!(commit(&s, &mut ctx, 0, Op::Insert(7)));
        s.sync(&mut ctx).unwrap();
        assert_eq!(members(&s), vec![7]);
        let fresh = store(&dev);
        assert!(fresh.replay().is_clean());
        assert_eq!(members(&fresh), vec![7], "the last acked op inserted 7");
    }
}
