//! The scalable per-worker block allocator of LabFS (paper §III-E): it
//! "evenly divides device blocks among the pool of workers. Workers can
//! steal from one another if more space is needed." LabKVS carves its
//! value extents from the same allocator, in sectors.
//!
//! Each shard keeps its free units in one tree of runs, seeded with its
//! share of the range. Everything moves free space as runs: a unit given
//! back (`BlockAllocator::free`) joins the runs it touches, a steal moves
//! the tail of another shard's highest run, and a replay's `reserve`
//! takes out exactly the units a record names. The engine gives a unit
//! back only once the record that freed it is durable and the stack
//! below has let it go (DESIGN.md §12).

use parking_lot::Mutex;

/// No node.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    first: u64,
    n: u64,
    priority: u64,
    left: u32,
    right: u32,
}

/// A free run: `(first, n)`.
type Run = (u64, u64);

/// Where a node hangs: the root, or a child link of a node.
#[derive(Clone, Copy)]
enum Link {
    Root,
    Left(u32),
    Right(u32),
}

/// Runs `first → n` ordered by `first`: a treap whose nodes live in one
/// `Vec`, their slots reused, so it allocates nothing once it has held
/// as many runs as it holds. A node's heap priority is drawn when it is
/// made, not hashed from its key, so a run's first unit can move in place
/// as long as it stays between its neighbours' (a carve off its head, a
/// give that joins it from the left). Finding a run and adding or
/// removing one are O(log n) expected.
#[derive(Clone)]
struct RunTree {
    nodes: Vec<Node>,
    /// Slots of `nodes` no run holds.
    spare: Vec<u32>,
    root: u32,
    /// Units in all runs.
    units: u64,
    /// Draws the next node's priority.
    draws: u64,
}

impl Default for RunTree {
    fn default() -> Self {
        RunTree {
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            units: 0,
            draws: 0,
        }
    }
}

impl RunTree {
    fn link(&self, at: Link) -> u32 {
        match at {
            Link::Root => self.root,
            Link::Left(t) => self.nodes[t as usize].left,
            Link::Right(t) => self.nodes[t as usize].right,
        }
    }

    fn set_link(&mut self, at: Link, to: u32) {
        match at {
            Link::Root => self.root = to,
            Link::Left(t) => self.nodes[t as usize].left = to,
            Link::Right(t) => self.nodes[t as usize].right = to,
        }
    }

    /// The link a search for `first` ends at: the run that starts there,
    /// or where it would go, stopping above any node whose priority is
    /// below `above`.
    fn search(&self, first: u64, above: u64) -> Link {
        let mut at = Link::Root;
        loop {
            let t = self.link(at);
            if t == NIL {
                return at;
            }
            let node = &self.nodes[t as usize];
            if node.first == first || node.priority < above {
                return at;
            }
            at = if first < node.first {
                Link::Left(t)
            } else {
                Link::Right(t)
            };
        }
    }

    /// Cut tree `t` into the runs that start before `key` and the rest.
    fn split(&mut self, t: u32, key: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        let node = self.nodes[t as usize];
        if node.first < key {
            let (l, r) = self.split(node.right, key);
            self.nodes[t as usize].right = l;
            (t, r)
        } else {
            let (l, r) = self.split(node.left, key);
            self.nodes[t as usize].left = r;
            (l, t)
        }
    }

    /// Join trees `a` and `b`, every run of `a` before every run of `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL || b == NIL {
            return if a == NIL { b } else { a };
        }
        if self.nodes[a as usize].priority > self.nodes[b as usize].priority {
            let right = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = right;
            a
        } else {
            let left = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = left;
            b
        }
    }

    /// Add run `first → n`; no run starts at `first`. Its priority is
    /// splitmix64 over a counter, so the tree is shaped as by a random
    /// insertion order whatever order the runs come in.
    fn insert(&mut self, first: u64, n: u64) {
        self.draws = self.draws.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.draws;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let priority = z ^ (z >> 31);
        let at = self.search(first, priority);
        let (left, right) = self.split(self.link(at), first);
        let node = Node {
            first,
            n,
            priority,
            left,
            right,
        };
        let t = match self.spare.pop() {
            Some(t) => {
                self.nodes[t as usize] = node;
                t
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.set_link(at, t);
        self.units += n;
    }

    /// Remove the run that starts at `first`.
    fn remove(&mut self, first: u64) {
        let at = self.search(first, 0);
        let t = self.link(at);
        let node = self.nodes[t as usize];
        let joined = self.merge(node.left, node.right);
        self.set_link(at, joined);
        self.spare.push(t);
        self.units -= node.n;
    }

    /// Make the run that starts at `first` start at `to` and hold `n`
    /// units; no other run starts between the two.
    fn replace(&mut self, first: u64, to: u64, n: u64) {
        let t = self.link(self.search(first, 0));
        let node = &mut self.nodes[t as usize];
        self.units = self.units - node.n + n;
        (node.first, node.n) = (to, n);
    }

    /// The runs just before and from `key`: the last that starts before
    /// it and the first that starts at or after it, in one descent.
    fn around(&self, key: u64) -> (Option<Run>, Option<Run>) {
        let (mut t, mut before, mut from) = (self.root, None, None);
        while t != NIL {
            let node = &self.nodes[t as usize];
            if node.first < key {
                before = Some((node.first, node.n));
                t = node.right;
            } else {
                from = Some((node.first, node.n));
                t = node.left;
            }
        }
        (before, from)
    }

    /// The lowest run, if it holds `n` units: take it out whole, or its
    /// head, in one descent.
    fn take_lowest(&mut self, n: u64) -> Option<u64> {
        let mut at = Link::Root;
        let mut t = self.root;
        if t == NIL {
            return None;
        }
        loop {
            let left = self.nodes[t as usize].left;
            if left == NIL {
                break;
            }
            at = Link::Left(t);
            t = left;
        }
        let node = &mut self.nodes[t as usize];
        if node.n < n {
            return None;
        }
        let first = node.first;
        if node.n > n {
            (node.first, node.n) = (first + n, node.n - n);
        } else {
            let right = node.right;
            self.set_link(at, right);
            self.spare.push(t);
        }
        self.units -= n;
        Some(first)
    }

    /// Every run, in order.
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut next = self.around(0).1;
        std::iter::from_fn(move || {
            let run = next?;
            next = self.around(run.0 + 1).1;
            Some(run)
        })
    }
}

/// A worker's free units: its share of the range at first, then what it
/// was given back or stole, as runs none touching the next.
struct AllocShard {
    free: RunTree,
}

impl AllocShard {
    /// `[goal, goal + n)`, when all of it is free. O(log n).
    fn take_at(&mut self, goal: u64, n: u64) -> Option<u64> {
        let (first, len) = self.free.around(goal + 1).0?;
        if goal + n > first + len {
            return None;
        }
        self.carve(first, len, goal, n);
        Some(goal)
    }

    /// First fit: the head of the lowest free run that holds `n` units.
    /// O(log n), one descent, when the lowest run holds them, as every
    /// run does when requests are one size (LabFS's pages, a store of
    /// equal values); each run too short costs one more O(log n) step.
    fn take_free(&mut self, n: u64) -> Option<u64> {
        if let Some(first) = self.free.take_lowest(n) {
            return Some(first);
        }
        let (first, len) = self.free.runs().find(|&(_, len)| len >= n)?;
        self.carve(first, len, first, n);
        Some(first)
    }

    /// Take every free unit of `[start, end)` out, whatever runs they lie
    /// in. O(log n) per run it cuts.
    fn take_out(&mut self, start: u64, end: u64) {
        let mut at = start;
        while at < end {
            let (first, len) = match self.free.around(at + 1) {
                (Some((first, len)), _) if first + len > at => (first, len),
                (_, Some(run)) if run.0 < end => run,
                _ => return,
            };
            let (from, to) = (first.max(at), (first + len).min(end));
            self.carve(first, len, from, to - from);
            at = to;
        }
    }

    /// Remove `[at, at + n)`, which lies inside free run `first → len`.
    fn carve(&mut self, first: u64, len: u64, at: u64, n: u64) {
        let tail = first + len - at - n;
        match (at == first, tail > 0) {
            (true, true) => self.free.replace(first, at + n, tail),
            (true, false) => self.free.remove(first),
            (false, _) => {
                self.free.replace(first, first, at - first);
                if tail > 0 {
                    self.free.insert(at + n, tail);
                }
            }
        }
    }

    /// Put `[first, first + n)` on the free list, joined to the runs it
    /// touches: one descent finds both, and a run that joins them moves
    /// in place. O(log n).
    fn give(&mut self, first: u64, n: u64) {
        let (left, right) = self.free.around(first);
        let left = left.filter(|&(f, len)| f + len == first);
        let right = right.filter(|&(f, _)| f == first + n).map(|(_, len)| len);
        match (left, right) {
            (Some((f, len)), Some(more)) => {
                self.free.remove(first + n);
                self.free.replace(f, f, len + n + more);
            }
            (Some((f, len)), None) => self.free.replace(f, f, len + n),
            (None, Some(more)) => self.free.replace(first + n, first, n + more),
            (None, None) => self.free.insert(first, n),
        }
    }
}

/// The per-worker allocator with stealing. It hands out *units*: LabFS
/// instantiates it over 4 KiB blocks, LabKVS over 512-byte sectors.
pub struct BlockAllocator {
    shards: Vec<Mutex<AllocShard>>,
    /// Units a needy shard takes from the richest one.
    steal_batch: u64,
}

impl BlockAllocator {
    /// Divide `[start, end)` units evenly across `workers` shards.
    pub fn new(start: u64, end: u64, workers: usize, steal_batch: u64) -> Self {
        let workers = workers.max(1) as u64;
        let per = (end - start) / workers;
        let shard = |w: u64| {
            let from = start + w * per;
            let to = if w == workers - 1 { end } else { from + per };
            let mut shard = AllocShard {
                free: RunTree::default(),
            };
            if from < to {
                shard.give(from, to - from);
            }
            Mutex::new(shard)
        };
        BlockAllocator {
            shards: (0..workers).map(shard).collect(),
            steal_batch: steal_batch.max(1),
        }
    }

    /// Allocate `n` contiguous units from `worker`'s shard and return the
    /// first: `[goal, goal + n)` when the shard holds it free (a file that
    /// grows stays one run, as ext4's goal block keeps it), else first
    /// fit. A shard that cannot fit the run steals a batch from the tail
    /// of the richest other shard's highest run; last come the other
    /// shards' runs, first fit. `None` when no shard holds `n` contiguous
    /// units.
    pub fn alloc_run(&self, worker: usize, n: u64, goal: Option<u64>) -> Option<u64> {
        let w = worker % self.shards.len();
        let mine = {
            let mut shard = self.shards[w].lock();
            goal.and_then(|goal| shard.take_at(goal, n))
                .or_else(|| shard.take_free(n))
        };
        mine.or_else(|| self.steal(w, n)).or_else(|| {
            (0..self.shards.len())
                .filter(|&v| v != w)
                .find_map(|v| self.shards[v].lock().take_free(n))
        })
    }

    /// Carve `steal_batch.max(n)` units (the whole run, if it is shorter)
    /// off the tail of the richest other shard's highest run, hand out
    /// their first `n` and give the rest to shard `w`. `None` when that
    /// run holds fewer than `n`.
    fn steal(&self, w: usize, n: u64) -> Option<u64> {
        let victim = (0..self.shards.len())
            .filter(|&v| v != w)
            .max_by_key(|&v| self.shards[v].lock().free.units)?;
        let (first, take) = {
            let mut s = self.shards[victim].lock();
            let (first, len) = s.free.around(u64::MAX).0?;
            if len < n {
                return None;
            }
            let take = self.steal_batch.max(n).min(len);
            s.carve(first, len, first + len - take, take);
            (first + len - take, take)
        };
        if take > n {
            self.shards[w].lock().give(first + n, take - n);
        }
        Some(first)
    }

    /// Give `[first, first + n)` back to `worker`'s shard: it joins the
    /// runs it touches.
    pub(crate) fn free(&self, worker: usize, first: u64, n: u64) {
        self.shards[worker % self.shards.len()]
            .lock()
            .give(first, n);
    }

    /// Live upgrade: continue from `prev`'s free runs, so nothing `prev`
    /// handed out is handed out again. Shards pair up by index: see the
    /// precondition on `MetaStore::absorb`, its one caller.
    pub(crate) fn absorb(&self, prev: &BlockAllocator) {
        for (mine, theirs) in self.shards.iter().zip(prev.shards.iter()) {
            mine.lock().free.clone_from(&theirs.lock().free);
        }
    }

    /// Recovery: units `[start, end)` are named by a replayed log record;
    /// take every one of them out of the shard that holds it free, so
    /// none is handed out again. Exact, in any order: nothing else leaves.
    pub(crate) fn reserve(&self, start: u64, end: u64) {
        for shard in &self.shards {
            shard.lock().take_out(start, end);
        }
    }

    /// Total free units.
    // api-ok: tests/properties.rs checks no block is lost across decommissions
    pub fn free_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().free.units).sum()
    }

    /// Decommission worker `w`: its free runs move to the running worker
    /// that holds the fewest free units ("if the number of workers
    /// decreases, free blocks of the decommissioned workers are assigned
    /// to running workers", §III-E), each joined to the runs it touches.
    // api-ok: §III-E worker decommission (tests/properties.rs)
    pub fn decommission(&self, w: usize) {
        let w = w % self.shards.len();
        let needy = (0..self.shards.len())
            .filter(|&v| v != w)
            .min_by_key(|&v| self.shards[v].lock().free.units);
        let Some(v) = needy else { return };
        // Lock in index order to avoid deadlock with concurrent callers.
        let (mut a, mut b) = if w < v {
            let a = self.shards[w].lock();
            let b = self.shards[v].lock();
            (a, b)
        } else {
            let b = self.shards[v].lock();
            let a = self.shards[w].lock();
            (a, b)
        };
        for (first, n) in std::mem::take(&mut a.free).runs() {
            b.give(first, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Shard `w`'s free list as `(first, n)` runs in order.
    fn free_runs(a: &BlockAllocator, w: usize) -> Vec<(u64, u64)> {
        a.shards[w].lock().free.runs().collect()
    }

    #[test]
    fn allocator_steals_when_shard_empty() {
        let a = BlockAllocator::new(0, 100, 4, 8);
        // Drain shard 0 (25 blocks), then keep allocating: stealing kicks in.
        let mut got = std::collections::HashSet::new();
        for _ in 0..80 {
            let b = a.alloc_run(0, 1, None).expect("steals from other shards");
            assert!(got.insert(b), "no double allocation");
        }
        assert!(a.free_blocks() <= 20);
    }

    #[test]
    fn decommission_moves_blocks_to_running_workers() {
        let a = BlockAllocator::new(0, 100, 4, 8);
        let before = a.free_blocks();
        a.decommission(2);
        assert_eq!(a.free_blocks(), before, "no blocks lost in the move");
        // Worker 2's shard is empty; other workers can still allocate all
        // remaining blocks (via their shards or stealing).
        let mut seen = std::collections::HashSet::new();
        while let Some(b) = a.alloc_run(0, 1, None) {
            assert!(seen.insert(b));
        }
        assert_eq!(seen.len() as u64, before);
    }

    #[test]
    fn allocator_exhausts_cleanly() {
        let a = BlockAllocator::new(0, 16, 2, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(a.alloc_run(0, 1, None).unwrap()));
        }
        assert!(a.alloc_run(0, 1, None).is_none());
        assert!(a.alloc_run(1, 1, None).is_none());
    }

    #[test]
    fn alloc_sequence_is_the_recorded_one() {
        // (worker, block) pairs recorded from the allocator as it was
        // before `alloc_run`: own shard first, then 8-block batches from
        // the tail of the richest other shard (the last one on a tie).
        let a = BlockAllocator::new(10, 50, 4, 8);
        let workers = [0usize; 12]
            .into_iter()
            .chain([1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2]);
        let got: Vec<u64> = workers
            .map(|w| a.alloc_run(w, 1, None).expect("space left"))
            .collect();
        assert_eq!(
            got,
            vec![
                10, 11, 12, 13, 14, 15, 16, 17, 18, 19, // worker 0's own shard
                42, 43, // stolen from worker 3's tail
                20, 21, 40, // workers 1, 1, 3
                44, 45, 46, 47, 48, 49, // the rest of the batch
                32, 33, // a second batch, from worker 2's tail
                30,
            ]
        );
    }

    #[test]
    fn alloc_run_hands_out_contiguous_runs_and_exhausts_cleanly() {
        let a = BlockAllocator::new(0, 64, 2, 16);
        assert_eq!(a.alloc_run(0, 20, None), Some(0));
        // 12 units left in shard 0: a run of 13 steals max(batch, n), and
        // the batch's rest, [61, 64), joins shard 0's runs.
        assert_eq!(a.alloc_run(0, 13, None), Some(48));
        assert_eq!(free_runs(&a, 0), vec![(20, 12), (61, 3)]);
        // Nothing is stranded: first fit serves the run from before.
        assert_eq!(a.alloc_run(0, 3, None), Some(20));
        // Shard 0 holds [23, 32) and [61, 64), shard 1 [32, 48): 17 do
        // not fit anywhere.
        assert_eq!(a.alloc_run(0, 17, None), None);
        assert_eq!(a.alloc_run(1, 17, None), None);
        assert_eq!(a.alloc_run(1, 16, None), Some(32));
        // Shard 0's highest run is too short to steal from; its other
        // run serves first fit.
        assert_eq!(a.alloc_run(1, 10, None), None);
        assert_eq!(a.alloc_run(1, 9, None), Some(23));
        assert_eq!(a.alloc_run(1, 1, None), Some(61));
        assert_eq!(free_runs(&a, 1), vec![(62, 2)]);
        assert_eq!(a.alloc_run(0, 3, None), None);
        assert_eq!(a.alloc_run(0, 2, None), Some(62));
        assert_eq!(a.free_blocks(), 0, "every unit went out");
        assert_eq!(a.alloc_run(1, 1, None), None);
        assert_eq!(a.alloc_run(0, 1, None), None);
        // One shard, nobody to steal from.
        let solo = BlockAllocator::new(0, 4, 1, 8);
        assert_eq!(solo.alloc_run(0, 5, None), None);
        assert_eq!(solo.alloc_run(0, 4, None), Some(0));
        assert_eq!(solo.alloc_run(0, 1, None), None);
    }

    #[test]
    fn concurrent_alloc_runs_never_overlap() {
        // Four workers, shards far smaller than the demand, so most runs
        // come out of stolen batches.
        let a = BlockAllocator::new(0, 40_000, 4, 64);
        let start = std::sync::Barrier::new(4);
        let runs: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|w| {
                    let (a, start) = (&a, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut mine = Vec::new();
                        // Worker 0 asks for far more than its shard holds.
                        let rounds = if w == 0 { 3_000 } else { 300 };
                        for i in 0..rounds {
                            let n = 1 + (i * 7 + w as u64) % 9;
                            if let Some(first) = a.alloc_run(w, n, None) {
                                mine.push((first, first + n));
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("allocating thread"))
                .collect()
        });
        let mut sorted = runs;
        sorted.sort_unstable();
        assert!(sorted.len() > 3_000, "stealing kept worker 0 going");
        assert!(sorted.last().is_some_and(|r| r.1 <= 40_000));
        for pair in sorted.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "runs overlap: {pair:?}");
        }
    }

    #[test]
    fn units_given_back_join_the_free_runs_and_go_out_first_fit() {
        let a = BlockAllocator::new(0, 100, 2, 8);
        let got: Vec<u64> = (0..10).map(|_| a.alloc_run(0, 1, None).unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // Runs given back join the ones they touch.
        for (first, n) in [(6, 2), (2, 1), (1, 1), (8, 1), (3, 1)] {
            a.free(0, first, n);
        }
        assert_eq!(free_runs(&a, 0), vec![(1, 3), (6, 3), (10, 40)]);
        assert_eq!(a.free_blocks(), 40 + 6 + 50);
        // First fit: the first run that holds all of it.
        assert_eq!(a.alloc_run(0, 3, None), Some(1));
        assert_eq!(a.alloc_run(0, 1, None), Some(6));
        // A goal inside a run splits it; a goal that is not free is
        // passed over.
        a.free(0, 1, 3);
        assert_eq!(a.alloc_run(0, 1, Some(2)), Some(2));
        assert_eq!(free_runs(&a, 0), vec![(1, 1), (3, 1), (7, 2), (10, 40)]);
        assert_eq!(a.alloc_run(0, 2, Some(3)), Some(7), "3 holds one unit");
        assert_eq!(a.alloc_run(0, 1, Some(10)), Some(10));
        assert_eq!(a.alloc_run(0, 1, Some(40)), Some(40));
        assert_eq!(free_runs(&a, 0), vec![(1, 1), (3, 1), (11, 29), (41, 9)]);
        assert_eq!(a.alloc_run(0, 1, None), Some(1));
        assert_eq!(a.alloc_run(0, 1, None), Some(3));
        assert_eq!(a.alloc_run(0, 1, None), Some(11));
        // A dry shard reaches the runs another shard was given back.
        let b = BlockAllocator::new(0, 4, 2, 8);
        assert_eq!(b.alloc_run(0, 2, None), Some(0));
        assert_eq!(b.alloc_run(1, 2, None), Some(2));
        b.free(1, 3, 1);
        assert_eq!(b.alloc_run(0, 1, None), Some(3));
        assert_eq!(b.alloc_run(0, 1, None), None);
    }

    /// What a free list of `units` free units answers, run by run.
    fn maximal_runs(units: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &u in units {
            match runs.last_mut() {
                Some((f, n)) if *f + *n == u => *n += 1,
                _ => runs.push((u, 1)),
            }
        }
        runs
    }

    proptest::proptest! {
        /// The free list against a set of free units: it holds their
        /// maximal runs, a goal is served exactly when all of its units
        /// are free, and first fit takes the head of the lowest run long
        /// enough. Slots are reused: the tree never holds more nodes than
        /// it held runs at its fullest.
        #[test]
        fn the_free_list_matches_a_set_of_units(
            ops in proptest::collection::vec((0u8..3, 0u64..256, 1u64..6), 1..400),
        ) {
            let mut shard = AllocShard { free: RunTree::default() };
            let mut model = BTreeSet::new();
            let mut most = 0;
            for (kind, at, n) in ops {
                match kind {
                    0 => {
                        // Give back what is not free yet.
                        let units: Vec<u64> = (at..at + n).filter(|u| !model.contains(u)).collect();
                        for u in units {
                            shard.give(u, 1);
                            model.insert(u);
                        }
                    }
                    1 => {
                        let want = (at..at + n).all(|u| model.contains(&u)).then_some(at);
                        proptest::prop_assert_eq!(shard.take_at(at, n), want);
                        if want.is_some() {
                            (at..at + n).for_each(|u| { model.remove(&u); });
                        }
                    }
                    _ => {
                        let want = maximal_runs(&model).into_iter().find(|r| r.1 >= n).map(|r| r.0);
                        proptest::prop_assert_eq!(shard.take_free(n), want);
                        if let Some(first) = want {
                            (first..first + n).for_each(|u| { model.remove(&u); });
                        }
                    }
                }
                let runs: Vec<(u64, u64)> = shard.free.runs().collect();
                proptest::prop_assert_eq!(&runs, &maximal_runs(&model));
                proptest::prop_assert_eq!(shard.free.units, model.len() as u64);
                most = most.max(runs.len());
                proptest::prop_assert!(shard.free.nodes.len() <= most + 1);
            }
        }

        /// The whole allocator against a set of units handed out: runs
        /// with and without a goal on any worker, frees, decommissions, a
        /// live upgrade (`absorb` into a fresh allocator) and a restart
        /// (`reserve` of every run still out, into a fresh one). No unit
        /// goes out twice or out of range, and the free count is the
        /// model's, exactly: a steal strands nothing and a replay leaks
        /// nothing.
        #[test]
        fn the_allocator_matches_a_set_of_units(
            workers in 3usize..5,
            batch in 1u64..8,
            ops in proptest::collection::vec((0u8..6, 0usize..8, 1u64..6, 0u64..96), 1..300),
        ) {
            const START: u64 = 16;
            const END: u64 = 96;
            let fresh = || BlockAllocator::new(START, END, workers, batch);
            let mut a = fresh();
            let mut taken = BTreeSet::new();
            let mut out: Vec<(u64, u64)> = Vec::new();
            for (kind, w, n, at) in ops {
                match kind {
                    0 | 1 => match a.alloc_run(w, n, (kind == 1).then_some(at)) {
                        Some(first) => {
                            proptest::prop_assert!(START <= first && first + n <= END, "run {}+{} out of range", first, n);
                            for u in first..first + n {
                                proptest::prop_assert!(taken.insert(u), "unit {} handed out twice", u);
                            }
                            out.push((first, n));
                        }
                        None => proptest::prop_assert!(n > 1 || taken.len() as u64 == END - START, "one unit refused while some are free"),
                    },
                    2 if !out.is_empty() => {
                        let (first, n) = out.swap_remove(at as usize % out.len());
                        a.free(w, first, n);
                        (first..first + n).for_each(|u| { taken.remove(&u); });
                    }
                    3 => a.decommission(w),
                    4 => {
                        let upgraded = fresh();
                        upgraded.absorb(&a);
                        a = upgraded;
                    }
                    5 => {
                        let restarted = fresh();
                        for &(first, n) in &out {
                            restarted.reserve(first, first + n);
                        }
                        a = restarted;
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(a.free_blocks(), END - START - taken.len() as u64);
            }
        }
    }

    #[test]
    fn decommission_and_absorb_carry_the_free_lists() {
        let a = BlockAllocator::new(0, 64, 2, 8);
        for _ in 0..6 {
            a.alloc_run(0, 1, None).unwrap();
        }
        a.free(0, 1, 2);
        a.free(0, 4, 1);
        let upgraded = BlockAllocator::new(0, 64, 2, 8);
        upgraded.absorb(&a);
        assert_eq!(upgraded.free_blocks(), a.free_blocks());
        assert_eq!(upgraded.alloc_run(0, 2, None), Some(1));
        let before = a.free_blocks();
        a.decommission(0);
        assert_eq!(a.free_blocks(), before);
        // Shard 0's runs join shard 1's: [6, 32) touches [32, 64).
        assert_eq!(free_runs(&a, 0), vec![]);
        assert_eq!(free_runs(&a, 1), vec![(1, 2), (4, 1), (6, 58)]);
        assert_eq!(a.alloc_run(1, 1, None), Some(1));
    }

    #[test]
    fn reserve_and_absorb_keep_named_units_out_of_reach() {
        // Worker 0 drains its shard and steals a batch from worker 1's tail.
        let a = BlockAllocator::new(0, 200, 2, 16);
        let mut named: Vec<(u64, u64)> = Vec::new();
        for n in [60u64, 40, 5, 5] {
            let first = a.alloc_run(0, n, None).expect("space left");
            named.push((first, first + n));
        }
        let first = a.alloc_run(1, 10, None).expect("space left");
        named.push((first, first + 10));
        assert_eq!(named[2], (184, 189), "the third run opened a stolen batch");

        // Live upgrade: the new instance continues from the old free runs.
        let upgraded = BlockAllocator::new(0, 200, 2, 16);
        upgraded.absorb(&a);
        assert_eq!(upgraded.free_blocks(), a.free_blocks());
        // Restart: a fresh instance is told what the replayed log names,
        // in any order.
        let restarted = BlockAllocator::new(0, 200, 2, 16);
        for &(from, to) in named.iter().rev() {
            restarted.reserve(from, to);
        }
        // Nothing leaks: the stolen batch's unused rest is free too.
        assert_eq!(restarted.free_blocks(), a.free_blocks());
        for alloc in [&upgraded, &restarted] {
            for w in [0, 1, 0, 1] {
                while let Some(b) = alloc.alloc_run(w, 1, None) {
                    assert!(
                        named.iter().all(|&(from, to)| b < from || b >= to),
                        "unit {b} handed out twice"
                    );
                }
            }
        }
    }
}
