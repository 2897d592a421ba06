//! The scalable per-worker block allocator of LabFS (paper §III-E): it
//! "evenly divides device blocks among the pool of workers. Workers can
//! steal from one another if more space is needed." LabKVS carves its
//! value extents from the same allocator, in sectors.
//!
//! Each shard hands out units from a bump range and from a free list of
//! units given back (`BlockAllocator::free`), the free list first. The
//! engine gives a unit back only once the record that freed it is
//! durable and the stack below has let it go (DESIGN.md §12).

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

    /// Remove every run, keeping the slots.
    fn clear(&mut self) {
        self.nodes.clear();
        self.spare.clear();
        self.root = NIL;
        self.units = 0;
    }
}

struct AllocShard {
    next: u64,
    end: u64,
    /// Units given back, as runs none touching the next.
    free: RunTree,
}

impl AllocShard {
    /// `[goal, goal + n)` out of the free list or off the bump cursor,
    /// when all of it is there. O(log n).
    fn take_at(&mut self, goal: u64, n: u64) -> Option<u64> {
        if goal == self.next && self.end - self.next >= n {
            self.next += n;
            return Some(goal);
        }
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

    fn available(&self) -> u64 {
        self.end - self.next + self.free.units
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
        let workers = workers.max(1);
        let per = (end - start) / workers as u64;
        BlockAllocator {
            shards: (0..workers as u64)
                .map(|w| {
                    Mutex::new(AllocShard {
                        next: start + w * per,
                        end: if w == workers as u64 - 1 {
                            end
                        } else {
                            start + (w + 1) * per
                        },
                        free: RunTree::default(),
                    })
                })
                .collect(),
            steal_batch: steal_batch.max(1),
        }
    }

    /// Allocate `n` contiguous units from `worker`'s shard and return the
    /// first: `[goal, goal + n)` when the shard holds it free (a file that
    /// grows stays one run, as ext4's goal block keeps it), else first fit
    /// from the units given back, else off the bump cursor. A shard that
    /// cannot fit the run replaces its range with a batch stolen from the
    /// tail of the richest other shard; the fewer than `n` units it still
    /// held are not handed out again (none when `n` is 1). Last come the
    /// units given back to other shards. `None` when no shard holds `n`
    /// contiguous units.
    pub fn alloc_run(&self, worker: usize, n: u64, goal: Option<u64>) -> Option<u64> {
        let w = worker % self.shards.len();
        {
            let mut shard = self.shards[w].lock();
            if let Some(first) = goal.and_then(|goal| shard.take_at(goal, n)) {
                return Some(first);
            }
            if let Some(first) = shard.take_free(n) {
                return Some(first);
            }
            if shard.end - shard.next >= n {
                let first = shard.next;
                shard.next += n;
                return Some(first);
            }
        }
        if let Some(first) = self.steal(w, n) {
            return Some(first);
        }
        (0..self.shards.len())
            .filter(|&v| v != w)
            .find_map(|v| self.shards[v].lock().take_free(n))
    }

    /// Replace shard `w`'s range with a batch from the tail of the richest
    /// other shard's, and take `n` units off its head.
    fn steal(&self, w: usize, n: u64) -> Option<u64> {
        let victim = (0..self.shards.len())
            .filter(|&v| v != w)
            .max_by_key(|&v| {
                let s = self.shards[v].lock();
                s.end - s.next
            })?;
        let (steal_start, steal_end) = {
            let mut s = self.shards[victim].lock();
            let available = s.end - s.next;
            if available < n {
                return None;
            }
            let take = self.steal_batch.max(n).min(available);
            let start = s.end - take;
            s.end = start;
            (start, start + take)
        };
        let mut shard = self.shards[w].lock();
        shard.next = steal_start + n;
        shard.end = steal_end;
        Some(steal_start)
    }

    /// Give `[first, first + n)` back to `worker`'s shard: its next runs
    /// come from these units first.
    pub(crate) fn free(&self, worker: usize, first: u64, n: u64) {
        self.shards[worker % self.shards.len()]
            .lock()
            .give(first, n);
    }

    /// Live upgrade: continue from `prev`'s cursors and free lists, so
    /// nothing `prev` handed out is handed out again. Shards pair up by
    /// index: see the precondition on `MetaStore::absorb`, its one caller.
    pub(crate) fn absorb(&self, prev: &BlockAllocator) {
        for (mine, theirs) in self.shards.iter().zip(prev.shards.iter()) {
            let theirs = theirs.lock();
            let mut mine = mine.lock();
            (mine.next, mine.end) = (theirs.next, theirs.end);
            mine.free.clone_from(&theirs.free);
        }
    }

    /// Recovery: units `[start, end)` are named by a replayed log record;
    /// make sure no shard's bump range hands any of them out again. A shard that still
    /// holds part of the range gives up the shorter side of it — for
    /// records replayed in allocation order that is nothing (the cursor
    /// moves past the run), and for the first run of a batch that was
    /// stolen from this shard's tail it is the unused rest of that batch,
    /// so the leak is at most one steal batch per steal that happened.
    pub(crate) fn reserve(&self, start: u64, end: u64) {
        for shard in &self.shards {
            let mut s = shard.lock();
            let (from, to) = (start.max(s.next), end.min(s.end));
            if from >= to {
                continue;
            }
            if from - s.next <= s.end - to {
                s.next = to;
            } else {
                s.end = from;
            }
        }
    }

    /// Total free units.
    // api-ok: tests/properties.rs checks no block is lost across decommissions
    pub fn free_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().available()).sum()
    }

    /// Decommission worker `w`: its remaining blocks are reassigned to
    /// running workers ("if the number of workers decreases, free blocks
    /// of the decommissioned workers are assigned to running workers",
    /// §III-E). Its free list joins the peer's. Its bump range is one
    /// contiguous range, so it moves wholesale when a peer can absorb it
    /// (empty or adjacent); otherwise it stays in place where the steal
    /// path hands it out — either way every block remains allocatable
    /// exactly once.
    // api-ok: §III-E worker decommission (tests/properties.rs)
    pub fn decommission(&self, w: usize) {
        let w = w % self.shards.len();
        let needy = (0..self.shards.len()).filter(|&v| v != w).min_by_key(|&v| {
            let s = self.shards[v].lock();
            s.end - s.next
        });
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
        let runs: Vec<(u64, u64)> = a.free.runs().collect();
        a.free.clear();
        for (first, n) in runs {
            b.give(first, n);
        }
        if a.next >= a.end {
            return; // no range to donate
        }
        if b.next >= b.end {
            // Peer empty: adopt the range wholesale.
            b.next = a.next;
            b.end = a.end;
            a.next = a.end;
        } else if b.end == a.next {
            // Adjacent: extend the peer.
            b.end = a.end;
            a.next = a.end;
        }
        // Non-adjacent, non-empty peer: leave the donor range in place —
        // the steal path redistributes it on demand.
    }
}

#[cfg(test)]
mod tests {
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
        // 12 units left in shard 0: a run of 13 steals max(batch, n).
        assert_eq!(a.alloc_run(0, 13, None), Some(48));
        assert_eq!(a.alloc_run(0, 3, None), Some(61));
        // Shard 0 is dry and shard 1 holds [32, 48): 17 do not fit anywhere.
        assert_eq!(a.alloc_run(0, 17, None), None);
        assert_eq!(a.alloc_run(1, 17, None), None);
        assert_eq!(a.alloc_run(1, 16, None), Some(32));
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
    fn units_given_back_go_out_first_fit_before_the_cursor_moves() {
        let a = BlockAllocator::new(0, 100, 2, 8);
        let got: Vec<u64> = (0..10).map(|_| a.alloc_run(0, 1, None).unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // Runs given back join the ones they touch.
        for (first, n) in [(6, 2), (2, 1), (1, 1), (8, 1), (3, 1)] {
            a.free(0, first, n);
        }
        assert_eq!(free_runs(&a, 0), vec![(1, 3), (6, 3)]);
        assert_eq!(a.free_blocks(), 40 + 6 + 50);
        // First fit: the first run that holds all of it.
        assert_eq!(a.alloc_run(0, 3, None), Some(1));
        assert_eq!(a.alloc_run(0, 1, None), Some(6));
        // A goal inside a run splits it; a goal that is not free is
        // passed over; the cursor serves a goal at the cursor only.
        a.free(0, 1, 3);
        assert_eq!(a.alloc_run(0, 1, Some(2)), Some(2));
        assert_eq!(free_runs(&a, 0), vec![(1, 1), (3, 1), (7, 2)]);
        assert_eq!(a.alloc_run(0, 2, Some(3)), Some(7), "3 holds one unit");
        assert_eq!(a.alloc_run(0, 1, Some(10)), Some(10));
        assert_eq!(a.alloc_run(0, 1, Some(40)), Some(1));
        assert_eq!(a.alloc_run(0, 1, None), Some(3));
        assert_eq!(a.alloc_run(0, 1, None), Some(11), "the list is dry");
        // A dry shard reaches the runs another shard was given back.
        let b = BlockAllocator::new(0, 4, 2, 8);
        assert_eq!(b.alloc_run(0, 2, None), Some(0));
        assert_eq!(b.alloc_run(1, 2, None), Some(2));
        b.free(1, 3, 1);
        assert_eq!(b.alloc_run(0, 1, None), Some(3));
        assert_eq!(b.alloc_run(0, 1, None), None);
    }

    /// What a free list of `units` free units answers, run by run.
    fn maximal_runs(units: &std::collections::BTreeSet<u64>) -> Vec<(u64, u64)> {
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
            let mut shard = AllocShard { next: 0, end: 0, free: RunTree::default() };
            let mut model = std::collections::BTreeSet::new();
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
                proptest::prop_assert_eq!(shard.available(), model.len() as u64);
                most = most.max(runs.len());
                proptest::prop_assert!(shard.free.nodes.len() <= most + 1);
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
        assert_eq!(free_runs(&a, 1), vec![(1, 2), (4, 1)]);
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

        // Live upgrade: the new instance continues from the old cursors.
        let upgraded = BlockAllocator::new(0, 200, 2, 16);
        upgraded.absorb(&a);
        assert_eq!(upgraded.free_blocks(), a.free_blocks());
        // Restart: a fresh instance is told what the replayed log names.
        let restarted = BlockAllocator::new(0, 200, 2, 16);
        for &(from, to) in &named {
            restarted.reserve(from, to);
        }
        // Nothing leaks but the unused rest of the stolen batch.
        assert_eq!(restarted.free_blocks(), a.free_blocks() - 6);
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
