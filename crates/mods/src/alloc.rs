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

struct AllocShard {
    next: u64,
    end: u64,
    /// Units given back, as `(first, n)` runs sorted by `first`, none
    /// touching the next.
    free: Vec<(u64, u64)>,
}

impl AllocShard {
    /// `[goal, goal + n)` out of the free list or off the bump cursor,
    /// when all of it is there; `(goal, reused)`.
    fn take_at(&mut self, goal: u64, n: u64) -> Option<(u64, bool)> {
        if goal == self.next && self.end - self.next >= n {
            self.next += n;
            return Some((goal, false));
        }
        let i = self.free.partition_point(|&(first, _)| first <= goal);
        let (first, len) = *self.free.get(i.checked_sub(1)?)?;
        if goal + n > first + len {
            return None;
        }
        self.carve(i - 1, goal, n);
        Some((goal, true))
    }

    /// First fit: the head of the first free run that holds `n` units.
    fn take_free(&mut self, n: u64) -> Option<u64> {
        let i = self.free.iter().position(|&(_, len)| len >= n)?;
        let first = self.free[i].0;
        self.carve(i, first, n);
        Some(first)
    }

    /// Remove `[at, at + n)`, which lies inside free run `i`.
    fn carve(&mut self, i: usize, at: u64, n: u64) {
        let (first, len) = self.free[i];
        let tail = (at + n, first + len - at - n);
        match (at == first, tail.1 == 0) {
            (true, true) => {
                self.free.remove(i);
            }
            (true, false) => self.free[i] = tail,
            (false, true) => self.free[i].1 = at - first,
            (false, false) => {
                self.free[i].1 = at - first;
                self.free.insert(i + 1, tail);
            }
        }
    }

    /// Put `[first, first + n)` on the free list, joined to the runs it
    /// touches.
    fn give(&mut self, first: u64, n: u64) {
        let i = self.free.partition_point(|&(f, _)| f < first);
        let left = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == first;
        let right = self.free.get(i).is_some_and(|&(f, _)| f == first + n);
        match (left, right) {
            (true, true) => {
                let (_, len) = self.free.remove(i);
                self.free[i - 1].1 += n + len;
            }
            (true, false) => self.free[i - 1].1 += n,
            (false, true) => self.free[i] = (first, self.free[i].1 + n),
            (false, false) => self.free.insert(i, (first, n)),
        }
    }

    fn available(&self) -> u64 {
        self.end - self.next + self.free.iter().map(|&(_, n)| n).sum::<u64>()
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
                        free: Vec::new(),
                    })
                })
                .collect(),
            steal_batch: steal_batch.max(1),
        }
    }

    /// Allocate `n` contiguous units from `worker`'s shard and return the
    /// first: first fit from the units given back, else off the bump
    /// cursor. A shard that cannot fit the run replaces its range with a
    /// batch stolen from the tail of the richest other shard; the fewer
    /// than `n` units it still held are not handed out again (none when
    /// `n` is 1). Last come the units given back to other shards. `None`
    /// when no shard holds `n` contiguous units.
    pub fn alloc_run(&self, worker: usize, n: u64) -> Option<u64> {
        self.take(worker, n, None).map(|(first, _)| first)
    }

    /// [`BlockAllocator::alloc_run`], starting at `goal` when `worker`'s
    /// shard holds `[goal, goal + n)` free (a file that grows stays one
    /// run, as ext4's goal block keeps it), and saying whether the run
    /// was given back before (`true`) or never handed out.
    pub(crate) fn take(&self, worker: usize, n: u64, goal: Option<u64>) -> Option<(u64, bool)> {
        let w = worker % self.shards.len();
        {
            let mut shard = self.shards[w].lock();
            if let Some(got) = goal.and_then(|goal| shard.take_at(goal, n)) {
                return Some(got);
            }
            if let Some(first) = shard.take_free(n) {
                return Some((first, true));
            }
            if shard.end - shard.next >= n {
                let first = shard.next;
                shard.next += n;
                return Some((first, false));
            }
        }
        if let Some(first) = self.steal(w, n) {
            return Some((first, false));
        }
        (0..self.shards.len())
            .filter(|&v| v != w)
            .find_map(|v| Some((self.shards[v].lock().take_free(n)?, true)))
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
        for (first, n) in a.free.drain(..) {
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

    #[test]
    fn allocator_steals_when_shard_empty() {
        let a = BlockAllocator::new(0, 100, 4, 8);
        // Drain shard 0 (25 blocks), then keep allocating: stealing kicks in.
        let mut got = std::collections::HashSet::new();
        for _ in 0..80 {
            let b = a.alloc_run(0, 1).expect("steals from other shards");
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
        while let Some(b) = a.alloc_run(0, 1) {
            assert!(seen.insert(b));
        }
        assert_eq!(seen.len() as u64, before);
    }

    #[test]
    fn allocator_exhausts_cleanly() {
        let a = BlockAllocator::new(0, 16, 2, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(a.alloc_run(0, 1).unwrap()));
        }
        assert!(a.alloc_run(0, 1).is_none());
        assert!(a.alloc_run(1, 1).is_none());
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
            .map(|w| a.alloc_run(w, 1).expect("space left"))
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
        assert_eq!(a.alloc_run(0, 20), Some(0));
        // 12 units left in shard 0: a run of 13 steals max(batch, n).
        assert_eq!(a.alloc_run(0, 13), Some(48));
        assert_eq!(a.alloc_run(0, 3), Some(61));
        // Shard 0 is dry and shard 1 holds [32, 48): 17 do not fit anywhere.
        assert_eq!(a.alloc_run(0, 17), None);
        assert_eq!(a.alloc_run(1, 17), None);
        assert_eq!(a.alloc_run(1, 16), Some(32));
        assert_eq!(a.alloc_run(1, 1), None);
        assert_eq!(a.alloc_run(0, 1), None);
        // One shard, nobody to steal from.
        let solo = BlockAllocator::new(0, 4, 1, 8);
        assert_eq!(solo.alloc_run(0, 5), None);
        assert_eq!(solo.alloc_run(0, 4), Some(0));
        assert_eq!(solo.alloc_run(0, 1), None);
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
                            if let Some(first) = a.alloc_run(w, n) {
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
        let got: Vec<u64> = (0..10).map(|_| a.alloc_run(0, 1).unwrap()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // Runs given back join the ones they touch.
        for (first, n) in [(6, 2), (2, 1), (1, 1), (8, 1), (3, 1)] {
            a.free(0, first, n);
        }
        assert_eq!(a.shards[0].lock().free, vec![(1, 3), (6, 3)]);
        assert_eq!(a.free_blocks(), 40 + 6 + 50);
        // First fit: the first run that holds all of it.
        assert_eq!(a.take(0, 3, None), Some((1, true)));
        assert_eq!(a.take(0, 1, None), Some((6, true)));
        // A goal inside a run splits it; a goal that is not free is
        // passed over; the cursor serves a goal at the cursor only.
        a.free(0, 1, 3);
        assert_eq!(a.take(0, 1, Some(2)), Some((2, true)));
        assert_eq!(a.shards[0].lock().free, vec![(1, 1), (3, 1), (7, 2)]);
        assert_eq!(a.take(0, 2, Some(3)), Some((7, true)), "3 holds one unit");
        assert_eq!(a.take(0, 1, Some(10)), Some((10, false)));
        assert_eq!(a.take(0, 1, Some(40)), Some((1, true)));
        assert_eq!(a.take(0, 1, None), Some((3, true)));
        assert_eq!(a.take(0, 1, None), Some((11, false)), "the list is dry");
        // A dry shard reaches the runs another shard was given back.
        let b = BlockAllocator::new(0, 4, 2, 8);
        assert_eq!(b.alloc_run(0, 2), Some(0));
        assert_eq!(b.alloc_run(1, 2), Some(2));
        b.free(1, 3, 1);
        assert_eq!(b.take(0, 1, None), Some((3, true)));
        assert_eq!(b.alloc_run(0, 1), None);
    }

    #[test]
    fn decommission_and_absorb_carry_the_free_lists() {
        let a = BlockAllocator::new(0, 64, 2, 8);
        for _ in 0..6 {
            a.alloc_run(0, 1).unwrap();
        }
        a.free(0, 1, 2);
        a.free(0, 4, 1);
        let upgraded = BlockAllocator::new(0, 64, 2, 8);
        upgraded.absorb(&a);
        assert_eq!(upgraded.free_blocks(), a.free_blocks());
        assert_eq!(upgraded.alloc_run(0, 2), Some(1));
        let before = a.free_blocks();
        a.decommission(0);
        assert_eq!(a.free_blocks(), before);
        assert_eq!(a.shards[1].lock().free, vec![(1, 2), (4, 1)]);
        assert_eq!(a.alloc_run(1, 1), Some(1));
    }

    #[test]
    fn reserve_and_absorb_keep_named_units_out_of_reach() {
        // Worker 0 drains its shard and steals a batch from worker 1's tail.
        let a = BlockAllocator::new(0, 200, 2, 16);
        let mut named: Vec<(u64, u64)> = Vec::new();
        for n in [60u64, 40, 5, 5] {
            let first = a.alloc_run(0, n).expect("space left");
            named.push((first, first + n));
        }
        let first = a.alloc_run(1, 10).expect("space left");
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
                while let Some(b) = alloc.alloc_run(w, 1) {
                    assert!(
                        named.iter().all(|&(from, to)| b < from || b >= to),
                        "unit {b} handed out twice"
                    );
                }
            }
        }
    }
}
