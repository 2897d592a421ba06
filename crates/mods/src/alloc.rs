//! The scalable per-worker block allocator of LabFS (paper §III-E): it
//! "evenly divides device blocks among the pool of workers. Workers can
//! steal from one another if more space is needed." LabKVS carves its
//! value extents from the same allocator, in sectors.

use parking_lot::Mutex;

struct AllocShard {
    next: u64,
    end: u64,
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
                    })
                })
                .collect(),
            steal_batch: steal_batch.max(1),
        }
    }

    /// Allocate `n` contiguous units from `worker`'s shard and return the
    /// first. A shard that cannot fit the run replaces its range with a
    /// batch stolen from the tail of the richest other shard; the fewer
    /// than `n` units it still held are not handed out again (none when
    /// `n` is 1). `None` when no shard holds `n` contiguous units.
    pub fn alloc_run(&self, worker: usize, n: u64) -> Option<u64> {
        let w = worker % self.shards.len();
        {
            let mut shard = self.shards[w].lock();
            if shard.end - shard.next >= n {
                let first = shard.next;
                shard.next += n;
                return Some(first);
            }
        }
        // Steal: take a batch from the richest other shard.
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

    /// Live upgrade: continue from `prev`'s cursors, so nothing `prev`
    /// handed out is handed out again. Shards pair up by index: see the
    /// precondition on `MetaStore::absorb`, its one caller.
    pub(crate) fn absorb(&self, prev: &BlockAllocator) {
        for (mine, theirs) in self.shards.iter().zip(prev.shards.iter()) {
            let (next, end) = {
                let t = theirs.lock();
                (t.next, t.end)
            };
            let mut mine = mine.lock();
            mine.next = next;
            mine.end = end;
        }
    }

    /// Recovery: units `[start, end)` are named by a replayed log record;
    /// make sure no shard hands any of them out again. A shard that still
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
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.end - s.next
            })
            .sum()
    }

    /// Decommission worker `w`: its remaining blocks are reassigned to
    /// running workers ("if the number of workers decreases, free blocks
    /// of the decommissioned workers are assigned to running workers",
    /// §III-E). A shard holds one contiguous range, so the range moves
    /// wholesale when a peer can absorb it (empty or adjacent); otherwise
    /// it stays in place where the existing steal path hands it out —
    /// either way every block remains allocatable exactly once.
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
        if a.next >= a.end {
            return; // nothing to donate
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
