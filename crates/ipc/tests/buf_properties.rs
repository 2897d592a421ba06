//! Randomized property tests for the shared-memory buffer pool: random
//! alloc/clone/slice/drop interleavings never leak a slot, never alias two
//! live *allocations* onto overlapping bytes, and return each slot to the
//! free list exactly once (the debug tracker panics on a double free); and
//! a domain's allocation never holds a byte another writer left behind.

use proptest::prelude::*;

use labstor_ipc::{BufHandle, BufferPool, PoolConfig};

/// A scripted action over a growing set of live handles. Indices are taken
/// modulo the live count so any byte script is a valid program.
#[derive(Debug, Clone)]
enum Action {
    Alloc(usize),
    CloneOf(usize),
    SliceOf(usize, usize, usize),
    Drop(usize),
    Fill(usize, u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1usize..300).prop_map(Action::Alloc),
        (0usize..64).prop_map(Action::CloneOf),
        (0usize..64, 0usize..300, 0usize..300).prop_map(|(i, o, l)| Action::SliceOf(i, o, l)),
        (0usize..64).prop_map(Action::Drop),
        (0usize..64, 0u8..255).prop_map(|(i, v)| Action::Fill(i, v)),
    ]
}

fn pool() -> BufferPool {
    BufferPool::new(PoolConfig {
        classes: vec![(64, 6), (256, 3)],
    })
}

/// Each live entry remembers which allocation (slot lineage) it came from
/// so the aliasing check can tell slices (legal overlap) from distinct
/// allocations (must never overlap).
struct Live {
    handle: BufHandle,
    lineage: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of alloc/clone/slice/fill/drop keeps the pool
    /// consistent: live count matches our model, distinct allocations
    /// never overlap, and after dropping everything the pool drains back
    /// to zero live slots (no leak, and the debug tracker would have
    /// panicked on any double free).
    #[test]
    fn interleavings_never_leak_or_alias(
        script in proptest::collection::vec(action_strategy(), 1..120),
    ) {
        let pool = pool();
        let mut live: Vec<Live> = Vec::new();
        let mut next_lineage = 0usize;

        for act in script {
            match act {
                Action::Alloc(len) => {
                    if let Some(h) = pool.alloc(len) {
                        prop_assert!(h.is_unique());
                        live.push(Live { handle: h, lineage: next_lineage });
                        next_lineage += 1;
                    }
                }
                Action::CloneOf(i) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        let dup = live[i].handle.clone();
                        let lineage = live[i].lineage;
                        live.push(Live { handle: dup, lineage });
                    }
                }
                Action::SliceOf(i, off, len) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        if let Some(s) = live[i].handle.slice(off, len) {
                            prop_assert!(len == 0 || s.same_slot(&live[i].handle));
                            let lineage = live[i].lineage;
                            live.push(Live { handle: s, lineage });
                        } else {
                            prop_assert!(off + len > live[i].handle.len());
                        }
                    }
                }
                Action::Drop(i) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        live.swap_remove(i);
                    }
                }
                Action::Fill(i, v) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        let unique = live[i].handle.is_unique();
                        let len = live[i].handle.len();
                        let wrote = live[i].handle.write_with(|b| b.fill(v));
                        // Mutation succeeds iff the handle was unique.
                        prop_assert_eq!(wrote, unique);
                        if wrote && len > 0 {
                            prop_assert!(live[i].handle.as_slice().iter().all(|&b| b == v));
                        }
                    }
                }
            }

            // Distinct allocations must never alias overlapping bytes.
            for (a_idx, a) in live.iter().enumerate() {
                for b in &live[a_idx + 1..] {
                    if a.lineage != b.lineage {
                        prop_assert!(
                            !a.handle.overlaps(&b.handle),
                            "allocations {} and {} alias", a.lineage, b.lineage
                        );
                    }
                }
            }

            // The pool's live-slot count matches the distinct slots we hold.
            let mut slots: Vec<(u64, usize)> = Vec::new();
            for l in &live {
                let key = (l.handle.region(), l.handle.offset() - offset_in_view(&l.handle));
                if !slots.contains(&key) {
                    slots.push(key);
                }
            }
            prop_assert_eq!(pool.live() as usize, slots.len());
        }

        let peak = pool.high_water();
        live.clear();
        prop_assert_eq!(pool.live(), 0);
        prop_assert!(peak <= 9, "high water {} exceeds total slots", peak);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cut a view of one allocation at random points and grow the first
    /// piece over the others left to right with `extend_with`: every
    /// neighbour is accepted and the grown view equals the concatenation
    /// so far, no intermediate view holds a byte outside the view that was
    /// cut, and growing any piece over a non-neighbour is refused and
    /// leaves the piece as it was.
    #[test]
    fn extend_chain_never_leaves_the_original_view(
        view in (0usize..200, 1usize..56),
        cuts in proptest::collection::vec(0usize..56, 0..8),
    ) {
        let pool = pool();
        let mut whole = pool.alloc(256).unwrap();
        let filled = whole.write_with(|b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = i as u8;
            }
        });
        prop_assert!(filled);
        let (start, len) = view;
        let original = whole.slice(start, len).unwrap();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        bounds.extend([0, len]);
        bounds.sort_unstable();
        let pieces: Vec<BufHandle> = bounds
            .windows(2)
            .map(|w| original.slice(w[0], w[1] - w[0]).unwrap())
            .collect();

        let mut grown = pieces[0].clone();
        for (i, piece) in pieces.iter().enumerate().skip(1) {
            prop_assert!(grown.extend_with(piece), "neighbouring slices extend");
            prop_assert_eq!(grown.as_slice(), &original.as_slice()[..bounds[i + 1]]);
            prop_assert_eq!(grown.offset(), original.offset());
        }
        prop_assert_eq!(grown.as_slice(), original.as_slice());
        for (i, a) in pieces.iter().enumerate() {
            for (j, b) in pieces.iter().enumerate() {
                let neighbours = bounds[i + 1] == bounds[j];
                let mut a = a.clone();
                prop_assert!(a.extend_with(b) == neighbours, "pieces {} and {}", i, j);
                prop_assert_eq!(a.len(), pieces[i].len() + if neighbours { b.len() } else { 0 });
                prop_assert_eq!(a.offset(), pieces[i].offset());
            }
        }
        drop((whole, original, pieces, grown));
        prop_assert_eq!(pool.live(), 0);
    }
}

/// `extend_with` refuses another slot or pool, a gap, an overlap and the
/// reverse order, and leaves the handle as it was; growing a view moves
/// no refcount, so the slots drain when the handles that were there
/// before it drop.
#[test]
fn extend_with_refuses_strangers_gaps_overlaps_and_the_reverse_order() {
    let (pool, other_pool) = (pool(), pool());
    let h = pool.alloc_from(b"abcdefgh").unwrap();
    let (a, b, c) = (
        h.slice(0, 3).unwrap(),
        h.slice(3, 2).unwrap(),
        h.slice(5, 3).unwrap(),
    );
    let other_slot = pool.alloc_from(b"abcdefgh").unwrap();
    let foreign = other_pool.alloc_from(b"abcdefgh").unwrap();
    let mut run = a.clone();
    assert!(!run.extend_with(&c), "gap");
    assert!(!run.extend_with(&a), "itself");
    assert!(
        !run.extend_with(&other_slot.slice(3, 2).unwrap()),
        "other slot"
    );
    assert!(
        !run.extend_with(&foreign.slice(3, 2).unwrap()),
        "same class and slot index, other pool"
    );
    assert!(!b.clone().extend_with(&a), "reversed order");
    assert_eq!((run.as_slice(), run.offset()), (a.as_slice(), a.offset()));
    assert!(run.extend_with(&b));
    assert!(!run.extend_with(&b), "overlap");
    assert!(run.extend_with(&c));
    assert_eq!(run.as_slice(), h.as_slice());
    assert!(run.same_slot(&h));
    drop((h, a, b, c));
    assert_eq!(
        pool.live(),
        2,
        "the grown view holds the one reference it had"
    );
    drop((run, other_slot));
    assert_eq!(pool.live(), 0);
    drop(foreign);
    assert_eq!(other_pool.live(), 0);
}

/// Offset of the view inside its slot (so two views of one slot map to the
/// same slot key). Derived from the public API: a full-slot view of class
/// c starts at a multiple of the class buffer size.
fn offset_in_view(h: &BufHandle) -> usize {
    let class_size = match h.region() {
        0 => 64,
        _ => 256,
    };
    h.offset() % class_size
}

/// Dropping the last of many clones frees the slot exactly once: the slot
/// becomes reallocatable, and the debug tracker (which panics on a second
/// free) stays silent.
#[test]
fn drop_to_zero_frees_exactly_once() {
    let pool = BufferPool::new(PoolConfig {
        classes: vec![(64, 1)],
    });
    let h = pool.alloc(64).unwrap();
    let clones: Vec<_> = (0..10).map(|_| h.clone()).collect();
    assert!(pool.alloc(64).is_none(), "sole slot is held");
    drop(h);
    assert_eq!(pool.live(), 1, "clones keep the slot live");
    drop(clones);
    assert_eq!(pool.live(), 0);
    // Slot is back on the free list exactly once: one alloc succeeds, a
    // second fails.
    let again = pool.alloc(64).unwrap();
    assert!(pool.alloc(64).is_none());
    drop(again);
}

/// Who may have written a pool byte: the Runtime (a plain `alloc`, as for
/// a driver's DMA target) or one of three client domains.
const RUNTIME: u8 = 0;

/// A scripted action of the provenance property. `Alloc.0` and
/// `HandOff.1` are writers ([`RUNTIME`] or a domain 1..=3); indices are
/// taken modulo the live count.
#[derive(Debug, Clone)]
enum Own {
    Alloc(u8, usize),
    /// Give a clone of a live handle to another writer, as a cache hit
    /// answers one domain's read with a view of another's write.
    HandOff(usize, u8),
    Fill(usize, u8),
    Drop(usize),
}

fn own_strategy() -> impl Strategy<Value = Own> {
    prop_oneof![
        (0u8..4, 1usize..300).prop_map(|(w, len)| Own::Alloc(w, len)),
        (0usize..8, 0u8..4).prop_map(|(i, w)| Own::HandOff(i, w)),
        (0usize..8, 0u8..63).prop_map(|(i, k)| Own::Fill(i, k)),
        (0usize..8).prop_map(Own::Drop),
    ]
}

/// A nonzero byte that names its writer: `writer * 64 + 1 ..= writer * 64 + 63`.
fn byte_of(writer: u8, k: u8) -> u8 {
    writer * 64 + 1 + k % 63
}

/// The slot a full-slot handle views, as `(class, index)`.
fn slot_key(h: &BufHandle) -> (u64, usize) {
    let class_size = if h.region() == 0 { 64 } else { 256 };
    (h.region(), h.offset() / class_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No handle `alloc_for(d, ..)` returns ever exposes a byte that another
    /// domain or the Runtime wrote since the slot was last zeroed — and no
    /// byte of the slot *beyond* the handle holds one either, since a later,
    /// longer allocation from the slot would read it. The model is every
    /// slot's exact contents: each fill writes bytes that name their writer
    /// — for a handed-off clone, the writer it was handed to — and the
    /// pool's `zeroed_bytes` says when a slot was wiped whole.
    #[test]
    fn a_domain_never_reads_bytes_it_did_not_write(
        script in proptest::collection::vec(own_strategy(), 1..160),
    ) {
        let pool = pool();
        let mut model: std::collections::HashMap<(u64, usize), Vec<u8>> = Default::default();
        let mut live: Vec<(BufHandle, u8)> = Vec::new();
        for act in script {
            match act {
                Own::Alloc(writer, len) => {
                    let zeroed = pool.zeroed_bytes();
                    let got = if writer == RUNTIME {
                        pool.alloc(len)
                    } else {
                        pool.alloc_for(u32::from(writer), len)
                    };
                    let Some(h) = got else { continue };
                    let key = slot_key(&h);
                    let class_size = if key.0 == 0 { 64 } else { 256 };
                    let bytes = model.entry(key).or_insert_with(|| vec![0; class_size]);
                    match pool.zeroed_bytes() - zeroed {
                        0 => {}
                        n => {
                            // A zero-fill is the whole slot.
                            prop_assert_eq!(n, class_size as u64);
                            bytes.fill(0);
                        }
                    }
                    prop_assert_eq!(h.as_slice(), &bytes[..len]);
                    if writer != RUNTIME {
                        prop_assert!(
                            bytes.iter().all(|&b| b == 0 || b / 64 == writer),
                            "domain {} holds a slot with bytes of {:?}",
                            writer,
                            bytes.iter().filter(|&&b| b != 0).map(|b| b / 64).collect::<std::collections::BTreeSet<_>>()
                        );
                    }
                    live.push((h, writer));
                }
                Own::HandOff(i, to) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        let dup = live[i].0.clone();
                        live.push((dup, to));
                    }
                }
                Own::Fill(i, k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let n = live.len();
                    let (h, writer) = &mut live[i % n];
                    let v = byte_of(*writer, k);
                    let unique = h.is_unique();
                    prop_assert_eq!(h.write_with(|b| b.fill(v)), unique);
                    if unique {
                        let len = h.len();
                        model.get_mut(&slot_key(h)).unwrap()[..len].fill(v);
                    }
                }
                Own::Drop(i) => {
                    if !live.is_empty() {
                        let i = i % live.len();
                        live.swap_remove(i);
                    }
                }
            }
        }
        live.clear();
        prop_assert_eq!(pool.live(), 0);
    }
}
