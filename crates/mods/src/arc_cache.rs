//! An adaptive, scan-resistant cache LabMod (ARC-style).
//!
//! The paper positions LabStacks as the vehicle for "new and exotic
//! ideas, such as … ML-driven cache eviction algorithms" (§III-B), and
//! hot-swapping one cache policy for another is its running example of
//! `modify.mods`. This module is that story made concrete: an ARC-like
//! policy (two real LRU lists + two ghost lists with an adaptive target)
//! plugged into the same [`BlockCache`] engine as [`crate::lru`], so the
//! Module Manager can swap the two live — `state_update` migrates the
//! warm blocks across.
//!
//! The policy keeps recency (T1) and frequency (T2) lists; ghost lists
//! (B1/B2) remember recently evicted keys and steer the adaptive target
//! `p` toward whichever list would have hit — which is what makes it
//! resist one-shot scans that flush a plain LRU.

use std::sync::Arc;

use labstor_core::{LabMod, ModuleManager};
use labstor_ipc::BufHandle;
use labstor_kernel::page_cache::LruMap;

use crate::cache_common::{BlockCache, Policy};

/// ARC replacement state.
#[derive(Default)]
pub struct ArcPolicy {
    /// Recency list: blocks seen exactly once.
    t1: LruMap<u64, BufHandle>,
    /// Frequency list: blocks seen more than once.
    t2: LruMap<u64, BufHandle>,
    /// Ghosts of T1 evictions (keys only).
    b1: LruMap<u64, ()>,
    /// Ghosts of T2 evictions (keys only).
    b2: LruMap<u64, ()>,
    /// Adaptive target size of T1 (in blocks).
    p: usize,
}

impl ArcPolicy {
    /// ARC REPLACE: evict from T1 or T2 according to the target `p`,
    /// recording a ghost.
    fn replace(&mut self, in_b2: bool, evict: &mut dyn FnMut(u64, BufHandle)) {
        let t1_len = self.t1.len();
        let from_t1 = t1_len > 0 && (t1_len > self.p || (in_b2 && t1_len == self.p));
        if let Some((k, v)) = from_t1.then(|| self.t1.pop_lru()).flatten() {
            self.b1.insert(k, ());
            evict(k, v);
        } else if let Some((k, v)) = self.t2.pop_lru() {
            self.b2.insert(k, ());
            evict(k, v);
        } else if let Some((k, v)) = self.t1.pop_lru() {
            self.b1.insert(k, ());
            evict(k, v);
        }
    }
}

impl Policy for ArcPolicy {
    const TYPE_NAME: &'static str = "arc_cache";
    /// Two-list bookkeeping is slightly heavier than a plain LRU's.
    const LOOKUP_NS: u64 = 190;
    const MIN_BLOCKS: usize = 2;

    /// A T2 hit refreshes recency; a T1 hit promotes to T2.
    fn touch(&mut self, lba: u64) -> Option<&BufHandle> {
        if let Some(d) = self.t1.remove(&lba) {
            self.t2.insert(lba, d);
        }
        self.t2.get(&lba).map(|d| &*d)
    }

    fn peek(&self, lba: u64) -> Option<&BufHandle> {
        self.t1.peek(&lba).or_else(|| self.t2.peek(&lba))
    }

    /// Insert or touch a block with its data: the full ARC state machine.
    fn admit(
        &mut self,
        lba: u64,
        data: BufHandle,
        cap: usize,
        evict: &mut dyn FnMut(u64, BufHandle),
    ) {
        // Case 1: hit in T1 or T2 → promote to T2 MRU.
        if self.t1.remove(&lba).is_some() || self.t2.peek(&lba).is_some() {
            self.t2.insert(lba, data);
            return;
        }
        // Case 2: ghost hit in B1 → grow p, bring into T2.
        if self.b1.remove(&lba).is_some() {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(cap);
            self.replace(false, evict);
            self.t2.insert(lba, data);
            return;
        }
        // Case 3: ghost hit in B2 → shrink p, bring into T2.
        if self.b2.remove(&lba).is_some() {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
            self.replace(true, evict);
            self.t2.insert(lba, data);
            return;
        }
        // Case 4 (canonical ARC): brand-new block → T1 MRU, with
        // directory maintenance keeping |T1|+|B1| ≤ c and the whole
        // directory ≤ 2c.
        let directory = self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len();
        if self.t1.len() + self.b1.len() >= cap {
            if self.t1.len() < cap {
                self.b1.pop_lru();
                self.replace(false, evict);
            } else if let Some((k, v)) = self.t1.pop_lru() {
                // B1 is empty and T1 full: discard T1's LRU outright.
                evict(k, v);
            }
        } else if directory >= cap {
            if directory >= 2 * cap {
                self.b2.pop_lru();
            }
            self.replace(false, evict);
        }
        self.t1.insert(lba, data);
    }

    fn pop_coldest(&mut self) -> Option<(u64, BufHandle)> {
        self.t1.pop_lru().or_else(|| self.t2.pop_lru())
    }

    /// A dead block's ghost goes too: no read will bring it back to
    /// steer `p`.
    fn remove(&mut self, lba: u64) -> Option<BufHandle> {
        self.b1.remove(&lba);
        self.b2.remove(&lba);
        self.t1.remove(&lba).or_else(|| self.t2.remove(&lba))
    }

    fn resident(&self) -> usize {
        self.t1.len() + self.t2.len()
    }
}

/// The adaptive cache LabMod (write-through, like the default LRU mod).
pub type ArcCacheMod = BlockCache<ArcPolicy>;

impl ArcCacheMod {
    /// Cache of `capacity_bytes`.
    pub(crate) fn new(capacity_bytes: usize) -> Self {
        Self::build(labstor_ipc::default_pool(), capacity_bytes, false)
    }
}

/// Register the factory. Params: `{"capacity_bytes": <n>}` (default:
/// 64 MiB). The index is one ARC instance behind one lock; a spec that
/// still passes the former `"shards"` key is served as any spec with an
/// unknown key is — the key is ignored.
pub(crate) fn install(mm: &ModuleManager) {
    mm.register_factory(
        "arc_cache",
        Arc::new(|params| {
            let cap = params
                .get("capacity_bytes")
                .and_then(|v| v.as_u64())
                .unwrap_or(64 << 20) as usize;
            Arc::new(ArcCacheMod::new(cap)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_common::testing::{bytes, MemDev, Rig};
    use crate::cache_common::BLOCK;
    use labstor_core::RespPayload;
    use labstor_sim::Ctx;

    fn setup(cap_blocks: usize) -> Rig {
        let params = serde_json::json!({"capacity_bytes": cap_blocks * BLOCK});
        Rig::mount("arc_cache", params, MemDev::new())
    }

    fn read(rig: &Rig, ctx: &mut Ctx, block: u64) -> RespPayload {
        rig.read(ctx, block, BLOCK)
    }

    fn write(rig: &Rig, ctx: &mut Ctx, block: u64, fill: u8) {
        assert!(rig.write(ctx, block, vec![fill; BLOCK]).is_ok());
    }

    /// 4 hot blocks re-read three times, a one-shot scan over 64 cold
    /// blocks, then the hot set again: how many of those 4 reads miss.
    fn hot_misses_after_scan(rig: &Rig) -> usize {
        let mut ctx = Ctx::new();
        let hot: Vec<u64> = (0..4).collect();
        for &h in &hot {
            write(rig, &mut ctx, h, h as u8);
        }
        // Touch the hot set repeatedly so it reaches the frequency list.
        for _ in 0..3 {
            for &h in &hot {
                read(rig, &mut ctx, h);
            }
        }
        for cold in 100..164 {
            read(rig, &mut ctx, cold);
        }
        let before = rig.dev.read_count();
        for &h in &hot {
            read(rig, &mut ctx, h);
        }
        rig.dev.read_count() - before
    }

    #[test]
    fn write_then_read_hits() {
        let rig = setup(16);
        let mut ctx = Ctx::new();
        write(&rig, &mut ctx, 1, 7);
        let r = read(&rig, &mut ctx, 1);
        assert!(bytes(&r) == Some(vec![7u8; BLOCK]));
        assert_eq!(rig.dev.read_count(), 0);
    }

    #[test]
    fn scan_resistance_beats_plain_lru() {
        // ARC must keep serving the hot set from cache after the scan; an
        // LRU of the same size gets flushed.
        let cap = 8usize;
        let hot_misses = hot_misses_after_scan(&setup(cap));
        assert!(
            hot_misses <= 1,
            "ARC must keep the hot set through a scan (missed {hot_misses}/4)"
        );
        let lru = crate::lru::LruCacheMod::new(cap * BLOCK, false);
        let lru_misses = hot_misses_after_scan(&Rig::around(Arc::new(lru), MemDev::new()));
        assert_eq!(lru_misses, 4, "a scan flushes plain LRU entirely");
    }

    #[test]
    fn capacity_is_respected() {
        let rig = setup(8);
        let mut ctx = Ctx::new();
        for block in 0..100 {
            write(&rig, &mut ctx, block, block as u8);
        }
        // One extent larger than the whole cache.
        assert!(rig.write(&mut ctx, 200, vec![1u8; 20 * BLOCK]).is_ok());
        let m = rig.cache();
        let arc = m.as_any().downcast_ref::<ArcCacheMod>().unwrap();
        assert!(arc.resident_blocks() <= 8, "resident > capacity");
        let ghosts = arc.with_policy(|s| s.b1.len() + s.b2.len());
        assert!(ghosts <= 2 * 8 + 2, "ghost lists bounded");
    }

    #[test]
    fn state_migrates_from_lru_on_hot_swap() {
        // Warm an LRU through its own processing path, multi-block too.
        let lru = crate::lru::LruCacheMod::new(64 * BLOCK, false);
        let rig = Rig::around(Arc::new(lru), MemDev::new());
        let mut ctx = Ctx::new();
        write(&rig, &mut ctx, 1, 11);
        assert!(rig.write(&mut ctx, 2, vec![22u8; 3 * BLOCK]).is_ok());
        // Hot swap LRU → ARC.
        let newer = ArcCacheMod::new(64 * BLOCK);
        newer.state_update(rig.cache().as_ref());
        rig.mm.insert_instance("cache", Arc::new(newer));
        let r = read(&rig, &mut ctx, 1);
        assert!(bytes(&r) == Some(vec![11u8; BLOCK]));
        let r = rig.read(&mut ctx, 2, 3 * BLOCK);
        assert!(bytes(&r) == Some(vec![22u8; 3 * BLOCK]));
        assert_eq!(rig.dev.read_count(), 0, "served from migrated state");
    }
}
