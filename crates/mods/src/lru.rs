//! The LRU page-cache LabMod (the paper's "page caching (LRU)" mod,
//! Fig. 4a's 17% stage).
//!
//! A userspace block cache: write-through by default (data is copied into
//! the cache and forwarded to the next stage), optional write-back
//! (dirty blocks held until flush/eviction). This file is the replacement
//! policy and the factory; the cache itself — block-granular index,
//! run-coalesced reads, zero-copy arms, in-flight miss guard — is
//! [`BlockCache`], shared with [`crate::arc_cache`].

use std::sync::Arc;

use labstor_core::{LabMod, ModuleManager};
use labstor_kernel::page_cache::LruMap;

use crate::cache_common::{BlockCache, CacheData, Policy};

/// Plain least-recently-used replacement.
#[derive(Default)]
pub struct LruPolicy(LruMap<u64, CacheData>);

impl Policy for LruPolicy {
    const TYPE_NAME: &'static str = "lru_cache";
    /// Userspace hashmap, cheaper than the kernel's locked tree.
    const LOOKUP_NS: u64 = 150;
    const MIN_BLOCKS: usize = 1;

    fn touch(&mut self, lba: u64) -> Option<&CacheData> {
        self.0.get(&lba).map(|d| &*d)
    }

    fn peek(&self, lba: u64) -> Option<&CacheData> {
        self.0.peek(&lba)
    }

    fn admit(
        &mut self,
        lba: u64,
        data: CacheData,
        cap: usize,
        evict: &mut dyn FnMut(u64, CacheData),
    ) {
        self.0.insert(lba, data);
        while self.0.len() > cap {
            match self.0.pop_lru() {
                Some((victim, data)) => evict(victim, data),
                None => break,
            }
        }
    }

    fn pop_coldest(&mut self) -> Option<(u64, CacheData)> {
        self.0.pop_lru()
    }

    fn remove(&mut self, lba: u64) -> Option<CacheData> {
        self.0.remove(&lba)
    }

    fn resident(&self) -> usize {
        self.0.len()
    }
}

/// The LRU cache LabMod.
pub type LruCacheMod = BlockCache<LruPolicy>;

impl LruCacheMod {
    /// Cache of `capacity_bytes` with exact LRU eviction order.
    pub(crate) fn new(capacity_bytes: usize, write_back: bool) -> Self {
        Self::build(capacity_bytes, write_back)
    }
}

/// Register the factory. Params: `{"capacity_bytes": <n>, "write_back":
/// <bool>}` (defaults: 64 MiB, write-through). The index is one LRU behind
/// one lock; a spec that still passes the former `"shards"` key is served
/// as any spec with an unknown key is — the key is ignored.
pub fn install(mm: &ModuleManager) {
    mm.register_factory(
        "lru_cache",
        Arc::new(|params| {
            let cap = params
                .get("capacity_bytes")
                .and_then(|v| v.as_u64())
                .unwrap_or(64 << 20) as usize;
            let wb = params
                .get("write_back")
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            Arc::new(LruCacheMod::new(cap, wb)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_common::testing::{MemDev, Rig};
    use crate::cache_common::{BLOCK, BLOCK_SECTORS};
    use labstor_core::{BlockOp, Payload, RespPayload};
    use labstor_ipc::{BufferPool, PoolConfig};
    use labstor_sim::Ctx;

    fn setup(params: serde_json::Value) -> Rig {
        Rig::mount("lru_cache", params, MemDev::new())
    }

    fn stats(rig: &Rig) -> (u64, u64) {
        let cache = rig.cache();
        cache
            .as_any()
            .downcast_ref::<LruCacheMod>()
            .unwrap()
            .hit_stats()
    }

    #[test]
    fn write_through_reaches_device_and_read_hits() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let data = vec![9u8; BLOCK];
        rig.write(&mut ctx, 1, data.clone());
        assert_eq!(rig.dev.write_count(), 1);
        let r = rig.read(&mut ctx, 1, BLOCK);
        assert!(matches!(r, RespPayload::Data(d) if d == data));
        assert_eq!(rig.dev.read_count(), 0, "read must be a cache hit");
        assert_eq!(stats(&rig), (1, 0));
    }

    #[test]
    fn miss_fetches_and_caches() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        // Prime the device directly (bypass cache).
        rig.dev.poke(2 * BLOCK_SECTORS, &[3u8; BLOCK]);
        let r = rig.read(&mut ctx, 2, BLOCK);
        assert!(matches!(r, RespPayload::Data(d) if d == vec![3u8; BLOCK]));
        assert_eq!(rig.dev.read_count(), 1);
        rig.read(&mut ctx, 2, BLOCK);
        assert_eq!(rig.dev.read_count(), 1, "second read hits");
    }

    #[test]
    fn write_back_defers_until_flush() {
        let rig = setup(serde_json::json!({"write_back": true, "capacity_bytes": 1 << 20}));
        let mut ctx = Ctx::new();
        rig.write(&mut ctx, 0, vec![1u8; BLOCK]);
        assert_eq!(rig.dev.write_count(), 0, "write-back holds data");
        rig.exec(Payload::Block(BlockOp::Flush), &mut ctx);
        assert_eq!(rig.dev.write_count(), 1, "flush writes it back");
        assert_eq!(rig.dev.peek(0, BLOCK), vec![1u8; BLOCK]);
        rig.exec(Payload::Block(BlockOp::Flush), &mut ctx);
        assert_eq!(rig.dev.write_count(), 1, "flushed blocks are clean");
    }

    #[test]
    fn write_back_eviction_writes_victims() {
        // 2-block cache, 3 writes → first block must land on the device.
        let rig = setup(serde_json::json!({"write_back": true, "capacity_bytes": 2 * BLOCK}));
        let mut ctx = Ctx::new();
        for i in 0..3u64 {
            rig.write(&mut ctx, i, vec![i as u8 + 1; BLOCK]);
        }
        assert_eq!(rig.dev.write_count(), 1);
        assert_eq!(rig.dev.peek(0, BLOCK), vec![1u8; BLOCK]);
    }

    #[test]
    fn write_back_extent_leaves_as_one_write() {
        // The 4 blocks of one cached extent are pushed out by the next and
        // must reach the device as the one write they arrived as.
        let rig = setup(serde_json::json!({"write_back": true, "capacity_bytes": 4 * BLOCK}));
        let mut ctx = Ctx::new();
        rig.write(&mut ctx, 0, vec![1u8; 4 * BLOCK]);
        rig.write(&mut ctx, 8, vec![2u8; 4 * BLOCK]);
        assert_eq!(rig.dev.write_count(), 1);
        assert_eq!(rig.dev.peek(0, 4 * BLOCK), vec![1u8; 4 * BLOCK]);
    }

    #[test]
    fn state_update_moves_warm_blocks() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        rig.write(&mut ctx, 1, vec![5u8; 2 * BLOCK]);
        let new_cache = LruCacheMod::new(64 << 20, false);
        new_cache.state_update(rig.cache().as_ref());
        assert_eq!(new_cache.resident_blocks(), 2, "warm blocks migrated");
    }

    #[test]
    fn writebuf_hit_answers_with_refcounted_slice() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(BLOCK, 4)],
        });
        let mut buf = pool.alloc(BLOCK).unwrap();
        assert!(buf.fill(&[7u8; BLOCK]));
        let lba = BLOCK_SECTORS;
        rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
        assert_eq!(rig.dev.write_count(), 1, "write-through");
        // A `DataBuf` response is structurally zero-copy: the handle is a
        // refcounted view of the cached block. (Copy-counter deltas are
        // asserted in the dedicated e2e integration test, which owns its
        // process — the global counter races across parallel unit tests.)
        match rig.read(&mut ctx, 1, BLOCK) {
            RespPayload::DataBuf(h) => assert_eq!(h.as_slice(), &[7u8; BLOCK]),
            other => panic!("expected DataBuf, got {other:?}"),
        }
        assert_eq!(rig.dev.read_count(), 0, "hit");
    }

    #[test]
    fn multi_block_readbuf_hit_is_one_joined_view() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(16 * BLOCK, 2)],
        });
        let mut buf = pool.alloc(16 * BLOCK).unwrap();
        assert!(buf.write_with(|b| b
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = (i / 61) as u8)));
        let written = buf.clone();
        rig.exec(Payload::Block(BlockOp::WriteBuf { lba: 0, buf }), &mut ctx);
        match rig.read(&mut ctx, 0, 16 * BLOCK) {
            RespPayload::DataBuf(h) => {
                assert!(
                    h.same_slot(&written),
                    "a view of what was written, not a copy"
                );
                assert_eq!(h.as_slice(), written.as_slice());
            }
            other => panic!("expected DataBuf, got {other:?}"),
        }
        // An inner sub-run joins too, and so does one that ends inside
        // a block.
        match rig.read(&mut ctx, 3, 2 * BLOCK) {
            RespPayload::DataBuf(h) => {
                assert_eq!(h.as_slice(), &written.as_slice()[3 * BLOCK..5 * BLOCK])
            }
            other => panic!("expected DataBuf, got {other:?}"),
        }
        match rig.read(&mut ctx, 3, 2 * BLOCK - 100) {
            RespPayload::DataBuf(h) => {
                assert_eq!(
                    h.as_slice(),
                    &written.as_slice()[3 * BLOCK..5 * BLOCK - 100]
                )
            }
            other => panic!("expected DataBuf, got {other:?}"),
        }
        assert_eq!(rig.dev.read_count(), 0);
        assert_eq!(stats(&rig), (20, 0), "hits are counted in blocks");
    }

    #[test]
    fn overwrite_replaces_every_block_it_covers() {
        // The stale-read bug: a 4-block extent used to be one entry under
        // its first lba, single-block reads filled entries for blocks 1–3,
        // and the next 4-block overwrite left those stale.
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        rig.write(&mut ctx, 0, vec![0xAA; 4 * BLOCK]);
        for b in 0..4 {
            rig.read(&mut ctx, b, BLOCK);
        }
        rig.write(&mut ctx, 0, vec![0xBB; 4 * BLOCK]);
        for b in 0..4 {
            let r = rig.read(&mut ctx, b, BLOCK);
            assert!(
                matches!(&r, RespPayload::Data(d) if d == &vec![0xBB; BLOCK]),
                "block {b} is stale"
            );
        }
        assert_eq!(rig.dev.read_count(), 0, "written blocks are resident");
    }

    #[test]
    fn multi_block_miss_fetches_the_smallest_covering_run_once() {
        let rig = setup(serde_json::json!({}));
        let mut ctx = Ctx::new();
        let image: Vec<u8> = (0..8 * BLOCK).map(|i| (i / BLOCK) as u8 + 1).collect();
        rig.dev.poke(0, &image);
        // Blocks 0, 1, 4 and 7 resident; 2, 3, 5, 6 missing.
        rig.read(&mut ctx, 0, 2 * BLOCK);
        rig.read(&mut ctx, 4, BLOCK);
        rig.read(&mut ctx, 7, BLOCK);
        rig.dev.reads.lock().clear();
        let r = rig.read(&mut ctx, 0, 8 * BLOCK);
        assert!(matches!(r, RespPayload::Data(d) if d == image));
        assert_eq!(
            *rig.dev.reads.lock(),
            vec![(2 * BLOCK_SECTORS, 5 * BLOCK)],
            "one request for blocks 2..=6"
        );
        assert_eq!(
            stats(&rig),
            (4, 4 + 4),
            "4 blocks hit, 4 fetched (after 4 cold misses)"
        );
        rig.read(&mut ctx, 0, 8 * BLOCK);
        assert_eq!(rig.dev.read_count(), 1, "everything is resident now");
    }

    #[test]
    fn capacity_is_counted_in_bytes() {
        // 100 × 64 KiB through a 2 MiB cache: at most 2 MiB stay resident
        // and at most 32 of the pool's 64 KiB slots stay pinned. (Each
        // extent used to count as one 4 KiB block, so all 100 stayed.)
        let rig = setup(serde_json::json!({"capacity_bytes": 2 << 20}));
        let mut ctx = Ctx::new();
        let pool = BufferPool::new(PoolConfig {
            classes: vec![(16 * BLOCK, 40)],
        });
        for i in 0..100u64 {
            let mut buf = pool
                .alloc(16 * BLOCK)
                .expect("the cache let go of old slots");
            assert!(buf.write_with(|b| b.fill(i as u8)));
            let lba = i * 16 * BLOCK_SECTORS;
            rig.exec(Payload::Block(BlockOp::WriteBuf { lba, buf }), &mut ctx);
            assert!(pool.live() <= 32, "{} slots pinned", pool.live());
        }
        let cache = rig.cache();
        let cache = cache.as_any().downcast_ref::<LruCacheMod>().unwrap();
        assert_eq!(cache.resident_blocks() * BLOCK, 2 << 20);
        assert_eq!(pool.live(), 32);
    }

    #[test]
    fn racing_misses_fetch_downstream_exactly_once() {
        // Regression for the drop-and-relock double-fetch: two threads
        // miss on the same lba; the in-flight guard must hold the loser
        // until the winner inserts, so the device sees ONE read.
        let mut dev = MemDev::new();
        dev.read_stall = std::time::Duration::from_millis(40);
        dev.poke(2 * BLOCK_SECTORS, &[3u8; BLOCK]);
        let rig = Rig::mount("lru_cache", serde_json::json!({}), dev);
        std::thread::scope(|s| {
            for delay_ms in [0u64, 10] {
                let rig = &rig;
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    let mut ctx = Ctx::new();
                    let r = rig.read(&mut ctx, 2, BLOCK);
                    assert!(matches!(r, RespPayload::Data(d) if d == vec![3u8; BLOCK]));
                });
            }
        });
        assert_eq!(
            rig.dev.read_count(),
            1,
            "in-flight guard must collapse racing misses into one fetch"
        );
        assert_eq!(stats(&rig), (1, 1), "loser re-checks and hits");
    }
}
