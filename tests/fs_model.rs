//! One proptest for every file system: the same random script of
//! `FsAction`s drives each target through the `FsTarget` trait and
//! drives the one `FsModel`. After every step the target must equal the
//! model. That means every name's stat size and every file's bytes, and
//! on LabFS every directory listing as well. The targets:
//!
//! * LabFS on Lab-D: labfs → lru_cache (32 KiB, write-back, so it
//!   evicts) → noop_sched → kernel_driver, run in the client. It runs
//!   once with GenericFs's pool verbs (`WriteBuf`/`ReadBuf`) and once
//!   with hand-built owned writes (`FsOp::Write`), whose cached windows
//!   every read of them gathers;
//! * LabFS on Lab-All: permissions in front, async;
//! * the ext4-, XFS- and F2FS-like kernel profiles behind the VFS, each
//!   with a page cache that never evicts (4 MiB) and with one of two
//!   pages, where most reads come back from the device after an
//!   eviction and its writeback.
//!
//! Each LabFS target has four workers, so its names and inodes hash to
//! four shards and a directory rename or unlink works across them. Its
//! ops come from one client on one core, so they land in one log and its
//! history is totally ordered. After every fsync, `ModuleManager::repair_all`
//! rebuilds LabFS from the device, and the next check must pass again. At
//! the end, a fresh instance replayed from the same device must have the
//! live instance's `LabFs::snapshot`, and, put in its place, must equal
//! the model again.
//!
//! The alphabet, the targets and the driver are in `fs_harness/`. LabFS
//! on Lab-D with owned writes runs in `tests/properties.rs`
//! (`labfs_matches_file_model`), next to `live_state_equals_replayed_state`,
//! which drives the pool-verb target through longer scripts and checks at
//! the end and after the replay.

mod fs_harness;

use proptest::prelude::*;

use fs_harness::{kernel, labfs, run, script, CACHE_BYTES};
use labstor::kernel::fs::FsProfile;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labfs_d_pool_verbs_matches_model(script in script()) {
        run(labfs(false, false), &script)?;
    }

    #[test]
    fn labfs_all_matches_model(script in script()) {
        run(labfs(true, false), &script)?;
    }

    #[test]
    fn ext4_like_matches_model(script in script()) {
        for cache in CACHE_BYTES {
            run(kernel("ext4", FsProfile::ext4_like(), cache), &script)?;
        }
    }

    #[test]
    fn xfs_like_matches_model(script in script()) {
        for cache in CACHE_BYTES {
            run(kernel("xfs", FsProfile::xfs_like(), cache), &script)?;
        }
    }

    #[test]
    fn f2fs_like_matches_model(script in script()) {
        for cache in CACHE_BYTES {
            run(kernel("f2fs", FsProfile::f2fs_like(), cache), &script)?;
        }
    }
}
