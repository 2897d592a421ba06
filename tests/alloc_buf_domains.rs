//! Two clients of one Runtime share the process-wide buffer pool, so a
//! slot one of them filled and freed is the next one the other is handed
//! (each class's free list is LIFO). `Client::alloc_buf` must never let
//! either read the other's bytes: a slot that changes domain comes back
//! zeroed, while a slot a client gets back from itself keeps its bytes.
//!
//! This file holds a single test: it reads which slot the pool hands out
//! next, and the integration tests of one file share one process and pool.

use labstor::core::{Runtime, RuntimeConfig};
use labstor::ipc::Credentials;

const KIB: usize = 1024;

#[test]
fn two_domains_never_read_each_others_alloc_buf_bytes() {
    let rt = Runtime::start(RuntimeConfig::default());
    let a = rt.connect(Credentials::new(1, 0, 0), 1);
    let b = rt.connect(Credentials::new(2, 0, 0), 1);
    assert_ne!(a.conn.domain, b.conn.domain);

    // Lengths that land in one class (64 KiB) and fill part or all of it.
    let lengths = [64 * KIB, 20 * KIB, 64 * KIB, 17 * KIB + 3, 33 * KIB];
    let mut prev: Option<(usize, u8)> = None; // (offset, the writer's byte)
    for (round, &len) in lengths.iter().cycle().take(40).enumerate() {
        let (client, mine) = if round % 3 == 0 {
            (&b, 0xB2)
        } else {
            (&a, 0xA1)
        };
        let mut h = client.alloc_buf(len).expect("pool has a 64 KiB slot");
        assert!(
            h.as_slice().iter().all(|&x| x == 0 || x == mine),
            "round {round}: domain {} read another domain's bytes",
            client.conn.domain
        );
        if let Some((offset, theirs)) = prev {
            assert_eq!(
                h.offset(),
                offset,
                "round {round}: LIFO hands the slot back"
            );
            if theirs == mine {
                // Every length writes at least the first 17 KiB.
                assert!(
                    h.as_slice()[..17 * KIB].iter().all(|&x| x == mine),
                    "round {round}: a slot back from its own domain keeps its bytes"
                );
            } else {
                assert!(
                    h.as_slice().iter().all(|&x| x == 0),
                    "round {round}: a slot that changed domain is zeroed"
                );
            }
        }
        assert!(h.write_with(|bytes| bytes.fill(mine)));
        prev = Some((h.offset(), mine));
    }
    rt.shutdown();
}
