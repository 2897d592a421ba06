//! A cache hands one domain a view of another domain's pool slot: client
//! A writes a buffer through an LRU cache, and client B's `ReadBuf` is
//! answered with a clone over A's slot. Once the cache evicts the blocks,
//! B's handle is the slot's only one and B may write it. Those bytes are
//! B's, so A's next `alloc_buf` from that slot must come back zeroed —
//! not holding B's bytes under A's owner tag.
//!
//! This file holds a single test: it reads which slot the pool hands out
//! next, and the integration tests of one file share one process and pool.

use labstor::core::{BlockOp, Payload, RespPayload, Runtime, RuntimeConfig};
use labstor::ipc::Credentials;
use labstor::mods::DeviceRegistry;
use labstor::sim::DeviceKind;

const SPEC: &str = r#"{
    "mount": "blk::/handoff", "exec": "async", "authorized_uids": [0],
    "labmods": [
        { "uuid": "ho_lru", "type": "lru_cache", "params": {"capacity_bytes": 65536}, "outputs": ["ho_drv"] },
        { "uuid": "ho_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }
    ]
}"#;

const CHUNK: usize = 64 << 10;
/// 512-byte sectors per chunk.
const CHUNK_SECTORS: u64 = (CHUNK / 512) as u64;

#[test]
fn a_cache_hit_written_by_its_reader_is_zeroed_for_the_writer() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let stack = rt.mount_stack_json(SPEC).unwrap();
    let mut a = rt.connect(Credentials::new(1, 0, 0), 1);
    let mut b = rt.connect(Credentials::new(2, 0, 0), 1);
    assert_ne!(a.conn.domain, b.conn.domain);

    let mut buf = a.alloc_buf(CHUNK).expect("pool has a 64 KiB slot");
    assert!(buf.write_with(|bytes| bytes.fill(0xA1)));
    let written = Payload::Block(BlockOp::WriteBuf { lba: 0, buf });
    assert!(a.execute(&stack, written).unwrap().0.is_ok());

    let read = Payload::Block(BlockOp::ReadBuf { lba: 0, len: CHUNK });
    let RespPayload::DataBuf(mut theirs) = b.execute(&stack, read).unwrap().0 else {
        panic!("a resident run is answered zero-copy");
    };
    assert!(theirs.as_slice().iter().all(|&x| x == 0xA1));

    // Push A's blocks out of the cache until B holds the slot alone.
    for round in 1..=8u64 {
        if theirs.is_unique() {
            break;
        }
        let other = Payload::Block(BlockOp::Write {
            lba: round * CHUNK_SECTORS,
            data: vec![round as u8; CHUNK],
        });
        assert!(a.execute(&stack, other).unwrap().0.is_ok());
    }
    assert!(theirs.is_unique(), "the cache evicted A's blocks");
    assert!(theirs.write_with(|bytes| bytes.fill(0xB2)));
    let slot = theirs.offset();
    drop(theirs);

    let again = a.alloc_buf(CHUNK).expect("pool has a 64 KiB slot");
    assert_eq!(again.offset(), slot, "LIFO hands the slot back");
    assert!(
        again.as_slice().iter().all(|&x| x == 0),
        "A's allocation holds bytes B wrote"
    );
    rt.shutdown();
}
