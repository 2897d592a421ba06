//! A command that borrows its buffers moves the same bytes as one that
//! owns them: every way of writing and reading a `SimDevice` against a
//! flat byte model, a lent destination on every failing arm, and torn
//! writes from a lent payload.

use proptest::prelude::*;

use labstor_sim::{
    BlockDevice, Completion, Ctx, DeviceError, DeviceKind, IoRequest, SimDevice, SECTOR_SIZE,
};

/// Sectors per backing chunk (128 KiB): the transfers below straddle it.
const CHUNK_SECTORS: u64 = 256;
/// The modeled window: three chunks, starting at a chunk boundary.
const WINDOW_LBA: u64 = 5 * CHUNK_SECTORS;
const WINDOW_SECTORS: usize = 3 * CHUNK_SECTORS as usize;

/// Submit one command and reap its completion.
fn issue(dev: &SimDevice, req: IoRequest<'_>) -> Completion {
    dev.submit_at(0, req, 0).unwrap();
    let mut done = dev.poll(0, u64::MAX, 2);
    assert_eq!(done.len(), 1);
    done.remove(0)
}

#[derive(Debug, Clone, Copy)]
enum Via {
    WriteOwned,
    WriteLent,
    WriteSync,
    ReadOwned,
    ReadInto,
    ReadSync,
}

/// `(how, first sector, sectors, fill seed)`, clipped to the window.
fn op() -> impl Strategy<Value = (Via, usize, usize, u8)> {
    let via = prop_oneof![
        Just(Via::WriteOwned),
        Just(Via::WriteLent),
        Just(Via::WriteSync),
        Just(Via::ReadOwned),
        Just(Via::ReadInto),
        Just(Via::ReadSync),
    ];
    // Up to 300 sectors: longer than a chunk, so one transfer can cover a
    // written chunk, a hole and a boundary at once.
    (via, 0..WINDOW_SECTORS, 1usize..300, any::<u8>())
        .prop_map(|(via, at, n, fill)| (via, at, n.min(WINDOW_SECTORS - at), fill))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_path_agrees_with_a_flat_byte_model(ops in proptest::collection::vec(op(), 1..24)) {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        let mut model = vec![0u8; WINDOW_SECTORS * SECTOR_SIZE];
        let mut ctx = Ctx::new();
        for (via, at, n, fill) in ops {
            let lba = WINDOW_LBA + at as u64;
            let range = at * SECTOR_SIZE..(at + n) * SECTOR_SIZE;
            let data: Vec<u8> = (0..range.len()).map(|i| fill.wrapping_add((i / 7) as u8)).collect();
            // 0xEE is what a destination holds before the device fills it.
            let mut dest = vec![0xEEu8; range.len()];
            match via {
                Via::WriteOwned => {
                    prop_assert!(issue(&dev, IoRequest::write(lba, data.clone(), 1)).is_ok());
                    model[range].copy_from_slice(&data);
                }
                Via::WriteLent => {
                    prop_assert!(issue(&dev, IoRequest::write(lba, &data[..], 1)).is_ok());
                    model[range].copy_from_slice(&data);
                }
                Via::WriteSync => {
                    dev.write(&mut ctx, lba, &data).unwrap();
                    model[range].copy_from_slice(&data);
                }
                Via::ReadOwned => {
                    let c = issue(&dev, IoRequest::read(lba, range.len(), 1));
                    prop_assert_eq!(&c.result.unwrap()[..], &model[range]);
                }
                Via::ReadInto => {
                    let c = issue(&dev, IoRequest::read_into(lba, &mut dest, 1));
                    prop_assert!(c.result.unwrap().is_empty());
                    prop_assert_eq!(&dest[..], &model[range]);
                }
                Via::ReadSync => {
                    dev.read(&mut ctx, lba, &mut dest).unwrap();
                    prop_assert_eq!(&dest[..], &model[range]);
                }
            }
        }
    }
}

/// A read that fails, on whichever arm, leaves a lent destination
/// byte for byte as it was.
#[test]
fn a_failed_read_into_leaves_the_destination_untouched() {
    type Arm = fn(&SimDevice) -> (u64, usize);
    type Is = fn(&DeviceError) -> bool;
    let powered_off: Is = |e| matches!(e, DeviceError::PoweredOff { .. });
    let bad_transfer: Is = |e| matches!(e, DeviceError::BadTransfer { .. });
    let arms: [(&str, Arm, Is); 6] = [
        (
            "powered off before the command",
            |dev| {
                dev.faults().set_crash_at(0);
                (8, 4096)
            },
            powered_off,
        ),
        (
            "powered off astride the command",
            |dev| {
                dev.faults().set_crash_at(1);
                (8, 4096)
            },
            powered_off,
        ),
        (
            "media error",
            |dev| {
                dev.faults().set_period(1);
                (8, 4096)
            },
            |e| matches!(e, DeviceError::MediaError { .. }),
        ),
        (
            "out of range",
            |dev| (dev.model().capacity_sectors() - 1, 4096),
            |e| matches!(e, DeviceError::OutOfRange { .. }),
        ),
        ("bad transfer", |_| (8, 100), bad_transfer),
        ("empty transfer", |_| (8, 0), bad_transfer),
    ];
    for (name, arm, is_expected) in arms {
        let dev = SimDevice::preset(DeviceKind::Nvme);
        dev.write(&mut Ctx::new(), 8, &[7u8; 4096]).unwrap();
        let (lba, len) = arm(&dev);
        let mut dest = vec![0xEEu8; len];
        let c = issue(&dev, IoRequest::read_into(lba, &mut dest, 1));
        assert!(
            c.result.as_ref().is_err_and(is_expected),
            "{name}: {:?}",
            c.result
        );
        assert!(dest.iter().all(|&b| b == 0xEE), "{name}");
    }
}

/// The sectors of `[lba, lba + sectors)` as the device now holds them,
/// read fault-free.
fn stored(dev: &SimDevice, lba: u64, sectors: usize) -> Vec<u8> {
    dev.faults().set_torn(0, false);
    dev.faults().clear_crash();
    let mut out = vec![0u8; sectors * SECTOR_SIZE];
    dev.read(&mut Ctx::new(), lba, &mut out).unwrap();
    out
}

/// A torn write — by the tear knob or by a power cut astride it — lands
/// the same seeded prefix whether its payload was owned, lent or written
/// synchronously.
#[test]
fn torn_writes_land_the_same_prefix_from_a_lent_payload() {
    type Arm = fn(&SimDevice);
    let tears: [(&str, Arm); 2] = [
        ("torn", |dev| dev.faults().set_torn(1, false)),
        ("crash-torn", |dev| dev.faults().set_crash_at(1)),
    ];
    // Straddles a chunk boundary, so the prefix may end in either chunk.
    let (lba, sectors) = (CHUNK_SECTORS - 40, 64usize);
    let data: Vec<u8> = (0..sectors * SECTOR_SIZE)
        .map(|i| (i % 253) as u8 + 1)
        .collect();
    for (name, tear) in tears {
        for seed in 1..=16 {
            let landed = |write: fn(&SimDevice, u64, &[u8])| {
                let dev = SimDevice::preset(DeviceKind::Nvme);
                dev.faults().set_seed(seed);
                tear(&dev);
                write(&dev, lba, &data);
                stored(&dev, lba, sectors)
            };
            let owned = landed(|dev, lba, data| {
                assert!(!issue(dev, IoRequest::write(lba, data.to_vec(), 1)).is_ok());
            });
            let lent = landed(|dev, lba, data| {
                assert!(!issue(dev, IoRequest::write(lba, data, 1)).is_ok());
            });
            let sync = landed(|dev, lba, data| {
                assert!(dev.write(&mut Ctx::new(), lba, data).is_err());
            });
            assert_eq!(lent, owned, "{name}, seed {seed}");
            assert_eq!(sync, owned, "{name}, seed {seed}");
            let prefix = owned.iter().take_while(|&&b| b != 0).count();
            assert!(prefix < data.len() && prefix % SECTOR_SIZE == 0, "{name}");
            assert_eq!(owned[..prefix], data[..prefix], "{name}, seed {seed}");
            assert!(
                owned[prefix..].iter().all(|&b| b == 0),
                "{name}, seed {seed}"
            );
        }
    }
}
