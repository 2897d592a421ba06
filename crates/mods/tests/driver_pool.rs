//! How the Driver LabMods treat the process-wide buffer pool. One test,
//! alone in its process: it drains `default_pool()` and compares its
//! `live()` count, which the crate's parallel unit tests would disturb
//! (and be disturbed by).

use std::sync::Arc;

use labstor_core::stack::{ExecMode, LabStack, Vertex};
use labstor_core::{BlockOp, ModuleManager, Payload, Request, RespPayload, StackEnv};
use labstor_ipc::{default_pool, Credentials};
use labstor_mods::{drivers, DeviceRegistry};
use labstor_sim::{Ctx, DeviceKind, PmemDevice, SECTOR_SIZE};

const DRIVERS: [(&str, &str); 4] = [
    ("kernel_driver", "nvme0"),
    ("spdk", "nvme0"),
    ("iouring_driver", "nvme0"),
    ("dax", "pmem0"),
];

fn machine(ty: &str, device: &str) -> (ModuleManager, Arc<DeviceRegistry>) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    devices.add_pmem("pmem0", PmemDevice::preset());
    let mm = ModuleManager::new();
    drivers::install(&mm, &devices);
    mm.instantiate("drv", ty, &serde_json::json!({ "device": device }))
        .unwrap();
    (mm, devices)
}

fn run(mm: &ModuleManager, op: BlockOp) -> RespPayload {
    let stack = LabStack {
        id: 1,
        mount: "x".into(),
        exec: ExecMode::Sync,
        vertices: vec![Vertex {
            uuid: "drv".into(),
            outputs: vec![],
        }],
        authorized_uids: vec![],
    };
    let env = StackEnv::new(&stack, 0, mm, 0);
    let req = Request::new(1, 1, Payload::Block(op), Credentials::ROOT);
    mm.get("drv").unwrap().process(&mut Ctx::new(), req, &env)
}

#[test]
fn read_buf_slots_come_from_the_pool_first_and_go_back_on_failure() {
    let pool = default_pool();
    let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    for (ty, device) in DRIVERS {
        let (mm, devices) = machine(ty, device);
        let idle = pool.live();
        let w = run(
            &mm,
            BlockOp::Write {
                lba: 8,
                data: data.clone(),
            },
        );
        assert!(matches!(w, RespPayload::Len(4096)), "{ty}: {w:?}");

        // A successful read holds exactly its answer's slot.
        match run(&mm, BlockOp::ReadBuf { lba: 8, len: 4096 }) {
            RespPayload::DataBuf(h) => {
                assert_eq!(h.as_slice(), data, "{ty}");
                assert_eq!(pool.live(), idle + 1, "{ty}");
            }
            other => panic!("{ty}: expected DataBuf, got {other:?}"),
        }
        assert_eq!(pool.live(), idle, "{ty}");

        // Dry pool: the same bytes in an owned `Vec`.
        let held: Vec<_> = std::iter::from_fn(|| pool.alloc(4096)).collect();
        match run(&mm, BlockOp::ReadBuf { lba: 8, len: 4096 }) {
            RespPayload::Data(d) => assert_eq!(d, data, "{ty}"),
            other => panic!("{ty}: expected Data from a dry pool, got {other:?}"),
        }
        drop(held);
        assert_eq!(pool.live(), idle, "{ty}");

        // A failed read answers `Err` and its slot goes back.
        let read_at = |lba| run(&mm, BlockOp::ReadBuf { lba, len: 4096 });
        let failed = if ty == "dax" {
            // PMEM has no fault model; its one failure is an access past
            // the end of the region.
            let end = devices.pmem(device).unwrap().len() / SECTOR_SIZE as u64;
            vec![("out of range", read_at(end))]
        } else {
            let dev = devices.block(device).unwrap();
            dev.faults().set_period(1);
            let media = read_at(8);
            dev.faults().set_period(0);
            dev.faults().set_crash_at(0);
            vec![("media error", media), ("powered off", read_at(8))]
        };
        for (fault, resp) in failed {
            assert!(
                matches!(resp, RespPayload::Err(_)),
                "{ty}, {fault}: {resp:?}"
            );
        }
        assert_eq!(pool.live(), idle, "{ty}: a failed read keeps no slot");
    }
}
