//! A read longer than the largest pool slot (256 KiB) still reads back.
//!
//! Every read answers in pool slots, so the driver lands such a read in
//! slot-sized pieces and answers a run list. Here a 300 KiB read comes
//! back whole from a bare `kernel_driver`, through `lru_cache` with part
//! of it resident (the cache admits the fetched run list), and through
//! `compress`. LabKVS reads a 300 KiB value back with `Get` and
//! `GetWhere`, and refuses a `Put` longer than a read can answer. LabFS
//! reads 8 MiB of data and 8 MiB of hole back through `GenericFs::read`,
//! which reads a slot at a time, while one 8 MiB `FsOp::ReadBuf`, more
//! than the pool holds at once, is refused with the pool-dry text.
//!
//! The tests of this file share one process and its default pool: each
//! holds at most two top-class slots at a time.

use std::sync::Arc;

use labstor::core::{
    BlockOp, Client, FsOp, KvsOp, LabStack, Payload, RespPayload, Runtime, RuntimeConfig, POOL_DRY,
};
use labstor::ipc::{default_pool, Credentials};
use labstor::mods::{DeviceRegistry, GenericFs};
use labstor::pushdown::Program;
use labstor::sim::DeviceKind;

const LEN: usize = 300 * 1024;

/// Bytes that differ from sector to sector and compress well.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i / 512 % 251) as u8).collect()
}

/// A runtime with one NVMe device and `labmods` mounted at `mount`.
fn mount(mount: &str, labmods: &str) -> (Arc<Runtime>, Arc<LabStack>, Client) {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let spec = format!(
        r#"{{ "mount": "{mount}", "exec": "sync", "authorized_uids": [0], "labmods": [{labmods}] }}"#
    );
    let stack = rt.mount_stack_json(&spec).unwrap();
    let client = rt.connect(Credentials::new(1, 0, 0), 1);
    (rt, stack, client)
}

fn run(client: &mut Client, stack: &Arc<LabStack>, payload: Payload) -> RespPayload {
    client.execute(stack, payload).unwrap().0
}

fn bytes_of(resp: &RespPayload) -> Vec<u8> {
    let parts = resp.data_parts().unwrap_or_else(|| panic!("{resp:?}"));
    parts.collect::<Vec<_>>().concat()
}

#[test]
fn block_stacks_read_300_kib_back() {
    let driver = r#"{ "uuid": "DRV", "type": "kernel_driver", "params": {"device": "nvme0"} }"#;
    let above = |ty: &str, params: &str| {
        format!(
            r#"{{ "uuid": "TOP", "type": "{ty}", "params": {{{params}}}, "outputs": ["DRV"] }}, {driver}"#
        )
    };
    let stacks = [
        ("bare", driver.to_string()),
        ("lru", above("lru_cache", r#""capacity_bytes": 1048576"#)),
        ("compress", above("compress", "")),
    ];
    let data = pattern(LEN);
    for (name, labmods) in stacks {
        let labmods = labmods.replace("DRV", &format!("{name}_drv"));
        let labmods = labmods.replace("TOP", &format!("{name}_top"));
        let (rt, stack, mut client) = mount(&format!("blk::/{name}"), &labmods);
        let write = BlockOp::Write {
            lba: 0,
            data: data.clone(),
        };
        assert!(run(&mut client, &stack, Payload::Block(write)).is_ok());
        // Two blocks resident first: the cache fetches the rest, 292 KiB.
        let head = BlockOp::ReadBuf { lba: 0, len: 8192 };
        assert_eq!(
            bytes_of(&run(&mut client, &stack, Payload::Block(head))),
            data[..8192]
        );
        let read = BlockOp::ReadBuf { lba: 0, len: LEN };
        let resp = run(&mut client, &stack, Payload::Block(read));
        assert!(matches!(resp, RespPayload::DataRuns(_)), "{name}: {resp:?}");
        assert!(bytes_of(&resp) == data, "{name}: wrong bytes");
        drop((resp, client));
        rt.shutdown();
    }
}

#[test]
fn labkvs_reads_a_300_kib_value_and_refuses_a_longer_one_than_a_read_answers() {
    let labmods = r#"
        { "uuid": "big_kv", "type": "labkvs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["big_kv_drv"] },
        { "uuid": "big_kv_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }"#;
    let (rt, stack, mut client) = mount("kv::/big", labmods);
    let value = pattern(LEN);
    let put = |key: &str, value: Vec<u8>| {
        Payload::Kvs(KvsOp::Put {
            key: key.into(),
            value,
        })
    };
    let resp = run(&mut client, &stack, put("big", value.clone()));
    assert!(matches!(resp, RespPayload::Len(n) if n == LEN), "{resp:?}");
    let get = run(
        &mut client,
        &stack,
        Payload::Kvs(KvsOp::Get { key: "big".into() }),
    );
    assert!(bytes_of(&get) == value, "Get: wrong bytes");
    let first = u32::from_le_bytes(value[..4].try_into().unwrap());
    let prog = Program::count_where_u32_eq(512, 0, first).verify().unwrap();
    let get_where = KvsOp::GetWhere {
        key: "big".into(),
        prog: Arc::new(prog),
    };
    let resp = run(&mut client, &stack, Payload::Kvs(get_where));
    assert!(bytes_of(&resp) == value, "GetWhere: wrong bytes");

    let most = default_pool().max_runs_len();
    let resp = run(&mut client, &stack, put("huge", vec![1; most + 1]));
    assert!(
        matches!(&resp, RespPayload::Err(e) if e.contains("a read answers at most")),
        "{resp:?}"
    );
    let get = run(
        &mut client,
        &stack,
        Payload::Kvs(KvsOp::Get { key: "huge".into() }),
    );
    assert!(
        matches!(get, RespPayload::Err(_)),
        "nothing was stored: {get:?}"
    );
    drop(client);
    rt.shutdown();
}

#[test]
fn labfs_reads_8_mib_back_a_slot_at_a_time() {
    let labmods = r#"
        { "uuid": "big_fs", "type": "labfs", "params": {"device": "nvme0", "workers": 1}, "outputs": ["big_fs_drv"] },
        { "uuid": "big_fs_drv", "type": "kernel_driver", "params": {"device": "nvme0"} }"#;
    let (rt, stack, client) = mount("fs::/big", labmods);
    let mut fs = GenericFs::new(client);
    let len = 8 << 20;
    let data = pattern(len);
    let fd = fs.open("fs::/big/f", true, false).unwrap();
    assert_eq!(fs.write(fd, &data), Ok(len));
    // 8 MiB of hole after the data.
    fs.seek(fd, 2 * len as u64 - 1).unwrap();
    assert_eq!(fs.write(fd, &[0]), Ok(1));
    fs.seek(fd, 0).unwrap();
    assert!(fs.read(fd, len).unwrap() == data, "the data");
    assert!(fs.read(fd, len).unwrap() == vec![0; len], "the hole");

    // One `ReadBuf` for all of it would hold 32 top-class slots at once.
    let ino = fs.stat("fs::/big/f").unwrap().ino;
    let read = FsOp::ReadBuf {
        ino,
        offset: 0,
        len,
    };
    let resp = run(fs.client_mut(), &stack, Payload::Fs(read));
    assert!(
        matches!(&resp, RespPayload::Err(e) if e == POOL_DRY),
        "{resp:?}"
    );
    drop(fs);
    rt.shutdown();
}
