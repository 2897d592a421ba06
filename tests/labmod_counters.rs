//! The platform measures every LabMod where it runs the vertex
//! (`labstor_core::labmod::run_vertex`): one meaning for every counter —
//! exclusive busy virtual ns — measured once, race-free, kept per UUID
//! by the Module Manager. No LabMod in these stacks has a line of
//! accounting code.

use std::sync::{Arc, Barrier};

use labstor::core::stack::{LabStack, Namespace};
use labstor::core::worker::process_request;
use labstor::core::{
    BlockOp, FsOp, KvsOp, LabMod, Message, ModType, ModuleManager, Payload, Request, RespPayload,
    Runtime, RuntimeConfig, StackEnv, StackSpec, UpgradeKind, UpgradeRequest,
};
use labstor::ipc::{Credentials, IpcManager};
use labstor::mods::DeviceRegistry;
use labstor::sim::{Ctx, DeviceKind, SimDevice};
use labstor::telemetry::{anatomy, SpanEvent, Stage};

const PAGE: usize = 4096;

/// A standalone machine: one NVMe, every bundled LabMod type plus the
/// `yielder` test stage, and `spec` instantiated and mounted.
struct Machine {
    ns: Arc<Namespace>,
    mm: ModuleManager,
    dev: Arc<SimDevice>,
    stack: Arc<LabStack>,
}

impl Machine {
    /// `mods` is a chain of `(uuid, type)`; every vertex gets the same
    /// params (each factory reads only its own keys).
    fn chain(mods: &[(&str, &str)]) -> Machine {
        let devices = DeviceRegistry::new();
        let dev = devices.add_preset("nvme0", DeviceKind::Nvme);
        let mm = ModuleManager::new();
        labstor::mods::install_all(&mm, &devices);
        mm.register_factory(
            "yielder",
            Arc::new(|_| Arc::new(Yielder) as Arc<dyn LabMod>),
        );
        let spec = StackSpec::chain("fs::/t", labstor::core::ExecMode::Sync, mods);
        let params = serde_json::json!({"device": "nvme0", "workers": 4});
        for v in &spec.labmods {
            mm.instantiate(&v.uuid, &v.type_name, &params).unwrap();
        }
        let ns = Namespace::new();
        let stack = ns.mount(spec.to_stack().unwrap()).unwrap();
        Machine { ns, mm, dev, stack }
    }

    /// Run one request on the entry vertex, as a sync-stack client does.
    fn exec(&self, ctx: &mut Ctx, core: usize, payload: Payload) -> RespPayload {
        let req = Request::on_core(1, self.stack.id, payload, Credentials::ROOT, core);
        process_request(ctx, req, &self.ns, &self.mm, 0).payload
    }

    fn create(&self, ctx: &mut Ctx, core: usize, path: &str) -> u64 {
        let create = FsOp::Create {
            path: path.into(),
            mode: 0o644,
        };
        match self.exec(ctx, core, Payload::Fs(create)) {
            RespPayload::Ino(ino) => ino,
            other => panic!("create {path}: {other:?}"),
        }
    }

    fn write_page(&self, ctx: &mut Ctx, core: usize, ino: u64, page: u64) {
        let write = FsOp::Write {
            ino,
            offset: page * PAGE as u64,
            data: vec![page as u8; PAGE],
        };
        let resp = self.exec(ctx, core, Payload::Fs(write));
        assert!(matches!(resp, RespPayload::Len(PAGE)), "{resp:?}");
    }

    fn read_page(&self, ctx: &mut Ctx, core: usize, ino: u64, page: u64) {
        let read = FsOp::ReadBuf {
            ino,
            offset: page * PAGE as u64,
            len: PAGE,
        };
        let resp = self.exec(ctx, core, Payload::Fs(read));
        let bytes = resp.data_parts().map(|d| d.collect::<Vec<_>>().concat());
        assert_eq!(bytes, Some(vec![page as u8; PAGE]), "read: {resp:?}");
    }

    /// `(ops, total_ns)` the platform has measured for `uuid`.
    fn measured(&self, uuid: &str) -> (u64, u64) {
        let c = self.mm.counters(uuid).unwrap();
        (c.ops(), c.total_ns())
    }
}

/// A terminal block stage that gives up the host thread in the middle of
/// every request, so requests of different threads really interleave
/// inside the vertices above it.
struct Yielder;

// labmod-default-ok: a stateless test stage, never upgraded or repaired
impl LabMod for Yielder {
    fn type_name(&self) -> &'static str {
        "yielder"
    }
    fn mod_type(&self) -> ModType {
        ModType::Driver
    }
    fn process(&self, ctx: &mut Ctx, req: Request, _env: &StackEnv<'_>) -> RespPayload {
        ctx.advance(1_000);
        std::thread::yield_now();
        ctx.advance(1_000);
        match req.payload {
            Payload::Block(BlockOp::Write { data, .. }) => RespPayload::Len(data.len()),
            Payload::Block(BlockOp::ReadBuf { len, .. }) => {
                let mut h = labstor::ipc::default_pool()
                    .alloc(len)
                    .expect("a pool slot");
                assert!(h.write_with(|b| b.fill(0)));
                RespPayload::DataBuf(h)
            }
            _ => RespPayload::Ok,
        }
    }
    fn est_processing_time(&self, _req: &Request) -> u64 {
        2_000
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The recipe behind the pins below: a 64-page file, then 40 000 4 KiB
/// operations on page `i % 64` — all overwrites, or write and read-back
/// alternating. Returns each vertex's `(ops, total_ns)` for the 40 000.
fn overwrite_recipe(mods: &[(&str, &str)], read_back: bool) -> Vec<(u64, u64)> {
    let m = Machine::chain(mods);
    let mut ctx = Ctx::new();
    let ino = m.create(&mut ctx, 0, "/f");
    let before: Vec<(u64, u64)> = mods.iter().map(|(uuid, _)| m.measured(uuid)).collect();
    for i in 0..40_000u64 {
        if read_back && i % 2 == 1 {
            m.read_page(&mut ctx, 0, ino, (i - 1) % 64);
        } else {
            m.write_page(&mut ctx, 0, ino, i % 64);
        }
    }
    mods.iter()
        .zip(before)
        .map(|((uuid, _), (ops0, ns0))| {
            let (ops, ns) = m.measured(uuid);
            (ops - ops0, ns - ns0)
        })
        .collect()
}

/// LabFS's and the cache's single-threaded totals are, to the nanosecond,
/// the ones the counters they kept for themselves read at f81c35d: moving
/// the measurement into the platform changed where it is made, not what
/// it reads. The cache's read-back total has moved once since, see
/// [`LRU_PIN`].
#[test]
fn single_threaded_totals_are_the_recorded_ones() {
    let plain = overwrite_recipe(&[("fs", "labfs"), ("drv", "kernel_driver")], false);
    assert_eq!(plain[0], (40_000, 12_012_800), "labfs over the driver");

    let cached = overwrite_recipe(
        &[
            ("fs", "labfs"),
            ("lru", "lru_cache"),
            ("drv", "kernel_driver"),
        ],
        true,
    );
    assert_eq!(
        cached[0],
        (40_000, LABFS_CACHED_PIN),
        "labfs over the cache"
    );
    assert_eq!(cached[1], (40_000, LRU_PIN), "the cache");
}

/// Recorded at f81c35d for the read-back recipe.
const LABFS_CACHED_PIN: u64 = 12_006_400;
/// 78 000 000 at f81c35d, when each of the 20 000 read-backs gathered the
/// owned write's cached bytes into a copy charged 1 200 ns. The cache now
/// keeps those bytes in a pool slot and answers with a view of it.
const LRU_PIN: u64 = 54_000_000;

/// The ops one thread of the overlap test runs against its own file.
fn overlap_script(m: &Machine, ctx: &mut Ctx, thread: usize) {
    let ino = m.create(ctx, thread, &format!("/f{thread}"));
    for round in 0..3 {
        for page in 0..8 {
            m.write_page(ctx, thread, ino, page);
            if round > 0 {
                m.read_page(ctx, thread, ino, page);
            }
        }
    }
}

/// N threads inside one LabFS and one `BlockCache` at once: every
/// instance's total is the single-threaded total of the same operations.
/// A per-instance account of downstream time fails this — one request
/// takes another's in-flight share; the account here is per request, on
/// the stack of the thread running it.
#[test]
fn overlapping_requests_measure_what_one_thread_measures() {
    const THREADS: usize = 4;
    let mods = [("fs", "labfs"), ("lru", "lru_cache"), ("end", "yielder")];
    let serial = Machine::chain(&mods);
    let mut ctx = Ctx::new();
    for t in 0..THREADS {
        overlap_script(&serial, &mut ctx, t);
    }
    let expected = mods.map(|(uuid, _)| serial.measured(uuid));
    assert!(expected.iter().all(|&(ops, ns)| ops > 0 && ns > 0));

    for rep in 0..100 {
        let m = Machine::chain(&mods);
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    start.wait();
                    overlap_script(m, &mut Ctx::new(), t);
                });
            }
        });
        let got = mods.map(|(uuid, _)| m.measured(uuid));
        assert_eq!(
            got, expected,
            "repetition {rep}: (ops, total_ns) of {mods:?}"
        );
    }
}

/// Counters belong to the UUID: an upgrade that changes the *type* under
/// it — where a `state_update` downcast finds nothing to absorb — keeps
/// ops, total and histogram, with no code in either mod.
#[test]
fn counters_survive_a_type_changing_upgrade() {
    for (uuid, old_type, new_type) in [
        ("sched", "noop_sched", "blk_switch_sched"),
        ("cache", "lru_cache", "arc_cache"),
    ] {
        let m = Machine::chain(&[(uuid, old_type), ("drv", "kernel_driver")]);
        let mut ctx = Ctx::new();
        let write = |ctx: &mut Ctx, i: u64| {
            let op = BlockOp::Write {
                lba: i * 8,
                data: vec![7u8; PAGE],
            };
            assert!(m.exec(ctx, 0, Payload::Block(op)).is_ok());
        };
        for i in 0..20 {
            write(&mut ctx, i);
        }
        let c = m.mm.counters(uuid).unwrap();
        let before = (c.ops(), c.total_ns(), c.p50(), c.p99(), c.hist().max());
        assert_eq!(before.0, 20);
        assert!(before.1 > 0);

        m.mm.request_upgrade(UpgradeRequest {
            uuid: uuid.into(),
            type_name: new_type.into(),
            params: serde_json::json!({"device": "nvme0"}),
            kind: UpgradeKind::Centralized,
            code_bytes: 0,
            code_device: None,
        });
        let ipc: Arc<IpcManager<Message>> = IpcManager::new(8);
        assert_eq!(m.mm.process_upgrades(&mut Ctx::new(), &ipc, false), 1);
        assert_eq!(m.mm.get(uuid).unwrap().type_name(), new_type);

        let c = m.mm.counters(uuid).unwrap();
        let after = (c.ops(), c.total_ns(), c.p50(), c.p99(), c.hist().max());
        assert_eq!(after, before, "{old_type} -> {new_type}");
        write(&mut ctx, 20);
        assert_eq!(c.ops(), 21, "and the new instance keeps counting into them");
    }
}

/// Two telemetries, one clock: on the Fig. 4a stack every vertex's
/// counter equals the exclusive time `anatomy()` folds out of the span
/// recorder for that vertex, to the nanosecond. No vertex above the
/// driver idles on this workload, so busy and wall virtual time agree;
/// the driver's counter is its busy time, which contains the `Device`
/// window the anatomy books separately.
#[test]
fn counters_agree_with_the_span_anatomy() {
    let devices = DeviceRegistry::new();
    devices.add_preset("nvme0", DeviceKind::Nvme);
    let rt = Runtime::start(RuntimeConfig::default());
    labstor::mods::install_all(&rt.mm, &devices);
    let uuids = ["perm1", "labfs1", "lru1", "sched1", "drv1"];
    let stack = rt
        .mount_stack_json(
            r#"{
            "mount": "fs::/b", "exec": "async", "authorized_uids": [0],
            "labmods": [
                { "uuid": "perm1",  "type": "permissions", "outputs": ["labfs1"] },
                { "uuid": "labfs1", "type": "labfs",
                  "params": {"device": "nvme0", "workers": 4}, "outputs": ["lru1"] },
                { "uuid": "lru1",   "type": "lru_cache",
                  "params": {"capacity_bytes": 1048576}, "outputs": ["sched1"] },
                { "uuid": "sched1", "type": "noop_sched", "outputs": ["drv1"] },
                { "uuid": "drv1",   "type": "kernel_driver", "params": {"device": "nvme0"} }
            ]
        }"#,
        )
        .unwrap();
    let rec = rt.mm.telemetry().clone();
    rec.enable();
    let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
    let create = FsOp::Create {
        path: "/a".into(),
        mode: 0o644,
    };
    let ino = match client.execute(&stack, Payload::Fs(create)).unwrap().0 {
        RespPayload::Ino(ino) => ino,
        other => panic!("{other:?}"),
    };
    for i in 0..64u64 {
        let write = FsOp::Write {
            ino,
            offset: i * PAGE as u64,
            data: vec![0xA5; PAGE],
        };
        assert!(client
            .execute(&stack, Payload::Fs(write))
            .unwrap()
            .0
            .is_ok());
    }
    rt.shutdown();

    let spans = rec.snapshot();
    assert_eq!(rec.dropped(), 0);
    let a = anatomy(&spans, |s: &SpanEvent| match s.stage {
        Stage::Vertex => uuids[s.vertex as usize].to_string(),
        Stage::Device => "device".to_string(),
        _ => "ipc".to_string(),
    });
    for (i, uuid) in uuids[..4].iter().enumerate() {
        let c = rt.mm.counters(uuid).unwrap();
        // The create stops in LabFS; the 64 writes reach every vertex.
        assert_eq!(c.ops(), if i < 2 { 65 } else { 64 }, "{uuid}");
        assert_eq!(c.total_ns(), a.ns(uuid), "{uuid}: counter vs span anatomy");
    }
    let drv = rt.mm.counters("drv1").unwrap();
    assert_eq!(drv.ops(), 64);
    assert!(a.ns("device") > 0);
    assert_eq!(drv.total_ns(), a.ns("drv1") + a.ns("device"));
}

/// `est_processing_time` is the model of *this* request. One LabFS that
/// has served a mix of sizes must not tell a 4 KiB-write queue and a
/// 1 MiB-write queue the same (its learned average) number.
#[test]
fn estimates_are_per_request() {
    let m = Machine::chain(&[("fs", "labfs"), ("drv", "kernel_driver")]);
    let mut ctx = Ctx::new();
    let ino = m.create(&mut ctx, 0, "/f");
    for i in 0..12 {
        let data = vec![1u8; if i % 2 == 0 { PAGE } else { 16 * PAGE }];
        let write = FsOp::Write {
            ino,
            offset: 0,
            data,
        };
        assert!(m.exec(&mut ctx, 0, Payload::Fs(write)).is_ok());
    }
    let fs = m.mm.get("fs").unwrap();
    let est = |len: usize| {
        let write = FsOp::Write {
            ino,
            offset: 0,
            data: vec![0u8; len],
        };
        let req = Request::new(1, m.stack.id, Payload::Fs(write), Credentials::ROOT);
        fs.est_processing_time(&req)
    };
    assert_eq!(est(1 << 20) - est(PAGE), (1 << 20) - PAGE as u64);
}

/// A vertex that answers without forwarding is observed like any other:
/// a `permissions` denial, and a LabFS fsync whose log flush failed.
#[test]
fn early_returns_are_counted() {
    let m = Machine::chain(&[
        ("perm", "permissions"),
        ("fs", "labfs"),
        ("drv", "kernel_driver"),
    ]);
    let mut ctx = Ctx::new();
    let ino = m.create(&mut ctx, 0, "/mine");
    let (perm_ops, perm_ns) = m.measured("perm");
    let (fs_ops, _) = m.measured("fs");

    // A stranger may not unlink root's file: perms answers, LabFS never runs.
    let unlink = Payload::Fs(FsOp::Unlink {
        path: "/mine".into(),
    });
    let stranger = Request::new(2, m.stack.id, unlink, Credentials::new(9, 1000, 1000));
    let resp = process_request(&mut ctx, stranger, &m.ns, &m.mm, 0).payload;
    assert!(matches!(&resp, RespPayload::Err(e) if e.contains("permission denied")));
    assert_eq!(m.measured("perm"), (perm_ops + 1, perm_ns + 450));
    assert_eq!(m.measured("fs").0, fs_ops);

    // The log cannot reach a powered-off device: fsync fails in LabFS.
    m.dev.faults().set_crash_at(0);
    let resp = m.exec(&mut ctx, 0, Payload::Fs(FsOp::Fsync { ino }));
    assert!(matches!(resp, RespPayload::Err(_)), "{resp:?}");
    assert_eq!(m.measured("fs").0, fs_ops + 1, "the failed fsync is an op");
    assert_eq!(m.measured("perm").0, perm_ops + 2);
}

/// LabKVS, `compress` and `consistency` read what every other vertex
/// reads — their own work, not the whole clock down to the device poll
/// (1 434 900, 1 372 500 and 2 256 300 ns for these scripts when they
/// measured themselves) — and the vertices plus the hops between them
/// tile the clock.
#[test]
fn kvs_and_filters_count_their_own_work_only() {
    let hop = labstor::ipc::cost::SAME_DOMAIN_HOP_NS;
    let tiles = |m: &Machine, head: &str, ctx: &Ctx| {
        let ((ops, own), (hops, drv)) = (m.measured(head), m.measured("drv"));
        assert_eq!(own + drv + hops * hop, ctx.busy(), "{head}");
        (ops, own)
    };
    let block_writes = |head: (&str, &str)| {
        let m = Machine::chain(&[head, ("drv", "kernel_driver")]);
        let mut ctx = Ctx::new();
        for i in 0..100u64 {
            let op = BlockOp::Write {
                lba: i * 8,
                data: vec![i as u8; PAGE],
            };
            assert!(m.exec(&mut ctx, 0, Payload::Block(op)).is_ok());
        }
        tiles(&m, head.0, &ctx)
    };
    // 2 560 ns to compress 4 KiB; 50 ns to decide on a barrier.
    assert_eq!(block_writes(("cz", "compress")), (100, 256_000));
    assert_eq!(block_writes(("c", "consistency")), (100, 5_000));

    let m = Machine::chain(&[("kv", "labkvs"), ("drv", "kernel_driver")]);
    let mut ctx = Ctx::new();
    for i in 0..100u64 {
        let put = KvsOp::Put {
            key: format!("k{i}"),
            value: vec![i as u8; 1024],
        };
        assert!(m.exec(&mut ctx, 0, Payload::Kvs(put)).is_ok());
        let get = KvsOp::Get {
            key: format!("k{i}"),
        };
        assert!(m.exec(&mut ctx, 0, Payload::Kvs(get)).is_ok());
    }
    assert_eq!(tiles(&m, "kv", &ctx), (200, 62_000));
}
