//! What a request sees of the Namespace and the Module Registry: every
//! change made between two requests — an instance swapped under a UUID, a
//! DAG modified, a UUID loaded, a stack unmounted — is seen by the second
//! request, on a sync stack (run inline by the client) and on an async
//! stack (run by a worker) alike.

use std::any::Any;
use std::sync::Arc;

use labstor::core::stack::Vertex;
use labstor::core::{
    Client, ExecMode, LabMod, LabStack, ModType, Payload, Request, RespPayload, Runtime,
    RuntimeConfig, StackEnv, UpgradeKind, UpgradeRequest,
};
use labstor::ipc::Credentials;
use labstor::sim::Ctx;

/// A stage that answers with its label in front of everything downstream
/// of it, so a response names the instance behind every vertex it passed.
struct Tag(String);

// labmod-default-ok: a stateless test stage; upgrades here replace it whole
impl LabMod for Tag {
    fn type_name(&self) -> &'static str {
        "route_tag"
    }
    fn mod_type(&self) -> ModType {
        ModType::Dummy
    }
    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        if env.stack.vertices[env.vertex].outputs.is_empty() {
            return RespPayload::Names(vec![self.0.clone()]);
        }
        match env.forward(ctx, req) {
            RespPayload::Names(below) => {
                RespPayload::Names(std::iter::once(self.0.clone()).chain(below).collect())
            }
            other => other,
        }
    }
    fn est_processing_time(&self, _req: &Request) -> u64 {
        100
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn tag(label: &str) -> Arc<dyn LabMod> {
    Arc::new(Tag(label.into()))
}

/// A Runtime with one worker and no admin thread (the tests run the admin
/// tick themselves), and the `route_tag` type installed.
fn runtime() -> Arc<Runtime> {
    let rt = Runtime::start(RuntimeConfig {
        max_workers: 1,
        auto_admin: false,
        ..Default::default()
    });
    rt.mm.register_factory(
        "route_tag",
        Arc::new(|params| tag(params["label"].as_str().unwrap_or("?"))),
    );
    rt
}

/// A chain over `uuids`, mounted at `mount` with `exec`. The UUIDs need
/// not be loaded.
fn mount(rt: &Runtime, mount: &str, exec: ExecMode, uuids: &[&str]) -> Arc<LabStack> {
    rt.ns
        .mount(LabStack {
            id: 0,
            mount: mount.into(),
            exec,
            vertices: chain(uuids),
            authorized_uids: vec![0],
        })
        .unwrap()
}

fn chain(uuids: &[&str]) -> Vec<Vertex> {
    (0..uuids.len())
        .map(|i| Vertex {
            uuid: uuids[i].into(),
            outputs: if i + 1 < uuids.len() {
                vec![i + 1]
            } else {
                vec![]
            },
        })
        .collect()
}

/// Run one request: the labels it passed, or the error it answered.
fn ask(client: &mut Client, stack: &Arc<LabStack>) -> Result<Vec<String>, String> {
    match client
        .execute(stack, Payload::Dummy { work_ns: 0 })
        .unwrap()
        .0
    {
        RespPayload::Names(labels) => Ok(labels),
        RespPayload::Err(e) => Err(e),
        other => panic!("unexpected response {other:?}"),
    }
}

fn names(labels: &[&str]) -> Result<Vec<String>, String> {
    Ok(labels.iter().map(|s| s.to_string()).collect())
}

fn upgrade(rt: &Runtime, uuid: &str, label: &str, kind: UpgradeKind) {
    rt.request_upgrade(UpgradeRequest {
        uuid: uuid.into(),
        type_name: "route_tag".into(),
        params: serde_json::json!({ "label": label }),
        kind,
        code_bytes: 0,
        code_device: None,
    });
    rt.admin_tick();
    assert_eq!(rt.mm.pending_upgrades(), 0);
}

const EXECS: [ExecMode; 2] = [ExecMode::Sync, ExecMode::Async];

#[test]
fn a_mid_stack_swap_between_two_requests_is_seen_by_the_second() {
    for exec in EXECS {
        let rt = runtime();
        for (uuid, label) in [("head", "h1"), ("mid", "m1"), ("tail", "t1")] {
            rt.mm.insert_instance(uuid, tag(label));
        }
        let stack = mount(&rt, "tag::/swap", exec, &["head", "mid", "tail"]);
        let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
        assert_eq!(
            ask(&mut client, &stack),
            names(&["h1", "m1", "t1"]),
            "{exec:?}"
        );

        rt.mm.insert_instance("mid", tag("m2"));
        assert_eq!(
            ask(&mut client, &stack),
            names(&["h1", "m2", "t1"]),
            "{exec:?}"
        );

        upgrade(&rt, "mid", "m3", UpgradeKind::Centralized);
        assert_eq!(
            ask(&mut client, &stack),
            names(&["h1", "m3", "t1"]),
            "{exec:?}"
        );

        upgrade(&rt, "mid", "m4", UpgradeKind::Decentralized);
        assert_eq!(
            ask(&mut client, &stack),
            names(&["h1", "m4", "t1"]),
            "{exec:?}"
        );
        rt.shutdown();
    }
}

#[test]
fn a_modify_between_two_requests_is_seen_through_the_old_arc() {
    for exec in EXECS {
        let rt = runtime();
        for (uuid, label) in [("head", "h1"), ("mid", "m1"), ("tail", "t1")] {
            rt.mm.insert_instance(uuid, tag(label));
        }
        let before = mount(&rt, "tag::/modify", exec, &["head", "tail"]);
        let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
        assert_eq!(ask(&mut client, &before), names(&["h1", "t1"]), "{exec:?}");

        rt.ns
            .modify("tag::/modify", 0, chain(&["head", "mid", "tail"]))
            .unwrap();
        // The caller still holds the pre-modify stack.
        assert_eq!(before.vertices.len(), 2);
        assert_eq!(
            ask(&mut client, &before),
            names(&["h1", "m1", "t1"]),
            "{exec:?}"
        );

        rt.ns.modify("tag::/modify", 0, chain(&["tail"])).unwrap();
        assert_eq!(ask(&mut client, &before), names(&["t1"]), "{exec:?}");
        rt.shutdown();
    }
}

#[test]
fn an_unloaded_vertex_answers_not_loaded_until_it_is_instantiated() {
    for exec in EXECS {
        let rt = runtime();
        rt.mm.insert_instance("head", tag("h1"));
        let mid = mount(&rt, "tag::/ghost_mid", exec, &["head", "ghost"]);
        let entry = mount(&rt, "tag::/ghost_entry", exec, &["ghost2"]);
        let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
        for _ in 0..2 {
            assert_eq!(
                ask(&mut client, &mid),
                Err("module ghost not loaded".into()),
                "{exec:?}"
            );
            assert_eq!(
                ask(&mut client, &entry),
                Err("module ghost2 not loaded".into()),
                "{exec:?}"
            );
        }

        rt.mm
            .instantiate("ghost", "route_tag", &serde_json::json!({ "label": "g1" }))
            .unwrap();
        assert_eq!(ask(&mut client, &mid), names(&["h1", "g1"]), "{exec:?}");
        assert_eq!(
            ask(&mut client, &entry),
            Err("module ghost2 not loaded".into()),
            "{exec:?}"
        );
        rt.mm.insert_instance("ghost2", tag("g2"));
        assert_eq!(ask(&mut client, &entry), names(&["g2"]), "{exec:?}");
        rt.shutdown();
    }
}

#[test]
fn an_unmounted_stack_answers_no_stack() {
    for exec in EXECS {
        let rt = runtime();
        rt.mm.insert_instance("solo", tag("s1"));
        let stack = mount(&rt, "tag::/gone", exec, &["solo"]);
        let mut client = rt.connect(Credentials::new(1, 0, 0), 1);
        assert_eq!(ask(&mut client, &stack), names(&["s1"]), "{exec:?}");

        rt.ns.unmount("tag::/gone", 0).unwrap();
        for _ in 0..2 {
            assert_eq!(
                ask(&mut client, &stack),
                Err(format!("no stack {}", stack.id)),
                "{exec:?}"
            );
        }
        // A new mount at the same point is a new stack id.
        let again = mount(&rt, "tag::/gone", exec, &["solo"]);
        assert_ne!(again.id, stack.id);
        assert_eq!(ask(&mut client, &again), names(&["s1"]), "{exec:?}");
        rt.shutdown();
    }
}
