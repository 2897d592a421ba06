//! The permissions-checking LabMod (Fig. 4a's 3% stage; removing it is
//! the difference between the paper's `Lab-All` and `Lab-Min` stacks).
//!
//! Sits in front of a filesystem or KVS stage. Operations that name a
//! path or key (create, open, unlink, stat, readdir; put, get, remove)
//! are checked against the ownership recorded at creation. Everything
//! else — data operations by inode (read, write, truncate, fsync) and a
//! rename among them — is charged the check's cost and forwarded
//! unchecked: a file's access was enforced when it was opened. Because
//! LabStacks are composable, users who do not need this (single-tenant
//! storage nodes) simply leave it out of the spec — the paper's tunable
//! access control.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use labstor_core::{
    FsOp, KvsOp, LabMod, ModType, ModuleManager, Payload, Request, RespPayload, StackEnv,
};
use labstor_sim::Ctx;

/// Per-operation check cost (ACL lookup + uid compare).
const PERM_CHECK_NS: u64 = 450;

#[derive(Clone, Copy)]
struct Owner {
    uid: u32,
    gid: u32,
    mode: u16,
}

/// The permissions LabMod.
pub(crate) struct PermsMod {
    /// Path (or key) ownership, recorded at create time.
    owners: RwLock<HashMap<String, Owner>>,
    /// Mode given to new entries.
    default_mode: u16,
}

impl PermsMod {
    /// New checker; entries created through it get `default_mode`.
    pub(crate) fn new(default_mode: u16) -> Self {
        PermsMod {
            owners: RwLock::new(HashMap::new()),
            default_mode,
        }
    }

    fn check(&self, req: &Request, name: &str, want: u16) -> bool {
        let owners = self.owners.read();
        match owners.get(name) {
            Some(o) => req.creds.allows(o.uid, o.gid, o.mode, want),
            // Unknown entries: creation is allowed (ownership recorded),
            // other access falls to the filesystem's own checks.
            None => true,
        }
    }

    fn record(&self, req: &Request, name: &str, mode: u16) {
        self.owners.write().insert(
            name.to_string(),
            Owner {
                uid: req.creds.uid,
                gid: req.creds.gid,
                mode,
            },
        );
    }
}

// labmod-default-ok: ACL table migrates in state_update; policy is spec-derived with no durable state, so the repair default is safe
impl LabMod for PermsMod {
    fn type_name(&self) -> &'static str {
        "permissions"
    }

    fn mod_type(&self) -> ModType {
        ModType::Filter
    }

    fn process(&self, ctx: &mut Ctx, req: Request, env: &StackEnv<'_>) -> RespPayload {
        ctx.advance(PERM_CHECK_NS);
        let denied = |what: &str| RespPayload::Err(format!("permission denied: {what}"));
        match &req.payload {
            Payload::Fs(FsOp::Create { path, mode }) => {
                if !self.check(&req, path, 0o2) {
                    return denied(path);
                }
                self.record(&req, path, *mode);
            }
            Payload::Fs(FsOp::Open { path, create, .. }) => {
                let want = if *create { 0o2 } else { 0o4 };
                if !self.check(&req, path, want) {
                    return denied(path);
                }
                if *create {
                    self.record(&req, path, self.default_mode);
                }
            }
            Payload::Fs(FsOp::Unlink { path }) => {
                if !self.check(&req, path, 0o2) {
                    return denied(path);
                }
                self.owners.write().remove(path);
            }
            Payload::Fs(FsOp::Stat { path } | FsOp::Readdir { path })
                if !self.check(&req, path, 0o4) =>
            {
                return denied(path);
            }
            // PutBuf is access-checked exactly like Put: the zero-copy
            // payload representation must not bypass the ACL.
            Payload::Kvs(KvsOp::Put { key, .. } | KvsOp::PutBuf { key, .. }) => {
                if !self.check(&req, key, 0o2) {
                    return denied(key);
                }
                self.record(&req, key, self.default_mode);
            }
            Payload::Kvs(KvsOp::Get { key }) if !self.check(&req, key, 0o4) => {
                return denied(key);
            }
            Payload::Kvs(KvsOp::Remove { key }) => {
                if !self.check(&req, key, 0o2) {
                    return denied(key);
                }
                self.owners.write().remove(key);
            }
            // Data ops by inode and everything else: the check cost was
            // charged; enforcement happened at open time.
            _ => {}
        }
        env.forward(ctx, req)
    }

    fn est_processing_time(&self, _req: &Request) -> u64 {
        PERM_CHECK_NS
    }

    fn state_update(&self, old: &dyn LabMod) {
        if let Some(prev) = old.as_any().downcast_ref::<PermsMod>() {
            *self.owners.write() = prev.owners.read().clone();
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Register the factory. Params: `{"default_mode": <u16>}` (default
/// 0o644).
pub(crate) fn install(mm: &ModuleManager) {
    mm.register_factory(
        "permissions",
        Arc::new(|params| {
            let mode = params
                .get("default_mode")
                .and_then(|v| v.as_u64())
                .unwrap_or(0o644) as u16;
            Arc::new(PermsMod::new(mode)) as Arc<dyn LabMod>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_core::stack::{ExecMode, LabStack, Vertex};
    use labstor_ipc::Credentials;

    struct Sink;
    impl LabMod for Sink {
        fn type_name(&self) -> &'static str {
            "sink"
        }
        fn mod_type(&self) -> ModType {
            ModType::Dummy
        }
        fn process(&self, _ctx: &mut Ctx, _req: Request, _env: &StackEnv<'_>) -> RespPayload {
            RespPayload::Ok
        }
        fn est_processing_time(&self, _req: &Request) -> u64 {
            1
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn setup() -> (ModuleManager, LabStack) {
        let mm = ModuleManager::new();
        install(&mm);
        mm.instantiate(
            "p",
            "permissions",
            &serde_json::json!({"default_mode": 0o600}),
        )
        .unwrap();
        mm.insert_instance("sink", Arc::new(Sink));
        let stack = LabStack {
            id: 1,
            mount: "x".into(),
            exec: ExecMode::Sync,
            vertices: vec![
                Vertex {
                    uuid: "p".into(),
                    outputs: vec![1],
                },
                Vertex {
                    uuid: "sink".into(),
                    outputs: vec![],
                },
            ],
            authorized_uids: vec![],
        };
        (mm, stack)
    }

    fn exec(
        mm: &ModuleManager,
        stack: &LabStack,
        payload: Payload,
        creds: Credentials,
    ) -> RespPayload {
        let env = StackEnv::new(stack, 0, mm, 0);
        let m = mm.get("p").unwrap();
        let mut ctx = Ctx::new();
        m.process(&mut ctx, Request::new(1, 1, payload, creds), &env)
    }

    #[test]
    fn owner_passes_stranger_denied() {
        let (mm, stack) = setup();
        let alice = Credentials::new(1, 100, 100);
        let bob = Credentials::new(2, 200, 200);
        let create = Payload::Fs(FsOp::Create {
            path: "/secret".into(),
            mode: 0o600,
        });
        assert!(exec(&mm, &stack, create, alice).is_ok());
        // Bob cannot open or unlink Alice's 0600 file.
        let open = Payload::Fs(FsOp::Open {
            path: "/secret".into(),
            create: false,
            truncate: false,
        });
        assert!(!exec(&mm, &stack, open.clone(), bob).is_ok());
        assert!(exec(&mm, &stack, open, alice).is_ok());
        let unlink = Payload::Fs(FsOp::Unlink {
            path: "/secret".into(),
        });
        assert!(!exec(&mm, &stack, unlink.clone(), bob).is_ok());
        assert!(exec(&mm, &stack, unlink, alice).is_ok());
    }

    #[test]
    fn root_bypasses_everything() {
        let (mm, stack) = setup();
        let alice = Credentials::new(1, 100, 100);
        let create = Payload::Fs(FsOp::Create {
            path: "/f".into(),
            mode: 0o000,
        });
        assert!(exec(&mm, &stack, create, alice).is_ok());
        let stat = Payload::Fs(FsOp::Stat { path: "/f".into() });
        assert!(exec(&mm, &stack, stat, Credentials::ROOT).is_ok());
    }

    #[test]
    fn kvs_keys_are_protected_too() {
        let (mm, stack) = setup();
        let alice = Credentials::new(1, 100, 100);
        let bob = Credentials::new(2, 200, 200);
        let put = Payload::Kvs(KvsOp::Put {
            key: "k1".into(),
            value: vec![1],
        });
        assert!(exec(&mm, &stack, put, alice).is_ok());
        let get = Payload::Kvs(KvsOp::Get { key: "k1".into() });
        assert!(!exec(&mm, &stack, get.clone(), bob).is_ok());
        assert!(exec(&mm, &stack, get, alice).is_ok());
    }

    #[test]
    fn state_survives_upgrade() {
        let (mm, stack) = setup();
        let alice = Credentials::new(1, 100, 100);
        let create = Payload::Fs(FsOp::Create {
            path: "/owned".into(),
            mode: 0o600,
        });
        exec(&mm, &stack, create, alice);
        let old = mm.get("p").unwrap();
        let newer = PermsMod::new(0o644);
        newer.state_update(old.as_ref());
        assert_eq!(newer.owners.read().len(), 1);
    }
}
