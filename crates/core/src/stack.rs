//! LabStacks and the LabStack Namespace (paper §III-B).
//!
//! A LabStack is "a user-defined combination of compatible LabMods into a
//! single I/O system": a mount point, a set of governing rules, and a DAG
//! of LabMod instances identified by human-readable UUIDs. Mounted stacks
//! live in the Namespace, a shared key-value store from mount point to
//! stack, and can be modified dynamically (vertex insertion/removal) while
//! applications run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Stack identifier within the Namespace.
pub type StackId = u64;

/// How a stack's DAG executes (paper §III-B "execution method").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Requests travel through IPC to Runtime workers (centralized:
    /// security, resource management, a separate address space).
    Async,
    /// The DAG executes directly in the client thread (decentralized:
    /// lowest latency, no IPC, weaker isolation — the paper's `Lab-D`).
    Sync,
}

/// One vertex of a LabStack DAG: a LabMod instance and its downstream
/// edges.
#[derive(Debug, Clone)]
pub struct Vertex {
    /// Instance UUID in the Module Registry.
    pub uuid: String,
    /// Indices of downstream vertices.
    pub outputs: Vec<usize>,
}

/// A mounted I/O stack.
#[derive(Debug, Clone)]
pub struct LabStack {
    /// Namespace-assigned id.
    pub id: StackId,
    /// Human-readable mount point (e.g. `fs::/b`).
    pub mount: String,
    /// Execution method.
    pub exec: ExecMode,
    /// The DAG; vertex 0 is the entry.
    pub vertices: Vec<Vertex>,
    /// Users allowed to modify the stack (governing rules).
    pub authorized_uids: Vec<u32>,
}

impl LabStack {
    /// Verify the DAG: non-empty, edges in range, acyclic.
    pub fn validate(&self) -> Result<(), String> {
        if self.vertices.is_empty() {
            return Err("stack has no vertices".into());
        }
        for (i, v) in self.vertices.iter().enumerate() {
            for &o in &v.outputs {
                if o >= self.vertices.len() {
                    return Err(format!(
                        "vertex {i} ({}) points to missing vertex {o}",
                        v.uuid
                    ));
                }
            }
        }
        // Cycle check: DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        fn dfs(n: usize, vs: &[Vertex], color: &mut [Color]) -> Result<(), String> {
            color[n] = Color::Gray;
            for &o in &vs[n].outputs {
                match color[o] {
                    Color::Gray => return Err(format!("cycle through vertex {o}")),
                    Color::White => dfs(o, vs, color)?,
                    Color::Black => {}
                }
            }
            color[n] = Color::Black;
            Ok(())
        }
        let mut color = vec![Color::White; self.vertices.len()];
        for i in 0..self.vertices.len() {
            if color[i] == Color::White {
                dfs(i, &self.vertices, &mut color)?;
            }
        }
        Ok(())
    }

    /// True if `uid` may modify this stack.
    pub fn authorizes(&self, uid: u32) -> bool {
        uid == 0 || self.authorized_uids.contains(&uid)
    }
}

/// The LabStack Namespace: mount point → stack, with the prefix lookup
/// GenericFS uses ("check if the path is in the Namespace; if not, check
/// the parent directory", §III-E).
#[derive(Default)]
pub struct Namespace {
    by_mount: RwLock<HashMap<String, Arc<LabStack>>>,
    by_id: RwLock<HashMap<StackId, Arc<LabStack>>>,
    next_id: AtomicU64,
    /// Bumped under the `by_mount` write lock by every mount, unmount and
    /// modify: a route resolved at one epoch is current while the epoch
    /// still reads the same.
    epoch: AtomicU64,
}

impl Namespace {
    /// Empty namespace.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Mount a stack (assigns its id). Fails on an occupied mount point or
    /// an invalid DAG.
    pub fn mount(&self, mut stack: LabStack) -> Result<Arc<LabStack>, String> {
        stack.validate()?;
        let mut by_mount = self.by_mount.write(); // lock-class: stack.mounts
        if by_mount.contains_key(&stack.mount) {
            return Err(format!("mount point {} already in use", stack.mount));
        }
        stack.id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: fresh-id allocation; atomicity alone suffices
        let arc = Arc::new(stack);
        by_mount.insert(arc.mount.clone(), arc.clone());
        self.by_id.write().insert(arc.id, arc.clone()); // lock-class: stack.ids
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(arc)
    }

    /// Unmount by mount point.
    pub fn unmount(&self, mount: &str, uid: u32) -> Result<(), String> {
        let mut by_mount = self.by_mount.write(); // lock-class: stack.mounts
        let stack = by_mount
            .get(mount)
            .ok_or_else(|| format!("{mount} not mounted"))?;
        if !stack.authorizes(uid) {
            return Err(format!("uid {uid} may not modify {mount}"));
        }
        let id = stack.id;
        by_mount.remove(mount);
        self.by_id.write().remove(&id); // lock-class: stack.ids
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Exact-mount lookup.
    pub fn get(&self, mount: &str) -> Option<Arc<LabStack>> {
        self.by_mount.read().get(mount).cloned() // lock-class: stack.mounts
    }

    /// Lookup by id.
    pub fn get_id(&self, id: StackId) -> Option<Arc<LabStack>> {
        self.by_id.read().get(&id).cloned() // lock-class: stack.ids
    }

    /// The namespace's epoch: it moves whenever a stack is mounted,
    /// unmounted or modified.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// GenericFS-style resolution: find the stack governing `path` by
    /// checking the path itself, then each ancestor. Returns the stack and
    /// the path remainder relative to the mount.
    pub fn resolve(&self, path: &str) -> Option<(Arc<LabStack>, String)> {
        let by_mount = self.by_mount.read(); // lock-class: stack.mounts
        let mut probe = path.trim_end_matches('/');
        loop {
            if let Some(stack) = by_mount.get(probe) {
                let rest = &path[probe.len()..];
                let rel = if rest.is_empty() {
                    "/".to_string()
                } else {
                    rest.to_string()
                };
                return Some((stack.clone(), rel));
            }
            match probe.rfind('/') {
                Some(0) | None => {
                    return by_mount.get("/").map(|s| (s.clone(), path.to_string()));
                }
                Some(i) => probe = &probe[..i],
            }
        }
    }

    /// Replace a mounted stack's DAG (the `modify_stack` command). The new
    /// DAG is validated; `uid` must be authorized.
    pub fn modify(&self, mount: &str, uid: u32, vertices: Vec<Vertex>) -> Result<(), String> {
        let mut by_mount = self.by_mount.write(); // lock-class: stack.mounts
        let old = by_mount
            .get(mount)
            .ok_or_else(|| format!("{mount} not mounted"))?;
        if !old.authorizes(uid) {
            return Err(format!("uid {uid} may not modify {mount}"));
        }
        let mut new = (**old).clone();
        new.vertices = vertices;
        new.validate()?;
        let arc = Arc::new(new);
        by_mount.insert(mount.to_string(), arc.clone());
        self.by_id.write().insert(arc.id, arc); // lock-class: stack.ids
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// All mounted stacks.
    pub fn stacks(&self) -> Vec<Arc<LabStack>> {
        self.by_mount.read().values().cloned().collect() // lock-class: stack.mounts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(mount: &str, n: usize) -> LabStack {
        LabStack {
            id: 0,
            mount: mount.into(),
            exec: ExecMode::Async,
            vertices: (0..n)
                .map(|i| Vertex {
                    uuid: format!("m{i}"),
                    outputs: if i + 1 < n { vec![i + 1] } else { vec![] },
                })
                .collect(),
            authorized_uids: vec![100],
        }
    }

    #[test]
    fn mount_and_lookup() {
        let ns = Namespace::new();
        let s = ns.mount(stack("fs::/a", 2)).unwrap();
        assert!(s.id > 0);
        assert_eq!(ns.get("fs::/a").unwrap().id, s.id);
        assert_eq!(ns.get_id(s.id).unwrap().mount, "fs::/a");
    }

    #[test]
    fn duplicate_mount_rejected() {
        let ns = Namespace::new();
        ns.mount(stack("fs::/a", 1)).unwrap();
        assert!(ns.mount(stack("fs::/a", 1)).is_err());
    }

    #[test]
    fn empty_stack_rejected() {
        let ns = Namespace::new();
        assert!(ns.mount(stack("fs::/e", 0)).is_err());
    }

    #[test]
    fn cyclic_dag_rejected() {
        let mut s = stack("fs::/c", 2);
        s.vertices[1].outputs = vec![0]; // 0 → 1 → 0
        assert!(s.validate().is_err());
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut s = stack("fs::/d", 1);
        s.vertices[0].outputs = vec![5];
        assert!(s.validate().is_err());
    }

    #[test]
    fn resolve_walks_up_ancestors() {
        let ns = Namespace::new();
        ns.mount(stack("fs::/b", 1)).unwrap();
        // Exactly the paper's §III-E example: "fs::/b/hi.txt" is not
        // mounted, its parent "fs::/b" is.
        let (s, rel) = ns.resolve("fs::/b/hi.txt").unwrap();
        assert_eq!(s.mount, "fs::/b");
        assert_eq!(rel, "/hi.txt");
        let (_, rel) = ns.resolve("fs::/b").unwrap();
        assert_eq!(rel, "/");
        assert!(ns.resolve("fs::/zzz/x").is_none());
    }

    #[test]
    fn modify_requires_authorization() {
        let ns = Namespace::new();
        ns.mount(stack("fs::/m", 2)).unwrap();
        let new_vs = vec![Vertex {
            uuid: "solo".into(),
            outputs: vec![],
        }];
        assert!(ns.modify("fs::/m", 999, new_vs.clone()).is_err());
        ns.modify("fs::/m", 100, new_vs).unwrap(); // authorized uid
        assert_eq!(ns.get("fs::/m").unwrap().vertices.len(), 1);
    }

    #[test]
    fn unmount_removes_both_indexes() {
        let ns = Namespace::new();
        let s = ns.mount(stack("fs::/u", 1)).unwrap();
        assert!(ns.unmount("fs::/u", 42).is_err()); // unauthorized
        ns.unmount("fs::/u", 0).unwrap(); // root may
        assert!(ns.get("fs::/u").is_none());
        assert!(ns.get_id(s.id).is_none());
    }
}
