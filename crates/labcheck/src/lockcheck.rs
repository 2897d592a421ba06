//! Lock-discipline lint: the static half of **lockcheck**.
//!
//! PR 5 fixed two lock bugs that only human review caught — a
//! self-deadlock from calling, with a non-reentrant mutex held, a
//! function that locks the same class, and torn multi-chunk `ShMem` reads
//! from unordered chunk-lock acquisition. The repaired invariants lived
//! only in comments. This lint makes them machine-checked:
//!
//! 1. Every lock acquisition in the governed crates (a `.lock()`, an
//!    argument-less `.read()`/`.write()` on an `RwLock`, or a virtual
//!    `Resource::acquire`) must carry a `// lock-class: <name>`
//!    annotation naming a class in the workspace registry
//!    ([`crate::lint::Config::labstor`]).
//! 2. Classes form a declared total order by rank. Acquiring a class
//!    whose rank is ≤ a class already held (statically, within one
//!    function extent) is an order violation.
//! 3. Acquiring a class that is already held is a re-entry violation
//!    unless the class is declared `nest_within` (same-class nesting in
//!    ascending instance order, e.g. the ShMem chunk sweep).
//!
//! Held-class tracking is a deliberately conservative line-oriented
//! approximation: a guard bound with `let g = x.lock()` is held until
//! `drop(g)`, a rebind, or its brace scope closes; an unbound acquisition
//! (`x.lock().push(..)`) is treated as released at the end of its
//! statement. Calls to same-file functions propagate the callee's
//! (transitively) acquired classes to the call site — that is what
//! catches the PR 5 shape, a lock held across a call whose callee locks
//! the same class.
//! The approximation under-reports holds (never false-positives on
//! releases); the runtime lock witness (`labstor_ipc::lockwitness`)
//! covers what the static view cannot see.

use std::collections::{HashMap, HashSet};

use crate::lint::{Config, Diagnostic, Lint};
use crate::scan::SourceFile;

/// One entry of the workspace lock-class registry.
#[derive(Debug, Clone, Copy)]
pub struct LockClassSpec {
    /// Registry name carried by `// lock-class:` annotations.
    pub name: &'static str,
    /// Position in the declared acquisition order (acquire ascending).
    pub rank: u16,
    /// Same-class nesting permitted (multi-instance, ascending order).
    pub nest_within: bool,
    /// A virtual-time [`Resource`] (annotation required, never held — a
    /// reservation returns a time window, not a guard).
    pub virtual_only: bool,
}

impl LockClassSpec {
    /// A plain non-reentrant lock class.
    pub const fn lock(name: &'static str, rank: u16) -> Self {
        LockClassSpec {
            name,
            rank,
            nest_within: false,
            virtual_only: false,
        }
    }

    /// A class whose instances may nest in ascending order.
    pub const fn ordered(name: &'static str, rank: u16) -> Self {
        LockClassSpec {
            name,
            rank,
            nest_within: true,
            virtual_only: false,
        }
    }

    /// A virtual-time resource class (annotation-only).
    pub const fn resource(name: &'static str) -> Self {
        LockClassSpec {
            name,
            rank: u16::MAX,
            nest_within: false,
            virtual_only: true,
        }
    }
}

/// The marker every acquisition site must carry.
pub const LOCK_CLASS_MARKER: &str = "lock-class:";

/// One acquisition site found in a function body.
#[derive(Debug, Clone)]
struct Acquire {
    /// 0-based line index.
    line: usize,
    /// Brace depth at the start of the line (relative to the file).
    depth: i64,
    /// Resolved class name, if annotated and registered.
    class: Option<&'static str>,
    /// Binding that owns the guard (`let g = …` / `g = …`); `None` for a
    /// statement-temporary guard, released at end of statement.
    binding: Option<String>,
    /// The matched acquisition pattern (diagnostics).
    pattern: &'static str,
    /// True for a virtual `Resource::acquire` (never held).
    is_virtual: bool,
}

/// Run the lock-discipline lint over one preprocessed file.
pub fn lint_lock_discipline(cfg: &Config, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !cfg.lock_paths.iter().any(|p| file.name.contains(p)) {
        return;
    }
    let registry: HashMap<&str, &LockClassSpec> =
        cfg.lock_classes.iter().map(|c| (c.name, c)).collect();

    // Pass 0: per-line brace depth at line start.
    let mut depth_at: Vec<i64> = Vec::with_capacity(file.lines.len());
    let mut depth: i64 = 0;
    for line in &file.lines {
        depth_at.push(depth);
        for ch in line.code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }

    // Pass 1: every acquisition site in the file — annotation checks plus
    // the per-function direct-acquisition map.
    let fns = file.fn_items();
    let mut sites: Vec<Acquire> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some((pattern, is_virtual)) = acquisition_on(&line.code) else {
            continue;
        };
        let class = match file.annotation_value(idx, LOCK_CLASS_MARKER) {
            None => {
                diags.push(Diagnostic {
                    file: file.name.clone(),
                    line: idx + 1,
                    lint: Lint::LockAnnotation,
                    message: format!(
                        "{pattern} without `// lock-class: <name>` (register the class and \
                         its rank in labcheck's lock registry — DESIGN.md §7)"
                    ),
                });
                None
            }
            // `(caller)`: delegation inside a lock wrapper (OrderedMutex/
            // OrderedRwLock) whose class is supplied by the caller at
            // construction — the annotated call site in the caller is what
            // the discipline governs; the wrapper's inner acquire is skipped.
            Some(name) if name == "(caller)" => continue,
            Some(name) => match registry.get(name.as_str()) {
                Some(spec) => Some(spec.name),
                None => {
                    diags.push(Diagnostic {
                        file: file.name.clone(),
                        line: idx + 1,
                        lint: Lint::LockAnnotation,
                        message: format!(
                            "lock-class `{name}` is not in the workspace registry \
                             (labcheck::lint::Config::labstor)"
                        ),
                    });
                    None
                }
            },
        };
        sites.push(Acquire {
            line: idx,
            depth: depth_at[idx],
            class,
            binding: guard_binding(&file.lines[idx].code),
            pattern,
            is_virtual,
        });
    }

    // Direct real-lock classes per function name (same-named fns merge —
    // conservative for files that reuse a method name across impl blocks).
    let mut direct: HashMap<String, HashSet<&'static str>> = HashMap::new();
    for (name, start, end) in &fns {
        let entry = direct.entry(name.clone()).or_default();
        for s in &sites {
            if s.line >= *start && s.line <= *end && !s.is_virtual {
                if let Some(c) = s.class {
                    entry.insert(c);
                }
            }
        }
    }
    // Transitive closure over same-file `self.f(..)` / `Self::f(..)` calls.
    let calls = call_graph(file, &fns);
    let acquired = transitive(&direct, &calls);

    // Pass 2: per-function held-class walk.
    for (fn_name, start, end) in &fns {
        walk_fn(
            cfg, file, &registry, &sites, &acquired, &calls, &depth_at, fn_name, *start, *end,
            diags,
        );
    }
}

/// The acquisition pattern on a code line, if any: `(.lock() | .read() |
/// .write() | .acquire()` as a method call. `.read()`/`.write()` only
/// count with empty argument lists — with arguments they are I/O methods,
/// not `RwLock` guards.
fn acquisition_on(code: &str) -> Option<(&'static str, bool)> {
    if code.contains(".acquire(") {
        return Some((".acquire(..)", true));
    }
    if code.contains(".lock()") {
        return Some((".lock()", false));
    }
    if code.contains(".read()") {
        return Some((".read()", false));
    }
    if code.contains(".write()") {
        return Some((".write()", false));
    }
    None
}

/// The binding that will own the guard produced on this line: `let g =`,
/// `let mut g =`, or a plain rebind `g = …`. `None` when the guard is a
/// statement temporary (no binding) or the binding is a non-guard pattern
/// (tuples — `Resource::acquire` time windows).
fn guard_binding(code: &str) -> Option<String> {
    // A `*` between the `=` and the acquisition derefs the guard in place
    // (`let v = std::mem::take(&mut *m.lock());`): the binding takes the
    // extracted value and the guard itself dies at the statement's end.
    fn rhs_keeps_guard(rhs: &str) -> bool {
        let end = [".lock()", ".read()", ".write()"]
            .iter()
            .filter_map(|p| rhs.find(p))
            .min()
            .unwrap_or(rhs.len());
        !rhs[..end].contains('*')
    }
    let t = code.trim_start();
    let rest = if let Some(r) = t.strip_prefix("let mut ") {
        r
    } else if let Some(r) = t.strip_prefix("let ") {
        r
    } else {
        // Plain rebind: `g = x.lock();`
        let ident: String = t
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let after = t[ident.len()..].trim_start();
        if !ident.is_empty()
            && after.starts_with('=')
            && !after.starts_with("==")
            && rhs_keeps_guard(&after[1..])
        {
            return Some(ident);
        }
        return None;
    };
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let after = rest[ident.len()..].trim_start();
    if ident.is_empty() {
        return None;
    }
    if after.starts_with('=') && !after.starts_with("==") {
        return rhs_keeps_guard(&after[1..]).then_some(ident);
    }
    // Type-ascribed binding: `let guards: Vec<_> = …`.
    (after.starts_with(':')
        && after
            .split_once(" = ")
            .is_some_and(|(_, rhs)| rhs_keeps_guard(rhs)))
    .then_some(ident)
}

/// Same-file call graph: for each function extent, the set of same-file
/// functions invoked as `self.f(` or `Self::f(`.
fn call_graph(
    file: &SourceFile,
    fns: &[(String, usize, usize)],
) -> HashMap<String, HashSet<String>> {
    let names: HashSet<&str> = fns.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut graph: HashMap<String, HashSet<String>> = HashMap::new();
    for (name, start, end) in fns {
        let entry = graph.entry(name.clone()).or_default();
        for idx in *start..=*end {
            for callee in line_calls(&file.lines[idx].code) {
                if names.contains(callee.as_str()) && callee != *name {
                    entry.insert(callee);
                }
            }
        }
    }
    graph
}

/// Same-file callees invoked on this line via `self.f(` or `Self::f(`.
fn line_calls(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for prefix in ["self.", "Self::"] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(prefix) {
            let abs = from + pos + prefix.len();
            from = abs;
            let ident: String = code[abs..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() && code[abs + ident.len()..].starts_with('(') {
                out.push(ident);
            }
        }
    }
    out
}

/// Transitive closure of per-function acquired classes over the call
/// graph (fixpoint; cycles converge).
fn transitive(
    direct: &HashMap<String, HashSet<&'static str>>,
    calls: &HashMap<String, HashSet<String>>,
) -> HashMap<String, HashSet<&'static str>> {
    let mut acquired = direct.clone();
    loop {
        let mut changed = false;
        for (caller, callees) in calls {
            let mut add: HashSet<&'static str> = HashSet::new();
            for callee in callees {
                if let Some(set) = acquired.get(callee) {
                    add.extend(set.iter().copied());
                }
            }
            let entry = acquired.entry(caller.clone()).or_default();
            for c in add {
                changed |= entry.insert(c);
            }
        }
        if !changed {
            return acquired;
        }
    }
}

/// A guard held at some point of the walk.
struct Held {
    class: &'static str,
    rank: u16,
    nest_within: bool,
    depth: i64,
    binding: Option<String>,
    line: usize,
}

/// Walk one function extent tracking held guards; emit order/re-entry
/// diagnostics for direct acquisitions and for calls to same-file
/// functions that (transitively) acquire a conflicting class.
#[allow(clippy::too_many_arguments)]
fn walk_fn(
    _cfg: &Config,
    file: &SourceFile,
    registry: &HashMap<&str, &LockClassSpec>,
    sites: &[Acquire],
    acquired: &HashMap<String, HashSet<&'static str>>,
    calls: &HashMap<String, HashSet<String>>,
    depth_at: &[i64],
    fn_name: &str,
    start: usize,
    end: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut held: Vec<Held> = Vec::new();
    let by_line: HashMap<usize, &Acquire> = sites
        .iter()
        .filter(|s| s.line >= start && s.line <= end)
        .map(|s| (s.line, s))
        .collect();
    // The index walks three parallel per-line tables (lines, depth_at,
    // by_line), so a range loop reads better than chained enumerates.
    #[allow(clippy::needless_range_loop)]
    for idx in start..=end {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        // Scope exits release guards acquired at deeper depth.
        held.retain(|h| depth_at[idx] >= h.depth);
        // Explicit `drop(g)` releases by binding.
        for dropped in drop_calls(&line.code) {
            held.retain(|h| h.binding.as_deref() != Some(dropped.as_str()));
        }
        // Calls into same-file functions carry their acquisitions here.
        if !held.is_empty() {
            for callee in line_calls(&line.code) {
                if !calls.contains_key(&callee) && !acquired.contains_key(&callee) {
                    continue;
                }
                let Some(callee_classes) = acquired.get(&callee) else {
                    continue;
                };
                for c in callee_classes {
                    let spec = registry[c];
                    check_against_held(
                        file,
                        idx,
                        &held,
                        c,
                        spec,
                        &format!("call to `{callee}` (which acquires `{c}`)"),
                        diags,
                    );
                }
            }
        }
        // Direct acquisition on this line.
        if let Some(site) = by_line.get(&idx) {
            if let Some(class) = site.class {
                let spec = registry[class];
                if !site.is_virtual {
                    check_against_held(
                        file,
                        idx,
                        &held,
                        class,
                        spec,
                        &format!("{} of `{class}`", site.pattern),
                        diags,
                    );
                    // Rebinds replace the old guard before tracking the new.
                    if let Some(b) = &site.binding {
                        held.retain(|h| h.binding.as_deref() != Some(b.as_str()));
                        held.push(Held {
                            class,
                            rank: spec.rank,
                            nest_within: spec.nest_within,
                            // The guard lives in the scope containing the
                            // statement; released when depth drops below.
                            depth: site.depth,
                            binding: Some(b.clone()),
                            line: idx,
                        });
                    }
                    // Unbound guards die at end of statement: not tracked.
                }
            }
        }
    }
    let _ = fn_name;
}

/// Order/re-entry checks for acquiring `class` while `held` are held.
fn check_against_held(
    file: &SourceFile,
    idx: usize,
    held: &[Held],
    class: &'static str,
    spec: &LockClassSpec,
    what: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for h in held {
        if h.class == class {
            if !spec.nest_within || !h.nest_within {
                diags.push(Diagnostic {
                    file: file.name.clone(),
                    line: idx + 1,
                    lint: Lint::LockReentry,
                    message: format!(
                        "{what} while `{class}` is already held (acquired line {}) — \
                         the class is non-reentrant; release first or declare the \
                         class nest_within",
                        h.line + 1
                    ),
                });
            }
        } else if spec.rank <= h.rank {
            diags.push(Diagnostic {
                file: file.name.clone(),
                line: idx + 1,
                lint: Lint::LockOrder,
                message: format!(
                    "{what} violates the declared lock order: `{}` (rank {}) is \
                     held (acquired line {}) and `{class}` has rank {} — acquire \
                     classes in ascending rank",
                    h.class,
                    h.rank,
                    h.line + 1,
                    spec.rank
                ),
            });
        }
    }
}

/// Bindings released by `drop(g)` calls on this line.
fn drop_calls(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("drop(") {
        let abs = from + pos;
        from = abs + 5;
        // `drop` must be a standalone call, not `.drop(` or `x_drop(`.
        let before = code[..abs].chars().next_back();
        if matches!(before, Some(c) if c.is_alphanumeric() || c == '_' || c == '.') {
            continue;
        }
        let ident: String = code[abs + 5..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !ident.is_empty() && code[abs + 5 + ident.len()..].starts_with(')') {
            out.push(ident);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lint::{lint_source, Config, Lint};

    fn lock_cfg() -> Config {
        let mut cfg = Config::labstor();
        // Fixtures pretend to live in a governed crate.
        cfg.lock_paths.push("fixtures/");
        cfg
    }

    fn lints_of(src: &str) -> Vec<(Lint, usize)> {
        lint_source(&lock_cfg(), "fixtures/locks.rs", src)
            .into_iter()
            .map(|d| (d.lint, d.line))
            .collect()
    }

    #[test]
    fn unannotated_acquisition_flagged() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    g.push(1);\n}";
        assert_eq!(lints_of(src), vec![(Lint::LockAnnotation, 2)]);
    }

    #[test]
    fn annotated_acquisition_clean() {
        let src = "fn f(&self) {\n    let g = self.m.lock(); // lock-class: pagecache.shard\n    g.push(1);\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn unknown_class_flagged() {
        let src = "fn f(&self) {\n    let g = self.m.lock(); // lock-class: no.such.class\n}";
        assert_eq!(lints_of(src), vec![(Lint::LockAnnotation, 2)]);
    }

    #[test]
    fn order_violation_within_fn() {
        // pool.tracker outranks pagecache.shard: acquiring the shard while
        // the tracker is held inverts the declared order.
        let src = "fn f(&self) {\n    let t = self.tracker.lock(); // lock-class: pool.tracker\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n    drop(s);\n    drop(t);\n}";
        assert_eq!(lints_of(src), vec![(Lint::LockOrder, 3)]);
    }

    #[test]
    fn ascending_order_clean() {
        let src = "fn f(&self) {\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n    let t = self.tracker.lock(); // lock-class: pool.tracker\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn reentry_on_nonreentrant_class() {
        let src = "fn f(&self) {\n    let a = self.shard_a.lock(); // lock-class: pagecache.shard\n    let b = self.shard_b.lock(); // lock-class: pagecache.shard\n}";
        assert_eq!(lints_of(src), vec![(Lint::LockReentry, 3)]);
    }

    #[test]
    fn nest_within_class_may_nest() {
        let src = "fn f(&self) {\n    let a = self.chunks[0].write(); // lock-class: shmem.chunk\n    let b = self.chunks[1].write(); // lock-class: shmem.chunk\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn drop_releases_guard() {
        let src = "fn f(&self) {\n    let t = self.tracker.lock(); // lock-class: pool.tracker\n    drop(t);\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn scope_exit_releases_guard() {
        let src = "fn f(&self) {\n    {\n        let t = self.tracker.lock(); // lock-class: pool.tracker\n    }\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn temporary_guard_not_held() {
        // An unbound guard dies at end of statement: the next acquisition
        // is not nested under it.
        let src = "fn f(&self) {\n    self.tracker.lock().insert(1); // lock-class: pool.tracker\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn deref_extraction_not_held() {
        // `std::mem::take(&mut *m.lock())` derefs the guard in place; the
        // binding owns the extracted value, not the guard.
        let src = "fn f(&self) {\n    let batch: Vec<u8> = std::mem::take(&mut *self.tracker.lock()); // lock-class: pool.tracker\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n    s.touch(batch);\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn pr5_shape_call_under_held_lock_flagged() {
        // The PR 5 bug: `write` holds the shard lock and calls
        // `alloc_page`, which locks the same shard class. The call-site
        // check catches it interprocedurally.
        let src = "\
fn alloc_page(&self) -> Buf {
    let inner = self.shard.lock(); // lock-class: pagecache.shard
    inner.shed()
}
fn write(&self) {
    let mut inner = self.shard.lock(); // lock-class: pagecache.shard
    if inner.full() {
        let fresh = self.alloc_page();
        inner.insert(fresh);
    }
}";
        assert_eq!(lints_of(src), vec![(Lint::LockReentry, 8)]);
    }

    #[test]
    fn pr5_fixed_shape_clean() {
        // The shipped fix: drop the guard before allocating, re-lock after.
        let src = "\
fn alloc_page(&self) -> Buf {
    let inner = self.shard.lock(); // lock-class: pagecache.shard
    inner.shed()
}
fn write(&self) {
    let mut inner = self.shard.lock(); // lock-class: pagecache.shard
    if inner.full() {
        drop(inner);
        let fresh = self.alloc_page();
        inner = self.shard.lock(); // lock-class: pagecache.shard
        inner.insert(fresh);
    }
}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn virtual_resource_requires_annotation_but_never_holds() {
        let src = "fn f(&self) {\n    let (_, end) = self.res.acquire(now, 100);\n}";
        assert_eq!(lints_of(src), vec![(Lint::LockAnnotation, 2)]);
        let ok = "fn f(&self) {\n    let (_, end) = self.res.acquire(now, 100); // lock-class: pagecache.maplock\n    let s = self.shard.lock(); // lock-class: pagecache.shard\n}";
        assert!(lints_of(ok).is_empty());
    }

    #[test]
    fn io_read_write_with_args_not_acquisitions() {
        let src = "fn f(&self) {\n    self.handle.read(10, &mut buf).unwrap();\n    self.handle.write(0, &buf).unwrap();\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        let g = self.m.lock();\n    }\n}";
        assert!(lints_of(src).is_empty());
    }

    #[test]
    fn ungoverned_path_exempt() {
        let cfg = Config::labstor();
        let src = "fn f(&self) {\n    let g = self.m.lock();\n}";
        assert!(lint_source(&cfg, "crates/mods/src/lru.rs", src)
            .iter()
            .all(|d| d.lint != Lint::LockAnnotation));
    }
}
