//! The LabStor-specific lints (see DESIGN.md §"Static analysis").
//!
//! Each lint is a pure function over a preprocessed [`SourceFile`], which
//! makes them trivially testable on in-memory fixture snippets; the
//! workspace walk in [`lint_workspace`] is just plumbing around them.
//!
//! Annotation grammar (all checked on the same line or the contiguous
//! comment block directly above the flagged line):
//!
//! - `// relaxed-ok: <reason>`        — permits `Ordering::Relaxed`
//! - `// panic-ok: <reason>`          — permits a panicking construct in a
//!   hot path
//! - `// SAFETY: <argument>`          — required before `unsafe`
//! - `// labmod-default-ok: <reason>` — permits an `impl LabMod` to keep
//!   the default no-op `state_update`/`state_repair`
//! - `// copy-ok: <reason>`           — permits a payload materialization
//!   (`.to_vec()` / `.into_owned()` / `.to_owned()` / buffer `.clone()`)
//!   in a zero-copy data-path module
//! - `// owner-ok: <reason>`          — permits a `BufHandle` write in
//!   Runtime-side code (the buffer is one the code allocated)
//! - `// actor-ok: <role>`            — permits a thread spawn in
//!   Runtime-side code (names the actor the thread is)
//! - `// lookup-ok: <why>`            — permits a Namespace or registry
//!   read on a request's path
//! - `// lock-class: <name>`          — names the registry class of a lock
//!   acquisition (required on every acquisition in the governed crates;
//!   see [`crate::lockcheck`])

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lockcheck::{lint_lock_discipline, LockClassSpec};
use crate::scan::SourceFile;

/// Lint identifiers, stable across text and JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lint {
    /// `Ordering::Relaxed` without a `relaxed-ok` annotation.
    RelaxedOrdering,
    /// Panicking construct in a designated hot path.
    HotPathPanic,
    /// `unsafe` without a preceding `SAFETY:` comment.
    UnsafeHygiene,
    /// `impl LabMod` silently inheriting contract defaults.
    LabModContract,
    /// Payload materialization in a zero-copy data-path module.
    PayloadCopy,
    /// `BufHandle` write in Runtime-side code.
    PoolWrite,
    /// Thread spawn in Runtime-side code without a named role.
    ThreadSpawn,
    /// Namespace or registry read on a request's path.
    RequestLookup,
    /// Lock acquisition without a (valid) `lock-class` annotation.
    LockAnnotation,
    /// Nested acquisition violating the declared lock-class order.
    LockOrder,
    /// Re-acquisition of a held non-reentrant lock class.
    LockReentry,
}

impl Lint {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::RelaxedOrdering => "relaxed-ordering",
            Lint::HotPathPanic => "hot-path-panic",
            Lint::UnsafeHygiene => "unsafe-hygiene",
            Lint::LabModContract => "labmod-contract",
            Lint::PayloadCopy => "payload-copy",
            Lint::PoolWrite => "pool-write",
            Lint::ThreadSpawn => "thread-spawn",
            Lint::RequestLookup => "request-lookup",
            Lint::LockAnnotation => "lock-annotation",
            Lint::LockOrder => "lock-order",
            Lint::LockReentry => "lock-reentry",
        }
    }
}

/// One `file:line` finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path (or fixture name).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// A hot-path region governed by the panic-freedom lint.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Path suffix selecting the file (workspace-relative, `/` separators).
    pub file_suffix: &'static str,
    /// Restrict to one function's body; `None` covers the whole file.
    pub function: Option<&'static str>,
}

/// Lint configuration. [`Config::labstor`] is the workspace policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Regions where panicking constructs are forbidden.
    pub hot_paths: Vec<HotPath>,
    /// Path substrings exempt from the relaxed-ordering lint.
    pub relaxed_allowlist: Vec<&'static str>,
    /// Zero-copy data-path modules governed by the payload-copy lint
    /// (path suffixes, workspace-relative with `/` separators).
    pub copy_hot_paths: Vec<&'static str>,
    /// The workspace lock-class registry: every lock acquisition in the
    /// governed paths must name one of these classes, and nested
    /// acquisitions must follow ascending rank (see `lockcheck`).
    pub lock_classes: Vec<LockClassSpec>,
    /// Path substrings selecting the crates governed by the lock lints.
    pub lock_paths: Vec<&'static str>,
}

impl Config {
    /// The LabStor-RS workspace policy: the IPC ring and queue pair are
    /// hot end to end, and so is the telemetry span ring (`record` runs
    /// inside the IPC hot path on every request); in `core::worker` only
    /// the poll loop is hot (spawn and teardown may panic).
    pub fn labstor() -> Config {
        Config {
            hot_paths: vec![
                HotPath {
                    file_suffix: "crates/ipc/src/ring.rs",
                    function: None,
                },
                HotPath {
                    file_suffix: "crates/ipc/src/queue_pair.rs",
                    function: None,
                },
                HotPath {
                    file_suffix: "crates/core/src/worker.rs",
                    function: Some("worker_loop"),
                },
                HotPath {
                    file_suffix: "crates/telemetry/src/span.rs",
                    function: None,
                },
                // Doorbells ring on every submit/complete burst and the
                // reactor parks on them; a panic here strands a waiter.
                HotPath {
                    file_suffix: "crates/ipc/src/doorbell.rs",
                    function: None,
                },
                // The pushdown interpreter runs verified-but-untrusted
                // bytecode inside kernel-side LabMods over raw handle
                // slices; a panic here takes down a worker on behalf of
                // a tenant-supplied program.
                HotPath {
                    file_suffix: "crates/pushdown/src/interp.rs",
                    function: None,
                },
            ],
            // The simulator's virtual-clock counters are single-threaded
            // bookkeeping behind &mut self; auditing them adds noise, not
            // signal. Everything else must justify each Relaxed.
            relaxed_allowlist: vec!["crates/sim/src/stats.rs"],
            // The zero-copy data path: every stage that handles payload
            // bytes between the client's pool buffer and the device model.
            // `mods/src/metastore.rs` (like `labfs/meta.rs`) is not one:
            // the engine under labfs and labkvs moves log records and
            // allocator cursors, never a payload byte.
            copy_hot_paths: vec![
                "crates/ipc/src/buf.rs",
                "crates/kernel/src/page_cache.rs",
                "crates/mods/src/lru.rs",
                "crates/mods/src/arc_cache.rs",
                "crates/mods/src/cache_common.rs",
                "crates/mods/src/labfs.rs",
                "crates/mods/src/labfs/data.rs",
                "crates/mods/src/labfs/pushdown.rs",
                "crates/mods/src/labkvs.rs",
                "crates/mods/src/compress.rs",
                "crates/mods/src/drivers.rs",
                "crates/kernel/src/block.rs",
                "crates/kernel/src/engines.rs",
                "crates/sim/src/queue.rs",
                "crates/sim/src/device.rs",
                "crates/pushdown/src/interp.rs",
                "crates/ipc/src/inline.rs",
            ],
            // The lock-class registry (DESIGN.md §7 "Lock classes &
            // ordering"). Ranks are acquired ascending; gaps leave room
            // for new classes without renumbering. The order encodes the
            // real nesting facts of the workspace: the Runtime rebalance
            // holds its coordinator and worker-set locks while touching
            // per-worker queues and rebalance state; the module stack
            // holds `by_mount` while updating `by_id`; the filesystem
            // appends to the journal under the inode table; the page
            // cache may consult the pool's debug tracker under a shard;
            // and ShMem's id counter is held while the region map and
            // grant sets are updated.
            lock_classes: vec![
                LockClassSpec::lock("runtime.coord", 10),
                LockClassSpec::lock("runtime.workers", 20),
                LockClassSpec::lock("runtime.state", 30),
                LockClassSpec::lock("runtime.policy", 32),
                LockClassSpec::lock("runtime.admin", 34),
                LockClassSpec::lock("qos.tenants", 36),
                LockClassSpec::lock("qos.bucket", 38),
                LockClassSpec::lock("registry.factories", 40),
                LockClassSpec::lock("registry.repos", 42),
                LockClassSpec::lock("registry.instances", 44),
                LockClassSpec::lock("registry.upgrades", 46),
                LockClassSpec::lock("stack.mounts", 48),
                LockClassSpec::lock("stack.ids", 49),
                LockClassSpec::lock("worker.queues", 50),
                LockClassSpec::lock("vfs.mounts", 54),
                LockClassSpec::lock("vfs.table", 56),
                LockClassSpec::lock("ipc.conns", 58),
                LockClassSpec::lock("ipc.qps", 59),
                LockClassSpec::lock("fs.inodes", 60),
                LockClassSpec::lock("fs.journal", 62),
                LockClassSpec::lock("block.sched", 64),
                LockClassSpec::lock("block.stash", 66),
                LockClassSpec::lock("engines.staged", 68),
                LockClassSpec::lock("pagecache.shard", 70),
                LockClassSpec::lock("shmem.ids", 72),
                LockClassSpec::lock("shmem.regions", 74),
                LockClassSpec::lock("shmem.grants", 76),
                LockClassSpec::ordered("shmem.chunk", 78),
                LockClassSpec::lock("sim.queue", 80),
                LockClassSpec::ordered("sim.chunk", 82),
                // Doorbell registration slots and the park/notify
                // handshake: rung from producers that may hold any of the
                // classes above (rebalance rings under runtime.workers), so
                // they rank just below the leaf pool.tracker. A ring holds
                // the slot (86) while taking the bell mutex (88); nothing
                // is acquired while holding the bell.
                LockClassSpec::lock("ipc.bellslot", 86),
                LockClassSpec::lock("ipc.bell", 88),
                LockClassSpec::lock("pool.tracker", 90),
                // Virtual-time Resources: reservations return a time
                // window, not a guard, so they participate in annotation
                // coverage but never in hold tracking.
                LockClassSpec::resource("pagecache.maplock"),
                LockClassSpec::resource("fs.meta"),
                LockClassSpec::resource("fs.dir"),
                LockClassSpec::resource("fs.alloc"),
                LockClassSpec::resource("sim.channel"),
            ],
            lock_paths: vec![
                "crates/kernel/src/",
                "crates/ipc/src/",
                "crates/core/src/",
                "crates/sim/src/",
                "crates/qos/src/",
            ],
        }
    }
}

/// Run every lint over one preprocessed file.
pub fn lint_file(cfg: &Config, file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    lint_relaxed_ordering(cfg, file, &mut diags);
    lint_hot_path_panic(cfg, file, &mut diags);
    lint_unsafe_hygiene(file, &mut diags);
    lint_labmod_contract(file, &mut diags);
    lint_payload_copy(cfg, file, &mut diags);
    lint_pool_write(file, &mut diags);
    lint_thread_spawn(file, &mut diags);
    lint_request_lookup(file, &mut diags);
    lint_lock_discipline(cfg, file, &mut diags);
    diags.sort_by(|a, b| (a.line, a.lint.name()).cmp(&(b.line, b.lint.name())));
    diags
}

/// Convenience: preprocess + lint an in-memory snippet (fixture tests).
pub fn lint_source(cfg: &Config, name: &str, text: &str) -> Vec<Diagnostic> {
    lint_file(cfg, &SourceFile::parse(name, text))
}

/// Lint 1: every `Ordering::Relaxed` outside the allowlist and outside
/// test code needs a `relaxed-ok` justification.
fn lint_relaxed_ordering(cfg: &Config, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if cfg.relaxed_allowlist.iter().any(|p| file.name.contains(p)) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        if !file.annotated(idx, "relaxed-ok:") {
            diags.push(Diagnostic {
                file: file.name.clone(),
                line: idx + 1,
                lint: Lint::RelaxedOrdering,
                message: "Ordering::Relaxed without `// relaxed-ok: <reason>` \
                          (justify why no synchronization is needed, or use \
                          Acquire/Release)"
                    .into(),
            });
        }
    }
}

/// Panicking constructs searched for by lint 2, as code substrings.
const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Lint 2: no panicking constructs (including `buf[i]` indexing, which
/// panics out of bounds) in hot-path regions, unless annotated `panic-ok`.
fn lint_hot_path_panic(cfg: &Config, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for hp in &cfg.hot_paths {
        if !file.name.ends_with(hp.file_suffix) {
            continue;
        }
        // A named function may occur several times (impl blocks for
        // different types reusing a method name): lint every extent.
        let extents = match hp.function {
            Some(name) => file.fn_extents(name),
            None => vec![(0, file.lines.len().saturating_sub(1))],
        };
        for idx in extents.into_iter().flat_map(|(s, e)| s..=e) {
            let line = &file.lines[idx];
            let trimmed = line.code.trim_start();
            if line.in_test || trimmed.starts_with('#') {
                continue; // test code; attributes like #[allow(...)]
            }
            let mut hits: Vec<&str> = PANIC_PATTERNS
                .iter()
                .copied()
                .filter(|pat| line.code.contains(pat))
                .collect();
            if has_index_expression(&line.code) {
                hits.push("indexing");
            }
            if hits.is_empty() || file.annotated(idx, "panic-ok:") {
                continue;
            }
            diags.push(Diagnostic {
                file: file.name.clone(),
                line: idx + 1,
                lint: Lint::HotPathPanic,
                message: format!(
                    "{} in hot path without `// panic-ok: <reason>`",
                    hits.join(" and ")
                ),
            });
        }
    }
}

/// True if the line contains an index/slice expression `expr[…]`: a `[`
/// whose previous non-space character ends an expression. Array literals,
/// types, and attributes all have a non-expression character (or nothing)
/// before their `[`.
fn has_index_expression(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
        if matches!(prev, Some(&p) if p.is_alphanumeric() || p == '_' || p == ')' || p == ']') {
            return true;
        }
    }
    false
}

/// Lint 3: every `unsafe` keyword needs a `SAFETY:` comment on the same
/// line or in the comment block directly above. Applies everywhere,
/// including tests — unsafety does not become self-evident in test code.
fn lint_unsafe_hygiene(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if !file.annotated(idx, "SAFETY:") {
            diags.push(Diagnostic {
                file: file.name.clone(),
                line: idx + 1,
                lint: Lint::UnsafeHygiene,
                message: "`unsafe` without a preceding `// SAFETY: <argument>` comment".into(),
            });
        }
    }
}

/// True if `word` appears in `code` delimited by non-identifier chars.
fn has_word(code: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let abs = from + pos;
        let before = code[..abs].chars().next_back();
        let after = code[abs + word.len()..].chars().next();
        let ident = |c: Option<char>| matches!(c, Some(c) if c.is_alphanumeric() || c == '_');
        if !ident(before) && !ident(after) {
            return true;
        }
        from = abs + word.len();
    }
    false
}

/// Is `code` the head of an `impl LabMod for T` block, with or without a
/// generic parameter list (`impl<B: Backend> LabMod for DriverMod<B>`)?
fn is_labmod_impl(code: &str) -> bool {
    let Some(rest) = code.trim_start().strip_prefix("impl") else {
        return false;
    };
    let mut rest = rest.trim_start();
    if rest.starts_with('<') {
        // Skip the parameter list by bracket depth; the `>` of a `->` in
        // a bound (`F: Fn() -> u64`) closes nothing.
        let (mut depth, mut prev) = (0usize, ' ');
        let Some(close) = rest.char_indices().find_map(|(i, c)| {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ => {}
            }
            prev = c;
            (depth == 0).then_some(i)
        }) else {
            return false;
        };
        rest = rest[close + 1..].trim_start();
    }
    rest.starts_with("LabMod for ")
}

/// Lint 4: an `impl LabMod for` block outside tests that leaves either
/// `state_update` or `state_repair` to the trait's no-op default must say
/// so with `labmod-default-ok` — crash-recovery and live-upgrade coverage
/// is an explicit per-module decision (paper §III-C platform contract).
fn lint_labmod_contract(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test || !is_labmod_impl(&line.code) {
            continue;
        }
        let Some((start, end)) = file.item_extent(idx) else {
            continue;
        };
        let body = &file.lines[start..=end];
        let missing: Vec<&str> = ["state_update", "state_repair"]
            .into_iter()
            .filter(|f| !body.iter().any(|l| l.code.contains(&format!("fn {f}"))))
            .collect();
        if missing.is_empty() || file.annotated(idx, "labmod-default-ok:") {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: idx + 1,
            lint: Lint::LabModContract,
            message: format!(
                "impl LabMod inherits default no-op {} — implement or annotate \
                 `// labmod-default-ok: <reason>`",
                missing.join(" and ")
            ),
        });
    }
}

/// Receivers whose `.clone()` duplicates payload bytes (by workspace
/// convention these names hold `Vec<u8>` payloads; `BufHandle` bindings
/// are named `buf`/`h` and clone by refcount bump).
const PAYLOAD_RECEIVERS: [&str; 5] = ["data", "value", "bytes", "stored", "payload"];

/// Calls that materialize an owned copy of whatever they are called on:
/// of a slice, and of a `Cow` (the way a borrowed device command would
/// quietly go back to owning its bytes).
const COPY_CALLS: [&str; 3] = [".to_vec()", ".into_owned()", ".to_owned()"];

/// Lint 5: in the zero-copy data-path modules, every payload
/// materialization — a [`COPY_CALLS`] call, or `.clone()` on a payload-named
/// receiver — must carry a `copy-ok` justification. This is what keeps
/// the read-hit path copy-free as the modules evolve: a new `Vec`
/// round-trip cannot land without either a counted, annotated copy or a
/// lint failure.
fn lint_payload_copy(cfg: &Config, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !cfg.copy_hot_paths.iter().any(|p| file.name.ends_with(p)) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut hits: Vec<String> = COPY_CALLS
            .iter()
            .filter(|call| line.code.contains(*call))
            .map(|call| call.to_string())
            .collect();
        for recv in receivers(&line.code, ".clone()") {
            if PAYLOAD_RECEIVERS.contains(&recv.as_str()) {
                hits.push(format!("{recv}.clone()"));
            }
        }
        if hits.is_empty() || file.annotated(idx, "copy-ok:") {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: idx + 1,
            lint: Lint::PayloadCopy,
            message: format!(
                "{} copies payload bytes in a zero-copy data-path module — \
                 pass the BufHandle (or annotate `// copy-ok: <reason>` and \
                 count it via note_payload_copy)",
                hits.join(" and ")
            ),
        });
    }
}

/// The identifiers that appear as the receiver of `call` (e.g.
/// `.clone()`) on this line: the identifier token directly before each.
fn receivers(code: &str, call: &str) -> Vec<String> {
    code.match_indices(call)
        .map(|(pos, _)| trailing_ident(&code[..pos]))
        .filter(|recv| !recv.is_empty())
        .collect()
}

/// The identifier `code` ends with (empty if it ends with anything else).
fn trailing_ident(code: &str) -> String {
    let start = code
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    code[start..].to_string()
}

/// The Runtime-side code the pool-write and thread-spawn lints govern
/// (path substrings): everything a request runs through once it leaves
/// the client — the platform, the LabMods, the kernel baselines and the
/// device model.
const RUNTIME_PATHS: [&str; 6] = [
    "crates/core/src/",
    "crates/ipc/src/",
    "crates/mods/src/",
    "crates/kernel/src/",
    "crates/sim/src/",
    "crates/pushdown/src/",
];

/// Files under [`RUNTIME_PATHS`] the pool-write lint skips: the pool
/// itself, which defines the mutators and zeroes the slots it hands out,
/// and the client library, whose writes fill buffers its own domain
/// allocated.
const POOL_WRITE_EXEMPT: [&str; 2] = ["crates/ipc/src/buf.rs", "crates/core/src/client.rs"];

/// `BufHandle` methods that write pool bytes, called or named as a path
/// (`.and_then(BufHandle::as_mut_slice)`).
const HANDLE_MUTATORS: [&str; 2] = ["as_mut_slice", "write_with"];

/// Lint 6: in Runtime-side code, every write to a pool buffer — a
/// [`HANDLE_MUTATORS`] use, or a `.fill(src)` that takes a slice — must
/// carry an `owner-ok` justification. A slot remembers the client domain
/// whose bytes it holds and `BufferPool::alloc_for` skips the zero-fill
/// when that domain allocates it again; that is sound only while Runtime
/// code writes no buffer it did not allocate (a plain `alloc` clears the
/// tag), which this lint turns into a reviewed rule. A slice's own
/// `.fill(byte)` — an integer literal, or an indexed receiver like
/// `dst[span].fill(x)` — is not a handle write.
fn lint_pool_write(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if POOL_WRITE_EXEMPT.iter().any(|p| file.name.ends_with(p))
        || !RUNTIME_PATHS.iter().any(|p| file.name.contains(p))
    {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let mut hits: Vec<&str> = HANDLE_MUTATORS
            .iter()
            .copied()
            .filter(|m| has_word(&line.code, m))
            .collect();
        if has_slice_fill(&line.code) {
            hits.push("fill");
        }
        if hits.is_empty() || file.annotated(idx, "owner-ok:") {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: idx + 1,
            lint: Lint::PoolWrite,
            message: format!(
                "{} writes a pool buffer in Runtime-side code — \
                 only a buffer this code allocated may be written (annotate \
                 `// owner-ok: <reason>`)",
                hits.join(" and ")
            ),
        });
    }
}

/// True if the line calls `.fill(..)` in the form that copies a slice in:
/// the argument is not an integer literal and the receiver is not an
/// index expression.
fn has_slice_fill(code: &str) -> bool {
    code.match_indices(".fill(").any(|(pos, call)| {
        let indexed = code[..pos].ends_with(']');
        let arg = code[pos + call.len()..].trim_start();
        !indexed && !arg.starts_with(|c: char| c.is_ascii_digit())
    })
}

/// The two ways the workspace starts a thread that outlives its caller.
/// `thread::scope` is not one: its threads are joined before it returns.
const SPAWN_CALLS: [&str; 2] = ["thread::spawn", "thread::Builder"];

/// Lint 7: in Runtime-side code, every thread spawn outside tests must
/// name the actor it starts with `actor-ok`. Each Runtime thread is one
/// more timeline a deterministic schedule has to serialize, so the
/// inventory of them (today the worker reactors and the admin tick) is a
/// reviewed list, not something a helper can grow unannounced.
fn lint_thread_spawn(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !RUNTIME_PATHS.iter().any(|p| file.name.contains(p)) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test
            || !SPAWN_CALLS.iter().any(|c| line.code.contains(c))
            || file.annotated(idx, "actor-ok:")
        {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: idx + 1,
            lint: Lint::ThreadSpawn,
            message: "thread spawn in Runtime-side code — name the actor it \
                      starts (annotate `// actor-ok: <role>`)"
                .into(),
        });
    }
}

/// The files a request runs through between its connector call and its
/// LabMods: the client, the worker loop, the vertex runner and GenericFS.
const REQUEST_PATHS: [&str; 4] = [
    "crates/core/src/labmod.rs",
    "crates/core/src/worker.rs",
    "crates/core/src/client.rs",
    "crates/mods/src/generic.rs",
];

/// The names the workspace gives the Namespace and the Module Manager.
const LOOKUP_RECEIVERS: [&str; 3] = ["ns", "mm", "registry"];

/// Their reads: by id, by path or mount, of an instance or its counters,
/// of a whole stack's slots, or the registry lock itself.
const LOOKUP_CALLS: [&str; 5] = [".get_id(", ".get(", ".resolve(", ".counters(", ".read()"];

/// Lint 8: on a request's path, every Namespace or registry read outside
/// tests — a [`LOOKUP_CALLS`] call on a [`LOOKUP_RECEIVERS`] name, or any
/// `get_id` — must carry a `lookup-ok` justification. A request runs on
/// the route its owner resolved (DESIGN.md §3 "Routes and epochs"); a
/// lookup per hop or per request is the cost that design removed, and
/// this keeps it from coming back unreviewed. A call on the first line of
/// a rustfmt-wrapped chain has its receiver on an earlier line.
fn lint_request_lookup(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !REQUEST_PATHS.iter().any(|p| file.name.ends_with(p)) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let hits: Vec<String> = LOOKUP_CALLS
            .iter()
            .flat_map(|call| {
                line.code.match_indices(call).filter_map(move |(pos, _)| {
                    let recv = receiver_before(file, idx, pos);
                    let by_name = call == &".get_id(" || LOOKUP_RECEIVERS.contains(&recv.as_str());
                    by_name.then(|| format!("{recv}{}", call.trim_end_matches('(')))
                })
            })
            .collect();
        if hits.is_empty() || file.annotated(idx, "lookup-ok:") {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: idx + 1,
            lint: Lint::RequestLookup,
            message: format!(
                "{} reads the Namespace or the registry on a request's path — \
                 run on the owner's route (annotate `// lookup-ok: <why>`)",
                hits.join(" and ")
            ),
        });
    }
}

/// The identifier directly before byte `pos` of line `idx`, looking back
/// over blank and comment-only lines to the end of the previous code.
fn receiver_before(file: &SourceFile, idx: usize, pos: usize) -> String {
    let mut code = &file.lines[idx].code[..pos];
    let mut at = idx;
    while code.trim().is_empty() && at > 0 {
        at -= 1;
        code = &file.lines[at].code;
    }
    trailing_ident(code.trim_end())
}

/// Collect all workspace `.rs` files under `root` (skipping `target/` and
/// dot-directories) and lint them. Paths in diagnostics are
/// workspace-relative with `/` separators.
pub fn lint_workspace(cfg: &Config, root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        diags.extend(lint_file(cfg, &SourceFile::parse(&rel, &text)));
    }
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render diagnostics as `file:line: [lint] message`, one per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Render diagnostics as a JSON array (machine-readable mode).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.lint.name(),
            json_escape(&d.message)
        ));
    }
    out.push_str(if diags.is_empty() { "]" } else { "\n]" });
    out.push('\n');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
