//! Fixture tests for each labcheck lint: good and bad snippets as
//! in-memory strings, asserting exact `file:line` diagnostics and every
//! annotation escape hatch.

use labstor_labcheck::{lint_sources, render_json, render_text, Config, Diagnostic, Lint};

/// Lint one in-memory snippet as the whole workspace.
fn lint_source(cfg: &Config, name: &str, text: &str) -> Vec<Diagnostic> {
    lint_sources(cfg, &[(name, text)])
}

fn cfg() -> Config {
    Config::labstor()
}

/// Config whose hot paths match the fixture names used below.
fn fixture_cfg() -> Config {
    let mut c = Config::labstor();
    c.hot_paths.push(labstor_labcheck::lint::HotPath {
        file_suffix: "fixtures/hot.rs",
        function: None,
    });
    c.hot_paths.push(labstor_labcheck::lint::HotPath {
        file_suffix: "fixtures/hot_fn.rs",
        function: Some("poll_loop"),
    });
    c
}

fn lines_with(diags: &[labstor_labcheck::Diagnostic], lint: Lint) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.line)
        .collect()
}

// ---- lint 1: relaxed-ordering ------------------------------------------

#[test]
fn relaxed_without_annotation_is_flagged_with_exact_line() {
    let src = "\
fn f(c: &AtomicU64) {
    c.load(Ordering::Acquire);
    c.fetch_add(1, Ordering::Relaxed);
}
";
    let diags = lint_source(&cfg(), "crates/x/src/a.rs", src);
    assert_eq!(lines_with(&diags, Lint::RelaxedOrdering), vec![3]);
    assert_eq!(diags[0].file, "crates/x/src/a.rs");
}

#[test]
fn relaxed_annotated_same_line_passes() {
    let src = "c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: pure counter\n";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_annotated_preceding_line_passes() {
    let src = "\
// relaxed-ok: monotonic stat, readers tolerate lag
c.fetch_add(1, Ordering::Relaxed);
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_in_cfg_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t(c: &AtomicU64) {
        c.load(Ordering::Relaxed);
    }
}
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn relaxed_inside_string_or_comment_is_not_code() {
    let src = "\
let s = \"Ordering::Relaxed\";
// Ordering::Relaxed in prose is fine.
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

// ---- lint 2: hot-path-panic --------------------------------------------

#[test]
fn panic_constructs_in_hot_file_are_flagged() {
    let src = "\
fn push(&mut self) {
    let x = self.q.pop().unwrap();
    self.map.get(&x).expect(\"present\");
    panic!(\"boom\");
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![2, 3, 4]);
}

#[test]
fn indexing_in_hot_file_is_flagged_but_annotation_escapes() {
    let src = "\
fn get(&self) {
    let a = self.buf[i & (self.cap() - 1)];
    // panic-ok: index is masked by cap-1, always in bounds
    let b = self.buf[j & (self.cap() - 1)];
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![2]);
    assert!(diags[0].message.contains("indexing"));
}

#[test]
fn array_literals_and_attributes_are_not_indexing() {
    let src = "\
#[allow(clippy::too_many_arguments)]
fn f() {
    let a = [0u8; 4];
    let t: [u8; 2] = [1, 2];
}
";
    assert!(lint_source(&fixture_cfg(), "fixtures/hot.rs", src).is_empty());
}

#[test]
fn unwrap_outside_hot_path_files_is_allowed() {
    let src = "fn f() { x.unwrap(); }\n";
    assert!(lint_source(&fixture_cfg(), "crates/x/src/cold.rs", src).is_empty());
}

#[test]
fn function_scoped_hot_path_only_covers_that_fn() {
    let src = "\
fn spawn() {
    builder.spawn(f).expect(\"spawn\");
}
fn poll_loop() {
    q.pop().unwrap();
}
fn teardown() {
    j.join().unwrap();
}
";
    let diags = lint_source(&fixture_cfg(), "fixtures/hot_fn.rs", src);
    assert_eq!(lines_with(&diags, Lint::HotPathPanic), vec![5]);
}

#[test]
fn hot_path_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { q.pop().unwrap(); }
}
";
    assert!(lint_source(&fixture_cfg(), "fixtures/hot.rs", src).is_empty());
}

// ---- lint 3: unsafe-hygiene --------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = "\
fn f(p: *mut u8) {
    unsafe { *p = 0 };
}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![2]);
}

#[test]
fn unsafe_with_safety_block_above_passes() {
    let src = "\
fn f(p: *mut u8) {
    // SAFETY: p is valid for writes; we hold the only reference.
    // (continued justification)
    unsafe { *p = 0 };
}
";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

#[test]
fn unsafe_impl_needs_its_own_safety_comment() {
    let src = "\
// SAFETY: ownership of T moves with the queue.
unsafe impl<T: Send> Send for Q<T> {}
unsafe impl<T: Send> Sync for Q<T> {}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    // Line 2 is covered by the comment; line 3 is not (code line between).
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![3]);
}

#[test]
fn unsafe_in_test_code_still_requires_safety() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t(p: *mut u8) {
        unsafe { *p = 1 };
    }
}
";
    let diags = lint_source(&cfg(), "a.rs", src);
    assert_eq!(lines_with(&diags, Lint::UnsafeHygiene), vec![4]);
}

#[test]
fn unsafe_word_in_identifier_is_not_flagged() {
    let src = "fn not_unsafe_here() { let unsafety = 1; }\n";
    assert!(lint_source(&cfg(), "a.rs", src).is_empty());
}

// ---- lint 4: labmod-contract -------------------------------------------

#[test]
fn labmod_impl_missing_both_hooks_is_flagged() {
    let src = "\
impl LabMod for Passthrough {
    fn type_name(&self) -> &'static str { \"pt\" }
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/pt.rs", src);
    assert_eq!(lines_with(&diags, Lint::LabModContract), vec![1]);
    assert!(diags[0].message.contains("state_update and state_repair"));
}

#[test]
fn labmod_impl_missing_only_repair_names_it() {
    let src = "\
impl LabMod for Cache {
    fn state_update(&self, old: &dyn LabMod) { self.warm(old); }
}
";
    let diags = lint_source(&cfg(), "m.rs", src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("state_repair"));
    assert!(!diags[0].message.contains("state_update and"));
}

/// A generic impl is an impl: `impl<B: Backend> LabMod for DriverMod<B>`
/// and `impl<P: Policy> LabMod for BlockCache<P>` are two of the bundled
/// mods.
#[test]
fn generic_labmod_impl_is_seen() {
    let src = "\
impl<B: Backend, F: Fn(u64) -> u64> LabMod for DriverMod<B, F> {
    fn state_update(&self, old: &dyn LabMod) {}
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/drivers.rs", src);
    assert_eq!(lines_with(&diags, Lint::LabModContract), vec![1]);
    assert!(diags[0].message.contains("state_repair"));
    let annotated = format!("// labmod-default-ok: the device outlives the driver\n{src}");
    assert!(lint_source(&cfg(), "crates/mods/src/drivers.rs", &annotated).is_empty());
}

#[test]
fn labmod_impl_with_both_hooks_passes() {
    let src = "\
impl LabMod for Durable {
    fn state_update(&self, old: &dyn LabMod) {}
    fn state_repair(&self) {}
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

#[test]
fn labmod_default_ok_annotation_escapes() {
    let src = "\
// labmod-default-ok: stateless pass-through, nothing to migrate
impl LabMod for Noop {
    fn type_name(&self) -> &'static str { \"noop\" }
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

#[test]
fn labmod_impl_in_test_module_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    impl LabMod for Probe {
        fn type_name(&self) -> &'static str { \"probe\" }
    }
}
";
    assert!(lint_source(&cfg(), "m.rs", src).is_empty());
}

// ---- lint 5: payload-copy -----------------------------------------------

#[test]
fn to_vec_in_copy_hot_path_is_flagged() {
    let src = "\
fn hit(&self) -> Vec<u8> {
    self.block.to_vec()
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/lru.rs", src);
    assert_eq!(lines_with(&diags, Lint::PayloadCopy), vec![2]);
    assert!(diags[0].message.contains("note_payload_copy"));
}

/// The `Cow` escape hatch: a borrowed device command made to own its
/// bytes again is a copy, wherever between the driver and the device
/// model it happens.
#[test]
fn cow_materialization_is_flagged_down_to_the_device_model() {
    let src = "\
fn stage(&self, req: IoRequest<'_>) {
    let a = req.into_owned();
    let b = req.data.to_owned();
    let c = req.data.as_ref();
}
";
    for file in [
        "crates/mods/src/drivers.rs",
        "crates/kernel/src/block.rs",
        "crates/kernel/src/engines.rs",
        "crates/sim/src/queue.rs",
        "crates/sim/src/device.rs",
    ] {
        let diags = lint_source(&cfg(), file, src);
        assert_eq!(lines_with(&diags, Lint::PayloadCopy), vec![2, 3], "{file}");
    }
}

#[test]
fn payload_clone_is_flagged_but_handle_clone_is_not() {
    let src = "\
fn f(&self) {
    let a = data.clone();
    let b = buf.clone();
    let c = req.clone();
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/labfs.rs", src);
    assert_eq!(lines_with(&diags, Lint::PayloadCopy), vec![2]);
}

#[test]
fn copy_ok_annotation_escapes_payload_copy() {
    let src = "\
// copy-ok: legacy Vec fallback; counted via note_payload_copy
let d = data.clone();
let v = stored.to_vec(); // copy-ok: decoder needs owned bytes
";
    assert!(lint_source(&cfg(), "crates/mods/src/labkvs.rs", src).is_empty());
}

#[test]
fn copies_outside_copy_hot_modules_are_allowed() {
    let src = "let d = data.to_vec();\n";
    assert!(lint_source(&cfg(), "crates/core/src/request.rs", src).is_empty());
}

#[test]
fn copies_in_test_code_are_exempt_from_payload_copy() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { let d = data.to_vec(); }
}
";
    assert!(lint_source(&cfg(), "crates/mods/src/lru.rs", src).is_empty());
}

// ---- lint 6: pool-write -------------------------------------------------

#[test]
fn handle_writes_in_copy_hot_path_are_flagged() {
    let src = "\
fn f(&self, mut h: BufHandle, src: &[u8]) {
    h.write_with(|b| b.copy_from_slice(src));
    let dst = h.as_mut_slice();
    let lent = slot.as_mut().and_then(BufHandle::as_mut_slice);
    h.fill(src);
    h.fill(&src[..4]);
    let v = h.as_slice();
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/lru.rs", src);
    assert_eq!(lines_with(&diags, Lint::PoolWrite), vec![2, 3, 4, 5, 6]);
    assert!(diags[0].message.contains("owner-ok"));
}

#[test]
fn owner_ok_annotation_escapes_pool_write() {
    let src = "\
// owner-ok: the driver's own DMA target, allocated above
let io = match slot.as_mut().and_then(BufHandle::as_mut_slice) {
let ok = h.fill(src); // owner-ok: allocated two lines up
";
    assert!(lint_source(&cfg(), "crates/mods/src/drivers.rs", src).is_empty());
}

/// The rule covers all Runtime-side code, not just the zero-copy data
/// path: a LabMod that only forwards `WriteBuf` handles, or the worker.
#[test]
fn pool_write_covers_every_runtime_crate() {
    let write = "fn f(h: &mut BufHandle) { h.write_with(|b| b[0] = 1); }\n";
    for name in [
        "crates/mods/src/journal.rs",
        "crates/mods/src/sched.rs",
        "crates/core/src/worker.rs",
        "crates/kernel/src/vfs.rs",
        "crates/sim/src/model.rs",
    ] {
        let diags = lint_source(&cfg(), name, write);
        assert_eq!(lines_with(&diags, Lint::PoolWrite), vec![1], "{name}");
    }
    let diags = lint_source(&cfg(), "crates/bench/src/bin/bench_datapath.rs", write);
    assert!(lines_with(&diags, Lint::PoolWrite).is_empty(), "a client");
}

/// A lent `&mut [u8]` filled with a byte value is a slice, not a handle.
#[test]
fn slice_fill_with_a_byte_is_not_a_pool_write() {
    let src = "\
fn read(dst: &mut [u8], d: &mut [u8], span: Range<usize>) {
    dst[span].fill(0);
    d.fill(0);
    dst[span].fill(byte);
}
";
    let diags = lint_source(&cfg(), "crates/sim/src/device.rs", src);
    assert!(lines_with(&diags, Lint::PoolWrite).is_empty(), "{diags:?}");
}

#[test]
fn pool_writes_in_the_pool_tests_and_clients_are_allowed() {
    let write = "let ok = h.write_with(|b| b.fill(0));\n";
    assert!(lint_source(&cfg(), "crates/ipc/src/buf.rs", write).is_empty());
    assert!(lint_source(&cfg(), "crates/core/src/client.rs", write).is_empty());
    let test = "\
#[cfg(test)]
mod tests {
    fn t() { assert!(buf.fill(&data)); }
}
";
    assert!(lint_source(&cfg(), "crates/mods/src/lru.rs", test).is_empty());
}

// ---- lint 7: thread-spawn -----------------------------------------------

#[test]
fn thread_spawn_in_runtime_code_is_flagged() {
    let src = "\
fn start(&self) {
    let t = std::thread::spawn(move || run());
    let h = thread::Builder::new()
        .name(\"labstor-x\".into())
        .spawn(move || run());
}
";
    let diags = lint_source(&cfg(), "crates/mods/src/flush.rs", src);
    assert_eq!(lines_with(&diags, Lint::ThreadSpawn), vec![2, 3]);
    assert!(diags[0].message.contains("actor-ok"));
    let diags = lint_source(&cfg(), "crates/workloads/src/stats.rs", src);
    assert!(lines_with(&diags, Lint::ThreadSpawn).is_empty(), "a client");
}

#[test]
fn actor_ok_annotation_escapes_thread_spawn() {
    let src = "\
// actor-ok: reactor — one event loop per worker core
let join = std::thread::Builder::new()
    .spawn(move || worker_loop());
let t = std::thread::spawn(tick); // actor-ok: admin tick
";
    assert!(lint_source(&cfg(), "crates/core/src/worker.rs", src).is_empty());
}

#[test]
fn thread_spawn_in_test_code_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { let h = std::thread::spawn(|| ()); }
}
";
    assert!(lint_source(&cfg(), "crates/ipc/src/ring.rs", src).is_empty());
}

/// Scoped threads are joined before `scope` returns: no actor outlives
/// the call.
#[test]
fn thread_scope_in_a_test_is_not_a_spawn() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() {
        std::thread::scope(|s| {
            s.spawn(|| ());
        });
    }
}
";
    assert!(lint_source(&cfg(), "crates/mods/src/lru.rs", src).is_empty());
}

// ---- lint 8: request-lookup ---------------------------------------------

#[test]
fn lookups_on_a_request_path_are_flagged() {
    let src = "\
fn run(&mut self, ns: &Namespace, mm: &ModuleManager, id: u64) {
    let s = ns.get_id(id);
    let m = mm.get(&uuid);
    let c = self.runtime.mm.counters(&uuid);
    let r = self.registry.read();
    let (stack, rel) = self
        .runtime
        .ns
        .resolve(path);
    let any = namespace.get_id(id);
    let fd = self.fds.get(&fd);
    let route = self.routes.get(id, ns, mm);
    let q = self.queues.read();
}
";
    let diags = lint_source(&cfg(), "crates/core/src/worker.rs", src);
    assert_eq!(
        lines_with(&diags, Lint::RequestLookup),
        vec![2, 3, 4, 5, 9, 10]
    );
    assert!(diags[0].message.contains("lookup-ok"));
    let diags = lint_source(&cfg(), "crates/mods/src/generic.rs", src);
    assert_eq!(lines_with(&diags, Lint::RequestLookup).len(), 6);
    for elsewhere in ["crates/core/src/registry.rs", "crates/mods/src/labfs.rs"] {
        let diags = lint_source(&cfg(), elsewhere, src);
        assert!(
            lines_with(&diags, Lint::RequestLookup).is_empty(),
            "{elsewhere}"
        );
    }
}

#[test]
fn lookup_ok_annotation_escapes_request_lookup() {
    let src = "\
// lookup-ok: the Routes miss path
let stack = ns.get_id(id)?;
let slots = mm.resolve(&stack); // lookup-ok: one registry read per route
// lookup-ok: the path walk of open
self.runtime
    .ns
    .resolve(path)
    .ok_or_else(|| no_stack(path))
";
    assert!(lint_source(&cfg(), "crates/core/src/labmod.rs", src).is_empty());
}

#[test]
fn lookups_in_test_code_are_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { let c = mm.counters(\"a\").unwrap(); let s = ns.get_id(1); }
}
";
    assert!(lint_source(&cfg(), "crates/core/src/client.rs", src).is_empty());
}

// ---- lint 12: unreached-pub ----------------------------------------------

/// A crate defining a planted `pub fn` and a planted variant (lines 2 and
/// 8), and a binary that uses the enum and its other variant.
const PLANTED: &str = "\
/// Planted: no caller.
pub fn planted_fn() -> u32 {
    7
}

pub enum Planted {
    Live,
    DeadVariant,
}
";
const PLANTED_PATH: &str = "crates/x/src/lib.rs";
const MAIN: (&str, &str) = (
    "crates/app/src/main.rs",
    "fn main() {\n    let _ = labstor_x::Planted::Live;\n}\n",
);
/// A use of both planted items.
const USE: &str = "labstor_x::planted_fn(); let _ = labstor_x::Planted::DeadVariant;";

/// The `unreached-pub` findings, as `(line, message)`, when the planted
/// crate is linted with `main.rs` and `extra`.
fn unreached(planted: &str, extra: &[(&str, &str)]) -> Vec<(usize, String)> {
    let mut sources = vec![(PLANTED_PATH, planted), MAIN];
    sources.extend_from_slice(extra);
    lint_sources(&cfg(), &sources)
        .into_iter()
        .filter(|d| d.lint == Lint::UnreachedPub)
        .map(|d| (d.line, d.message))
        .collect()
}

fn unreached_lines(planted: &str, extra: &[(&str, &str)]) -> Vec<usize> {
    unreached(planted, extra)
        .into_iter()
        .map(|(l, _)| l)
        .collect()
}

#[test]
fn unreached_pub_fn_and_variant_are_flagged_with_exact_lines() {
    let found = unreached(PLANTED, &[]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert_eq!(found[0].0, 2);
    assert!(found[0].1.contains("pub fn `planted_fn`"), "{}", found[0].1);
    assert_eq!(found[1].0, 8);
    assert!(
        found[1].1.contains("pub enum variant `DeadVariant`"),
        "{}",
        found[1].1
    );
}

#[test]
fn unreached_pub_ignores_tests_benches_cfg_test_comments_and_pub_use() {
    let in_fn = format!("fn t() {{ {USE} }}\n");
    let cfg_test = format!("#[cfg(test)]\nmod tests {{\n    fn t() {{ {USE} }}\n}}\n");
    let comment = format!("// {USE}\n/* {USE} */\n");
    let string = "const S: &str = \"planted_fn DeadVariant\";\n";
    let reexport = "pub use labstor_x::{planted_fn, Planted::DeadVariant};\n";
    let only_uses: [(&str, &str); 7] = [
        ("tests/it.rs", &in_fn),
        ("crates/y/tests/it.rs", &in_fn),
        ("crates/bench/benches/b.rs", &in_fn),
        ("crates/y/src/lib.rs", &cfg_test),
        ("crates/y/src/lib.rs", &comment),
        ("crates/y/src/lib.rs", string),
        ("src/lib.rs", reexport),
    ];
    for (path, text) in only_uses {
        assert_eq!(
            unreached_lines(PLANTED, &[(path, text)]),
            vec![2, 8],
            "a use in {path} counted:\n{text}"
        );
    }
}

#[test]
fn unreached_pub_is_cleared_by_any_non_test_use() {
    let in_fn = format!("fn f() {{ {USE} }}\n");
    for path in [
        "crates/y/src/lib.rs",
        "crates/x/src/other.rs",
        "crates/bench/src/bin/fig.rs",
        "src/lib.rs",
        "examples/demo.rs",
        "benchmark/src/main.rs",
    ] {
        assert!(
            unreached_lines(PLANTED, &[(path, &in_fn)]).is_empty(),
            "a use in {path} did not count"
        );
    }
}

#[test]
fn own_definition_impl_headers_and_same_named_definitions_are_not_uses() {
    let planted = "\
pub struct Lonely;

impl Lonely {
    fn helper(&self) {}
}

impl std::fmt::Debug for Lonely {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(\"l\")
    }
}

pub fn recurse(n: u32) -> u32 {
    if n == 0 { 0 } else { recurse(n - 1) }
}
";
    let shadow = "fn recurse() {}\nstruct Lonely;\n";
    assert_eq!(
        unreached_lines(planted, &[("crates/y/src/lib.rs", shadow)]),
        vec![1, 13]
    );
}

#[test]
fn api_ok_with_a_paper_section_or_a_test_file_clears_unreached_pub() {
    let annotated = PLANTED
        .replace(
            "pub fn planted_fn",
            "// api-ok: §III-B planted for this fixture\npub fn planted_fn",
        )
        .replace(
            "    DeadVariant,",
            "    // api-ok: tests/it.rs reads it\n    DeadVariant,",
        );
    assert!(unreached(&annotated, &[]).is_empty());
}

#[test]
fn an_empty_or_unsourced_api_ok_does_not_clear_unreached_pub() {
    for reason in ["", "kept for later"] {
        let annotated = PLANTED.replace(
            "pub fn planted_fn",
            &format!("// api-ok: {reason}\npub fn planted_fn"),
        );
        assert_eq!(
            unreached_lines(&annotated, &[]),
            vec![3, 9],
            "`api-ok: {reason}` cleared it"
        );
    }
}

// ---- output formats -----------------------------------------------------

#[test]
fn text_rendering_is_file_line_lint_message() {
    let src = "c.load(Ordering::Relaxed);\n";
    let diags = lint_source(&cfg(), "crates/x/src/a.rs", src);
    let text = render_text(&diags);
    assert!(
        text.starts_with("crates/x/src/a.rs:1: [relaxed-ordering] "),
        "got: {text}"
    );
}

#[test]
fn json_rendering_is_machine_readable() {
    let src = "unsafe { x(); } // no justification\n";
    let diags = lint_source(&cfg(), "a.rs", src);
    let json = render_json(&diags);
    assert!(json.contains("\"file\": \"a.rs\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"lint\": \"unsafe-hygiene\""));
    assert_eq!(render_json(&[]).trim(), "[]");
}

#[test]
fn json_rendering_escapes_special_characters() {
    // A path with a quote and backslash must not produce broken JSON.
    let diags = lint_source(&cfg(), "dir\\a\"b.rs", "unsafe { x(); }\n");
    let json = render_json(&diags);
    assert!(json.contains("dir\\\\a\\\"b.rs"), "got: {json}");
}
