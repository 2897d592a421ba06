//! Tier-1 wiring for labcheck (ROADMAP: `cargo test -q` at the root is
//! the tier-1 gate, and root-package tests are what it runs): the
//! static-analysis pass must be clean on the whole tree and every row of
//! the model-checking gate must produce its pinned outcome.
//!
//! The full fixture suite lives in `crates/labcheck/tests/`; this file is
//! only the gate.

use std::fs;
use std::path::Path;

use labstor_labcheck::{gate, lint_workspace, render_text, workspace_root, Config};

/// The `// api-ok:` escapes from the `unreached-pub` lint in
/// `crates/*/src`, pinned exactly as the gate pins its rows: a change to
/// this number needs a CHANGES.md line saying why.
const API_OK_ANNOTATIONS: usize = 30;

/// The `relaxed-ok:` escapes from the `relaxed-ordering` lint in
/// `crates/*/src` outside `crates/labcheck` (whose sources and fixtures
/// name the marker), counted per occurrence and pinned the same way. A
/// counter that orders no other memory is a `labstor_telemetry::Stat`
/// (whose file holds that ordering's only escapes for stats); the rest are
/// protocol atomics, each with its own reason.
const RELAXED_OK_ANNOTATIONS: usize = 75;

#[test]
fn workspace_passes_labcheck_lints() {
    let root = workspace_root();
    let diags = lint_workspace(&Config::labstor(), &root).expect("scan workspace");
    assert!(
        diags.is_empty(),
        "labcheck violations (fix or annotate — see DESIGN.md §static analysis):\n{}",
        render_text(&diags)
    );
}

/// Every line of every `.rs` file under `dir`, as `(path, line)`.
fn source_lines(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            source_lines(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("read source");
            let name = path.display().to_string();
            out.extend(text.lines().map(|l| (name.clone(), l.to_string())));
        }
    }
}

/// The lines of `crates/*/src`, minus the crates named in `skip`.
fn crate_source_lines(skip: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for krate in fs::read_dir(workspace_root().join("crates")).expect("crates/") {
        let krate = krate.expect("crate dir").path();
        let src = krate.join("src");
        if src.is_dir() && !skip.iter().any(|s| krate.ends_with(s)) {
            source_lines(&src, &mut out);
        }
    }
    out
}

#[test]
fn api_ok_annotations_match_their_pin() {
    let found: Vec<String> = crate_source_lines(&[])
        .into_iter()
        .filter(|(_, l)| l.trim_start().starts_with("// api-ok:"))
        .map(|(path, l)| format!("{path}: {}", l.trim()))
        .collect();
    assert_eq!(
        found.len(),
        API_OK_ANNOTATIONS,
        "api-ok annotations moved (re-pin with a CHANGES.md line saying why):\n{}",
        found.join("\n")
    );
}

#[test]
fn relaxed_ok_annotations_match_their_pin() {
    let found: Vec<String> = crate_source_lines(&["labcheck"])
        .into_iter()
        .flat_map(|(path, l)| {
            let hits = l.matches("relaxed-ok").count();
            std::iter::repeat_n(format!("{path}: {}", l.trim()), hits)
        })
        .collect();
    assert_eq!(
        found.len(),
        RELAXED_OK_ANNOTATIONS,
        "relaxed-ok annotations moved (re-pin with a CHANGES.md line saying why):\n{}",
        found.join("\n")
    );
}

/// Every gate row of `family` matches its pinned outcome: correct
/// protocols survive every interleaving with exactly the pinned state
/// space, and each planted bug is caught as the violation it plants, by
/// a counterexample of the pinned length. One test per family so a
/// failure names the protocol that broke.
fn check_family(family: &str) {
    let rows: Vec<_> = gate().into_iter().filter(|r| r.family == family).collect();
    assert!(!rows.is_empty(), "the gate has no `{family}` rows");
    let mismatches: Vec<String> = rows.iter().filter_map(|r| r.check().err()).collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn spsc_ring_passes_interleaving_model_check() {
    check_family("mc");
}

#[test]
fn buffer_pool_release_protocol_passes_model_check() {
    check_family("rc");
}

#[test]
fn lock_discipline_passes_model_check() {
    check_family("lock");
}

#[test]
fn doorbell_protocol_passes_model_check() {
    check_family("doorbell");
}

#[test]
fn journal_commit_protocol_passes_model_check() {
    check_family("journal");
}

#[test]
fn pushdown_fuel_model_passes_model_check() {
    check_family("fuel");
}
