//! Tier-1 wiring for labcheck (ROADMAP: `cargo test -q` at the root is
//! the tier-1 gate, and root-package tests are what it runs): the
//! static-analysis pass must be clean on the whole tree and every row of
//! the model-checking gate must produce its pinned outcome.
//!
//! The full fixture suite lives in `crates/labcheck/tests/`; this file is
//! only the gate.

use labstor_labcheck::{gate, lint_workspace, render_text, workspace_root, Config};

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
