//! The real gate: lint the actual workspace tree and run every row of the
//! model-checking table. `cargo test -p labstor-labcheck` therefore fails
//! on any unannotated violation anywhere in the workspace and on any
//! model whose outcome drifts from its pin.

use labstor_labcheck::{gate, lint_workspace, render_text, workspace_root, Config};

#[test]
fn workspace_tree_is_lint_clean() {
    let root = workspace_root();
    assert!(
        root.join("crates/ipc/src/ring.rs").exists(),
        "workspace root discovery failed: {}",
        root.display()
    );
    let diags = lint_workspace(&Config::labstor(), &root).expect("scan workspace");
    assert!(
        diags.is_empty(),
        "labcheck violations in the workspace:\n{}",
        render_text(&diags)
    );
}

#[test]
fn every_gate_row_matches_its_pinned_outcome() {
    for row in gate() {
        row.check().unwrap_or_else(|mismatch| panic!("{mismatch}"));
    }
}
