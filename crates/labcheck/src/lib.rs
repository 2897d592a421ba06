//! labcheck: LabStor-RS's workspace-native static-analysis pass and
//! concurrency model-checking harness.
//!
//! Two halves (DESIGN.md §"Static analysis & concurrency checking"):
//!
//! 1. [`lint`] — four source lints enforcing LabStor-specific invariants
//!    over every workspace `.rs` file: justified `Ordering::Relaxed`,
//!    panic-freedom in the IPC hot paths, `SAFETY:` comments on `unsafe`,
//!    and explicit opt-out from the LabMod platform contract defaults.
//! 2. [`explore`] — the one exhaustive breadth-first search, over any
//!    [`Model`]; six models re-express real protocols as atomic steps
//!    with planted-bug variants: [`mc`] (SPSC ring push/pop), [`mc_rc`]
//!    (buffer-pool refcount release), [`mc_lock`] (lock-witness
//!    discipline), [`mc_doorbell`] (park/wake liveness), [`mc_journal`]
//!    (commit protocol under crashes and tears) and [`mc_fuel`]
//!    (pushdown termination and fuel accounting). [`gate`] is the table
//!    of explorations, with pinned outcomes, that every caller runs.
//!
//! Run as `cargo run -p labstor-labcheck` (add `--json` for machine
//! output); `cargo test -p labstor-labcheck` plus the root-level
//! `tests/labcheck_gate.rs` wire both halves into tier-1.

pub mod explore;
pub mod gate;
pub mod lint;
pub mod lockcheck;
pub mod mc;
pub mod mc_doorbell;
pub mod mc_fuel;
pub mod mc_journal;
pub mod mc_lock;
pub mod mc_rc;
pub mod scan;

pub use explore::{explore, Failure, Model, Report};
pub use gate::{gate, GateRow};
pub use lint::{lint_source, lint_workspace, render_json, render_text, Config, Diagnostic, Lint};
pub use lockcheck::LockClassSpec;
pub use mc::{McConfig, Variant, Violation};
pub use mc_doorbell::{DoorbellConfig, DoorbellVariant, DoorbellViolation};
pub use mc_fuel::{FuelConfig, FuelInsn, FuelVariant, FuelViolation};
pub use mc_journal::{JournalConfig, JournalVariant, JournalViolation};
pub use mc_lock::{LockModel, LockVariant, LockViolation};
pub use mc_rc::{RcConfig, RcVariant, RcViolation};

use std::path::PathBuf;

/// Locate the workspace root: walk up from `CARGO_MANIFEST_DIR` (runtime
/// if set, else the compile-time location of this crate) to the first
/// `Cargo.toml` declaring `[workspace]`.
pub fn workspace_root() -> PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            // Fall back to where we started; the caller's walk will
            // produce a clear io error if this is wrong.
            return start;
        }
    }
}
