//! `labcheck` binary: lint the workspace, then run the model-checking
//! gate (`labstor_labcheck::gate`: the SPSC ring, refcount release, lock
//! discipline, doorbell park/wake, journal commit and pushdown fuel
//! models, correct variants and planted bugs).
//!
//! Usage: `cargo run -p labstor-labcheck [--json] [--report <path>]
//! [--lints-only | --mc-only]`
//!
//! Exit status 0 means the workspace is clean and every model-checker run
//! behaved (correct variants pass exhaustively with the pinned state
//! space, planted bugs are caught as the pinned violation);
//! anything else exits 1 with `file:line` diagnostics (or a JSON array
//! with `--json`) and/or a counterexample schedule. `--report` writes the
//! lint diagnostics as JSON to a file regardless of the console format —
//! CI uploads it as the `lockcheck-report` artifact.

use std::process::ExitCode;

use labstor_labcheck::{gate, lint_workspace, render_json, render_text, workspace_root, Config};

fn main() -> ExitCode {
    let mut json = false;
    let mut lints_only = false;
    let mut mc_only = false;
    let mut report: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--lints-only" => lints_only = true,
            "--mc-only" => mc_only = true,
            "--report" => match args.next() {
                Some(path) => report = Some(path),
                None => {
                    eprintln!("labcheck: --report needs a file path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("labcheck: unknown argument `{other}`");
                eprintln!("usage: labcheck [--json] [--report <path>] [--lints-only | --mc-only]");
                return ExitCode::from(2);
            }
        }
    }

    if lints_only && mc_only {
        eprintln!("labcheck: --lints-only and --mc-only are mutually exclusive");
        eprintln!("usage: labcheck [--json] [--report <path>] [--lints-only | --mc-only]");
        return ExitCode::from(2);
    }

    let mut failed = false;

    if !mc_only {
        let root = workspace_root();
        match lint_workspace(&Config::labstor(), &root) {
            Ok(diags) => {
                if let Some(path) = &report {
                    if let Err(e) = std::fs::write(path, render_json(&diags)) {
                        eprintln!("labcheck: cannot write report {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
                if json {
                    print!("{}", render_json(&diags));
                } else if diags.is_empty() {
                    println!("labcheck: lints clean ({})", root.display());
                } else {
                    print!("{}", render_text(&diags));
                    println!("labcheck: {} violation(s)", diags.len());
                }
                failed |= !diags.is_empty();
            }
            Err(e) => {
                eprintln!("labcheck: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    if !lints_only {
        for row in gate() {
            match row.check() {
                Ok(_) if json => {}
                Ok(line) => println!("labcheck: {line}"),
                Err(diagnostic) => {
                    eprintln!("labcheck: {diagnostic}");
                    failed = true;
                }
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
