//! `labstor-benchmark`: one end-to-end benchmark of mounted LabStacks in both
//! clocks, with a per-layer split measured from outside. See `README.md`.
//!
//! ```text
//! labstor-benchmark --workload NAME --seed N --seconds S --trace 0|1   (the driver's form)
//! labstor-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]    (every workload, both parts)
//! labstor-benchmark --compare A.json B.json
//! ```

mod compare;
mod harness;
mod probes;
mod report;
mod run;
mod trace;
mod trial;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::json;

use workloads::{Workload, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 8.0,
        trace: None,
        smoke: false,
        out: None,
        out_dir: PathBuf::from("target/benchmark/results"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--out-dir" => args.out_dir = value()?.into(),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labstor-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b, "BENCHMARK.json") {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("labstor-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("labstor-benchmark: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let plan = run::Plan {
        workloads: match args.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        },
        seed: args.seed,
        seconds: args.seconds,
        end_to_end: args.trace != Some(true),
        per_layer: args.trace != Some(false),
        smoke: args.smoke,
        out_dir: &args.out_dir,
    };
    let reports = run::run(&plan);
    let table = report::table(&reports);

    let params = json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke
    });
    let file = report::file_json(harness::environment(), params, &reports);
    // The driver's form writes a file only when asked; the full run always
    // leaves one, because `--compare` works on files.
    let out = args.out.or_else(|| {
        let kind = if args.smoke { "smoke" } else { "run" };
        let name = format!("{kind}-seed{}.json", args.seed);
        args.workload.is_none().then(|| args.out_dir.join(name))
    });
    if let Some(path) = &out {
        let text = serde_json::to_string_pretty(&file).expect("a JSON value prints");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("labstor-benchmark: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }

    match (args.workload, args.trace) {
        (Some(_), Some(traced)) => {
            eprint!("{table}");
            println!("{}", reports[0].result_line(traced));
        }
        _ => {
            print!("{table}");
            for w in &plan.workloads {
                println!("{}: {}", w.name, w.why);
            }
        }
    }
    if reports.iter().all(report::WorkloadReport::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
