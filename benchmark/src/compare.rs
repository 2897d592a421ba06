//! `--compare A.json B.json`: is B worse than A, by the bounds this benchmark
//! fixed in `BENCHMARK.json`?

use serde_json::Value;

use crate::harness::Metric;
use crate::report::WorkloadReport;
use crate::workloads::WORKLOADS;

/// What a pair of figures says, given the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A side's own quartiles are wider apart than the bound, so the pair
    /// cannot show a difference that small.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    match (a == 0.0, lower_is_better) {
        (true, _) if b == 0.0 => 0.0,
        (true, _) => f64::INFINITY,
        (false, true) => (b - a) / a.abs(),
        (false, false) => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &Metric, b: &Metric, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse_by = worsening(a.value, b.value, lower_is_better);
    let v = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (worse_by, v)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; `Ok(true)` when no metric of B is worse.
pub fn compare(path_a: &str, path_b: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b, bench) = (load(path_a)?, load(path_b)?, load(benchmark_json)?);
    // A pinned run against an unpinned one, a debug build against a release
    // build or a smoke run against a full one differ for that reason alone.
    for (section, key) in [("env", "pinned"), ("env", "profile"), ("params", "smoke")] {
        let (va, vb) = (&a[section][key], &b[section][key]);
        if va != vb {
            return Err(format!(
                "refusing to compare: {section}.{key} is {va} in {path_a} and {vb} in {path_b}"
            ));
        }
    }
    let bounds = bench["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    let mut none_worse = true;
    println!("B = {path_b} against A = {path_a}: how much worse B's figure is, and the verdict");
    for w in &WORKLOADS {
        let side = |file: &Value| WorkloadReport::from_json(w.name, &file["workloads"][w.name]);
        let (Some(ra), Some(rb)) = (side(&a), side(&b)) else {
            continue; // a file that ran a subset of the workloads
        };
        let mut cells = Vec::new();
        if !(ra.correct() && rb.correct()) {
            none_worse = false;
            cells.push("INCORRECT RUN".to_string());
        }
        for def in bounds {
            let (Some(name), Some(bound)) = (def["name"].as_str(), def["bound"].as_f64()) else {
                return Err(format!("BENCHMARK.json: bad end_to_end entry {def}"));
            };
            let find = |r: &WorkloadReport| r.end_to_end.iter().find(|m| m.name == name).cloned();
            let (Some(ma), Some(mb)) = (find(&ra), find(&rb)) else {
                return Err(format!("{}: metric {name} missing from a file", w.name));
            };
            let lower = def["better"].as_str() == Some("lower");
            let (worse_by, v) = verdict(&ma, &mb, lower, bound);
            none_worse &= v != Verdict::Worse;
            let word = match v {
                Verdict::Same => "same",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            cells.push(format!("{name} {:+.2}% {word}", worse_by * 100.0));
        }
        println!("{:<16} {}", w.name, cells.join(" | "));
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(samples: &[f64]) -> Metric {
        Metric::of(("host_ns_per_op", "ns"), samples)
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = m(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let slower = m(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        let close = m(&[104.0, 105.0, 103.0, 104.0, 104.5]);
        assert_eq!(verdict(&a, &slower, true, 0.10).1, Verdict::Worse);
        assert_eq!(verdict(&a, &close, true, 0.10).1, Verdict::Same);
        // Faster is never worse; for a higher-is-better metric it flips.
        assert_eq!(verdict(&slower, &a, true, 0.10).1, Verdict::Same);
        assert_eq!(verdict(&slower, &a, false, 0.10).1, Verdict::Worse);
        let noisy = m(&[80.0, 100.0, 125.0, 90.0, 140.0]);
        assert_eq!(verdict(&a, &noisy, true, 0.10).1, Verdict::Unresolved);
        let (by, _) = verdict(&a, &slower, true, 0.10);
        assert!((by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let a = Metric::exact(("virt_lat_p50_vns", "vns"), 13_200.0);
        let b = Metric::exact(("virt_lat_p50_vns", "vns"), 13_400.0);
        assert_eq!(verdict(&a, &a, true, 0.01).1, Verdict::Same);
        assert_eq!(verdict(&a, &b, true, 0.01).1, Verdict::Worse);
        assert_eq!(worsening(0.0, 0.0, true), 0.0);
        assert!(worsening(0.0, 1.0, true).is_infinite());
    }
}
