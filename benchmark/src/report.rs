//! What a run reports: the metric tables, one report per workload, the
//! result file, the printed table, and the one-line result the driver reads.

use serde_json::{json, Map, Value};

use crate::harness::{metrics_json, Metric, Speed};

/// End-to-end metrics, `(name, unit)`; each workload reports all of them.
/// Direction and bound live in `BENCHMARK.json` (a test keeps the two lists
/// equal). `vns` is virtual ns: the calibrated model's time, not the host's.
pub const END_TO_END: [(&str, &str); 8] = [
    ("host_ns_per_op", "ns"),
    ("virt_ops_per_s", "ops/vs"),
    ("virt_lat_p50_vns", "vns"),
    ("virt_lat_p99_vns", "vns"),
    ("dev_bytes_per_user_byte", "B/B"),
    ("copy_bytes_per_user_byte", "B/B"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`; a `--trace 1` run reports all of them,
/// with 0 for a layer the workload's stack does not have.
pub const PER_LAYER: [(&str, &str); 51] = [
    // Counters of the timed region of an untraced trial; exact.
    ("sim.dev_reads_per_op", "count"),
    ("sim.dev_writes_per_op", "count"),
    ("sim.dev_bytes_per_op", "B"),
    ("sim.dev_busy_vns_per_op", "vns"),
    ("sim.dev_errors", "count"),
    ("mods.lru_hit_ratio", "ratio"),
    ("ipc.payload_copies_per_op", "count"),
    ("ipc.pool_high_water_slots", "count"),
    ("ipc.pool_alloc_fail_per_op", "count"),
    ("ipc.pool_live_after_trial", "count"),
    ("core.worker_busy_vns_per_op", "vns"),
    ("core.worker_processed_per_op", "count"),
    ("qos.admitted_per_op", "count"),
    ("qos.rejected_per_op", "count"),
    // Pass V: labtelem spans, virtual ns per op.
    ("ipc.virt_hop_ns", "vns"),
    ("mods.perms.virt_self_ns", "vns"),
    ("mods.labfs.virt_self_ns", "vns"),
    ("mods.lru.virt_self_ns", "vns"),
    ("mods.sched.virt_self_ns", "vns"),
    ("mods.driver.virt_self_ns", "vns"),
    ("mods.labkvs.virt_self_ns", "vns"),
    ("sim.virt_device_ns", "vns"),
    ("telemetry.virt_unattributed_ns", "vns"),
    ("telemetry.spans_per_op", "count"),
    ("telemetry.dropped_spans", "count"),
    // Pass H: bench_probe spans, host ns per op.
    ("core.host_req_hop_ns", "ns"),
    ("core.host_resp_hop_ns", "ns"),
    ("mods.perms.host_self_ns", "ns"),
    ("mods.labfs.host_self_ns", "ns"),
    ("mods.lru.host_self_ns", "ns"),
    ("mods.sched.host_self_ns", "ns"),
    ("mods.driver.host_self_ns", "ns"),
    ("mods.labkvs.host_self_ns", "ns"),
    ("trace.host_overhead_ratio", "ratio"),
    // What calibration did to the untraced trials: the wall clock's own
    // reading, and the machine speeds it was scaled by.
    ("host.wall_ns_per_op", "ns"),
    ("host.core_speed", "ratio"),
    ("host.memory_speed", "ratio"),
    // Layer probes: host ns per primitive operation.
    ("ipc.ring_push_pop_ns", "ns"),
    ("ipc.qp_roundtrip_ns", "ns"),
    ("ipc.qp_batch32_ns_per_op", "ns"),
    ("ipc.doorbell_ring_idle_ns", "ns"),
    ("ipc.doorbell_pingpong_ns", "ns"),
    ("ipc.pool_alloc_free_4k_ns", "ns"),
    ("ipc.pool_alloc_free_64k_ns", "ns"),
    ("sim.dev_rw4k_ns", "ns"),
    ("kernel.blocklayer_rw4k_ns", "ns"),
    ("core.namespace_resolve_ns", "ns"),
    ("telemetry.record_disabled_ns", "ns"),
    ("telemetry.record_enabled_ns", "ns"),
    ("qos.try_admit_ns", "ns"),
    ("pushdown.interp_ns_per_record", "ns"),
];

/// The table's `(name, unit)` for `name`; metrics are only ever built from
/// the tables, so a name outside them is a bug.
pub fn def(name: &str) -> (&'static str, &'static str) {
    *END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
}

/// The host-side readings of one untraced trial, as taken: kept in the result
/// file so that the speed model and the choice of statistic can be checked
/// against the raw numbers later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSample {
    pub wall_ns_per_op: f64,
    pub speed: Speed,
    pub setup_s: f64,
    pub setup_speed: Speed,
    pub peak_rss_mib: f64,
}

/// One workload's results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: &'static str,
    /// One per measured untraced trial (the warm-up trial is not counted).
    pub samples: Vec<HostSample>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The last line of standard output the driver parses.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut m = Map::new();
        for metric in metrics {
            m.insert(
                metric.name.to_string(),
                json!({"value": metric.value, "unit": metric.unit}),
            );
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(m)
        })
        .to_string()
    }

    pub fn to_json(&self) -> Value {
        json!({
            "rounds": self.samples.len() as u64,
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_ratio": self.failed as f64 / self.attempted.max(1) as f64,
            "errors": self.errors.clone(),
            "samples": Value::Array(
                self.samples
                    .iter()
                    .map(|s| {
                        json!({
                            "wall_ns_per_op": s.wall_ns_per_op,
                            "core_speed": s.speed.core,
                            "memory_speed": s.speed.memory,
                            "setup_s": s.setup_s,
                            "setup_core_speed": s.setup_speed.core,
                            "setup_memory_speed": s.setup_speed.memory,
                            "peak_rss_mib": s.peak_rss_mib
                        })
                    })
                    .collect()
            ),
            "end_to_end": metrics_json(&self.end_to_end),
            "per_layer": metrics_json(&self.per_layer)
        })
    }

    /// Inverse of [`WorkloadReport::to_json`].
    pub fn from_json(name: &'static str, v: &Value) -> Option<WorkloadReport> {
        let metrics = |key: &str, defs: &[(&'static str, &'static str)]| -> Vec<Metric> {
            defs.iter()
                .filter_map(|&def| Metric::from_json(def, v.get(key)?.get(def.0)?))
                .collect()
        };
        Some(WorkloadReport {
            name,
            samples: v
                .get("samples")?
                .as_array()?
                .iter()
                .filter_map(|s| {
                    Some(HostSample {
                        wall_ns_per_op: s.get("wall_ns_per_op")?.as_f64()?,
                        speed: Speed {
                            core: s.get("core_speed")?.as_f64()?,
                            memory: s.get("memory_speed")?.as_f64()?,
                        },
                        setup_s: s.get("setup_s")?.as_f64()?,
                        setup_speed: Speed {
                            core: s.get("setup_core_speed")?.as_f64()?,
                            memory: s.get("setup_memory_speed")?.as_f64()?,
                        },
                        peak_rss_mib: s.get("peak_rss_mib")?.as_f64()?,
                    })
                })
                .collect(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            errors: v
                .get("errors")?
                .as_array()?
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end", &END_TO_END),
            per_layer: metrics("per_layer", &PER_LAYER),
        })
    }
}

/// The result file: environment, run parameters and every workload's report.
pub fn file_json(env: Value, params: Value, reports: &[WorkloadReport]) -> Value {
    let mut workloads = Map::new();
    for r in reports {
        workloads.insert(r.name.to_string(), r.to_json());
    }
    json!({
        "schema": 1u64,
        "env": env,
        "params": params,
        "workloads": Value::Object(workloads)
    })
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1e6 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.5}"),
    }
}

/// Every metric by name with its unit, one column per workload.
pub fn table(reports: &[WorkloadReport]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec!["metric".to_string(), "unit".to_string()];
    header.extend(reports.iter().map(|r| r.name.to_string()));
    rows.push(header);
    let mut section = |pick: fn(&WorkloadReport) -> &Vec<Metric>, with_spread: bool| {
        let Some(first) = reports.iter().map(pick).find(|m| !m.is_empty()) else {
            return;
        };
        for def in first {
            let mut row = vec![def.name.to_string(), def.unit.to_string()];
            for r in reports {
                row.push(match pick(r).iter().find(|m| m.name == def.name) {
                    Some(m) if with_spread && m.n > 1 => {
                        format!(
                            "{} ±{:.1}% n={}",
                            fmt_value(m.value),
                            m.spread() * 50.0,
                            m.n
                        )
                    }
                    Some(m) => fmt_value(m.value),
                    None => "-".into(),
                });
            }
            rows.push(row);
        }
    };
    section(|r| &r.end_to_end, true);
    section(|r| &r.per_layer, false);
    let mut fail = vec!["fail_ratio".to_string(), "ratio".to_string()];
    fail.extend(
        reports
            .iter()
            .map(|r| format!("{}/{}", r.failed, r.attempted)),
    );
    rows.push(fail);

    let widths: Vec<usize> = (0..rows[0].len())
        .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for row in &rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(c, (cell, &w))| match c {
                0 => format!("{cell:<w$}"),
                _ => format!("{cell:>w$}"),
            })
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
    for r in reports {
        for e in &r.errors {
            out.push_str(&format!("ERROR {}: {e}\n", r.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn sample_report() -> WorkloadReport {
        WorkloadReport {
            name: WORKLOADS[0].name,
            samples: vec![
                HostSample {
                    wall_ns_per_op: 12_345.5,
                    speed: Speed {
                        core: 0.78125,
                        memory: 0.875,
                    },
                    setup_s: 0.0425,
                    setup_speed: Speed {
                        core: 1.0,
                        memory: 1.0,
                    },
                    peak_rss_mib: 149.0,
                };
                3
            ],
            attempted: 90_000,
            failed: 0,
            errors: Vec::new(),
            end_to_end: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, &def)| Metric::of(def, &[1.5 + i as f64, 2.5, 4.0]))
                .collect(),
            per_layer: PER_LAYER
                .iter()
                .enumerate()
                .map(|(i, &def)| Metric::exact(def, i as f64 * 0.25))
                .collect(),
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample_report();
        let file = file_json(
            json!({"pinned": true}),
            json!({"seed": 1u64}),
            std::slice::from_ref(&r),
        );
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["env"]["pinned"].as_bool(), Some(true));
        let parsed = WorkloadReport::from_json(r.name, &back["workloads"][r.name]).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = sample_report();
        for (traced, expected) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = r.result_line(traced);
            assert!(!line.contains('\n'));
            let v: Value = serde_json::from_str(&line).unwrap();
            let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = v["metrics"].as_object().unwrap();
            assert_eq!(metrics.len(), expected);
            for m in metrics.values() {
                let keys: Vec<&String> = m.as_object().unwrap().keys().collect();
                assert_eq!(keys, ["unit", "value"]);
            }
        }
        let mut bad = r.clone();
        bad.errors
            .push("virtual time differs between trials".into());
        assert!(bad.result_line(false).contains("\"correct\":false"));
    }

    /// `BENCHMARK.json` is what the driver and `--compare` read; the tables
    /// above are what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b: Value = serde_json::from_str(&text).unwrap();
        let pairs = |key: &str, name: &str, other: &str| -> Vec<(String, String)> {
            b[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m[name].as_str().unwrap().to_string(),
                        m[other].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let owned = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|&(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "name", "unit"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer", "name", "unit"), owned(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(pairs("workloads", "name", "why"), owned(&workloads));
        for m in b["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m}");
            assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
        }
        assert_eq!(b["paths"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn every_layer_has_a_metric_in_both_clocks() {
        for layer in crate::trace::LAYERS {
            assert_eq!(def(&format!("mods.{layer}.virt_self_ns")).1, "vns");
            assert_eq!(def(&format!("mods.{layer}.host_self_ns")).1, "ns");
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
    }
}
