#![warn(missing_docs)]

//! # labstor-bench — harnesses regenerating the paper's tables & figures
//!
//! One binary per experiment (see `DESIGN.md` §4 for the index):
//!
//! | binary                | reproduces |
//! |-----------------------|------------|
//! | `fig4a_anatomy`       | Fig. 4a — I/O stack anatomy |
//! | `table1_upgrade`      | Table I — live-upgrade cost |
//! | `fig5a_dynamic_cpu`   | Fig. 5a — dynamic CPU allocation |
//! | `fig5b_partitioning`  | Fig. 5b — request partitioning |
//! | `fig6_storage_api`    | Fig. 6 — storage interface performance |
//! | `fig7_metadata`       | Fig. 7 — metadata throughput |
//! | `fig8_schedulers`     | Fig. 8 / Table II — I/O schedulers |
//! | `fig9a_pfs`           | Fig. 9a — PFS with VPIC / BD-CATS |
//! | `fig9b_labios`        | Fig. 9b — LABIOS object store |
//! | `fig9c_filebench`     | Fig. 9c — Filebench personalities |
//!
//! This library holds the shared setup: the paper's LabStack variants
//! (`Lab-All` / `Lab-Min` / `Lab-D`, §IV "we define the following
//! LabStacks"), device fixtures, table printing, and the [`Report`] every
//! gate bench (`bench_*`, `crash_fuzz`) writes its `BENCH_*.json` through.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use labstor_core::{Runtime, RuntimeConfig, StackSpec, VertexSpec};
use labstor_mods::DeviceRegistry;
use serde_json::{Map, Value};

/// The three LabStack configurations §IV evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabVariant {
    /// `Lab-All` / "Centralized+Permissions": permissions → FS/KVS → LRU →
    /// NoOp → Kernel Driver, async execution.
    All,
    /// `Lab-Min` / "Centralized": permissions removed.
    Min,
    /// `Lab-D` / "Minimal": permissions removed, synchronous (client-side)
    /// execution.
    Decentralized,
}

impl LabVariant {
    /// Label used in output (matches the paper's legends).
    pub fn label(self, base: &str) -> String {
        match self {
            LabVariant::All => format!("{base}-all"),
            LabVariant::Min => format!("{base}-min"),
            LabVariant::Decentralized => format!("{base}-d"),
        }
    }

    /// All three, in the paper's order.
    pub fn all() -> [LabVariant; 3] {
        [LabVariant::All, LabVariant::Min, LabVariant::Decentralized]
    }
}

/// Build the paper's filesystem LabStack spec for a variant over `device`.
/// The full chain is permissions → labfs → lru_cache → noop_sched →
/// kernel_driver (§IV "Lab-All: permissions checks, LRU cache, NoOp sched,
/// Kernel_Driver, async_exec_mode").
pub fn labfs_stack_spec(
    variant: LabVariant,
    mount: &str,
    device: &str,
    workers: usize,
    cache_bytes: usize,
) -> StackSpec {
    let key = mount_key(mount);
    let mut mods = Vec::new();
    if variant == LabVariant::All {
        mods.push(VertexSpec {
            uuid: format!("perm_{device}_{key}"),
            type_name: "permissions".into(),
            params: serde_json::Value::Null,
            outputs: vec![format!("labfs_{device}_{key}")],
        });
    }
    mods.push(VertexSpec {
        uuid: format!("labfs_{device}_{key}"),
        type_name: "labfs".into(),
        params: serde_json::json!({"device": device, "workers": workers}),
        outputs: vec![format!("lru_{device}_{key}")],
    });
    mods.push(VertexSpec {
        uuid: format!("lru_{device}_{key}"),
        type_name: "lru_cache".into(),
        params: serde_json::json!({"capacity_bytes": cache_bytes}),
        outputs: vec![format!("sched_{device}_{key}")],
    });
    mods.push(VertexSpec {
        uuid: format!("sched_{device}_{key}"),
        type_name: "noop_sched".into(),
        params: serde_json::Value::Null,
        outputs: vec![format!("drv_{device}_{key}")],
    });
    mods.push(VertexSpec {
        uuid: format!("drv_{device}_{key}"),
        type_name: "kernel_driver".into(),
        params: serde_json::json!({"device": device}),
        outputs: vec![],
    });
    StackSpec {
        mount: mount.to_string(),
        exec: match variant {
            LabVariant::Decentralized => "sync".into(),
            _ => "async".into(),
        },
        authorized_uids: vec![0],
        labmods: mods,
    }
}

/// Build the KVS LabStack spec for a variant (permissions → labkvs → noop
/// → kernel_driver).
pub fn labkvs_stack_spec(
    variant: LabVariant,
    mount: &str,
    device: &str,
    workers: usize,
) -> StackSpec {
    let key = mount_key(mount);
    let mut mods = Vec::new();
    if variant == LabVariant::All {
        mods.push(VertexSpec {
            uuid: format!("kperm_{device}_{key}"),
            type_name: "permissions".into(),
            params: serde_json::Value::Null,
            outputs: vec![format!("labkvs_{device}_{key}")],
        });
    }
    mods.push(VertexSpec {
        uuid: format!("labkvs_{device}_{key}"),
        type_name: "labkvs".into(),
        params: serde_json::json!({"device": device, "workers": workers}),
        outputs: vec![format!("ksched_{device}_{key}")],
    });
    mods.push(VertexSpec {
        uuid: format!("ksched_{device}_{key}"),
        type_name: "noop_sched".into(),
        params: serde_json::Value::Null,
        outputs: vec![format!("kdrv_{device}_{key}")],
    });
    mods.push(VertexSpec {
        uuid: format!("kdrv_{device}_{key}"),
        type_name: "kernel_driver".into(),
        params: serde_json::json!({"device": device}),
        outputs: vec![],
    });
    StackSpec {
        mount: mount.to_string(),
        exec: match variant {
            LabVariant::Decentralized => "sync".into(),
            _ => "async".into(),
        },
        authorized_uids: vec![0],
        labmods: mods,
    }
}

fn mount_key(mount: &str) -> String {
    mount.replace(['/', ':'], "_")
}

/// Start a runtime with all bundled LabMod factories installed.
pub fn runtime_with_mods(
    devices: &Arc<DeviceRegistry>,
    max_workers: usize,
    auto_admin: bool,
) -> Arc<Runtime> {
    let rt = Runtime::start(RuntimeConfig {
        max_workers,
        auto_admin,
        admin_interval: std::time::Duration::from_millis(1),
        ..Default::default()
    });
    labstor_mods::install_all(&rt.mm, devices);
    rt
}

/// Print a fixed-width table (the harnesses' common output format).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Format ns as a human-readable duration.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One gate bench's run, from `--smoke` to exit code: the binary measures,
/// adds params, rows and checks, and ends in [`Report::finish`].
///
/// The artifact is one `BENCH_*.json` document for every gate bench:
/// `{benchmark, smoke, params, rows, checks, pass}`. `params` hold the
/// run's settings and its reported-but-ungated values; `rows` its
/// measurements, one flat object each, all with the same keys; `checks`
/// its gates, each `{name, kind, bound, value, pass}` with `kind`
/// `at_least` or `at_most` (both inclusive); `pass` is their conjunction.
pub struct Report {
    benchmark: &'static str,
    smoke: bool,
    path: PathBuf,
    params: Map,
    rows: Vec<Vec<(&'static str, Value)>>,
    checks: Vec<Check>,
}

struct Check {
    name: &'static str,
    at_least: bool,
    bound: f64,
    value: f64,
}

impl Check {
    fn pass(&self) -> bool {
        if self.at_least {
            self.value >= self.bound
        } else {
            self.value <= self.bound
        }
    }
}

impl Report {
    /// The report of `benchmark`, whose committed artifact is `file`
    /// (relative to the repository root the binary runs from). A
    /// `--smoke` argument marks a CI-sized run, which writes
    /// `target/bench/<file>` instead and leaves the committed one alone.
    pub fn from_args(benchmark: &'static str, file: &str) -> Report {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let path = if smoke {
            Path::new("target/bench").join(file)
        } else {
            file.into()
        };
        Report {
            benchmark,
            smoke,
            path,
            params: Map::new(),
            rows: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Whether this is a `--smoke` run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Record a setting of the run or a value it reports but does not gate.
    pub fn param(&mut self, key: &str, value: impl Into<Value>) {
        self.params.insert(key.to_string(), value.into());
    }

    /// Add one row of measurements, in table column order. A nested value
    /// (object or array) goes into the artifact but not into the table.
    pub fn row(&mut self, cells: impl IntoIterator<Item = (&'static str, Value)>) {
        self.rows.push(cells.into_iter().collect());
    }

    /// Gate: `value >= floor`.
    pub fn at_least(&mut self, name: &'static str, value: f64, floor: f64) {
        self.checks.push(Check {
            name,
            at_least: true,
            bound: floor,
            value,
        });
    }

    /// Gate: `value <= ceiling`.
    pub fn at_most(&mut self, name: &'static str, value: f64, ceiling: f64) {
        self.checks.push(Check {
            name,
            at_least: false,
            bound: ceiling,
            value,
        });
    }

    fn pass(&self) -> bool {
        self.checks.iter().all(Check::pass)
    }

    fn to_json(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                let cells = row.iter().map(|(k, v)| (k.to_string(), v.clone()));
                Value::Object(cells.collect())
            })
            .collect();
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| {
                serde_json::json!({
                    "name": c.name,
                    "kind": if c.at_least { "at_least" } else { "at_most" },
                    "bound": c.bound,
                    "value": c.value,
                    "pass": c.pass(),
                })
            })
            .collect();
        serde_json::json!({
            "benchmark": self.benchmark,
            "smoke": self.smoke,
            "params": Value::Object(self.params.clone()),
            "rows": rows,
            "checks": checks,
            "pass": self.pass(),
        })
    }

    /// The rows' flat columns: headers from the first row, and every row's
    /// cells under them.
    fn table(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let flat = |v: &Value| !matches!(v, Value::Object(_) | Value::Array(_));
        let headers = self.rows.first().map_or(Vec::new(), |row| {
            row.iter()
                .filter(|(_, v)| flat(v))
                .map(|(k, _)| *k)
                .collect()
        });
        let cells = self
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .filter(|(_, v)| flat(v))
                    .map(|(_, v)| cell(v))
                    .collect()
            })
            .collect();
        (headers, cells)
    }

    /// Write the artifact, print the table, the params and one line per
    /// check, and return a failing exit code if any check failed.
    pub fn finish(self) -> ExitCode {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).expect("create the artifact directory");
        }
        let doc = serde_json::to_string_pretty(&self.to_json()).expect("serialize");
        std::fs::write(&self.path, format!("{doc}\n")).expect("write the artifact");

        let mode = if self.smoke { "smoke" } else { "full" };
        let (headers, cells) = self.table();
        print_table(&format!("{} ({mode})", self.benchmark), &headers, &cells);
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={}", cell(v)))
            .collect();
        println!("params: {}", params.join(", "));
        for c in &self.checks {
            let verdict = if c.pass() { "pass" } else { "FAIL" };
            let op = if c.at_least { ">=" } else { "<=" };
            println!(
                "{verdict} {} = {} ({op} {})",
                c.name,
                num(c.value),
                num(c.bound)
            );
        }
        if self.pass() {
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "FAIL: {} gate (see {})",
            self.benchmark,
            self.path.display()
        );
        ExitCode::FAILURE
    }
}

/// A JSON value as a table cell: strings bare, numbers through [`num`].
fn cell(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        Value::Number(n) => n.as_f64().map_or_else(|| v.to_string(), num),
        other => other.to_string(),
    }
}

/// Whole numbers without decimals, anything else to two.
fn num(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labstor_sim::DeviceKind;

    /// The paper's device fixture: one of each storage class.
    fn testbed_devices() -> Arc<DeviceRegistry> {
        let devices = DeviceRegistry::new();
        devices.add_preset("hdd0", DeviceKind::Hdd);
        devices.add_preset("ssd0", DeviceKind::SataSsd);
        devices.add_preset("nvme0", DeviceKind::Nvme);
        devices.add_preset("pmem0", DeviceKind::Pmem);
        devices.add_pmem("pmemdax0", labstor_sim::PmemDevice::preset());
        devices
    }

    /// A report that writes under the workspace's (ignored) `target/`.
    fn report(name: &str) -> Report {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
        Report {
            benchmark: "unit",
            smoke: true,
            path: dir.join(format!("report_{name}.json")),
            params: Map::new(),
            rows: Vec::new(),
            checks: Vec::new(),
        }
    }

    #[test]
    fn checks_are_inclusive_at_their_bound() {
        let mut r = report("inclusive");
        r.at_least("floor", 1.0, 1.0);
        r.at_most("ceiling", 16.0, 16.0);
        assert!(r.pass());
        let mut r = report("inclusive");
        r.at_least("floor", 1.0f64.next_down(), 1.0);
        assert!(!r.pass());
        let mut r = report("inclusive");
        r.at_most("ceiling", 16.0f64.next_up(), 16.0);
        assert!(!r.pass());
    }

    #[test]
    fn one_failing_check_fails_finish() {
        let mut r = report("failing");
        r.at_least("kept", 3.0, 1.0);
        r.at_most("broken", 1.0, 0.0);
        let path = r.path.clone();
        assert_eq!(r.finish(), ExitCode::FAILURE);
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc["pass"], false);
        assert_eq!(doc["checks"][0]["pass"], true);
        assert_eq!(doc["checks"][1]["kind"], "at_most");
        let mut r = report("passing");
        r.at_most("kept", 0.0, 0.0);
        assert_eq!(r.finish(), ExitCode::SUCCESS);
    }

    #[test]
    fn nested_row_values_stay_in_the_json_not_the_table() {
        let mut r = report("nested");
        r.row([
            ("mode", "solo".into()),
            ("tenants", serde_json::json!({"tenants": vec![1, 2]})),
            ("p99", 2.5.into()),
        ]);
        let (headers, cells) = r.table();
        assert_eq!(headers, ["mode", "p99"]);
        assert_eq!(cells, [["solo", "2.50"]]);
        let doc = r.to_json();
        assert_eq!(doc["rows"][0]["tenants"]["tenants"][1], 2);
        assert_eq!(doc["smoke"], true);
        assert_eq!(doc["benchmark"], "unit");
    }

    #[test]
    fn stack_specs_are_valid() {
        for v in LabVariant::all() {
            let spec = labfs_stack_spec(v, "fs::/b", "nvme0", 4, 1 << 20);
            let stack = spec.to_stack().expect("valid spec");
            let expected = if v == LabVariant::All { 5 } else { 4 };
            assert_eq!(stack.vertices.len(), expected, "{v:?}");
            let spec = labkvs_stack_spec(v, "kv::/b", "nvme0", 4);
            assert!(spec.to_stack().is_ok());
        }
    }

    #[test]
    fn variants_label() {
        assert_eq!(LabVariant::All.label("labfs"), "labfs-all");
        assert_eq!(LabVariant::Decentralized.label("labkvs"), "labkvs-d");
    }

    #[test]
    fn testbed_has_all_devices() {
        let d = testbed_devices();
        for name in ["hdd0", "ssd0", "nvme0", "pmem0"] {
            assert!(d.block(name).is_some(), "{name}");
        }
        assert!(d.pmem("pmemdax0").is_some());
    }

    #[test]
    fn stacks_mount_on_a_runtime() {
        let devices = testbed_devices();
        let rt = runtime_with_mods(&devices, 2, false);
        for (i, v) in LabVariant::all().iter().enumerate() {
            let spec = labfs_stack_spec(*v, &format!("fs::/m{i}"), "nvme0", 4, 1 << 20);
            rt.mount_stack(&spec).expect("mounts");
        }
        rt.shutdown();
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
