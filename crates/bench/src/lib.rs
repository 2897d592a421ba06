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
//! LabStacks"), device fixtures, and table printing.

use std::sync::Arc;

use labstor_core::{Runtime, RuntimeConfig, StackSpec, VertexSpec};
use labstor_mods::DeviceRegistry;
use labstor_sim::DeviceKind;

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

/// The paper's device fixture: one of each storage class.
pub fn testbed_devices() -> Arc<DeviceRegistry> {
    let devices = DeviceRegistry::new();
    devices.add_preset("hdd0", DeviceKind::Hdd);
    devices.add_preset("ssd0", DeviceKind::SataSsd);
    devices.add_preset("nvme0", DeviceKind::Nvme);
    devices.add_preset("pmem0", DeviceKind::Pmem);
    devices.add_pmem("pmemdax0", labstor_sim::PmemDevice::preset());
    devices
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

/// Where a bench binary writes its `BENCH_*.json` artifact, relative to
/// the repository root it runs from: a full run rewrites the committed
/// file `name`; a `--smoke` run writes `target/bench/<name>` (created on
/// demand) and leaves the committed one alone.
pub fn artifact_path(name: &str, smoke: bool) -> std::path::PathBuf {
    if !smoke {
        return name.into();
    }
    let dir = std::path::Path::new("target/bench");
    std::fs::create_dir_all(dir).expect("create target/bench");
    dir.join(name)
}

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of an ascending slice;
/// 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.0), 42);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[1, 2, 3, 4], 1.0), 4);
        // Index (n - 1) * p rounds half away from zero: 0.5 -> 1, 1.5 -> 2.
        assert_eq!(percentile(&[10, 20], 0.5), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.5), 30);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.49), 20);
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
