//! The six committed `BENCH_*.json` gate artifacts: one schema, every one
//! passing, and every check's name, kind and bound pinned here. Loosening
//! a floor is an edit to [`CHECKS`].

use serde_json::Value;

/// `(check name, kind, bound)`.
type Check = (&'static str, &'static str, f64);

/// `(artifact, committed as a smoke run, its checks in order)`.
const CHECKS: &[(&str, bool, &[Check])] = &[
    (
        "BENCH_ipc.json",
        false,
        &[("batch32_over_batch1_ops_per_s", "at_least", 1.0)],
    ),
    (
        "BENCH_datapath.json",
        false,
        &[
            ("hit_copy_bytes_max", "at_most", 0.0),
            ("owned_64k_virt_hit_ns", "at_most", 3000.0),
            ("pool_64k_virt_hit_ns", "at_most", 3000.0),
        ],
    ),
    (
        "BENCH_pushdown.json",
        false,
        &[
            ("ipc_bytes_ratio", "at_least", 100.0),
            ("modeled_speedup", "at_least", 3.0),
            ("pushdown_payload_copies", "at_most", 0.0),
        ],
    ),
    (
        "BENCH_reactor.json",
        false,
        &[
            ("cpu_ratio_median", "at_least", 10.0),
            ("rescued_wakeups", "at_most", 0.0),
            ("parks_per_roundtrip_max", "at_most", 1.0),
        ],
    ),
    (
        "BENCH_tenants.json",
        true,
        &[
            ("isolation_ratio", "at_most", 16.0),
            ("hostile_bytes_over_bucket_allowance", "at_most", 1.0),
        ],
    ),
    (
        "BENCH_crash_fuzz.json",
        false,
        &[
            ("violations", "at_most", 0.0),
            ("mid_frame_tears", "at_least", 1.0),
        ],
    ),
];

#[test]
fn committed_bench_artifacts_share_one_schema_and_their_bounds() {
    for &(file, smoke, pinned) in CHECKS {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let doc: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            ["benchmark", "checks", "params", "pass", "rows", "smoke"],
            "{file}"
        );
        assert!(doc["benchmark"].as_str().is_some(), "{file}");
        assert!(doc["params"].as_object().is_some(), "{file}");
        assert!(!doc["rows"].as_array().unwrap().is_empty(), "{file}");
        assert_eq!(doc["pass"], true, "{file}");
        assert_eq!(doc["smoke"], smoke, "{file}");
        let checks: Vec<(&str, &str, f64)> = doc["checks"]
            .as_array()
            .unwrap()
            .iter()
            .map(|c| {
                assert_eq!(c["pass"], true, "{file}: {c}");
                let (kind, bound) = (c["kind"].as_str().unwrap(), c["bound"].as_f64().unwrap());
                let value = c["value"].as_f64().unwrap();
                let held = if kind == "at_least" {
                    value >= bound
                } else {
                    value <= bound
                };
                assert!(held, "{file}: {c}");
                (c["name"].as_str().unwrap(), kind, bound)
            })
            .collect();
        assert_eq!(checks, pinned, "{file}");
    }
}
