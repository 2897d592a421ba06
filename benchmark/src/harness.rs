//! Measurement harness: sample statistics, the metric record and its JSON
//! form, and what the host looked like while measuring.
//!
//! Nothing here knows about LabStacks, so a later port of the `bench_*`
//! binaries (ROADMAP item 1) can use it as is.

use std::sync::OnceLock;
use std::time::Instant;

use serde_json::{json, Map, Value};

/// The `i`-th of the `n - 1` cut points that divide `values` into `n` groups
/// of equal probability, by the method of Python's
/// `statistics.quantiles(values, n=n)`, so a spread computed here equals the
/// one the driver computes from the same values. 0 for an empty slice.
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        len => {
            let j = (i * (len + 1) / n).clamp(1, len - 1);
            let delta = (i * (len + 1)) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// `(q1, median, q3)` of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 1, 4),
        quantile(values, 2, 4),
        quantile(values, 3, 4),
    )
}

/// Nearest-rank percentile of an ascending slice (0 for an empty slice).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported number: a statistic of `n` samples (their median, unless
/// built by [`Metric::undisturbed`]) with their quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// Median and quartiles of per-trial samples of the metric `(name, unit)`.
    pub fn of((name, unit): (&'static str, &'static str), samples: &[f64]) -> Metric {
        let (q1, value, q3) = quartiles(samples);
        Metric {
            name,
            unit,
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// The first decile of per-trial host times. What disturbs a trial on a
    /// shared host (another tenant's cache use, a slow spell of the
    /// scheduler) only ever adds time, in bursts that at times cover a third
    /// of a run's trials: the median then moves by 10 % from run to run where
    /// the first decile moves by 1 to 3 % (README has the runs).
    pub fn undisturbed(def: (&'static str, &'static str), samples: &[f64]) -> Metric {
        Metric {
            value: quantile(samples, 1, 10),
            ..Metric::of(def, samples)
        }
    }

    /// A value that is exact (a count or a virtual-time figure that every
    /// trial reproduced).
    pub fn exact(def: (&'static str, &'static str), value: f64) -> Metric {
        Metric::of(def, &[value])
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "value": self.value,
            "unit": self.unit,
            "q1": self.q1,
            "q3": self.q3,
            "n": self.n as u64
        })
    }

    /// Inverse of [`Metric::to_json`]; `name` and `unit` come from the
    /// metric tables because the file's strings are not `'static`.
    pub fn from_json((name, unit): (&'static str, &'static str), v: &Value) -> Option<Metric> {
        Some(Metric {
            name,
            unit,
            value: v.get("value")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            n: v.get("n")?.as_u64()? as usize,
        })
    }
}

/// Metrics keyed by name, as one JSON object.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    let mut m = Map::new();
    for metric in metrics {
        m.insert(metric.name.to_string(), metric.to_json());
    }
    Value::Object(m)
}

/// Run `batch` (which performs `iters` operations) repeatedly for about
/// `budget_s` seconds and return the median cost of one operation in ns.
pub fn time_per_op(budget_s: f64, iters: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy initialisation
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&samples)
}

/// How fast the machine is right now, relative to its fast state.
///
/// The sandbox changes speed under the benchmark in two ways that do not move
/// together: the core clock (plateaus of seconds to minutes, a quarter
/// apart), and the memory system (cache and DRAM shared with other tenants;
/// drifts over minutes, by half within an hour). README, run discipline,
/// has the measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Links of a dependent multiply-add chain retired per ns.
    pub core: f64,
    /// Random 4 KiB pages copied out of a [`PROBE_BUFFER_MIB`] buffer per
    /// [`PAGE_COPY_NS`].
    pub memory: f64,
}

/// What one page copy of the memory probe takes in the sandbox's fast state.
const PAGE_COPY_NS: f64 = 400.0;

/// Size of the memory probe's buffer: resident for the life of the process,
/// and not the measured program's, so subtracted from its peak RSS.
pub const PROBE_BUFFER_MIB: usize = 16;

impl Speed {
    /// Measure both (about 2 ms + 1 ms of work).
    pub fn measure() -> Speed {
        const LINKS: u64 = 2_000_000;
        let start = Instant::now();
        let mut x = 1u64;
        for i in 0..LINKS {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let core = LINKS as f64 / start.elapsed().as_nanos().max(1) as f64;

        const PAGE: usize = 4096;
        const PAGES: usize = (PROBE_BUFFER_MIB << 20) / PAGE;
        const COPIES: usize = 2048;
        static BUFFER: OnceLock<Vec<u8>> = OnceLock::new();
        let buffer = BUFFER.get_or_init(|| vec![1u8; PAGES * PAGE]);
        let mut scratch = [0u8; PAGE];
        let start = Instant::now();
        for _ in 0..COPIES {
            // The chain always ends on the same `x`, so every call copies the
            // same sequence: about 1 600 distinct pages, three times the L2,
            // which the trial in between has evicted.
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let page = (x >> 40) as usize % PAGES;
            scratch.copy_from_slice(&buffer[page * PAGE..][..PAGE]);
            std::hint::black_box(&scratch);
        }
        let memory = COPIES as f64 * PAGE_COPY_NS / start.elapsed().as_nanos().max(1) as f64;
        Speed { core, memory }
    }

    /// The speed over an interval, from measurements at its two ends.
    pub fn between(a: Speed, b: Speed) -> Speed {
        Speed {
            core: (a.core + b.core) / 2.0,
            memory: (a.memory + b.memory) / 2.0,
        }
    }
}

/// What `wall` would have read had the machine run at speed 1 throughout.
///
/// The model is `wall = t * (c / core + (1 - c) / memory)`: `core_share` of
/// the time at speed 1 scales with the core clock, the rest with the memory
/// system. `speed` is measured around the interval.
pub fn at_reference_speed(wall: f64, speed: Speed, core_share: f64) -> f64 {
    wall / (core_share / speed.core + (1.0 - core_share) / speed.memory)
}

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(
        line[field.len()..]
            .trim_start_matches(':')
            .trim()
            .to_string(),
    )
}

/// Restart the kernel's peak-RSS watermark for this process.
pub fn reset_peak_rss() {
    // Fails on kernels without clear_refs; the peak then covers the process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPUs this process may run on, as the kernel lists them ("0", "0-1").
pub fn cpus_allowed() -> String {
    proc_status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// True when the process is confined to one CPU (see README, run discipline).
pub fn pinned() -> bool {
    cpus_allowed().parse::<u32>().is_ok()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Host and build facts recorded beside every result.
pub fn environment() -> Value {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    json!({
        "nproc": nproc as u64,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        "cpus_allowed": cpus_allowed(),
        "pinned": pinned(),
        "commit": git_commit(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        // statistics.quantiles(range(1, 31), n=10)[0] == 3.1
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert!((quantile(&v, 1, 10) - 3.1).abs() < 1e-12);
    }

    #[test]
    fn reference_speed_undoes_a_slow_machine() {
        let speed = |core, memory| Speed { core, memory };
        // 60 of 100 ns scale with the clock, 40 with memory.
        let wall = 60.0 / 0.8 + 40.0 / 0.5;
        assert!((at_reference_speed(wall, speed(0.8, 0.5), 0.6) - 100.0).abs() < 1e-9);
        assert_eq!(at_reference_speed(100.0, speed(1.0, 1.0), 0.6), 100.0);
        assert_eq!(at_reference_speed(100.0, speed(0.5, 1.0), 0.0), 100.0);
        assert_eq!(at_reference_speed(100.0, speed(0.5, 1.0), 1.0), 50.0);
        let now = Speed::measure();
        assert!(now.core > 0.0 && now.memory > 0.0);
        assert_eq!(
            Speed::between(speed(1.0, 0.5), speed(0.5, 1.0)),
            speed(0.75, 0.75)
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn metric_json_round_trips() {
        let m = Metric::of(("host_ns_per_op", "ns"), &[12.5, 11.0, 13.25, 12.0]);
        assert_eq!(m.n, 4);
        assert!(m.q1 <= m.value && m.value <= m.q3);
        let text = serde_json::to_string(&m.to_json()).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(Metric::from_json((m.name, m.unit), &back), Some(m.clone()));
        assert!((m.spread() - (m.q3 - m.q1) / m.value).abs() < 1e-12);
        assert_eq!(Metric::exact(("x", "count"), 3.0).spread(), 0.0);
    }

    #[test]
    fn time_per_op_grows_with_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = time_per_op(0.01, 1, spin(1_000));
        let large = time_per_op(0.01, 1, spin(20_000));
        assert!(large > small * 4.0, "{small} vs {large}");
    }
}
