//! Self-test of the benchmark on a tiny mix (two paper FSMs and one
//! corpus item per tier): every metric prints with its unit, the
//! deterministic metrics repeat exactly, no compile fails, the traced
//! replica matches every compile, a held-out seed runs clean, and an
//! ambient flow knob makes the run refuse.

use std::collections::BTreeMap;
use std::process::{Command, Output};

const E2E: [(&str, &str); 10] = [
    ("fsms_per_norm_s", "1/s"),
    ("compile_norm_p50_ms", "ms"),
    ("compile_norm_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("power_mw_geomean", "mW"),
    ("fmax_mhz_geomean", "MHz"),
    ("brams_total", "count"),
    ("slices_total", "count"),
    ("downgrades_total", "count"),
];

/// Metrics that are a pure function of the seed and the program.
const DETERMINISTIC: [&str; 5] = [
    "power_mw_geomean",
    "fmax_mhz_geomean",
    "brams_total",
    "slices_total",
    "downgrades_total",
];

/// Runs the benchmark on the tiny mix with zero timed seconds (one
/// pass), ambient flow knobs removed and `env` added.
fn perfbench(workload: &str, seed: &str, trace: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", seed, "--trace", trace])
        .args(["--seconds", "0", "--paper", "2", "--per-tier", "1"]);
    for knob in [
        "MAP_BACKEND",
        "PLACE_TIMING_WEIGHT",
        "PLACE_CRIT_EXP",
        "PLACE_RETIME_INTERVAL",
        "FLOW_CACHE",
        "FLOW_CACHE_MAX_BYTES",
    ] {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("run perfbench")
}

/// The result line: `correct`, `failed`, and metric name → (value,
/// unit). Parses the fixed shape the benchmark prints.
struct Result {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, (String, String)>,
}

fn result(out: &Output) -> Result {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    let correct = line.contains("\"correct\": true");
    let failed = line
        .split("\"failed\": ")
        .nth(1)
        .and_then(|t| t.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("failed field");
    let body = line.split("\"metrics\": {").nth(1).expect("metrics object");
    let mut metrics = BTreeMap::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|t| t.split(',').next())
            .expect("value")
            .to_string();
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|t| t.split('"').next())
            .expect("unit")
            .to_string();
        metrics.insert(name, (value, unit));
    }
    Result {
        correct,
        failed,
        metrics,
    }
}

fn assert_clean(out: &Output) -> Result {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(out);
    assert!(r.correct && r.failed == 0, "{stdout}");
    assert!(stdout.contains("fail_ratio 0 "), "{stdout}");
    r
}

#[test]
fn tiny_mix_twice_prints_every_metric_and_repeats_exactly() {
    let a = assert_clean(&perfbench("cold", "2004", "0", &[]));
    let b = assert_clean(&perfbench("cold", "2004", "0", &[]));
    for (name, unit) in E2E {
        let (value, got_unit) = a
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(got_unit, unit, "{name}");
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    assert_eq!(a.metrics.len(), E2E.len());
    for name in DETERMINISTIC {
        assert_eq!(
            a.metrics[name], b.metrics[name],
            "{name} differs between runs"
        );
    }
}

#[test]
fn held_out_seed_runs_clean() {
    assert_clean(&perfbench("cold", "2005", "0", &[]));
}

#[test]
fn traced_replica_matches_every_compile_on_every_workload() {
    for w in ["cold", "warm", "auto"] {
        let r = assert_clean(&perfbench(w, "2004", "1", &[]));
        for name in [
            "place.ms",
            "verify.ms",
            "route.ms",
            "flow.unattributed_ms",
            "cache.hit_ratio",
        ] {
            assert!(r.metrics.contains_key(name), "{w}: {name} missing");
        }
    }
}

#[test]
fn ambient_flow_knobs_are_refused() {
    let out = perfbench("cold", "2004", "0", &[("MAP_BACKEND", "overlay")]);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
