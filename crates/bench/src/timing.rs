//! Self-contained micro-benchmark timing harness.
//!
//! Replaces the external `criterion` dev-dependency with the loop the
//! workspace actually needs: calibrate an iteration count so each sample
//! runs long enough to time reliably, warm up, collect N samples, and
//! report the **median** ns/iteration (robust against scheduler noise,
//! unlike the mean). Results are printed as an aligned table and written
//! as JSON under `results/` at the workspace root so sweeps can be
//! diffed across commits.
//!
//! Usage from a `harness = false` bench target:
//!
//! ```no_run
//! use std::hint::black_box;
//! let mut h = paper_bench::timing::Harness::new("mapping");
//! h.bench("map/keyb", || black_box(2 + 2));
//! h.finish();
//! ```
//!
//! Environment overrides:
//!
//! * `BENCH_FILTER=<substring>` — only run benchmarks whose name contains
//!   the substring (others are skipped, and absent from the JSON);
//! * `BENCH_RESULTS_DIR=<dir>` — write the JSON there instead of
//!   `results/` at the workspace root (used by `scripts/verify.sh` to
//!   compare a fresh run against the committed baseline).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Samples collected per benchmark after warmup.
const SAMPLES: usize = 15;
/// Warmup samples discarded before measurement.
const WARMUP_SAMPLES: usize = 3;
/// Target wall-clock duration of one sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);
/// Calibration stops doubling once one batch takes at least this long —
/// long enough that the per-iteration estimate is trustworthy, short
/// enough that calibration stays a fraction of the measured samples.
const CALIBRATION_FLOOR: Duration = Duration::from_millis(1);
/// Upper bound on iterations per sample (very fast bodies).
const MAX_ITERS: u64 = 1 << 22;

/// Summary statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Slowest sample's ns/iteration.
    pub max_ns: f64,
    /// Number of measured samples.
    pub samples: usize,
    /// Iterations executed per sample.
    pub iters_per_sample: u64,
}

/// Collects benchmark results for one suite and writes them out.
#[derive(Debug)]
pub struct Harness {
    suite: String,
    results: Vec<Stats>,
}

impl Harness {
    /// Creates a harness for the named suite (becomes the JSON filename).
    #[must_use]
    pub fn new(suite: impl Into<String>) -> Self {
        let suite = suite.into();
        eprintln!("== bench suite: {suite} ==");
        Harness {
            suite,
            results: Vec::new(),
        }
    }

    /// Times `f`, recording median-of-[`SAMPLES`] ns/iteration.
    ///
    /// Skipped (with a note) when `BENCH_FILTER` is set and `name` does
    /// not contain it.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Ok(filter) = std::env::var("BENCH_FILTER") {
            if !filter.is_empty() && !name.contains(&filter) {
                eprintln!("{name:<40} skipped (BENCH_FILTER={filter})");
                return;
            }
        }
        // Calibrate: how many iterations fill TARGET_SAMPLE? The first
        // call of a body pays cold caches, allocation, and page faults;
        // timing it alone over-estimated the per-iteration cost so badly
        // that sub-millisecond bodies were "calibrated" to 1 iteration
        // per sample and the reported median rode on scheduler jitter.
        // Instead, double the batch size until one *warmed* batch runs
        // for at least CALIBRATION_FLOOR, then scale that trustworthy
        // per-iteration estimate up to TARGET_SAMPLE.
        let mut calib_iters: u64 = 1;
        let per_iter_ns = loop {
            let t = Instant::now();
            for _ in 0..calib_iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= CALIBRATION_FLOOR || calib_iters >= MAX_ITERS {
                break elapsed.as_nanos().max(1) as f64 / calib_iters as f64;
            }
            calib_iters = calib_iters.saturating_mul(2).min(MAX_ITERS);
        };
        let iters = ((TARGET_SAMPLE.as_nanos() as f64 / per_iter_ns) as u64).clamp(1, MAX_ITERS);

        let sample = |f: &mut F| -> f64 {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        };
        for _ in 0..WARMUP_SAMPLES {
            sample(&mut f);
        }
        let mut ns: Vec<f64> = (0..SAMPLES).map(|_| sample(&mut f)).collect();
        ns.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            name: name.to_string(),
            median_ns: ns[ns.len() / 2],
            min_ns: ns[0],
            max_ns: ns[ns.len() - 1],
            samples: SAMPLES,
            iters_per_sample: iters,
        };
        eprintln!(
            "{:<40} median {:>12}  (min {}, max {}, {} iters/sample)",
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.min_ns),
            fmt_ns(stats.max_ns),
            stats.iters_per_sample,
        );
        self.results.push(stats);
    }

    /// Records the ratio of two already-benchmarked medians as a
    /// synthetic entry: `median_ns` holds the dimensionless ratio
    /// `numerator / denominator` (the min/max fields bracket it with the
    /// most pessimistic sample pairings). Lets a suite publish derived
    /// speedup numbers — e.g. the wirelength-only vs timing-enabled
    /// anneal ratio — in the same JSON the regression gates read.
    ///
    /// Skipped with a note when either source entry is absent (filtered
    /// out via `BENCH_FILTER`, or never run).
    pub fn record_ratio(&mut self, name: &str, numerator: &str, denominator: &str) {
        let find = |results: &[Stats], n: &str| results.iter().find(|s| s.name == n).cloned();
        let (Some(num), Some(den)) = (
            find(&self.results, numerator),
            find(&self.results, denominator),
        ) else {
            eprintln!("{name:<40} skipped (missing {numerator} or {denominator})");
            return;
        };
        let stats = Stats {
            name: name.to_string(),
            median_ns: num.median_ns / den.median_ns,
            min_ns: num.min_ns / den.max_ns,
            max_ns: num.max_ns / den.min_ns,
            samples: 0,
            iters_per_sample: 0,
        };
        eprintln!(
            "{:<40} ratio  {:>12.3}  ({numerator} / {denominator})",
            stats.name, stats.median_ns
        );
        self.results.push(stats);
    }

    /// Writes `results/bench_<suite>.json` and prints its path.
    ///
    /// # Panics
    ///
    /// Panics if the results directory cannot be written — a bench run
    /// that cannot record its output is a failed run.
    pub fn finish(self) {
        // Relative BENCH_RESULTS_DIR is resolved against the workspace
        // root, not the CWD: cargo runs bench binaries from the package
        // directory, which is never what the caller means.
        let dir = std::env::var("BENCH_RESULTS_DIR").map_or_else(
            |_| workspace_root().join("results"),
            |d| {
                let d = PathBuf::from(d);
                if d.is_absolute() {
                    d
                } else {
                    workspace_root().join(d)
                }
            },
        );
        std::fs::create_dir_all(&dir).expect("create results/");
        let path = dir.join(format!("bench_{}.json", self.suite));
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", self.suite));
        out.push_str("  \"benchmarks\": [\n");
        for (i, s) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"max_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
                s.name,
                s.median_ns,
                s.min_ns,
                s.max_ns,
                s.samples,
                s.iters_per_sample,
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write bench JSON");
        eprintln!("wrote {}", path.display());
    }
}

/// Human-readable nanosecond count.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_plausible_stats() {
        let mut h = Harness::new("selftest");
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let s = &h.results[0];
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert_eq!(s.samples, SAMPLES);
        // Do not call finish(): unit tests must not write results/.
    }

    #[test]
    fn record_ratio_divides_medians() {
        let mut h = Harness::new("ratio-selftest");
        for (name, median) in [("fast", 100.0), ("slow", 250.0)] {
            h.results.push(Stats {
                name: name.to_string(),
                median_ns: median,
                min_ns: median * 0.9,
                max_ns: median * 1.1,
                samples: SAMPLES,
                iters_per_sample: 1,
            });
        }
        h.record_ratio("slow_over_fast", "slow", "fast");
        let r = h.results.last().unwrap();
        assert!((r.median_ns - 2.5).abs() < 1e-12);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        // Missing sources record nothing.
        h.record_ratio("absent", "nope", "fast");
        assert_eq!(h.results.len(), 3);
        // Do not call finish(): unit tests must not write results/.
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.0e9), "3.00 s");
    }
}
