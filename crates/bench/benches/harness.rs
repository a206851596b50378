//! End-to-end experiment-harness wall-clock: the same multi-benchmark
//! table workload timed serial vs parallel and cold vs warm flow cache.
//! Writes `results/bench_harness.json` so the speedup the parallel
//! runner + artifact cache deliver is a committed, regression-gated
//! artifact (the acceptance bar is ≥2× for parallel+warm vs serial
//! cold — on a single-core host the cache carries it alone).
//!
//! Honors `BENCH_RESULTS_DIR` like the timing harness. The flow cache is
//! pointed at a scratch directory under `target/` (never the committed
//! `results/cache/`), and "cold" is made real again before each cold
//! measurement by clearing both cache layers.

use emb_fsm::cache;
use emb_fsm::flow::{ff_flow, FlowConfig, Stimulus};
use fpga_fabric::place::PlaceOptions;
use logic_synth::synth::SynthOptions;
use paper_bench::runner::{run, RunnerOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The table workload: place-dominated MCNC machines of varied size.
const ITEMS: [&str; 4] = ["keyb", "dk16", "ex1", "styr"];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// One harness pass over all items with the given worker count; returns
/// its wall-clock. Rows go through the real runner (checkpointing and
/// all) so the measurement covers the machinery the table bins use.
fn pass(label: &str, threads: usize, scratch: &Path) -> Duration {
    let items: Vec<String> = ITEMS.iter().map(ToString::to_string).collect();
    let opts = RunnerOptions {
        label: format!("bench_harness_{label}"),
        max_attempts: 1,
        checkpoint_dir: scratch.to_path_buf(),
        threads: Some(threads),
        backend: None,
        keep_failed: None,
    };
    let cfg = FlowConfig {
        cycles: 500,
        verify_cycles: 200,
        place: PlaceOptions {
            seed: 1,
            effort: 2.0,
            ..PlaceOptions::default()
        },
        ..FlowConfig::default()
    };
    let t = Instant::now();
    let out = run(&opts, &items, 2, |item, _| {
        let stg = fsm_model::benchmarks::by_name(item).ok_or_else(|| format!("no {item}"))?;
        let r = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg)
            .map_err(|e| e.to_string())?;
        Ok(vec![vec![
            item.to_string(),
            format!(
                "{:.3}",
                r.power_at(85.0)
                    .map_or(0.0, powermodel::PowerReport::total_mw)
            ),
        ]])
    });
    assert!(
        out.failures.is_empty(),
        "harness bench workload must not fail"
    );
    t.elapsed()
}

/// Empties both cache layers (the disk directory stays, its contents go).
fn clear_cache(dir: &PathBuf) {
    cache::reset_memory();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

fn main() {
    let scratch = workspace_root()
        .join("target")
        .join(format!("bench_harness_scratch_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    // Must precede the first cache access: the config is read once.
    std::env::set_var("FLOW_CACHE_DIR", scratch.join("cache"));

    eprintln!("== bench suite: harness ({} items) ==", ITEMS.len());
    clear_cache(&scratch.join("cache"));
    let serial_cold = pass("serial_cold", 1, &scratch);
    let serial_warm = pass("serial_warm", 1, &scratch);
    clear_cache(&scratch.join("cache"));
    let parallel_cold = pass("parallel_cold", 4, &scratch);
    let parallel_warm = pass("parallel_warm", 4, &scratch);
    let speedup = serial_cold.as_secs_f64() / parallel_warm.as_secs_f64().max(1e-9);
    for (name, d) in [
        ("serial_cold", serial_cold),
        ("serial_warm", serial_warm),
        ("parallel_cold", parallel_cold),
        ("parallel_warm", parallel_warm),
    ] {
        eprintln!("{name:<16} {d:.2?}");
    }
    eprintln!("speedup (parallel+warm vs serial cold): {speedup:.1}x");

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
    let path = dir.join("bench_harness.json");
    let json = format!(
        "{{\n  \"suite\": \"harness\",\n  \"items\": {},\n  \
         \"serial_cold_ms\": {:.1},\n  \"serial_warm_ms\": {:.1},\n  \
         \"parallel_cold_ms\": {:.1},\n  \"parallel_warm_ms\": {:.1},\n  \
         \"speedup_parallel_warm_vs_serial_cold\": {:.2}\n}}\n",
        ITEMS.len(),
        serial_cold.as_secs_f64() * 1e3,
        serial_warm.as_secs_f64() * 1e3,
        parallel_cold.as_secs_f64() * 1e3,
        parallel_warm.as_secs_f64() * 1e3,
        speedup,
    );
    std::fs::write(&path, json).expect("write bench JSON");
    eprintln!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);
}
