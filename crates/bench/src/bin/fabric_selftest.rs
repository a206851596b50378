//! Deterministic runner exerciser for the process-backend integration
//! tests — a harness bin whose "flow" is synthetic, so tests can compare
//! serial vs multi-process output byte-for-byte in milliseconds and
//! provoke worker crashes on demand.
//!
//! Env contract (all read by the closure, so worker processes inherit
//! the same behavior):
//!
//! * `SELFTEST_ITEMS` — comma-separated item names (default
//!   `alpha,beta,gamma,delta,epsilon`);
//! * `SELFTEST_DIR` — checkpoint directory (default the workspace
//!   `results/` like every real harness bin);
//! * `SELFTEST_MARKER_DIR` — where `poison-*` items leave their
//!   been-here marker.
//!
//! Item semantics: `poison-<x>` aborts the whole process the first time
//! any process computes it (the marker file makes the second attempt
//! succeed) — simulating the `kill -9`-class death the process backend
//! exists to isolate; `fail-<x>` returns a typed error every attempt
//! (exercising placeholder rows); `hang-once-<x>` sleeps forever the
//! first time a *worker* computes it (marker-gated, inline fallback
//! unaffected) — the hung-worker case the per-item deadline exists for;
//! `hang-always-<x>` sleeps forever in *every* worker (driving a slot
//! to quarantine deterministically) but computes instantly inline;
//! `gen-<seed>` runs a seeded `fsm_model::generate` machine through a
//! deterministic simulation digest — the synthetic corpus the chaos
//! campaign uses beyond the MCNC nine; everything else yields one
//! stable row. With `SELFTEST_PRINT_HEALTH=1` the bin appends a
//! `health: timeouts=N respawns=N quarantined=N` line after the rows
//! (off by default so byte-identity comparisons stay row-only).

use paper_bench::runner::{run, RunnerOptions};

/// A worker process sleeps here "forever" (10 minutes dwarfs any test
/// deadline); the coordinator's supervision — not this sleep ending —
/// is what finishes the item.
fn hang_forever() {
    std::thread::sleep(std::time::Duration::from_secs(600));
}

/// Deterministic digest row for a generated machine: state/IO counts
/// plus a trace fingerprint, stable across processes and backends.
fn generated_row(item: &str, seed: u64) -> Vec<String> {
    let mut spec = fsm_model::generate::StgSpec::new(item);
    spec.seed = seed;
    let stg = fsm_model::generate::generate(&spec).expect("default-shaped spec generates");
    let mut rng = xrand::SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    let stimulus: Vec<Vec<bool>> = (0..64)
        .map(|_| {
            (0..stg.num_inputs())
                .map(|_| rng.random_bool(0.5))
                .collect()
        })
        .collect();
    let trace = fsm_model::simulate::trace(&stg, stimulus);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for outputs in &trace.outputs {
        for &bit in outputs {
            digest ^= u64::from(bit);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    vec![
        item.to_string(),
        format!(
            "s{}i{}o{}",
            stg.num_states(),
            stg.num_inputs(),
            stg.num_outputs()
        ),
        format!("{digest:016x}"),
    ]
}

fn main() {
    let items: Vec<String> = std::env::var("SELFTEST_ITEMS")
        .unwrap_or_else(|_| "alpha,beta,gamma,delta,epsilon".to_string())
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let mut opts = RunnerOptions::new("fabric_selftest");
    if let Some(dir) = std::env::var_os("SELFTEST_DIR") {
        opts.checkpoint_dir = dir.into();
    }
    let out = run(&opts, &items, 3, |item, attempt| {
        let marker_dir = std::env::var_os("SELFTEST_MARKER_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let in_worker = paper_bench::fabric::worker_invocation_label().is_some();
        if item.starts_with("poison-") {
            let marker = marker_dir.join(item);
            if !marker.exists() {
                let _ = std::fs::write(&marker, b"poisoned once\n");
                // Not a panic: catch_unwind cannot fence an abort, so
                // this takes down the entire hosting process like a real
                // OOM-kill or kill -9 would.
                std::process::abort();
            }
        }
        // Hang items sleep only inside worker processes: the coordinator's
        // inline fallback must complete instantly, or a "hung" item would
        // hang the test harness itself right after it proved supervision.
        if item.starts_with("hang-once") && in_worker {
            let marker = marker_dir.join(item);
            if !marker.exists() {
                let _ = std::fs::write(&marker, b"hung once\n");
                hang_forever();
            }
        }
        if item.starts_with("hang-always") && in_worker {
            hang_forever();
        }
        if item.starts_with("fail-") {
            return Err(format!("typed failure for {item}"));
        }
        if let Some(seed) = item
            .strip_prefix("gen-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            return Ok(vec![generated_row(item, seed)]);
        }
        Ok(vec![vec![
            item.to_string(),
            format!("row-{item}-{attempt}"),
            "z".to_string(),
        ]])
    });
    for row in &out.rows {
        println!("{}", row.join("|"));
    }
    if !out.unpersisted.is_empty() {
        println!("unpersisted: {}", out.unpersisted.join(","));
    }
    // Off by default: the byte-identity tests compare stdout across
    // backends, and only the supervision tests want the health line.
    if std::env::var("SELFTEST_PRINT_HEALTH").ok().as_deref() == Some("1") {
        println!(
            "health: timeouts={} respawns={} quarantined={}",
            out.health.timeouts, out.health.respawns, out.health.quarantined
        );
    }
}
