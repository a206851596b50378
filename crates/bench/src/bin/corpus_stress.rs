//! Corpus stress harness: thousands of synthetic machines through the
//! full flow under the degradation ladder, on one and many runner
//! threads and through the daemon.
//!
//! Five passes over the same item list:
//!
//! 1. `serial_cold`   — one runner thread, cold flow cache (the
//!    outcome-histogram source and the serial-throughput baseline);
//! 2. `parallel_cold` — `RUNNER_THREADS` threads, cold cache;
//! 3. `parallel_warm` — `RUNNER_THREADS` threads, warm cache;
//! 4. `overlay_auto`  — one runner thread, with the mapping backend
//!    forced to `auto`: overlay-fit items land on the pre-built overlay
//!    bases, over-capacity items fall back to direct with a typed
//!    `overlay-capacity` downgrade (the overlay ladder-coverage source);
//! 5. `daemon`        — an in-process [`paper_bench::fabric::serve`]
//!    listener answering corpus-item mapping requests over its socket
//!    (one item per tier, a direct leg and an overlay `backend:auto`
//!    leg), doubling as the `fabric_daemon` load check.
//!
//! Passes 1–3 must produce byte-identical outcome rows once the
//! trailing stage-timing column is stripped
//! ([`Outcome::deterministic_columns`]) — the deterministic prefix
//! carries no timings and no cache counters, so thread count and
//! cache warmth cannot leak into it. **stdout** is exactly the
//! deterministic payload (per-tier outcome histograms for the direct
//! and overlay passes and the union ladder-coverage summary):
//! `scripts/verify.sh` runs the harness twice and diffs it.
//! Timings and throughput go to **stderr** and to
//! `results/bench_corpus.json` (honoring `BENCH_RESULTS_DIR`).
//!
//! The corpus is drawn from the committed seed
//! [`fsm_model::corpus::SEED`]; the `CORPUS_PER_TIER` knob sets the
//! machines per tier (default 125 — 9 tiers × 125 = 1125 machines), and
//! every run covers all tiers.

use emb_fsm::MapBackend;
use paper_bench::clear_cache;
use paper_bench::corpus::{run_item_with_backend, Outcome};
use paper_bench::fabric::{map_request, request, request_with_retry, serve, DaemonOptions};
use paper_bench::knobs::workspace_root;
use paper_bench::runner::{run, RunnerOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One runner pass over all items on `threads` threads; returns (rows,
/// wall-clock, failures). `map_backend` overrides the flow's mapping
/// backend (`None` keeps the profile default, i.e. direct).
fn pass(
    label: &str,
    threads: usize,
    map_backend: Option<MapBackend>,
    items: &[String],
    scratch: &Path,
) -> (Vec<Vec<String>>, Duration, usize) {
    let opts = RunnerOptions {
        label: format!("corpus_{label}"),
        max_attempts: 2,
        checkpoint_dir: scratch.to_path_buf(),
        threads,
    };
    let t = Instant::now();
    let out = run(&opts, items, Outcome::COLUMNS, |item, _attempt| {
        Ok(vec![run_item_with_backend(item, map_backend).row()])
    });
    (out.rows, t.elapsed(), out.failures.len())
}

/// The deterministic prefix of every row — the trailing stage-timing
/// column is measurement, not outcome, and differs run to run.
fn stripped(rows: &[Vec<String>]) -> Vec<&[String]> {
    rows.iter()
        .map(|r| Outcome::deterministic_columns(r))
        .collect()
}

/// One per-tier histogram section, accumulating whole-corpus rung /
/// downgrade counts into the caller's coverage maps.
fn tier_sections<'a>(
    rows: &'a [Vec<String>],
    tiers: &[&str],
    rungs_hit: &mut BTreeMap<&'a str, usize>,
    downs_hit: &mut BTreeMap<String, usize>,
) {
    for tier in tiers {
        let tier_rows: Vec<&Vec<String>> = rows
            .iter()
            .filter(|r| r.get(1).map(String::as_str) == Some(*tier))
            .collect();
        let mut status: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rung: BTreeMap<&str, usize> = BTreeMap::new();
        let mut down: BTreeMap<String, usize> = BTreeMap::new();
        for r in &tier_rows {
            *status.entry(r[2].as_str()).or_default() += 1;
            *rung.entry(r[5].as_str()).or_default() += 1;
            for d in r[6].split('+') {
                *down.entry(d.to_string()).or_default() += 1;
            }
        }
        println!("tier {tier}: total={}", tier_rows.len());
        for (k, n) in &status {
            println!("  status {k}={n}");
        }
        for (k, n) in &rung {
            println!("  rung {k}={n}");
            if *k != "-" {
                *rungs_hit.entry(k).or_default() += n;
            }
        }
        for (k, n) in &down {
            println!("  downgrade {k}={n}");
            if k != "-" && k != "none" {
                *downs_hit.entry(k.clone()).or_default() += n;
            }
        }
    }
}

/// Per-tier outcome histograms (direct pass, then the overlay pass)
/// plus the union ladder coverage, printed to stdout. Everything here
/// is a pure function of the deterministic row columns, so two runs
/// with the same corpus parameters print byte-identical text.
fn print_histograms(
    rows: &[Vec<String>],
    overlay_rows: &[Vec<String>],
    tiers: &[&str],
    seed: u64,
    per_tier: u64,
) {
    println!(
        "== corpus outcome histogram (seed {seed}, {} tier(s) x {per_tier}) ==",
        tiers.len()
    );
    let mut rungs_hit: BTreeMap<&str, usize> = BTreeMap::new();
    let mut downs_hit: BTreeMap<String, usize> = BTreeMap::new();
    tier_sections(rows, tiers, &mut rungs_hit, &mut downs_hit);
    println!("== overlay pass histogram (backend auto) ==");
    tier_sections(overlay_rows, tiers, &mut rungs_hit, &mut downs_hit);
    println!("== ladder coverage ==");
    for r in ["direct", "compacted", "series", "overlay", "ff"] {
        println!("rung {r}: {}", rungs_hit.get(r).copied().unwrap_or(0));
    }
    for k in emb_fsm::flow::Downgrade::all_kinds() {
        println!("downgrade {k}: {}", downs_hit.get(*k).copied().unwrap_or(0));
    }
}

/// Daemon pass results: plain-leg ok / warm counts, overlay-leg ok
/// count, total requests sent, and wall-clock over both legs.
struct DaemonStats {
    ok: usize,
    warm: usize,
    overlay_ok: usize,
    requests: usize,
    elapsed: Duration,
}

/// Daemon pass: serve corpus mapping requests in-process over a Unix
/// socket — one item per tier, first with the profile's (direct)
/// backend, then with `"backend":"auto"` exercising the overlay wire
/// field — and count ok / warm responses. The response rows were all
/// computed (and cached) by the earlier passes, so a healthy daemon
/// answers every request warm.
fn daemon_pass(items_one_per_tier: &[String], scratch: &Path) -> DaemonStats {
    let socket = scratch.join("corpus_stress.sock");
    let mut opts = DaemonOptions::new(&socket);
    opts.request_timeout = paper_bench::knobs().request_timeout;
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while request(&socket, "{\"cmd\":\"ping\"}").is_err() {
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    let t = Instant::now();
    let mut stats = DaemonStats {
        ok: 0,
        warm: 0,
        overlay_ok: 0,
        requests: 0,
        elapsed: Duration::ZERO,
    };
    for backend in [None, Some(MapBackend::Auto)] {
        for item in items_one_per_tier {
            stats.requests += 1;
            match request_with_retry(&socket, &map_request(item, backend), 4) {
                Ok(r) if r.contains("\"ok\":true") && backend.is_some() => stats.overlay_ok += 1,
                Ok(r) if r.contains("\"ok\":true") => {
                    stats.ok += 1;
                    stats.warm += usize::from(r.contains("\"warm\":true"));
                }
                Ok(r) => eprintln!("corpus_stress: daemon rejected {item} ({backend:?}): {r}"),
                Err(e) => eprintln!("corpus_stress: daemon request for {item} ({backend:?}): {e}"),
            }
        }
    }
    stats.elapsed = t.elapsed();
    let _ = request(&socket, "{\"cmd\":\"shutdown\"}");
    let _ = handle.join();
    stats
}

fn main() {
    let scratch = workspace_root()
        .join("target")
        .join(format!("corpus_stress_scratch_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    // Must precede the first cache access: the config is read once.
    std::env::set_var("FLOW_CACHE_DIR", scratch.join("cache"));

    let knobs = paper_bench::knobs();
    let (seed, per_tier) = (fsm_model::corpus::SEED, knobs.corpus_per_tier);
    let tiers = fsm_model::corpus::tier_names();
    // The passes run on one thread (items strictly in input order) or on
    // `RUNNER_THREADS` threads.
    let (serial, parallel) = (1, knobs.threads);
    let mut items = Vec::new();
    for tier in &tiers {
        for i in 0..per_tier {
            let s = fsm_model::corpus::spec(tier, i as usize, seed).expect("known tier");
            items.push(s.name);
        }
    }
    eprintln!(
        "== corpus_stress: {} machine(s), {} tier(s), seed {seed} ==",
        items.len(),
        tiers.len()
    );
    clear_cache(&scratch.join("cache"), |_| false);

    let (serial_rows, serial_cold, serial_fail) =
        pass("serial_cold", serial, None, &items, &scratch);
    clear_cache(&scratch.join("cache"), |_| false);
    let (par_cold_rows, parallel_cold, par_cold_fail) =
        pass("parallel_cold", parallel, None, &items, &scratch);
    let (par_warm_rows, parallel_warm, par_warm_fail) =
        pass("parallel_warm", parallel, None, &items, &scratch);

    // Overlay pass: same items with the mapping backend forced to
    // `auto` — overlay where the capacity ladder fits, typed
    // `overlay-capacity` fallback to direct where it does not.
    let (overlay_rows, overlay_auto, overlay_fail) = pass(
        "overlay_auto",
        serial,
        Some(MapBackend::Auto),
        &items,
        &scratch,
    );

    let failures = serial_fail + par_cold_fail + par_warm_fail + overlay_fail;
    assert_eq!(
        failures, 0,
        "corpus_stress: {failures} coordinator failure(s)"
    );
    assert_eq!(
        stripped(&serial_rows),
        stripped(&par_cold_rows),
        "parallel run diverged from sequential"
    );
    assert_eq!(
        stripped(&serial_rows),
        stripped(&par_warm_rows),
        "warm cache leaked into outcome rows"
    );

    print_histograms(&serial_rows, &overlay_rows, &tiers, seed, per_tier);

    let one_per_tier: Vec<String> = tiers
        .iter()
        .filter_map(|t| fsm_model::corpus::spec(t, 0, seed).map(|s| s.name))
        .collect();
    let daemon = daemon_pass(&one_per_tier, &scratch);
    println!("== daemon ==");
    println!("daemon ok: {}/{}", daemon.ok, one_per_tier.len());
    println!(
        "daemon overlay ok: {}/{}",
        daemon.overlay_ok,
        one_per_tier.len()
    );
    assert_eq!(daemon.ok, one_per_tier.len(), "daemon rejected corpus load");
    assert_eq!(
        daemon.overlay_ok,
        one_per_tier.len(),
        "daemon rejected overlay-backend corpus load"
    );

    let n = items.len() as f64;
    let fsms = |d: Duration| n / d.as_secs_f64().max(1e-9);
    let fsms_daemon = daemon.requests as f64 / daemon.elapsed.as_secs_f64().max(1e-9);
    for (name, d) in [
        ("serial_cold", serial_cold),
        ("parallel_cold", parallel_cold),
        ("parallel_warm", parallel_warm),
        ("overlay_auto", overlay_auto),
    ] {
        eprintln!("{name:<14} {d:>10.2?}  {:>8.1} FSMs/sec", fsms(d));
    }
    eprintln!(
        "daemon         {:>10.2?}  {}/{} ok, {} warm, {:.1} FSMs/sec",
        daemon.elapsed,
        daemon.ok,
        one_per_tier.len(),
        daemon.warm,
        fsms_daemon
    );

    let dir = &knobs.results_dir;
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join("bench_corpus.json");
    let json = format!(
        "{{\n  \"suite\": \"corpus\",\n  \"machines\": {},\n  \"tiers\": {},\n  \
         \"seed\": {seed},\n  \"per_tier\": {per_tier},\n  \
         \"serial_cold_ms\": {:.1},\n  \"parallel_cold_ms\": {:.1},\n  \
         \"parallel_warm_ms\": {:.1},\n  \"overlay_auto_ms\": {:.1},\n  \
         \"fsms_per_sec_serial\": {:.2},\n  \"fsms_per_sec_parallel\": {:.2},\n  \
         \"fsms_per_sec_warm\": {:.2},\n  \"fsms_per_sec_overlay\": {:.2},\n  \
         \"daemon_items\": {},\n  \"daemon_ok\": {},\n  \"daemon_overlay_ok\": {},\n  \
         \"daemon_warm\": {},\n  \
         \"daemon_ms\": {:.1},\n  \"fsms_per_sec_daemon\": {:.2},\n  \
         \"coordinator_failures\": 0\n}}\n",
        items.len(),
        tiers.len(),
        serial_cold.as_secs_f64() * 1e3,
        parallel_cold.as_secs_f64() * 1e3,
        parallel_warm.as_secs_f64() * 1e3,
        overlay_auto.as_secs_f64() * 1e3,
        fsms(serial_cold),
        fsms(parallel_cold),
        fsms(parallel_warm),
        fsms(overlay_auto),
        one_per_tier.len(),
        daemon.ok,
        daemon.overlay_ok,
        daemon.warm,
        daemon.elapsed.as_secs_f64() * 1e3,
        fsms_daemon,
    );
    std::fs::write(&path, json).expect("write bench JSON");
    eprintln!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);
}
