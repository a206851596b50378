//! Integration tests for the multi-process runner backend, driven
//! through the `fabric_selftest` bin (a real harness binary whose flow
//! is synthetic): byte identity against a one-thread run, survival
//! of an abort-class worker death, and checkpoint-resume skipping.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch directory under `target/` for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("itest_fabric_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `fabric_selftest` with the given backend env and returns
/// (stdout, success).
fn run_selftest(dir: &PathBuf, items: &str, envs: &[(&str, &str)]) -> (String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fabric_selftest"));
    cmd.env("SELFTEST_ITEMS", items)
        .env("SELFTEST_DIR", dir)
        .env("SELFTEST_MARKER_DIR", dir)
        .env_remove("SELFTEST_PRINT_HEALTH");
    // Only the knobs a case sets reach the run.
    for knob in paper_bench::knobs::NAMES {
        cmd.env_remove(knob);
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn fabric_selftest");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn process_backend_output_is_byte_identical_to_sequential() {
    let items = "alpha,beta,fail-x,gamma,delta,epsilon";

    let dir = scratch("ident_seq");
    let (serial, ok) = run_selftest(&dir, items, &[("RUNNER_THREADS", "1")]);
    assert!(ok, "sequential selftest run failed");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("ident_proc");
    let (parallel, ok) = run_selftest(
        &dir,
        items,
        &[("RUNNER_BACKEND", "process"), ("RUNNER_THREADS", "4")],
    );
    assert!(ok, "process-backend selftest run failed");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        serial.contains("row-alpha-0"),
        "sequential run produced no rows:\n{serial}"
    );
    assert!(
        serial.contains("FAILED: typed failure for fail-x"),
        "failure placeholder missing:\n{serial}"
    );
    assert_eq!(
        serial, parallel,
        "table bytes must not depend on the backend"
    );
}

#[test]
fn process_backend_survives_an_aborting_worker() {
    let dir = scratch("poison");
    // poison-boom aborts the first worker process that computes it; the
    // coordinator must respawn a worker, resubmit, and finish the run.
    let (out, ok) = run_selftest(
        &dir,
        "alpha,poison-boom,beta",
        &[("RUNNER_BACKEND", "process"), ("RUNNER_THREADS", "2")],
    );
    assert!(ok, "run did not survive the worker abort");
    assert!(
        out.contains("row-poison-boom-0"),
        "poisoned item missing its post-respawn row:\n{out}"
    );
    assert!(
        dir.join("poison-boom").exists(),
        "marker file missing — the abort path never ran"
    );
    // All three items present, input order.
    let rows: Vec<&str> = out.lines().collect();
    assert_eq!(rows.len(), 3, "expected 3 rows:\n{out}");
    assert!(rows[0].starts_with("alpha|"));
    assert!(rows[1].starts_with("poison-boom|"));
    assert!(rows[2].starts_with("beta|"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn process_backend_resume_skips_checkpointed_items() {
    let dir = scratch("resume");
    // A checkpoint recording poison-skip as done: the resumed run must
    // replay it without executing the closure (which would abort a
    // worker and leave a marker file).
    std::fs::write(
        dir.join("checkpoint_fabric_selftest.jsonl"),
        "{\"item\":\"poison-skip\",\"ok\":true,\"rows\":[[\"poison-skip\",\"row-poison-skip-0\",\"z\"]]}\n",
    )
    .expect("seed checkpoint");
    let (out, ok) = run_selftest(
        &dir,
        "alpha,poison-skip,beta",
        &[("RUNNER_BACKEND", "process"), ("RUNNER_THREADS", "2")],
    );
    assert!(ok, "resumed run failed");
    assert!(
        out.contains("row-poison-skip-0"),
        "checkpointed row missing:\n{out}"
    );
    assert!(
        !dir.join("poison-skip").exists(),
        "closure ran for a checkpointed item (marker file exists)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_times_out_is_killed_and_output_stays_identical() {
    let items = "alpha,hang-once-stall,beta";

    // Sequential reference: hang items only sleep inside worker
    // processes, so this computes instantly.
    let dir = scratch("hang_seq");
    let (reference, ok) = run_selftest(&dir, items, &[("RUNNER_THREADS", "1")]);
    assert!(ok, "sequential reference run failed");
    let _ = std::fs::remove_dir_all(&dir);

    // Process backend with a tight per-item deadline: the first worker
    // that computes hang-once-stall sleeps forever; the supervisor must
    // kill it at the deadline, respawn, and resubmit (the marker makes
    // the second worker attempt succeed).
    let dir = scratch("hang_proc");
    let (out, ok) = run_selftest(
        &dir,
        items,
        &[
            ("RUNNER_BACKEND", "process"),
            ("RUNNER_THREADS", "2"),
            ("RUNNER_ITEM_TIMEOUT_MS", "250"),
            ("RUNNER_BACKOFF_BASE_MS", "10"),
            ("SELFTEST_PRINT_HEALTH", "1"),
        ],
    );
    assert!(ok, "run did not survive the hung worker");
    assert!(
        dir.join("hang-once-stall").exists(),
        "marker missing — the hang path never ran in a worker"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let (rows, health): (Vec<&str>, Vec<&str>) =
        out.lines().partition(|l| !l.starts_with("health:"));
    assert_eq!(
        rows.join("\n"),
        reference.trim_end(),
        "rows must be byte-identical to the sequential backend"
    );
    let health = health.first().copied().unwrap_or_default().to_string();
    let counter = |key: &str| -> u64 {
        health
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_default()
    };
    assert!(
        counter("timeouts") >= 1,
        "supervisor recorded no timeout: {health}"
    );
    assert!(
        counter("respawns") >= 1,
        "supervisor recorded no respawn: {health}"
    );
}

#[test]
fn always_hanging_item_quarantines_the_slot_deterministically() {
    // One slot (RUNNER_THREADS=1), an item that hangs in *every* worker,
    // and max_strikes=2: the supervision sequence is fully determined —
    // timeout → respawn (strike 1) → timeout → quarantine (strike 2) →
    // inline fallback computes the item — so the health line is exact,
    // with no wall-clock flakiness.
    let items = "hang-always-stuck,tail";

    let dir = scratch("quarantine_seq");
    let (reference, ok) = run_selftest(&dir, items, &[("RUNNER_THREADS", "1")]);
    assert!(ok, "sequential reference run failed");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("quarantine_proc");
    let (out, ok) = run_selftest(
        &dir,
        items,
        &[
            ("RUNNER_BACKEND", "process"),
            ("RUNNER_THREADS", "1"),
            ("RUNNER_ITEM_TIMEOUT_MS", "150"),
            ("RUNNER_MAX_STRIKES", "2"),
            ("RUNNER_BACKOFF_BASE_MS", "10"),
            ("SELFTEST_PRINT_HEALTH", "1"),
        ],
    );
    assert!(ok, "run did not survive quarantine");
    let _ = std::fs::remove_dir_all(&dir);

    let (rows, health): (Vec<&str>, Vec<&str>) =
        out.lines().partition(|l| !l.starts_with("health:"));
    assert_eq!(
        rows.join("\n"),
        reference.trim_end(),
        "rows must be byte-identical to the sequential backend"
    );
    assert_eq!(
        health.first().copied().unwrap_or_default(),
        "health: timeouts=2 respawns=1 quarantined=1",
        "quarantine sequence must be exact:\n{out}"
    );
}
