//! Integration tests for the work-stealing runner backend: a parallel
//! run must emit exactly the rows a serial run emits (including FAILED
//! placeholders), and a checkpoint written by a killed parallel run must
//! resume without recomputing finished items.

use paper_bench::runner::{run, Backend, RunnerOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_opts(label: &str, threads: usize) -> RunnerOptions {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("itest_runner_{label}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    RunnerOptions {
        label: label.to_string(),
        max_attempts: 2,
        checkpoint_dir: dir,
        threads,
        backend: Backend::Threads,
    }
}

/// The shared workload: deterministic rows per item, with one item that
/// fails every attempt and one that panics every attempt.
fn work(item: &str, attempt: u32) -> Result<Vec<Vec<String>>, String> {
    match item {
        "fails" => Err(format!("injected failure (attempt {attempt})")),
        "panics" => panic!("injected panic"),
        _ => Ok(vec![
            vec![item.to_string(), format!("{item}-a")],
            vec![item.to_string(), format!("{item}-b")],
        ]),
    }
}

#[test]
fn parallel_rows_match_serial_rows_including_failures() {
    let items: Vec<String> = ["alpha", "fails", "beta", "panics", "gamma", "delta"]
        .iter()
        .map(ToString::to_string)
        .collect();

    let serial_opts = temp_opts("eq_serial", 1);
    let serial = run(&serial_opts, &items, 3, work);
    let _ = std::fs::remove_dir_all(&serial_opts.checkpoint_dir);

    let parallel_opts = temp_opts("eq_parallel", 4);
    let parallel = run(&parallel_opts, &items, 3, work);
    let _ = std::fs::remove_dir_all(&parallel_opts.checkpoint_dir);

    assert_eq!(
        serial.rows, parallel.rows,
        "rows must not depend on thread count"
    );
    assert_eq!(serial.failures, parallel.failures);
    assert_eq!(serial.resumed, 0);
    assert_eq!(parallel.resumed, 0);
    // Both failure modes surfaced as placeholder rows in input order.
    assert_eq!(parallel.failures.len(), 2);
    assert!(parallel.rows[2][1].starts_with("FAILED: injected failure"));
    assert!(parallel.rows[5][1].starts_with("FAILED: panic: injected panic"));
}

#[test]
fn parallel_run_resumes_from_checkpoint_without_recomputing() {
    let items: Vec<String> = ["a", "b", "c", "d", "e"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let opts = temp_opts("resume_par", 4);

    // Reference: an uninterrupted serial run.
    let reference = run(
        &RunnerOptions {
            threads: 1,
            ..opts.clone()
        },
        &items,
        2,
        work,
    );

    // Simulate a run killed after "a" and "c" finished: write their rows
    // in the documented checkpoint JSONL format (completion order — a
    // parallel run may checkpoint out of input order).
    std::fs::create_dir_all(&opts.checkpoint_dir).unwrap();
    let path = opts
        .checkpoint_dir
        .join(format!("checkpoint_{}.jsonl", opts.label));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(
        f,
        r#"{{"item":"c","ok":true,"rows":[["c","c-a"],["c","c-b"]]}}"#
    )
    .unwrap();
    writeln!(
        f,
        r#"{{"item":"a","ok":true,"rows":[["a","a-a"],["a","a-b"]]}}"#
    )
    .unwrap();
    drop(f);

    let recomputed = AtomicUsize::new(0);
    let resumed = run(&opts, &items, 2, |item, attempt| {
        recomputed.fetch_add(1, Ordering::SeqCst);
        assert!(
            item != "a" && item != "c",
            "checkpointed item {item} must not be recomputed"
        );
        work(item, attempt)
    });
    assert_eq!(recomputed.load(Ordering::SeqCst), 3);
    assert_eq!(resumed.resumed, 2);
    assert_eq!(
        resumed.rows, reference.rows,
        "resumed rows must be identical"
    );
    assert!(!path.exists(), "checkpoint removed after a complete run");
    let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
}
