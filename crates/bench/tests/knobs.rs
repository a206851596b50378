//! A malformed knob stops a harness binary at the boundary: exit code 2
//! and a message naming the knob, before any flow runs.

use std::process::Command;

#[test]
fn a_malformed_knob_exits_2_naming_it_before_any_flow_runs() {
    let store = std::env::temp_dir().join(format!("knobs_itest_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("RUNNER_THREADS", "abc")
        .env("FLOW_CACHE_DIR", &store)
        .output()
        .expect("spawn table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("RUNNER_THREADS=\"abc\""), "{stderr}");
    assert!(out.stdout.is_empty(), "table1 printed a table");
    // The flow cache creates its store on first use: no store, no flow.
    assert!(!store.exists(), "a flow ran before the knob was checked");
}
