//! Wire-level chaos campaign: 240 seeded fault cases (48 items × 5
//! seeds) through the supervised process backend, asserting zero
//! coordinator panics and byte-identical output versus a one-thread
//! reference run under every injected fault — hangs, mid-line kills, torn
//! writes, garbage lines, slow drips, early EOF.
//!
//! The fault drawn for an item is deterministic in `(seed, item)`
//! (`fabric::chaos::FaultPlan`), so a lethal fault follows its item
//! across worker respawns until the coordinator exhausts process
//! attempts and computes it inline — the worst case for the supervision
//! machinery, and exactly where byte identity is hardest to keep.

use paper_bench::fabric::chaos::{FaultPlan, WireFault};
use std::path::PathBuf;
use std::process::Command;

/// The campaign corpus: 44 generic items, one typed failure, and three
/// seeded `fsm_model::generate` machines (so chaos coverage isn't
/// limited to synthetic no-op rows — see ROADMAP's corpus item).
fn campaign_items() -> Vec<String> {
    let mut items: Vec<String> = (0..44).map(|i| format!("case-{i:02}")).collect();
    items.push("fail-x".to_string());
    for seed in [7, 8, 9] {
        items.push(format!("gen-{seed}"));
    }
    items
}

const CAMPAIGN_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("itest_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_selftest(dir: &PathBuf, items: &str, envs: &[(&str, &str)]) -> (String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fabric_selftest"));
    cmd.env("SELFTEST_ITEMS", items)
        .env("SELFTEST_DIR", dir)
        .env("SELFTEST_MARKER_DIR", dir)
        .env_remove("RUNNER_BACKEND")
        .env_remove("RUNNER_THREADS")
        .env_remove("RUNNER_KEEP_FAILED")
        .env_remove("RUNNER_ITEM_TIMEOUT_MS")
        .env_remove("RUNNER_MAX_STRIKES")
        .env_remove("SELFTEST_PRINT_HEALTH")
        .env_remove("FABRIC_CHAOS_SEED");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn fabric_selftest");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

/// One chaos round: the full corpus under one seed, compared
/// byte-for-byte against an unfaulted sequential reference.
fn chaos_round(seed: u64) {
    let items = campaign_items().join(",");

    let dir = scratch(&format!("ref_{seed}"));
    let (reference, ok) = run_selftest(&dir, &items, &[("RUNNER_THREADS", "1")]);
    assert!(ok, "sequential reference failed (seed {seed})");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch(&format!("chaos_{seed}"));
    let seed_str = seed.to_string();
    let (out, ok) = run_selftest(
        &dir,
        &items,
        &[
            ("RUNNER_BACKEND", "process"),
            ("RUNNER_THREADS", "4"),
            // Tight enough that an injected hang costs ~300 ms, not the
            // default 5 minutes; generous enough that slow drips and
            // torn writes (tens of ms) never time out spuriously.
            ("RUNNER_ITEM_TIMEOUT_MS", "300"),
            ("RUNNER_HANDSHAKE_TIMEOUT_MS", "5000"),
            ("RUNNER_MAX_STRIKES", "4"),
            ("RUNNER_BACKOFF_BASE_MS", "5"),
            ("FABRIC_CHAOS_SEED", &seed_str),
            ("FABRIC_CHAOS_HANG_MS", "60000"),
        ],
    );
    assert!(ok, "coordinator did not survive chaos seed {seed}");
    assert_eq!(
        out, reference,
        "output must be byte-identical under chaos seed {seed}"
    );
}

#[test]
fn chaos_campaign_seeds_1_and_2() {
    chaos_round(1);
    chaos_round(2);
}

#[test]
fn chaos_campaign_seeds_3_and_4() {
    chaos_round(3);
    chaos_round(4);
}

#[test]
fn chaos_campaign_seed_5() {
    chaos_round(5);
}

#[test]
fn stalled_handshakes_quarantine_both_slots() {
    // Every worker sleeps far past the READY deadline before its
    // handshake, so no item ever reaches a worker: each of the two slots
    // misses two handshakes (a respawn, then quarantine at two strikes)
    // and computes its items inline. The health line is therefore exact.
    let items = campaign_items().join(",");
    let dir = scratch("handshake_ref");
    let (reference, ok) = run_selftest(&dir, &items, &[("RUNNER_THREADS", "1")]);
    assert!(ok, "sequential reference failed");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("handshake");
    let (out, ok) = run_selftest(
        &dir,
        &items,
        &[
            ("RUNNER_BACKEND", "process"),
            ("RUNNER_THREADS", "2"),
            ("RUNNER_HANDSHAKE_TIMEOUT_MS", "200"),
            ("RUNNER_MAX_STRIKES", "2"),
            ("RUNNER_BACKOFF_BASE_MS", "5"),
            ("FABRIC_CHAOS_SEED", "1"),
            ("FABRIC_CHAOS_HANDSHAKE_MS", "60000"),
            ("SELFTEST_PRINT_HEALTH", "1"),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(ok, "coordinator did not survive stalled handshakes");
    assert_eq!(
        out,
        format!("{reference}health: timeouts=4 respawns=2 quarantined=2\n")
    );
}

#[test]
fn campaign_grid_is_big_enough_and_exercises_every_fault() {
    // 200+ cases, and every wire-fault variant (including the lethal
    // ones the deliver unit test can't drive in-process) occurs
    // somewhere in the grid the rounds above actually run.
    let items = campaign_items();
    let cases = items.len() * CAMPAIGN_SEEDS.len();
    assert!(cases >= 200, "campaign shrank to {cases} cases");
    let mut seen = std::collections::BTreeSet::new();
    for seed in CAMPAIGN_SEEDS {
        let plan = FaultPlan::new(seed);
        for item in &items {
            seen.insert(plan.fault_for(item).to_string());
        }
    }
    for fault in [
        WireFault::None,
        WireFault::Hang,
        WireFault::MidLineKill,
        WireFault::TornWrite,
        WireFault::GarbageLine,
        WireFault::SlowDrip,
        WireFault::EarlyEof,
    ] {
        assert!(
            seen.contains(&fault.to_string()),
            "campaign grid never draws {fault}"
        );
    }
}
