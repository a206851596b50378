//! Integration test for the flow-artifact cache: a cold run, a
//! memory-warm run, and a disk-warm run (memory layer dropped) must all
//! produce the same report, and the hit/miss counters surfaced in
//! [`FlowReport`] must account for the traffic.
//!
//! Every public flow entry point is also pinned to its exact cache
//! traffic: the cold and warm `report.cache` hits/misses, the multiset
//! of record kinds the cold run writes, and a digest over the names and
//! bytes of those records. The lookups are part of the flow's contract
//! (replay tooling mirrors them), so a refactor that reorders, drops or
//! adds one fails here; the digest pins every key and every record byte,
//! so a codec change that moves either fails here too.
//!
//! This file holds a single test function on purpose: the cache reads
//! `FLOW_CACHE_DIR` once per process, so the variable must be set before
//! any other code in this binary touches the cache.

use emb_fsm::cache;
use emb_fsm::flow::{
    emb_clock_controlled_flow, emb_flow, emb_flow_with_fallback, emb_overlay_flow,
    ff_clock_gated_flow, ff_flow, Downgrade, FlowConfig, FlowReport, ImplKind, MapBackend,
    Stimulus,
};
use emb_fsm::EmbOptions;
use fpga_fabric::place::PlaceOptions;
use fsm_model::generate::{generate, StgSpec};
use logic_synth::synth::SynthOptions;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The fields a cached rerun must reproduce exactly.
fn fingerprint(r: &FlowReport) -> (usize, usize, usize, u64, usize, u64, String) {
    (
        r.area.luts,
        r.area.ffs,
        r.area.brams,
        r.timing.critical_path_ns.to_bits(),
        r.total_wirelength,
        r.power_at(85.0).map_or(0, |p| p.total_mw().to_bits()),
        format!("{:?}", r.downgrades),
    )
}

/// The record files in the store, by file name, with their bytes.
/// In-flight temp files (`.<name>.tmp.<pid>.<thread>`) do not end in
/// `.txt`, so only published records are listed.
fn records(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("cache dir is readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".txt") {
            out.insert(name, std::fs::read(&path).expect("record is readable"));
        }
    }
    out
}

/// Record files counted by kind (the file-name prefix before the digest:
/// `ff`, `ffg`, `emb`, `embcc`, `ovl`, `place`, `ecoplace`, `ovlbase`).
fn record_kinds(dir: &Path) -> BTreeMap<String, usize> {
    let mut kinds = BTreeMap::new();
    for name in records(dir).keys() {
        if let Some((kind, _)) = name.strip_suffix(".txt").and_then(|n| n.rsplit_once('_')) {
            *kinds.entry(kind.to_string()).or_insert(0) += 1;
        }
    }
    kinds
}

/// Pins the FNV-1a-64 digest over the name and bytes of every record in
/// `after` that is not in `before`, in file-name order, each field
/// length-prefixed.
fn pin_digest(
    label: &str,
    before: &BTreeMap<String, Vec<u8>>,
    after: &BTreeMap<String, Vec<u8>>,
    want: &str,
) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, bytes) in after.iter().filter(|(n, _)| !before.contains_key(*n)) {
        for field in [name.as_bytes(), bytes] {
            for &b in (field.len() as u64).to_le_bytes().iter().chain(field) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(
        format!("{h:016x}"),
        want,
        "{label}: digest of the records the cold run wrote"
    );
}

/// Runs `flow` cold then warm and pins both runs' cache traffic, the
/// record kinds the cold run wrote and the digest of those records.
/// Returns the cold and warm reports, which must agree.
fn pin_traffic(
    label: &str,
    dir: &Path,
    flow: impl Fn() -> FlowReport,
    cold_traffic: (u64, u64),
    warm_traffic: (u64, u64),
    written: &[(&str, usize)],
    digest: &str,
) -> (FlowReport, FlowReport) {
    let before_records = records(dir);
    let before = record_kinds(dir);
    let cold = flow();
    pin_digest(label, &before_records, &records(dir), digest);
    let after = record_kinds(dir);
    let new_kinds: BTreeMap<String, usize> = after
        .iter()
        .map(|(k, &n)| (k.clone(), n - before.get(k).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let want: BTreeMap<String, usize> = written.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    assert_eq!(
        new_kinds, want,
        "{label}: record kinds written by the cold run"
    );
    assert_eq!(
        (cold.cache.hits, cold.cache.misses),
        cold_traffic,
        "{label}: cold traffic {}",
        cold.cache
    );
    let warm = flow();
    assert_eq!(
        (warm.cache.hits, warm.cache.misses),
        warm_traffic,
        "{label}: warm traffic {}",
        warm.cache
    );
    assert_eq!(record_kinds(dir), after, "{label}: warm run wrote records");
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&cold),
        "{label}: warm run must equal cold run"
    );
    (cold, warm)
}

/// The 13-input, 9-state machine the flow unit tests push past the
/// overlay ladder (17 logical address bits).
fn wide13() -> fsm_model::stg::Stg {
    generate(&StgSpec {
        states: 9,
        inputs: 13,
        outputs: 2,
        transitions: 40,
        max_support: Some(3),
        ..StgSpec::new("wide13")
    })
    .expect("generates")
}

#[test]
fn cold_memory_warm_and_disk_warm_runs_agree() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("itest_flow_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FLOW_CACHE_DIR", &dir);

    let stg = fsm_model::benchmarks::sequence_detector_0101();
    let cfg = FlowConfig {
        cycles: 400,
        verify_cycles: 150,
        place: PlaceOptions {
            seed: 1,
            effort: 2.0,
            ..PlaceOptions::default()
        },
        ..FlowConfig::default()
    };

    // Cold: every artifact is computed and stored.
    let cold = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg).unwrap();
    pin_digest(
        "ff_flow",
        &BTreeMap::new(),
        &records(&dir),
        "5612d5ffe7055625",
    );
    assert_eq!(cold.cache.hits, 0, "cold run must not hit: {}", cold.cache);
    assert!(
        cold.cache.misses >= 2,
        "cold run misses at least the front-end and one placement: {}",
        cold.cache
    );

    // Memory-warm: same process, both layers populated.
    let warm = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg).unwrap();
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&cold),
        "warm run must equal cold run"
    );
    assert_eq!(
        warm.cache.misses, 0,
        "warm run must not miss: {}",
        warm.cache
    );
    assert_eq!(
        warm.cache.hits, cold.cache.misses,
        "every cold miss becomes a warm hit"
    );

    // Disk-warm: drop the in-process layer, artifacts come from disk.
    cache::reset_memory();
    let disk = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg).unwrap();
    assert_eq!(
        fingerprint(&disk),
        fingerprint(&cold),
        "disk-warm run must equal cold run"
    );
    assert_eq!(
        disk.cache.misses, 0,
        "disk-warm run must not miss: {}",
        disk.cache
    );
    assert_eq!(disk.cache.hits, cold.cache.misses);

    // A different flavor of the same machine is a different key: the EMB
    // flow over an already-cached STG still misses its own artifacts.
    let before_emb = records(&dir);
    let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
    pin_digest("emb_flow", &before_emb, &records(&dir), "28c1df0e2a18e63e");
    assert!(
        emb.cache.misses >= 2,
        "distinct kind tags must not collide: {}",
        emb.cache
    );

    // --- exact traffic per entry point ----------------------------------

    let emb_opts = EmbOptions::default();
    let synth_opts = SynthOptions::default();

    // Gated FF: one gated front-end, one placement.
    let tl = fsm_model::benchmarks::traffic_light();
    let idle = Stimulus::IdleBiased(0.5);
    let (gated, _) = pin_traffic(
        "ff_clock_gated_flow",
        &dir,
        || ff_clock_gated_flow(&tl, synth_opts, &idle, &cfg).unwrap(),
        (0, 2),
        (2, 0),
        &[("ffg", 1), ("place", 1)],
        "cb323486defc67b8",
    );
    assert_eq!(gated.kind, ImplKind::FfClockGated);

    // Clock-controlled EMB with ECO placement: the controlled front-end,
    // the plain ECO-base front-end, the base placement and the ECO delta.
    let rot = fsm_model::benchmarks::rotary_sequencer();
    let busy = Stimulus::IdleBiased(0.7);
    let (cc, cc_warm) = pin_traffic(
        "emb_clock_controlled_flow",
        &dir,
        || emb_clock_controlled_flow(&rot, &emb_opts, &busy, &cfg).unwrap(),
        (0, 4),
        (4, 0),
        &[("ecoplace", 1), ("emb", 1), ("embcc", 1), ("place", 1)],
        "0f67e8177e0cf46c",
    );
    assert!(cc.eco.as_ref().is_some_and(|e| !e.base_reuse_cache_hit));
    assert!(cc_warm.eco.as_ref().is_some_and(|e| e.base_reuse_cache_hit));

    // Overlay: the overlay front-end and the class base.
    let ovl_stg = generate(&StgSpec {
        states: 6,
        inputs: 3,
        outputs: 2,
        transitions: 18,
        seed: 3,
        ..StgSpec::new("ovlcls3")
    })
    .expect("generates");
    let (ovl, ovl_warm) = pin_traffic(
        "emb_overlay_flow",
        &dir,
        || emb_overlay_flow(&ovl_stg, &Stimulus::Random, &cfg).unwrap(),
        (0, 2),
        (2, 0),
        &[("ovl", 1), ("ovlbase", 1)],
        "913053708bd71f56",
    );
    assert!(ovl.overlay.as_ref().is_some_and(|o| !o.base_cache_hit));
    assert!(ovl_warm.overlay.as_ref().is_some_and(|o| o.base_cache_hit));

    // Auto past the overlay ladder: the class plan fails before any
    // overlay lookup, then the direct backend runs.
    let wide = wide13();
    let auto_cfg = FlowConfig {
        backend: MapBackend::Auto,
        exhaustive_verify_max_inputs: 8,
        ..cfg.clone()
    };
    let (auto, _) = pin_traffic(
        "emb_flow auto",
        &dir,
        || emb_flow(&wide, &emb_opts, &Stimulus::Random, &auto_cfg).unwrap(),
        (0, 2),
        (2, 0),
        &[("emb", 1), ("place", 1)],
        "7f3b8d8602e9ea13",
    );
    assert_eq!(auto.kind, ImplKind::Emb);
    assert!(auto
        .downgrades
        .iter()
        .any(|d| matches!(d, Downgrade::OverlayCapacity { .. })));

    // EMB -> FF: without compaction or series banks the wide machine
    // cannot map; its failed EMB lookup misses on every run, and the FF
    // fallback's artifacts count toward the same report.
    let no_ladder = EmbOptions {
        allow_compaction: false,
        allow_series: false,
        ..EmbOptions::default()
    };
    let (fallback, _) = pin_traffic(
        "emb_flow_with_fallback",
        &dir,
        || emb_flow_with_fallback(&wide, &no_ladder, synth_opts, &Stimulus::Random, &cfg).unwrap(),
        (0, 3),
        (2, 1),
        &[("ff", 1), ("place", 1)],
        "aea3b4b298b61ae5",
    );
    assert_eq!(fallback.kind, ImplKind::Ff);
    assert!(fallback
        .downgrades
        .iter()
        .any(|d| matches!(d, Downgrade::EmbToFf { .. })));

    let _ = std::fs::remove_dir_all(&dir);
}
