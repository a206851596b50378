//! Committed-corpus ladder coverage: the seeded tier grids, pushed
//! through their flow profiles, must collectively exercise every mapping
//! rung (direct / compacted / series / overlay / the FF fallback) and
//! every [`emb_fsm::flow::Downgrade`] variant at least once — so no rung
//! of the degradation ladder can silently lose its corpus coverage when
//! a grid or profile changes. The overlay rung and the
//! `overlay-capacity` downgrade come from a second pass over the same
//! prefix with the mapping backend forced to `auto`, mirroring the
//! `overlay_auto` pass of `corpus_stress`.
//!
//! The indices probed here are a prefix of every `corpus_stress` run
//! (seed `fsm_model::corpus::SEED`), so a failure in this test means
//! the committed `results/bench_corpus.json` run would miss coverage too.

use emb_fsm::MapBackend;
use fsm_model::corpus::SEED;
use paper_bench::corpus::{run_item, run_item_with_backend};
use std::collections::BTreeSet;

/// Indices probed per tier. The eco-squeeze budget race only trips on
/// some machines, so that tier gets a deeper prefix (machines 5 and 10
/// are the pinned EcoFallback witnesses under seed 2004).
fn prefix_len(tier: &str) -> usize {
    if tier == "eco-squeeze" {
        12
    } else {
        3
    }
}

#[test]
fn committed_corpus_covers_every_rung_and_downgrade() {
    let scratch = std::env::temp_dir().join(format!("corpus_coverage_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    std::env::set_var("FLOW_CACHE_DIR", &scratch);

    let mut rungs: BTreeSet<String> = BTreeSet::new();
    let mut downgrades: BTreeSet<String> = BTreeSet::new();
    for tier in fsm_model::corpus::tier_names() {
        for i in 0..prefix_len(tier) {
            let spec = fsm_model::corpus::spec(tier, i, SEED).expect("known tier");
            let o = run_item(&spec.name);
            assert_eq!(
                o.status, "ok",
                "corpus item {} must complete (possibly degraded), got {o:?}",
                spec.name
            );
            rungs.insert(o.rung.clone());
            for d in o.downgrades.split('+').filter(|d| *d != "none") {
                downgrades.insert(d.to_string());
            }
        }
    }

    // Overlay pass over the same prefix: `auto` lands overlay-fit items
    // on the overlay rung and records `overlay-capacity` for the rest.
    for tier in fsm_model::corpus::tier_names() {
        for i in 0..prefix_len(tier).min(3) {
            let spec = fsm_model::corpus::spec(tier, i, SEED).expect("known tier");
            let o = run_item_with_backend(&spec.name, Some(MapBackend::Auto));
            assert_eq!(
                o.status, "ok",
                "overlay-pass corpus item {} must complete (possibly degraded), got {o:?}",
                spec.name
            );
            rungs.insert(o.rung.clone());
            for d in o.downgrades.split('+').filter(|d| *d != "none") {
                downgrades.insert(d.to_string());
            }
        }
    }

    for rung in ["direct", "compacted", "series", "overlay", "ff"] {
        assert!(
            rungs.contains(rung),
            "no committed corpus item lands on the '{rung}' rung (saw {rungs:?})"
        );
    }
    for kind in emb_fsm::flow::Downgrade::all_kinds() {
        assert!(
            downgrades.contains(*kind),
            "no committed corpus item records the '{kind}' downgrade (saw {downgrades:?})"
        );
    }

    let _ = std::fs::remove_dir_all(&scratch);
}
