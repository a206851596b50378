//! Overlay-backend equivalence and capacity properties across the
//! synthetic corpus tiers.
//!
//! The overlay backend compiles an FSM by re-encoding its STG into the
//! memory contents of a pre-built class base — so its correctness story
//! is exactly the direct backend's: the overlay netlist must survive
//! the [`verify_rewrite`] exhaustive/sampled ladder against the STG
//! oracle. One generated machine per corpus tier goes through that
//! proof here; machines past the capacity ladder must be rejected with
//! a *typed* error (never a panic), and the `auto` backend must degrade
//! them to the direct flow with a recorded `overlay-capacity`
//! downgrade.

use romfsm::emb::flow::{emb_flow, emb_overlay_flow, FlowConfig, MapBackend, Stimulus};
use romfsm::emb::map::EmbOptions;
use romfsm::emb::overlay::{overlay_fsm, OverlayError};
use romfsm::emb::verify::{verify_rewrite, OutputTiming};

/// The committed corpus seed (`CORPUS_SEED` of `corpus_stress`).
const SEED: u64 = 2004;

/// Exhaustive-proof input cap: narrow tiers take the product walk, the
/// 10-input series-cascade tier falls back to dense sampling — both are
/// accepted proofs; a verification *failure* fails the test.
const MAX_EXHAUSTIVE_INPUTS: usize = 8;
const CYCLES: usize = 300;

fn scratch_cache(tag: &str) {
    let dir = std::env::temp_dir().join(format!("overlay_test_{tag}_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    std::env::set_var("FLOW_CACHE_DIR", &dir);
}

fn tier_machine(tier: &str) -> romfsm::fsm::stg::Stg {
    let spec = romfsm::fsm::corpus::spec(tier, 0, SEED).expect("known tier");
    romfsm::fsm::generate::generate(&spec).expect("corpus spec generates")
}

/// Every corpus tier's representative either fits the overlay ladder —
/// in which case its overlay netlist must be provably equivalent to the
/// STG — or is rejected with the typed capacity error. No third way.
#[test]
fn overlay_netlist_matches_stg_on_every_fitting_tier() {
    let mut fitting = 0usize;
    let mut rejected = 0usize;
    for tier in romfsm::fsm::corpus::tier_names() {
        let stg = tier_machine(tier);
        match overlay_fsm(&stg) {
            Ok(ovl) => {
                let netlist = ovl.fsm_netlist();
                let method = verify_rewrite(
                    &netlist,
                    &stg,
                    OutputTiming::Registered,
                    MAX_EXHAUSTIVE_INPUTS,
                    CYCLES,
                    0xC,
                )
                .unwrap_or_else(|e| panic!("{tier}: overlay netlist diverges from STG: {e}"));
                fitting += 1;
                eprintln!(
                    "{tier}: overlay class {} proven via {method:?}",
                    ovl.class.label()
                );
            }
            Err(OverlayError::CapacityExceeded {
                needed_addr_bits,
                available,
            }) => {
                assert!(
                    needed_addr_bits > available,
                    "{tier}: capacity rejection must over-demand the ladder \
                     (needed {needed_addr_bits}, available {available})"
                );
                rejected += 1;
            }
            Err(e) => panic!("{tier}: unexpected overlay rejection: {e}"),
        }
    }
    assert!(
        fitting >= 4,
        "the corpus must keep several overlay-fit tiers (saw {fitting})"
    );
    assert!(
        rejected >= 1,
        "the corpus must keep at least one over-capacity tier (saw {rejected})"
    );
}

/// Past the capacity ladder the overlay flow returns a typed capacity
/// error, and the `auto` backend completes on the direct rung with the
/// `overlay-capacity` downgrade recorded.
#[test]
fn over_capacity_machines_take_the_typed_reject_path() {
    scratch_cache("capacity");
    let stg = tier_machine("wide-input");
    let cfg = FlowConfig {
        exhaustive_verify_max_inputs: 6,
        cycles: 300,
        verify_cycles: 200,
        ..FlowConfig::default()
    };

    let err = emb_overlay_flow(&stg, &Stimulus::Random, &cfg)
        .expect_err("a 14-input machine cannot fit a 16-line overlay base");
    assert!(
        err.is_capacity(),
        "overlay rejection must be a typed capacity error, got: {err}"
    );

    let auto_cfg = FlowConfig {
        backend: MapBackend::Auto,
        ..cfg
    };
    let report = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &auto_cfg)
        .expect("auto backend must degrade to the direct flow");
    assert!(
        report
            .downgrades
            .iter()
            .any(|d| d.kind() == "overlay-capacity"),
        "auto fallback must record the overlay-capacity downgrade, got {:?}",
        report.downgrades
    );
    assert!(
        report.overlay.is_none(),
        "a direct-rung report must not carry overlay evidence"
    );
}

/// A second compile of the same class reuses the stored base artifact:
/// the report says so, and the placement is coordinate-identical.
#[test]
fn recompiling_a_class_reuses_the_stored_base() {
    scratch_cache("reuse");
    let stg = tier_machine("nominal");
    let cfg = FlowConfig {
        exhaustive_verify_max_inputs: 6,
        cycles: 300,
        verify_cycles: 200,
        ..FlowConfig::default()
    };
    let first = emb_overlay_flow(&stg, &Stimulus::Random, &cfg).expect("overlay flow");
    let second = emb_overlay_flow(&stg, &Stimulus::Random, &cfg).expect("overlay flow again");
    let ovl = second.overlay.as_ref().expect("overlay evidence");
    assert!(ovl.base_cache_hit, "second compile must hit the base cache");
    assert_eq!(
        first.coord_digest, second.coord_digest,
        "base reuse must reproduce the placement exactly"
    );
}
