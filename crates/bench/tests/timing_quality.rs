//! Timing-quality regression gates for the criticality-aware placer.
//!
//! The guarded two-arm selection in `place` / `place_incremental` (blind
//! wirelength-only arm vs criticality-weighted arm, winner by STA
//! estimate) makes "timing-driven is never worse than wirelength-only"
//! an exact property, not a statistical one — so the asserts here carry
//! no tolerance.
//!
//! 1. ECO: with the *same pinned base*, the gated design's estimated
//!    critical path under the default `timing_weight` must be `<=` the
//!    blind delta anneal's (`timing_weight: 0.0`) on all nine paper
//!    benchmarks.
//! 2. Flow: the plain EMB flow's `place_fmax_est_mhz` with the timing
//!    term on must be `>=` the identical flow placed wirelength-only —
//!    the exact quantity `scripts/verify.sh` gates per table3 row.

use emb_fsm::clock_control::attach_emb_clock_control;
use emb_fsm::flow::{emb_flow, FlowConfig, Stimulus};
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use fpga_fabric::pack::{pack, pack_partitioned};
use fpga_fabric::place::{place, place_incremental, EcoPlaceError, PinnedEntities, PlaceOptions};
use fpga_fabric::sta::estimate_critical_ns;
use fpga_fabric::timing::DelayModel;

#[test]
fn criticality_aware_eco_fmax_is_never_worse_than_blind_eco() {
    let mut improved = 0usize;
    for name in paper_bench::suite_names() {
        let stg = fsm_model::benchmarks::by_name(name).expect("suite benchmark");
        let emb_opts = EmbOptions::default();
        let emb = map_fsm_into_embs(&stg, &emb_opts).unwrap_or_else(|e| panic!("{name} maps: {e}"));
        let base = emb.to_netlist();
        let (gated, _control) = attach_emb_clock_control(&emb, emb_opts.lut_map)
            .unwrap_or_else(|e| panic!("{name} clock control: {e}"));
        let opts = PlaceOptions {
            seed: 1,
            effort: 2.0,
            ..PlaceOptions::default()
        };
        let base_packed = pack(&base);

        // Smallest family member where the base places AND the gated
        // delta fits — the same base placement then pins both arms.
        let mut result = None;
        'family: for device in fpga_fabric::device::FAMILY.iter().copied() {
            let Ok(base_placement) = place(&base, &base_packed, device, opts) else {
                continue;
            };
            let packed = pack_partitioned(&gated, &base_packed, base.cells().len())
                .unwrap_or_else(|e| panic!("{name}: partitioned pack: {e}"));
            let pins = PinnedEntities::pin_base(&base_placement, &packed);
            let run = |timing_weight: f64| -> Result<f64, EcoPlaceError> {
                let eco = place_incremental(
                    &gated,
                    &packed,
                    device,
                    PlaceOptions {
                        timing_weight,
                        ..opts
                    },
                    &pins,
                )?;
                Ok(
                    estimate_critical_ns(&gated, &packed, &eco.placement, &DelayModel::default())
                        .unwrap_or_else(|e| panic!("{name}: estimate: {e}")),
                )
            };
            match (run(PlaceOptions::default().timing_weight), run(0.0)) {
                (Ok(timed_ns), Ok(blind_ns)) => {
                    result = Some((timed_ns, blind_ns));
                    break 'family;
                }
                (Err(EcoPlaceError::DoesNotFit { .. }), _)
                | (_, Err(EcoPlaceError::DoesNotFit { .. })) => continue,
                (Err(e), _) | (_, Err(e)) => panic!("{name}: eco placement: {e}"),
            }
        }
        let (timed_ns, blind_ns) =
            result.unwrap_or_else(|| panic!("{name}: gated design fits no family member"));
        assert!(
            timed_ns.is_finite() && blind_ns.is_finite() && timed_ns > 0.0,
            "{name}: estimates must be finite and positive"
        );
        assert!(
            timed_ns <= blind_ns,
            "{name}: gated critical-path estimate regressed vs the blind ECO: \
             {timed_ns:.4} > {blind_ns:.4} ns"
        );
        if timed_ns < blind_ns {
            improved += 1;
        }
    }
    eprintln!("criticality-aware ECO improved the fmax estimate on {improved}/9 benchmarks");
}

#[test]
fn timing_driven_flow_estimate_is_never_worse_than_wirelength_only() {
    let mut improved = 0usize;
    for name in paper_bench::suite_names() {
        let stg = fsm_model::benchmarks::by_name(name).expect("suite benchmark");
        let cfg = FlowConfig {
            cycles: 400,
            verify_cycles: 200,
            place: PlaceOptions {
                seed: 1,
                effort: 2.0,
                ..PlaceOptions::default()
            },
            ..FlowConfig::default()
        };
        let mut cfg_wl = cfg.clone();
        cfg_wl.place.timing_weight = 0.0;
        let stim = Stimulus::IdleBiased(0.5);
        let timed = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg)
            .unwrap_or_else(|e| panic!("{name}: timed flow failed: {e}"));
        let blind = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg_wl)
            .unwrap_or_else(|e| panic!("{name}: wirelength-only flow failed: {e}"));
        assert!(
            timed.place_fmax_est_mhz.is_finite() && blind.place_fmax_est_mhz.is_finite(),
            "{name}: fmax estimates must be finite"
        );
        assert!(
            timed.place_fmax_est_mhz >= blind.place_fmax_est_mhz,
            "{name}: timing-driven fmax estimate regressed vs wirelength-only: \
             {:.4} < {:.4} MHz",
            timed.place_fmax_est_mhz,
            blind.place_fmax_est_mhz
        );
        if timed.place_fmax_est_mhz > blind.place_fmax_est_mhz {
            improved += 1;
        }
    }
    eprintln!("timing-driven placement improved the flow fmax estimate on {improved}/9 benchmarks");
}
