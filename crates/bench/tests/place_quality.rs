//! Placement-quality regression gate for the adaptive annealing
//! schedule: on keyb's FF baseline on XC2V250 (seed 1, effort 2.0 — the
//! netlist and device of `tests/place_exact.rs`'s `ff_xc2v250` row,
//! which pins the same placer's exact move count at default effort) the
//! placer must be equal-or-better than the fixed-schedule baseline on
//! both wirelength objectives while spending measurably fewer moves.
//! keyb's FF netlist has 65 CLBs, so this gates the analytic start and
//! its cold anneal (`ANALYTIC_MIN_CLBS`).
//!
//! Baseline (fixed 0.85 cooling, crude T0), recorded before the switch:
//! Σhpwl = 1772, Σhpwl² = 13248, at 31722 moves.
//!
//! The timing cost term is disabled here (`timing_weight: 0.0`): these
//! baselines gate the pure-wirelength objective, which the timing-driven
//! anneal deliberately trades against criticality. The timing-enabled
//! quality gate lives in `tests/timing_quality.rs`.

use emb_fsm::baseline::ff_netlist;
use fpga_fabric::device::Device;
use fpga_fabric::pack::pack;
use fpga_fabric::place::{place, PlaceOptions};
use logic_synth::synth::{synthesize, SynthOptions};

#[test]
fn adaptive_schedule_is_equal_or_better_at_fewer_moves() {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    let netlist = ff_netlist(&synth, false).0;
    let packed = pack(&netlist);
    let placement = place(
        &netlist,
        &packed,
        Device::xc2v250(),
        PlaceOptions {
            seed: 1,
            effort: 2.0,
            timing_weight: 0.0,
            ..PlaceOptions::default()
        },
    )
    .expect("places");

    assert!(
        placement.hpwl <= 1772.0,
        "Σhpwl regressed past the fixed-schedule baseline: {}",
        placement.hpwl
    );
    assert!(
        placement.hpwl_sq <= 13248.0,
        "Σhpwl² regressed past the fixed-schedule baseline: {}",
        placement.hpwl_sq
    );
    assert!(
        placement.moves < 31722,
        "adaptive schedule must spend fewer moves than the baseline's 31722, spent {}",
        placement.moves
    );
}
