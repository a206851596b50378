//! End-to-end pipeline properties: the paper's qualitative claims, stated
//! as assertions over the full flows.

use romfsm::emb::flow::{emb_clock_controlled_flow, emb_flow, ff_flow, FlowConfig, Stimulus};
use romfsm::emb::map::EmbOptions;
use romfsm::fpga::place::PlaceOptions;
use romfsm::logic::synth::SynthOptions;

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        cycles: 800,
        verify_cycles: 200,
        place: PlaceOptions {
            seed: 1,
            effort: 3.0,
            ..PlaceOptions::default()
        },
        ..FlowConfig::default()
    }
}

#[test]
fn emb_beats_ff_on_power_for_every_benchmark() {
    // The paper's headline claim (Table 2): the EMB implementation
    // consumes less power than the FF implementation.
    let cfg = quick_cfg();
    for name in ["prep4", "donfile", "keyb", "planet"] {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        let ff = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let pf = ff.power_at(100.0).expect("100MHz").total_mw();
        let pe = emb.power_at(100.0).expect("100MHz").total_mw();
        assert!(pe < pf, "{name}: EMB {pe:.2} mW must beat FF {pf:.2} mW");
    }
}

#[test]
fn emb_uses_almost_no_logic_resources() {
    // Table 1's claim: EMB implementations need no FFs and only mux LUTs.
    let cfg = quick_cfg();
    for name in ["donfile", "keyb"] {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ff = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(emb.area.ffs, 0, "{name}: EMB uses no flip-flops");
        assert_eq!(emb.area.brams, 1, "{name}: one BRAM");
        assert!(
            emb.area.luts * 5 < ff.area.luts,
            "{name}: EMB LUTs ({}) must be a small fraction of FF LUTs ({})",
            emb.area.luts,
            ff.area.luts
        );
    }
}

#[test]
fn clock_control_saving_grows_with_idle_time() {
    // Sec. 6 / Table 3: savings are proportional to idle occupancy.
    let cfg = quick_cfg();
    let stg = romfsm::fsm::benchmarks::by_name("keyb").expect("keyb");
    let mut savings = Vec::new();
    for idle in [0.2, 0.9] {
        let stim = Stimulus::IdleBiased(idle);
        let plain = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).expect("emb");
        let gated =
            emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).expect("cc");
        let p0 = plain.power_at(100.0).expect("100MHz").dynamic_mw();
        let p1 = gated.power_at(100.0).expect("100MHz").dynamic_mw();
        savings.push(p0 - p1);
    }
    assert!(
        savings[1] > savings[0],
        "saving at 90% idle ({:.2} mW) must exceed saving at 20% ({:.2} mW)",
        savings[1],
        savings[0]
    );
}

#[test]
fn power_is_linear_in_frequency() {
    let cfg = FlowConfig {
        freqs_mhz: vec![50.0, 100.0, 200.0],
        ..quick_cfg()
    };
    let stg = romfsm::fsm::benchmarks::by_name("donfile").expect("donfile");
    let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).expect("emb");
    let d50 = emb.power_at(50.0).expect("50").dynamic_mw();
    let d100 = emb.power_at(100.0).expect("100").dynamic_mw();
    let d200 = emb.power_at(200.0).expect("200").dynamic_mw();
    assert!((d100 / d50 - 2.0).abs() < 1e-6);
    assert!((d200 / d100 - 2.0).abs() < 1e-6);
}

#[test]
fn emb_fmax_is_high_and_complexity_insensitive() {
    // Sec. 4.2: the EMB FSM "can be clocked at the maximum clock frequency
    // supported by the memory arrays" and its timing does not depend on
    // the machine's complexity.
    let cfg = quick_cfg();
    let small = romfsm::fsm::benchmarks::by_name("donfile").expect("donfile");
    let big = romfsm::fsm::benchmarks::by_name("tbk").expect("tbk");
    let e_small = emb_flow(&small, &EmbOptions::default(), &Stimulus::Random, &cfg).expect("emb");
    let e_big = emb_flow(&big, &EmbOptions::default(), &Stimulus::Random, &cfg).expect("emb");
    let f_big = ff_flow(&big, SynthOptions::default(), &Stimulus::Random, &cfg).expect("ff");
    assert!(
        e_big.timing.fmax_mhz > 2.0 * f_big.timing.fmax_mhz,
        "tbk: EMB fmax {:.1} should dwarf FF fmax {:.1}",
        e_big.timing.fmax_mhz,
        f_big.timing.fmax_mhz
    );
    let ratio = e_small.timing.critical_path_ns / e_big.timing.critical_path_ns;
    assert!(
        (0.4..2.5).contains(&ratio),
        "EMB paths should be comparable: {ratio:.2}"
    );
}

#[test]
fn clock_control_logic_slows_the_clock() {
    // Sec. 6: "the clock frequency of the design will be slower
    // proportional to the delay introduced by the clock control logic"
    // (the enable sits in the BRAM's setup path).
    //
    // ECO placement makes this comparison structural instead of
    // statistical: the gated flow pins every shared entity at EXACTLY the
    // plain design's coordinates and places only the enable cone, so the
    // fmax difference is attributable to the clock-control logic alone —
    // no placement-noise band needed.
    let cfg = quick_cfg();
    let stg = romfsm::fsm::benchmarks::by_name("keyb").expect("keyb");
    let stim = Stimulus::IdleBiased(0.5);
    let plain = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).expect("emb");
    let gated = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).expect("cc");
    let control = gated.clock_control.expect("clock-control stats");
    assert!(control.luts >= 1, "enable cone must exist in the netlist");
    let eco = gated
        .eco
        .as_ref()
        .expect("the gated flow must take the ECO placement path");
    assert_eq!(
        eco.base_coord_digest, plain.coord_digest,
        "every base entity must sit at exactly the plain design's coordinates"
    );
    assert!(eco.pinned_entities > 0, "base entities are pinned");
    assert!(
        eco.delta_entities > 0,
        "the enable cone is placed as a delta"
    );
    assert!(
        gated.timing.fmax_mhz <= plain.timing.fmax_mhz,
        "with the base placement pinned, enable logic can only slow the clock: {:.3} vs {:.3}",
        gated.timing.fmax_mhz,
        plain.timing.fmax_mhz
    );
}
