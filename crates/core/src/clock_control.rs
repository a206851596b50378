//! Clock control: stopping the BRAM during idle states (Sec. 6).
//!
//! From the STG, the idle `(state, input)` pairs — self-loops whose output
//! equals the output already latched — are extracted and an **enable
//! function** is synthesized into LUTs. The function drives the BRAM's
//! `EN` port, so the memory "is not clocked" during idle cycles; "unlike
//! the gated clock techniques, this method does not require any external
//! clock gating and thus is glitch free".
//!
//! Cone selection follows the paper: a Moore machine's enable logic reads
//! the state bits and inputs; a Mealy machine's must also read the FSM
//! outputs, "because in a Mealy machine there can be conditions when the
//! state does not change but outputs may change". Concretely we include
//! the output literals whenever the outputs are *latched in the memory*;
//! when they are regenerated from the state by LUTs (Fig. 3) they are a
//! pure function of state and the state/input cone is exact.
//!
//! The same enable function can gate the FF implementation's CE pins
//! ([`attach_ff_clock_gating`]) — but there the combinational cone keeps
//! toggling, which is exactly the asymmetry the paper points out.

use crate::map::{EmbFsm, OutputRealization};
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fsm_model::encoding::StateEncoding;
use fsm_model::stg::Stg;
use logic_synth::cover::Cover;
use logic_synth::cube::Cube;
use logic_synth::decompose::decompose2;
use logic_synth::espresso;
use logic_synth::network::Network;
use logic_synth::techmap::{map_luts, LutNetwork, MapError, MapOptions};

/// The synthesized enable (clock-control) logic.
#[derive(Debug, Clone)]
pub struct ClockControl {
    /// LUT realization of the *idle* function (the enable is its
    /// complement, realized by one inverting LUT at attachment time).
    /// Inputs: `in_0..`, `st_0..` and, when
    /// [`uses_outputs`](Self::uses_outputs), `out_0..`. One output: idle.
    pub luts: LutNetwork,
    /// Whether the cone includes the latched FSM outputs (Mealy case).
    pub uses_outputs: bool,
    /// Number of idle cubes found in the STG.
    pub idle_cubes: usize,
}

impl ClockControl {
    /// LUT count including the final inverter — the paper's Table 4
    /// "area overhead" metric.
    #[must_use]
    pub fn num_luts(&self) -> usize {
        self.luts.num_luts() + 1
    }

    /// Slice estimate (two LUTs per slice).
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.num_luts().div_ceil(2)
    }
}

/// Synthesizes the enable function for `stg`.
///
/// `include_outputs` adds the latched-output literals to idle conditions
/// (required when outputs are stored in memory; see module docs).
///
/// # Errors
///
/// Propagates technology-mapping failures.
pub fn synthesize_enable(
    stg: &Stg,
    encoding: &StateEncoding,
    include_outputs: bool,
    map: MapOptions,
) -> Result<ClockControl, MapError> {
    let num_inputs = stg.num_inputs();
    let s = encoding.num_bits();
    let num_outputs = if include_outputs {
        stg.num_outputs()
    } else {
        0
    };
    let num_vars = num_inputs + s + num_outputs;

    // For Moore machines the latched outputs are a function of the state
    // except for one transient: right after configuration the reset state
    // holds all-zero outputs instead of its Moore output. A single
    // "witness" literal (any 1-bit of the reset state's Moore output) on
    // the reset state's idle cubes distinguishes the two, so the full
    // output literal set — which the paper reserves for Mealy machines —
    // is not needed.
    let moore = if include_outputs {
        fsm_model::machine::moore_outputs(stg)
    } else {
        None
    };
    let reset = stg.reset_state();
    let reset_witness: Option<usize> = moore
        .as_ref()
        .and_then(|mo| mo[reset.index()].iter().position(|&b| b));

    // Idle onset: self-loops (optionally) qualified by held outputs.
    let mut idle = Cover::empty(num_vars);
    for t in stg.transitions() {
        if t.from != t.to {
            continue;
        }
        let mut cube = Cube::full(num_vars);
        for (col, trit) in t.input.trits().iter().enumerate() {
            if let Some(v) = trit.value() {
                cube = cube.with_literal(col, v);
            }
        }
        let code = encoding.code(t.from);
        for b in 0..s {
            cube = cube.with_literal(num_inputs + b, code >> b & 1 == 1);
        }
        if include_outputs {
            if moore.is_some() {
                // Moore: outputs are implied by the state, except the
                // reset transient handled by the witness literal.
                if t.from == reset {
                    if let Some(j) = reset_witness {
                        cube = cube.with_literal(num_inputs + s + j, true);
                    }
                }
            } else {
                for (j, bit) in t.output.resolve_zero().into_iter().enumerate() {
                    cube = cube.with_literal(num_inputs + s + j, bit);
                }
            }
        }
        idle.push(cube);
    }
    let idle_cubes = idle.len();

    // Minimize the idle function itself (the enable is its complement,
    // realized by a final inverting LUT — complementing the cover
    // directly can blow up for wide Mealy cones).
    let mut dcset = Cover::empty(num_vars);
    let used: std::collections::HashSet<u64> = stg.states().map(|st| encoding.code(st)).collect();
    for code in 0..1u64 << s {
        if !used.contains(&code) {
            let mut cube = Cube::full(num_vars);
            for b in 0..s {
                cube = cube.with_literal(num_inputs + b, code >> b & 1 == 1);
            }
            dcset.push(cube);
        }
    }
    let minimized = espresso::minimize(&idle, &dcset).cover;

    // Build the LUT network.
    let mut network = Network::new();
    let mut ids = Vec::with_capacity(num_vars);
    for j in 0..num_inputs {
        ids.push(network.add_input(format!("in_{j}")));
    }
    for k in 0..s {
        ids.push(network.add_input(format!("st_{k}")));
    }
    for j in 0..num_outputs {
        ids.push(network.add_input(format!("out_{j}")));
    }
    let node = if minimized.is_empty() {
        network.add_constant(false)
    } else if minimized.cubes().iter().any(|c| c.num_literals() == 0) {
        network.add_constant(true)
    } else {
        // Restrict to support.
        let mut mask = 0u64;
        for c in minimized.cubes() {
            mask |= c.mask();
        }
        let support: Vec<usize> = (0..num_vars).filter(|v| mask >> v & 1 == 1).collect();
        let mut local = Cover::empty(support.len());
        for c in minimized.cubes() {
            let mut cube = Cube::full(support.len());
            for (nv, &ov) in support.iter().enumerate() {
                if let Some(pol) = c.literal(ov) {
                    cube = cube.with_literal(nv, pol);
                }
            }
            local.push(cube);
        }
        let fanins: Vec<_> = support.iter().map(|&v| ids[v]).collect();
        network
            .add_logic(fanins, local)
            .expect("support-restricted cover is consistent")
    };
    network.add_output("idle", node).expect("node exists");

    Ok(ClockControl {
        luts: map_luts(&decompose2(&network), map)?,
        uses_outputs: include_outputs,
        idle_cubes,
    })
}

/// Builds the clock-controlled EMB netlist: the mapping of `emb` with its
/// BRAM `EN` pins driven by the synthesized enable logic.
///
/// Returns the netlist and the control logic (for area reporting).
///
/// # Errors
///
/// Propagates technology-mapping failures.
pub fn attach_emb_clock_control(
    emb: &EmbFsm,
    map: MapOptions,
) -> Result<(Netlist, ClockControl), MapError> {
    let include_outputs = matches!(emb.outputs, OutputRealization::InMemory);
    let control = synthesize_enable(&emb.stg, &emb.encoding, include_outputs, map)?;
    let (mut netlist, en_net) = emb.to_netlist_with_enable(true);
    let en_net = en_net.expect("enable requested");

    // Gather the cone's input nets by port name.
    let cone_nets = control_cone_nets(&netlist, &emb.stg, emb.num_state_bits(), include_outputs);
    let outs =
        crate::netlist_build::instantiate_luts(&mut netlist, &control.luts, &cone_nets, "cc");
    // EN = NOT idle, realized by the final inverting LUT.
    netlist.add_cell(Cell::Lut {
        inputs: vec![outs[0]],
        output: en_net,
        truth: 0b01,
    });
    Ok((netlist, control))
}

/// Builds the clock-gated FF netlist: the baseline with its state-FF CE
/// pins driven by the same style of enable logic. As the paper notes, the
/// combinational cone still toggles — only the FF clock loads are saved —
/// so this variant saves far less than the EMB version.
///
/// # Errors
///
/// Propagates technology-mapping failures.
pub fn attach_ff_clock_gating(
    synth: &logic_synth::synth::SynthesizedFsm,
    stg: &Stg,
    map: MapOptions,
) -> Result<(Netlist, ClockControl), MapError> {
    // FF outputs are combinational, so holding the state alone is exact:
    // the state/input cone suffices (outputs recompute from inputs).
    let control = synthesize_enable(stg, &synth.encoding, false, map)?;
    let (mut netlist, ce_net) = crate::baseline::ff_netlist(synth, true);
    let ce_net = ce_net.expect("gating requested");
    let cone_nets = control_cone_nets(&netlist, stg, synth.num_state_bits(), false);
    let outs =
        crate::netlist_build::instantiate_luts(&mut netlist, &control.luts, &cone_nets, "cc");
    // CE = NOT idle.
    netlist.add_cell(Cell::Lut {
        inputs: vec![outs[0]],
        output: ce_net,
        truth: 0b01,
    });
    Ok((netlist, control))
}

/// Looks up the nets feeding the control cone: `in_*`, `st_*` and
/// optionally `out_*` ports of the FSM netlist.
fn control_cone_nets(
    netlist: &Netlist,
    stg: &Stg,
    state_bits: usize,
    include_outputs: bool,
) -> Vec<NetId> {
    let find_in = |name: &str| -> NetId {
        netlist
            .inputs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, net)| *net)
            .unwrap_or_else(|| panic!("missing input port {name}"))
    };
    let find_net = |name: &str| -> NetId {
        netlist
            .find_net(name)
            .unwrap_or_else(|| panic!("missing net {name}"))
    };
    let find_out = |name: &str| -> NetId {
        netlist
            .outputs()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, net)| *net)
            .unwrap_or_else(|| panic!("missing output port {name}"))
    };
    let mut nets = Vec::new();
    for j in 0..stg.num_inputs() {
        nets.push(find_in(&format!("in_{j}")));
    }
    for k in 0..state_bits {
        nets.push(find_net(&format!("st_{k}")));
    }
    if include_outputs {
        for j in 0..stg.num_outputs() {
            nets.push(find_out(&format!("out_{j}")));
        }
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_fsm_into_embs, EmbOptions, OutputMode};
    use crate::verify::{verify_against_stg, OutputTiming};
    use fsm_model::benchmarks::{rotary_sequencer, sequence_detector_0101, traffic_light};
    use logic_synth::synth::{synthesize, SynthOptions};
    use netsim::kernel::BatchSimulator;

    #[test]
    fn clock_controlled_emb_is_cycle_exact() {
        for stg in [
            traffic_light(),
            rotary_sequencer(),
            sequence_detector_0101(),
        ] {
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
            let (n, cc) = attach_emb_clock_control(&emb, MapOptions::default()).unwrap();
            assert!(cc.num_luts() >= 1, "{}", stg.name());
            verify_against_stg(&n, &stg, OutputTiming::Registered, 1000, 50)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        }
    }

    #[test]
    fn clock_controlled_moore_lut_variant_is_cycle_exact() {
        let stg = traffic_light();
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                output_mode: OutputMode::MooreLuts,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        let (n, cc) = attach_emb_clock_control(&emb, MapOptions::default()).unwrap();
        assert!(!cc.uses_outputs, "LUT outputs need no output literals");
        verify_against_stg(&n, &stg, OutputTiming::Registered, 1000, 51).unwrap();
    }

    #[test]
    fn gating_actually_disables_the_bram_when_idle() {
        // Rotary sequencer halts on input 1: long idle stretch.
        let stg = rotary_sequencer();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let (n, _) = attach_emb_clock_control(&emb, MapOptions::default()).unwrap();
        let mut sim = BatchSimulator::new(&n).unwrap();
        // Step twice, then halt for 20 cycles.
        sim.run_sequential(&[vec![false], vec![false]]);
        sim.run_sequential(&vec![vec![true]; 20]);
        let act = sim.activity();
        // The BRAM must have been disabled for ~the halt duration. The
        // first halt cycle still clocks (the output updates to the hold
        // value on entry), afterwards it idles.
        assert!(
            act.bram_active_cycles[0] <= 4,
            "bram active {} of {} cycles",
            act.bram_active_cycles[0],
            act.cycles
        );
    }

    #[test]
    fn ff_gating_is_cycle_exact_and_freezes_state_ffs() {
        let stg = rotary_sequencer();
        let synth = synthesize(&stg, SynthOptions::default()).unwrap();
        let (n, cc) = attach_ff_clock_gating(&synth, &stg, MapOptions::default()).unwrap();
        assert!(!cc.uses_outputs);
        verify_against_stg(&n, &stg, OutputTiming::Combinational, 800, 52).unwrap();

        let mut sim = BatchSimulator::new(&n).unwrap();
        sim.run_sequential(&[vec![false]]);
        sim.run_sequential(&vec![vec![true]; 10]);
        let act = sim.activity();
        // State FFs enabled only while not halted.
        for k in 0..act.ff_active_cycles.len() {
            assert!(
                act.ff_active_cycles[k] <= 2,
                "ff {k} active {} cycles",
                act.ff_active_cycles[k]
            );
        }
    }

    #[test]
    fn enable_cone_matches_machine_kind() {
        let mealy = sequence_detector_0101();
        let emb = map_fsm_into_embs(&mealy, &EmbOptions::default()).unwrap();
        let (_, cc) = attach_emb_clock_control(&emb, MapOptions::default()).unwrap();
        assert!(cc.uses_outputs, "Mealy in-memory outputs join the cone");
        assert!(cc.idle_cubes > 0);
    }

    #[test]
    fn machine_without_self_loops_is_always_enabled() {
        let mut b = fsm_model::stg::StgBuilder::new("noloop", 1, 1);
        let a = b.state("A");
        let c = b.state("B");
        b.transition(a, "-", c, "1");
        b.transition(c, "-", a, "0");
        let stg = b.build().unwrap();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let (n, cc) = attach_emb_clock_control(&emb, MapOptions::default()).unwrap();
        assert_eq!(cc.idle_cubes, 0);
        verify_against_stg(&n, &stg, OutputTiming::Registered, 200, 53).unwrap();
        let mut sim = BatchSimulator::new(&n).unwrap();
        sim.run_sequential(&vec![vec![true]; 10]);
        assert_eq!(sim.activity().bram_active_cycles[0], 10);
    }
}
