//! Implementing externally synthesized BLIF netlists.
//!
//! The paper's flow starts from SIS output; this module accepts that
//! artifact directly: a [`BlifModel`] (combinational network + latches) is
//! technology-mapped, assembled into a physical netlist, and pushed
//! through place & route, simulation and power estimation. Use it to run
//! the evaluation on *real* SIS-synthesized benchmarks instead of this
//! workspace's own synthesis.
//!
//! [`BlifModel`]: logic_synth::blif::BlifModel

use crate::flow::{FlowConfig, FlowError, FlowErrorKind, FlowReport, FlowStage, Stimulus};
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use logic_synth::blif::BlifModel;
use logic_synth::decompose::decompose2;
use logic_synth::synth::SynthError;
use logic_synth::techmap::{map_luts, MapOptions};

/// Converts a BLIF model into a physical netlist: the combinational
/// network is decomposed and mapped onto LUT4s; each `.latch` becomes a
/// flip-flop.
///
/// Netlist port order matches the model's declared inputs/outputs.
///
/// # Errors
///
/// Propagates technology-mapping failures. In practice: mapping a parsed
/// BLIF only fails on LUTs wider than `k`, which decomposition prevents.
pub fn netlist_from_blif(
    model: &BlifModel,
    map: MapOptions,
) -> Result<Netlist, logic_synth::techmap::MapError> {
    let luts = map_luts(&decompose2(&model.network), map)?;
    // Network PI order: declared inputs, then latch Q signals.
    // Network PO order: declared outputs, then latch D signals.
    let mut n = Netlist::new(model.name.clone());
    let in_nets: Vec<NetId> = model
        .inputs
        .iter()
        .map(|name| n.add_net(name.clone()))
        .collect();
    for (name, net) in model.inputs.iter().zip(&in_nets) {
        n.add_input(name.clone(), *net);
    }
    let q_nets: Vec<NetId> = model
        .latches
        .iter()
        .map(|l| n.add_net(l.output.clone()))
        .collect();
    let pi_nets: Vec<NetId> = in_nets.iter().chain(q_nets.iter()).copied().collect();
    let po_nets = crate::netlist_build::instantiate_luts(&mut n, &luts, &pi_nets, "blif");
    for (name, net) in model.outputs.iter().zip(&po_nets) {
        n.add_output(name.clone(), *net);
    }
    for (k, (latch, q)) in model.latches.iter().zip(&q_nets).enumerate() {
        n.add_cell(Cell::Ff {
            d: po_nets[model.outputs.len() + k],
            q: *q,
            ce: None,
            init: latch.init,
        });
    }
    Ok(n)
}

/// Implements a BLIF model end to end (pack/place/route/simulate/power)
/// without an STG oracle — behavioural verification is the caller's
/// responsibility when no STG exists.
///
/// # Errors
///
/// See [`FlowError`].
pub fn implement_blif(
    model: &BlifModel,
    stimulus_vectors: &[Vec<bool>],
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    let netlist = netlist_from_blif(model, MapOptions::default()).map_err(|e| {
        FlowError::new(
            model.name.clone(),
            FlowStage::Synth,
            FlowErrorKind::Synth(SynthError::Map(e)),
        )
    })?;
    crate::flow::implement_external(netlist, &Stimulus::Replay(stimulus_vectors.to_vec()), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_against_stg, OutputTiming};
    use fsm_model::benchmarks::sequence_detector_0101;
    use logic_synth::synth::{synthesize, SynthOptions};
    use netsim::stimulus;

    #[test]
    fn blif_roundtrip_produces_equivalent_netlist() {
        // Synthesize, export to BLIF text, reparse, rebuild a netlist —
        // the result must still match the oracle.
        let stg = sequence_detector_0101();
        let synth = synthesize(&stg, SynthOptions::default()).unwrap();
        let text = logic_synth::blif::write(&synth.to_blif());
        let model = logic_synth::blif::parse(&text).unwrap();
        let netlist = netlist_from_blif(&model, MapOptions::default()).unwrap();
        netlist.validate().unwrap();
        verify_against_stg(&netlist, &stg, OutputTiming::Combinational, 500, 3).unwrap();
    }

    #[test]
    fn external_blif_implements_end_to_end() {
        let stg = fsm_model::benchmarks::by_name("donfile").unwrap();
        let synth = synthesize(&stg, SynthOptions::default()).unwrap();
        let text = logic_synth::blif::write(&synth.to_blif());
        let model = logic_synth::blif::parse(&text).unwrap();
        let cfg = FlowConfig {
            cycles: 300,
            verify_cycles: 100,
            ..FlowConfig::default()
        };
        let vectors = stimulus::random(model.inputs.len(), 300, 5);
        let report = implement_blif(&model, &vectors, &cfg).unwrap();
        assert!(report.area.luts > 0);
        assert!(report.power[0].total_mw() > 0.0);
        assert!(report.timing.fmax_mhz > 10.0);
    }
}
