//! Helpers for instantiating technology-mapped logic into an FPGA netlist.

use fpga_fabric::netlist::{Cell, NetId, Netlist};
use logic_synth::techmap::{LutNetwork, Signal};

/// Instantiates a [`LutNetwork`] into `netlist`.
///
/// `input_nets[i]` supplies the net for the LUT network's primary input
/// `i`. Returns one net per LUT-network primary output (constant outputs
/// get a fresh net driven by a [`Cell::Const`]; passthrough outputs reuse
/// the input net directly).
///
/// # Panics
///
/// Panics if `input_nets.len()` differs from the LUT network's input
/// count.
pub fn instantiate_luts(
    netlist: &mut Netlist,
    luts: &LutNetwork,
    input_nets: &[NetId],
    prefix: &str,
) -> Vec<NetId> {
    assert_eq!(
        input_nets.len(),
        luts.inputs.len(),
        "LUT network input count mismatch"
    );
    let mut lut_nets: Vec<NetId> = Vec::with_capacity(luts.luts.len());
    let mut const_nets: [Option<NetId>; 2] = [None, None];
    let mut const_net = |netlist: &mut Netlist, v: bool| -> NetId {
        if let Some(n) = const_nets[usize::from(v)] {
            return n;
        }
        let n = netlist.add_net(format!("{prefix}_const{}", u8::from(v)));
        netlist.add_cell(Cell::Const {
            output: n,
            value: v,
        });
        const_nets[usize::from(v)] = Some(n);
        n
    };
    for (i, lut) in luts.luts.iter().enumerate() {
        let inputs: Vec<NetId> = lut
            .fanins
            .iter()
            .map(|f| match *f {
                Signal::Input(p) => input_nets[p],
                Signal::Lut(l) => lut_nets[l],
                Signal::Const(v) => const_net(netlist, v),
            })
            .collect();
        let output = netlist.add_net(format!("{prefix}_lut{i}"));
        netlist.add_cell(Cell::Lut {
            inputs,
            output,
            truth: lut.truth.as_u64(),
        });
        lut_nets.push(output);
    }
    luts.outputs
        .iter()
        .map(|(_, sig)| match *sig {
            Signal::Input(p) => input_nets[p],
            Signal::Lut(l) => lut_nets[l],
            Signal::Const(v) => const_net(netlist, v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic_synth::cover::Cover;
    use logic_synth::cube::Cube;
    use logic_synth::decompose::decompose2;
    use logic_synth::network::Network;
    use logic_synth::techmap::{map_luts, MapOptions};
    use netsim::kernel::BatchSimulator;

    #[test]
    fn instantiated_logic_matches_lut_network() {
        // y = (a & b) | !c over 3 inputs.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let cover = Cover::from_cubes(
            3,
            vec![
                Cube::from_pattern(&"11-".parse().unwrap()),
                Cube::from_pattern(&"--0".parse().unwrap()),
            ],
        );
        let y = net.add_logic(vec![a, b, c], cover).unwrap();
        net.add_output("y", y).unwrap();
        let luts = map_luts(&decompose2(&net), MapOptions::default()).unwrap();

        let mut n = Netlist::new("inst");
        let pins: Vec<NetId> = (0..3).map(|i| n.add_net(format!("p{i}"))).collect();
        for (i, p) in pins.iter().enumerate() {
            n.add_input(format!("p{i}"), *p);
        }
        let outs = instantiate_luts(&mut n, &luts, &pins, "u0");
        n.add_output("y", outs[0]);
        let mut sim = BatchSimulator::new(&n).unwrap();
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|i| m >> i & 1 == 1).collect();
            sim.run_sequential([&bits]);
            assert_eq!(sim.lane_outputs(0)[0], luts.eval(&bits)[0], "m={m:03b}");
        }
    }

    #[test]
    fn constant_outputs_materialize() {
        let mut net = Network::new();
        let _a = net.add_input("a");
        let k = net.add_constant(true);
        net.add_output("one", k).unwrap();
        let luts = map_luts(&net, MapOptions::default()).unwrap();
        let mut n = Netlist::new("k");
        let p = n.add_net("p");
        n.add_input("a", p);
        let outs = instantiate_luts(&mut n, &luts, &[p], "c");
        n.add_output("one", outs[0]);
        let mut sim = BatchSimulator::new(&n).unwrap();
        sim.run_sequential(&[vec![false]]);
        assert_eq!(sim.lane_outputs(0), vec![true]);
    }
}
