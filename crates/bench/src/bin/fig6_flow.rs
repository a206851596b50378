//! Figure 6: the experimental flow, stage by stage, for one benchmark.
//!
//! Paper flow: STG → SIS (.blif) → blif-to-VHDL → technology mapping →
//! place & route (.ncd) → post-P&R simulation (.vcd) → XPower. This
//! binary runs the corresponding stages of this workspace and prints each
//! intermediate artifact's vital statistics.

use emb_fsm::baseline::ff_netlist;
use emb_fsm::verify::{verify_against_stg, OutputTiming};
use fpga_fabric::device::Device;
use fpga_fabric::pack::pack;
use fpga_fabric::place::{place, PlaceOptions};
use fpga_fabric::route::{route, RouteOptions};
use fpga_fabric::timing::{analyze, DelayModel};
use logic_synth::synth::{synthesize, SynthOptions};
use netsim::kernel::BatchSimulator;
use netsim::stimulus;
use powermodel::{estimate, PowerParams};

fn main() {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    println!("Figure 6: the experimental flow (benchmark: keyb)\n");

    println!(
        "[1] STG: {} states, {} inputs, {} outputs, {} transitions",
        stg.num_states(),
        stg.num_inputs(),
        stg.num_outputs(),
        stg.transitions().len()
    );

    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    println!(
        "[2] two-level synthesis (SIS role): {} cubes across {} functions, {} state bits",
        synth.total_cubes,
        stg.num_outputs() + synth.num_state_bits(),
        synth.num_state_bits()
    );
    let blif = logic_synth::blif::write(&synth.to_blif());
    println!(
        "    BLIF netlist: {} lines (latches + .names)",
        blif.lines().count()
    );

    println!(
        "[3] technology mapping (Synplify role): {} LUT4s, depth {}",
        synth.luts.num_luts(),
        synth.luts.depth()
    );

    let (netlist, _) = ff_netlist(&synth, false);
    verify_against_stg(&netlist, &stg, OutputTiming::Combinational, 400, 1)
        .expect("netlist equivalent to STG");
    println!("[4] netlist assembled and verified against the STG oracle");

    let device = Device::xc2v250();
    let packed = pack(&netlist);
    let placement = place(&netlist, &packed, device, PlaceOptions::default()).expect("place");
    let routed = route(&netlist, &packed, &placement, RouteOptions::default()).expect("route");
    println!(
        "[5] place & route (ISE role) on {}: {} CLBs, HPWL {:.0}, wirelength {}",
        device.name,
        packed.clbs.len(),
        placement.hpwl,
        routed.total_wirelength
    );

    let mut sim = BatchSimulator::new(&netlist).expect("simulator");
    let vectors = stimulus::random(stg.num_inputs(), 2000, 7);
    let mut rec = netsim::vcd::VcdRecorder::all_nets(&netlist);
    for v in &vectors {
        sim.run_sequential([v]);
        rec.sample(|n| sim.lane_value(n, 0));
    }
    println!(
        "[6] post-P&R simulation (ModelSim role): {} cycles, {} VCD value changes",
        rec.num_cycles(),
        rec.num_changes()
    );

    let timing = analyze(&netlist, &routed, &DelayModel::default());
    let power = estimate(
        &netlist,
        &routed,
        sim.activity(),
        100.0,
        &PowerParams::default(),
    )
    .expect("activity was recorded on this netlist");
    println!("[7] estimation (XPower role): {power}");
    println!(
        "    critical path {:.2} ns (fmax {:.1} MHz)",
        timing.critical_path_ns, timing.fmax_mhz
    );
}
