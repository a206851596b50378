//! Static-timing differential over the nine paper benchmarks: on every
//! EMB-mapped MCNC machine (BRAM + aux LUTs) and on a LUT-heavy FF
//! baseline,
//!
//! 1. `fpga_fabric::timing::analyze` (a full re-time of the timing kernel)
//!    and the kernel loaded incrementally with the *routed* wirelengths
//!    must both reproduce an independent hash-map arrival walk bit for
//!    bit, and
//! 2. a seeded incremental edit campaign must stay bit-identical to a
//!    from-scratch recompute (`full_retime` reports zero drift).

use emb_fsm::baseline::ff_netlist;
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fpga_fabric::pack::pack;
use fpga_fabric::place::{place, PlaceOptions, Placement};
use fpga_fabric::route::{route, RouteOptions, RoutedDesign};
use fpga_fabric::sta::TimingKernel;
use fpga_fabric::timing::{analyze, DelayModel};
use logic_synth::synth::{synthesize, SynthOptions};
use std::collections::HashMap;

/// The reference critical path: a forward arrival walk over hash maps in
/// the netlist's topological order, written independently of the kernel.
/// Launches at input pads, FF clk→q, BRAM clk→out and constants (at 0);
/// LUTs add their delay to their worst input; endpoints are FF d/ce and
/// BRAM addr/en plus setup, and output pads.
fn reference_critical_ns(netlist: &Netlist, routed: &RoutedDesign, model: &DelayModel) -> f64 {
    let order = netlist.validate().expect("valid netlist");
    let net_delay =
        |net: NetId| -> f64 { model.net_base + model.net_per_hop * routed.wirelength(net) as f64 };
    let mut arrival: HashMap<NetId, f64> = HashMap::new();
    for (_, net) in netlist.inputs() {
        arrival.insert(*net, model.pad + net_delay(*net));
    }
    for cell in netlist.cells() {
        match cell {
            Cell::Ff { q, .. } => {
                arrival.insert(*q, model.ff_clk_to_q + net_delay(*q));
            }
            Cell::Bram { dout, .. } => {
                for d in dout {
                    arrival.insert(*d, model.bram_clk_to_out + net_delay(*d));
                }
            }
            Cell::Const { output, .. } => {
                arrival.insert(*output, 0.0);
            }
            Cell::Lut { .. } => {}
        }
    }
    for id in &order {
        if let Cell::Lut { inputs, output, .. } = netlist.cell(*id) {
            let mut worst = 0.0f64;
            for i in inputs {
                let a = arrival.get(i).copied().unwrap_or(0.0);
                if a >= worst {
                    worst = a;
                }
            }
            arrival.insert(*output, worst + model.lut + net_delay(*output));
        }
    }
    let mut critical = 0.0f64;
    let mut consider = |net: NetId, extra: f64| {
        let a = arrival.get(&net).copied().unwrap_or(0.0) + extra;
        if a > critical {
            critical = a;
        }
    };
    for cell in netlist.cells() {
        match cell {
            Cell::Ff { d, ce, .. } => {
                consider(*d, model.ff_setup);
                if let Some(ce) = ce {
                    consider(*ce, model.ff_setup);
                }
            }
            Cell::Bram { addr, en, .. } => {
                for a in addr {
                    consider(*a, model.bram_setup);
                }
                if let Some(en) = en {
                    consider(*en, model.bram_setup);
                }
            }
            _ => {}
        }
    }
    for (_, net) in netlist.outputs() {
        consider(*net, model.pad);
    }
    critical.max(f64::MIN_POSITIVE)
}

/// Places on the smallest family member that fits (the big FF baselines
/// overflow the paper's XC2V250, exactly as in the flow).
fn place_on_family(netlist: &Netlist, packed: &fpga_fabric::pack::PackedDesign) -> Placement {
    let opts = PlaceOptions {
        seed: 1,
        effort: 1.0,
        ..PlaceOptions::default()
    };
    for device in fpga_fabric::device::FAMILY.iter().copied() {
        if let Ok(p) = place(netlist, packed, device, opts) {
            return p;
        }
    }
    panic!("{} fits no family member", netlist.name);
}

/// One netlist through both differential checks.
fn check(netlist: &Netlist) {
    let packed = pack(netlist);
    let placement = place_on_family(netlist, &packed);
    let routed = route(netlist, &packed, &placement, RouteOptions::default())
        .unwrap_or_else(|e| panic!("{} routes: {e}", netlist.name));
    let model = DelayModel::default();
    let report = analyze(netlist, &routed, &model);
    let reference = reference_critical_ns(netlist, &routed, &model);

    // 1. Routed wirelengths in, the reference critical path out — exactly,
    // through both the full re-time and incremental edits.
    assert_eq!(
        report.critical_path_ns.to_bits(),
        reference.to_bits(),
        "analyze vs reference walk on {}",
        netlist.name
    );
    assert_eq!(
        report.fmax_mhz.to_bits(),
        (1000.0 / reference).to_bits(),
        "fmax of {}",
        netlist.name
    );
    let mut kernel = TimingKernel::new(netlist, &model)
        .unwrap_or_else(|e| panic!("{} kernel: {e}", netlist.name));
    let nets = kernel.num_nets();
    for i in 0..nets {
        let net = NetId(i as u32);
        let w = model.net_base + model.net_per_hop * routed.wirelength(net) as f64;
        kernel.set_wire_delay(net, w);
    }
    kernel.flush();
    assert_eq!(
        kernel.critical_ns().to_bits(),
        reference.to_bits(),
        "incremental kernel vs reference walk on {}",
        netlist.name
    );

    // 2. Seeded incremental campaign vs from-scratch recompute.
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ nets as u64;
    for step in 0..120 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let net = NetId((state >> 33) as u32 % nets as u32);
        let hops = (state >> 17) % 40;
        kernel.set_wire_delay(net, model.net_base + model.net_per_hop * hops as f64);
        if step % 7 == 0 {
            kernel.flush();
            assert!(
                kernel.clone().full_retime(),
                "{}: incremental drifted from full recompute at step {step}",
                netlist.name
            );
        }
    }
    kernel.flush();
    let mut fresh = TimingKernel::new(netlist, &model).expect("fresh kernel");
    for i in 0..nets {
        let net = NetId(i as u32);
        fresh.set_wire_delay(net, kernel.wire_delay(net));
    }
    fresh.flush();
    assert_eq!(
        fresh.critical_ns().to_bits(),
        kernel.critical_ns().to_bits(),
        "{}: campaign end state diverged from scratch",
        netlist.name
    );
    for i in 0..nets {
        let net = NetId(i as u32);
        assert_eq!(
            fresh.arrival(net).to_bits(),
            kernel.arrival(net).to_bits(),
            "{}: arrival of net {i}",
            netlist.name
        );
        assert_eq!(
            fresh.downstream(net).to_bits(),
            kernel.downstream(net).to_bits(),
            "{}: downstream of net {i}",
            netlist.name
        );
    }
}

#[test]
fn incremental_timing_matches_full_on_all_nine_emb_benchmarks() {
    for name in paper_bench::suite_names() {
        let stg = fsm_model::benchmarks::by_name(name).expect("suite benchmark");
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default())
            .unwrap_or_else(|e| panic!("{name} maps: {e}"));
        check(&emb.to_netlist());
    }
}

#[test]
fn incremental_timing_matches_full_on_a_lut_heavy_ff_baseline() {
    let stg = fsm_model::benchmarks::by_name("keyb").expect("keyb");
    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesis");
    check(&ff_netlist(&synth, false).0);
}
