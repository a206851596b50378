//! Static timing analysis.
//!
//! Computes the critical register-to-register (or pad-to-pad) path of a
//! placed-and-routed design using Virtex-II-flavoured delays: LUT logic
//! delay, per-hop interconnect delay, FF clock-to-out/setup, and the
//! block RAM's clock-to-data-out and address setup.
//!
//! The model backs two of the paper's claims:
//!
//! * a BRAM FSM's critical path is *fixed* — BRAM output back to its own
//!   address pins — regardless of FSM complexity ("no matter how many
//!   state transitions an FSM may have the timing of it does not change",
//!   Sec. 4), while the FF FSM's path grows with its LUT depth;
//! * clock-control logic sits in front of the enable pin and *slows the
//!   design* proportionally to its own depth (Sec. 6).
//!
//! [`analyze`] is one full re-time of [`crate::sta::TimingKernel`] over
//! routed wirelengths — the same engine the timing-driven placer runs
//! incrementally over placed bounding boxes.

use crate::netlist::Netlist;
use crate::route::RoutedDesign;
use crate::sta::TimingKernel;

/// Delay parameters in nanoseconds (Virtex-II -6 speed-grade flavour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// LUT4 logic delay.
    pub lut: f64,
    /// FF clock-to-out.
    pub ff_clk_to_q: f64,
    /// FF setup time.
    pub ff_setup: f64,
    /// BRAM clock-to-data-out.
    pub bram_clk_to_out: f64,
    /// BRAM address/enable setup.
    pub bram_setup: f64,
    /// Fixed net delay per connection.
    pub net_base: f64,
    /// Additional net delay per routed tile hop.
    pub net_per_hop: f64,
    /// Pad delay (IBUF/OBUF).
    pub pad: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            lut: 0.44,
            ff_clk_to_q: 0.37,
            ff_setup: 0.23,
            bram_clk_to_out: 2.10,
            bram_setup: 0.42,
            net_base: 0.25,
            net_per_hop: 0.08,
            pad: 0.80,
        }
    }
}

/// Result of timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Critical path delay in ns.
    pub critical_path_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
}

/// Analyzes a validated, routed design: one full re-time of the
/// [`TimingKernel`] with each net's wire delay at `net_base +
/// net_per_hop · routed wirelength`.
///
/// # Panics
///
/// Panics if the netlist fails validation (callers validate first).
#[must_use]
pub fn analyze(netlist: &Netlist, routed: &RoutedDesign, model: &DelayModel) -> TimingReport {
    let kernel = TimingKernel::with_wire_delays(netlist, model, |net| {
        model.net_base + model.net_per_hop * routed.wirelength(net) as f64
    })
    .expect("timing analysis requires a valid netlist");
    TimingReport {
        critical_path_ns: kernel.critical_ns(),
        fmax_mhz: kernel.fmax_mhz(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BramShape, Device};
    use crate::netlist::{Cell, NetId};
    use crate::pack::pack;
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, RouteOptions};

    fn analyze_netlist(n: &Netlist) -> TimingReport {
        let p = pack(n);
        let pl = place(n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let r = route(n, &p, &pl, RouteOptions::default()).unwrap();
        analyze(n, &r, &DelayModel::default())
    }

    /// FF -> chain of `depth` LUTs -> FF.
    fn lut_chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("lc");
        let q0 = n.add_net("q0");
        let mut prev = q0;
        for i in 0..depth {
            let o = n.add_net(format!("l{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![prev],
                output: o,
                truth: 0b01,
            });
            prev = o;
        }
        let q1 = n.add_net("q1");
        n.add_cell(Cell::Ff {
            d: prev,
            q: q0,
            ce: None,
            init: false,
        });
        n.add_cell(Cell::Ff {
            d: prev,
            q: q1,
            ce: None,
            init: false,
        });
        n.add_output("q1", q1);
        n
    }

    #[test]
    fn deeper_logic_is_slower() {
        let shallow = analyze_netlist(&lut_chain(2));
        let deep = analyze_netlist(&lut_chain(10));
        assert!(deep.critical_path_ns > shallow.critical_path_ns);
        assert!(deep.fmax_mhz < shallow.fmax_mhz);
    }

    #[test]
    fn bram_loop_timing_is_flat() {
        // BRAM dout -> own addr: the EMB FSM's fixed critical path.
        let make = |addr_bits: usize, data_bits: usize, shape: BramShape| {
            let mut n = Netlist::new("rom");
            let addr: Vec<NetId> = (0..addr_bits).map(|i| n.add_net(format!("a{i}"))).collect();
            let dout: Vec<NetId> = (0..data_bits).map(|i| n.add_net(format!("d{i}"))).collect();
            // Feed low dout bits back to addr (pad shortfall with inputs).
            let mut full_addr = Vec::new();
            for i in 0..addr_bits {
                if i < dout.len() {
                    full_addr.push(dout[i]);
                } else {
                    let pin = n.add_net(format!("in{i}"));
                    n.add_input(format!("in{i}"), pin);
                    full_addr.push(pin);
                }
            }
            let _ = addr;
            n.add_cell(Cell::Bram {
                shape,
                addr: full_addr,
                dout: dout.clone(),
                en: None,
                init: vec![0; shape.depth()],
                output_init: 0,
            });
            n.add_output("d0", dout[0]);
            n
        };
        let s9 = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let small = analyze_netlist(&make(9, 4, s9));
        let large = analyze_netlist(&make(9, 16, s9));
        // Same structure, more data pins: path delay stays within routing
        // noise (no LUT levels added).
        let ratio = large.critical_path_ns / small.critical_path_ns;
        assert!(ratio < 1.5, "BRAM loop timing should be ~flat, got {ratio}");
    }

    #[test]
    fn fmax_matches_period() {
        let rep = analyze_netlist(&lut_chain(3));
        assert!((rep.fmax_mhz - 1000.0 / rep.critical_path_ns).abs() < 1e-9);
    }
}
