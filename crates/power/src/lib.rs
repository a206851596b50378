//! Switching-activity-driven FPGA power estimation (the XPower role).
//!
//! Implements the functional model the paper relies on (Sec. 2): dynamic
//! power is `½·V²·f·Σ(activity·C)` over all nets, where a net's
//! capacitance grows with its routed wirelength and the programmable
//! switches it crosses; plus clock-network power (per-FF and much larger
//! per-BRAM clock loads — the premise of the Sec. 6 clock-stopping
//! technique), block-RAM access power that scales with the word-lines and
//! data bits in use (the Sec. 5 observation), and a static floor.
//!
//! Default parameters are calibrated so that a representative LUT/FF
//! design splits roughly 60 % interconnect / 16 % logic / 14 % clock, the
//! distribution the paper cites for Virtex-II. Absolute milliwatts are
//! model units, not silicon measurements; every experiment in this
//! workspace compares *ratios* between implementations, which is also what
//! the paper's percentage-savings columns do.

#![warn(missing_docs)]
#![warn(clippy::all)]

use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fpga_fabric::route::RoutedDesign;
use netsim::kernel::Activity;

/// Electrical parameters of the power model.
///
/// Capacitances are in pF, voltage in volts, frequency in MHz, producing
/// microwatts internally and milliwatts in reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Core supply voltage (Virtex-II: 1.5 V).
    pub vdd: f64,
    /// Base capacitance of any routed net (driver + local wiring).
    pub c_net_base: f64,
    /// Capacitance per fanout pin.
    pub c_pin: f64,
    /// Capacitance per routed tile hop (wire segment).
    pub c_wire_per_hop: f64,
    /// Capacitance per programmable switch crossed.
    pub c_switch: f64,
    /// Internal LUT capacitance switched per output toggle.
    pub c_lut_internal: f64,
    /// Clock-network capacitance per flip-flop load.
    pub c_clock_per_ff: f64,
    /// Clock-network capacitance per BRAM load (much larger than a FF's —
    /// "more power is consumed in clocking a blockram than an FF in a
    /// Virtex-II device", Sec. 6).
    pub c_clock_per_bram: f64,
    /// Fixed clock-spine capacitance when any load exists.
    pub c_clock_spine: f64,
    /// BRAM access energy: fixed part per enabled cycle.
    pub c_bram_access_base: f64,
    /// BRAM access energy per word-line (row) in use.
    pub c_bram_per_row: f64,
    /// BRAM access energy per data bit in use.
    pub c_bram_per_bit: f64,
    /// Pad capacitance per top-level port toggle.
    pub c_pad: f64,
    /// Device static (quiescent) power in mW.
    pub static_mw: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            vdd: 1.5,
            c_net_base: 1.6,
            c_pin: 0.6,
            c_wire_per_hop: 1.1,
            c_switch: 0.7,
            c_lut_internal: 2.4,
            c_clock_per_ff: 0.45,
            c_clock_per_bram: 14.0,
            c_clock_spine: 3.0,
            c_bram_access_base: 8.0,
            c_bram_per_row: 0.012,
            c_bram_per_bit: 0.5,
            c_pad: 4.0,
            static_mw: 15.0,
        }
    }
}

/// An estimated power breakdown, in milliwatts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerReport {
    /// Programmable-interconnect switching power.
    pub interconnect_mw: f64,
    /// Logic (LUT-internal) switching power.
    pub logic_mw: f64,
    /// Clock-distribution power (tree + FF loads + BRAM clock loads,
    /// scaled by each BRAM's enable duty cycle).
    pub clock_mw: f64,
    /// Block-RAM access power (scaled by enable duty cycle).
    pub bram_mw: f64,
    /// I/O pad power.
    pub io_mw: f64,
    /// Static power floor.
    pub static_mw: f64,
    /// Clock frequency this estimate used (MHz).
    pub freq_mhz: f64,
}

impl PowerReport {
    /// Total dynamic power (everything but static), mW.
    #[must_use]
    pub fn dynamic_mw(&self) -> f64 {
        self.interconnect_mw + self.logic_mw + self.clock_mw + self.bram_mw + self.io_mw
    }

    /// Total power, mW.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw() + self.static_mw
    }
}

impl std::fmt::Display for PowerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} mW @ {:.0} MHz (int {:.2}, logic {:.2}, clk {:.2}, bram {:.2}, io {:.2}, static {:.2})",
            self.total_mw(),
            self.freq_mhz,
            self.interconnect_mw,
            self.logic_mw,
            self.clock_mw,
            self.bram_mw,
            self.io_mw,
            self.static_mw
        )
    }
}

/// The activity record handed to [`estimate`] was recorded on a different
/// netlist: its per-net toggle vector does not cover the nets being
/// estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityMismatch {
    /// Nets covered by the activity record.
    pub activity_nets: usize,
    /// Nets in the netlist under estimation.
    pub netlist_nets: usize,
}

impl std::fmt::Display for ActivityMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "activity record covers {} nets but the netlist has {}",
            self.activity_nets, self.netlist_nets
        )
    }
}

impl std::error::Error for ActivityMismatch {}

/// Estimates the power of a routed design given recorded activity.
///
/// `freq_mhz` is the clock frequency; activity factors are per-cycle, so
/// dynamic power scales linearly with frequency (the paper's Table 2
/// trend).
///
/// # Errors
///
/// Returns [`ActivityMismatch`] when `activity` was recorded on a
/// different netlist (per-net toggle count differs from the net count).
pub fn estimate(
    netlist: &Netlist,
    routed: &RoutedDesign,
    activity: &Activity,
    freq_mhz: f64,
    params: &PowerParams,
) -> Result<PowerReport, ActivityMismatch> {
    if activity.toggles.len() != netlist.num_nets() {
        return Err(ActivityMismatch {
            activity_nets: activity.toggles.len(),
            netlist_nets: netlist.num_nets(),
        });
    }
    // ½·V²·f · Σ activity·C, with C in pF and f in MHz -> µW.
    let half_v2_f = 0.5 * params.vdd * params.vdd * freq_mhz;
    let uw_to_mw = 1e-3;

    let fanout = netlist.fanout_map();
    let driver = netlist.driver_map();

    let mut interconnect_uw = 0.0;
    for (i, sinks) in fanout.iter().enumerate() {
        let net = NetId(i as u32);
        let a = activity.of(net);
        if a == 0.0 {
            continue;
        }
        let c = params.c_net_base
            + params.c_pin * sinks.len() as f64
            + params.c_wire_per_hop * routed.wirelength(net) as f64
            + params.c_switch * routed.switches(net) as f64;
        interconnect_uw += half_v2_f * a * c;
    }

    let mut logic_uw = 0.0;
    for cell in netlist.cells() {
        if let Cell::Lut { output, .. } = cell {
            logic_uw += half_v2_f * activity.of(*output) * params.c_lut_internal;
        }
    }

    // Clock: the clock net toggles twice per cycle (activity 2.0).
    let mut clock_cap = 0.0;
    let mut bram_idx = 0usize;
    let mut any_load = false;
    for cell in netlist.cells() {
        match cell {
            Cell::Ff { .. } => {
                // CE does not gate the Virtex-II FF clock pin: full load.
                clock_cap += params.c_clock_per_ff;
                any_load = true;
            }
            Cell::Bram { .. } => {
                // Driving EN low stops the BRAM from being clocked
                // (Sec. 6): its clock load scales with enable duty.
                clock_cap += params.c_clock_per_bram * activity.bram_enable_fraction(bram_idx);
                bram_idx += 1;
                any_load = true;
            }
            _ => {}
        }
    }
    if any_load {
        clock_cap += params.c_clock_spine;
    }
    let clock_uw = half_v2_f * 2.0 * clock_cap;

    // BRAM access power.
    let mut bram_uw = 0.0;
    let mut bram_idx = 0usize;
    for cell in netlist.cells() {
        if let Cell::Bram { addr, dout, .. } = cell {
            // Word-lines in use: 2^(address bits not tied to constants).
            let live_addr_bits = addr
                .iter()
                .filter(|n| {
                    driver
                        .get(n)
                        .is_none_or(|c| !matches!(netlist.cell(*c), Cell::Const { .. }))
                })
                .count();
            let rows = (1u64 << live_addr_bits.min(63)) as f64;
            let c_access = params.c_bram_access_base
                + params.c_bram_per_row * rows
                + params.c_bram_per_bit * dout.len() as f64;
            bram_uw += half_v2_f * activity.bram_enable_fraction(bram_idx) * c_access;
            bram_idx += 1;
        }
    }

    // I/O pads.
    let mut io_uw = 0.0;
    for (_, net) in netlist.inputs().iter().chain(netlist.outputs()) {
        io_uw += half_v2_f * activity.of(*net) * params.c_pad;
    }

    Ok(PowerReport {
        interconnect_mw: interconnect_uw * uw_to_mw,
        logic_mw: logic_uw * uw_to_mw,
        clock_mw: clock_uw * uw_to_mw,
        bram_mw: bram_uw * uw_to_mw,
        io_mw: io_uw * uw_to_mw,
        static_mw: params.static_mw,
        freq_mhz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::device::{BramShape, Device};
    use fpga_fabric::netlist::Cell;
    use fpga_fabric::pack::pack;
    use fpga_fabric::place::{place, PlaceOptions};
    use fpga_fabric::route::{route, RouteOptions};
    use netsim::kernel::BatchSimulator;
    use netsim::stimulus;

    fn flow(netlist: &Netlist, cycles: usize) -> (RoutedDesign, Activity) {
        let p = pack(netlist);
        let pl = place(netlist, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let r = route(netlist, &p, &pl, RouteOptions::default()).unwrap();
        let mut sim = BatchSimulator::new(netlist).unwrap();
        let stim = stimulus::random(netlist.inputs().len(), cycles, 11);
        sim.run_sequential(&stim);
        let act = sim.activity().clone();
        (r, act)
    }

    /// A LUT/FF design with lots of active logic: a ripple counter.
    fn busy_logic(n_bits: usize) -> Netlist {
        let mut n = Netlist::new("busy");
        let en = n.add_net("en");
        n.add_input("en", en);
        let qs: Vec<NetId> = (0..n_bits).map(|i| n.add_net(format!("q{i}"))).collect();
        let mut carry = en;
        for (i, &q) in qs.iter().enumerate() {
            let d = n.add_net(format!("d{i}"));
            let c = n.add_net(format!("c{i}"));
            // d = q ^ carry ; next carry = q & carry.
            n.add_cell(Cell::Lut {
                inputs: vec![q, carry],
                output: d,
                truth: 0b0110,
            });
            n.add_cell(Cell::Lut {
                inputs: vec![q, carry],
                output: c,
                truth: 0b1000,
            });
            n.add_cell(Cell::Ff {
                d,
                q,
                ce: None,
                init: false,
            });
            carry = c;
        }
        n.add_output("msb", qs[n_bits - 1]);
        n
    }

    fn bram_fsm(with_en: bool) -> Netlist {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("bramfsm");
        let input = n.add_net("in");
        n.add_input("in", input);
        let dout: Vec<NetId> = (0..3).map(|i| n.add_net(format!("d{i}"))).collect();
        let zero = n.add_net("zero");
        n.add_cell(Cell::Const {
            output: zero,
            value: false,
        });
        // addr = [d0, d1, in, 0, 0, ...]: a 4-state ROM FSM.
        let mut addr = vec![dout[0], dout[1], input];
        while addr.len() < 9 {
            addr.push(zero);
        }
        let mut init = vec![0u64; 512];
        for (a, word) in init.iter_mut().take(8).enumerate() {
            *word = ((a as u64 + 1) % 4) | ((a as u64) % 2) << 2;
        }
        let en = if with_en {
            let e = n.add_net("en");
            n.add_input("en", e);
            Some(e)
        } else {
            None
        };
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: dout.clone(),
            en,
            init,
            output_init: 0,
        });
        n.add_output("o", dout[2]);
        n
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let n = busy_logic(8);
        let (r, a) = flow(&n, 500);
        let p = PowerParams::default();
        let p50 = estimate(&n, &r, &a, 50.0, &p).unwrap();
        let p100 = estimate(&n, &r, &a, 100.0, &p).unwrap();
        let ratio = p100.dynamic_mw() / p50.dynamic_mw();
        assert!((ratio - 2.0).abs() < 1e-9, "dynamic power ∝ f, got {ratio}");
        assert_eq!(p50.static_mw, p100.static_mw);
    }

    /// 32-bit LFSR plus a 96-LUT XOR mixing network: high activity, spread
    /// over many CLBs — a representative "busy" Virtex-II design.
    fn lfsr_mix() -> Netlist {
        let mut n = Netlist::new("lfsr");
        let bits = 32usize;
        let qs: Vec<NetId> = (0..bits).map(|i| n.add_net(format!("q{i}"))).collect();
        let fb = n.add_net("fb");
        let mut parity4 = 0u64;
        for m in 0..16u64 {
            if m.count_ones() & 1 == 1 {
                parity4 |= 1 << m;
            }
        }
        n.add_cell(Cell::Lut {
            inputs: vec![qs[31], qs[21], qs[1], qs[0]],
            output: fb,
            truth: parity4,
        });
        n.add_cell(Cell::Ff {
            d: fb,
            q: qs[0],
            ce: None,
            init: true,
        });
        for i in 1..bits {
            n.add_cell(Cell::Ff {
                d: qs[i - 1],
                q: qs[i],
                ce: None,
                init: i % 3 == 0,
            });
        }
        for k in 0..96usize {
            let o = n.add_net(format!("m{k}"));
            let taps = [
                qs[(k * 7) % bits],
                qs[(k * 13 + 5) % bits],
                qs[(k * 17 + 11) % bits],
                qs[(k * 23 + 2) % bits],
            ];
            n.add_cell(Cell::Lut {
                inputs: taps.to_vec(),
                output: o,
                truth: parity4,
            });
            let q = n.add_net(format!("mq{k}"));
            n.add_cell(Cell::Ff {
                d: o,
                q,
                ce: None,
                init: false,
            });
            if k % 8 == 0 {
                n.add_output(format!("mq{k}"), q);
            }
        }
        n
    }

    #[test]
    fn breakdown_matches_virtex_profile() {
        // Representative LUT/FF design: the paper cites ~60% interconnect,
        // 16% logic, 14% clock for Virtex-II (Sec. 2).
        let n = lfsr_mix();
        let (r, a) = flow(&n, 1000);
        let rep = estimate(&n, &r, &a, 100.0, &PowerParams::default()).unwrap();
        let dyn_mw = rep.dynamic_mw();
        let int_frac = rep.interconnect_mw / dyn_mw;
        let logic_frac = rep.logic_mw / dyn_mw;
        let clk_frac = rep.clock_mw / dyn_mw;
        assert!(
            (0.45..0.80).contains(&int_frac),
            "interconnect {int_frac:.2} should dominate (~0.60)"
        );
        assert!(
            (0.05..0.30).contains(&logic_frac),
            "logic share {logic_frac:.2} (~0.16)"
        );
        assert!(
            (0.05..0.30).contains(&clk_frac),
            "clock share {clk_frac:.2} (~0.14)"
        );
    }

    #[test]
    fn bram_clock_load_exceeds_ff() {
        let p = PowerParams::default();
        assert!(p.c_clock_per_bram > 5.0 * p.c_clock_per_ff);
    }

    #[test]
    fn gated_bram_saves_clock_and_access_power() {
        let n = bram_fsm(true);
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let r = route(&n, &p, &pl, RouteOptions::default()).unwrap();

        // Always enabled, then enabled 25% of the time.
        let run = |enabled: fn(usize) -> bool| {
            let stim: Vec<Vec<bool>> = stimulus::random(1, 400, 5)
                .into_iter()
                .enumerate()
                .map(|(i, v)| vec![v[0], enabled(i)])
                .collect();
            let mut sim = BatchSimulator::new(&n).unwrap();
            sim.run_sequential(&stim);
            estimate(&n, &r, sim.activity(), 100.0, &PowerParams::default()).unwrap()
        };
        let busy = run(|_| true);
        let gated = run(|i| i % 4 == 0);

        assert!(gated.clock_mw < busy.clock_mw, "clock power must drop");
        assert!(gated.bram_mw < busy.bram_mw * 0.5, "access power must drop");
    }

    #[test]
    fn constant_address_pins_reduce_rows_used() {
        // A BRAM with constants on high address bits must report lower
        // access power than one with all 9 bits live.
        let n_const = bram_fsm(false);
        let (r, a) = flow(&n_const, 300);
        let low = estimate(&n_const, &r, &a, 100.0, &PowerParams::default()).unwrap();

        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("live");
        let input = n.add_net("in");
        n.add_input("in", input);
        let dout: Vec<NetId> = (0..3).map(|i| n.add_net(format!("d{i}"))).collect();
        let addr: Vec<NetId> = (0..9)
            .map(|i| if i == 0 { dout[0] } else { input })
            .collect();
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: dout.clone(),
            en: None,
            init: vec![1; 512],
            output_init: 0,
        });
        n.add_output("o", dout[0]);
        let (r2, a2) = flow(&n, 300);
        let high = estimate(&n, &r2, &a2, 100.0, &PowerParams::default()).unwrap();
        assert!(high.bram_mw > low.bram_mw, "more live rows, more power");
    }

    #[test]
    fn foreign_activity_is_a_typed_error() {
        // An activity record from a different netlist must be rejected
        // with ActivityMismatch, not a panic.
        let n = busy_logic(4);
        let (r, _) = flow(&n, 50);
        let other = busy_logic(8);
        let (_, foreign) = flow(&other, 50);
        let err = estimate(&n, &r, &foreign, 100.0, &PowerParams::default()).unwrap_err();
        assert_eq!(err.netlist_nets, n.num_nets());
        assert_eq!(err.activity_nets, other.num_nets());
        assert!(err.to_string().contains("activity record"), "{err}");
    }

    #[test]
    fn report_display_and_totals() {
        let n = busy_logic(4);
        let (r, a) = flow(&n, 100);
        let rep = estimate(&n, &r, &a, 85.0, &PowerParams::default()).unwrap();
        let total = rep.total_mw();
        assert!(total > rep.dynamic_mw());
        let s = rep.to_string();
        assert!(s.contains("mW @ 85 MHz"), "{s}");
    }
}
