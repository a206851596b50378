//! The scalar reference simulator: one simulation, one `bool` per net.
//!
//! [`netsim::kernel::BatchSimulator`] is held to this engine lane for
//! lane, cycle for cycle — net values, registered and pre-edge outputs
//! and every [`Activity`] counter — by the workspace's kernel property
//! suite. Both walk the same [`Schedule`].
//!
//! ## Timing model
//!
//! Two-valued, cycle-accurate, glitch-free: each call to
//! [`Simulator::clock`] first applies the new primary inputs and settles
//! combinational logic (the state present at the rising edge), then clocks
//! the sequential cells (FF `d`/`ce`, BRAM `addr`/`en` sampled from that
//! settled state) and settles again. Toggle counts accumulate the
//! transitions of both settle phases — the transition count a zero-delay
//! VCD would contain.

use fpga_fabric::netlist::{Cell, NetId, Netlist, NetlistError};
use fpga_fabric::schedule::Schedule;
use netsim::kernel::Activity;

/// A cycle-based simulator over a validated [`Netlist`].
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    /// The levelized evaluation schedule (shared with the bit-parallel
    /// kernel, so both engines walk cells in the same order).
    sched: Schedule,
    /// Settled net values.
    values: Vec<bool>,
    activity: Activity,
    pre_edge_outputs: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator; validates the netlist.
    ///
    /// The initial state has all primary inputs low, FFs at their `init`
    /// values, BRAM output latches at `output_init`, and combinational
    /// logic settled.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let sched = Schedule::build(netlist)?;
        let mut sim = Simulator {
            netlist,
            values: vec![false; netlist.num_nets()],
            activity: Activity {
                toggles: vec![0; netlist.num_nets()],
                cycles: 0,
                bram_active_cycles: vec![0; sched.brams.len()],
                ff_active_cycles: vec![0; sched.ffs.len()],
            },
            sched,
            pre_edge_outputs: Vec::new(),
        };
        sim.apply_reset_state();
        sim.settle();
        Ok(sim)
    }

    fn apply_reset_state(&mut self) {
        for id in &self.sched.ffs {
            if let Cell::Ff { q, init, .. } = self.netlist.cell(*id) {
                self.values[q.index()] = *init;
            }
        }
        for id in &self.sched.brams {
            if let Cell::Bram {
                dout, output_init, ..
            } = self.netlist.cell(*id)
            {
                for (k, d) in dout.iter().enumerate() {
                    self.values[d.index()] = output_init >> k & 1 == 1;
                }
            }
        }
    }

    /// Resets the machine state (FF/BRAM latches) and clears activity.
    pub fn reset(&mut self) {
        self.values = vec![false; self.netlist.num_nets()];
        self.apply_reset_state();
        self.settle();
        self.activity = Activity {
            toggles: vec![0; self.netlist.num_nets()],
            cycles: 0,
            bram_active_cycles: vec![0; self.sched.brams.len()],
            ff_active_cycles: vec![0; self.sched.ffs.len()],
        };
    }

    fn settle(&mut self) {
        for id in &self.sched.comb_order {
            match self.netlist.cell(*id) {
                Cell::Lut {
                    inputs,
                    output,
                    truth,
                } => {
                    let mut idx = 0u64;
                    for (k, net) in inputs.iter().enumerate() {
                        if self.values[net.index()] {
                            idx |= 1 << k;
                        }
                    }
                    self.values[output.index()] = truth >> idx & 1 == 1;
                }
                Cell::Const { output, value } => {
                    self.values[output.index()] = *value;
                }
                _ => unreachable!("comb order contains only combinational cells"),
            }
        }
    }

    /// Current value of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Current values of the top-level outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, n)| self.values[n.index()])
            .collect()
    }

    /// The top-level output values observed just before the most recent
    /// clock edge (after the new inputs settled). This is the sample point
    /// for designs with *unregistered* (combinational Mealy) outputs, e.g.
    /// the FF-based FSM baseline; [`Self::outputs`] after [`Self::clock`]
    /// is the sample point for registered-output designs like the BRAM
    /// FSM. Empty before the first clock.
    #[must_use]
    pub fn pre_edge_outputs(&self) -> &[bool] {
        &self.pre_edge_outputs
    }

    /// Advances one clock cycle with the given primary-input values;
    /// returns the new settled top-level outputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn clock(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.netlist.inputs().len(),
            "input width mismatch"
        );
        // Phase A: apply the new primary inputs and settle — the state the
        // sequential elements see at the rising edge.
        let before_inputs = self.values.clone();
        for ((_, net), v) in self.netlist.inputs().iter().zip(inputs) {
            self.values[net.index()] = *v;
        }
        self.settle();
        for (i, (old, new)) in before_inputs.iter().zip(&self.values).enumerate() {
            if old != new {
                self.activity.toggles[i] += 1;
            }
        }
        let at_edge = self.values.clone();
        self.pre_edge_outputs = self.outputs();

        // Phase B: the rising edge. Sample FF d/ce and BRAM addr/en from
        // the settled pre-edge state.
        let mut ff_next: Vec<Option<bool>> = Vec::with_capacity(self.sched.ffs.len());
        for (k, id) in self.sched.ffs.iter().enumerate() {
            if let Cell::Ff { d, ce, .. } = self.netlist.cell(*id) {
                let enabled = ce.is_none_or(|c| at_edge[c.index()]);
                if enabled {
                    self.activity.ff_active_cycles[k] += 1;
                    ff_next.push(Some(at_edge[d.index()]));
                } else {
                    ff_next.push(None);
                }
            }
        }
        let mut bram_next: Vec<Option<u64>> = Vec::with_capacity(self.sched.brams.len());
        for (k, id) in self.sched.brams.iter().enumerate() {
            if let Cell::Bram { addr, en, init, .. } = self.netlist.cell(*id) {
                let enabled = en.is_none_or(|e| at_edge[e.index()]);
                if enabled {
                    self.activity.bram_active_cycles[k] += 1;
                    let mut a = 0usize;
                    for (bit, net) in addr.iter().enumerate() {
                        if at_edge[net.index()] {
                            a |= 1 << bit;
                        }
                    }
                    bram_next.push(Some(init[a]));
                } else {
                    bram_next.push(None);
                }
            }
        }

        // Update sequential outputs and settle the post-edge state.
        for (id, next) in self.sched.ffs.iter().zip(&ff_next) {
            if let (Cell::Ff { q, .. }, Some(v)) = (self.netlist.cell(*id), next) {
                self.values[q.index()] = *v;
            }
        }
        for (id, next) in self.sched.brams.iter().zip(&bram_next) {
            if let (Cell::Bram { dout, .. }, Some(word)) = (self.netlist.cell(*id), next) {
                for (bit, net) in dout.iter().enumerate() {
                    self.values[net.index()] = word >> bit & 1 == 1;
                }
            }
        }
        self.settle();
        for (i, (old, new)) in at_edge.iter().zip(&self.values).enumerate() {
            if old != new {
                self.activity.toggles[i] += 1;
            }
        }
        self.activity.cycles += 1;
        self.outputs()
    }

    /// Runs a full stimulus; returns the per-cycle output trace.
    pub fn run<I>(&mut self, stimulus: I) -> Vec<Vec<bool>>
    where
        I: IntoIterator<Item = Vec<bool>>,
    {
        stimulus.into_iter().map(|inp| self.clock(&inp)).collect()
    }

    /// The recorded switching activity so far.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::device::BramShape;
    use fpga_fabric::netlist::Cell;

    /// 2-bit binary counter with enable (LUT-based).
    fn counter() -> Netlist {
        let mut n = Netlist::new("cnt");
        let en = n.add_net("en");
        let q0 = n.add_net("q0");
        let q1 = n.add_net("q1");
        let d0 = n.add_net("d0");
        let d1 = n.add_net("d1");
        n.add_input("en", en);
        n.add_output("q0", q0);
        n.add_output("q1", q1);
        n.add_cell(Cell::Lut {
            inputs: vec![q0, en],
            output: d0,
            truth: 0b0110,
        });
        let mut t = 0u64;
        for m in 0..8u64 {
            let (q1v, q0v, env) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            if q1v ^ (q0v && env) {
                t |= 1 << m;
            }
        }
        n.add_cell(Cell::Lut {
            inputs: vec![q1, q0, en],
            output: d1,
            truth: t,
        });
        n.add_cell(Cell::Ff {
            d: d0,
            q: q0,
            ce: None,
            init: false,
        });
        n.add_cell(Cell::Ff {
            d: d1,
            q: q1,
            ce: None,
            init: false,
        });
        n
    }

    #[test]
    fn counter_counts() {
        let n = counter();
        let mut sim = Simulator::new(&n).unwrap();
        let mut seen = Vec::new();
        for _ in 0..5 {
            let out = sim.clock(&[true]);
            seen.push(u8::from(out[0]) | u8::from(out[1]) << 1);
        }
        assert_eq!(seen, vec![1, 2, 3, 0, 1]);
    }

    #[test]
    fn enable_freezes_counter() {
        let n = counter();
        let mut sim = Simulator::new(&n).unwrap();
        sim.clock(&[true]);
        let frozen = sim.outputs();
        for _ in 0..3 {
            sim.clock(&[false]);
            assert_eq!(sim.outputs(), frozen, "en=0 must hold the count");
        }
        sim.clock(&[true]);
        assert_ne!(sim.outputs(), frozen);
    }

    #[test]
    fn bram_rom_reads() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rom");
        let a0 = n.add_net("a0");
        let mut addr = vec![a0];
        for i in 1..9 {
            let net = n.add_net(format!("a{i}"));
            addr.push(net);
        }
        let d: Vec<_> = (0..8).map(|i| n.add_net(format!("d{i}"))).collect();
        for (i, net) in addr.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        for (i, net) in d.iter().enumerate() {
            n.add_output(format!("d{i}"), *net);
        }
        let mut init = vec![0u64; 512];
        init[0] = 0xAB;
        init[5] = 0x5A;
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: d,
            en: None,
            init,
            output_init: 0,
        });
        let mut sim = Simulator::new(&n).unwrap();
        // Address 5 settles before the edge; the synchronous read latches
        // mem[5] at that edge.
        let addr5: Vec<bool> = (0..9).map(|i| i == 0 || i == 2).collect();
        let out = sim.clock(&addr5);
        let byte = out
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
        assert_eq!(byte, 0x5A);
    }

    #[test]
    fn bram_enable_holds_output() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rom_en");
        let en = n.add_net("en");
        let addr: Vec<_> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d0");
        n.add_input("en", en);
        for (i, net) in addr.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d0", d);
        let mut init = vec![0u64; 512];
        init[1] = 1;
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: vec![d],
            en: Some(en),
            init,
            output_init: 0,
        });
        let mut sim = Simulator::new(&n).unwrap();
        // en low: output stays at output_init despite the address.
        let mut inp = vec![false; 10];
        inp[1] = true; // a0 = 1 -> address 1
        sim.clock(&inp);
        sim.clock(&inp);
        assert_eq!(sim.outputs(), vec![false], "disabled BRAM holds");
        // Raise en: the read happens at this edge.
        inp[0] = true;
        sim.clock(&inp);
        assert_eq!(sim.outputs(), vec![true]);
        let act = sim.activity();
        assert_eq!(act.cycles, 3);
        assert_eq!(act.bram_active_cycles[0], 1);
    }

    #[test]
    fn activity_counts_toggles() {
        let n = counter();
        let mut sim = Simulator::new(&n).unwrap();
        for _ in 0..8 {
            sim.clock(&[true]);
        }
        let act = sim.activity();
        // q0 toggles every cycle; q1 every second cycle.
        let q0 = NetId(1);
        let q1 = NetId(2);
        assert!(
            (act.of(q0) - 1.0).abs() < 1e-9,
            "q0 activity {}",
            act.of(q0)
        );
        assert!(
            (act.of(q1) - 0.5).abs() < 1e-9,
            "q1 activity {}",
            act.of(q1)
        );
        // en toggled once (false -> true on the first cycle).
        assert_eq!(act.toggles[0], 1);
    }

    #[test]
    fn reset_clears_state_and_activity() {
        let n = counter();
        let mut sim = Simulator::new(&n).unwrap();
        sim.clock(&[true]);
        sim.clock(&[true]);
        sim.reset();
        assert_eq!(sim.outputs(), vec![false, false]);
        assert_eq!(sim.activity().cycles, 0);
        let out = sim.clock(&[true]);
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn ff_ce_gating_counts() {
        let mut n = Netlist::new("ce");
        let ce = n.add_net("ce");
        let d = n.add_net("d");
        let q = n.add_net("q");
        n.add_input("ce", ce);
        n.add_input("d", d);
        n.add_output("q", q);
        n.add_cell(Cell::Ff {
            d,
            q,
            ce: Some(ce),
            init: false,
        });
        let mut sim = Simulator::new(&n).unwrap();
        sim.clock(&[false, true]); // ce low at the edge: hold
        assert_eq!(sim.outputs(), vec![false]);
        sim.clock(&[true, true]); // ce high: capture d=1
        assert_eq!(sim.outputs(), vec![true]);
        assert_eq!(sim.activity().ff_active_cycles[0], 1);
    }
}
