//! The levelized evaluation schedule shared by the netlist simulator and
//! the static-timing kernel.
//!
//! `netsim`'s bit-parallel simulator (and the scalar reference engine it
//! is tested against) evaluates a netlist in one way: combinational cells
//! in one fixed topological order, then the sequential cells (FFs, then
//! BRAMs) in cell order at each clock edge. The same levelization is the
//! traversal order of [`crate::sta`]'s arrival/required propagation. This
//! module computes that schedule once per netlist so the consumers cannot
//! drift apart structurally — the evaluation *order*, the set of
//! sequential cells, and the definition of the architectural state all
//! come from here. Every BRAM is a ROM, so the architectural state is
//! exactly the sequential nets (FF `q` and BRAM `dout`). The module lives
//! in `fpga_fabric` (the netlist's home crate), which `netsim` depends on.

use crate::netlist::{Cell, CellId, NetId, Netlist, NetlistError};

/// The one-time levelization of a netlist: the topological order of its
/// combinational cone plus the sequential cell and state-net inventory.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Topological order of combinational cells (LUTs and constants).
    pub comb_order: Vec<CellId>,
    /// Flip-flop cells, in netlist cell order.
    pub ffs: Vec<CellId>,
    /// Block-RAM cells, in netlist cell order.
    pub brams: Vec<CellId>,
    /// The architectural state nets: every FF `q` and BRAM `dout` net, in
    /// netlist cell order. Restoring these values fully determines the
    /// machine state — combinational nets are recomputed from them (and
    /// the primary inputs) by the next settle.
    pub seq_nets: Vec<NetId>,
}

impl Schedule {
    /// Validates `netlist` and builds its evaluation schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation.
    pub fn build(netlist: &Netlist) -> Result<Self, NetlistError> {
        let comb_order = netlist.validate()?;
        let mut ffs = Vec::new();
        let mut brams = Vec::new();
        let mut seq_nets = Vec::new();
        for (i, cell) in netlist.cells().iter().enumerate() {
            match cell {
                Cell::Ff { q, .. } => {
                    ffs.push(CellId(i as u32));
                    seq_nets.push(*q);
                }
                Cell::Bram { dout, .. } => {
                    brams.push(CellId(i as u32));
                    seq_nets.extend(dout.iter().copied());
                }
                _ => {}
            }
        }
        Ok(Schedule {
            comb_order,
            ffs,
            brams,
            seq_nets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BramShape;

    #[test]
    fn schedule_inventories_sequential_state() {
        let mut n = Netlist::new("s");
        let d = n.add_net("d");
        let q = n.add_net("q");
        let a: Vec<NetId> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let o = n.add_net("o");
        n.add_input("d", d);
        for (i, net) in a.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("q", q);
        n.add_output("o", o);
        n.add_cell(Cell::Ff {
            d,
            q,
            ce: None,
            init: false,
        });
        n.add_cell(Cell::Bram {
            shape: BramShape {
                addr_bits: 9,
                data_bits: 36,
            },
            addr: a,
            dout: vec![o],
            en: None,
            init: vec![0; 512],
            output_init: 0,
        });
        let s = Schedule::build(&n).unwrap();
        assert_eq!(s.ffs.len(), 1);
        assert_eq!(s.brams.len(), 1);
        assert_eq!(s.seq_nets, vec![q, o]);
    }
}
