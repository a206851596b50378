//! Minimal VCD (Value Change Dump) writer.
//!
//! The paper's flow saves switching activity "in the .vcd file" for the
//! XPower tool (Sec. 5). This writer produces a standard four-state VCD
//! restricted to 0/1 so traces can be inspected with GTKWave or diffed in
//! tests. One timestep per clock cycle.

use fpga_fabric::netlist::{NetId, Netlist};
use std::fmt::Write as _;

/// Records selected nets cycle-by-cycle and renders VCD text.
#[derive(Debug, Clone)]
pub struct VcdRecorder {
    nets: Vec<(NetId, String)>,
    /// Per-cycle values, one row per clock, aligned with `nets`.
    rows: Vec<Vec<bool>>,
}

impl VcdRecorder {
    /// Records the given nets (with display names).
    #[must_use]
    pub fn new(nets: Vec<(NetId, String)>) -> Self {
        VcdRecorder {
            nets,
            rows: Vec::new(),
        }
    }

    /// Records every net of the netlist under its netlist name.
    #[must_use]
    pub fn all_nets(netlist: &Netlist) -> Self {
        let nets = (0..netlist.num_nets())
            .map(|i| {
                let id = NetId(i as u32);
                (id, netlist.net_name(id).to_string())
            })
            .collect();
        Self::new(nets)
    }

    /// Captures the current value of every recorded net.
    pub fn sample(&mut self, value_of: impl Fn(NetId) -> bool) {
        let row = self.nets.iter().map(|(id, _)| value_of(*id)).collect();
        self.rows.push(row);
    }

    /// Number of sampled cycles.
    #[must_use]
    pub fn num_cycles(&self) -> usize {
        self.rows.len()
    }

    /// Renders the VCD text.
    ///
    /// `timescale_ns` is the clock period used for `$timescale`.
    #[must_use]
    pub fn render(&self, module: &str, timescale_ns: u64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "$date synthetic $end");
        let _ = writeln!(s, "$version romfsm netsim $end");
        let _ = writeln!(s, "$timescale {timescale_ns} ns $end");
        let _ = writeln!(s, "$scope module {module} $end");
        let codes: Vec<String> = (0..self.nets.len()).map(id_code).collect();
        for ((_, name), code) in self.nets.iter().zip(&codes) {
            let clean: String = name
                .chars()
                .map(|c| if c.is_whitespace() { '_' } else { c })
                .collect();
            let _ = writeln!(s, "$var wire 1 {code} {clean} $end");
        }
        let _ = writeln!(s, "$upscope $end");
        let _ = writeln!(s, "$enddefinitions $end");

        let mut last: Vec<Option<bool>> = vec![None; self.nets.len()];
        for (t, row) in self.rows.iter().enumerate() {
            let mut changes = String::new();
            for (k, &v) in row.iter().enumerate() {
                if last[k] != Some(v) {
                    let _ = writeln!(changes, "{}{}", u8::from(v), codes[k]);
                    last[k] = Some(v);
                }
            }
            if !changes.is_empty() || t == 0 {
                let _ = writeln!(s, "#{t}");
                s.push_str(&changes);
            }
        }
        let _ = writeln!(s, "#{}", self.rows.len());
        s
    }

    /// Total value changes across all nets (equals the toggle count the
    /// activity recorder sees, plus initial-value assignments).
    #[must_use]
    pub fn num_changes(&self) -> usize {
        let mut last: Vec<Option<bool>> = vec![None; self.nets.len()];
        let mut count = 0;
        for row in &self.rows {
            for (k, &v) in row.iter().enumerate() {
                if last[k] != Some(v) {
                    count += 1;
                    last[k] = Some(v);
                }
            }
        }
        count
    }
}

/// VCD identifier code for index `i` (printable ASCII 33..=126).
fn id_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BatchSimulator;
    use fpga_fabric::netlist::Cell;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let c = id_code(i);
            assert!(c.chars().all(|ch| ('!'..='~').contains(&ch)));
            assert!(seen.insert(c));
        }
    }

    #[test]
    fn vcd_structure() {
        let mut n = Netlist::new("t");
        let a = n.add_net("a");
        let q = n.add_net("q");
        n.add_input("a", a);
        n.add_output("q", q);
        n.add_cell(Cell::Ff {
            d: a,
            q,
            ce: None,
            init: false,
        });
        let mut sim = BatchSimulator::new(&n).unwrap();
        let mut rec = VcdRecorder::all_nets(&n);
        rec.sample(|net| sim.lane_value(net, 0));
        for bit in [true, false, true] {
            sim.run_sequential(&[vec![bit]]);
            rec.sample(|net| sim.lane_value(net, 0));
        }
        let text = rec.render("t", 10);
        assert!(text.contains("$timescale 10 ns $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$enddefinitions $end"));
        // Initial values at #0 and a final timestamp exist.
        assert!(text.contains("#0"));
        assert!(text.contains("#4"));
        assert_eq!(rec.num_cycles(), 4);
        assert!(rec.num_changes() >= 4);
    }

    #[test]
    fn unchanged_nets_emit_once() {
        let rec = {
            let mut r = VcdRecorder::new(vec![(NetId(0), "x".into())]);
            for _ in 0..5 {
                r.sample(|_| true);
            }
            r
        };
        assert_eq!(rec.num_changes(), 1);
        let text = rec.render("m", 1);
        assert_eq!(text.matches("1!").count(), 1);
    }
}
