//! Structural VHDL export.
//!
//! The paper's EMB implementations were "instantiated in the VHDL code
//! and connection to their address lines and outputs were made. The
//! contents of the blockrams were initialized in the VHDL code; we have
//! written a C program to automatically generate the VHDL initialization
//! string for these blockrams" (Sec. 5). This module is that generator:
//! it renders any workspace [`Netlist`] — EMB or FF implementation — as
//! structural VHDL using Xilinx UNISIM-style primitives (`RAMB16_Sn`,
//! `LUT1..LUT4`, `FDRE`), with `INIT` generics carrying LUT truth tables
//! and BRAM contents.
//!
//! The output targets synthesis tools that understand UNISIM component
//! names; this workspace does not re-parse it (one-way export), but its
//! structure is golden-tested.

use crate::contents::init_strings;
use fpga_fabric::device::BramShape;
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use std::fmt::Write as _;

/// Renders a netlist as structural VHDL.
///
/// The entity gets one `std_logic` port per top-level input/output plus
/// `clk`. Net names are sanitized into VHDL identifiers; collisions get
/// numeric suffixes.
#[must_use]
pub fn render(netlist: &Netlist) -> String {
    let mut out = String::new();
    let entity = sanitize(&netlist.name);
    let sig = SignalNames::new(netlist);

    let _ = writeln!(out, "-- generated by romfsm (DATE 2004 reproduction)");
    let _ = writeln!(out, "library IEEE;");
    let _ = writeln!(out, "use IEEE.STD_LOGIC_1164.all;");
    let _ = writeln!(out, "library UNISIM;");
    let _ = writeln!(out, "use UNISIM.VComponents.all;");
    let _ = writeln!(out);
    let _ = writeln!(out, "entity {entity} is");
    let _ = writeln!(out, "  port (");
    let _ = writeln!(out, "    clk : in std_logic;");
    let mut ports: Vec<String> = Vec::new();
    for (name, _) in netlist.inputs() {
        ports.push(format!("    {} : in std_logic", sanitize(name)));
    }
    for (name, _) in netlist.outputs() {
        ports.push(format!("    {} : out std_logic", sanitize(name)));
    }
    let _ = writeln!(out, "{}", ports.join(";\n"));
    let _ = writeln!(out, "  );");
    let _ = writeln!(out, "end entity {entity};");
    let _ = writeln!(out);
    let _ = writeln!(out, "architecture structural of {entity} is");

    // Internal signal declarations (everything that is not a port input).
    let port_nets: std::collections::HashSet<NetId> =
        netlist.inputs().iter().map(|(_, n)| *n).collect();
    for i in 0..netlist.num_nets() {
        let net = NetId(i as u32);
        if !port_nets.contains(&net) {
            let _ = writeln!(out, "  signal {} : std_logic;", sig.of(net));
        }
    }
    let _ = writeln!(out, "begin");

    // Output port drivers.
    for (name, net) in netlist.outputs() {
        let _ = writeln!(out, "  {} <= {};", sanitize(name), sig.of(*net));
    }

    for (i, cell) in netlist.cells().iter().enumerate() {
        match cell {
            Cell::Lut {
                inputs,
                output,
                truth,
            } => {
                let k = inputs.len().max(1);
                let _ = writeln!(out, "  u{i} : LUT{k}");
                let width = 1usize << k;
                let _ = writeln!(
                    out,
                    "    generic map (INIT => X\"{:0w$X}\")",
                    truth,
                    w = (width / 4).max(1)
                );
                let mut pins: Vec<String> = inputs
                    .iter()
                    .enumerate()
                    .map(|(p, n)| format!("I{p} => {}", sig.of(*n)))
                    .collect();
                if inputs.is_empty() {
                    pins.push("I0 => '0'".to_string());
                }
                pins.push(format!("O => {}", sig.of(*output)));
                let _ = writeln!(out, "    port map ({});", pins.join(", "));
            }
            Cell::Ff { d, q, ce, init } => {
                let _ = writeln!(out, "  u{i} : FDRE");
                let _ = writeln!(out, "    generic map (INIT => '{}')", u8::from(*init));
                let ce_pin = ce.map_or("'1'".to_string(), |n| sig.of(n));
                let _ = writeln!(
                    out,
                    "    port map (C => clk, CE => {ce_pin}, R => '0', D => {}, Q => {});",
                    sig.of(*d),
                    sig.of(*q)
                );
            }
            Cell::Bram {
                shape,
                addr,
                dout,
                en,
                init,
                output_init,
            } => {
                let _ = writeln!(out, "  u{i} : {}", bram_component(*shape));
                let mut generics: Vec<String> = vec![format!("INIT => X\"{output_init:X}\"")];
                for line in init_strings(*shape, init) {
                    // init_strings emits `INIT_xx => X"..."` directly.
                    generics.push(line);
                }
                let _ = writeln!(out, "    generic map (");
                let _ = writeln!(out, "      {}", generics.join(",\n      "));
                let _ = writeln!(out, "    )");
                let mut pins: Vec<String> = vec![
                    "CLK => clk".to_string(),
                    format!("EN => {}", en.map_or("'1'".to_string(), |n| sig.of(n))),
                    "SSR => '0'".to_string(),
                    "WE => '0'".to_string(),
                ];
                for (b, n) in addr.iter().enumerate() {
                    pins.push(format!("ADDR({b}) => {}", sig.of(*n)));
                }
                for (b, n) in dout.iter().enumerate() {
                    pins.push(format!("DO({b}) => {}", sig.of(*n)));
                }
                pins.push("DI => (others => '0')".to_string());
                let _ = writeln!(out, "    port map ({});", pins.join(", "));
            }
            Cell::Const { output, value } => {
                let _ = writeln!(out, "  {} <= '{}';", sig.of(*output), u8::from(*value));
            }
        }
    }

    let _ = writeln!(out, "end architecture structural;");
    out
}

/// The UNISIM component name for a shape (single-port, Virtex-II era).
fn bram_component(shape: BramShape) -> &'static str {
    match shape.data_bits {
        36 => "RAMB16_S36",
        18 => "RAMB16_S18",
        9 => "RAMB16_S9",
        4 => "RAMB16_S4",
        2 => "RAMB16_S2",
        _ => "RAMB16_S1",
    }
}

/// VHDL-identifier sanitation: alphanumerics and single underscores,
/// starting with a letter.
fn sanitize(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    let mut last_us = false;
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            s.push(ch);
            last_us = false;
        } else if !last_us && !s.is_empty() {
            s.push('_');
            last_us = true;
        }
    }
    let s = s.trim_end_matches('_').to_string();
    if s.is_empty() || !s.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        format!("n_{s}")
    } else {
        s
    }
}

/// Unique VHDL names for every net.
struct SignalNames {
    names: Vec<String>,
}

impl SignalNames {
    fn new(netlist: &Netlist) -> Self {
        let mut seen = std::collections::HashMap::new();
        let names = (0..netlist.num_nets())
            .map(|i| {
                let base = sanitize(netlist.net_name(NetId(i as u32)));
                let n = seen.entry(base.clone()).or_insert(0usize);
                *n += 1;
                if *n == 1 {
                    base
                } else {
                    format!("{base}_{n}")
                }
            })
            .collect();
        SignalNames { names }
    }

    fn of(&self, net: NetId) -> String {
        self.names[net.index()].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_fsm_into_embs, EmbOptions};
    use fsm_model::benchmarks::sequence_detector_0101;

    #[test]
    fn emb_netlist_renders_with_bram_and_inits() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let vhdl = render(&emb.to_netlist());
        assert!(vhdl.contains("entity seq0101_emb is"));
        assert!(vhdl.contains("RAMB16_S36"));
        assert!(vhdl.contains("INIT_00 => X\""));
        assert!(vhdl.contains("clk : in std_logic"));
        assert!(vhdl.contains("in_0 : in std_logic"));
        assert!(vhdl.contains("out_0 : out std_logic"));
        // The detector's non-zero first init line must carry content.
        let line = vhdl
            .lines()
            .find(|l| l.contains("INIT_00"))
            .expect("INIT_00 present");
        assert!(line.chars().filter(|c| *c != '0').count() > 10);
    }

    #[test]
    fn ff_netlist_renders_with_luts_and_ffs() {
        let stg = sequence_detector_0101();
        let synth =
            logic_synth::synth::synthesize(&stg, logic_synth::synth::SynthOptions::default())
                .unwrap();
        let (n, _) = crate::baseline::ff_netlist(&synth, false);
        let vhdl = render(&n);
        assert!(vhdl.contains("FDRE"));
        assert!(vhdl.contains("LUT"));
        assert!(vhdl.contains("generic map (INIT =>"));
        // Every cell instantiated.
        let insts = vhdl.matches(" : LUT").count() + vhdl.matches(" : FDRE").count();
        assert_eq!(insts, n.cells().len());
    }

    #[test]
    fn clock_controlled_netlist_drives_en() {
        let stg = fsm_model::benchmarks::rotary_sequencer();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let (n, _) = crate::clock_control::attach_emb_clock_control(
            &emb,
            logic_synth::techmap::MapOptions::default(),
        )
        .unwrap();
        let vhdl = render(&n);
        assert!(vhdl.contains("EN => bram_en"), "EN wired to the enable net");
    }

    #[test]
    fn sanitize_produces_identifiers() {
        assert_eq!(sanitize("in_0"), "in_0");
        assert_eq!(sanitize("a b$c"), "a_b_c");
        assert_eq!(sanitize("0bad"), "n_0bad");
        assert_eq!(sanitize("__"), "n_");
        assert_eq!(sanitize("trailing_"), "trailing");
    }

    #[test]
    fn duplicate_net_names_are_uniquified() {
        let mut n = Netlist::new("dup");
        let a = n.add_net("x");
        let b = n.add_net("x");
        n.add_input("a", a);
        n.add_input("b", b);
        let sig = SignalNames::new(&n);
        assert_ne!(sig.of(a), sig.of(b));
    }
}
