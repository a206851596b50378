//! `Map_FSM_in_EMBs` — the paper's mapping algorithm (Fig. 5).
//!
//! Encodes the states, then fits the transition function into block RAM:
//!
//! 1. if `I + s` fits the address lines of some aspect ratio, pick the
//!    widest such shape (fewest BRAMs);
//! 2. if `O + s` exceeds the shape's data width, join BRAMs **in
//!    parallel** on the same address lines (lines 6–8);
//! 3. otherwise apply **column compaction** and a state-controlled input
//!    multiplexer (lines 11–14, Fig. 4);
//! 4. as a last resort join BRAMs **in series** (lines 16–18): extra
//!    address bits select among banks through an output multiplexer.
//!
//! Outputs can live in the memory words (Fig. 2: "some of the bits of the
//! output can be used for the FSM's output") or be regenerated from the
//! state bits by LUTs for Moore machines (Fig. 3); a Mealy machine is
//! first transformed to Moore in the latter mode, as the paper prescribes.

use crate::compaction::{mux_network, CompactionPlan};
use crate::contents;
use fpga_fabric::device::BramShape;
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fsm_model::encoding::{EncodingStyle, StateEncoding};
use fsm_model::machine;
use fsm_model::stg::Stg;
use logic_synth::cover::Cover;
use logic_synth::cube::Cube;
use logic_synth::decompose::decompose2;
use logic_synth::espresso;
use logic_synth::network::Network;
use logic_synth::techmap::{map_luts, LutNetwork, MapOptions};
use std::fmt;

/// How the FSM outputs are realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// Choose automatically: in-memory when the data width allows it with
    /// the same BRAM count, otherwise Moore-style LUT outputs.
    #[default]
    Auto,
    /// Outputs are stored in the memory words next to the state bits.
    InMemory,
    /// Outputs are regenerated from the state bits by LUTs (Fig. 3);
    /// Mealy machines are first transformed to Moore.
    MooreLuts,
}

/// Options for the mapping algorithm.
#[derive(Debug, Clone, Copy)]
pub struct EmbOptions {
    /// State encoding (binary is the paper's choice: state bits are
    /// address lines).
    pub encoding: EncodingStyle,
    /// Output realization.
    pub output_mode: OutputMode,
    /// Permit column compaction (Fig. 4). Disabling it forces the series
    /// fallback for wide machines — the ablation of DESIGN.md §5.3.
    pub allow_compaction: bool,
    /// Permit the series (bank) fallback.
    pub allow_series: bool,
    /// Cap on series banks (2^extra-address-bits).
    pub max_series_banks: usize,
    /// Technology-mapping options for auxiliary logic (mux / outputs).
    pub lut_map: MapOptions,
}

impl Default for EmbOptions {
    fn default() -> Self {
        EmbOptions {
            encoding: EncodingStyle::Binary,
            output_mode: OutputMode::Auto,
            allow_compaction: true,
            allow_series: true,
            max_series_banks: 16,
            lut_map: MapOptions::default(),
        }
    }
}

/// Errors from the mapping algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum MapFsmError {
    /// The machine does not fit even with compaction and the series
    /// fallback (or those were disabled).
    DoesNotFit {
        /// Address bits the machine needs after the allowed reductions.
        needed_addr_bits: usize,
        /// Address bits available (possibly extended by allowed banks).
        available: usize,
    },
    /// One-hot encoding cannot be used for EMB addressing.
    EncodingUnsupported(EncodingStyle),
    /// Auxiliary logic synthesis failed.
    Logic(String),
}

impl fmt::Display for MapFsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapFsmError::DoesNotFit {
                needed_addr_bits,
                available,
            } => write!(
                f,
                "FSM needs {needed_addr_bits} address bits, only {available} available"
            ),
            MapFsmError::EncodingUnsupported(e) => {
                write!(f, "{e} encoding is not usable as a BRAM address")
            }
            MapFsmError::Logic(e) => write!(f, "auxiliary logic synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for MapFsmError {}

/// How the address is formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressPlan {
    /// Raw FSM inputs on the low address lines.
    Direct,
    /// Compacted inputs through the state-controlled mux (Fig. 4).
    Compacted(CompactionPlan),
}

impl AddressPlan {
    /// Number of input address bits.
    #[must_use]
    pub fn input_bits(&self, num_inputs: usize) -> usize {
        match self {
            AddressPlan::Direct => num_inputs,
            AddressPlan::Compacted(p) => p.width,
        }
    }
}

/// Which mapping rung of the degradation ladder a mapping landed on.
/// Derived from the finished [`EmbFsm`] (address plan + bank count), so
/// outcome reports can histogram rungs without re-running the mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MapRung {
    /// Raw inputs on the address lines, a single bank.
    Direct,
    /// Column compaction through the state-controlled input mux (Fig. 4).
    Compacted,
    /// Series bank cascade (address width over the single-BRAM limit).
    Series,
}

impl MapRung {
    /// Stable lowercase label for histograms and JSON reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MapRung::Direct => "direct",
            MapRung::Compacted => "compacted",
            MapRung::Series => "series",
        }
    }
}

impl fmt::Display for MapRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The resolved output realization.
#[derive(Debug, Clone)]
pub enum OutputRealization {
    /// Output bits stored in memory words above the state bits.
    InMemory,
    /// Outputs regenerated from state bits by this LUT network (Fig. 3).
    Luts(LutNetwork),
}

/// A complete EMB mapping of one FSM.
#[derive(Debug, Clone)]
pub struct EmbFsm {
    /// The machine actually mapped (Moore-transformed when the output mode
    /// required it).
    pub stg: Stg,
    /// Name of the source machine.
    pub source_name: String,
    /// The state encoding (code 0 = reset, as required by the cleared
    /// output latches).
    pub encoding: StateEncoding,
    /// The chosen aspect ratio.
    pub shape: BramShape,
    /// Address formation.
    pub address: AddressPlan,
    /// Series banks (1 = no series join).
    pub banks: usize,
    /// Extra (bank-select) address bits handled by the output mux.
    pub series_bits: usize,
    /// BRAMs in parallel per bank.
    pub parallel: usize,
    /// Data bits per logical word (`s`, plus `O` when outputs are
    /// in-memory).
    pub data_width: usize,
    /// Output realization.
    pub outputs: OutputRealization,
    /// The input multiplexer (present iff `address` is compacted).
    pub input_mux: Option<LutNetwork>,
    /// Logical ROM: `2^(input_bits + s)` words of `data_width` bits.
    pub rom: Vec<u64>,
}

impl EmbFsm {
    /// Number of state bits `s`.
    #[must_use]
    pub fn num_state_bits(&self) -> usize {
        self.encoding.num_bits()
    }

    /// Total logical address bits (`input_bits + s`).
    #[must_use]
    pub fn logical_addr_bits(&self) -> usize {
        self.address.input_bits(self.stg.num_inputs()) + self.num_state_bits()
    }

    /// Total BRAMs used.
    #[must_use]
    pub fn num_brams(&self) -> usize {
        self.banks * self.parallel
    }

    /// The mapping rung this mapping landed on. Series joins subsume the
    /// compaction question (a cascade may also carry a compacted mux), so
    /// they report as [`MapRung::Series`].
    #[must_use]
    pub fn rung(&self) -> MapRung {
        if self.banks > 1 {
            MapRung::Series
        } else if matches!(self.address, AddressPlan::Compacted(_)) {
            MapRung::Compacted
        } else {
            MapRung::Direct
        }
    }

    /// LUTs in the auxiliary logic (input mux, Moore outputs, series
    /// output mux) — the EMB column of the paper's Table 1.
    #[must_use]
    pub fn aux_luts(&self) -> usize {
        let mux = self.input_mux.as_ref().map_or(0, LutNetwork::num_luts);
        let outs = match &self.outputs {
            OutputRealization::InMemory => 0,
            OutputRealization::Luts(l) => l.num_luts(),
        };
        let series = if self.banks > 1 {
            // One select LUT per data bit (bank mux).
            self.data_width * (self.banks - 1)
        } else {
            0
        };
        mux + outs + series
    }
}

/// Maps an FSM into embedded memory blocks (the algorithm of Fig. 5).
///
/// # Errors
///
/// Fails when the machine cannot fit the allowed BRAM organizations or
/// auxiliary logic synthesis fails.
pub fn map_fsm_into_embs(stg: &Stg, opts: &EmbOptions) -> Result<EmbFsm, MapFsmError> {
    if opts.encoding == EncodingStyle::OneHotZero {
        return Err(MapFsmError::EncodingUnsupported(opts.encoding));
    }

    // Resolve the output mode: LUT-realized (Moore) outputs shrink the
    // data word to just the state bits, possibly at the cost of a Moore
    // transform. Auto keeps outputs in memory (the paper's Fig. 2
    // default); the BRAM count is minimized below by compaction instead.
    let use_luts_for_outputs = match opts.output_mode {
        OutputMode::InMemory | OutputMode::Auto => false,
        OutputMode::MooreLuts => true,
    };

    let (mapped_stg, moore_outputs) = if use_luts_for_outputs {
        match machine::moore_outputs(stg) {
            Some(outs) => (stg.clone(), outs),
            None => {
                let moore =
                    machine::to_moore(stg).map_err(|e| MapFsmError::Logic(e.to_string()))?;
                let outs =
                    machine::moore_outputs(&moore).expect("to_moore produces a Moore machine");
                (moore, outs)
            }
        }
    } else {
        (stg.clone(), Vec::new())
    };

    let encoding = StateEncoding::assign(&mapped_stg, opts.encoding);
    let s = encoding.num_bits();
    let num_inputs = mapped_stg.num_inputs();
    let num_outputs = mapped_stg.num_outputs();
    let data_width = if use_luts_for_outputs {
        s
    } else {
        s + num_outputs
    };

    // Enumerate address-plan candidates and pick the one using the fewest
    // BRAMs. Fig. 5 presents compaction as the fallback when `I + s`
    // exceeds the address lines, but the paper also argues compaction "is
    // advantageous for power savings, as instantiating more EMBs increases
    // the power consumption" — so a compacted plan that reaches a wider
    // aspect ratio beats a direct plan that must join BRAMs in parallel.
    struct Candidate {
        address: AddressPlan,
        banks: usize,
        series_bits: usize,
        shape: BramShape,
        parallel: usize,
        needs_mux: bool,
    }
    let max_addr = BramShape::max_addr_bits();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut consider = |address: AddressPlan, needs_mux: bool| {
        let input_bits = address.input_bits(num_inputs);
        let addr_bits = input_bits + s;
        let (banks, series_bits, eff_addr) = if addr_bits <= max_addr {
            (1usize, 0usize, addr_bits)
        } else {
            if !opts.allow_series {
                return;
            }
            let series_bits = addr_bits - max_addr;
            if series_bits >= usize::BITS as usize || 1usize << series_bits > opts.max_series_banks
            {
                return;
            }
            (1usize << series_bits, series_bits, max_addr)
        };
        let shape = BramShape::widest_with_addr_bits(eff_addr)
            .expect("eff_addr <= max_addr by construction");
        let parallel = data_width.div_ceil(shape.data_bits).max(1);
        candidates.push(Candidate {
            address,
            banks,
            series_bits,
            shape,
            parallel,
            needs_mux,
        });
    };
    consider(AddressPlan::Direct, false);
    if opts.allow_compaction {
        let plan = CompactionPlan::build(&mapped_stg);
        if plan.width < num_inputs {
            consider(AddressPlan::Compacted(plan), true);
        }
    }
    // Fewest BRAMs; tie-break toward no mux (zero aux LUTs).
    candidates.sort_by_key(|c| (c.banks * c.parallel, usize::from(c.needs_mux)));
    let Some(chosen) = candidates.into_iter().next() else {
        return Err(MapFsmError::DoesNotFit {
            needed_addr_bits: num_inputs + s,
            available: max_addr
                + opts.max_series_banks.next_power_of_two().trailing_zeros() as usize,
        });
    };
    let Candidate {
        address,
        banks,
        series_bits,
        shape,
        parallel,
        needs_mux: _,
    } = chosen;

    // Auxiliary logic.
    let input_mux = match &address {
        AddressPlan::Direct => None,
        AddressPlan::Compacted(plan) => Some(
            mux_network(&mapped_stg, &encoding, plan, opts.lut_map)
                .map_err(|e| MapFsmError::Logic(e.to_string()))?,
        ),
    };
    let outputs = if use_luts_for_outputs {
        let luts = moore_output_network(&mapped_stg, &encoding, &moore_outputs, opts.lut_map)
            .map_err(|e| MapFsmError::Logic(e.to_string()))?;
        OutputRealization::Luts(luts)
    } else {
        OutputRealization::InMemory
    };

    let rom = contents::logical_rom(
        &mapped_stg,
        &encoding,
        &address,
        if use_luts_for_outputs { 0 } else { num_outputs },
    );

    Ok(EmbFsm {
        stg: mapped_stg,
        source_name: stg.name().to_string(),
        encoding,
        shape,
        address,
        banks,
        series_bits,
        parallel,
        data_width,
        outputs,
        input_mux,
        rom,
    })
}

/// Synthesizes the Moore output functions `out_j(state bits)` as LUTs
/// (Fig. 3), with unused state codes as don't-cares.
fn moore_output_network(
    stg: &Stg,
    encoding: &StateEncoding,
    moore_outputs: &[Vec<bool>],
    map: MapOptions,
) -> Result<LutNetwork, logic_synth::techmap::MapError> {
    let s = encoding.num_bits();
    let mut dcset = Cover::empty(s);
    let used: std::collections::HashSet<u64> = stg.states().map(|st| encoding.code(st)).collect();
    for code in 0..1u64 << s {
        if !used.contains(&code) {
            dcset.push(Cube::minterm(s, code));
        }
    }
    let mut network = Network::new();
    let st_ids: Vec<_> = (0..s)
        .map(|k| network.add_input(format!("st_{k}")))
        .collect();
    #[allow(clippy::needless_range_loop)]
    for j in 0..stg.num_outputs() {
        let mut onset = Cover::empty(s);
        for st in stg.states() {
            if moore_outputs[st.index()][j] {
                onset.push(Cube::minterm(s, encoding.code(st)));
            }
        }
        let minimized = espresso::minimize(&onset, &dcset).cover;
        let node = if minimized.is_empty() {
            network.add_constant(false)
        } else if minimized.cubes().iter().any(|c| c.num_literals() == 0) {
            network.add_constant(true)
        } else {
            network
                .add_logic(st_ids.clone(), pad_cover(&minimized, s))
                .expect("cover over all state bits")
        };
        network
            .add_output(format!("out_{j}"), node)
            .expect("node exists");
    }
    map_luts(&decompose2(&network), map)
}

/// Identity helper: the cover already spans `s` variables.
fn pad_cover(cover: &Cover, s: usize) -> Cover {
    debug_assert_eq!(cover.num_vars(), s);
    cover.clone()
}

impl EmbFsm {
    /// Emits the physical netlist: BRAM banks, address wiring, auxiliary
    /// LUTs and top-level ports. No enable logic is attached; see
    /// [`crate::clock_control`] for the Sec. 6 variant.
    #[must_use]
    pub fn to_netlist(&self) -> Netlist {
        self.to_netlist_with_enable(false).0
    }

    /// Like [`Self::to_netlist`], optionally reserving an enable input
    /// net. Returns the netlist and, when requested, the net that must be
    /// driven by enable logic (all BRAM `EN` pins are tied to it).
    #[must_use]
    #[allow(clippy::needless_range_loop)] // bank/bit/address indexing reads clearest
    pub fn to_netlist_with_enable(&self, with_enable: bool) -> (Netlist, Option<NetId>) {
        let stg = &self.stg;
        let s = self.num_state_bits();
        let num_inputs = stg.num_inputs();
        let num_outputs = stg.num_outputs();
        let input_bits = self.address.input_bits(num_inputs);

        let mut n = Netlist::new(format!("{}_emb", self.source_name));
        let in_nets: Vec<NetId> = (0..num_inputs)
            .map(|j| n.add_net(format!("in_{j}")))
            .collect();
        for (j, net) in in_nets.iter().enumerate() {
            n.add_input(format!("in_{j}"), *net);
        }

        // State-bit nets come from the (first-bank) BRAM outputs; with
        // multiple banks they come from the bank output mux.
        let st_nets: Vec<NetId> = (0..s).map(|k| n.add_net(format!("st_{k}"))).collect();
        let data_nets: Vec<NetId> = if matches!(self.outputs, OutputRealization::InMemory) {
            (0..num_outputs)
                .map(|j| n.add_net(format!("mem_out_{j}")))
                .collect()
        } else {
            Vec::new()
        };
        // Full logical data bus: state bits then in-memory outputs.
        let word_nets: Vec<NetId> = st_nets.iter().chain(data_nets.iter()).copied().collect();
        debug_assert_eq!(word_nets.len(), self.data_width);

        // Address input bits: raw inputs or mux outputs.
        let addr_input_nets: Vec<NetId> = match (&self.address, &self.input_mux) {
            (AddressPlan::Direct, _) => in_nets.clone(),
            (AddressPlan::Compacted(_), Some(mux)) => {
                let mux_inputs: Vec<NetId> =
                    in_nets.iter().chain(st_nets.iter()).copied().collect();
                crate::netlist_build::instantiate_luts(&mut n, mux, &mux_inputs, "mux")
            }
            (AddressPlan::Compacted(_), None) => unreachable!("compaction implies a mux"),
        };
        debug_assert_eq!(addr_input_nets.len(), input_bits);

        // Logical address: inputs low, state bits high.
        let logical_addr: Vec<NetId> = addr_input_nets
            .iter()
            .chain(st_nets.iter())
            .copied()
            .collect();

        let en_net = if with_enable {
            Some(n.add_net("bram_en"))
        } else {
            None
        };

        // Ground net for unused address pins.
        let mut ground: Option<NetId> = None;
        let mut ground_net = |n: &mut Netlist| -> NetId {
            if let Some(g) = ground {
                return g;
            }
            let g = n.add_net("gnd");
            n.add_cell(Cell::Const {
                output: g,
                value: false,
            });
            ground = Some(g);
            g
        };

        // Per-bank data-out nets (before the bank mux).
        let low_addr_bits = self.logical_addr_bits() - self.series_bits;
        let mut bank_word_nets: Vec<Vec<NetId>> = Vec::with_capacity(self.banks);
        for bank in 0..self.banks {
            let mut bank_nets = Vec::with_capacity(self.data_width);
            for bit in 0..self.data_width {
                if self.banks == 1 {
                    bank_nets.push(word_nets[bit]);
                } else {
                    bank_nets.push(n.add_net(format!("bank{bank}_d{bit}")));
                }
            }
            bank_word_nets.push(bank_nets);
        }

        // Physical BRAMs: `parallel` slices per bank.
        for bank in 0..self.banks {
            for p in 0..self.parallel {
                let lo_bit = p * self.shape.data_bits;
                let hi_bit = ((p + 1) * self.shape.data_bits).min(self.data_width);
                let dout: Vec<NetId> = (lo_bit..hi_bit).map(|b| bank_word_nets[bank][b]).collect();
                // Address pins: logical low bits, padded with ground.
                let mut addr: Vec<NetId> = logical_addr[..low_addr_bits].to_vec();
                while addr.len() < self.shape.addr_bits {
                    addr.push(ground_net(&mut n));
                }
                // Init: slice of the logical ROM for this bank and bit range.
                let depth = self.shape.depth();
                let mut init = vec![0u64; depth];
                let bank_base = bank << low_addr_bits;
                for a in 0..(1usize << low_addr_bits).min(depth) {
                    let word = self.rom[bank_base + a];
                    init[a] = (word >> lo_bit) & mask_bits(hi_bit - lo_bit);
                }
                n.add_cell(Cell::Bram {
                    shape: self.shape,
                    addr,
                    dout,
                    en: en_net,
                    init,
                    output_init: 0,
                });
            }
        }

        // Bank output mux. The select must be the high state bits of the
        // address used for the *previous* read (the bank that produced the
        // currently-latched word), so they are registered in FFs fed by
        // the muxed state outputs — this also breaks what would otherwise
        // be a combinational cycle through the mux.
        if self.banks > 1 {
            let sel_nets: Vec<NetId> = (0..self.series_bits)
                .map(|k| n.add_net(format!("bank_sel{k}")))
                .collect();
            let s_base = s - self.series_bits;
            for (k, q) in sel_nets.iter().enumerate() {
                n.add_cell(Cell::Ff {
                    d: st_nets[s_base + k],
                    q: *q,
                    ce: en_net,
                    init: false,
                });
            }
            for bit in 0..self.data_width {
                // Build a 2^series_bits : 1 mux as a cascade of 2:1 LUT3s.
                let mut level: Vec<NetId> =
                    (0..self.banks).map(|b| bank_word_nets[b][bit]).collect();
                for (stage, sel) in sel_nets.iter().enumerate() {
                    let mut next = Vec::with_capacity(level.len() / 2);
                    for pair in level.chunks(2) {
                        let out = n.add_net(format!("bmux_s{stage}_b{bit}_{}", next.len()));
                        // LUT3: inputs [a, b, sel] -> sel ? b : a.
                        let mut truth = 0u64;
                        for m in 0..8u64 {
                            let a = m & 1 == 1;
                            let b2 = m >> 1 & 1 == 1;
                            let sv = m >> 2 & 1 == 1;
                            if if sv { b2 } else { a } {
                                truth |= 1 << m;
                            }
                        }
                        n.add_cell(Cell::Lut {
                            inputs: vec![pair[0], pair.get(1).copied().unwrap_or(pair[0]), *sel],
                            output: out,
                            truth,
                        });
                        next.push(out);
                    }
                    level = next;
                }
                // level[0] is the selected bit; alias onto the word net via
                // a buffer LUT (word nets were created up front).
                n.add_cell(Cell::Lut {
                    inputs: vec![level[0]],
                    output: word_nets[bit],
                    truth: 0b10,
                });
            }
        }

        // Outputs.
        match &self.outputs {
            OutputRealization::InMemory => {
                for (j, net) in data_nets.iter().enumerate() {
                    n.add_output(format!("out_{j}"), *net);
                }
            }
            OutputRealization::Luts(luts) => {
                let outs = crate::netlist_build::instantiate_luts(&mut n, luts, &st_nets, "out");
                for (j, net) in outs.iter().enumerate() {
                    n.add_output(format!("out_{j}"), *net);
                }
            }
        }
        (n, en_net)
    }
}

fn mask_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_model::benchmarks::{sequence_detector_0101, traffic_light};

    #[test]
    fn detector_maps_to_single_bram() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        assert_eq!(emb.num_state_bits(), 2);
        assert_eq!(emb.logical_addr_bits(), 3);
        assert_eq!(emb.num_brams(), 1);
        assert_eq!(emb.banks, 1);
        assert!(matches!(emb.address, AddressPlan::Direct));
        assert!(matches!(emb.outputs, OutputRealization::InMemory));
        assert_eq!(emb.aux_luts(), 0);
        // Widest shape: 512x36.
        assert_eq!(emb.shape.data_bits, 36);
    }

    #[test]
    fn fig2_memory_map_matches_paper() {
        // The paper's Fig. 2: state A=00, and from A on input 0 the next
        // state is B with output 0. Our encoding assigns codes in reset-
        // first order: A=0, B=1, C=2, D=3 (A is reset).
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        // Address layout: [input, st0, st1]; word: [ns0, ns1, out].
        // A (00) + input 0 -> B (01), out 0: address 000 -> word 01 0.
        assert_eq!(emb.rom[0b000], 0b001);
        // A + input 1 -> A, out 0: address 001 -> 000.
        assert_eq!(emb.rom[0b001], 0b000);
        // D (11) + input 1 -> C (10), out 1: address 111 -> word: ns=2,
        // out=1 -> 0b110.
        assert_eq!(emb.rom[0b111], 0b110);
    }

    #[test]
    fn parallel_join_when_outputs_are_wide() {
        // 40 outputs + state bits exceed 36 data bits -> 2 BRAMs parallel.
        let mut b = fsm_model::stg::StgBuilder::new("wide", 1, 40);
        let a = b.state("A");
        let c = b.state("B");
        let ones = "1".repeat(40);
        let zeros = "0".repeat(40);
        b.transition(a, "1", c, &ones);
        b.transition(a, "0", a, &zeros);
        b.transition(c, "-", a, &zeros);
        let stg = b.build().unwrap();
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                output_mode: OutputMode::InMemory,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        assert_eq!(emb.data_width, 41);
        assert_eq!(emb.parallel, 2);
        assert_eq!(emb.num_brams(), 2);
    }

    #[test]
    fn compaction_triggers_for_wide_inputs() {
        // 16 inputs, but each state reads at most 2: fits after compaction.
        let spec = fsm_model::generate::StgSpec {
            states: 8,
            inputs: 16,
            outputs: 2,
            transitions: 32,
            max_support: Some(2),
            ..fsm_model::generate::StgSpec::new("wide_in")
        };
        let stg = fsm_model::generate::generate(&spec).expect("generates");
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        assert!(matches!(emb.address, AddressPlan::Compacted(_)));
        assert!(emb.input_mux.is_some());
        assert!(emb.aux_luts() > 0);
        assert_eq!(emb.banks, 1);
        assert!(emb.logical_addr_bits() <= 14);
    }

    #[test]
    fn series_fallback_when_compaction_disabled() {
        let spec = fsm_model::generate::StgSpec {
            states: 4,
            inputs: 13,
            outputs: 1,
            transitions: 16,
            max_support: Some(2),
            ..fsm_model::generate::StgSpec::new("wide13")
        };
        let stg = fsm_model::generate::generate(&spec).expect("generates");
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                allow_compaction: false,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        // 13 inputs + 2 state bits = 15 > 14: one extra bit -> 2 banks.
        assert_eq!(emb.banks, 2);
        assert_eq!(emb.series_bits, 1);
        assert!(emb.num_brams() >= 2);
    }

    #[test]
    fn does_not_fit_reported() {
        let spec = fsm_model::generate::StgSpec {
            states: 4,
            inputs: 20,
            outputs: 1,
            transitions: 16,
            max_support: Some(20),
            ..fsm_model::generate::StgSpec::new("huge")
        };
        let stg = fsm_model::generate::generate(&spec).expect("generates");
        let err = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                allow_compaction: false,
                allow_series: false,
                ..EmbOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MapFsmError::DoesNotFit { .. }));
    }

    #[test]
    fn moore_lut_outputs_for_moore_machine() {
        let stg = traffic_light();
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                output_mode: OutputMode::MooreLuts,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(emb.outputs, OutputRealization::Luts(_)));
        assert_eq!(emb.data_width, emb.num_state_bits());
        let n = emb.to_netlist();
        assert_eq!(n.outputs().len(), stg.num_outputs());
        n.validate().unwrap();
    }

    #[test]
    fn mealy_machine_transforms_for_lut_outputs() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                output_mode: OutputMode::MooreLuts,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        assert!(emb.stg.num_states() > stg.num_states(), "Moore split");
        assert!(matches!(emb.outputs, OutputRealization::Luts(_)));
    }

    #[test]
    fn one_hot_rejected() {
        let stg = sequence_detector_0101();
        let err = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                encoding: EncodingStyle::OneHotZero,
                ..EmbOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, MapFsmError::EncodingUnsupported(_)));
    }

    #[test]
    fn netlists_validate() {
        for opts in [
            EmbOptions::default(),
            EmbOptions {
                output_mode: OutputMode::MooreLuts,
                ..EmbOptions::default()
            },
        ] {
            let stg = sequence_detector_0101();
            let emb = map_fsm_into_embs(&stg, &opts).unwrap();
            emb.to_netlist().validate().unwrap();
            let (n, en) = emb.to_netlist_with_enable(true);
            // With an undriven enable net the netlist must NOT validate
            // until the caller wires it (API contract check).
            assert!(en.is_some());
            assert!(n.validate().is_err());
        }
    }
}
