//! Memory-content generation.
//!
//! "The memory contents are programmed with next state address location
//! which is formed in conjunction with the inputs to the FSM" (Sec. 1).
//! This module computes the logical ROM of a mapping and renders it both
//! as a human-readable memory map (the paper's Fig. 2 table) and as
//! Xilinx-style `INIT_xx` attribute strings — the equivalent of the
//! authors' "C program to automatically generate the VHDL initialization
//! string for these blockrams" (Sec. 5).

use crate::map::AddressPlan;
use fpga_fabric::device::BramShape;
use fsm_model::encoding::StateEncoding;
use fsm_model::pattern::index_to_bits;
use fsm_model::stg::Stg;

/// Computes the logical ROM of a mapping.
///
/// Address layout: input bits (raw or compacted) on the low lines, state
/// bits above them. Word layout: next-state code on the low bits, then
/// `outputs_in_word` output bits.
///
/// Addresses whose state field is not a valid code hold 0 (they are
/// unreachable: state bits only ever carry valid codes).
#[must_use]
pub fn logical_rom(
    stg: &Stg,
    encoding: &StateEncoding,
    address: &AddressPlan,
    outputs_in_word: usize,
) -> Vec<u64> {
    let s = encoding.num_bits();
    let input_bits = address.input_bits(stg.num_inputs());
    let mut rom = vec![0u64; 1 << (input_bits + s)];
    for st in stg.states() {
        let code = encoding.code(st);
        for a in 0..1u64 << input_bits {
            let inputs = match address {
                AddressPlan::Direct => index_to_bits(a, stg.num_inputs()),
                AddressPlan::Compacted(plan) => {
                    plan.expand_inputs(st, &index_to_bits(a, input_bits), stg.num_inputs())
                }
            };
            let (next, outs) = stg.step(st, &inputs);
            let mut word = encoding.code(next);
            if outputs_in_word > 0 {
                for (j, bit) in outs.iter().take(outputs_in_word).enumerate() {
                    if *bit {
                        word |= 1 << (s + j);
                    }
                }
            }
            let addr = a | code << input_bits;
            rom[addr as usize] = word;
        }
    }
    rom
}

/// Renders a logical ROM as a memory-map table in the style of the
/// paper's Fig. 2 (one row per address, binary fields).
#[must_use]
pub fn memory_map_table(
    stg: &Stg,
    encoding: &StateEncoding,
    rom: &[u64],
    input_bits: usize,
    outputs_in_word: usize,
) -> String {
    use std::fmt::Write as _;
    let s = encoding.num_bits();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>width$}  {:<8} {:<10} {:<8} {}",
        "address",
        "state",
        "next",
        "ns bits",
        if outputs_in_word > 0 { "outputs" } else { "" },
        width = input_bits + s + 2
    );
    for (addr, word) in rom.iter().enumerate() {
        let code = (addr >> input_bits) as u64;
        let state = encoding.decode(code);
        let next_code = word & ((1 << s) - 1);
        let next = encoding.decode(next_code);
        let addr_str: String = (0..input_bits + s)
            .rev()
            .map(|b| if addr >> b & 1 == 1 { '1' } else { '0' })
            .collect();
        let ns_str: String = (0..s)
            .rev()
            .map(|b| if next_code >> b & 1 == 1 { '1' } else { '0' })
            .collect();
        let outs: String = (0..outputs_in_word)
            .rev()
            .map(|j| if word >> (s + j) & 1 == 1 { '1' } else { '0' })
            .collect();
        let _ = writeln!(
            out,
            "{:>width$}  {:<8} {:<10} {:<8} {}",
            addr_str,
            state.map_or("-", |st| stg.state_name(st)),
            next.map_or("-", |st| stg.state_name(st)),
            ns_str,
            outs,
            width = input_bits + s + 2
        );
    }
    out
}

/// Renders the physical init of one BRAM slice as Xilinx `INIT_xx`
/// attribute strings: 64 lines of 256 bits each for an 18-Kbit BRAM
/// (data bits only, parity handled as ordinary data).
///
/// `words` are `shape.depth()` entries of `shape.data_bits` each, packed
/// LSB-first into the bit stream exactly as ISE's bitgen does.
#[must_use]
pub fn init_strings(shape: BramShape, words: &[u64]) -> Vec<String> {
    // Total data bits (16384 for x1..x4; 18432 for the x9/x18/x36 family).
    let total_bits = shape.depth() * shape.data_bits;
    let mut bits = vec![false; total_bits];
    for (a, w) in words.iter().enumerate() {
        for b in 0..shape.data_bits {
            bits[a * shape.data_bits + b] = w >> b & 1 == 1;
        }
    }
    let lines = total_bits.div_ceil(256);
    (0..lines)
        .map(|line| {
            let mut hex = String::with_capacity(64 + 12);
            use std::fmt::Write as _;
            let _ = write!(hex, "INIT_{line:02X} => X\"");
            // 256 bits = 64 nibbles, most significant first.
            for nib in (0..64).rev() {
                let mut v = 0u8;
                for k in 0..4 {
                    let idx = line * 256 + nib * 4 + k;
                    if idx < total_bits && bits[idx] {
                        v |= 1 << k;
                    }
                }
                let _ = write!(hex, "{v:X}");
            }
            hex.push('"');
            hex
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_fsm_into_embs, EmbOptions};
    use fsm_model::benchmarks::sequence_detector_0101;

    #[test]
    fn rom_matches_step_semantics() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let s = emb.num_state_bits();
        for st in stg.states() {
            let code = emb.encoding.code(st);
            for input in [false, true] {
                let (next, outs) = stg.step(st, &[input]);
                let addr = u64::from(input) | code << 1;
                let word = emb.rom[addr as usize];
                assert_eq!(
                    word & ((1 << s) - 1),
                    emb.encoding.code(next),
                    "state {st} input {input}"
                );
                assert_eq!(word >> s & 1 == 1, outs[0]);
            }
        }
    }

    #[test]
    fn memory_map_is_readable() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let table = memory_map_table(&stg, &emb.encoding, &emb.rom, 1, 1);
        assert!(table.contains('A'));
        assert!(table.lines().count() >= 9, "{table}");
    }

    #[test]
    fn init_strings_shape() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut words = vec![0u64; 512];
        words[0] = 0xF; // low nibble of the stream
        let lines = init_strings(shape, &words);
        // 512*36 = 18432 bits = 72 lines of 256 bits.
        assert_eq!(lines.len(), 72);
        assert!(lines[0].starts_with("INIT_00 => X\""));
        assert!(lines[0].ends_with("F\""), "word 0 occupies the low nibble");
        // Every line is 64 hex digits.
        for l in &lines {
            let hex = l.split('"').nth(1).unwrap();
            assert_eq!(hex.len(), 64);
        }
    }

    #[test]
    fn init_strings_roundtrip_bits() {
        let shape = BramShape {
            addr_bits: 14,
            data_bits: 1,
        };
        let mut words = vec![0u64; 16384];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from(i % 7 == 0);
        }
        let lines = init_strings(shape, &words);
        assert_eq!(lines.len(), 64);
        // Decode line 0, bit 0 (LSB of last hex digit) = word 0.
        let hex0 = lines[0].split('"').nth(1).unwrap();
        let last = hex0.chars().last().unwrap().to_digit(16).unwrap();
        assert_eq!(last & 1, 1, "word 0 is set");
    }
}
