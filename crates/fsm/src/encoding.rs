//! State encodings.
//!
//! The number of flip-flops (or BRAM address bits) an FSM needs depends on
//! the encoding (paper Sec. 4.1). Three classic styles are provided:
//!
//! * **Binary** (sequential): `ceil(log2 N)` bits — what the EMB mapping
//!   uses, since state bits feed BRAM address lines.
//! * **Gray**: same width, adjacent codes differ in one bit (lower switching
//!   activity on the state register).
//! * **One-hot**: `N` bits — common for LUT-based FPGA FSMs.
//!
//! For the EMB mapping the paper requires the reset state to live at the
//! address formed by the *cleared* output latches, i.e. address 0
//! (Sec. 4.2). All encoders therefore assign code 0 to the reset state.

use crate::stg::{StateId, Stg};
use std::fmt;

/// The encoding style to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingStyle {
    /// Sequential binary encoding, `ceil(log2 N)` bits.
    #[default]
    Binary,
    /// Gray-code encoding, `ceil(log2 N)` bits.
    Gray,
    /// One-hot encoding, `N` bits (reset state gets the all-zero code so the
    /// cleared register is legal; this is the "one-hot with zero reset"
    /// variant, sometimes called one-hot-zero or "almost one-hot").
    OneHotZero,
}

impl fmt::Display for EncodingStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingStyle::Binary => write!(f, "binary"),
            EncodingStyle::Gray => write!(f, "gray"),
            EncodingStyle::OneHotZero => write!(f, "one-hot"),
        }
    }
}

/// A concrete assignment of codes to states.
///
/// Codes are little-endian: bit 0 of the code is state bit 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateEncoding {
    style: EncodingStyle,
    bits: usize,
    codes: Vec<u64>,
}

impl StateEncoding {
    /// Encodes the states of `stg` with the requested style.
    ///
    /// The reset state always receives code 0.
    ///
    /// # Panics
    ///
    /// Panics if the machine has more than 2^63 states (impossible in
    /// practice) or, for one-hot, more than 64 states with the compact
    /// `u64` code representation — callers map such machines with binary
    /// encoding anyway.
    #[must_use]
    pub fn assign(stg: &Stg, style: EncodingStyle) -> Self {
        let n = stg.num_states();
        let reset = stg.reset_state().index();
        match style {
            EncodingStyle::Binary | EncodingStyle::Gray => {
                let bits = bits_for_states(n);
                // Order: reset first, then remaining states in id order.
                let mut codes = vec![0u64; n];
                let mut seq: Vec<usize> = Vec::with_capacity(n);
                seq.push(reset);
                seq.extend((0..n).filter(|&i| i != reset));
                for (next, s) in seq.into_iter().enumerate() {
                    let next = next as u64;
                    codes[s] = if style == EncodingStyle::Gray {
                        next ^ (next >> 1)
                    } else {
                        next
                    };
                }
                StateEncoding { style, bits, codes }
            }
            EncodingStyle::OneHotZero => {
                assert!(n <= 64, "one-hot u64 codes support at most 64 states");
                let bits = (n - 1).max(1);
                let mut codes = vec![0u64; n];
                let mut hot = 0usize;
                for (s, code) in codes.iter_mut().enumerate() {
                    if s != reset {
                        *code = 1u64 << hot;
                        hot += 1;
                    }
                }
                StateEncoding { style, bits, codes }
            }
        }
    }

    /// [`StateEncoding::assign`] widened to at least `min_bits` state
    /// bits: codes are unchanged, only the declared width grows. The
    /// extra high bits are zero for every code, so a memory table built
    /// from a padded encoding places all reachable words in the low
    /// `2^(inputs + bits_for_states(n))` addresses — exactly what a
    /// fixed-geometry overlay base needs to host machines of any state
    /// count up to its padded capacity.
    ///
    /// Padding a one-hot encoding is refused (its width is already the
    /// state count; widening it has no overlay meaning).
    pub fn assign_padded(stg: &Stg, style: EncodingStyle, min_bits: usize) -> Result<Self, String> {
        if style == EncodingStyle::OneHotZero {
            return Err("one-hot encodings cannot be width-padded".to_string());
        }
        if min_bits > 63 {
            return Err(format!("padded state width {min_bits} exceeds 63 bits"));
        }
        let mut enc = StateEncoding::assign(stg, style);
        enc.bits = enc.bits.max(min_bits);
        Ok(enc)
    }

    /// The style used.
    #[must_use]
    pub fn style(&self) -> EncodingStyle {
        self.style
    }

    /// Number of state bits `s`.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.bits
    }

    /// The code assigned to `state`, as a little-endian packed integer.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn code(&self, state: StateId) -> u64 {
        self.codes[state.index()]
    }

    /// The code assigned to `state`, as a bit vector (`bits()` long).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn code_bits(&self, state: StateId) -> Vec<bool> {
        let c = self.code(state);
        (0..self.bits).map(|i| (c >> i) & 1 == 1).collect()
    }

    /// Finds the state with the given code, if any.
    #[must_use]
    pub fn decode(&self, code: u64) -> Option<StateId> {
        self.codes
            .iter()
            .position(|&c| c == code)
            .map(|i| StateId(i as u32))
    }
}

/// Bits needed to binary-encode `n` states (at least 1).
#[must_use]
pub fn bits_for_states(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stg::StgBuilder;

    fn machine(n: usize, reset_idx: usize) -> Stg {
        let mut b = StgBuilder::new("m", 1, 1);
        let ids: Vec<StateId> = (0..n).map(|i| b.state(format!("s{i}"))).collect();
        for i in 0..n {
            b.transition(ids[i], "-", ids[(i + 1) % n], "0");
        }
        b.reset(ids[reset_idx]);
        b.build().unwrap()
    }

    #[test]
    fn bits_for_states_is_ceil_log2() {
        assert_eq!(bits_for_states(1), 1);
        assert_eq!(bits_for_states(2), 1);
        assert_eq!(bits_for_states(3), 2);
        assert_eq!(bits_for_states(4), 2);
        assert_eq!(bits_for_states(5), 3);
        assert_eq!(bits_for_states(16), 4);
        assert_eq!(bits_for_states(17), 5);
        assert_eq!(bits_for_states(48), 6);
    }

    #[test]
    fn binary_codes_are_unique_and_reset_is_zero() {
        for reset in [0usize, 3] {
            let stg = machine(7, reset);
            let enc = StateEncoding::assign(&stg, EncodingStyle::Binary);
            assert_eq!(enc.num_bits(), 3);
            assert_eq!(enc.code(stg.reset_state()), 0);
            let mut seen: Vec<u64> = stg.states().map(|s| enc.code(s)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 7);
            assert!(seen.iter().all(|&c| c < 8));
        }
    }

    #[test]
    fn gray_adjacent_codes_differ_in_one_bit() {
        let stg = machine(8, 0);
        let enc = StateEncoding::assign(&stg, EncodingStyle::Gray);
        // Collect codes in assignment sequence (reset, then id order).
        let mut codes: Vec<u64> = Vec::new();
        codes.push(enc.code(stg.reset_state()));
        for s in stg.states() {
            if s != stg.reset_state() {
                codes.push(enc.code(s));
            }
        }
        for w in codes.windows(2) {
            assert_eq!((w[0] ^ w[1]).count_ones(), 1, "{:b} vs {:b}", w[0], w[1]);
        }
    }

    #[test]
    fn one_hot_zero_shape() {
        let stg = machine(5, 2);
        let enc = StateEncoding::assign(&stg, EncodingStyle::OneHotZero);
        assert_eq!(enc.num_bits(), 4);
        assert_eq!(enc.code(stg.reset_state()), 0);
        for s in stg.states() {
            let c = enc.code(s);
            assert!(c.count_ones() <= 1);
        }
    }

    #[test]
    fn decode_inverts_code() {
        let stg = machine(6, 1);
        for style in [
            EncodingStyle::Binary,
            EncodingStyle::Gray,
            EncodingStyle::OneHotZero,
        ] {
            let enc = StateEncoding::assign(&stg, style);
            for s in stg.states() {
                assert_eq!(enc.decode(enc.code(s)), Some(s), "style {style}");
            }
            assert_eq!(enc.decode(u64::MAX), None);
        }
    }

    #[test]
    fn code_bits_matches_code() {
        let stg = machine(5, 0);
        let enc = StateEncoding::assign(&stg, EncodingStyle::Binary);
        for s in stg.states() {
            let bits = enc.code_bits(s);
            let packed = bits
                .iter()
                .enumerate()
                .fold(0u64, |a, (i, &b)| a | (u64::from(b) << i));
            assert_eq!(packed, enc.code(s));
        }
    }

    #[test]
    fn padded_encoding_widens_without_moving_codes() {
        let stg = machine(7, 3);
        let plain = StateEncoding::assign(&stg, EncodingStyle::Binary);
        let padded = StateEncoding::assign_padded(&stg, EncodingStyle::Binary, 6).unwrap();
        assert_eq!(plain.num_bits(), 3);
        assert_eq!(padded.num_bits(), 6);
        for s in stg.states() {
            assert_eq!(plain.code(s), padded.code(s));
            assert_eq!(padded.code_bits(s).len(), 6);
        }
        // A min width below the natural width is a no-op.
        let narrow = StateEncoding::assign_padded(&stg, EncodingStyle::Binary, 2).unwrap();
        assert_eq!(narrow.num_bits(), 3);
        // One-hot refuses padding with a typed error, not a panic.
        assert!(StateEncoding::assign_padded(&stg, EncodingStyle::OneHotZero, 6).is_err());
        assert!(StateEncoding::assign_padded(&stg, EncodingStyle::Binary, 64).is_err());
    }

    #[test]
    fn single_state_machine_encodes() {
        let stg = machine(1, 0);
        let enc = StateEncoding::assign(&stg, EncodingStyle::Binary);
        assert_eq!(enc.num_bits(), 1);
        assert_eq!(enc.code(StateId(0)), 0);
    }
}
