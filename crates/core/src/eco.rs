//! Engineering-change-order (ECO) support: rewriting memory contents.
//!
//! One of the paper's selling points (Sec. 4.2): "the functionality of an
//! EMB-based FSM can be changed by changing the contents of the EMB …
//! much faster than going through the complete synthesis and placement
//! and routing process". [`rewrite`] recomputes the ROM for a modified
//! STG under the *existing* mapping decisions, and
//! [`apply_to_netlist`](EcoRewrite::apply_to_netlist) patches only the
//! BRAM `init` fields of an already placed-and-routed netlist.

use crate::map::{AddressPlan, EmbFsm, OutputRealization};
use crate::{compaction::CompactionPlan, contents};
use fpga_fabric::netlist::{Cell, Netlist};
use fsm_model::analysis::state_input_support;
use fsm_model::stg::Stg;
use std::fmt;

/// Errors from an ECO attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoError {
    /// The new machine's interface differs (inputs/outputs).
    InterfaceChanged,
    /// The new machine has more states than the encoding can host.
    TooManyStates {
        /// States in the new machine.
        new_states: usize,
        /// Codes available under the existing encoding width.
        capacity: usize,
    },
    /// A state now reads an input column outside its frozen mux selection
    /// (compacted mappings only).
    SupportEscapesMux {
        /// The state index.
        state: usize,
    },
    /// The existing mapping realizes outputs in LUTs; those are part of
    /// the placed logic and cannot be changed by a content rewrite.
    LutOutputsFrozen,
    /// The netlist does not look like it was produced by this mapping.
    NetlistMismatch(String),
    /// ECO requires the reset state to be state 0 in both machines so the
    /// frozen code assignment lines up.
    ResetNotStateZero,
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::InterfaceChanged => write!(f, "input/output widths changed"),
            EcoError::TooManyStates {
                new_states,
                capacity,
            } => {
                write!(
                    f,
                    "{new_states} states exceed the {capacity} available codes"
                )
            }
            EcoError::SupportEscapesMux { state } => write!(
                f,
                "state {state} now reads inputs outside its frozen mux selection"
            ),
            EcoError::LutOutputsFrozen => {
                write!(
                    f,
                    "LUT-realized outputs cannot be changed by rewriting memory"
                )
            }
            EcoError::NetlistMismatch(m) => write!(f, "netlist mismatch: {m}"),
            EcoError::ResetNotStateZero => {
                write!(f, "reset must be state 0 in both machines for an ECO")
            }
        }
    }
}

impl std::error::Error for EcoError {}

/// A computed content rewrite.
#[derive(Debug, Clone)]
pub struct EcoRewrite {
    /// The updated mapping (same physical decisions, new ROM).
    pub emb: EmbFsm,
    /// Number of logical words whose content changed.
    pub words_changed: usize,
}

/// Recomputes the ROM of `emb` for `new_stg`, keeping every physical
/// decision (encoding width, shape, compaction selections, bank/parallel
/// structure) frozen.
///
/// The new machine may rename or rewire states freely as long as it fits
/// the frozen resources; state *i* of the new machine takes code *i*'s
/// slot (the new reset state must therefore be state 0, matching the
/// cleared-latch convention).
///
/// # Errors
///
/// See [`EcoError`].
pub fn rewrite(emb: &EmbFsm, new_stg: &Stg) -> Result<EcoRewrite, EcoError> {
    if new_stg.num_inputs() != emb.stg.num_inputs()
        || new_stg.num_outputs() != emb.stg.num_outputs()
    {
        return Err(EcoError::InterfaceChanged);
    }
    if matches!(emb.outputs, OutputRealization::Luts(_)) {
        return Err(EcoError::LutOutputsFrozen);
    }
    if new_stg.reset_state().index() != 0 || emb.stg.reset_state().index() != 0 {
        return Err(EcoError::ResetNotStateZero);
    }
    let capacity = 1usize << emb.num_state_bits();
    if new_stg.num_states() > capacity {
        return Err(EcoError::TooManyStates {
            new_states: new_stg.num_states(),
            capacity,
        });
    }
    // Compaction: the frozen mux only routes each state's old columns.
    if let AddressPlan::Compacted(plan) = &emb.address {
        for st in new_stg.states() {
            if st.index() >= plan.sel.len() {
                // A brand-new state has no mux row at all: only legal if it
                // reads nothing.
                if !state_input_support(new_stg, st).is_empty() {
                    return Err(EcoError::SupportEscapesMux { state: st.index() });
                }
                continue;
            }
            let frozen: std::collections::BTreeSet<usize> =
                plan.sel[st.index()].iter().flatten().copied().collect();
            let needed = state_input_support(new_stg, st);
            if !needed.is_subset(&frozen) {
                return Err(EcoError::SupportEscapesMux { state: st.index() });
            }
        }
    }

    let encoding = fsm_model::encoding::StateEncoding::assign(new_stg, emb.encoding.style());
    let address = match &emb.address {
        AddressPlan::Direct => AddressPlan::Direct,
        AddressPlan::Compacted(plan) => {
            // Reuse the frozen selections, truncated/extended to the new
            // state count (new states with empty support get all-None).
            let mut sel = plan.sel.clone();
            sel.resize(new_stg.num_states(), vec![None; plan.width]);
            AddressPlan::Compacted(CompactionPlan {
                width: plan.width,
                sel,
            })
        }
    };
    let outputs_in_word = match emb.outputs {
        OutputRealization::InMemory => new_stg.num_outputs(),
        OutputRealization::Luts(_) => 0,
    };
    let rom = contents::logical_rom(new_stg, &encoding, &address, outputs_in_word);
    let words_changed = rom.iter().zip(&emb.rom).filter(|(a, b)| a != b).count()
        + rom.len().abs_diff(emb.rom.len());

    let mut updated = emb.clone();
    updated.stg = new_stg.clone();
    updated.encoding = encoding;
    updated.address = address;
    updated.rom = rom;
    Ok(EcoRewrite {
        emb: updated,
        words_changed,
    })
}

impl EcoRewrite {
    /// Patches the BRAM `init` fields of a netlist produced by the
    /// original mapping's [`EmbFsm::to_netlist`]. Placement, routing and
    /// every non-BRAM cell stay untouched — the "no design recompilation"
    /// property.
    ///
    /// # Errors
    ///
    /// Fails if the netlist's BRAM structure does not match the mapping.
    pub fn apply_to_netlist(&self, netlist: &mut Netlist) -> Result<(), EcoError> {
        // Regenerate the reference netlist to source the new init images.
        let fresh = self.emb.to_netlist();
        let new_inits: Vec<(usize, Vec<u64>)> = fresh
            .cells()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                Cell::Bram { init, .. } => Some((i, init.clone())),
                _ => None,
            })
            .collect();
        let old_bram_ids: Vec<usize> = netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Cell::Bram { .. }))
            .map(|(i, _)| i)
            .collect();
        if old_bram_ids.len() != new_inits.len() {
            return Err(EcoError::NetlistMismatch(format!(
                "{} BRAMs in netlist, {} in mapping",
                old_bram_ids.len(),
                new_inits.len()
            )));
        }
        for (old_idx, (_, new_init)) in old_bram_ids.iter().zip(new_inits) {
            netlist
                .replace_bram_init(*old_idx, new_init)
                .map_err(EcoError::NetlistMismatch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_fsm_into_embs, EmbOptions, OutputMode};
    use crate::verify::{verify_against_stg, OutputTiming};
    use fsm_model::benchmarks::sequence_detector_0101;
    use fsm_model::stg::StgBuilder;

    /// The 0101 detector changed to detect 0110 instead.
    fn detector_0110() -> fsm_model::stg::Stg {
        let mut b = StgBuilder::new("seq0110", 1, 1);
        let a = b.state("A");
        let s_b = b.state("B");
        let c = b.state("C");
        let d = b.state("D");
        b.transition(a, "0", s_b, "0");
        b.transition(a, "1", a, "0");
        b.transition(s_b, "1", c, "0");
        b.transition(s_b, "0", s_b, "0");
        b.transition(c, "1", d, "0");
        b.transition(c, "0", s_b, "0");
        b.transition(d, "0", s_b, "1"); // 0110 detected
        b.transition(d, "1", a, "0");
        b.build().unwrap()
    }

    #[test]
    fn rewrite_changes_function_without_touching_structure() {
        let old = sequence_detector_0101();
        let new = detector_0110();
        let emb = map_fsm_into_embs(&old, &EmbOptions::default()).unwrap();
        let mut netlist = emb.to_netlist();
        // Sanity: netlist implements the OLD machine.
        verify_against_stg(&netlist, &old, OutputTiming::Registered, 300, 60).unwrap();

        let eco = rewrite(&emb, &new).unwrap();
        assert!(eco.words_changed > 0);
        eco.apply_to_netlist(&mut netlist).unwrap();
        // Same structure, new function.
        verify_against_stg(&netlist, &new, OutputTiming::Registered, 300, 61).unwrap();
        assert!(
            verify_against_stg(&netlist, &old, OutputTiming::Registered, 300, 62).is_err(),
            "the function must actually have changed"
        );
    }

    #[test]
    fn interface_change_rejected() {
        let old = sequence_detector_0101();
        let emb = map_fsm_into_embs(&old, &EmbOptions::default()).unwrap();
        let mut b = StgBuilder::new("wide", 2, 1);
        let a = b.state("A");
        b.transition(a, "--", a, "0");
        let wide = b.build().unwrap();
        assert!(matches!(
            rewrite(&emb, &wide).unwrap_err(),
            EcoError::InterfaceChanged
        ));
    }

    #[test]
    fn too_many_states_rejected() {
        let old = sequence_detector_0101(); // 4 states, 2 bits, capacity 4
        let emb = map_fsm_into_embs(&old, &EmbOptions::default()).unwrap();
        let mut b = StgBuilder::new("five", 1, 1);
        let ids: Vec<_> = (0..5).map(|i| b.state(format!("s{i}"))).collect();
        for i in 0..5 {
            b.transition(ids[i], "-", ids[(i + 1) % 5], "0");
        }
        let five = b.build().unwrap();
        let err = rewrite(&emb, &five).unwrap_err();
        assert!(matches!(err, EcoError::TooManyStates { .. }));
    }

    #[test]
    fn lut_outputs_rejected() {
        let old = sequence_detector_0101();
        let emb = map_fsm_into_embs(
            &old,
            &EmbOptions {
                output_mode: OutputMode::MooreLuts,
                ..EmbOptions::default()
            },
        )
        .unwrap();
        let err = rewrite(&emb, &detector_0110()).unwrap_err();
        assert_eq!(err, EcoError::LutOutputsFrozen);
    }

    #[test]
    fn mux_escape_rejected() {
        // Compacted mapping; new machine makes state 0 read a column that
        // was never in its selection.
        let spec = fsm_model::generate::StgSpec {
            states: 8,
            inputs: 15,
            outputs: 2,
            transitions: 30,
            max_support: Some(2),
            ..fsm_model::generate::StgSpec::new("cmpeco")
        };
        let old = fsm_model::generate::generate(&spec).expect("generates");
        let emb = map_fsm_into_embs(&old, &EmbOptions::default()).unwrap();
        assert!(matches!(emb.address, AddressPlan::Compacted(_)));

        // Build a new machine: same states, but state 0 reads all inputs.
        let mut b = StgBuilder::new("escape", 15, 2);
        let ids: Vec<_> = (0..8).map(|i| b.state(format!("s{i}"))).collect();
        b.transition(ids[0], "111111111111111", ids[1], "00");
        b.transition(ids[0], "0--------------", ids[0], "00");
        b.transition(ids[0], "1------------0-", ids[0], "00");
        b.transition(ids[0], "1-----------0-1", ids[0], "00");
        // (remaining input space of s0 falls to the completion rule)
        for i in 1..8 {
            b.transition(ids[i], "---------------", ids[(i + 1) % 8], "00");
        }
        let new = b.build().unwrap();
        let err = rewrite(&emb, &new).unwrap_err();
        assert!(matches!(err, EcoError::SupportEscapesMux { state: 0 }));
    }
}
