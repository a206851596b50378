//! Mapping finite-state machines into FPGA embedded memory blocks —
//! the core contribution of Tiwari & Tomko, DATE 2004.
//!
//! An FSM's transition function is programmed into an on-chip block RAM:
//! the registered data outputs carry the state (and, space permitting,
//! the outputs) and feed back into the address lines together with the
//! FSM inputs. Compared with the conventional FF + LUT realization this
//! uses almost no programmable logic or routing, its timing is
//! independent of FSM complexity, its function can be changed by
//! rewriting memory contents, and — with the enable-driven clock control
//! of the paper's Sec. 6 — the memory is simply not clocked while the
//! machine idles.
//!
//! * [`map`] — the `Map_FSM_in_EMBs` algorithm (Fig. 5) and netlist
//!   generation;
//! * [`compaction`] — per-state don't-care column removal and the input
//!   multiplexer (Fig. 4);
//! * [`contents`] — ROM computation, memory maps (Fig. 2), `INIT_xx`
//!   strings;
//! * [`clock_control`] — idle detection and enable synthesis (Sec. 6);
//! * [`baseline`] — the FF + LUT reference implementation (Fig. 1a);
//! * [`blif_flow`] — implement externally synthesized BLIF netlists
//!   (real SIS output) through the same physical flow;
//! * [`verify`] — lockstep equivalence against the STG oracle;
//! * [`stimulus`] — idle-biased input streams (Table 3's 50%-idle case);
//! * [`eco`] — content rewrites without re-place-and-route;
//! * [`overlay`] — pre-placed, pre-routed overlay bases shared by whole
//!   classes of machines; per-FSM compile is a memory-content update;
//! * [`flow`] — end-to-end implement/simulate/estimate pipelines
//!   (Fig. 6) producing the rows of the paper's tables;
//! * [`vhdl`] — structural VHDL export with UNISIM primitives and
//!   `INIT_xx` generics (the paper's deliverable format).
//!
//! # Examples
//!
//! Map the paper's 0101 sequence detector (Fig. 2) and inspect the
//! memory map:
//!
//! ```
//! use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
//! use fsm_model::benchmarks::sequence_detector_0101;
//!
//! let stg = sequence_detector_0101();
//! let emb = map_fsm_into_embs(&stg, &EmbOptions::default())?;
//! assert_eq!(emb.num_brams(), 1);
//! // State A (code 00) on input 0 goes to B (code 01) with output 0:
//! assert_eq!(emb.rom[0b000], 0b001);
//! # Ok::<(), emb_fsm::map::MapFsmError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod blif_flow;
pub mod cache;
pub mod clock_control;
pub mod compaction;
pub mod contents;
pub mod eco;
pub mod faultinject;
pub mod flow;
pub mod map;
pub mod netlist_build;
pub mod overlay;
pub mod stimulus;
pub mod verify;
pub mod vhdl;

pub use clock_control::{attach_emb_clock_control, synthesize_enable, ClockControl};
pub use flow::{
    emb_clock_controlled_flow, emb_flow, emb_overlay_flow, ff_clock_gated_flow, ff_flow,
    FlowConfig, FlowReport, ImplKind, MapBackend, StageTimings, Stimulus,
};
pub use map::{map_fsm_into_embs, EmbFsm, EmbOptions, MapFsmError, OutputMode};
