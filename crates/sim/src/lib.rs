//! Cycle-based FPGA netlist simulation with switching-activity recording.
//!
//! Stands in for the paper's post-place-and-route ModelSim run (Fig. 6):
//! drive the mapped design with stimulus, record per-net toggle counts
//! (the `.vcd` content XPower consumes), and honour the block-RAM enable
//! port that the clock-control technique of Sec. 6 exercises.
//!
//! * [`kernel`] — the simulator: the 64-lane bit-parallel
//!   [`kernel::BatchSimulator`] (one `u64` word per net, 64 independent
//!   simulations per clock) and its [`kernel::Activity`] record. Power,
//!   every verifier and the fault campaign run on it; a single stream is
//!   lane 0 ([`kernel::BatchSimulator::run_sequential`]);
//! * [`stimulus`] — deterministic random / biased / constant input streams;
//! * [`vcd`] — a minimal VCD writer for waveform inspection.
//!
//! The evaluation order is [`fpga_fabric::schedule::Schedule`], shared
//! with the static-timing kernel. The scalar engine the kernel is tested
//! against lives in the test-only `oracle` crate.
//!
//! # Examples
//!
//! ```
//! use fpga_fabric::netlist::{Cell, Netlist};
//! use netsim::BatchSimulator;
//!
//! // A 1-bit toggler: q' = !q.
//! let mut n = Netlist::new("toggle");
//! let q = n.add_net("q");
//! let d = n.add_net("d");
//! n.add_cell(Cell::Lut { inputs: vec![q], output: d, truth: 0b01 });
//! n.add_cell(Cell::Ff { d, q, ce: None, init: false });
//! n.add_output("q", q);
//!
//! let mut sim = BatchSimulator::new(&n)?;
//! sim.run_sequential(&[vec![]]);
//! assert_eq!(sim.lane_outputs(0), vec![true]);
//! sim.run_sequential(&[vec![]]);
//! assert_eq!(sim.lane_outputs(0), vec![false]);
//! assert_eq!(sim.activity().cycles, 2);
//! # Ok::<(), fpga_fabric::netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod kernel;
pub mod stimulus;
pub mod vcd;

pub use kernel::{Activity, BatchSimulator};
pub use vcd::VcdRecorder;
