//! Test-only oracles for the production simulator and verifier.
//!
//! The library ships one gate-level simulator, the 64-lane
//! [`netsim::kernel::BatchSimulator`], and every proof and sample in
//! `emb_fsm::verify` runs on it. This crate holds one-value-per-net
//! implementations of the same jobs, as independent references:
//!
//! * [`engine::Simulator`] — the scalar simulator the kernel must match
//!   lane for lane (the workspace's kernel property suite);
//! * [`verify_against_stg_scalar`], [`verify_exhaustive_scalar`] and
//!   [`netlists_equivalent_scalar`] — the scalar sampled lockstep and the
//!   scalar product walks the kernel-backed verifiers must match result
//!   for result, witness for witness (the walk-exactness suite), and the
//!   baseline of the substrates bench's batched-walk ratio. Each has its
//!   production counterpart's contract: the same preconditions (shared,
//!   not copied), the same stimulus and edge order, and so the same
//!   reports and first-divergence witnesses.
//!
//! Only `[dev-dependencies]` name this crate; `scripts/verify.sh` fails
//! when a library or the benchmark package depends on it normally.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;

pub use engine::Simulator;

use emb_fsm::verify::{
    check_exhaustive_bounds, check_interface, check_pair_bounds, ExhaustiveReport, OutputTiming,
    VerifyError,
};
use fpga_fabric::netlist::{Cell, Netlist};
use fsm_model::simulate::StgSimulator;
use fsm_model::stg::Stg;
use netsim::stimulus;
use std::collections::{HashSet, VecDeque};

/// The outputs `sim` shows at the sample point of `timing`, cut to the
/// machine's `num_outputs`.
fn sampled(sim: &Simulator<'_>, timing: OutputTiming, num_outputs: usize) -> Vec<bool> {
    let all = match timing {
        OutputTiming::Registered => sim.outputs(),
        OutputTiming::Combinational => sim.pre_edge_outputs().to_vec(),
    };
    all[..num_outputs].to_vec()
}

/// The sequential snapshot of `sim`: FF values and BRAM output latches,
/// in netlist cell order.
fn snapshot(netlist: &Netlist, sim: &Simulator<'_>) -> Vec<bool> {
    let mut v = Vec::new();
    for cell in netlist.cells() {
        match cell {
            Cell::Ff { q, .. } => v.push(sim.value(*q)),
            Cell::Bram { dout, .. } => v.extend(dout.iter().map(|d| sim.value(*d))),
            _ => {}
        }
    }
    v
}

/// The input vector of minterm `m`, LSB-first: input `i` is bit `i`.
fn minterm_inputs(m: u64, num_inputs: usize) -> Vec<bool> {
    (0..num_inputs).map(|i| m >> i & 1 == 1).collect()
}

/// Scalar lockstep simulation next to [`StgSimulator`] over the random
/// stimulus `emb_fsm::verify::verify_against_stg` draws.
///
/// # Errors
///
/// Identical contract to `verify_against_stg`: the first divergence, or
/// a structural error.
pub fn verify_against_stg_scalar(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    cycles: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    check_interface(netlist, stg)?;
    let mut hw = Simulator::new(netlist)?;
    let mut oracle = StgSimulator::new(stg);
    for (cycle, inputs) in stimulus::random(stg.num_inputs(), cycles, seed)
        .into_iter()
        .enumerate()
    {
        let expected = oracle.clock(&inputs).to_vec();
        hw.clock(&inputs);
        let got = sampled(&hw, timing, stg.num_outputs());
        if got != expected {
            return Err(VerifyError::Mismatch {
                cycle,
                inputs,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// The scalar exhaustive product walk: every reachable (oracle state,
/// implementation state) pair expanded under all `2^I` input vectors, one
/// cloned simulator pair per edge, breadth first.
///
/// # Errors
///
/// Identical contract to `verify_exhaustive`: a minimal witness on
/// divergence, `InputsTooWide` when enumeration is infeasible.
pub fn verify_exhaustive_scalar(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    max_inputs: usize,
) -> Result<ExhaustiveReport, VerifyError> {
    check_exhaustive_bounds(netlist, stg, max_inputs)?;
    let base = Simulator::new(netlist)?;

    // Joint state key: oracle (state, latched outputs) + implementation
    // sequential snapshot.
    type Key = (u32, Vec<bool>, Vec<bool>);
    let oracle0 = StgSimulator::new(stg);
    let key0: Key = (
        oracle0.state().0,
        oracle0.outputs().to_vec(),
        snapshot(netlist, &base),
    );
    let mut seen: HashSet<Key> = HashSet::new();
    seen.insert(key0);
    // BFS queue holds (oracle, implementation, input trace to reach it).
    let mut queue: VecDeque<(StgSimulator<'_>, Simulator<'_>, Vec<Vec<bool>>)> = VecDeque::new();
    queue.push_back((oracle0, base, Vec::new()));

    let num_inputs = stg.num_inputs();
    let mut states_explored = 0usize;
    let mut edges_checked = 0usize;
    while let Some((oracle, hw, trace)) = queue.pop_front() {
        states_explored += 1;
        for m in 0..1u64 << num_inputs {
            let inputs = minterm_inputs(m, num_inputs);
            let mut o2 = oracle.clone();
            let mut h2 = hw.clone();
            let expected = o2.clock(&inputs).to_vec();
            h2.clock(&inputs);
            let got = sampled(&h2, timing, stg.num_outputs());
            edges_checked += 1;
            if got != expected {
                return Err(VerifyError::Mismatch {
                    cycle: trace.len(),
                    inputs,
                    expected,
                    got,
                });
            }
            let key: Key = (o2.state().0, o2.outputs().to_vec(), snapshot(netlist, &h2));
            if seen.insert(key) {
                let mut w = trace.clone();
                w.push(inputs);
                queue.push_back((o2, h2, w));
            }
        }
    }
    Ok(ExhaustiveReport {
        states_explored,
        edges_checked,
    })
}

/// The scalar pairwise product walk of `netlists_equivalent`.
///
/// # Errors
///
/// Identical contract to `netlists_equivalent`.
pub fn netlists_equivalent_scalar(
    a: &Netlist,
    b: &Netlist,
    max_inputs: usize,
) -> Result<bool, VerifyError> {
    let num_inputs = check_pair_bounds(a, b, max_inputs)?;
    let sa = Simulator::new(a)?;
    let sb = Simulator::new(b)?;
    let mut seen = HashSet::new();
    seen.insert((snapshot(a, &sa), snapshot(b, &sb)));
    let mut queue = VecDeque::new();
    queue.push_back((sa, sb));
    while let Some((sa, sb)) = queue.pop_front() {
        for m in 0..1u64 << num_inputs {
            let inputs = minterm_inputs(m, num_inputs);
            let mut a2 = sa.clone();
            let mut b2 = sb.clone();
            a2.clock(&inputs);
            b2.clock(&inputs);
            if a2.outputs() != b2.outputs() {
                return Ok(false);
            }
            if seen.insert((snapshot(a, &a2), snapshot(b, &b2))) {
                queue.push_back((a2, b2));
            }
        }
    }
    Ok(true)
}
