//! Seeded fault injection for robustness testing.
//!
//! Each injector takes an intact artifact and a seed and produces a
//! *targeted* corruption — a single semantic mutation of the kind real
//! defects introduce (a wrong next-state, a flipped output bit, a
//! corrupted LUT truth table or ROM word) — together with a description
//! of the fault. The same seed always produces the same fault, so a
//! failing injection case is a one-line reproduction.
//!
//! The point of these is the workspace's robustness guarantee: any
//! corrupted-but-well-formed artifact pushed through the flow must come
//! back as a typed [`FlowError`](crate::flow::FlowError) (usually a
//! verification mismatch) or a flagged degraded report — never a panic.

use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fpga_fabric::place::{EcoPlacement, PinnedEntities};
use fsm_model::pattern::Trit;
use fsm_model::stg::{StateId, Stg};
use std::fmt;
use xrand::SmallRng;

/// A single targeted STG corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgFault {
    /// Transition `index` now targets a different state.
    RedirectTransition {
        /// Transition index in [`Stg::transitions`].
        index: usize,
        /// The wrong destination.
        to: StateId,
    },
    /// One output trit of transition `index` was flipped
    /// (`0 -> 1`, `1 -> 0`, `- -> 1`).
    FlipOutputBit {
        /// Transition index.
        index: usize,
        /// Output bit position.
        bit: usize,
    },
    /// Transition `index` was deleted (its input space falls through to
    /// lower-priority rows or the completion rule).
    DropTransition {
        /// Transition index.
        index: usize,
    },
    /// A conflicting copy of transition `index` (same condition, different
    /// destination) was inserted *before* it, shadowing it by priority.
    ShadowTransition {
        /// Transition index that is now shadowed.
        index: usize,
    },
    /// The reset state was moved.
    SwapReset {
        /// The wrong reset state.
        to: StateId,
    },
}

impl fmt::Display for StgFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgFault::RedirectTransition { index, to } => {
                write!(f, "transition {index} redirected to state {to}")
            }
            StgFault::FlipOutputBit { index, bit } => {
                write!(f, "transition {index} output bit {bit} flipped")
            }
            StgFault::DropTransition { index } => write!(f, "transition {index} dropped"),
            StgFault::ShadowTransition { index } => {
                write!(f, "transition {index} shadowed by a conflicting copy")
            }
            StgFault::SwapReset { to } => write!(f, "reset moved to state {to}"),
        }
    }
}

/// A single targeted netlist corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistFault {
    /// One truth-table bit of a LUT cell was flipped.
    FlipLutTruthBit {
        /// Cell index in [`Netlist::cells`].
        cell: usize,
        /// Minterm whose entry was flipped.
        bit: u32,
    },
    /// A flip-flop's power-on value was inverted.
    FlipFfInit {
        /// Cell index.
        cell: usize,
    },
    /// One bit of a BRAM's initial contents (the ROM) was flipped.
    FlipBramInitBit {
        /// Cell index.
        cell: usize,
        /// Word address.
        word: usize,
        /// Bit within the word.
        bit: u32,
    },
}

impl fmt::Display for NetlistFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistFault::FlipLutTruthBit { cell, bit } => {
                write!(f, "LUT cell {cell} truth bit {bit} flipped")
            }
            NetlistFault::FlipFfInit { cell } => write!(f, "FF cell {cell} init inverted"),
            NetlistFault::FlipBramInitBit { cell, word, bit } => {
                write!(f, "BRAM cell {cell} word {word} bit {bit} flipped")
            }
        }
    }
}

/// A single targeted corruption of an ECO placement artifact.
///
/// These model the defects the incremental-placement contract exists to
/// catch: a pinned base entity that silently drifted off its coordinate,
/// and an enable-cone entity that vanished from the placement entirely.
/// Every fault in this class must be rejected by
/// [`fpga_fabric::place::verify_eco_placement`] as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoFault {
    /// A *pinned* entity's coordinate was moved to a different (legal)
    /// site of its kind, violating the pin.
    MovePinnedCoordinate {
        /// Entity kind ("CLBs", "BRAMs" or "IOBs").
        kind: &'static str,
        /// Entity index within the kind.
        index: usize,
        /// The pinned coordinate the entity was at.
        from: (usize, usize),
        /// Where the fault moved it.
        to: (usize, usize),
    },
    /// A movable (enable-cone) entity's placement entry was deleted, so
    /// the coordinate list no longer covers the packed design.
    DropConeEntity {
        /// Entity kind.
        kind: &'static str,
        /// Entity index within the kind.
        index: usize,
    },
}

impl fmt::Display for EcoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoFault::MovePinnedCoordinate {
                kind,
                index,
                from,
                to,
            } => write!(f, "pinned {kind} {index} moved from {from:?} to {to:?}"),
            EcoFault::DropConeEntity { kind, index } => {
                write!(f, "cone {kind} {index} dropped from the placement")
            }
        }
    }
}

/// Produces a corrupted copy of `eco` with exactly one seeded ECO fault,
/// or `None` when the artifact admits no corruption (no entities, or every
/// kind has a single legal site so pins cannot move).
///
/// The corruption targets the ECO *contract* rather than bit-level state:
/// either a pinned coordinate stops honouring its pin, or a cone entity's
/// placement disappears. Both must surface as typed
/// [`EcoPlaceError`](fpga_fabric::place::EcoPlaceError)s, never panics.
#[must_use]
pub fn corrupt_eco(
    eco: &EcoPlacement,
    pins: &PinnedEntities,
    seed: u64,
) -> Option<(EcoPlacement, EcoFault)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let device = eco.placement.device;
    // Candidate mutations: (class, kind index, entity index). Class 0
    // moves a pinned coordinate (needs somewhere else to move to); class 1
    // drops a movable entity's placement entry.
    let mut candidates: Vec<(u8, usize, usize)> = Vec::new();
    let kind_pins: [&Vec<Option<(usize, usize)>>; 3] = [&pins.clb, &pins.bram, &pins.iob];
    let site_count = [
        device.clb_sites().len(),
        device.bram_sites().len(),
        device.iob_sites().len(),
    ];
    for (k, pin) in kind_pins.iter().enumerate() {
        for (i, p) in pin.iter().enumerate() {
            match p {
                Some(_) if site_count[k] > 1 => candidates.push((0, k, i)),
                None => candidates.push((1, k, i)),
                _ => {}
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (class, k, index) = candidates[rng.random_range(0..candidates.len())];
    let mut corrupted = eco.clone();
    let (kind, loc, sites) = match k {
        0 => ("CLBs", &mut corrupted.placement.clb_loc, device.clb_sites()),
        1 => (
            "BRAMs",
            &mut corrupted.placement.bram_loc,
            device.bram_sites(),
        ),
        _ => ("IOBs", &mut corrupted.placement.iob_loc, device.iob_sites()),
    };
    let fault = if class == 0 {
        let from = loc[index];
        let pick = rng.random_range(0..sites.len());
        let to = if sites[pick] == from {
            sites[(pick + 1) % sites.len()]
        } else {
            sites[pick]
        };
        loc[index] = to;
        EcoFault::MovePinnedCoordinate {
            kind,
            index,
            from,
            to,
        }
    } else {
        loc.remove(index);
        EcoFault::DropConeEntity { kind, index }
    };
    Some((corrupted, fault))
}

/// Produces a corrupted copy of `stg` with exactly one seeded semantic
/// fault, or `None` when the machine is too degenerate to corrupt (a
/// single state and no transitions admits no observable mutation).
///
/// The corrupted machine is still *well-formed* — widths, state ids and
/// the reset all validate — so it exercises the flow's semantic checks,
/// not its input validation.
#[must_use]
pub fn corrupt_stg(stg: &Stg, seed: u64) -> Option<(Stg, StgFault)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let num_t = stg.transitions().len();
    let num_s = stg.num_states();

    // Enumerate the fault classes this machine admits.
    let mut classes: Vec<u8> = Vec::new();
    if num_t > 0 && num_s >= 2 {
        classes.push(0); // redirect
    }
    if num_t > 0 && stg.num_outputs() > 0 {
        classes.push(1); // flip output
    }
    if num_t > 0 {
        classes.push(2); // drop
    }
    if num_t > 0 && num_s >= 2 {
        classes.push(3); // shadow
    }
    if num_s >= 2 {
        classes.push(4); // swap reset
    }
    if classes.is_empty() {
        return None;
    }
    let class = classes[rng.random_range(0..classes.len())];

    let mut transitions = stg.transitions().to_vec();
    let mut reset = stg.reset_state();
    let other_state = |rng: &mut SmallRng, not: StateId| -> StateId {
        let mut idx = rng.random_range(0..num_s - 1);
        if idx >= not.index() {
            idx += 1;
        }
        StateId(idx as u32)
    };

    let fault = match class {
        0 => {
            let index = rng.random_range(0..num_t);
            let to = other_state(&mut rng, transitions[index].to);
            transitions[index].to = to;
            StgFault::RedirectTransition { index, to }
        }
        1 => {
            let index = rng.random_range(0..num_t);
            let bit = rng.random_range(0..stg.num_outputs());
            let flipped = match transitions[index].output.trit(bit) {
                Trit::Zero | Trit::DontCare => Trit::One,
                Trit::One => Trit::Zero,
            };
            transitions[index].output.set(bit, flipped);
            StgFault::FlipOutputBit { index, bit }
        }
        2 => {
            let index = rng.random_range(0..num_t);
            transitions.remove(index);
            StgFault::DropTransition { index }
        }
        3 => {
            let index = rng.random_range(0..num_t);
            let mut shadow = transitions[index].clone();
            shadow.to = other_state(&mut rng, shadow.to);
            transitions.insert(index, shadow);
            StgFault::ShadowTransition { index }
        }
        _ => {
            let to = other_state(&mut rng, reset);
            reset = to;
            StgFault::SwapReset { to }
        }
    };

    let names: Vec<String> = stg
        .states()
        .map(|s| stg.state_name(s).to_string())
        .collect();
    let corrupted = Stg::new(
        stg.name().to_string(),
        stg.num_inputs(),
        stg.num_outputs(),
        names,
        transitions,
        reset,
    )
    .expect("single-fault corruption preserves STG well-formedness");
    Some((corrupted, fault))
}

/// Deterministically picks the single bit-level fault that seed `seed`
/// injects into `netlist`, without materializing the corrupted copy, or
/// `None` when the netlist holds no corruptible cell.
///
/// This is the seed→fault map shared by [`corrupt_netlist`] (which
/// rebuilds a corrupted netlist) and the batched
/// [`netlist_fault_campaign`] (which applies the same fault to one lane
/// of a [`BatchSimulator`](netsim::kernel::BatchSimulator)): both paths
/// see the identical fault for the identical seed.
#[must_use]
pub fn pick_netlist_fault(netlist: &Netlist, seed: u64) -> Option<NetlistFault> {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Candidate cells: index plus what can be flipped there.
    let candidates: Vec<usize> = netlist
        .cells()
        .iter()
        .enumerate()
        .filter(|(_, c)| match c {
            Cell::Lut { .. } | Cell::Ff { .. } => true,
            Cell::Bram { init, .. } => !init.is_empty(),
            Cell::Const { .. } => false,
        })
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let target = candidates[rng.random_range(0..candidates.len())];

    Some(match &netlist.cells()[target] {
        Cell::Lut { inputs, .. } => {
            let bit = rng.random_range(0..1u64 << inputs.len().min(6)) as u32;
            NetlistFault::FlipLutTruthBit { cell: target, bit }
        }
        Cell::Ff { .. } => NetlistFault::FlipFfInit { cell: target },
        Cell::Bram {
            addr, dout, init, ..
        } => {
            // Targeted BRAM corruption: only words a non-tied address can
            // reach and only data bits that are wired out are worth
            // flipping (the rest of the init plane is padding that no
            // simulation can observe).
            let drivers = netlist.driver_map();
            let live_addr = addr
                .iter()
                .filter(|net| {
                    !matches!(
                        drivers.get(net).map(|id| &netlist.cells()[id.index()]),
                        Some(Cell::Const { value: false, .. })
                    )
                })
                .count();
            let bram_words = (1usize << live_addr.min(20)).min(init.len());
            let bram_bits = dout.len().max(1);
            let word = rng.random_range(0..bram_words.max(1));
            let bit = rng.random_range(0..bram_bits) as u32;
            NetlistFault::FlipBramInitBit {
                cell: target,
                word,
                bit,
            }
        }
        Cell::Const { .. } => unreachable!("constants are filtered out"),
    })
}

/// Produces a corrupted copy of `netlist` with exactly one seeded bit-level
/// fault in a LUT truth table, FF init value, or BRAM ROM word, or `None`
/// when the netlist holds no corruptible cell.
#[must_use]
pub fn corrupt_netlist(netlist: &Netlist, seed: u64) -> Option<(Netlist, NetlistFault)> {
    let fault = pick_netlist_fault(netlist, seed)?;
    let target = match fault {
        NetlistFault::FlipLutTruthBit { cell, .. }
        | NetlistFault::FlipFfInit { cell }
        | NetlistFault::FlipBramInitBit { cell, .. } => cell,
    };
    let corrupted = rebuild_with(netlist, target, |cell| match (&fault, cell) {
        (NetlistFault::FlipLutTruthBit { bit, .. }, Cell::Lut { truth, .. }) => {
            *truth ^= 1u64 << bit;
        }
        (NetlistFault::FlipFfInit { .. }, Cell::Ff { init, .. }) => {
            *init = !*init;
        }
        (NetlistFault::FlipBramInitBit { word, bit, .. }, Cell::Bram { init, .. }) => {
            init[*word] ^= 1u64 << bit;
        }
        _ => unreachable!("fault kind matches the targeted cell kind"),
    });
    Some((corrupted, fault))
}

/// Outcome of one case in a batched netlist fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The seed that produced the fault.
    pub seed: u64,
    /// The injected fault.
    pub fault: NetlistFault,
    /// First cycle (0-based) at which the faulty variant's outputs
    /// diverged from the intact oracle, or `None` when the fault stayed
    /// silent over the whole stimulus (e.g. it hit an unreachable word).
    pub detected_at: Option<usize>,
}

/// Runs a seeded single-fault detection campaign on the bit-parallel
/// kernel: up to 64 faulty variants of `netlist` share one
/// [`BatchSimulator`](netsim::kernel::BatchSimulator) batch — per-lane
/// truth-table, FF power-on and BRAM image edits model the faults of
/// [`pick_netlist_fault`] — and all lanes are driven by the same
/// deterministic stimulus and compared against the same STG oracle trace.
///
/// Each case's result is what [`corrupt_netlist`] +
/// [`verify_against_stg`](crate::verify::verify_against_stg) with the
/// same seed reports, through the same lockstep loop: the same fault,
/// detected at the same cycle.
///
/// Seeds whose netlist admits no corruption are skipped (the returned
/// vector is then empty).
///
/// # Errors
///
/// The [`check_interface`](crate::verify::check_interface) error when the
/// netlist's ports do not fit the machine, or a structural error from
/// netlist validation.
pub fn netlist_fault_campaign(
    netlist: &Netlist,
    stg: &Stg,
    timing: crate::verify::OutputTiming,
    seeds: std::ops::Range<u64>,
    cycles: usize,
    stim_seed: u64,
) -> Result<Vec<FaultOutcome>, crate::verify::VerifyError> {
    use fsm_model::simulate::StgSimulator;
    use netsim::kernel::{BatchSimulator, LANES};

    crate::verify::check_interface(netlist, stg)?;
    let cases: Vec<(u64, NetlistFault)> = seeds
        .filter_map(|s| pick_netlist_fault(netlist, s).map(|f| (s, f)))
        .collect();
    if cases.is_empty() {
        return Ok(Vec::new());
    }

    // One oracle trace serves every lane of every batch: all variants are
    // driven by the same stimulus.
    let stimulus = netsim::stimulus::random(stg.num_inputs(), cycles, stim_seed);
    let mut oracle = StgSimulator::new(stg);
    let expected: Vec<Vec<bool>> = stimulus.iter().map(|v| oracle.clock(v).to_vec()).collect();

    let mut outcomes = Vec::with_capacity(cases.len());
    for chunk in cases.chunks(LANES) {
        let mut sim = BatchSimulator::new(netlist)?;
        for (lane, (_, fault)) in chunk.iter().enumerate() {
            let applied = match *fault {
                NetlistFault::FlipLutTruthBit { cell, bit } => sim.flip_lane_truth(cell, lane, bit),
                NetlistFault::FlipBramInitBit { cell, word, bit } => {
                    sim.flip_lane_bram_init(cell, lane, word, bit)
                }
                NetlistFault::FlipFfInit { cell } => {
                    match &netlist.cells()[cell] {
                        // The power-on flip: override the lane's q after
                        // reset. The next clock's settle propagates it.
                        Cell::Ff { q, init, .. } => sim.set_lane_value(*q, lane, !init),
                        _ => unreachable!("FlipFfInit targets an FF"),
                    }
                    Ok(())
                }
            };
            assert!(
                applied.is_ok(),
                "picked fault must be applicable to its own netlist"
            );
        }
        let detected = crate::verify::lockstep(&mut sim, timing, &stimulus, &expected, chunk.len());
        for ((seed, fault), detected_at) in chunk.iter().zip(detected) {
            outcomes.push(FaultOutcome {
                seed: *seed,
                fault: fault.clone(),
                detected_at: detected_at.map(|(cycle, _)| cycle),
            });
        }
    }
    Ok(outcomes)
}

/// Clones `netlist` applying `mutate` to the cell at `target`.
fn rebuild_with(netlist: &Netlist, target: usize, mutate: impl FnOnce(&mut Cell)) -> Netlist {
    let mut n = Netlist::new(netlist.name.clone());
    for i in 0..netlist.num_nets() {
        n.add_net(netlist.net_name(NetId(i as u32)).to_string());
    }
    let mut mutate = Some(mutate);
    for (i, cell) in netlist.cells().iter().enumerate() {
        let mut cell = cell.clone();
        if i == target {
            if let Some(m) = mutate.take() {
                m(&mut cell);
            }
        }
        n.add_cell(cell);
    }
    for (name, net) in netlist.inputs() {
        n.add_input(name.clone(), *net);
    }
    for (name, net) in netlist.outputs() {
        n.add_output(name.clone(), *net);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{map_fsm_into_embs, EmbOptions};
    use crate::verify::{verify_against_stg, OutputTiming, VerifyError};
    use fsm_model::benchmarks::sequence_detector_0101;

    #[test]
    fn stg_corruption_is_deterministic() {
        let stg = sequence_detector_0101();
        let (a, fa) = corrupt_stg(&stg, 42).unwrap();
        let (b, fb) = corrupt_stg(&stg, 42).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(a, b);
        // A different seed eventually picks a different fault.
        let differs = (0..32).any(|s| corrupt_stg(&stg, s).unwrap().1 != fa);
        assert!(differs, "seeds collapse to one fault");
    }

    #[test]
    fn degenerate_machines_yield_none_or_valid() {
        // Single state, no transitions: nothing observable to corrupt.
        let mut b = fsm_model::stg::StgBuilder::new("unit", 0, 0);
        b.state("only");
        let stg = b.build().unwrap();
        assert!(corrupt_stg(&stg, 7).is_none());
        // Empty netlist: nothing to corrupt.
        let n = Netlist::new("empty");
        assert!(corrupt_netlist(&n, 7).is_none());
    }

    #[test]
    fn netlist_corruption_flips_exactly_one_cell() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let netlist = emb.to_netlist();
        let (corrupted, fault) = corrupt_netlist(&netlist, 3).unwrap();
        assert_eq!(corrupted.cells().len(), netlist.cells().len());
        let changed: Vec<usize> = netlist
            .cells()
            .iter()
            .zip(corrupted.cells())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        let cell = match fault {
            NetlistFault::FlipLutTruthBit { cell, .. }
            | NetlistFault::FlipFfInit { cell }
            | NetlistFault::FlipBramInitBit { cell, .. } => cell,
        };
        assert_eq!(changed, vec![cell]);
        corrupted
            .validate()
            .expect("corruption keeps netlist valid");
    }

    #[test]
    fn eco_corruption_is_deterministic_and_always_detected() {
        use crate::clock_control::attach_emb_clock_control;
        use fpga_fabric::device::Device;
        use fpga_fabric::pack::{pack, pack_partitioned};
        use fpga_fabric::place::{
            place, place_incremental, verify_eco_placement, PinnedEntities, PlaceOptions,
        };

        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let plain = emb.to_netlist();
        let (gated, _) = attach_emb_clock_control(&emb, Default::default()).unwrap();
        let device = Device::xc2v250();
        let opts = PlaceOptions {
            seed: 1,
            effort: 1.0,
            ..PlaceOptions::default()
        };
        let plain_packed = pack(&plain);
        let base = place(&plain, &plain_packed, device, opts).unwrap();
        let packed = pack_partitioned(&gated, &plain_packed, plain.cells().len()).unwrap();
        let pins = PinnedEntities::pin_base(&base, &packed);
        let eco = place_incremental(&gated, &packed, device, opts, &pins).unwrap();
        assert!(verify_eco_placement(&eco.placement, &pins).is_ok());

        let (a, fa) = corrupt_eco(&eco, &pins, 42).unwrap();
        let (b, fb) = corrupt_eco(&eco, &pins, 42).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(a.placement.clb_loc, b.placement.clb_loc);

        let mut classes = std::collections::HashSet::new();
        for seed in 0..32 {
            let (bad, fault) = corrupt_eco(&eco, &pins, seed).unwrap();
            classes.insert(std::mem::discriminant(&fault));
            assert!(
                verify_eco_placement(&bad.placement, &pins).is_err(),
                "seed {seed}: fault must be detected: {fault}"
            );
        }
        assert_eq!(classes.len(), 2, "both ECO fault classes must appear");
    }

    #[test]
    fn batched_campaign_matches_scalar_fault_by_fault() {
        // Every batched case must report exactly what the scalar path —
        // corrupt_netlist + verify_against_stg with the same seed and
        // stimulus — reports: same fault, same detection cycle (or same
        // silence).
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let netlist = emb.to_netlist();
        let outcomes =
            netlist_fault_campaign(&netlist, &stg, OutputTiming::Registered, 0..80, 300, 9)
                .unwrap();
        assert_eq!(outcomes.len(), 80);
        for out in &outcomes {
            let (bad, fault) = corrupt_netlist(&netlist, out.seed).unwrap();
            assert_eq!(fault, out.fault, "seed {}", out.seed);
            let scalar = match verify_against_stg(&bad, &stg, OutputTiming::Registered, 300, 9) {
                Err(VerifyError::Mismatch { cycle, .. }) => Some(cycle),
                Ok(()) => None,
                Err(e) => panic!("seed {}: unexpected error {e}", out.seed),
            };
            assert_eq!(scalar, out.detected_at, "seed {}: {}", out.seed, out.fault);
        }
        // The campaign must exercise detection both ways to be a real test.
        assert!(outcomes.iter().any(|o| o.detected_at.is_some()));
    }

    #[test]
    fn pick_and_corrupt_agree_on_the_fault() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let netlist = emb.to_netlist();
        for seed in 0..64 {
            let picked = pick_netlist_fault(&netlist, seed).unwrap();
            let (_, applied) = corrupt_netlist(&netlist, seed).unwrap();
            assert_eq!(picked, applied, "seed {seed}");
        }
    }

    #[test]
    fn rom_corruption_is_caught_by_verification() {
        // A flipped ROM bit is a semantic fault: verification against the
        // intact oracle must detect it for at least some seeds.
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let netlist = emb.to_netlist();
        let caught = (0..20).filter(|&s| {
            let (bad, _) = corrupt_netlist(&netlist, s).unwrap();
            matches!(
                verify_against_stg(&bad, &stg, OutputTiming::Registered, 400, 9),
                Err(VerifyError::Mismatch { .. })
            )
        });
        assert!(caught.count() >= 10, "most ROM corruptions must be visible");
    }
}
