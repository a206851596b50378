//! Seeded synthetic STG generation.
//!
//! The paper evaluates on MCNC LOGIC SYNTHESIS '91 FSM benchmarks plus
//! PREP4. Those KISS2 files are not redistributable here, so
//! [`generate`] produces machines with a *matched structural signature*:
//! given (states, inputs, outputs, transition count, per-state input
//! support, self-loop bias), it emits a deterministic, complete,
//! strongly-connected-from-reset machine. The mapping algorithm and the
//! power flows only depend on this structure, so matched signatures
//! exercise the same code paths the real benchmarks would (see DESIGN.md
//! §2 for the substitution argument).
//!
//! Construction guarantees, by design rather than by post-checking:
//!
//! * per-state input cubes are **pairwise disjoint** (the machine is
//!   deterministic regardless of priority order) and **complete** over the
//!   state's support columns (the completion rule never fires on support
//!   inputs);
//! * every state is reachable from the reset state (a spanning tree is
//!   embedded first);
//! * self-loop transitions re-assert the state's *hold output*, so steering
//!   inputs into self-loop cubes produces genuinely idle cycles (needed for
//!   the Sec. 6 clock-control experiments).

use crate::pattern::{index_to_bits, Pattern, Trit};
use crate::stg::{StateId, Stg, StgBuilder};
use std::fmt;
use xrand::SmallRng;

/// Specification of a synthetic machine.
#[derive(Debug, Clone, PartialEq)]
pub struct StgSpec {
    /// Machine name.
    pub name: String,
    /// Number of states (≥ 1).
    pub states: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Target number of transitions (best effort; the generator stops
    /// splitting when each state's subspace is fully specified).
    pub transitions: usize,
    /// Maximum input columns any single state may read (`None` = all).
    /// Lower values create the column-compaction opportunities of Fig. 4.
    pub max_support: Option<usize>,
    /// Probability that a non-tree transition is a self-loop (idle states).
    pub self_loop_bias: f64,
    /// If `true`, outputs are a function of the destination state (Moore).
    pub moore: bool,
    /// Dedicated quiescent input column: when `Some(col)`, every state
    /// self-loops (holding its output) whenever input `col` is 0 — the
    /// "no request pending" structure real control FSMs have, which makes
    /// their idle conditions compact (paper Sec. 6). For Mealy machines
    /// the hold outputs are all-zero (an idle controller asserts nothing).
    pub idle_line: Option<usize>,
    /// Don't-care density in `[0, 1]`: the fraction of each state's
    /// transition budget left *unsplit*, so cubes stay wide (more
    /// don't-care columns per transition, fewer transitions overall).
    /// `0.0` reproduces the dense historical behaviour byte-for-byte;
    /// `1.0` collapses every state to the fewest cubes that still host
    /// its spanning-tree children (one universal cube for leaf states,
    /// plus the idle self-loop when configured) — the
    /// compaction-friendliest shape a machine can have. Non-finite
    /// values are treated as `0.0`.
    pub dont_care_density: f64,
    /// Transition-fanout skew (≥ 0): `0.0` gives every state the same
    /// outgoing-transition target (historical behaviour, byte-identical);
    /// larger values allocate the machine's transition budget by a
    /// rank-based power law `(rank+1)^-skew` over a seed-shuffled state
    /// order, so a few hub states carry most of the fanout while the tail
    /// degenerates toward one outgoing cube. Drawn from a dedicated RNG
    /// stream, so turning the knob never perturbs the base machine shape
    /// decisions. Non-finite or negative values are treated as `0.0`.
    pub fanout_skew: f64,
    /// RNG seed; equal specs generate identical machines.
    pub seed: u64,
}

impl StgSpec {
    /// A reasonable default spec for quick experiments.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StgSpec {
            name: name.into(),
            states: 8,
            inputs: 4,
            outputs: 2,
            transitions: 24,
            max_support: None,
            self_loop_bias: 0.3,
            moore: false,
            idle_line: None,
            dont_care_density: 0.0,
            fanout_skew: 0.0,
            seed: 1,
        }
    }
}

/// Degenerate-spec errors from [`generate`]. Typed instead of panicking so
/// corpus drivers can feed arbitrary (possibly hostile)
/// specs through the generator without a `catch_unwind` fence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// `states == 0` — a machine needs at least one state.
    NoStates,
    /// `inputs > 20` — dense input subspaces would blow up.
    TooManyInputs {
        /// The offending input count.
        inputs: usize,
    },
    /// `idle_line` names a column outside `0..inputs`.
    IdleLineOutOfRange {
        /// The requested quiescent column.
        idle_line: usize,
        /// Number of input columns the spec actually has.
        inputs: usize,
    },
    /// The reachability spanning tree ran out of leaf capacity: with
    /// `2^support` outgoing cubes per state the requested state count
    /// cannot all be hosted. Unreachable for `support >= 1` by
    /// construction (every hosted state contributes its own capacity),
    /// kept typed as a defensive backstop.
    FanoutUnhostable {
        /// Requested state count.
        states: usize,
        /// Outgoing-leaf capacity per state (`2^support`).
        leaf_capacity: usize,
    },
    /// The STG builder rejected the assembled machine (internal
    /// invariant breach — should not happen for any spec).
    Invalid(String),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::NoStates => write!(f, "spec needs at least one state"),
            GenerateError::TooManyInputs { inputs } => {
                write!(f, "generator supports at most 20 inputs, spec has {inputs}")
            }
            GenerateError::IdleLineOutOfRange { idle_line, inputs } => {
                write!(
                    f,
                    "idle line column {idle_line} out of range for {inputs} inputs"
                )
            }
            GenerateError::FanoutUnhostable {
                states,
                leaf_capacity,
            } => {
                write!(
                    f,
                    "spanning tree cannot host {states} states at {leaf_capacity} leaves per state"
                )
            }
            GenerateError::Invalid(msg) => write!(f, "generated machine rejected: {msg}"),
        }
    }
}

impl std::error::Error for GenerateError {}

/// Generates a machine from a spec.
///
/// # Errors
///
/// Returns a typed [`GenerateError`] for degenerate specs (`states == 0`,
/// `inputs > 20`, an out-of-range `idle_line`) instead of panicking.
pub fn generate(spec: &StgSpec) -> Result<Stg, GenerateError> {
    if spec.states == 0 {
        return Err(GenerateError::NoStates);
    }
    if spec.inputs > 20 {
        return Err(GenerateError::TooManyInputs {
            inputs: spec.inputs,
        });
    }
    let idle_line = spec.idle_line;
    if let Some(col) = idle_line {
        if col >= spec.inputs {
            return Err(GenerateError::IdleLineOutOfRange {
                idle_line: col,
                inputs: spec.inputs,
            });
        }
    }
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5eed_f5ee_d5ee_df00);

    let n = spec.states;
    let per_state_target = spec
        .transitions
        .div_ceil(n)
        .saturating_sub(usize::from(idle_line.is_some()))
        .max(1);

    // Shape knobs. Both default to 0.0, which must reproduce the
    // historical machines byte-for-byte: the skew branch draws from a
    // *dedicated* RNG stream so the base stream below is untouched, and
    // the density scale is pure arithmetic (no draws at all).
    let density = if spec.dont_care_density.is_finite() {
        spec.dont_care_density.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let skew = if spec.fanout_skew.is_finite() && spec.fanout_skew > 0.0 {
        spec.fanout_skew
    } else {
        0.0
    };
    let leaf_targets: Vec<usize> = if skew == 0.0 && density == 0.0 {
        vec![per_state_target; n]
    } else {
        let raw: Vec<f64> = if skew > 0.0 {
            // Rank-based power law over a seed-shuffled state order, so
            // which states become hubs is itself seed-dependent.
            let mut skew_rng = SmallRng::seed_from_u64(spec.seed ^ 0x0fa0_0475_ce77_a11e);
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = skew_rng.random_range(0..i + 1);
                order.swap(i, j);
            }
            let mut rank = vec![0usize; n];
            for (r, &s) in order.iter().enumerate() {
                rank[s] = r;
            }
            let weights: Vec<f64> = (0..n).map(|s| ((rank[s] + 1) as f64).powf(-skew)).collect();
            let total: f64 = weights.iter().sum();
            let budget = (per_state_target * n) as f64;
            weights.iter().map(|w| budget * w / total).collect()
        } else {
            vec![per_state_target as f64; n]
        };
        raw.iter()
            .map(|t| (t * (1.0 - density)).round().max(1.0) as usize)
            .collect()
    };

    // Per-state support columns for transition splitting. The idle line
    // (when present) is excluded here — it is pinned to 1 in every
    // non-idle transition — but still counts toward the support budget.
    let split_budget = spec
        .max_support
        .unwrap_or(spec.inputs)
        .min(spec.inputs)
        .saturating_sub(usize::from(idle_line.is_some()));
    let pool: Vec<usize> = (0..spec.inputs).filter(|c| Some(*c) != idle_line).collect();
    let support_size = split_budget.min(pool.len());
    let supports: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let mut cols = pool.clone();
            // Fisher–Yates prefix shuffle.
            for i in 0..support_size.min(cols.len()) {
                let j = rng.random_range(i..cols.len());
                cols.swap(i, j);
            }
            let mut chosen: Vec<usize> = cols[..support_size].to_vec();
            chosen.sort_unstable();
            chosen
        })
        .collect();

    // Per-state hold output (the output its self-loops assert). With an
    // idle line on a Mealy machine the quiescent output is all-zero, as
    // in real controllers; Moore machines keep per-state outputs.
    let zero_hold = idle_line.is_some() && !spec.moore;
    let hold_outputs: Vec<Vec<bool>> = (0..n)
        .map(|s| {
            (0..spec.outputs)
                .map(|_| !zero_hold && s != 0 && rng.random_bool(0.5))
                .collect()
        })
        .collect();

    // Spanning tree: state k (k>0) is entered from some earlier state
    // that still has leaf capacity (each state can host at most
    // 2^support_size distinct outgoing leaves).
    let capacity = 1usize << support_size.min(20);
    let mut child_count = vec![0usize; n];
    let mut tree_parent = vec![0usize; n];
    for (k, parent) in tree_parent.iter_mut().enumerate().skip(1) {
        let available: Vec<usize> = (0..k).filter(|&p| child_count[p] < capacity).collect();
        if available.is_empty() {
            return Err(GenerateError::FanoutUnhostable {
                states: n,
                leaf_capacity: capacity,
            });
        }
        let p = available[rng.random_range(0..available.len())];
        child_count[p] += 1;
        *parent = p;
    }

    // For each state, split its support subspace into disjoint cubes.
    let mut b = StgBuilder::new(spec.name.clone(), spec.inputs, spec.outputs);
    let ids: Vec<StateId> = (0..n).map(|i| b.state(format!("s{i}"))).collect();
    b.reset(ids[0]);

    for s in 0..n {
        let support = &supports[s];
        // The quiescent self-loop comes first (highest priority).
        if let Some(col) = idle_line {
            let mut idle_cube = Pattern::all_dont_care(spec.inputs);
            idle_cube.set(col, Trit::Zero);
            b.transition_pat(
                ids[s],
                idle_cube,
                ids[s],
                Pattern::from_bits(&hold_outputs[s]),
            );
        }
        // Start with the universal cube over the support (idle line pinned
        // to 1); split until the target leaf count is reached or nothing
        // is splittable.
        let mut leaves: Vec<Pattern> = vec![{
            let mut c = Pattern::all_dont_care(spec.inputs);
            if let Some(col) = idle_line {
                c.set(col, Trit::One);
            }
            c
        }];
        while leaves.len() < leaf_targets[s] {
            // Pick a leaf with a remaining don't-care support column.
            let candidates: Vec<usize> = leaves
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    support
                        .iter()
                        .any(|&col| matches!(c.trit(col), Trit::DontCare))
                })
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let pick = candidates[rng.random_range(0..candidates.len())];
            let cube = leaves.swap_remove(pick);
            let dc_cols: Vec<usize> = support
                .iter()
                .copied()
                .filter(|&col| matches!(cube.trit(col), Trit::DontCare))
                .collect();
            let col = dc_cols[rng.random_range(0..dc_cols.len())];
            let mut zero = cube.clone();
            zero.set(col, Trit::Zero);
            let mut one = cube;
            one.set(col, Trit::One);
            leaves.push(zero);
            leaves.push(one);
        }

        // Destinations: children of s in the spanning tree must each be
        // reachable via some leaf; assign them first.
        let children: Vec<usize> = (1..n).filter(|&k| tree_parent[k] == s).collect();
        let mut dests: Vec<usize> = Vec::with_capacity(leaves.len());
        for (i, _) in leaves.iter().enumerate() {
            if i < children.len() {
                dests.push(children[i]);
            } else if n == 1 || rng.random_bool(spec.self_loop_bias) {
                dests.push(s);
            } else {
                // Exclude `s` so self-loops appear only at the configured
                // bias (or through the idle line), keeping idle conditions
                // as structured as the spec asked for.
                let d = rng.random_range(0..n - 1);
                dests.push(if d >= s { d + 1 } else { d });
            }
        }
        // If there were more children than leaves (tiny machines), retarget
        // random leaves — guaranteed possible because per_state_target >= 1
        // and children < n <= leaves * something; we instead split further.
        let mut extra = children.len().saturating_sub(leaves.len());
        while extra > 0 {
            // Force additional splits to host remaining children.
            let idx = leaves
                .iter()
                .position(|c| {
                    support
                        .iter()
                        .any(|&col| matches!(c.trit(col), Trit::DontCare))
                })
                .unwrap_or(0);
            let cube = leaves.swap_remove(idx);
            let d = dests.swap_remove(idx);
            let dc_col = support
                .iter()
                .copied()
                .find(|&col| matches!(cube.trit(col), Trit::DontCare));
            match dc_col {
                Some(col) => {
                    let mut zero = cube.clone();
                    zero.set(col, Trit::Zero);
                    let mut one = cube;
                    one.set(col, Trit::One);
                    leaves.push(zero);
                    dests.push(d);
                    leaves.push(one);
                    dests.push(children[children.len() - extra]);
                    extra -= 1;
                }
                None => {
                    // Support exhausted: fall back to overwriting arbitrary
                    // destinations (reachability via other states' random
                    // edges is then only probabilistic; avoided by sensible
                    // specs where 2^support >= fanout).
                    leaves.push(cube);
                    dests.push(children[children.len() - extra]);
                    extra -= 1;
                }
            }
        }

        for (cube, &dest) in leaves.iter().zip(&dests) {
            let out_bits: Vec<bool> = if dest == s {
                hold_outputs[s].clone()
            } else if spec.moore {
                hold_outputs[dest].clone()
            } else {
                let word: u64 = rng.random();
                index_to_bits(word, spec.outputs)
            };
            b.transition_pat(
                ids[s],
                cube.clone(),
                ids[dest],
                Pattern::from_bits(&out_bits),
            );
        }
    }

    let stg = b
        .build()
        .map_err(|e| GenerateError::Invalid(e.to_string()))?;
    debug_assert!(stg.is_deterministic());
    Ok(stg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{reachable_states, stats};

    #[test]
    fn generated_machine_matches_signature() {
        let spec = StgSpec {
            name: "gen".into(),
            states: 12,
            inputs: 5,
            outputs: 3,
            transitions: 48,
            max_support: Some(3),
            self_loop_bias: 0.4,
            moore: false,
            idle_line: None,
            dont_care_density: 0.0,
            fanout_skew: 0.0,
            seed: 42,
        };
        let stg = generate(&spec).expect("valid spec generates");
        let st = stats(&stg);
        assert_eq!(st.states, 12);
        assert_eq!(st.inputs, 5);
        assert_eq!(st.outputs, 3);
        assert!(st.transitions >= 12, "at least one transition per state");
        assert!(st.max_input_support <= 3, "support cap respected");
    }

    #[test]
    fn generated_machine_is_deterministic_and_reachable() {
        for seed in 0..8u64 {
            let spec = StgSpec {
                seed,
                states: 9,
                inputs: 4,
                outputs: 2,
                transitions: 30,
                ..StgSpec::new(format!("g{seed}"))
            };
            let stg = generate(&spec).expect("valid spec generates");
            assert!(stg.is_deterministic(), "seed {seed}");
            assert_eq!(
                reachable_states(&stg).len(),
                stg.num_states(),
                "seed {seed}: all states reachable"
            );
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let spec = StgSpec::new("rep");
        assert_eq!(generate(&spec), generate(&spec));
        let other = StgSpec {
            seed: 2,
            ..StgSpec::new("rep")
        };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn degenerate_specs_return_typed_errors() {
        let no_states = StgSpec {
            states: 0,
            ..StgSpec::new("z")
        };
        assert_eq!(generate(&no_states), Err(GenerateError::NoStates));

        let wide = StgSpec {
            inputs: 21,
            ..StgSpec::new("w")
        };
        assert_eq!(
            generate(&wide),
            Err(GenerateError::TooManyInputs { inputs: 21 })
        );

        let bad_idle = StgSpec {
            inputs: 4,
            idle_line: Some(4),
            ..StgSpec::new("i")
        };
        assert_eq!(
            generate(&bad_idle),
            Err(GenerateError::IdleLineOutOfRange {
                idle_line: 4,
                inputs: 4
            })
        );
    }

    #[test]
    fn zero_valued_knobs_are_byte_identical_to_defaults() {
        // The new shape knobs must not perturb historical machines: an
        // explicit 0.0 (or a non-finite value, which sanitizes to 0.0)
        // generates the exact same STG as the default spec.
        let base = generate(&StgSpec::new("knob")).expect("generates");
        for (density, skew) in [(0.0, 0.0), (f64::NAN, f64::NAN), (-0.5, -1.0)] {
            let knobbed = StgSpec {
                dont_care_density: density,
                fanout_skew: skew,
                ..StgSpec::new("knob")
            };
            assert_eq!(generate(&knobbed).expect("generates"), base);
        }
    }

    #[test]
    fn full_dont_care_density_collapses_to_minimal_cubes() {
        // At density 1.0 each state keeps only the cubes forced by its
        // spanning-tree fanout: n states plus at most n-1 hub splits,
        // far below the 40-transition budget the spec asks for.
        let spec = StgSpec {
            states: 6,
            inputs: 5,
            outputs: 2,
            transitions: 40,
            dont_care_density: 1.0,
            ..StgSpec::new("dc1")
        };
        let stg = generate(&spec).expect("generates");
        let t = stats(&stg).transitions;
        assert!(t < 2 * 6, "got {t} transitions, tree bound is 11");
        // With an idle line: one extra quiescent self-loop per state.
        let idle = StgSpec {
            idle_line: Some(0),
            ..spec
        };
        let stg = generate(&idle).expect("generates");
        let t = stats(&stg).transitions;
        assert!(t < 3 * 6, "got {t} transitions with idle loops");
    }

    #[test]
    fn dont_care_density_monotonically_thins_transitions() {
        let mut last = usize::MAX;
        for density in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let spec = StgSpec {
                states: 10,
                inputs: 6,
                outputs: 2,
                transitions: 80,
                dont_care_density: density,
                ..StgSpec::new("dcmono")
            };
            let stg = generate(&spec).expect("generates");
            let t = stats(&stg).transitions;
            assert!(
                t <= last,
                "density {density}: {t} transitions, previous {last}"
            );
            last = t;
        }
    }

    #[test]
    fn fanout_skew_concentrates_transitions_on_hub_states() {
        let flat_spec = StgSpec {
            states: 12,
            inputs: 8,
            outputs: 2,
            transitions: 96,
            ..StgSpec::new("skew")
        };
        let skewed_spec = StgSpec {
            fanout_skew: 1.5,
            ..flat_spec.clone()
        };
        let flat = generate(&flat_spec).expect("generates");
        let skewed = generate(&skewed_spec).expect("generates");
        let spread = |stg: &Stg| {
            let counts: Vec<usize> = stg
                .states()
                .map(|s| stg.transitions_from(s).count())
                .collect();
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            max - min
        };
        assert!(
            spread(&skewed) > spread(&flat),
            "skewed fanout spread {} should exceed flat spread {}",
            spread(&skewed),
            spread(&flat)
        );
        // Skew redistributes the budget but keeps the machine sound.
        assert!(skewed.is_deterministic());
        assert_eq!(reachable_states(&skewed).len(), skewed.num_states());
    }

    #[test]
    fn moore_spec_generates_moore_machine() {
        let spec = StgSpec {
            moore: true,
            states: 6,
            inputs: 3,
            outputs: 4,
            transitions: 20,
            ..StgSpec::new("moore")
        };
        let stg = generate(&spec).expect("valid spec generates");
        assert_eq!(
            crate::machine::classify(&stg),
            crate::machine::FsmKind::Moore
        );
    }

    #[test]
    fn self_loops_hold_their_output() {
        let spec = StgSpec {
            self_loop_bias: 0.8,
            states: 8,
            inputs: 4,
            outputs: 2,
            transitions: 40,
            ..StgSpec::new("idle")
        };
        let stg = generate(&spec).expect("valid spec generates");
        for s in stg.states() {
            let loops: Vec<_> = stg.transitions_from(s).filter(|t| t.to == s).collect();
            for w in loops.windows(2) {
                assert_eq!(
                    w[0].output, w[1].output,
                    "all self-loops of a state assert the same hold output"
                );
            }
        }
    }

    #[test]
    fn generated_machines_are_complete_over_support() {
        let spec = StgSpec {
            states: 5,
            inputs: 3,
            outputs: 1,
            transitions: 15,
            max_support: None,
            ..StgSpec::new("complete")
        };
        let stg = generate(&spec).expect("valid spec generates");
        assert!(stg.is_complete());
    }
}
