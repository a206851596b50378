//! State-transition-graph (STG) representation of a finite-state machine.
//!
//! The paper describes an FSM as the six-tuple *(I, O, S, r0, δ, Y)*; the
//! [`Stg`] type is the direct realization: a set of named states, a reset
//! state, and a list of [`Transition`]s whose input and output fields are
//! ternary [`Pattern`]s exactly as in a KISS2 file.
//!
//! ## Semantics
//!
//! * Transitions from the same state may use overlapping input cubes. The
//!   machine resolves overlaps by **declaration order**: the first matching
//!   transition wins ([`Stg::lookup`]). Every downstream consumer — the
//!   reference simulator, the logic synthesizer and the memory-content
//!   generator — uses the same rule, so all implementations stay
//!   cycle-equivalent.
//! * If *no* transition matches, the machine **holds its state** and drives
//!   all outputs to zero ([`Stg::step`]). This is the completion rule applied
//!   uniformly to incompletely specified benchmarks.
//! * Output don't-cares resolve to `0`.

use crate::pattern::{bits_to_index, Pattern};
use std::fmt;

/// Index of a state within an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The state index as a `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One edge of the state-transition graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Ternary condition over the FSM inputs.
    pub input: Pattern,
    /// Destination state.
    pub to: StateId,
    /// Ternary output values asserted while taking this transition.
    pub output: Pattern,
}

/// Errors produced when constructing or validating an [`Stg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StgError {
    /// A transition references a state index that does not exist.
    UnknownState {
        /// The offending id.
        id: StateId,
        /// Index of the offending transition.
        transition: usize,
    },
    /// A transition's input pattern width differs from `num_inputs`.
    InputWidth {
        /// Index of the offending transition.
        transition: usize,
        /// The width found.
        found: usize,
        /// The width expected.
        expected: usize,
    },
    /// A transition's output pattern width differs from `num_outputs`.
    OutputWidth {
        /// Index of the offending transition.
        transition: usize,
        /// The width found.
        found: usize,
        /// The width expected.
        expected: usize,
    },
    /// The reset state index does not exist.
    BadReset(StateId),
    /// Two state names collide.
    DuplicateStateName(String),
    /// The machine has no states.
    Empty,
}

impl fmt::Display for StgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StgError::UnknownState { id, transition } => {
                write!(f, "transition {transition} references unknown state {id}")
            }
            StgError::InputWidth {
                transition,
                found,
                expected,
            } => write!(
                f,
                "transition {transition} input width {found}, expected {expected}"
            ),
            StgError::OutputWidth {
                transition,
                found,
                expected,
            } => write!(
                f,
                "transition {transition} output width {found}, expected {expected}"
            ),
            StgError::BadReset(id) => write!(f, "reset state {id} does not exist"),
            StgError::DuplicateStateName(n) => write!(f, "duplicate state name {n:?}"),
            StgError::Empty => write!(f, "machine has no states"),
        }
    }
}

impl std::error::Error for StgError {}

/// A finite-state machine as a state-transition graph.
///
/// # Examples
///
/// Build the 0101 sequence detector of the paper's Figure 2:
///
/// ```
/// use fsm_model::stg::StgBuilder;
///
/// let mut b = StgBuilder::new("seq0101", 1, 1);
/// let a = b.state("A");
/// let s_b = b.state("B");
/// let c = b.state("C");
/// let d = b.state("D");
/// b.transition(a, "0", s_b, "0");
/// b.transition(a, "1", a, "0");
/// b.transition(s_b, "1", c, "0");
/// b.transition(s_b, "0", s_b, "0");
/// b.transition(c, "0", d, "0");
/// b.transition(c, "1", a, "0");
/// b.transition(d, "1", c, "1");
/// b.transition(d, "0", s_b, "0");
/// let stg = b.build()?;
/// assert_eq!(stg.num_states(), 4);
/// assert!(stg.is_deterministic());
/// # Ok::<(), fsm_model::stg::StgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stg {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    state_names: Vec<String>,
    transitions: Vec<Transition>,
    reset: StateId,
}

impl Stg {
    /// Creates an STG after validating widths, state ids and names.
    ///
    /// # Errors
    ///
    /// Returns an [`StgError`] describing the first inconsistency found.
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        num_outputs: usize,
        state_names: Vec<String>,
        transitions: Vec<Transition>,
        reset: StateId,
    ) -> Result<Self, StgError> {
        if state_names.is_empty() {
            return Err(StgError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        for n in &state_names {
            if !seen.insert(n.clone()) {
                return Err(StgError::DuplicateStateName(n.clone()));
            }
        }
        if reset.index() >= state_names.len() {
            return Err(StgError::BadReset(reset));
        }
        for (i, t) in transitions.iter().enumerate() {
            if t.from.index() >= state_names.len() {
                return Err(StgError::UnknownState {
                    id: t.from,
                    transition: i,
                });
            }
            if t.to.index() >= state_names.len() {
                return Err(StgError::UnknownState {
                    id: t.to,
                    transition: i,
                });
            }
            if t.input.width() != num_inputs {
                return Err(StgError::InputWidth {
                    transition: i,
                    found: t.input.width(),
                    expected: num_inputs,
                });
            }
            if t.output.width() != num_outputs {
                return Err(StgError::OutputWidth {
                    transition: i,
                    found: t.output.width(),
                    expected: num_outputs,
                });
            }
        }
        Ok(Stg {
            name: name.into(),
            num_inputs,
            num_outputs,
            state_names,
            transitions,
            reset,
        })
    }

    /// The machine's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs (`|I|` bits).
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs (`|O|` bits).
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states (`|S|`).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Iterator over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_names.len() as u32).map(StateId)
    }

    /// The name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state_name(&self, id: StateId) -> &str {
        &self.state_names[id.index()]
    }

    /// Looks a state up by name.
    #[must_use]
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// The reset state `r0`.
    #[must_use]
    pub fn reset_state(&self) -> StateId {
        self.reset
    }

    /// All transitions, in declaration (priority) order.
    #[must_use]
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `state`, in priority order.
    pub fn transitions_from(&self, state: StateId) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// The first transition from `state` matching the concrete `inputs`.
    ///
    /// Declaration order defines priority when input cubes overlap.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    #[must_use]
    pub fn lookup(&self, state: StateId, inputs: &[bool]) -> Option<&Transition> {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        self.transitions_from(state)
            .find(|t| t.input.matches(inputs))
    }

    /// Computes the next state and concrete outputs for one clock cycle.
    ///
    /// Applies the completion rule: with no matching transition the state
    /// holds and outputs are zero. Output don't-cares resolve to zero.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    #[must_use]
    pub fn step(&self, state: StateId, inputs: &[bool]) -> (StateId, Vec<bool>) {
        match self.lookup(state, inputs) {
            Some(t) => (t.to, t.output.resolve_zero()),
            None => (state, vec![false; self.num_outputs]),
        }
    }

    /// Returns `true` if no two transitions from the same state have
    /// intersecting input cubes with conflicting behaviour.
    ///
    /// Overlaps that agree on both destination and (specified) outputs are
    /// tolerated.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        for s in self.states() {
            let ts: Vec<&Transition> = self.transitions_from(s).collect();
            for i in 0..ts.len() {
                for j in (i + 1)..ts.len() {
                    if ts[i].input.intersects(&ts[j].input)
                        && (ts[i].to != ts[j].to || !compatible_outputs(ts[i], ts[j]))
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Returns `true` if every state has a matching transition for every
    /// concrete input vector.
    ///
    /// Checked exactly by minterm enumeration, so it is exponential in the
    /// number of *don't-care-free* inputs; FSM benchmarks are small enough.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        let total = 1u64 << self.num_inputs.min(63);
        self.states().all(|s| {
            let mut covered = vec![false; total as usize];
            for t in self.transitions_from(s) {
                for m in t.input.minterms() {
                    covered[bits_to_index(&m) as usize] = true;
                }
            }
            covered.iter().all(|&c| c)
        })
    }

    /// Expands the machine into a dense per-state transition table.
    ///
    /// # Errors
    ///
    /// Returns an error string if the machine has more than
    /// [`TransitionTable::MAX_INPUTS`] inputs.
    pub fn to_table(&self) -> Result<TransitionTable, String> {
        TransitionTable::from_stg(self)
    }
}

fn compatible_outputs(a: &Transition, b: &Transition) -> bool {
    a.output
        .trits()
        .iter()
        .zip(b.output.trits())
        .all(|(x, y)| x.value().is_none() || y.value().is_none() || x == y)
}

/// Incremental builder for [`Stg`].
///
/// Collects states and transitions, then validates once in [`build`].
///
/// [`build`]: StgBuilder::build
#[derive(Debug, Clone)]
pub struct StgBuilder {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    state_names: Vec<String>,
    transitions: Vec<Transition>,
    reset: Option<StateId>,
}

impl StgBuilder {
    /// Starts a builder for a machine with the given interface widths.
    #[must_use]
    pub fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Self {
        StgBuilder {
            name: name.into(),
            num_inputs,
            num_outputs,
            state_names: Vec::new(),
            transitions: Vec::new(),
            reset: None,
        }
    }

    /// Adds (or finds) a state by name; the first state added becomes the
    /// default reset state.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        let name = name.into();
        if let Some(i) = self.state_names.iter().position(|n| *n == name) {
            return StateId(i as u32);
        }
        self.state_names.push(name);
        StateId((self.state_names.len() - 1) as u32)
    }

    /// Overrides the reset state.
    pub fn reset(&mut self, state: StateId) -> &mut Self {
        self.reset = Some(state);
        self
    }

    /// Adds a transition; `input` and `output` are KISS2-style ternary
    /// strings.
    ///
    /// # Panics
    ///
    /// Panics if either string contains characters other than `0`, `1`, `-`.
    pub fn transition(
        &mut self,
        from: StateId,
        input: &str,
        to: StateId,
        output: &str,
    ) -> &mut Self {
        let input: Pattern = input.parse().expect("invalid input pattern");
        let output: Pattern = output.parse().expect("invalid output pattern");
        self.transitions.push(Transition {
            from,
            input,
            to,
            output,
        });
        self
    }

    /// Adds a transition with pre-parsed patterns.
    pub fn transition_pat(
        &mut self,
        from: StateId,
        input: Pattern,
        to: StateId,
        output: Pattern,
    ) -> &mut Self {
        self.transitions.push(Transition {
            from,
            input,
            to,
            output,
        });
        self
    }

    /// Validates and produces the [`Stg`].
    ///
    /// # Errors
    ///
    /// See [`Stg::new`].
    pub fn build(self) -> Result<Stg, StgError> {
        let reset = self.reset.unwrap_or(StateId(0));
        Stg::new(
            self.name,
            self.num_inputs,
            self.num_outputs,
            self.state_names,
            self.transitions,
            reset,
        )
    }
}

/// Dense expansion of an [`Stg`]: for every state and every concrete input
/// minterm, the (next state, concrete outputs) pair after applying the
/// completion and priority rules.
///
/// This is the canonical semantics all hardware implementations must match.
#[derive(Debug, Clone)]
pub struct TransitionTable {
    num_inputs: usize,
    num_outputs: usize,
    /// `entries[state][input_index] = (next, outputs-as-bits)`.
    entries: Vec<Vec<(StateId, u64)>>,
    /// Whether the entry was explicitly specified (`true`) or filled by the
    /// completion rule (`false`). Completion-rule entries form the don't-care
    /// set available to logic minimization when equivalence is relaxed.
    specified: Vec<Vec<bool>>,
}

impl TransitionTable {
    /// Hard cap on inputs for dense expansion (2^20 entries per state).
    pub const MAX_INPUTS: usize = 20;

    /// Expands an [`Stg`].
    ///
    /// # Errors
    ///
    /// Fails if the machine has more than [`Self::MAX_INPUTS`] inputs.
    pub fn from_stg(stg: &Stg) -> Result<Self, String> {
        if stg.num_inputs() > Self::MAX_INPUTS {
            return Err(format!(
                "machine {} has {} inputs; dense expansion supports at most {}",
                stg.name(),
                stg.num_inputs(),
                Self::MAX_INPUTS
            ));
        }
        let n = 1usize << stg.num_inputs();
        let mut entries = Vec::with_capacity(stg.num_states());
        let mut specified = Vec::with_capacity(stg.num_states());
        for s in stg.states() {
            let mut row = vec![(s, 0u64); n];
            let mut spec = vec![false; n];
            // Iterate transitions lowest-priority first so that higher
            // priority (earlier) transitions overwrite later ones... we
            // instead iterate in priority order and skip already-set slots,
            // which realizes first-match-wins directly.
            for t in stg.transitions_from(s) {
                for m in t.input.minterms() {
                    let idx = bits_to_index(&m) as usize;
                    if !spec[idx] {
                        spec[idx] = true;
                        row[idx] = (t.to, bits_to_index(&t.output.resolve_zero()));
                    }
                }
            }
            entries.push(row);
            specified.push(spec);
        }
        Ok(TransitionTable {
            num_inputs: stg.num_inputs(),
            num_outputs: stg.num_outputs(),
            entries,
            specified,
        })
    }

    /// Number of inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.entries.len()
    }

    /// The (next state, packed outputs) entry for `state` on input minterm
    /// `input_index` (little-endian packing of input bits).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn entry(&self, state: StateId, input_index: usize) -> (StateId, u64) {
        self.entries[state.index()][input_index]
    }

    /// Whether the entry was explicitly specified by a transition.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn is_specified(&self, state: StateId, input_index: usize) -> bool {
        self.specified[state.index()][input_index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Stg {
        let mut b = StgBuilder::new("toy", 2, 1);
        let a = b.state("A");
        let c = b.state("B");
        b.transition(a, "1-", c, "1");
        b.transition(a, "00", a, "0");
        b.transition(c, "--", a, "0");
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_machine() {
        let stg = toy();
        assert_eq!(stg.num_states(), 2);
        assert_eq!(stg.num_inputs(), 2);
        assert_eq!(stg.reset_state(), StateId(0));
        assert_eq!(stg.state_name(StateId(1)), "B");
        assert_eq!(stg.state_by_name("B"), Some(StateId(1)));
    }

    #[test]
    fn lookup_uses_priority_order() {
        let mut b = StgBuilder::new("prio", 1, 1);
        let a = b.state("A");
        b.transition(a, "-", a, "1"); // matches everything, declared first
        b.transition(a, "0", a, "0"); // shadowed
        let stg = b.build().unwrap();
        let t = stg.lookup(StateId(0), &[false]).unwrap();
        assert_eq!(t.output.to_string(), "1");
    }

    #[test]
    fn step_completion_holds_state_zero_output() {
        let stg = toy();
        // state A on input 01 (bit0=true? inputs are [i0, i1]): pattern "1-"
        // means i0 must be 1. Input [false,true] matches neither "1-" nor
        // "00" => hold.
        let (next, out) = stg.step(StateId(0), &[false, true]);
        assert_eq!(next, StateId(0));
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn determinism_and_completeness_checks() {
        let stg = toy();
        assert!(stg.is_deterministic());
        assert!(!stg.is_complete()); // A lacks input 01

        let mut b = StgBuilder::new("nd", 1, 1);
        let a = b.state("A");
        let c = b.state("B");
        b.transition(a, "-", a, "0");
        b.transition(a, "1", c, "0");
        let nd = b.build().unwrap();
        assert!(!nd.is_deterministic());
    }

    #[test]
    fn overlapping_but_agreeing_transitions_are_deterministic() {
        let mut b = StgBuilder::new("ok", 2, 2);
        let a = b.state("A");
        b.transition(a, "1-", a, "1-");
        b.transition(a, "11", a, "10");
        let stg = b.build().unwrap();
        assert!(stg.is_deterministic());
    }

    #[test]
    fn table_matches_step() {
        let stg = toy();
        let table = stg.to_table().unwrap();
        for s in stg.states() {
            for idx in 0..4usize {
                let bits = crate::pattern::index_to_bits(idx as u64, 2);
                let (n1, o1) = stg.step(s, &bits);
                let (n2, o2) = table.entry(s, idx);
                assert_eq!(n1, n2);
                assert_eq!(bits_to_index(&o1), o2);
            }
        }
    }

    #[test]
    fn table_tracks_specified_entries() {
        let stg = toy();
        let table = stg.to_table().unwrap();
        // A on input 01 (index 2: i0=0, i1=1) is unspecified.
        assert!(!table.is_specified(StateId(0), 2));
        assert!(table.is_specified(StateId(0), 0));
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Stg::new("e", 1, 1, vec![], vec![], StateId(0)),
            Err(StgError::Empty)
        ));
        let err = Stg::new(
            "w",
            2,
            1,
            vec!["A".into()],
            vec![Transition {
                from: StateId(0),
                input: "1".parse().unwrap(),
                to: StateId(0),
                output: "0".parse().unwrap(),
            }],
            StateId(0),
        )
        .unwrap_err();
        assert!(matches!(err, StgError::InputWidth { .. }));
        let err =
            Stg::new("d", 1, 1, vec!["A".into(), "A".into()], vec![], StateId(0)).unwrap_err();
        assert!(matches!(err, StgError::DuplicateStateName(_)));
    }
}
