//! Lockstep equivalence checking against the STG oracle.
//!
//! Every hardware artifact this crate produces — the FF baseline, the EMB
//! mapping in all its variants, the clock-controlled versions, ECO
//! rewrites — is verified by simulating it next to
//! [`fsm_model::simulate::StgSimulator`] over a deterministic random
//! stimulus and comparing the FSM outputs cycle by cycle.

use fpga_fabric::netlist::{NetId, Netlist, NetlistError};
use fsm_model::simulate::StgSimulator;
use fsm_model::stg::Stg;
use netsim::engine::Simulator;
use netsim::kernel::{transpose64, BatchSimulator, LANES};
use netsim::stimulus;
use std::fmt;

/// When the implementation's outputs are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputTiming {
    /// Outputs are latched (BRAM FSM): compare the post-edge values.
    Registered,
    /// Outputs are combinational Mealy logic (FF FSM): compare the
    /// settled pre-edge values.
    Combinational,
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The netlist is structurally invalid.
    Invalid(NetlistError),
    /// Outputs diverged from the oracle.
    Mismatch {
        /// Cycle of first divergence (0-based).
        cycle: usize,
        /// The inputs applied that cycle.
        inputs: Vec<bool>,
        /// Oracle outputs.
        expected: Vec<bool>,
        /// Implementation outputs.
        got: Vec<bool>,
    },
    /// The netlist exposes fewer `out_*` ports than the machine has
    /// outputs.
    PortCount {
        /// Ports found.
        found: usize,
        /// Outputs expected.
        expected: usize,
    },
    /// Exhaustive verification refused: too many inputs to enumerate.
    InputsTooWide {
        /// The machine's input count.
        inputs: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Invalid(e) => write!(f, "invalid netlist: {e}"),
            VerifyError::Mismatch {
                cycle,
                inputs,
                expected,
                got,
            } => write!(
                f,
                "output mismatch at cycle {cycle} (inputs {inputs:?}): expected {expected:?}, got {got:?}"
            ),
            VerifyError::PortCount { found, expected } => {
                write!(f, "netlist has {found} output ports, machine has {expected}")
            }
            VerifyError::InputsTooWide { inputs, limit } => {
                write!(f, "{inputs} inputs exceed the exhaustive limit of {limit}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<NetlistError> for VerifyError {
    fn from(e: NetlistError) -> Self {
        VerifyError::Invalid(e)
    }
}

/// Verifies `netlist` against `stg` over `cycles` random vectors.
///
/// The netlist's first `stg.num_outputs()` output ports are compared;
/// additional ports (debug state bits) are ignored. The netlist's inputs
/// must be the machine's inputs in order (extra inputs are not allowed —
/// enable logic must be internal).
///
/// # Errors
///
/// Returns the first divergence found, or a structural error.
pub fn verify_against_stg(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    cycles: usize,
    seed: u64,
) -> Result<(), VerifyError> {
    if netlist.outputs().len() < stg.num_outputs() {
        return Err(VerifyError::PortCount {
            found: netlist.outputs().len(),
            expected: stg.num_outputs(),
        });
    }
    let mut hw = Simulator::new(netlist)?;
    let mut oracle = StgSimulator::new(stg);
    for (cycle, inputs) in stimulus::random(stg.num_inputs(), cycles, seed)
        .into_iter()
        .enumerate()
    {
        let expected = oracle.clock(&inputs).to_vec();
        hw.clock(&inputs);
        let got_all = match timing {
            OutputTiming::Registered => hw.outputs(),
            OutputTiming::Combinational => hw.pre_edge_outputs().to_vec(),
        };
        let got = got_all[..stg.num_outputs()].to_vec();
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

/// The input vector of minterm `m`, LSB-first: input `i` is bit `i`.
fn minterm_inputs(m: u64, num_inputs: usize) -> Vec<bool> {
    (0..num_inputs).map(|i| m >> i & 1 == 1).collect()
}

/// Lane words of input bits 0..6 in a batch: bit `l` of word `k` is bit
/// `k` of `l`. Every batch starts at a node boundary (see
/// [`ProductWalk::next_batch`]), so these are the input words of the low
/// six inputs in every batch; inputs 6 and up are broadcasts of the
/// batch's base minterm.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The batch-aligned breadth-first product walk behind
/// [`verify_exhaustive`] and [`netlists_equivalent`].
///
/// Nodes are expanded in FIFO order under minterms `0..2^I` — the global
/// edge order of the scalar walks — 64 edges per batch. With `2^I ≤ 64` a
/// batch holds up to `64 / 2^I` whole nodes (fewer when the frontier runs
/// out); with `2^I ≥ 64` it holds 64 aligned minterms of one node. Each
/// node is identified by a fixed-width packed key; new keys are appended
/// in lane order, so node discovery order is the scalar walk's. The walk
/// keeps each node's parent (node 0, the reset state, is its own) and
/// its key, from which the node's state is reloaded.
struct ProductWalk {
    num_inputs: usize,
    /// `log2` of the lanes one node occupies in a batch: `min(I, 6)`.
    span: usize,
    key_words: usize,
    /// Flat key arena: node `n`'s key is `keys[n * key_words..][..key_words]`.
    keys: Vec<u64>,
    parents: Vec<u32>,
    set: KeySet,
    /// Next node to expand, and its next minterm base (`2^I > 64` only).
    cursor: usize,
    cursor_base: u64,
    /// The current batch: nodes `first..first + count`, lane `l` carrying
    /// minterm `base + (l mod 2^span)` of node `first + l / 2^span`.
    first: usize,
    count: usize,
    base: u64,
    /// Lanes that carry an edge of the current batch (a prefix).
    live: u64,
    /// One input word per primary input for the current batch.
    inputs: Vec<u64>,
}

impl ProductWalk {
    fn new(num_inputs: usize, root_key: &[u64]) -> Self {
        let mut walk = ProductWalk {
            num_inputs,
            span: num_inputs.min(6),
            key_words: root_key.len(),
            keys: Vec::new(),
            parents: Vec::new(),
            set: KeySet::default(),
            cursor: 0,
            cursor_base: 0,
            first: 0,
            count: 0,
            base: 0,
            live: 0,
            inputs: vec![0; num_inputs],
        };
        walk.insert(root_key, 0);
        walk
    }

    /// Advances to the next batch of the global edge order; `false` once
    /// every discovered node has been expanded.
    fn next_batch(&mut self) -> bool {
        if self.cursor >= self.parents.len() {
            return false;
        }
        self.first = self.cursor;
        if self.num_inputs <= 6 {
            let per_batch = 1 << (6 - self.num_inputs);
            self.count = per_batch.min(self.parents.len() - self.cursor);
            let lanes = self.count << self.num_inputs;
            self.live = if lanes == 64 {
                u64::MAX
            } else {
                (1 << lanes) - 1
            };
            self.base = 0;
            self.cursor += self.count;
        } else {
            self.count = 1;
            self.live = u64::MAX;
            self.base = self.cursor_base;
            self.cursor_base += 64;
            if self.cursor_base == 1 << self.num_inputs {
                self.cursor_base = 0;
                self.cursor += 1;
            }
        }
        for (k, w) in self.inputs.iter_mut().enumerate() {
            *w = match LANE_BITS.get(k) {
                Some(&bits) => bits,
                None => 0u64.wrapping_sub(self.base >> k & 1),
            };
        }
        true
    }

    /// The lane mask of the `j`-th node of the current batch.
    fn group(&self, j: usize) -> u64 {
        let width = 1usize << self.span;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        mask << (j << self.span)
    }

    fn node_of(&self, lane: usize) -> usize {
        self.first + (lane >> self.span)
    }

    fn minterm_of(&self, lane: usize) -> u64 {
        self.base + (lane & ((1 << self.span) - 1)) as u64
    }

    fn key(&self, node: usize) -> &[u64] {
        &self.keys[node * self.key_words..][..self.key_words]
    }

    /// Records a state reached by an edge out of node `parent`; a new key
    /// becomes a new node.
    fn insert(&mut self, key: &[u64], parent: usize) {
        if self.set.insert(&mut self.keys, key) {
            self.parents.push(parent as u32);
        }
    }

    /// Edges from reset to `node` (the cycle index of its out-edges).
    fn depth(&self, node: usize) -> usize {
        let (mut cur, mut depth) = (node, 0);
        while cur != 0 {
            cur = self.parents[cur] as usize;
            depth += 1;
        }
        depth
    }
}

/// An open-addressing set of the keys in a walk's arena. Slots hold node
/// indices; lookups hash and compare borrowed key slices, so finding or
/// adding a key allocates nothing beyond the arena's own growth.
#[derive(Default)]
struct KeySet {
    slots: Vec<u32>,
    len: usize,
}

impl KeySet {
    const EMPTY: u32 = u32::MAX;

    /// Inserts `key`, appending it to `arena`; `false` when present.
    fn insert(&mut self, arena: &mut Vec<u64>, key: &[u64]) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(arena, key.len());
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_words(key) as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == Self::EMPTY {
                self.slots[i] = self.len as u32;
                self.len += 1;
                arena.extend_from_slice(key);
                return true;
            }
            if arena[slot as usize * key.len()..][..key.len()] == *key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self, arena: &[u64], key_words: usize) {
        let cap = (self.slots.len() * 2).max(1024);
        self.slots = vec![Self::EMPTY; cap];
        for node in 0..self.len {
            let key = &arena[node * key_words..][..key_words];
            let mut i = hash_words(key) as usize & (cap - 1);
            while self.slots[i] != Self::EMPTY {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = node as u32;
        }
    }
}

/// A multiplicative word hash with a final avalanche (the murmur3 64-bit
/// finalizer), so the low bits used as the slot index depend on every key
/// bit.
fn hash_words(key: &[u64]) -> u64 {
    let mut h = key.len() as u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// The word-level bridge between one simulator's sequential nets and the
/// packed snapshots inside walk keys: loads a batch's node snapshots as
/// whole lane words, and transposes the post-edge lane words back into
/// one packed snapshot row per lane.
struct SeqPort {
    /// Packed words per snapshot.
    words: usize,
    /// One lane word per sequential net.
    seq: Vec<u64>,
    /// Lane-major snapshot rows, `words` per lane.
    rows: Vec<u64>,
}

impl SeqPort {
    /// A port over `sim`, with the current (reset) state captured.
    fn new(sim: &BatchSimulator<'_>) -> Self {
        let bits = sim.seq_nets().len();
        let words = bits.div_ceil(64);
        let mut port = SeqPort {
            words,
            seq: vec![0; bits],
            rows: vec![0; words * LANES],
        };
        port.capture(sim);
        port
    }

    /// Loads each batch node's snapshot, read from its key at `offset`,
    /// into that node's lanes (dead lanes get zeros).
    fn load(&mut self, sim: &mut BatchSimulator<'_>, walk: &ProductWalk, offset: usize) {
        self.seq.fill(0);
        for j in 0..walk.count {
            let group = walk.group(j);
            let snap = &walk.key(walk.first + j)[offset..][..self.words];
            for (i, w) in self.seq.iter_mut().enumerate() {
                *w |= group & 0u64.wrapping_sub(snap[i / 64] >> (i % 64) & 1);
            }
        }
        sim.set_seq_words(&self.seq);
    }

    /// Captures every lane's snapshot row from `sim`.
    fn capture(&mut self, sim: &BatchSimulator<'_>) {
        sim.seq_words(&mut self.seq);
        for (b, chunk) in self.seq.chunks(64).enumerate() {
            let mut block = [0u64; LANES];
            block[..chunk.len()].copy_from_slice(chunk);
            transpose64(&mut block);
            for (lane, w) in block.iter().enumerate() {
                self.rows[lane * self.words + b] = *w;
            }
        }
    }

    fn row(&self, lane: usize) -> &[u64] {
        &self.rows[lane * self.words..][..self.words]
    }
}

/// One transition of the bit-sliced oracle: the input cube as care/value
/// masks (bit `k` = input `k`) and the destination.
struct OracleArc {
    care: u64,
    value: u64,
    to: u32,
}

/// The STG as per-state transition lists, evaluated 64 lanes at a time.
///
/// Within a state the arcs keep declaration order and the first match
/// claims a lane, so a lane takes exactly the transition
/// [`Stg::lookup`] finds; a lane no arc claims holds its state with zero
/// outputs — the completion rule of [`Stg::step`].
struct BitOracle {
    /// The arcs of state `s` are `arcs[first[s]..first[s + 1]]`.
    first: Vec<usize>,
    arcs: Vec<OracleArc>,
    /// Packed don't-care-as-zero outputs, `out_words` per arc.
    outs: Vec<u64>,
    out_words: usize,
}

/// `lane_arc` marker of a lane no transition matched.
const NO_ARC: u32 = u32::MAX;

impl BitOracle {
    fn new(stg: &Stg) -> Self {
        // A stable sort keeps declaration order within each state.
        let mut order: Vec<_> = stg.transitions().iter().collect();
        order.sort_by_key(|t| t.from);
        let mut first = vec![0usize; stg.num_states() + 1];
        for t in &order {
            first[t.from.index() + 1] += 1;
        }
        for s in 0..stg.num_states() {
            first[s + 1] += first[s];
        }
        let out_words = stg.num_outputs().div_ceil(64);
        let mut outs = vec![0u64; order.len() * out_words];
        let mut arcs = Vec::with_capacity(order.len());
        for (a, t) in order.iter().enumerate() {
            let (mut care, mut value) = (0u64, 0u64);
            for (k, trit) in t.input.trits().iter().enumerate() {
                if let Some(v) = trit.value() {
                    care |= 1 << k;
                    value |= u64::from(v) << k;
                }
            }
            for (o, trit) in t.output.trits().iter().enumerate() {
                if trit.value() == Some(true) {
                    outs[a * out_words + o / 64] |= 1 << (o % 64);
                }
            }
            arcs.push(OracleArc {
                care,
                value,
                to: t.to.0,
            });
        }
        BitOracle {
            first,
            arcs,
            outs,
            out_words,
        }
    }

    fn outs(&self, arc: u32) -> &[u64] {
        &self.outs[arc as usize * self.out_words..][..self.out_words]
    }

    /// Steps `state` in the lanes of `group`, whose low six inputs are
    /// [`LANE_BITS`] and higher inputs the bits of `base`: records each
    /// lane's arc in `lane_arc` and ORs the outputs into `expected` (one
    /// lane word per output).
    fn step(
        &self,
        state: usize,
        group: u64,
        base: u64,
        lane_arc: &mut [u32; LANES],
        expected: &mut [u64],
    ) {
        let mut open = group;
        for a in self.first[state]..self.first[state + 1] {
            let arc = &self.arcs[a];
            if arc.care & !63 & (arc.value ^ base) != 0 {
                continue;
            }
            let mut hit = open;
            let mut low = arc.care & 63;
            while low != 0 {
                let k = low.trailing_zeros() as usize;
                low &= low - 1;
                hit &= if arc.value >> k & 1 == 1 {
                    LANE_BITS[k]
                } else {
                    !LANE_BITS[k]
                };
            }
            if hit == 0 {
                continue;
            }
            open &= !hit;
            let mut lanes = hit;
            while lanes != 0 {
                lane_arc[lanes.trailing_zeros() as usize] = a as u32;
                lanes &= lanes - 1;
            }
            for (w, word) in self.outs(a as u32).iter().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    expected[w * 64 + bits.trailing_zeros() as usize] |= hit;
                    bits &= bits - 1;
                }
            }
            if open == 0 {
                return;
            }
        }
        while open != 0 {
            lane_arc[open.trailing_zeros() as usize] = NO_ARC;
            open &= open - 1;
        }
    }
}

/// Exhaustively verifies `netlist` against `stg` by product-machine
/// reachability: starting from the joint reset state, every reachable
/// (oracle state, implementation state) pair is expanded under **all**
/// `2^I` input vectors, and outputs are compared on each edge. Unlike
/// [`verify_against_stg`] this is a proof, not a sample — any reachable
/// divergence is found.
///
/// The implementation state is the vector of its sequential elements
/// (FF values and BRAM output latches), so the walk terminates: the
/// joint state space is finite and only reachable states are visited.
///
/// Edges are expanded through the bit-parallel
/// [`netsim::kernel::BatchSimulator`], 64 per clock, in the exact global
/// edge order of the scalar walk (FIFO node order × minterm order), so
/// the report counts and the first-divergence witness are identical to
/// [`verify_exhaustive_scalar`]. The oracle side is bit-sliced too: the
/// STG is stepped for a whole node's lanes with word operations, and
/// outputs are compared word-wise. Netlists with BRAM write ports fall
/// back to the scalar walk (their memory contents are architectural state
/// beyond the sequential nets, so the lane snapshot would under-key).
///
/// # Errors
///
/// Returns a [`VerifyError`] with a minimal-length witness input trace on
/// divergence, or `InputsTooWide` when `2^I` enumeration is infeasible.
pub fn verify_exhaustive(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    max_inputs: usize,
) -> Result<ExhaustiveReport, VerifyError> {
    check_exhaustive_bounds(netlist, stg, max_inputs)?;
    let mut sim = BatchSimulator::new(netlist)?;
    if sim.has_write_ports() {
        return scalar_exhaustive_walk(netlist, stg, timing);
    }
    sim.set_active(0);

    let num_inputs = stg.num_inputs();
    let num_outputs = stg.num_outputs();
    let out_nets: Vec<NetId> = netlist.outputs()[..num_outputs]
        .iter()
        .map(|(_, n)| *n)
        .collect();
    let oracle = BitOracle::new(stg);
    let mut port = SeqPort::new(&sim);

    // Joint key: implementation snapshot, oracle outputs, oracle state.
    let (snap_words, out_words) = (port.words, oracle.out_words);
    let state_word = snap_words + out_words;
    let mut key = vec![0u64; state_word + 1];
    key[..snap_words].copy_from_slice(port.row(0));
    key[state_word] = u64::from(stg.reset_state().0);
    let mut walk = ProductWalk::new(num_inputs, &key);

    let mut expected = vec![0u64; num_outputs];
    let mut got = vec![0u64; num_outputs];
    let mut lane_arc = [NO_ARC; LANES];
    while walk.next_batch() {
        port.load(&mut sim, &walk, 0);
        sim.clock_words(&walk.inputs);
        expected.fill(0);
        for j in 0..walk.count {
            let state = walk.key(walk.first + j)[state_word] as usize;
            oracle.step(
                state,
                walk.group(j),
                walk.base,
                &mut lane_arc,
                &mut expected,
            );
        }
        match timing {
            OutputTiming::Registered => {
                for (g, net) in got.iter_mut().zip(&out_nets) {
                    *g = sim.word(*net);
                }
            }
            OutputTiming::Combinational => {
                got.copy_from_slice(&sim.pre_edge_words()[..num_outputs]);
            }
        }
        let diff = got
            .iter()
            .zip(&expected)
            .fold(0u64, |acc, (g, e)| acc | (g ^ e))
            & walk.live;
        if diff != 0 {
            // Lanes run in edge order, so the lowest divergent lane is the
            // scalar walk's first divergent edge.
            let lane = diff.trailing_zeros() as usize;
            let lane_bits = |words: &[u64]| words.iter().map(|w| w >> lane & 1 == 1).collect();
            return Err(VerifyError::Mismatch {
                cycle: walk.depth(walk.node_of(lane)),
                inputs: minterm_inputs(walk.minterm_of(lane), num_inputs),
                expected: lane_bits(&expected),
                got: lane_bits(&got),
            });
        }
        port.capture(&sim);
        let live_lanes = walk.live.count_ones() as usize;
        for (lane, &arc) in lane_arc.iter().enumerate().take(live_lanes) {
            key[..snap_words].copy_from_slice(port.row(lane));
            match arc {
                NO_ARC => {
                    key[snap_words..state_word].fill(0);
                    key[state_word] = walk.key(walk.node_of(lane))[state_word];
                }
                arc => {
                    key[snap_words..state_word].copy_from_slice(oracle.outs(arc));
                    key[state_word] = u64::from(oracle.arcs[arc as usize].to);
                }
            }
            walk.insert(&key, walk.node_of(lane));
        }
    }
    // The walk ends only when every discovered node has been expanded
    // under all 2^I minterms.
    Ok(ExhaustiveReport {
        states_explored: walk.parents.len(),
        edges_checked: walk.parents.len() << num_inputs,
    })
}

/// The shared precondition checks of the exhaustive walks.
fn check_exhaustive_bounds(
    netlist: &Netlist,
    stg: &Stg,
    max_inputs: usize,
) -> Result<(), VerifyError> {
    if stg.num_inputs() > max_inputs || stg.num_inputs() > 20 {
        return Err(VerifyError::InputsTooWide {
            inputs: stg.num_inputs(),
            limit: max_inputs.min(20),
        });
    }
    if netlist.outputs().len() < stg.num_outputs() {
        return Err(VerifyError::PortCount {
            found: netlist.outputs().len(),
            expected: stg.num_outputs(),
        });
    }
    Ok(())
}

/// The scalar (one edge per clock) exhaustive product walk — the original
/// implementation, retained as the differential-testing oracle for the
/// bit-parallel walk and as the benchmark baseline. [`verify_exhaustive`]
/// also routes here for netlists with BRAM write ports, whose memory
/// contents the batched sequential-net snapshot cannot key.
///
/// # Errors
///
/// Identical contract to [`verify_exhaustive`]: a minimal witness on
/// divergence, `InputsTooWide` when enumeration is infeasible.
pub fn verify_exhaustive_scalar(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    max_inputs: usize,
) -> Result<ExhaustiveReport, VerifyError> {
    check_exhaustive_bounds(netlist, stg, max_inputs)?;
    scalar_exhaustive_walk(netlist, stg, timing)
}

fn scalar_exhaustive_walk(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
) -> Result<ExhaustiveReport, VerifyError> {
    let base = Simulator::new(netlist)?;

    // Joint state key: oracle (state, latched outputs) + implementation
    // sequential snapshot.
    type Key = (u32, Vec<bool>, Vec<bool>);
    let snapshot = |sim: &Simulator<'_>| -> Vec<bool> {
        let mut v = Vec::new();
        for cell in netlist.cells() {
            match cell {
                fpga_fabric::netlist::Cell::Ff { q, .. } => v.push(sim.value(*q)),
                fpga_fabric::netlist::Cell::Bram { dout, .. } => {
                    v.extend(dout.iter().map(|d| sim.value(*d)));
                }
                _ => {}
            }
        }
        v
    };

    let oracle0 = StgSimulator::new(stg);
    let key0: Key = (
        oracle0.state().0,
        oracle0.outputs().to_vec(),
        snapshot(&base),
    );
    let mut seen: std::collections::HashSet<Key> = std::collections::HashSet::new();
    seen.insert(key0.clone());
    // BFS queue holds (oracle, implementation, input trace to reach it).
    let mut queue: std::collections::VecDeque<(StgSimulator<'_>, Simulator<'_>, Vec<Vec<bool>>)> =
        std::collections::VecDeque::new();
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
            let got_all = match timing {
                OutputTiming::Registered => h2.outputs(),
                OutputTiming::Combinational => h2.pre_edge_outputs().to_vec(),
            };
            let got = got_all[..stg.num_outputs()].to_vec();
            edges_checked += 1;
            if got != expected {
                let mut witness = trace.clone();
                witness.push(inputs.clone());
                return Err(VerifyError::Mismatch {
                    cycle: witness.len() - 1,
                    inputs,
                    expected,
                    got,
                });
            }
            let key: Key = (o2.state().0, o2.outputs().to_vec(), snapshot(&h2));
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

/// Statistics of a completed exhaustive verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveReport {
    /// Reachable joint (oracle, implementation) states explored.
    pub states_explored: usize,
    /// Transitions (state × input vector) checked.
    pub edges_checked: usize,
}

/// How a rewrite was verified: by the exhaustive product-walk proof, or —
/// when the input space is too wide to enumerate — by sampled lockstep
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationMethod {
    /// Every reachable joint state was expanded under all input vectors:
    /// a proof of equivalence, with walk statistics.
    Exhaustive(ExhaustiveReport),
    /// Random-stimulus lockstep comparison over this many cycles (the
    /// typed fallback for machines with too many inputs to enumerate).
    Sampled {
        /// Cycles simulated.
        cycles: usize,
    },
}

impl VerificationMethod {
    /// True when the rewrite was proven, not sampled.
    #[must_use]
    pub fn is_exhaustive(&self) -> bool {
        matches!(self, VerificationMethod::Exhaustive(_))
    }
}

/// Verification ladder for netlist-producing rewrites (EMB mapping with
/// compaction / Mealy→Moore output transform / series banks, and the
/// clock-control rewrite): run the exhaustive product-walk proof whenever
/// the machine's input count permits (`inputs ≤ min(max_inputs, 20)`),
/// and fall back to sampled lockstep simulation — a typed downgrade, not
/// a silent one — above that.
///
/// # Errors
///
/// Any divergence from the oracle, by either rung, as a [`VerifyError`].
pub fn verify_rewrite(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    max_inputs: usize,
    cycles: usize,
    seed: u64,
) -> Result<VerificationMethod, VerifyError> {
    match verify_exhaustive(netlist, stg, timing, max_inputs) {
        Ok(report) => Ok(VerificationMethod::Exhaustive(report)),
        Err(VerifyError::InputsTooWide { .. }) => {
            verify_against_stg(netlist, stg, timing, cycles, seed)?;
            Ok(VerificationMethod::Sampled { cycles })
        }
        Err(e) => Err(e),
    }
}

/// Exhaustively decides whether two netlists are observationally
/// equivalent: a BFS product walk from the joint reset state expands
/// every reachable (state of `a`, state of `b`) pair under all `2^I`
/// input vectors and compares the registered output ports on each edge.
///
/// This is the ground-truth oracle the mutation tests calibrate against:
/// a mutation is *observable* iff this returns `false`, and a sound and
/// complete verifier must flag exactly the observable mutants.
///
/// Both netlists must expose the same input and output port counts.
///
/// Like [`verify_exhaustive`], the walk runs on the bit-parallel kernel
/// and the same batch-aligned walk — two lockstep [`BatchSimulator`]s
/// expand 64 joint edges per clock — and falls back to the scalar
/// pairwise walk when either netlist has BRAM write ports.
///
/// # Errors
///
/// Returns `InputsTooWide` when `2^I` enumeration is infeasible,
/// `PortCount` on mismatched interfaces, or a structural error.
pub fn netlists_equivalent(
    a: &Netlist,
    b: &Netlist,
    max_inputs: usize,
) -> Result<bool, VerifyError> {
    let num_inputs = check_pair_bounds(a, b, max_inputs)?;
    let mut sa = BatchSimulator::new(a)?;
    let mut sb = BatchSimulator::new(b)?;
    if sa.has_write_ports() || sb.has_write_ports() {
        return netlists_equivalent_scalar_walk(a, b, num_inputs);
    }
    sa.set_active(0);
    sb.set_active(0);
    let out_pairs: Vec<(NetId, NetId)> = a
        .outputs()
        .iter()
        .zip(b.outputs())
        .map(|((_, na), (_, nb))| (*na, *nb))
        .collect();
    let (mut pa, mut pb) = (SeqPort::new(&sa), SeqPort::new(&sb));

    // Joint key: the snapshot of `a`, then the snapshot of `b`.
    let mut key = [pa.row(0), pb.row(0)].concat();
    let mut walk = ProductWalk::new(num_inputs, &key);
    while walk.next_batch() {
        pa.load(&mut sa, &walk, 0);
        pb.load(&mut sb, &walk, pa.words);
        sa.clock_words(&walk.inputs);
        sb.clock_words(&walk.inputs);
        let diff = out_pairs
            .iter()
            .fold(0u64, |acc, (na, nb)| acc | (sa.word(*na) ^ sb.word(*nb)));
        if diff & walk.live != 0 {
            return Ok(false);
        }
        pa.capture(&sa);
        pb.capture(&sb);
        for lane in 0..walk.live.count_ones() as usize {
            key[..pa.words].copy_from_slice(pa.row(lane));
            key[pa.words..].copy_from_slice(pb.row(lane));
            walk.insert(&key, walk.node_of(lane));
        }
    }
    Ok(true)
}

/// The shared precondition checks of the pairwise walks; returns the
/// input count.
fn check_pair_bounds(a: &Netlist, b: &Netlist, max_inputs: usize) -> Result<usize, VerifyError> {
    let num_inputs = a.inputs().len();
    if num_inputs > max_inputs || num_inputs > 20 {
        return Err(VerifyError::InputsTooWide {
            inputs: num_inputs,
            limit: max_inputs.min(20),
        });
    }
    if b.inputs().len() != num_inputs || b.outputs().len() != a.outputs().len() {
        return Err(VerifyError::PortCount {
            found: b.outputs().len(),
            expected: a.outputs().len(),
        });
    }
    Ok(num_inputs)
}

/// The scalar (one edge per clock) pairwise product walk — the
/// differential-testing oracle of [`netlists_equivalent`], which also
/// routes here for netlists with BRAM write ports.
///
/// # Errors
///
/// Identical contract to [`netlists_equivalent`].
pub fn netlists_equivalent_scalar(
    a: &Netlist,
    b: &Netlist,
    max_inputs: usize,
) -> Result<bool, VerifyError> {
    let num_inputs = check_pair_bounds(a, b, max_inputs)?;
    netlists_equivalent_scalar_walk(a, b, num_inputs)
}

fn netlists_equivalent_scalar_walk(
    a: &Netlist,
    b: &Netlist,
    num_inputs: usize,
) -> Result<bool, VerifyError> {
    let snapshot = |n: &Netlist, sim: &Simulator<'_>| -> Vec<bool> {
        let mut v = Vec::new();
        for cell in n.cells() {
            match cell {
                fpga_fabric::netlist::Cell::Ff { q, .. } => v.push(sim.value(*q)),
                fpga_fabric::netlist::Cell::Bram { dout, .. } => {
                    v.extend(dout.iter().map(|d| sim.value(*d)));
                }
                _ => {}
            }
        }
        v
    };
    let sa = Simulator::new(a)?;
    let sb = Simulator::new(b)?;
    let mut seen = std::collections::HashSet::new();
    seen.insert((snapshot(a, &sa), snapshot(b, &sb)));
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((sa, sb));
    while let Some((sa, sb)) = queue.pop_front() {
        for m in 0..1u64 << num_inputs {
            let inputs: Vec<bool> = (0..num_inputs).map(|i| m >> i & 1 == 1).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::ff_netlist;
    use crate::map::{map_fsm_into_embs, EmbOptions, OutputMode};
    use fsm_model::benchmarks::{rotary_sequencer, sequence_detector_0101, traffic_light};
    use logic_synth::synth::{synthesize, SynthOptions};

    #[test]
    fn ff_baseline_verifies_combinational() {
        for stg in [
            sequence_detector_0101(),
            traffic_light(),
            rotary_sequencer(),
        ] {
            let synth = synthesize(&stg, SynthOptions::default()).unwrap();
            let (n, _) = ff_netlist(&synth, false);
            verify_against_stg(&n, &stg, OutputTiming::Combinational, 500, 42)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        }
    }

    #[test]
    fn emb_mapping_verifies_registered() {
        for stg in [
            sequence_detector_0101(),
            traffic_light(),
            rotary_sequencer(),
        ] {
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
            let n = emb.to_netlist();
            verify_against_stg(&n, &stg, OutputTiming::Registered, 500, 43)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        }
    }

    #[test]
    fn emb_with_moore_lut_outputs_verifies() {
        for stg in [traffic_light(), sequence_detector_0101()] {
            let emb = map_fsm_into_embs(
                &stg,
                &EmbOptions {
                    output_mode: OutputMode::MooreLuts,
                    ..EmbOptions::default()
                },
            )
            .unwrap();
            let n = emb.to_netlist();
            verify_against_stg(&n, &stg, OutputTiming::Registered, 500, 44)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
        }
    }

    #[test]
    fn emb_with_compaction_verifies() {
        let spec = fsm_model::generate::StgSpec {
            states: 10,
            inputs: 15,
            outputs: 3,
            transitions: 40,
            max_support: Some(3),
            ..fsm_model::generate::StgSpec::new("cmp")
        };
        let stg = fsm_model::generate::generate(&spec).expect("generates");
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        assert!(emb.input_mux.is_some());
        let n = emb.to_netlist();
        verify_against_stg(&n, &stg, OutputTiming::Registered, 800, 45).unwrap();
    }

    #[test]
    fn emb_with_series_banks_verifies() {
        let spec = fsm_model::generate::StgSpec {
            states: 4,
            inputs: 13,
            outputs: 2,
            transitions: 16,
            max_support: Some(13),
            ..fsm_model::generate::StgSpec::new("series")
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
        assert!(emb.banks >= 2, "series path must engage");
        let n = emb.to_netlist();
        verify_against_stg(&n, &stg, OutputTiming::Registered, 800, 46).unwrap();
    }

    #[test]
    fn mismatch_is_reported_with_context() {
        // Corrupt one ROM word and expect a diagnosed divergence.
        let stg = sequence_detector_0101();
        let mut emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        emb.rom[0] ^= 0b100; // flip the output bit of (A, input 0)
        let n = emb.to_netlist();
        let err = verify_against_stg(&n, &stg, OutputTiming::Registered, 500, 47).unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn exhaustive_proves_small_machines() {
        for stg in [sequence_detector_0101(), traffic_light()] {
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
            let rep = verify_exhaustive(&emb.to_netlist(), &stg, OutputTiming::Registered, 8)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            assert!(rep.states_explored >= stg.num_states());
            assert!(rep.edges_checked >= rep.states_explored);

            let synth = synthesize(&stg, SynthOptions::default()).unwrap();
            let (ffn, _) = ff_netlist(&synth, false);
            verify_exhaustive(&ffn, &stg, OutputTiming::Combinational, 8)
                .unwrap_or_else(|e| panic!("{} ff: {e}", stg.name()));
        }
    }

    #[test]
    fn exhaustive_finds_buried_bugs() {
        // Corrupt a word reachable only through a specific 3-step prefix;
        // the exhaustive walk must find it and report a witness.
        let stg = sequence_detector_0101();
        let mut emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        emb.rom[0b111] ^= 0b100; // the detection word (state D, input 1)
        let err =
            verify_exhaustive(&emb.to_netlist(), &stg, OutputTiming::Registered, 8).unwrap_err();
        match err {
            VerifyError::Mismatch { cycle, .. } => {
                assert!(cycle >= 1, "needs a prefix to reach state D");
            }
            other => panic!("expected mismatch, got {other}"),
        }
    }

    #[test]
    fn exhaustive_refuses_wide_inputs() {
        let stg = fsm_model::benchmarks::by_name("sand").unwrap(); // 11 inputs
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let err =
            verify_exhaustive(&emb.to_netlist(), &stg, OutputTiming::Registered, 8).unwrap_err();
        assert!(matches!(err, VerifyError::InputsTooWide { .. }));
    }

    #[test]
    fn batched_walk_matches_scalar_reports_and_witnesses() {
        // The kernel-backed walk must be indistinguishable from the scalar
        // oracle: same exploration counts on success, same first-divergence
        // witness on failure.
        for stg in [
            sequence_detector_0101(),
            traffic_light(),
            rotary_sequencer(),
        ] {
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
            let n = emb.to_netlist();
            let batched = verify_exhaustive(&n, &stg, OutputTiming::Registered, 20)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            let scalar = verify_exhaustive_scalar(&n, &stg, OutputTiming::Registered, 20)
                .unwrap_or_else(|e| panic!("{}: {e}", stg.name()));
            assert_eq!(batched, scalar, "{}", stg.name());
        }

        let stg = sequence_detector_0101();
        let mut emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        emb.rom[0b111] ^= 0b100; // reachable only through a 3-step prefix
        let n = emb.to_netlist();
        let b = verify_exhaustive(&n, &stg, OutputTiming::Registered, 8).unwrap_err();
        let s = verify_exhaustive_scalar(&n, &stg, OutputTiming::Registered, 8).unwrap_err();
        assert_eq!(b, s, "witnesses must agree edge-for-edge");
    }

    #[test]
    fn netlist_equivalence_identity_and_mutant() {
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let n = emb.to_netlist();
        assert_eq!(netlists_equivalent(&n, &n, 8), Ok(true));

        let mut broken = emb.clone();
        broken.rom[0] ^= 0b100; // flip a reachable output bit
        let m = broken.to_netlist();
        assert_eq!(netlists_equivalent(&n, &m, 8), Ok(false));
    }

    #[test]
    fn netlist_equivalence_refuses_wide_inputs() {
        let stg = fsm_model::benchmarks::by_name("sand").unwrap(); // 11 inputs
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let n = emb.to_netlist();
        assert!(matches!(
            netlists_equivalent(&n, &n, 8),
            Err(VerifyError::InputsTooWide { .. })
        ));
    }

    #[test]
    fn rewrite_ladder_proves_narrow_and_samples_wide() {
        // Narrow machine: the ladder takes the exhaustive rung.
        let stg = sequence_detector_0101();
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        let method =
            verify_rewrite(&emb.to_netlist(), &stg, OutputTiming::Registered, 20, 200, 7).unwrap();
        assert!(method.is_exhaustive(), "{method:?}");

        // Wide machine (sand, 11 inputs) against a tight cap: typed
        // fallback to sampling, not an error.
        let wide = fsm_model::benchmarks::by_name("sand").unwrap();
        let emb = map_fsm_into_embs(&wide, &EmbOptions::default()).unwrap();
        let method =
            verify_rewrite(&emb.to_netlist(), &wide, OutputTiming::Registered, 8, 200, 7).unwrap();
        assert_eq!(method, VerificationMethod::Sampled { cycles: 200 });

        // A divergent netlist still fails through the ladder.
        let mut broken = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
        broken.rom[0] ^= 0b100;
        let err = verify_rewrite(
            &broken.to_netlist(),
            &stg,
            OutputTiming::Registered,
            20,
            200,
            7,
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn paper_benchmarks_verify_both_ways() {
        // The full suite is exercised in integration tests; spot-check two
        // representative machines here (one small, one with compaction).
        for name in ["donfile", "sand"] {
            let stg = fsm_model::benchmarks::by_name(name).unwrap();
            let synth = synthesize(&stg, SynthOptions::default()).unwrap();
            let (ffn, _) = ff_netlist(&synth, false);
            verify_against_stg(&ffn, &stg, OutputTiming::Combinational, 400, 48)
                .unwrap_or_else(|e| panic!("{name} ff: {e}"));
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).unwrap();
            let n = emb.to_netlist();
            verify_against_stg(&n, &stg, OutputTiming::Registered, 400, 49)
                .unwrap_or_else(|e| panic!("{name} emb: {e}"));
        }
    }
}
