//! Multi-level boolean networks.
//!
//! A [`Network`] is a DAG of nodes, each computing a local sum-of-products
//! function ([`Cover`]) over its fanins — the same model SIS uses. Primary
//! inputs are leaf nodes; primary outputs name internal nodes or inputs.
//! The FF-baseline synthesis flow produces one network per FSM containing
//! the next-state and output functions; decomposition and technology
//! mapping then rewrite it toward LUTs.

use crate::cover::Cover;
use crate::truth::TruthTable;
use std::fmt;

/// Index of a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A network node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Primary input with a name.
    Input(String),
    /// Constant false/true.
    Constant(bool),
    /// Internal node: SOP over the listed fanins. `cover` variable *i*
    /// refers to `fanins[i]`.
    Logic {
        /// Fanin node ids, in cover-variable order.
        fanins: Vec<NodeId>,
        /// Local function over the fanins.
        cover: Cover,
    },
}

/// Errors produced by network construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A fanin reference points forward or out of range (networks are built
    /// in topological order).
    BadFanin {
        /// Node being constructed.
        node: usize,
        /// Offending fanin.
        fanin: u32,
    },
    /// The cover's variable count disagrees with the fanin count.
    CoverArity {
        /// Node being constructed.
        node: usize,
        /// Number of fanins supplied.
        fanins: usize,
        /// Cover variable count.
        cover_vars: usize,
    },
    /// An output references a nonexistent node.
    BadOutput(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BadFanin { node, fanin } => {
                write!(f, "node {node} references invalid fanin {fanin}")
            }
            NetworkError::CoverArity {
                node,
                fanins,
                cover_vars,
            } => write!(
                f,
                "node {node} has {fanins} fanins but its cover uses {cover_vars} variables"
            ),
            NetworkError::BadOutput(n) => write!(f, "output {n:?} references unknown node"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A boolean network in topological order (fanins always precede users).
#[derive(Debug, Clone, Default)]
pub struct Network {
    nodes: Vec<Node>,
    outputs: Vec<(String, NodeId)>,
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a primary input; returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(Node::Input(name.into()));
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Adds a constant node.
    pub fn add_constant(&mut self, value: bool) -> NodeId {
        self.nodes.push(Node::Constant(value));
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Adds a logic node.
    ///
    /// # Errors
    ///
    /// Fails if a fanin is not an earlier node or the cover arity mismatches
    /// the fanin list.
    pub fn add_logic(&mut self, fanins: Vec<NodeId>, cover: Cover) -> Result<NodeId, NetworkError> {
        let idx = self.nodes.len();
        for f in &fanins {
            if f.index() >= idx {
                return Err(NetworkError::BadFanin {
                    node: idx,
                    fanin: f.0,
                });
            }
        }
        if cover.num_vars() != fanins.len() {
            return Err(NetworkError::CoverArity {
                node: idx,
                fanins: fanins.len(),
                cover_vars: cover.num_vars(),
            });
        }
        self.nodes.push(Node::Logic { fanins, cover });
        Ok(NodeId(idx as u32))
    }

    /// Declares a primary output.
    ///
    /// # Errors
    ///
    /// Fails if `node` is out of range.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
    ) -> Result<(), NetworkError> {
        let name = name.into();
        if node.index() >= self.nodes.len() {
            return Err(NetworkError::BadOutput(name));
        }
        self.outputs.push((name, node));
        Ok(())
    }

    /// All nodes, in topological order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Primary outputs as `(name, node)` pairs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Ids and names of the primary inputs, in creation order.
    pub fn inputs(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            Node::Input(name) => Some((NodeId(i as u32), name.as_str())),
            _ => None,
        })
    }

    /// Evaluates every node for the given input assignment.
    ///
    /// `inputs` maps input *creation order* to values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the number of primary inputs.
    #[must_use]
    pub fn eval_all(&self, inputs: &[bool]) -> Vec<bool> {
        let mut values = vec![false; self.nodes.len()];
        let mut input_idx = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::Input(_) => {
                    let v = inputs[input_idx];
                    input_idx += 1;
                    v
                }
                Node::Constant(c) => *c,
                Node::Logic { fanins, cover } => {
                    let mut bits = 0u64;
                    for (k, f) in fanins.iter().enumerate() {
                        if values[f.index()] {
                            bits |= 1 << k;
                        }
                    }
                    cover.eval(bits)
                }
            };
        }
        values
    }

    /// Evaluates just the primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the number of primary inputs.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.eval_all(inputs);
        self.outputs
            .iter()
            .map(|(_, id)| values[id.index()])
            .collect()
    }

    /// Per-node fanout counts (uses as fanin plus uses as primary output).
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            if let Node::Logic { fanins, .. } = node {
                for f in fanins {
                    counts[f.index()] += 1;
                }
            }
        }
        for (_, id) in &self.outputs {
            counts[id.index()] += 1;
        }
        counts
    }

    /// Maximum fanin count over all logic nodes.
    #[must_use]
    pub fn max_fanin(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Logic { fanins, .. } => fanins.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Computes the global truth table of each primary output in terms of
    /// the primary inputs (inputs ≤ [`TruthTable::MAX_VARS`]).
    ///
    /// # Panics
    ///
    /// Panics if the network has more inputs than `TruthTable::MAX_VARS`.
    #[must_use]
    pub fn output_truth_tables(&self) -> Vec<TruthTable> {
        let num_inputs = self.inputs().count();
        assert!(
            num_inputs <= TruthTable::MAX_VARS,
            "too many inputs for dense evaluation"
        );
        let mut tables = vec![TruthTable::zeros(num_inputs); self.outputs.len()];
        for m in 0..1u64 << num_inputs {
            let bits: Vec<bool> = (0..num_inputs).map(|i| m >> i & 1 == 1).collect();
            for (o, v) in self.eval(&bits).into_iter().enumerate() {
                tables[o].set(m, v);
            }
        }
        tables
    }

    /// Retains only nodes reachable from the primary outputs (dead-node
    /// sweep). Inputs are always kept so input ordering is stable.
    #[must_use]
    pub fn sweep(&self) -> Network {
        let mut live = vec![false; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if matches!(n, Node::Input(_)) {
                live[i] = true;
            }
        }
        for (_, id) in &self.outputs {
            live[id.index()] = true;
        }
        for i in (0..self.nodes.len()).rev() {
            if live[i] {
                if let Node::Logic { fanins, .. } = &self.nodes[i] {
                    for f in fanins {
                        live[f.index()] = true;
                    }
                }
            }
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut out = Network::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let new_id = match n {
                Node::Input(name) => out.add_input(name.clone()),
                Node::Constant(v) => out.add_constant(*v),
                Node::Logic { fanins, cover } => {
                    let fs: Vec<NodeId> = fanins
                        .iter()
                        .map(|f| remap[f.index()].expect("fanins processed first"))
                        .collect();
                    out.add_logic(fs, cover.clone())
                        .expect("sweep preserves validity")
                }
            };
            remap[i] = Some(new_id);
        }
        for (name, id) in &self.outputs {
            out.add_output(name.clone(), remap[id.index()].expect("outputs are live"))
                .expect("sweep preserves outputs");
        }
        out
    }
}

/// Helper for building 2-input gates as covers.
pub mod gates {
    use super::Cover;
    use crate::cube::Cube;

    fn cover2(cubes: &[&str]) -> Cover {
        Cover::from_cubes(
            2,
            cubes
                .iter()
                .map(|s| Cube::from_pattern(&s.parse().expect("valid pattern")))
                .collect(),
        )
    }

    /// `a AND b`.
    #[must_use]
    pub fn and2() -> Cover {
        cover2(&["11"])
    }

    /// `a OR b`.
    #[must_use]
    pub fn or2() -> Cover {
        cover2(&["1-", "-1"])
    }

    /// `a XOR b`.
    #[must_use]
    pub fn xor2() -> Cover {
        cover2(&["10", "01"])
    }

    /// `NOT a` (1-variable cover).
    #[must_use]
    pub fn not1() -> Cover {
        Cover::from_cubes(
            1,
            vec![Cube::from_pattern(&"0".parse().expect("valid pattern"))],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    fn pat(s: &str) -> Cube {
        Cube::from_pattern(&s.parse().unwrap())
    }

    #[test]
    fn build_and_eval_full_adder() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cin = net.add_input("cin");
        // sum = a xor b xor cin as a flat SOP.
        let sum_cover = Cover::from_cubes(3, vec![pat("100"), pat("010"), pat("001"), pat("111")]);
        let sum = net.add_logic(vec![a, b, cin], sum_cover).unwrap();
        let carry_cover = Cover::from_cubes(3, vec![pat("11-"), pat("1-1"), pat("-11")]);
        let carry = net.add_logic(vec![a, b, cin], carry_cover).unwrap();
        net.add_output("sum", sum).unwrap();
        net.add_output("carry", carry).unwrap();

        for m in 0..8u32 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1];
            let got = net.eval(&bits);
            let total = u32::from(bits[0]) + u32::from(bits[1]) + u32::from(bits[2]);
            assert_eq!(got[0], total & 1 == 1, "sum at {m}");
            assert_eq!(got[1], total >= 2, "carry at {m}");
        }
    }

    #[test]
    fn forward_fanin_rejected() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let err = net
            .add_logic(vec![a, NodeId(7)], gates::and2())
            .unwrap_err();
        assert!(matches!(err, NetworkError::BadFanin { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let err = net.add_logic(vec![a], gates::and2()).unwrap_err();
        assert!(matches!(err, NetworkError::CoverArity { .. }));
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let live = net.add_logic(vec![a, b], gates::and2()).unwrap();
        let _dead = net.add_logic(vec![a, b], gates::or2()).unwrap();
        net.add_output("y", live).unwrap();
        let swept = net.sweep();
        assert_eq!(swept.len(), 3); // 2 inputs + 1 logic
        for m in 0..4u32 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1];
            assert_eq!(net.eval(&bits), swept.eval(&bits));
        }
    }

    #[test]
    fn output_truth_tables_match_eval() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_logic(vec![a, b], gates::xor2()).unwrap();
        net.add_output("x", x).unwrap();
        let tt = &net.output_truth_tables()[0];
        for m in 0..4u64 {
            let bits = [m & 1 == 1, m >> 1 & 1 == 1];
            assert_eq!(tt.get(m), net.eval(&bits)[0]);
        }
    }

    #[test]
    fn constants_and_fanout() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let one = net.add_constant(true);
        let y = net.add_logic(vec![a, one], gates::and2()).unwrap();
        net.add_output("y", y).unwrap();
        assert_eq!(net.eval(&[true]), vec![true]);
        assert_eq!(net.eval(&[false]), vec![false]);
        let counts = net.fanout_counts();
        assert_eq!(counts[a.index()], 1);
        assert_eq!(counts[y.index()], 1);
    }

    #[test]
    fn gate_covers_are_correct() {
        assert!(gates::and2().eval(0b11));
        assert!(!gates::and2().eval(0b01));
        assert!(gates::or2().eval(0b10));
        assert!(!gates::or2().eval(0b00));
        assert!(gates::xor2().eval(0b01));
        assert!(!gates::xor2().eval(0b11));
        assert!(gates::not1().eval(0));
        assert!(!gates::not1().eval(1));
    }
}
