//! Technology-mapped netlists.
//!
//! A [`Netlist`] is the post-mapping design representation shared by the
//! packer, placer, router, simulator and power model: LUT4 cells, D
//! flip-flops, block RAMs (with optional enable — the port the paper's
//! clock-control technique drives), constants, and named top-level ports.
//! There is a single implicit clock domain, matching the paper's designs.

use crate::device::BramShape;
use std::collections::HashMap;
use std::fmt;

/// Index of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The net index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The cell index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A mapped cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A K-input LUT (K ≤ 6; Virtex-II uses 4).
    Lut {
        /// Input nets, truth-table variable order.
        inputs: Vec<NetId>,
        /// Output net.
        output: NetId,
        /// Truth table packed LSB-first (entry for input pattern `m` is bit
        /// `m`).
        truth: u64,
    },
    /// A D flip-flop on the implicit clock.
    Ff {
        /// Data input net.
        d: NetId,
        /// Output net.
        q: NetId,
        /// Optional clock-enable net (holds state when low).
        ce: Option<NetId>,
        /// Power-on / reset value.
        init: bool,
    },
    /// A block RAM used as a ROM (single read port, registered output).
    Bram {
        /// Aspect ratio.
        shape: BramShape,
        /// Address nets, LSB first (`addr.len() == shape.addr_bits`).
        addr: Vec<NetId>,
        /// Data output nets, LSB first (`dout.len() <= shape.data_bits`;
        /// unused high bits may be omitted).
        dout: Vec<NetId>,
        /// Optional enable net: when low, the output latches hold (the
        /// BRAM is not clocked — the paper's Sec. 6 power lever).
        en: Option<NetId>,
        /// Memory contents, one word per address; only the low
        /// `data_bits` of a word may be set ([`Netlist::validate`]
        /// refuses a higher bit).
        init: Vec<u64>,
        /// Output-latch value after configuration/reset (the paper relies
        /// on cleared latches addressing word 0).
        output_init: u64,
    },
    /// A constant driver.
    Const {
        /// Output net.
        output: NetId,
        /// Value.
        value: bool,
    },
}

impl Cell {
    /// The nets this cell drives.
    #[must_use]
    pub fn outputs(&self) -> Vec<NetId> {
        match self {
            Cell::Lut { output, .. } | Cell::Const { output, .. } => vec![*output],
            Cell::Ff { q, .. } => vec![*q],
            Cell::Bram { dout, .. } => dout.clone(),
        }
    }

    /// The nets this cell reads.
    #[must_use]
    pub fn inputs(&self) -> Vec<NetId> {
        match self {
            Cell::Lut { inputs, .. } => inputs.clone(),
            Cell::Const { .. } => Vec::new(),
            Cell::Ff { d, ce, .. } => {
                let mut v = vec![*d];
                v.extend(ce.iter().copied());
                v
            }
            Cell::Bram { addr, en, .. } => {
                let mut v = addr.clone();
                v.extend(en.iter().copied());
                v
            }
        }
    }

    /// Is the cell sequential (clocked)?
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        matches!(self, Cell::Ff { .. } | Cell::Bram { .. })
    }
}

/// Errors from netlist validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver (neither a cell output nor a top-level input).
    Undriven(NetId),
    /// A net has multiple drivers.
    MultiplyDriven(NetId),
    /// A combinational cycle exists through LUTs.
    CombinationalCycle,
    /// A cell references a net id out of range.
    BadNet {
        /// The offending cell.
        cell: CellId,
        /// The offending net.
        net: NetId,
    },
    /// Structural inconsistency (wrong pin counts etc).
    Malformed {
        /// The offending cell.
        cell: CellId,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven(n) => write!(f, "net {} has no driver", n.0),
            NetlistError::MultiplyDriven(n) => write!(f, "net {} has multiple drivers", n.0),
            NetlistError::CombinationalCycle => write!(f, "combinational cycle through LUTs"),
            NetlistError::BadNet { cell, net } => {
                write!(f, "cell {} references invalid net {}", cell.0, net.0)
            }
            NetlistError::Malformed { cell, reason } => {
                write!(f, "cell {}: {}", cell.0, reason)
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A mapped design.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    net_names: Vec<String>,
    cells: Vec<Cell>,
    inputs: Vec<(String, NetId)>,
    outputs: Vec<(String, NetId)>,
}

/// Whether a word of `init` has a bit at or above `shape.data_bits`. A
/// word is `data_bits` wide: the flow cache stores images packed to that
/// width, so a higher bit would not survive the round trip. (One OR over
/// the image vectorizes; an early-exit scan would not.)
fn init_too_wide(init: &[u64], shape: BramShape) -> bool {
    let bits = init.iter().fold(0, |any, &w| any | w);
    shape.data_bits < 64 && bits >> shape.data_bits != 0
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// Creates a net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.net_names.push(name.into());
        NetId((self.net_names.len() - 1) as u32)
    }

    /// Adds a cell.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        self.cells.push(cell);
        CellId((self.cells.len() - 1) as u32)
    }

    /// Declares `net` as a top-level input.
    pub fn add_input(&mut self, name: impl Into<String>, net: NetId) {
        self.inputs.push((name.into(), net));
    }

    /// Declares `net` as a top-level output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// A net's name.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Finds a net by name (first match).
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// All cells.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A cell by id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Top-level inputs.
    #[must_use]
    pub fn inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Top-level outputs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Counts of each cell type `(luts, ffs, brams, consts)`.
    #[must_use]
    pub fn cell_counts(&self) -> CellCounts {
        let mut c = CellCounts::default();
        for cell in &self.cells {
            match cell {
                Cell::Lut { .. } => c.luts += 1,
                Cell::Ff { .. } => c.ffs += 1,
                Cell::Bram { .. } => c.brams += 1,
                Cell::Const { .. } => c.consts += 1,
            }
        }
        c
    }

    /// Map from net to its driving cell (top-level inputs have none).
    #[must_use]
    pub fn driver_map(&self) -> HashMap<NetId, CellId> {
        let mut m = HashMap::new();
        for (i, cell) in self.cells.iter().enumerate() {
            for o in cell.outputs() {
                m.insert(o, CellId(i as u32));
            }
        }
        m
    }

    /// Per-net fanout: cells reading each net (top outputs not included).
    #[must_use]
    pub fn fanout_map(&self) -> Vec<Vec<CellId>> {
        let mut m = vec![Vec::new(); self.num_nets()];
        for (i, cell) in self.cells.iter().enumerate() {
            for n in cell.inputs() {
                m[n.index()].push(CellId(i as u32));
            }
        }
        m
    }

    /// Replaces the `init` contents of the BRAM cell at `cell_index`.
    ///
    /// The new image must have the same depth as the BRAM's shape. This is
    /// the content-rewrite (ECO) primitive: it changes no structure, so an
    /// existing placement/routing stays valid.
    ///
    /// # Errors
    ///
    /// Returns a message if the cell is not a BRAM, the image length is
    /// wrong, or a word has a bit at or above the shape's data width.
    pub fn replace_bram_init(
        &mut self,
        cell_index: usize,
        new_init: Vec<u64>,
    ) -> Result<(), String> {
        match self.cells.get_mut(cell_index) {
            Some(Cell::Bram { shape, init, .. }) => {
                if new_init.len() != shape.depth() {
                    return Err(format!(
                        "init image has {} words, shape {shape} needs {}",
                        new_init.len(),
                        shape.depth()
                    ));
                }
                if init_too_wide(&new_init, *shape) {
                    return Err(format!("init word wider than data width of {shape}"));
                }
                *init = new_init;
                Ok(())
            }
            Some(_) => Err(format!("cell {cell_index} is not a BRAM")),
            None => Err(format!("no cell {cell_index}")),
        }
    }

    /// A copy of this netlist with every BRAM's `init` image zeroed
    /// (`output_init` untouched). Two netlists that differ only in
    /// memory contents collapse onto the same zeroed skeleton — the
    /// structural identity an overlay base artifact is keyed on: one
    /// placement/routing of the skeleton is valid for every member of
    /// the class, because [`Netlist::replace_bram_init`] changes no
    /// structure.
    #[must_use]
    pub fn with_zeroed_bram_init(&self) -> Netlist {
        let mut n = self.clone();
        for cell in &mut n.cells {
            if let Cell::Bram { shape, init, .. } = cell {
                *init = vec![0u64; shape.depth()];
            }
        }
        n
    }

    /// Validates structural sanity: single drivers, no dangling references,
    /// consistent pin counts, and no combinational cycles. Returns the
    /// topological order of combinational cells on success.
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<Vec<CellId>, NetlistError> {
        let n = self.num_nets();
        let check = |cell: CellId, net: NetId| -> Result<(), NetlistError> {
            if net.index() >= n {
                Err(NetlistError::BadNet { cell, net })
            } else {
                Ok(())
            }
        };
        let mut driver: Vec<Option<bool>> = vec![None; n]; // Some(_) = driven
        for (i, cell) in self.cells.iter().enumerate() {
            let id = CellId(i as u32);
            for net in cell.inputs().into_iter().chain(cell.outputs()) {
                check(id, net)?;
            }
            match cell {
                Cell::Lut { inputs, truth, .. } => {
                    if inputs.len() > 6 {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: format!("LUT with {} inputs", inputs.len()),
                        });
                    }
                    if inputs.len() < 6 && *truth >> (1u64 << inputs.len()) != 0 {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: "truth table wider than input count".into(),
                        });
                    }
                }
                Cell::Bram {
                    shape,
                    addr,
                    dout,
                    init,
                    ..
                } => {
                    if addr.len() != shape.addr_bits {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: format!("{} address pins for shape {shape}", addr.len()),
                        });
                    }
                    if dout.len() > shape.data_bits {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: format!("{} data pins for shape {shape}", dout.len()),
                        });
                    }
                    if init.len() != shape.depth() {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: format!(
                                "{} init words for depth {}",
                                init.len(),
                                shape.depth()
                            ),
                        });
                    }
                    if init_too_wide(init, *shape) {
                        return Err(NetlistError::Malformed {
                            cell: id,
                            reason: "init word wider than data width".into(),
                        });
                    }
                }
                Cell::Ff { .. } | Cell::Const { .. } => {}
            }
            for o in cell.outputs() {
                if driver[o.index()].is_some() {
                    return Err(NetlistError::MultiplyDriven(o));
                }
                driver[o.index()] = Some(true);
            }
        }
        for (_, net) in &self.inputs {
            check(CellId(u32::MAX), *net)?;
            if driver[net.index()].is_some() {
                return Err(NetlistError::MultiplyDriven(*net));
            }
            driver[net.index()] = Some(false);
        }
        // Every net read by a cell or exported must be driven.
        for cell in &self.cells {
            for net in cell.inputs() {
                if driver[net.index()].is_none() {
                    return Err(NetlistError::Undriven(net));
                }
            }
        }
        for (_, net) in &self.outputs {
            if driver[net.index()].is_none() {
                return Err(NetlistError::Undriven(*net));
            }
        }
        self.combinational_order()
    }

    /// Topological order over combinational cells (LUTs/constants);
    /// sequential cells are sources/sinks.
    ///
    /// # Errors
    ///
    /// Fails with [`NetlistError::CombinationalCycle`] when LUTs form a
    /// loop not broken by a FF or BRAM.
    pub fn combinational_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let driver = self.driver_map();
        let n = self.cells.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::with_capacity(n);

        // Iterative DFS over combinational dependencies.
        for start in 0..n {
            if state[start] != 0 || self.cells[start].is_sequential() {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state[start] = 1;
            while let Some((cell, child)) = stack.last().copied() {
                let deps: Vec<usize> = self.cells[cell]
                    .inputs()
                    .iter()
                    .filter_map(|net| driver.get(net))
                    .map(|c| c.index())
                    .filter(|&c| !self.cells[c].is_sequential())
                    .collect();
                if child < deps.len() {
                    stack.last_mut().expect("non-empty stack").1 += 1;
                    let next = deps[child];
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return Err(NetlistError::CombinationalCycle),
                        _ => {}
                    }
                } else {
                    state[cell] = 2;
                    order.push(CellId(cell as u32));
                    stack.pop();
                }
            }
        }
        Ok(order)
    }
}

/// Cell-type totals of a netlist.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// LUT count.
    pub luts: usize,
    /// Flip-flop count.
    pub ffs: usize,
    /// Block-RAM count.
    pub brams: usize,
    /// Constant-driver count.
    pub consts: usize,
}

impl fmt::Display for CellCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT, {} FF, {} BRAM, {} const",
            self.luts, self.ffs, self.brams, self.consts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BramShape;

    /// A 2-bit counter with enable: en -> [lut, lut] -> ff -> loop.
    fn counter() -> Netlist {
        let mut n = Netlist::new("cnt");
        let en = n.add_net("en");
        let q0 = n.add_net("q0");
        let q1 = n.add_net("q1");
        let d0 = n.add_net("d0");
        let d1 = n.add_net("d1");
        n.add_input("en", en);
        n.add_output("q0", q0);
        n.add_output("q1", q1);
        // d0 = q0 ^ en : inputs [q0, en] -> truth 0110
        n.add_cell(Cell::Lut {
            inputs: vec![q0, en],
            output: d0,
            truth: 0b0110,
        });
        // d1 = q1 ^ (q0 & en): inputs [q1, q0, en] -> minterm eval
        let mut t = 0u64;
        for m in 0..8u64 {
            let q1v = m & 1 == 1;
            let q0v = m >> 1 & 1 == 1;
            let env = m >> 2 & 1 == 1;
            if q1v ^ (q0v && env) {
                t |= 1 << m;
            }
        }
        n.add_cell(Cell::Lut {
            inputs: vec![q1, q0, en],
            output: d1,
            truth: t,
        });
        n.add_cell(Cell::Ff {
            d: d0,
            q: q0,
            ce: None,
            init: false,
        });
        n.add_cell(Cell::Ff {
            d: d1,
            q: q1,
            ce: None,
            init: false,
        });
        n
    }

    #[test]
    fn counter_validates() {
        let n = counter();
        let order = n.validate().unwrap();
        assert_eq!(order.len(), 2); // two LUTs
        assert_eq!(
            n.cell_counts(),
            CellCounts {
                luts: 2,
                ffs: 2,
                brams: 0,
                consts: 0
            }
        );
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = counter();
        let ghost = n.add_net("ghost");
        let out = n.add_net("bad");
        n.add_cell(Cell::Lut {
            inputs: vec![ghost],
            output: out,
            truth: 0b10,
        });
        assert!(matches!(n.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn double_driver_detected() {
        let mut n = counter();
        let q0 = NetId(1);
        n.add_cell(Cell::Const {
            output: q0,
            value: true,
        });
        assert!(matches!(n.validate(), Err(NetlistError::MultiplyDriven(_))));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("cyc");
        let a = n.add_net("a");
        let b = n.add_net("b");
        n.add_cell(Cell::Lut {
            inputs: vec![b],
            output: a,
            truth: 0b01,
        });
        n.add_cell(Cell::Lut {
            inputs: vec![a],
            output: b,
            truth: 0b01,
        });
        n.add_output("a", a);
        assert_eq!(n.validate(), Err(NetlistError::CombinationalCycle));
    }

    #[test]
    fn sequential_loop_is_fine() {
        // FF output feeding its own D through a LUT: legal.
        let mut n = Netlist::new("loop");
        let q = n.add_net("q");
        let d = n.add_net("d");
        n.add_cell(Cell::Lut {
            inputs: vec![q],
            output: d,
            truth: 0b01,
        });
        n.add_cell(Cell::Ff {
            d,
            q,
            ce: None,
            init: false,
        });
        n.add_output("q", q);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn bram_pin_checks() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rom");
        let a: Vec<NetId> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d: Vec<NetId> = (0..4).map(|i| n.add_net(format!("d{i}"))).collect();
        for (i, net) in a.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        for (i, net) in d.iter().enumerate() {
            n.add_output(format!("d{i}"), *net);
        }
        n.add_cell(Cell::Bram {
            shape,
            addr: a.clone(),
            dout: d.clone(),
            en: None,
            init: vec![0; 512],
            output_init: 0,
        });
        assert!(n.validate().is_ok());

        // Wrong init length.
        let mut bad = Netlist::new("rom2");
        let a2: Vec<NetId> = (0..9).map(|i| bad.add_net(format!("a{i}"))).collect();
        let d2 = bad.add_net("d");
        for (i, net) in a2.iter().enumerate() {
            bad.add_input(format!("a{i}"), *net);
        }
        bad.add_output("d", d2);
        bad.add_cell(Cell::Bram {
            shape,
            addr: a2,
            dout: vec![d2],
            en: None,
            init: vec![0; 100],
            output_init: 0,
        });
        assert!(matches!(
            bad.validate(),
            Err(NetlistError::Malformed { .. })
        ));
    }

    #[test]
    fn zeroed_bram_init_preserves_structure() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rom");
        let a: Vec<NetId> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d");
        for (i, net) in a.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d", d);
        n.add_cell(Cell::Bram {
            shape,
            addr: a,
            dout: vec![d],
            en: None,
            init: (0..512).map(|w| w as u64 * 3 + 1).collect(),
            output_init: 0,
        });
        let z = n.with_zeroed_bram_init();
        assert!(z.validate().is_ok());
        assert_eq!(z.num_nets(), n.num_nets());
        assert_eq!(z.cell_counts(), n.cell_counts());
        match z.cell(CellId(0)) {
            Cell::Bram { init, .. } => assert!(init.iter().all(|&w| w == 0)),
            other => panic!("expected a BRAM, got {other:?}"),
        }
        // A second, differently-initialized member of the same class
        // collapses onto the same skeleton.
        let mut m = n.clone();
        m.replace_bram_init(0, vec![7u64; 512]).unwrap();
        assert_eq!(
            format!("{:?}", m.with_zeroed_bram_init()),
            format!("{:?}", z)
        );
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = counter();
        let order = n.validate().unwrap();
        // All combinational cells appear exactly once.
        let mut seen = std::collections::HashSet::new();
        for id in &order {
            assert!(seen.insert(*id));
            assert!(!n.cell(*id).is_sequential());
        }
    }

    #[test]
    fn wide_init_word_rejected() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 4,
        };
        let mut n = Netlist::new("rom");
        let a: Vec<NetId> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d");
        for (i, net) in a.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d", d);
        let mut init = vec![0xf; 512];
        n.add_cell(Cell::Bram {
            shape,
            addr: a.clone(),
            dout: vec![d],
            en: None,
            init: init.clone(),
            output_init: 0,
        });
        assert!(n.validate().is_ok(), "every bit below data_bits is legal");
        init[511] = 0x10;
        assert!(n.replace_bram_init(0, init.clone()).is_err());
        if let Cell::Bram { init: old, .. } = &mut n.cells[0] {
            *old = init;
        }
        assert_eq!(
            n.validate(),
            Err(NetlistError::Malformed {
                cell: CellId(0),
                reason: "init word wider than data width".into(),
            })
        );
    }

    #[test]
    fn wide_truth_rejected() {
        let mut n = Netlist::new("w");
        let a = n.add_net("a");
        let y = n.add_net("y");
        n.add_input("a", a);
        n.add_output("y", y);
        n.add_cell(Cell::Lut {
            inputs: vec![a],
            output: y,
            truth: 0b100,
        });
        assert!(matches!(n.validate(), Err(NetlistError::Malformed { .. })));
    }
}
