//! Packing: netlist cells → placeable entities (CLBs, BRAMs, IOBs).
//!
//! Virtex-II slices hold two LUT4/FF pairs and a CLB holds four slices.
//! The packer pairs each flip-flop with the LUT that exclusively drives its
//! D pin (the free LUT→FF path inside a logic element), then clusters logic
//! elements into CLBs greedily by shared nets — a light-weight stand-in for
//! ISE's `map` step that preserves the area accounting the paper's Table 1
//! reports (LUTs, FFs, slices, block RAMs).

use crate::device::{LUTS_PER_SLICE, SLICES_PER_CLB};
use crate::netlist::{Cell, CellId, NetId, Netlist};
use std::collections::{HashMap, HashSet};

/// Logic elements per CLB.
pub const LES_PER_CLB: usize = SLICES_PER_CLB * LUTS_PER_SLICE;

/// A logic element: one LUT site and one FF site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicElement {
    /// The LUT occupying this element, if any.
    pub lut: Option<CellId>,
    /// The FF occupying this element, if any.
    pub ff: Option<CellId>,
}

/// A packed CLB (up to [`LES_PER_CLB`] logic elements).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clb {
    /// The logic elements packed into this CLB.
    pub les: Vec<LogicElement>,
}

impl Clb {
    /// Slices occupied (each slice hosts two logic elements).
    #[must_use]
    pub fn num_slices(&self) -> usize {
        self.les.len().div_ceil(LUTS_PER_SLICE)
    }
}

/// An I/O block for one top-level port bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iob {
    /// Port name.
    pub name: String,
    /// The net at the pad.
    pub net: NetId,
    /// Direction.
    pub is_input: bool,
}

/// The packed design.
#[derive(Debug, Clone, Default)]
pub struct PackedDesign {
    /// Packed CLBs.
    pub clbs: Vec<Clb>,
    /// BRAM cells (one placeable entity each).
    pub brams: Vec<CellId>,
    /// IOBs, inputs first then outputs, in port order.
    pub iobs: Vec<Iob>,
    /// For each cell, the entity it was packed into (constants: `None`).
    pub entity_of_cell: Vec<Option<EntityId>>,
}

/// A placeable entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityId {
    /// CLB by index into [`PackedDesign::clbs`].
    Clb(usize),
    /// BRAM by index into [`PackedDesign::brams`].
    Bram(usize),
    /// IOB by index into [`PackedDesign::iobs`].
    Iob(usize),
}

/// Area totals of a packed design (the paper's Table 1 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaReport {
    /// LUTs used.
    pub luts: usize,
    /// Flip-flops used.
    pub ffs: usize,
    /// Slices occupied.
    pub slices: usize,
    /// Block RAMs used.
    pub brams: usize,
}

impl std::fmt::Display for AreaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} LUT / {} FF / {} slice / {} BRAM",
            self.luts, self.ffs, self.slices, self.brams
        )
    }
}

impl PackedDesign {
    /// Area totals.
    #[must_use]
    pub fn area(&self, netlist: &Netlist) -> AreaReport {
        let counts = netlist.cell_counts();
        AreaReport {
            luts: counts.luts,
            ffs: counts.ffs,
            slices: self.clbs.iter().map(Clb::num_slices).sum(),
            brams: counts.brams,
        }
    }

    /// Total placeable entities.
    #[must_use]
    pub fn num_entities(&self) -> usize {
        self.clbs.len() + self.brams.len() + self.iobs.len()
    }
}

/// Packs a netlist.
///
/// Constants are absorbed (not placed); they contribute no area, matching
/// how FPGA tools tie constants off inside the fabric.
#[must_use]
pub fn pack(netlist: &Netlist) -> PackedDesign {
    pack_from(netlist, PackedDesign::default(), 0, cluster)
}

/// Clusters logic elements into CLBs appended to the list given; returns
/// each element's CLB index ([`cluster`], or a test reference).
type Clusterer = fn(&Netlist, &[LogicElement], &mut Vec<Clb>) -> Vec<usize>;

/// Packs the cells of `netlist` from `base_cells` on into `packed`, which
/// holds the packing of the cells before them (nothing when `base_cells`
/// is 0), and rebuilds the IOBs from the netlist's ports.
///
/// 1. An FF pairs with the LUT that exclusively drives its D pin when
///    both are among the packed cells.
/// 2. Logic elements are built in cell order: each LUT (with its paired
///    FF), then each unpaired FF; BRAMs join the entity list.
/// 3. `cluster` groups the logic elements into new CLBs.
/// 4. The packed cells' entities are appended to the cell → entity map.
fn pack_from(
    netlist: &Netlist,
    mut packed: PackedDesign,
    base_cells: usize,
    cluster: Clusterer,
) -> PackedDesign {
    let cells = netlist.cells().len();
    let fanout = netlist.fanout_map();
    let exported: HashSet<NetId> = netlist.outputs().iter().map(|(_, n)| *n).collect();
    let driver = netlist.driver_map();
    let mut paired_with: HashMap<CellId, CellId> = HashMap::new(); // lut -> ff
    let mut ff_paired: HashSet<CellId> = HashSet::new();
    for i in base_cells..cells {
        let ff_id = CellId(i as u32);
        if let Cell::Ff { d, .. } = netlist.cell(ff_id) {
            if exported.contains(d) {
                continue;
            }
            if let Some(&lut_id) = driver.get(d) {
                if lut_id.index() >= base_cells
                    && matches!(netlist.cell(lut_id), Cell::Lut { .. })
                    && fanout[d.index()].len() == 1
                    && !paired_with.contains_key(&lut_id)
                {
                    paired_with.insert(lut_id, ff_id);
                    ff_paired.insert(ff_id);
                }
            }
        }
    }

    let mut les: Vec<LogicElement> = Vec::new();
    let mut le_of_cell: HashMap<CellId, usize> = HashMap::new();
    let mut bram_index: HashMap<CellId, usize> = HashMap::new();
    for i in base_cells..cells {
        let id = CellId(i as u32);
        match netlist.cell(id) {
            Cell::Lut { .. } => {
                let ff = paired_with.get(&id).copied();
                les.push(LogicElement { lut: Some(id), ff });
                le_of_cell.insert(id, les.len() - 1);
                if let Some(ff_id) = ff {
                    le_of_cell.insert(ff_id, les.len() - 1);
                }
            }
            Cell::Ff { .. } if !ff_paired.contains(&id) => {
                les.push(LogicElement {
                    lut: None,
                    ff: Some(id),
                });
                le_of_cell.insert(id, les.len() - 1);
            }
            Cell::Bram { .. } => {
                bram_index.insert(id, packed.brams.len());
                packed.brams.push(id);
            }
            _ => {}
        }
    }
    let clb_of_le = cluster(netlist, &les, &mut packed.clbs);

    for i in base_cells..cells {
        let id = CellId(i as u32);
        packed.entity_of_cell.push(match netlist.cell(id) {
            Cell::Lut { .. } | Cell::Ff { .. } => {
                le_of_cell.get(&id).map(|&le| EntityId::Clb(clb_of_le[le]))
            }
            Cell::Bram { .. } => bram_index.get(&id).map(|&b| EntityId::Bram(b)),
            Cell::Const { .. } => None,
        });
    }

    // IOBs from this netlist's ports (net ids shift across a rewrite, so
    // a base's IOB list cannot be reused verbatim).
    packed.iobs = netlist
        .inputs()
        .iter()
        .map(|(name, net)| (name, net, true))
        .chain(
            netlist
                .outputs()
                .iter()
                .map(|(name, net)| (name, net, false)),
        )
        .map(|(name, net, is_input)| Iob {
            name: name.clone(),
            net: *net,
            is_input,
        })
        .collect();
    packed
}

/// The distinct nets of each logic element's cells, ascending.
fn le_nets(netlist: &Netlist, les: &[LogicElement]) -> Vec<Vec<NetId>> {
    les.iter()
        .map(|le| {
            let mut nets: Vec<NetId> = [le.lut, le.ff]
                .into_iter()
                .flatten()
                .flat_map(|id| {
                    let cell = netlist.cell(id);
                    cell.inputs().into_iter().chain(cell.outputs())
                })
                .collect();
            nets.sort_unstable_by_key(|n| n.0);
            nets.dedup();
            nets
        })
        .collect()
}

/// Greedy connectivity clustering of `les` into CLBs appended to `clbs`;
/// returns each logic element's CLB index. Each CLB is seeded with the
/// lowest unclustered logic element, then repeatedly takes the
/// unclustered element sharing the most nets with it (the lowest index
/// among ties, never one sharing none) until it is full.
///
/// Every unclustered element's shared-net count is kept as a counter: a
/// net joining the CLB bumps the counter of each element on it, through
/// a net → elements list. Clustering is therefore linear in the pins the
/// CLBs' nets reach, not a set intersection per element per slot.
fn cluster(netlist: &Netlist, les: &[LogicElement], clbs: &mut Vec<Clb>) -> Vec<usize> {
    let nets_of = le_nets(netlist, les);
    let mut les_on: Vec<Vec<usize>> = vec![Vec::new(); netlist.num_nets()];
    for (le, nets) in nets_of.iter().enumerate() {
        for n in nets {
            les_on[n.index()].push(le);
        }
    }
    let mut assigned = vec![false; les.len()];
    let mut clb_of_le = vec![0; les.len()];
    // Per CLB: which nets it holds, each element's shared-net count, and
    // the nets and elements touched (to reset both for the next CLB).
    let mut in_clb = vec![false; netlist.num_nets()];
    let mut shared = vec![0usize; les.len()];
    let (mut clb_nets, mut touched): (Vec<NetId>, Vec<usize>) = (Vec::new(), Vec::new());
    for seed in 0..les.len() {
        if assigned[seed] {
            continue;
        }
        let mut clb = Clb::default();
        let mut next = Some(seed);
        while let Some(le) = next {
            assigned[le] = true;
            clb_of_le[le] = clbs.len();
            clb.les.push(les[le]);
            for &n in &nets_of[le] {
                if !std::mem::replace(&mut in_clb[n.index()], true) {
                    clb_nets.push(n);
                    for &other in &les_on[n.index()] {
                        if shared[other] == 0 {
                            touched.push(other);
                        }
                        shared[other] += 1;
                    }
                }
            }
            next = None;
            if clb.les.len() < LES_PER_CLB {
                let mut best = 0;
                for &other in &touched {
                    let s = shared[other];
                    if !assigned[other]
                        && (s > best || (s == best && next.is_some_and(|b| other < b)))
                    {
                        (best, next) = (s, Some(other));
                    }
                }
            }
        }
        for n in clb_nets.drain(..) {
            in_clb[n.index()] = false;
        }
        for le in touched.drain(..) {
            shared[le] = 0;
        }
        clbs.push(clb);
    }
    clb_of_le
}

/// Errors from [`pack_partitioned`]: the claimed base prefix does not
/// correspond to the base packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The base prefix is longer than the netlist.
    BaseTooLarge {
        /// Claimed base-prefix cell count.
        base_cells: usize,
        /// Cells actually in the netlist.
        cells: usize,
    },
    /// The base packing's cell→entity map covers a different cell count.
    EntityMapLength {
        /// Expected length (the base prefix).
        expected: usize,
        /// The base packing's actual map length.
        got: usize,
    },
    /// A base entity references a cell beyond the base prefix.
    CellOutOfRange {
        /// The offending cell index.
        cell: usize,
        /// The base prefix length.
        base_cells: usize,
    },
    /// A base entity's cell has a different kind in this netlist.
    CellKindMismatch {
        /// The offending cell index.
        cell: usize,
        /// Kind the base packing put at that slot.
        expected: &'static str,
        /// Kind the netlist actually has there.
        got: &'static str,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::BaseTooLarge { base_cells, cells } => {
                write!(
                    f,
                    "base prefix of {base_cells} cells exceeds netlist ({cells} cells)"
                )
            }
            PartitionError::EntityMapLength { expected, got } => {
                write!(
                    f,
                    "base entity map covers {got} cells, prefix is {expected}"
                )
            }
            PartitionError::CellOutOfRange { cell, base_cells } => {
                write!(
                    f,
                    "base entity uses cell {cell} beyond the {base_cells}-cell prefix"
                )
            }
            PartitionError::CellKindMismatch {
                cell,
                expected,
                got,
            } => write!(
                f,
                "cell {cell} is a {got} here but a {expected} in the base packing"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

fn kind_name(cell: &Cell) -> &'static str {
    match cell {
        Cell::Lut { .. } => "LUT",
        Cell::Ff { .. } => "FF",
        Cell::Bram { .. } => "BRAM",
        Cell::Const { .. } => "constant",
    }
}

/// Packs a netlist whose first `base_cells` cells are exactly the cells of
/// an already-packed base design (same kinds, same order), reusing the
/// base packing verbatim for that prefix and clustering only the appended
/// delta cells into new CLBs.
///
/// This is the packing half of the ECO contract: the clock-control rewrite
/// appends its enable cone strictly after the plain design's cells, so the
/// gated design's entity list is the plain design's entity list (same CLB
/// membership, same indices) followed by fresh delta CLBs — base-entity
/// correspondence holds by construction rather than by hoping the
/// full-netlist clustering tie-breaks identically. IOBs are rebuilt from
/// this netlist's ports (net ids may differ from the base netlist's);
/// delta pairing and clustering never mix base and delta cells.
///
/// # Errors
///
/// A typed [`PartitionError`] when the base packing does not actually
/// describe the claimed prefix.
pub fn pack_partitioned(
    netlist: &Netlist,
    base: &PackedDesign,
    base_cells: usize,
) -> Result<PackedDesign, PartitionError> {
    let cells = netlist.cells().len();
    if base_cells > cells {
        return Err(PartitionError::BaseTooLarge { base_cells, cells });
    }
    if base.entity_of_cell.len() != base_cells {
        return Err(PartitionError::EntityMapLength {
            expected: base_cells,
            got: base.entity_of_cell.len(),
        });
    }
    // Every cell the base packing placed must exist in the prefix with the
    // same kind.
    let check = |id: CellId, expected: &'static str| -> Result<(), PartitionError> {
        if id.index() >= base_cells {
            return Err(PartitionError::CellOutOfRange {
                cell: id.index(),
                base_cells,
            });
        }
        let got = kind_name(netlist.cell(id));
        if got != expected {
            return Err(PartitionError::CellKindMismatch {
                cell: id.index(),
                expected,
                got,
            });
        }
        Ok(())
    };
    for clb in &base.clbs {
        for le in &clb.les {
            if let Some(lut) = le.lut {
                check(lut, "LUT")?;
            }
            if let Some(ff) = le.ff {
                check(ff, "FF")?;
            }
        }
    }
    for &bram in &base.brams {
        check(bram, "BRAM")?;
    }

    Ok(pack_from(netlist, base.clone(), base_cells, cluster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BramShape;
    use crate::netlist::Cell;

    /// Shift register: in -> ff0 -> lut -> ff1 -> out.
    fn shiftreg() -> Netlist {
        let mut n = Netlist::new("sr");
        let input = n.add_net("in");
        let q0 = n.add_net("q0");
        let l = n.add_net("l");
        let q1 = n.add_net("q1");
        n.add_input("in", input);
        n.add_output("out", q1);
        n.add_cell(Cell::Ff {
            d: input,
            q: q0,
            ce: None,
            init: false,
        });
        n.add_cell(Cell::Lut {
            inputs: vec![q0],
            output: l,
            truth: 0b01,
        });
        n.add_cell(Cell::Ff {
            d: l,
            q: q1,
            ce: None,
            init: false,
        });
        n
    }

    #[test]
    fn lut_ff_pairing() {
        let n = shiftreg();
        let p = pack(&n);
        // ff1's D is exclusively driven by the LUT -> one LE holds both;
        // ff0 gets its own LE; total 2 LEs -> 1 CLB (connectivity links them).
        let total_les: usize = p.clbs.iter().map(|c| c.les.len()).sum();
        assert_eq!(total_les, 2);
        let paired = p
            .clbs
            .iter()
            .flat_map(|c| &c.les)
            .filter(|le| le.lut.is_some() && le.ff.is_some())
            .count();
        assert_eq!(paired, 1);
        let area = p.area(&n);
        assert_eq!(area.luts, 1);
        assert_eq!(area.ffs, 2);
        assert_eq!(area.slices, 1);
    }

    #[test]
    fn exported_lut_output_prevents_pairing() {
        let mut n = Netlist::new("x");
        let a = n.add_net("a");
        let l = n.add_net("l");
        let q = n.add_net("q");
        n.add_input("a", a);
        n.add_output("l_out", l); // LUT output visible at a pad
        n.add_output("q_out", q);
        n.add_cell(Cell::Lut {
            inputs: vec![a],
            output: l,
            truth: 0b10,
        });
        n.add_cell(Cell::Ff {
            d: l,
            q,
            ce: None,
            init: false,
        });
        let p = pack(&n);
        let paired = p
            .clbs
            .iter()
            .flat_map(|c| &c.les)
            .filter(|le| le.lut.is_some() && le.ff.is_some())
            .count();
        assert_eq!(paired, 0, "pad-visible LUT output cannot be absorbed");
    }

    #[test]
    fn clb_capacity_respected() {
        // 20 independent LUTs -> ceil(20/8) = 3 CLBs minimum; disconnected
        // LUTs never cluster, but capacity still caps CLB size.
        let mut n = Netlist::new("many");
        let a = n.add_net("a");
        n.add_input("a", a);
        for i in 0..20 {
            let o = n.add_net(format!("o{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![a],
                output: o,
                truth: 0b10,
            });
            n.add_output(format!("o{i}"), o);
        }
        let p = pack(&n);
        for clb in &p.clbs {
            assert!(clb.les.len() <= LES_PER_CLB);
        }
        let total: usize = p.clbs.iter().map(|c| c.les.len()).sum();
        assert_eq!(total, 20);
        // They all share net `a`, so they cluster tightly: 3 CLBs.
        assert_eq!(p.clbs.len(), 3);
    }

    #[test]
    fn brams_and_iobs_are_entities() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("b");
        let a: Vec<_> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d0");
        for (i, net) in a.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d0", d);
        n.add_cell(Cell::Bram {
            shape,
            addr: a,
            dout: vec![d],
            en: None,
            init: vec![0; 512],
            output_init: 0,
        });
        let p = pack(&n);
        assert_eq!(p.brams.len(), 1);
        assert_eq!(p.iobs.len(), 10);
        assert_eq!(p.entity_of_cell[0], Some(EntityId::Bram(0)));
        assert_eq!(p.area(&n).brams, 1);
    }

    /// Builds a netlist, optionally extending `base` with `extra` more
    /// chained LUT stages appended after all base cells.
    fn chain_plus(base_stages: usize, extra: usize) -> Netlist {
        let mut n = Netlist::new("cp");
        let input = n.add_net("in");
        n.add_input("in", input);
        let mut prev = input;
        for i in 0..base_stages {
            let l = n.add_net(format!("l{i}"));
            let q = n.add_net(format!("q{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![prev],
                output: l,
                truth: 0b01,
            });
            n.add_cell(Cell::Ff {
                d: l,
                q,
                ce: None,
                init: false,
            });
            prev = q;
        }
        n.add_output("out", prev);
        for i in 0..extra {
            let o = n.add_net(format!("x{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![prev],
                output: o,
                truth: 0b10,
            });
            n.add_output(format!("x{i}"), o);
            prev = o;
        }
        n
    }

    #[test]
    fn partitioned_pack_reuses_the_base_verbatim() {
        let base_netlist = chain_plus(10, 0);
        let base = pack(&base_netlist);
        let base_cells = base_netlist.cells().len();
        let gated = chain_plus(10, 3);
        let p = pack_partitioned(&gated, &base, base_cells).expect("partitioned pack");
        // Base prefix: identical CLB membership and entity map.
        assert_eq!(&p.clbs[..base.clbs.len()], &base.clbs[..]);
        assert_eq!(p.brams, base.brams);
        assert_eq!(&p.entity_of_cell[..base_cells], &base.entity_of_cell[..]);
        // The three extra LUTs all land in appended CLBs.
        for i in base_cells..gated.cells().len() {
            match p.entity_of_cell[i] {
                Some(EntityId::Clb(c)) => {
                    assert!(
                        c >= base.clbs.len(),
                        "delta cell {i} packed into base CLB {c}"
                    )
                }
                other => panic!("delta cell {i} not in a CLB: {other:?}"),
            }
        }
        // IOBs follow the gated netlist's ports.
        assert_eq!(p.iobs.len(), gated.inputs().len() + gated.outputs().len());
        // Entity map covers every cell.
        assert_eq!(p.entity_of_cell.len(), gated.cells().len());
    }

    #[test]
    fn partitioned_pack_rejects_mismatched_bases() {
        let base_netlist = chain_plus(4, 0);
        let base = pack(&base_netlist);
        let base_cells = base_netlist.cells().len();
        let gated = chain_plus(4, 2);

        let err = pack_partitioned(&gated, &base, gated.cells().len() + 1);
        assert!(
            matches!(err, Err(PartitionError::BaseTooLarge { .. })),
            "{err:?}"
        );

        let err = pack_partitioned(&gated, &base, base_cells - 1);
        assert!(
            matches!(
                err,
                Err(PartitionError::EntityMapLength { .. } | PartitionError::CellOutOfRange { .. })
            ),
            "{err:?}"
        );

        // A base whose first cell kind disagrees with the netlist.
        let mut other = Netlist::new("o");
        let a = other.add_net("a");
        other.add_input("a", a);
        let q = other.add_net("q");
        other.add_cell(Cell::Ff {
            d: a,
            q,
            ce: None,
            init: false,
        });
        other.add_output("q", q);
        let other_packed = pack(&other);
        let err = pack_partitioned(&gated, &other_packed, 1);
        assert!(
            matches!(err, Err(PartitionError::CellKindMismatch { .. })),
            "{err:?}"
        );
    }

    /// The historical clustering loop: for every slot, a set
    /// intersection of each unclustered element's nets with the CLB's.
    fn cluster_reference(
        netlist: &Netlist,
        les: &[LogicElement],
        clbs: &mut Vec<Clb>,
    ) -> Vec<usize> {
        let le_nets: Vec<HashSet<NetId>> = les
            .iter()
            .map(|le| {
                let mut nets = HashSet::new();
                for id in [le.lut, le.ff].into_iter().flatten() {
                    let cell = netlist.cell(id);
                    nets.extend(cell.inputs());
                    nets.extend(cell.outputs());
                }
                nets
            })
            .collect();
        let mut assigned = vec![false; les.len()];
        let mut clb_of_le: Vec<usize> = vec![0; les.len()];
        for seed in 0..les.len() {
            if assigned[seed] {
                continue;
            }
            let mut clb = Clb::default();
            let mut clb_nets: HashSet<NetId> = HashSet::new();
            let add = |idx: usize,
                       clb: &mut Clb,
                       clb_nets: &mut HashSet<NetId>,
                       assigned: &mut Vec<bool>,
                       clb_of_le: &mut Vec<usize>| {
                assigned[idx] = true;
                clb_of_le[idx] = clbs.len();
                clb.les.push(les[idx]);
                clb_nets.extend(le_nets[idx].iter().copied());
            };
            add(seed, &mut clb, &mut clb_nets, &mut assigned, &mut clb_of_le);
            while clb.les.len() < LES_PER_CLB {
                let mut best: Option<(usize, usize)> = None; // (shared, idx)
                for (idx, done) in assigned.iter().enumerate() {
                    if *done {
                        continue;
                    }
                    let shared = le_nets[idx].intersection(&clb_nets).count();
                    if shared == 0 {
                        continue;
                    }
                    if best.is_none_or(|(s, _)| shared > s) {
                        best = Some((shared, idx));
                    }
                }
                match best {
                    Some((_, idx)) => {
                        add(idx, &mut clb, &mut clb_nets, &mut assigned, &mut clb_of_le);
                    }
                    None => break,
                }
            }
            clbs.push(clb);
        }
        clb_of_le
    }

    /// A random LUT/FF netlist: LUTs reading inputs and earlier nets,
    /// FFs on some LUT outputs (some exclusively driven, so they pair),
    /// a few clock enables, and some nets exported.
    fn random_netlist(rng: &mut xrand::SmallRng) -> Netlist {
        let mut n = Netlist::new("r");
        let mut nets: Vec<NetId> = (0..rng.random_range(1usize..=6))
            .map(|i| {
                let net = n.add_net(format!("i{i}"));
                n.add_input(format!("i{i}"), net);
                net
            })
            .collect();
        for c in 0..rng.random_range(1usize..=160) {
            let out = n.add_net(format!("n{c}"));
            if rng.random_bool(0.3) {
                let d = nets[rng.random_range(0..nets.len())];
                let ce = rng
                    .random_bool(0.2)
                    .then(|| nets[rng.random_range(0..nets.len())]);
                n.add_cell(Cell::Ff {
                    d,
                    q: out,
                    ce,
                    init: false,
                });
            } else {
                let k = rng.random_range(1usize..=4);
                let inputs = (0..k)
                    .map(|_| nets[rng.random_range(0..nets.len())])
                    .collect();
                n.add_cell(Cell::Lut {
                    inputs,
                    output: out,
                    truth: rng.random(),
                });
            }
            if rng.random_bool(0.1) {
                n.add_output(format!("o{c}"), out);
            }
            nets.push(out);
        }
        n
    }

    fn assert_same(got: &PackedDesign, want: &PackedDesign) {
        assert_eq!(got.clbs, want.clbs, "CLBs");
        assert_eq!(got.brams, want.brams, "BRAMs");
        assert_eq!(got.iobs, want.iobs, "IOBs");
        assert_eq!(got.entity_of_cell, want.entity_of_cell, "entity map");
    }

    /// The counter clustering packs exactly as the historical
    /// set-intersection loop, whole and partitioned.
    #[test]
    fn counter_clustering_matches_the_reference() {
        xrand::proptest_lite::run_cases(64, |rng| {
            let n = random_netlist(rng);
            let want = pack_from(&n, PackedDesign::default(), 0, cluster_reference);
            assert_same(&pack(&n), &want);
            let base_cells = rng.random_range(0..=n.cells().len());
            let mut base_netlist = Netlist::new("b");
            for i in 0..n.num_nets() {
                base_netlist.add_net(format!("n{i}"));
            }
            for cell in &n.cells()[..base_cells] {
                base_netlist.add_cell(cell.clone());
            }
            let base = pack(&base_netlist);
            let want = pack_from(&n, base.clone(), base_cells, cluster_reference);
            let got = pack_partitioned(&n, &base, base_cells).expect("base is the prefix");
            assert_same(&got, &want);
        });
    }

    #[test]
    fn constants_are_not_placed() {
        let mut n = Netlist::new("k");
        let one = n.add_net("one");
        n.add_cell(Cell::Const {
            output: one,
            value: true,
        });
        n.add_output("one", one);
        let p = pack(&n);
        assert_eq!(p.entity_of_cell[0], None);
        assert!(p.clbs.is_empty());
    }
}
