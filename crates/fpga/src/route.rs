//! Congestion-aware grid routing.
//!
//! A deliberately simple PathFinder-style router over the device tile grid:
//! every tile has a switch matrix of bounded capacity; each net is routed
//! as a Steiner tree by repeated shortest-path searches from the already-
//! routed tree to the next sink, with costs inflated on congested tiles.
//! A few rip-up-and-reroute rounds clear residual overflow.
//!
//! The router's outputs — per-net **wirelength** (tile hops) and
//! **programmable switch count** — are exactly the quantities the power
//! model needs: a routed FPGA signal "may have to pass through a number of
//! programmable switches before reaching its destination" (paper Sec. 2),
//! and each switch and wire segment adds capacitance.

use crate::netlist::{NetId, Netlist};
use crate::pack::{EntityId, PackedDesign};
use crate::place::Placement;
use std::fmt;

/// Routing options.
#[derive(Debug, Clone, Copy)]
pub struct RouteOptions {
    /// Wires available per tile switch matrix.
    pub tile_capacity: usize,
    /// Maximum rip-up-and-reroute rounds.
    pub max_rounds: usize,
    /// Hard cap on total search expansions (heap pops) across the whole
    /// route, so no rip-up loop can hang the harness. Exceeding it
    /// returns [`RouteError::BudgetExhausted`]. The default is orders of
    /// magnitude above what the paper benchmarks spend (~2M on the
    /// largest), so results are unchanged unless a caller tightens it.
    pub max_expansions: u64,
}

impl RouteOptions {
    /// Default search-expansion cap (see [`RouteOptions::max_expansions`]).
    pub const DEFAULT_MAX_EXPANSIONS: u64 = 100_000_000;
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            tile_capacity: 160,
            max_rounds: 4,
            max_expansions: Self::DEFAULT_MAX_EXPANSIONS,
        }
    }
}

/// Errors from routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Some net could not reach a sink (disconnected grid — impossible on
    /// rectangular devices, kept for API honesty).
    Unroutable(NetId),
    /// Congestion never cleared within the round budget.
    CongestionUnresolved {
        /// Tiles still over capacity.
        overflowed_tiles: usize,
    },
    /// The search-expansion budget ran out mid-route. Unlike placement
    /// there is no legal partial result to return, so this is an error.
    BudgetExhausted {
        /// Expansions spent when the budget cut in.
        spent: u64,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable(n) => write!(f, "net {} is unroutable", n.0),
            RouteError::CongestionUnresolved { overflowed_tiles } => {
                write!(f, "congestion unresolved on {overflowed_tiles} tiles")
            }
            RouteError::BudgetExhausted { spent } => {
                write!(f, "search budget exhausted after {spent} expansions")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The routed tree of one net.
#[derive(Debug, Clone, Default)]
pub struct NetRoute {
    /// Tiles used by the net's tree (including source and sinks).
    pub tiles: Vec<(usize, usize)>,
    /// Wirelength in tile hops (tree edges).
    pub wirelength: usize,
    /// Programmable switches crossed (one per tile entered).
    pub switches: usize,
}

/// The routed design.
#[derive(Debug, Clone)]
pub struct RoutedDesign {
    /// Per-net routes (`None` for nets with fewer than 2 distinct tiles —
    /// those stay inside one entity and use no general routing).
    pub routes: Vec<Option<NetRoute>>,
    /// Sum of all net wirelengths.
    pub total_wirelength: usize,
    /// Peak tile usage observed.
    pub peak_usage: usize,
}

impl RoutedDesign {
    /// Wirelength of one net (0 when unrouted/local).
    #[must_use]
    pub fn wirelength(&self, net: NetId) -> usize {
        self.routes[net.index()]
            .as_ref()
            .map_or(0, |r| r.wirelength)
    }

    /// Switches crossed by one net (0 when local).
    #[must_use]
    pub fn switches(&self, net: NetId) -> usize {
        self.routes[net.index()].as_ref().map_or(0, |r| r.switches)
    }
}

/// Gathers, for every net, the distinct tiles its pins occupy; index 0 is
/// the driver tile.
fn net_terminals(
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: &Placement,
) -> Vec<Vec<(usize, usize)>> {
    let mut terminals: Vec<Vec<(usize, usize)>> = vec![Vec::new(); netlist.num_nets()];
    let push =
        |net: NetId, tile: (usize, usize), is_driver: bool, t: &mut Vec<Vec<(usize, usize)>>| {
            let v = &mut t[net.index()];
            if is_driver {
                if v.first() != Some(&tile) {
                    v.retain(|x| *x != tile);
                    v.insert(0, tile);
                }
            } else if !v.contains(&tile) {
                v.push(tile);
            }
        };
    // Cell pins.
    for (i, cell) in netlist.cells().iter().enumerate() {
        let Some(entity) = packed.entity_of_cell[i] else {
            continue;
        };
        let tile = placement.location(entity);
        for net in cell.outputs() {
            push(net, tile, true, &mut terminals);
        }
        for net in cell.inputs() {
            push(net, tile, false, &mut terminals);
        }
    }
    // IOB pins: input pads drive, output pads sink.
    for (i, iob) in packed.iobs.iter().enumerate() {
        let tile = placement.location(EntityId::Iob(i));
        push(iob.net, tile, iob.is_input, &mut terminals);
    }
    terminals
}

/// Routes all nets of a placed design.
///
/// # Errors
///
/// Fails if congestion cannot be resolved within `opts.max_rounds`.
pub fn route(
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: &Placement,
    opts: RouteOptions,
) -> Result<RoutedDesign, RouteError> {
    let device = placement.device;
    let w = device.grid_width();
    let h = device.grid_height();
    let terminals = net_terminals(netlist, packed, placement);

    let routable: Vec<NetId> = (0..netlist.num_nets())
        .map(|i| NetId(i as u32))
        .filter(|n| terminals[n.index()].len() >= 2)
        .collect();

    let mut usage = vec![0usize; w * h];
    let mut history = vec![0.0f64; w * h];
    let mut routes: Vec<Option<NetRoute>> = vec![None; netlist.num_nets()];
    let mut expansions = 0u64;
    let mut search = Search::new(w, h);

    for round in 0..opts.max_rounds {
        // (Re)route every net against current congestion costs.
        for &net in &routable {
            // Rip up the previous route.
            if let Some(old) = routes[net.index()].take() {
                for t in &old.tiles {
                    usage[t.1 * w + t.0] -= 1;
                }
            }
            let cost = TileCost {
                usage: &usage,
                history: &history,
                capacity: opts.tile_capacity,
                round,
            };
            let tree = search
                .route_net(
                    &terminals[net.index()],
                    cost,
                    opts.max_expansions,
                    &mut expansions,
                )
                .map_err(|stop| match stop {
                    RouteStop::Unreachable => RouteError::Unroutable(net),
                    RouteStop::Budget => RouteError::BudgetExhausted { spent: expansions },
                })?;
            for t in &tree {
                usage[t.1 * w + t.0] += 1;
            }
            let wirelength = tree.len().saturating_sub(1);
            routes[net.index()] = Some(NetRoute {
                switches: wirelength,
                wirelength,
                tiles: tree,
            });
        }
        let overflowed = usage.iter().filter(|&&u| u > opts.tile_capacity).count();
        if overflowed == 0 {
            let total_wirelength = routes.iter().flatten().map(|r| r.wirelength).sum();
            let peak_usage = usage.iter().copied().max().unwrap_or(0);
            return Ok(RoutedDesign {
                routes,
                total_wirelength,
                peak_usage,
            });
        }
        // Strengthen history costs on overflowed tiles for the next round.
        for (i, &u) in usage.iter().enumerate() {
            if u > opts.tile_capacity {
                history[i] += (u - opts.tile_capacity) as f64;
            }
        }
    }
    let overflowed_tiles = usage.iter().filter(|&&u| u > opts.tile_capacity).count();
    Err(RouteError::CongestionUnresolved { overflowed_tiles })
}

/// Why [`Search::route_net`] stopped without a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteStop {
    /// A sink is unreachable (disconnected grid).
    Unreachable,
    /// The global expansion budget ran out.
    Budget,
}

/// A tile `(x, y)` of the routing grid.
type Tile = (usize, usize);

/// No predecessor recorded for a tile in the current search.
const NO_PREV: u32 = u32::MAX;

/// One search-heap entry: the cheapest tile first, ties to the larger
/// tile — a total order, so the pop sequence depends only on what was
/// pushed, never on the order it was pushed in.
type HeapEntry = (std::cmp::Reverse<ordered::F64>, Tile);

/// What entering a tile costs in one routing round.
#[derive(Debug, Clone, Copy)]
struct TileCost<'a> {
    usage: &'a [usize],
    history: &'a [f64],
    capacity: usize,
    round: usize,
}

impl TileCost<'_> {
    /// The cost of entering tile `i` (`y · w + x`).
    fn of(&self, i: usize) -> f64 {
        let u = self.usage[i];
        // Base + congestion: sharply penalize over-capacity in later rounds.
        let over = u.saturating_sub(self.capacity) as f64;
        1.0 + self.history[i] + over * (1.0 + self.round as f64 * 4.0) + u as f64 * 0.02
    }
}

/// Reusable net-search state over a `w × h` tile grid: dense per-tile
/// arrays that every search leaves as it found them by resetting only the
/// tiles it touched, so routing a net costs what its searches visit,
/// whatever the grid size.
struct Search {
    w: usize,
    h: usize,
    /// Best known path cost per tile in the current Dijkstra round
    /// (`INFINITY` when unreached).
    dist: Vec<f64>,
    /// The tile each reached tile was relaxed from ([`NO_PREV`] if none).
    prev: Vec<u32>,
    /// Tiles whose `dist`/`prev` the current round set.
    touched: Vec<usize>,
    /// Membership of the net's tree so far.
    in_tree: Vec<bool>,
    /// The net's tree so far, in the order tiles joined it.
    tree: Vec<Tile>,
    /// Sinks still to reach, counted per tile (a duplicated sink counts
    /// once per copy).
    sinks: Vec<u32>,
    heap: std::collections::BinaryHeap<HeapEntry>,
}

impl Search {
    fn new(w: usize, h: usize) -> Search {
        Search {
            w,
            h,
            dist: vec![f64::INFINITY; w * h],
            prev: vec![NO_PREV; w * h],
            touched: Vec::new(),
            in_tree: vec![false; w * h],
            tree: Vec::new(),
            sinks: vec![0; w * h],
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// Routes one net: grows a Steiner tree with Dijkstra searches from
    /// the current tree to the nearest remaining sink, until every sink is
    /// in the tree. Returns the tree's tiles, sorted. Every heap pop
    /// counts against `max_expansions`.
    fn route_net(
        &mut self,
        terminals: &[Tile],
        cost: TileCost,
        max_expansions: u64,
        expansions: &mut u64,
    ) -> Result<Vec<Tile>, RouteStop> {
        let grown = self.grow(terminals, cost, max_expansions, expansions);
        let w = self.w;
        for &(x, y) in terminals {
            self.sinks[y * w + x] = 0;
        }
        for &(x, y) in &self.tree {
            self.in_tree[y * w + x] = false;
        }
        self.unmark();
        let mut tiles = std::mem::take(&mut self.tree);
        grown.map(|()| {
            tiles.sort_unstable();
            tiles
        })
    }

    /// Resets `dist`/`prev` on the tiles the last round touched.
    fn unmark(&mut self) {
        for &i in &self.touched {
            self.dist[i] = f64::INFINITY;
            self.prev[i] = NO_PREV;
        }
        self.touched.clear();
    }

    fn grow(
        &mut self,
        terminals: &[Tile],
        cost: TileCost,
        max_expansions: u64,
        expansions: &mut u64,
    ) -> Result<(), RouteStop> {
        let (w, h) = (self.w, self.h);
        let (sx, sy) = terminals[0];
        self.in_tree[sy * w + sx] = true;
        self.tree.push(terminals[0]);
        let mut remaining = 0usize;
        for &(x, y) in &terminals[1..] {
            if !self.in_tree[y * w + x] {
                self.sinks[y * w + x] += 1;
                remaining += 1;
            }
        }

        while remaining > 0 {
            // Dijkstra from all tree tiles.
            self.unmark();
            self.heap.clear();
            for &(x, y) in &self.tree {
                self.dist[y * w + x] = 0.0;
                self.touched.push(y * w + x);
                self.heap
                    .push((std::cmp::Reverse(ordered::F64(0.0)), (x, y)));
            }
            let mut reached: Option<usize> = None;
            while let Some((std::cmp::Reverse(ordered::F64(d)), (x, y))) = self.heap.pop() {
                *expansions += 1;
                if *expansions > max_expansions {
                    return Err(RouteStop::Budget);
                }
                let i = y * w + x;
                if self.dist[i] < d {
                    continue;
                }
                if self.sinks[i] > 0 {
                    self.sinks[i] -= 1;
                    remaining -= 1;
                    reached = Some(i);
                    break;
                }
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbors {
                    if nx >= w || ny >= h {
                        continue;
                    }
                    let n = ny * w + nx;
                    let nd = d + cost.of(n);
                    if nd < self.dist[n] {
                        if self.dist[n] == f64::INFINITY {
                            self.touched.push(n);
                        }
                        self.dist[n] = nd;
                        self.prev[n] = i as u32;
                        self.heap
                            .push((std::cmp::Reverse(ordered::F64(nd)), (nx, ny)));
                    }
                }
            }
            // Back-trace into the tree; only tree tiles lack a predecessor.
            let mut cur = reached.ok_or(RouteStop::Unreachable)?;
            while !self.in_tree[cur] {
                self.in_tree[cur] = true;
                self.tree.push((cur % w, cur / w));
                match self.prev[cur] {
                    NO_PREV => break,
                    p => cur = p as usize,
                }
            }
        }
        Ok(())
    }
}

/// Total-order wrapper for f64 path costs (never NaN).
mod ordered {
    /// f64 with `Ord` (costs are finite and non-NaN by construction).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct F64(pub f64);
    impl Eq for F64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .expect("routing costs are never NaN")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::netlist::Cell;
    use crate::pack::pack;
    use crate::place::{place, PlaceOptions};
    use std::collections::{BinaryHeap, HashMap, HashSet};
    use xrand::proptest_lite::run_cases;

    fn routed_chain(stages: usize) -> (Netlist, RoutedDesign) {
        let mut n = Netlist::new("chain");
        let input = n.add_net("in");
        n.add_input("in", input);
        let mut prev = input;
        for i in 0..stages {
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
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let r = route(&n, &p, &pl, RouteOptions::default()).unwrap();
        (n, r)
    }

    #[test]
    fn multi_clb_design_uses_routing() {
        // 30 stages = 60 logic elements > one CLB, so inter-CLB nets exist
        // and must be routed. (Pad nets may be local if the IOB lands on
        // the same perimeter tile as its sink CLB.)
        let (_, r) = routed_chain(30);
        assert!(r.total_wirelength > 0);
        assert!(r.routes.iter().flatten().count() > 0);
        assert!(r.peak_usage >= 1);
    }

    #[test]
    fn route_trees_are_connected_and_cover_terminals() {
        let (n, r) = routed_chain(20);
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let terms = net_terminals(&n, &p, &pl);
        for (i, route) in r.routes.iter().enumerate() {
            let Some(route) = route else { continue };
            let tiles: HashSet<(usize, usize)> = route.tiles.iter().copied().collect();
            for t in &terms[i] {
                assert!(tiles.contains(t), "net {i} misses terminal {t:?}");
            }
            // Connectivity: BFS within the tile set from the first terminal.
            let mut seen = HashSet::new();
            let mut stack = vec![terms[i][0]];
            seen.insert(terms[i][0]);
            while let Some((x, y)) = stack.pop() {
                for (nx, ny) in [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ] {
                    if tiles.contains(&(nx, ny)) && seen.insert((nx, ny)) {
                        stack.push((nx, ny));
                    }
                }
            }
            assert_eq!(seen.len(), tiles.len(), "net {i} tree is disconnected");
        }
    }

    #[test]
    fn local_nets_use_no_routing() {
        // A LUT and its paired FF share an entity: the connecting net is
        // single-tile and needs no general routing.
        let mut n = Netlist::new("pair");
        let a = n.add_net("a");
        let l = n.add_net("l");
        let q = n.add_net("q");
        n.add_input("a", a);
        n.add_output("q", q);
        n.add_cell(Cell::Lut {
            inputs: vec![a],
            output: l,
            truth: 0b01,
        });
        n.add_cell(Cell::Ff {
            d: l,
            q,
            ce: None,
            init: false,
        });
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let r = route(&n, &p, &pl, RouteOptions::default()).unwrap();
        assert!(
            r.routes[l.index()].is_none(),
            "intra-LE net routed globally"
        );
        assert_eq!(r.wirelength(l), 0);
        assert_eq!(r.switches(l), 0);
    }

    #[test]
    fn wirelength_tracks_distance() {
        let (_, r) = routed_chain(10);
        for route in r.routes.iter().flatten() {
            assert_eq!(route.wirelength + 1, route.tiles.len());
            assert_eq!(route.switches, route.wirelength);
        }
    }

    #[test]
    fn congestion_forces_ripup_or_reports() {
        // A dense design with capacity 1 per tile: either the router
        // resolves it through rip-up rounds or reports the overflow —
        // never panics or silently overcommits.
        let mut n = Netlist::new("dense");
        let a = n.add_net("a");
        n.add_input("a", a);
        for i in 0..40 {
            let o = n.add_net(format!("o{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![a],
                output: o,
                truth: 0b10,
            });
            n.add_output(format!("o{i}"), o);
        }
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let opts = RouteOptions {
            tile_capacity: 1,
            max_rounds: 3,
            ..RouteOptions::default()
        };
        match route(&n, &p, &pl, opts) {
            Ok(r) => assert!(r.peak_usage <= 1, "capacity respected"),
            Err(RouteError::CongestionUnresolved { overflowed_tiles }) => {
                assert!(overflowed_tiles > 0);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn deterministic_routing() {
        let (_, r1) = routed_chain(15);
        let (_, r2) = routed_chain(15);
        assert_eq!(r1.total_wirelength, r2.total_wirelength);
    }

    #[test]
    fn expansion_budget_exhaustion_is_typed() {
        let mut n = Netlist::new("chain");
        let input = n.add_net("in");
        n.add_input("in", input);
        let mut prev = input;
        for i in 0..30 {
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
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        let opts = RouteOptions {
            max_expansions: 1,
            ..RouteOptions::default()
        };
        match route(&n, &p, &pl, opts) {
            Err(RouteError::BudgetExhausted { spent }) => assert!(spent > 1),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // An ample budget routes identically to the default.
        let ample = RouteOptions {
            max_expansions: RouteOptions::DEFAULT_MAX_EXPANSIONS,
            ..RouteOptions::default()
        };
        let r = route(&n, &p, &pl, ample).unwrap();
        assert!(r.total_wirelength > 0);
    }

    /// The hash-map search [`Search::route_net`] replaced, kept as its
    /// oracle: `dist`/`prev` rebuilt per sink, the tree in a `HashSet`, a
    /// linear scan of the remaining sinks per expansion.
    #[allow(clippy::too_many_arguments)]
    fn route_net_reference(
        terminals: &[(usize, usize)],
        w: usize,
        h: usize,
        usage: &[usize],
        history: &[f64],
        capacity: usize,
        round: usize,
        max_expansions: u64,
        expansions: &mut u64,
    ) -> Result<Vec<(usize, usize)>, RouteStop> {
        let tile_cost = |x: usize, y: usize| -> f64 {
            let i = y * w + x;
            let u = usage[i];
            // Base + congestion: sharply penalize over-capacity in later rounds.
            let over = u.saturating_sub(capacity) as f64;
            1.0 + history[i] + over * (1.0 + round as f64 * 4.0) + u as f64 * 0.02
        };

        let mut tree: HashSet<(usize, usize)> = HashSet::new();
        tree.insert(terminals[0]);
        let mut remaining: Vec<(usize, usize)> = terminals[1..]
            .iter()
            .copied()
            .filter(|t| !tree.contains(t))
            .collect();

        while !remaining.is_empty() {
            // Dijkstra from all tree tiles.
            let mut dist: HashMap<(usize, usize), f64> = HashMap::new();
            let mut prev: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
            let mut heap: BinaryHeap<(std::cmp::Reverse<ordered::F64>, (usize, usize))> =
                BinaryHeap::new();
            for &t in &tree {
                dist.insert(t, 0.0);
                heap.push((std::cmp::Reverse(ordered::F64(0.0)), t));
            }
            let mut reached: Option<(usize, usize)> = None;
            while let Some((std::cmp::Reverse(ordered::F64(d)), (x, y))) = heap.pop() {
                *expansions += 1;
                if *expansions > max_expansions {
                    return Err(RouteStop::Budget);
                }
                if dist.get(&(x, y)).copied().unwrap_or(f64::INFINITY) < d {
                    continue;
                }
                if let Some(pos) = remaining.iter().position(|&s| s == (x, y)) {
                    remaining.swap_remove(pos);
                    reached = Some((x, y));
                    break;
                }
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                for (nx, ny) in neighbors {
                    if nx >= w || ny >= h {
                        continue;
                    }
                    let nd = d + tile_cost(nx, ny);
                    if nd < dist.get(&(nx, ny)).copied().unwrap_or(f64::INFINITY) {
                        dist.insert((nx, ny), nd);
                        prev.insert((nx, ny), (x, y));
                        heap.push((std::cmp::Reverse(ordered::F64(nd)), (nx, ny)));
                    }
                }
            }
            let sink = reached.ok_or(RouteStop::Unreachable)?;
            // Back-trace into the tree.
            let mut cur = sink;
            while !tree.contains(&cur) {
                tree.insert(cur);
                match prev.get(&cur) {
                    Some(&p) => cur = p,
                    None => break, // cur was a tree seed
                }
            }
        }
        let mut tiles: Vec<(usize, usize)> = tree.into_iter().collect();
        tiles.sort_unstable();
        Ok(tiles)
    }

    #[test]
    fn dense_search_matches_the_hash_map_reference() {
        run_cases(60, |rng| {
            let w = rng.random_range(1..=14usize);
            let h = rng.random_range(1..=14usize);
            let capacity = rng.random_range(1..=4usize);
            let usage: Vec<usize> = (0..w * h).map(|_| rng.random_range(0..=6usize)).collect();
            let history: Vec<f64> = (0..w * h)
                .map(|_| {
                    if rng.random_bool(0.3) {
                        f64::from(rng.random_range(0..4u32))
                    } else {
                        0.0
                    }
                })
                .collect();
            let round = rng.random_range(0..4usize);
            let mut search = Search::new(w, h);
            // Several nets through one `Search`, so a later net would see
            // any state an earlier one (finished or cut off) left behind.
            for _ in 0..6 {
                let tile =
                    |rng: &mut xrand::SmallRng| (rng.random_range(0..w), rng.random_range(0..h));
                let mut terminals = vec![tile(rng)];
                for _ in 0..rng.random_range(1..=8usize) {
                    let t = match rng.random_range(0..4u32) {
                        // A duplicate of an earlier terminal (the source
                        // included).
                        0 => terminals[rng.random_range(0..terminals.len())],
                        // A sink in line with the source, on or beside
                        // the path to a farther one.
                        1 => (terminals[0].0, rng.random_range(0..h)),
                        _ => tile(rng),
                    };
                    terminals.push(t);
                }
                let budget = if rng.random_bool(0.3) {
                    rng.random_range(1..=(w * h * terminals.len()) as u64)
                } else {
                    u64::MAX
                };
                let start = rng.random_range(0..50u64);
                let (mut fast_spent, mut slow_spent) = (start, start);
                let cost = TileCost {
                    usage: &usage,
                    history: &history,
                    capacity,
                    round,
                };
                let fast = search.route_net(&terminals, cost, budget, &mut fast_spent);
                let slow = route_net_reference(
                    &terminals,
                    w,
                    h,
                    &usage,
                    &history,
                    capacity,
                    round,
                    budget,
                    &mut slow_spent,
                );
                assert_eq!(fast, slow, "{w}x{h} grid, terminals {terminals:?}");
                assert_eq!(fast_spent, slow_spent, "expansion counts differ");
            }
        });
    }
}
