//! Simulated-annealing placement.
//!
//! Assigns packed entities (CLBs, BRAMs, IOBs) to device sites minimizing
//! total half-perimeter wirelength (HPWL), blended with a VPR-style
//! criticality-weighted timing term (see [`PlaceOptions::timing_weight`]).
//! The schedule is a classic VPR-style anneal scaled by an effort knob.
//! Placement quality feeds directly into routed wirelength and therefore
//! interconnect power — the dominant FPGA power component (paper Sec. 2) —
//! and, through the timing term, into fmax: since the paper's power
//! numbers scale with clock frequency, a placement that shortens the
//! critical path (the BRAM address/enable setup loop for EMB FSMs) moves
//! the bottom-line tables directly.

use crate::device::Device;
use crate::netlist::{NetId, Netlist};
use crate::pack::{EntityId, PackedDesign};
use crate::sta::TimingKernel;
use crate::timing::DelayModel;
use std::fmt;
use std::rc::Rc;
use xrand::SmallRng;

/// Bumped whenever [`place`] can produce a different placement for the
/// same (netlist, device, options) input — the flow-artifact cache mixes
/// it into placement keys so stale artifacts from an older algorithm are
/// never returned. Version 2: adaptive VPR schedule (T0 from sampled
/// move-delta stddev, acceptance-keyed cooling, dynamic exit). Version 3:
/// criticality-weighted timing cost (frozen per-level criticalities from
/// the incremental STA kernel, timing-aware quench, early-exit move
/// rejection) — wirelength-only behavior at `timing_weight = 0` is
/// byte-identical to version 2. Version 4 added the guarded two-arm
/// selection (`pick_guarded`): with the timing term on, the blind and
/// criticality-weighted anneals both run and the better STA estimate
/// wins, so timing-driven placement is never worse than wirelength-only.
/// Version 5: one anneal per guarded [`place`] — the timed arm refines
/// the blind arm's polished layout (the timing quench, one reheat cycle,
/// the closing quench) instead of annealing again from the shared start.
pub const ALGORITHM_VERSION: u32 = 5;

/// Placement options.
#[derive(Debug, Clone, Copy)]
pub struct PlaceOptions {
    /// RNG seed (placement is deterministic given the seed).
    pub seed: u64,
    /// Effort multiplier. [`place`] caps it at 2 per cooling cycle: a
    /// level in the 5–15 % acceptance band runs `⌈min(effort, 2) ·
    /// entities^{4/3}⌉` moves, every other level a third of that, and
    /// `round(effort / min(effort, 2))` reheat cycles follow the blind
    /// arm's first cooldown — one up to effort 2, so effort beyond 2 buys
    /// cycles, not longer levels. The timed arm of a guarded [`place`]
    /// runs one reheat cycle whatever the effort: effort buys it longer
    /// levels up to 2, and no reheats. [`place_incremental`] runs
    /// `max(16, ⌈max(effort, 0.1) · movable^{4/3}⌉)` moves on every level
    /// and never reheats.
    pub effort: f64,
    /// Hard cap on annealing moves. When the cap is hit the anneal stops
    /// where it is, the best-seen configuration is polished and returned,
    /// and [`Placement::budget`] is flagged [`BudgetOutcome::Exhausted`] —
    /// so no effort setting can hang the experiment harness. The default
    /// is far above what any paper benchmark spends (~200k moves), so
    /// results are unchanged unless a caller tightens it.
    pub max_moves: u64,
    /// Weight `w ∈ [0, 1]` of the timing term in the annealing cost:
    /// `(1−w)·Σ hpwl + w·scale·Σ crit^exp·net_per_hop·hpwl`, with `scale`
    /// re-normalizing the timing term onto the wirelength scale at every
    /// criticality refresh (VPR's self-normalizing trade-off). `0.0`
    /// disables the timing machinery entirely and reproduces the
    /// wirelength-only placement byte-for-byte.
    pub timing_weight: f64,
    /// Criticality sharpening exponent (VPR's `criticality_exp`): the
    /// per-net weight is `criticality^crit_exp`, so large exponents focus
    /// the timing term on the near-critical cone only.
    pub crit_exp: f64,
    /// Every `retime_interval`-th per-level criticality refresh is backed
    /// by a from-scratch recompute of the timing kernel (debug-asserted
    /// bit-identical to the incremental state — the drift bound). `0`
    /// disables the periodic full re-time.
    pub retime_interval: u32,
    /// Delay model the timing term anneals against (wire delay per net is
    /// `net_base + net_per_hop · hpwl`). Flows pass their own model so
    /// placement and post-route analysis agree.
    pub delay: DelayModel,
}

impl PlaceOptions {
    /// Default annealing-move cap (see [`PlaceOptions::max_moves`]).
    pub const DEFAULT_MAX_MOVES: u64 = 50_000_000;
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 1,
            effort: 10.0,
            max_moves: Self::DEFAULT_MAX_MOVES,
            timing_weight: 0.5,
            crit_exp: 8.0,
            retime_interval: 8,
            delay: DelayModel::default(),
        }
    }
}

/// Whether an iterative optimization ran to its natural end or was cut
/// off by its move/iteration budget (in which case the best state seen
/// so far is returned, flagged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetOutcome {
    /// The optimization converged (or exhausted its schedule) normally.
    #[default]
    Completed,
    /// The budget ran out first; the result is the best seen so far.
    Exhausted {
        /// Moves/iterations spent when the budget cut in.
        spent: u64,
    },
}

impl BudgetOutcome {
    /// True when the budget ran out.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        matches!(self, BudgetOutcome::Exhausted { .. })
    }
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The design does not fit the device.
    DoesNotFit {
        /// What overflowed ("CLBs", "BRAMs" or "IOBs").
        what: &'static str,
        /// Required count.
        need: usize,
        /// Available sites.
        have: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::DoesNotFit { what, need, have } => {
                write!(f, "design needs {need} {what}, device has {have}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A placement: entity → site coordinates.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The target device.
    pub device: Device,
    /// CLB locations (indexed like `PackedDesign::clbs`).
    pub clb_loc: Vec<(usize, usize)>,
    /// BRAM locations.
    pub bram_loc: Vec<(usize, usize)>,
    /// IOB locations.
    pub iob_loc: Vec<(usize, usize)>,
    /// Final HPWL cost.
    pub hpwl: f64,
    /// Final Σ hpwl² over the same nets — the quadratic tie-breaker the
    /// descent phases optimize (a cheap timing proxy; see `quench`).
    pub hpwl_sq: f64,
    /// Annealing moves attempted (excludes the T0 calibration samples
    /// and the deterministic quench passes).
    pub moves: u64,
    /// Whether the anneal ran its full schedule or hit
    /// [`PlaceOptions::max_moves`] (best-seen returned either way).
    pub budget: BudgetOutcome,
}

impl Placement {
    /// The site of an entity.
    #[must_use]
    pub fn location(&self, e: EntityId) -> (usize, usize) {
        match e {
            EntityId::Clb(i) => self.clb_loc[i],
            EntityId::Bram(i) => self.bram_loc[i],
            EntityId::Iob(i) => self.iob_loc[i],
        }
    }
}

/// Net pin model used for cost: the entities touching each net. Shared
/// with [`crate::sta::estimate_critical_ns`] so the placer's cost model
/// and the post-place fmax estimate see the same pins.
pub(crate) fn build_net_pins(netlist: &Netlist, packed: &PackedDesign) -> Vec<Vec<EntityId>> {
    let mut pins: Vec<Vec<EntityId>> = vec![Vec::new(); netlist.num_nets()];
    for (i, cell) in netlist.cells().iter().enumerate() {
        let Some(entity) = packed.entity_of_cell[i] else {
            continue;
        };
        for net in cell.inputs().into_iter().chain(cell.outputs()) {
            if !pins[net.index()].contains(&entity) {
                pins[net.index()].push(entity);
            }
        }
    }
    for (i, iob) in packed.iobs.iter().enumerate() {
        let e = EntityId::Iob(i);
        if !pins[iob.net.index()].contains(&e) {
            pins[iob.net.index()].push(e);
        }
    }
    pins
}

/// A device site `(x, y)`.
type Site = (usize, usize);

/// Entity locations per kind — `[CLBs, BRAMs, IOBs]`, each indexed like
/// the matching `PackedDesign` list. Kinds 0/1/2 index every per-kind
/// array in this module.
type Locs = [Vec<Site>; 3];

/// What each kind is called in capacity and pin-map errors.
const KIND_NAMES: [&str; 3] = ["CLBs", "BRAMs", "IOBs"];

fn kind_index(e: EntityId) -> (usize, usize) {
    match e {
        EntityId::Clb(i) => (0, i),
        EntityId::Bram(i) => (1, i),
        EntityId::Iob(i) => (2, i),
    }
}

fn site_of(loc: &Locs, e: EntityId) -> Site {
    let (kind, idx) = kind_index(e);
    loc[kind][idx]
}

/// One axis of a net's pin extent, with enough edge bookkeeping to drop a
/// pin in O(1): each edge's value, how many pins sit on it, and the
/// next-inner value behind it. Dropping a pin moves an edge only when
/// that pin is the edge's sole occupant, and then to the next-inner value.
/// Coordinates and pin counts are `u16` — a net's pins sit on distinct
/// sites, so an edge holds at most a few device columns' worth — which
/// keeps a whole [`NetBox`] in 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    lo: u16,
    lo_pins: u16,
    lo_next: u16,
    hi: u16,
    hi_pins: u16,
    hi_next: u16,
}

impl Extent {
    const EMPTY: Extent = Extent {
        lo: u16::MAX,
        lo_pins: 0,
        lo_next: u16::MAX,
        hi: 0,
        hi_pins: 0,
        hi_next: 0,
    };

    fn add(&mut self, v: usize) {
        debug_assert!(
            v < usize::from(u16::MAX),
            "site coordinate {v} overflows u16"
        );
        let v = v as u16;
        if v < self.lo {
            self.lo_next = self.lo;
            self.lo = v;
            self.lo_pins = 1;
        } else if v == self.lo {
            self.lo_pins += 1;
        } else if v < self.lo_next {
            self.lo_next = v;
        }
        if v > self.hi {
            self.hi_next = self.hi;
            self.hi = v;
            self.hi_pins = 1;
        } else if v == self.hi {
            self.hi_pins += 1;
        } else if v > self.hi_next {
            self.hi_next = v;
        }
    }

    /// Moves one pin from `from` to `to` in O(1), unless `from` is a sole
    /// edge pin or the recorded next-inner value (whose pin count is not
    /// kept): `false`, extent untouched, in that case. An extent is a pure
    /// function of its pin multiset, so dropping the pin and adding `to`
    /// lands on exactly what a rescan builds.
    fn shift(&mut self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let from = from as u16;
        if from == self.lo_next
            || from == self.hi_next
            || (from == self.lo && self.lo_pins == 1)
            || (from == self.hi && self.hi_pins == 1)
        {
            return false;
        }
        if from == self.lo {
            self.lo_pins -= 1;
        }
        if from == self.hi {
            self.hi_pins -= 1;
        }
        self.add(to);
        true
    }

    /// `(lo, hi)` of the other pins once the pin at `from` leaves (the
    /// net has ≥ 2 pins).
    fn without(&self, from: usize) -> (usize, usize) {
        let from = from as u16;
        let lo = if from == self.lo && self.lo_pins == 1 {
            self.lo_next
        } else {
            self.lo
        };
        let hi = if from == self.hi && self.hi_pins == 1 {
            self.hi_next
        } else {
            self.hi
        };
        (usize::from(lo), usize::from(hi))
    }

    /// `hi − lo` (the extent holds at least one pin).
    fn width(&self) -> usize {
        usize::from(self.hi - self.lo)
    }
}

/// Width of the extent `(lo, hi)` stretched over `to`.
fn stretch((lo, hi): (usize, usize), to: usize) -> usize {
    hi.max(to) - lo.min(to)
}

/// Cached bounding box of one net's pins, plus the HPWL derived from it.
/// The anneal and the quench keep one `NetBox` per active net, exact for
/// the current layout, so a layout's per-net HPWL is a table lookup and a
/// candidate move's is O(1) (see [`NetModel::priced`]); only a move that
/// is actually taken rescans its nets to rebuild their boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetBox {
    x: Extent,
    y: Extent,
    /// `((max_x - min_x) + (max_y - min_y)) as f64`; 0.0 for nets with
    /// fewer than two pins (same convention as the historical scan).
    hpwl: f64,
}

impl NetBox {
    /// Placeholder for nets the cost function never looks at (< 2 pins).
    const EMPTY: NetBox = NetBox {
        x: Extent::EMPTY,
        y: Extent::EMPTY,
        hpwl: 0.0,
    };

    fn compute(pins: &[EntityId], loc: impl Fn(EntityId) -> Site) -> NetBox {
        if pins.len() < 2 {
            return NetBox::EMPTY;
        }
        let mut b = NetBox::EMPTY;
        for &p in pins {
            let (x, y) = loc(p);
            b.x.add(x);
            b.y.add(y);
        }
        b.hpwl = (b.x.width() + b.y.width()) as f64;
        b
    }

    /// Moves one pin from `from` to `to` in O(1) where [`Extent::shift`]
    /// can on both axes; `false` otherwise, and the (possibly half-shifted)
    /// box must then be rescanned.
    fn shift(&mut self, from: Site, to: Site) -> bool {
        if !(self.x.shift(from.0, to.0) && self.y.shift(from.1, to.1)) {
            return false;
        }
        self.hpwl = (self.x.width() + self.y.width()) as f64;
        true
    }

    /// HPWL once the pin at `from` moves to `to`: the box of every other
    /// pin, stretched over `to`.
    fn moved(&self, from: Site, to: Site) -> f64 {
        (stretch(self.x.without(from.0), to.0) + stretch(self.y.without(from.1), to.1)) as f64
    }
}

pub(crate) fn hpwl_of_net(pins: &[EntityId], loc: &dyn Fn(EntityId) -> (usize, usize)) -> f64 {
    NetBox::compute(pins, loc).hpwl
}

/// Where a move sends its entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// To the free-pool site at this index.
    Free(usize),
    /// To the site of this same-kind sibling, which takes the vacated one.
    Swap(usize),
}

/// A single-entity move: entity `idx` of `kind` leaves `from` for `to`.
#[derive(Debug, Clone, Copy)]
struct Move {
    kind: usize,
    idx: usize,
    from: Site,
    to: Site,
    target: Target,
}

impl Move {
    fn partner(&self) -> Option<usize> {
        match self.target {
            Target::Free(_) => None,
            Target::Swap(o) => Some(o),
        }
    }

    /// Where `e` sits once the move is applied to `loc`.
    fn site_after(&self, loc: &Locs, e: EntityId) -> Site {
        match kind_index(e) {
            (k, i) if k == self.kind && i == self.idx => self.to,
            (k, i) if k == self.kind && Some(i) == self.partner() => self.from,
            (k, i) => loc[k][i],
        }
    }

    /// Applies the move; a vacated site joins the free pool at the end
    /// (after the taken one is swap-removed), and the site index follows.
    fn apply(&self, loc: &mut Locs, pools: &mut Pools) {
        let (pool, index) = (&mut pools.free[self.kind], &mut pools.index[self.kind]);
        loc[self.kind][self.idx] = self.to;
        index.set(self.to, self.idx);
        match self.target {
            Target::Free(f) => {
                pool.swap_remove(f);
                if let Some(&moved) = pool.get(f) {
                    index.set(moved, FREE | f);
                }
                index.set(self.from, FREE | pool.len());
                pool.push(self.from);
            }
            Target::Swap(o) => {
                loc[self.kind][o] = self.from;
                index.set(self.from, o);
            }
        }
    }
}

/// Tags a [`SiteIndex`] occupant as a free-pool index rather than an
/// entity index.
const FREE: usize = 1 << 31;

/// A device's sites per kind, `[CLBs, BRAMs, IOBs]`, each in device
/// order, with each kind's [`SiteGrid`]. Indexing by kind gives the list.
struct Sites {
    list: [Vec<Site>; 3],
    grid: [Rc<SiteGrid>; 3],
}

impl std::ops::Index<usize> for Sites {
    type Output = Vec<Site>;

    fn index(&self, kind: usize) -> &Vec<Site> {
        &self.list[kind]
    }
}

/// The fixed layout of one kind's sites, built once per placement: every
/// site gets a slot, the sites bucketed by column with rows ascending.
#[derive(Debug)]
struct SiteGrid {
    /// Grid width and height: one past the largest site column and row.
    w: usize,
    h: usize,
    /// `first[x · (h + 1) + y]` is the first slot of column `x` whose row
    /// is `≥ y`, so the sites of column `x` in rows `lo..=hi` are slots
    /// `first[x · (h + 1) + lo]..first[x · (h + 1) + hi + 1]`.
    first: Vec<u32>,
    /// The slot of the site on tile `y · w + x` (unused off-site).
    slot: Vec<u32>,
    /// Number of sites (and slots).
    len: usize,
}

impl SiteGrid {
    fn new(sites: &[Site]) -> SiteGrid {
        let mut order = sites.to_vec();
        order.sort_unstable();
        let w = order.last().map_or(0, |s| s.0 + 1);
        let h = order.iter().map(|s| s.1 + 1).max().unwrap_or(0);
        // Sites in (column, row) order: the slots before the first site
        // at or past (x, y) are exactly those of the columns before `x`
        // and of column `x`'s rows before `y`.
        let first = (0..w)
            .flat_map(|x| (0..=h).map(move |y| (x, y)))
            .map(|at| order.partition_point(|&s| s < at) as u32)
            .collect();
        let mut slot = vec![0; w * h];
        for (k, &(x, y)) in order.iter().enumerate() {
            slot[y * w + x] = k as u32;
        }
        SiteGrid {
            w,
            h,
            first,
            slot,
            len: order.len(),
        }
    }

    fn slot(&self, (x, y): Site) -> usize {
        self.slot[y * self.w + x] as usize
    }

    /// The sites of `sites` (this grid's, in device order) no entity in
    /// `locs` occupies, in that order.
    fn free(&self, locs: &[Site], sites: &[Site]) -> Vec<Site> {
        let mut used = vec![false; self.len];
        for &s in locs {
            used[self.slot(s)] = true;
        }
        sites
            .iter()
            .copied()
            .filter(|&s| !used[self.slot(s)])
            .collect()
    }
}

/// What occupies each site of one kind: an entity of the kind, or a free
/// site at some free-pool index. A proposal visits only the sites inside
/// its window instead of scanning every free site and every sibling.
#[derive(Debug, Clone)]
struct SiteIndex {
    grid: Rc<SiteGrid>,
    /// The occupant of each slot: an entity index, or `FREE |` a
    /// free-pool index.
    occ: Vec<u32>,
}

impl SiteIndex {
    fn new(grid: &Rc<SiteGrid>, locs: &[Site], free: &[Site]) -> SiteIndex {
        let mut index = SiteIndex {
            grid: Rc::clone(grid),
            occ: vec![0; grid.len],
        };
        for (i, &s) in locs.iter().enumerate() {
            index.set(s, i);
        }
        for (f, &s) in free.iter().enumerate() {
            index.set(s, FREE | f);
        }
        index
    }

    fn set(&mut self, site: Site, occupant: usize) {
        self.occ[self.grid.slot(site)] = occupant as u32;
    }

    /// The occupants of every site within Chebyshev distance `reach` of
    /// `at`, one column at a time.
    fn window(&self, at: Site, reach: usize) -> impl Iterator<Item = &[u32]> + '_ {
        let SiteGrid {
            w, h, ref first, ..
        } = *self.grid;
        let rows = h + 1;
        let y_lo = at.1.saturating_sub(reach).min(h);
        let y_end = at.1.saturating_add(reach).saturating_add(1).min(h);
        let x_hi = at.0.saturating_add(reach).min(w.saturating_sub(1));
        (at.0.saturating_sub(reach)..=x_hi).map(move |x| {
            &self.occ[first[x * rows + y_lo] as usize..first[x * rows + y_end] as usize]
        })
    }
}

/// The position of the `k`-th set bit of `words[lo..=hi]`, counted
/// from the lowest (`k` is below the number of set bits).
fn kth_bit(words: &[u64], lo: usize, hi: usize, mut k: usize) -> usize {
    for (w, &word) in words.iter().enumerate().take(hi + 1).skip(lo) {
        let ones = word.count_ones() as usize;
        if k < ones {
            let mut word = word;
            for _ in 0..k {
                word &= word - 1;
            }
            return w * 64 + word.trailing_zeros() as usize;
        }
        k -= ones;
    }
    lo * 64
}

/// The free-site pools per kind, the site index kept in step with them
/// (see [`Move::apply`]), and the proposal scratch.
#[derive(Debug, Clone)]
struct Pools {
    free: [Vec<Site>; 3],
    index: [SiteIndex; 3],
    /// The current window's candidates as one bitset, cleared after each
    /// proposal: sibling `o` is bit `o` and free-pool index `f` bit
    /// `base + f`. The window visits them in column order; the bitset
    /// hands them back in index order. Both index spaces are below
    /// `base`, the largest site count rounded up to whole words.
    near: Vec<u64>,
    base: usize,
}

impl Pools {
    /// The pools of a layout: each kind's unoccupied sites, in site order.
    fn new(sites: &Sites, loc: &Locs) -> Pools {
        let free: [Vec<Site>; 3] = std::array::from_fn(|k| sites.grid[k].free(&loc[k], &sites[k]));
        let index = std::array::from_fn(|k| SiteIndex::new(&sites.grid[k], &loc[k], &free[k]));
        // A kind's pool and its entities share its sites.
        let base = sites
            .list
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .next_multiple_of(64);
        Pools {
            free,
            index,
            near: vec![0; 2 * base / 64],
            base,
        }
    }

    /// Draws one range-limited move for the walks and the T0 sampler: a
    /// random entity of `movers`, sent to a free site or swapped with a
    /// (movable) sibling within Chebyshev radius `r` of its site — a free
    /// site with even odds when both kinds of candidate exist. The window's
    /// candidates are gathered from the site index, the choice drawn, and
    /// the k-th smallest pool or entity index selected: the same RNG draws,
    /// in the same order, as materializing both lists in index order.
    /// `None` when the window holds no candidate.
    fn propose(
        &mut self,
        rng: &mut SmallRng,
        movers: &[(usize, usize)],
        loc: &Locs,
        movable: Option<[&[bool]; 3]>,
        r: f64,
    ) -> Option<Move> {
        let (kind, idx) = movers[rng.random_range(0..movers.len())];
        let from = loc[kind][idx];
        let (near, base) = (&mut self.near[..], self.base);
        let (mut n_free, mut n_near) = (0, 0);
        // Every set bit lies in words `lo..=hi` (none when `lo > hi`).
        let (mut lo, mut hi) = (usize::MAX, 0);
        // Site distances are integers, so `d as f64 <= r` is `d <= ⌊r⌋`.
        for column in self.index[kind].window(from, r.floor() as usize) {
            for &o in column {
                let o = o as usize;
                let free = o & FREE != 0;
                if !free && (o == idx || movable.is_some_and(|m| !m[kind][o])) {
                    continue;
                }
                n_free += usize::from(free);
                n_near += 1;
                let bit = if free { base + (o & !FREE) } else { o };
                near[bit / 64] |= 1 << (bit % 64);
                (lo, hi) = (lo.min(bit / 64), hi.max(bit / 64));
            }
        }
        let n_swap = n_near - n_free;
        let target = if n_free > 0 && (n_swap == 0 || rng.random_bool(0.5)) {
            let k = rng.random_range(0..n_free);
            Some(Target::Free(kth_bit(near, lo.max(base / 64), hi, k) - base))
        } else if n_swap > 0 {
            let k = rng.random_range(0..n_swap);
            Some(Target::Swap(kth_bit(near, lo, hi, k)))
        } else {
            None
        };
        if lo <= hi {
            near[lo..=hi].fill(0);
        }
        let target = target?;
        let to = match target {
            Target::Free(f) => self.free[kind][f],
            Target::Swap(o) => loc[kind][o],
        };
        Some(Move {
            kind,
            idx,
            from,
            to,
            target,
        })
    }
}

/// The placer's view of a packed netlist: the pins of every net, the nets
/// worth costing (≥ 2 pins) in ascending id order, and the entity → nets
/// table over those nets — one dense CSR array indexed by kind-major
/// entity number (CLBs, then BRAMs, then IOBs). Each entity's nets come
/// out in ascending id order, the order every cost fold below uses.
struct NetModel {
    pins: Vec<Vec<EntityId>>,
    active: Vec<NetId>,
    first: [usize; 3],
    start: Vec<usize>,
    nets: Vec<NetId>,
}

impl NetModel {
    fn new(netlist: &Netlist, packed: &PackedDesign) -> NetModel {
        NetModel::from_pins(build_net_pins(netlist, packed), kind_counts(packed))
    }

    fn from_pins(pins: Vec<Vec<EntityId>>, counts: [usize; 3]) -> NetModel {
        let active: Vec<NetId> = (0..pins.len())
            .map(|i| NetId(i as u32))
            .filter(|n| pins[n.index()].len() >= 2)
            .collect();
        let first = [0, counts[0], counts[0] + counts[1]];
        let slot = |e: EntityId| {
            let (kind, idx) = kind_index(e);
            first[kind] + idx
        };
        let mut start = vec![0usize; first[2] + counts[2] + 1];
        for &n in &active {
            for &e in &pins[n.index()] {
                start[slot(e) + 1] += 1;
            }
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut fill = start.clone();
        let mut nets = vec![NetId(0); start[start.len() - 1]];
        for &n in &active {
            for &e in &pins[n.index()] {
                nets[fill[slot(e)]] = n;
                fill[slot(e)] += 1;
            }
        }
        NetModel {
            pins,
            active,
            first,
            start,
            nets,
        }
    }

    /// The CSR slots of an entity's nets.
    fn slots(&self, kind: usize, idx: usize) -> std::ops::Range<usize> {
        let s = self.first[kind] + idx;
        self.start[s]..self.start[s + 1]
    }

    fn nets_of(&self, kind: usize, idx: usize) -> &[NetId] {
        &self.nets[self.slots(kind, idx)]
    }

    /// The nets a move touches (a net of both swapped entities twice).
    fn touched(&self, mv: &Move) -> impl Iterator<Item = NetId> + '_ {
        let theirs = mv.partner().map_or(&[][..], |o| self.nets_of(mv.kind, o));
        self.nets_of(mv.kind, mv.idx).iter().chain(theirs).copied()
    }

    fn rescan(&self, n: NetId, loc: impl Fn(EntityId) -> Site) -> NetBox {
        NetBox::compute(&self.pins[n.index()], loc)
    }

    /// Exact (Σ hpwl, Σ hpwl²) of a layout.
    fn cost(&self, loc: &Locs) -> (f64, f64) {
        self.active.iter().fold((0.0, 0.0), |(lin, sq), &n| {
            let h = self.rescan(n, |e| site_of(loc, e)).hpwl;
            (lin + h, sq + h * h)
        })
    }

    /// The per-net box cache of a layout, from scratch.
    fn boxes(&self, loc: &Locs) -> Vec<NetBox> {
        let mut boxes = vec![NetBox::EMPTY; self.pins.len()];
        for &n in &self.active {
            boxes[n.index()] = self.rescan(n, |e| site_of(loc, e));
        }
        boxes
    }

    /// Every net `mv` touches, in ascending id order ([`merge`] of the
    /// two entities' net lists, no allocation), with its HPWL before and
    /// after the move, both O(1) from `boxes`: a net holding one mover is
    /// that net's box without the mover's pin, stretched over the pin's
    /// new site, and a net holding both swapped entities keeps its HPWL.
    /// Debug builds check each after-value against a rescan.
    fn priced<'a>(
        &'a self,
        boxes: &'a [NetBox],
        loc: &'a Locs,
        mv: Move,
    ) -> impl Iterator<Item = (NetId, f64, f64)> + 'a {
        let mine = self.nets_of(mv.kind, mv.idx);
        let theirs = mv.partner().map_or(&[][..], |o| self.nets_of(mv.kind, o));
        merge(mine, theirs).map(move |side| {
            let (n, after) = match side {
                Side::Mine(i) => (mine[i], boxes[mine[i].index()].moved(mv.from, mv.to)),
                Side::Theirs(j) => (theirs[j], boxes[theirs[j].index()].moved(mv.to, mv.from)),
                Side::Both(i) => (mine[i], boxes[mine[i].index()].hpwl),
            };
            debug_assert!(
                after == self.rescan(n, |e| mv.site_after(loc, e)).hpwl,
                "O(1) HPWL of net {n:?} under {mv:?} disagrees with a rescan"
            );
            (n, boxes[n.index()].hpwl, after)
        })
    }

    /// Every sum a walk decides `mv` by, folded in one pass over
    /// [`Self::priced`], in net order: the same additions, in the same
    /// order, as folding each sum over the priced nets separately, so
    /// every sum is bit-identical to its separate fold. The
    /// coefficient-weighted sums are folded only when `coef` is given.
    /// Debug builds check each touched net's cached box against a rescan.
    fn price(&self, boxes: &[NetBox], loc: &Locs, mv: Move, coef: Option<&[f64]>) -> Pricing {
        // `-0.0` is the neutral element `Iterator::sum` starts from.
        let mut p = Pricing {
            before: (0.0, 0.0),
            after: (0.0, 0.0),
            eff_before: -0.0,
            eff_after: 0.0,
            eff_delta: -0.0,
        };
        let mut add = |n: NetId, b: f64, a: f64| {
            debug_assert!(
                boxes[n.index()] == self.rescan(n, |e| site_of(loc, e)),
                "stale bounding-box cache under {mv:?}"
            );
            p.before = (p.before.0 + b, p.before.1 + b * b);
            p.after = (p.after.0 + a, p.after.1 + a * a);
            if let Some(c) = coef {
                let c = c[n.index()];
                p.eff_before += c * b;
                p.eff_after += c * a;
                p.eff_delta += c * (a - b);
            }
        };
        if mv.partner().is_some() {
            for (n, b, a) in self.priced(boxes, loc, mv) {
                add(n, b, a);
            }
        } else {
            // A move to a free site touches only the mover's nets: the
            // same nets, in the same order, `priced` merges out.
            for &n in self.nets_of(mv.kind, mv.idx) {
                let b = &boxes[n.index()];
                let after = b.moved(mv.from, mv.to);
                debug_assert!(
                    after == self.rescan(n, |e| mv.site_after(loc, e)).hpwl,
                    "O(1) HPWL of net {n:?} under {mv:?} disagrees with a rescan"
                );
                add(n, b.hpwl, after);
            }
        }
        p
    }

    /// Updates the boxes of the nets `mv` touched, after it was applied.
    /// A net holding both swapped entities keeps its pin multiset, so its
    /// box; any other net's box shifts its one moved pin in O(1), unless
    /// that pin's leaving could uncover an edge the box does not record —
    /// then the net is rescanned.
    fn rebox(&self, boxes: &mut [NetBox], loc: &Locs, mv: &Move) {
        let mine = self.nets_of(mv.kind, mv.idx);
        let theirs = mv.partner().map_or(&[][..], |o| self.nets_of(mv.kind, o));
        for side in merge(mine, theirs) {
            let (n, from, to) = match side {
                Side::Mine(i) => (mine[i], mv.from, mv.to),
                Side::Theirs(j) => (theirs[j], mv.to, mv.from),
                Side::Both(_) => continue,
            };
            let b = &mut boxes[n.index()];
            if !b.shift(from, to) {
                *b = self.rescan(n, |e| site_of(loc, e));
            }
            debug_assert!(
                *b == self.rescan(n, |e| site_of(loc, e)),
                "shifted box of net {n:?} under {mv:?} disagrees with a rescan"
            );
        }
    }
}

/// Which of a move's entities hold a net, with the net's index in the
/// mover's list (`Mine`, `Both`) or the partner's (`Theirs`).
#[derive(Debug, Clone, Copy)]
enum Side {
    Mine(usize),
    Theirs(usize),
    Both(usize),
}

/// Merges two ascending net lists into their union, ascending, each net
/// tagged with the list(s) holding it.
fn merge<'a>(mine: &'a [NetId], theirs: &'a [NetId]) -> impl Iterator<Item = Side> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let side = match (mine.get(i), theirs.get(j)) {
            (None, None) => return None,
            (Some(a), Some(b)) if a == b => Side::Both(i),
            (Some(a), Some(b)) if b.0 < a.0 => Side::Theirs(j),
            (Some(_), _) => Side::Mine(i),
            (None, Some(_)) => Side::Theirs(j),
        };
        match side {
            Side::Mine(_) => i += 1,
            Side::Theirs(_) => j += 1,
            Side::Both(_) => (i, j) = (i + 1, j + 1),
        }
        Some(side)
    })
}

/// The sums of one priced move (see [`NetModel::price`]).
#[derive(Debug, Clone, Copy)]
struct Pricing {
    /// (Σ h, Σ h²) over the touched nets before the move, and after it.
    before: (f64, f64),
    after: (f64, f64),
    /// Σ coef·h before and after, and Σ coef·(after − before): the
    /// effective-cost sides and delta of the timed arm.
    eff_before: f64,
    eff_after: f64,
    eff_delta: f64,
}

impl Pricing {
    /// Effective-cost early-exit test of the timed arm: once Σ coef·after
    /// clears Σ coef·before + 20·T the effective delta is ≥ 20·T and
    /// Metropolis acceptance is ~e⁻²⁰ — the walks reject such a move
    /// without its RNG draw. (Timing mode only: skipping draws would shift
    /// the wirelength-only RNG stream.) Every term coef·after is ≥ 0, so
    /// the running sum never decreases: the whole sum clears the bar
    /// exactly when some prefix of it does (and with no term at all,
    /// 0 never clears a bar of −0 + 20·T, T ≥ 0).
    fn hopeless(&self, temperature: f64) -> bool {
        self.eff_after > self.eff_before + 20.0 * temperature
    }
}

/// Standard deviation of the HPWL deltas of `samples` proposed — not
/// applied — moves: the spread the adaptive initial temperature is set
/// from (0.0 when no move was proposable).
#[allow(clippy::too_many_arguments)]
fn delta_spread(
    rng: &mut SmallRng,
    model: &NetModel,
    boxes: &[NetBox],
    loc: &Locs,
    pools: &mut Pools,
    movers: &[(usize, usize)],
    movable: Option<[&[bool]; 3]>,
    r: f64,
    samples: usize,
) -> f64 {
    let mut deltas: Vec<f64> = Vec::new();
    for _ in 0..samples {
        let Some(mv) = pools.propose(rng, movers, loc, movable, r) else {
            continue;
        };
        let p = model.price(boxes, loc, mv, None);
        deltas.push(p.after.0 - p.before.0);
    }
    let n = deltas.len() as f64;
    if deltas.is_empty() {
        0.0
    } else {
        let mean = deltas.iter().sum::<f64>() / n;
        (deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n).sqrt()
    }
}

/// Frozen-criticality timing context for the annealers, built only when
/// `timing_weight > 0` (and the netlist validates — otherwise the walk
/// silently degrades to pure wirelength, which `place` historically never
/// errored on). VPR-style: per-net criticalities are read from the
/// incremental [`TimingKernel`] and *frozen* into one effective-cost
/// coefficient per net, `coef = (1−w) + w·t_scale·crit^exp·net_per_hop`,
/// so a move's effective delta is `Σ coef·Δhpwl` — one multiply-add per
/// affected net on top of the wirelength delta the walk already computes.
/// Coefficients are re-frozen once per temperature level ([`Self::refresh`]),
/// and every `retime_interval`-th refresh is backed by a from-scratch
/// recompute that must be bit-identical to the incremental state (the
/// committed drift bound, debug-asserted).
///
/// Nothing reads the kernel between refreshes, and a flush always lands
/// on the unique fixed point of the current wire delays (that is what
/// the drift bound checks), so accepted moves leave the kernel alone: the
/// refresh syncs every active net's delay and one flush re-times all the
/// nets the level's moves changed. Re-timing after each move would reach
/// the same state at the next refresh, bit for bit, only slower.
struct TimingCtx {
    kernel: TimingKernel,
    w: f64,
    crit_exp: f64,
    retime_interval: u32,
    net_base: f64,
    per_hop: f64,
    /// The HPWL each net's kernel wire delay was last set from (−1, which
    /// no HPWL is, before the first refresh).
    synced_hpwl: Vec<f64>,
    /// The criticality each `crit_w` entry was last raised from (−1,
    /// which no criticality is, before the first refresh).
    crit: Vec<f64>,
    /// `criticality^crit_exp` per net (scratch kept for the normalizer).
    crit_w: Vec<f64>,
    /// Per-net effective-cost coefficient (see above); `Σ coef·hpwl` over
    /// active nets is the cost the walk optimizes.
    coef: Vec<f64>,
    /// Normalizer putting the timing term on the wirelength scale:
    /// `Σ hpwl / Σ crit_w·per_hop·hpwl` at the last refresh.
    t_scale: f64,
    refreshes: u32,
}

impl TimingCtx {
    fn build(netlist: &Netlist, opts: &PlaceOptions) -> Option<TimingCtx> {
        let kernel = TimingKernel::new(netlist, &opts.delay).ok()?;
        let n = netlist.num_nets();
        Some(TimingCtx {
            kernel,
            w: opts.timing_weight.clamp(0.0, 1.0),
            crit_exp: opts.crit_exp,
            retime_interval: opts.retime_interval,
            net_base: opts.delay.net_base,
            per_hop: opts.delay.net_per_hop,
            synced_hpwl: vec![-1.0; n],
            crit: vec![-1.0; n],
            crit_w: vec![0.0; n],
            coef: vec![1.0; n],
            t_scale: 0.0,
            refreshes: 0,
        })
    }

    /// Syncs the kernel's wire delays to the current bounding boxes,
    /// flushes the incremental wavefronts (with the periodic full-re-time
    /// drift check), and re-freezes the per-net coefficients.
    ///
    /// Only what changed since the last refresh is recomputed: a net whose
    /// HPWL is unchanged keeps its wire delay (setting the same delay is a
    /// no-op in the kernel), and a net whose criticality is bit-equal
    /// keeps its `criticality^crit_exp`. Both are pure functions of their
    /// input, so the coefficients are bit-identical to a full recompute,
    /// which debug builds check.
    fn refresh(&mut self, active_nets: &[NetId], net_box: &[NetBox]) {
        for &n in active_nets {
            let i = n.index();
            let hpwl = net_box[i].hpwl;
            if hpwl.to_bits() != self.synced_hpwl[i].to_bits() {
                self.synced_hpwl[i] = hpwl;
                self.kernel
                    .set_wire_delay(n, self.net_base + self.per_hop * hpwl);
            }
        }
        self.kernel.flush();
        self.refreshes += 1;
        if self.retime_interval > 0 && self.refreshes.is_multiple_of(self.retime_interval) {
            let matched = self.kernel.full_retime();
            debug_assert!(
                matched,
                "incremental timing drifted from the full recompute"
            );
        }
        let mut wl_anchor = 0.0;
        let mut t_anchor = 0.0;
        for &n in active_nets {
            let i = n.index();
            debug_assert!(
                self.kernel.wire_delay(n).to_bits()
                    == (self.net_base + self.per_hop * net_box[i].hpwl).to_bits(),
                "skipped wire-delay sync left a stale delay"
            );
            let crit = self.kernel.criticality(n);
            if crit.to_bits() != self.crit[i].to_bits() {
                self.crit[i] = crit;
                self.crit_w[i] = crit.powf(self.crit_exp);
            }
            let c = self.crit_w[i];
            debug_assert!(
                c.to_bits() == crit.powf(self.crit_exp).to_bits(),
                "skipped criticality raise left a stale weight"
            );
            wl_anchor += net_box[i].hpwl;
            t_anchor += c * self.per_hop * net_box[i].hpwl;
        }
        self.t_scale = if t_anchor > 0.0 {
            wl_anchor / t_anchor
        } else {
            0.0
        };
        for &n in active_nets {
            let i = n.index();
            self.coef[i] = (1.0 - self.w) + self.w * self.t_scale * self.per_hop * self.crit_w[i];
        }
    }

    /// The frozen effective cost, read from the bounding-box cache.
    fn eff_from_boxes(&self, active_nets: &[NetId], net_box: &[NetBox]) -> f64 {
        active_nets
            .iter()
            .map(|n| self.coef[n.index()] * net_box[n.index()].hpwl)
            .sum()
    }

    /// The frozen effective cost, recomputed from coordinates (used to
    /// re-score the best-seen snapshot after a coefficient refresh).
    fn eff_from_locs(&self, model: &NetModel, loc: &Locs) -> f64 {
        model
            .active
            .iter()
            .map(|&n| self.coef[n.index()] * model.rescan(n, |e| site_of(loc, e)).hpwl)
            .sum()
    }
}

/// The frozen coefficients of a timed arm; `None` for the blind arm.
fn coef(timing: &Option<TimingCtx>) -> Option<&[f64]> {
    timing.as_ref().map(|t| &t.coef[..])
}

/// Deterministic greedy descent over the full single-move neighborhood
/// (every free site and every same-type swap, best improvement per
/// entity), repeated until a full pass finds no improving move. Used
/// by every placement ([`place_walk`]): to turn the seed layout into a
/// baseline local optimum before annealing, and to polish each arm's
/// winner —
/// so the returned placement can never be worse than plain descent,
/// whatever the effort. (The first real run of the suite caught a
/// high-effort anneal freezing at HPWL 17 on a layout where low effort
/// reached 8; this phase is the in-source fix.)
///
/// Moves are ranked lexicographically by (Σ hpwl, Σ hpwl²): the linear
/// term is the cost [`place`] reports, and the quadratic term breaks the
/// abundant integer-HPWL ties toward layouts without individually long
/// nets — a cheap timing proxy, since the critical path is hostage to
/// its longest hops. Total HPWL never increases, so the effort-
/// monotonicity argument above is unaffected.
/// When `movable` is given (ECO mode), only entities whose mask entry is
/// `true` are relocated, and swap partners are restricted to movable
/// siblings — pinned entities keep their exact coordinates.
/// When `coef` is given (the frozen timing coefficients), the linear term
/// is the effective cost `Σ coef·hpwl` instead of raw HPWL, so the
/// descent pulls critical nets in harder than don't-care ones; `None`
/// reproduces the historical wirelength-only descent exactly.
///
/// Each candidate is priced in O(1) per touched net from the exact box
/// cache `boxes` (see [`NetModel::priced`]), folded per net in ascending
/// id order exactly as the historical rescan did; a taken move rebuilds
/// only its own nets' boxes, so `boxes` is exact again on return. A
/// candidate whose linear delta is provably too large to beat the best so
/// far — from per-column and per-row tables of the mover's separable
/// linear cost, and for a swap the partner's largest possible shrink — is
/// skipped unpriced; skipping never changes which candidate wins.
fn quench(
    model: &NetModel,
    sites: &Sites,
    loc: &mut Locs,
    boxes: &mut [NetBox],
    movable: Option<[&[bool]; 3]>,
    coef: Option<&[f64]>,
) {
    // Linear-cost weight per net: the frozen coefficient, or 1.0 — exact,
    // `1.0 · h == h` — in wirelength mode.
    let weight = |n: NetId| coef.map_or(1.0, |c| c[n.index()]);
    // `beats` implements the lexicographic (Δlin, Δsq) order with a small
    // epsilon so f64 noise cannot masquerade as progress (deltas are
    // integer-valued in exact arithmetic).
    let beats = |cand: (f64, f64), incumbent: (f64, f64)| -> bool {
        cand.0 < incumbent.0 - 1e-9 || (cand.0 < incumbent.0 + 1e-9 && cand.1 < incumbent.1 - 1e-9)
    };
    let may_move = |kind: usize, idx: usize| movable.is_none_or(|m| m[kind][idx]);
    let mut pools = Pools::new(sites, loc);
    // One incidence per (entity, net) pair, at the pair's CSR slot: the
    // net's box without the entity's pin, the net's HPWL and its weight.
    // Every candidate is priced from these alone — contiguous, O(1) per
    // touched net — and a taken move refreshes the incidences on the nets
    // it re-boxed.
    #[derive(Clone, Copy)]
    struct Incidence {
        x: (usize, usize),
        y: (usize, usize),
        hpwl: f64,
        w: f64,
    }
    impl Incidence {
        /// The net's HPWL with the entity's pin moved to `to`.
        fn at(&self, to: Site) -> f64 {
            (stretch(self.x, to.0) + stretch(self.y, to.1)) as f64
        }
    }
    let incidence = |boxes: &[NetBox], at: Site, n: NetId| {
        let b = &boxes[n.index()];
        Incidence {
            x: b.x.without(at.0),
            y: b.y.without(at.1),
            hpwl: b.hpwl,
            w: weight(n),
        }
    };
    let mut inc: Vec<Incidence> = Vec::with_capacity(model.nets.len());
    for (kind, locs) in loc.iter().enumerate() {
        for (idx, &at) in locs.iter().enumerate() {
            inc.extend(
                model
                    .nets_of(kind, idx)
                    .iter()
                    .map(|&n| incidence(boxes, at, n)),
            );
        }
    }
    // Per entity, over its incidences: Σ w·hpwl, and the most its nets
    // can shrink when its pin leaves, Σ w·(hpwl − width without the pin).
    // They bound its side of a swap (see below); a taken move recomputes
    // them for every entity whose incidences it refreshed.
    let sums_of = |inc: &[Incidence]| {
        inc.iter().fold((0.0, 0.0), |(lin, shrink), m| {
            let without = (m.x.1 - m.x.0 + m.y.1 - m.y.0) as f64;
            (lin + m.w * m.hpwl, shrink + m.w * (m.hpwl - without))
        })
    };
    let mut sums: Vec<(f64, f64)> = (0..model.start.len() - 1)
        .map(|s| sums_of(&inc[model.start[s]..model.start[s + 1]]))
        .collect();
    let mut refreshed: Vec<usize> = Vec::new();
    // A candidate whose linear delta is provably at least `lb` cannot beat
    // the incumbent when `lb` clears it by 1e-9 (the `beats` epsilon) plus
    // a relative margin. Both the bound and the exact fold sum the same
    // non-negative terms, in different orders, so they differ by at most
    // ~(n + 2)·2⁻⁵³ of the magnitudes summed — orders of magnitude under
    // `1e-9·(1 + scale)`; in wirelength mode both are exact integers.
    let loses = |lb: f64, scale: f64, best: f64| lb - best > 1e-9 * (2.0 + scale + best.abs());
    // Per visit, the mover's linear cost at every column and row: its
    // nets' `Σ w·stretch(x)` and `Σ w·stretch(y)` (the HPWL of a pin is
    // separable), so `col[x] + row[y]` is its linear cost at site (x, y).
    let (mut col, mut row): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for _ in 0..16 {
        let mut improved = false;
        for kind in 0..3usize {
            for idx in 0..loc[kind].len() {
                let mine = model.nets_of(kind, idx);
                if !may_move(kind, idx) || mine.is_empty() {
                    continue;
                }
                let from = loc[kind][idx];
                let mi = &inc[model.slots(kind, idx)];
                let before = mi.iter().fold((0.0, 0.0), |(lin, sq), m| {
                    (lin + m.w * m.hpwl, sq + m.hpwl * m.hpwl)
                });
                // Tables cost a pass per column and row; build them only
                // when there are more candidates than that.
                let (w, h) = (sites.grid[kind].w, sites.grid[kind].h);
                let tabled = pools.free[kind].len() + loc[kind].len() > w + h;
                if tabled {
                    let axis =
                        |len: usize, pick: fn(&Incidence) -> (usize, usize), t: &mut Vec<f64>| {
                            t.clear();
                            t.extend((0..len).map(|c| {
                                mi.iter()
                                    .fold(0.0, |sum, m| sum + m.w * stretch(pick(m), c) as f64)
                            }));
                        };
                    axis(w, |m| m.x, &mut col);
                    axis(h, |m| m.y, &mut row);
                }
                let lin_at = |to: Site| col[to.0] + row[to.1];
                let mut best_delta = (0.0f64, 0.0f64);
                let mut best: Option<(Site, Target)> = None;
                for (f, &to) in pools.free[kind].iter().enumerate() {
                    if tabled {
                        let est = lin_at(to);
                        if loses(est - before.0, est + before.0, best_delta.0) {
                            continue;
                        }
                    }
                    let after = mine.iter().zip(mi).fold((0.0, 0.0), |(lin, sq), (&n, m)| {
                        let h = m.at(to);
                        debug_assert!(
                            h == model
                                .rescan(n, |e| if kind_index(e) == (kind, idx) {
                                    to
                                } else {
                                    site_of(loc, e)
                                })
                                .hpwl,
                            "O(1) HPWL of net {n:?} disagrees with a rescan"
                        );
                        (lin + m.w * h, sq + h * h)
                    });
                    let delta = (after.0 - before.0, after.1 - before.1);
                    if beats(delta, best_delta) {
                        (best_delta, best) = (delta, Some((to, Target::Free(f))));
                    }
                }
                for o in 0..loc[kind].len() {
                    if o == idx || !may_move(kind, o) {
                        continue;
                    }
                    let to = loc[kind][o];
                    // The swap's linear delta is at least the mover's free
                    // move to `to` (on a net of both entities the mover's
                    // term is ≤ 0 and the swap's is 0) less the partner's
                    // largest possible shrink.
                    if tabled {
                        let (lin_o, shrink_o) = sums[model.first[kind] + o];
                        let est = lin_at(to);
                        let scale = est + before.0 + lin_o + shrink_o;
                        if loses(est - before.0 - shrink_o, scale, best_delta.0) {
                            continue;
                        }
                    }
                    let theirs = model.nets_of(kind, o);
                    let ti = &inc[model.slots(kind, o)];
                    let (b0, a0) =
                        merge(mine, theirs).fold(((0.0, 0.0), (0.0, 0.0)), |(b, a), side| {
                            let (n, m, after) = match side {
                                Side::Mine(i) => (mine[i], &mi[i], mi[i].at(to)),
                                Side::Theirs(j) => (theirs[j], &ti[j], ti[j].at(from)),
                                Side::Both(i) => (mine[i], &mi[i], mi[i].hpwl),
                            };
                            debug_assert!(
                                after
                                    == model
                                        .rescan(n, |e| match kind_index(e) {
                                            (k, i) if k == kind && i == idx => to,
                                            (k, i) if k == kind && i == o => from,
                                            (k, i) => loc[k][i],
                                        })
                                        .hpwl,
                                "O(1) HPWL of net {n:?} disagrees with a rescan"
                            );
                            (
                                (b.0 + m.w * m.hpwl, b.1 + m.hpwl * m.hpwl),
                                (a.0 + m.w * after, a.1 + after * after),
                            )
                        });
                    let delta = (a0.0 - b0.0, a0.1 - b0.1);
                    if beats(delta, best_delta) {
                        (best_delta, best) = (delta, Some((to, Target::Swap(o))));
                    }
                }
                let Some((to, target)) = best else {
                    continue;
                };
                let mv = Move {
                    kind,
                    idx,
                    from,
                    to,
                    target,
                };
                mv.apply(loc, &mut pools);
                model.rebox(boxes, loc, &mv);
                refreshed.clear();
                for n in model.touched(&mv) {
                    for &e in &model.pins[n.index()] {
                        let (k, i) = kind_index(e);
                        let nets = model.nets_of(k, i);
                        let slot = model.slots(k, i).start + nets.partition_point(|m| m.0 < n.0);
                        inc[slot] = incidence(boxes, loc[k][i], n);
                        refreshed.push(model.first[k] + i);
                    }
                }
                refreshed.sort_unstable();
                refreshed.dedup();
                for &s in &refreshed {
                    sums[s] = sums_of(&inc[model.start[s]..model.start[s + 1]]);
                }
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Picks the winner of a guarded two-arm placement: the candidate with
/// the smaller STA estimate ([`crate::sta::estimate_critical_ns`] over
/// HPWL-derived wire delays) wins; an exact tie falls to the better
/// `(hpwl, hpwl_sq)` pair, then to the blind arm. Because the blind arm
/// is bit-identical to a `timing_weight = 0` run, the chosen estimate is
/// never worse than wirelength-only placement — deterministically, per
/// design, not just in expectation. `moves` and `budget` report the
/// combined spend of both arms.
fn pick_guarded(
    netlist: &Netlist,
    packed: &PackedDesign,
    opts: &PlaceOptions,
    blind: Placement,
    timed: Placement,
) -> Placement {
    let estimate = |p: &Placement| {
        crate::sta::estimate_critical_ns(netlist, packed, p, &opts.delay).unwrap_or(f64::INFINITY)
    };
    let (blind_ns, timed_ns) = (estimate(&blind), estimate(&timed));
    let moves = blind.moves + timed.moves;
    let exhausted = blind.budget.is_exhausted() || timed.budget.is_exhausted();
    let timed_wins = timed_ns < blind_ns
        || (timed_ns == blind_ns && (timed.hpwl, timed.hpwl_sq) < (blind.hpwl, blind.hpwl_sq));
    let budget = if exhausted {
        BudgetOutcome::Exhausted { spent: moves }
    } else {
        BudgetOutcome::Completed
    };
    Placement {
        moves,
        budget,
        ..if timed_wins { timed } else { blind }
    }
}

/// The sites of a device.
fn device_sites(device: &Device) -> Sites {
    let list = [device.clb_sites(), device.bram_sites(), device.iob_sites()];
    let grid = std::array::from_fn(|k| Rc::new(SiteGrid::new(&list[k])));
    Sites { list, grid }
}

/// The largest site coordinate on any axis: the anneals' maximum window.
fn site_span(sites: &Sites) -> f64 {
    sites
        .list
        .iter()
        .flatten()
        .map(|&(x, y)| x.max(y))
        .max()
        .unwrap_or(1) as f64
}

/// Entities per kind, `[CLBs, BRAMs, IOBs]`.
fn kind_counts(packed: &PackedDesign) -> [usize; 3] {
    [packed.clbs.len(), packed.brams.len(), packed.iobs.len()]
}

/// Fails when some kind has more entities than the device has sites.
fn check_fit(packed: &PackedDesign, sites: &Sites) -> Result<(), PlaceError> {
    let counts = kind_counts(packed);
    match (0..3).find(|&k| counts[k] > sites[k].len()) {
        Some(k) => Err(PlaceError::DoesNotFit {
            what: KIND_NAMES[k],
            need: counts[k],
            have: sites[k].len(),
        }),
        None => Ok(()),
    }
}

/// One kind's site check, shared by the pin-map validation and
/// [`verify_eco_placement`]: every site taken is a legal site of the kind,
/// and none is taken twice.
struct SiteCheck {
    what: &'static str,
    legal: std::collections::HashSet<Site>,
    used: std::collections::HashSet<Site>,
}

impl SiteCheck {
    fn new(kind: usize, sites: &Sites) -> SiteCheck {
        SiteCheck {
            what: KIND_NAMES[kind],
            legal: sites[kind].iter().copied().collect(),
            used: std::collections::HashSet::new(),
        }
    }

    /// Takes `site` for entity `index` of the kind.
    fn take(&mut self, index: usize, site: Site) -> Result<(), EcoPlaceError> {
        let what = self.what;
        if !self.legal.contains(&site) {
            return Err(EcoPlaceError::IllegalPin { what, index, site });
        }
        if !self.used.insert(site) {
            return Err(EcoPlaceError::DuplicatePin { what, index, site });
        }
        Ok(())
    }
}

/// The constants in which the full anneal of [`place`] and the ECO delta
/// anneal of [`place_incremental`] differ — and nothing else: proposals,
/// pricing, acceptance bookkeeping, best-seen tracking, the per-level
/// re-anchor and timing refresh, restore-best and the closing quench are
/// one walk ([`anneal`]). DESIGN.md §11.7 tabulates the two.
#[derive(Clone, Copy)]
enum Schedule {
    /// [`place`]: acceptance-keyed cooling with effort-driven reheats.
    Full,
    /// [`place_incremental`]: one short fixed-rate cooldown of the delta.
    Eco,
}

impl Schedule {
    /// Mixed into the seed: the two schedules draw unrelated streams.
    fn salt(self) -> u64 {
        match self {
            Schedule::Full => 0x9e37_79b9_7f4a_7c15,
            Schedule::Eco => 0x0ec0_5eed_ba5e_11f7,
        }
    }

    /// Moves the T0 probe prices, for `movers` movable entities.
    fn probe(self, movers: usize) -> usize {
        match self {
            Schedule::Full => (movers * 2).clamp(64, 1024),
            Schedule::Eco => (movers * 4).clamp(32, 256),
        }
    }

    /// T0 when the probe's spread is degenerate (e.g. one movable entity).
    /// The full schedule falls back to the old average-net-cost heuristic
    /// over the seed layout's cost *before* the quench.
    fn fallback_t0(self, seed_cost: f64, nets: usize) -> f64 {
        match self {
            Schedule::Full => (seed_cost / nets.max(1) as f64).max(1.0) * 2.0,
            Schedule::Eco => 1.0,
        }
    }

    /// Moves per temperature level: `(most levels, the 5–15 % acceptance
    /// band)`. The full schedule gives most bands a third of the classic
    /// `effort·N^{4/3}` budget: the adaptive cooling visits ~3× more,
    /// finer-grained, levels over the same temperature span than the old
    /// fixed 0.85 rate did. The plateau-diffusion band keeps the full
    /// budget: rlim has shrunk to 1 there, zero-cost sideways steps drift
    /// across equal-cost shelves into valleys the deterministic quench
    /// cannot see, and the trace shows that is where the final quality is
    /// actually won. Effort beyond 2.0 buys reheat cycles
    /// ([`Self::reheats`]), not longer levels: per-level budgets past
    /// ~2·N^{4/3} adapt the temperature and window so slowly (both update
    /// once per level) that the walk drifts device-wide before it cools.
    /// The ECO schedule spends one fixed budget on every level.
    fn level_moves(self, movers: usize, effort: f64) -> (usize, usize) {
        let n = (movers as f64).powf(4.0 / 3.0);
        match self {
            Schedule::Full => {
                let full = ((n * effort.min(2.0)).ceil() as usize).max(1);
                ((full / 3).max(1), full)
            }
            Schedule::Eco => {
                let each = ((n * effort.max(0.1)).ceil() as usize).max(16);
                (each, each)
            }
        }
    }

    /// The temperature factor after a level accepted `success` of its
    /// moves. Full: acceptance-keyed cooling (VPR) — linger where moves
    /// are being usefully sorted (mid-range acceptance), sprint through
    /// the too-hot (α ≈ 1: a random walk) and the frozen (α ≤ 5 %: rare
    /// unit perturbations) ends the fixed 0.85 rate used to spend moves
    /// on.
    fn cooling(self, success: f64) -> f64 {
        match self {
            Schedule::Full if success > 0.96 => 0.5,
            Schedule::Full if success > 0.8 => 0.9,
            Schedule::Full if success > 0.15 => 0.95,
            Schedule::Full if success > 0.05 => 0.8,
            Schedule::Full => 0.5,
            Schedule::Eco if success > 0.8 => 0.7,
            Schedule::Eco => 0.85,
        }
    }

    /// The cost the exit temperature is read from. Full: the *current*
    /// cost, every level (VPR) — a walk that finds a much better layout
    /// also earns an earlier exit. ECO: the cost at the walk's start.
    fn exit_cost(self, start: f64, current: f64) -> f64 {
        match self {
            Schedule::Full => current,
            Schedule::Eco => start,
        }
    }

    /// Whether the timed arm of a guarded pair refines the blind arm's
    /// polished layout ([`place_walk`]). Full: yes — the timing quench,
    /// then one reheat cycle of the walk, with no further reheats whatever
    /// the effort (see [`anneal`]). ECO: no — the timed arm runs from the
    /// shared start, as the blind arm does.
    fn refines(self) -> bool {
        match self {
            Schedule::Full => true,
            Schedule::Eco => false,
        }
    }

    /// Reheat cycles after the first cooldown (see [`anneal`]): for the
    /// full schedule one up to effort 2.0, and effort beyond that buys
    /// more.
    fn reheats(self, effort: f64) -> u32 {
        match self {
            Schedule::Full => {
                let per_cycle = effort.min(2.0);
                (effort / per_cycle.max(f64::MIN_POSITIVE)).round() as u32
            }
            Schedule::Eco => 0,
        }
    }

    /// Whether a move of near-zero effective delta (|Δeff| < 1e-9) is
    /// accepted. Full: zero-linear-cost moves are plateau diffusion, biased
    /// by the quadratic tie-breaker the quench optimizes, so shelf drift
    /// trades equal-HPWL configurations toward ones without individually
    /// long nets (better Σhpwl² for free, and more descent openings for
    /// the closing quench); strictly sq-worsening sideways steps face the
    /// Metropolis test, scaled down so the quadratic term stays a
    /// tie-breaker rather than a second objective. ECO: always.
    fn sideways(self, rng: &mut SmallRng, delta_sq: f64, temperature: f64) -> bool {
        match self {
            Schedule::Full => {
                delta_sq < 1e-9 || rng.random_bool((-delta_sq / (8.0 * temperature)).exp().min(1.0))
            }
            Schedule::Eco => true,
        }
    }
}

/// The state an anneal starts from: the seed layout quenched, the pools
/// built, T0 sampled. [`place_walk`] computes it once. The blind arm runs
/// from a clone, RNG stream included, exactly as if it had computed the
/// prefix itself; so does the timed arm of a guarded
/// [`place_incremental`]. The timed arm of a guarded [`place`] keeps the
/// RNG stream and T0 but takes the blind arm's polished layout, with its
/// boxes and pools, as the layout to refine.
#[derive(Clone)]
struct Walk {
    rng: SmallRng,
    loc: Locs,
    /// Per-net bounding-box cache, exact for `loc`.
    net_box: Vec<NetBox>,
    pools: Pools,
    t0: f64,
}

/// What an anneal reads but never changes.
struct Problem<'a> {
    model: &'a NetModel,
    sites: &'a Sites,
    movers: &'a [(usize, usize)],
    /// Which entities may move; `None` when all may.
    movable: Option<[&'a [bool]; 3]>,
    schedule: Schedule,
    opts: &'a PlaceOptions,
    /// The window an anneal opens with, and its maximum.
    w0: f64,
    span: f64,
}

/// Places a packed design on a device.
///
/// With the timing term enabled (`timing_weight > 0`) this is a *guarded
/// pair*: the wirelength-only anneal (bit-identical to a `timing_weight
/// = 0` run), then a criticality-weighted refinement of its polished
/// layout — the timing quench, one gentle reheat cycle of the same walk
/// with no further reheats whatever the effort, and the closing quench —
/// and `pick_guarded` keeps whichever ends with the better STA
/// estimate. The refinement costs a fraction of a second anneal. The
/// guard is what lets `scripts/verify.sh` require the placer's fmax
/// estimate to be no worse than wirelength-only placement on every paper
/// benchmark, not merely in geomean; [`Placement::moves`] then reports
/// the combined spend of both arms (so the effective move budget is up to
/// `2 · max_moves`).
///
/// # Errors
///
/// Fails with [`PlaceError::DoesNotFit`] if any resource is exhausted.
pub fn place(
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    opts: PlaceOptions,
) -> Result<Placement, PlaceError> {
    let sites = device_sites(&device);
    check_fit(packed, &sites)?;
    let (placement, _) = place_walk(netlist, packed, device, &sites, &opts, None, |_| Ok(()))?;
    Ok(placement)
}

/// The placer behind [`place`] (`pins` is `None`: every entity moves, on
/// the [`Schedule::Full`] schedule) and [`place_incremental`] (a pin map
/// the caller validated: only unpinned entities move, on
/// [`Schedule::Eco`]). Seeds the layout, computes the shared start
/// ([`Walk`]), runs the blind arm — and with the timing term on the timed
/// arm, the guard ([`pick_guarded`]) choosing — self-checking every arm
/// with `check`. The timed arm refines the blind arm's layout where
/// [`Schedule::refines`] says so (one reheat cycle, never more, whatever
/// the effort), and otherwise runs from the shared start. Returns the
/// placement and Σ HPWL over the nets touching a movable entity: the
/// wirelength the walk decided.
fn place_walk<E>(
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    sites: &Sites,
    opts: &PlaceOptions,
    pins: Option<&PinnedEntities>,
    check: impl Fn(&Placement) -> Result<(), E>,
) -> Result<(Placement, f64), E> {
    let counts = kind_counts(packed);
    let pin_lists = pins.map(PinnedEntities::kinds);
    let pin = |k: usize, i: usize| pin_lists.and_then(|p| p[k][i]);
    // Seed layout: pinned entities at their pins, the rest on the first
    // free sites in site order — with no pins, every entity on the first
    // sites. Capacity and the pins are checked, so every unpinned entity
    // finds a free site.
    let mut loc: Locs = std::array::from_fn(|k| {
        let pinned: std::collections::HashSet<Site> =
            (0..counts[k]).filter_map(|i| pin(k, i)).collect();
        let mut free = sites[k].iter().copied().filter(|s| !pinned.contains(s));
        (0..counts[k])
            .filter_map(|i| pin(k, i).or_else(|| free.next()))
            .collect()
    });
    let mask: Option<[Vec<bool>; 3]> =
        pin_lists.map(|p| p.map(|kind| kind.iter().map(Option::is_none).collect()));
    let movable: Option<[&[bool]; 3]> = mask.as_ref().map(|m| m.each_ref().map(Vec::as_slice));
    let may_move = |k: usize, i: usize| movable.is_none_or(|m| m[k][i]);
    // Movable entities, flattened for uniform random picks.
    let movers: Vec<(usize, usize)> = (0..3)
        .flat_map(|k| {
            (0..counts[k])
                .filter(move |&i| may_move(k, i))
                .map(move |i| (k, i))
        })
        .collect();
    let model = NetModel::new(netlist, packed);
    let schedule = if pins.is_some() {
        Schedule::Eco
    } else {
        Schedule::Full
    };
    let finish = |loc: Locs, moves: u64, budget: BudgetOutcome| {
        let (hpwl, hpwl_sq) = model.cost(&loc);
        let [clb_loc, bram_loc, iob_loc] = loc;
        let placement = Placement {
            device,
            clb_loc,
            bram_loc,
            iob_loc,
            hpwl,
            hpwl_sq,
            moves,
            budget,
        };
        check(&placement)?;
        Ok(placement)
    };

    let placement = if movers.is_empty() || model.active.is_empty() {
        finish(loc, 0, BudgetOutcome::Completed)?
    } else {
        let seed_cost = model.cost(&loc).0;
        // Per-net bounding-box cache: exact for the current layout at
        // every point below. The quench and the walk price moves from it;
        // taken moves update the boxes of their own nets.
        let mut net_box = model.boxes(&loc);

        // Deterministic descent baseline: quench the seed layout into a
        // local optimum. The anneal explores FROM this quenched layout —
        // the fixed-T0 schedule this replaces had to start from the raw
        // seed (its hand-picked T0 was calibrated against the seed's
        // average net cost; starting it quenched left the walk too cold
        // to escape the baseline's basin), burning more than half its
        // moves re-descending to costs the quench had already reached.
        // With T0 *measured* at the quenched layout (below), the walk
        // starts exactly warm enough to hop between nearby basins without
        // losing what the descent already won — and best-seen tracking
        // starts at the baseline, so no effort level can return anything
        // worse than plain greedy descent.
        quench(&model, sites, &mut loc, &mut net_box, movable, None);

        // Free-site pools per type (the quench may have moved entities
        // onto any site, so derive the pools from actual occupancy).
        let mut pools = Pools::new(sites, &loc);
        let span = site_span(sites);
        // The walk starts from a local optimum, so it opens with a *basin
        // hop* window — a few sites wide — rather than the device-wide
        // window a melt would use (rlim can re-grow if the acceptance
        // rate says the reheat overshot).
        let w0 = (span / 4.0).clamp(2.0, span);
        let mut rng = SmallRng::seed_from_u64(opts.seed ^ schedule.salt());
        // Adaptive initial temperature (VPR, after Betz & Rose): probe the
        // move distribution by evaluating — not applying — a batch of
        // random moves from the quenched layout *within the starting
        // window*, and set T0 to a third of the sampled deltas' stddev: a
        // typical uphill step is accepted with modest odds — a reheat,
        // not a melt. The textbook 20σ (99% acceptance) re-randomizes the
        // quenched layout into a random walk whose whole descent
        // best-seen tracking then ignores, and even 1σ was measured to
        // climb hundreds of cost units before cooling caught up.
        let samples = schedule.probe(movers.len());
        let sd = delta_spread(
            &mut rng, &model, &net_box, &loc, &mut pools, &movers, movable, w0, samples,
        );
        let t0 = if sd > 0.0 {
            sd / 3.0
        } else {
            schedule.fallback_t0(seed_cost, model.active.len())
        };
        let walk = Walk {
            rng,
            loc,
            net_box,
            pools,
            t0,
        };
        let problem = Problem {
            model: &model,
            sites,
            movers: &movers,
            movable,
            schedule,
            opts,
            w0,
            span,
        };
        let arm = |walk: Walk, timing: Option<TimingCtx>, refine: bool| {
            let (loc, moves, budget) = anneal(&problem, walk, timing, refine);
            finish(loc, moves, budget)
        };
        // Timing-driven mode: the timed arm anneals against one
        // incremental STA kernel (built here, refreshed per level) —
        // from the shared start (ECO), or refining the blind arm's
        // polished layout (full). `timing_weight = 0` skips all of it and
        // runs the blind arm alone.
        if opts.timing_weight > 0.0 {
            let blind = arm(walk.clone(), None, false)?;
            let timing = TimingCtx::build(netlist, opts);
            let timed = if schedule.refines() {
                let loc = [
                    blind.clb_loc.clone(),
                    blind.bram_loc.clone(),
                    blind.iob_loc.clone(),
                ];
                let polished = Walk {
                    net_box: model.boxes(&loc),
                    pools: Pools::new(sites, &loc),
                    loc,
                    ..walk
                };
                arm(polished, timing, true)?
            } else {
                arm(walk, timing, false)?
            };
            pick_guarded(netlist, packed, opts, blind, timed)
        } else {
            arm(walk, None, false)?
        }
    };
    let decided = model
        .active
        .iter()
        .filter(|n| {
            model.pins[n.index()].iter().any(|&e| {
                let (kind, idx) = kind_index(e);
                may_move(kind, idx)
            })
        })
        .map(|&n| model.rescan(n, |e| placement.location(e)).hpwl)
        .sum();
    Ok((placement, decided))
}

/// One arm of a placement: the annealing walk from `walk` and the closing
/// quench, both restricted to the movable entities, wirelength-only
/// without `timing`, criticality-weighted with it. With `refine` the
/// walk's layout is a finished placement: the walk opens with a reheat
/// of it and none follows. Returns the layout, the moves spent and the
/// budget outcome.
fn anneal(
    problem: &Problem,
    walk: Walk,
    mut timing: Option<TimingCtx>,
    refine: bool,
) -> (Locs, u64, BudgetOutcome) {
    let Problem {
        model,
        sites,
        movers,
        movable,
        schedule,
        opts,
        w0,
        span,
    } = *problem;
    let Walk {
        mut rng,
        mut loc,
        mut net_box,
        mut pools,
        t0,
    } = walk;
    let active_nets = &model.active;
    let start_cost = model.cost(&loc).0;

    // Anneal. The walk returns the BEST configuration it visits, not the
    // final one: at nonzero temperature the walk may drift uphill just
    // before freezing, which made high-effort runs occasionally finish
    // worse than low-effort ones (caught by
    // `annealing_improves_over_initial` the first time the suite ran).
    // VPR-style range limiting: moves are confined to a window of radius
    // `rlim` around the entity, and the window shrinks as the acceptance
    // rate drops (target ~44%, Betz & Rose). Without it, low-temperature
    // proposals are device-wide jumps that are almost always rejected, so
    // a high-effort walk freezes wherever the hot phase left it instead of
    // refining locally — `annealing_improves_over_initial` caught exactly
    // that on its first real run (high effort froze at HPWL 17 on a
    // configuration where low effort reached 8).
    let mut cur_cost = start_cost;
    let mut best_cost = start_cost;
    let mut best = loc.clone();
    // Effective (timing-blended) costs the walk actually optimizes; at
    // `timing_weight = 0` they mirror the HPWL costs exactly.
    let mut cur_eff = cur_cost;
    let mut best_eff = best_cost;
    if let Some(t) = timing.as_mut() {
        t.refresh(active_nets, &net_box);
        cur_eff = t.eff_from_boxes(active_nets, &net_box);
        best_eff = cur_eff;
    }
    let (level_moves, plateau_moves) = schedule.level_moves(movers.len(), opts.effort);
    let mut moves_per_t = level_moves;
    let mut temperature = t0;
    // VPR exit test: stop once T falls below a small fraction of the
    // average net cost — past that point even unit-sized uphill steps are
    // essentially never accepted, so further levels are pure descent,
    // which the closing quench performs exactly.
    let exit_t = |cur: f64| {
        (0.005 * schedule.exit_cost(start_cost, cur) / active_nets.len() as f64).max(1e-6)
    };
    let mut rlim = w0;
    let mut moves_spent = 0u64;
    let mut budget = BudgetOutcome::Completed;
    // Iterated reheats (basin hopping): each cycle reheats the best-seen
    // layout and cools back to the exit temperature. A single reheat is a
    // coin flip — it either tunnels to a better basin or drifts somewhere
    // unhelpful and gets discarded by best-seen tracking — so splitting
    // the move budget across independent cycles from the incumbent buys a
    // second (and third) draw at the cost of none. A refinement is one
    // reheat cycle and nothing more.
    let mut reheat = refine;
    let reheats = if refine {
        0
    } else {
        schedule.reheats(opts.effort)
    };
    let mut cycle = 0u32;
    'outer: loop {
        if reheat {
            // Reheat (basin hopping with local search): quench the
            // best-seen layout into its local optimum — the walk's winner
            // is usually still a few greedy steps above its basin floor —
            // then restart the walk from that polished incumbent with the
            // opening window. Each cycle therefore launches from a layout
            // at least as good as the previous cycle's polished result,
            // and best-seen tracking keeps whichever basin floor was
            // deepest.
            loc.clone_from(&best);
            net_box = model.boxes(&loc);
            quench(model, sites, &mut loc, &mut net_box, movable, coef(&timing));
            pools = Pools::new(sites, &loc);
            cur_cost = model.cost(&loc).0;
            best_cost = cur_cost;
            best.clone_from(&loc);
            if let Some(t) = timing.as_mut() {
                t.refresh(active_nets, &net_box);
                cur_eff = t.eff_from_boxes(active_nets, &net_box);
                best_eff = cur_eff;
            }
            // The reheat is gentle — a fraction of the first cycle's t0.
            // Re-melting all the way destroys the incumbent (the walk
            // climbs hundreds of cost units and rarely finds its way back
            // down to a deeper basin); a low reheat does extended plateau
            // exploration around the incumbent, which is where deeper
            // basins actually get found at this problem scale.
            temperature = t0 / 8.0;
            rlim = w0;
            moves_per_t = level_moves;
        }
        while temperature > exit_t(cur_cost) {
            let mut accepted = 0usize;
            for _ in 0..moves_per_t {
                if moves_spent >= opts.max_moves {
                    budget = BudgetOutcome::Exhausted { spent: moves_spent };
                    break 'outer;
                }
                moves_spent += 1;
                // Candidate: swap with a sibling entity, or move to a free
                // site — in either case within `rlim` of the current site.
                let Some(mv) = pools.propose(&mut rng, movers, &loc, movable, rlim) else {
                    continue;
                };
                // Both sides of the delta over the affected nets only, in
                // O(1) per net from the box cache. Every HPWL is an
                // integer-valued f64 and the fold order matches the
                // historical rescan, so the sums are bit-identical; debug
                // builds check the cache and every after-value against
                // rescans of the coordinates.
                let priced = model.price(&net_box, &loc, mv, coef(&timing));
                if timing.is_some() && priced.hopeless(temperature) {
                    continue;
                }
                let (before, after) = (priced.before, priced.after);
                let delta = after.0 - before.0;
                // The Metropolis test runs on the effective (timing-blended)
                // delta; without a timing context it IS the wirelength
                // delta, so the `timing_weight = 0` decision stream is
                // untouched.
                let delta_eff = if timing.is_some() {
                    priced.eff_delta
                } else {
                    delta
                };
                let accept = if delta_eff < -1e-9 {
                    true
                } else if delta_eff < 1e-9 {
                    schedule.sideways(&mut rng, after.1 - before.1, temperature)
                } else {
                    rng.random_bool((-delta_eff / temperature).exp().min(1.0))
                };
                if accept {
                    accepted += 1;
                    cur_cost += delta;
                    mv.apply(&mut loc, &mut pools);
                    model.rebox(&mut net_box, &loc, &mv);
                    if timing.is_some() {
                        cur_eff += delta_eff;
                        if cur_eff < best_eff {
                            best_eff = cur_eff;
                            best_cost = cur_cost;
                            best.clone_from(&loc);
                        }
                    } else if cur_cost < best_cost {
                        best_cost = cur_cost;
                        best.clone_from(&loc);
                    }
                }
            }
            let success = accepted as f64 / moves_per_t.max(1) as f64;
            temperature *= schedule.cooling(success);
            // Shrink (or re-grow) the window toward the 44% acceptance sweet
            // spot: rlim_new = rlim · (0.56 + success_rate), clamped.
            rlim = (rlim * (0.56 + success)).clamp(1.0, span);
            moves_per_t = if success > 0.05 && success <= 0.15 {
                plateau_moves
            } else {
                level_moves
            };
            // Re-anchor the incremental cost per level so f64 drift cannot
            // accumulate across tens of thousands of accepted deltas. The
            // cached boxes carry exact integer-valued HPWLs summed in the
            // same net order as a full recompute, so the anchor is
            // bit-identical to `NetModel::cost` — debug builds check
            // exactly that, equal-cost to the last bit.
            cur_cost = active_nets.iter().map(|n| net_box[n.index()].hpwl).sum();
            debug_assert!(
                cur_cost == model.cost(&loc).0,
                "bounding-box cache re-anchor diverged from recomputed HPWL"
            );
            // Re-freeze the criticality coefficients once per level and
            // re-anchor both effective costs under them (the best-seen
            // snapshot is re-scored so the comparison stays like-for-like).
            if let Some(t) = timing.as_mut() {
                t.refresh(active_nets, &net_box);
                cur_eff = t.eff_from_boxes(active_nets, &net_box);
                best_eff = t.eff_from_locs(model, &best);
            }
        }

        cycle += 1;
        if cycle > reheats {
            break;
        }
        reheat = true;
    }

    // Exact costs decide between the walk's end point and its best-seen
    // snapshot (the incremental tracker is only a heuristic trigger). In
    // timing mode the comparison runs on the effective cost under the
    // final frozen coefficients — the objective the walk was pursuing.
    // Wirelength-only, `best_cost` is already exact: every HPWL is an
    // integer-valued f64 and every sum stays far below 2^53, so each
    // accepted delta and each re-anchor is exact and `best_cost` equals
    // `model.cost(&best).0` bit for bit.
    let restore_best = if let Some(t) = timing.as_ref() {
        t.eff_from_locs(model, &best) < t.eff_from_locs(model, &loc)
    } else {
        best_cost < model.cost(&loc).0
    };
    if restore_best {
        loc = best;
        net_box = model.boxes(&loc);
    }

    // Polish the winner with the same deterministic descent (criticality-
    // weighted in timing mode, under the final frozen coefficients).
    quench(model, sites, &mut loc, &mut net_box, movable, coef(&timing));
    (loc, moves_spent, budget)
}

/// Per-entity pin map for ECO placement: `Some(site)` pins the entity at
/// that exact coordinate, `None` leaves it movable. Vectors are indexed
/// like the corresponding `PackedDesign` entity lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedEntities {
    /// CLB pins (indexed like `PackedDesign::clbs`).
    pub clb: Vec<Option<(usize, usize)>>,
    /// BRAM pins.
    pub bram: Vec<Option<(usize, usize)>>,
    /// IOB pins.
    pub iob: Vec<Option<(usize, usize)>>,
}

impl PinnedEntities {
    /// Pins every entity of `packed` that exists in the base placement at
    /// the base's coordinates, leaving entities beyond the base prefix
    /// movable. This is the ECO contract for the clock-control rewrite:
    /// the gated design's packed entities are the plain design's entities
    /// followed by the appended enable-cone CLBs, so the base prefix pins
    /// verbatim and only the cone is placed.
    #[must_use]
    pub fn pin_base(base: &Placement, packed: &PackedDesign) -> PinnedEntities {
        let prefix = |locs: &[(usize, usize)], n: usize| -> Vec<Option<(usize, usize)>> {
            (0..n)
                .map(|i| if i < locs.len() { Some(locs[i]) } else { None })
                .collect()
        };
        PinnedEntities {
            clb: prefix(&base.clb_loc, packed.clbs.len()),
            bram: prefix(&base.bram_loc, packed.brams.len()),
            iob: prefix(&base.iob_loc, packed.iobs.len()),
        }
    }

    /// The pins per kind, `[CLBs, BRAMs, IOBs]`.
    fn kinds(&self) -> [&[Option<Site>]; 3] {
        [&self.clb, &self.bram, &self.iob]
    }

    /// Number of pinned entities across all kinds.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        self.kinds()
            .into_iter()
            .map(|v| v.iter().filter(|p| p.is_some()).count())
            .sum()
    }

    /// Number of movable (unpinned) entities across all kinds.
    #[must_use]
    pub fn movable_count(&self) -> usize {
        self.clb.len() + self.bram.len() + self.iob.len() - self.pinned_count()
    }
}

/// Errors from incremental (ECO) placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoPlaceError {
    /// The design does not fit the device.
    DoesNotFit {
        /// What overflowed ("CLBs", "BRAMs" or "IOBs").
        what: &'static str,
        /// Required count.
        need: usize,
        /// Available sites.
        have: usize,
    },
    /// The pin map's length disagrees with the packed design.
    PinCount {
        /// Which entity kind disagreed.
        what: &'static str,
        /// Pin-map entries for that kind.
        pins: usize,
        /// Packed entities of that kind.
        entities: usize,
    },
    /// A pinned coordinate is not a legal site of that kind on the device.
    IllegalPin {
        /// Which entity kind.
        what: &'static str,
        /// Entity index within the kind.
        index: usize,
        /// The offending coordinate.
        site: (usize, usize),
    },
    /// Two entities of the same kind are pinned (or placed) on one site.
    DuplicatePin {
        /// Which entity kind.
        what: &'static str,
        /// Entity index of the second occupant.
        index: usize,
        /// The contested site.
        site: (usize, usize),
    },
    /// Post-placement self-check: a pinned entity is not at its pin.
    PinMoved {
        /// Which entity kind.
        what: &'static str,
        /// Entity index within the kind.
        index: usize,
        /// Where the pin says the entity must be.
        expected: (usize, usize),
        /// Where the placement actually put it.
        got: (usize, usize),
    },
}

impl fmt::Display for EcoPlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoPlaceError::DoesNotFit { what, need, have } => {
                write!(f, "eco: design needs {need} {what}, device has {have}")
            }
            EcoPlaceError::PinCount {
                what,
                pins,
                entities,
            } => write!(
                f,
                "eco: pin map has {pins} {what} entries for {entities} entities"
            ),
            EcoPlaceError::IllegalPin { what, index, site } => {
                write!(f, "eco: {what} {index} pinned at illegal site {site:?}")
            }
            EcoPlaceError::DuplicatePin { what, index, site } => {
                write!(f, "eco: {what} {index} duplicates occupied site {site:?}")
            }
            EcoPlaceError::PinMoved {
                what,
                index,
                expected,
                got,
            } => write!(
                f,
                "eco: {what} {index} pinned at {expected:?} but placed at {got:?}"
            ),
        }
    }
}

impl std::error::Error for EcoPlaceError {}

/// Result of an incremental (ECO) placement: the full placement plus the
/// ECO accounting the flow report surfaces.
#[derive(Debug, Clone)]
pub struct EcoPlacement {
    /// The complete placement (pinned entities at their pins, movable
    /// entities wherever the delta anneal left them).
    pub placement: Placement,
    /// How many entities were pinned.
    pub pinned_entities: usize,
    /// How many entities the delta anneal placed.
    pub delta_entities: usize,
    /// Σ HPWL over the nets touching at least one movable entity — the
    /// wirelength actually decided by the ECO pass.
    pub delta_hpwl: f64,
}

/// Checks a placement against a pin map: lengths agree, every pinned
/// entity sits exactly at its pin, every location is a legal site of its
/// kind, and no two entities of a kind share a site.
///
/// # Errors
///
/// The first violated invariant, as a typed [`EcoPlaceError`].
pub fn verify_eco_placement(
    placement: &Placement,
    pins: &PinnedEntities,
) -> Result<(), EcoPlaceError> {
    let locs = [&placement.clb_loc, &placement.bram_loc, &placement.iob_loc];
    let sites = device_sites(&placement.device);
    for (k, pin) in pins.kinds().into_iter().enumerate() {
        let (what, loc) = (KIND_NAMES[k], locs[k]);
        if pin.len() != loc.len() {
            return Err(EcoPlaceError::PinCount {
                what,
                pins: pin.len(),
                entities: loc.len(),
            });
        }
        let mut taken = SiteCheck::new(k, &sites);
        for (index, &site) in loc.iter().enumerate() {
            taken.take(index, site)?;
            if let Some(expected) = pin[index] {
                if site != expected {
                    return Err(EcoPlaceError::PinMoved {
                        what,
                        index,
                        expected,
                        got: site,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Incremental (ECO) placement: pinned entities keep their exact
/// coordinates; only the movable delta is placed, by a short range-limited
/// local anneal bracketed by the same deterministic quench [`place`] uses
/// (restricted to movable entities) — the one walk of [`place`] under a
/// pin mask and the `Schedule::Eco` schedule. Every arm is self-checked
/// with [`verify_eco_placement`] before it leaves this function.
///
/// With the timing term enabled (`timing_weight > 0`) the delta anneal is
/// a *guarded pair*, as in [`place`]: the blind arm (bit-identical to a
/// `timing_weight = 0` run) and the criticality-weighted arm both run
/// against the same pin map — here both from one shared prefix, since
/// each short delta anneal costs little — and
/// `pick_guarded` keeps the arm with the better STA estimate (ties fall
/// to the better wirelength pair, then to the blind arm).
/// The gated design's fmax estimate is therefore never worse than the
/// blind-ECO baseline, per benchmark, by construction —
/// `tests/timing_quality.rs` pins that property over the paper suite.
///
/// # Errors
///
/// Typed [`EcoPlaceError`] on capacity overflow, a malformed pin map, or a
/// failed post-placement self-check.
pub fn place_incremental(
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    opts: PlaceOptions,
    pins_map: &PinnedEntities,
) -> Result<EcoPlacement, EcoPlaceError> {
    let sites = device_sites(&device);
    check_fit(packed, &sites).map_err(|PlaceError::DoesNotFit { what, need, have }| {
        EcoPlaceError::DoesNotFit { what, need, have }
    })?;
    let (counts, pin_lists) = (kind_counts(packed), pins_map.kinds());
    for k in 0..3 {
        if pin_lists[k].len() != counts[k] {
            return Err(EcoPlaceError::PinCount {
                what: KIND_NAMES[k],
                pins: pin_lists[k].len(),
                entities: counts[k],
            });
        }
    }
    for (k, pin) in pin_lists.into_iter().enumerate() {
        let mut taken = SiteCheck::new(k, &sites);
        for (index, p) in pin.iter().enumerate() {
            if let Some(site) = *p {
                taken.take(index, site)?;
            }
        }
    }
    // Criticality-aware ECO: the timed arm prices the enable cone's nets
    // by the same frozen criticalities as the full anneal, so the cone is
    // placed aware of the BRAM setup path it feeds instead of blind on
    // wirelength. The blind arm reproduces the blind ECO byte-for-byte.
    let (placement, delta_hpwl) = place_walk(
        netlist,
        packed,
        device,
        &sites,
        &opts,
        Some(pins_map),
        |p| verify_eco_placement(p, pins_map),
    )?;
    Ok(EcoPlacement {
        placement,
        pinned_entities: pins_map.pinned_count(),
        delta_entities: pins_map.movable_count(),
        delta_hpwl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::netlist::Cell;
    use crate::pack::pack;
    use xrand::proptest_lite::run_cases;

    /// Chain of LUT+FF stages; plenty of connectivity for the annealer.
    fn chain(n_stages: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let input = n.add_net("in");
        n.add_input("in", input);
        let mut prev = input;
        for i in 0..n_stages {
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
        n
    }

    #[test]
    fn placement_is_legal() {
        let n = chain(40);
        let p = pack(&n);
        let device = Device::xc2v250();
        let pl = place(&n, &p, device, PlaceOptions::default()).unwrap();
        // All CLBs on distinct legal CLB sites.
        let sites = device.clb_sites();
        let mut used = std::collections::HashSet::new();
        for loc in &pl.clb_loc {
            assert!(sites.contains(loc), "illegal CLB site {loc:?}");
            assert!(used.insert(*loc), "site reuse at {loc:?}");
        }
        let iob_sites = device.iob_sites();
        let mut used = std::collections::HashSet::new();
        for loc in &pl.iob_loc {
            assert!(iob_sites.contains(loc));
            assert!(used.insert(*loc), "IOB site reuse");
        }
    }

    #[test]
    fn annealing_improves_over_initial() {
        let n = chain(60);
        let p = pack(&n);
        let device = Device::xc2v250();
        // Initial cost = cost of sites in order; effort 0 approximates it by
        // freezing immediately (temperature decays but moves still run);
        // compare low vs high effort instead.
        let lo = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 0.05,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        let hi = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 12.0,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert!(
            hi.hpwl <= lo.hpwl * 1.05,
            "more effort should not be much worse: lo={} hi={}",
            lo.hpwl,
            hi.hpwl
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let n = chain(20);
        let p = pack(&n);
        let device = Device::xc2v250();
        let a = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let b = place(&n, &p, device, PlaceOptions::default()).unwrap();
        assert_eq!(a.clb_loc, b.clb_loc);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn does_not_fit_reported() {
        let n = chain(10);
        let p = pack(&n);
        // XC2V40 has 4 BRAM sites; fabricate an overflow by device choice:
        // 10 stages fit easily, so instead check IOB overflow on a tiny fake
        // device is impossible with FAMILY; check CLB overflow with a big
        // chain on the smallest device.
        let big = chain(2000);
        let pb = pack(&big);
        let err = place(
            &big,
            &pb,
            Device::by_name("XC2V40").unwrap(),
            PlaceOptions::default(),
        );
        assert!(matches!(err, Err(PlaceError::DoesNotFit { .. })));
        // Sanity: the small one fits.
        assert!(place(
            &n,
            &p,
            Device::by_name("XC2V40").unwrap(),
            PlaceOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn empty_design_places() {
        let n = Netlist::new("empty");
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        assert_eq!(pl.hpwl, 0.0);
        assert_eq!(pl.budget, BudgetOutcome::Completed);
    }

    #[test]
    fn move_budget_returns_best_seen_flagged() {
        let n = chain(60);
        let p = pack(&n);
        let device = Device::xc2v250();
        let full = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(full.budget, BudgetOutcome::Completed);
        let capped = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                max_moves: 500,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert!(capped.budget.is_exhausted(), "tiny budget must be flagged");
        // Still a legal, quench-polished placement: never worse than the
        // deterministic descent baseline alone would be (sanity: finite).
        assert!(capped.hpwl.is_finite());
        let sites = device.clb_sites();
        for loc in &capped.clb_loc {
            assert!(sites.contains(loc));
        }
        // Determinism under a budget.
        let again = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                max_moves: 500,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.clb_loc, again.clb_loc);
        assert_eq!(capped.budget, again.budget);
    }

    #[test]
    fn eco_all_pinned_reproduces_the_base_exactly() {
        let n = chain(30);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let pins = PinnedEntities::pin_base(&base, &p);
        assert_eq!(pins.movable_count(), 0);
        let eco = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.placement.clb_loc, base.clb_loc);
        assert_eq!(eco.placement.bram_loc, base.bram_loc);
        assert_eq!(eco.placement.iob_loc, base.iob_loc);
        assert_eq!(eco.delta_entities, 0);
        assert_eq!(eco.delta_hpwl, 0.0);
        assert_eq!(eco.pinned_entities, p.num_entities());
    }

    #[test]
    fn eco_moves_only_the_unpinned_delta() {
        let n = chain(30);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let mut pins = PinnedEntities::pin_base(&base, &p);
        // Release the last two CLBs: the ECO pass may move them, nothing
        // else.
        let k = pins.clb.len();
        assert!(k >= 2, "chain(30) packs into at least two CLBs");
        pins.clb[k - 1] = None;
        pins.clb[k - 2] = None;
        let eco = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.delta_entities, 2);
        assert_eq!(eco.pinned_entities, p.num_entities() - 2);
        for i in 0..k - 2 {
            assert_eq!(
                eco.placement.clb_loc[i], base.clb_loc[i],
                "pinned CLB {i} moved"
            );
        }
        assert_eq!(eco.placement.bram_loc, base.bram_loc);
        assert_eq!(eco.placement.iob_loc, base.iob_loc);
        assert!(eco.delta_hpwl.is_finite());
        assert!(eco.delta_hpwl <= eco.placement.hpwl + 1e-9);
        // Legality of the delta sites, including no collision with pins.
        verify_eco_placement(&eco.placement, &pins).unwrap();
        // Determinism.
        let again = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.placement.clb_loc, again.placement.clb_loc);
        assert_eq!(eco.delta_hpwl, again.delta_hpwl);
    }

    #[test]
    fn eco_rejects_malformed_pin_maps() {
        let n = chain(10);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let good = PinnedEntities::pin_base(&base, &p);

        let mut short = good.clone();
        short.clb.pop();
        let err = place_incremental(&n, &p, device, PlaceOptions::default(), &short);
        assert!(
            matches!(err, Err(EcoPlaceError::PinCount { .. })),
            "{err:?}"
        );

        let mut illegal = good.clone();
        illegal.clb[0] = Some((usize::MAX, usize::MAX));
        let err = place_incremental(&n, &p, device, PlaceOptions::default(), &illegal);
        assert!(
            matches!(err, Err(EcoPlaceError::IllegalPin { .. })),
            "{err:?}"
        );

        let mut dup = good.clone();
        if dup.clb.len() >= 2 {
            dup.clb[1] = dup.clb[0];
            let err = place_incremental(&n, &p, device, PlaceOptions::default(), &dup);
            assert!(
                matches!(err, Err(EcoPlaceError::DuplicatePin { .. })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn eco_self_check_catches_a_moved_pin() {
        let n = chain(10);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let pins = PinnedEntities::pin_base(&base, &p);
        let mut bad = base.clone();
        // Teleport the first CLB to a free legal site.
        let used: std::collections::HashSet<(usize, usize)> = bad.clb_loc.iter().copied().collect();
        let free = device
            .clb_sites()
            .into_iter()
            .find(|s| !used.contains(s))
            .expect("free CLB site");
        bad.clb_loc[0] = free;
        let err = verify_eco_placement(&bad, &pins);
        assert!(
            matches!(err, Err(EcoPlaceError::PinMoved { .. })),
            "{err:?}"
        );
        // And the untouched base passes.
        verify_eco_placement(&base, &pins).unwrap();
    }

    fn entity(kind: usize, idx: usize) -> EntityId {
        match kind {
            0 => EntityId::Clb(idx),
            1 => EntityId::Bram(idx),
            _ => EntityId::Iob(idx),
        }
    }

    /// The sites of `sites` no entity in `locs` occupies, in site order:
    /// the free-pool rule, by hash set.
    fn free_sites(locs: &[Site], sites: &[Site]) -> Vec<Site> {
        let used: std::collections::HashSet<Site> = locs.iter().copied().collect();
        sites
            .iter()
            .copied()
            .filter(|s| !used.contains(s))
            .collect()
    }

    /// The historical quench, kept as the oracle for the edge-box quench:
    /// every candidate rescans every pin of every touched net through an
    /// override locator, and every swap allocates, sorts and dedups the
    /// union of both entities' net lists.
    #[allow(clippy::needless_range_loop)]
    fn quench_reference(
        model: &NetModel,
        sites: &Sites,
        loc: &mut Locs,
        movable: Option<[&[bool]; 3]>,
        coef: Option<&[f64]>,
    ) {
        let mut free: [Vec<Site>; 3] = std::array::from_fn(|k| free_sites(&loc[k], &sites[k]));
        let may_move = |kind: usize, idx: usize| movable.is_none_or(|m| m[kind][idx]);
        for _ in 0..16 {
            let mut improved = false;
            for kind in 0..3usize {
                for idx in 0..loc[kind].len() {
                    if !may_move(kind, idx) {
                        continue;
                    }
                    let my_nets = model.nets_of(kind, idx);
                    if my_nets.is_empty() {
                        continue;
                    }
                    let me = entity(kind, idx);
                    let cur_site = loc[kind][idx];
                    let eval = |a: EntityId,
                                sa: Site,
                                b: Option<(EntityId, Site)>,
                                nets: &[NetId]|
                     -> (f64, f64) {
                        let at = |e: EntityId| {
                            if e == a {
                                return sa;
                            }
                            if let Some((be, bs)) = b {
                                if e == be {
                                    return bs;
                                }
                            }
                            site_of(loc, e)
                        };
                        nets.iter().fold((0.0, 0.0), |(lin, sq), n| {
                            let h = hpwl_of_net(&model.pins[n.index()], &at);
                            let lin_term = match coef {
                                Some(c) => c[n.index()] * h,
                                None => h,
                            };
                            (lin + lin_term, sq + h * h)
                        })
                    };
                    let beats = |cand: (f64, f64), incumbent: (f64, f64)| -> bool {
                        cand.0 < incumbent.0 - 1e-9
                            || (cand.0 < incumbent.0 + 1e-9 && cand.1 < incumbent.1 - 1e-9)
                    };
                    let before = eval(me, cur_site, None, my_nets);
                    let mut best_delta = (0.0f64, 0.0f64);
                    let mut best_move: Option<(Option<usize>, Site)> = None;
                    for (f, &site) in free[kind].iter().enumerate() {
                        let after = eval(me, site, None, my_nets);
                        let delta = (after.0 - before.0, after.1 - before.1);
                        if beats(delta, best_delta) {
                            best_delta = delta;
                            best_move = Some((Some(f), site));
                        }
                    }
                    for o in 0..loc[kind].len() {
                        if o == idx || !may_move(kind, o) {
                            continue;
                        }
                        let other = entity(kind, o);
                        let other_site = loc[kind][o];
                        let mut nets: Vec<NetId> = my_nets.to_vec();
                        nets.extend(model.nets_of(kind, o));
                        nets.sort_unstable_by_key(|n| n.0);
                        nets.dedup();
                        let b0 = eval(me, cur_site, Some((other, other_site)), &nets);
                        let a0 = eval(me, other_site, Some((other, cur_site)), &nets);
                        let delta = (a0.0 - b0.0, a0.1 - b0.1);
                        if beats(delta, best_delta) {
                            best_delta = delta;
                            best_move = Some((None, other_site));
                        }
                    }
                    if let Some((free_pos, site)) = best_move {
                        let locs = &mut loc[kind];
                        if let Some(f) = free_pos {
                            locs[idx] = site;
                            free[kind].swap_remove(f);
                            free[kind].push(cur_site);
                        } else {
                            let o = locs.iter().position(|&s| s == site).expect("swap target");
                            locs[o] = cur_site;
                            locs[idx] = site;
                        }
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// A random placement problem on `device`: entity counts, nets of one
    /// to six distinct pins (one-pin nets stay inactive, as in real
    /// netlists), and a random legal layout.
    fn random_problem(rng: &mut xrand::SmallRng, device: Device) -> (NetModel, Locs) {
        let sites = device_sites(&device);
        let counts = [
            rng.random_range(1..=sites[0].len().min(20)),
            rng.random_range(0..=sites[1].len().min(4)),
            rng.random_range(1..=sites[2].len().min(12)),
        ];
        let all: Vec<EntityId> = (0..3)
            .flat_map(|k| (0..counts[k]).map(move |i| entity(k, i)))
            .collect();
        let n_nets = rng.random_range(1..=2 * all.len());
        let pins: Vec<Vec<EntityId>> = (0..n_nets)
            .map(|_| {
                let want = rng.random_range(1..=all.len().min(6));
                let mut net: Vec<EntityId> = Vec::new();
                while net.len() < want {
                    let e = all[rng.random_range(0..all.len())];
                    if !net.contains(&e) {
                        net.push(e);
                    }
                }
                net
            })
            .collect();
        let loc: Locs = std::array::from_fn(|k| {
            let mut s = sites[k].clone();
            for i in (1..s.len()).rev() {
                s.swap(i, rng.random_range(0..=i));
            }
            s.truncate(counts[k]);
            s
        });
        (NetModel::from_pins(pins, counts), loc)
    }

    /// Frozen-coefficient draws that stress the quench's pruning margin:
    /// either log-uniform over 1e-3..1e3 — non-integer, so the fold order
    /// is observable — or small integers nudged by one ulp either way,
    /// which puts many candidates' linear deltas within the `beats`
    /// epsilon of each other.
    fn random_coefs(rng: &mut SmallRng, n: usize) -> Vec<f64> {
        let nudged = rng.random_bool(0.5);
        (0..n)
            .map(|_| {
                if nudged {
                    let c = f64::from(rng.random_range(1u32..=4));
                    match rng.random_range(0..3u32) {
                        0 => c.next_down(),
                        1 => c.next_up(),
                        _ => c,
                    }
                } else {
                    10f64.powf(rng.random::<f64>() * 6.0 - 3.0)
                }
            })
            .collect()
    }

    #[test]
    fn quench_matches_the_rescan_reference() {
        run_cases(40, |rng| {
            let device = if rng.random_bool(0.5) {
                Device::by_name("XC2V40").expect("family member")
            } else {
                Device::xc2v250()
            };
            let sites = device_sites(&device);
            let (model, start) = random_problem(rng, device);
            let mov: [Vec<bool>; 3] = std::array::from_fn(|k| {
                (0..start[k].len()).map(|_| rng.random_bool(0.6)).collect()
            });
            let movable = rng
                .random_bool(0.5)
                .then(|| -> [&[bool]; 3] { [&mov[0], &mov[1], &mov[2]] });
            let coefs = random_coefs(rng, model.pins.len());
            let coef = rng.random_bool(0.5).then_some(&coefs[..]);

            let mut fast = start.clone();
            let mut boxes = model.boxes(&fast);
            quench(&model, &sites, &mut fast, &mut boxes, movable, coef);
            let mut slow = start.clone();
            quench_reference(&model, &sites, &mut slow, movable, coef);
            assert_eq!(
                fast, slow,
                "edge-box quench diverged from the rescan oracle"
            );
            assert_eq!(boxes, model.boxes(&fast), "quench left a stale box cache");
        });
    }

    /// The scan proposal [`Pools::propose`] replaced, kept as its oracle:
    /// every free site and every sibling tested against the window twice,
    /// once to count the candidates and once to select the k-th.
    fn propose_reference(
        rng: &mut SmallRng,
        movers: &[(usize, usize)],
        loc: &Locs,
        free: &[Vec<Site>; 3],
        movable: Option<[&[bool]; 3]>,
        r: f64,
    ) -> Option<Move> {
        let (kind, idx) = movers[rng.random_range(0..movers.len())];
        let (locs, pool) = (&loc[kind], &free[kind]);
        let from = locs[idx];
        let near = |s: Site| (from.0.abs_diff(s.0).max(from.1.abs_diff(s.1)) as f64) <= r;
        let swappable = |o: usize| o != idx && movable.is_none_or(|m| m[kind][o]) && near(locs[o]);
        let n_free = pool.iter().filter(|&&s| near(s)).count();
        let n_swap = (0..locs.len()).filter(|&o| swappable(o)).count();
        let target = if n_free > 0 && (n_swap == 0 || rng.random_bool(0.5)) {
            let k = rng.random_range(0..n_free);
            Target::Free(pool.iter().enumerate().filter(|&(_, &s)| near(s)).nth(k)?.0)
        } else if n_swap > 0 {
            let k = rng.random_range(0..n_swap);
            Target::Swap((0..locs.len()).filter(|&o| swappable(o)).nth(k)?)
        } else {
            return None;
        };
        let to = match target {
            Target::Free(f) => pool[f],
            Target::Swap(o) => locs[o],
        };
        Some(Move {
            kind,
            idx,
            from,
            to,
            target,
        })
    }

    /// Whether `pools`' site index agrees with `loc` and the free pools:
    /// every entity and every free site recorded on its own site.
    fn index_consistent(pools: &Pools, loc: &Locs) -> bool {
        (0..3).all(|k| {
            let ix = &pools.index[k];
            let at = |s: Site| ix.occ[ix.grid.slot(s)] as usize;
            loc[k].iter().enumerate().all(|(i, &s)| at(s) == i)
                && pools.free[k]
                    .iter()
                    .enumerate()
                    .all(|(f, &s)| at(s) == FREE | f)
                && loc[k].len() + pools.free[k].len() == ix.occ.len()
        })
    }

    #[test]
    fn proposals_match_materialized_candidate_lists() {
        run_cases(40, |rng| {
            let device = match rng.random_range(0..3u32) {
                0 => Device::by_name("XC2V40").expect("family member"),
                1 => Device::xc2v250(),
                _ => Device::by_name("XC2V1000").expect("family member"),
            };
            let (model, mut loc) = random_problem(rng, device);
            let sites = device_sites(&device);
            let mut pools = Pools::new(&sites, &loc);
            let mut free: [Vec<Site>; 3] = std::array::from_fn(|k| free_sites(&loc[k], &sites[k]));
            assert_eq!(
                pools.free, free,
                "grid free pools differ from the hash-set rule"
            );
            let mut boxes = model.boxes(&loc);
            let mov: [Vec<bool>; 3] =
                std::array::from_fn(|k| (0..loc[k].len()).map(|_| rng.random_bool(0.6)).collect());
            // ECO-style: only movable entities move, and only movable
            // siblings swap.
            let masked = rng.random_bool(0.5);
            let movable = masked.then(|| -> [&[bool]; 3] { [&mov[0], &mov[1], &mov[2]] });
            let movers: Vec<(usize, usize)> = (0..3)
                .flat_map(|k| (0..loc[k].len()).map(move |i| (k, i)))
                .filter(|&(k, i)| !masked || mov[k][i])
                .collect();
            if movers.is_empty() {
                return;
            }
            let span = site_span(&sites);
            let seed = rng.random::<u64>();
            let (mut a, mut b) = (
                xrand::SmallRng::seed_from_u64(seed),
                xrand::SmallRng::seed_from_u64(seed),
            );
            for _ in 0..256 {
                // Fractional radii, as the walks' `rlim`; integers too.
                let r = if rng.random_bool(0.3) {
                    f64::from(rng.random_range(1u32..8))
                } else {
                    1.0 + rng.random::<f64>() * (span - 1.0).max(0.0)
                };
                let got = pools.propose(&mut a, &movers, &loc, movable, r);
                let want = propose_reference(&mut b, &movers, &loc, &free, movable, r);
                assert_eq!(
                    got.map(|mv| (mv.kind, mv.idx, mv.from, mv.to, mv.target)),
                    want.map(|mv| (mv.kind, mv.idx, mv.from, mv.to, mv.target)),
                    "radius {r}"
                );
                // Apply about half the moves, keeping the reference's
                // free pools in step by the historical rule, and the box
                // cache by O(1) shifts.
                let Some(mv) = got.filter(|_| rng.random_bool(0.5)) else {
                    continue;
                };
                mv.apply(&mut loc, &mut pools);
                if let Target::Free(f) = mv.target {
                    free[mv.kind].swap_remove(f);
                    free[mv.kind].push(mv.from);
                }
                assert_eq!(pools.free, free, "free pools diverged under {mv:?}");
                assert!(
                    index_consistent(&pools, &loc),
                    "site index out of step after {mv:?}"
                );
                model.rebox(&mut boxes, &loc, &mv);
                assert_eq!(boxes, model.boxes(&loc), "stale box after {mv:?}");
            }
            // Same number of draws consumed on both sides.
            assert_eq!(a.next_u64(), b.next_u64());
        });
    }

    /// (Σ h, Σ h²) of one side of a priced move, folded in net order: the
    /// walks' historical pricing, kept as the oracle for
    /// [`NetModel::price`], with the two folds below.
    fn side_sums(step: &[(NetId, f64, f64)], after: bool) -> (f64, f64) {
        step.iter().fold((0.0, 0.0), |(lin, sq), &(_, b, a)| {
            let h = if after { a } else { b };
            (lin + h, sq + h * h)
        })
    }

    /// The historical early-exit test: short-circuits on the first prefix
    /// of Σ coef·after that clears the bar.
    fn hopeless_reference(step: &[(NetId, f64, f64)], coef: &[f64], temperature: f64) -> bool {
        let before_eff: f64 = step.iter().map(|&(n, b, _)| coef[n.index()] * b).sum();
        let bar = before_eff + 20.0 * temperature;
        let mut eff = 0.0;
        step.iter().any(|&(n, _, a)| {
            eff += coef[n.index()] * a;
            eff > bar
        })
    }

    fn delta_reference(step: &[(NetId, f64, f64)], coef: &[f64]) -> f64 {
        step.iter()
            .map(|&(n, b, a)| coef[n.index()] * (a - b))
            .sum()
    }

    #[test]
    fn one_pass_pricing_matches_the_separate_folds() {
        let bits = |p: (f64, f64)| (p.0.to_bits(), p.1.to_bits());
        run_cases(40, |rng| {
            let device = if rng.random_bool(0.5) {
                Device::by_name("XC2V40").expect("family member")
            } else {
                Device::xc2v250()
            };
            let sites = device_sites(&device);
            let (model, mut loc) = random_problem(rng, device);
            let mut pools = Pools::new(&sites, &loc);
            let mut boxes = model.boxes(&loc);
            let movers: Vec<(usize, usize)> = (0..3)
                .flat_map(|k| (0..loc[k].len()).map(move |i| (k, i)))
                .collect();
            let coefs = random_coefs(rng, model.pins.len());
            let span = site_span(&sites);
            for _ in 0..128 {
                let r = 1.0 + rng.random::<f64>() * (span - 1.0).max(0.0);
                let Some(mv) = pools.propose(rng, &movers, &loc, None, r) else {
                    continue;
                };
                let step: Vec<(NetId, f64, f64)> = model.priced(&boxes, &loc, mv).collect();
                let blind = model.price(&boxes, &loc, mv, None);
                let timed = model.price(&boxes, &loc, mv, Some(&coefs));
                for p in [blind, timed] {
                    assert_eq!(bits(p.before), bits(side_sums(&step, false)));
                    assert_eq!(bits(p.after), bits(side_sums(&step, true)));
                }
                assert_eq!(
                    timed.eff_delta.to_bits(),
                    delta_reference(&step, &coefs).to_bits()
                );
                // Temperatures (never negative, as in the walks) around the
                // one that puts the bar exactly on Σ coef·after, where the
                // two tests could part ways.
                let edge = (timed.eff_after - timed.eff_before) / 20.0;
                for t in [
                    edge.next_down(),
                    edge,
                    edge.next_up(),
                    edge.abs() * 2.0,
                    0.0,
                ] {
                    let t = t.max(0.0);
                    assert_eq!(
                        timed.hopeless(t),
                        hopeless_reference(&step, &coefs, t),
                        "temperature {t} under {mv:?}"
                    );
                }
                if rng.random_bool(0.5) {
                    mv.apply(&mut loc, &mut pools);
                    model.rebox(&mut boxes, &loc, &mv);
                }
            }
        });
    }
}
