//! The analytic start of a large full placement (DESIGN.md §11.9): a
//! quadratic-wirelength solve, spread and legalized, in the manner of
//! HeAP (Gort & Anderson, FPL 2012) and SimPL (Kim, Lee & Markov, ICCAD
//! 2010).
//!
//! CLBs and BRAMs are the unknowns, one coordinate pair each; IOBs sit on
//! ring sites and are fixed during a solve. Every net becomes a
//! bound-to-bound (B2B) star per axis: its lowest and highest pin are
//! joined to each other and to every inner pin, with weight
//! `2 / ((p − 1) · distance)`, so the quadratic cost equals the net's
//! HPWL at the positions the weights were taken from. Each axis is then a
//! sparse symmetric positive-definite system, solved by Jacobi-
//! preconditioned conjugate gradient. A few unanchored solves let the B2B
//! weights settle; then each round legalizes the solution (see
//! [`legalize`]), re-seats every IOB on the free ring site nearest its
//! nets, and solves again with each unknown tied to its legal site by a
//! pseudo-anchor that stiffens round by round. The legal layout with the
//! least wirelength over all rounds is the start. Every count is fixed and
//! every fold runs in index order, so the start is a pure function of the
//! netlist and the device.

use super::{kind_index, site_of, Locs, NetModel, Site, Sites};
use crate::pack::EntityId;

/// Unanchored solves before the first legalization: the B2B weights are
/// re-taken from each solution, and a few passes settle them.
const SETTLE_SOLVES: usize = 4;

/// Legalize-and-re-solve rounds after the settling solves.
const ROUNDS: usize = 6;

/// Conjugate-gradient iterations per axis solve (fewer when the residual
/// vanishes first).
const CG_ITERS: usize = 64;

/// Floor on a B2B or anchor distance, in sites: coincident pins would
/// otherwise get an infinite weight.
const MIN_SPAN: f64 = 0.5;

/// The pseudo-anchor weight of round `r` (from 1) is `ANCHOR_STEP · r`.
const ANCHOR_STEP: f64 = 0.1;

/// Tiny tie of every unknown to where it is: keeps the system positive
/// definite when a group of CLBs connects to no IOB.
const REGULARIZE: f64 = 1e-6;

/// The CLB region's shapes [`legalize`] tries: the solution's own spread,
/// and that spread stretched a quarter wider.
const ASPECTS: [f64; 2] = [1.0, 1.25];

/// The share of the CLB region's sites the CLBs fill: a little slack
/// leaves the quench and the walk free sites inside the layout.
const CLB_DENSITY: f64 = 0.9;

/// The analytic start layout of the entities counted by `counts` on
/// `sites` (capacity checked by the caller): every entity on a distinct
/// site of its kind.
pub(super) fn start(model: &NetModel, sites: &Sites, counts: [usize; 3]) -> Locs {
    let [clbs, brams, iobs] = counts;
    let (w, h) = sites
        .list
        .iter()
        .flatten()
        .fold((1, 1), |(w, h), s| (w.max(s.0 + 1), h.max(s.1 + 1)));
    let mut pos = vec![(w as f64 / 2.0, h as f64 / 2.0); clbs + brams];
    let mut iob_loc = spread_on_ring(&sites[2], iobs);
    // Each IOB's nets' other pins, in net and pin order.
    let iob_peers: Vec<Vec<EntityId>> = (0..iobs)
        .map(|i| {
            let nets = model.nets_of(2, i).iter();
            nets.flat_map(|n| &model.pins[n.index()])
                .copied()
                .filter(|&e| kind_index(e) != (2, i))
                .collect()
        })
        .collect();
    let mut anchors: Option<(Vec<(f64, f64)>, f64)> = None;
    let mut best: (f64, Locs) = (f64::INFINITY, Default::default());
    for solve in 0..SETTLE_SOLVES + ROUNDS {
        for axis in 0..2 {
            let tie = anchors.as_ref().map(|(at, weight)| (&at[..], *weight));
            solve_axis(model, clbs, &iob_loc, &mut pos, tie, axis);
        }
        let Some(round) = (solve + 1).checked_sub(SETTLE_SOLVES) else {
            continue;
        };
        let (cost, layout) = legalize(model, sites, &pos, clbs, &iob_loc, &iob_peers);
        iob_loc.clone_from(&layout[2]);
        let targets = layout[0]
            .iter()
            .chain(&layout[1])
            .map(|&(x, y)| (x as f64, y as f64))
            .collect();
        anchors = Some((targets, ANCHOR_STEP * (round + 1) as f64));
        if cost < best.0 {
            best = (cost, layout);
        }
    }
    best.1
}

/// `n` of the ring sites `ring`, evenly spaced along the perimeter.
fn spread_on_ring(ring: &[Site], n: usize) -> Vec<Site> {
    let (_, x_hi) = bounds(ring, |s| s.0);
    let (y_lo, y_hi) = bounds(ring, |s| s.1);
    // Bottom row left to right, right column upward, top row right to
    // left, left column downward.
    let mut walk = ring.to_vec();
    walk.sort_by_key(|&(x, y)| match (x, y) {
        (x, y) if y == y_lo => (0, x),
        (x, y) if x == x_hi => (1, y),
        (x, y) if y == y_hi => (2, x_hi - x),
        (_, y) => (3, y_hi - y),
    });
    (0..n).map(|i| walk[i * walk.len() / n.max(1)]).collect()
}

/// The least and greatest coordinate `pick` takes over `sites`.
fn bounds(sites: &[Site], pick: fn(&Site) -> usize) -> (usize, usize) {
    let lo = sites.iter().map(pick).min().unwrap_or(0);
    let hi = sites.iter().map(pick).max().unwrap_or(0);
    (lo, hi)
}

/// Re-solves one axis of `pos` (CLBs first, then BRAMs) with the IOBs
/// fixed at `iob_loc`, starting from the current coordinates; `anchors`
/// ties each unknown to a target with the given strength.
fn solve_axis(
    model: &NetModel,
    clbs: usize,
    iob_loc: &[Site],
    pos: &mut [(f64, f64)],
    anchors: Option<(&[(f64, f64)], f64)>,
    axis: usize,
) {
    let coord = |p: (f64, f64)| if axis == 0 { p.0 } else { p.1 };
    let mut x: Vec<f64> = pos.iter().map(|&p| coord(p)).collect();
    let mut diag = vec![REGULARIZE; x.len()];
    let mut rhs: Vec<f64> = x.iter().map(|v| REGULARIZE * v).collect();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    // Each pin of a net: an unknown's index or an IOB's fixed coordinate,
    // and where it sits on the axis.
    let mut pins: Vec<(Result<usize, f64>, f64)> = Vec::new();
    for &net in &model.active {
        pins.clear();
        pins.extend(
            model.pins[net.index()]
                .iter()
                .map(|&e| match kind_index(e) {
                    (2, i) => {
                        let at = coord((iob_loc[i].0 as f64, iob_loc[i].1 as f64));
                        (Err(at), at)
                    }
                    (kind, i) => {
                        let u = if kind == 0 { i } else { clbs + i };
                        (Ok(u), x[u])
                    }
                }),
        );
        let first = |better: fn(f64, f64) -> bool| {
            (1..pins.len()).fold(0, |b, k| if better(pins[k].1, pins[b].1) { k } else { b })
        };
        let lo = first(|a, b| a < b);
        // With every pin on one coordinate both folds pick pin 0.
        let hi = match first(|a, b| a > b) {
            hi if hi == lo => 1,
            hi => hi,
        };
        let scale = 2.0 / (pins.len() - 1) as f64;
        let mut join = |a: usize, b: usize| {
            let ((ua, xa), (ub, xb)) = (pins[a], pins[b]);
            let weight = scale / (xa - xb).abs().max(MIN_SPAN);
            match (ua, ub) {
                (Ok(i), Ok(j)) => {
                    diag[i] += weight;
                    diag[j] += weight;
                    edges.push((i, j, weight));
                }
                (Ok(i), Err(v)) | (Err(v), Ok(i)) => {
                    diag[i] += weight;
                    rhs[i] += weight * v;
                }
                (Err(_), Err(_)) => {}
            }
        };
        join(lo, hi);
        for k in (0..pins.len()).filter(|&k| k != lo && k != hi) {
            join(k, lo);
            join(k, hi);
        }
    }
    if let Some((targets, strength)) = anchors {
        for (i, &t) in targets.iter().enumerate() {
            let t = coord(t);
            let weight = strength / (x[i] - t).abs().max(MIN_SPAN);
            diag[i] += weight;
            rhs[i] += weight * t;
        }
    }
    conjugate_gradient(&diag, &edges, &rhs, &mut x);
    for (p, v) in pos.iter_mut().zip(x) {
        *if axis == 0 { &mut p.0 } else { &mut p.1 } = v;
    }
}

/// Solves `A x = b` in place from the current `x`, where `A` has diagonal
/// `diag` and a symmetric off-diagonal entry `−w` for each edge
/// `(i, j, w)`: Jacobi-preconditioned conjugate gradient, at most
/// [`CG_ITERS`] iterations.
fn conjugate_gradient(diag: &[f64], edges: &[(usize, usize, f64)], b: &[f64], x: &mut [f64]) {
    let times = |v: &[f64], out: &mut Vec<f64>| {
        out.clear();
        out.extend(v.iter().zip(diag).map(|(v, d)| v * d));
        for &(i, j, w) in edges {
            out[i] -= w * v[j];
            out[j] -= w * v[i];
        }
    };
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
    let mut ax = Vec::with_capacity(x.len());
    times(x, &mut ax);
    let mut r: Vec<f64> = b.iter().zip(&ax).map(|(b, a)| b - a).collect();
    let mut z: Vec<f64> = r.iter().zip(diag).map(|(r, d)| r / d).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let tolerance = 1e-12 * dot(b, b).max(1.0);
    let mut ap = Vec::with_capacity(x.len());
    for _ in 0..CG_ITERS {
        if dot(&r, &r) <= tolerance {
            break;
        }
        times(&p, &mut ap);
        let step = rz / dot(&p, &ap);
        for k in 0..x.len() {
            x[k] += step * p[k];
            r[k] -= step * ap[k];
            z[k] = r[k] / diag[k];
        }
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for k in 0..x.len() {
            p[k] = z[k] + beta * p[k];
        }
    }
}

/// The legal layout of the solution `pos` (CLBs, then BRAMs) with the
/// least wirelength, and that wirelength. BRAMs go to the nearest free
/// BRAM sites. The CLBs fill a compact region — the CLB sites nearest a
/// centre, in a metric stretched by one of the [`ASPECTS`] of the
/// solution's spread — by recursive bisection, which keeps their order
/// on each axis. The centre is the solution's median or, on either axis,
/// slid until the region meets that side of the device: a large netlist
/// with few IOBs gathers against the ring its IOBs sit on, which a
/// solution pulled inward by every ring side does not show. Each
/// candidate re-seats the IOBs (see [`reseat_iobs`]) and is costed; ties
/// go to the first candidate.
fn legalize(
    model: &NetModel,
    sites: &Sites,
    pos: &[(f64, f64)],
    clbs: usize,
    iob_loc: &[Site],
    iob_peers: &[Vec<EntityId>],
) -> (f64, Locs) {
    let (median, spread) = blob(&pos[..clbs]);
    let ranks = Ranks::of(&pos[..clbs]);
    let want = ((clbs as f64 / CLB_DENSITY).ceil() as usize).min(sites[0].len());
    let bram_loc = nearest_free(&pos[clbs..], &sites[1]);
    let mut best: (f64, Locs) = (f64::INFINITY, Default::default());
    for aspect in ASPECTS {
        let spread = (spread.0 * aspect, spread.1 / aspect);
        let around = region(&sites[0], want, median, spread);
        // The median, and the centres that put the region's edge on the
        // device's low and high side.
        let slides = |pick: fn(&Site) -> usize, m: f64| {
            let (lo, hi) = bounds(&sites[0], pick);
            let (r_lo, r_hi) = bounds(&around, pick);
            let half = (r_hi - r_lo) as f64 / 2.0;
            [m, lo as f64 + half, hi as f64 - half]
        };
        for cx in slides(|s| s.0, median.0) {
            for cy in slides(|s| s.1, median.1) {
                let mut clb_region = if (cx, cy) == median {
                    around.clone()
                } else {
                    region(&sites[0], want, (cx, cy), spread)
                };
                let mut layout = [
                    bisect_all(&pos[..clbs], &ranks, &mut clb_region),
                    bram_loc.clone(),
                    iob_loc.to_vec(),
                ];
                layout[2] = reseat_iobs(iob_peers, &layout, &sites[2]);
                let cost = model.cost(&layout).0;
                if cost < best.0 {
                    best = (cost, layout);
                }
            }
        }
    }
    best
}

/// The median and the spread (root-mean-square distance from the
/// median, at least one site) of the positions `pos` on each axis.
fn blob(pos: &[(f64, f64)]) -> ((f64, f64), (f64, f64)) {
    let axis = |pick: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = pos.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        let median = v.get(v.len() / 2).copied().unwrap_or(0.0);
        let var = v.iter().map(|x| (x - median) * (x - median)).sum::<f64>();
        (median, (var / v.len().max(1) as f64).sqrt().max(1.0))
    };
    let ((mx, sx), (my, sy)) = (axis(|p| p.0), axis(|p| p.1));
    ((mx, my), (sx, sy))
}

/// The `want` sites of `sites` nearest `centre` in the Chebyshev metric
/// scaled by `spread` (ties to the lower site), in no particular order.
fn region(sites: &[Site], want: usize, centre: (f64, f64), spread: (f64, f64)) -> Vec<Site> {
    let mut keyed: Vec<(f64, Site)> = sites
        .iter()
        .map(|&s| {
            let dx = (s.0 as f64 - centre.0) / spread.0;
            let dy = (s.1 as f64 - centre.1) / spread.1;
            (dx.abs().max(dy.abs()), s)
        })
        .collect();
    if want < keyed.len() {
        keyed.select_nth_unstable_by(want, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }
    keyed.into_iter().take(want).map(|(_, s)| s).collect()
}

/// Each position's rank in `(x, y, index)` order and in `(y, x,
/// index)` order: sorting cells by a rank is sorting them by that key.
struct Ranks {
    x: Vec<u32>,
    y: Vec<u32>,
}

impl Ranks {
    fn of(pos: &[(f64, f64)]) -> Ranks {
        let rank = |key: fn((f64, f64)) -> (f64, f64)| {
            let mut order: Vec<usize> = (0..pos.len()).collect();
            order.sort_by(|&a, &b| {
                let (ka, kb) = (key(pos[a]), key(pos[b]));
                ka.0.total_cmp(&kb.0)
                    .then(ka.1.total_cmp(&kb.1))
                    .then(a.cmp(&b))
            });
            let mut rank = vec![0; pos.len()];
            for (r, &c) in order.iter().enumerate() {
                rank[c] = r as u32;
            }
            rank
        };
        Ranks {
            x: rank(|p| p),
            y: rank(|p| (p.1, p.0)),
        }
    }
}

/// Distinct sites of `region` (at least as many) for the positions
/// `pos`, by [`bisect`].
fn bisect_all(pos: &[(f64, f64)], ranks: &Ranks, region: &mut [Site]) -> Vec<Site> {
    let mut cells: Vec<usize> = (0..pos.len()).collect();
    let mut out = vec![(0, 0); pos.len()];
    bisect(pos, ranks, &mut cells, region, &mut out);
    out
}

/// Assigns the cells `cells` (indices into `pos`) to distinct sites of
/// `region` (at least as many), writing each cell's site into `out`:
/// split the region in two halves along its longer side, send the cells
/// lowest on that axis (`ranks`) to the first half in proportion to its
/// size, and recurse. The result depends on the region's sites, not
/// their order.
fn bisect(
    pos: &[(f64, f64)],
    ranks: &Ranks,
    cells: &mut [usize],
    region: &mut [Site],
    out: &mut [Site],
) {
    if let [cell] = *cells {
        let (x, y) = pos[cell];
        let distance = |s: &Site| (s.0 as f64 - x).abs() + (s.1 as f64 - y).abs();
        let nearest = region
            .iter()
            .min_by(|a, b| distance(a).total_cmp(&distance(b)).then(a.cmp(b)));
        if let Some(&site) = nearest {
            out[cell] = site;
        }
        return;
    }
    if cells.is_empty() {
        return;
    }
    let (x_lo, x_hi) = bounds(region, |s| s.0);
    let (y_lo, y_hi) = bounds(region, |s| s.1);
    if x_hi - x_lo >= y_hi - y_lo {
        region.sort_unstable();
        cells.sort_unstable_by_key(|&c| ranks.x[c]);
    } else {
        region.sort_unstable_by_key(|s| (s.1, s.0));
        cells.sort_unstable_by_key(|&c| ranks.y[c]);
    }
    let (n, s) = (cells.len(), region.len());
    let half = s / 2;
    let take = ((n * half + s / 2) / s).clamp(n.saturating_sub(s - half), half.min(n));
    let (cells_lo, cells_hi) = cells.split_at_mut(take);
    let (sites_lo, sites_hi) = region.split_at_mut(half);
    bisect(pos, ranks, cells_lo, sites_lo, out);
    bisect(pos, ranks, cells_hi, sites_hi, out);
}

/// Distinct sites of `sites` for the positions `pos`, in index order, each
/// the free site nearest its position (ties to the first in site order).
/// `sites` holds at least as many sites as there are positions.
fn nearest_free(pos: &[(f64, f64)], sites: &[Site]) -> Vec<Site> {
    let mut taken = vec![false; sites.len()];
    pos.iter()
        .filter_map(|&(x, y)| {
            let distance = |s: &Site| {
                let (dx, dy) = (s.0 as f64 - x, s.1 as f64 - y);
                dx * dx + dy * dy
            };
            let k = (0..sites.len())
                .filter(|&k| !taken[k])
                .min_by(|&a, &b| distance(&sites[a]).total_cmp(&distance(&sites[b])))?;
            taken[k] = true;
            Some(sites[k])
        })
        .collect()
}

/// Every IOB on the free ring site nearest the centroid of its `peers`
/// (the other pins of its nets) in `loc`, IOBs in index order; an IOB on
/// no costed net aims at its own site.
fn reseat_iobs(peers: &[Vec<EntityId>], loc: &Locs, ring: &[Site]) -> Vec<Site> {
    let targets: Vec<(f64, f64)> = loc[2]
        .iter()
        .zip(peers)
        .map(|(&own, peers)| {
            let (mut sx, mut sy) = (0.0, 0.0);
            for &e in peers {
                let (x, y) = site_of(loc, e);
                (sx, sy) = (sx + x as f64, sy + y as f64);
            }
            if peers.is_empty() {
                (own.0 as f64, own.1 as f64)
            } else {
                let k = peers.len() as f64;
                (sx / k, sy / k)
            }
        })
        .collect();
    nearest_free(&targets, ring)
}
