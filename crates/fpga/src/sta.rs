//! The static-timing kernel: the one STA engine of the flow.
//!
//! The model: launch edges at input pads, FF clk→q, BRAM clk→out and
//! constants (at 0); LUT propagation (worst input + LUT delay); capture
//! endpoints at FF d/ce + setup, BRAM addr/en + setup and output pads.
//! Each net adds the wire delay the caller set for it.
//!
//! Two callers drive it. [`crate::timing::analyze`] builds a kernel once,
//! post-route, with every wire delay at `net_base + net_per_hop · routed
//! wirelength`, and reads the critical path from one full re-time. The
//! annealer needs the same quantities *millions of times* while nets are
//! still bounding boxes (`net_base + net_per_hop · hpwl`), and each move
//! disturbs only a handful of nets — so the kernel also keeps per-net
//! arrival and downstream times live under wire-delay edits,
//! NetBox-cache style: a [`TimingKernel::set_wire_delay`] call dirties
//! only the disturbed fan-out (forward) and fan-in (backward) cones, and
//! [`TimingKernel::flush`] re-propagates just those, stopping as soon as a
//! recomputed value is bit-identical to the stored one.
//!
//! The committed invariant: after a `flush`, the incremental state is
//! **bit-identical** to a from-scratch recompute. [`TimingKernel::full_retime`]
//! performs that recompute, reports whether the invariant held, and
//! re-anchors the state — the placer calls it periodically to bound any
//! drift, and asserts the report under `debug_assertions`. Identity holds
//! by construction: both paths evaluate the same pure per-net expressions
//! over the same operands in the same reduction order.

use crate::netlist::{Cell, NetId, Netlist, NetlistError};
use crate::pack::PackedDesign;
use crate::place::Placement;
use crate::schedule::Schedule;
use crate::timing::DelayModel;

/// What launches a net (determines its arrival-time formula).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Launch {
    /// Top-level input pad.
    Input,
    /// FF `q` output.
    FfQ,
    /// BRAM `dout` bit.
    BramDout,
    /// Constant driver (arrival 0, no wire).
    Const,
    /// LUT output; the index points into the kernel's LUT table.
    Lut(u32),
    /// No driver and not an input (arrival 0).
    Undriven,
}

/// A timing sink of a net (contributes to its downstream delay).
#[derive(Debug, Clone, Copy)]
enum Sink {
    /// Fans into a LUT; the index points into the kernel's LUT table.
    Lut(u32),
    /// Capture endpoint with the given setup/pad margin.
    Setup(f64),
}

/// Live arrival/downstream times over a techmapped netlist under
/// caller-controlled per-net wire delays.
///
/// See the [module docs](self) for the model and the incremental-update
/// contract. All nets start with a zero-hop wire delay
/// (`model.net_base`); `criticality`/`slack` read the state as of the
/// last [`flush`](Self::flush).
#[derive(Debug, Clone)]
pub struct TimingKernel {
    model: DelayModel,
    /// Per-net launch kind.
    launch: Vec<Launch>,
    /// Every net in propagation order: ascending `(rank, id)`, where the
    /// rank is 0 for launch/const/undriven nets and `1 + comb_order
    /// position` for LUT-driven nets (unique per net).
    order: Vec<u32>,
    /// Each net's position in `order`.
    pos: Vec<u32>,
    /// Per-net timing sinks.
    sinks: Vec<Vec<Sink>>,
    /// Input nets of each LUT, indexed by the `Launch::Lut`/`Sink::Lut` id.
    lut_inputs: Vec<Vec<NetId>>,
    /// Output net of each LUT.
    lut_output: Vec<NetId>,
    /// Capture endpoints: `(net, setup_or_pad_margin)`.
    endpoints: Vec<(NetId, f64)>,
    /// Caller-set wire delay per net.
    wire: Vec<f64>,
    /// Arrival time at each net's sinks (includes the net's own wire).
    arrival: Vec<f64>,
    /// Longest remaining delay from a net's sinks to any endpoint;
    /// `f64::NEG_INFINITY` for nets with no timing sinks.
    downstream: Vec<f64>,
    /// Worst endpoint arrival (`0.0` floor).
    dmax: f64,
    /// Positions of nets whose arrival must be recomputed, drained in
    /// ascending order.
    dirty_fwd: Wavefront,
    /// Positions of nets whose downstream must be recomputed, drained in
    /// descending order.
    dirty_bwd: Wavefront,
}

/// A set of positions in the kernel's propagation order, as a bitset
/// with exact minimum and maximum extraction: a wavefront drains in the
/// same order an ordered set of `(rank, id)` pairs would, without the
/// tree. Every set bit lies in words `lo..=hi`; `lo > hi` when empty.
#[derive(Debug, Clone)]
struct Wavefront {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Wavefront {
    fn new(n: usize) -> Wavefront {
        Wavefront {
            words: vec![0; n.div_ceil(64)],
            lo: usize::MAX,
            hi: 0,
        }
    }

    fn insert(&mut self, p: u32) {
        let w = p as usize / 64;
        self.words[w] |= 1 << (p % 64);
        self.lo = self.lo.min(w);
        self.hi = self.hi.max(w);
    }

    fn clear(&mut self) {
        self.words.fill(0);
        (self.lo, self.hi) = (usize::MAX, 0);
    }

    /// Removes and returns the smallest position.
    fn pop_min(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let word = &mut self.words[self.lo];
            if *word != 0 {
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.lo * 64 + b);
            }
            self.lo += 1;
        }
        self.clear();
        None
    }

    /// Removes and returns the largest position.
    fn pop_max(&mut self) -> Option<usize> {
        while self.lo <= self.hi {
            let word = &mut self.words[self.hi];
            if *word != 0 {
                let b = 63 - word.leading_zeros() as usize;
                *word &= !(1 << b);
                return Some(self.hi * 64 + b);
            }
            if self.hi == 0 {
                break;
            }
            self.hi -= 1;
        }
        self.clear();
        None
    }
}

impl TimingKernel {
    /// Builds the kernel over a validated netlist. Every net starts at the
    /// zero-hop wire delay `model.net_base`; call
    /// [`set_wire_delay`](Self::set_wire_delay) + [`flush`](Self::flush)
    /// to load real wirelengths.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation (via [`Schedule::build`]).
    pub fn new(netlist: &Netlist, model: &DelayModel) -> Result<Self, NetlistError> {
        Self::with_wire_delays(netlist, model, |_| model.net_base)
    }

    /// Builds the kernel with `wire(net)` as each net's wire delay, timed
    /// by one full re-time.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation (via [`Schedule::build`]).
    pub(crate) fn with_wire_delays(
        netlist: &Netlist,
        model: &DelayModel,
        wire: impl Fn(NetId) -> f64,
    ) -> Result<Self, NetlistError> {
        let schedule = Schedule::build(netlist)?;
        let n = netlist.num_nets();

        let mut launch = vec![Launch::Undriven; n];
        let mut rank = vec![0u32; n];
        let mut sinks: Vec<Vec<Sink>> = vec![Vec::new(); n];
        let mut lut_inputs = Vec::new();
        let mut lut_output = Vec::new();
        let mut endpoints = Vec::new();

        for (_, net) in netlist.inputs() {
            launch[net.index()] = Launch::Input;
        }
        // LUT table in comb_order (the shared levelized traversal); the
        // position fixes each LUT-driven net's unique propagation rank.
        for (pos, id) in schedule.comb_order.iter().enumerate() {
            if let Cell::Lut { inputs, output, .. } = netlist.cell(*id) {
                let li = lut_inputs.len() as u32;
                launch[output.index()] = Launch::Lut(li);
                rank[output.index()] = pos as u32 + 1;
                for i in inputs {
                    sinks[i.index()].push(Sink::Lut(li));
                }
                lut_inputs.push(inputs.clone());
                lut_output.push(*output);
            }
        }
        for cell in netlist.cells() {
            match cell {
                Cell::Ff { d, q, ce, .. } => {
                    launch[q.index()] = Launch::FfQ;
                    endpoints.push((*d, model.ff_setup));
                    sinks[d.index()].push(Sink::Setup(model.ff_setup));
                    if let Some(ce) = ce {
                        endpoints.push((*ce, model.ff_setup));
                        sinks[ce.index()].push(Sink::Setup(model.ff_setup));
                    }
                }
                Cell::Bram { addr, dout, en, .. } => {
                    for d in dout {
                        launch[d.index()] = Launch::BramDout;
                    }
                    for a in addr {
                        endpoints.push((*a, model.bram_setup));
                        sinks[a.index()].push(Sink::Setup(model.bram_setup));
                    }
                    if let Some(en) = en {
                        endpoints.push((*en, model.bram_setup));
                        sinks[en.index()].push(Sink::Setup(model.bram_setup));
                    }
                }
                Cell::Const { output, .. } => {
                    launch[output.index()] = Launch::Const;
                }
                Cell::Lut { .. } => {}
            }
        }
        for (_, net) in netlist.outputs() {
            endpoints.push((*net, model.pad));
            sinks[net.index()].push(Sink::Setup(model.pad));
        }

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (rank[i as usize], i));
        let mut pos = vec![0u32; n];
        for (p, &i) in order.iter().enumerate() {
            pos[i as usize] = p as u32;
        }
        let mut kernel = TimingKernel {
            model: *model,
            launch,
            order,
            pos,
            sinks,
            lut_inputs,
            lut_output,
            endpoints,
            wire: (0..n).map(|i| wire(NetId(i as u32))).collect(),
            arrival: vec![0.0; n],
            downstream: vec![f64::NEG_INFINITY; n],
            dmax: 0.0,
            dirty_fwd: Wavefront::new(n),
            dirty_bwd: Wavefront::new(n),
        };
        kernel.full_retime();
        Ok(kernel)
    }

    /// Number of nets the kernel tracks.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.wire.len()
    }

    /// The current wire delay of `net`.
    #[must_use]
    pub fn wire_delay(&self, net: NetId) -> f64 {
        self.wire[net.index()]
    }

    /// Sets `net`'s wire delay, dirtying exactly the values that depend on
    /// it: the net's own arrival (forward cone) and the downstream of its
    /// driver LUT's inputs (backward cone). Bit-equal writes are no-ops.
    /// Call [`flush`](Self::flush) before reading timing quantities.
    pub fn set_wire_delay(&mut self, net: NetId, delay_ns: f64) {
        let i = net.index();
        if self.wire[i].to_bits() == delay_ns.to_bits() {
            return;
        }
        self.wire[i] = delay_ns;
        self.dirty_fwd.insert(self.pos[i]);
        // `wire[net]` feeds the downstream of every net fanning into the
        // LUT that drives `net` (the Sink::Lut term).
        if let Launch::Lut(li) = self.launch[i] {
            for input in &self.lut_inputs[li as usize] {
                self.dirty_bwd.insert(self.pos[input.index()]);
            }
        }
    }

    /// Re-propagates all pending dirty nets (forward in ascending rank,
    /// backward in descending rank), stopping each wavefront where the
    /// recomputed value is bit-identical to the stored one, then refreshes
    /// the worst-endpoint arrival.
    pub fn flush(&mut self) {
        while let Some(p) = self.dirty_fwd.pop_min() {
            let i = self.order[p] as usize;
            let a = self.arrival_of(i);
            if a.to_bits() != self.arrival[i].to_bits() {
                self.arrival[i] = a;
                for s in &self.sinks[i] {
                    if let Sink::Lut(li) = s {
                        let out = self.lut_output[*li as usize];
                        self.dirty_fwd.insert(self.pos[out.index()]);
                    }
                }
            }
        }
        while let Some(p) = self.dirty_bwd.pop_max() {
            let i = self.order[p] as usize;
            let d = self.downstream_of(i);
            if d.to_bits() != self.downstream[i].to_bits() {
                self.downstream[i] = d;
                if let Launch::Lut(li) = self.launch[i] {
                    for input in &self.lut_inputs[li as usize] {
                        self.dirty_bwd.insert(self.pos[input.index()]);
                    }
                }
            }
        }
        self.dmax = self.scan_dmax();
    }

    /// Recomputes every arrival/downstream from scratch in the fixed
    /// levelized order, adopts the fresh state, and reports whether it was
    /// bit-identical to the incremental state it replaced — the committed
    /// differential invariant (true after any [`flush`](Self::flush);
    /// pending dirty nets make the comparison trivially meaningless, so
    /// flush first when using this as a check).
    pub fn full_retime(&mut self) -> bool {
        let n = self.wire.len();
        let order = std::mem::take(&mut self.order);
        let mut matched = true;
        let prev_arrival = std::mem::replace(&mut self.arrival, vec![0.0; n]);
        for &id in &order {
            let i = id as usize;
            self.arrival[i] = self.arrival_of(i);
            matched &= self.arrival[i].to_bits() == prev_arrival[i].to_bits();
        }
        let prev_downstream = std::mem::replace(&mut self.downstream, vec![f64::NEG_INFINITY; n]);
        for &id in order.iter().rev() {
            let i = id as usize;
            self.downstream[i] = self.downstream_of(i);
            matched &= self.downstream[i].to_bits() == prev_downstream[i].to_bits();
        }
        self.order = order;
        self.dirty_fwd.clear();
        self.dirty_bwd.clear();
        self.dmax = self.scan_dmax();
        matched
    }

    /// Arrival time at `net`'s sinks (includes the net's own wire delay).
    #[must_use]
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net.index()]
    }

    /// Longest remaining delay from `net`'s sinks to any capture endpoint.
    /// `f64::NEG_INFINITY` when the net has no timing sinks.
    #[must_use]
    pub fn downstream(&self, net: NetId) -> f64 {
        self.downstream[net.index()]
    }

    /// Critical path in ns — the worst endpoint arrival, floored at
    /// `f64::MIN_POSITIVE`.
    #[must_use]
    pub fn critical_ns(&self) -> f64 {
        self.dmax.max(f64::MIN_POSITIVE)
    }

    /// Maximum clock frequency in MHz implied by [`critical_ns`](Self::critical_ns).
    #[must_use]
    pub fn fmax_mhz(&self) -> f64 {
        1000.0 / self.critical_ns()
    }

    /// Slack of the worst path through `net` against the current critical
    /// path (`critical_ns − (arrival + downstream)`); `f64::INFINITY` for
    /// nets with no timing sinks. The critical path itself has slack 0.
    #[must_use]
    pub fn slack(&self, net: NetId) -> f64 {
        let i = net.index();
        if self.downstream[i] == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            self.critical_ns() - (self.arrival[i] + self.downstream[i])
        }
    }

    /// VPR-style criticality of `net` in `[0, 1]`: the worst path through
    /// the net as a fraction of the critical path. Nets without timing
    /// sinks score 0. Callers apply their own criticality exponent.
    #[must_use]
    pub fn criticality(&self, net: NetId) -> f64 {
        let i = net.index();
        if self.dmax <= 0.0 {
            return 0.0;
        }
        ((self.arrival[i] + self.downstream[i]) / self.dmax).clamp(0.0, 1.0)
    }

    /// The arrival-time formula — the single source of truth shared by the
    /// incremental wavefront and the full recompute (bit-identity between
    /// them is by construction).
    fn arrival_of(&self, i: usize) -> f64 {
        match self.launch[i] {
            Launch::Input => self.model.pad + self.wire[i],
            Launch::FfQ => self.model.ff_clk_to_q + self.wire[i],
            Launch::BramDout => self.model.bram_clk_to_out + self.wire[i],
            Launch::Const | Launch::Undriven => 0.0,
            Launch::Lut(li) => {
                let mut worst = 0.0f64;
                for input in &self.lut_inputs[li as usize] {
                    worst = worst.max(self.arrival[input.index()]);
                }
                worst + self.model.lut + self.wire[i]
            }
        }
    }

    /// The downstream-delay formula (same single-source-of-truth role as
    /// [`Self::arrival_of`]).
    fn downstream_of(&self, i: usize) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for s in &self.sinks[i] {
            let c = match s {
                Sink::Setup(extra) => *extra,
                Sink::Lut(li) => {
                    let out = self.lut_output[*li as usize].index();
                    self.model.lut + self.wire[out] + self.downstream[out]
                }
            };
            worst = worst.max(c);
        }
        worst
    }

    fn scan_dmax(&self) -> f64 {
        let mut m = 0.0f64;
        for (net, extra) in &self.endpoints {
            m = m.max(self.arrival[net.index()] + extra);
        }
        m
    }
}

/// Estimated critical path (ns) of a placement, before routing: kernel
/// wire delays from each net's placed bounding box
/// (`net_base + net_per_hop · hpwl`, zero-hop for sub-2-pin nets). This is
/// the quantity the timing-driven anneal optimizes, re-derived
/// deterministically from the final placement.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the netlist fails validation.
pub fn estimate_critical_ns(
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: &Placement,
    model: &DelayModel,
) -> Result<f64, NetlistError> {
    let mut kernel = TimingKernel::new(netlist, model)?;
    let pins = crate::place::build_net_pins(netlist, packed);
    let loc = |e| placement.location(e);
    for (i, p) in pins.iter().enumerate() {
        let hpwl = crate::place::hpwl_of_net(p, &loc);
        kernel.set_wire_delay(NetId(i as u32), model.net_base + model.net_per_hop * hpwl);
    }
    kernel.flush();
    Ok(kernel.critical_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BramShape, Device};
    use crate::pack::pack;
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, RouteOptions};
    use crate::timing::analyze;

    /// FF -> chain of `depth` LUTs -> FF, one primary input mixed in.
    fn chain(depth: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let pi = n.add_net("pi");
        n.add_input("pi", pi);
        let q0 = n.add_net("q0");
        let mut prev = q0;
        for i in 0..depth {
            let o = n.add_net(format!("l{i}"));
            let ins = if i == 0 { vec![prev, pi] } else { vec![prev] };
            let truth = if ins.len() == 2 { 0b0110 } else { 0b01 };
            n.add_cell(Cell::Lut {
                inputs: ins,
                output: o,
                truth,
            });
            prev = o;
        }
        n.add_cell(Cell::Ff {
            d: prev,
            q: q0,
            ce: None,
            init: false,
        });
        n.add_output("o", prev);
        n
    }

    /// With wire delays taken from the routed design, incremental edits
    /// must reproduce `analyze`'s full re-time exactly.
    #[test]
    fn kernel_reproduces_analyze_on_routed_wirelengths() {
        for netlist in [chain(1), chain(6), bram_design()] {
            let packed = pack(&netlist);
            let opts = PlaceOptions {
                timing_weight: 0.0,
                ..PlaceOptions::default()
            };
            let pl = place(&netlist, &packed, Device::xc2v250(), opts).unwrap();
            let routed = route(&netlist, &packed, &pl, RouteOptions::default()).unwrap();
            let model = DelayModel::default();
            let report = analyze(&netlist, &routed, &model);

            let mut kernel = TimingKernel::new(&netlist, &model).unwrap();
            for i in 0..netlist.num_nets() {
                let w =
                    model.net_base + model.net_per_hop * routed.wirelength(NetId(i as u32)) as f64;
                kernel.set_wire_delay(NetId(i as u32), w);
            }
            kernel.flush();
            assert_eq!(
                kernel.critical_ns().to_bits(),
                report.critical_path_ns.to_bits(),
                "kernel vs analyze on {}",
                netlist.name
            );
            assert!(kernel.full_retime(), "incremental drifted from full");
        }
    }

    fn bram_design() -> Netlist {
        let mut n = Netlist::new("bram");
        let addr: Vec<NetId> = (0..4).map(|i| n.add_net(format!("a{i}"))).collect();
        let dout: Vec<NetId> = (0..4).map(|i| n.add_net(format!("d{i}"))).collect();
        let en = n.add_net("en");
        let eni = n.add_net("eni");
        n.add_input("eni", eni);
        n.add_cell(Cell::Lut {
            inputs: vec![eni, dout[3]],
            output: en,
            truth: 0b1000,
        });
        n.add_cell(Cell::Bram {
            shape: BramShape {
                addr_bits: 4,
                data_bits: 4,
            },
            addr: addr.clone(),
            dout: dout.clone(),
            en: Some(en),
            init: vec![0b0101; 16],
            output_init: 0,
        });
        for (i, a) in addr.iter().enumerate() {
            n.add_cell(Cell::Lut {
                inputs: vec![dout[i]],
                output: *a,
                truth: 0b01,
            });
        }
        n.add_output("d0", dout[0]);
        n
    }

    #[test]
    fn incremental_updates_match_full_recompute() {
        let n = chain(8);
        let model = DelayModel::default();
        let mut kernel = TimingKernel::new(&n, &model).unwrap();
        let nets = n.num_nets();
        // A deterministic little LCG drives wire edits; after each flush
        // the incremental state must be bit-identical to a full recompute.
        let mut state = 0x1234_5678u64;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let net = NetId((state >> 33) as u32 % nets as u32);
            let hops = (state >> 17) % 40;
            kernel.set_wire_delay(net, model.net_base + model.net_per_hop * hops as f64);
            if step % 3 == 0 {
                kernel.flush();
                let mut fresh = kernel.clone();
                fresh.full_retime();
                assert!(kernel.clone().full_retime(), "drift at step {step}");
                assert_eq!(
                    fresh.critical_ns().to_bits(),
                    kernel.critical_ns().to_bits()
                );
            }
        }
    }

    /// The bitset wavefront drains in exactly the order an ordered set
    /// does: ascending with `pop_min`, descending with `pop_max`, inserts
    /// in between included, duplicates collapsing.
    #[test]
    fn wavefront_drains_like_an_ordered_set() {
        let mut state = 0x9e37_79b9u64;
        let mut next = |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for n in [1usize, 63, 64, 65, 200, 1000] {
            let mut queue = Wavefront::new(n);
            let mut oracle = std::collections::BTreeSet::new();
            for step in 0..4000 {
                if next(5) < 3 {
                    let p = next(n);
                    queue.insert(p as u32);
                    oracle.insert(p);
                } else if step % 2 == 0 {
                    assert_eq!(queue.pop_min(), oracle.pop_first(), "n {n} step {step}");
                } else {
                    assert_eq!(queue.pop_max(), oracle.pop_last(), "n {n} step {step}");
                }
                if next(500) == 0 {
                    queue.clear();
                    oracle.clear();
                }
            }
        }
    }

    #[test]
    fn criticality_is_one_on_the_critical_path_and_bounded() {
        let n = chain(5);
        let model = DelayModel::default();
        let mut kernel = TimingKernel::new(&n, &model).unwrap();
        kernel.flush();
        let mut saw_one = false;
        for i in 0..n.num_nets() {
            let c = kernel.criticality(NetId(i as u32));
            assert!((0.0..=1.0).contains(&c), "criticality out of range: {c}");
            if (c - 1.0).abs() < 1e-15 {
                saw_one = true;
                assert!(kernel.slack(NetId(i as u32)).abs() < 1e-9);
            }
        }
        assert!(saw_one, "some net must be critical");
    }

    #[test]
    fn longer_wire_on_the_critical_path_slows_the_clock() {
        let n = chain(4);
        let model = DelayModel::default();
        let mut kernel = TimingKernel::new(&n, &model).unwrap();
        kernel.flush();
        let before = kernel.critical_ns();
        // Find the critical net and stretch it.
        let crit = (0..n.num_nets())
            .map(|i| NetId(i as u32))
            .find(|&net| kernel.criticality(net) >= 1.0 - 1e-12)
            .unwrap();
        kernel.set_wire_delay(crit, kernel.wire_delay(crit) + 5.0);
        kernel.flush();
        assert!(kernel.critical_ns() > before + 4.9);
        assert!(kernel.full_retime());
    }
}
