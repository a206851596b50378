//! 64-lane bit-parallel netlist evaluation.
//!
//! Each net is represented by one `u64` word whose bit *i* carries the
//! value of that net in lane *i* — 64 independent simulations of the same
//! netlist advance together on every [`BatchSimulator::clock_words`] call.
//! LUTs are evaluated word-wide by mux-reducing their (per-lane) truth
//! leaves with the input words, FFs with a masked select, and BRAM output
//! latches through read packs: BRAMs wired to the same address vector
//! share one address transposition, and their wired data bits are merged
//! side by side into one row image per pack of up to 64 bits, so one load
//! per lane and a single 64×64 transposition yield up to 64 dout lane
//! words.
//! Toggle counts come from `popcount(prev ^ next)` per net, masked to the
//! active lanes; with no active lane the accounting is skipped outright.
//!
//! The evaluation order and sequential-cell inventory come from
//! [`fpga_fabric::schedule::Schedule`]. The kernel is the workspace's one
//! production simulator; it is held bit-exact, lane for lane, to a scalar
//! one-value-per-net reference engine that lives in the test-only
//! `oracle` crate (see the workspace's kernel property suite).
//!
//! Lanes can diverge in two ways beyond their inputs, which is what the
//! batched consumers build on:
//!
//! * per-lane architectural state ([`BatchSimulator::set_seq_words`] /
//!   [`BatchSimulator::seq_words`], whole sequential-net words) — the
//!   exhaustive product-walk verifier loads up to 64 frontier states and
//!   expands them under one clock;
//! * per-lane LUT truth tables ([`BatchSimulator::flip_lane_truth`]) and
//!   BRAM contents ([`BatchSimulator::flip_lane_bram_init`]) — the fault
//!   campaign runs 64 seeded single-fault variants of one design per
//!   batch.
//!
//! Every BRAM is a ROM: no clock changes a memory image, so the
//! sequential-net words are the whole architectural state of a lane.

use fpga_fabric::netlist::{Cell, CellId, NetId, Netlist, NetlistError};
use fpga_fabric::schedule::Schedule;

/// Number of independent simulations carried per net word.
pub const LANES: usize = 64;

/// Per-net switching-activity record.
#[derive(Debug, Clone, Default)]
pub struct Activity {
    /// Toggles observed per net.
    pub toggles: Vec<u64>,
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles in which each BRAM was enabled (indexed like the netlist's
    /// BRAM cells, in cell order). Drives BRAM access power.
    pub bram_active_cycles: Vec<u64>,
    /// Cycles in which each FF had its clock-enable asserted (cell order).
    pub ff_active_cycles: Vec<u64>,
}

impl Activity {
    /// Average toggles per cycle for a net (switching activity).
    #[must_use]
    pub fn of(&self, net: NetId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[net.index()] as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles the `i`-th BRAM was enabled.
    #[must_use]
    pub fn bram_enable_fraction(&self, i: usize) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.bram_active_cycles[i] as f64 / self.cycles as f64
        }
    }
}

/// A combinational cell, pre-compiled for word-wide evaluation.
#[derive(Debug, Clone)]
enum CombOp {
    /// A LUT as a balanced mux tree over its truth leaves. `leaves[m]`
    /// holds, in bit *i*, entry `m` of lane *i*'s truth table — per-lane
    /// truth tables cost nothing beyond this layout.
    Lut {
        inputs: Vec<NetId>,
        output: NetId,
        leaves: Vec<u64>,
    },
    /// A constant driver, broadcast to every lane.
    Const { output: NetId, word: u64 },
}

/// BRAMs wired to one read-address vector. Their read ports share one
/// address transposition per clock, and their data bits are packed side
/// by side into [`ReadPack`]s of at most 64 bits.
#[derive(Debug, Clone)]
struct ReadGroup {
    /// The shared read-address nets, LSB first.
    addr: Vec<NetId>,
    packs: Vec<ReadPack>,
}

/// Up to 64 data bits of one read group, merged into one row image:
/// `image[a]` holds, at bit `offset + i`, data bit `i` of each member's
/// word at address `a`. One load per lane reads every member at once.
#[derive(Debug, Clone)]
struct ReadPack {
    /// Members `(cell, offset, width)`: the BRAM `cell` has `width` wired
    /// data bits at bit `offset` of the row.
    members: Vec<(CellId, usize, usize)>,
    /// The row image: `depth` rows every lane reads, or `LANES * depth`
    /// once a fault gives each lane its own rows.
    image: Vec<u64>,
    /// Distance between two lanes' rows: 0 while the image is shared,
    /// `depth` once it is per-lane (lane `l` reads `image[l * stride + a]`).
    stride: usize,
}

/// Adds BRAM `cell`'s read port (its `width` > 0 wired bits of `init`) to
/// the group of its address nets, appending to the group's last pack
/// while the row has room, and ORs its words into that pack's image.
fn add_read_port(
    groups: &mut Vec<ReadGroup>,
    addr: &[NetId],
    cell: CellId,
    width: usize,
    init: &[u64],
) {
    let g = match groups.iter().position(|g| g.addr == addr) {
        Some(g) => g,
        None => {
            groups.push(ReadGroup {
                addr: addr.to_vec(),
                packs: Vec::new(),
            });
            groups.len() - 1
        }
    };
    let packs = &mut groups[g].packs;
    let used = packs
        .last()
        .and_then(|p| p.members.last())
        .map_or(LANES, |&(_, offset, w)| offset + w);
    let offset = if used + width <= LANES {
        used
    } else {
        packs.push(ReadPack {
            members: Vec::new(),
            image: vec![0; init.len()],
            stride: 0,
        });
        0
    };
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    if let Some(pack) = packs.last_mut() {
        pack.members.push((cell, offset, width));
        for (row, word) in pack.image.iter_mut().zip(init) {
            *row |= (word & mask) << offset;
        }
    }
}

/// A 64-lane bit-parallel simulator over a validated [`Netlist`].
///
/// Every lane starts at the reset state (FF `init` values, BRAM output
/// latches at `output_init`, combinational logic settled). The
/// [`Activity`] record accumulates per-lane-cycle counts over the lanes
/// selected by [`Self::set_active`].
#[derive(Debug, Clone)]
pub struct BatchSimulator<'a> {
    netlist: &'a Netlist,
    sched: Schedule,
    /// Word-compiled combinational cells, in `sched.comb_order` order.
    ops: Vec<CombOp>,
    /// Cell index → index into `ops` (combinational cells only).
    op_of_cell: Vec<Option<usize>>,
    /// The BRAM read ports, grouped by identical read-address nets, with
    /// their memory as one row image per pack.
    read_groups: Vec<ReadGroup>,
    /// One word per net; bit `i` is lane `i`'s value.
    words: Vec<u64>,
    /// Lanes whose activity is accumulated.
    active: u64,
    activity: Activity,
    /// Per-output-port lane words sampled just before the last edge.
    pre_edge_words: Vec<u64>,
    /// Scratch copies of `words` reused across clocks (no per-cycle
    /// allocation).
    scratch_before: Vec<u64>,
    scratch_at_edge: Vec<u64>,
    /// Scratch mux-reduction buffer (max `2^6` leaves).
    scratch_leaves: [u64; 64],
}

impl<'a> BatchSimulator<'a> {
    /// Builds a batch simulator; validates and levelizes the netlist.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from validation.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let sched = Schedule::build(netlist)?;
        let mut ops = Vec::with_capacity(sched.comb_order.len());
        let mut op_of_cell = vec![None; netlist.cells().len()];
        for id in &sched.comb_order {
            let op = match netlist.cell(*id) {
                Cell::Lut {
                    inputs,
                    output,
                    truth,
                } => {
                    let leaves = (0..1usize << inputs.len())
                        .map(|m| if truth >> m & 1 == 1 { u64::MAX } else { 0 })
                        .collect();
                    CombOp::Lut {
                        inputs: inputs.clone(),
                        output: *output,
                        leaves,
                    }
                }
                Cell::Const { output, value } => CombOp::Const {
                    output: *output,
                    word: if *value { u64::MAX } else { 0 },
                },
                // `Schedule::build` puts only combinational cells in
                // `comb_order`; a sequential cell here is a schedule bug.
                _ => unreachable!("comb order contains only combinational cells"),
            };
            op_of_cell[id.index()] = Some(ops.len());
            ops.push(op);
        }
        let mut read_groups: Vec<ReadGroup> = Vec::new();
        for id in &sched.brams {
            if let Cell::Bram {
                init, addr, dout, ..
            } = netlist.cell(*id)
            {
                if !dout.is_empty() {
                    add_read_port(&mut read_groups, addr, *id, dout.len(), init);
                }
            }
        }
        let num_nets = netlist.num_nets();
        let mut sim = BatchSimulator {
            netlist,
            activity: Activity {
                toggles: vec![0; num_nets],
                cycles: 0,
                bram_active_cycles: vec![0; sched.brams.len()],
                ff_active_cycles: vec![0; sched.ffs.len()],
            },
            sched,
            ops,
            op_of_cell,
            read_groups,
            words: vec![0; num_nets],
            active: u64::MAX,
            pre_edge_words: Vec::new(),
            scratch_before: vec![0; num_nets],
            scratch_at_edge: vec![0; num_nets],
            scratch_leaves: [0; 64],
        };
        sim.apply_reset_state();
        sim.settle();
        Ok(sim)
    }

    /// The nets that define the architectural state (FF `q` and BRAM
    /// `dout`, in netlist cell order) — the layout of
    /// [`Self::seq_words`] / [`Self::set_seq_words`].
    #[must_use]
    pub fn seq_nets(&self) -> &[NetId] {
        &self.sched.seq_nets
    }

    /// Selects which lanes accumulate [`Activity`] counts. With `0` no
    /// lane counts and the per-clock accounting is skipped (every masked
    /// count would be zero), which is what the product walks use.
    pub fn set_active(&mut self, mask: u64) {
        self.active = mask;
    }

    fn apply_reset_state(&mut self) {
        for id in &self.sched.ffs {
            if let Cell::Ff { q, init, .. } = self.netlist.cell(*id) {
                self.words[q.index()] = if *init { u64::MAX } else { 0 };
            }
        }
        for id in &self.sched.brams {
            if let Cell::Bram {
                dout, output_init, ..
            } = self.netlist.cell(*id)
            {
                for (k, d) in dout.iter().enumerate() {
                    self.words[d.index()] = if output_init >> k & 1 == 1 {
                        u64::MAX
                    } else {
                        0
                    };
                }
            }
        }
    }

    /// One word-wide pass over the levelized combinational cone.
    fn settle(&mut self) {
        for op in &self.ops {
            match op {
                CombOp::Lut {
                    inputs,
                    output,
                    leaves,
                } => {
                    let mut n = leaves.len();
                    self.scratch_leaves[..n].copy_from_slice(leaves);
                    for net in inputs {
                        let sel = self.words[net.index()];
                        n /= 2;
                        for i in 0..n {
                            let lo = self.scratch_leaves[2 * i];
                            let hi = self.scratch_leaves[2 * i + 1];
                            self.scratch_leaves[i] = lo ^ ((lo ^ hi) & sel);
                        }
                    }
                    self.words[output.index()] = self.scratch_leaves[0];
                }
                CombOp::Const { output, word } => {
                    self.words[output.index()] = *word;
                }
            }
        }
    }

    /// Current lane word of a net (bit `i` = lane `i`).
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn word(&self, net: NetId) -> u64 {
        self.words[net.index()]
    }

    /// Current value of a net in one lane.
    ///
    /// # Panics
    ///
    /// Panics if the net id or lane is out of range.
    #[must_use]
    pub fn lane_value(&self, net: NetId, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        self.words[net.index()] >> lane & 1 == 1
    }

    /// Overrides a single lane's value of a net. Combinational nets are
    /// recomputed at the next settle; use this to seed per-lane sequential
    /// state (e.g. a flipped FF power-on value).
    ///
    /// # Panics
    ///
    /// Panics if the net id or lane is out of range.
    pub fn set_lane_value(&mut self, net: NetId, lane: usize, value: bool) {
        debug_assert!(lane < LANES);
        let bit = 1u64 << lane;
        if value {
            self.words[net.index()] |= bit;
        } else {
            self.words[net.index()] &= !bit;
        }
    }

    /// The lane words of the architectural state, one per
    /// [`Self::seq_nets`] entry, written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from `seq_nets().len()`.
    pub fn seq_words(&self, out: &mut [u64]) {
        assert_eq!(out.len(), self.sched.seq_nets.len(), "state width mismatch");
        for (w, net) in out.iter_mut().zip(&self.sched.seq_nets) {
            *w = self.words[net.index()];
        }
    }

    /// Loads the architectural state of every lane at once: `words[i]` is
    /// the lane word of `seq_nets()[i]`. Combinational nets are left
    /// stale; the next [`Self::clock_words`] re-settles them before
    /// anything samples them, so `set` + `clock` restores and clocks every
    /// lane exactly.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from `seq_nets().len()`.
    pub fn set_seq_words(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.sched.seq_nets.len(),
            "state width mismatch"
        );
        for (w, net) in words.iter().zip(&self.sched.seq_nets) {
            self.words[net.index()] = *w;
        }
    }

    /// Flips one truth-table bit of a LUT cell in a single lane — the
    /// batched form of a `FlipLutTruthBit` fault injection.
    ///
    /// # Errors
    ///
    /// Returns a message when `cell_index` is not a LUT or `bit` is out of
    /// range for its input count.
    pub fn flip_lane_truth(
        &mut self,
        cell_index: usize,
        lane: usize,
        bit: u32,
    ) -> Result<(), String> {
        let Some(op_idx) = self.op_of_cell.get(cell_index).copied().flatten() else {
            return Err(format!("cell {cell_index} is not combinational"));
        };
        match &mut self.ops[op_idx] {
            CombOp::Lut { leaves, .. } => {
                let Some(leaf) = leaves.get_mut(bit as usize) else {
                    return Err(format!("truth bit {bit} out of range"));
                };
                *leaf ^= 1u64 << lane;
                Ok(())
            }
            CombOp::Const { .. } => Err(format!("cell {cell_index} is a constant, not a LUT")),
        }
    }

    /// Flips one bit of one word of a BRAM's memory image in a single lane
    /// — the batched form of a `FlipBramInitBit` fault injection. Only the
    /// BRAM's read pack changes: its shared row image is expanded to
    /// per-lane rows on first use. A flip of a data bit with no wired
    /// output is accepted and changes nothing a read can observe.
    ///
    /// # Errors
    ///
    /// Returns a message when `cell_index` is not a BRAM, `word` is out of
    /// range for its depth or `bit` for its data width.
    pub fn flip_lane_bram_init(
        &mut self,
        cell_index: usize,
        lane: usize,
        word: usize,
        bit: u32,
    ) -> Result<(), String> {
        let Some(Cell::Bram { shape, .. }) = self.netlist.cells().get(cell_index) else {
            return Err(format!("cell {cell_index} is not a BRAM"));
        };
        let depth = shape.depth();
        if word >= depth {
            return Err(format!("word {word} out of range for depth {depth}"));
        }
        if bit as usize >= shape.data_bits {
            return Err(format!(
                "bit {bit} out of range for {} data bits",
                shape.data_bits
            ));
        }
        let cell = CellId(cell_index as u32);
        let port = self
            .read_groups
            .iter_mut()
            .flat_map(|g| &mut g.packs)
            .find_map(|p| {
                let &(_, offset, width) = p.members.iter().find(|m| m.0 == cell)?;
                Some((p, offset, width))
            });
        if let Some((pack, offset, width)) = port {
            if (bit as usize) < width {
                if pack.stride == 0 {
                    pack.image = pack.image.repeat(LANES);
                    pack.stride = depth;
                }
                pack.image[lane * depth + word] ^= 1u64 << (offset + bit as usize);
            }
        }
        Ok(())
    }

    /// One lane's top-level output values, in declaration order.
    #[must_use]
    pub fn lane_outputs(&self, lane: usize) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|(_, n)| self.lane_value(*n, lane))
            .collect()
    }

    /// Lane words of the top-level outputs just before the most recent
    /// clock edge (the sample point for combinational Mealy outputs), in
    /// declaration order. Empty before the first clock.
    #[must_use]
    pub fn pre_edge_words(&self) -> &[u64] {
        &self.pre_edge_words
    }

    /// Advances all 64 lanes one clock cycle. `inputs` holds one lane
    /// word per primary input, in declaration order (bit `i` of word `k`
    /// is lane `i`'s value for input `k`).
    ///
    /// Two-valued, cycle-accurate, glitch-free, in two phases: apply
    /// inputs, settle, count toggles against the pre-input values; sample
    /// FF `d`/`ce` and BRAM `addr`/`en` pins from that at-edge state;
    /// update the sequential outputs; settle again and count toggles
    /// against the at-edge values — the transition count a zero-delay VCD
    /// would contain. Activity is masked to the active lanes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn clock_words(&mut self, inputs: &[u64]) {
        self.clock(inputs, false);
    }

    /// [`Self::clock_words`], with the BRAM read ports served for every
    /// lane or, with `one_lane`, for lane 0 alone (the other lanes' BRAM
    /// latches hold).
    fn clock(&mut self, inputs: &[u64], one_lane: bool) {
        assert_eq!(
            inputs.len(),
            self.netlist.inputs().len(),
            "input width mismatch"
        );
        // Phase A: apply the new primary inputs and settle.
        let netlist = self.netlist;
        let counting = self.active != 0;
        if counting {
            self.scratch_before.copy_from_slice(&self.words);
        }
        for ((_, net), w) in netlist.inputs().iter().zip(inputs) {
            self.words[net.index()] = *w;
        }
        self.settle();
        if counting {
            for (i, old) in self.scratch_before.iter().enumerate() {
                self.activity.toggles[i] +=
                    u64::from(((old ^ self.words[i]) & self.active).count_ones());
            }
        }
        self.scratch_at_edge.copy_from_slice(&self.words);
        self.pre_edge_words.clear();
        self.pre_edge_words
            .extend(netlist.outputs().iter().map(|(_, n)| self.words[n.index()]));

        // Phase B: the rising edge. Everything samples the at-edge
        // snapshot, so update order cannot leak mid-edge values.
        for (k, id) in self.sched.ffs.iter().enumerate() {
            if let Cell::Ff { d, q, ce, .. } = netlist.cell(*id) {
                let en = ce.map_or(u64::MAX, |c| self.scratch_at_edge[c.index()]);
                if counting {
                    self.activity.ff_active_cycles[k] += u64::from((en & self.active).count_ones());
                }
                let dw = self.scratch_at_edge[d.index()];
                let qw = self.scratch_at_edge[q.index()];
                self.words[q.index()] = (qw & !en) | (dw & en);
            }
        }
        // BRAM read ports. Per address group, one transposition turns the
        // address words into per-lane addresses; per pack, one load per
        // lane fetches the members' bits side by side and one transposition
        // turns those rows back into dout lane words, merged under each
        // BRAM's enable (disabled lanes hold their latches). One lane needs
        // neither transposition: its address is bit 0 of the address words
        // and its row's bits are the dout values.
        let lanes = if one_lane { 1 } else { u64::MAX };
        for group in &self.read_groups {
            let mut addrs = [0u64; LANES];
            for (row, net) in addrs.iter_mut().zip(&group.addr) {
                *row = self.scratch_at_edge[net.index()];
            }
            let lane0_addr = if one_lane {
                addrs[..group.addr.len()]
                    .iter()
                    .enumerate()
                    .fold(0, |a, (i, w)| a | ((w & 1) as usize) << i)
            } else {
                transpose64(&mut addrs);
                0
            };
            for pack in &group.packs {
                let mut rows = [0u64; LANES];
                if one_lane {
                    let row = pack.image[lane0_addr];
                    for (j, bits) in rows.iter_mut().enumerate() {
                        *bits = row >> j & 1;
                    }
                } else {
                    for (lane, (row, a)) in rows.iter_mut().zip(&addrs).enumerate() {
                        *row = pack.image[lane * pack.stride + *a as usize];
                    }
                    transpose64(&mut rows);
                }
                for &(id, offset, _) in &pack.members {
                    if let Cell::Bram { dout, en, .. } = netlist.cell(id) {
                        let en_word =
                            lanes & en.map_or(u64::MAX, |e| self.scratch_at_edge[e.index()]);
                        for (d, bits) in dout.iter().zip(&rows[offset..]) {
                            let old = self.words[d.index()];
                            self.words[d.index()] = (old & !en_word) | (bits & en_word);
                        }
                    }
                }
            }
        }
        if counting {
            for (k, id) in self.sched.brams.iter().enumerate() {
                if let Cell::Bram { en, .. } = netlist.cell(*id) {
                    let en_word = en.map_or(u64::MAX, |e| self.scratch_at_edge[e.index()]);
                    self.activity.bram_active_cycles[k] +=
                        u64::from((en_word & self.active).count_ones());
                }
            }
        }
        self.settle();
        if counting {
            for (i, old) in self.scratch_at_edge.iter().enumerate() {
                self.activity.toggles[i] +=
                    u64::from(((old ^ self.words[i]) & self.active).count_ones());
            }
            self.activity.cycles += u64::from(self.active.count_ones());
        }
    }

    /// Runs a sequential stimulus in lane 0 alone (the other lanes idle
    /// with zero inputs and masked-out activity, their BRAM latches
    /// holding): the power flow's single-stream simulation, its
    /// [`Activity`] record computed with word ops and popcounts.
    pub fn run_sequential<'v, I>(&mut self, stimulus: I)
    where
        I: IntoIterator<Item = &'v Vec<bool>>,
    {
        self.active = 1;
        let mut words = Vec::new();
        for vector in stimulus {
            words.clear();
            words.extend(vector.iter().map(|&b| u64::from(b)));
            self.clock(&words, true);
        }
    }

    /// The accumulated switching activity over the active lanes.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The netlist under simulation.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `m[r]` moves to
/// bit `r` of `m[c]`. This is the word-level bridge between lane words
/// (one word per net, one bit per lane) and lane-major rows (one word per
/// lane, one bit per net) — six rounds of block swaps instead of 4096
/// single-bit moves.
pub fn transpose64(m: &mut [u64; LANES]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < LANES {
            for i in k..k + j {
                let t = ((m[i] >> j) ^ m[i + j]) & mask;
                m[i] ^= t << j;
                m[i + j] ^= t;
            }
            k += 2 * j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Transposes per-lane input rows into lane words: `rows[i]` becomes bit
/// `i` of each returned word, one word per input position (`width` words
/// total). Rows must all have `width` entries; at most [`LANES`] rows.
///
/// # Panics
///
/// Panics if `rows.len() > LANES` or any row's width differs.
#[must_use]
pub fn pack_rows(rows: &[Vec<bool>], width: usize) -> Vec<u64> {
    assert!(
        rows.len() <= LANES,
        "{} rows exceed {LANES} lanes",
        rows.len()
    );
    let mut words = vec![0u64; width];
    for (lane, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), width, "row {lane} width mismatch");
        for (k, &v) in row.iter().enumerate() {
            if v {
                words[k] |= 1u64 << lane;
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::device::BramShape;
    use fpga_fabric::netlist::Cell;

    /// 2-bit binary counter with enable (LUT-based).
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
        n.add_cell(Cell::Lut {
            inputs: vec![q0, en],
            output: d0,
            truth: 0b0110,
        });
        let mut t = 0u64;
        for m in 0..8u64 {
            let (q1v, q0v, env) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
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
    fn lanes_advance_independently() {
        // Lane 0 counts every cycle; lane 1 never; lane 2 alternates.
        let n = counter();
        let mut b = BatchSimulator::new(&n).unwrap();
        for cycle in 0..6 {
            let en = 0b001 | (u64::from(cycle % 2 == 0) << 2);
            b.clock_words(&[en]);
        }
        let count = |lane: usize| {
            let o = b.lane_outputs(lane);
            u8::from(o[0]) | u8::from(o[1]) << 1
        };
        assert_eq!(count(0), 6 % 4);
        assert_eq!(count(1), 0);
        assert_eq!(count(2), 3);
    }

    #[test]
    fn transpose64_matches_bitwise_reference() {
        let mut rng = xrand::SmallRng::seed_from_u64(9);
        let mut m = [0u64; LANES];
        for row in &mut m {
            *row = rng.random();
        }
        let mut t = m;
        transpose64(&mut t);
        for (r, row) in m.iter().enumerate() {
            for (c, col) in t.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "bit ({r}, {c})");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, m, "transposition is an involution");
    }

    #[test]
    fn per_lane_truth_fault_diverges_one_lane() {
        let n = counter();
        let mut b = BatchSimulator::new(&n).unwrap();
        // Corrupt lane 3's first LUT (d0 = q0 ^ en): flip entry 0b10
        // (q0=0, en=1) — the entry the first cycle from reset exercises.
        b.flip_lane_truth(0, 3, 0b10).unwrap();
        b.clock_words(&[u64::MAX]);
        // Lane 0 counted to 1; lane 3's corrupted LUT held q0 at 0.
        assert_eq!(b.lane_outputs(0), vec![true, false]);
        assert_eq!(b.lane_outputs(3), vec![false, false]);
        assert!(b.flip_lane_truth(2, 0, 0).is_err(), "FF is not a LUT");
    }

    #[test]
    fn per_lane_bram_fault_diverges_one_lane() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rom");
        let addr: Vec<_> = (0..9).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d0");
        for (i, net) in addr.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d0", d);
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: vec![d],
            en: None,
            init: vec![0; 512],
            output_init: 0,
        });
        let mut b = BatchSimulator::new(&n).unwrap();
        // Lane 5's ROM gets a pre-flipped bit at word 0.
        b.flip_lane_bram_init(0, 5, 0, 0).unwrap();
        b.clock_words(&[0u64; 9]);
        assert!(b.lane_value(d, 5), "lane 5 reads its flipped ROM bit");
        assert!(!b.lane_value(d, 0), "lane 0 unaffected");
        assert!(
            b.flip_lane_bram_init(0, 5, 512, 0).is_err(),
            "word out of range"
        );
    }

    /// A bit beyond the cell's data width is refused, not wrapped into
    /// the word; a bit inside it but with no wired output is accepted
    /// and leaves every read unchanged.
    #[test]
    fn bram_fault_bit_is_checked_against_the_data_width() {
        let shape = BramShape {
            addr_bits: 2,
            data_bits: 3,
        };
        let mut n = Netlist::new("rom");
        let addr: Vec<_> = (0..2).map(|i| n.add_net(format!("a{i}"))).collect();
        let d = n.add_net("d0");
        for (i, net) in addr.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        n.add_output("d0", d);
        n.add_cell(Cell::Bram {
            shape,
            addr,
            dout: vec![d],
            en: None,
            init: vec![0; 4],
            output_init: 0,
        });
        let mut b = BatchSimulator::new(&n).unwrap();
        for bit in [3, 63, 64, 200] {
            assert!(
                b.flip_lane_bram_init(0, 1, 0, bit).is_err(),
                "bit {bit} is beyond 3 data bits"
            );
        }
        b.flip_lane_bram_init(0, 1, 0, 2).unwrap();
        b.clock_words(&[0, 0]);
        assert_eq!(b.word(d), 0, "an unwired data bit reaches no lane");
    }

    /// Forty one-bit 16K-deep BRAMs on one address vector (a series
    /// cascade's shape) build one read group with one pack, held as one
    /// 16 384-row image rather than forty per-BRAM copies, and each
    /// member reads its own bit of that image.
    #[test]
    fn narrow_banks_on_one_address_share_one_row_image() {
        let shape = BramShape {
            addr_bits: 14,
            data_bits: 1,
        };
        let mut n = Netlist::new("banks");
        let addr: Vec<_> = (0..14).map(|i| n.add_net(format!("a{i}"))).collect();
        for (i, net) in addr.iter().enumerate() {
            n.add_input(format!("a{i}"), *net);
        }
        let douts: Vec<_> = (0..40).map(|k| n.add_net(format!("d{k}"))).collect();
        for (k, d) in douts.iter().enumerate() {
            n.add_output(format!("d{k}"), *d);
            n.add_cell(Cell::Bram {
                shape,
                addr: addr.clone(),
                dout: vec![*d],
                en: None,
                init: (0..1u64 << 14).map(|a| a >> (k % 14) & 1).collect(),
                output_init: 0,
            });
        }
        let mut b = BatchSimulator::new(&n).unwrap();
        assert_eq!(b.read_groups.len(), 1, "one address vector, one group");
        let packs = &b.read_groups[0].packs;
        assert_eq!(packs.len(), 1, "40 bits fit one pack");
        assert_eq!(packs[0].members.len(), 40);
        assert_eq!(packs[0].image.len(), 1 << 14, "one shared row image");
        assert_eq!(packs[0].stride, 0);

        // Lane `l` reads address `l * 255`; BRAM `k` returns address bit
        // `k mod 14`.
        let lane_addr = |l: u64| l * 255;
        let words: Vec<u64> = (0..14)
            .map(|i| (0..64).fold(0, |w, l| w | (lane_addr(l) >> i & 1) << l))
            .collect();
        b.clock_words(&words);
        for (k, d) in douts.iter().enumerate() {
            for l in 0..64 {
                assert_eq!(
                    b.lane_value(*d, l as usize),
                    lane_addr(l) >> (k % 14) & 1 == 1,
                    "bram {k}, lane {l}"
                );
            }
        }
        // A fault turns only that pack into per-lane rows.
        b.flip_lane_bram_init(13, 2, 0, 0).unwrap();
        let pack = &b.read_groups[0].packs[0];
        assert_eq!((pack.image.len(), pack.stride), (LANES << 14, 1 << 14));
    }

    #[test]
    fn activity_mask_restricts_counting() {
        let n = counter();
        let mut b = BatchSimulator::new(&n).unwrap();
        b.set_active(0b1); // only lane 0
        b.clock_words(&[u64::MAX]); // all lanes counting, one observed
        assert_eq!(b.activity().cycles, 1);
        // en toggled in every lane but only lane 0's transition counts.
        assert_eq!(b.activity().toggles[0], 1);
    }
}
