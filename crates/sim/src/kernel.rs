//! 64-lane bit-parallel netlist evaluation.
//!
//! Each net is represented by one `u64` word whose bit *i* carries the
//! value of that net in lane *i* — 64 independent simulations of the same
//! netlist advance together on every [`BatchSimulator::clock_words`] call.
//! LUTs are evaluated word-wide by mux-reducing their (per-lane) truth
//! leaves with the input words, FFs with a masked select, and BRAM output
//! latches by a per-lane gather and one transposition per read-address
//! group: BRAMs wired to the same address vector share one address
//! gather, and their words are packed side by side into lane-major rows
//! so a single 64×64 transposition yields up to 64 dout lane words.
//! Toggle counts come from `popcount(prev ^ next)` per net, masked to the
//! active lanes; with no active lane the accounting is skipped outright.
//!
//! The kernel shares its evaluation order and sequential-cell inventory
//! with the scalar [`crate::engine::Simulator`] through
//! [`crate::schedule::Schedule`], and is required to be bit-exact against
//! it lane for lane — the scalar engine remains the differential-testing
//! oracle (see the workspace's kernel property suite).
//!
//! Lanes can diverge in three ways beyond their inputs, which is what the
//! batched consumers build on:
//!
//! * per-lane architectural state ([`BatchSimulator::set_seq_words`] /
//!   [`BatchSimulator::seq_words`], whole sequential-net words) — the
//!   exhaustive product-walk verifier loads up to 64 frontier states and
//!   expands them under one clock;
//! * per-lane LUT truth tables ([`BatchSimulator::flip_lane_truth`]) and
//!   BRAM contents ([`BatchSimulator::flip_lane_bram_init`]) — the fault
//!   campaign runs 64 seeded single-fault variants of one design per
//!   batch;
//! * per-lane BRAM memory images evolve independently once a write port
//!   fires (copy-on-write from the shared ROM image).

use crate::engine::Activity;
use crate::schedule::{write_data_mask, Schedule};
use fpga_fabric::netlist::{Cell, NetId, Netlist, NetlistError};

/// Number of independent simulations carried per net word.
pub const LANES: usize = 64;

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

/// One BRAM's memory, shared across lanes until a lane diverges.
#[derive(Debug, Clone)]
enum BramMem {
    /// All lanes read the same image (`depth` words) — the ROM case.
    Shared(Vec<u64>),
    /// Lane-major per-lane images (`LANES * depth` words, lane `l`'s word
    /// for address `a` at `l * depth + a`).
    PerLane(Vec<u64>),
}

impl BramMem {
    /// ORs each lane's word at `addrs[lane]`, cut to `width` bits and
    /// shifted up by `shift`, into `rows[lane]`.
    fn gather(&self, addrs: &[u64; LANES], width: usize, shift: usize, rows: &mut [u64; LANES]) {
        let mask = write_data_mask(width);
        match self {
            BramMem::Shared(image) => {
                for (row, a) in rows.iter_mut().zip(addrs) {
                    *row |= (image[*a as usize] & mask) << shift;
                }
            }
            BramMem::PerLane(image) => {
                let depth = image.len() / LANES;
                for (lane, (row, a)) in rows.iter_mut().zip(addrs).enumerate() {
                    *row |= (image[lane * depth + *a as usize] & mask) << shift;
                }
            }
        }
    }

    /// Expands a shared image to per-lane copies (no-op when already
    /// per-lane).
    fn make_per_lane(&mut self, depth: usize) {
        if let BramMem::Shared(image) = self {
            let mut per_lane = Vec::with_capacity(LANES * depth);
            for _ in 0..LANES {
                per_lane.extend_from_slice(image);
            }
            *self = BramMem::PerLane(per_lane);
        }
    }
}

/// BRAMs wired to one read-address vector. Their read ports share one
/// per-lane address gather per clock, and their data words are packed
/// side by side into lane-major rows, one 64×64 transposition per pack.
#[derive(Debug, Clone)]
struct ReadGroup {
    /// The shared read-address nets, LSB first.
    addr: Vec<NetId>,
    /// Packs of at most 64 data bits, each entry `(k, offset, width)`:
    /// BRAM `k` (ordinal in `sched.brams`) has `width` wired data bits at
    /// bit `offset` of the packed row.
    packs: Vec<Vec<(usize, usize, usize)>>,
}

/// Adds BRAM `k`'s read port (`width` > 0 data bits) to the group of its
/// address nets, appending to the group's last pack while the packed row
/// has room.
fn add_read_port(groups: &mut Vec<ReadGroup>, addr: &[NetId], k: usize, width: usize) {
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
        .and_then(|p| p.last())
        .map_or(LANES, |&(_, offset, w)| offset + w);
    match packs.last_mut() {
        Some(p) if used + width <= LANES => p.push((k, used, width)),
        _ => packs.push(vec![(k, 0, width)]),
    }
}

/// A 64-lane bit-parallel simulator over a validated [`Netlist`].
///
/// Construction mirrors [`crate::engine::Simulator::new`]: every lane
/// starts at the reset state (FF `init` values, BRAM output latches at
/// `output_init`, combinational logic settled). The [`Activity`] record
/// accumulates per-lane-cycle counts over the lanes selected by
/// [`Self::set_active`]; with a single active lane it is bit-identical to
/// the scalar engine's record for the same stimulus.
#[derive(Debug, Clone)]
pub struct BatchSimulator<'a> {
    netlist: &'a Netlist,
    sched: Schedule,
    /// Word-compiled combinational cells, in `sched.comb_order` order.
    ops: Vec<CombOp>,
    /// Cell index → index into `ops` (combinational cells only).
    op_of_cell: Vec<Option<usize>>,
    /// Cell index → ordinal in `sched.brams` (BRAM cells only).
    bram_of_cell: Vec<Option<usize>>,
    /// The BRAM read ports, grouped by identical read-address nets.
    read_groups: Vec<ReadGroup>,
    /// One word per net; bit `i` is lane `i`'s value.
    words: Vec<u64>,
    /// Per-BRAM memory, in `sched.brams` order.
    mem: Vec<BramMem>,
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
                        .map(|m| {
                            if truth >> m & 1 == 1 {
                                u64::MAX
                            } else {
                                0
                            }
                        })
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
        let mut bram_of_cell = vec![None; netlist.cells().len()];
        let mut read_groups: Vec<ReadGroup> = Vec::new();
        let mem: Vec<BramMem> = sched
            .brams
            .iter()
            .enumerate()
            .map(|(k, id)| {
                bram_of_cell[id.index()] = Some(k);
                match netlist.cell(*id) {
                    Cell::Bram {
                        init, addr, dout, ..
                    } => {
                        if !dout.is_empty() {
                            add_read_port(&mut read_groups, addr, k, dout.len());
                        }
                        BramMem::Shared(init.clone())
                    }
                    _ => unreachable!("bram list holds BRAMs"),
                }
            })
            .collect();
        let num_nets = netlist.num_nets();
        let mut sim = BatchSimulator {
            netlist,
            activity: Activity {
                toggles: vec![0; num_nets],
                cycles: 0,
                bram_active_cycles: vec![0; sched.brams.len()],
                ff_active_cycles: vec![0; sched.ffs.len()],
                bram_write_cycles: vec![0; sched.brams.len()],
            },
            sched,
            ops,
            op_of_cell,
            bram_of_cell,
            read_groups,
            words: vec![0; num_nets],
            mem,
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

    /// True when any BRAM has a write port: lane state then includes
    /// memory contents that [`Self::seq_words`] does not capture.
    #[must_use]
    pub fn has_write_ports(&self) -> bool {
        self.sched.has_write_ports
    }

    /// Selects which lanes accumulate [`Activity`] counts. With `0` no
    /// lane counts and the per-clock accounting is skipped (every masked
    /// count would be zero), which is what the product walks use.
    pub fn set_active(&mut self, mask: u64) {
        self.active = mask;
    }

    fn apply_reset_state(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
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

    /// Resets every lane to the architectural reset state, restores the
    /// original memory images (dropping per-lane divergence), and clears
    /// the activity record — the batch analogue of
    /// [`crate::engine::Simulator::reset`]. Per-lane truth-table edits are
    /// **not** undone (they model a different netlist, not run-time
    /// state).
    pub fn reset(&mut self) {
        for (k, id) in self.sched.brams.iter().enumerate() {
            if let Cell::Bram { init, .. } = self.netlist.cell(*id) {
                self.mem[k] = BramMem::Shared(init.clone());
            }
        }
        self.apply_reset_state();
        self.settle();
        self.activity = Activity {
            toggles: vec![0; self.netlist.num_nets()],
            cycles: 0,
            bram_active_cycles: vec![0; self.sched.brams.len()],
            ff_active_cycles: vec![0; self.sched.ffs.len()],
            bram_write_cycles: vec![0; self.sched.brams.len()],
        };
        self.pre_edge_words.clear();
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
    /// anything samples them, so `set` + `clock` is exactly a scalar
    /// restore-and-clock in every lane.
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
    /// — the batched form of a `FlipBramInitBit` fault injection. The
    /// shared image is expanded to per-lane copies on first use.
    ///
    /// # Errors
    ///
    /// Returns a message when `cell_index` is not a BRAM or `word` is out
    /// of range.
    pub fn flip_lane_bram_init(
        &mut self,
        cell_index: usize,
        lane: usize,
        word: usize,
        bit: u32,
    ) -> Result<(), String> {
        let Some(k) = self.bram_of_cell.get(cell_index).copied().flatten() else {
            return Err(format!("cell {cell_index} is not a BRAM"));
        };
        let depth = match self.netlist.cell(self.sched.brams[k]) {
            Cell::Bram { init, .. } => init.len(),
            _ => return Err(format!("cell {cell_index} is not a BRAM")),
        };
        if word >= depth {
            return Err(format!("word {word} out of range for depth {depth}"));
        }
        self.mem[k].make_per_lane(depth);
        if let BramMem::PerLane(image) = &mut self.mem[k] {
            image[lane * depth + word] ^= 1u64 << bit;
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

    /// One lane's output values just before the most recent clock edge
    /// (the sample point for combinational Mealy outputs). Empty before
    /// the first clock.
    #[must_use]
    pub fn lane_pre_edge_outputs(&self, lane: usize) -> Vec<bool> {
        self.pre_edge_words
            .iter()
            .map(|w| w >> lane & 1 == 1)
            .collect()
    }

    /// Advances all 64 lanes one clock cycle. `inputs` holds one lane
    /// word per primary input, in declaration order (bit `i` of word `k`
    /// is lane `i`'s value for input `k`).
    ///
    /// The two-phase semantics mirror the scalar engine exactly: apply
    /// inputs, settle, count toggles against the pre-input values; sample
    /// FF `d`/`ce` and BRAM `addr`/`en`/write pins from that at-edge
    /// state; update the sequential outputs (read-first on write
    /// collisions); settle again and count toggles against the at-edge
    /// values. Activity is masked to the active lanes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the netlist's input count.
    pub fn clock_words(&mut self, inputs: &[u64]) {
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
        // BRAM read ports, read-first: every read sees the pre-write
        // memory. Per address group, one transposition turns the address
        // words into per-lane addresses; per pack, the members' words are
        // gathered side by side into lane rows and one transposition turns
        // those back into dout lane words, merged under each BRAM's enable
        // (disabled lanes hold their latches).
        for group in &self.read_groups {
            let mut addrs = [0u64; LANES];
            for (row, net) in addrs.iter_mut().zip(&group.addr) {
                *row = self.scratch_at_edge[net.index()];
            }
            transpose64(&mut addrs);
            for pack in &group.packs {
                let mut rows = [0u64; LANES];
                for &(k, offset, width) in pack {
                    self.mem[k].gather(&addrs, width, offset, &mut rows);
                }
                transpose64(&mut rows);
                for &(k, offset, _) in pack {
                    if let Cell::Bram { dout, en, .. } = netlist.cell(self.sched.brams[k]) {
                        let en_word = en.map_or(u64::MAX, |e| self.scratch_at_edge[e.index()]);
                        for (d, bits) in dout.iter().zip(&rows[offset..]) {
                            let old = self.words[d.index()];
                            self.words[d.index()] = (old & !en_word) | (bits & en_word);
                        }
                    }
                }
            }
        }
        for (k, id) in self.sched.brams.iter().enumerate() {
            if let Cell::Bram {
                en, init, write, ..
            } = netlist.cell(*id)
            {
                if counting {
                    let en_word = en.map_or(u64::MAX, |e| self.scratch_at_edge[e.index()]);
                    self.activity.bram_active_cycles[k] +=
                        u64::from((en_word & self.active).count_ones());
                }
                // The write port operates independently of the read
                // enable. Any write diverges the lanes' memories.
                if let Some(w) = write {
                    let we_word = self.scratch_at_edge[w.we.index()];
                    if we_word != 0 {
                        let depth = init.len();
                        self.mem[k].make_per_lane(depth);
                        let mask = write_data_mask(w.data.len());
                        let mut lanes = we_word;
                        while lanes != 0 {
                            let lane = lanes.trailing_zeros() as usize;
                            lanes &= lanes - 1;
                            let mut a = 0usize;
                            for (bit, net) in w.addr.iter().enumerate() {
                                a |= ((self.scratch_at_edge[net.index()] >> lane & 1) as usize)
                                    << bit;
                            }
                            let mut data = 0u64;
                            for (bit, net) in w.data.iter().enumerate() {
                                data |= (self.scratch_at_edge[net.index()] >> lane & 1) << bit;
                            }
                            if let BramMem::PerLane(image) = &mut self.mem[k] {
                                let old = image[lane * depth + a];
                                image[lane * depth + a] = (old & !mask) | (data & mask);
                            }
                        }
                    }
                    if counting {
                        self.activity.bram_write_cycles[k] +=
                            u64::from((we_word & self.active).count_ones());
                    }
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

    /// Advances one clock with per-lane input rows (`rows[i]` drives lane
    /// `i`; at most [`LANES`] rows). Lanes beyond `rows.len()` receive
    /// all-zero inputs.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from the netlist's input count,
    /// or `rows.len() > LANES`.
    pub fn clock_rows(&mut self, rows: &[Vec<bool>]) {
        let words = pack_rows(rows, self.netlist.inputs().len());
        self.clock_words(&words);
    }

    /// Runs a sequential stimulus in lane 0 alone (the other lanes idle
    /// with zero inputs and masked-out activity), mirroring a scalar
    /// [`crate::engine::Simulator::run`]: same state evolution, same
    /// [`Activity`] record, computed with word ops and popcounts.
    pub fn run_sequential<'v, I>(&mut self, stimulus: I)
    where
        I: IntoIterator<Item = &'v Vec<bool>>,
    {
        self.active = 1;
        for vector in stimulus {
            let words: Vec<u64> = vector.iter().map(|&b| u64::from(b)).collect();
            self.clock_words(&words);
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
    assert!(rows.len() <= LANES, "{} rows exceed {LANES} lanes", rows.len());
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

/// Inverse of [`pack_rows`]: extracts the first `count` lanes of `words`
/// back into per-lane rows.
///
/// # Panics
///
/// Panics if `count > LANES`.
#[must_use]
pub fn unpack_rows(words: &[u64], count: usize) -> Vec<Vec<bool>> {
    assert!(count <= LANES, "{count} rows exceed {LANES} lanes");
    (0..count)
        .map(|lane| words.iter().map(|w| w >> lane & 1 == 1).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::stimulus;
    use fpga_fabric::device::BramShape;
    use fpga_fabric::netlist::{BramWrite, Cell};

    /// 2-bit binary counter with enable (LUT-based), as in the scalar
    /// engine's tests.
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
    fn single_lane_matches_scalar_engine_bit_for_bit() {
        let n = counter();
        let stim = stimulus::random(1, 200, 11);
        let mut scalar = Simulator::new(&n).unwrap();
        for v in &stim {
            scalar.clock(v);
        }
        let mut batch = BatchSimulator::new(&n).unwrap();
        batch.run_sequential(&stim);
        assert_eq!(batch.activity().toggles, scalar.activity().toggles);
        assert_eq!(batch.activity().cycles, scalar.activity().cycles);
        assert_eq!(
            batch.activity().ff_active_cycles,
            scalar.activity().ff_active_cycles
        );
        assert_eq!(batch.lane_outputs(0), scalar.outputs());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let rows = stimulus::random(5, 64, 3);
        let words = pack_rows(&rows, 5);
        assert_eq!(unpack_rows(&words, 64), rows);
    }

    #[test]
    fn seq_words_load_resumes_mid_run() {
        // Drive a scalar sim 3 cycles, transplant its state into lane 7
        // through the word-level state loader, and check the next cycle
        // agrees (the other lanes keep the reset state).
        let n = counter();
        let stim = stimulus::random(1, 4, 5);
        let mut scalar = Simulator::new(&n).unwrap();
        for v in &stim[..3] {
            scalar.clock(v);
        }
        let mut batch = BatchSimulator::new(&n).unwrap();
        let mut words = vec![0u64; batch.seq_nets().len()];
        batch.seq_words(&mut words);
        for (w, net) in words.iter_mut().zip(batch.seq_nets()) {
            *w = (*w & !(1 << 7)) | u64::from(scalar.value(*net)) << 7;
        }
        batch.set_seq_words(&words);
        let mut round_trip = vec![0u64; words.len()];
        batch.seq_words(&mut round_trip);
        assert_eq!(round_trip, words);
        let expected = scalar.clock(&stim[3]);
        let mut inputs = vec![0u64];
        if stim[3][0] {
            inputs[0] |= 1 << 7;
        }
        batch.clock_words(&inputs);
        assert_eq!(batch.lane_outputs(7), expected);
        assert_eq!(batch.lane_outputs(0), vec![false, false]);
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
    fn per_lane_bram_fault_and_write_port() {
        let shape = BramShape {
            addr_bits: 9,
            data_bits: 36,
        };
        let mut n = Netlist::new("rw");
        let raddr: Vec<_> = (0..9).map(|i| n.add_net(format!("ra{i}"))).collect();
        let waddr: Vec<_> = (0..9).map(|i| n.add_net(format!("wa{i}"))).collect();
        let wdata = n.add_net("wd");
        let we = n.add_net("we");
        let d = n.add_net("d0");
        for (i, net) in raddr.iter().enumerate() {
            n.add_input(format!("ra{i}"), *net);
        }
        for (i, net) in waddr.iter().enumerate() {
            n.add_input(format!("wa{i}"), *net);
        }
        n.add_input("wd", wdata);
        n.add_input("we", we);
        n.add_output("d0", d);
        n.add_cell(Cell::Bram {
            shape,
            addr: raddr,
            dout: vec![d],
            en: None,
            init: vec![0; 512],
            output_init: 0,
            write: Some(BramWrite {
                addr: waddr,
                data: vec![wdata],
                we,
            }),
        });
        let mut b = BatchSimulator::new(&n).unwrap();
        // Lane 5's ROM gets a pre-flipped bit at word 0.
        b.flip_lane_bram_init(0, 5, 0, 0).unwrap();
        // Lane 9 writes 1 to word 0 this cycle (read-first: sees 0 now).
        let mut words = vec![0u64; 20];
        words[18] = 1 << 9; // wd
        words[19] = 1 << 9; // we
        b.clock_words(&words);
        assert!(b.lane_value(d, 5), "lane 5 reads its flipped ROM bit");
        assert!(!b.lane_value(d, 9), "read-first on collision");
        assert!(!b.lane_value(d, 0), "lane 0 unaffected");
        // Next cycle lane 9 sees its own write; other lanes still 0.
        b.clock_words(&vec![0u64; 20]);
        assert!(b.lane_value(d, 9));
        assert!(!b.lane_value(d, 0));
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
