//! Content-addressed flow-artifact cache (DESIGN.md §9.2).
//!
//! Every experiment binary walks the same nine benchmarks through the
//! same deterministic front-end (synthesize / map / verify) and the same
//! placer, so table2, table3 and the sweeps used to redo work table1 had
//! already finished. This module memoizes four record kinds behind
//! stable content hashes:
//!
//! * **front-ends** — the implementation netlist a flow derives from an
//!   STG (FF, EMB, overlay, and the clock-controlled variants), with the
//!   clock-control stats and the synthesis-budget and sampled-proof
//!   downgrades needed to rebuild the report. A hit skips synthesis /
//!   mapping *and* oracle verification: the artifact is addressed by
//!   every input that determines it, and it was verified by the run that
//!   produced it.
//! * **placements** — keyed by the netlist's structural digest
//!   ([`encode_netlist`]), the device, and the placement options, so the
//!   dominant pipeline stage runs once per distinct (netlist, device,
//!   options) triple across all binaries.
//! * **ECO placements** — the clock-controlled design placed around the
//!   pinned plain design, keyed also by the pinned coordinates.
//! * **overlay bases** — an overlay class's placement and routing, keyed
//!   by the digest of the class's zeroed base netlist, which the flow
//!   computes from the member's netlist without building the base.
//!
//! The cache is two-level: a per-process map (so e.g. the idle sweep's
//! five stimulus levels share one placement within a run) over an
//! on-disk store under `results/cache/` (so separate binaries share
//! artifacts across processes).
//!
//! **One codec.** Records are self-describing text: lines of a tag and
//! space-separated tokens. Every kind is one impl of the private
//! `Record` trait over one `Writer` and one strict `Reader`, and a
//! composite kind reads its inner record through the inner kind's impl.
//! A record that fails to decode — truncation, a version bump, a hand
//! edit, a token or line too many — is a miss and is rewritten. The flow
//! looks records up through `cached`, which also counts a record that
//! decodes but that the caller refuses as a miss.
//!
//! **Keys without text.** A netlist is keyed by a 128-bit digest of its
//! fields, each BRAM image bit-packed and hashed a whole 64-bit word at a
//! time, so a key costs O(netlist fields + image bits) and formats
//! nothing; records store each image as one bit-packed hex token.
//!
//! **Invalidation** is by key construction, not by deletion: keys mix in
//! a format version, a per-stage algorithm version
//! ([`fpga_fabric::place::ALGORITHM_VERSION`] for placements,
//! [`FRONTEND_VERSION`] for front-end records, [`NETLIST_KEY_VERSION`]
//! for the netlist digest), and every option field. Changing
//! an algorithm or an option changes the key, and stale entries are
//! simply never addressed again. `results/cache/` can always be deleted
//! wholesale; nothing references it by name.
//!
//! Environment knobs — read here rather than in the harness's
//! `paper_bench::knobs`, which this crate cannot depend on; the harness
//! and the benchmark set `FLOW_CACHE_DIR` before the first cache call, and
//! the benchmark's child processes inherit it:
//!
//! * `FLOW_CACHE_DIR=<dir>` — on-disk store location (default
//!   `results/cache/` at the workspace root; relative paths resolve
//!   against the workspace root). This crate's own unit tests ignore it:
//!   each test process gets a fresh private store under the system temp
//!   directory, so no test run loads what an earlier one stored.
//! * `FLOW_CACHE_MAX_BYTES=<n>` — byte budget for the on-disk store.
//!   After every store the record files are summed; while they exceed
//!   the budget the least-recently-used record is deleted (a disk hit
//!   refreshes its record's mtime, so mtime order *is* LRU order).
//!   Deletion is one `remove_file` per record — an atomic unlink, so a
//!   concurrent reader that already opened the record keeps its bytes
//!   and a racing lookup degrades to an ordinary miss. Unset means
//!   unlimited (and hits skip the mtime refresh entirely). Eviction
//!   changes only what stays cached, never what a flow computes.
//!
//! Hit/miss counters are kept per thread (each experiment item runs
//! wholly on one runner worker) and surfaced as
//! [`CacheStats`](crate::flow::FlowReport::cache) deltas in every
//! `FlowReport`.

use crate::flow::ClockControlStats;
use fpga_fabric::device::{BramShape, Device};
use fpga_fabric::netlist::{Cell, NetId, Netlist};
use fpga_fabric::place::{BudgetOutcome, EcoPlacement, PlaceOptions, Placement};
use fpga_fabric::route::{NetRoute, RouteOptions, RoutedDesign};
use fsm_model::stg::Stg;
use logic_synth::synth::SynthOptions;
use std::cell::Cell as StdCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

/// Bump when the *meaning* of a front-end artifact changes (netlist
/// construction, verification semantics, or the record layout).
/// Version 2: rewrite verification is exhaustive (product-walk proof)
/// up to the configured input cap, with a recorded sampled fallback —
/// records from the sampling-only era must not satisfy the new check.
/// Version 3: a netlist's `L` line carries its input count
/// (`L out truth n i1 … in`), so a trailing token is a miss instead of
/// one more LUT input.
/// Version 4: a BRAM image is one bit-packed hex token, not one token
/// per word.
pub const FRONTEND_VERSION: u32 = 4;

/// Bump when [`fpga_fabric::place::place_incremental`] can produce a
/// different result for the same inputs (mixed into ECO placement keys
/// alongside [`fpga_fabric::place::ALGORITHM_VERSION`]).
pub const ECO_PLACE_VERSION: u32 = 1;

/// Bump when an overlay-base artifact's meaning changes: the base
/// netlist construction ([`crate::overlay`]), what the record carries
/// (placement + routing), or how the physical stages consume it.
pub const OVERLAY_BASE_VERSION: u32 = 1;

/// Bump when the record layout of any artifact changes. [`KeyWriter::new`]
/// mixes it into every key *and* every [`coords_digest`] — which the
/// placement pins, the ECO reports and `scripts/verify.sh`'s
/// base-coordinate gate compare — so a change confined to the netlist
/// codec bumps [`FRONTEND_VERSION`] instead: front-end records are the
/// only records that embed a netlist. The placement, ECO and overlay-base
/// keys hash the netlist's key material, not its record, and move with
/// [`NETLIST_KEY_VERSION`].
const FORMAT_VERSION: u32 = 1;

/// Bump when what [`encode_netlist`] covers, or how it hashes it,
/// changes. It is mixed into the material itself, so every
/// netlist-keyed kind (placement, ECO placement, overlay base) moves
/// with it and nothing else does.
pub const NETLIST_KEY_VERSION: u32 = 1;

// --- statistics -------------------------------------------------------

/// Cache hit/miss counters (a snapshot or a delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifact lookups answered from memory or disk.
    pub hits: u64,
    /// Artifact lookups that fell through to recomputation.
    pub misses: u64,
}

impl CacheStats {
    /// The counter movement since `earlier` (both from the same thread).
    #[must_use]
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hit(s) / {} miss(es)", self.hits, self.misses)
    }
}

thread_local! {
    static TL_HITS: StdCell<u64> = const { StdCell::new(0) };
    static TL_MISSES: StdCell<u64> = const { StdCell::new(0) };
}

/// This thread's cumulative counters. Take one at flow entry and one at
/// exit; the [`CacheStats::since`] delta is the flow's own traffic.
#[must_use]
pub fn stats_snapshot() -> CacheStats {
    CacheStats {
        hits: TL_HITS.with(StdCell::get),
        misses: TL_MISSES.with(StdCell::get),
    }
}

fn note(hit: bool) {
    if hit {
        TL_HITS.with(|c| c.set(c.get() + 1));
    } else {
        TL_MISSES.with(|c| c.set(c.get() + 1));
    }
}

// --- configuration ----------------------------------------------------

struct Config {
    dir: Option<PathBuf>,
    /// On-disk byte budget (`FLOW_CACHE_MAX_BYTES`); `None` = unlimited.
    max_bytes: Option<u64>,
}

fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let max_bytes = std::env::var("FLOW_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        let d = store_dir();
        // A store we cannot create degrades to memory-only caching.
        let dir = std::fs::create_dir_all(&d).ok().map(|()| d);
        Config { dir, max_bytes }
    })
}

/// The on-disk store: `FLOW_CACHE_DIR`, or `results/cache/` at the
/// workspace root.
#[cfg(not(test))]
fn store_dir() -> PathBuf {
    std::env::var("FLOW_CACHE_DIR").map_or_else(
        |_| workspace_root().join("results").join("cache"),
        |d| {
            let d = PathBuf::from(d);
            if d.is_absolute() {
                d
            } else {
                workspace_root().join(d)
            }
        },
    )
}

/// The unit tests' store: fresh for each test process, so a placer or
/// front-end change is never hidden behind records an earlier run wrote.
#[cfg(test)]
fn store_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("emb_fsm_unit_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn memory() -> &'static Mutex<HashMap<String, Vec<u8>>> {
    static MEM: OnceLock<Mutex<HashMap<String, Vec<u8>>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops the in-process layer (the on-disk store is untouched). Lets
/// tests and the harness benchmark distinguish cold / disk-warm /
/// memory-warm behavior inside one process.
pub fn reset_memory() {
    memory()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

// --- keys -------------------------------------------------------------

/// A finished content address: artifact kind plus 128-bit hex digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    kind: &'static str,
    digest: String,
}

impl Key {
    fn file_name(&self) -> String {
        format!("{}_{}.txt", self.kind, self.digest)
    }
}

/// Incremental content hasher: two independent FNV-1a-64 streams give a
/// 128-bit digest — collision-safe at this workload's scale without
/// pulling in a crypto dependency (the build is hermetic).
struct KeyWriter {
    kind: &'static str,
    h1: u64,
    h2: u64,
}

impl KeyWriter {
    fn new(kind: &'static str) -> Self {
        let mut w = KeyWriter {
            kind,
            h1: 0xcbf2_9ce4_8422_2325,
            h2: 0x6c62_272e_07bb_0142, // FNV-1a-128's offset, truncated
        };
        w.bytes(kind.as_bytes());
        w.u64(u64::from(FORMAT_VERSION));
        w
    }

    fn bytes(&mut self, b: &[u8]) {
        // Length-prefix every field so adjacent fields cannot alias.
        for &byte in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.h1 = (self.h1 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            self.h2 = (self.h2 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_0193);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn finish(self) -> Key {
        Key {
            kind: self.kind,
            digest: format!("{:016x}{:016x}", self.h1, self.h2),
        }
    }

    /// The 128-bit digest as 16 bytes: key material for another key.
    fn material(self) -> Vec<u8> {
        [self.h1.to_le_bytes(), self.h2.to_le_bytes()].concat()
    }

    fn net(&mut self, n: NetId) {
        self.u64(u64::from(n.0));
    }

    /// An optional net; `None` is a value no net id takes.
    fn opt_net(&mut self, n: Option<NetId>) {
        self.u64(n.map_or(u64::MAX, |n| u64::from(n.0)));
    }

    fn nets(&mut self, nets: &[NetId]) {
        self.u64(nets.len() as u64);
        for &n in nets {
            self.net(n);
        }
    }

    /// Count-prefixed whole words: each is mixed into both streams by an
    /// xor, a multiply and an xor-shift — one round a word where
    /// [`KeyWriter::bytes`] takes eight. Every round is a bijection of the
    /// stream state, so a changed word always changes the state, and the
    /// shift carries a high-bit change down into the next round's product.
    /// (Packed images hashed through `bytes` instead read 10.5 ms of
    /// traced `auto` `cache.key_ms` at seed 2004, median of 8, against
    /// 8.5 ms here and 45 ms for the text keys this replaced.)
    fn words(&mut self, words: &[u64]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.h1 = (self.h1 ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.h1 ^= self.h1 >> 31;
            self.h2 = (self.h2 ^ w.rotate_left(32)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            self.h2 ^= self.h2 >> 29;
        }
    }
}

/// The key material of `n` read with `name` as its name and, when
/// `zero_images`, every BRAM image as all zero: its fields hashed one by
/// one — name, net names, ports, then each cell's tag, pins and truth
/// table or shape — with each BRAM image bit-packed ([`pack_image`]) and
/// hashed a whole word at a time ([`KeyWriter::words`]). Every list is
/// count-prefixed and [`KeyWriter::bytes`] length-prefixes every field,
/// so two netlists that differ in any field get different material.
fn netlist_material(n: &Netlist, name: &str, zero_images: bool) -> Vec<u8> {
    let mut w = KeyWriter::new("netlist");
    w.u64(u64::from(NETLIST_KEY_VERSION));
    w.str(name);
    w.u64(n.num_nets() as u64);
    for i in 0..n.num_nets() {
        w.str(n.net_name(NetId(i as u32)));
    }
    for ports in [n.inputs(), n.outputs()] {
        w.u64(ports.len() as u64);
        for (port, id) in ports {
            w.str(port);
            w.net(*id);
        }
    }
    w.u64(n.cells().len() as u64);
    for cell in n.cells() {
        match cell {
            Cell::Lut {
                inputs,
                output,
                truth,
            } => {
                w.str("L");
                w.net(*output);
                w.u64(*truth);
                w.nets(inputs);
            }
            Cell::Ff { d, q, ce, init } => {
                w.str("F");
                w.net(*d);
                w.net(*q);
                w.opt_net(*ce);
                w.u64(u64::from(*init));
            }
            Cell::Const { output, value } => {
                w.str("C");
                w.net(*output);
                w.u64(u64::from(*value));
            }
            Cell::Bram {
                shape,
                addr,
                dout,
                en,
                init,
                output_init,
            } => {
                w.str("B");
                w.u64(shape.addr_bits as u64);
                w.u64(shape.data_bits as u64);
                w.opt_net(*en);
                w.u64(*output_init);
                w.nets(addr);
                w.nets(dout);
                w.u64(init.len() as u64);
                w.words(&if zero_images {
                    vec![0; packed_len(init.len(), shape.data_bits)]
                } else {
                    pack_image(init, shape.data_bits)
                });
            }
        }
    }
    w.material()
}

/// The number of words [`pack_image`] packs `len` words of `width` bits
/// into.
fn packed_len(len: usize, width: usize) -> usize {
    (len * width.min(64)).div_ceil(64)
}

/// `words`, each cut to its low `width` bits (at most 64), as one
/// LSB-first bit string — bit `b` of word `i` is bit `i·width + b` — in
/// [`packed_len`] words, the last zero-padded.
fn pack_image(words: &[u64], width: usize) -> Vec<u64> {
    let width = width.min(64);
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    let mut out = Vec::with_capacity(packed_len(words.len(), width));
    let (mut acc, mut fill) = (0u128, 0);
    for chunk in words.chunks(64) {
        // 64 words fill exactly `width` output words, so every chunk
        // starts on an output word. Most of an FSM image is zero (unused
        // state codes): one OR over the chunk, which vectorizes, skips
        // such a chunk.
        if chunk.len() == 64 && chunk.iter().fold(0, |any, &w| any | w) == 0 {
            out.resize(out.len() + width, 0);
            continue;
        }
        for &w in chunk {
            acc |= u128::from(w & mask) << fill;
            fill += width;
            if fill >= 64 {
                out.push(acc as u64);
                acc >>= 64;
                fill -= 64;
            }
        }
    }
    if fill > 0 {
        out.push(acc as u64);
    }
    out
}

/// Stable byte serialization of an STG: everything that determines the
/// downstream artifacts, nothing that does not.
fn stg_bytes(stg: &Stg) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "stg {} {} {} {} {}",
        esc(stg.name()),
        stg.num_inputs(),
        stg.num_outputs(),
        stg.num_states(),
        stg.reset_state().0
    );
    for id in stg.states() {
        let _ = writeln!(s, "s {}", esc(stg.state_name(id)));
    }
    for t in stg.transitions() {
        let _ = writeln!(s, "t {} {} {} {}", t.from.0, t.input, t.to.0, t.output);
    }
    s.into_bytes()
}

fn key_synth_opts(w: &mut KeyWriter, o: SynthOptions) {
    w.str(&format!("{}", o.encoding));
    w.u64(o.map.k as u64);
    w.u64(o.map.cuts_per_node as u64);
    w.u64(o.max_minimize_cubes as u64);
}

fn key_emb_opts(w: &mut KeyWriter, o: &crate::map::EmbOptions) {
    w.str(&format!("{}", o.encoding));
    w.str(match o.output_mode {
        crate::map::OutputMode::Auto => "auto",
        crate::map::OutputMode::InMemory => "inmem",
        crate::map::OutputMode::MooreLuts => "moore",
    });
    w.u64(u64::from(o.allow_compaction));
    w.u64(u64::from(o.allow_series));
    w.u64(o.max_series_banks as u64);
    w.u64(o.lut_map.k as u64);
    w.u64(o.lut_map.cuts_per_node as u64);
}

/// Key for an FF-style front-end artifact (`kind` is `"ff"` or `"ffg"`).
#[must_use]
pub fn ff_frontend_key(
    kind_tag: &'static str,
    stg: &Stg,
    opts: SynthOptions,
    minimize_states: bool,
) -> Key {
    let mut w = KeyWriter::new(kind_tag);
    w.u64(u64::from(FRONTEND_VERSION));
    w.bytes(&stg_bytes(stg));
    key_synth_opts(&mut w, opts);
    w.u64(u64::from(minimize_states));
    w.finish()
}

/// Key for an EMB-style front-end artifact (`kind` is `"emb"` or
/// `"embcc"`).
#[must_use]
pub fn emb_frontend_key(
    kind_tag: &'static str,
    stg: &Stg,
    opts: &crate::map::EmbOptions,
    minimize_states: bool,
) -> Key {
    let mut w = KeyWriter::new(kind_tag);
    w.u64(u64::from(FRONTEND_VERSION));
    w.bytes(&stg_bytes(stg));
    key_emb_opts(&mut w, opts);
    w.u64(u64::from(minimize_states));
    w.finish()
}

/// Key for an overlay front-end artifact (`"ovl"`): the compiled FSM
/// netlist on its overlay base, with the rewrite proof recorded. The
/// overlay mapping has no tunable [`crate::map::EmbOptions`] — its
/// geometry is fully determined by the machine's port and state counts —
/// so the key is just the machine plus the planning-ladder version.
#[must_use]
pub fn overlay_frontend_key(stg: &Stg, minimize_states: bool) -> Key {
    let mut w = KeyWriter::new("ovl");
    w.u64(u64::from(FRONTEND_VERSION));
    w.u64(u64::from(OVERLAY_BASE_VERSION));
    w.bytes(&stg_bytes(stg));
    w.u64(u64::from(minimize_states));
    w.finish()
}

/// Hashes every [`PlaceOptions`] field that influences the produced
/// placement, including the timing-cost knobs and the delay model the
/// criticality term is computed against.
fn key_place_opts(w: &mut KeyWriter, opts: PlaceOptions) {
    w.u64(opts.seed);
    w.f64(opts.effort);
    w.u64(opts.max_moves);
    w.f64(opts.timing_weight);
    w.f64(opts.crit_exp);
    w.u64(u64::from(opts.retime_interval));
    let d = opts.delay;
    for v in [
        d.lut,
        d.ff_clk_to_q,
        d.ff_setup,
        d.bram_clk_to_out,
        d.bram_setup,
        d.net_base,
        d.net_per_hop,
        d.pad,
    ] {
        w.f64(v);
    }
}

/// Key for a placement of the netlist whose [`encode_netlist`] material
/// is `netlist_bytes`.
#[must_use]
pub fn place_key(netlist_bytes: &[u8], device: &Device, opts: PlaceOptions) -> Key {
    let mut w = KeyWriter::new("place");
    w.u64(u64::from(fpga_fabric::place::ALGORITHM_VERSION));
    w.bytes(netlist_bytes);
    w.str(device.name);
    key_place_opts(&mut w, opts);
    w.finish()
}

/// Key for an incremental (ECO) placement: the gated netlist, the device,
/// the placement options, **and** the base placement's coordinate digest —
/// the ECO result depends on exactly where the pins are, so reusing a
/// cached ECO placement against a different base would silently violate
/// the pinning contract.
#[must_use]
pub fn eco_place_key(
    netlist_bytes: &[u8],
    device: &Device,
    opts: PlaceOptions,
    base_coord_digest: &str,
) -> Key {
    let mut w = KeyWriter::new("ecoplace");
    w.u64(u64::from(ECO_PLACE_VERSION));
    w.u64(u64::from(fpga_fabric::place::ALGORITHM_VERSION));
    w.bytes(netlist_bytes);
    w.str(device.name);
    key_place_opts(&mut w, opts);
    w.str(base_coord_digest);
    w.finish()
}

/// Key for an overlay base artifact: the zeroed base netlist's
/// [`encode_netlist`] material (the class's content address — every
/// member of an overlay class has the same zeroed base), the device, and
/// every placement and routing option
/// that shapes the stored physical result. Placement and routing travel
/// together in one record: the routing is only valid for exactly that
/// placement.
#[must_use]
pub fn overlay_base_key(
    base_netlist_bytes: &[u8],
    device: &Device,
    place_opts: PlaceOptions,
    route_opts: RouteOptions,
) -> Key {
    let mut w = KeyWriter::new("ovlbase");
    w.u64(u64::from(OVERLAY_BASE_VERSION));
    w.u64(u64::from(fpga_fabric::place::ALGORITHM_VERSION));
    w.bytes(base_netlist_bytes);
    w.str(device.name);
    key_place_opts(&mut w, place_opts);
    w.u64(route_opts.tile_capacity as u64);
    w.u64(route_opts.max_rounds as u64);
    w.u64(route_opts.max_expansions);
    w.finish()
}

/// Content digest of a set of placement coordinates (CLB, BRAM and IOB
/// site lists, in entity order). Two placements agree on every entity's
/// coordinates iff their digests are equal — this is what the ECO report
/// and the `verify.sh` base-coordinate gate compare.
#[must_use]
pub fn coords_digest(
    clb: &[(usize, usize)],
    bram: &[(usize, usize)],
    iob: &[(usize, usize)],
) -> String {
    let mut w = KeyWriter::new("coords");
    for locs in [clb, bram, iob] {
        w.u64(locs.len() as u64);
        for &(x, y) in locs {
            w.u64(x as u64);
            w.u64(y as u64);
        }
    }
    w.finish().digest
}

// --- raw store --------------------------------------------------------

fn lookup_raw(key: &Key) -> Option<Vec<u8>> {
    let cfg = config();
    let name = key.file_name();
    {
        let mem = memory()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(bytes) = mem.get(&name) {
            return Some(bytes.clone());
        }
    }
    let dir = cfg.dir.as_ref()?;
    let path = dir.join(&name);
    let bytes = std::fs::read(&path).ok()?;
    // LRU touch: under a byte budget a disk hit refreshes the record's
    // mtime so eviction deletes cold records first. Without a budget the
    // refresh is skipped — the read path stays write-free.
    if cfg.max_bytes.is_some() {
        touch_record(&path);
    }
    memory()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(name, bytes.clone());
    Some(bytes)
}

/// Sets a record's mtime to now (best effort; a failure just makes the
/// record look colder to the evictor than it is).
///
/// ENOENT-safe by construction: the open is `O_APPEND` without `O_CREAT`,
/// so a record that a concurrent evictor unlinked between our read and
/// this refresh stays deleted — recreating an empty record file here
/// would poison the store for every other process sharing it.
fn touch_record(path: &std::path::Path) {
    if let Ok(f) = std::fs::File::options().append(true).open(path) {
        let _ = f.set_times(std::fs::FileTimes::new().set_modified(std::time::SystemTime::now()));
    }
}

/// One record file as seen by an eviction scan.
struct ScannedRecord {
    mtime: std::time::SystemTime,
    len: u64,
    path: PathBuf,
}

/// Snapshot of the store's record files (`*.txt` only) and their byte
/// total. Non-record files (temp files mid-publish, stray notes) are
/// never listed and therefore never deleted.
fn scan_records(dir: &std::path::Path) -> Option<(Vec<ScannedRecord>, u64)> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut records: Vec<ScannedRecord> = Vec::new();
    let mut total = 0u64;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "txt") {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        if !meta.is_file() {
            continue;
        }
        let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        total += meta.len();
        records.push(ScannedRecord {
            mtime,
            len: meta.len(),
            path,
        });
    }
    Some((records, total))
}

/// Deletes scanned records least-recently-modified first until `total`
/// fits `max_bytes`. With hits refreshing mtimes (see [`touch_record`])
/// modification order is access order, so this is LRU eviction.
///
/// The scan is only a hint: other *processes* share the store and may
/// publish, refresh, or evict between the scan and each unlink. So every
/// candidate is re-stat'ed immediately before deletion:
///
/// * gone already (a concurrent evictor won the race) — its bytes left
///   the store whoever removed them, so they count toward the budget
///   without deleting anything else in their place;
/// * refreshed since the scan (a concurrent hit) — it is now one of the
///   *hottest* records, not the coldest: skip it rather than over-evict
///   a record another process just paid to touch;
/// * unchanged — delete it (each delete is a single atomic unlink: a
///   reader that already opened the record keeps its bytes, a racing
///   lookup misses and recomputes), tolerating a lost stat→unlink race
///   the same way as "gone already".
fn evict_scanned(mut records: Vec<ScannedRecord>, mut total: u64, max_bytes: u64) {
    // Oldest first; the path tie-breaks equal mtimes deterministically.
    records.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
    for rec in records {
        if total <= max_bytes {
            break;
        }
        match std::fs::metadata(&rec.path) {
            Err(_) => {
                // Concurrently deleted: already out of the store.
                total = total.saturating_sub(rec.len);
            }
            Ok(meta) => {
                let now_mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                if now_mtime > rec.mtime {
                    continue; // concurrently refreshed: no longer LRU
                }
                match std::fs::remove_file(&rec.path) {
                    Ok(()) => total = total.saturating_sub(meta.len()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        total = total.saturating_sub(rec.len);
                    }
                    Err(_) => {} // undeletable: keep counting it
                }
            }
        }
    }
}

/// Shrinks the on-disk store to `max_bytes` (see [`evict_scanned`]).
fn enforce_budget(dir: &std::path::Path, max_bytes: u64) {
    let Some((records, total)) = scan_records(dir) else {
        return;
    };
    if total <= max_bytes {
        return;
    }
    evict_scanned(records, total, max_bytes);
}

fn store_raw(key: &Key, bytes: Vec<u8>) {
    let cfg = config();
    let name = key.file_name();
    if let Some(dir) = &cfg.dir {
        // Atomic publish: concurrent binaries may race on the same key;
        // rename makes the winner's record appear whole or not at all.
        let tmp = dir.join(format!(
            ".{name}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        if std::fs::write(&tmp, &bytes).is_ok() && std::fs::rename(&tmp, dir.join(&name)).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        // Evict after publishing: the store may momentarily overshoot the
        // budget, but every store leaves it within budget again. The
        // fresh record has the newest mtime, so it is evicted last — and
        // even if a sub-record-sized budget deletes it, this process
        // still holds the artifact in the memory layer below.
        if let Some(max_bytes) = cfg.max_bytes {
            enforce_budget(dir, max_bytes);
        }
    }
    memory()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(name, bytes);
}

// --- escaping ---------------------------------------------------------

/// Space/control-safe token escaping for names inside records.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '_' => out.push(' '),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            _ => return None,
        }
    }
    Some(out)
}

// --- record codec -----------------------------------------------------

/// One artifact kind's record layout: lines of a tag followed by
/// space-separated tokens, written through a [`Writer`] and read back
/// through a [`Reader`]. A composite record writes and reads its inner
/// record through the inner kind's impl.
pub(crate) trait Record: Sized {
    /// Appends this record's lines.
    fn write(&self, w: &mut Writer);
    /// Reads this record's lines; `None` on any malformation.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

/// A record's bytes.
fn encode<R: Record>(record: &R) -> Vec<u8> {
    let mut w = Writer::default();
    record.write(&mut w);
    w.text.push('\n');
    w.text.into_bytes()
}

/// The one record `bytes` hold; `None` if they are malformed or anything
/// follows the record.
fn decode<R: Record>(bytes: &[u8]) -> Option<R> {
    let mut r = Reader {
        lines: std::str::from_utf8(bytes).ok()?.lines().peekable(),
    };
    let record = R::read(&mut r)?;
    r.lines.peek().is_none().then_some(record)
}

/// Builds a record: [`Writer::line`] starts a line (ending the one
/// before it), every other method appends ` token`s.
#[derive(Default)]
pub(crate) struct Writer {
    text: String,
}

impl Writer {
    fn line(&mut self, tag: &str) -> &mut Self {
        if !self.text.is_empty() {
            self.text.push('\n');
        }
        self.text.push_str(tag);
        self
    }

    fn tok(&mut self, v: impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write as _;
        let _ = write!(self.text, " {v}");
        self
    }

    /// ` prefix` glued to `v` in `radix` (10 or 16, lowercase). Digits
    /// are made by hand: a netlist record runs to tens of thousands of
    /// numbers, and the formatting machinery would dominate its encoding.
    fn glued(&mut self, prefix: &str, v: u64, radix: u64) -> &mut Self {
        fn digits(out: &mut String, v: u64, radix: u64) {
            if v >= radix {
                digits(out, v / radix, radix);
            }
            out.push(char::from(b"0123456789abcdef"[(v % radix) as usize]));
        }
        self.text.push(' ');
        self.text.push_str(prefix);
        digits(&mut self.text, v, radix);
        self
    }

    fn hex(&mut self, v: u64) -> &mut Self {
        self.glued("", v, 16)
    }

    /// ` prefix` glued to the bit string [`pack_image`] makes of `words`:
    /// lowercase hex digits, four bits each, lowest bits first, up to the
    /// last nonzero digit — an FSM image's unused high addresses are zero,
    /// so they cost no digits, and an all-zero image is ` prefix` alone.
    /// Every word must fit in `width` bits ([`Netlist::validate`]): a
    /// higher bit would not be written.
    fn image(&mut self, prefix: &str, words: &[u64], width: usize) -> &mut Self {
        debug_assert!(
            width >= 64 || words.iter().all(|w| w >> width == 0),
            "init word wider than data width"
        );
        let packed = pack_image(words, width);
        let digits = packed.iter().rposition(|&p| p != 0).map_or(0, |i| {
            i * 16 + (64 - packed[i].leading_zeros() as usize).div_ceil(4)
        });
        self.text.push(' ');
        self.text.push_str(prefix);
        self.text.extend(
            (0..digits)
                .map(|k| packed[k / 16] >> (k % 16 * 4) & 0xf)
                .map(|d| char::from(b"0123456789abcdef"[d as usize])),
        );
        self
    }

    /// An `f64` as the hex of its bits, so it reads back exactly.
    fn f64(&mut self, v: f64) -> &mut Self {
        self.hex(v.to_bits())
    }

    fn net(&mut self, n: NetId) -> &mut Self {
        self.glued("", u64::from(n.0), 10)
    }

    fn xy(&mut self, &(x, y): &(usize, usize)) -> &mut Self {
        self.glued("", x as u64, 10).glued("", y as u64, 10)
    }

    /// `-` for `None`, else what `write` writes.
    fn or_dash<T>(
        &mut self,
        v: Option<T>,
        write: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match v {
            None => self.tok("-"),
            Some(v) => write(self, v),
        }
    }

    /// `prefix` glued to the item count, then each item.
    fn list<T>(
        &mut self,
        prefix: &str,
        items: &[T],
        mut write: impl for<'w> FnMut(&'w mut Self, &T) -> &'w mut Self,
    ) -> &mut Self {
        self.glued(prefix, items.len() as u64, 10);
        for item in items {
            write(self, item);
        }
        self
    }
}

/// Reads a record back line by line. Every line is read whole through
/// [`Reader::line`]: its tag must match and no token may be left over.
pub(crate) struct Reader<'a> {
    lines: std::iter::Peekable<std::str::Lines<'a>>,
}

impl<'a> Reader<'a> {
    /// The next line's tag, if there is a next line.
    fn peek_tag(&mut self) -> Option<&'a str> {
        let line = self.lines.peek()?;
        Some(line.split_once(' ').map_or(*line, |(tag, _)| tag))
    }

    /// The next line, which must carry `tag`, read by `read`; `None` if it
    /// does not, if `read` fails, or if `read` leaves a token unread.
    fn line<T>(&mut self, tag: &str, read: impl FnOnce(&mut Line<'a>) -> Option<T>) -> Option<T> {
        let rest = self.lines.next()?.strip_prefix(tag)?.strip_prefix(' ')?;
        let mut line = Line {
            toks: rest.split(' '),
        };
        let v = read(&mut line)?;
        line.toks.next().is_none().then_some(v)
    }

    /// [`Reader::line`] when the next line carries `tag`, else `Some(None)`
    /// without consuming anything.
    fn optional<T>(
        &mut self,
        tag: &str,
        read: impl FnOnce(&mut Line<'a>) -> Option<T>,
    ) -> Option<Option<T>> {
        if self.peek_tag() == Some(tag) {
            self.line(tag, read).map(Some)
        } else {
            Some(None)
        }
    }
}

/// The tokens of one record line.
pub(crate) struct Line<'a> {
    toks: std::str::Split<'a, char>,
}

impl<'a> Line<'a> {
    fn tok(&mut self) -> Option<&'a str> {
        self.toks.next()
    }

    /// The literal token `want` (a tag or a layout version).
    fn lit(&mut self, want: &str) -> Option<()> {
        (self.tok()? == want).then_some(())
    }

    fn num<T: std::str::FromStr>(&mut self) -> Option<T> {
        self.tok()?.parse().ok()
    }

    fn hex(&mut self) -> Option<u64> {
        u64::from_str_radix(self.tok()?, 16).ok()
    }

    /// What [`Writer::image`] wrote after `prefix`, read as `depth` words
    /// of `width` bits, the digits left out read as zero; `None` unless
    /// every digit is a lowercase hex digit, the last is not `0`, there
    /// are no more than those bits need, and the padding bits past them
    /// are zero — so an image has one token, not several.
    fn image(&mut self, prefix: &str, depth: usize, width: usize) -> Option<Vec<u64>> {
        let digits = self.tok()?.strip_prefix(prefix)?;
        if !(1..=64).contains(&width)
            || digits.len() > (depth * width).div_ceil(4)
            || digits.ends_with('0')
        {
            return None;
        }
        let mask = u64::MAX >> (64 - width);
        let mut words = Vec::with_capacity(depth);
        let (mut acc, mut fill) = (0u128, 0usize);
        for c in digits.bytes() {
            let nibble = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                _ => return None,
            };
            acc |= u128::from(nibble) << fill;
            fill += 4;
            while fill >= width && words.len() < depth {
                words.push(acc as u64 & mask);
                acc >>= width;
                fill -= width;
            }
        }
        if words.len() < depth {
            words.push(acc as u64);
            acc = 0;
            words.resize(depth, 0);
        }
        (acc == 0).then_some(words)
    }

    fn f64(&mut self) -> Option<f64> {
        self.hex().map(f64::from_bits)
    }

    fn bit(&mut self) -> Option<bool> {
        match self.tok()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }

    fn name(&mut self) -> Option<String> {
        unesc(self.tok()?)
    }

    fn net(&mut self) -> Option<NetId> {
        self.num().map(NetId)
    }

    fn xy(&mut self) -> Option<(usize, usize)> {
        Some((self.num()?, self.num()?))
    }

    /// `None` for a `-` token, else what `read` reads.
    fn or_dash<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.toks.clone().next() == Some("-") {
            self.tok().map(|_| None)
        } else {
            read(self).map(Some)
        }
    }

    /// A count glued to `prefix`, then that many items. Inlined so that
    /// `read` is too: a netlist's LUT inputs are most of its tokens.
    #[inline(always)]
    fn list<T>(
        &mut self,
        prefix: &str,
        mut read: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count: usize = self.tok()?.strip_prefix(prefix)?.parse().ok()?;
        (0..count).map(|_| read(self)).collect()
    }
}

// --- record kinds -----------------------------------------------------

/// A netlist: its name, net names, ports and one line per cell, a BRAM's
/// image as one bit-packed token (`m` glued to [`Writer::image`]'s
/// digits). The placement keys do not hash these bytes but
/// [`encode_netlist`]'s material, which covers the same fields.
impl Record for Netlist {
    fn write(&self, w: &mut Writer) {
        w.line("netlist").tok(esc(&self.name));
        w.line("nets").tok(self.num_nets());
        for i in 0..self.num_nets() {
            w.line("t").tok(esc(self.net_name(NetId(i as u32))));
        }
        for (name, id) in self.inputs() {
            w.line("i").tok(esc(name)).net(*id);
        }
        for (name, id) in self.outputs() {
            w.line("o").tok(esc(name)).net(*id);
        }
        for cell in self.cells() {
            match cell {
                Cell::Lut {
                    inputs,
                    output,
                    truth,
                } => w
                    .line("L")
                    .net(*output)
                    .hex(*truth)
                    .list("", inputs, |w, &i| w.net(i)),
                Cell::Ff { d, q, ce, init } => w
                    .line("F")
                    .net(*d)
                    .net(*q)
                    .or_dash(*ce, Writer::net)
                    .tok(u8::from(*init)),
                Cell::Const { output, value } => w.line("C").net(*output).tok(u8::from(*value)),
                Cell::Bram {
                    shape,
                    addr,
                    dout,
                    en,
                    init,
                    output_init,
                } => w
                    .line("B")
                    .tok(shape.addr_bits)
                    .tok(shape.data_bits)
                    .or_dash(*en, Writer::net)
                    .hex(*output_init)
                    .list("a", addr, |w, &a| w.net(a))
                    .list("d", dout, |w, &d| w.net(d))
                    .image("m", init, shape.data_bits),
            };
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mut n = Netlist::new(r.line("netlist", Line::name)?);
        for _ in 0..r.line("nets", Line::num::<usize>)? {
            n.add_net(r.line("t", Line::name)?);
        }
        let port = |l: &mut Line<'_>| Some((l.name()?, l.net()?));
        while let Some((name, id)) = r.optional("i", port)? {
            n.add_input(name, id);
        }
        while let Some((name, id)) = r.optional("o", port)? {
            n.add_output(name, id);
        }
        while let Some(tag @ ("L" | "F" | "C" | "B")) = r.peek_tag() {
            let cell = r.line(tag, |l| match tag {
                "L" => Some(Cell::Lut {
                    output: l.net()?,
                    truth: l.hex()?,
                    inputs: l.list("", Line::net)?,
                }),
                "F" => Some(Cell::Ff {
                    d: l.net()?,
                    q: l.net()?,
                    ce: l.or_dash(Line::net)?,
                    init: l.bit()?,
                }),
                "C" => Some(Cell::Const {
                    output: l.net()?,
                    value: l.bit()?,
                }),
                _ => {
                    let (addr_bits, data_bits) = (l.num::<usize>()?, l.num::<usize>()?);
                    let shape = BramShape::ALL
                        .into_iter()
                        .find(|s| s.addr_bits == addr_bits && s.data_bits == data_bits)?;
                    Some(Cell::Bram {
                        shape,
                        en: l.or_dash(Line::net)?,
                        output_init: l.hex()?,
                        addr: l.list("a", Line::net)?,
                        dout: l.list("d", Line::net)?,
                        init: l.image("m", shape.depth(), shape.data_bits)?,
                    })
                }
            })?;
            n.add_cell(cell);
        }
        Some(n)
    }
}

/// A cached flow front-end: the implementation netlist plus the metadata
/// [`crate::flow`] needs to rebuild an identical report.
#[derive(Debug)]
pub struct Frontend {
    /// The verified implementation netlist.
    pub netlist: Netlist,
    /// Clock-control overhead, for the gated/controlled variants.
    pub clock_control: Option<ClockControlStats>,
    /// `Downgrade::SynthBudgetExhausted` payload, when synthesis overran.
    pub synth_skipped_functions: Option<usize>,
    /// When the producing run could only *sample* rewrite verification
    /// (inputs too wide for the exhaustive proof), the machine's input
    /// count — replayed as a `Downgrade::VerifySampled` on every hit.
    /// `None` means the artifact was proven exhaustively (or predates
    /// the rewrite path, e.g. FF front-ends).
    pub verify_sampled_inputs: Option<usize>,
}

/// A `frontend 1` header, the optional `cc`, `skipped` and `sampled`
/// lines in that order, then the netlist.
impl Record for Frontend {
    fn write(&self, w: &mut Writer) {
        w.line("frontend").tok("1");
        if let Some(cc) = self.clock_control {
            w.line("cc").tok(cc.luts).tok(cc.slices).tok(cc.idle_cubes);
        }
        if let Some(k) = self.synth_skipped_functions {
            w.line("skipped").tok(k);
        }
        if let Some(n) = self.verify_sampled_inputs {
            w.line("sampled").tok(n);
        }
        self.netlist.write(w);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.line("frontend", |l| l.lit("1"))?;
        let clock_control = r.optional("cc", |l| {
            Some(ClockControlStats {
                luts: l.num()?,
                slices: l.num()?,
                idle_cubes: l.num()?,
            })
        })?;
        Some(Frontend {
            clock_control,
            synth_skipped_functions: r.optional("skipped", Line::num)?,
            verify_sampled_inputs: r.optional("sampled", Line::num)?,
            netlist: Netlist::read(r)?,
        })
    }
}

/// The device, exact HPWL bits, move count, budget outcome and the CLB,
/// BRAM and IOB site lists.
impl Record for Placement {
    fn write(&self, w: &mut Writer) {
        w.line("placement").tok("1").tok(self.device.name);
        w.line("hpwl").f64(self.hpwl).f64(self.hpwl_sq);
        w.line("moves").tok(self.moves);
        match self.budget {
            BudgetOutcome::Completed => w.line("budget").tok("completed"),
            BudgetOutcome::Exhausted { spent } => w.line("budget").tok("exhausted").tok(spent),
        };
        for (tag, locs) in [
            ("clb", &self.clb_loc),
            ("bram", &self.bram_loc),
            ("iob", &self.iob_loc),
        ] {
            w.line(tag).list("", locs, Writer::xy);
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let device = r.line("placement", |l| {
            l.lit("1")?;
            Device::by_name(l.tok()?)
        })?;
        let (hpwl, hpwl_sq) = r.line("hpwl", |l| Some((l.f64()?, l.f64()?)))?;
        Some(Placement {
            device,
            hpwl,
            hpwl_sq,
            moves: r.line("moves", Line::num)?,
            budget: r.line("budget", |l| match l.tok()? {
                "completed" => Some(BudgetOutcome::Completed),
                "exhausted" => Some(BudgetOutcome::Exhausted { spent: l.num()? }),
                _ => None,
            })?,
            clb_loc: r.line("clb", |l| l.list("", Line::xy))?,
            bram_loc: r.line("bram", |l| l.list("", Line::xy))?,
            iob_loc: r.line("iob", |l| l.list("", Line::xy))?,
        })
    }
}

/// An `ecoplace 1` header with the pin and delta evidence, then the
/// placement.
impl Record for EcoPlacement {
    fn write(&self, w: &mut Writer) {
        w.line("ecoplace")
            .tok("1")
            .tok(self.pinned_entities)
            .tok(self.delta_entities)
            .f64(self.delta_hpwl);
        self.placement.write(w);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let (pinned_entities, delta_entities, delta_hpwl) = r.line("ecoplace", |l| {
            l.lit("1")?;
            Some((l.num()?, l.num()?, l.f64()?))
        })?;
        Some(EcoPlacement {
            placement: Placement::read(r)?,
            pinned_entities,
            delta_entities,
            delta_hpwl,
        })
    }
}

/// A cached overlay base: the one-time physical design of an overlay
/// class's zeroed netlist. The placement and routing stay valid for
/// every member of the class — content rewrites change no structure —
/// so a hit skips place *and* route for the per-FSM compile.
#[derive(Debug, Clone)]
pub struct OverlayBase {
    /// The base placement (carries the device and the budget outcome,
    /// replayed as downgrades on every hit).
    pub placement: Placement,
    /// The base routing for exactly that placement.
    pub routed: RoutedDesign,
}

/// An `ovlbase 1` header with the routing totals and the route count, one
/// `r` line per net (`-` for an unrouted one), then the placement.
impl Record for OverlayBase {
    fn write(&self, w: &mut Writer) {
        let routed = &self.routed;
        w.line("ovlbase")
            .tok("1")
            .tok(routed.total_wirelength)
            .tok(routed.peak_usage)
            .tok(routed.routes.len());
        for route in &routed.routes {
            w.line("r").or_dash(route.as_ref(), |w, r| {
                w.tok(r.wirelength)
                    .tok(r.switches)
                    .list("", &r.tiles, Writer::xy)
            });
        }
        self.placement.write(w);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let (total_wirelength, peak_usage, count) = r.line("ovlbase", |l| {
            l.lit("1")?;
            Some((l.num()?, l.num()?, l.num::<usize>()?))
        })?;
        let routes = (0..count)
            .map(|_| {
                r.line("r", |l| {
                    l.or_dash(|l| {
                        Some(NetRoute {
                            wirelength: l.num()?,
                            switches: l.num()?,
                            tiles: l.list("", Line::xy)?,
                        })
                    })
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(OverlayBase {
            placement: Placement::read(r)?,
            routed: RoutedDesign {
                routes,
                total_wirelength,
                peak_usage,
            },
        })
    }
}

// --- load and store ---------------------------------------------------

/// The `R` record under `key` if one decodes and `accept` takes it,
/// counted as a hit; anything else is counted as a miss.
fn fetch<R: Record>(key: &Key, accept: impl FnOnce(&R) -> bool) -> Option<R> {
    let found = lookup_raw(key)
        .and_then(|bytes| decode::<R>(&bytes))
        .filter(accept);
    note(found.is_some());
    found
}

/// Looks up an `R` record, counting a hit or a miss.
fn load<R: Record>(key: &Key) -> Option<R> {
    fetch(key, |_| true)
}

/// Publishes an `R` record.
fn store<R: Record>(key: &Key, record: &R) {
    store_raw(key, encode(record));
}

/// The `accept` of a [`cached`] lookup that takes any record that decodes.
pub(crate) fn always<R>(_: &R) -> bool {
    true
}

/// The one lookup the flow makes: the `R` record under `key` when one
/// decodes and `accept` takes it (`true`: a hit), else what `build`
/// returns, stored (`false`: a miss).
///
/// A miss is any of: no record under `key`, a record that does not decode
/// (truncated, from an older layout, hand-edited), or a record that
/// decodes but that `accept` refuses. Each is counted as a miss and
/// replaced by what `build` returns.
///
/// # Errors
///
/// `build`'s error. A failed `build` stores nothing, so the next lookup
/// under `key` misses and builds again.
pub(crate) fn cached<R: Record, E>(
    key: &Key,
    accept: impl FnOnce(&R) -> bool,
    build: impl FnOnce() -> Result<R, E>,
) -> Result<(R, bool), E> {
    if let Some(record) = fetch(key, accept) {
        return Ok((record, true));
    }
    let record = build()?;
    store(key, &record);
    Ok((record, false))
}

/// The 128-bit key material of `n` that [`place_key`],
/// [`eco_place_key`] and [`overlay_base_key`] hash: a digest of its
/// fields (see [`NETLIST_KEY_VERSION`]), BRAM images included, built
/// without formatting any text. Not the bytes of `n`'s record. Kept by
/// name: the benchmark's replay calls it.
#[must_use]
pub fn encode_netlist(n: &Netlist) -> Vec<u8> {
    netlist_material(n, &n.name, false)
}

/// The key material of `n`'s overlay class base — `n` with every BRAM
/// image zeroed and renamed `class_label` — without building that
/// netlist: equal to `encode_netlist` of
/// [`Netlist::with_zeroed_bram_init`] renamed to `class_label`.
pub(crate) fn overlay_base_material(n: &Netlist, class_label: &str) -> Vec<u8> {
    netlist_material(n, class_label, true)
}

/// Looks up a front-end record, counting a hit or miss. Kept by name:
/// the benchmark's replay calls it.
#[must_use]
pub fn load_frontend(key: &Key) -> Option<Frontend> {
    load(key)
}

/// Publishes a front-end record. Kept by name: the benchmark's
/// replay calls it.
pub fn store_frontend(
    key: &Key,
    netlist: &Netlist,
    clock_control: Option<ClockControlStats>,
    synth_skipped_functions: Option<usize>,
    verify_sampled_inputs: Option<usize>,
) {
    store(
        key,
        &Frontend {
            netlist: netlist.clone(),
            clock_control,
            synth_skipped_functions,
            verify_sampled_inputs,
        },
    );
}

/// Looks up a placement record, counting a hit or miss. Kept by name:
/// the benchmark's replay calls it.
#[must_use]
pub fn load_placement(key: &Key) -> Option<Placement> {
    load(key)
}

/// Publishes a placement record. Kept by name: the benchmark's
/// replay calls it.
pub fn store_placement(key: &Key, placement: &Placement) {
    store(key, placement);
}

/// Looks up an ECO placement record, counting a hit or miss. Kept by
/// name: the benchmark's replay calls it.
#[must_use]
pub fn load_eco_placement(key: &Key) -> Option<EcoPlacement> {
    load(key)
}

/// Publishes an ECO placement record. Kept by name: the benchmark's
/// replay calls it.
pub fn store_eco_placement(key: &Key, placement: &EcoPlacement) {
    store(key, placement);
}

/// Looks up an overlay base record, counting a hit or miss. Kept by
/// name: the benchmark's replay calls it.
#[must_use]
pub fn load_overlay_base(key: &Key) -> Option<OverlayBase> {
    load(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_model::benchmarks::sequence_detector_0101;

    #[test]
    fn netlist_roundtrips_through_codec() {
        let stg = sequence_detector_0101();
        let emb = crate::map::map_fsm_into_embs(&stg, &crate::map::EmbOptions::default()).unwrap();
        let n = emb.to_netlist();
        let bytes = encode(&n);
        let back = decode::<Netlist>(&bytes).unwrap();
        assert_eq!(n.name, back.name);
        assert_eq!(n.num_nets(), back.num_nets());
        assert_eq!(n.cells(), back.cells());
        assert_eq!(n.inputs(), back.inputs());
        assert_eq!(n.outputs(), back.outputs());
        // Encoding is stable: same netlist, same bytes, same key.
        assert_eq!(bytes, encode(&back));
        assert_eq!(encode_netlist(&n), encode_netlist(&back));
    }

    /// A netlist's fields, mutable one by one, then assembled.
    #[derive(Clone)]
    struct Parts {
        name: String,
        nets: Vec<String>,
        inputs: Vec<(String, NetId)>,
        outputs: Vec<(String, NetId)>,
        cells: Vec<Cell>,
    }

    impl Parts {
        /// One cell of every kind, every optional pin present, and a BRAM
        /// of `shape` holding `init`.
        fn with_bram(shape: BramShape, init: Vec<u64>) -> Parts {
            let net = NetId;
            Parts {
                name: "sample".into(),
                nets: (0..24).map(|i| format!("n{i}")).collect(),
                inputs: vec![("a".into(), net(0)), ("b".into(), net(1))],
                outputs: vec![("y".into(), net(2)), ("z".into(), net(5))],
                cells: vec![
                    Cell::Lut {
                        inputs: vec![net(0), net(1)],
                        output: net(4),
                        truth: 0b0110,
                    },
                    Cell::Ff {
                        d: net(4),
                        q: net(5),
                        ce: Some(net(1)),
                        init: false,
                    },
                    Cell::Const {
                        output: net(6),
                        value: false,
                    },
                    Cell::Bram {
                        shape,
                        addr: (0..shape.addr_bits)
                            .map(|i| net([0, 1, 4, 5, 6][i % 5]))
                            .collect(),
                        dout: [net(2), net(3)][..shape.data_bits.min(2)].to_vec(),
                        en: Some(net(0)),
                        init,
                        output_init: 0b01,
                    },
                ],
            }
        }

        fn sample() -> Parts {
            let shape = BramShape::ALL[0];
            let init = (0..shape.depth() as u64)
                .map(|w| w * 0x9e37 % (1 << 36))
                .collect();
            Parts::with_bram(shape, init)
        }

        fn build(&self) -> Netlist {
            let mut n = Netlist::new(self.name.clone());
            for name in &self.nets {
                n.add_net(name.clone());
            }
            for (name, id) in &self.inputs {
                n.add_input(name.clone(), *id);
            }
            for (name, id) in &self.outputs {
                n.add_output(name.clone(), *id);
            }
            for cell in &self.cells {
                n.add_cell(cell.clone());
            }
            n
        }
    }

    /// A named edit of one field.
    type Change = (&'static str, fn(&mut Parts));

    /// Every one-field change of [`Parts::sample`], by name.
    fn one_field_changes() -> Vec<Change> {
        fn lut(p: &mut Parts) -> (&mut Vec<NetId>, &mut NetId, &mut u64) {
            match &mut p.cells[0] {
                Cell::Lut {
                    inputs,
                    output,
                    truth,
                } => (inputs, output, truth),
                other => panic!("cell 0 is {other:?}"),
            }
        }
        fn ff(p: &mut Parts) -> (&mut NetId, &mut NetId, &mut Option<NetId>, &mut bool) {
            match &mut p.cells[1] {
                Cell::Ff { d, q, ce, init } => (d, q, ce, init),
                other => panic!("cell 1 is {other:?}"),
            }
        }
        fn konst(p: &mut Parts) -> (&mut NetId, &mut bool) {
            match &mut p.cells[2] {
                Cell::Const { output, value } => (output, value),
                other => panic!("cell 2 is {other:?}"),
            }
        }
        type BramFields<'a> = (
            &'a mut BramShape,
            &'a mut Vec<NetId>,
            &'a mut Vec<NetId>,
            &'a mut Option<NetId>,
            &'a mut Vec<u64>,
            &'a mut u64,
        );
        fn bram(p: &mut Parts) -> BramFields<'_> {
            match &mut p.cells[3] {
                Cell::Bram {
                    shape,
                    addr,
                    dout,
                    en,
                    init,
                    output_init,
                } => (shape, addr, dout, en, init, output_init),
                other => panic!("cell 3 is {other:?}"),
            }
        }
        vec![
            ("name", |p| p.name.push('x')),
            ("net name", |p| p.nets[9].push('x')),
            ("net count", |p| p.nets.push("extra".into())),
            ("input name", |p| p.inputs[1].0.push('x')),
            ("input net", |p| p.inputs[1].1 = NetId(20)),
            ("input order", |p| p.inputs.swap(0, 1)),
            ("output name", |p| p.outputs[0].0.push('x')),
            ("output net", |p| p.outputs[0].1 = NetId(20)),
            ("output order", |p| p.outputs.swap(0, 1)),
            ("port direction", |p| {
                let port = p.outputs.remove(1);
                p.inputs.push(port);
            }),
            ("cell order", |p| p.cells.swap(0, 2)),
            ("LUT output", |p| *lut(p).1 = NetId(20)),
            ("LUT truth bit", |p| *lut(p).2 ^= 0b1000),
            ("LUT input net", |p| lut(p).0[1] = NetId(20)),
            ("LUT input order", |p| lut(p).0.swap(0, 1)),
            ("LUT input count", |p| lut(p).0.push(NetId(20))),
            ("FF d", |p| *ff(p).0 = NetId(20)),
            ("FF q", |p| *ff(p).1 = NetId(20)),
            ("FF ce net", |p| *ff(p).2 = Some(NetId(20))),
            ("FF ce absent", |p| *ff(p).2 = None),
            ("FF init", |p| *ff(p).3 ^= true),
            ("const output", |p| *konst(p).0 = NetId(20)),
            ("const value", |p| *konst(p).1 ^= true),
            ("BRAM shape", |p| *bram(p).0 = BramShape::ALL[1]),
            ("BRAM address net", |p| bram(p).1[3] = NetId(20)),
            ("BRAM address order", |p| bram(p).1.swap(0, 1)),
            ("BRAM data net", |p| bram(p).2[1] = NetId(20)),
            ("BRAM data count", |p| bram(p).2.push(NetId(20))),
            ("BRAM enable net", |p| *bram(p).3 = Some(NetId(20))),
            ("BRAM enable absent", |p| *bram(p).3 = None),
            ("BRAM init word count", |p| bram(p).4.push(0)),
            ("BRAM init top bit", |p| bram(p).4[511] ^= 1 << 35),
            ("BRAM init bottom bit", |p| bram(p).4[0] ^= 1),
            ("BRAM output_init bit", |p| *bram(p).5 ^= 1 << 20),
        ]
    }

    #[test]
    fn key_material_separates_every_one_field_change() {
        let base = Parts::sample();
        let mut seen = vec![("unchanged", encode_netlist(&base.build()))];
        assert_eq!(seen[0].1.len(), 16, "128-bit key material");
        for (field, change) in one_field_changes() {
            let mut p = base.clone();
            change(&mut p);
            let material = encode_netlist(&p.build());
            if let Some((other, _)) = seen.iter().find(|(_, m)| *m == material) {
                panic!("changing the {field} leaves the material of {other:?}");
            }
            seen.push((field, material));
        }
    }

    #[test]
    fn key_material_is_equal_for_equal_netlists() {
        let n = Parts::sample().build();
        let material = encode_netlist(&n);
        assert_eq!(material, encode_netlist(&Parts::sample().build()));
        assert_eq!(material, encode_netlist(&n.clone()));
        let back = decode::<Netlist>(&encode(&n)).unwrap();
        assert_eq!(material, encode_netlist(&back));
        // A bit at or above `data_bits` is not part of the image: the
        // key ignores it as the record does, and `validate` refuses it.
        let mut p = Parts::sample();
        if let Cell::Bram { init, .. } = &mut p.cells[3] {
            init[7] |= 1 << 36;
        }
        let wide = p.build();
        assert!(wide.validate().is_err());
        assert_eq!(material, encode_netlist(&wide));
    }

    #[test]
    fn overlay_base_material_is_the_built_base_material() {
        use fsm_model::generate::{generate, StgSpec};
        xrand::proptest_lite::run_cases(24, |rng| {
            let spec = StgSpec {
                states: rng.random_range(1usize..=40),
                inputs: rng.random_range(0usize..=9),
                outputs: rng.random_range(1usize..=4),
                transitions: rng.random_range(1usize..=48),
                seed: rng.random(),
                ..StgSpec::new("member")
            };
            let members: Vec<_> = [spec.seed, spec.seed ^ 0x5eed]
                .into_iter()
                .filter_map(|seed| {
                    generate(&StgSpec {
                        seed,
                        ..spec.clone()
                    })
                    .ok()
                })
                .filter_map(|stg| crate::overlay::overlay_fsm(&stg).ok())
                .collect();
            let mut bases = Vec::new();
            for ovl in &members {
                let n = ovl.fsm_netlist();
                let label = ovl.class.label();
                let mut base = n.with_zeroed_bram_init();
                base.name = label.clone();
                let material = overlay_base_material(&n, &label);
                // The replay's construction, and the overlay module's.
                assert_eq!(material, encode_netlist(&base));
                assert_eq!(material, encode_netlist(&ovl.base_netlist()));
                bases.push((label, material));
            }
            // Two machines of one class share one base.
            if let [(l1, m1), (l2, m2)] = bases.as_slice() {
                assert_eq!(l1 == l2, m1 == m2, "{l1} vs {l2}");
            }
        });
    }

    /// The `m` token of the record's first `B` line.
    fn image_token(text: &str) -> &str {
        let line = text.lines().find(|l| l.starts_with("B ")).unwrap();
        line.split(' ').find(|t| t.starts_with('m')).unwrap()
    }

    #[test]
    fn packed_images_roundtrip_on_every_shape() {
        let mut rng = xrand::SmallRng::seed_from_u64(0x1a6e);
        for shape in BramShape::ALL {
            let mask = (1u64 << shape.data_bits) - 1;
            let images = [
                // The top word set, so no digit is left out.
                (1..shape.depth())
                    .map(|_| rng.random::<u64>() & mask)
                    .chain([mask])
                    .collect(),
                vec![0; shape.depth()],
                vec![mask; shape.depth()],
                // Runs of zero words, which the packer skips 64 at a time.
                (0..shape.depth())
                    .map(|i| match i % 300 {
                        0..100 => 0,
                        100..200 => rng.random::<u64>() & mask,
                        _ => 1,
                    })
                    .chain([mask])
                    .skip(1)
                    .collect(),
            ];
            // Images with the top word set need every digit; an all-zero
            // image needs none.
            let digits = shape.depth() * shape.data_bits / 4;
            for (init, len) in images.into_iter().zip([digits, 0, digits, digits]) {
                let n = Parts::with_bram(shape, init).build();
                assert!(n.validate().is_ok());
                let text = String::from_utf8(encode(&n)).unwrap();
                assert_eq!(image_token(&text).len(), 1 + len, "{shape}");
                let back = decode::<Netlist>(text.as_bytes()).unwrap();
                assert_eq!(back.cells(), n.cells(), "{shape}");
            }
        }
    }

    #[test]
    fn malformed_images_are_a_miss() {
        let text = String::from_utf8(encode(&Parts::sample().build())).unwrap();
        assert!(decode::<Netlist>(text.as_bytes()).is_some());
        let token = image_token(&text);
        let digits = &token[1..];
        for (what, bad) in [
            ("a trailing zero digit", format!("{token}0")),
            ("a non-hex digit", format!("mg{}", &digits[1..])),
            ("an uppercase digit", format!("mA{}", &digits[1..])),
            ("no prefix", digits.to_string()),
            ("the old word list", format!("m{}", "0 ".repeat(511) + "0")),
        ] {
            let patched = text.replacen(token, &bad, 1);
            assert_ne!(patched, text, "{what}");
            assert!(
                decode::<Netlist>(patched.as_bytes()).is_none(),
                "{what} decoded"
            );
        }
        // Three 9-bit words are 27 bits in 7 digits: the top bit of the
        // last digit is padding and must be zero, and an eighth digit is
        // past the image.
        let mut w = Writer::default();
        w.line("x").image("m", &[0x1ff, 0, 0x155], 9);
        let token = w.text.strip_prefix("x ").unwrap();
        assert_eq!(token, "mff10455");
        let read = |t: &str| Line { toks: t.split(' ') }.image("m", 3, 9);
        assert_eq!(read(token), Some(vec![0x1ff, 0, 0x155]));
        assert_eq!(read("mff1045d"), None, "a padding bit set");
        assert_eq!(read("mff104551"), None, "a digit past the image");
        // Trailing zero digits are left out, down to none at all.
        for (words, token) in [([0x1ff, 0x10, 0], "mff12"), ([0; 3], "m")] {
            let mut w = Writer::default();
            w.line("x").image("m", &words, 9);
            assert_eq!(w.text.strip_prefix("x "), Some(token));
            assert_eq!(read(token), Some(words.to_vec()));
            assert_eq!(read(&format!("{token}0")), None, "{token}0");
        }
    }

    /// `text` with `tail` appended to every line that starts with `tag`.
    fn patched(text: &str, tag: &str, tail: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            out.push_str(line);
            if line.starts_with(tag) {
                out.push_str(tail);
            }
            out.push('\n');
        }
        assert_ne!(out, text, "the record has a {tag:?} line");
        out
    }

    /// A placement with every site list non-empty.
    fn sample_placement(budget: BudgetOutcome) -> Placement {
        Placement {
            device: Device::xc2v250(),
            clb_loc: vec![(1, 2), (3, 4)],
            bram_loc: vec![(0, 5)],
            iob_loc: vec![(0, 0), (0, 1), (0, 2)],
            hpwl: 12.5,
            hpwl_sq: 80.25,
            moves: 321,
            budget,
        }
    }

    /// An overlay base with a routed and two unrouted nets.
    fn sample_overlay_base() -> OverlayBase {
        OverlayBase {
            placement: sample_placement(BudgetOutcome::Exhausted { spent: 50 }),
            routed: RoutedDesign {
                routes: vec![
                    None,
                    Some(NetRoute {
                        tiles: vec![(1, 1), (1, 2), (2, 2)],
                        wirelength: 2,
                        switches: 3,
                    }),
                    None,
                ],
                total_wirelength: 2,
                peak_usage: 4,
            },
        }
    }

    /// Asserts that `record` decodes as an `R` and that each `(tag, tail)`
    /// patch of it does not.
    fn assert_patches_miss<R: Record>(record: &R, patches: &[(&str, &str)]) {
        let text = String::from_utf8(encode(record)).unwrap();
        assert!(decode::<R>(text.as_bytes()).is_some());
        for &(tag, tail) in patches {
            assert!(
                decode::<R>(patched(&text, tag, tail).as_bytes()).is_none(),
                "{tag:?} line with {tail:?} appended decoded"
            );
        }
    }

    #[test]
    fn trailing_tokens_are_a_miss() {
        let stg = sequence_detector_0101();
        let opts = crate::map::EmbOptions::default();
        let emb = crate::map::map_fsm_into_embs(&stg, &opts).unwrap();
        // The clock-controlled netlist: the BRAM and its ground constant
        // plus the enable cone's LUTs.
        let (gated, control) =
            crate::clock_control::attach_emb_clock_control(&emb, opts.lut_map).unwrap();
        // The older write-port tail after a BRAM's memory words: nine
        // write address nets, one data net, then the write enable.
        let write_port = format!(" W9{} D1 0 0", " 0".repeat(9));
        assert_patches_miss(
            &gated,
            &[
                ("B ", &write_port),
                // The ground constant that pads the BRAM's unused address
                // pins.
                ("C ", " 0"),
                // A net id after a LUT's counted inputs: one more input,
                // were the count not there.
                ("L ", " 0"),
                // A raw space inside a net name.
                ("t ", " x"),
                // A line after the last cell.
                ("C ", "\nC 0 0 0"),
            ],
        );
        let fe = Frontend {
            netlist: gated,
            clock_control: Some(ClockControlStats {
                luts: control.num_luts(),
                slices: control.num_slices(),
                idle_cubes: control.idle_cubes,
            }),
            synth_skipped_functions: Some(2),
            verify_sampled_inputs: Some(21),
        };
        assert_patches_miss(
            &fe,
            &[
                ("frontend ", " 1"),
                ("cc ", " 0"),
                ("skipped ", " 0"),
                ("sampled ", " 0"),
            ],
        );
        // A front-end record without its header.
        let text = String::from_utf8(encode(&fe)).unwrap();
        let headless = text.split_once('\n').unwrap().1;
        assert!(decode::<Frontend>(headless.as_bytes()).is_none());
        let placement = sample_placement(BudgetOutcome::Completed);
        assert_patches_miss(
            &placement,
            &[
                ("placement ", " 1"),
                ("hpwl ", " 0"),
                ("budget ", " 0"),
                ("clb ", " 0"),
                ("iob ", "\niob 0"),
            ],
        );
        let eco = EcoPlacement {
            placement,
            pinned_entities: 4,
            delta_entities: 2,
            delta_hpwl: 3.5,
        };
        assert_patches_miss(&eco, &[("ecoplace ", " 0"), ("bram ", " 0")]);
        assert_patches_miss(
            &sample_overlay_base(),
            &[("ovlbase ", " 0"), ("r ", " 0"), ("iob ", "\niob 0")],
        );
    }

    #[test]
    fn frontend_record_roundtrips() {
        let stg = sequence_detector_0101();
        let emb = crate::map::map_fsm_into_embs(&stg, &crate::map::EmbOptions::default()).unwrap();
        let n = emb.to_netlist();
        let cc = ClockControlStats {
            luts: 3,
            slices: 2,
            idle_cubes: 5,
        };
        let fe = |clock_control, synth_skipped_functions, verify_sampled_inputs| Frontend {
            netlist: n.clone(),
            clock_control,
            synth_skipped_functions,
            verify_sampled_inputs,
        };
        let back = decode::<Frontend>(&encode(&fe(Some(cc), Some(7), None))).unwrap();
        assert_eq!(back.clock_control, Some(cc));
        assert_eq!(back.synth_skipped_functions, Some(7));
        assert_eq!(back.netlist.cells(), n.cells());
        let plain = decode::<Frontend>(&encode(&fe(None, None, None))).unwrap();
        assert_eq!(plain.clock_control, None);
        assert_eq!(plain.synth_skipped_functions, None);
        assert!(decode::<Frontend>(b"garbage").is_none());
    }

    #[test]
    fn frontend_sampled_flag_roundtrips() {
        let stg = sequence_detector_0101();
        let emb = crate::map::map_fsm_into_embs(&stg, &crate::map::EmbOptions::default()).unwrap();
        let fe = |verify_sampled_inputs| Frontend {
            netlist: emb.to_netlist(),
            clock_control: None,
            synth_skipped_functions: None,
            verify_sampled_inputs,
        };
        let back = decode::<Frontend>(&encode(&fe(Some(21)))).unwrap();
        assert_eq!(back.verify_sampled_inputs, Some(21));
        let proven = decode::<Frontend>(&encode(&fe(None))).unwrap();
        assert_eq!(proven.verify_sampled_inputs, None);
    }

    #[test]
    fn keys_separate_kinds_options_and_machines() {
        let a = sequence_detector_0101();
        let b = fsm_model::benchmarks::traffic_light();
        let k1 = ff_frontend_key("ff", &a, SynthOptions::default(), false);
        let k2 = ff_frontend_key("ffg", &a, SynthOptions::default(), false);
        let k3 = ff_frontend_key("ff", &b, SynthOptions::default(), false);
        let k4 = ff_frontend_key("ff", &a, SynthOptions::default(), true);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k1, k4);
        assert_eq!(
            k1,
            ff_frontend_key("ff", &a, SynthOptions::default(), false)
        );
        let e1 = emb_frontend_key("emb", &a, &crate::map::EmbOptions::default(), false);
        let e2 = emb_frontend_key(
            "emb",
            &a,
            &crate::map::EmbOptions {
                allow_compaction: false,
                ..crate::map::EmbOptions::default()
            },
            false,
        );
        assert_ne!(e1, e2);
    }

    #[test]
    fn eco_placement_record_roundtrips() {
        let eco = EcoPlacement {
            placement: sample_placement(BudgetOutcome::Completed),
            pinned_entities: 4,
            delta_entities: 2,
            delta_hpwl: 3.5,
        };
        let back = decode::<EcoPlacement>(&encode(&eco)).unwrap();
        assert_eq!(back.pinned_entities, 4);
        assert_eq!(back.delta_entities, 2);
        assert_eq!(back.delta_hpwl, 3.5);
        assert_eq!(back.placement.clb_loc, eco.placement.clb_loc);
        assert_eq!(back.placement.iob_loc, eco.placement.iob_loc);
        assert!(decode::<EcoPlacement>(b"nonsense").is_none());
    }

    #[test]
    fn eco_keys_depend_on_the_base_digest() {
        let device = Device::xc2v250();
        let bytes = b"netlist-bytes";
        let d1 = coords_digest(&[(1, 2)], &[], &[(0, 0)]);
        let d2 = coords_digest(&[(1, 3)], &[], &[(0, 0)]);
        assert_ne!(d1, d2, "different coordinates, different digest");
        assert_eq!(d1, coords_digest(&[(1, 2)], &[], &[(0, 0)]));
        // Kind boundaries cannot alias: a CLB at (1,2) is not a BRAM there.
        assert_ne!(
            coords_digest(&[(1, 2)], &[], &[]),
            coords_digest(&[], &[(1, 2)], &[])
        );
        let k1 = eco_place_key(bytes, &device, PlaceOptions::default(), &d1);
        let k2 = eco_place_key(bytes, &device, PlaceOptions::default(), &d2);
        assert_ne!(k1, k2, "a different base placement must miss");
        assert_eq!(
            k1,
            eco_place_key(bytes, &device, PlaceOptions::default(), &d1)
        );
        assert_ne!(k1, place_key(bytes, &device, PlaceOptions::default()));
    }

    #[test]
    fn overlay_base_record_roundtrips() {
        let base = sample_overlay_base();
        let back = decode::<OverlayBase>(&encode(&base)).unwrap();
        assert_eq!(back.routed.total_wirelength, 2);
        assert_eq!(back.routed.peak_usage, 4);
        assert_eq!(back.routed.routes.len(), 3);
        assert!(back.routed.routes[0].is_none());
        let r = back.routed.routes[1].as_ref().unwrap();
        assert_eq!(r.tiles, vec![(1, 1), (1, 2), (2, 2)]);
        assert_eq!(r.wirelength, 2);
        assert_eq!(r.switches, 3);
        assert_eq!(back.placement.bram_loc, base.placement.bram_loc);
        assert!(matches!(
            back.placement.budget,
            BudgetOutcome::Exhausted { spent: 50 }
        ));
        assert!(decode::<OverlayBase>(b"nonsense").is_none());
    }

    #[test]
    fn overlay_base_keys_depend_on_route_options() {
        let device = Device::xc2v250();
        let bytes = b"base-netlist-bytes";
        let k1 = overlay_base_key(
            bytes,
            &device,
            PlaceOptions::default(),
            RouteOptions::default(),
        );
        let k2 = overlay_base_key(
            bytes,
            &device,
            PlaceOptions::default(),
            RouteOptions {
                max_expansions: 1234,
                ..RouteOptions::default()
            },
        );
        assert_ne!(k1, k2, "route budget must be keyed");
        let k3 = overlay_base_key(
            b"other-base",
            &device,
            PlaceOptions::default(),
            RouteOptions::default(),
        );
        assert_ne!(k1, k3, "base netlist bytes must be keyed");
        assert_eq!(
            k1,
            overlay_base_key(
                bytes,
                &device,
                PlaceOptions::default(),
                RouteOptions::default()
            )
        );
        assert_ne!(k1, place_key(bytes, &device, PlaceOptions::default()));
    }

    #[test]
    fn unit_tests_use_a_fresh_private_store() {
        let dir = config()
            .dir
            .as_ref()
            .expect("the unit-test store is on disk");
        assert!(dir.starts_with(std::env::temp_dir()), "{}", dir.display());
        assert!(!dir.starts_with(workspace_root()), "{}", dir.display());
    }

    #[test]
    fn a_refused_record_is_a_miss_rebuilt_and_stored() {
        let key = place_key(
            b"refused-record",
            &Device::xc2v250(),
            PlaceOptions::default(),
        );
        let stale = sample_placement(BudgetOutcome::Completed);
        let fresh = sample_placement(BudgetOutcome::Exhausted { spent: 9 });
        store(&key, &stale);
        let refused = load::<Placement>(&key).map(|p| p.budget);
        assert_eq!(refused, Some(stale.budget), "the stale record decodes");
        let before = stats_snapshot();
        let mut builds = 0;
        let (got, hit) = cached(
            &key,
            |_: &Placement| false,
            || {
                builds += 1;
                Ok::<_, ()>(fresh.clone())
            },
        )
        .unwrap();
        let traffic = stats_snapshot().since(before);
        assert!(!hit, "a refused record is not a hit");
        assert_eq!((traffic.hits, traffic.misses), (0, 1));
        assert_eq!(builds, 1);
        assert_eq!(got.budget, fresh.budget);
        // The rebuilt record replaced the refused one in the store.
        let stored: Placement = load(&key).unwrap();
        assert_eq!(stored.budget, fresh.budget);
    }

    #[test]
    fn place_keys_depend_on_the_timing_knobs() {
        let device = Device::xc2v250();
        let bytes = b"netlist-bytes";
        let base = place_key(bytes, &device, PlaceOptions::default());
        let weightless = place_key(
            bytes,
            &device,
            PlaceOptions {
                timing_weight: 0.0,
                ..PlaceOptions::default()
            },
        );
        assert_ne!(base, weightless, "timing weight must be keyed");
        let sharper = place_key(
            bytes,
            &device,
            PlaceOptions {
                crit_exp: 1.0,
                ..PlaceOptions::default()
            },
        );
        assert_ne!(base, sharper, "criticality exponent must be keyed");
        let slow_luts = place_key(
            bytes,
            &device,
            PlaceOptions {
                delay: fpga_fabric::timing::DelayModel {
                    lut: 9.9,
                    ..fpga_fabric::timing::DelayModel::default()
                },
                ..PlaceOptions::default()
            },
        );
        assert_ne!(base, slow_luts, "the delay model must be keyed");
        assert_eq!(base, place_key(bytes, &device, PlaceOptions::default()));
    }

    /// Writes a 100-byte record with a deterministic mtime `secs` past a
    /// fixed epoch offset, so LRU order is under the test's control.
    fn record_with_age(dir: &std::path::Path, name: &str, secs: u64) {
        let path = dir.join(format!("place_{name}.txt"));
        std::fs::write(&path, vec![b'x'; 100]).unwrap();
        let t =
            std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000 + secs);
        let f = std::fs::File::options().append(true).open(&path).unwrap();
        f.set_times(std::fs::FileTimes::new().set_modified(t))
            .unwrap();
    }

    #[test]
    fn eviction_deletes_least_recently_used_first() {
        let dir = std::env::temp_dir().join(format!("romfsm-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        record_with_age(&dir, "old", 0);
        record_with_age(&dir, "mid", 100);
        record_with_age(&dir, "new", 200);
        std::fs::write(dir.join("notes.md"), b"keep").unwrap();

        // 300 bytes of records fit a 300-byte budget: nothing deleted.
        enforce_budget(&dir, 300);
        assert!(dir.join("place_old.txt").exists());
        assert!(dir.join("place_mid.txt").exists());
        assert!(dir.join("place_new.txt").exists());

        // A 250-byte budget deletes exactly the least-recently-used one.
        enforce_budget(&dir, 250);
        assert!(!dir.join("place_old.txt").exists(), "LRU record survived");
        assert!(dir.join("place_mid.txt").exists());
        assert!(dir.join("place_new.txt").exists());
        assert!(dir.join("notes.md").exists(), "non-record file deleted");

        // A refreshed mtime protects an otherwise-cold record: after
        // touching `mid`, a one-record budget keeps it and evicts `new`.
        touch_record(&dir.join("place_mid.txt"));
        enforce_budget(&dir, 100);
        assert!(dir.join("place_mid.txt").exists(), "touched record evicted");
        assert!(!dir.join("place_new.txt").exists());

        // Zero budget clears every record, and only records.
        enforce_budget(&dir, 0);
        assert!(!dir.join("place_mid.txt").exists());
        assert!(dir.join("notes.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_tolerates_concurrent_deletion_without_over_evicting() {
        // A concurrent process unlinking a record between the scan and the
        // delete loop must count toward the budget: the pre-fix code kept
        // the stale total and deleted the *next* record too (over-evict).
        let dir =
            std::env::temp_dir().join(format!("romfsm-cache-race-del-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        record_with_age(&dir, "old", 0);
        record_with_age(&dir, "mid", 100);
        record_with_age(&dir, "new", 200);
        let (records, total) = scan_records(&dir).unwrap();
        assert_eq!(total, 300);
        // "Another process" evicts `old` after our scan.
        std::fs::remove_file(dir.join("place_old.txt")).unwrap();
        // Budget 250: deleting old alone suffices — and old is already
        // gone, so nothing else may be deleted in its place.
        evict_scanned(records, total, 250);
        assert!(
            dir.join("place_mid.txt").exists(),
            "over-evicted mid after a concurrent delete of old"
        );
        assert!(dir.join("place_new.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_skips_records_refreshed_after_the_scan() {
        // A concurrent hit refreshing a record's mtime between scan and
        // unlink promotes it out of LRU position: the evictor must re-stat
        // and skip it instead of deleting a record another process just
        // touched.
        let dir =
            std::env::temp_dir().join(format!("romfsm-cache-race-touch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        record_with_age(&dir, "old", 0);
        record_with_age(&dir, "mid", 100);
        record_with_age(&dir, "new", 200);
        let (records, total) = scan_records(&dir).unwrap();
        // "Another process" hits `old` after our scan.
        touch_record(&dir.join("place_old.txt"));
        evict_scanned(records, total, 250);
        assert!(
            dir.join("place_old.txt").exists(),
            "evicted a record a concurrent hit had refreshed"
        );
        // The budget is still enforced against the next-coldest record.
        assert!(!dir.join("place_mid.txt").exists());
        assert!(dir.join("place_new.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touch_is_enoent_safe_and_never_recreates_a_record() {
        let dir =
            std::env::temp_dir().join(format!("romfsm-cache-touch-enoent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let gone = dir.join("place_evicted.txt");
        touch_record(&gone); // no panic...
        assert!(!gone.exists(), "touch recreated an evicted record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_survives_a_missing_store() {
        // A store directory that vanished (or never existed) is a no-op,
        // not a panic.
        enforce_budget(std::path::Path::new("/nonexistent/romfsm-cache"), 10);
    }

    #[test]
    fn escaping_roundtrips() {
        for s in [
            "plain",
            "with space",
            "tab\tand\nnewline",
            "back\\slash",
            "",
        ] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        }
    }
}
