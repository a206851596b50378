//! Content-addressed flow-artifact cache (DESIGN.md §9.2).
//!
//! Every experiment binary walks the same nine benchmarks through the
//! same deterministic front-end (synthesize / map / verify) and the same
//! placer, so table2, table3 and the sweeps used to redo work table1 had
//! already finished. This module memoizes the two expensive artifact
//! classes behind stable content hashes:
//!
//! * **front-end netlists** — the implementation netlist a flow derives
//!   from an STG (the FF realization of the synthesized cover, the EMB
//!   mapped netlist, and their clock-controlled variants), together with
//!   the clock-control stats and synthesis-budget downgrades needed to
//!   rebuild the report. A hit skips synthesis/mapping *and* oracle
//!   verification: the artifact is addressed by every input that
//!   determines it, and it was verified by the run that produced it.
//! * **placements** — keyed by the encoded netlist bytes, the device,
//!   and the placement options, so the dominant pipeline stage runs once
//!   per distinct (netlist, device, options) triple across all binaries.
//!
//! The cache is two-level: a per-process map (so e.g. the idle sweep's
//! five stimulus levels share one placement within a run) over an
//! on-disk store under `results/cache/` (so separate binaries share
//! artifacts across processes). Artifacts are stored as self-describing
//! text records; a record that fails to decode — truncation, a version
//! bump, a hand edit — is treated as a miss and rewritten.
//!
//! **Invalidation** is by key construction, not by deletion: keys mix in
//! a format version, a per-stage algorithm version
//! ([`fpga_fabric::place::ALGORITHM_VERSION`] for placements,
//! [`FRONTEND_VERSION`] for netlists), and every option field. Changing
//! an algorithm or an option changes the key, and stale entries are
//! simply never addressed again. `results/cache/` can always be deleted
//! wholesale; nothing references it by name.
//!
//! Environment knobs:
//!
//! * `FLOW_CACHE=0` (or `off`) — bypass the cache entirely: every lookup
//!   misses without counting, nothing is stored. Flows recompute exactly
//!   as if this module did not exist.
//! * `FLOW_CACHE_DIR=<dir>` — on-disk store location (default
//!   `results/cache/` at the workspace root; relative paths resolve
//!   against the workspace root).
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
pub const FRONTEND_VERSION: u32 = 3;

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
/// only records that embed a netlist, and the placement, ECO and
/// overlay-base keys hash the encoded netlist, so they move with it.
const FORMAT_VERSION: u32 = 1;

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
    enabled: bool,
    dir: Option<PathBuf>,
    /// On-disk byte budget (`FLOW_CACHE_MAX_BYTES`); `None` = unlimited.
    max_bytes: Option<u64>,
}

fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let enabled = !matches!(
            std::env::var("FLOW_CACHE").as_deref(),
            Ok("0") | Ok("off") | Ok("OFF") | Ok("false")
        );
        let max_bytes = std::env::var("FLOW_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        let dir = if enabled {
            let d = std::env::var("FLOW_CACHE_DIR").map_or_else(
                |_| workspace_root().join("results").join("cache"),
                |d| {
                    let d = PathBuf::from(d);
                    if d.is_absolute() {
                        d
                    } else {
                        workspace_root().join(d)
                    }
                },
            );
            // A store we cannot create degrades to memory-only caching.
            std::fs::create_dir_all(&d).ok().map(|()| d)
        } else {
            None
        };
        Config {
            enabled,
            dir,
            max_bytes,
        }
    })
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

/// Key for a placement of the given (already encoded) netlist.
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

/// Key for an overlay base artifact: the zeroed base netlist bytes (the
/// class's content address — every member of an overlay class encodes to
/// the same bytes), the device, and every placement and routing option
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
    if !cfg.enabled {
        return None;
    }
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
    if !cfg.enabled {
        return;
    }
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

// --- netlist codec ----------------------------------------------------

/// Stable, self-describing text encoding of a netlist. Also the byte
/// stream [`place_key`] hashes, so "same netlist" and "same placement
/// key" coincide by construction.
#[must_use]
pub fn encode_netlist(n: &Netlist) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "netlist {}", esc(&n.name));
    let _ = writeln!(s, "nets {}", n.num_nets());
    for i in 0..n.num_nets() {
        let _ = writeln!(s, "t {}", esc(n.net_name(NetId(i as u32))));
    }
    for (name, id) in n.inputs() {
        let _ = writeln!(s, "i {} {}", esc(name), id.0);
    }
    for (name, id) in n.outputs() {
        let _ = writeln!(s, "o {} {}", esc(name), id.0);
    }
    for cell in n.cells() {
        match cell {
            Cell::Lut {
                inputs,
                output,
                truth,
            } => {
                let _ = write!(s, "L {} {truth:x} {}", output.0, inputs.len());
                for i in inputs {
                    let _ = write!(s, " {}", i.0);
                }
                s.push('\n');
            }
            Cell::Ff { d, q, ce, init } => {
                let ce = ce.map_or_else(|| "-".to_string(), |c| c.0.to_string());
                let _ = writeln!(s, "F {} {} {ce} {}", d.0, q.0, u8::from(*init));
            }
            Cell::Const { output, value } => {
                let _ = writeln!(s, "C {} {}", output.0, u8::from(*value));
            }
            Cell::Bram {
                shape,
                addr,
                dout,
                en,
                init,
                output_init,
            } => {
                let en = en.map_or_else(|| "-".to_string(), |c| c.0.to_string());
                let _ = write!(
                    s,
                    "B {} {} {en} {output_init:x} a{}",
                    shape.addr_bits,
                    shape.data_bits,
                    addr.len()
                );
                for a in addr {
                    let _ = write!(s, " {}", a.0);
                }
                let _ = write!(s, " d{}", dout.len());
                for d in dout {
                    let _ = write!(s, " {}", d.0);
                }
                let _ = write!(s, " m{}", init.len());
                for word in init {
                    let _ = write!(s, " {word:x}");
                }
                s.push('\n');
            }
        }
    }
    s.into_bytes()
}

/// Rebuilds a netlist from [`encode_netlist`] bytes; `None` on any
/// malformation (the caller treats that as a cache miss).
#[must_use]
pub fn decode_netlist(bytes: &[u8]) -> Option<Netlist> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    let name = unesc(lines.next()?.strip_prefix("netlist ")?)?;
    let num_nets: usize = lines.next()?.strip_prefix("nets ")?.parse().ok()?;
    let mut n = Netlist::new(name);
    let mut expect_net = 0usize;
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "t" => {
                n.add_net(unesc(rest)?);
                expect_net += 1;
            }
            "i" => {
                let (name, id) = rest.split_once(' ')?;
                n.add_input(unesc(name)?, NetId(id.parse().ok()?));
            }
            "o" => {
                let (name, id) = rest.split_once(' ')?;
                n.add_output(unesc(name)?, NetId(id.parse().ok()?));
            }
            "L" => {
                let mut it = rest.split(' ');
                let output = NetId(it.next()?.parse().ok()?);
                let truth = u64::from_str_radix(it.next()?, 16).ok()?;
                let count: usize = it.next()?.parse().ok()?;
                let inputs = (0..count)
                    .map(|_| it.next().and_then(|t| t.parse().ok()).map(NetId))
                    .collect::<Option<Vec<_>>>()?;
                if it.next().is_some() {
                    return None;
                }
                n.add_cell(Cell::Lut {
                    inputs,
                    output,
                    truth,
                });
            }
            "F" => {
                let mut it = rest.split(' ');
                let d = NetId(it.next()?.parse().ok()?);
                let q = NetId(it.next()?.parse().ok()?);
                let ce = match it.next()? {
                    "-" => None,
                    v => Some(NetId(v.parse().ok()?)),
                };
                let init = bit(it.next()?)?;
                if it.next().is_some() {
                    return None;
                }
                n.add_cell(Cell::Ff { d, q, ce, init });
            }
            "C" => {
                let (output, value) = rest.split_once(' ')?;
                n.add_cell(Cell::Const {
                    output: NetId(output.parse().ok()?),
                    value: bit(value)?,
                });
            }
            "B" => {
                let mut it = rest.split(' ');
                let addr_bits: usize = it.next()?.parse().ok()?;
                let data_bits: usize = it.next()?.parse().ok()?;
                let shape = BramShape::ALL
                    .into_iter()
                    .find(|s| s.addr_bits == addr_bits && s.data_bits == data_bits)?;
                let en = match it.next()? {
                    "-" => None,
                    v => Some(NetId(v.parse().ok()?)),
                };
                let output_init = u64::from_str_radix(it.next()?, 16).ok()?;
                let na: usize = it.next()?.strip_prefix('a')?.parse().ok()?;
                let addr = (0..na)
                    .map(|_| it.next().and_then(|t| t.parse().ok()).map(NetId))
                    .collect::<Option<Vec<_>>>()?;
                let nd: usize = it.next()?.strip_prefix('d')?.parse().ok()?;
                let dout = (0..nd)
                    .map(|_| it.next().and_then(|t| t.parse().ok()).map(NetId))
                    .collect::<Option<Vec<_>>>()?;
                let nm: usize = it.next()?.strip_prefix('m')?.parse().ok()?;
                let init = (0..nm)
                    .map(|_| it.next().and_then(|t| u64::from_str_radix(t, 16).ok()))
                    .collect::<Option<Vec<_>>>()?;
                // Any token after the memory words makes the record
                // malformed: decoding the prefix would be another netlist.
                if it.next().is_some() {
                    return None;
                }
                n.add_cell(Cell::Bram {
                    shape,
                    addr,
                    dout,
                    en,
                    init,
                    output_init,
                });
            }
            _ => return None,
        }
    }
    (expect_net == num_nets).then_some(n)
}

/// A `0`/`1` field of a netlist record.
fn bit(token: &str) -> Option<bool> {
    match token {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

// --- front-end artifacts ----------------------------------------------

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

/// Encodes a front-end record (also usable as placement key material via
/// its embedded netlist — but callers hash [`encode_netlist`] directly).
#[must_use]
pub fn encode_frontend(
    netlist: &Netlist,
    clock_control: Option<ClockControlStats>,
    synth_skipped_functions: Option<usize>,
    verify_sampled_inputs: Option<usize>,
) -> Vec<u8> {
    let mut s = String::from("frontend 1\n");
    if let Some(cc) = clock_control {
        s.push_str(&format!("cc {} {} {}\n", cc.luts, cc.slices, cc.idle_cubes));
    }
    if let Some(k) = synth_skipped_functions {
        s.push_str(&format!("skipped {k}\n"));
    }
    if let Some(n) = verify_sampled_inputs {
        s.push_str(&format!("sampled {n}\n"));
    }
    let mut bytes = s.into_bytes();
    bytes.extend_from_slice(&encode_netlist(netlist));
    bytes
}

fn decode_frontend(bytes: &[u8]) -> Option<Frontend> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut clock_control = None;
    let mut skipped = None;
    let mut sampled = None;
    let mut offset = 0usize;
    for line in text.lines() {
        if line.starts_with("netlist ") {
            break;
        }
        offset += line.len() + 1;
        if line == "frontend 1" {
            continue;
        } else if let Some(rest) = line.strip_prefix("cc ") {
            let mut it = rest.split(' ');
            clock_control = Some(ClockControlStats {
                luts: it.next()?.parse().ok()?,
                slices: it.next()?.parse().ok()?,
                idle_cubes: it.next()?.parse().ok()?,
            });
        } else if let Some(rest) = line.strip_prefix("skipped ") {
            skipped = Some(rest.parse().ok()?);
        } else if let Some(rest) = line.strip_prefix("sampled ") {
            sampled = Some(rest.parse().ok()?);
        } else {
            return None;
        }
    }
    let netlist = decode_netlist(&bytes[offset..])?;
    Some(Frontend {
        netlist,
        clock_control,
        synth_skipped_functions: skipped,
        verify_sampled_inputs: sampled,
    })
}

/// Looks up a record and decodes it, counting a hit or a miss (a record
/// that fails to decode is a miss); under `FLOW_CACHE=0` nothing is
/// looked up or counted.
fn load<T>(key: &Key, decode: fn(&[u8]) -> Option<T>) -> Option<T> {
    if !config().enabled {
        return None;
    }
    let found = lookup_raw(key).and_then(|b| decode(&b));
    note(found.is_some());
    found
}

/// Looks up a front-end artifact, counting a hit or miss.
#[must_use]
pub fn load_frontend(key: &Key) -> Option<Frontend> {
    load(key, decode_frontend)
}

/// Publishes a front-end artifact (no-op under `FLOW_CACHE=0`).
pub fn store_frontend(
    key: &Key,
    netlist: &Netlist,
    clock_control: Option<ClockControlStats>,
    synth_skipped_functions: Option<usize>,
    verify_sampled_inputs: Option<usize>,
) {
    store_raw(
        key,
        encode_frontend(
            netlist,
            clock_control,
            synth_skipped_functions,
            verify_sampled_inputs,
        ),
    );
}

// --- placement artifacts ----------------------------------------------

fn encode_placement(p: &Placement) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "placement 1 {}", p.device.name);
    let _ = writeln!(s, "hpwl {:x} {:x}", p.hpwl.to_bits(), p.hpwl_sq.to_bits());
    let _ = writeln!(s, "moves {}", p.moves);
    match p.budget {
        BudgetOutcome::Completed => {
            let _ = writeln!(s, "budget completed");
        }
        BudgetOutcome::Exhausted { spent } => {
            let _ = writeln!(s, "budget exhausted {spent}");
        }
    }
    for (tag, locs) in [
        ("clb", &p.clb_loc),
        ("bram", &p.bram_loc),
        ("iob", &p.iob_loc),
    ] {
        let _ = write!(s, "{tag} {}", locs.len());
        for (x, y) in locs {
            let _ = write!(s, " {x} {y}");
        }
        s.push('\n');
    }
    s.into_bytes()
}

fn decode_placement(bytes: &[u8]) -> Option<Placement> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    let device = Device::by_name(lines.next()?.strip_prefix("placement 1 ")?)?;
    let (h, hs) = lines.next()?.strip_prefix("hpwl ")?.split_once(' ')?;
    let hpwl = f64::from_bits(u64::from_str_radix(h, 16).ok()?);
    let hpwl_sq = f64::from_bits(u64::from_str_radix(hs, 16).ok()?);
    let moves: u64 = lines.next()?.strip_prefix("moves ")?.parse().ok()?;
    let budget = match lines.next()?.strip_prefix("budget ")? {
        "completed" => BudgetOutcome::Completed,
        other => BudgetOutcome::Exhausted {
            spent: other.strip_prefix("exhausted ")?.parse().ok()?,
        },
    };
    let mut read_locs = |tag: &str| -> Option<Vec<(usize, usize)>> {
        let line = lines.next()?;
        let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
        let mut it = rest.split(' ');
        let count: usize = it.next()?.parse().ok()?;
        (0..count)
            .map(|_| {
                let x = it.next()?.parse().ok()?;
                let y = it.next()?.parse().ok()?;
                Some((x, y))
            })
            .collect()
    };
    Some(Placement {
        device,
        clb_loc: read_locs("clb")?,
        bram_loc: read_locs("bram")?,
        iob_loc: read_locs("iob")?,
        hpwl,
        hpwl_sq,
        moves,
        budget,
    })
}

/// Looks up a placement artifact, counting a hit or miss.
#[must_use]
pub fn load_placement(key: &Key) -> Option<Placement> {
    load(key, decode_placement)
}

/// Publishes a placement artifact (no-op under `FLOW_CACHE=0`).
pub fn store_placement(key: &Key, placement: &Placement) {
    store_raw(key, encode_placement(placement));
}

// --- ECO placement artifacts ------------------------------------------

fn encode_eco_placement(p: &EcoPlacement) -> Vec<u8> {
    let mut bytes = format!(
        "ecoplace 1 {} {} {:x}\n",
        p.pinned_entities,
        p.delta_entities,
        p.delta_hpwl.to_bits()
    )
    .into_bytes();
    bytes.extend_from_slice(&encode_placement(&p.placement));
    bytes
}

fn decode_eco_placement(bytes: &[u8]) -> Option<EcoPlacement> {
    let text = std::str::from_utf8(bytes).ok()?;
    let header = text.lines().next()?;
    let rest = header.strip_prefix("ecoplace 1 ")?;
    let mut it = rest.split(' ');
    let pinned_entities: usize = it.next()?.parse().ok()?;
    let delta_entities: usize = it.next()?.parse().ok()?;
    let delta_hpwl = f64::from_bits(u64::from_str_radix(it.next()?, 16).ok()?);
    let placement = decode_placement(&bytes[header.len() + 1..])?;
    Some(EcoPlacement {
        placement,
        pinned_entities,
        delta_entities,
        delta_hpwl,
    })
}

/// Looks up an ECO placement artifact, counting a hit or miss.
#[must_use]
pub fn load_eco_placement(key: &Key) -> Option<EcoPlacement> {
    load(key, decode_eco_placement)
}

/// Publishes an ECO placement artifact (no-op under `FLOW_CACHE=0`).
pub fn store_eco_placement(key: &Key, placement: &EcoPlacement) {
    store_raw(key, encode_eco_placement(placement));
}

// --- overlay base artifacts -------------------------------------------

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

fn encode_overlay_base(b: &OverlayBase) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "ovlbase 1 {} {} {}",
        b.routed.total_wirelength,
        b.routed.peak_usage,
        b.routed.routes.len()
    );
    for route in &b.routed.routes {
        match route {
            None => s.push_str("r -\n"),
            Some(r) => {
                let _ = write!(s, "r {} {} {}", r.wirelength, r.switches, r.tiles.len());
                for (x, y) in &r.tiles {
                    let _ = write!(s, " {x} {y}");
                }
                s.push('\n');
            }
        }
    }
    let mut bytes = s.into_bytes();
    bytes.extend_from_slice(&encode_placement(&b.placement));
    bytes
}

fn decode_overlay_base(bytes: &[u8]) -> Option<OverlayBase> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    let header = lines.next()?;
    let mut it = header.strip_prefix("ovlbase 1 ")?.split(' ');
    let total_wirelength: usize = it.next()?.parse().ok()?;
    let peak_usage: usize = it.next()?.parse().ok()?;
    let num_routes: usize = it.next()?.parse().ok()?;
    let mut offset = header.len() + 1;
    let mut routes = Vec::with_capacity(num_routes);
    for _ in 0..num_routes {
        let line = lines.next()?;
        offset += line.len() + 1;
        let rest = line.strip_prefix("r ")?;
        if rest == "-" {
            routes.push(None);
            continue;
        }
        let mut it = rest.split(' ');
        let wirelength: usize = it.next()?.parse().ok()?;
        let switches: usize = it.next()?.parse().ok()?;
        let ntiles: usize = it.next()?.parse().ok()?;
        let tiles = (0..ntiles)
            .map(|_| {
                let x = it.next()?.parse().ok()?;
                let y = it.next()?.parse().ok()?;
                Some((x, y))
            })
            .collect::<Option<Vec<_>>>()?;
        routes.push(Some(NetRoute {
            tiles,
            wirelength,
            switches,
        }));
    }
    let placement = decode_placement(&bytes[offset..])?;
    Some(OverlayBase {
        placement,
        routed: RoutedDesign {
            routes,
            total_wirelength,
            peak_usage,
        },
    })
}

/// Looks up an overlay base artifact, counting a hit or miss.
#[must_use]
pub fn load_overlay_base(key: &Key) -> Option<OverlayBase> {
    load(key, decode_overlay_base)
}

/// Publishes an overlay base artifact (no-op under `FLOW_CACHE=0`).
pub fn store_overlay_base(key: &Key, base: &OverlayBase) {
    store_raw(key, encode_overlay_base(base));
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
        let bytes = encode_netlist(&n);
        let back = decode_netlist(&bytes).unwrap();
        assert_eq!(n.name, back.name);
        assert_eq!(n.num_nets(), back.num_nets());
        assert_eq!(n.cells(), back.cells());
        assert_eq!(n.inputs(), back.inputs());
        assert_eq!(n.outputs(), back.outputs());
        // Encoding is stable: same netlist, same bytes, same key.
        assert_eq!(bytes, encode_netlist(&back));
    }

    #[test]
    fn trailing_tokens_are_a_miss() {
        let stg = sequence_detector_0101();
        let opts = crate::map::EmbOptions::default();
        let emb = crate::map::map_fsm_into_embs(&stg, &opts).unwrap();
        // The clock-controlled netlist: the BRAM and its ground constant
        // plus the enable cone's LUTs.
        let (gated, _) =
            crate::clock_control::attach_emb_clock_control(&emb, opts.lut_map).unwrap();
        let text = String::from_utf8(encode_netlist(&gated)).unwrap();
        assert!(decode_netlist(text.as_bytes()).is_some());
        let patched = |tag: &str, tail: &str| -> String {
            let mut out = String::new();
            for line in text.lines() {
                out.push_str(line);
                if line.starts_with(tag) {
                    out.push_str(tail);
                }
                out.push('\n');
            }
            assert_ne!(out, text, "the netlist has a {tag:?} line");
            out
        };
        // The older write-port tail after a BRAM's memory words: nine
        // write address nets, one data net, then the write enable.
        let write_port = format!(" W9{} D1 0 0", " 0".repeat(9));
        assert!(decode_netlist(patched("B ", &write_port).as_bytes()).is_none());
        // The ground constant that pads the BRAM's unused address pins.
        assert!(decode_netlist(patched("C ", " 0").as_bytes()).is_none());
        // A net id after a LUT's counted inputs: one more input, were the
        // count not there.
        assert!(decode_netlist(patched("L ", " 0").as_bytes()).is_none());
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
        let rec = encode_frontend(&n, Some(cc), Some(7), None);
        let back = decode_frontend(&rec).unwrap();
        assert_eq!(back.clock_control, Some(cc));
        assert_eq!(back.synth_skipped_functions, Some(7));
        assert_eq!(back.netlist.cells(), n.cells());
        let plain = decode_frontend(&encode_frontend(&n, None, None, None)).unwrap();
        assert_eq!(plain.clock_control, None);
        assert_eq!(plain.synth_skipped_functions, None);
        assert!(decode_frontend(b"garbage").is_none());
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
    fn frontend_sampled_flag_roundtrips() {
        let stg = sequence_detector_0101();
        let emb = crate::map::map_fsm_into_embs(&stg, &crate::map::EmbOptions::default()).unwrap();
        let n = emb.to_netlist();
        let rec = encode_frontend(&n, None, None, Some(21));
        let back = decode_frontend(&rec).unwrap();
        assert_eq!(back.verify_sampled_inputs, Some(21));
        let proven = decode_frontend(&encode_frontend(&n, None, None, None)).unwrap();
        assert_eq!(proven.verify_sampled_inputs, None);
    }

    #[test]
    fn eco_placement_record_roundtrips() {
        let device = Device::xc2v250();
        let placement = Placement {
            device,
            clb_loc: vec![(1, 2), (3, 4)],
            bram_loc: vec![(0, 5)],
            iob_loc: vec![(0, 0), (0, 1), (0, 2)],
            hpwl: 12.5,
            hpwl_sq: 80.25,
            moves: 321,
            budget: BudgetOutcome::Completed,
        };
        let eco = EcoPlacement {
            placement,
            pinned_entities: 4,
            delta_entities: 2,
            delta_hpwl: 3.5,
        };
        let back = decode_eco_placement(&encode_eco_placement(&eco)).unwrap();
        assert_eq!(back.pinned_entities, 4);
        assert_eq!(back.delta_entities, 2);
        assert_eq!(back.delta_hpwl, 3.5);
        assert_eq!(back.placement.clb_loc, eco.placement.clb_loc);
        assert_eq!(back.placement.iob_loc, eco.placement.iob_loc);
        assert!(decode_eco_placement(b"nonsense").is_none());
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
        let device = Device::xc2v250();
        let placement = Placement {
            device,
            clb_loc: vec![(2, 3)],
            bram_loc: vec![(0, 1), (0, 2)],
            iob_loc: vec![(4, 0)],
            hpwl: 9.5,
            hpwl_sq: 40.25,
            moves: 77,
            budget: BudgetOutcome::Exhausted { spent: 50 },
        };
        let base = OverlayBase {
            placement,
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
        };
        let back = decode_overlay_base(&encode_overlay_base(&base)).unwrap();
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
        assert!(decode_overlay_base(b"nonsense").is_none());
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
