//! The traced replica: re-runs the *final* configuration of a finished
//! compile through the layers' public functions, one span per call.
//!
//! The replay takes the device from `report.device` and the path (FF,
//! direct EMB, clock-controlled with or without ECO placement, overlay)
//! from `report.kind` / `eco` / `overlay`, and mirrors the flow's cache
//! traffic: every artifact the flow looks up is looked up here under the
//! same key, and computed and stored on a miss (overlay class bases
//! excepted: set-up prebuilds them, so a missing base fails the replay).
//! The caller restores the
//! store to the state the flow started from before replaying, so hits
//! and misses fall where they fell for the flow. Failed attempts the
//! flow made before its final configuration (smaller devices, an ECO
//! placement that did not route, an EMB mapping that fell back to FF)
//! are not replayed; they land in `flow.unattributed_ms`.

use crate::mix::Item;
use emb_fsm::baseline::ff_netlist;
use emb_fsm::cache;
use emb_fsm::clock_control::attach_emb_clock_control;
use emb_fsm::flow::{ClockControlStats, FlowConfig, FlowReport, ImplKind, Stimulus};
use emb_fsm::map::map_fsm_into_embs;
use emb_fsm::overlay::{overlay_fsm, OverlayClass};
use emb_fsm::verify::{verify_against_stg, verify_rewrite, OutputTiming, VerificationMethod};
use fpga_fabric::device::Device;
use fpga_fabric::netlist::{Cell, Netlist};
use fpga_fabric::pack::{pack, pack_partitioned, PackedDesign};
use fpga_fabric::place::{
    place, place_incremental, verify_eco_placement, PinnedEntities, Placement,
};
use fpga_fabric::route::{route, RoutedDesign};
use fpga_fabric::timing::analyze;
use fsm_model::stg::Stg;
use logic_synth::synth::{synthesize, SynthBudget};
use netsim::kernel::BatchSimulator;
use powermodel::estimate;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name (`place`, `cache.load`, ...).
    pub name: &'static str,
    /// Mix index of the item the call served.
    pub item: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

/// In-memory span and counter store for one traced run.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    item: usize,
    /// Deterministic per-layer counters (work done), summed over items.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            item: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Sets the item the following spans belong to.
    pub fn set_item(&mut self, item: usize) {
        self.item = item;
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Adds `v` to a counter.
    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Per span name: total self time (duration minus the part of it
    /// covered by child spans), in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end - s.start).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Total duration of the direct children of span `idx`, in ms.
    pub fn children_ms(&self, idx: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// The spans as tab-separated lines: name, item, parent, start and
    /// end in microseconds (`-` for no parent).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\titem\tparent\tstart_us\tend_us\n");
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.name,
                s.item,
                parent,
                s.start.as_micros(),
                s.end.as_micros()
            ));
        }
        out
    }
}

/// What the replay computed: the fields the fidelity gate compares
/// against the compile's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// Coordinate digest of the final placement.
    pub coord_digest: String,
    /// Routed wirelength.
    pub wirelength: usize,
    /// Post-route fmax (MHz).
    pub fmax_mhz: f64,
    /// Total power per configured frequency (mW).
    pub power_mw: Vec<f64>,
}

impl Replayed {
    /// The report's values for the same fields.
    pub fn of_report(r: &FlowReport) -> Replayed {
        Replayed {
            coord_digest: r.coord_digest.clone(),
            wirelength: r.total_wirelength,
            fmax_mhz: r.timing.fmax_mhz,
            power_mw: r
                .power
                .iter()
                .map(powermodel::PowerReport::total_mw)
                .collect(),
        }
    }

    /// Equality with floats compared bit for bit.
    pub fn same_as(&self, other: &Replayed) -> bool {
        self.coord_digest == other.coord_digest
            && self.wirelength == other.wirelength
            && self.fmax_mhz.to_bits() == other.fmax_mhz.to_bits()
            && self.power_mw.len() == other.power_mw.len()
            && self
                .power_mw
                .iter()
                .zip(&other.power_mw)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

fn brams(n: &Netlist) -> usize {
    n.cells()
        .iter()
        .filter(|c| matches!(c, Cell::Bram { .. }))
        .count()
}

fn luts(n: &Netlist) -> usize {
    n.cells()
        .iter()
        .filter(|c| matches!(c, Cell::Lut { .. }))
        .count()
}

/// Counts one artifact lookup.
fn note_lookup(t: &mut Tracer, hit: bool) {
    t.add("cache.lookups", 1.0);
    if hit {
        t.add("cache.hits", 1.0);
    }
}

/// Looks up a front-end record.
fn load_frontend(t: &mut Tracer, key: &cache::Key) -> Option<cache::Frontend> {
    let hit = t.span("cache.load", || cache::load_frontend(key));
    note_lookup(t, hit.is_some());
    hit
}

/// Proves a rewrite through the verification ladder; returns the
/// `VerifySampled` payload the flow caches (the input count when the
/// proof fell back to sampling).
fn prove(
    t: &mut Tracer,
    netlist: &Netlist,
    stg: &Stg,
    cfg: &FlowConfig,
) -> Result<Option<usize>, String> {
    let method = t
        .span("verify", || {
            verify_rewrite(
                netlist,
                stg,
                OutputTiming::Registered,
                cfg.exhaustive_verify_max_inputs,
                cfg.verify_cycles,
                cfg.seed,
            )
        })
        .map_err(|e| format!("verify: {e}"))?;
    Ok(match method {
        VerificationMethod::Exhaustive(r) => {
            t.add("verify.edges_checked", r.edges_checked as f64);
            None
        }
        VerificationMethod::Sampled { cycles } => {
            t.add("verify.sampled_cycles", cycles as f64);
            Some(stg.num_inputs())
        }
    })
}

/// The plain EMB front-end (`emb` record): mapping plus rewrite proof.
fn emb_frontend(t: &mut Tracer, stg: &Stg, item: &Item) -> Result<Netlist, String> {
    let p = &item.plan;
    let key = cache::emb_frontend_key("emb", stg, &p.emb_opts, p.cfg.minimize_states);
    if let Some(fe) = load_frontend(t, &key) {
        return Ok(fe.netlist);
    }
    let netlist = t
        .span("map", || {
            map_fsm_into_embs(stg, &p.emb_opts).map(|emb| emb.to_netlist())
        })
        .map_err(|e| format!("map: {e}"))?;
    t.add("map.brams", brams(&netlist) as f64);
    let sampled = prove(t, &netlist, stg, &p.cfg)?;
    t.span("cache.store", || {
        cache::store_frontend(&key, &netlist, None, None, sampled)
    });
    Ok(netlist)
}

/// The FF front-end (`ff` record): synthesis, FF realization, sampled
/// verification.
fn ff_frontend(t: &mut Tracer, stg: &Stg, item: &Item) -> Result<Netlist, String> {
    let p = &item.plan;
    let key = cache::ff_frontend_key("ff", stg, p.synth_opts, p.cfg.minimize_states);
    if let Some(fe) = load_frontend(t, &key) {
        return Ok(fe.netlist);
    }
    let synth = t
        .span("logic.synth", || {
            synthesize(stg, p.synth_opts).map(|s| {
                let (n, _) = ff_netlist(&s, false);
                (n, s.budget)
            })
        })
        .map_err(|e| format!("synth: {e}"))?;
    let (netlist, budget) = synth;
    t.add("logic.luts", luts(&netlist) as f64);
    t.span("verify", || {
        verify_against_stg(
            &netlist,
            stg,
            OutputTiming::Combinational,
            p.cfg.verify_cycles,
            p.cfg.seed,
        )
    })
    .map_err(|e| format!("verify: {e}"))?;
    t.add("verify.sampled_cycles", p.cfg.verify_cycles as f64);
    let skipped = match budget {
        SynthBudget::Completed => None,
        SynthBudget::Exhausted {
            skipped_functions, ..
        } => Some(skipped_functions),
    };
    t.span("cache.store", || {
        cache::store_frontend(&key, &netlist, None, skipped, None)
    });
    Ok(netlist)
}

/// The clock-controlled front-end (`embcc` record).
fn cc_frontend(t: &mut Tracer, stg: &Stg, item: &Item) -> Result<Netlist, String> {
    let p = &item.plan;
    let key = cache::emb_frontend_key("embcc", stg, &p.emb_opts, p.cfg.minimize_states);
    let hit = t.span("cache.load", || cache::load_frontend(&key));
    let hit = hit.filter(|fe| fe.clock_control.is_some());
    note_lookup(t, hit.is_some());
    if let Some(fe) = hit {
        return Ok(fe.netlist);
    }
    let built = t.span("map", || {
        map_fsm_into_embs(stg, &p.emb_opts)
            .map_err(|e| format!("map: {e}"))
            .and_then(|emb| {
                attach_emb_clock_control(&emb, p.emb_opts.lut_map)
                    .map_err(|e| format!("clock control: {e}"))
            })
    });
    let (netlist, control) = built?;
    t.add("map.brams", brams(&netlist) as f64);
    let sampled = prove(t, &netlist, stg, &p.cfg)?;
    let stats = ClockControlStats {
        luts: control.num_luts(),
        slices: control.num_slices(),
        idle_cubes: control.idle_cubes,
    };
    t.span("cache.store", || {
        cache::store_frontend(&key, &netlist, Some(stats), None, sampled);
    });
    Ok(netlist)
}

/// The overlay front-end (`ovl` record): class plan, padded ROM image,
/// rewrite proof.
fn overlay_frontend(
    t: &mut Tracer,
    stg: &Stg,
    item: &Item,
) -> Result<(Netlist, OverlayClass), String> {
    let p = &item.plan;
    let class = t
        .span("overlay", || {
            OverlayClass::plan(stg.num_inputs(), stg.num_states(), stg.num_outputs())
        })
        .map_err(|e| format!("overlay plan: {e}"))?;
    let key = cache::overlay_frontend_key(stg, p.cfg.minimize_states);
    if let Some(fe) = load_frontend(t, &key) {
        return Ok((fe.netlist, class));
    }
    let netlist = t
        .span("overlay", || overlay_fsm(stg).map(|o| o.fsm_netlist()))
        .map_err(|e| format!("overlay: {e}"))?;
    let sampled = prove(t, &netlist, stg, &p.cfg)?;
    t.span("cache.store", || {
        cache::store_frontend(&key, &netlist, None, None, sampled)
    });
    Ok((netlist, class))
}

/// A placement looked up under `key`, or computed and stored.
fn placement(
    t: &mut Tracer,
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    cfg: &FlowConfig,
    key: &cache::Key,
) -> Result<Placement, String> {
    let hit = t.span("cache.load", || cache::load_placement(key));
    note_lookup(t, hit.is_some());
    if let Some(p) = hit {
        return Ok(p);
    }
    let p = t
        .span("place", || place(netlist, packed, device, cfg.place_opts()))
        .map_err(|e| format!("place: {e}"))?;
    t.add("place.calls", 1.0);
    t.add("place.moves", p.moves as f64);
    t.span("cache.store", || cache::store_placement(key, &p));
    Ok(p)
}

/// The ECO path on `device`: base placement (looked up or computed),
/// partitioned pack, pinned incremental placement (looked up or
/// computed). Returns the gated design's packing and placement.
fn eco_placement(
    t: &mut Tracer,
    netlist: &Netlist,
    netlist_bytes: &[u8],
    base: &Netlist,
    device: Device,
    cfg: &FlowConfig,
) -> Result<(PackedDesign, Placement), String> {
    let base_packed = t.span("pack", || pack(base));
    let base_bytes = t.span("cache.key", || cache::encode_netlist(base));
    let popts = cfg.place_opts();
    let bkey = cache::place_key(&base_bytes, &device, popts);
    let base_placement = placement(t, base, &base_packed, device, cfg, &bkey)?;
    let packed = t
        .span("pack", || {
            pack_partitioned(netlist, &base_packed, base.cells().len())
        })
        .map_err(|e| format!("partitioned pack: {e}"))?;
    let pins = t.span("place", || {
        PinnedEntities::pin_base(&base_placement, &packed)
    });
    let base_digest = cache::coords_digest(
        &base_placement.clb_loc,
        &base_placement.bram_loc,
        &base_placement.iob_loc,
    );
    let ekey = cache::eco_place_key(netlist_bytes, &device, popts, &base_digest);
    let hit = t.span("cache.load", || {
        cache::load_eco_placement(&ekey).filter(|e| {
            e.placement.device.name == device.name
                && verify_eco_placement(&e.placement, &pins).is_ok()
        })
    });
    note_lookup(t, hit.is_some());
    let eco = match hit {
        Some(e) => e,
        None => {
            let e = t
                .span("place", || {
                    place_incremental(netlist, &packed, device, popts, &pins)
                })
                .map_err(|e| format!("eco placement: {e}"))?;
            t.add("place.calls", 1.0);
            t.add("place.moves", e.placement.moves as f64);
            t.span("cache.store", || cache::store_eco_placement(&ekey, &e));
            e
        }
    };
    Ok((packed, eco.placement))
}

/// The stimulus vectors the flow simulates (the oracle trace the flow
/// also runs only feeds the idle fraction, so it is not replayed).
fn vectors(stg: &Stg, stimulus: &Stimulus, cfg: &FlowConfig) -> Vec<Vec<bool>> {
    match stimulus {
        Stimulus::Random => netsim::stimulus::random(stg.num_inputs(), cfg.cycles, cfg.seed),
        Stimulus::IdleBiased(p) => emb_fsm::stimulus::idle_biased(stg, cfg.cycles, *p, cfg.seed),
        Stimulus::Replay(v) => v.clone(),
    }
}

/// Replays the final configuration of `report` for `item`.
///
/// # Errors
///
/// A description of the first layer call that failed, or of a report
/// shape the replica does not cover.
pub fn replay(t: &mut Tracer, item: &Item, report: &FlowReport) -> Result<Replayed, String> {
    let cfg = &item.plan.cfg;
    if cfg.minimize_states {
        return Err("state minimization is not replayed".to_string());
    }
    let stg = &item.stg;
    let device = report.device;
    t.add("compiles", 1.0);
    let mut eco_base: Option<Netlist> = None;
    let mut class: Option<OverlayClass> = None;
    let netlist = match report.kind {
        ImplKind::Ff => ff_frontend(t, stg, item)?,
        ImplKind::Emb => emb_frontend(t, stg, item)?,
        ImplKind::EmbClockControlled => {
            let n = cc_frontend(t, stg, item)?;
            if cfg.eco_place {
                eco_base = Some(emb_frontend(t, stg, item)?);
            }
            n
        }
        ImplKind::EmbOverlay => {
            let (n, c) = overlay_frontend(t, stg, item)?;
            class = Some(c);
            n
        }
        ImplKind::FfClockGated => return Err("FF clock-gated flow is not in the mix".to_string()),
    };
    t.span("pack", || netlist.validate())
        .map_err(|e| format!("netlist: {e}"))?;
    let netlist_bytes = t.span("cache.key", || cache::encode_netlist(&netlist));
    let (packed, placement, routed): (PackedDesign, Placement, RoutedDesign) = if let Some(class) =
        class
    {
        let packed = t.span("pack", || pack(&netlist));
        let (placement, routed) = overlay_base(t, &netlist, &class, device, cfg)?;
        (packed, placement, routed)
    } else {
        let (packed, placement) = match (&report.eco, &eco_base) {
            (Some(_), Some(base)) => eco_placement(t, &netlist, &netlist_bytes, base, device, cfg)?,
            (Some(_), None) => return Err("ECO report without an ECO base".to_string()),
            _ => {
                let packed = t.span("pack", || pack(&netlist));
                let key = cache::place_key(&netlist_bytes, &device, cfg.place_opts());
                let p = placement(t, &netlist, &packed, device, cfg, &key)?;
                (packed, p)
            }
        };
        let routed = t
            .span("route", || route(&netlist, &packed, &placement, cfg.route))
            .map_err(|e| format!("route: {e}"))?;
        (packed, placement, routed)
    };
    t.add("route.wirelength", routed.total_wirelength as f64);
    t.span("sta", || {
        fpga_fabric::sta::estimate_critical_ns(&netlist, &packed, &placement, &cfg.delay)
    })
    .map_err(|e| format!("sta estimate: {e}"))?;
    let timing = t.span("sta", || analyze(&netlist, &routed, &cfg.delay));
    let vectors = vectors(stg, &item.plan.stimulus, cfg);
    let activity = t
        .span("sim", || {
            BatchSimulator::new(&netlist).map(|mut sim| {
                sim.run_sequential(&vectors);
                sim.activity().clone()
            })
        })
        .map_err(|e| format!("sim: {e}"))?;
    t.add("sim.cycles", vectors.len() as f64);
    let mut power_mw = Vec::with_capacity(cfg.freqs_mhz.len());
    for &f in &cfg.freqs_mhz {
        let p = t
            .span("power", || {
                estimate(&netlist, &routed, &activity, f, &cfg.power)
            })
            .map_err(|e| format!("power: {e}"))?;
        power_mw.push(p.total_mw());
    }
    Ok(Replayed {
        coord_digest: cache::coords_digest(
            &placement.clb_loc,
            &placement.bram_loc,
            &placement.iob_loc,
        ),
        wirelength: routed.total_wirelength,
        fmax_mhz: timing.fmax_mhz,
        power_mw,
    })
}

/// The overlay class base on `device`, loaded from the store. Bases are
/// prebuilt at set-up (the `auto` workload checks every overlay report
/// hit its base), so a miss is an error here rather than a rebuild.
fn overlay_base(
    t: &mut Tracer,
    netlist: &Netlist,
    class: &OverlayClass,
    device: Device,
    cfg: &FlowConfig,
) -> Result<(Placement, RoutedDesign), String> {
    let mut base = netlist.with_zeroed_bram_init();
    base.name = class.label();
    let base_bytes = t.span("cache.key", || cache::encode_netlist(&base));
    let key = cache::overlay_base_key(&base_bytes, &device, cfg.place_opts(), cfg.route);
    let hit = t.span("cache.load", || cache::load_overlay_base(&key));
    note_lookup(t, hit.is_some());
    let b = hit.ok_or_else(|| format!("overlay base {} is not in the store", base.name))?;
    Ok((b.placement, b.routed))
}
