//! End-to-end implementation flows (the paper's Fig. 6).
//!
//! Each flow takes an STG all the way to a power number: build the
//! netlist (FF baseline or EMB mapping, with or without clock control),
//! verify it against the STG oracle, pack/place/route on the target
//! device, simulate the stimulus while recording switching activity, and
//! estimate power at each requested clock frequency plus the critical
//! path. The [`FlowReport`] rows are what the experiment harness prints
//! as the paper's tables.
//!
//! The flows differ only in configuration. Each runs one cached
//! front-end recipe (`frontend`: its cache key, a build closure, and the
//! proof its implementation kind calls for) and one device-ladder driver
//! (`physical`: pack, then per device a full, ECO or overlay-base
//! placement and routing, then timing, simulation and power).

use crate::baseline::ff_netlist;
use crate::cache::{self, Frontend};
use crate::clock_control::{attach_emb_clock_control, attach_ff_clock_gating, ClockControl};
use crate::map::{map_fsm_into_embs, EmbFsm, EmbOptions};
use crate::overlay::{overlay_fsm, OverlayClass, OverlayError};
use crate::verify::{
    verify_against_stg, verify_rewrite, OutputTiming, VerificationMethod, VerifyError,
};
use fpga_fabric::device::Device;
use fpga_fabric::netlist::Netlist;
use fpga_fabric::pack::{pack, pack_partitioned, AreaReport, PackedDesign};
use fpga_fabric::place::{
    place, place_incremental, verify_eco_placement, BudgetOutcome, EcoPlacement, PinnedEntities,
    PlaceError, PlaceOptions, Placement,
};
use fpga_fabric::route::{route, RouteError, RouteOptions, RoutedDesign};
use fpga_fabric::timing::{analyze, DelayModel, TimingReport};
use fsm_model::simulate::{idle_fraction, trace};
use fsm_model::stg::Stg;
use logic_synth::synth::{synthesize, SynthBudget, SynthError, SynthOptions, SynthesizedFsm};
use netsim::kernel::BatchSimulator;
use netsim::stimulus as netstim;
use powermodel::{estimate, PowerParams, PowerReport};
use std::fmt;
use std::time::Instant;

/// Which EMB mapping backend [`emb_flow`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapBackend {
    /// Per-FSM mapping and full place & route (the paper's Fig. 6 flow).
    #[default]
    Direct,
    /// The overlay backend: a pre-placed, pre-routed base per overlay
    /// class, per-FSM compile reduced to a memory-content update (see
    /// [`crate::overlay`]). Machines past the capacity ladder fail with
    /// a typed error.
    Overlay,
    /// Try the overlay backend; on a capacity failure fall back to the
    /// direct backend and record [`Downgrade::OverlayCapacity`].
    Auto,
}

impl MapBackend {
    /// Parses the `MAP_BACKEND` knob value (`direct` / `overlay` /
    /// `auto`). Unknown strings return `None` so callers can reject
    /// typos loudly instead of silently running the default.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "direct" => Some(MapBackend::Direct),
            "overlay" => Some(MapBackend::Overlay),
            "auto" => Some(MapBackend::Auto),
            _ => None,
        }
    }
}

impl fmt::Display for MapBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapBackend::Direct => "direct",
            MapBackend::Overlay => "overlay",
            MapBackend::Auto => "auto",
        };
        f.write_str(s)
    }
}

/// Shared flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Target device.
    pub device: Device,
    /// Placement options.
    pub place: PlaceOptions,
    /// Routing options.
    pub route: RouteOptions,
    /// Timing model.
    pub delay: DelayModel,
    /// Power model parameters.
    pub power: PowerParams,
    /// Clock frequencies to report power at (MHz) — the paper uses
    /// 50 / 85 / 100.
    pub freqs_mhz: Vec<f64>,
    /// Simulation length in cycles.
    pub cycles: usize,
    /// Verification length in cycles.
    pub verify_cycles: usize,
    /// Stimulus / verification seed.
    pub seed: u64,
    /// When the design does not fit `device`, retry on the next larger
    /// family member. Our FF baselines are larger than SIS-optimized ones
    /// (synthetic STGs compress less), so a few big benchmarks overflow
    /// the paper's XC2V250.
    pub allow_device_upsize: bool,
    /// Run state minimization before implementation. Verification still
    /// compares against the *original* machine, so this also checks the
    /// minimizer end to end.
    pub minimize_states: bool,
    /// Incremental (ECO) placement for the clock-controlled flow: reuse
    /// the plain design's placement, pin every base entity at those exact
    /// coordinates, and place only the enable-cone delta. Makes the
    /// gated-vs-plain timing comparison structural instead of statistical
    /// (Sec. 6); any ECO failure falls back to a full placement with a
    /// recorded [`Downgrade::EcoFallback`].
    pub eco_place: bool,
    /// Input-count cap for the exhaustive rewrite-verification proof:
    /// machines with at most this many inputs (and never more than 20)
    /// are verified by the product-walk oracle; wider machines fall back
    /// to sampling with a recorded [`Downgrade::VerifySampled`].
    pub exhaustive_verify_max_inputs: usize,
    /// Which mapping backend [`emb_flow`] runs: the per-FSM direct flow,
    /// the pre-placed overlay, or overlay-with-direct-fallback. Only the
    /// plain EMB flow honours this; the clock-controlled flow always
    /// runs direct (the enable cone is netlist-specific, so it cannot
    /// share a class base).
    pub backend: MapBackend,
}

impl FlowConfig {
    /// The placement options every flow placement (and its cache key)
    /// actually uses: [`FlowConfig::place`] with [`FlowConfig::delay`]
    /// substituted in, so the placer's criticality term and the post-route
    /// [`analyze`] agree on the delay model.
    #[must_use]
    pub fn place_opts(&self) -> PlaceOptions {
        PlaceOptions {
            delay: self.delay,
            ..self.place
        }
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            device: Device::xc2v250(),
            place: PlaceOptions::default(),
            route: RouteOptions::default(),
            delay: DelayModel::default(),
            power: PowerParams::default(),
            freqs_mhz: vec![50.0, 85.0, 100.0],
            cycles: 2000,
            verify_cycles: 500,
            seed: 2004,
            allow_device_upsize: true,
            minimize_states: false,
            eco_place: true,
            exhaustive_verify_max_inputs: 20,
            backend: MapBackend::Direct,
        }
    }
}

/// The stimulus driving the power simulation.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// Uniform random vectors (paper Sec. 5 "large number of random
    /// inputs").
    Random,
    /// Idle-biased vectors targeting the given idle occupancy (paper
    /// Table 3's "average case with 50% idle").
    IdleBiased(f64),
    /// Caller-provided vectors.
    Replay(Vec<Vec<bool>>),
}

/// Which implementation a report describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImplKind {
    /// Conventional FF + LUT (Fig. 1a).
    Ff,
    /// FF + LUT with clock-enable gating on the state register.
    FfClockGated,
    /// EMB (BRAM) mapping (Fig. 1b).
    Emb,
    /// EMB mapping with the Sec. 6 enable-driven clock control.
    EmbClockControlled,
    /// EMB mapping compiled onto a pre-placed overlay base
    /// (see [`crate::overlay`]).
    EmbOverlay,
}

impl fmt::Display for ImplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImplKind::Ff => write!(f, "FF/LUT"),
            ImplKind::FfClockGated => write!(f, "FF/LUT+gate"),
            ImplKind::Emb => write!(f, "EMB"),
            ImplKind::EmbClockControlled => write!(f, "EMB+cc"),
            ImplKind::EmbOverlay => write!(f, "EMB/ovl"),
        }
    }
}

/// The result of one flow run.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Benchmark name.
    pub name: String,
    /// Implementation style.
    pub kind: ImplKind,
    /// Area after packing (LUT/FF/slice/BRAM — Table 1).
    pub area: AreaReport,
    /// Power at each configured frequency (Table 2 / Table 3).
    pub power: Vec<PowerReport>,
    /// Timing analysis.
    pub timing: TimingReport,
    /// Idle fraction the stimulus actually achieved on the oracle.
    pub idle_fraction: f64,
    /// Clock-control overhead, when applicable (Table 4).
    pub clock_control: Option<ClockControlStats>,
    /// Routed wirelength (routing-resource pressure).
    pub total_wirelength: usize,
    /// The device the design was finally implemented on.
    pub device: Device,
    /// Graceful degradations taken to complete the flow (empty when the
    /// requested implementation succeeded as asked).
    pub downgrades: Vec<Downgrade>,
    /// Flow-artifact cache traffic attributable to this run.
    pub cache: cache::CacheStats,
    /// Digest over the final placement's coordinates (CLB, BRAM, IOB site
    /// lists in entity order). Two reports with equal digests were placed
    /// identically — the hook the ECO gate compares against.
    pub coord_digest: String,
    /// Pre-route fmax estimate (MHz) from the placer's timing kernel over
    /// the final placement's bounding boxes — the quantity the
    /// timing-driven anneal optimizes, re-derived deterministically from
    /// the placement. `NaN` if the estimate could not be computed.
    pub place_fmax_est_mhz: f64,
    /// ECO placement evidence, present when the clock-controlled flow
    /// reused the plain design's placement (see [`FlowConfig::eco_place`]).
    pub eco: Option<EcoReport>,
    /// Wall-clock spent in each pipeline stage of this run. Cached
    /// stages report (near) zero — the point of the caches — so this is
    /// measurement evidence, not part of the deterministic result: the
    /// corpus harness excludes it from cross-backend identity checks.
    pub stage_ms: StageTimings,
    /// Overlay-backend evidence, present when this report came from the
    /// overlay path ([`ImplKind::EmbOverlay`]).
    pub overlay: Option<OverlayReport>,
}

/// Per-stage wall-clock breakdown of one flow run, in milliseconds.
///
/// `synth` covers the front-end netlist construction (synthesis or EMB /
/// overlay mapping); `verify` the oracle equivalence proof; `place` and
/// `route` the physical stages (for the overlay backend: resolving the
/// base artifact, which is the load time on a cache hit). Values are
/// unrounded here; renderers round at the last moment (the corpus row
/// uses one decimal).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Front-end netlist construction (synthesis / mapping) time.
    pub synth_ms: f64,
    /// Equivalence-proof time.
    pub verify_ms: f64,
    /// Placement time (overlay: base-artifact resolution).
    pub place_ms: f64,
    /// Routing time (overlay: zero on a base cache hit — the stored
    /// routing is reused).
    pub route_ms: f64,
}

impl StageTimings {
    /// The compile-turnaround metric the overlay backend optimizes:
    /// synthesis + place + route. Verification is excluded on both
    /// backends — the proof obligation is identical either way, so
    /// including it would only dilute the backend comparison.
    #[must_use]
    pub fn compile_ms(&self) -> f64 {
        self.synth_ms + self.place_ms + self.route_ms
    }
}

/// Evidence that a report came from the overlay backend: which class the
/// machine landed on and whether the class base came out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayReport {
    /// True when the base's placement + routing were loaded from the
    /// flow cache; false when this run built (and stored) them.
    pub base_cache_hit: bool,
    /// The canonical class label (e.g. `ovl_i4_s6_o2_b1`).
    pub class: String,
    /// Logical address bits the class consumes (`inputs + state_bits`).
    pub addr_bits: usize,
    /// Padded state width (a [`crate::overlay::STATE_BIT_RUNGS`] rung).
    pub state_bits: usize,
    /// Data bits per ROM word (`state_bits + outputs`).
    pub data_bits: usize,
    /// Series banks in the base (1, 2 or 4).
    pub banks: usize,
}

/// Evidence that a clock-controlled implementation was placed as an ECO on
/// top of the plain design: every base entity pinned at the plain
/// coordinates, only the enable-cone delta placed.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoReport {
    /// Base entities pinned at the plain design's coordinates.
    pub pinned_entities: usize,
    /// Enable-cone entities placed by the range-limited local anneal.
    pub delta_entities: usize,
    /// Total HPWL of the nets touching at least one delta entity.
    pub delta_hpwl: f64,
    /// True when the base placement came out of the flow-artifact cache
    /// (the plain flow already ran); false when this run computed it.
    pub base_reuse_cache_hit: bool,
    /// Digest over the base (pinned) coordinates — byte-identical to the
    /// plain flow's [`FlowReport::coord_digest`] on the same device.
    pub base_coord_digest: String,
}

/// A graceful degradation recorded in a [`FlowReport`]: the flow completed,
/// but not exactly as requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Downgrade {
    /// EMB mapping failed at every rung (direct → compaction → series →
    /// upsize); the FF+LUT baseline was implemented instead.
    EmbToFf {
        /// Display of the mapping/fitting error that forced the fallback.
        reason: String,
    },
    /// The design did not fit the configured device and was implemented on
    /// a larger family member.
    DeviceUpsized {
        /// The originally requested device name.
        from: &'static str,
        /// The device actually used.
        to: &'static str,
    },
    /// The placer hit its move budget; the best-seen placement was kept.
    PlaceBudgetExhausted {
        /// Moves spent when the budget tripped.
        spent: u64,
    },
    /// Synthesis skipped espresso on oversized functions (exact but
    /// unminimized covers were kept).
    SynthBudgetExhausted {
        /// Number of functions left unminimized.
        skipped_functions: usize,
    },
    /// ECO placement was requested but could not be completed (partition,
    /// incremental-place, or routing failure on the ECO result); the flow
    /// fell back to a full from-scratch placement.
    EcoFallback {
        /// Display of the failure that forced the fallback.
        reason: String,
    },
    /// Rewrite verification could not take the exhaustive product-walk
    /// path (machine wider than the input cap) and fell back to sampled
    /// lockstep simulation.
    VerifySampled {
        /// The machine's primary-input count.
        inputs: usize,
    },
    /// The `auto` backend's overlay attempt failed for capacity (the
    /// machine exceeds the overlay ladder, or its base did not fit any
    /// device); the direct backend implemented it instead.
    OverlayCapacity {
        /// Display of the overlay failure that forced the fallback.
        reason: String,
    },
}

impl Downgrade {
    /// Stable payload-free label for histograms and JSON reports. New
    /// variants must pick a label here, which is what lets corpus
    /// coverage tests assert "every kind observed" without formatting.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Downgrade::EmbToFf { .. } => "emb-to-ff",
            Downgrade::DeviceUpsized { .. } => "device-upsized",
            Downgrade::PlaceBudgetExhausted { .. } => "place-budget",
            Downgrade::SynthBudgetExhausted { .. } => "synth-budget",
            Downgrade::EcoFallback { .. } => "eco-fallback",
            Downgrade::VerifySampled { .. } => "verify-sampled",
            Downgrade::OverlayCapacity { .. } => "overlay-capacity",
        }
    }

    /// All downgrade kind labels, in declaration order — the universe the
    /// corpus coverage gate checks against.
    #[must_use]
    pub fn all_kinds() -> &'static [&'static str] {
        &[
            "emb-to-ff",
            "device-upsized",
            "place-budget",
            "synth-budget",
            "eco-fallback",
            "verify-sampled",
            "overlay-capacity",
        ]
    }
}

impl fmt::Display for Downgrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Downgrade::EmbToFf { reason } => {
                write!(f, "EMB mapping fell back to FF baseline ({reason})")
            }
            Downgrade::DeviceUpsized { from, to } => {
                write!(f, "device upsized {from} -> {to}")
            }
            Downgrade::PlaceBudgetExhausted { spent } => {
                write!(f, "placement move budget exhausted after {spent} moves")
            }
            Downgrade::SynthBudgetExhausted { skipped_functions } => {
                write!(f, "{skipped_functions} function(s) left unminimized")
            }
            Downgrade::EcoFallback { reason } => {
                write!(f, "ECO placement fell back to full placement ({reason})")
            }
            Downgrade::VerifySampled { inputs } => {
                write!(
                    f,
                    "rewrite verification sampled ({inputs} inputs exceed the exhaustive cap)"
                )
            }
            Downgrade::OverlayCapacity { reason } => {
                write!(f, "overlay backend fell back to direct ({reason})")
            }
        }
    }
}

/// Area overhead of the clock-control logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockControlStats {
    /// LUTs used by the enable logic.
    pub luts: usize,
    /// Slices used.
    pub slices: usize,
    /// Idle cubes extracted from the STG.
    pub idle_cubes: usize,
}

impl FlowReport {
    /// Power at the given frequency, if it was configured.
    #[must_use]
    pub fn power_at(&self, freq_mhz: f64) -> Option<&PowerReport> {
        self.power
            .iter()
            .find(|p| (p.freq_mhz - freq_mhz).abs() < 1e-9)
    }
}

/// The stage of the Fig.-6 pipeline an error occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStage {
    /// Optional state-minimization pre-pass.
    Prepare,
    /// Combinational synthesis (FF baseline).
    Synth,
    /// EMB (BRAM) mapping.
    Map,
    /// Clock-control / gating attachment.
    ClockControl,
    /// Oracle lockstep verification.
    Verify,
    /// Netlist validation and packing.
    Pack,
    /// Placement.
    Place,
    /// Routing.
    Route,
    /// Activity simulation.
    Simulate,
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowStage::Prepare => "prepare",
            FlowStage::Synth => "synth",
            FlowStage::Map => "map",
            FlowStage::ClockControl => "clock-control",
            FlowStage::Verify => "verify",
            FlowStage::Pack => "pack",
            FlowStage::Place => "place",
            FlowStage::Route => "route",
            FlowStage::Simulate => "simulate",
        };
        f.write_str(s)
    }
}

/// What went wrong (stage-specific payload).
#[derive(Debug)]
pub enum FlowErrorKind {
    /// FSM synthesis failed (FF baseline).
    Synth(SynthError),
    /// EMB mapping failed.
    Map(crate::map::MapFsmError),
    /// Overlay planning failed (machine exceeds the capacity ladder).
    Overlay(OverlayError),
    /// Clock-control synthesis failed.
    ClockControl(logic_synth::techmap::MapError),
    /// The implementation diverged from the oracle.
    Verify(VerifyError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed.
    Route(RouteError),
    /// Netlist validation failed.
    Netlist(fpga_fabric::netlist::NetlistError),
    /// Power estimation was handed an activity record from a different
    /// netlist.
    Power(powermodel::ActivityMismatch),
    /// The state-minimization pre-pass failed.
    Minimize(String),
}

impl fmt::Display for FlowErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowErrorKind::Synth(e) => write!(f, "synthesis: {e}"),
            FlowErrorKind::Map(e) => write!(f, "mapping: {e}"),
            FlowErrorKind::Overlay(e) => write!(f, "overlay: {e}"),
            FlowErrorKind::ClockControl(e) => write!(f, "clock control: {e}"),
            FlowErrorKind::Verify(e) => write!(f, "verification: {e}"),
            FlowErrorKind::Place(e) => write!(f, "placement: {e}"),
            FlowErrorKind::Route(e) => write!(f, "routing: {e}"),
            FlowErrorKind::Netlist(e) => write!(f, "netlist: {e}"),
            FlowErrorKind::Power(e) => write!(f, "power estimation: {e}"),
            FlowErrorKind::Minimize(e) => write!(f, "state minimization: {e}"),
        }
    }
}

/// A flow failure, carrying the benchmark and pipeline stage it came from
/// so harness logs and placeholder rows stay actionable without a backtrace.
#[derive(Debug)]
pub struct FlowError {
    /// The machine / netlist being implemented.
    pub benchmark: String,
    /// Where in the pipeline it failed.
    pub stage: FlowStage,
    /// The stage-specific cause.
    pub kind: FlowErrorKind,
}

impl FlowError {
    /// Builds an error tagged with benchmark and stage context.
    #[must_use]
    pub fn new(benchmark: impl Into<String>, stage: FlowStage, kind: FlowErrorKind) -> Self {
        FlowError {
            benchmark: benchmark.into(),
            stage,
            kind,
        }
    }

    /// True when the failure is a capacity/fitting exhaustion — the input
    /// machine is well-formed but does not fit the attempted resources —
    /// rather than a correctness failure. These are the failures the
    /// degradation ladder may absorb (see [`emb_flow_with_fallback`]).
    #[must_use]
    pub fn is_capacity(&self) -> bool {
        matches!(
            self.kind,
            FlowErrorKind::Map(_)
                | FlowErrorKind::Overlay(_)
                | FlowErrorKind::Place(_)
                | FlowErrorKind::Route(_)
        )
    }
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.benchmark, self.stage, self.kind)
    }
}

impl std::error::Error for FlowError {}

/// Applies the optional state-minimization pre-pass.
fn prepared(stg: &Stg, cfg: &FlowConfig) -> Result<Stg, FlowError> {
    if cfg.minimize_states {
        Ok(fsm_model::minimize::minimize(stg)
            .map_err(|e| {
                FlowError::new(stg.name(), FlowStage::Prepare, FlowErrorKind::Minimize(e))
            })?
            .stg)
    } else {
        Ok(stg.clone())
    }
}

/// Charges one public entry point with the flow-cache traffic it caused.
/// The fallbacks run both attempts inside one call, so their reports
/// span both.
fn accounted(run: impl FnOnce() -> Result<FlowReport, FlowError>) -> Result<FlowReport, FlowError> {
    let entry = cache::stats_snapshot();
    let mut report = run()?;
    report.cache = cache::stats_snapshot().since(entry);
    Ok(report)
}

/// Runs `f`, adding its wall-clock milliseconds to `bucket`.
fn timed<T>(bucket: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *bucket += t.elapsed().as_secs_f64() * 1e3;
    out
}

/// Runs `attempt`; on a capacity failure runs `fallback` instead and
/// records the downgrade `downgrade` makes of the failure's display.
/// Correctness failures propagate.
fn on_capacity(
    attempt: Result<FlowReport, FlowError>,
    fallback: impl FnOnce() -> Result<FlowReport, FlowError>,
    downgrade: impl FnOnce(String) -> Downgrade,
) -> Result<FlowReport, FlowError> {
    match attempt {
        Err(e) if e.is_capacity() => {
            let reason = e.to_string();
            let mut report = fallback()?;
            report.downgrades.push(downgrade(reason));
            Ok(report)
        }
        other => other,
    }
}

/// A netlist on its way to the device, with what its report carries
/// over from the front-end (verified, unless it came from outside).
struct Design {
    name: String,
    kind: ImplKind,
    netlist: Netlist,
    clock_control: Option<ClockControlStats>,
    downgrades: Vec<Downgrade>,
    stage: StageTimings,
}

/// The front-end recipe every flow shares. The netlist is looked up under
/// `key`; on a miss `build` constructs it (timed as `synth`), it is proven
/// against the *original* `stg` (timed as `verify`), and the record is
/// stored. `kind` fixes the proof — FF netlists run lockstep with
/// combinational outputs; EMB netlists take the [`verify_rewrite`] ladder,
/// whose sampled outcome the record keeps — and whether a hit must carry
/// clock-control stats (a gated record without them is a miss). A hit and
/// a miss yield the same [`Design`]: the record's budget overrun and
/// sampled proof replay as downgrades.
fn frontend(
    stg: &Stg,
    cfg: &FlowConfig,
    kind: ImplKind,
    key: &cache::Key,
    build: impl FnOnce() -> Result<Frontend, FlowError>,
) -> Result<Design, FlowError> {
    let gated = matches!(kind, ImplKind::FfClockGated | ImplKind::EmbClockControlled);
    let mut stage = StageTimings::default();
    let accept = |fe: &Frontend| !gated || fe.clock_control.is_some();
    let (fe, _) = cache::cached(key, accept, || {
        let mut fe = timed(&mut stage.synth_ms, build)?;
        fe.verify_sampled_inputs = timed(&mut stage.verify_ms, || match kind {
            ImplKind::Ff | ImplKind::FfClockGated => verify_against_stg(
                &fe.netlist,
                stg,
                OutputTiming::Combinational,
                cfg.verify_cycles,
                cfg.seed,
            )
            .map(|()| None),
            _ => verify_rewrite(
                &fe.netlist,
                stg,
                OutputTiming::Registered,
                cfg.exhaustive_verify_max_inputs,
                cfg.verify_cycles,
                cfg.seed,
            )
            .map(|m| matches!(m, VerificationMethod::Sampled { .. }).then_some(stg.num_inputs())),
        })
        .map_err(|e| FlowError::new(stg.name(), FlowStage::Verify, FlowErrorKind::Verify(e)))?;
        Ok(fe)
    })?;
    Ok(Design {
        name: stg.name().to_string(),
        kind,
        downgrades: fe
            .synth_skipped_functions
            .map(|skipped_functions| Downgrade::SynthBudgetExhausted { skipped_functions })
            .into_iter()
            .chain(
                fe.verify_sampled_inputs
                    .map(|inputs| Downgrade::VerifySampled { inputs }),
            )
            .collect(),
        netlist: fe.netlist,
        clock_control: fe.clock_control,
        stage,
    })
}

/// A freshly built front-end record, before its proof: the synthesis
/// budget overrun and the clock-control overhead, where there are any.
fn built(
    netlist: Netlist,
    synth: Option<&SynthesizedFsm>,
    control: Option<&ClockControl>,
) -> Frontend {
    Frontend {
        netlist,
        clock_control: control.map(|c| ClockControlStats {
            luts: c.num_luts(),
            slices: c.num_slices(),
            idle_cubes: c.idle_cubes,
        }),
        synth_skipped_functions: synth.and_then(|s| match s.budget {
            SynthBudget::Completed => None,
            SynthBudget::Exhausted {
                skipped_functions, ..
            } => Some(skipped_functions),
        }),
        verify_sampled_inputs: None,
    }
}

/// Synthesizes the (optionally minimized) machine for the FF flows.
fn synthesized(
    stg: &Stg,
    cfg: &FlowConfig,
    synth_opts: SynthOptions,
) -> Result<(Stg, SynthesizedFsm), FlowError> {
    let impl_stg = prepared(stg, cfg)?;
    let synth = synthesize(&impl_stg, synth_opts)
        .map_err(|e| FlowError::new(stg.name(), FlowStage::Synth, FlowErrorKind::Synth(e)))?;
    Ok((impl_stg, synth))
}

/// Maps the (optionally minimized) machine into BRAMs for the EMB flows.
fn mapped(stg: &Stg, cfg: &FlowConfig, emb_opts: &EmbOptions) -> Result<EmbFsm, FlowError> {
    map_fsm_into_embs(&prepared(stg, cfg)?, emb_opts)
        .map_err(|e| FlowError::new(stg.name(), FlowStage::Map, FlowErrorKind::Map(e)))
}

/// The error for a failed clock-control attachment.
fn clock_control_error(stg: &Stg, e: logic_synth::techmap::MapError) -> FlowError {
    FlowError::new(
        stg.name(),
        FlowStage::ClockControl,
        FlowErrorKind::ClockControl(e),
    )
}

/// Runs the conventional FF/LUT flow (Fig. 1a / Fig. 6 left path).
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn ff_flow(
    stg: &Stg,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    accounted(|| {
        let key = cache::ff_frontend_key("ff", stg, synth_opts, cfg.minimize_states);
        let design = frontend(stg, cfg, ImplKind::Ff, &key, || {
            let (_, synth) = synthesized(stg, cfg, synth_opts)?;
            Ok(built(ff_netlist(&synth, false).0, Some(&synth), None))
        })?;
        physical(design, stg, stimulus, cfg, Resolve::Full)
    })
}

/// Runs the FF flow with clock-enable gating on the state register.
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn ff_clock_gated_flow(
    stg: &Stg,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    accounted(|| {
        let key = cache::ff_frontend_key("ffg", stg, synth_opts, cfg.minimize_states);
        let design = frontend(stg, cfg, ImplKind::FfClockGated, &key, || {
            let (impl_stg, synth) = synthesized(stg, cfg, synth_opts)?;
            let (netlist, control) = attach_ff_clock_gating(&synth, &impl_stg, synth_opts.map)
                .map_err(|e| clock_control_error(stg, e))?;
            Ok(built(netlist, Some(&synth), Some(&control)))
        })?;
        physical(design, stg, stimulus, cfg, Resolve::Full)
    })
}

/// Runs the EMB flow (Fig. 1b) on the backend selected by
/// [`FlowConfig::backend`]: per-FSM place & route (`direct`), the
/// pre-placed overlay (`overlay`), or overlay with a direct fallback on
/// capacity failures (`auto`, recording
/// [`Downgrade::OverlayCapacity`]).
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`]. Under `auto`, overlay
/// *capacity* failures are absorbed; correctness failures propagate.
pub fn emb_flow(
    stg: &Stg,
    emb_opts: &EmbOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    let direct = || {
        physical(
            emb_frontend(stg, emb_opts, cfg)?,
            stg,
            stimulus,
            cfg,
            Resolve::Full,
        )
    };
    accounted(|| match cfg.backend {
        MapBackend::Direct => direct(),
        MapBackend::Overlay => emb_overlay_flow(stg, stimulus, cfg),
        MapBackend::Auto => on_capacity(emb_overlay_flow(stg, stimulus, cfg), direct, |reason| {
            Downgrade::OverlayCapacity { reason }
        }),
    })
}

/// The plain-EMB front-end: maps the machine into BRAMs and proves the
/// rewrite through the verification ladder (exhaustive product walk up to
/// [`FlowConfig::exhaustive_verify_max_inputs`] inputs, sampled lockstep
/// beyond). Cached under the `"emb"` key, so [`emb_flow`] and the
/// clock-controlled flow's ECO base resolve to the identical netlist.
fn emb_frontend(stg: &Stg, emb_opts: &EmbOptions, cfg: &FlowConfig) -> Result<Design, FlowError> {
    let key = cache::emb_frontend_key("emb", stg, emb_opts, cfg.minimize_states);
    frontend(stg, cfg, ImplKind::Emb, &key, || {
        Ok(built(mapped(stg, cfg, emb_opts)?.to_netlist(), None, None))
    })
}

/// Runs the EMB flow on the overlay backend: the machine is compiled
/// onto its overlay class — a capacity check, a padded ROM image, and
/// the usual `verify_rewrite` proof — and the class's pre-placed,
/// pre-routed base supplies the physical design. The base is built (and
/// cached) the first time any machine of the class is compiled; after
/// that, per-FSM turnaround is O(memory-init), not O(place & route).
///
/// The class is planned before the front-end lookup, so a machine past
/// the ladder fails without cache traffic. Planning is pure arithmetic on
/// the port/state counts, so a cache hit re-plans it for nothing and the
/// cached record stays netlist-only.
///
/// # Errors
///
/// Typed capacity failures ([`FlowErrorKind::Overlay`]) when the machine
/// exceeds the overlay ladder; otherwise see [`FlowError`].
pub fn emb_overlay_flow(
    stg: &Stg,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    accounted(|| {
        let overlay_error =
            |e| FlowError::new(stg.name(), FlowStage::Map, FlowErrorKind::Overlay(e));
        let impl_stg = prepared(stg, cfg)?;
        let class = OverlayClass::plan(
            impl_stg.num_inputs(),
            impl_stg.num_states(),
            impl_stg.num_outputs(),
        )
        .map_err(overlay_error)?;
        let key = cache::overlay_frontend_key(stg, cfg.minimize_states);
        let design = frontend(stg, cfg, ImplKind::EmbOverlay, &key, || {
            let ovl = overlay_fsm(&impl_stg).map_err(overlay_error)?;
            Ok(built(ovl.fsm_netlist(), None, None))
        })?;
        let mut base = design.netlist.with_zeroed_bram_init();
        base.name = class.label();
        physical(design, stg, stimulus, cfg, Resolve::Overlay { class, base })
    })
}

/// Runs the EMB flow with the full degradation ladder: if mapping (or
/// fitting the mapped design) fails at every rung — direct, column
/// compaction, series join, device upsize — the machine is implemented as
/// the conventional FF+LUT baseline instead, and the downgrade is recorded
/// in the report. This mirrors the paper's framing of EMB mapping as an
/// *alternative* to the FF implementation: any well-formed machine
/// completes. Correctness failures (synthesis/verify bugs) still propagate.
///
/// # Errors
///
/// Only non-capacity failures — see [`FlowError::is_capacity`].
pub fn emb_flow_with_fallback(
    stg: &Stg,
    emb_opts: &EmbOptions,
    synth_opts: SynthOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    accounted(|| {
        on_capacity(
            emb_flow(stg, emb_opts, stimulus, cfg),
            || ff_flow(stg, synth_opts, stimulus, cfg),
            |reason| Downgrade::EmbToFf { reason },
        )
    })
}

/// Runs the EMB flow with Sec. 6 clock control.
///
/// # Errors
///
/// Any stage may fail; see [`FlowError`].
pub fn emb_clock_controlled_flow(
    stg: &Stg,
    emb_opts: &EmbOptions,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<FlowReport, FlowError> {
    accounted(|| {
        let key = cache::emb_frontend_key("embcc", stg, emb_opts, cfg.minimize_states);
        let mut design = frontend(stg, cfg, ImplKind::EmbClockControlled, &key, || {
            let emb = mapped(stg, cfg, emb_opts)?;
            let (netlist, control) = attach_emb_clock_control(&emb, emb_opts.lut_map)
                .map_err(|e| clock_control_error(stg, e))?;
            Ok(built(netlist, None, Some(&control)))
        })?;
        // The ECO base: the plain design this clock-controlled netlist
        // extends, its front-end time charged to this run. Resolving it can
        // only fail if the plain mapping fails, in which case the gated
        // flow still completes with a full placement.
        let resolve = match cfg.eco_place.then(|| emb_frontend(stg, emb_opts, cfg)) {
            Some(Ok(plain)) => {
                design.stage.synth_ms += plain.stage.synth_ms;
                design.stage.verify_ms += plain.stage.verify_ms;
                Resolve::Eco(plain.netlist)
            }
            Some(Err(e)) => {
                design.downgrades.push(Downgrade::EcoFallback {
                    reason: e.to_string(),
                });
                Resolve::Full
            }
            None => Resolve::Full,
        };
        physical(design, stg, stimulus, cfg, resolve)
    })
}

/// The stimulus vectors plus the idle fraction the oracle achieves on
/// them.
fn stimulus_vectors(stimulus: &Stimulus, oracle: &Stg, cfg: &FlowConfig) -> (Vec<Vec<bool>>, f64) {
    let vectors = match stimulus {
        Stimulus::Random => netstim::random(oracle.num_inputs(), cfg.cycles, cfg.seed),
        Stimulus::IdleBiased(p) => crate::stimulus::idle_biased(oracle, cfg.cycles, *p, cfg.seed),
        Stimulus::Replay(v) => v.clone(),
    };
    let idle = idle_fraction(oracle, &trace(oracle, vectors.clone()));
    (vectors, idle)
}

/// How the physical driver resolves placement and routing on each ladder
/// device — the one part of the physical half that differs by flow.
enum Resolve {
    /// Full placement (cached per netlist and device), then routing.
    Full,
    /// ECO first: pin every entity of this plain base netlist at its
    /// placement's coordinates and place only the enable-cone delta. Any
    /// failure falls through to the full placement on the same device and
    /// is recorded as [`Downgrade::EcoFallback`] unless a later device
    /// succeeds incrementally.
    Eco(Netlist),
    /// Reuse the overlay class base's stored placement and routing,
    /// building and caching them on first use. The FSM netlist shares the
    /// base's structure cell for cell and net for net — only the BRAM init
    /// images differ, and neither placement nor routing reads those — so
    /// the stored result is exact. Budget and upsize downgrades replay
    /// from the stored artifact: the placement carries its own budget
    /// outcome, and the device is part of the key.
    Overlay {
        /// The machine's overlay class.
        class: OverlayClass,
        /// The class base: the netlist with its BRAM images zeroed, named
        /// for the class.
        base: Netlist,
    },
}

/// One device's worth of physical implementation evidence: what was
/// packed and placed, how the placer's budget fared, and the ECO or
/// overlay evidence when that path produced it.
struct Implemented {
    device: Device,
    packed: PackedDesign,
    place_budget: BudgetOutcome,
    routed: RoutedDesign,
    coord_digest: String,
    place_fmax_est_mhz: f64,
    eco: Option<EcoReport>,
    overlay: Option<OverlayReport>,
}

impl Implemented {
    /// The evidence for `netlist` placed at `placement` and routed on
    /// `device`, with the placer's pre-route fmax estimate (`NaN` when its
    /// kernel cannot be built for the netlist).
    fn new(
        netlist: &Netlist,
        device: Device,
        packed: PackedDesign,
        placement: &Placement,
        routed: RoutedDesign,
        delay: &DelayModel,
    ) -> Self {
        Implemented {
            device,
            place_budget: placement.budget,
            coord_digest: placement_digest(placement),
            place_fmax_est_mhz: fpga_fabric::sta::estimate_critical_ns(
                netlist, &packed, placement, delay,
            )
            .map_or(f64::NAN, |ns| 1000.0 / ns.max(f64::MIN_POSITIVE)),
            packed,
            routed,
            eco: None,
            overlay: None,
        }
    }
}

/// Digest over a placement's CLB, BRAM and IOB site lists.
fn placement_digest(p: &Placement) -> String {
    cache::coords_digest(&p.clb_loc, &p.bram_loc, &p.iob_loc)
}

/// What every device attempt of one design shares.
struct Target<'a> {
    name: &'a str,
    netlist: &'a Netlist,
    packed: PackedDesign,
    /// The bytes the physical artifacts are keyed by: the netlist's own,
    /// or the class base's on the overlay.
    key_bytes: Vec<u8>,
    cfg: &'a FlowConfig,
}

impl Target<'_> {
    fn place_error(&self, e: PlaceError) -> FlowError {
        FlowError::new(self.name, FlowStage::Place, FlowErrorKind::Place(e))
    }

    fn route_error(&self, e: RouteError) -> FlowError {
        FlowError::new(self.name, FlowStage::Route, FlowErrorKind::Route(e))
    }

    /// Full placement (loaded, or computed and cached) and routing.
    fn full(&self, device: Device, stage: &mut StageTimings) -> Result<Implemented, FlowError> {
        let popts = self.cfg.place_opts();
        let (placement, _) = timed(&mut stage.place_ms, || {
            let key = cache::place_key(&self.key_bytes, &device, popts);
            cache::cached(&key, cache::always, || {
                place(self.netlist, &self.packed, device, popts)
            })
        })
        .map_err(|e| self.place_error(e))?;
        let routed = timed(&mut stage.route_ms, || {
            route(self.netlist, &self.packed, &placement, self.cfg.route)
        })
        .map_err(|e| self.route_error(e))?;
        Ok(Implemented::new(
            self.netlist,
            device,
            self.packed.clone(),
            &placement,
            routed,
            &self.cfg.delay,
        ))
    }

    /// The ECO attempt: reuse (or compute and cache) the base netlist's
    /// placement, pack this netlist as base + delta, pin every base
    /// entity, place only the delta, and route. A failure comes back as
    /// the display string for the [`Downgrade::EcoFallback`] record.
    fn eco(
        &self,
        base: &Netlist,
        device: Device,
        stage: &mut StageTimings,
    ) -> Result<Implemented, String> {
        let popts = self.cfg.place_opts();
        let (packed, eco, report) = timed(&mut stage.place_ms, || {
            let base_packed = pack(base);
            let bkey = cache::place_key(&cache::encode_netlist(base), &device, popts);
            let (base_placement, base_reuse_cache_hit) =
                cache::cached(&bkey, cache::always, || {
                    place(base, &base_packed, device, popts)
                        .map_err(|e| format!("base placement: {e}"))
                })?;
            let packed = pack_partitioned(self.netlist, &base_packed, base.cells().len())
                .map_err(|e| format!("partitioned pack: {e}"))?;
            let pins = PinnedEntities::pin_base(&base_placement, &packed);
            let base_coord_digest = placement_digest(&base_placement);
            let ekey = cache::eco_place_key(&self.key_bytes, &device, popts, &base_coord_digest);
            // A cached ECO placement must still honour today's pin map (the
            // key makes collisions unlikely; the check makes them harmless).
            let honours_pins = |e: &EcoPlacement| {
                e.placement.device.name == device.name
                    && verify_eco_placement(&e.placement, &pins).is_ok()
            };
            let (eco, _) = cache::cached(&ekey, honours_pins, || {
                place_incremental(self.netlist, &packed, device, popts, &pins)
                    .map_err(|e| format!("eco placement: {e}"))
            })?;
            let report = EcoReport {
                pinned_entities: eco.pinned_entities,
                delta_entities: eco.delta_entities,
                delta_hpwl: eco.delta_hpwl,
                base_reuse_cache_hit,
                base_coord_digest,
            };
            Ok::<_, String>((packed, eco, report))
        })?;
        let routed = timed(&mut stage.route_ms, || {
            route(self.netlist, &packed, &eco.placement, self.cfg.route)
        })
        .map_err(|e| format!("routing: {e}"))?;
        let mut imp = Implemented::new(
            self.netlist,
            device,
            packed,
            &eco.placement,
            routed,
            &self.cfg.delay,
        );
        imp.eco = Some(report);
        Ok(imp)
    }

    /// The overlay attempt: load the class base's placement and routing
    /// (or build and store them) and reuse them verbatim for this netlist.
    fn overlay(
        &self,
        class: &OverlayClass,
        base: &Netlist,
        device: Device,
        stage: &mut StageTimings,
    ) -> Result<Implemented, FlowError> {
        let popts = self.cfg.place_opts();
        let bkey = cache::overlay_base_key(&self.key_bytes, &device, popts, self.cfg.route);
        let mut route_ms = 0.0;
        let (ovl_base, base_cache_hit) = timed(&mut stage.place_ms, || {
            cache::cached(&bkey, cache::always, || {
                let base_packed = pack(base);
                let placement =
                    place(base, &base_packed, device, popts).map_err(|e| self.place_error(e))?;
                let routed = timed(&mut route_ms, || {
                    route(base, &base_packed, &placement, self.cfg.route)
                })
                .map_err(|e| self.route_error(e))?;
                Ok(cache::OverlayBase { placement, routed })
            })
        })?;
        // Routing a fresh base ran inside the placement timer: move it to
        // its own bucket.
        stage.place_ms -= route_ms;
        stage.route_ms += route_ms;
        let mut imp = Implemented::new(
            self.netlist,
            device,
            self.packed.clone(),
            &ovl_base.placement,
            ovl_base.routed,
            &self.cfg.delay,
        );
        imp.overlay = Some(OverlayReport {
            base_cache_hit,
            class: class.label(),
            addr_bits: class.addr_bits(),
            state_bits: class.state_bits,
            data_bits: class.data_width(),
            banks: class.banks,
        });
        Ok(imp)
    }
}

/// The devices a flow may implement on: the configured device, then —
/// when upsizing is allowed — the rest of the family above it.
fn device_ladder(cfg: &FlowConfig) -> Vec<Device> {
    let family_from: Vec<Device> = fpga_fabric::device::FAMILY
        .iter()
        .copied()
        .skip_while(|d| d.name != cfg.device.name)
        .collect();
    if cfg.allow_device_upsize && !family_from.is_empty() {
        family_from
    } else {
        vec![cfg.device]
    }
}

/// The physical driver every flow shares: validate and pack the design,
/// walk the device ladder resolving each device as `resolve` says until
/// one succeeds, record the upsize and place-budget downgrades, analyze
/// timing, simulate the stimulus for switching activity, estimate power,
/// and assemble the report.
fn physical(
    design: Design,
    oracle: &Stg,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
    resolve: Resolve,
) -> Result<FlowReport, FlowError> {
    let Design {
        name,
        kind,
        netlist,
        clock_control,
        mut downgrades,
        mut stage,
    } = design;
    let fail = |stage, kind| FlowError::new(name.as_str(), stage, kind);
    let (vectors, idle) = stimulus_vectors(stimulus, oracle, cfg);
    netlist
        .validate()
        .map_err(|e| fail(FlowStage::Pack, FlowErrorKind::Netlist(e)))?;
    let target = Target {
        name: &name,
        netlist: &netlist,
        packed: pack(&netlist),
        key_bytes: cache::encode_netlist(match &resolve {
            Resolve::Overlay { base, .. } => base,
            _ => &netlist,
        }),
        cfg,
    };
    let mut last_err = None;
    let mut eco_failure = None;
    let implemented = device_ladder(cfg).into_iter().find_map(|device| {
        let attempt = match &resolve {
            Resolve::Full => target.full(device, &mut stage),
            Resolve::Eco(base) => target.eco(base, device, &mut stage).or_else(|reason| {
                eco_failure = Some(reason);
                target.full(device, &mut stage)
            }),
            Resolve::Overlay { class, base } => target.overlay(class, base, device, &mut stage),
        };
        attempt.map_err(|e| last_err = Some(e)).ok()
    });
    let Some(imp) = implemented else {
        return Err(last_err.unwrap_or_else(|| {
            fail(
                FlowStage::Place,
                FlowErrorKind::Place(PlaceError::DoesNotFit {
                    what: "devices",
                    need: 1,
                    have: 0,
                }),
            )
        }));
    };
    // An ECO failure is only a downgrade if the flow did NOT end up on the
    // ECO path (a later device may have succeeded incrementally).
    if imp.eco.is_none() {
        downgrades.extend(eco_failure.map(|reason| Downgrade::EcoFallback { reason }));
    }
    if imp.device.name != cfg.device.name {
        downgrades.push(Downgrade::DeviceUpsized {
            from: cfg.device.name,
            to: imp.device.name,
        });
    }
    if let BudgetOutcome::Exhausted { spent } = imp.place_budget {
        downgrades.push(Downgrade::PlaceBudgetExhausted { spent });
    }
    let timing = analyze(&netlist, &imp.routed, &cfg.delay);

    // Activity recording runs on the bit-parallel kernel in single-lane
    // mode: the stimulus is one sequential stream, so only one lane
    // carries it, and toggle counting goes through the word-wide
    // XOR/popcount path.
    let mut sim = BatchSimulator::new(&netlist)
        .map_err(|e| fail(FlowStage::Simulate, FlowErrorKind::Netlist(e)))?;
    sim.run_sequential(&vectors);
    let power: Vec<PowerReport> = cfg
        .freqs_mhz
        .iter()
        .map(|&f| {
            estimate(&netlist, &imp.routed, sim.activity(), f, &cfg.power)
                .map_err(|e| fail(FlowStage::Simulate, FlowErrorKind::Power(e)))
        })
        .collect::<Result<_, _>>()?;

    Ok(FlowReport {
        area: imp.packed.area(&netlist),
        name,
        kind,
        power,
        timing,
        idle_fraction: idle,
        clock_control,
        total_wirelength: imp.routed.total_wirelength,
        device: imp.device,
        downgrades,
        cache: cache::CacheStats::default(),
        coord_digest: imp.coord_digest,
        place_fmax_est_mhz: imp.place_fmax_est_mhz,
        eco: imp.eco,
        stage_ms: stage,
        overlay: imp.overlay,
    })
}

/// Convenience: the EMB mapping object for reporting (same options the
/// flow would use).
///
/// # Errors
///
/// Propagates mapping failures.
pub fn mapping_for(stg: &Stg, emb_opts: &EmbOptions) -> Result<EmbFsm, FlowError> {
    map_fsm_into_embs(stg, emb_opts)
        .map_err(|e| FlowError::new(stg.name(), FlowStage::Map, FlowErrorKind::Map(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_model::benchmarks::{rotary_sequencer, sequence_detector_0101, traffic_light};

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            cycles: 600,
            verify_cycles: 200,
            place: PlaceOptions {
                seed: 1,
                effort: 2.0,
                ..PlaceOptions::default()
            },
            ..FlowConfig::default()
        }
    }

    #[test]
    fn ff_and_emb_flows_complete_and_compare() {
        let stg = sequence_detector_0101();
        let cfg = quick_cfg();
        let ff = ff_flow(&stg, SynthOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let emb = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(ff.kind, ImplKind::Ff);
        assert_eq!(emb.kind, ImplKind::Emb);
        assert_eq!(ff.area.brams, 0);
        assert_eq!(emb.area.brams, 1);
        assert_eq!(emb.area.luts, 0, "tiny FSM needs no aux LUTs");
        assert!(ff.area.luts > 0);
        // Both report power at all three paper frequencies, and both carry
        // the placer's pre-route fmax estimate.
        for r in [&ff, &emb] {
            assert_eq!(r.power.len(), 3);
            assert!(r.power_at(85.0).is_some());
            assert!(r.power[0].total_mw() > 0.0);
            assert!(
                r.place_fmax_est_mhz.is_finite() && r.place_fmax_est_mhz > 0.0,
                "placer fmax estimate missing: {}",
                r.place_fmax_est_mhz
            );
        }
    }

    #[test]
    fn clock_controlled_flow_reports_overhead_and_saves_power() {
        // Rotary sequencer halted most of the time: the EMB+cc variant
        // must consume visibly less than the free-running EMB.
        let stg = rotary_sequencer();
        let cfg = quick_cfg();
        let stim = Stimulus::IdleBiased(0.7);
        let emb = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        assert!(cc.clock_control.is_some());
        assert!(cc.clock_control.unwrap().luts >= 1);
        assert!(cc.idle_fraction > 0.4, "idle {:.2}", cc.idle_fraction);
        let p_emb = emb.power_at(100.0).unwrap().dynamic_mw();
        let p_cc = cc.power_at(100.0).unwrap().dynamic_mw();
        assert!(
            p_cc < p_emb,
            "clock control must save power: {p_cc:.2} vs {p_emb:.2}"
        );
    }

    #[test]
    fn eco_placement_pins_the_plain_design_exactly() {
        let stg = rotary_sequencer();
        let cfg = quick_cfg();
        let stim = Stimulus::IdleBiased(0.5);
        let emb = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg).unwrap();
        let eco = cc
            .eco
            .as_ref()
            .expect("ECO path must engage on a fitting design");
        assert_eq!(
            eco.base_coord_digest, emb.coord_digest,
            "pinned base coordinates must be byte-identical to the plain placement"
        );
        assert!(eco.pinned_entities > 0, "base entities are pinned");
        assert!(eco.delta_entities > 0, "the enable cone is the delta");
        assert!(
            !cc.downgrades
                .iter()
                .any(|d| matches!(d, Downgrade::EcoFallback { .. })),
            "no fallback on the happy path: {:?}",
            cc.downgrades
        );
        // Opting out really opts out.
        let cfg_off = FlowConfig {
            eco_place: false,
            ..quick_cfg()
        };
        let full =
            emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg_off).unwrap();
        assert!(full.eco.is_none());
    }

    #[test]
    fn ff_gated_flow_completes() {
        let stg = traffic_light();
        let cfg = quick_cfg();
        let r = ff_clock_gated_flow(
            &stg,
            SynthOptions::default(),
            &Stimulus::IdleBiased(0.5),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.kind, ImplKind::FfClockGated);
        assert!(r.clock_control.is_some());
    }

    #[test]
    fn minimization_pre_pass_is_transparent() {
        // A machine with a redundant state: the flow minimizes it away yet
        // still verifies against the ORIGINAL oracle.
        let mut b = fsm_model::stg::StgBuilder::new("red", 1, 1);
        let a = b.state("A");
        let x = b.state("B");
        let y = b.state("B2"); // behaviourally identical to B
        b.transition(a, "1", x, "1");
        b.transition(a, "0", y, "1");
        b.transition(x, "-", a, "0");
        b.transition(y, "-", a, "0");
        let stg = b.build().unwrap();
        let cfg = FlowConfig {
            minimize_states: true,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.area.brams, 1);
        // 2 states after minimization -> 1 state bit -> 2 address bits.
        let emb = crate::map::map_fsm_into_embs(
            &fsm_model::minimize::minimize(&stg).unwrap().stg,
            &EmbOptions::default(),
        )
        .unwrap();
        assert_eq!(emb.num_state_bits(), 1);
    }

    #[test]
    fn overlay_flow_shares_one_base_across_a_class() {
        // Two different machines of one overlay class: the second compile
        // must reuse the first's base artifact, landing on byte-identical
        // coordinates.
        let mk = |seed: u64| {
            let spec = fsm_model::generate::StgSpec {
                states: 6,
                inputs: 3,
                outputs: 2,
                transitions: 18,
                seed,
                ..fsm_model::generate::StgSpec::new(format!("ovlcls{seed}"))
            };
            fsm_model::generate::generate(&spec).unwrap()
        };
        let cfg = quick_cfg();
        let a = emb_overlay_flow(&mk(3), &Stimulus::Random, &cfg).unwrap();
        let b = emb_overlay_flow(&mk(8), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(a.kind, ImplKind::EmbOverlay);
        let oa = a.overlay.as_ref().expect("overlay evidence");
        let ob = b.overlay.as_ref().expect("overlay evidence");
        assert_eq!(oa.class, ob.class);
        assert_eq!(oa.state_bits, 4, "6 states pad to the 4-bit rung");
        assert!(
            ob.base_cache_hit,
            "second machine of the class must reuse the stored base"
        );
        assert_eq!(
            a.coord_digest, b.coord_digest,
            "one base, one placement: identical coordinates for the class"
        );
        assert!(b.power[0].total_mw() > 0.0);
        assert!(b.stage_ms.compile_ms() >= 0.0);
    }

    #[test]
    fn overlay_flow_dispatches_through_emb_flow() {
        let stg = sequence_detector_0101();
        let cfg = FlowConfig {
            backend: MapBackend::Overlay,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.kind, ImplKind::EmbOverlay);
        assert_eq!(r.overlay.as_ref().unwrap().class, "ovl_i1_s2_o1_b1");
        // The direct backend on the same machine reports no overlay
        // evidence and no stage regression.
        let d = emb_flow(
            &stg,
            &EmbOptions::default(),
            &Stimulus::Random,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(d.kind, ImplKind::Emb);
        assert!(d.overlay.is_none());
    }

    #[test]
    fn auto_backend_downgrades_past_the_overlay_ladder() {
        // 13 inputs + 9 states (rung 4) = 17 logical address bits: past
        // the overlay ladder. `auto` must absorb the typed capacity error
        // and complete on the direct backend with the downgrade recorded;
        // `overlay` must surface it as a typed capacity failure.
        let spec = fsm_model::generate::StgSpec {
            states: 9,
            inputs: 13,
            outputs: 2,
            transitions: 40,
            max_support: Some(3),
            ..fsm_model::generate::StgSpec::new("wide13")
        };
        let stg = fsm_model::generate::generate(&spec).unwrap();
        let cfg = FlowConfig {
            backend: MapBackend::Auto,
            exhaustive_verify_max_inputs: 8,
            ..quick_cfg()
        };
        let r = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        assert_eq!(r.kind, ImplKind::Emb, "fell back to the direct backend");
        assert!(
            r.downgrades
                .iter()
                .any(|d| matches!(d, Downgrade::OverlayCapacity { .. })),
            "downgrade missing: {:?}",
            r.downgrades
        );
        let cfg_ovl = FlowConfig {
            backend: MapBackend::Overlay,
            ..cfg
        };
        let err = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg_ovl).unwrap_err();
        assert!(err.is_capacity(), "typed capacity failure: {err}");
        assert!(matches!(err.kind, FlowErrorKind::Overlay(_)));
    }

    #[test]
    fn map_backend_parses_the_knob_values() {
        assert_eq!(MapBackend::parse("direct"), Some(MapBackend::Direct));
        assert_eq!(MapBackend::parse("overlay"), Some(MapBackend::Overlay));
        assert_eq!(MapBackend::parse("auto"), Some(MapBackend::Auto));
        assert_eq!(MapBackend::parse("Overlay"), None);
        assert_eq!(format!("{}", MapBackend::Auto), "auto");
    }

    #[test]
    fn emb_timing_is_complexity_independent() {
        // Two machines of very different transition counts, same interface
        // scale: EMB critical paths should be close; FF paths should not.
        let small = sequence_detector_0101();
        let spec = fsm_model::generate::StgSpec {
            states: 30,
            inputs: 5,
            outputs: 4,
            transitions: 150,
            ..fsm_model::generate::StgSpec::new("big")
        };
        let big = fsm_model::generate::generate(&spec).expect("generates");
        let cfg = quick_cfg();
        let e_small = emb_flow(&small, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let e_big = emb_flow(&big, &EmbOptions::default(), &Stimulus::Random, &cfg).unwrap();
        let ratio = e_big.timing.critical_path_ns / e_small.timing.critical_path_ns;
        assert!(
            ratio < 1.6,
            "EMB timing should be ~flat across complexity, got {ratio:.2}"
        );
    }
}
