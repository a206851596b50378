//! End-to-end and per-layer benchmark of the compile flow.
//!
//! ```text
//! perfbench --workload cold|warm|auto [--seed N] [--seconds S] [--trace 0|1]
//!           [--per-tier K] [--paper P]
//! ```
//!
//! One compile thread, closed loop: the next compile starts when the
//! previous one returns. Set-up runs in this process; each timed pass
//! over the mix runs in a fresh child process, one after the other (so
//! peak RSS is the pass's own, and a `warm` pass sees exactly what a
//! restarted process sees). Each compile is timed in CPU time of the
//! compile thread, and an item's cost is its best over the passes (see
//! `e2e_metrics`). With `--trace 1` one timed pass runs, and a
//! traced pass then compiles every item again and replays its final
//! configuration through the layers' public functions (see `replay.rs`).
//!
//! Every metric prints by name and unit; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed compile or output check makes the run exit non-zero. See
//! README.md for the workloads, metrics and sizing.

mod calib;
mod mix;
mod outcome;
mod replay;
mod stats;
mod store;

use emb_fsm::flow::{emb_overlay_flow, FlowError, FlowReport, ImplKind, MapBackend};
use mix::{Item, MixSpec};
use outcome::{Qor, Rungs};
use paper_bench::corpus::FlowChoice;
use replay::{Replayed, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Default workload seed.
const DEFAULT_SEED: u64 = 2004;
/// Default timed-pass length.
const DEFAULT_SECONDS: f64 = 20.0;
/// Default corpus items per tier.
const DEFAULT_PER_TIER: usize = 5;
/// The committed Table 2 golden the paper machines are checked against.
const TABLE2_GOLDEN: &str = include_str!("../../results/table2_golden.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Every compile from an empty cache.
    Cold,
    /// Every compile served from a store filled at set-up.
    Warm,
    /// `MapBackend::Auto` against prebuilt overlay class bases.
    Auto,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold" => Some(Workload::Cold),
            "warm" => Some(Workload::Warm),
            "auto" => Some(Workload::Auto),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Auto => "auto",
        }
    }

    fn backend(self) -> MapBackend {
        match self {
            Workload::Auto => MapBackend::Auto,
            Workload::Cold | Workload::Warm => MapBackend::Direct,
        }
    }

    /// Set-up repetitions whose median is `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Cold => 9,
            Workload::Warm | Workload::Auto => 2,
        }
    }

    /// Puts the store in the state every compile of this workload starts
    /// from.
    fn prepare(self, dir: &Path) {
        match self {
            Workload::Cold => store::clear_all(dir),
            Workload::Warm => emb_fsm::cache::reset_memory(),
            Workload::Auto => store::clear_except_bases(dir),
        }
    }
}

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    per_tier: usize,
    paper: usize,
    /// Internal: run as a timed-pass child against this store.
    child_store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Cold,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        per_tier: DEFAULT_PER_TIER,
        paper: fsm_model::benchmarks::PAPER_BENCHMARKS.len(),
        child_store: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad(&value))?),
            "--seed" => a.seed = value.parse().map_err(|_| bad(&value))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad(&value))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err(bad(&value));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&value)),
                }
            }
            "--per-tier" => a.per_tier = value.parse().map_err(|_| bad(&value))?,
            "--paper" => {
                a.paper = value.parse().map_err(|_| bad(&value))?;
                if a.paper > fsm_model::benchmarks::PAPER_BENCHMARKS.len() {
                    return Err(bad(&value));
                }
            }
            "--child-store" => a.child_store = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload cold|warm|auto is required")?;
    if a.paper + a.per_tier == 0 {
        return Err("the mix is empty".to_string());
    }
    Ok(a)
}

fn mix_spec(a: &Args) -> MixSpec {
    MixSpec {
        seed: a.seed,
        paper: a.paper,
        per_tier: a.per_tier,
        backend: a.workload.backend(),
    }
}

/// The checkout root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."))
}

/// This process's peak resident set (`VmHWM`), in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time this thread has run, in ms (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The kernel leaves out the time the thread waited for a core and,
/// with paravirtual steal accounting, the time the host gave its core to
/// another guest. The flow is single-threaded, so on a shared machine
/// this follows a compile's own work far more steadily than wall time.
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// The golden Table 2 EMB row of a paper machine: power at 50/85/100
/// MHz and fmax, as printed.
fn golden_row(name: &str) -> Option<[&'static str; 4]> {
    TABLE2_GOLDEN.lines().find_map(|l| {
        let cols: Vec<&str> = l.split_whitespace().collect();
        (cols.len() >= 8 && cols[0] == name).then(|| [cols[4], cols[5], cols[6], cols[7]])
    })
}

/// Output checks on one report beyond the flow's own proof: the golden
/// Table 2 EMB values for paper machines on the direct backend, and a
/// warm class base for every overlay report on `auto`.
fn check_report(w: Workload, item: &Item, r: &FlowReport) -> Result<(), String> {
    if item.is_paper() && w != Workload::Auto {
        let want = golden_row(&item.name).ok_or_else(|| format!("{}: no golden row", item.name))?;
        let p = |f: f64| {
            r.power_at(f)
                .map_or_else(|| "-".to_string(), |p| format!("{:.2}", p.total_mw()))
        };
        let got = [
            p(50.0),
            p(85.0),
            p(100.0),
            format!("{:.1}", r.timing.fmax_mhz),
        ];
        if got.iter().zip(want).any(|(g, w)| g != w) {
            return Err(format!(
                "{}: table2 golden {want:?}, got {got:?}",
                item.name
            ));
        }
    }
    if w == Workload::Auto && r.kind == ImplKind::EmbOverlay {
        if let Some(o) = &r.overlay {
            if !o.base_cache_hit {
                return Err(format!(
                    "{}: overlay base {} was not prebuilt",
                    item.name, o.class
                ));
            }
        }
    }
    Ok(())
}

/// A compile's result: its QoR (`None` for an accepted budget refusal)
/// and fingerprint, or why it failed (a flow error or a failed check).
type Verdict = Result<(Option<Qor>, String), String>;

/// One compile as seen by the parent.
#[derive(Debug, Clone)]
struct Sample {
    /// Pass over the mix this compile belonged to.
    pass: usize,
    idx: usize,
    /// Wall time of the flow call.
    ms: f64,
    /// CPU time of the flow call (see [`thread_cpu_ms`]).
    cpu_ms: f64,
    /// CPU time of the calibration kernel run just before the call.
    cal_ms: f64,
    result: Verdict,
}

/// Judges one compile: its QoR and fingerprint, or why it failed.
fn verdict(
    w: Workload,
    idx: usize,
    item: &Item,
    rungs: &mut Rungs,
    compiled: Result<FlowReport, FlowError>,
) -> (Verdict, Option<FlowReport>) {
    match compiled {
        Ok(r) => {
            let res = check_report(w, item, &r)
                .map(|()| (Some(Qor::of(&r)), rungs.fingerprint(idx, item, &r)));
            (res, Some(r))
        }
        Err(e) if item.refusal_expected(&e) => (Ok((None, format!("refused|{e}"))), None),
        Err(e) => (Err(format!("flow error: {e}")), None),
    }
}

/// Compiles `item` once (after `prepare`), timing only the flow call.
fn timed_compile(
    w: Workload,
    dir: &Path,
    idx: usize,
    item: &Item,
    rungs: &mut Rungs,
) -> (Sample, Option<FlowReport>) {
    w.prepare(dir);
    let (t, cpu) = (Instant::now(), thread_cpu_ms());
    let compiled = item.compile();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = thread_cpu_ms() - cpu;
    let (result, report) = verdict(w, idx, item, rungs, compiled);
    (
        Sample {
            pass: 0,
            idx,
            ms,
            cpu_ms,
            cal_ms: f64::NAN,
            result,
        },
        report,
    )
}

/// The timed-pass child: one pass over the mix in a fresh process.
/// Prints one line per compile and the process's peak RSS.
fn child(a: &Args, dir: &Path) -> Result<(), String> {
    store::use_private_store(dir)?;
    let items = mix::build(mix_spec(a))?;
    let mut rungs = Rungs::default();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut kernel = calib::Kernel::new();
    for (idx, item) in items.iter().enumerate() {
        let cal_ms = kernel.run();
        let (s, _) = timed_compile(a.workload, dir, idx, item, &mut rungs);
        let tail = match &s.result {
            Ok((q, fp)) => format!("ok\t{}\t{fp}", Qor::encode(*q)),
            Err(e) => format!("fail\t{}", e.replace(['\t', '\n'], " ")),
        };
        writeln!(
            out,
            "compile\t{idx}\t{:016x}\t{:016x}\t{:016x}\t{tail}",
            s.ms.to_bits(),
            s.cpu_ms.to_bits(),
            cal_ms.to_bits()
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "rss_kb\t{}", peak_rss_kb().unwrap_or(0)).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// What the timed passes reported.
#[derive(Default)]
struct Timed {
    samples: Vec<Sample>,
    /// Peak RSS of each pass's process.
    rss_kb: Vec<u64>,
}

/// Parses one child's output as pass `pass` into `timed`.
fn parse_child(text: &str, pass: usize, timed: &mut Timed) -> Result<(), String> {
    let bad = |line: &str| format!("bad timed-pass line: {line}");
    let mut rss_kb = None;
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let (idx, [ms, cpu_ms, cal_ms], result) = match f.as_slice() {
            ["compile", idx, ms, cpu_ms, cal_ms, "ok", qor, fp] => {
                let q: Vec<&str> = qor.split(' ').collect();
                let qor = Qor::decode(&q).ok_or_else(|| bad(line))?;
                (idx, [ms, cpu_ms, cal_ms], Ok((qor, (*fp).to_string())))
            }
            ["compile", idx, ms, cpu_ms, cal_ms, "fail", msg] => {
                (idx, [ms, cpu_ms, cal_ms], Err((*msg).to_string()))
            }
            ["rss_kb", kb] => {
                rss_kb = kb.parse().ok();
                continue;
            }
            _ => return Err(bad(line)),
        };
        let float = |bits: &str| {
            u64::from_str_radix(bits, 16)
                .map(f64::from_bits)
                .map_err(|_| bad(line))
        };
        timed.samples.push(Sample {
            pass,
            idx: idx.parse().map_err(|_| bad(line))?,
            ms: float(ms)?,
            cpu_ms: float(cpu_ms)?,
            cal_ms: float(cal_ms)?,
            result,
        });
    }
    timed
        .rss_kb
        .push(rss_kb.ok_or("timed pass reported no peak RSS")?);
    Ok(())
}

/// Runs timed passes over about `seconds` of compile time (at least one
/// pass; another starts only if it would end less than half a pass past
/// the budget), each pass in a fresh child process: a `warm` pass then
/// sees what a restarted process sees, and a run spreads over several
/// processes, whose speeds on a shared machine differ by several
/// percent, instead of betting on one.
fn timed_passes(a: &Args, dir: &Path, seconds: f64) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let mut spent_ms = 0.0;
    let mut pass = 0;
    let mut last_ms = 0.0;
    while pass == 0 || spent_ms + last_ms / 2.0 < seconds * 1e3 {
        let before = timed.samples.len();
        run_pass(a, dir, pass, &mut timed)?;
        last_ms = timed.samples[before..].iter().map(|s| s.ms).sum::<f64>();
        spent_ms += last_ms;
        pass += 1;
    }
    Ok(timed)
}

/// One timed child process: pass `pass` over the mix.
fn run_pass(a: &Args, dir: &Path, pass: usize, timed: &mut Timed) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--per-tier", &a.per_tier.to_string()])
        .args(["--paper", &a.paper.to_string()])
        .arg("--child-store")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn timed pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("timed pass exited with {}", out.status));
    }
    parse_child(&String::from_utf8_lossy(&out.stdout), pass, timed)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// Set-up for one repetition: build the mix, then fill the store
/// (`warm`, keeping each item's report fingerprint as the reference the
/// timed pass must reproduce) or prebuild every overlay class base
/// (`auto`).
fn setup(
    a: &Args,
    dir: &Path,
    rungs: &mut Rungs,
) -> Result<(Vec<Item>, BTreeMap<usize, Verdict>), String> {
    let items = mix::build(mix_spec(a))?;
    let mut reference = BTreeMap::new();
    match a.workload {
        Workload::Cold => {}
        Workload::Warm => {
            store::clear_all(dir);
            for (idx, item) in items.iter().enumerate() {
                let (result, _) = verdict(a.workload, idx, item, rungs, item.compile());
                reference.insert(idx, result);
            }
        }
        Workload::Auto => {
            store::clear_all(dir);
            // A base is addressed by its class and by the placement and
            // routing options of the item's profile, so one base per
            // (tier, class) covers every key the mix can ask for.
            let mut classes = BTreeSet::new();
            for item in items.iter().filter(|i| i.plan.flow == FlowChoice::Fallback) {
                let s = &item.stg;
                let Ok(class) = emb_fsm::overlay::OverlayClass::plan(
                    s.num_inputs(),
                    s.num_states(),
                    s.num_outputs(),
                ) else {
                    continue;
                };
                if !classes.insert((item.tier.clone(), class.label())) {
                    continue;
                }
                let p = &item.plan;
                if let Err(e) = emb_overlay_flow(s, &p.stimulus, &p.cfg) {
                    if !e.is_capacity() {
                        return Err(format!("base prebuild {}: {e}", item.name));
                    }
                }
            }
            store::clear_except_bases(dir);
        }
    }
    Ok((items, reference))
}

/// The traced pass: per item, compile (untraced) then replay the final
/// configuration with spans; check the compile against the timed pass
/// and the replay against the compile.
fn traced_pass(
    a: &Args,
    dir: &Path,
    items: &[Item],
    reference: &BTreeMap<usize, Verdict>,
    rungs: &mut Rungs,
    tracer: &mut Tracer,
) -> (Vec<Metric>, usize, Vec<String>) {
    let w = a.workload;
    let mut failures = Vec::new();
    let mut flow_ms = 0.0;
    let mut unattributed = 0.0;
    let mut disk_bytes = 0u64;
    let (mut fit, mut fit_attempts) = (0usize, 0usize);
    w.prepare(dir);
    disk_bytes += store::bytes(dir);
    for (idx, item) in items.iter().enumerate() {
        tracer.set_item(idx);
        if let Err(e) = tracer.span("fsm.generate", || mix::machine(&item.name, &item.source)) {
            failures.push(e);
        }
        let before = store::bytes(dir);
        let flow = tracer.open("flow");
        let (s, report) = timed_compile(w, dir, idx, item, rungs);
        tracer.close(flow);
        flow_ms += s.ms;
        disk_bytes += store::bytes(dir).saturating_sub(before);
        match (&s.result, reference.get(&idx)) {
            (Err(e), _) => failures.push(format!("{}: {e}", item.name)),
            (Ok((_, fp)), Some(Ok((_, ref_fp)))) if fp != ref_fp => {
                failures.push(format!(
                    "{}: traced compile differs from the timed pass",
                    item.name
                ));
            }
            _ => {}
        }
        let Some(report) = report else { continue };
        println!(
            "item {idx:>3} {:<10} {:<12} {:<8} {:<32} {:>9.2} ms  {}",
            report.kind.to_string(),
            report.device.name,
            item.tier,
            report.area.to_string(),
            s.ms,
            item.name
        );
        if w == Workload::Auto && item.plan.flow == FlowChoice::Fallback {
            fit_attempts += 1;
            fit += usize::from(report.kind == ImplKind::EmbOverlay);
        }
        w.prepare(dir);
        let root = tracer.open("replay");
        let replayed = replay::replay(tracer, item, &report);
        tracer.close(root);
        unattributed += s.ms - tracer.children_ms(root);
        match replayed {
            Ok(r) if r.same_as(&Replayed::of_report(&report)) => {}
            Ok(r) => failures.push(format!(
                "{}: replica differs from the flow report: {r:?} vs {:?}",
                item.name,
                Replayed::of_report(&report)
            )),
            Err(e) => failures.push(format!("{}: replay: {e}", item.name)),
        }
    }
    let ms = tracer.self_ms();
    let c = &tracer.counters;
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let compiles = get(c, "compiles");
    let metrics = vec![
        metric("place.ms", get(&ms, "place"), "ms"),
        metric("place.moves", get(c, "place.moves"), "count"),
        metric(
            "place.calls_per_compile",
            ratio(get(c, "place.calls"), compiles),
            "ratio",
        ),
        metric("verify.ms", get(&ms, "verify"), "ms"),
        metric(
            "verify.edges_checked",
            get(c, "verify.edges_checked"),
            "count",
        ),
        metric(
            "verify.sampled_cycles",
            get(c, "verify.sampled_cycles"),
            "count",
        ),
        metric("logic.synth_ms", get(&ms, "logic.synth"), "ms"),
        metric("logic.luts", get(c, "logic.luts"), "count"),
        metric("map.ms", get(&ms, "map"), "ms"),
        metric("map.brams", get(c, "map.brams"), "count"),
        metric("overlay.ms", get(&ms, "overlay"), "ms"),
        metric(
            "overlay.fit_ratio",
            ratio(fit as f64, fit_attempts as f64),
            "ratio",
        ),
        metric("route.ms", get(&ms, "route"), "ms"),
        metric("route.wirelength", get(c, "route.wirelength"), "count"),
        metric("sta.ms", get(&ms, "sta"), "ms"),
        metric("sim.ms", get(&ms, "sim"), "ms"),
        metric("sim.cycles", get(c, "sim.cycles"), "count"),
        metric("power.ms", get(&ms, "power"), "ms"),
        metric("pack.ms", get(&ms, "pack"), "ms"),
        metric("cache.load_ms", get(&ms, "cache.load"), "ms"),
        metric("cache.store_ms", get(&ms, "cache.store"), "ms"),
        metric("cache.key_ms", get(&ms, "cache.key"), "ms"),
        metric(
            "cache.hit_ratio",
            ratio(get(c, "cache.hits"), get(c, "cache.lookups")),
            "ratio",
        ),
        metric("cache.disk_bytes", disk_bytes as f64, "bytes"),
        metric("fsm.generate_ms", get(&ms, "fsm.generate"), "ms"),
        metric("flow.ms", flow_ms, "ms"),
        metric("flow.unattributed_ms", unattributed, "ms"),
    ];
    (metrics, items.len(), failures)
}

/// What a run measured and checked.
struct RunResult {
    metrics: Vec<Metric>,
    attempted: usize,
    /// Compiles answered with an accepted typed budget refusal.
    refused: usize,
    failures: Vec<String>,
}

fn run(a: &Args) -> Result<RunResult, String> {
    let set = store::ambient_knobs_set();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with ambient flow knobs set: {} (unset them; the benchmark measures the default program)",
            set.join(", ")
        ));
    }
    let root = repo_root();
    let guard = root.join("results").join("cache");
    let guard_before = store::snapshot(&guard);
    let work = root.join(".perfbench_work");
    let dir = work.join(format!(
        "store-{}-{}",
        a.workload.name(),
        std::process::id()
    ));
    store::use_private_store(&dir)?;
    let result = measure(a, &dir, &work);
    let _ = std::fs::remove_dir_all(&dir);
    let mut result = result?;
    if store::snapshot(&guard) != guard_before {
        result
            .failures
            .push(format!("{} changed during the run", guard.display()));
    }
    Ok(result)
}

fn print_header(a: &Args, dir: &Path) {
    let cfg = paper_bench::paper_config();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!(
        "mix: {} paper FSMs + {} corpus items per tier x {} tiers; backend {}",
        a.paper,
        a.per_tier,
        fsm_model::corpus::TIERS.len(),
        a.workload.backend()
    );
    println!(
        "flow config: device {} place effort {} timing_weight {} crit_exp {} retime_interval {} cycles {} verify_cycles {} seed {} eco_place {} minimize_states {}",
        cfg.device.name,
        cfg.place.effort,
        cfg.place.timing_weight,
        cfg.place.crit_exp,
        cfg.place.retime_interval,
        cfg.cycles,
        cfg.verify_cycles,
        cfg.seed,
        cfg.eco_place,
        cfg.minimize_states
    );
    println!("flow cache: private store {}", dir.display());
    println!(
        "load: closed loop, 1 compile thread, a fresh process per timed pass; {} cores available",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
}

fn measure(a: &Args, dir: &Path, work: &Path) -> Result<RunResult, String> {
    print_header(a, dir);
    let mut rungs = Rungs::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    let mut setup_wall_s = Vec::new();
    let mut kernel = calib::Kernel::new();
    for _ in 0..a.workload.setup_reps() {
        let mut cal: Vec<f64> = (0..3).map(|_| kernel.run()).collect();
        let (t, cpu) = (Instant::now(), thread_cpu_ms());
        built = Some(setup(a, dir, &mut rungs)?);
        let cpu_s = (thread_cpu_ms() - cpu) / 1e3;
        setup_wall_s.push(t.elapsed().as_secs_f64());
        cal.extend((0..3).map(|_| kernel.run()));
        setup_s.push(cpu_s * calib::NOMINAL_MS / stats::median(&cal));
    }
    let (items, mut reference) = built.ok_or("no set-up ran")?;
    println!(
        "setup: {} rep(s), {} items, store {} records / {} bytes, wall median {:.3} s",
        setup_s.len(),
        items.len(),
        store::count(dir),
        store::bytes(dir),
        stats::median(&setup_wall_s)
    );
    let timed = timed_passes(a, dir, if a.trace { 0.0 } else { a.seconds })?;

    // Output checks: every compile succeeded, passed its report checks,
    // and matches the item's reference (the warm fill, else the item's
    // first compile in the timed pass).
    let mut failures = Vec::new();
    for s in &timed.samples {
        let Some(item) = items.get(s.idx) else {
            failures.push(format!("timed pass reported unknown item {}", s.idx));
            continue;
        };
        if let Err(e) = &s.result {
            failures.push(format!("{}: {e}", item.name));
            continue;
        }
        let first = reference.entry(s.idx).or_insert_with(|| s.result.clone());
        match (&*first, &s.result) {
            (Ok((_, want)), Ok((_, got))) if want != got => {
                failures.push(format!(
                    "{}: result differs from reference\n  want {want}\n  got  {got}",
                    item.name
                ));
            }
            (Err(e), _) => failures.push(format!("{}: reference compile failed: {e}", item.name)),
            _ => {}
        }
    }
    let mut by_tier: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &timed.samples {
        if let Some(item) = items.get(s.idx) {
            by_tier.entry(&item.tier).or_default().push(s.cpu_ms);
        }
    }
    for (tier, ms) in &by_tier {
        println!(
            "tier {tier:<17} compiles {:>5}  CPU p50 {:>9.2} ms  max {:>9.2} ms  total {:>8.2} s",
            ms.len(),
            stats::median(ms),
            ms.iter().copied().fold(0.0, f64::max),
            ms.iter().sum::<f64>() / 1e3
        );
    }
    for (idx, item) in items.iter().enumerate() {
        if !timed.samples.iter().any(|s| s.idx == idx) {
            failures.push(format!("{}: never compiled", item.name));
        }
    }

    let refused = timed
        .samples
        .iter()
        .filter(|s| matches!(s.result, Ok((None, _))))
        .count();
    let metrics = if a.trace {
        let mut tracer = Tracer::new();
        let (metrics, attempted, traced_failures) =
            traced_pass(a, dir, &items, &reference, &mut rungs, &mut tracer);
        failures.extend(traced_failures);
        let spans = work.join(format!("spans-{}-{}.tsv", a.workload.name(), a.seed));
        std::fs::write(&spans, tracer.to_tsv()).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans.display()
        );
        return Ok(RunResult {
            metrics,
            attempted: attempted + timed.samples.len(),
            refused,
            failures,
        });
    } else {
        e2e_metrics(&timed, &reference, &setup_s)
    };
    Ok(RunResult {
        metrics,
        attempted: timed.samples.len(),
        refused,
        failures,
    })
}

/// Calibration runs on each side of a compile whose median gives the
/// machine speed the compile ran at.
const CAL_WINDOW: usize = 3;

/// Each sample's normalized cost: its CPU time times
/// `calib::NOMINAL_MS` over the machine speed around it, the median of
/// the calibration runs before the compiles within `CAL_WINDOW`
/// positions of it in its pass. `samples` are in pass and compile order.
fn normalized_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let near =
                &samples[j.saturating_sub(CAL_WINDOW)..(j + CAL_WINDOW + 1).min(samples.len())];
            let cal: Vec<f64> = near
                .iter()
                .filter(|t| t.pass == s.pass)
                .map(|t| t.cal_ms)
                .collect();
            s.cpu_ms * calib::NOMINAL_MS / stats::median(&cal)
        })
        .collect()
}

fn e2e_metrics(
    timed: &Timed,
    reference: &BTreeMap<usize, Verdict>,
    setup_s: &[f64],
) -> Vec<Metric> {
    // An item's cost is the median of its normalized costs over the
    // timed passes; the speed and percentile metrics are over these
    // per-item costs.
    let norm = normalized_ms(&timed.samples);
    let mut per_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (s, v) in timed.samples.iter().zip(&norm) {
        if s.result.is_ok() {
            per_item.entry(s.idx).or_default().push(*v);
        }
    }
    let cost: Vec<f64> = per_item.values().map(|v| stats::median(v)).collect();
    let passes = timed
        .samples
        .iter()
        .map(|s| s.pass)
        .max()
        .map_or(0, |p| p + 1);
    let n = cost.len();
    let beyond_p90 = n.saturating_sub((0.9 * n.saturating_sub(1) as f64).ceil() as usize + 1);
    let raw = |f: fn(&Sample) -> f64| -> Vec<f64> { timed.samples.iter().map(f).collect() };
    let (wall, cpu, cal) = (raw(|s| s.ms), raw(|s| s.cpu_ms), raw(|s| s.cal_ms));
    for (what, v) in [("wall clock", &wall), ("CPU time", &cpu)] {
        println!(
            "{what}: {:.3} compiles/s, p50 {:.2} ms, p90 {:.2} ms over {} compiles in {passes} passes",
            v.len() as f64 / (v.iter().sum::<f64>() / 1e3),
            stats::median(v),
            stats::quantile(v, 0.9),
            v.len()
        );
    }
    println!(
        "calibration kernel: median {:.3} ms, quartiles {:.3}..{:.3} ms (nominal {} ms)",
        stats::median(&cal),
        stats::quantile(&cal, 0.25),
        stats::quantile(&cal, 0.75),
        calib::NOMINAL_MS
    );
    let qor: Vec<Qor> = reference
        .values()
        .filter_map(|v| v.as_ref().ok().and_then(|(q, _)| *q))
        .collect();
    let mut m = vec![
        Metric {
            note: format!("{n} items, median of {passes} passes"),
            ..metric(
                "fsms_per_norm_s",
                n as f64 / (cost.iter().sum::<f64>() / 1e3),
                "1/s",
            )
        },
        Metric {
            note: format!("n={n}"),
            ..metric("compile_norm_p50_ms", stats::median(&cost), "ms")
        },
        Metric {
            note: format!("n={n}, {beyond_p90} beyond"),
            ..metric("compile_norm_p90_ms", stats::quantile(&cost, 0.9), "ms")
        },
        Metric {
            note: format!("normalized CPU time, median of {}", setup_s.len()),
            ..metric("setup_s", stats::median(setup_s), "s")
        },
        metric(
            "peak_rss_mb",
            timed.rss_kb.iter().copied().max().unwrap_or(0) as f64 / 1024.0,
            "MB",
        ),
    ];
    let items = qor.len();
    m.push(Metric {
        note: format!("{items} items"),
        ..metric(
            "power_mw_geomean",
            stats::geomean(&qor.iter().map(|q| q.power_mw).collect::<Vec<_>>()),
            "mW",
        )
    });
    m.push(Metric {
        note: format!("{items} items"),
        ..metric(
            "fmax_mhz_geomean",
            stats::geomean(&qor.iter().map(|q| q.fmax_mhz).collect::<Vec<_>>()),
            "MHz",
        )
    });
    m.push(metric(
        "brams_total",
        qor.iter().map(|q| q.brams as f64).sum(),
        "count",
    ));
    m.push(metric(
        "slices_total",
        qor.iter().map(|q| q.slices as f64).sum(),
        "count",
    ));
    m.push(metric(
        "downgrades_total",
        qor.iter().map(|q| q.downgrades as f64).sum(),
        "count",
    ));
    m
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn report(r: &RunResult) -> bool {
    for m in &r.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "metric {:<26} {:>16} {}{note}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    let failed = r.failures.len().min(r.attempted);
    if r.refused > 0 {
        println!(
            "refused {} compile(s) with the typed route-budget error their profile allows (see README)",
            r.refused
        );
    }
    println!(
        "fail_ratio {} ({} failed / {} attempted)",
        if r.attempted > 0 {
            failed as f64 / r.attempted as f64
        } else {
            0.0
        },
        failed,
        r.attempted
    );
    for f in &r.failures {
        println!("FAIL {f}");
    }
    let correct = r.failures.is_empty() && r.metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        body.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = args.child_store.clone() {
        return match child(&args, &dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench (timed pass): {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(r) => {
            if report(&r) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
