//! Direct-vs-overlay backend comparison: compile turnaround, power and
//! area for the nine paper benchmarks plus one representative machine
//! per corpus tier.
//!
//! The overlay backend's claim is O(memory-init) compile turnaround:
//! once a class base (BRAM + state register + steering, sized by
//! address width × data width × bank count) has been placed and routed
//! once, every further FSM of that class compiles by re-encoding its
//! STG into memory contents and reusing the stored physical artifact.
//! This harness measures that claim end to end in four phases sharing
//! one flow-cache directory:
//!
//! * **A. cold direct** — per item, the cache is emptied and the direct
//!   EMB flow timed: the conventional per-FSM place & route turnaround.
//! * **B. base prebuild** — cache emptied once, then every item runs
//!   the overlay flow cold: frontends verify against the STG oracle
//!   (a flow error here is a verification failure and fails the run)
//!   and each distinct class base is placed & routed exactly once.
//! * **C. warm-base compile** — all records except the `ovlbase_*`
//!   base artifacts are dropped, so each item re-compiles the way a
//!   *new* FSM of an existing class would: frontend cold, base warm.
//!   This is the per-FSM overlay turnaround the speedup compares.
//! * **D. base reuse** — a second overlay pass with nothing cleared;
//!   any base-cache miss here means the base artifact key is unstable
//!   and is reported (and gated in `scripts/verify.sh`) as
//!   `second_run_base_misses`.
//!
//! Turnaround is [`emb_fsm::StageTimings::compile_ms`] (synth + place +
//! route; verification excluded for both backends). The headline
//! `fit_geomean_speedup` is the geometric mean, over overlay-fit items,
//! of cold-direct over warm-base-overlay compile time. Items past the
//! overlay capacity ladder appear with their typed rejection reason and
//! direct-only columns. Results go to stdout and to
//! `results/bench_overlay.json` (honoring `BENCH_RESULTS_DIR`).

use emb_fsm::flow::{FlowConfig, FlowReport, MapBackend, Stimulus};
use emb_fsm::map::EmbOptions;
use fsm_model::stg::Stg;
use paper_bench::{paper_config, TextTable};
use std::path::PathBuf;

/// The corpus seed the representative tier machines are drawn from —
/// the same default as `corpus_stress` (`CORPUS_SEED` there).
const CORPUS_SEED: u64 = 2004;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Empties both cache layers.
fn clear_cache(dir: &PathBuf) {
    emb_fsm::cache::reset_memory();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

/// Drops every cache record except the stored overlay base artifacts
/// (`ovlbase_*.txt`), leaving exactly the state a fresh process sees
/// when the class bases exist but this FSM has never been compiled.
fn keep_only_bases(dir: &PathBuf) {
    emb_fsm::cache::reset_memory();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let keep = e
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ovlbase_"));
            if !keep {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// One comparison item: where it came from and its machine.
struct Item {
    source: &'static str,
    name: String,
    stg: Stg,
}

fn items() -> Vec<Item> {
    let mut out = Vec::new();
    for stg in paper_bench::suite() {
        out.push(Item {
            source: "paper",
            name: stg.name().to_string(),
            stg,
        });
    }
    for tier in fsm_model::corpus::tier_names() {
        let spec = fsm_model::corpus::spec(tier, 0, CORPUS_SEED).expect("known tier");
        let stg = fsm_model::generate::generate(&spec).expect("corpus spec generates");
        out.push(Item {
            source: "corpus",
            name: spec.name.clone(),
            stg,
        });
    }
    out
}

/// Total power at 50 MHz, `NaN` when that frequency was not simulated.
fn mw50(r: &FlowReport) -> f64 {
    r.power_at(50.0)
        .map_or(f64::NAN, powermodel::PowerReport::total_mw)
}

/// Per-item measurements accumulated across the phases.
struct Row {
    source: &'static str,
    name: String,
    fit: bool,
    reject: String,
    class: String,
    banks: usize,
    direct_ms: f64,
    overlay_ms: f64,
    direct_mw: f64,
    overlay_mw: f64,
    direct_slices: usize,
    direct_brams: usize,
    overlay_slices: usize,
    overlay_brams: usize,
}

#[allow(clippy::too_many_lines)]
fn main() {
    let scratch = workspace_root()
        .join("target")
        .join(format!("table_overlay_scratch_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let cache_dir = scratch.join("cache");
    // Must precede the first cache access: the config is read once.
    std::env::set_var("FLOW_CACHE_DIR", &cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    let mut cfg: FlowConfig = paper_config();
    cfg.backend = MapBackend::Direct;
    let emb_opts = EmbOptions::default();
    let stimulus = Stimulus::Random;
    let items = items();

    // Phase A: cold direct turnaround — cache emptied before every item.
    let mut rows: Vec<Row> = Vec::new();
    for it in &items {
        clear_cache(&cache_dir);
        let rep = emb_fsm::flow::emb_flow(&it.stg, &emb_opts, &stimulus, &cfg)
            .unwrap_or_else(|e| panic!("{}: direct flow failed: {e}", it.name));
        rows.push(Row {
            source: it.source,
            name: it.name.clone(),
            fit: false,
            reject: String::new(),
            class: "-".to_string(),
            banks: 0,
            direct_ms: rep.stage_ms.compile_ms(),
            overlay_ms: f64::NAN,
            direct_mw: mw50(&rep),
            overlay_mw: f64::NAN,
            direct_slices: rep.area.slices,
            direct_brams: rep.area.brams,
            overlay_slices: 0,
            overlay_brams: 0,
        });
    }

    // Phase B: prebuild every distinct class base (and prove every
    // overlay frontend equivalent to its STG — a failure here is a
    // verification failure, not a capacity rejection).
    clear_cache(&cache_dir);
    let mut verify_failures = 0usize;
    let mut base_builds = 0usize;
    for (it, row) in items.iter().zip(rows.iter_mut()) {
        match emb_fsm::flow::emb_overlay_flow(&it.stg, &stimulus, &cfg) {
            Ok(rep) => {
                let ovl = rep.overlay.as_ref().expect("overlay report present");
                if !ovl.base_cache_hit {
                    base_builds += 1;
                }
                row.fit = true;
                row.class = ovl.class.clone();
                row.banks = ovl.banks;
                row.overlay_mw = mw50(&rep);
                row.overlay_slices = rep.area.slices;
                row.overlay_brams = rep.area.brams;
            }
            Err(e) if e.is_capacity() => {
                row.reject = e.to_string();
            }
            Err(e) => {
                eprintln!(
                    "table_overlay: {} failed overlay verification: {e}",
                    it.name
                );
                verify_failures += 1;
            }
        }
    }

    // Phase C: warm-base compile — frontends cold, bases warm.
    keep_only_bases(&cache_dir);
    let mut phase_c_base_misses = 0usize;
    for (it, row) in items.iter().zip(rows.iter_mut()).filter(|(_, r)| r.fit) {
        let rep = emb_fsm::flow::emb_overlay_flow(&it.stg, &stimulus, &cfg)
            .unwrap_or_else(|e| panic!("{}: warm-base overlay flow failed: {e}", it.name));
        let ovl = rep.overlay.as_ref().expect("overlay report present");
        if !ovl.base_cache_hit {
            phase_c_base_misses += 1;
        }
        row.overlay_ms = rep.stage_ms.compile_ms();
    }

    // Phase D: second pass, nothing cleared — base artifacts must hit.
    let mut second_run_base_misses = 0usize;
    for (it, _row) in items.iter().zip(rows.iter()).filter(|(_, r)| r.fit) {
        let rep = emb_fsm::flow::emb_overlay_flow(&it.stg, &stimulus, &cfg)
            .unwrap_or_else(|e| panic!("{}: second overlay flow failed: {e}", it.name));
        if !rep
            .overlay
            .as_ref()
            .expect("overlay report present")
            .base_cache_hit
        {
            second_run_base_misses += 1;
        }
    }

    let _ = std::fs::remove_dir_all(&scratch);

    let mut classes: Vec<&str> = rows
        .iter()
        .filter(|r| r.fit)
        .map(|r| r.class.as_str())
        .collect();
    classes.sort_unstable();
    classes.dedup();

    let floor = |ms: f64| ms.max(0.01);
    let fit_ratios: Vec<f64> = rows
        .iter()
        .filter(|r| r.fit)
        .map(|r| floor(r.direct_ms) / floor(r.overlay_ms))
        .collect();
    let geomean = if fit_ratios.is_empty() {
        f64::NAN
    } else {
        (fit_ratios.iter().map(|v| v.ln()).sum::<f64>() / fit_ratios.len() as f64).exp()
    };

    let mut table = TextTable::new(vec![
        "Benchmark",
        "src",
        "class",
        "direct ms",
        "overlay ms",
        "speedup",
        "direct mW",
        "ovl mW",
        "slices d/o",
        "BRAMs d/o",
    ]);
    for r in &rows {
        if r.fit {
            table.row(vec![
                r.name.clone(),
                r.source.to_string(),
                r.class.clone(),
                format!("{:.1}", r.direct_ms),
                format!("{:.2}", r.overlay_ms),
                format!("{:.0}x", floor(r.direct_ms) / floor(r.overlay_ms)),
                format!("{:.2}", r.direct_mw),
                format!("{:.2}", r.overlay_mw),
                format!("{}/{}", r.direct_slices, r.overlay_slices),
                format!("{}/{}", r.direct_brams, r.overlay_brams),
            ]);
        } else {
            table.row(vec![
                r.name.clone(),
                r.source.to_string(),
                "over-capacity".to_string(),
                format!("{:.1}", r.direct_ms),
                "-".to_string(),
                "-".to_string(),
                format!("{:.2}", r.direct_mw),
                "-".to_string(),
                format!("{}/-", r.direct_slices),
                format!("{}/-", r.direct_brams),
            ]);
        }
    }
    println!("Overlay backend: compile turnaround and cost vs the direct EMB flow");
    println!("(direct ms: cold full flow; overlay ms: frontend cold, class base warm)");
    println!();
    print!("{}", table.render());
    println!();
    println!(
        "fit {}/{} item(s), {} distinct base class(es), {} base build(s)",
        fit_ratios.len(),
        rows.len(),
        classes.len(),
        base_builds
    );
    println!("fit geomean speedup: {geomean:.1}x");
    println!(
        "verify failures: {verify_failures}, phase-C base misses: {phase_c_base_misses}, \
         second-run base misses: {second_run_base_misses}"
    );
    assert_eq!(verify_failures, 0, "overlay verification failed");

    let dir = std::env::var("BENCH_RESULTS_DIR").map_or_else(
        |_| workspace_root().join("results"),
        |d| {
            let d = PathBuf::from(d);
            if d.is_absolute() {
                d
            } else {
                workspace_root().join(d)
            }
        },
    );
    std::fs::create_dir_all(&dir).expect("create results/");
    let path = dir.join("bench_overlay.json");
    let mut item_json = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        if r.fit {
            item_json.push_str(&format!(
                "    {{\"name\": \"{}\", \"source\": \"{}\", \"fit\": true, \
                 \"class\": \"{}\", \"banks\": {}, \
                 \"direct_compile_ms\": {:.2}, \"overlay_compile_ms\": {:.3}, \
                 \"speedup\": {:.1}, \
                 \"direct_mw_50\": {:.3}, \"overlay_mw_50\": {:.3}, \
                 \"direct_slices\": {}, \"overlay_slices\": {}, \
                 \"direct_brams\": {}, \"overlay_brams\": {}}}{sep}\n",
                r.name,
                r.source,
                r.class,
                r.banks,
                r.direct_ms,
                r.overlay_ms,
                floor(r.direct_ms) / floor(r.overlay_ms),
                r.direct_mw,
                r.overlay_mw,
                r.direct_slices,
                r.overlay_slices,
                r.direct_brams,
                r.overlay_brams,
            ));
        } else {
            item_json.push_str(&format!(
                "    {{\"name\": \"{}\", \"source\": \"{}\", \"fit\": false, \
                 \"reject\": \"{}\", \"direct_compile_ms\": {:.2}, \
                 \"direct_mw_50\": {:.3}, \"direct_slices\": {}, \
                 \"direct_brams\": {}}}{sep}\n",
                r.name,
                r.source,
                r.reject.replace('"', "'"),
                r.direct_ms,
                r.direct_mw,
                r.direct_slices,
                r.direct_brams,
            ));
        }
    }
    let json = format!(
        "{{\n  \"suite\": \"overlay\",\n  \"items_total\": {},\n  \"items_fit\": {},\n  \
         \"distinct_base_classes\": {},\n  \"base_builds\": {base_builds},\n  \
         \"fit_geomean_speedup\": {geomean:.2},\n  \
         \"verify_failures\": {verify_failures},\n  \
         \"phase_c_base_misses\": {phase_c_base_misses},\n  \
         \"second_run_base_misses\": {second_run_base_misses},\n  \
         \"corpus_seed\": {CORPUS_SEED},\n  \"rows\": [\n{item_json}  ]\n}}\n",
        rows.len(),
        fit_ratios.len(),
        classes.len(),
    );
    std::fs::write(&path, json).expect("write bench JSON");
    eprintln!("wrote {}", path.display());
}
