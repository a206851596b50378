//! Table 3: power of the EMB implementation *with clock-control logic*
//! at 50 / 85 / 100 MHz, and its saving versus the FF implementation at
//! 100 MHz.
//!
//! The paper's scenario: "an average case (with 50% idle states)". Both
//! implementations are driven by the same idle-biased stimulus; the
//! measured idle occupancy is printed per row.
//!
//! The clock-controlled flow places its base as an ECO on top of the
//! plain EMB design (pinned coordinates, delta-only anneal); the `ECO`
//! column shows `pinned+delta` entity counts (or `full` when the flow
//! fell back). When the `TABLE3_COORDS` environment variable names a
//! file, each successful row also appends
//! `name <plain-coord-digest> <gated-base-coord-digest>` to it — the two
//! digests must be byte-identical, which `scripts/verify.sh` gates on.
//!
//! The `fmax` column reports the gated design's post-route fmax under
//! the default timing-driven placement. The `Δf vs wl` column and the
//! geomean summary line report the *placer's own STA estimate* on the
//! plain EMB design, timing-driven versus the identical flow placed
//! wirelength-only (`timing_weight = 0`) — the quantity the guarded
//! two-arm anneal makes never-worse by construction. When `TABLE3_FMAX`
//! names a file, each successful row appends
//! `name <est-fmax-timing> <est-fmax-wl>` at full precision —
//! `scripts/verify.sh` gates on both the determinism and the per-row
//! no-worse-than-wirelength-only property of that file.

use emb_fsm::flow::{emb_clock_controlled_flow, emb_flow, ff_flow, Stimulus};
use emb_fsm::map::EmbOptions;
use logic_synth::synth::SynthOptions;
use paper_bench::runner::{run, RunnerOptions};
use paper_bench::{mw, paper_config, pct, saving, suite_names, TextTable};
use std::io::Write as _;

fn main() {
    let cfg = paper_config();
    let mut table = TextTable::new(vec![
        "Benchmark",
        "cc 50MHz",
        "cc 85MHz",
        "cc 100MHz",
        "idle",
        "saving vs FF@100",
        "ECO",
        "fmax",
        "Δf vs wl",
    ]);
    let items: Vec<String> = suite_names().iter().map(ToString::to_string).collect();
    // Four trailing hidden cells per row carry the plain design's
    // coordinate digest, the gated design's pinned-base digest, and the
    // full-precision timing/wirelength-only fmax pair for the
    // TABLE3_COORDS / TABLE3_FMAX side files; they are stripped before
    // printing.
    let out = run(
        &RunnerOptions::new("table3"),
        &items,
        13,
        |name, attempt| {
            let stg = fsm_model::benchmarks::by_name(name)
                .ok_or_else(|| format!("unknown benchmark {name}"))?;
            let mut cfg = paper_config();
            cfg.seed += u64::from(attempt);
            let stim = Stimulus::IdleBiased(0.5);
            let ff =
                ff_flow(&stg, SynthOptions::default(), &stim, &cfg).map_err(|e| e.to_string())?;
            let emb =
                emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).map_err(|e| e.to_string())?;
            let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg)
                .map_err(|e| e.to_string())?;
            // The plain EMB flow placed wirelength-only: the estimate
            // baseline for the Δf column and the verify.sh no-worse gate.
            let mut cfg_wl = cfg.clone();
            cfg_wl.place.timing_weight = 0.0;
            let emb_wl = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg_wl)
                .map_err(|e| e.to_string())?;
            let p = |r: &emb_fsm::flow::FlowReport, f: f64| {
                r.power_at(f)
                    .map_or(f64::NAN, powermodel::PowerReport::total_mw)
            };
            let (eco_cell, base_digest) = cc.eco.as_ref().map_or_else(
                || ("full".to_string(), String::new()),
                |e| {
                    (
                        format!("{}+{}", e.pinned_entities, e.delta_entities),
                        e.base_coord_digest.clone(),
                    )
                },
            );
            let df = 100.0 * (emb.place_fmax_est_mhz - emb_wl.place_fmax_est_mhz)
                / emb_wl.place_fmax_est_mhz;
            Ok(vec![vec![
                name.to_string(),
                mw(p(&cc, 50.0)),
                mw(p(&cc, 85.0)),
                mw(p(&cc, 100.0)),
                format!("{:.0}%", cc.idle_fraction * 100.0),
                pct(saving(p(&ff, 100.0), p(&cc, 100.0))),
                eco_cell,
                format!("{:.1}", cc.timing.fmax_mhz),
                format!("{df:+.1}%"),
                emb.coord_digest.clone(),
                base_digest,
                format!("{:.9}", emb.place_fmax_est_mhz),
                format!("{:.9}", emb_wl.place_fmax_est_mhz),
            ]])
        },
    );
    let coords_path = std::env::var("TABLE3_COORDS").ok();
    let fmax_path = std::env::var("TABLE3_FMAX").ok();
    let mut coords = String::new();
    let mut fmax_lines = String::new();
    let mut fmax_ratios: Vec<f64> = Vec::new();
    for mut row in out.rows {
        if row.len() >= 13 {
            let fmax_wl = row.pop().unwrap_or_default();
            let fmax_timing = row.pop().unwrap_or_default();
            let base_digest = row.pop().unwrap_or_default();
            let plain_digest = row.pop().unwrap_or_default();
            if !plain_digest.is_empty() && !base_digest.is_empty() {
                coords.push_str(&format!("{} {plain_digest} {base_digest}\n", row[0]));
            }
            if let (Ok(t), Ok(w)) = (fmax_timing.parse::<f64>(), fmax_wl.parse::<f64>()) {
                if t.is_finite() && w.is_finite() && w > 0.0 {
                    fmax_lines.push_str(&format!("{} {fmax_timing} {fmax_wl}\n", row[0]));
                    fmax_ratios.push(t / w);
                }
            }
        }
        row.resize(9, String::new());
        table.row(row);
    }
    for (path, content) in [(coords_path, &coords), (fmax_path, &fmax_lines)] {
        if let Some(path) = path {
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(content.as_bytes())) {
                Ok(()) => {}
                Err(e) => eprintln!("warning: could not write {path}: {e}"),
            }
        }
    }
    println!("Table 3: EMB power with clock-control logic (mW)");
    println!(
        "(idle-biased stimulus targeting 50% idle, {} cycles)",
        cfg.cycles
    );
    println!();
    print!("{}", table.render());
    if !fmax_ratios.is_empty() {
        let geomean =
            (fmax_ratios.iter().map(|r| r.ln()).sum::<f64>() / fmax_ratios.len() as f64).exp();
        println!();
        println!(
            "Geomean placer fmax estimate, timing-driven vs wirelength-only placement: \
             {:+.2}% ({} rows)",
            100.0 * (geomean - 1.0),
            fmax_ratios.len()
        );
    }
}
