//! Table 2: power consumed (mW) by each benchmark at 50 / 85 / 100 MHz
//! under both implementations, and the EMB saving at 100 MHz.
//!
//! The paper reports 4–26 % savings on real MCNC netlists; our synthetic
//! signature-matched machines have less compressible logic, so the FF
//! baselines are relatively larger and the savings higher — the *shape*
//! (EMB wins, saving grows with FSM complexity, donfile-class small
//! machines save least) is the reproduced claim. See EXPERIMENTS.md.
//!
//! The `EMB fmax` / `Δfmax` columns report the EMB design's post-route
//! fmax under the default timing-driven placement, and its delta versus
//! the same flow with the timing cost disabled (`timing_weight = 0`) —
//! power scales with the clock the design can actually sustain, so the
//! placer's fmax gain compounds the table's power saving.

use emb_fsm::flow::Stimulus;
use emb_fsm::map::EmbOptions;
use paper_bench::runner::{run, RunnerOptions};
use paper_bench::{mw, paper_config, pct, saving, suite_names, try_compare, TextTable};

fn main() {
    let base_cfg = paper_config();
    let mut table = TextTable::new(vec![
        "Benchmark",
        "FF 50MHz",
        "FF 85MHz",
        "FF 100MHz",
        "EMB 50MHz",
        "EMB 85MHz",
        "EMB 100MHz",
        "EMB fmax",
        "Δfmax",
        "saving@100",
    ]);
    let items: Vec<String> = suite_names().iter().map(ToString::to_string).collect();
    let out = run(
        &RunnerOptions::new("table2"),
        &items,
        10,
        |name, attempt| {
            let stg = fsm_model::benchmarks::by_name(name)
                .ok_or_else(|| format!("unknown benchmark {name}"))?;
            let mut cfg = paper_config();
            cfg.seed += u64::from(attempt);
            let (ff, emb) =
                try_compare(&stg, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
            // The same EMB flow placed wirelength-only: the fmax baseline the
            // timing-driven placement is compared against.
            let mut cfg_wl = cfg.clone();
            cfg_wl.place.timing_weight = 0.0;
            let emb_wl =
                emb_fsm::flow::emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg_wl)
                    .map_err(|e| e.to_string())?;
            let p = |r: &emb_fsm::flow::FlowReport, f: f64| {
                r.power_at(f)
                    .map_or(f64::NAN, powermodel::PowerReport::total_mw)
            };
            let df =
                100.0 * (emb.timing.fmax_mhz - emb_wl.timing.fmax_mhz) / emb_wl.timing.fmax_mhz;
            Ok(vec![vec![
                name.to_string(),
                mw(p(&ff, 50.0)),
                mw(p(&ff, 85.0)),
                mw(p(&ff, 100.0)),
                mw(p(&emb, 50.0)),
                mw(p(&emb, 85.0)),
                mw(p(&emb, 100.0)),
                format!("{:.1}", emb.timing.fmax_mhz),
                format!("{df:+.1}%"),
                pct(saving(p(&ff, 100.0), p(&emb, 100.0))),
            ]])
        },
    );
    for row in out.rows {
        table.row(row);
    }
    println!("Table 2: total power (mW), FF/LUT vs EMB implementation");
    println!("(random stimulus, {} cycles)", base_cfg.cycles);
    println!();
    print!("{}", table.render());
}
