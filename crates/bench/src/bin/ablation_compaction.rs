//! Ablation: column compaction vs the series (bank) fallback
//! (DESIGN.md §5.3).
//!
//! For machines whose `I + s` exceeds the 14 available address lines the
//! paper argues a state-controlled input mux beats "connecting more EMBs
//! in series … as instantiating more EMBs increases the power
//! consumption." This ablation maps the same wide-input machine both
//! ways and compares BRAMs, LUTs and power.

use emb_fsm::flow::{emb_flow, Stimulus};
use emb_fsm::map::EmbOptions;
use fsm_model::generate::{generate, StgSpec};
use paper_bench::runner::run;
use paper_bench::{mw, paper_config, TextTable};

fn wide12() -> fsm_model::stg::Stg {
    // 12 inputs + 3 state bits = 15 > 14 address lines: must compact or
    // split into banks.
    generate(&StgSpec {
        states: 8,
        inputs: 12,
        outputs: 4,
        transitions: 40,
        max_support: Some(3),
        self_loop_bias: 0.2,
        idle_line: Some(0),
        ..StgSpec::new("wide12")
    })
    .expect("static wide12 spec generates")
}

fn main() {
    let stg = wide12();
    println!(
        "Ablation: compaction vs series banks ({}: {} inputs, {} states)\n",
        stg.name(),
        stg.num_inputs(),
        stg.num_states()
    );
    let mut table = TextTable::new(vec![
        "strategy",
        "BRAMs",
        "banks",
        "aux LUTs",
        "fmax",
        "power@100",
    ]);
    let items = vec!["compaction".to_string(), "series".to_string()];
    let out = run(paper_bench::knobs().threads, &items, 6, |item| {
        let stg = wide12();
        let (label, opts) = match item {
            "compaction" => ("compaction (Fig. 4)", EmbOptions::default()),
            "series" => (
                "series banks (Fig. 5 l.16-18)",
                EmbOptions {
                    allow_compaction: false,
                    ..EmbOptions::default()
                },
            ),
            other => return Err(format!("unknown strategy {other}")),
        };
        let cfg = paper_config();
        let emb = emb_fsm::map::map_fsm_into_embs(&stg, &opts)
            .map_err(|e| format!("mapping failed: {e}"))?;
        let r = emb_flow(&stg, &opts, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
        let p100 = r
            .power_at(100.0)
            .ok_or_else(|| "no power at 100 MHz".to_string())?;
        Ok(vec![vec![
            label.to_string(),
            emb.num_brams().to_string(),
            emb.banks.to_string(),
            emb.aux_luts().to_string(),
            format!("{:.1}", r.timing.fmax_mhz),
            mw(p100.total_mw()),
        ]])
    });
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!("The compacted mapping reaches a wide aspect ratio with one BRAM;");
    println!("the series mapping needs a bank per extra address bit plus an");
    println!("output mux, and pays for clocking every bank.");
}
