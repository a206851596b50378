//! Extension sweep: dynamic power vs clock frequency.
//!
//! Sec. 2: "a design running at a higher clock frequency will have
//! increased power dissipation due to more frequent signal transitions."
//! Dynamic power must be linear in f for both implementations; static
//! power is frequency-independent.

use emb_fsm::flow::{FlowConfig, Stimulus};
use paper_bench::runner::run;
use paper_bench::{mw, paper_config, try_compare, TextTable};

fn main() {
    println!("Sweep: power vs clock frequency (styr)\n");
    let mut table = TextTable::new(vec![
        "f (MHz)",
        "FF dyn",
        "FF total",
        "EMB dyn",
        "EMB total",
        "FF dyn/f",
        "EMB dyn/f",
    ]);
    // One item producing all frequency rows: the sweep shares one pair of
    // implementations across the grid.
    let items = vec!["styr".to_string()];
    let out = run(paper_bench::knobs().threads, &items, 7, |name| {
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let cfg = FlowConfig {
            freqs_mhz: vec![25.0, 50.0, 85.0, 100.0, 150.0, 200.0],
            ..paper_config()
        };
        let (ff, emb) = try_compare(&stg, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
        let mut rows = Vec::new();
        for p_ff in &ff.power {
            let p_emb = emb
                .power_at(p_ff.freq_mhz)
                .ok_or_else(|| format!("no EMB power at {} MHz", p_ff.freq_mhz))?;
            rows.push(vec![
                format!("{:.0}", p_ff.freq_mhz),
                mw(p_ff.dynamic_mw()),
                mw(p_ff.total_mw()),
                mw(p_emb.dynamic_mw()),
                mw(p_emb.total_mw()),
                format!("{:.4}", p_ff.dynamic_mw() / p_ff.freq_mhz),
                format!("{:.4}", p_emb.dynamic_mw() / p_emb.freq_mhz),
            ]);
        }
        Ok(rows)
    });
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!("The dyn/f columns are constant: dynamic power is linear in the");
    println!("clock frequency for both implementations (paper Sec. 2, Table 2).");
}
