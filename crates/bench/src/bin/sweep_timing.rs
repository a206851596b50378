//! Extension sweep: critical path vs FSM complexity.
//!
//! Sec. 4.2: the EMB machine's critical path runs "from the output of the
//! EMB to its address inputs. Thus no matter how many state transitions
//! an FSM may have the timing of it does not change" — while the FF
//! machine's LUT depth (and so its critical path) grows with complexity.

use emb_fsm::flow::Stimulus;
use emb_fsm::map::EmbOptions;
use paper_bench::runner::run;
use paper_bench::{paper_config, suite_names, try_compare, TextTable};

fn main() {
    println!("Sweep: critical path vs FSM complexity\n");
    let mut table = TextTable::new(vec![
        "Benchmark",
        "transitions",
        "FF path (ns)",
        "FF fmax",
        "EMB path (ns)",
        "EMB fmax",
        "EMB+cc path",
        "EMB+cc fmax",
    ]);
    let items: Vec<String> = suite_names().iter().map(ToString::to_string).collect();
    let out = run(paper_bench::knobs().threads, &items, 8, |name| {
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let cfg = paper_config();
        let (ff, emb) = try_compare(&stg, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
        // The gated variant is ECO-placed on the plain design, so its
        // extra path delay is attributable to the enable cone alone.
        let cc = emb_fsm::flow::emb_clock_controlled_flow(
            &stg,
            &EmbOptions::default(),
            &Stimulus::Random,
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        Ok(vec![vec![
            name.to_string(),
            stg.transitions().len().to_string(),
            format!("{:.2}", ff.timing.critical_path_ns),
            format!("{:.1}", ff.timing.fmax_mhz),
            format!("{:.2}", emb.timing.critical_path_ns),
            format!("{:.1}", emb.timing.fmax_mhz),
            format!("{:.2}", cc.timing.critical_path_ns),
            format!("{:.1}", cc.timing.fmax_mhz),
        ]])
    });
    // Footer statistics from the successful rows (columns 2 and 4).
    let mut ff_paths: Vec<f64> = Vec::new();
    let mut emb_paths: Vec<f64> = Vec::new();
    for row in &out.rows {
        if let (Ok(ff), Ok(emb)) = (row[2].parse::<f64>(), row[4].parse::<f64>()) {
            ff_paths.push(ff);
            emb_paths.push(emb);
        }
    }
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    let spread = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0f64, f64::max);
        max / min
    };
    println!();
    println!(
        "Path spread (max/min): FF {:.2}x, EMB {:.2}x — the EMB path is",
        spread(&ff_paths),
        spread(&emb_paths)
    );
    println!("essentially fixed (\"fixed timing regardless of the FSM's");
    println!("complexity\", Sec. 1) while the FF path varies widely.");
    println!("EMB+cc is ECO-placed on the plain EMB design (base pinned),");
    println!("so its path minus the EMB path is the enable-cone cost.");
}
