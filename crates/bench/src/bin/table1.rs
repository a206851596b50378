//! Table 1: FPGA device utilization for the benchmark circuits under both
//! implementations (FF/LUT-based vs EMB-based).
//!
//! Paper columns: per benchmark, the FF implementation's LUT / FF / slice
//! counts and the EMB implementation's LUT / slice / block-RAM counts
//! ("In the EMB-based implementation only those benchmark circuits which
//! need an input multiplexer require LUTs in addition to the blockrams").

use emb_fsm::flow::Stimulus;
use paper_bench::runner::run;
use paper_bench::{paper_config, suite_names, try_compare, TextTable};

fn main() {
    let cfg = paper_config();
    let mut table = TextTable::new(vec![
        "Benchmark",
        "FF: LUT",
        "FF: FF",
        "FF: slice",
        "EMB: LUT",
        "EMB: slice",
        "EMB: blockRAM",
        "device",
    ]);
    let items: Vec<String> = suite_names().iter().map(ToString::to_string).collect();
    let out = run(paper_bench::knobs().threads, &items, 8, |name| {
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let cfg = paper_config();
        let (ff, emb) = try_compare(&stg, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
        Ok(vec![vec![
            name.to_string(),
            ff.area.luts.to_string(),
            ff.area.ffs.to_string(),
            ff.area.slices.to_string(),
            emb.area.luts.to_string(),
            emb.area.slices.to_string(),
            emb.area.brams.to_string(),
            ff.device.name.to_string(),
        ]])
    });
    for row in out.rows {
        table.row(row);
    }
    println!("Table 1: device utilization, FF/LUT vs EMB implementation");
    println!("(target {}; larger rows auto-upsized)", cfg.device.name);
    println!();
    print!("{}", table.render());
}
