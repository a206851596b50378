//! Table 4: area overhead of the clock-control logic (LUTs and slices)
//! for each benchmark.
//!
//! "We have written a program in C which identifies all such idle states
//! from the state transition graph and generates … the clock control
//! logic" — here [`emb_fsm::clock_control::synthesize_enable`], whose
//! mapped LUT count is the overhead.
//!
//! The `ΔCLBs` column is the same overhead measured at the packing level:
//! the number of CLBs the partitioned packer appends for the enable cone
//! on top of the plain design's (reused, byte-identical) CLB list — the
//! entities the ECO placement mode actually has to place.

use emb_fsm::clock_control::attach_emb_clock_control;
use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use fpga_fabric::pack::{pack, pack_partitioned};
use logic_synth::techmap::MapOptions;
use paper_bench::runner::run;
use paper_bench::{suite_names, TextTable};

fn main() {
    let mut table = TextTable::new(vec![
        "Benchmark",
        "LUTs",
        "Slices",
        "idle cubes",
        "cone",
        "dCLBs",
    ]);
    let items: Vec<String> = suite_names().iter().map(ToString::to_string).collect();
    let out = run(paper_bench::knobs().threads, &items, 6, |name| {
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default())
            .map_err(|e| format!("mapping failed: {e}"))?;
        let plain = emb.to_netlist();
        let (gated, cc) = attach_emb_clock_control(&emb, MapOptions::default())
            .map_err(|e| format!("clock control failed: {e}"))?;
        let plain_packed = pack(&plain);
        let delta_clbs = pack_partitioned(&gated, &plain_packed, plain.cells().len())
            .map(|p| p.clbs.len() - plain_packed.clbs.len())
            .map_err(|e| format!("partitioned pack failed: {e}"))?;
        Ok(vec![vec![
            name.to_string(),
            cc.num_luts().to_string(),
            cc.num_slices().to_string(),
            cc.idle_cubes.to_string(),
            if cc.uses_outputs {
                "state+inputs+outputs".to_string()
            } else {
                "state+inputs".to_string()
            },
            delta_clbs.to_string(),
        ]])
    });
    for row in out.rows {
        table.row(row);
    }
    println!("Table 4: area overhead of the clock-control logic");
    println!("(dCLBs: CLBs appended by the partitioned packer for the cone)");
    println!();
    print!("{}", table.render());
}
