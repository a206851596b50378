//! Ablation: BRAM aspect-ratio selection and access power
//! (DESIGN.md §5.2).
//!
//! Sec. 5: "Power consumed by the blockram is dependent upon the number
//! of word-lines used, and number of bits in a word-line used." The
//! mapper picks the widest shape whose address lines cover `I + s`; this
//! ablation compares that choice against deliberately deeper/narrower
//! organizations of the same machine realized by padding address bits.

use emb_fsm::map::{map_fsm_into_embs, EmbOptions};
use fpga_fabric::device::BramShape;
use paper_bench::runner::run;
use paper_bench::TextTable;

fn main() {
    println!("Ablation: aspect ratio vs BRAM cost (model view)\n");
    let mut table = TextTable::new(vec![
        "shape",
        "BRAMs needed",
        "rows live",
        "bits/BRAM used",
        "access C (pF, total)",
    ]);
    // Model-level comparison: the access capacitance the power model
    // assigns to each legal organization of one benchmark's ROM. One item
    // emits the whole shape grid.
    let items = vec!["keyb".to_string()];
    let out = run(paper_bench::knobs().threads, &items, 5, |name| {
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default())
            .map_err(|e| format!("mapping failed: {e}"))?;
        let p = powermodel::PowerParams::default();
        let logical_bits = emb.logical_addr_bits();
        let data = emb.data_width;
        let mut rows = Vec::new();
        for shape in BramShape::ALL {
            if shape.addr_bits < logical_bits {
                continue; // cannot hold the ROM in one bank
            }
            let brams = data.div_ceil(shape.data_bits);
            let live_rows = 1u64 << logical_bits;
            let mut total_c = 0.0;
            for i in 0..brams {
                let bits = shape.data_bits.min(data - i * shape.data_bits);
                total_c += p.c_bram_access_base
                    + p.c_bram_per_row * live_rows as f64
                    + p.c_bram_per_bit * bits as f64;
            }
            let chosen = shape == emb.shape;
            rows.push(vec![
                format!("{shape}{}", if chosen { "  <= chosen" } else { "" }),
                brams.to_string(),
                live_rows.to_string(),
                shape.data_bits.min(data).to_string(),
                format!("{total_c:.1}"),
            ]);
        }
        Ok(rows)
    });
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!("keyb's widest shape reaching the address count uses the fewest");
    println!("BRAMs and the least total access capacitance (Fig. 5 line 2's");
    println!("selection rule).");
}
