//! Ablation: placement quality sensitivity (DESIGN.md §5.5).
//!
//! Sec. 4.1: "in a denser design, due to routing congestion, LUTs and FFs
//! may be spread all across the FPGA chip. This will increase the
//! programmable interconnect utilization and hence the power consumption.
//! Contrary to this the power consumed by the EMB-based FSM does not
//! change with routing congestion." We emulate placement quality with the
//! annealer's effort knob and compare how each implementation's
//! interconnect power responds.

use emb_fsm::flow::{FlowConfig, Stimulus};
use fpga_fabric::place::PlaceOptions;
use paper_bench::runner::run;
use paper_bench::{mw, paper_config, try_compare, TextTable};

fn main() {
    println!("Ablation: placement effort vs interconnect power (styr, 100 MHz)\n");
    let mut table = TextTable::new(vec![
        "SA effort",
        "FF wirelength",
        "FF int (mW)",
        "FF total",
        "EMB wirelength",
        "EMB int (mW)",
        "EMB total",
    ]);
    let items: Vec<String> = ["0.02", "0.5", "4", "12"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let out = run(paper_bench::knobs().threads, &items, 7, |item| {
        let effort: f64 = item.parse().map_err(|_| format!("bad effort {item}"))?;
        let stg = fsm_model::benchmarks::by_name("styr").ok_or("styr missing")?;
        let cfg = FlowConfig {
            place: PlaceOptions {
                seed: 5,
                effort,
                ..PlaceOptions::default()
            },
            ..paper_config()
        };
        let (ff, emb) = try_compare(&stg, &Stimulus::Random, &cfg).map_err(|e| e.to_string())?;
        let pf = ff
            .power_at(100.0)
            .ok_or_else(|| "no FF power at 100 MHz".to_string())?;
        let pe = emb
            .power_at(100.0)
            .ok_or_else(|| "no EMB power at 100 MHz".to_string())?;
        Ok(vec![vec![
            item.to_string(),
            ff.total_wirelength.to_string(),
            mw(pf.interconnect_mw),
            mw(pf.total_mw()),
            emb.total_wirelength.to_string(),
            mw(pe.interconnect_mw),
            mw(pe.total_mw()),
        ]])
    });
    // Footer statistics from the successful rows (mW columns 2 and 5).
    let mut ff_int = Vec::new();
    let mut emb_int = Vec::new();
    for row in &out.rows {
        if let (Ok(ff), Ok(emb)) = (row[2].parse::<f64>(), row[5].parse::<f64>()) {
            ff_int.push(ff);
            emb_int.push(emb);
        }
    }
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    let swing = |v: &[f64]| {
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        max - min
    };
    println!();
    println!(
        "Interconnect-power swing across efforts: FF {:.2} mW, EMB {:.2} mW —",
        swing(&ff_int),
        swing(&emb_int)
    );
    println!("the EMB machine is nearly placement-insensitive (Sec. 4.1).");
}
