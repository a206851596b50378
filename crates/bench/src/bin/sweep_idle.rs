//! Extension sweep: power vs idle occupancy.
//!
//! Sec. 6: "The amount of power savings achieved with the clock control
//! logic is dependent upon the total time an FSM spends in idle states."
//! This sweep drives one benchmark at idle targets 0 / 25 / 50 / 75 / 90 %
//! through the free-running EMB, the clock-controlled EMB, and the
//! clock-gated FF baseline — showing the EMB savings grow with idle time
//! while FF gating saves much less (its combinational cone keeps
//! toggling).

use emb_fsm::flow::{emb_clock_controlled_flow, emb_flow, ff_clock_gated_flow, ff_flow, Stimulus};
use emb_fsm::map::EmbOptions;
use logic_synth::synth::SynthOptions;
use paper_bench::runner::run;
use paper_bench::{mw, paper_config, pct, saving, TextTable};

fn main() {
    println!("Sweep: power vs idle occupancy (keyb, 100 MHz)\n");
    let mut table = TextTable::new(vec![
        "target idle",
        "measured",
        "EMB",
        "EMB+cc",
        "cc saving",
        "FF",
        "FF+gate",
        "gate saving",
    ]);
    let items: Vec<String> = [0.0, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|t| format!("{t}"))
        .collect();
    let out = run(paper_bench::knobs().threads, &items, 8, |item| {
        let target: f64 = item
            .parse()
            .map_err(|_| format!("bad idle target {item}"))?;
        let stg = fsm_model::benchmarks::by_name("keyb").ok_or("keyb missing")?;
        let cfg = paper_config();
        let stim = Stimulus::IdleBiased(target);
        let emb = emb_flow(&stg, &EmbOptions::default(), &stim, &cfg).map_err(|e| e.to_string())?;
        let cc = emb_clock_controlled_flow(&stg, &EmbOptions::default(), &stim, &cfg)
            .map_err(|e| e.to_string())?;
        let ff = ff_flow(&stg, SynthOptions::default(), &stim, &cfg).map_err(|e| e.to_string())?;
        let ffg = ff_clock_gated_flow(&stg, SynthOptions::default(), &stim, &cfg)
            .map_err(|e| e.to_string())?;
        let p = |r: &emb_fsm::flow::FlowReport| {
            r.power_at(100.0)
                .map_or(f64::NAN, powermodel::PowerReport::total_mw)
        };
        Ok(vec![vec![
            format!("{:.0}%", target * 100.0),
            format!("{:.0}%", cc.idle_fraction * 100.0),
            mw(p(&emb)),
            mw(p(&cc)),
            pct(saving(p(&emb), p(&cc))),
            mw(p(&ff)),
            mw(p(&ffg)),
            pct(saving(p(&ff), p(&ffg))),
        ]])
    });
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
    println!();
    println!("Expected shape: the EMB clock-control saving grows with idle time;");
    println!("FF clock gating saves far less because \"the combinational portion");
    println!("of the FSM will continue to consume power during the idle states");
    println!("even after clock gating\" (Sec. 6).");
}
