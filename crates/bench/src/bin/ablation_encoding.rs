//! Ablation: state-encoding style for the FF baseline (DESIGN.md §5.1).
//!
//! Sec. 4.1: "The number of FFs used to implement an FSM depends on the
//! state encoding, such as sequential, one-hot, grey encoding." The EMB
//! mapping is pinned to binary (state bits are address lines); the FF
//! baseline can trade FFs against LUT depth.

use emb_fsm::flow::{ff_flow, Stimulus};
use fsm_model::encoding::EncodingStyle;
use logic_synth::synth::SynthOptions;
use paper_bench::runner::run;
use paper_bench::{mw, paper_config, TextTable};

fn main() {
    println!("Ablation: FF-baseline state encoding (keyb, donfile)\n");
    let mut table = TextTable::new(vec![
        "Benchmark",
        "encoding",
        "LUTs",
        "FFs",
        "slices",
        "fmax",
        "power@100",
    ]);
    let mut items = Vec::new();
    for name in ["keyb", "donfile"] {
        for style in ["binary", "gray", "onehot0"] {
            items.push(format!("{name}/{style}"));
        }
    }
    let out = run(paper_bench::knobs().threads, &items, 7, |item| {
        let (name, style_name) = item
            .split_once('/')
            .ok_or_else(|| format!("malformed item {item}"))?;
        let style = match style_name {
            "binary" => EncodingStyle::Binary,
            "gray" => EncodingStyle::Gray,
            "onehot0" => EncodingStyle::OneHotZero,
            other => return Err(format!("unknown encoding {other}")),
        };
        let stg = fsm_model::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name}"))?;
        let cfg = paper_config();
        let r = ff_flow(
            &stg,
            SynthOptions {
                encoding: style,
                ..SynthOptions::default()
            },
            &Stimulus::Random,
            &cfg,
        )
        .map_err(|e| e.to_string())?;
        let p100 = r
            .power_at(100.0)
            .ok_or_else(|| "no power at 100 MHz".to_string())?;
        Ok(vec![vec![
            name.to_string(),
            style.to_string(),
            r.area.luts.to_string(),
            r.area.ffs.to_string(),
            r.area.slices.to_string(),
            format!("{:.1}", r.timing.fmax_mhz),
            mw(p100.total_mw()),
        ]])
    });
    for row in out.rows {
        table.row(row);
    }
    print!("{}", table.render());
}
