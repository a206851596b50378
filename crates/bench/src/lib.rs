//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` prints one table or figure of
//! *"Saving Power by Mapping Finite-State Machines into Embedded Memory
//! Blocks in FPGAs"* (Tiwari & Tomko, DATE 2004); this library holds the
//! common plumbing: running the four implementation flows over the nine-
//! benchmark suite and formatting aligned text tables.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod corpus;
pub mod knobs;
pub mod runner;

pub use knobs::knobs;

use emb_fsm::flow::{FlowConfig, FlowError, FlowReport, Stimulus};
use emb_fsm::map::EmbOptions;
use fsm_model::benchmarks::{paper_suite, PAPER_BENCHMARKS};
use fsm_model::stg::Stg;
use logic_synth::synth::SynthOptions;
use std::path::Path;

/// The flow configuration every experiment uses unless it sweeps a knob.
///
/// The mapping backend is the `MAP_BACKEND` knob (see [`mod@knobs`]),
/// resolved **here** — never inside the flow itself, so the value is part
/// of the [`emb_fsm::cache`] keys and a knob change can never resurrect a
/// stale cached artifact.
#[must_use]
pub fn paper_config() -> FlowConfig {
    FlowConfig {
        cycles: 2000,
        verify_cycles: 400,
        backend: knobs().map_backend,
        ..FlowConfig::default()
    }
}

/// Empties both flow-cache layers: the in-process map, and every record
/// file in `dir` whose name `keep` refuses (the directory itself stays).
pub fn clear_cache(dir: &Path, keep: impl Fn(&str) -> bool) {
    emb_fsm::cache::reset_memory();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if !entry.file_name().to_str().is_some_and(&keep) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The nine paper benchmarks, in table row order.
#[must_use]
pub fn suite() -> Vec<Stg> {
    paper_suite()
}

/// Benchmark names in row order.
#[must_use]
pub fn suite_names() -> Vec<&'static str> {
    PAPER_BENCHMARKS.iter().map(|s| s.name).collect()
}

/// FF and EMB reports for one benchmark. A flow failure is returned, not
/// raised, so the runner can emit its item as a placeholder row.
///
/// # Errors
///
/// Returns the first stage failure of either flow, tagged with benchmark
/// and stage context.
pub fn try_compare(
    stg: &Stg,
    stimulus: &Stimulus,
    cfg: &FlowConfig,
) -> Result<(FlowReport, FlowReport), FlowError> {
    let ff = emb_fsm::flow::ff_flow(stg, SynthOptions::default(), stimulus, cfg)?;
    let emb = emb_fsm::flow::emb_flow(stg, &EmbOptions::default(), stimulus, cfg)?;
    Ok((ff, emb))
}

/// A minimal fixed-width text-table writer.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                for _ in c.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a milliwatt value like the paper's tables.
#[must_use]
pub fn mw(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage.
#[must_use]
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Percentage saving of `new` relative to `base`.
#[must_use]
pub fn saving(base: f64, new: f64) -> f64 {
    100.0 * (base - new) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
    }

    #[test]
    fn suite_is_the_paper_suite() {
        assert_eq!(suite().len(), 9);
        assert_eq!(suite_names()[0], "prep4");
    }

    #[test]
    fn saving_math() {
        assert!((saving(100.0, 74.0) - 26.0).abs() < 1e-9);
    }
}
