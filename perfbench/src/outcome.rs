//! What a compile produced: its deterministic fingerprint and the
//! quality-of-result numbers the end-to-end metrics aggregate.

use crate::mix::Item;
use emb_fsm::flow::{mapping_for, FlowReport, ImplKind};
use std::collections::HashMap;

/// Quality of result of one compile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Qor {
    /// Total power at the item's highest configured frequency (mW).
    pub power_mw: f64,
    /// Routed fmax (MHz).
    pub fmax_mhz: f64,
    /// Block RAMs used.
    pub brams: usize,
    /// Slices used.
    pub slices: usize,
    /// Recorded downgrades.
    pub downgrades: usize,
}

impl Qor {
    /// Reads the QoR fields off a report.
    pub fn of(report: &FlowReport) -> Qor {
        let top = report
            .power
            .iter()
            .max_by(|a, b| a.freq_mhz.total_cmp(&b.freq_mhz))
            .map_or(f64::NAN, powermodel::PowerReport::total_mw);
        Qor {
            power_mw: top,
            fmax_mhz: report.timing.fmax_mhz,
            brams: report.area.brams,
            slices: report.area.slices,
            downgrades: report.downgrades.len(),
        }
    }

    /// Space-separated wire form (floats as exact bit patterns; `-` for
    /// a refusal, which has no QoR).
    pub fn encode(q: Option<Qor>) -> String {
        q.map_or_else(
            || "-".to_string(),
            |q| {
                format!(
                    "{:016x} {:016x} {} {} {}",
                    q.power_mw.to_bits(),
                    q.fmax_mhz.to_bits(),
                    q.brams,
                    q.slices,
                    q.downgrades
                )
            },
        )
    }

    /// Parses [`Qor::encode`]'s output; the outer `None` is a parse
    /// error.
    pub fn decode(fields: &[&str]) -> Option<Option<Qor>> {
        if fields == ["-"] {
            return Some(None);
        }
        let [p, f, b, s, d] = fields else {
            return None;
        };
        Some(Some(Qor {
            power_mw: f64::from_bits(u64::from_str_radix(p, 16).ok()?),
            fmax_mhz: f64::from_bits(u64::from_str_radix(f, 16).ok()?),
            brams: b.parse().ok()?,
            slices: s.parse().ok()?,
            downgrades: d.parse().ok()?,
        }))
    }
}

/// Memoized mapping rungs: the rung is a pure function of the machine,
/// its mapping options and the implementation kind, so each item maps
/// once per kind however many times it compiles.
#[derive(Default)]
pub struct Rungs(HashMap<(usize, String), String>);

impl Rungs {
    fn rung(&mut self, idx: usize, item: &Item, kind: &ImplKind) -> String {
        let key = (idx, kind.to_string());
        self.0
            .entry(key)
            .or_insert_with(|| match kind {
                ImplKind::Ff | ImplKind::FfClockGated => "ff".to_string(),
                ImplKind::EmbOverlay => "overlay".to_string(),
                ImplKind::Emb | ImplKind::EmbClockControlled => {
                    mapping_for(&item.stg, &item.plan.emb_opts)
                        .map_or_else(|_| "ff".to_string(), |e| e.rung().label().to_string())
                }
            })
            .clone()
    }

    /// Every deterministic field of a report, in one line: kind, device,
    /// rung, downgrades, per-frequency power, fmax, the pre-route fmax
    /// estimate, area, wirelength, idle fraction, coordinate digest and
    /// the ECO/overlay evidence. Wall-clock and cache-traffic fields
    /// (stage timings, hit counters, base/ECO cache-hit flags) are left
    /// out: they describe how the result was reached, not the result.
    pub fn fingerprint(&mut self, idx: usize, item: &Item, r: &FlowReport) -> String {
        let downgrades: Vec<String> = r.downgrades.iter().map(ToString::to_string).collect();
        let power: Vec<String> = r
            .power
            .iter()
            .map(|p| format!("{}@{}", bits(p.total_mw()), p.freq_mhz))
            .collect();
        let eco = r.eco.as_ref().map_or_else(
            || "-".to_string(),
            |e| {
                format!(
                    "{}/{}/{}/{}",
                    e.pinned_entities,
                    e.delta_entities,
                    bits(e.delta_hpwl),
                    e.base_coord_digest
                )
            },
        );
        let overlay = r
            .overlay
            .as_ref()
            .map_or_else(|| "-".to_string(), |o| o.class.clone());
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            r.kind,
            r.device.name,
            self.rung(idx, item, &r.kind),
            downgrades.join(";"),
            power.join(","),
            bits(r.timing.fmax_mhz),
            bits(r.place_fmax_est_mhz),
            r.area,
            r.total_wirelength,
            bits(r.idle_fraction),
            r.coord_digest,
            eco,
            overlay
        )
    }
}

/// A float as its exact bit pattern.
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}
