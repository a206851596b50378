//! Stratified synthetic-machine corpus.
//!
//! The nine MCNC signatures in [`crate::benchmarks`] cover the paper's
//! tables but not the scenario space the degradation ladder exists for.
//! This module stratifies machine space into named **tiers** — each a
//! seeded, reproducible parameter grid aimed at one flow regime (series
//! cascades, heavy column compaction, always-on machines where clock
//! control is a pure loss, wide-input machines, FF fallbacks, …) — and
//! gives every corpus item a **self-describing name** that round-trips
//! through [`encode_spec`]/[`decode_spec`]. Process workers and the
//! mapping daemon reconstruct the exact machine from the item name
//! alone, so the corpus needs no side-channel files on the wire.
//!
//! Tier definitions here are pure *machine-space*: which states/inputs/
//! knob ranges a tier draws from. How a tier is pushed through the flow
//! (device choice, mapping options, budgets) is the bench crate's
//! business (`paper_bench::corpus`), keeping this crate free of flow
//! dependencies.

use crate::generate::StgSpec;
use xrand::{splitmix64, SmallRng};

/// One named stratum of machine space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierDef {
    /// Stable tier name (no `.` — it delimits the item-name codec).
    pub name: &'static str,
    /// What flow regime the tier is aimed at.
    pub summary: &'static str,
}

/// The committed corpus tiers, in reporting order.
pub const TIERS: [TierDef; 9] = [
    TierDef {
        name: "nominal",
        summary: "small well-behaved machines; direct mapping, no downgrades expected",
    },
    TierDef {
        name: "series-cascade",
        summary: "huge state counts whose address width forces series bank cascades",
    },
    TierDef {
        name: "compaction-heavy",
        summary: "wide inputs + tiny per-state support + heavy don't-cares: column compaction",
    },
    TierDef {
        name: "always-on",
        summary: "near-zero idle machines where clock control is a pure loss",
    },
    TierDef {
        name: "wide-input",
        summary: "input counts past the exhaustive-verify horizon: sampled verification",
    },
    TierDef {
        name: "tight-device",
        summary: "machines started on the smallest family member: device upsizing",
    },
    TierDef {
        name: "ff-fallback",
        summary: "unmappable under restricted options: EMB→FF fallback + synth budgets",
    },
    TierDef {
        name: "budget-squeeze",
        summary: "placement effort budgets exhausted mid-anneal: best-seen results",
    },
    TierDef {
        name: "eco-squeeze",
        summary: "route budgets sized so the ECO placement fails but full placement routes",
    },
];

/// Names of all tiers, in reporting order.
#[must_use]
pub fn tier_names() -> Vec<&'static str> {
    TIERS.iter().map(|t| t.name).collect()
}

/// FNV-1a over a tier name: stable per-tier seed offset.
fn tier_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Uniform draw in `[lo, hi]` (inclusive).
fn pick(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    rng.random_range(lo..hi + 1)
}

/// Quantize a fraction to milli-units so the item-name codec round-trips
/// exactly (spec f64 knobs are always multiples of 1/1000).
fn milli(rng: &mut SmallRng, lo: u32, hi: u32) -> f64 {
    f64::from(rng.random_range(lo..hi + 1)) / 1000.0
}

/// The spec for item `index` of `tier` under `corpus_seed`, or `None`
/// for an unknown tier name. Deterministic: the same triple always
/// yields the same spec, and the spec's `name` is the encoded item name
/// (so [`decode_spec`] of a generated machine's name reproduces it).
#[must_use]
pub fn spec(tier: &str, index: usize, corpus_seed: u64) -> Option<StgSpec> {
    if !TIERS.iter().any(|t| t.name == tier) {
        return None;
    }
    let mut key =
        corpus_seed ^ tier_hash(tier) ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = SmallRng::seed_from_u64(splitmix64(&mut key));
    let mut s = base_spec(tier, &mut rng);
    s.seed = rng.random();
    s.name = encode_spec(tier, &s);
    Some(s)
}

/// Tier parameter grids. All f64 knobs are drawn in milli-units so the
/// codec is exact; `seed`/`name` are filled in by [`spec`].
fn base_spec(tier: &str, rng: &mut SmallRng) -> StgSpec {
    let mut s = StgSpec::new("corpus");
    match tier {
        "nominal" => {
            s.states = pick(rng, 4, 24);
            s.inputs = pick(rng, 2, 5);
            s.outputs = pick(rng, 1, 4);
            s.transitions = s.states * pick(rng, 2, 4);
            s.self_loop_bias = milli(rng, 200, 500);
            s.moore = rng.random_bool(0.25);
            s.idle_line = if rng.random_bool(0.5) { Some(0) } else { None };
        }
        "series-cascade" => {
            // 5–6 state bits + 10 inputs > 14 address lines; the flow
            // profile disables compaction so the series rung must engage.
            // The widths sit just past the single-BRAM limit (2–4 banks):
            // deep enough to cascade, shallow enough that a corpus run
            // is not dominated by placing bank farms.
            s.states = pick(rng, 17, 40);
            s.inputs = 10;
            s.outputs = pick(rng, 2, 6);
            s.transitions = s.states * 3;
            s.max_support = Some(pick(rng, 3, 4));
            s.self_loop_bias = milli(rng, 100, 300);
            s.idle_line = Some(0);
        }
        "compaction-heavy" => {
            // Wide interface, tiny per-state support, heavy don't-cares:
            // the Fig. 4 column-compaction shape.
            s.states = pick(rng, 6, 16);
            s.inputs = pick(rng, 10, 14);
            s.outputs = pick(rng, 1, 4);
            s.transitions = s.states * pick(rng, 3, 6);
            s.max_support = Some(pick(rng, 2, 4));
            s.dont_care_density = milli(rng, 400, 900);
            s.self_loop_bias = milli(rng, 200, 400);
            s.idle_line = Some(0);
        }
        "always-on" => {
            // No idle line, zero self-loop bias: the machine transitions
            // every cycle, so gating its clock saves ~nothing.
            s.states = pick(rng, 8, 24);
            s.inputs = pick(rng, 3, 6);
            s.outputs = pick(rng, 2, 5);
            s.transitions = s.states * pick(rng, 3, 5);
            s.self_loop_bias = 0.0;
            s.idle_line = None;
            s.fanout_skew = milli(rng, 0, 1500);
        }
        "wide-input" => {
            // Past the exhaustive-verify horizon the profile sets.
            s.states = pick(rng, 6, 14);
            s.inputs = pick(rng, 13, 16);
            s.outputs = pick(rng, 1, 4);
            s.transitions = s.states * pick(rng, 3, 5);
            s.max_support = Some(pick(rng, 3, 5));
            s.self_loop_bias = milli(rng, 200, 400);
            s.idle_line = Some(0);
        }
        "tight-device" => {
            // Big enough that the profile's smallest-family start device
            // cannot host the FF baseline or the EMB cone.
            s.states = pick(rng, 24, 48);
            s.inputs = pick(rng, 6, 8);
            s.outputs = pick(rng, 4, 8);
            s.transitions = s.states * 3;
            s.max_support = Some(pick(rng, 3, 5));
            s.self_loop_bias = milli(rng, 200, 400);
            s.idle_line = Some(0);
        }
        "ff-fallback" => {
            // Needs >14 address bits; the profile forbids both escape
            // rungs, so mapping reports DoesNotFit and the ladder lands
            // on the FF implementation.
            s.states = pick(rng, 16, 40);
            s.inputs = pick(rng, 11, 13);
            s.outputs = pick(rng, 2, 5);
            s.transitions = s.states * pick(rng, 3, 5);
            s.max_support = Some(pick(rng, 4, 6));
            s.self_loop_bias = milli(rng, 200, 400);
            s.idle_line = Some(0);
        }
        "budget-squeeze" => {
            // Enough placeable entities that a tiny move budget runs out.
            s.states = pick(rng, 24, 40);
            s.inputs = pick(rng, 5, 7);
            s.outputs = pick(rng, 4, 8);
            s.transitions = s.states * 4;
            s.self_loop_bias = milli(rng, 200, 400);
            s.idle_line = Some(0);
        }
        "eco-squeeze" => {
            // Clock-controlled machines sized so the profile's route
            // budget fails the (longer-wirelength) ECO placement while
            // the fully annealed placement still routes.
            s.states = pick(rng, 12, 24);
            s.inputs = pick(rng, 4, 6);
            s.outputs = pick(rng, 2, 4);
            s.transitions = s.states * pick(rng, 3, 4);
            s.self_loop_bias = milli(rng, 300, 500);
            s.idle_line = Some(0);
        }
        _ => unreachable!("spec() rejects unknown tiers before dispatch"),
    }
    s
}

/// Encodes a tier + spec as a self-describing item name:
/// `cx.<tier>.s<states>.i<inputs>.o<outputs>.t<transitions>.u<support|n>.`
/// `b<bias‰>.m<0|1>.q<idle-col|n>.d<density‰>.k<skew‰>.x<seed-hex>`.
/// All f64 knobs are stored in milli-units (exact for corpus specs).
#[must_use]
pub fn encode_spec(tier: &str, spec: &StgSpec) -> String {
    let opt = |v: Option<usize>| v.map_or_else(|| "n".to_string(), |x| x.to_string());
    let m = |f: f64| (f * 1000.0).round() as i64;
    format!(
        "cx.{tier}.s{}.i{}.o{}.t{}.u{}.b{}.m{}.q{}.d{}.k{}.x{:016x}",
        spec.states,
        spec.inputs,
        spec.outputs,
        spec.transitions,
        opt(spec.max_support),
        m(spec.self_loop_bias),
        u8::from(spec.moore),
        opt(spec.idle_line),
        m(spec.dont_care_density),
        m(spec.fanout_skew),
        spec.seed,
    )
}

/// Decodes an item name produced by [`encode_spec`] back into its tier
/// and spec (`spec.name` is the full item name). Returns `None` for
/// anything that is not a well-formed corpus item name.
#[must_use]
pub fn decode_spec(name: &str) -> Option<(String, StgSpec)> {
    let mut parts = name.split('.');
    if parts.next()? != "cx" {
        return None;
    }
    let tier = parts.next()?.to_string();
    let mut s = StgSpec::new(name);
    let mut seen = 0u32;
    for part in parts {
        if part.len() < 2 || !part.is_ascii() {
            return None;
        }
        let (tag, val) = part.split_at(1);
        let opt_usize = |v: &str| -> Option<Option<usize>> {
            if v == "n" {
                Some(None)
            } else {
                v.parse().ok().map(Some)
            }
        };
        let frac = |v: &str| -> Option<f64> { v.parse::<i64>().ok().map(|m| m as f64 / 1000.0) };
        match tag {
            "s" => s.states = val.parse().ok()?,
            "i" => s.inputs = val.parse().ok()?,
            "o" => s.outputs = val.parse().ok()?,
            "t" => s.transitions = val.parse().ok()?,
            "u" => s.max_support = opt_usize(val)?,
            "b" => s.self_loop_bias = frac(val)?,
            "m" => s.moore = val == "1",
            "q" => s.idle_line = opt_usize(val)?,
            "d" => s.dont_care_density = frac(val)?,
            "k" => s.fanout_skew = frac(val)?,
            "x" => s.seed = u64::from_str_radix(val, 16).ok()?,
            _ => return None,
        }
        seen += 1;
    }
    if seen != 11 {
        return None;
    }
    Some((tier, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn specs_are_deterministic_per_triple() {
        for t in &TIERS {
            let a = spec(t.name, 7, 42).expect("known tier");
            let b = spec(t.name, 7, 42).expect("known tier");
            assert_eq!(a, b, "{}", t.name);
            let c = spec(t.name, 8, 42).expect("known tier");
            assert_ne!(a, c, "{}: index must matter", t.name);
            let d = spec(t.name, 7, 43).expect("known tier");
            assert_ne!(a, d, "{}: corpus seed must matter", t.name);
        }
        assert!(spec("nonesuch", 0, 1).is_none());
    }

    #[test]
    fn every_tier_generates_valid_machines() {
        for t in &TIERS {
            for idx in 0..12 {
                let s = spec(t.name, idx, 2026).expect("known tier");
                let stg = generate(&s)
                    .unwrap_or_else(|e| panic!("{} #{idx}: generate failed: {e}", t.name));
                assert!(stg.is_deterministic(), "{} #{idx}", t.name);
                assert_eq!(stg.num_states(), s.states, "{} #{idx}", t.name);
            }
        }
    }

    #[test]
    fn codec_roundtrips_every_tier() {
        for t in &TIERS {
            for idx in 0..16 {
                let s = spec(t.name, idx, 99).expect("known tier");
                let (tier, decoded) = decode_spec(&s.name).expect("well-formed name");
                assert_eq!(tier, t.name);
                assert_eq!(decoded, s, "{} #{idx}: codec must be exact", t.name);
                // And the decoded spec regenerates the identical machine.
                assert_eq!(
                    generate(&decoded).expect("generates"),
                    generate(&s).expect("generates"),
                    "{} #{idx}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn decode_rejects_malformed_names() {
        assert!(decode_spec("").is_none());
        assert!(decode_spec("prep4").is_none());
        assert!(decode_spec("cx.nominal").is_none());
        assert!(decode_spec("cx.nominal.s4.i2").is_none());
        assert!(decode_spec("cx.nominal.szap.i2.o1.t8.un.b300.m0.qn.d0.k0.x1").is_none());
        let good = spec("nominal", 0, 1).expect("known tier");
        assert!(decode_spec(&good.name).is_some());
    }
}
