//! Placement exactness pins: `place` and `place_incremental` at default
//! options on keyb and sand must reproduce, to the last bit, the
//! coordinates, HPWL, Σhpwl² and move counts recorded from the rescan-based
//! placer. Any change to the placer's internals that is meant to be a pure
//! speed-up (incremental cost caches, allocation-free proposals) must keep
//! every row here; a change that moves a row is an algorithm change and
//! must bump `ALGORITHM_VERSION` (which invalidates cached placements) and
//! re-record the table.
//!
//! Four placements per benchmark cover both anneals and both arms of
//! the guard: the EMB base netlist (guarded `place`), the same base
//! wirelength-only (`timing_weight = 0`, the blind arm alone), the
//! clock-controlled netlist ECO-placed against the pinned base (guarded
//! `place_incremental`), and the FF baseline netlist (a LUT-heavy design
//! where the quench does most of the work).

use romfsm::emb::baseline::ff_netlist;
use romfsm::emb::cache::coords_digest;
use romfsm::emb::clock_control::attach_emb_clock_control;
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions};
use romfsm::fpga::device::{Device, FAMILY};
use romfsm::fpga::netlist::Netlist;
use romfsm::fpga::pack::{pack, pack_partitioned, PackedDesign};
use romfsm::fpga::place::{place, place_incremental, PinnedEntities, PlaceOptions, Placement};
use romfsm::logic::synth::{synthesize, SynthOptions};

/// (benchmark, case, device, coordinate digest, hpwl, hpwl², moves)
type Row = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    f64,
    f64,
    u64,
);

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("keyb", "emb", "XC2V40", "1d8a61b8121b5f1f9d197fa340b095cc", 64.0, 152.0, 15942),
    ("keyb", "emb_wl", "XC2V40", "3b0aebfb697a037e5770ed667fbfb46d", 73.0, 189.0, 7074),
    ("keyb", "emb_cc_eco", "XC2V40", "2a7de810746ac3388c1dd1cc0d182b2b", 69.0, 193.0, 832),
    ("keyb", "ff", "XC2V80", "3a3b57222cbef657bd5581148b077104", 1948.0, 15670.0, 122708),
    ("sand", "emb", "XC2V40", "49b912cf3aab662496b81dcd9bca4fb7", 175.0, 649.0, 57785),
    ("sand", "emb_wl", "XC2V40", "2a0024929e33010306c0d96fd51646d0", 185.0, 681.0, 28795),
    ("sand", "emb_cc_eco", "XC2V40", "db7776c18dba68457b7b602a82d25416", 180.0, 690.0, 960),
    ("sand", "ff", "XC2V80", "8a77c15c9db53f5c472c1d4b3c506d0f", 5340.0, 57700.0, 262428),
];

/// The smallest family member `netlist` places on, with its placement.
fn smallest_fit(
    netlist: &Netlist,
    packed: &PackedDesign,
    opts: PlaceOptions,
) -> (Device, Placement) {
    FAMILY
        .iter()
        .copied()
        .find_map(|d| place(netlist, packed, d, opts).ok().map(|p| (d, p)))
        .expect("design fits some family member")
}

/// The four placements of `name`, each with its case label and device.
fn placements(name: &str) -> Vec<(&'static str, Device, Placement)> {
    let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
    let opts = PlaceOptions::default();
    let mut out = Vec::new();

    let emb_opts = EmbOptions::default();
    let emb = map_fsm_into_embs(&stg, &emb_opts).expect("maps into EMBs");
    let base = emb.to_netlist();
    let base_packed = pack(&base);
    let (device, base_placement) = smallest_fit(&base, &base_packed, opts);
    let blind = place(
        &base,
        &base_packed,
        device,
        PlaceOptions {
            timing_weight: 0.0,
            ..opts
        },
    )
    .expect("blind arm places where the guarded pair did");
    let (gated, _control) =
        attach_emb_clock_control(&emb, emb_opts.lut_map).expect("clock control attaches");
    let gated_packed =
        pack_partitioned(&gated, &base_packed, base.cells().len()).expect("partitioned pack");
    let pins = PinnedEntities::pin_base(&base_placement, &gated_packed);
    let eco = place_incremental(&gated, &gated_packed, device, opts, &pins).expect("eco places");
    out.push(("emb", device, base_placement));
    out.push(("emb_wl", device, blind));
    out.push(("emb_cc_eco", device, eco.placement));

    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesizes");
    let ff = ff_netlist(&synth, false).0;
    let ff_packed = pack(&ff);
    let (device, ff_placement) = smallest_fit(&ff, &ff_packed, opts);
    out.push(("ff", device, ff_placement));
    out
}

fn check(name: &str) {
    let got = placements(name);
    let want: Vec<&Row> = EXPECTED.iter().filter(|r| r.0 == name).collect();
    assert_eq!(want.len(), got.len(), "{name}: pinned row count");
    for (w, (case, device, p)) in want.iter().zip(&got) {
        let digest = coords_digest(&p.clb_loc, &p.bram_loc, &p.iob_loc);
        assert_eq!(
            (w.1, w.2, w.3, w.4, w.5, w.6),
            (
                *case,
                device.name,
                digest.as_str(),
                p.hpwl,
                p.hpwl_sq,
                p.moves
            ),
            "{name}/{case}: placement moved"
        );
    }
}

#[test]
fn keyb_placements_are_pinned() {
    check("keyb");
}

#[test]
fn sand_placements_are_pinned() {
    check("sand");
}
