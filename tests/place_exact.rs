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
//!
//! Each row also pins the routed result of its placement at default
//! route options: the total wirelength and a digest of every routed net's
//! tile list, so a router change that is meant to be a pure speed-up
//! (dense search arrays, reused scratch) must keep the trees and their
//! order exactly.

use romfsm::emb::baseline::ff_netlist;
use romfsm::emb::cache::coords_digest;
use romfsm::emb::clock_control::attach_emb_clock_control;
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions};
use romfsm::fpga::device::{Device, FAMILY};
use romfsm::fpga::netlist::Netlist;
use romfsm::fpga::pack::{pack, pack_partitioned, PackedDesign};
use romfsm::fpga::place::{place, place_incremental, PinnedEntities, PlaceOptions, Placement};
use romfsm::fpga::route::{route, RouteOptions, RoutedDesign};
use romfsm::logic::synth::{synthesize, SynthOptions};

/// (benchmark, case, device, coordinate digest, hpwl, hpwl², moves,
/// routed wirelength, routed-tile digest)
type Row = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    f64,
    f64,
    u64,
    usize,
    &'static str,
);

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("keyb", "emb", "XC2V40", "1d8a61b8121b5f1f9d197fa340b095cc", 64.0, 152.0, 15942, 68, "4e9cd7591418348ee14014c28801f7dd"),
    ("keyb", "emb_wl", "XC2V40", "3b0aebfb697a037e5770ed667fbfb46d", 73.0, 189.0, 7074, 79, "e8be4a694d82f5bdb920ae126cc37f2e"),
    ("keyb", "emb_cc_eco", "XC2V40", "2a7de810746ac3388c1dd1cc0d182b2b", 69.0, 193.0, 832, 73, "44132588a1af99dbe6667ce341438708"),
    ("keyb", "ff", "XC2V80", "3a3b57222cbef657bd5581148b077104", 1948.0, 15670.0, 122708, 2248, "ed0f0226033a11239249b5427aa87eac"),
    ("sand", "emb", "XC2V40", "49b912cf3aab662496b81dcd9bca4fb7", 175.0, 649.0, 57785, 190, "67d42e270657c4b5f8a5f03db12cfc36"),
    ("sand", "emb_wl", "XC2V40", "2a0024929e33010306c0d96fd51646d0", 185.0, 681.0, 28795, 199, "795e3ce63b5289cb4d2c07f19fe3e240"),
    ("sand", "emb_cc_eco", "XC2V40", "db7776c18dba68457b7b602a82d25416", 180.0, 690.0, 960, 195, "7aedba7534cf99c27008813afa321b79"),
    ("sand", "ff", "XC2V80", "8a77c15c9db53f5c472c1d4b3c506d0f", 5340.0, 57700.0, 262428, 6222, "e647299a9665ed368a00698806e6bf3d"),
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

/// One pinned case: its label, device, placement and routed result.
struct Case {
    label: &'static str,
    device: Device,
    placement: Placement,
    routed: RoutedDesign,
}

fn case(
    label: &'static str,
    device: Device,
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: Placement,
) -> Case {
    let routed = route(netlist, packed, &placement, RouteOptions::default()).expect("routes");
    Case {
        label,
        device,
        placement,
        routed,
    }
}

/// Digest of every routed net's tiles, in net order: the per-net
/// `(net, tile count)` pairs and the concatenated tile lists, fed through
/// the coordinate digest.
fn routes_digest(routed: &RoutedDesign) -> String {
    let mut tiles = Vec::new();
    let mut shape = Vec::new();
    for (net, r) in routed.routes.iter().enumerate() {
        if let Some(r) = r {
            shape.push((net, r.tiles.len()));
            tiles.extend_from_slice(&r.tiles);
        }
    }
    coords_digest(&tiles, &shape, &[])
}

/// The four placements of `name`, each routed, with its case label and
/// device.
fn placements(name: &str) -> Vec<Case> {
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
    out.push(case("emb", device, &base, &base_packed, base_placement));
    out.push(case("emb_wl", device, &base, &base_packed, blind));
    out.push(case(
        "emb_cc_eco",
        device,
        &gated,
        &gated_packed,
        eco.placement,
    ));

    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesizes");
    let ff = ff_netlist(&synth, false).0;
    let ff_packed = pack(&ff);
    let (device, ff_placement) = smallest_fit(&ff, &ff_packed, opts);
    out.push(case("ff", device, &ff, &ff_packed, ff_placement));
    out
}

fn check(name: &str) {
    let got = placements(name);
    let want: Vec<&Row> = EXPECTED.iter().filter(|r| r.0 == name).collect();
    assert_eq!(want.len(), got.len(), "{name}: pinned row count");
    for (w, c) in want.iter().zip(&got) {
        let p = &c.placement;
        let digest = coords_digest(&p.clb_loc, &p.bram_loc, &p.iob_loc);
        assert_eq!(
            (w.1, w.2, w.3, w.4, w.5, w.6),
            (
                c.label,
                c.device.name,
                digest.as_str(),
                p.hpwl,
                p.hpwl_sq,
                p.moves
            ),
            "{name}/{}: placement moved",
            c.label
        );
        assert_eq!(
            (w.7, w.8),
            (c.routed.total_wirelength, routes_digest(&c.routed).as_str()),
            "{name}/{}: routed trees moved",
            c.label
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
