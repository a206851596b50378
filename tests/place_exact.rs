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
//! where the quench does most of the work). keyb's FF baseline is also
//! pinned on XC2V250, the device the FF-fallback tier lands on: there
//! most sites are free, so free-site candidates dominate the quench.
//! keyb also pins the blind ECO arm alone (`emb_cc_eco_wl`) and both
//! move-budget exits: guarded `place` capped at 2000 moves per arm
//! (`emb_budget`) and guarded `place_incremental` capped at 200
//! (`emb_cc_eco_budget`), which must report `BudgetOutcome::Exhausted`
//! with their combined spend while every other row reports `Completed`.
//!
//! The guard's cost is gated by count, not by clock: guarded `place`
//! runs one anneal and refines its layout, so each benchmark's `emb` row
//! may spend at most 1.2× the moves of its wirelength-only twin
//! `emb_wl`. So is the analytic start's: the FF rows' netlists have at
//! least `ANALYTIC_MIN_CLBS` CLBs, so they start from the analytic layout
//! and anneal cold, and each may spend at most 0.6× the moves it recorded
//! when every placement started from the first-free-site fill.
//! At default options the ECO rows end on the same layout and move
//! count whatever several of the ECO schedule's constants are, so two
//! more cases run at effort 2 and timing weight 1 against a base placed
//! with those options: the cone (`emb_cc_eco_w1`, keyb) and every CLB
//! released (`emb_cc_eco_clbs`). Changing the ECO probe size, exit
//! test, near-zero rule or fast-cooling factor alone moves at least one
//! of them.
//!
//! Each row also pins the routed result of its placement at default
//! route options: the total wirelength and a digest of every routed net's
//! tile list, so a router change that is meant to be a pure speed-up
//! (dense search arrays, reused scratch) must keep the trees and their
//! order exactly. The router's work is pinned by count, not by clock:
//! each row records the exact search expansions N its route spends, so
//! the route must succeed under `max_expansions = N` with the pinned
//! trees and stop with `BudgetExhausted { spent: N }` under `N - 1`.

use romfsm::emb::baseline::ff_netlist;
use romfsm::emb::cache::coords_digest;
use romfsm::emb::clock_control::attach_emb_clock_control;
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions};
use romfsm::fpga::device::{Device, FAMILY};
use romfsm::fpga::netlist::Netlist;
use romfsm::fpga::pack::{pack, pack_partitioned, PackedDesign};
use romfsm::fpga::place::{
    place, place_incremental, BudgetOutcome, PinnedEntities, PlaceOptions, Placement,
};
use romfsm::fpga::route::{route, RouteError, RouteOptions, RoutedDesign};
use romfsm::logic::synth::{synthesize, SynthOptions};

/// (benchmark, case, device, coordinate digest, hpwl, hpwl², moves,
/// routed wirelength, routed-tile digest, router expansions)
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
    u64,
);

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("keyb", "emb", "XC2V40", "3b0aebfb697a037e5770ed667fbfb46d", 73.0, 189.0, 7952, 79, "e8be4a694d82f5bdb920ae126cc37f2e", 498),
    ("keyb", "emb_wl", "XC2V40", "3b0aebfb697a037e5770ed667fbfb46d", 73.0, 189.0, 7074, 79, "e8be4a694d82f5bdb920ae126cc37f2e", 498),
    ("keyb", "emb_cc_eco", "XC2V40", "c1e0a77c76f95c1b75b5882e19e94748", 77.0, 213.0, 960, 84, "2b7eba7c55debf622de3c91275ded7f1", 544),
    ("keyb", "emb_cc_eco_wl", "XC2V40", "c1e0a77c76f95c1b75b5882e19e94748", 77.0, 213.0, 480, 84, "2b7eba7c55debf622de3c91275ded7f1", 544),
    ("keyb", "emb_budget", "XC2V40", "b7b4f41dbe1d3778ce787c083710476b", 73.0, 189.0, 3544, 79, "12867ff68ffebe7b9b6aa8e0e6233b68", 492),
    ("keyb", "emb_cc_eco_budget", "XC2V40", "c1e0a77c76f95c1b75b5882e19e94748", 77.0, 213.0, 400, 84, "2b7eba7c55debf622de3c91275ded7f1", 544),
    ("keyb", "emb_cc_eco_w1", "XC2V40", "37c37ee9682ddf1bd6d45750c231cc48", 77.0, 215.0, 912, 84, "94fe7013ff48f9a2d92f9092c5927fb1", 543),
    ("keyb", "emb_cc_eco_clbs", "XC2V40", "f071315a419a57dff85604d30bbe128c", 83.0, 249.0, 1496, 87, "e8e07b4051a32c26e78a83aa5f3d12b5", 565),
    ("keyb", "ff", "XC2V80", "bee63cf940364072b6070baf02c63ee1", 1886.0, 14654.0, 13886, 2218, "a6651f1ea5af226c8bcd336fc236a54b", 30561),
    ("keyb", "ff_xc2v250", "XC2V250", "417de5ab4e385c20fed862ad3c899333", 1754.0, 12716.0, 17618, 2063, "e84dc7344617116cf5305643eda11c5f", 33270),
    ("sand", "emb", "XC2V40", "21cdbfc7596dc4456809573bc7370496", 178.0, 650.0, 33215, 189, "bbd8be37efe719bd31319c3defbe51be", 1305),
    ("sand", "emb_wl", "XC2V40", "2a0024929e33010306c0d96fd51646d0", 185.0, 681.0, 28795, 199, "795e3ce63b5289cb4d2c07f19fe3e240", 1409),
    ("sand", "emb_cc_eco", "XC2V40", "c427551b06e725a4dc760dbd6cfd07b7", 183.0, 689.0, 960, 194, "8ccdaf9ecb3d644a4394e981f5c04b71", 1344),
    ("sand", "emb_cc_eco_clbs", "XC2V40", "b869778cb4ecc247054612ef3837b614", 192.0, 762.0, 3332, 202, "0217c7a29a23047f84d6c1741e2dce54", 1402),
    ("sand", "ff", "XC2V80", "e12f19f04630fbda30c0eac919bdf989", 5209.0, 55889.0, 32292, 6070, "f9df95dc9d341deb863e530e7a107940", 89656),
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

/// One pinned case: its label, device, placement, and its routes under
/// the row's pinned expansion budget N and under N - 1.
struct Case {
    label: &'static str,
    device: Device,
    placement: Placement,
    routed: Result<RoutedDesign, RouteError>,
    short: Option<RouteError>,
}

fn case(
    name: &str,
    label: &'static str,
    device: Device,
    netlist: &Netlist,
    packed: &PackedDesign,
    placement: Placement,
) -> Case {
    let budget = EXPECTED
        .iter()
        .find(|r| (r.0, r.1) == (name, label))
        .map_or(0, |r| r.9);
    let route_within = |max_expansions| {
        let opts = RouteOptions {
            max_expansions,
            ..RouteOptions::default()
        };
        route(netlist, packed, &placement, opts)
    };
    Case {
        label,
        device,
        routed: route_within(budget),
        short: route_within(budget.saturating_sub(1)).err(),
        placement,
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

/// The pinned placements of `name`, each routed, with its case label and
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
    let wl = PlaceOptions {
        timing_weight: 0.0,
        ..opts
    };
    let blind = place(&base, &base_packed, device, wl)
        .expect("blind arm places where the guarded pair did");
    let (gated, _control) =
        attach_emb_clock_control(&emb, emb_opts.lut_map).expect("clock control attaches");
    let gated_packed =
        pack_partitioned(&gated, &base_packed, base.cells().len()).expect("partitioned pack");
    let pins = PinnedEntities::pin_base(&base_placement, &gated_packed);
    // The base netlist's cases, and the clock-controlled netlist
    // ECO-placed against a pin map, all on the base's device.
    let base_case = |label, placement| case(name, label, device, &base, &base_packed, placement);
    let eco_case = |label, opts, pins: &PinnedEntities| {
        let eco = place_incremental(&gated, &gated_packed, device, opts, pins).expect("eco places");
        case(name, label, device, &gated, &gated_packed, eco.placement)
    };
    out.push(base_case("emb", base_placement));
    out.push(base_case("emb_wl", blind));
    out.push(eco_case("emb_cc_eco", opts, &pins));
    if name == "keyb" {
        let capped = |max_moves| PlaceOptions { max_moves, ..opts };
        out.push(eco_case("emb_cc_eco_wl", wl, &pins));
        let budget = place(&base, &base_packed, device, capped(2000)).expect("capped places");
        out.push(base_case("emb_budget", budget));
        out.push(eco_case("emb_cc_eco_budget", capped(200), &pins));
    }
    // ECO passes whose results depend on the ECO schedule's constants, at
    // effort 2 and timing weight 1 against a base placed with the same
    // options: the cone alone (keyb), and every CLB released, base and
    // cone alike, so the walk, not only the closing quench, decides where
    // they land.
    let eco_opts = PlaceOptions {
        effort: 2.0,
        timing_weight: 1.0,
        ..opts
    };
    let eco_base = place(&base, &base_packed, device, eco_opts).expect("base places");
    let mut eco_pins = PinnedEntities::pin_base(&eco_base, &gated_packed);
    if name == "keyb" {
        out.push(eco_case("emb_cc_eco_w1", eco_opts, &eco_pins));
    }
    eco_pins.clb.fill(None);
    out.push(eco_case("emb_cc_eco_clbs", eco_opts, &eco_pins));

    let synth = synthesize(&stg, SynthOptions::default()).expect("synthesizes");
    let ff = ff_netlist(&synth, false).0;
    let ff_packed = pack(&ff);
    let (device, ff_placement) = smallest_fit(&ff, &ff_packed, opts);
    out.push(case(name, "ff", device, &ff, &ff_packed, ff_placement));
    if name == "keyb" {
        let device = Device::xc2v250();
        let placement = place(&ff, &ff_packed, device, opts).expect("fits XC2V250");
        out.push(case(name, "ff_xc2v250", device, &ff, &ff_packed, placement));
    }
    out
}

/// Guarded `place` spends at most this many times the moves of the
/// wirelength-only run of the same design.
const GUARD_MOVE_RATIO: f64 = 1.2;

/// The FF rows and the moves each recorded with the first-free-site
/// start and the full schedule (placer version 5).
const SEEDED_FF_MOVES: [(&str, &str, u64); 3] = [
    ("keyb", "ff", 66_744),
    ("keyb", "ff_xc2v250", 73_168),
    ("sand", "ff", 156_846),
];

/// An FF row spends at most this share of its [`SEEDED_FF_MOVES`].
const ANALYTIC_MOVE_SHARE: f64 = 0.6;

/// The counter gate on the analytic start's cost (see the module doc).
fn check_analytic_cost(name: &str, got: &[Case]) {
    for (_, label, seeded) in SEEDED_FF_MOVES.iter().filter(|r| r.0 == name) {
        let moves = got
            .iter()
            .find(|c| c.label == *label)
            .map(|c| c.placement.moves)
            .expect("pinned case");
        assert!(
            moves as f64 <= ANALYTIC_MOVE_SHARE * *seeded as f64,
            "{name}/{label}: {moves} moves, over {ANALYTIC_MOVE_SHARE}x the {seeded} of the first-free-site start"
        );
    }
}

/// The counter gate on the guard's cost (see the module doc).
fn check_guard_cost(name: &str, got: &[Case]) {
    let moves = |label: &str| {
        got.iter()
            .find(|c| c.label == label)
            .map(|c| c.placement.moves)
            .expect("pinned case")
    };
    let (guarded, blind) = (moves("emb"), moves("emb_wl"));
    assert!(
        guarded as f64 <= GUARD_MOVE_RATIO * blind as f64,
        "{name}: guarded place spent {guarded} moves, over {GUARD_MOVE_RATIO}x the {blind} of its blind arm"
    );
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
        // Budget rows stop at the move cap: the arm that hits it spends
        // `max_moves`, and the guard reports both arms' combined spend.
        let budget = if c.label.ends_with("_budget") {
            BudgetOutcome::Exhausted { spent: p.moves }
        } else {
            BudgetOutcome::Completed
        };
        assert_eq!(p.budget, budget, "{name}/{}: budget outcome", c.label);
        let routed = c.routed.as_ref().unwrap_or_else(|e| {
            panic!(
                "{name}/{}: no route within {} expansions: {e}",
                c.label, w.9
            )
        });
        assert_eq!(
            (w.7, w.8),
            (routed.total_wirelength, routes_digest(routed).as_str()),
            "{name}/{}: routed trees moved",
            c.label
        );
        assert_eq!(
            c.short,
            Some(RouteError::BudgetExhausted { spent: w.9 }),
            "{name}/{}: router expansions moved",
            c.label
        );
    }
    check_guard_cost(name, &got);
    check_analytic_cost(name, &got);
}

#[test]
fn keyb_placements_are_pinned() {
    check("keyb");
}

#[test]
fn sand_placements_are_pinned() {
    check("sand");
}
