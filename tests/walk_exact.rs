//! Walk-exactness property suite: the word-parallel exhaustive product
//! walk ([`verify_exhaustive`], bit-sliced oracle, packed joint-state
//! keys) must be indistinguishable from the scalar walk of the test-only
//! `oracle` crate ([`verify_exhaustive_scalar`]) — equal
//! `ExhaustiveReport`s on success and equal first-divergence `Mismatch`
//! witnesses on failure — and so must [`netlists_equivalent`] and the
//! sampled lockstep [`verify_against_stg`] be to theirs.
//!
//! Machines come from the seeded generator, so the cases cover narrow
//! machines (`I < 6`: several nodes per 64-lane batch, the last batch
//! partial) and wide ones (`I >= 6`: one node per batch, high inputs
//! broadcast), registered EMB netlists and combinational FF netlists,
//! series-bank cascades, clock-controlled netlists whose BRAM enable is
//! gated, and netlists or machines corrupted through
//! `emb_fsm::faultinject` so that witnesses are compared too.
//!
//! Re-run one failing case with `SEED=<seed> cargo test --test walk_exact`;
//! raise coverage with `CASES=<n>`.

use oracle::{netlists_equivalent_scalar, verify_against_stg_scalar, verify_exhaustive_scalar};
use romfsm::emb::baseline::ff_netlist;
use romfsm::emb::clock_control::attach_emb_clock_control;
use romfsm::emb::faultinject::{corrupt_netlist, corrupt_stg};
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions, OutputMode};
use romfsm::emb::verify::{
    netlists_equivalent, verify_against_stg, verify_exhaustive, OutputTiming, VerifyError,
};
use romfsm::fpga::netlist::Netlist;
use romfsm::fsm::benchmarks;
use romfsm::fsm::generate::{generate, StgSpec};
use romfsm::fsm::stg::Stg;
use romfsm::logic::synth::{synthesize, SynthOptions};
use romfsm::logic::techmap::MapOptions;
use romfsm::sim::kernel::BatchSimulator;
use xrand::proptest_lite::run_cases;
use xrand::SmallRng;

/// A seeded machine with `inputs` inputs; `None` when the generator
/// refuses the drawn shape.
fn arb_stg(rng: &mut SmallRng, inputs: usize, idle_line: bool) -> Option<Stg> {
    let states = rng.random_range(2usize..=9);
    let spec = StgSpec {
        states,
        inputs,
        outputs: rng.random_range(1usize..=4),
        transitions: states * rng.random_range(2usize..=4),
        max_support: rng
            .random_bool(0.3)
            .then(|| rng.random_range(1..=inputs.max(1))),
        self_loop_bias: 0.6 * rng.random::<f64>(),
        moore: rng.random_bool(0.3),
        idle_line: idle_line.then_some(0),
        dont_care_density: if rng.random_bool(0.5) {
            0.9 * rng.random::<f64>()
        } else {
            0.0
        },
        fanout_skew: if rng.random_bool(0.3) { 1.5 } else { 0.0 },
        seed: rng.random(),
        ..StgSpec::new("walk")
    };
    generate(&spec).ok()
}

/// Input widths on both sides of the 64-lane node boundary.
fn arb_inputs(rng: &mut SmallRng) -> usize {
    if rng.random_bool(0.5) {
        rng.random_range(1usize..=5)
    } else {
        rng.random_range(6usize..=8)
    }
}

/// The walks agree on `netlist` against `stg`, and on a faultinject
/// corruption of each; returns how many of the three comparisons ended
/// in a mismatch witness (so properties can require teeth).
fn assert_walks_agree(
    netlist: &Netlist,
    stg: &Stg,
    timing: OutputTiming,
    rng: &mut SmallRng,
) -> usize {
    let mut witnesses = 0;
    let mut check = |n: &Netlist, s: &Stg, what: &str| {
        let batched = verify_exhaustive(n, s, timing, 20);
        let scalar = verify_exhaustive_scalar(n, s, timing, 20);
        assert_eq!(batched, scalar, "{what}: {} ({timing:?})", s.name());
        witnesses += usize::from(matches!(batched, Err(VerifyError::Mismatch { .. })));
    };
    check(netlist, stg, "clean");
    if let Some((mutant, fault)) = corrupt_netlist(netlist, rng.random()) {
        check(&mutant, stg, &format!("netlist fault {fault}"));
    }
    if let Some((bad, fault)) = corrupt_stg(stg, rng.random()) {
        check(netlist, &bad, &format!("stg fault {fault}"));
    }
    witnesses
}

fn arb_output_mode(rng: &mut SmallRng) -> OutputMode {
    match rng.random_range(0u32..3) {
        0 => OutputMode::Auto,
        1 => OutputMode::InMemory,
        _ => OutputMode::MooreLuts,
    }
}

/// Registered EMB netlists (direct or compacted) on narrow and wide
/// machines, clean and corrupted.
#[test]
fn emb_walk_matches_scalar_reports_and_witnesses() {
    run_cases(24, |rng| {
        let inputs = arb_inputs(rng);
        let Some(stg) = arb_stg(rng, inputs, false) else {
            return;
        };
        let opts = EmbOptions {
            output_mode: arb_output_mode(rng),
            ..EmbOptions::default()
        };
        let emb = map_fsm_into_embs(&stg, &opts).expect("small machines map");
        assert_walks_agree(&emb.to_netlist(), &stg, OutputTiming::Registered, rng);
    });
}

/// Combinational Mealy outputs: FF netlists compared at the pre-edge
/// sample point.
#[test]
fn ff_walk_matches_scalar_reports_and_witnesses() {
    run_cases(16, |rng| {
        let inputs = arb_inputs(rng);
        let Some(stg) = arb_stg(rng, inputs, false) else {
            return;
        };
        let synth = synthesize(&stg, SynthOptions::default()).expect("small machines synthesize");
        let (netlist, _) = ff_netlist(&synth, false);
        assert_walks_agree(&netlist, &stg, OutputTiming::Combinational, rng);
    });
}

/// Clock-controlled EMB netlists: the BRAM enable is gated by the idle
/// cone, so lanes of one batch hold or read independently.
#[test]
fn clock_controlled_walk_matches_scalar_reports_and_witnesses() {
    run_cases(16, |rng| {
        let inputs = arb_inputs(rng);
        let Some(stg) = arb_stg(rng, inputs, true) else {
            return;
        };
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).expect("small machines map");
        let (netlist, _) =
            attach_emb_clock_control(&emb, MapOptions::default()).expect("clock control");
        assert_walks_agree(&netlist, &stg, OutputTiming::Registered, rng);
    });
}

/// Series-bank cascades (compaction forbidden, wide address): every bank
/// shares one read-address vector and the bank select is registered.
#[test]
fn series_bank_walk_matches_scalar_reports_and_witnesses() {
    // Each case costs the scalar oracle ~10^5 edges over 16K-word BRAM
    // images, so the default is one case; scripts/verify.sh raises it in
    // release mode.
    run_cases(1, |rng| {
        // Inputs plus state bits exceed the 14 address bits of one BRAM.
        let (inputs, states) = if rng.random_bool(0.5) {
            (13, rng.random_range(3usize..=4))
        } else {
            (12, rng.random_range(5usize..=6))
        };
        let spec = StgSpec {
            states,
            inputs,
            outputs: rng.random_range(1usize..=2),
            transitions: 16,
            max_support: Some(inputs),
            seed: rng.random(),
            ..StgSpec::new("series")
        };
        let stg = generate(&spec).expect("series spec generates");
        let emb = map_fsm_into_embs(
            &stg,
            &EmbOptions {
                allow_compaction: false,
                ..EmbOptions::default()
            },
        )
        .expect("series mapping fits");
        assert!(emb.banks >= 2, "series path must engage");
        assert_walks_agree(&emb.to_netlist(), &stg, OutputTiming::Registered, rng);
    });
}

/// The corrupted comparisons actually produce witnesses: without them the
/// suite would only ever compare two `Ok` reports.
#[test]
fn corruptions_yield_witnesses() {
    let witnesses = std::cell::Cell::new(0usize);
    run_cases(8, |rng| {
        let inputs = arb_inputs(rng);
        if let Some(stg) = arb_stg(rng, inputs, false) {
            let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).expect("maps");
            let n = assert_walks_agree(&emb.to_netlist(), &stg, OutputTiming::Registered, rng);
            witnesses.set(witnesses.get() + n);
        }
    });
    assert!(
        witnesses.get() > 0,
        "no corruption was observable in any case"
    );
}

/// `netlists_equivalent` against its scalar pairwise walk, on a machine's
/// EMB netlist paired with itself, with its clock-controlled form, and
/// with faultinject mutants of it.
#[test]
fn netlist_equivalence_matches_scalar_walk_on_mutants() {
    run_cases(16, |rng| {
        let inputs = arb_inputs(rng);
        let Some(stg) = arb_stg(rng, inputs, true) else {
            return;
        };
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).expect("maps");
        let plain = emb.to_netlist();
        let (gated, _) = attach_emb_clock_control(&emb, MapOptions::default()).expect("cc");
        let mut pairs = vec![
            (plain.clone(), plain.clone()),
            (plain.clone(), gated.clone()),
        ];
        for base in [&plain, &gated] {
            for _ in 0..2 {
                if let Some((mutant, _)) = corrupt_netlist(base, rng.random()) {
                    pairs.push((base.clone(), mutant));
                }
            }
        }
        for (a, b) in &pairs {
            assert_eq!(
                netlists_equivalent(a, b, 20),
                netlists_equivalent_scalar(a, b, 20),
                "{}",
                stg.name()
            );
        }
    });
}

/// The sampled rung: on the nine paper benchmarks' FF netlists
/// (combinational outputs) and EMB netlists (registered outputs), and on
/// twelve `corrupt_netlist` mutants of each, the kernel lockstep returns
/// exactly the scalar lockstep's result — `Ok`, or the same `Mismatch`
/// (cycle, inputs, expected, got).
#[test]
fn sampled_lockstep_matches_scalar_on_paper_netlists_and_mutants() {
    let (mut mutants, mut caught) = (0, 0);
    for stg in benchmarks::paper_suite() {
        let synth = synthesize(&stg, SynthOptions::default()).expect("paper machines synthesize");
        let ff = ff_netlist(&synth, false).0;
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default())
            .expect("paper machines map")
            .to_netlist();
        for (clean, timing) in [
            (ff, OutputTiming::Combinational),
            (emb, OutputTiming::Registered),
        ] {
            let check = |n: &Netlist, what: &str| {
                let kernel = verify_against_stg(n, &stg, timing, 300, 0x5A);
                let scalar = verify_against_stg_scalar(n, &stg, timing, 300, 0x5A);
                assert_eq!(kernel, scalar, "{} {timing:?}: {what}", stg.name());
                kernel.is_err()
            };
            assert!(!check(&clean, "clean"), "{}: clean diverged", stg.name());
            for seed in 0..12 {
                let (mutant, fault) = corrupt_netlist(&clean, seed).expect("corruptible");
                mutants += 1;
                caught += usize::from(check(&mutant, &format!("{fault}")));
            }
        }
    }
    assert!(mutants >= 200, "only {mutants} mutants");
    assert!(caught > 0, "no mutant diverged: no witness was compared");
}

/// The word-parallel walk must keep paying for itself: on keyb's FF
/// netlist it must beat the scalar walk by at least 10× (it reads ~20-30×).
/// Both walks run in this process, alternating, and each keeps its best
/// of three, so the ratio normalises itself to the machine it runs on.
/// Release only: a debug build would time its debug assertions.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn batched_walk_is_10x_faster_than_scalar_on_keyb() {
    let stg = benchmarks::by_name("keyb").expect("paper benchmark");
    let synth = synthesize(&stg, SynthOptions::default()).expect("keyb synthesizes");
    let ff = ff_netlist(&synth, false).0;
    let timed = |best: &mut f64, walk: fn(&Netlist, &Stg, OutputTiming, usize) -> _| {
        let start = std::time::Instant::now();
        let report: Result<_, VerifyError> = walk(&ff, &stg, OutputTiming::Combinational, 16);
        *best = best.min(start.elapsed().as_secs_f64());
        report.expect("keyb is exhaustively equivalent");
    };
    let (mut batched, mut scalar) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        timed(&mut batched, verify_exhaustive);
        timed(&mut scalar, verify_exhaustive_scalar);
    }
    assert!(
        scalar >= 10.0 * batched,
        "batched walk {batched:.4} s is under 10x the scalar walk's {scalar:.4} s"
    );
}

/// The single-stream simulation must keep up with the scalar engine: on
/// the FF netlists of keyb, tbk and sand, `run_sequential` (the power
/// flow's activity run, which reads one leaf per LUT for lane 0) takes at
/// most 1.2× the time the scalar `oracle::Simulator` takes over the same
/// 1000 random cycles. Timed like the walk ratio above: alternating,
/// best of five, in this process. Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn one_lane_simulation_keeps_up_with_the_scalar_engine() {
    for name in ["keyb", "tbk", "sand"] {
        let stg = benchmarks::by_name(name).expect("paper benchmark");
        let synth = synthesize(&stg, SynthOptions::default()).expect("synthesizes");
        let ff = ff_netlist(&synth, false).0;
        let stimulus = romfsm::sim::stimulus::random(ff.inputs().len(), 1000, 7);
        let (mut batched, mut scalar) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let mut sim = BatchSimulator::new(&ff).expect("kernel accepts the netlist");
            let start = std::time::Instant::now();
            sim.run_sequential(&stimulus);
            batched = batched.min(start.elapsed().as_secs_f64());
            let mut engine = oracle::Simulator::new(&ff).expect("engine accepts the netlist");
            let start = std::time::Instant::now();
            engine.run(stimulus.iter().cloned());
            scalar = scalar.min(start.elapsed().as_secs_f64());
            assert_eq!(sim.activity().toggles, engine.activity().toggles, "{name}");
        }
        assert!(
            batched <= 1.2 * scalar,
            "{name}: one-lane run_sequential {batched:.4} s is over 1.2x the scalar engine's {scalar:.4} s"
        );
    }
}
