//! Fault-injection campaign: seeded single-fault corruption of STGs and
//! netlists, driven through the library layers. Every case must end in a
//! typed result — `Ok`, a typed error, or a flagged degraded report —
//! and none may panic.
//!
//! The campaign runs well over 500 seeded cases: cheap map/verify checks
//! dominate, with a handful of full flows on top (ISSUE 2 acceptance:
//! ">= 500 seeded injection cases ... zero panics").

use romfsm::emb::faultinject::{corrupt_netlist, corrupt_stg};
use romfsm::emb::flow::{emb_flow, emb_flow_with_fallback, Downgrade, FlowConfig, Stimulus};
use romfsm::emb::map::{map_fsm_into_embs, EmbOptions};
use romfsm::emb::verify::{verify_against_stg, OutputTiming};
use romfsm::fpga::place::PlaceOptions;
use romfsm::fsm::stg::{StateId, Stg, Transition};
use romfsm::fsm::Pattern;
use romfsm::logic::synth::SynthOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn quick_cfg() -> FlowConfig {
    FlowConfig {
        cycles: 300,
        verify_cycles: 100,
        place: PlaceOptions {
            seed: 1,
            effort: 1.0,
            ..PlaceOptions::default()
        },
        ..FlowConfig::default()
    }
}

/// 300 seeded STG corruptions across three benchmarks: the corrupted
/// machine maps and verifies against the *original* STG. Verification
/// must either pass (fault not observable in the window) or fail with a
/// typed error — never panic.
#[test]
fn stg_corruption_campaign_is_panic_free() {
    let mut cases = 0usize;
    let mut detected = 0usize;
    for name in ["keyb", "donfile", "styr"] {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        for seed in 0..100u64 {
            let Some((bad, fault)) = corrupt_stg(&stg, seed) else {
                continue;
            };
            cases += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let emb =
                    map_fsm_into_embs(&bad, &EmbOptions::default()).map_err(|e| e.to_string())?;
                verify_against_stg(&emb.to_netlist(), &stg, OutputTiming::Registered, 200, seed)
                    .map_err(|e| e.to_string())
            }));
            match outcome {
                Ok(Ok(())) => {} // fault not observable in this window
                Ok(Err(_)) => detected += 1,
                Err(_) => panic!("{name}/seed {seed}: PANIC on fault {fault}"),
            }
        }
    }
    assert!(cases >= 290, "campaign ran only {cases} STG cases");
    assert!(
        detected * 2 > cases,
        "verification should catch most single faults ({detected}/{cases})"
    );
}

/// 200 seeded netlist corruptions, run 64 variants at a time on the
/// bit-parallel kernel: a bit flipped in a mapped EMB netlist must be
/// caught by the campaign (or be benign), never a panic — and every
/// batched verdict must agree with the scalar corrupt-then-verify path
/// for the same seed and stimulus.
#[test]
fn netlist_corruption_campaign_is_panic_free() {
    use romfsm::emb::faultinject::netlist_fault_campaign;

    const STIM_SEED: u64 = 0xFA57;
    let mut cases = 0usize;
    let mut detected = 0usize;
    for name in ["keyb", "planet"] {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).expect("maps");
        let clean = emb.to_netlist();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            netlist_fault_campaign(
                &clean,
                &stg,
                OutputTiming::Registered,
                0..100,
                200,
                STIM_SEED,
            )
        }));
        let outcomes = match outcome {
            Ok(Ok(o)) => o,
            Ok(Err(e)) => panic!("{name}: campaign rejected a clean netlist: {e}"),
            Err(_) => panic!("{name}: PANIC in batched fault campaign"),
        };
        cases += outcomes.len();
        detected += outcomes.iter().filter(|o| o.detected_at.is_some()).count();
        // Differential spot-check: the batched verdict equals the scalar
        // corrupt-then-verify verdict, case for case.
        for out in outcomes.iter().take(16) {
            let (bad, fault) = corrupt_netlist(&clean, out.seed).expect("same seed corrupts");
            assert_eq!(fault, out.fault, "{name}/seed {}", out.seed);
            let scalar =
                match verify_against_stg(&bad, &stg, OutputTiming::Registered, 200, STIM_SEED) {
                    Ok(()) => None,
                    Err(romfsm::emb::verify::VerifyError::Mismatch { cycle, .. }) => Some(cycle),
                    Err(e) => panic!("{name}/seed {}: unexpected error {e}", out.seed),
                };
            assert_eq!(
                scalar, out.detected_at,
                "{name}/seed {}: batched and scalar verdicts differ on {fault}",
                out.seed
            );
        }
    }
    assert!(cases >= 190, "campaign ran only {cases} netlist cases");
    // planet's ROM is large, so many single-bit flips land in words the
    // 200-cycle stimulus never addresses; still, a healthy fraction must
    // be observable.
    assert!(
        detected * 4 >= cases,
        "verification should catch a solid fraction of single faults ({detected}/{cases})"
    );
}

/// A few corrupted machines through the *full* flow: the flow returns a
/// typed `FlowError` or a (possibly degraded) `FlowReport`.
#[test]
fn corrupted_machines_flow_without_panicking() {
    let cfg = quick_cfg();
    let stg = romfsm::fsm::benchmarks::by_name("keyb").expect("keyb");
    for seed in 0..10u64 {
        let Some((bad, fault)) = corrupt_stg(&stg, seed) else {
            continue;
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            emb_flow(&bad, &EmbOptions::default(), &Stimulus::Random, &cfg)
                .map(|r| r.downgrades.len())
                .map_err(|e| e.to_string())
        }));
        assert!(
            outcome.is_ok(),
            "seed {seed}: flow PANICKED on fault {fault}"
        );
    }
}

/// 100 seeded ECO-placement corruptions across two benchmarks: a moved
/// pinned coordinate or a dropped cone entity must be rejected by
/// `verify_eco_placement` as a typed `EcoPlaceError` — detection is
/// mandatory (the fault classes are observable by construction) and a
/// panic is an instant failure.
#[test]
fn eco_corruption_campaign_is_panic_free() {
    use romfsm::emb::clock_control::attach_emb_clock_control;
    use romfsm::emb::faultinject::corrupt_eco;
    use romfsm::fpga::device::Device;
    use romfsm::fpga::pack::{pack, pack_partitioned};
    use romfsm::fpga::place::{place, place_incremental, verify_eco_placement, PinnedEntities};
    use romfsm::logic::techmap::MapOptions;

    let mut cases = 0usize;
    for name in ["keyb", "donfile"] {
        let stg = romfsm::fsm::benchmarks::by_name(name).expect("paper benchmark");
        let emb = map_fsm_into_embs(&stg, &EmbOptions::default()).expect("maps");
        let plain = emb.to_netlist();
        let (gated, _) =
            attach_emb_clock_control(&emb, MapOptions::default()).expect("clock control");
        let device = Device::xc2v250();
        let opts = PlaceOptions {
            seed: 1,
            effort: 1.0,
            ..PlaceOptions::default()
        };
        let plain_packed = pack(&plain);
        let base = place(&plain, &plain_packed, device, opts).expect("base placement");
        let packed =
            pack_partitioned(&gated, &plain_packed, plain.cells().len()).expect("partitioned pack");
        let pins = PinnedEntities::pin_base(&base, &packed);
        let eco = place_incremental(&gated, &packed, device, opts, &pins).expect("eco placement");
        for seed in 0..50u64 {
            let Some((bad, fault)) = corrupt_eco(&eco, &pins, seed) else {
                continue;
            };
            cases += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                verify_eco_placement(&bad.placement, &pins)
            }));
            match outcome {
                Ok(Err(_)) => {} // typed rejection, as the contract demands
                Ok(Ok(())) => panic!("{name}/seed {seed}: fault {fault} went undetected"),
                Err(_) => panic!("{name}/seed {seed}: PANIC checking fault {fault}"),
            }
        }
    }
    assert!(cases >= 100, "campaign ran only {cases} ECO cases");
}

/// Builds a fully-specified machine with `inputs` primary inputs and four
/// states. Fully-specified cubes defeat column compaction, and
/// `inputs + 2` address bits exceed every rung of the ladder when large
/// enough.
fn wide_machine(inputs: usize) -> Stg {
    let states: Vec<String> = (0..4).map(|i| format!("s{i}")).collect();
    let mut transitions = Vec::new();
    // Four fully-specified cubes per state. Determinism needs disjoint
    // conditions (the low two bits encode `k`), and full specification —
    // no don't-cares anywhere — defeats column compaction.
    for s in 0..4usize {
        for k in 0..4usize {
            let bits: Vec<bool> = (0..inputs)
                .map(|b| match b {
                    0 => k & 1 == 1,
                    1 => k >> 1 & 1 == 1,
                    _ => (s + k + b) % 2 == 1,
                })
                .collect();
            transitions.push(Transition {
                from: StateId(s as u32),
                input: Pattern::from_bits(&bits),
                to: StateId(((s + k) % 4) as u32),
                output: Pattern::from_bits(&[(s ^ k) & 1 == 1]),
            });
        }
    }
    Stg::new("wide-nofit", inputs, 1, states, transitions, StateId(0))
        .expect("well-formed wide machine")
}

/// ISSUE 2 acceptance: an FSM that fits no BRAM configuration on the
/// XC2V250 still completes via the FF-baseline fallback, with the
/// downgrade recorded in the report.
#[test]
fn no_fit_machine_completes_via_ff_fallback() {
    // 19 inputs + 2 state bits = 21 address bits: beyond direct (14),
    // compaction (fully-specified cubes) and the series-bank rung.
    let stg = wide_machine(19);
    let cfg = quick_cfg();

    // Without the ladder the EMB flow refuses with a capacity error.
    let direct = emb_flow(&stg, &EmbOptions::default(), &Stimulus::Random, &cfg);
    let err = direct.expect_err("a 21-address-bit machine cannot map to EMBs");
    assert!(err.is_capacity(), "expected a capacity error, got: {err}");

    // With the ladder the flow completes as an FF implementation and
    // records the downgrade.
    let report = emb_flow_with_fallback(
        &stg,
        &EmbOptions::default(),
        SynthOptions::default(),
        &Stimulus::Random,
        &cfg,
    )
    .expect("fallback flow must complete");
    assert!(
        report
            .downgrades
            .iter()
            .any(|d| matches!(d, Downgrade::EmbToFf { .. })),
        "downgrade must be recorded, got: {:?}",
        report.downgrades
    );
    assert!(report.area.ffs > 0, "FF baseline actually used flip-flops");
}
