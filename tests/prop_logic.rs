//! Property-based tests over the logic-synthesis substrate: cube algebra,
//! espresso exactness, decomposition and technology-mapping equivalence.
//!
//! Runs on the in-workspace `xrand::proptest_lite` harness (hermetic, no
//! registry deps). Failures print the case seed; re-run one case with
//! `SEED=<seed> cargo test --test prop_logic`.

use romfsm::logic::cover::Cover;
use romfsm::logic::cube::Cube;
use romfsm::logic::decompose::decompose2;
use romfsm::logic::espresso;
use romfsm::logic::network::Network;
use romfsm::logic::techmap::{map_luts, MapOptions};
use xrand::proptest_lite::run_cases;
use xrand::SmallRng;

/// A random cube over `n` variables encoded as (mask, val).
fn arb_cube(rng: &mut SmallRng, n: usize) -> Cube {
    let space: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mask = rng.random_range(0..=space);
    let val = rng.random_range(0..=space);
    Cube::from_raw(n, mask, val & mask)
}

fn arb_cover(rng: &mut SmallRng, n: usize, max_cubes: usize) -> Cover {
    let count = rng.random_range(1usize..=max_cubes);
    Cover::from_cubes(n, (0..count).map(|_| arb_cube(rng, n)).collect())
}

#[test]
fn subtract_is_exact_difference() {
    run_cases(64, |rng| {
        let a = arb_cube(rng, 6);
        let b = arb_cube(rng, 6);
        let diff = a.subtract(&b);
        for m in 0..64u64 {
            let expect = a.contains_minterm(m) && !b.contains_minterm(m);
            let got = diff.iter().any(|c| c.contains_minterm(m));
            assert_eq!(got, expect, "minterm {m:06b} of {a:?} - {b:?}");
        }
        // Pieces are pairwise disjoint.
        for i in 0..diff.len() {
            for j in (i + 1)..diff.len() {
                assert!(!diff[i].intersects(&diff[j]));
            }
        }
    });
}

#[test]
fn supercube_contains_both() {
    run_cases(64, |rng| {
        let a = arb_cube(rng, 8);
        let b = arb_cube(rng, 8);
        let s = a.supercube(&b);
        assert!(s.contains(&a));
        assert!(s.contains(&b));
    });
}

#[test]
fn intersection_agrees_with_pointwise() {
    run_cases(64, |rng| {
        let a = arb_cube(rng, 6);
        let b = arb_cube(rng, 6);
        let i = a.intersection(&b);
        for m in 0..64u64 {
            let expect = a.contains_minterm(m) && b.contains_minterm(m);
            let got = i.map(|c| c.contains_minterm(m)).unwrap_or(false);
            assert_eq!(got, expect, "minterm {m:06b}");
        }
    });
}

#[test]
fn tautology_matches_brute_force() {
    run_cases(64, |rng| {
        let f = arb_cover(rng, 6, 8);
        let brute = (0..64u64).all(|m| f.eval(m));
        assert_eq!(f.is_tautology(), brute, "{f:?}");
    });
}

#[test]
fn complement_is_pointwise_negation() {
    run_cases(64, |rng| {
        let f = arb_cover(rng, 5, 6);
        let g = f.complement();
        for m in 0..32u64 {
            assert_eq!(g.eval(m), !f.eval(m), "minterm {m:05b} of {f:?}");
        }
    });
}

#[test]
fn espresso_is_exact_on_care_space() {
    run_cases(64, |rng| {
        let onset = arb_cover(rng, 5, 6);
        let dc = arb_cover(rng, 5, 3);
        let r = espresso::minimize(&onset, &dc);
        assert!(espresso::is_exact_cover(&r.cover, &onset, &dc));
        for m in 0..32u64 {
            if !dc.eval(m) {
                assert_eq!(r.cover.eval(m), onset.eval(m), "minterm {m:05b}");
            }
        }
        assert!(r.cover.len() <= onset.len() + 1);
    });
}

#[test]
fn decompose_and_map_preserve_function() {
    run_cases(64, |rng| {
        let f = arb_cover(rng, 6, 6);
        let mut net = Network::new();
        let ins: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let node = net.add_logic(ins, f).expect("arity matches");
        net.add_output("y", node).expect("node exists");
        let two = decompose2(&net);
        assert!(two.max_fanin() <= 2);
        let mapped = map_luts(&two, MapOptions::default()).expect("maps");
        for m in 0..64u64 {
            let bits: Vec<bool> = (0..6).map(|i| m >> i & 1 == 1).collect();
            assert_eq!(net.eval(&bits), two.eval(&bits), "decompose @ {m:06b}");
            assert_eq!(net.eval(&bits), mapped.eval(&bits), "map @ {m:06b}");
        }
        for lut in &mapped.luts {
            assert!(lut.fanins.len() <= 4);
        }
    });
}

/// Cross-substrate property: a LUT network instantiated into a physical
/// netlist and run on the cycle simulator must agree with direct
/// evaluation of the LUT network.
mod netlist_cross_check {
    use super::*;
    use romfsm::emb::netlist_build::instantiate_luts;
    use romfsm::fpga::netlist::{NetId, Netlist};
    use romfsm::sim::kernel::BatchSimulator;

    #[test]
    fn simulator_matches_lut_network_eval() {
        run_cases(32, |rng| {
            let f = arb_cover(rng, 5, 5);
            let mut net = Network::new();
            let ins: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
            let node = net.add_logic(ins, f).expect("arity matches");
            net.add_output("y", node).expect("node exists");
            let luts = map_luts(&decompose2(&net), MapOptions::default()).expect("maps");

            let mut n = Netlist::new("x");
            let pins: Vec<NetId> = (0..5).map(|i| n.add_net(format!("p{i}"))).collect();
            for (i, p) in pins.iter().enumerate() {
                n.add_input(format!("p{i}"), *p);
            }
            let outs = instantiate_luts(&mut n, &luts, &pins, "u");
            n.add_output("y", outs[0]);
            let mut sim = BatchSimulator::new(&n).expect("valid netlist");
            for m in 0..32u64 {
                let bits: Vec<bool> = (0..5).map(|i| m >> i & 1 == 1).collect();
                sim.run_sequential([&bits]);
                assert_eq!(sim.lane_outputs(0)[0], luts.eval(&bits)[0], "m={m:05b}");
            }
        });
    }
}
