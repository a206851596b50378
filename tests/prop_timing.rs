//! Property-based differential tests for the incremental static-timing
//! kernel: on randomly generated netlists (LUT DAGs, enabled FFs, BRAMs
//! with and without enables or wired outputs, some sharing one read-address
//! vector), an arbitrary seeded sequence of wire-
//! delay edits applied incrementally must leave
//! [`romfsm::fpga::sta::TimingKernel`] bit-identical — arrival,
//! downstream/required, slack, criticality, and the critical path — to a
//! from-scratch kernel fed the same final delays, and to its own
//! `full_retime` recompute.
//!
//! Runs on the in-workspace `xrand::proptest_lite` harness (hermetic, no
//! registry deps). Failures print the case seed; re-run one case with
//! `SEED=<seed> cargo test --test prop_timing`.

use romfsm::fpga::device::BramShape;
use romfsm::fpga::netlist::{Cell, NetId, Netlist};
use romfsm::fpga::sta::TimingKernel;
use romfsm::fpga::timing::DelayModel;
use xrand::proptest_lite::run_cases;
use xrand::SmallRng;

/// A random valid netlist: primary inputs feeding an acyclic LUT DAG,
/// optional enabled FFs, up to two BRAMs (with or without an enable,
/// sometimes with no wired data output — a pure timing endpoint — and the
/// second often on the first's read-address vector), and an optional
/// constant driver — every launch and endpoint kind the timing model
/// distinguishes shows up with fair probability. One netlist in four is
/// a deep DAG of 64–200 LUTs whose inputs mostly come from the last few
/// LUT outputs, so cones reconverge and a wavefront spans several words
/// of the kernel's dirty bitsets.
fn arb_netlist(rng: &mut SmallRng) -> Netlist {
    let mut n = Netlist::new("prop");
    let num_inputs = rng.random_range(1usize..=4);
    let mut pool: Vec<NetId> = Vec::new();
    for i in 0..num_inputs {
        let net = n.add_net(format!("in{i}"));
        n.add_input(format!("in{i}"), net);
        pool.push(net);
    }
    // Sequential sources up front: FF q and BRAM dout nets may feed any
    // LUT, and they are legal before their cells exist.
    let num_ffs = rng.random_range(0usize..=3);
    let ff_q: Vec<NetId> = (0..num_ffs).map(|i| n.add_net(format!("q{i}"))).collect();
    pool.extend(&ff_q);
    let num_brams = if rng.random_bool(0.6) {
        rng.random_range(1usize..=2)
    } else {
        0
    };
    let bram_douts: Vec<Vec<NetId>> = (0..num_brams)
        .map(|b| {
            let w = rng.random_range(0usize..=2);
            (0..w).map(|i| n.add_net(format!("bd{b}_{i}"))).collect()
        })
        .collect();
    for dout in &bram_douts {
        pool.extend(dout);
    }
    if rng.random_bool(0.3) {
        let c = n.add_net("c0");
        n.add_cell(Cell::Const {
            output: c,
            value: rng.random(),
        });
        pool.push(c);
    }
    // Acyclic LUT DAG: inputs only from already-driven nets.
    let deep = rng.random_bool(0.25);
    let num_luts = if deep {
        rng.random_range(64usize..=200)
    } else {
        rng.random_range(1usize..=8)
    };
    for i in 0..num_luts {
        let k = rng.random_range(1usize..=3.min(pool.len()));
        let inputs: Vec<NetId> = (0..k)
            .map(|_| {
                let from = if deep && rng.random_bool(0.8) {
                    pool.len().saturating_sub(6)
                } else {
                    0
                };
                pool[rng.random_range(from..pool.len())]
            })
            .collect();
        let out = n.add_net(format!("l{i}"));
        let truth = rng.random_range(0..1u64 << (1 << k));
        n.add_cell(Cell::Lut {
            inputs,
            output: out,
            truth,
        });
        pool.push(out);
    }
    for &q in &ff_q {
        let d = pool[rng.random_range(0..pool.len())];
        let ce = rng
            .random_bool(0.5)
            .then(|| pool[rng.random_range(0..pool.len())]);
        n.add_cell(Cell::Ff {
            d,
            q,
            ce,
            init: rng.random(),
        });
    }
    let mut last_addr: Option<Vec<NetId>> = None;
    for dout in bram_douts {
        let addr = match last_addr.take() {
            Some(shared) if rng.random_bool(0.6) => shared,
            _ => {
                let addr_bits = rng.random_range(2usize..=4);
                (0..addr_bits)
                    .map(|_| pool[rng.random_range(0..pool.len())])
                    .collect()
            }
        };
        last_addr = Some(addr.clone());
        let addr_bits = addr.len();
        let depth = 1usize << addr_bits;
        let data_bits = dout.len().max(1);
        let en = rng
            .random_bool(0.5)
            .then(|| pool[rng.random_range(0..pool.len())]);
        let init: Vec<u64> = (0..depth)
            .map(|_| rng.random_range(0..1u64 << data_bits))
            .collect();
        n.add_cell(Cell::Bram {
            shape: BramShape {
                addr_bits,
                data_bits,
            },
            addr,
            dout,
            en,
            init,
            output_init: rng.random_range(0..1u64 << data_bits),
        });
    }
    for i in 0..rng.random_range(1usize..=3) {
        n.add_output(format!("o{i}"), pool[rng.random_range(0..pool.len())]);
    }
    n
}

/// Asserts two kernels agree bit-for-bit on every per-net quantity and
/// on the critical path.
fn assert_bit_identical(a: &TimingKernel, b: &TimingKernel, ctx: &str) {
    assert_eq!(
        a.critical_ns().to_bits(),
        b.critical_ns().to_bits(),
        "critical path diverged: {ctx}"
    );
    for i in 0..a.num_nets() {
        let net = NetId(i as u32);
        assert_eq!(
            a.arrival(net).to_bits(),
            b.arrival(net).to_bits(),
            "arrival of net {i} diverged: {ctx}"
        );
        assert_eq!(
            a.downstream(net).to_bits(),
            b.downstream(net).to_bits(),
            "downstream of net {i} diverged: {ctx}"
        );
        assert_eq!(
            a.slack(net).to_bits(),
            b.slack(net).to_bits(),
            "slack of net {i} diverged: {ctx}"
        );
        assert_eq!(
            a.criticality(net).to_bits(),
            b.criticality(net).to_bits(),
            "criticality of net {i} diverged: {ctx}"
        );
    }
}

/// After an arbitrary seeded move sequence (batched wire-delay edits,
/// interleaved flushes), the incrementally-maintained kernel equals a
/// from-scratch kernel given the same final delays, bit for bit — and
/// `full_retime` confirms zero drift from inside.
#[test]
fn incremental_timing_equals_from_scratch_recompute() {
    run_cases(48, |rng| {
        let netlist = arb_netlist(rng);
        let model = DelayModel::default();
        let mut kernel = TimingKernel::new(&netlist, &model).expect("valid netlist");
        kernel.flush();
        let nets = kernel.num_nets();
        let moves = rng.random_range(1usize..=60);
        for _ in 0..moves {
            // One "placer move": a small batch of nets changes length.
            for _ in 0..rng.random_range(1usize..=4) {
                let net = NetId(rng.random_range(0..nets) as u32);
                let hops = rng.random_range(0u32..40);
                kernel.set_wire_delay(net, model.net_base + model.net_per_hop * f64::from(hops));
            }
            if rng.random_bool(0.7) {
                kernel.flush();
            }
        }
        kernel.flush();

        // From-scratch witness: a fresh kernel fed the same final wire
        // delays in one pass.
        let mut fresh = TimingKernel::new(&netlist, &model).expect("valid netlist");
        for i in 0..nets {
            let net = NetId(i as u32);
            fresh.set_wire_delay(net, kernel.wire_delay(net));
        }
        fresh.flush();
        assert_bit_identical(&kernel, &fresh, "incremental vs from-scratch");

        // The committed invariant: a full retime of the incremental
        // kernel must find nothing to change.
        assert!(
            kernel.clone().full_retime(),
            "full_retime found drift after {moves} moves"
        );
    });
}

/// Criticality and slack stay coherent under the same random campaigns:
/// criticality is within [0, 1], the worst net is exactly critical, and
/// zero-slack nets are the criticality-1 nets.
#[test]
fn criticality_and_slack_stay_coherent_under_edits() {
    run_cases(24, |rng| {
        let netlist = arb_netlist(rng);
        let model = DelayModel::default();
        let mut kernel = TimingKernel::new(&netlist, &model).expect("valid netlist");
        for _ in 0..rng.random_range(1usize..=30) {
            let net = NetId(rng.random_range(0..kernel.num_nets()) as u32);
            let hops = rng.random_range(0u32..40);
            kernel.set_wire_delay(net, model.net_base + model.net_per_hop * f64::from(hops));
        }
        kernel.flush();
        let mut saw_critical = false;
        for i in 0..kernel.num_nets() {
            let net = NetId(i as u32);
            let c = kernel.criticality(net);
            assert!((0.0..=1.0).contains(&c), "criticality out of range: {c}");
            if (c - 1.0).abs() < 1e-15 {
                saw_critical = true;
                assert!(
                    kernel.slack(net).abs() < 1e-9,
                    "critical net {i} has slack {}",
                    kernel.slack(net)
                );
            }
        }
        if kernel.critical_ns() > f64::MIN_POSITIVE {
            assert!(saw_critical, "some net must carry the critical path");
        }
    });
}
