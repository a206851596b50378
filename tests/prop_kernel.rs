//! Property-based differential tests for the bit-parallel simulation
//! kernel: on randomly generated netlists (LUT DAGs, enabled FFs, up to
//! three BRAMs with and without enables and write ports, some sharing one
//! read-address vector), every lane of
//! [`romfsm::sim::kernel::BatchSimulator`] must agree with an independent
//! scalar [`romfsm::sim::engine::Simulator`] cycle for cycle — net
//! values, outputs, and every `Activity` counter — and the row/word
//! transposition layer must round-trip exactly.
//!
//! Runs on the in-workspace `xrand::proptest_lite` harness (hermetic, no
//! registry deps). Failures print the case seed; re-run one case with
//! `SEED=<seed> cargo test --test prop_kernel`.

use romfsm::fpga::device::BramShape;
use romfsm::fpga::netlist::{BramWrite, Cell, NetId, Netlist};
use romfsm::sim::engine::Simulator;
use romfsm::sim::kernel::{pack_rows, unpack_rows, BatchSimulator, LANES};
use xrand::proptest_lite::run_cases;
use xrand::SmallRng;

/// A random valid netlist: primary inputs feeding an acyclic LUT DAG,
/// optional enabled FFs, up to three BRAMs (read-only or with a write
/// port, with or without an enable; later BRAMs often reuse an earlier
/// BRAM's read-address vector, so the kernel's shared per-address-group
/// gather is exercised; wide words make a group's data bits overflow one
/// 64-bit pack), and an optional constant driver. Every structural
/// feature the kernel models shows up with fair probability.
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
    // LUT (the loop through the state is what makes the machines
    // interesting), and they are legal before their cells exist.
    let num_ffs = rng.random_range(0usize..=3);
    let ff_q: Vec<NetId> = (0..num_ffs).map(|i| n.add_net(format!("q{i}"))).collect();
    pool.extend(&ff_q);
    let num_brams = if rng.random_bool(0.6) {
        rng.random_range(1usize..=3)
    } else {
        0
    };
    let bram_douts: Vec<Vec<NetId>> = (0..num_brams)
        .map(|b| {
            // Mostly narrow words; sometimes wide ones (two or three wide
            // BRAMs on one address vector exceed one 64-bit pack), and
            // sometimes none at all (a write-only BRAM has no read port).
            let w = match rng.random_range(0u32..8) {
                0 => 0,
                1 | 2 => rng.random_range(20usize..=36),
                _ => rng.random_range(1usize..=6),
            };
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
    let num_luts = rng.random_range(1usize..=8);
    for i in 0..num_luts {
        let k = rng.random_range(1usize..=3.min(pool.len()));
        let inputs: Vec<NetId> = (0..k)
            .map(|_| pool[rng.random_range(0..pool.len())])
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
    let pick = |rng: &mut SmallRng, pool: &[NetId], count: usize| -> Vec<NetId> {
        (0..count)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect()
    };
    let mut last_addr: Option<Vec<NetId>> = None;
    for dout in bram_douts {
        let addr = match last_addr.take() {
            Some(shared) if rng.random_bool(0.6) => shared,
            _ => {
                let addr_bits = rng.random_range(2usize..=4);
                pick(rng, &pool, addr_bits)
            }
        };
        last_addr = Some(addr.clone());
        let addr_bits = addr.len();
        let depth = 1usize << addr_bits;
        // Memory words may be wider than the wired outputs: the unwired
        // high bits must never reach a neighbour in the packed read.
        let data_bits = dout.len() + rng.random_range(0usize..=2);
        let en = rng
            .random_bool(0.5)
            .then(|| pool[rng.random_range(0..pool.len())]);
        let init: Vec<u64> = (0..depth)
            .map(|_| rng.random_range(0..1u64 << data_bits))
            .collect();
        let write = rng.random_bool(0.3).then(|| BramWrite {
            addr: pick(rng, &pool, addr_bits),
            data: pick(rng, &pool, data_bits),
            we: pool[rng.random_range(0..pool.len())],
        });
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
            write,
        });
    }
    for i in 0..rng.random_range(1usize..=3) {
        n.add_output(format!("o{i}"), pool[rng.random_range(0..pool.len())]);
    }
    n
}

/// Random per-lane stimulus: `lanes` rows per cycle, one row per lane.
fn arb_stimulus(rng: &mut SmallRng, lanes: usize, cycles: usize, width: usize) -> Vec<Vec<Vec<bool>>> {
    (0..lanes)
        .map(|_| {
            (0..cycles)
                .map(|_| (0..width).map(|_| rng.random()).collect())
                .collect()
        })
        .collect()
}

/// Every lane of the kernel, driven by its own stimulus stream, matches
/// a scalar engine replaying that stream — every net value after every
/// clock, registered and pre-edge outputs alike — and the kernel's
/// aggregate `Activity` equals the per-lane scalar records summed.
#[test]
fn kernel_lanes_match_scalar_engines_cycle_for_cycle() {
    run_cases(32, |rng| {
        let netlist = arb_netlist(rng);
        let cycles = rng.random_range(3usize..=10);
        let width = netlist.inputs().len();
        let streams = arb_stimulus(rng, LANES, cycles, width);

        let mut batch = BatchSimulator::new(&netlist).expect("kernel accepts a valid netlist");
        let mut scalars: Vec<Simulator<'_>> = (0..LANES)
            .map(|_| Simulator::new(&netlist).expect("scalar engine accepts a valid netlist"))
            .collect();

        for cycle in 0..cycles {
            let rows: Vec<Vec<bool>> = (0..LANES).map(|l| streams[l][cycle].clone()).collect();
            batch.clock_words(&pack_rows(&rows, width));
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let outs = scalar.clock(&streams[lane][cycle]);
                assert_eq!(
                    outs,
                    batch.lane_outputs(lane),
                    "outputs diverged: lane {lane}, cycle {cycle}"
                );
                assert_eq!(
                    scalar.pre_edge_outputs(),
                    batch.lane_pre_edge_outputs(lane),
                    "pre-edge outputs diverged: lane {lane}, cycle {cycle}"
                );
                for i in 0..netlist.num_nets() {
                    let net = NetId(i as u32);
                    assert_eq!(
                        scalar.value(net),
                        batch.lane_value(net, lane),
                        "net {i} diverged: lane {lane}, cycle {cycle}"
                    );
                }
            }
        }

        // Aggregate activity: the kernel counts popcounts across all 64
        // active lanes, which must equal the 64 scalar records summed.
        let act = batch.activity();
        assert_eq!(act.cycles, (LANES * cycles) as u64, "cycle count");
        for i in 0..netlist.num_nets() {
            let summed: u64 = scalars.iter().map(|s| s.activity().toggles[i]).sum();
            assert_eq!(act.toggles[i], summed, "toggle count of net {i}");
        }
        for k in 0..act.bram_active_cycles.len() {
            let summed: u64 = scalars.iter().map(|s| s.activity().bram_active_cycles[k]).sum();
            assert_eq!(act.bram_active_cycles[k], summed, "bram_active_cycles[{k}]");
        }
        for k in 0..act.ff_active_cycles.len() {
            let summed: u64 = scalars.iter().map(|s| s.activity().ff_active_cycles[k]).sum();
            assert_eq!(act.ff_active_cycles[k], summed, "ff_active_cycles[{k}]");
        }
        for k in 0..act.bram_write_cycles.len() {
            let summed: u64 = scalars.iter().map(|s| s.activity().bram_write_cycles[k]).sum();
            assert_eq!(act.bram_write_cycles[k], summed, "bram_write_cycles[{k}]");
        }
    });
}

/// `run_sequential` (the power-flow path) is bit-identical to the scalar
/// engine's `run`: same values and the same `Activity` record, field for
/// field — toggles, cycles, BRAM enable/write counts, FF enable counts.
#[test]
fn run_sequential_matches_scalar_activity_exactly() {
    run_cases(32, |rng| {
        let netlist = arb_netlist(rng);
        let cycles = rng.random_range(5usize..=40);
        let width = netlist.inputs().len();
        let rows: Vec<Vec<bool>> = (0..cycles)
            .map(|_| (0..width).map(|_| rng.random()).collect())
            .collect();

        let mut batch = BatchSimulator::new(&netlist).expect("kernel accepts a valid netlist");
        batch.run_sequential(&rows);
        let mut scalar = Simulator::new(&netlist).expect("scalar engine accepts a valid netlist");
        scalar.run(rows.iter().cloned());

        for i in 0..netlist.num_nets() {
            let net = NetId(i as u32);
            assert_eq!(
                scalar.value(net),
                batch.lane_value(net, 0),
                "net {i} diverged after {cycles} cycles"
            );
        }
        let (a, b) = (scalar.activity(), batch.activity());
        assert_eq!(a.toggles, b.toggles, "toggles");
        assert_eq!(a.cycles, b.cycles, "cycles");
        assert_eq!(a.bram_active_cycles, b.bram_active_cycles, "bram enables");
        assert_eq!(a.ff_active_cycles, b.ff_active_cycles, "ff enables");
        assert_eq!(a.bram_write_cycles, b.bram_write_cycles, "bram writes");
    });
}

/// With no active lane the kernel skips its activity accounting: the
/// evolution is identical to a fully active kernel's net for net, and
/// the `Activity` record stays all-zero.
#[test]
fn inactive_kernel_matches_values_with_zero_activity() {
    run_cases(32, |rng| {
        let netlist = arb_netlist(rng);
        let cycles = rng.random_range(3usize..=10);
        let width = netlist.inputs().len();
        let mut counted = BatchSimulator::new(&netlist).expect("kernel accepts a valid netlist");
        let mut silent = counted.clone();
        silent.set_active(0);
        for cycle in 0..cycles {
            let words: Vec<u64> = (0..width).map(|_| rng.random()).collect();
            counted.clock_words(&words);
            silent.clock_words(&words);
            for i in 0..netlist.num_nets() {
                let net = NetId(i as u32);
                assert_eq!(counted.word(net), silent.word(net), "net {i}, cycle {cycle}");
            }
            assert_eq!(counted.pre_edge_words(), silent.pre_edge_words(), "cycle {cycle}");
        }
        let act = silent.activity();
        assert_eq!(act.cycles, 0, "cycles");
        assert!(act.toggles.iter().all(|&t| t == 0), "toggles");
        assert!(act.bram_active_cycles.iter().all(|&c| c == 0), "bram enables");
        assert!(act.ff_active_cycles.iter().all(|&c| c == 0), "ff enables");
        assert!(act.bram_write_cycles.iter().all(|&c| c == 0), "bram writes");
        assert_eq!(counted.activity().cycles, (LANES * cycles) as u64);
    });
}

/// The transposition layer is lossless: packing up to 64 rows into lane
/// words and unpacking them back returns the original rows, and the
/// word image is exactly the transposed bit matrix.
#[test]
fn transposition_round_trips() {
    run_cases(64, |rng| {
        let count = rng.random_range(0usize..=LANES);
        let width = rng.random_range(0usize..=8);
        let rows: Vec<Vec<bool>> = (0..count)
            .map(|_| (0..width).map(|_| rng.random()).collect())
            .collect();
        let words = pack_rows(&rows, width);
        assert_eq!(words.len(), width, "one word per input position");
        for (k, word) in words.iter().enumerate() {
            for (lane, row) in rows.iter().enumerate() {
                assert_eq!(
                    word >> lane & 1 == 1,
                    row[k],
                    "bit (lane {lane}, position {k})"
                );
            }
            // Lanes beyond `count` are zero: packing never smears state.
            if count < LANES {
                assert_eq!(word >> count, 0, "word {k} has bits above lane {count}");
            }
        }
        assert_eq!(unpack_rows(&words, count), rows, "round trip");
    });
}
