//! Property-based differential tests for the bit-parallel simulation
//! kernel: on randomly generated netlists (LUT DAGs, enabled FFs, up to
//! three BRAMs with and without enables, some sharing one read-address
//! vector, some with no wired data output, or a bank of 4–12 narrow BRAMs
//! on one address), every lane of
//! [`romfsm::sim::kernel::BatchSimulator`] must agree with an independent
//! scalar [`oracle::Simulator`] (the test-only reference engine) cycle for
//! cycle — net values, outputs, and every `Activity` counter — a scalar
//! run's state transplanted into one lane must resume there exactly, a
//! per-lane BRAM fault must behave as the corrupted netlist copy does, and
//! the row/word transposition layer must round-trip exactly.
//!
//! Runs on the in-workspace `xrand::proptest_lite` harness (hermetic, no
//! registry deps). Failures print the case seed; re-run one case with
//! `SEED=<seed> cargo test --test prop_kernel`.

use oracle::Simulator;
use romfsm::emb::faultinject::{corrupt_netlist, NetlistFault};
use romfsm::fpga::device::BramShape;
use romfsm::fpga::netlist::{Cell, NetId, Netlist};
use romfsm::sim::kernel::{pack_rows, BatchSimulator, LANES};
use xrand::proptest_lite::run_cases;
use xrand::SmallRng;

/// A random valid netlist: primary inputs feeding an acyclic LUT DAG,
/// optional enabled FFs, up to three BRAMs (with or without an enable,
/// sometimes with no wired data output; later BRAMs often reuse an earlier
/// BRAM's read-address vector, so the kernel's shared per-address-group
/// gather is exercised; wide words make a group's data bits overflow one
/// 64-bit pack), and an optional constant driver. Every structural
/// feature the kernel models shows up with fair probability.
fn arb_netlist(rng: &mut SmallRng) -> Netlist {
    let bank = rng.random_bool(0.2);
    arb_netlist_shaped(rng, bank)
}

/// [`arb_netlist`]; with `bank`, its BRAMs are a bank of 4–12 narrow
/// (1–2 bit) BRAMs on one read-address vector, with mixed enables — the
/// shape of an overlay base or a series cascade, whose members all share
/// one read pack. The first member's words are wider than its wired
/// outputs, so the bank always holds an unwired data bit.
fn arb_netlist_shaped(rng: &mut SmallRng, bank: bool) -> Netlist {
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
    let num_brams = if bank {
        rng.random_range(4usize..=12)
    } else if rng.random_bool(0.6) {
        rng.random_range(1usize..=3)
    } else {
        0
    };
    let bram_douts: Vec<Vec<NetId>> = (0..num_brams)
        .map(|b| {
            // Mostly narrow words; sometimes wide ones (two or three wide
            // BRAMs on one address vector exceed one 64-bit pack), and
            // sometimes none at all (a BRAM whose outputs are unused).
            let w = match rng.random_range(0u32..8) {
                _ if bank => rng.random_range(1usize..=2),
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
    for (b, dout) in bram_douts.into_iter().enumerate() {
        let addr = match last_addr.take() {
            Some(shared) if bank || rng.random_bool(0.6) => shared,
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
        let unwired = usize::from(bank && b == 0);
        let data_bits = dout.len() + rng.random_range(unwired..=2);
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

/// Random per-lane stimulus: `lanes` rows per cycle, one row per lane.
fn arb_stimulus(
    rng: &mut SmallRng,
    lanes: usize,
    cycles: usize,
    width: usize,
) -> Vec<Vec<Vec<bool>>> {
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
            let rows: Vec<Vec<bool>> = streams.iter().map(|s| s[cycle].clone()).collect();
            batch.clock_words(&pack_rows(&rows, width));
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                let outs = scalar.clock(&rows[lane]);
                assert_eq!(
                    outs,
                    batch.lane_outputs(lane),
                    "outputs diverged: lane {lane}, cycle {cycle}"
                );
                let pre_edge: Vec<bool> = batch
                    .pre_edge_words()
                    .iter()
                    .map(|w| w >> lane & 1 == 1)
                    .collect();
                assert_eq!(
                    scalar.pre_edge_outputs(),
                    pre_edge,
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
            let summed: u64 = scalars
                .iter()
                .map(|s| s.activity().bram_active_cycles[k])
                .sum();
            assert_eq!(act.bram_active_cycles[k], summed, "bram_active_cycles[{k}]");
        }
        for k in 0..act.ff_active_cycles.len() {
            let summed: u64 = scalars
                .iter()
                .map(|s| s.activity().ff_active_cycles[k])
                .sum();
            assert_eq!(act.ff_active_cycles[k], summed, "ff_active_cycles[{k}]");
        }
    });
}

/// `run_sequential` (the power-flow path) is bit-identical to the scalar
/// engine's `run`: same values and the same `Activity` record, field for
/// field — toggles, cycles, BRAM enable counts, FF enable counts.
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
    });
}

/// The word-level state port round-trips, and resumes a scalar run: a
/// scalar engine's state after a few cycles, loaded into one lane through
/// `set_seq_words`, clocks on there exactly as the scalar engine does,
/// while lane 0, left at reset, clocks on as a fresh scalar engine does.
#[test]
fn seq_words_transplant_resumes_a_scalar_run() {
    run_cases(32, |rng| {
        let netlist = arb_netlist(rng);
        let width = netlist.inputs().len();
        let lane = rng.random_range(1..LANES);
        let cycles = rng.random_range(1usize..=6);
        let mut rows = arb_stimulus(rng, 1, cycles, width).remove(0);
        let last = rows.pop().expect("at least one vector");
        let mut fresh = Simulator::new(&netlist).expect("scalar engine accepts a valid netlist");
        let mut scalar = fresh.clone();
        scalar.run(rows);

        let mut batch = BatchSimulator::new(&netlist).expect("kernel accepts a valid netlist");
        let mut words = vec![0u64; batch.seq_nets().len()];
        batch.seq_words(&mut words);
        for (w, net) in words.iter_mut().zip(batch.seq_nets()) {
            *w = (*w & !(1 << lane)) | u64::from(scalar.value(*net)) << lane;
        }
        batch.set_seq_words(&words);
        let mut round_trip = vec![0u64; words.len()];
        batch.seq_words(&mut round_trip);
        assert_eq!(round_trip, words, "state port round trip");

        let idle = vec![false; width];
        let mut per_lane = vec![idle.clone(); LANES];
        per_lane[lane].clone_from(&last);
        batch.clock_words(&pack_rows(&per_lane, width));
        assert_eq!(batch.lane_outputs(lane), scalar.clock(&last), "resumed");
        assert_eq!(batch.lane_outputs(0), fresh.clock(&idle), "reset lane");
        for i in 0..netlist.num_nets() {
            let net = NetId(i as u32);
            assert_eq!(batch.lane_value(net, lane), scalar.value(net), "net {i}");
        }
    });
}

/// Per-lane BRAM faults: each lane of one kernel, its memory flipped
/// through `flip_lane_bram_init`, runs exactly as a scalar engine on the
/// corrupted netlist copy does, lane for lane and net for net, while lane
/// 0 stays clean. On a bank netlist, lane 1 flips a wired bit of one
/// member of the shared pack and lane 2 a data bit with no wired output;
/// the other lanes take the BRAM faults `corrupt_netlist` picks.
#[test]
fn per_lane_bram_faults_match_scalar_runs_of_corrupted_copies() {
    run_cases(24, |rng| {
        let netlist = arb_netlist_shaped(rng, true);
        let brams: Vec<(usize, BramShape, usize)> = (0..netlist.cells().len())
            .filter_map(|c| match &netlist.cells()[c] {
                Cell::Bram { shape, dout, .. } => Some((c, *shape, dout.len())),
                _ => None,
            })
            .collect();
        // (cell, word, bit) per faulted lane, from lane 1 on.
        let mut faults: Vec<(usize, usize, u32)> = Vec::new();
        let (cell, shape, wired) = brams[rng.random_range(0..brams.len())];
        let word = rng.random_range(0..shape.depth());
        faults.push((cell, word, rng.random_range(0..wired) as u32));
        let (cell, shape, wired) = brams[0];
        let word = rng.random_range(0..shape.depth());
        faults.push((cell, word, rng.random_range(wired..shape.data_bits) as u32));
        let mut copies: Vec<Netlist> = faults
            .iter()
            .map(|&(cell, word, bit)| {
                let mut init = match &netlist.cells()[cell] {
                    Cell::Bram { init, .. } => init.clone(),
                    _ => unreachable!("faults target BRAMs"),
                };
                init[word] ^= 1 << bit;
                let mut copy = netlist.clone();
                copy.replace_bram_init(cell, init).expect("same depth");
                copy
            })
            .collect();
        while faults.len() < LANES - 1 {
            if let Some((copy, NetlistFault::FlipBramInitBit { cell, word, bit })) =
                corrupt_netlist(&netlist, rng.random())
            {
                faults.push((cell, word, bit));
                copies.push(copy);
            }
        }

        let mut batch = BatchSimulator::new(&netlist).expect("kernel accepts a valid netlist");
        let mut scalars = vec![Simulator::new(&netlist).expect("scalar engine accepts it")];
        for (lane, (&(cell, word, bit), copy)) in faults.iter().zip(&copies).enumerate() {
            batch
                .flip_lane_bram_init(cell, lane + 1, word, bit)
                .expect("fault in range");
            scalars.push(Simulator::new(copy).expect("scalar engine accepts the copy"));
        }
        let width = netlist.inputs().len();
        let cycles = rng.random_range(3usize..=10);
        let streams = arb_stimulus(rng, LANES, cycles, width);
        for cycle in 0..cycles {
            let rows: Vec<Vec<bool>> = streams.iter().map(|s| s[cycle].clone()).collect();
            batch.clock_words(&pack_rows(&rows, width));
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar.clock(&rows[lane]);
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
                assert_eq!(
                    counted.word(net),
                    silent.word(net),
                    "net {i}, cycle {cycle}"
                );
            }
            assert_eq!(
                counted.pre_edge_words(),
                silent.pre_edge_words(),
                "cycle {cycle}"
            );
        }
        let act = silent.activity();
        assert_eq!(act.cycles, 0, "cycles");
        assert!(act.toggles.iter().all(|&t| t == 0), "toggles");
        assert!(
            act.bram_active_cycles.iter().all(|&c| c == 0),
            "bram enables"
        );
        assert!(act.ff_active_cycles.iter().all(|&c| c == 0), "ff enables");
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
        let unpacked: Vec<Vec<bool>> = (0..count)
            .map(|lane| words.iter().map(|w| w >> lane & 1 == 1).collect())
            .collect();
        assert_eq!(unpacked, rows, "round trip");
    });
}
