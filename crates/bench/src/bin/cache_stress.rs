//! Multi-process flow-cache stress driver: one writer/reader process of
//! the N that the `cache_stress` integration test runs concurrently
//! against a single tiny-budget `FLOW_CACHE_DIR`.
//!
//! ```text
//! cache_stress <seed> <iterations>
//! ```
//!
//! Each iteration publishes a placement under a key unique to
//! (seed, iteration), publishes under a small set of *shared* keys every
//! process fights over, and reloads earlier keys — so with
//! `FLOW_CACHE_MAX_BYTES` set, every process is simultaneously a writer,
//! an mtime-refreshing reader, and an evictor of the same store. The
//! memory layer is dropped each iteration to force the disk paths.
//! Prints `ok` and exits 0 when its iterations complete without a panic;
//! the store staying within budget is asserted by the test, not here.

use fpga_fabric::device::Device;
use fpga_fabric::place::{BudgetOutcome, PlaceOptions, Placement};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());
    let iterations: u64 = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage());

    let device = Device::xc2v250();
    let placement = synthetic_placement(&device);
    let mut keys = Vec::new();
    for i in 0..iterations {
        emb_fsm::cache::reset_memory();
        // A key nobody else publishes: unique netlist bytes.
        let unique = format!("stress-{seed}-{i}");
        let key = emb_fsm::cache::place_key(unique.as_bytes(), &device, PlaceOptions::default());
        emb_fsm::cache::store_placement(&key, &placement);
        keys.push(key);
        // A contended key: every process stores and loads these, so
        // publishes race publishes and loads race the evictor.
        let shared = format!("shared-{}", i % 7);
        let key = emb_fsm::cache::place_key(shared.as_bytes(), &device, PlaceOptions::default());
        emb_fsm::cache::store_placement(&key, &placement);
        let _ = emb_fsm::cache::load_placement(&key);
        // Reload an older key: usually evicted by now under a tiny
        // budget — a miss is fine, a panic is the bug.
        if let Some(old) = keys.get(keys.len().saturating_sub(5)) {
            let _ = emb_fsm::cache::load_placement(old);
        }
    }
    println!("ok");
}

/// A small but non-trivial placement (~30 CLBs) so records have enough
/// bytes that a few of them overflow a tiny budget.
fn synthetic_placement(device: &Device) -> Placement {
    Placement {
        device: *device,
        clb_loc: (0..30).map(|i| (i % 8, i / 8)).collect(),
        bram_loc: vec![(0, 9)],
        iob_loc: (0..6).map(|i| (i, 10)).collect(),
        hpwl: 123.5,
        hpwl_sq: 1890.25,
        moves: 4096,
        budget: BudgetOutcome::Completed,
    }
}

fn usage() -> ! {
    eprintln!("usage: cache_stress <seed> <iterations>");
    std::process::exit(2);
}
