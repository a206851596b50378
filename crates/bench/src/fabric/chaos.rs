//! Seeded wire-level fault injection for the worker protocol.
//!
//! Mirrors `emb_fsm::faultinject`'s campaign style — a typed fault
//! enum, a seed, deterministic per-target fault selection — but aims at
//! a different layer: not the mapped netlist, the *wire protocol*
//! between the process-backend coordinator and its workers. A
//! [`FaultPlan`] wraps the worker's RESULT delivery (and READY
//! handshake) and injects the failure modes a real fleet sees from a
//! sick host: hangs, mid-line kills, torn writes, garbage lines,
//! slow-dripping output, and early EOF.
//!
//! Activation is environment-gated (`FABRIC_CHAOS_SEED`), so production
//! workers never pay for it; the chaos campaign in
//! `tests/chaos_campaign.rs` and the verify.sh chaos gate set the seed
//! and assert the supervised coordinator still emits byte-identical
//! tables.
//!
//! Determinism contract: the fault for an item depends only on
//! `(seed, item)` — every respawned worker draws the *same* fault for
//! the same item. That makes the campaign reproducible and exercises
//! the worst case: a fault that follows the item across respawns until
//! the coordinator's per-item attempts are exhausted and it falls back
//! inline (where no wire exists to fault).

use std::io::Write;
use std::time::Duration;

/// FNV-1a 64-bit hash — the stable, dependency-free way to turn item
/// names and labels into seed material.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One injectable wire fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver the result normally.
    None,
    /// Sleep "forever" (the plan's hang duration) before writing — the
    /// stuck-anneal / blocked-pipe case the per-item deadline exists for.
    Hang,
    /// Write half the result line, flush, and abort the process — a
    /// crash mid-write, leaving a torn protocol line on the pipe.
    MidLineKill,
    /// Write the line in two flushed halves with a pause between — a
    /// torn-but-complete write the coordinator must reassemble.
    TornWrite,
    /// Emit garbage (chatter, a sentinel-lookalike, or raw non-UTF-8
    /// bytes) before the real line.
    GarbageLine,
    /// Drip the line a few bytes at a time with flushes and sleeps — a
    /// worker on a congested or throttled transport.
    SlowDrip,
    /// Exit cleanly without answering — the coordinator sees EOF where
    /// a result was due.
    EarlyEof,
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            WireFault::None => "none",
            WireFault::Hang => "hang",
            WireFault::MidLineKill => "mid-line-kill",
            WireFault::TornWrite => "torn-write",
            WireFault::GarbageLine => "garbage-line",
            WireFault::SlowDrip => "slow-drip",
            WireFault::EarlyEof => "early-eof",
        };
        f.write_str(name)
    }
}

/// A seeded plan mapping protocol moments to injected faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Campaign seed; combined with the item name per delivery.
    pub seed: u64,
    /// How long a [`WireFault::Hang`] sleeps (default 600 s — far past
    /// any test deadline, so a hang is never "accidentally survived").
    pub hang: Duration,
    /// Delay injected before the READY handshake line (default zero).
    pub handshake_delay: Duration,
}

impl FaultPlan {
    /// A plan with the default hang duration and no handshake delay.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            hang: Duration::from_millis(600_000),
            handshake_delay: Duration::ZERO,
        }
    }

    /// Builds the plan from the environment: `None` unless
    /// `FABRIC_CHAOS_SEED` is set to a number. `FABRIC_CHAOS_HANG_MS`
    /// and `FABRIC_CHAOS_HANDSHAKE_MS` tune the two durations.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let seed: u64 = std::env::var("FABRIC_CHAOS_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())?;
        let mut plan = FaultPlan::new(seed);
        if let Some(ms) = std::env::var("FABRIC_CHAOS_HANG_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
        {
            plan.hang = Duration::from_millis(ms);
        }
        if let Some(ms) = std::env::var("FABRIC_CHAOS_HANDSHAKE_MS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
        {
            plan.handshake_delay = Duration::from_millis(ms);
        }
        Some(plan)
    }

    /// The fault this plan injects when delivering `item`'s result.
    /// Deterministic in `(seed, item)` — respawned workers redraw the
    /// same fault. Weights: 28% clean, 12% hang, 12% mid-line kill,
    /// 12% torn write, 14% garbage, 14% slow drip, 8% early EOF.
    #[must_use]
    pub fn fault_for(&self, item: &str) -> WireFault {
        let mut state = self.seed ^ fnv1a(item.as_bytes());
        match xrand::splitmix64(&mut state) % 100 {
            0..=27 => WireFault::None,
            28..=39 => WireFault::Hang,
            40..=51 => WireFault::MidLineKill,
            52..=63 => WireFault::TornWrite,
            64..=77 => WireFault::GarbageLine,
            78..=91 => WireFault::SlowDrip,
            _ => WireFault::EarlyEof,
        }
    }

    /// Sleeps the configured handshake delay (used by the worker loop
    /// right before it writes READY, to exercise the handshake
    /// deadline).
    pub fn stall_handshake(&self) {
        if !self.handshake_delay.is_zero() {
            std::thread::sleep(self.handshake_delay);
        }
    }

    /// Delivers `line` (newline appended) to `out` under the fault drawn
    /// for `item`. [`WireFault::MidLineKill`] aborts and
    /// [`WireFault::EarlyEof`] exits — they do not return.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error (the worker loop treats it
    /// as "coordinator gone" and exits cleanly).
    pub fn deliver(&self, out: &mut dyn Write, line: &str, item: &str) -> std::io::Result<()> {
        let fault = self.fault_for(item);
        eprintln!("[chaos] {fault} for '{item}'");
        match fault {
            WireFault::None => {
                writeln!(out, "{line}")?;
                out.flush()
            }
            WireFault::Hang => {
                std::thread::sleep(self.hang);
                writeln!(out, "{line}")?;
                out.flush()
            }
            WireFault::MidLineKill => {
                let half = line.len() / 2;
                // Write on the byte level: the split point may not be a
                // char boundary, and a real crash doesn't care.
                out.write_all(&line.as_bytes()[..half])?;
                out.flush()?;
                std::process::abort();
            }
            WireFault::TornWrite => {
                let half = line.len() / 2;
                out.write_all(&line.as_bytes()[..half])?;
                out.flush()?;
                std::thread::sleep(Duration::from_millis(10));
                out.write_all(&line.as_bytes()[half..])?;
                out.write_all(b"\n")?;
                out.flush()
            }
            WireFault::GarbageLine => {
                let mut state = self.seed ^ fnv1a(item.as_bytes()) ^ 0x9e37;
                match xrand::splitmix64(&mut state) % 3 {
                    0 => writeln!(out, "stray diagnostic chatter from the harness")?,
                    // A sentinel-lookalike that parses as no checkpoint
                    // line — the coordinator must reject it, not panic.
                    1 => writeln!(out, "RUNNER-WORKER RESULT {{\"torn\":")?,
                    _ => {
                        out.write_all(&[0xff, 0xfe, 0x80, 0x00, 0xc3, 0x28])?;
                        out.write_all(b"\n")?;
                    }
                }
                out.flush()?;
                writeln!(out, "{line}")?;
                out.flush()
            }
            WireFault::SlowDrip => {
                let bytes = line.as_bytes();
                for chunk in bytes.chunks(5) {
                    out.write_all(chunk)?;
                    out.flush()?;
                    std::thread::sleep(Duration::from_millis(1));
                }
                out.write_all(b"\n")?;
                out.flush()
            }
            WireFault::EarlyEof => {
                out.flush()?;
                std::process::exit(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_selection_is_deterministic_and_covers_every_variant() {
        let plan = FaultPlan::new(11);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..200 {
            let item = format!("case-{i:03}");
            let a = plan.fault_for(&item);
            assert_eq!(
                a,
                plan.fault_for(&item),
                "same (seed, item) must redraw identically"
            );
            seen.insert(a.to_string());
        }
        assert_eq!(
            seen.len(),
            7,
            "200 items must draw every fault variant, got {seen:?}"
        );
        // A different seed reshuffles (the campaign relies on seeds
        // exploring different fault assignments).
        let other = FaultPlan::new(12);
        assert!(
            (0..200).any(|i| {
                let item = format!("case-{i:03}");
                plan.fault_for(&item) != other.fault_for(&item)
            }),
            "seeds 11 and 12 assign identical faults everywhere"
        );
    }

    #[test]
    fn deliver_survivable_faults_end_with_the_real_line_on_the_wire() {
        // Every fault that returns (doesn't abort/exit) must leave the
        // full protocol line, newline-terminated, at the end of the
        // stream — that's what makes byte identity under chaos possible.
        let plan = FaultPlan {
            seed: 3,
            hang: Duration::from_millis(1), // keep the test fast
            handshake_delay: Duration::ZERO,
        };
        let line = "RUNNER-WORKER RESULT {\"item\":\"x\",\"ok\":true,\"rows\":[[\"x\",\"1\"]]}";
        for i in 0..400 {
            let item = format!("probe-{i}");
            let fault = plan.fault_for(&item);
            if matches!(fault, WireFault::MidLineKill | WireFault::EarlyEof) {
                continue; // process-terminating: covered by the campaign
            }
            let mut sink: Vec<u8> = Vec::new();
            plan.deliver(&mut sink, line, &item).unwrap();
            let text = String::from_utf8_lossy(&sink);
            let last = text.lines().last().unwrap_or_default();
            assert_eq!(last, line, "fault {fault} corrupted the final line");
            assert!(sink.ends_with(b"\n"), "fault {fault} dropped the newline");
        }
    }

    #[test]
    fn env_gating_requires_a_numeric_seed() {
        // from_env reads the live environment; this test only asserts
        // the inactive default in the test harness (no FABRIC_CHAOS_SEED
        // set) so unit tests never race an env mutation.
        if std::env::var_os("FABRIC_CHAOS_SEED").is_none() {
            assert!(FaultPlan::from_env().is_none());
        }
    }

    #[test]
    fn verify_gate_seed_keeps_the_campaign_fast_enough() {
        // The verify.sh chaos gate runs table1's nine benchmarks under
        // FABRIC_CHAOS_SEED=5 with a 5 s item deadline. Pin the fault mix
        // for that seed: at most 2 of the 9 items may hang (each hang
        // costs one deadline), so the gate stays well under a minute.
        let plan = FaultPlan::new(5);
        let names = [
            "bbara", "bbsse", "cse", "dk14", "keyb", "planet", "s1", "sand", "styr",
        ];
        let hangs = names
            .iter()
            .filter(|n| plan.fault_for(n) == WireFault::Hang)
            .count();
        assert!(
            hangs <= 2,
            "seed 5 hangs {hangs} of 9 benchmarks; pick another gate seed"
        );
    }
}
