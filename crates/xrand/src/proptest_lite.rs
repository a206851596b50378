//! Minimal seeded property-test harness.
//!
//! Replaces the external `proptest` dev-dependency with the three things
//! the workspace actually used: many seeded random cases per property,
//! a reproducible failure report, and knobs to re-run a single case.
//!
//! Each case gets its own [`SmallRng`] derived from a fixed base seed,
//! so runs are deterministic in CI. When a case fails (panics), the
//! harness prints the case seed and re-raises; re-run exactly that case
//! with the `SEED` environment variable.
//!
//! Environment overrides:
//!
//! * `CASES=<n>` — run `n` cases instead of the property's default;
//! * `SEED=<u64>` — run only the case with this seed (takes precedence
//!   over `CASES`).
//!
//! ```
//! use xrand::proptest_lite::run_cases;
//!
//! run_cases(32, |rng| {
//!     let x = rng.random_range(0u64..1000);
//!     assert!(x.checked_mul(2).is_some());
//! });
//! ```

use crate::{splitmix64, SmallRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base of the per-case seed stream. Arbitrary but fixed: hermetic CI
/// must see the same cases on every run.
const BASE_SEED: u64 = 0x0f5a_11ab_1e5e_ed00;

/// Runs `property` against `default_cases` independently seeded RNGs
/// (subject to the `CASES`/`SEED` environment overrides).
///
/// The property signals failure by panicking (plain `assert!` works).
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case seed.
pub fn run_cases<F>(default_cases: usize, property: F)
where
    F: Fn(&mut SmallRng),
{
    if let Some(seed) = env_number("SEED") {
        eprintln!("proptest_lite: SEED override — running single case {seed}");
        let mut rng = SmallRng::seed_from_u64(seed);
        property(&mut rng);
        return;
    }
    let cases = env_number("CASES").map_or(default_cases, |n| n as usize);
    let mut stream = BASE_SEED;
    for case in 0..cases {
        let case_seed = splitmix64(&mut stream);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = SmallRng::seed_from_u64(case_seed);
            property(&mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "proptest_lite: case {case}/{cases} FAILED with seed {case_seed}; \
                 re-run just this case with `SEED={case_seed} cargo test ...`"
            );
            resume_unwind(payload);
        }
    }
}

/// Runs a *sized* property: each case receives an RNG plus a size bound
/// (e.g. "number of states" or "pattern width") drawn as `max_size`.
///
/// On failure the harness shrinks by bounded re-generation: the failing
/// seed is replayed at sizes `1, 2, 4, …` up to the failing size, and the
/// smallest size that still fails is reported (and its panic re-raised).
/// Because generation is a pure function of `(seed, size)`, replaying at
/// a smaller size is a smaller — still deterministic — counterexample.
///
/// Environment overrides: `CASES` and `SEED` as in [`run_cases`], plus
/// `SIZE=<n>` to pin the size (useful together with `SEED` to re-run a
/// shrunk reproduction exactly).
///
/// # Panics
///
/// Re-raises the panic of the smallest failing replay after printing the
/// minimal `(seed, size)` reproduction.
pub fn run_sized_cases<F>(default_cases: usize, max_size: u32, property: F)
where
    F: Fn(&mut SmallRng, u32),
{
    let pinned_size = env_number("SIZE").map(|n| (n as u32).clamp(1, max_size.max(1)));
    if let Some(seed) = env_number("SEED") {
        let size = pinned_size.unwrap_or(max_size);
        eprintln!("proptest_lite: SEED override — running single case {seed} at size {size}");
        let mut rng = SmallRng::seed_from_u64(seed);
        property(&mut rng, size);
        return;
    }
    let cases = env_number("CASES").map_or(default_cases, |n| n as usize);
    let mut stream = BASE_SEED;
    for case in 0..cases {
        let case_seed = splitmix64(&mut stream);
        let size = pinned_size.unwrap_or(max_size);
        let attempt = |size: u32| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut rng = SmallRng::seed_from_u64(case_seed);
                property(&mut rng, size);
            }))
        };
        if let Err(payload) = attempt(size) {
            let (min_size, min_payload) = shrink_size(size, payload, &attempt);
            eprintln!(
                "proptest_lite: case {case}/{cases} FAILED with seed {case_seed}; \
                 smallest failing size {min_size} (started at {size}); re-run with \
                 `SEED={case_seed} SIZE={min_size} cargo test ...`"
            );
            resume_unwind(min_payload);
        }
    }
}

/// Replays the failing case at sizes `1, 2, 4, …` (strictly below
/// `failed_size`) and returns the smallest size that still fails along
/// with its panic payload. The probe count is bounded at
/// `log2(failed_size)` replays, so shrinking cannot loop.
fn shrink_size<A>(
    failed_size: u32,
    payload: Box<dyn std::any::Any + Send>,
    attempt: &A,
) -> (u32, Box<dyn std::any::Any + Send>)
where
    A: Fn(u32) -> std::thread::Result<()>,
{
    let mut probe = 1u32;
    while probe < failed_size {
        if let Err(smaller) = attempt(probe) {
            return (probe, smaller);
        }
        probe = probe.saturating_mul(2);
    }
    (failed_size, payload)
}

fn env_number(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("proptest_lite: ignoring unparsable {name}={raw:?}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_requested_number_of_cases() {
        let count = AtomicUsize::new(0);
        run_cases(17, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn cases_see_distinct_seeds() {
        let mut first_draws: Vec<u64> = Vec::new();
        let draws = std::sync::Mutex::new(&mut first_draws);
        run_cases(8, |rng| {
            draws.lock().unwrap().push(rng.next_u64());
        });
        let mut sorted = first_draws.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "every case gets a distinct stream");
    }

    #[test]
    fn failing_case_reports_and_repanics() {
        let result = catch_unwind(|| {
            run_cases(4, |rng| {
                let v = rng.random_range(0u64..100);
                // Force a failure on some case deterministically.
                assert!(v == u64::MAX, "intentional failure (v={v})");
            });
        });
        assert!(result.is_err(), "failure must propagate out of run_cases");
    }

    #[test]
    fn sized_cases_shrink_to_smallest_failing_size() {
        // Property fails whenever size >= 3: shrinking from 64 should
        // land on the probe size 4 (1 and 2 pass, 4 is the first probe
        // that fails).
        let sizes_tried = std::sync::Mutex::new(Vec::new());
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_sized_cases(1, 64, |_rng, size| {
                sizes_tried.lock().unwrap().push(size);
                assert!(size < 3, "fails at any size >= 3");
            });
        }));
        assert!(result.is_err(), "failing property must propagate");
        let tried = sizes_tried.lock().unwrap().clone();
        assert_eq!(
            tried,
            vec![64, 1, 2, 4],
            "shrink replays the seed at doubling sizes until one fails"
        );
    }

    #[test]
    fn sized_cases_pass_through_when_property_holds() {
        let count = AtomicUsize::new(0);
        run_sized_cases(9, 32, |_rng, size| {
            assert_eq!(size, 32);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn case_stream_is_deterministic_across_runs() {
        let collect = || {
            let mut seen: Vec<u64> = Vec::new();
            {
                let sink = std::sync::Mutex::new(&mut seen);
                run_cases(5, |rng| sink.lock().unwrap().push(rng.next_u64()));
            }
            seen
        };
        assert_eq!(collect(), collect());
    }
}
