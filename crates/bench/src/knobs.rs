//! One typed config: every harness knob, parsed once, strictly.
//!
//! [`knobs`] parses the environment with [`Knobs::parse`] once per
//! process. A knob set to a malformed value is a [`KnobError`] naming the
//! knob, the value and the accepted form — never a silent fallback — and
//! [`knobs`] reports it and exits with code 2 before any flow runs. An
//! empty value counts as unset. Apart from the `fabric_selftest` test
//! bin, no other file of this crate reads the environment.
//!
//! Three groups stay outside this module:
//!
//! * `FLOW_CACHE_DIR` and `FLOW_CACHE_MAX_BYTES` belong to
//!   `emb_fsm::cache`, which cannot depend on this crate. `FLOW_CACHE_DIR`
//!   is also a handle: `corpus_stress`, `table_overlay` and the benchmark
//!   set it before the first cache call, and process-backend workers
//!   inherit it.
//! * `SEED`, `CASES` and `SIZE` tune `xrand::proptest_lite` in tests.
//! * `SELFTEST_*` drives the `fabric_selftest` test bin.

use crate::fabric::chaos::FaultPlan;
use crate::fabric::FabricTuning;
use crate::runner::Backend;
use emb_fsm::MapBackend;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Every knob this module reads, in README-table order.
pub const NAMES: [&str; 14] = [
    "RUNNER_THREADS",
    "RUNNER_BACKEND",
    "RUNNER_ITEM_TIMEOUT_MS",
    "RUNNER_HANDSHAKE_TIMEOUT_MS",
    "RUNNER_MAX_STRIKES",
    "RUNNER_BACKOFF_BASE_MS",
    "FABRIC_REQUEST_TIMEOUT_MS",
    "FABRIC_CHAOS_SEED",
    "FABRIC_CHAOS_HANDSHAKE_MS",
    "MAP_BACKEND",
    "CORPUS_PER_TIER",
    "BENCH_RESULTS_DIR",
    "TABLE3_COORDS",
    "TABLE3_FMAX",
];

/// What a timeout knob set to 0 ("none") stands for: one year, beyond
/// any run, yet a valid `Duration` for `recv_timeout` arithmetic.
const FOREVER: Duration = Duration::from_secs(365 * 24 * 60 * 60);

/// The resolved harness knobs.
#[derive(Debug)]
pub struct Knobs {
    /// `RUNNER_THREADS`: runner workers, at least 1 (default: available
    /// parallelism); 1 takes the exact sequential path.
    pub threads: usize,
    /// `RUNNER_BACKEND`: `threads` (default) or `process`.
    pub(crate) backend: Backend,
    /// The process backend's supervision (the other four `RUNNER_*`).
    pub(crate) supervision: FabricTuning,
    /// `FABRIC_REQUEST_TIMEOUT_MS`: the daemon's per-request deadline
    /// (default 120 s; 0 disables it).
    pub request_timeout: Duration,
    /// Wire faults in process-backend workers: `FABRIC_CHAOS_SEED` arms
    /// them, `FABRIC_CHAOS_HANDSHAKE_MS` (default 0) delays READY.
    pub(crate) chaos: Option<FaultPlan>,
    /// `MAP_BACKEND`: `direct` (default), `overlay` or `auto`.
    pub(crate) map_backend: MapBackend,
    /// `CORPUS_PER_TIER`: machines per corpus tier (default 125).
    pub corpus_per_tier: u64,
    /// `BENCH_RESULTS_DIR`: the harness JSON directory (default
    /// `results/`; relative to the workspace root).
    pub results_dir: PathBuf,
    /// `TABLE3_COORDS`: table3's coordinate-digest side file.
    pub table3_coords: Option<PathBuf>,
    /// `TABLE3_FMAX`: table3's fmax-estimate side file.
    pub table3_fmax: Option<PathBuf>,
}

/// A knob that is set to a value outside its accepted form.
#[derive(Debug)]
pub struct KnobError {
    /// The knob's name.
    pub name: &'static str,
    /// The value it was set to.
    pub value: String,
    /// The accepted form.
    pub expected: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let KnobError { name, value, .. } = self;
        write!(f, "{name}={value:?}: expected {}", self.expected)
    }
}

/// Number knobs' accepted form.
const NUMBER: &str = "a non-negative integer";

/// A variable lookup that treats an empty value as unset.
struct Lookup<F>(F);

impl<F: Fn(&str) -> Option<String>> Lookup<F> {
    fn raw(&self, name: &str) -> Option<String> {
        (self.0)(name).filter(|v| !v.trim().is_empty())
    }

    fn typed<T>(
        &self,
        name: &'static str,
        expected: &'static str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, KnobError> {
        self.raw(name)
            .map(|value| {
                parse(value.trim()).ok_or(KnobError {
                    name,
                    value,
                    expected,
                })
            })
            .transpose()
    }

    fn number(&self, name: &'static str, default: u64) -> Result<u64, KnobError> {
        let n = self.typed(name, NUMBER, |v| v.parse().ok())?;
        Ok(n.unwrap_or(default))
    }

    /// A millisecond deadline where 0 means none.
    fn deadline(&self, name: &'static str, default_ms: u64) -> Result<Duration, KnobError> {
        Ok(match self.number(name, default_ms)? {
            0 => FOREVER,
            ms => Duration::from_millis(ms),
        })
    }
}

impl Knobs {
    /// Builds the knobs from `get`, which returns a variable's value or
    /// `None` when it is unset.
    ///
    /// # Errors
    ///
    /// Returns the first knob whose value is malformed.
    pub fn parse(get: impl Fn(&str) -> Option<String>) -> Result<Knobs, KnobError> {
        let env = Lookup(get);
        let threads = env.typed("RUNNER_THREADS", NUMBER, |v| v.parse::<usize>().ok())?;
        let backend = env.typed("RUNNER_BACKEND", "threads or process", |v| match v {
            "threads" => Some(Backend::Threads),
            "process" => Some(Backend::Process),
            _ => None,
        })?;
        let handshake_delay = Duration::from_millis(env.number("FABRIC_CHAOS_HANDSHAKE_MS", 0)?);
        let chaos_seed = env.typed("FABRIC_CHAOS_SEED", NUMBER, |v| v.parse().ok())?;
        let map_backend = env.typed("MAP_BACKEND", "direct, overlay or auto", MapBackend::parse)?;
        Ok(Knobs {
            threads: threads.map_or_else(
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                |n| n.max(1),
            ),
            backend: backend.unwrap_or(Backend::Threads),
            supervision: FabricTuning {
                item_timeout: env.deadline("RUNNER_ITEM_TIMEOUT_MS", 300_000)?,
                handshake_timeout: Duration::from_millis(
                    env.number("RUNNER_HANDSHAKE_TIMEOUT_MS", 10_000)?.max(1),
                ),
                max_strikes: u32::try_from(env.number("RUNNER_MAX_STRIKES", 3)?)
                    .unwrap_or(u32::MAX)
                    .max(1),
                backoff_base_ms: env.number("RUNNER_BACKOFF_BASE_MS", 50)?,
            },
            request_timeout: env.deadline("FABRIC_REQUEST_TIMEOUT_MS", 120_000)?,
            chaos: chaos_seed.map(|seed| FaultPlan {
                handshake_delay,
                ..FaultPlan::new(seed)
            }),
            map_backend: map_backend.unwrap_or_default(),
            corpus_per_tier: env.number("CORPUS_PER_TIER", 125)?,
            // Joining an absolute path replaces the root.
            results_dir: workspace_root().join(
                env.raw("BENCH_RESULTS_DIR")
                    .unwrap_or_else(|| "results".into()),
            ),
            table3_coords: env.raw("TABLE3_COORDS").map(PathBuf::from),
            table3_fmax: env.raw("TABLE3_FMAX").map(PathBuf::from),
        })
    }
}

/// The knobs of this process, read from the environment on first use.
/// A malformed knob is reported on stderr and exits the process with
/// code 2.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        Knobs::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
            .unwrap_or_else(|e| {
                eprintln!("paper-bench: {e}");
                std::process::exit(2);
            })
    })
}

/// The workspace root (two levels above this crate's manifest).
#[must_use]
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        Knobs::parse(|name| {
            let found = pairs.iter().find(|(k, _)| *k == name);
            found.map(|(_, v)| (*v).to_string())
        })
    }

    /// Asserts that the `name = value` settings parse to knobs that
    /// `holds` accepts.
    macro_rules! check {
        ($($name:literal = $value:literal),+ => $holds:expr) => {
            let k = parse(&[$(($name, $value)),+]).unwrap_or_else(|e| panic!("{e}"));
            let holds: fn(&Knobs) -> bool = $holds;
            assert!(holds(&k), "{:?} parsed to {k:?}", [$(($name, $value)),+]);
        };
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for empty in [&[][..], &[("RUNNER_THREADS", " ")]] {
            let k = parse(empty).unwrap();
            assert_eq!((k.threads, k.backend), (cores, Backend::Threads));
            let s = &k.supervision;
            assert_eq!((s.item_timeout, s.max_strikes), (ms(300_000), 3));
            assert_eq!((s.handshake_timeout, s.backoff_base_ms), (ms(10_000), 50));
            assert_eq!(k.request_timeout, ms(120_000));
            assert!(k.chaos.is_none());
            assert_eq!(k.map_backend, MapBackend::Direct);
            assert_eq!(k.corpus_per_tier, 125);
            assert_eq!(k.results_dir, workspace_root().join("results"));
            assert_eq!((k.table3_coords, k.table3_fmax), (None, None));
        }
    }

    #[test]
    fn accepted_forms_and_clamps() {
        check!("RUNNER_THREADS" = " 4 " => |k| k.threads == 4);
        check!("RUNNER_THREADS" = "0" => |k| k.threads == 1);
        check!("RUNNER_BACKEND" = "process" => |k| k.backend == Backend::Process);
        check!("RUNNER_BACKEND" = "threads" => |k| k.backend == Backend::Threads);
        check!("RUNNER_ITEM_TIMEOUT_MS" = "250" => |k| k.supervision.item_timeout == ms(250));
        check!("RUNNER_ITEM_TIMEOUT_MS" = "0" => |k| k.supervision.item_timeout == FOREVER);
        check!("RUNNER_HANDSHAKE_TIMEOUT_MS" = "200" => |k| k.supervision.handshake_timeout
            == ms(200));
        check!("RUNNER_HANDSHAKE_TIMEOUT_MS" = "0" => |k| k.supervision.handshake_timeout == ms(1));
        check!("RUNNER_MAX_STRIKES" = "4" => |k| k.supervision.max_strikes == 4);
        check!("RUNNER_MAX_STRIKES" = "0" => |k| k.supervision.max_strikes == 1);
        check!("RUNNER_MAX_STRIKES" = "9999999999" => |k| k.supervision.max_strikes == u32::MAX);
        check!("RUNNER_BACKOFF_BASE_MS" = "0" => |k| k.supervision.backoff_base_ms == 0);
        check!("FABRIC_REQUEST_TIMEOUT_MS" = "1000" => |k| k.request_timeout == ms(1000));
        check!("FABRIC_REQUEST_TIMEOUT_MS" = "0" => |k| k.request_timeout == FOREVER);
        // The chaos plan exists only with a seed; the READY delay rides on it.
        check!("FABRIC_CHAOS_HANDSHAKE_MS" = "70" => |k| k.chaos.is_none());
        check!("FABRIC_CHAOS_SEED" = "5" => |k| k.chaos.as_ref().is_some_and(|p| p.seed == 5
            && p.handshake_delay.is_zero() && p.hang == ms(60_000)));
        check!("FABRIC_CHAOS_SEED" = "1", "FABRIC_CHAOS_HANDSHAKE_MS" = "70" => |k| k.chaos
            .as_ref().is_some_and(|p| p.handshake_delay == ms(70)));
        check!("MAP_BACKEND" = "direct" => |k| k.map_backend == MapBackend::Direct);
        check!("MAP_BACKEND" = "overlay" => |k| k.map_backend == MapBackend::Overlay);
        check!("MAP_BACKEND" = "auto" => |k| k.map_backend == MapBackend::Auto);
        check!("CORPUS_PER_TIER" = "0" => |k| k.corpus_per_tier == 0);
        check!("BENCH_RESULTS_DIR" = "target/x" => |k| k.results_dir
            == workspace_root().join("target/x"));
        check!("BENCH_RESULTS_DIR" = "/var/x" => |k| k.results_dir == std::path::Path::new("/var/x"));
        check!("TABLE3_COORDS" = "c.txt" => |k| k.table3_coords == Some("c.txt".into()));
        check!("TABLE3_FMAX" = "f.txt" => |k| k.table3_fmax == Some("f.txt".into()));
    }

    #[test]
    fn names_lists_exactly_the_knobs_parse_reads() {
        let asked = std::cell::RefCell::new(std::collections::BTreeSet::new());
        Knobs::parse(|name| {
            asked.borrow_mut().insert(name.to_string());
            None
        })
        .unwrap();
        assert_eq!(asked.into_inner(), NAMES.map(String::from).into());
    }

    #[test]
    fn a_malformed_value_names_its_knob() {
        let malformed = [
            ("RUNNER_THREADS", "abc"),
            ("RUNNER_BACKEND", "processes"),
            ("RUNNER_ITEM_TIMEOUT_MS", "-1"),
            ("RUNNER_HANDSHAKE_TIMEOUT_MS", "1.5"),
            ("RUNNER_MAX_STRIKES", "three"),
            ("RUNNER_BACKOFF_BASE_MS", "50ms"),
            ("FABRIC_REQUEST_TIMEOUT_MS", "soon"),
            ("FABRIC_CHAOS_SEED", "x5"),
            ("FABRIC_CHAOS_HANDSHAKE_MS", "-5"),
            ("MAP_BACKEND", "vliw"),
            ("CORPUS_PER_TIER", "many"),
        ];
        for (name, value) in malformed {
            let e = parse(&[(name, value)]).expect_err(name);
            assert_eq!((e.name, e.value.as_str()), (name, value));
            assert!(e.to_string().starts_with(name), "{e}");
        }
        // Any string is a path, so only the path knobs have no malformed form.
        let paths = ["BENCH_RESULTS_DIR", "TABLE3_COORDS", "TABLE3_FMAX"];
        let covered = |n: &&str| paths.contains(n) || malformed.iter().any(|(m, _)| m == n);
        assert!(NAMES.iter().all(covered));
    }

    #[test]
    fn the_readme_knob_table_lists_exactly_the_knobs_read() {
        let readme = include_str!("../../../README.md");
        let section = readme.split("### Environment knobs").nth(1);
        let section = section.and_then(|s| s.split("\n#").next()).unwrap();
        let mut rows: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let mut read = NAMES.to_vec();
        read.extend(["FLOW_CACHE_DIR", "FLOW_CACHE_MAX_BYTES"]);
        rows.sort_unstable();
        read.sort_unstable();
        assert_eq!(rows, read);
    }
}
