//! One typed config: every harness knob, parsed once, strictly.
//!
//! [`knobs`] parses the environment with [`Knobs::parse`] once per
//! process. A knob set to a malformed value is a [`KnobError`] naming the
//! knob, the value and the accepted form — never a silent fallback — and
//! [`knobs`] reports it and exits with code 2 before any flow runs. An
//! empty value counts as unset. No other file of this crate reads the
//! environment.
//!
//! Two groups stay outside this module:
//!
//! * `FLOW_CACHE_DIR` and `FLOW_CACHE_MAX_BYTES` belong to
//!   `emb_fsm::cache`, which cannot depend on this crate. `FLOW_CACHE_DIR`
//!   is also a handle: `corpus_stress`, `table_overlay` and the benchmark
//!   set it before the first cache call.
//! * `SEED`, `CASES` and `SIZE` tune `xrand::proptest_lite` in tests.

use emb_fsm::MapBackend;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Every knob this module reads, in README-table order.
pub const NAMES: [&str; 6] = [
    "RUNNER_THREADS",
    "MAP_BACKEND",
    "CORPUS_PER_TIER",
    "BENCH_RESULTS_DIR",
    "TABLE3_COORDS",
    "TABLE3_FMAX",
];

/// The resolved harness knobs.
#[derive(Debug)]
pub struct Knobs {
    /// `RUNNER_THREADS`: runner workers, at least 1 (default: available
    /// parallelism); 1 computes items strictly in input order.
    pub threads: usize,
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
        let map_backend = env.typed("MAP_BACKEND", "direct, overlay or auto", MapBackend::parse)?;
        Ok(Knobs {
            threads: threads.map_or_else(
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
                |n| n.max(1),
            ),
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

    /// Asserts that the `name = value` setting parses to knobs that
    /// `holds` accepts.
    macro_rules! check {
        ($name:literal = $value:literal => $holds:expr) => {
            let k = parse(&[($name, $value)]).unwrap_or_else(|e| panic!("{e}"));
            let holds: fn(&Knobs) -> bool = $holds;
            assert!(holds(&k), "{}={:?} parsed to {k:?}", $name, $value);
        };
    }

    #[test]
    fn unset_knobs_take_their_defaults() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        for empty in [&[][..], &[("RUNNER_THREADS", " ")]] {
            let k = parse(empty).unwrap();
            assert_eq!(k.threads, cores);
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
