//! The benchmark's private flow-cache store, and the guard on the
//! repository's own `results/cache/`.
//!
//! The flow cache reads its configuration once per process (a
//! `OnceLock`), so [`use_private_store`] must run before the first cache
//! call. Each workload state is then reached by deleting record files
//! and dropping the in-process layer between compiles.

use std::path::{Path, PathBuf};

/// The environment knobs that change what the flow computes or caches.
/// The benchmark refuses to run when any is set.
pub const AMBIENT_KNOBS: [&str; 6] = [
    "MAP_BACKEND",
    "PLACE_TIMING_WEIGHT",
    "PLACE_CRIT_EXP",
    "PLACE_RETIME_INTERVAL",
    "FLOW_CACHE",
    "FLOW_CACHE_MAX_BYTES",
];

/// Record-file prefix of overlay class bases (`ovlbase_<digest>.txt`).
const BASE_PREFIX: &str = "ovlbase_";

/// Names of the ambient knobs present in the environment.
pub fn ambient_knobs_set() -> Vec<&'static str> {
    AMBIENT_KNOBS
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Points the flow cache at `dir` (created empty). Must precede every
/// cache call in this process.
pub fn use_private_store(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("FLOW_CACHE_DIR", dir);
    Ok(())
}

fn records(dir: &Path) -> Vec<(PathBuf, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<(PathBuf, u64)> = entries
        .flatten()
        .filter_map(|e| {
            let len = e.metadata().ok()?.len();
            Some((e.path(), len))
        })
        .collect();
    out.sort();
    out
}

/// Empties both cache layers: the next compile is cold.
pub fn clear_all(dir: &Path) {
    emb_fsm::cache::reset_memory();
    for (path, _) in records(dir) {
        let _ = std::fs::remove_file(path);
    }
}

/// Empties both cache layers except the overlay class bases on disk.
pub fn clear_except_bases(dir: &Path) {
    emb_fsm::cache::reset_memory();
    for (path, _) in records(dir) {
        let is_base = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(BASE_PREFIX));
        if !is_base {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bytes of record files in the store.
pub fn bytes(dir: &Path) -> u64 {
    records(dir).iter().map(|(_, len)| len).sum()
}

/// Number of record files in the store.
pub fn count(dir: &Path) -> usize {
    records(dir).len()
}

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A content snapshot of a directory: every file's name, length and
/// content hash, or `None` when the directory does not exist.
pub fn snapshot(dir: &Path) -> Option<Vec<(String, u64, u64)>> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut out: Vec<(String, u64, u64)> = entries
        .flatten()
        .map(|e| {
            let bytes = std::fs::read(e.path()).unwrap_or_default();
            (
                e.file_name().to_string_lossy().into_owned(),
                bytes.len() as u64,
                fnv(&bytes),
            )
        })
        .collect();
    out.sort();
    Some(out)
}
