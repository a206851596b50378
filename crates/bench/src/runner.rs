//! Ordered, work-stealing parallel map for the experiment binaries.
//!
//! Every table, sweep and ablation binary maps one closure over its
//! items (benchmark names, sweep points, corpus machines). [`run`] gives
//! them:
//!
//! - **per-item panic isolation** — each item runs under `catch_unwind`
//!   (library code stays panic-free by construction; this is the
//!   last-resort fence),
//! - **placeholder rows** — an item whose closure returns an error or
//!   panics yields one `FAILED: <reason>` row instead of aborting the
//!   table,
//! - **work-stealing parallelism** — `threads` scoped workers claim items
//!   from a shared atomic cursor, and the results are reassembled in
//!   input order, so the emitted rows are identical whatever the thread
//!   count. With one thread the items are computed strictly in input
//!   order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The aggregate result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// All rows in item order; a failed item contributes one placeholder
    /// row (`[item, "FAILED: <error>", "", ...]` padded to the requested
    /// column count).
    pub rows: Vec<Vec<String>>,
    /// `(item, error)` for the items that failed, in input order.
    pub failures: Vec<(String, String)>,
}

/// Runs `f` over `items` on `threads` workers (0 counts as 1), each item
/// fenced by `catch_unwind`.
///
/// `placeholder_cols` is the table width of a failed item's placeholder
/// row. The rows are assembled in input order, so a parallel run's
/// output is identical to a sequential run's.
pub fn run<F>(threads: usize, items: &[String], placeholder_cols: usize, f: F) -> RunOutcome
where
    F: Fn(&str) -> Result<Vec<Vec<String>>, String> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut done = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(k) else {
                            return mine;
                        };
                        let result = catch_unwind(AssertUnwindSafe(|| f(item)))
                            .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&*p))));
                        mine.push((k, result));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect::<Vec<_>>()
    });
    // Every index was claimed exactly once, so sorting restores input order.
    done.sort_unstable_by_key(|&(k, _)| k);
    let mut out = RunOutcome {
        rows: Vec::new(),
        failures: Vec::new(),
    };
    for (item, (_, result)) in items.iter().zip(done) {
        match result {
            Ok(rows) => out.rows.extend(rows),
            Err(error) => {
                eprintln!("[runner] {item}: FAILED: {error}");
                let mut row = vec![item.clone(), format!("FAILED: {error}")];
                row.resize(placeholder_cols.max(2), String::new());
                out.rows.push(row);
                out.failures.push((item.clone(), error));
            }
        }
    }
    out
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolates_panics_and_emits_placeholder() {
        let items = vec![
            "good".to_string(),
            "bad".to_string(),
            "also-good".to_string(),
        ];
        let out = run(1, &items, 3, |item| {
            if item == "bad" {
                panic!("injected panic for {item}");
            }
            Ok(vec![vec![
                item.to_string(),
                "1".to_string(),
                "2".to_string(),
            ]])
        });
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0][0], "good");
        assert!(out.rows[1][1].contains("FAILED: panic: injected panic"));
        assert_eq!(out.rows[1].len(), 3);
        assert_eq!(out.rows[2][0], "also-good");
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].0, "bad");
    }
}
