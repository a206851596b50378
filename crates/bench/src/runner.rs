//! Resilient, optionally parallel experiment runner.
//!
//! The table/sweep/ablation binaries used to run every benchmark inline:
//! one panic or flow failure blanked the whole table, and a killed run
//! lost all completed work. This module gives them:
//!
//! - **per-item panic isolation** — each work item runs under
//!   `catch_unwind` at the bin boundary (library code stays panic-free by
//!   construction; this is the last-resort fence),
//! - **bounded retry with deterministic reseeding** — a failing item is
//!   retried up to [`RunnerOptions::max_attempts`] times, each attempt
//!   passing its attempt index to the closure so it can derive a fresh
//!   seed deterministically (attempt 0 is always the canonical seed, so
//!   an uninterrupted run's output never depends on the retry machinery),
//! - **JSONL checkpointing** — every finished item is appended to
//!   `results/checkpoint_<label>.jsonl` and fsync'd, so a kill cannot
//!   lose buffered completed items; a killed run resumes from the
//!   checkpoint and re-emits the recorded rows byte-identically, and the
//!   file is removed once all items complete,
//! - **partial-result emission** — an item that fails every attempt
//!   yields a placeholder row instead of aborting the table,
//! - **work-stealing parallelism** — pending items are claimed from a
//!   shared atomic cursor by [`RunnerOptions::threads`] scoped worker
//!   threads (default: the `RUNNER_THREADS` knob, else the machine's
//!   available parallelism; see [`crate::knobs::Knobs`]). Results are
//!   reassembled in input order and checkpoint appends are serialized through a mutex,
//!   so the emitted rows are identical whatever the thread count.
//!   With one thread, the one worker claims items in input order, so
//!   items are computed and checkpointed strictly in input order.
//!
//! The checkpoint line format is a flat JSON object per line:
//!
//! ```json
//! {"item":"keyb","ok":true,"rows":[["keyb","1.23","4.56"]]}
//! {"item":"bbara","ok":false,"error":"place [pack]: ...","attempts":3}
//! ```

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for one resilient run.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Checkpoint label (becomes `checkpoint_<label>.jsonl`).
    pub label: String,
    /// Attempts per item before emitting a placeholder (≥ 1).
    pub max_attempts: u32,
    /// Directory the checkpoint lives in.
    pub checkpoint_dir: PathBuf,
    /// Worker threads (0 counts as 1); with 1, items are computed and
    /// checkpointed strictly in input order.
    pub threads: usize,
}

impl RunnerOptions {
    /// Options for the named experiment, checkpointing under the
    /// workspace `results/` directory, with the thread count of the
    /// `RUNNER_THREADS` knob.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        RunnerOptions {
            label: label.into(),
            max_attempts: 3,
            checkpoint_dir: crate::knobs::workspace_root().join("results"),
            threads: crate::knobs().threads,
        }
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.checkpoint_dir
            .join(format!("checkpoint_{}.jsonl", self.label))
    }
}

/// How one item ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome {
    /// The item produced its rows (possibly after retries).
    Ok(Vec<Vec<String>>),
    /// Every attempt failed; `error` is the last failure.
    Failed {
        /// Display of the last error (or panic payload).
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// The aggregate result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// All rows in item order; failed items contribute one placeholder
    /// row (`[item, "FAILED: <error>", "", ...]` padded to the requested
    /// column count).
    pub rows: Vec<Vec<String>>,
    /// `(item, error)` for items that failed every attempt.
    pub failures: Vec<(String, String)>,
    /// Items restored from the checkpoint instead of recomputed.
    pub resumed: usize,
    /// Items (in input order) whose results are in `rows` but whose
    /// checkpoint append failed (full disk, read-only results dir). The
    /// resume contract — "every item whose append returned is on disk" —
    /// stays honest: these items returned *without* an on-disk record,
    /// so a killed-and-resumed run would recompute exactly them.
    pub unpersisted: Vec<String>,
}

/// Serialized checkpoint appends shared by every worker thread,
/// degrading to in-memory outcomes (with a one-line warning and a typed
/// note) when the checkpoint cannot be written: a panic here would abort
/// the whole scoped-thread run — an experiment that cannot record
/// progress is still a better experiment than no experiment.
struct CheckpointSink<'a> {
    path: &'a Path,
    lock: Mutex<()>,
    warned: AtomicBool,
    unpersisted: Mutex<Vec<String>>,
}

impl<'a> CheckpointSink<'a> {
    fn new(path: &'a Path) -> Self {
        CheckpointSink {
            path,
            lock: Mutex::new(()),
            warned: AtomicBool::new(false),
            unpersisted: Mutex::new(Vec::new()),
        }
    }

    /// Appends one finished item, serialized against other workers.
    fn append(&self, item: &str, outcome: &ItemOutcome) {
        let _guard = lock_unpoisoned(&self.lock);
        if let Err(e) = append_checkpoint(self.path, item, outcome) {
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "[runner] warning: cannot record checkpoint {}: {e} — completed items stay in memory only; a killed run would recompute them",
                    self.path.display()
                );
            }
            lock_unpoisoned(&self.unpersisted).push(item.to_string());
        }
    }

    fn into_unpersisted(self) -> Vec<String> {
        self.unpersisted
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Runs `f` over `items` with isolation, retry, checkpointing, and
/// (when more than one thread is configured) work-stealing parallelism.
///
/// `f` is called as `f(item, attempt)` with `attempt` starting at 0; use
/// it to derive a retry seed (`cfg.seed + attempt`) so reruns are
/// deterministic. `placeholder_cols` is the table width used for failure
/// placeholder rows.
///
/// Whatever the worker count, the returned rows (and therefore every
/// table built from them) are assembled in input order, so a parallel
/// run's output is identical to a sequential run's. The checkpoint file
/// may record items in completion order under parallelism; resume keys
/// items by name, so a resumed run still re-emits rows byte-identically.
pub fn run<F>(opts: &RunnerOptions, items: &[String], placeholder_cols: usize, f: F) -> RunOutcome
where
    F: Fn(&str, u32) -> Result<Vec<Vec<String>>, String> + Sync,
{
    let started = Instant::now();
    let path = opts.checkpoint_path();
    let mut done: HashMap<String, ItemOutcome> = load_checkpoint(&path);
    if !done.is_empty() {
        eprintln!(
            "[runner] resuming {} finished item(s) from {}",
            done.len(),
            path.display()
        );
    }
    let resumed = done.len();

    // Work list: items the checkpoint does not already cover. A
    // duplicated item name is computed once per pending occurrence (the
    // pending list is positional).
    let pending: Vec<(usize, &String)> = items
        .iter()
        .enumerate()
        .filter(|(_, item)| !done.contains_key(*item))
        .collect();
    let threads = opts.threads.clamp(1, pending.len().max(1));

    // Work stealing: threads claim the next pending index from a shared
    // cursor, so a lone thread computes and checkpoints in input order;
    // checkpoint appends are serialized by a mutex so rows never
    // interleave mid-line.
    let sink = CheckpointSink::new(&path);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ItemOutcome>>> =
        (0..pending.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, item)) = pending.get(k) else {
                    break;
                };
                let o = run_one(item, opts.max_attempts, &f);
                sink.append(item, &o);
                *lock_unpoisoned(&slots[k]) = Some(o);
            });
        }
    });
    let mut computed: Vec<Option<ItemOutcome>> = (0..items.len()).map(|_| None).collect();
    for (&(idx, _), slot) in pending.iter().zip(slots) {
        computed[idx] = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    let unpersisted_set = sink.into_unpersisted();

    // Reassemble in input order, preferring checkpointed outcomes.
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        let outcome = match done.remove(item) {
            Some(o) => o,
            None => match computed[idx].take() {
                Some(o) => o,
                // A duplicate item name resolved from the checkpoint on
                // its first occurrence; recompute is unreachable in
                // practice (paper bins use unique items) but a duplicate
                // after resume lands here — rerun it inline.
                None => run_one(item, opts.max_attempts, &f),
            },
        };
        match outcome {
            ItemOutcome::Ok(item_rows) => rows.extend(item_rows),
            ItemOutcome::Failed { error, attempts } => {
                eprintln!("[runner] {item}: FAILED after {attempts} attempt(s): {error}");
                let mut row = vec![item.clone(), format!("FAILED: {error}")];
                row.resize(placeholder_cols.max(2), String::new());
                rows.push(row);
                failures.push((item.clone(), error));
            }
        }
    }
    // Report unpersisted items in input order (appends complete in
    // arbitrary order under parallelism).
    let unpersisted: Vec<String> = items
        .iter()
        .filter(|i| unpersisted_set.contains(i))
        .cloned()
        .collect();
    // All items accounted for: the checkpoint has served its purpose —
    // unless some items never made it to disk, in which case deleting it
    // is the right call anyway (every line it holds was re-emitted).
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "[runner] {}: {} item(s) ({} resumed) on {} thread(s) in {:.2?}",
        opts.label,
        items.len(),
        resumed,
        threads,
        started.elapsed()
    );
    RunOutcome {
        rows,
        failures,
        resumed,
        unpersisted,
    }
}

/// Locks a mutex, tolerating poisoning: a poisoned runner mutex only
/// means another worker panicked past its `catch_unwind` fence, and the
/// protected state (an appended line / a result slot) is always valid.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One item: bounded attempts, panics fenced at this boundary only.
fn run_one<F>(item: &str, max_attempts: u32, f: &F) -> ItemOutcome
where
    F: Fn(&str, u32) -> Result<Vec<Vec<String>>, String>,
{
    let mut last_error = String::new();
    for attempt in 0..max_attempts.max(1) {
        if attempt > 0 {
            eprintln!("[runner] {item}: retry {attempt} (reseeded)");
        }
        match catch_unwind(AssertUnwindSafe(|| f(item, attempt))) {
            Ok(Ok(rows)) => return ItemOutcome::Ok(rows),
            Ok(Err(e)) => last_error = e,
            Err(payload) => last_error = format!("panic: {}", panic_message(&*payload)),
        }
    }
    ItemOutcome::Failed {
        error: last_error,
        attempts: max_attempts.max(1),
    }
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

// --- checkpoint I/O ---------------------------------------------------

/// Loads finished items from a checkpoint, tolerating missing files and
/// skipping unparseable lines (those items are simply recomputed —
/// including a final line torn mid-append by a `kill -9`).
///
/// Lines are replayed in append (i.e. chronological) order, so the
/// latest record for an item wins. `ok:false` entries are dropped so
/// the items are re-attempted on resume: a
/// recorded failure may have been transient (a budget-exhausted attempt
/// right before the kill), and re-emitting it as a placeholder forever
/// would make one bad run sticky. `ok:true` entries always replay
/// byte-identically.
fn load_checkpoint(path: &Path) -> HashMap<String, ItemOutcome> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return HashMap::new();
    };
    let mut done = HashMap::new();
    for line in text.lines() {
        if let Some((item, outcome)) = parse_checkpoint_line(line) {
            if matches!(outcome, ItemOutcome::Failed { .. }) {
                done.remove(&item);
            } else {
                done.insert(item, outcome);
            }
        }
    }
    done
}

/// Appends one finished item to the checkpoint (created on first use).
///
/// The row is flushed **and fsync'd** before this returns `Ok`: a
/// `kill -9` right after an item completes can no longer lose it to OS
/// buffering — the resume contract is "every item whose append returned
/// *successfully* is on disk". An `Err` (full disk, read-only results
/// dir) means the item exists in memory only; [`CheckpointSink`] records
/// it in [`RunOutcome::unpersisted`] instead of aborting the run.
fn append_checkpoint(path: &Path, item: &str, outcome: &ItemOutcome) -> std::io::Result<()> {
    let line = checkpoint_line(item, outcome);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    file.flush()?;
    file.sync_data()
}

/// Renders one checkpoint line.
fn checkpoint_line(item: &str, outcome: &ItemOutcome) -> String {
    match outcome {
        ItemOutcome::Ok(rows) => {
            let rows_json: Vec<String> = rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!(
                "{{\"item\":{},\"ok\":true,\"rows\":[{}]}}",
                json_string(item),
                rows_json.join(",")
            )
        }
        ItemOutcome::Failed { error, attempts } => format!(
            "{{\"item\":{},\"ok\":false,\"error\":{},\"attempts\":{attempts}}}",
            json_string(item),
            json_string(error)
        ),
    }
}

/// JSON string literal with the escapes our cell contents can need.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one checkpoint line; `None` on any malformation.
fn parse_checkpoint_line(line: &str) -> Option<(String, ItemOutcome)> {
    let mut p = JsonCursor::new(line);
    p.expect('{')?;
    let mut item = None;
    let mut ok = None;
    let mut rows = None;
    let mut error = None;
    let mut attempts = 0u32;
    loop {
        let key = p.string()?;
        p.expect(':')?;
        match key.as_str() {
            "item" => item = Some(p.string()?),
            "ok" => ok = Some(p.boolean()?),
            "rows" => rows = Some(p.string_matrix()?),
            "error" => error = Some(p.string()?),
            "attempts" => attempts = p.number()?,
            _ => return None,
        }
        match p.next_non_ws()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    let item = item?;
    match ok? {
        true => Some((item, ItemOutcome::Ok(rows?))),
        false => Some((
            item,
            ItemOutcome::Failed {
                error: error?,
                attempts,
            },
        )),
    }
}

/// A minimal cursor over the JSON subset the checkpoint (and the daemon's
/// request lines) use.
pub(crate) struct JsonCursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> JsonCursor<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        JsonCursor {
            chars: s.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t')) {
            self.chars.next();
        }
    }

    pub(crate) fn next_non_ws(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.next()
    }

    fn expect(&mut self, want: char) -> Option<()> {
        (self.next_non_ws()? == want).then_some(())
    }

    pub(crate) fn string(&mut self) -> Option<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next()? {
                '"' => return Some(out),
                '\\' => match self.chars.next()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| self.chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }

    fn boolean(&mut self) -> Option<bool> {
        self.skip_ws();
        let mut word = String::new();
        while let Some(&c) = self.chars.peek() {
            if !c.is_ascii_alphabetic() {
                break;
            }
            word.push(c);
            self.chars.next();
        }
        match word.as_str() {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    pub(crate) fn number(&mut self) -> Option<u32> {
        self.skip_ws();
        let mut digits = String::new();
        while let Some(&c) = self.chars.peek() {
            if !c.is_ascii_digit() {
                break;
            }
            digits.push(c);
            self.chars.next();
        }
        digits.parse().ok()
    }

    /// Parses `[["a","b"],["c"]]`.
    fn string_matrix(&mut self) -> Option<Vec<Vec<String>>> {
        self.expect('[')?;
        let mut rows = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.chars.next();
            return Some(rows);
        }
        loop {
            self.expect('[')?;
            let mut row = Vec::new();
            self.skip_ws();
            if self.chars.peek() == Some(&']') {
                self.chars.next();
            } else {
                loop {
                    row.push(self.string()?);
                    match self.next_non_ws()? {
                        ',' => continue,
                        ']' => break,
                        _ => return None,
                    }
                }
            }
            rows.push(row);
            match self.next_non_ws()? {
                ',' => continue,
                ']' => return Some(rows),
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_opts(label: &str) -> RunnerOptions {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("test_runner_{label}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunnerOptions {
            label: label.to_string(),
            max_attempts: 3,
            checkpoint_dir: dir,
            threads: 1,
        }
    }

    #[test]
    fn checkpoint_line_roundtrips() {
        let outcome = ItemOutcome::Ok(vec![
            vec!["keyb".to_string(), "1.23\" \\ \n".to_string()],
            vec![],
        ]);
        let line = checkpoint_line("key\"b", &outcome);
        let (item, parsed) = parse_checkpoint_line(&line).unwrap();
        assert_eq!(item, "key\"b");
        assert_eq!(parsed, outcome);
        let fail = ItemOutcome::Failed {
            error: "boom: {x}".to_string(),
            attempts: 3,
        };
        let line = checkpoint_line("b", &fail);
        let (item, parsed) = parse_checkpoint_line(&line).unwrap();
        assert_eq!(item, "b");
        assert_eq!(parsed, fail);
        assert!(parse_checkpoint_line("{garbage").is_none());
        assert!(parse_checkpoint_line("").is_none());
    }

    #[test]
    fn isolates_panics_and_emits_placeholder() {
        let opts = temp_opts("panics");
        let items = vec![
            "good".to_string(),
            "bad".to_string(),
            "also-good".to_string(),
        ];
        let out = run(&opts, &items, 3, |item, _| {
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
        assert_eq!(out.rows[2][0], "also-good");
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].0, "bad");
        let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
    }

    #[test]
    fn retry_reseeds_then_succeeds() {
        let opts = temp_opts("retry");
        let items = vec!["flaky".to_string()];
        let calls = AtomicUsize::new(0);
        let out = run(&opts, &items, 2, |item, attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            if attempt < 2 {
                Err(format!("{item} failed attempt {attempt}"))
            } else {
                Ok(vec![vec![item.to_string(), format!("seed+{attempt}")]])
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(
            out.rows,
            vec![vec!["flaky".to_string(), "seed+2".to_string()]]
        );
        assert!(out.failures.is_empty());
        let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
    }

    #[test]
    fn killed_run_resumes_from_checkpoint_byte_identically() {
        let opts = temp_opts("resume");
        let items: Vec<String> = ["a", "b", "c"].iter().map(ToString::to_string).collect();
        let work = |item: &str, _attempt: u32| -> Result<Vec<Vec<String>>, String> {
            Ok(vec![
                vec![item.to_string(), format!("{item}-row1")],
                vec![item.to_string(), format!("{item}-row2")],
            ])
        };
        // Uninterrupted reference run.
        let reference = run(&opts, &items, 2, work);

        // Simulate a run killed after two items: re-create their
        // checkpoint lines, then rerun. The closure must not be invoked
        // for the checkpointed items.
        for item in &items[..2] {
            let rows = work(item, 0).unwrap();
            append_checkpoint(&opts.checkpoint_path(), item, &ItemOutcome::Ok(rows)).unwrap();
        }
        let recomputed = AtomicUsize::new(0);
        let resumed = run(&opts, &items, 2, |item, attempt| {
            recomputed.fetch_add(1, Ordering::SeqCst);
            assert_eq!(item, "c", "checkpointed items must not rerun");
            work(item, attempt)
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
        assert_eq!(resumed.resumed, 2);
        assert_eq!(
            resumed.rows, reference.rows,
            "resume must be byte-identical"
        );
        // The checkpoint is cleaned up after a complete run.
        assert!(!opts.checkpoint_path().exists());
        let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
    }

    #[test]
    fn failed_checkpoint_entries_rerun_on_resume_by_default() {
        // A transient failure recorded right before a kill must be
        // re-attempted on resume, not re-emitted as a placeholder forever.
        let opts = temp_opts("refail");
        let items: Vec<String> = ["a", "b"].iter().map(ToString::to_string).collect();
        append_checkpoint(
            &opts.checkpoint_path(),
            "a",
            &ItemOutcome::Ok(vec![vec!["a".to_string(), "row".to_string()]]),
        )
        .unwrap();
        append_checkpoint(
            &opts.checkpoint_path(),
            "b",
            &ItemOutcome::Failed {
                error: "transient: budget exhausted".to_string(),
                attempts: 3,
            },
        )
        .unwrap();
        let recomputed = AtomicUsize::new(0);
        let out = run(&opts, &items, 2, |item, _| {
            recomputed.fetch_add(1, Ordering::SeqCst);
            assert_eq!(item, "b", "only the failed entry may rerun");
            Ok(vec![vec![item.to_string(), "recovered".to_string()]])
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
        assert_eq!(out.resumed, 1, "only the ok entry resumes");
        assert!(out.failures.is_empty(), "the retry succeeded");
        assert_eq!(out.rows[1], vec!["b".to_string(), "recovered".to_string()]);
        let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
    }

    #[test]
    fn torn_final_checkpoint_line_recomputes_exactly_that_item() {
        // Simulated kill -9 mid-append: the last line is truncated. Resume
        // must replay the intact lines byte-identically and recompute
        // exactly the torn item.
        let opts = temp_opts("torn");
        let items: Vec<String> = ["a", "b", "c"].iter().map(ToString::to_string).collect();
        let work = |item: &str, _attempt: u32| -> Result<Vec<Vec<String>>, String> {
            Ok(vec![vec![item.to_string(), format!("{item}-row")]])
        };
        let reference = run(&opts, &items, 2, work);
        // Rebuild the checkpoint: a, b complete; c torn mid-append.
        for item in &items[..2] {
            append_checkpoint(
                &opts.checkpoint_path(),
                item,
                &ItemOutcome::Ok(work(item, 0).unwrap()),
            )
            .unwrap();
        }
        let full = checkpoint_line("c", &ItemOutcome::Ok(work("c", 0).unwrap()));
        let torn = &full[..full.len() / 2];
        {
            use std::io::Write as _;
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .open(opts.checkpoint_path())
                .unwrap();
            write!(fh, "{torn}").unwrap(); // no newline: append died here
        }
        let recomputed = AtomicUsize::new(0);
        let resumed = run(&opts, &items, 2, |item, attempt| {
            recomputed.fetch_add(1, Ordering::SeqCst);
            assert_eq!(item, "c", "only the torn item may recompute");
            work(item, attempt)
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
        assert_eq!(resumed.resumed, 2);
        assert_eq!(resumed.rows, reference.rows, "torn resume not identical");
        let _ = std::fs::remove_dir_all(&opts.checkpoint_dir);
    }

    #[test]
    fn unwritable_checkpoint_degrades_to_memory_with_typed_note() {
        // Pre-fix behavior was panic!("cannot record checkpoint ...") —
        // fatal to a scoped-thread run and to a daemon. Now the run
        // completes and reports which items were never persisted.
        let base = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("test_runner_unwritable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        // A *file* where the checkpoint dir should be: create_dir_all and
        // every append fail with NotADirectory, even when running as root
        // (unlike permission bits, which root ignores).
        std::fs::write(base.join("blocker"), b"not a directory").unwrap();
        let opts = RunnerOptions {
            label: "unwritable".to_string(),
            max_attempts: 1,
            checkpoint_dir: base.join("blocker").join("sub"),
            threads: 1,
        };
        let items: Vec<String> = ["a", "b"].iter().map(ToString::to_string).collect();
        let out = run(&opts, &items, 2, |item, _| {
            Ok(vec![vec![item.to_string(), "v".to_string()]])
        });
        assert_eq!(out.rows.len(), 2, "run must complete without checkpoints");
        assert!(out.failures.is_empty());
        assert_eq!(
            out.unpersisted, items,
            "every completed-but-unwritten item must be reported"
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
