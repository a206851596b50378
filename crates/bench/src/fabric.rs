//! Multi-process flow fabric: worker processes and the mapping daemon.
//!
//! Two layers sit on top of [`crate::runner`]'s `run()` entry point:
//!
//! **Process backend** (`RUNNER_BACKEND=process`). The coordinator — the
//! ordinary harness binary — spawns `--worker <label>` re-invocations of
//! *itself* (`std::env::current_exe()`), one per configured worker. A
//! worker re-executes `main` until it reaches the `run()` call whose
//! label matches its `--worker` argument, then serves items from stdin
//! instead of computing the item list: the coordinator writes one
//! JSON-encoded item name per line, the worker answers each with a
//! sentinel-prefixed checkpoint line on stdout, and EOF on stdin is the
//! shutdown signal. The closure `f` exists in the worker because the
//! worker *is* the same binary — no serialization of work, only of item
//! names and row results.
//!
//! Contract with the other backends:
//!
//! * **byte identity** — rows come back through the same
//!   `ItemOutcome`/checkpoint-line codec, are reassembled in input order
//!   by the coordinator, and every worker computes attempt 0 with the
//!   canonical seed, so the emitted table is identical whatever the
//!   worker count (the serial-vs-parallel gate in `scripts/verify.sh`
//!   extends verbatim to this backend);
//! * **checkpointing** — only the coordinator appends to the checkpoint
//!   file (through the same serialized, fsync'd sink as the thread
//!   backend), so resume semantics and line sets are unchanged and
//!   worker processes never contend on the file;
//! * **crash isolation** — a worker that dies (abort, OOM-kill,
//!   `kill -9`) costs exactly its in-flight item: the coordinator
//!   respawns a worker and resubmits, and after
//!   `PROCESS_ATTEMPTS_PER_ITEM` consecutive process deaths on the
//!   same item falls back to computing it inline under `catch_unwind`
//!   (so even an unspawnable environment still completes the run);
//! * **shared store** — workers inherit `FLOW_CACHE_DIR`, so all
//!   processes share the content-addressed on-disk artifact store; the
//!   concurrent-process hardening in `emb_fsm::cache` (re-stat before
//!   evict, ENOENT-safe refresh, atomic publishes) is what makes that
//!   safe.
//!
//! **Daemon mode** ([`serve`], the `fabric_daemon` bin). A long-running
//! service that accepts mapping requests over a Unix socket: one JSON
//! request line per connection, one JSON response line back. Admission
//! control bounds concurrently *running* mapping requests
//! ([`DaemonOptions::max_inflight`]); a request over the bound gets a
//! typed `{"ok":false,"kind":"overloaded"}` reject immediately
//! (backpressure the client can see) instead of queueing without bound.
//! Repeated requests amortize warm flow-cache hits — the response
//! carries the per-request cache delta and a `warm` flag so callers (and
//! the verify.sh smoke gate) can observe it. Control commands (`ping`,
//! `stats`, `shutdown`) bypass admission so the daemon stays steerable
//! under load.

pub mod chaos;

use crate::runner::{
    checkpoint_line, json_string, parse_checkpoint_line, run_one, CheckpointSink, ItemOutcome,
    JsonCursor, RunnerOptions,
};
use std::fmt;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Protocol sentinel prefixing every line a worker writes for the
/// coordinator. Anything else on the worker's stdout (a stray `println!`
/// from an unrelated part of the harness binary) is ignored, so the
/// protocol survives bins that print between `run()` calls.
const SENTINEL: &str = "RUNNER-WORKER";

/// Distinct worker *processes* tried per item before the coordinator
/// computes it inline. Process attempts are orthogonal to
/// [`RunnerOptions::max_attempts`]: each submission runs the full
/// bounded-retry loop inside whichever process executes it.
const PROCESS_ATTEMPTS_PER_ITEM: u32 = 2;

/// Effectively-infinite deadline used when a timeout knob is set to 0
/// ("disabled"): one year, far beyond any run, yet still a valid
/// `Duration` for `recv_timeout` arithmetic.
const FOREVER: Duration = Duration::from_secs(365 * 24 * 60 * 60);

// --- supervision types ------------------------------------------------

/// Coordinator-side supervision knobs for the process backend, read once
/// per run from the environment.
#[derive(Debug, Clone)]
pub(crate) struct FabricTuning {
    /// Deadline for one submitted item (`RUNNER_ITEM_TIMEOUT_MS`,
    /// default 300000 ms; 0 disables the deadline).
    pub(crate) item_timeout: Duration,
    /// Deadline for a fresh worker's READY handshake
    /// (`RUNNER_HANDSHAKE_TIMEOUT_MS`, default 10000 ms).
    pub(crate) handshake_timeout: Duration,
    /// Consecutive strikes (timeouts/deaths with no intervening success)
    /// before a worker slot is quarantined (`RUNNER_MAX_STRIKES`,
    /// default 3, minimum 1).
    pub(crate) max_strikes: u32,
    /// Base respawn backoff in milliseconds (`RUNNER_BACKOFF_BASE_MS`,
    /// default 50); doubled per strike, capped at 2 s, plus jitter.
    pub(crate) backoff_base_ms: u64,
}

/// Reads a millisecond knob from the environment, tolerating junk.
fn env_ms(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

impl FabricTuning {
    pub(crate) fn from_env() -> Self {
        let item_ms = env_ms("RUNNER_ITEM_TIMEOUT_MS", 300_000);
        FabricTuning {
            item_timeout: if item_ms == 0 {
                FOREVER
            } else {
                Duration::from_millis(item_ms)
            },
            handshake_timeout: Duration::from_millis(
                env_ms("RUNNER_HANDSHAKE_TIMEOUT_MS", 10_000).max(1),
            ),
            max_strikes: u32::try_from(env_ms("RUNNER_MAX_STRIKES", 3))
                .unwrap_or(u32::MAX)
                .max(1),
            backoff_base_ms: env_ms("RUNNER_BACKOFF_BASE_MS", 50),
        }
    }
}

/// One supervision event recorded by the process-backend coordinator.
/// The full event list rides in [`FabricHealth::events`] so callers can
/// distinguish "clean run" from "completed, but only after the
/// supervisor killed a hung worker".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricEvent {
    /// An item blew the per-item deadline; the worker on `slot` was
    /// presumed hung and killed.
    ItemTimeout {
        /// The item that was in flight when the deadline passed.
        item: String,
        /// The coordinator slot whose worker was killed.
        slot: usize,
        /// The deadline that was exceeded, in milliseconds.
        timeout_ms: u64,
    },
    /// A freshly spawned worker missed the READY handshake deadline.
    HandshakeTimeout {
        /// The coordinator slot whose spawn was abandoned.
        slot: usize,
    },
    /// A replacement worker is about to be spawned after a strike, once
    /// the backoff expires.
    Respawn {
        /// The slot being respawned.
        slot: usize,
        /// Consecutive strike count that triggered this respawn.
        strike: u32,
        /// Backoff slept before the respawn, in milliseconds.
        backoff_ms: u64,
    },
    /// The slot exhausted its strikes; items it claims from now on are
    /// computed inline by the coordinator instead.
    Quarantine {
        /// The quarantined slot.
        slot: usize,
        /// Consecutive strikes accumulated when quarantine triggered.
        strikes: u32,
    },
}

impl fmt::Display for FabricEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricEvent::ItemTimeout {
                item,
                slot,
                timeout_ms,
            } => write!(
                f,
                "slot {slot}: item '{item}' exceeded {timeout_ms} ms; worker killed"
            ),
            FabricEvent::HandshakeTimeout { slot } => {
                write!(f, "slot {slot}: worker missed the READY handshake deadline")
            }
            FabricEvent::Respawn {
                slot,
                strike,
                backoff_ms,
            } => write!(
                f,
                "slot {slot}: respawning after strike {strike} (backoff {backoff_ms} ms)"
            ),
            FabricEvent::Quarantine { slot, strikes } => write!(
                f,
                "slot {slot}: quarantined after {strikes} consecutive strike(s); falling back inline"
            ),
        }
    }
}

/// Aggregate supervision health of one run, carried on
/// `RunOutcome::health`. A clean run (no timeouts, no respawns, no
/// quarantines) has empty `events` and zeroed counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricHealth {
    /// Item + handshake deadline expiries.
    pub timeouts: u64,
    /// Workers respawned after a strike.
    pub respawns: u64,
    /// Worker slots quarantined after exhausting their strikes.
    pub quarantined: u64,
    /// The full event stream, in the order the coordinator recorded it.
    pub events: Vec<FabricEvent>,
}

impl FabricHealth {
    /// Folds an event stream into counters.
    #[must_use]
    pub fn from_events(events: Vec<FabricEvent>) -> Self {
        let mut health = FabricHealth {
            events,
            ..FabricHealth::default()
        };
        for e in &health.events {
            match e {
                FabricEvent::ItemTimeout { .. } | FabricEvent::HandshakeTimeout { .. } => {
                    health.timeouts += 1;
                }
                FabricEvent::Respawn { .. } => health.respawns += 1,
                FabricEvent::Quarantine { .. } => health.quarantined += 1,
            }
        }
        health
    }

    /// `true` when the run needed no supervisor intervention.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }
}

// --- worker side ------------------------------------------------------

/// The label this process was spawned to serve, when it is a `--worker`
/// re-invocation of a harness binary; `None` in ordinary processes.
#[must_use]
pub fn worker_invocation_label() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--worker" {
            return args.next();
        }
    }
    None
}

/// Serves items from stdin until EOF, then exits the process (a worker
/// must never fall through to the harness binary's table-printing code —
/// its stdout is the protocol channel).
///
/// Wire format: the coordinator sends one JSON string (the item name)
/// per line; the worker answers `RUNNER-WORKER RESULT <checkpoint-line>`
/// and flushes. Item panics are fenced inside [`run_one`] exactly as in
/// the other backends; only an abort-class death (the thing this backend
/// exists to isolate) ends the process early.
pub(crate) fn worker_loop<F>(opts: &RunnerOptions, f: &F) -> !
where
    F: Fn(&str, u32) -> Result<Vec<Vec<String>>, String> + Sync,
{
    // Wire-fault injection is a no-op unless FABRIC_CHAOS_SEED is set
    // (the chaos campaign sets it; production workers never see it).
    let plan = chaos::FaultPlan::from_env();
    let stdout = std::io::stdout();
    {
        if let Some(p) = &plan {
            p.stall_handshake();
        }
        let mut out = stdout.lock();
        let ok = writeln!(out, "{SENTINEL} READY {}", json_string(&opts.label))
            .and_then(|()| out.flush());
        if ok.is_err() {
            std::process::exit(0); // coordinator already gone
        }
    }
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => std::process::exit(0), // EOF: clean shutdown
            Ok(_) => {}
        }
        let Some(item) = JsonCursor::new(line.trim()).string() else {
            // Protocol violation: refuse to guess what the coordinator
            // meant; exiting surfaces as a dead worker on its side.
            std::process::exit(2);
        };
        let outcome = run_one(&item, opts.max_attempts, f);
        let payload = format!("{SENTINEL} RESULT {}", checkpoint_line(&item, &outcome));
        let mut out = stdout.lock();
        let ok = match &plan {
            Some(p) => p.deliver(&mut out, &payload, &item),
            None => writeln!(out, "{payload}").and_then(|()| out.flush()),
        };
        if ok.is_err() {
            std::process::exit(0);
        }
    }
}

// --- coordinator side -------------------------------------------------

/// Why a submission to (or handshake with) a worker failed.
enum SubmitError {
    /// The deadline passed with no parseable result; the worker is
    /// presumed hung and must be killed, not reaped gracefully.
    Timeout,
    /// The worker's stdout closed, errored, or produced unrecoverable
    /// garbage; the process is dead or useless.
    Died(String),
}

/// One spawned worker process. Its stdout is drained by a dedicated
/// reader thread into a channel, which is what lets the coordinator
/// impose deadlines on protocol reads (`recv_timeout`) without
/// platform-specific non-blocking pipe I/O.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<std::io::Result<String>>,
    reader: std::thread::JoinHandle<()>,
}

impl Worker {
    /// Spawns a `--worker <label>` re-invocation of the current binary
    /// and waits (at most `handshake_timeout`) for its READY handshake.
    /// A missed handshake surfaces as `ErrorKind::TimedOut` so the
    /// caller can record it as a distinct supervision event.
    fn spawn(label: &str, handshake_timeout: Duration) -> std::io::Result<Worker> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("--worker")
            .arg(label)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit()) // retry/diagnostic lines stay visible
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take();
        let (Some(stdin), Some(stdout)) = (stdin, stdout) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("worker pipes unavailable"));
        };
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match out.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        if tx.send(Ok(line)).is_err() {
                            break; // coordinator dropped the worker
                        }
                    }
                    Err(e) => {
                        // Includes invalid-UTF-8 garbage on the pipe: the
                        // coordinator sees it as a dead worker.
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        let mut worker = Worker {
            child,
            stdin,
            lines,
            reader,
        };
        let ready = format!("{SENTINEL} READY {}", json_string(label));
        match worker.recv_protocol_line(&ready, "", Instant::now() + handshake_timeout) {
            Ok(_) => Ok(worker),
            Err(SubmitError::Timeout) => {
                worker.dispose(true);
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "worker missed the READY handshake deadline",
                ))
            }
            Err(SubmitError::Died(why)) => {
                worker.dispose(true);
                Err(std::io::Error::other(why))
            }
        }
    }

    /// Receives stdout lines until one equals `exact` or starts with
    /// `prefix` (when non-empty), ignoring non-protocol chatter. Returns
    /// `Timeout` once `deadline` passes — chatter keeps being consumed
    /// until then, so a slow-dripping worker cannot stall the
    /// coordinator past the deadline.
    fn recv_protocol_line(
        &mut self,
        exact: &str,
        prefix: &str,
        deadline: Instant,
    ) -> Result<String, SubmitError> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(SubmitError::Timeout);
            }
            match self.lines.recv_timeout(left) {
                Ok(Ok(line)) => {
                    let t = line.trim_end();
                    if t == exact {
                        return Ok(t.to_string());
                    }
                    if !prefix.is_empty() {
                        if let Some(rest) = t.strip_prefix(prefix) {
                            return Ok(rest.to_string());
                        }
                    }
                    // Non-protocol chatter: keep reading.
                }
                Ok(Err(e)) => return Err(SubmitError::Died(format!("worker stdout error: {e}"))),
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(SubmitError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(SubmitError::Died("worker exited".to_string()))
                }
            }
        }
    }

    /// Submits one item and waits at most `timeout` for its outcome.
    fn submit(&mut self, item: &str, timeout: Duration) -> Result<ItemOutcome, SubmitError> {
        let sent = writeln!(self.stdin, "{}", json_string(item)).and_then(|()| self.stdin.flush());
        if let Err(e) = sent {
            return Err(SubmitError::Died(format!("worker stdin closed: {e}")));
        }
        let deadline = Instant::now() + timeout;
        let result_prefix = format!("{SENTINEL} RESULT ");
        loop {
            let rest = self.recv_protocol_line("", &result_prefix, deadline)?;
            let Some((got_item, outcome)) = parse_checkpoint_line(&rest) else {
                return Err(SubmitError::Died("unparseable worker result".to_string()));
            };
            if got_item == item {
                return Ok(outcome);
            }
            // A result for some other item (e.g. a stale line after a
            // protocol hiccup): keep reading for ours.
        }
    }

    /// Reaps the worker. `kill` forces termination first (the path for
    /// hung or garbage-spewing workers); otherwise dropping stdin is the
    /// EOF shutdown signal and the worker exits on its own. Either way
    /// the reader thread drains to pipe EOF and is joined.
    fn dispose(self, kill: bool) {
        let Worker {
            mut child,
            stdin,
            lines,
            reader,
        } = self;
        if kill {
            let _ = child.kill();
        }
        drop(stdin);
        let _ = child.wait();
        drop(lines);
        let _ = reader.join();
    }
}

/// Supervision state for one coordinator slot: the worker it currently
/// fields, its consecutive-strike count, and whether it has been
/// quarantined. State machine per DESIGN.md §13:
/// running → timed-out/died → respawning(backoff) → running, and after
/// `max_strikes` consecutive failures → quarantined (inline fallback).
struct SlotSupervisor<'a> {
    slot: usize,
    label: &'a str,
    tuning: &'a FabricTuning,
    events: &'a Mutex<Vec<FabricEvent>>,
    worker: Option<Worker>,
    strikes: u32,
    quarantined: bool,
}

impl<'a> SlotSupervisor<'a> {
    fn new(
        slot: usize,
        label: &'a str,
        tuning: &'a FabricTuning,
        events: &'a Mutex<Vec<FabricEvent>>,
    ) -> Self {
        SlotSupervisor {
            slot,
            label,
            tuning,
            events,
            worker: None,
            strikes: 0,
            quarantined: false,
        }
    }

    fn record(&self, event: FabricEvent) {
        eprintln!("[fabric] {}: {event}", self.label);
        lock_unpoisoned(self.events).push(event);
    }

    /// One failure on this slot: count a consecutive strike, then either
    /// quarantine (strikes ≥ max) or back off before the next spawn.
    fn strike(&mut self) {
        self.strikes += 1;
        if self.strikes >= self.tuning.max_strikes {
            self.quarantined = true;
            self.record(FabricEvent::Quarantine {
                slot: self.slot,
                strikes: self.strikes,
            });
        } else {
            let backoff_ms = backoff_with_jitter(
                self.tuning.backoff_base_ms,
                self.strikes,
                self.label,
                self.slot,
            );
            self.record(FabricEvent::Respawn {
                slot: self.slot,
                strike: self.strikes,
                backoff_ms,
            });
            std::thread::sleep(Duration::from_millis(backoff_ms));
        }
    }

    /// Ensures `self.worker` holds a live worker, spawning one inside
    /// the handshake deadline if needed. A missed handshake strikes; an
    /// unspawnable environment (no current_exe, fork failure) quarantines
    /// immediately — retrying a spawn that cannot succeed per item would
    /// only slow the inline fallback down.
    fn ensure_worker(&mut self) {
        if self.worker.is_some() || self.quarantined {
            return;
        }
        match Worker::spawn(self.label, self.tuning.handshake_timeout) {
            Ok(w) => self.worker = Some(w),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                self.record(FabricEvent::HandshakeTimeout { slot: self.slot });
                self.strike();
            }
            Err(e) => {
                eprintln!(
                    "[runner] {}: cannot spawn worker process ({e}); computing inline",
                    self.label
                );
                self.quarantined = true;
            }
        }
    }

    /// Tries the item on up to [`PROCESS_ATTEMPTS_PER_ITEM`] worker
    /// processes under the per-item deadline. `None` means process
    /// isolation is exhausted (or the slot is quarantined) and the
    /// caller must compute inline.
    fn submit_item(&mut self, item: &str) -> Option<ItemOutcome> {
        for _ in 0..PROCESS_ATTEMPTS_PER_ITEM {
            if self.quarantined {
                return None;
            }
            self.ensure_worker();
            let timeout = self.tuning.item_timeout;
            let result = match self.worker.as_mut() {
                None => continue, // spawn failed; strike already counted
                Some(w) => w.submit(item, timeout),
            };
            match result {
                Ok(o) => {
                    self.strikes = 0; // strikes are consecutive, not cumulative
                    return Some(o);
                }
                Err(SubmitError::Timeout) => {
                    self.record(FabricEvent::ItemTimeout {
                        item: item.to_string(),
                        slot: self.slot,
                        timeout_ms: u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX),
                    });
                    if let Some(hung) = self.worker.take() {
                        hung.dispose(true);
                    }
                    self.strike();
                }
                Err(SubmitError::Died(why)) => {
                    eprintln!(
                        "[runner] {}: worker died on '{item}' ({why}); supervising",
                        self.label
                    );
                    if let Some(dead) = self.worker.take() {
                        dead.dispose(true);
                    }
                    self.strike();
                }
            }
        }
        None
    }
}

/// Exponential backoff (base · 2^(strike−1), capped at 2 s) plus a
/// deterministic jitter drawn from the (label, slot, strike) triple, so
/// striking slots never thunder in lockstep yet reruns stay
/// reproducible.
fn backoff_with_jitter(base_ms: u64, strike: u32, label: &str, slot: usize) -> u64 {
    let exp = base_ms
        .saturating_mul(1_u64 << strike.saturating_sub(1).min(10))
        .min(2_000);
    let mut state = chaos::fnv1a(label.as_bytes()) ^ ((slot as u64) << 32) ^ u64::from(strike);
    exp + xrand::splitmix64(&mut state) % (exp / 2).max(1)
}

/// Runs the pending items on `workers` supervised worker slots, writing
/// results through the coordinator's checkpoint sink and supervision
/// events into `events`. Returns outcomes aligned with `pending`. See
/// the module docs for the contract.
pub(crate) fn run_pending_in_workers<F>(
    opts: &RunnerOptions,
    sink: &CheckpointSink<'_>,
    pending: &[(usize, &String)],
    workers: usize,
    events: &Mutex<Vec<FabricEvent>>,
    f: &F,
) -> Vec<Option<ItemOutcome>>
where
    F: Fn(&str, u32) -> Result<Vec<Vec<String>>, String> + Sync,
{
    let tuning = FabricTuning::from_env();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ItemOutcome>>> =
        (0..pending.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let slots = &slots;
        let tuning = &tuning;
        for slot in 0..workers {
            scope.spawn(move || {
                let mut sup = SlotSupervisor::new(slot, &opts.label, tuning, events);
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(_, item)) = pending.get(k) else {
                        break;
                    };
                    // Last resort when process isolation is exhausted:
                    // inline under catch_unwind keeps the run complete (a
                    // true abort here would kill the coordinator — the
                    // trade accepted by exhausting process attempts).
                    let o = sup
                        .submit_item(item)
                        .unwrap_or_else(|| run_one(item, opts.max_attempts, f));
                    sink.append(item, &o);
                    *lock_unpoisoned(&slots[k]) = Some(o);
                }
                if let Some(w) = sup.worker.take() {
                    w.dispose(false);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// --- daemon mode ------------------------------------------------------

/// Configuration for the mapping daemon.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Unix socket path to listen on. A *stale* socket file is removed;
    /// a socket a live daemon still answers on is never clobbered —
    /// [`serve`] probe-connects first and returns a typed
    /// `already-running` error instead.
    pub socket: PathBuf,
    /// Admission bound: mapping requests allowed in flight at once.
    /// Requests beyond it receive a typed `overloaded` reject.
    pub max_inflight: usize,
    /// Per-request deadline for admitted work (map/sleep). A request
    /// past it gets a typed `deadline` reject while the work runs to
    /// completion in the background (its admission slot is released only
    /// when it actually finishes). Zero disables the deadline.
    pub request_timeout: Duration,
    /// Idle-connection sweep: how long an accepted connection may sit
    /// silent before it is closed with a typed `idle` response.
    pub idle_timeout: Duration,
}

impl DaemonOptions {
    /// Daemon listening on `socket` with defaults: in-flight bound 4,
    /// request deadline 120 s, idle sweep 10 s.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonOptions {
            socket: socket.into(),
            max_inflight: 4,
            request_timeout: Duration::from_millis(120_000),
            idle_timeout: Duration::from_millis(10_000),
        }
    }

    /// [`DaemonOptions::new`] with the lifecycle knobs read from the
    /// environment: `FABRIC_REQUEST_TIMEOUT_MS` (0 disables) and
    /// `FABRIC_IDLE_TIMEOUT_MS` (clamped to ≥ 1 ms).
    #[must_use]
    pub fn from_env(socket: impl Into<PathBuf>) -> Self {
        let mut opts = DaemonOptions::new(socket);
        let request_ms = env_ms("FABRIC_REQUEST_TIMEOUT_MS", 120_000);
        opts.request_timeout = if request_ms == 0 {
            FOREVER
        } else {
            Duration::from_millis(request_ms)
        };
        opts.idle_timeout = Duration::from_millis(env_ms("FABRIC_IDLE_TIMEOUT_MS", 10_000).max(1));
        opts
    }
}

/// Counters the daemon exposes through the `stats` command, plus the
/// drain flag and the active-connection count the accept loop watches.
/// `inflight` tracks admitted *work* (released by the job thread even
/// after a deadline reject, so admission stays honest about work still
/// running); `active_conns` tracks connection handlers (what graceful
/// drain waits on).
#[derive(Debug, Default)]
struct DaemonCounters {
    served: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    idle_closed: AtomicU64,
    inflight: AtomicUsize,
    active_conns: AtomicUsize,
    draining: AtomicBool,
}

/// A parsed request line.
enum Request {
    Map {
        bench: String,
        backend: Option<emb_fsm::MapBackend>,
    },
    Sleep {
        ms: u64,
    },
    Ping,
    Stats,
    Shutdown,
    Malformed(String),
}

/// Parses one request line: `{"bench":"keyb"}` (optionally with
/// `"backend":"direct"|"overlay"|"auto"` forcing the mapping backend),
/// `{"cmd":"ping"}` / `{"cmd":"stats"}` / `{"cmd":"shutdown"}`, or the
/// deterministic load-stand-in `{"cmd":"sleep","ms":N}`.
fn parse_request(line: &str) -> Request {
    let mut p = JsonCursor::new(line.trim());
    let bad = |why: &str| Request::Malformed(why.to_string());
    if p.next_non_ws() != Some('{') {
        return bad("request is not a JSON object");
    }
    let mut cmd = None;
    let mut bench = None;
    let mut ms = None;
    let mut backend = None;
    loop {
        let Some(key) = p.string() else {
            return bad("expected a string key");
        };
        if p.next_non_ws() != Some(':') {
            return bad("expected ':'");
        }
        match key.as_str() {
            "cmd" => match p.string() {
                Some(v) => cmd = Some(v),
                None => return bad("expected a string value"),
            },
            "bench" => match p.string() {
                Some(v) => bench = Some(v),
                None => return bad("expected a string value"),
            },
            "ms" => match p.number() {
                Some(v) => ms = Some(u64::from(v)),
                None => return bad("expected a number value"),
            },
            "backend" => match p.string() {
                Some(v) => match emb_fsm::MapBackend::parse(&v) {
                    Some(b) => backend = Some(b),
                    None => return bad("backend must be direct, overlay or auto"),
                },
                None => return bad("expected a string value"),
            },
            _ => return bad("unknown request field"),
        }
        match p.next_non_ws() {
            Some(',') => continue,
            Some('}') => break,
            _ => return bad("expected ',' or '}'"),
        }
    }
    match (cmd.as_deref(), bench, ms, backend) {
        (None, Some(bench), None, backend) => Request::Map { bench, backend },
        (Some("sleep"), None, Some(ms), None) => Request::Sleep { ms },
        (Some("ping"), None, None, None) => Request::Ping,
        (Some("stats"), None, None, None) => Request::Stats,
        (Some("shutdown"), None, None, None) => Request::Shutdown,
        _ => bad("request needs either \"bench\" or a known \"cmd\""),
    }
}

/// A typed reject/error response line.
fn error_response(kind: &str, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"kind\":{},\"error\":{}}}",
        json_string(kind),
        json_string(message)
    )
}

/// Runs the FF-vs-EMB mapping flow for one benchmark and renders the
/// response line, including the request's own flow-cache delta (thread
/// locals: each connection is handled on a fresh thread, so the delta is
/// exactly this request's traffic).
fn handle_map(bench: &str, backend: Option<emb_fsm::MapBackend>) -> String {
    let Some(stg) = fsm_model::benchmarks::by_name(bench) else {
        // Not a paper benchmark: corpus item names (`cx.<tier>...`) are
        // self-describing, so the daemon can serve synthetic load too —
        // `corpus_stress` uses this as its daemon pass.
        if fsm_model::corpus::decode_spec(bench).is_some() {
            return handle_corpus_map(bench, backend);
        }
        return error_response(
            "unknown-bench",
            &format!(
                "no benchmark named '{bench}' (see fsm_model::benchmarks or fsm_model::corpus)"
            ),
        );
    };
    let started = Instant::now();
    let before = emb_fsm::cache::stats_snapshot();
    let mut cfg = crate::paper_config();
    if let Some(b) = backend {
        cfg.backend = b;
    }
    match crate::try_compare(&stg, &emb_fsm::flow::Stimulus::Random, &cfg) {
        Err(e) => error_response("flow", &e.to_string()),
        Ok((ff, emb)) => {
            let delta = emb_fsm::cache::stats_snapshot().since(before);
            let warm = delta.misses == 0 && delta.hits > 0;
            let (ff_mw, emb_mw) = match (ff.power.first(), emb.power.first()) {
                (Some(a), Some(b)) => (a.total_mw(), b.total_mw()),
                _ => (0.0, 0.0),
            };
            format!(
                "{{\"ok\":true,\"bench\":{},\"device\":{},\
                 \"ff\":{{\"luts\":{},\"ffs\":{},\"slices\":{},\"mw\":{ff_mw:.3}}},\
                 \"emb\":{{\"luts\":{},\"slices\":{},\"brams\":{},\"mw\":{emb_mw:.3}}},\
                 \"saving_pct\":{:.1},\
                 \"cache\":{{\"hits\":{},\"misses\":{}}},\"warm\":{warm},\
                 \"ms\":{}}}",
                json_string(&ff.name),
                json_string(ff.device.name),
                ff.area.luts,
                ff.area.ffs,
                ff.area.slices,
                emb.area.luts,
                emb.area.slices,
                emb.area.brams,
                if ff_mw > 0.0 {
                    100.0 * (ff_mw - emb_mw) / ff_mw
                } else {
                    0.0
                },
                delta.hits,
                delta.misses,
                started.elapsed().as_millis()
            )
        }
    }
}

/// Runs one corpus item through its tier's flow profile and renders the
/// response line. The outcome columns are exactly the ones
/// [`crate::corpus::run_item`] computes for the batch passes, so a
/// daemon response and a runner row for the same item always agree.
fn handle_corpus_map(item: &str, backend: Option<emb_fsm::MapBackend>) -> String {
    let started = Instant::now();
    let before = emb_fsm::cache::stats_snapshot();
    let o = crate::corpus::run_item_with_backend(item, backend);
    let delta = emb_fsm::cache::stats_snapshot().since(before);
    let warm = delta.misses == 0 && delta.hits > 0;
    format!(
        "{{\"ok\":true,\"item\":{},\"tier\":{},\"status\":{},\
         \"kind\":{},\"device\":{},\"rung\":{},\"downgrades\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{}}},\"warm\":{warm},\
         \"ms\":{}}}",
        json_string(&o.item),
        json_string(&o.tier),
        json_string(&o.status),
        json_string(&o.impl_kind),
        json_string(&o.device),
        json_string(&o.rung),
        json_string(&o.downgrades),
        delta.hits,
        delta.misses,
        started.elapsed().as_millis()
    )
}

/// Runs `job` on a detached thread and waits at most `timeout` for its
/// response line. On deadline the caller gets a typed `deadline` reject
/// while the job runs to completion in the background — the job thread,
/// not this function, releases the admission slot, so `inflight` keeps
/// reflecting work actually running. Returns `(response, timed_out)`.
fn run_with_deadline(
    counters: &Arc<DaemonCounters>,
    timeout: Duration,
    job: impl FnOnce() -> String + Send + 'static,
) -> (String, bool) {
    let (tx, rx) = mpsc::channel();
    let counters = Arc::clone(counters);
    std::thread::spawn(move || {
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
            .unwrap_or_else(|_| error_response("flow", "request thread panicked"));
        counters.inflight.fetch_sub(1, Ordering::SeqCst);
        let _ = tx.send(response);
    });
    match rx.recv_timeout(timeout) {
        Ok(response) => (response, false),
        Err(_) => (
            error_response(
                "deadline",
                &format!(
                    "request exceeded the {} ms deadline; it completes in the background",
                    timeout.as_millis()
                ),
            ),
            true,
        ),
    }
}

/// Admits one unit of expensive work (or rejects with `draining` /
/// `overloaded`) and runs it under the per-request deadline, updating
/// the served/rejected/timeouts counters. Returns the response line.
fn admit_and_run(
    opts: &DaemonOptions,
    counters: &Arc<DaemonCounters>,
    job: impl FnOnce() -> String + Send + 'static,
) -> String {
    if counters.draining.load(Ordering::SeqCst) {
        counters.rejected.fetch_add(1, Ordering::Relaxed);
        return error_response(
            "draining",
            "daemon is draining after a shutdown request; no new work accepted",
        );
    }
    // Admission control: claim a slot or reject — never block.
    let admitted = counters
        .inflight
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < opts.max_inflight).then_some(n + 1)
        })
        .is_ok();
    if !admitted {
        counters.rejected.fetch_add(1, Ordering::Relaxed);
        return error_response(
            "overloaded",
            &format!(
                "daemon at capacity ({} mapping request(s) in flight); retry later",
                opts.max_inflight
            ),
        );
    }
    let (response, timed_out) = run_with_deadline(counters, opts.request_timeout, job);
    if timed_out {
        counters.timeouts.fetch_add(1, Ordering::Relaxed);
    } else {
        counters.served.fetch_add(1, Ordering::Relaxed);
    }
    response
}

/// Handles one connection: read a request line, write a response line.
/// Returns `true` when the request asked the daemon to shut down (the
/// drain flag is already set by then).
fn handle_connection(
    stream: UnixStream,
    opts: &DaemonOptions,
    counters: &Arc<DaemonCounters>,
) -> bool {
    // The listener hands us the stream from a non-blocking accept loop;
    // reads must block (bounded by the idle sweep), not spin.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(opts.idle_timeout.max(Duration::from_millis(1))));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    });
    let mut writer = stream;
    let respond = |writer: &mut UnixStream, body: &str| {
        let _ = writeln!(writer, "{body}");
        let _ = writer.flush();
    };
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return false,
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // Idle sweep: the client connected but never sent a request
            // line inside the window. Tell it why before hanging up.
            counters.idle_closed.fetch_add(1, Ordering::Relaxed);
            respond(
                &mut writer,
                &error_response("idle", "connection sat idle past the sweep deadline"),
            );
            return false;
        }
        Err(_) => return false,
    }
    match parse_request(&line) {
        Request::Malformed(why) => {
            respond(&mut writer, &error_response("bad-request", &why));
            false
        }
        Request::Ping => {
            respond(&mut writer, "{\"ok\":true,\"pong\":true}");
            false
        }
        Request::Stats => {
            respond(
                &mut writer,
                &format!(
                    "{{\"ok\":true,\"served\":{},\"rejected\":{},\"timeouts\":{},\
                     \"idle_closed\":{},\"inflight\":{},\"max_inflight\":{},\"draining\":{}}}",
                    counters.served.load(Ordering::Relaxed),
                    counters.rejected.load(Ordering::Relaxed),
                    counters.timeouts.load(Ordering::Relaxed),
                    counters.idle_closed.load(Ordering::Relaxed),
                    counters.inflight.load(Ordering::Relaxed),
                    opts.max_inflight,
                    counters.draining.load(Ordering::SeqCst)
                ),
            );
            false
        }
        Request::Shutdown => {
            // Graceful drain: flip the flag *before* acking so any
            // request racing the ack already sees `draining`.
            counters.draining.store(true, Ordering::SeqCst);
            respond(&mut writer, "{\"ok\":true,\"shutdown\":true}");
            true
        }
        Request::Map { bench, backend } => {
            let response = admit_and_run(opts, counters, move || handle_map(&bench, backend));
            respond(&mut writer, &response);
            false
        }
        Request::Sleep { ms } => {
            // Deterministic stand-in for a long mapping request, used by
            // the drain/deadline tests and the verify.sh smoke gate. The
            // cap keeps a typo from parking a thread for hours.
            let capped = ms.min(600_000);
            let response = admit_and_run(opts, counters, move || {
                std::thread::sleep(Duration::from_millis(capped));
                format!("{{\"ok\":true,\"slept_ms\":{capped}}}")
            });
            respond(&mut writer, &response);
            false
        }
    }
}

/// Runs the mapping daemon until a `shutdown` request arrives, then
/// drains gracefully: in-flight connections finish, new work is
/// rejected with a typed `draining` response, and the socket is
/// unlinked only once the last handler returns.
///
/// One request line per connection, one response line back, connection
/// closed — the simplest protocol that lets `nc`-grade clients talk to
/// it. Each connection is handled on its own thread; admission control
/// bounds the *expensive* (mapping) work, not the cheap control
/// commands.
///
/// # Errors
///
/// Returns `AddrInUse` with an `already-running:` message when a live
/// daemon still answers on the socket (probe-connect before unlink — a
/// stale file from a killed daemon is removed, a live one is never
/// clobbered), or the underlying I/O error when the socket cannot be
/// bound.
pub fn serve(opts: &DaemonOptions) -> std::io::Result<()> {
    if opts.socket.exists() {
        match UnixStream::connect(&opts.socket) {
            Ok(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!(
                        "already-running: a live daemon answers on {}",
                        opts.socket.display()
                    ),
                ));
            }
            // Nothing answers: a stale file from a killed daemon.
            Err(_) => {
                let _ = std::fs::remove_file(&opts.socket);
            }
        }
    }
    let listener = UnixListener::bind(&opts.socket)?;
    // Non-blocking accept: the loop polls so it can observe the drain
    // flag without needing a self-connection to unblock itself.
    listener.set_nonblocking(true)?;
    let counters = Arc::new(DaemonCounters::default());
    eprintln!(
        "[fabric] daemon listening on {} (max {} in flight, request deadline {} ms, idle sweep {} ms)",
        opts.socket.display(),
        opts.max_inflight,
        opts.request_timeout.as_millis(),
        opts.idle_timeout.as_millis()
    );
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if counters.draining.load(Ordering::SeqCst)
            && counters.active_conns.load(Ordering::SeqCst) == 0
        {
            break; // drained: every in-flight connection has finished
        }
        match listener.accept() {
            Ok((stream, _)) => {
                counters.active_conns.fetch_add(1, Ordering::SeqCst);
                let counters = Arc::clone(&counters);
                let opts = opts.clone();
                handlers.push(std::thread::spawn(move || {
                    // The drain flag is set inside handle_connection
                    // (before the shutdown ack); the return value only
                    // says whether this was the shutdown request.
                    let _ = handle_connection(stream, &opts, &counters);
                    counters.active_conns.fetch_sub(1, Ordering::SeqCst);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        // Prune finished handlers so a long-lived daemon's join list
        // doesn't grow with every connection it ever served.
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&opts.socket);
    eprintln!(
        "[fabric] daemon drained and shut down ({} served, {} rejected, {} deadline timeout(s), {} idle close(s))",
        counters.served.load(Ordering::Relaxed),
        counters.rejected.load(Ordering::Relaxed),
        counters.timeouts.load(Ordering::Relaxed),
        counters.idle_closed.load(Ordering::Relaxed)
    );
    Ok(())
}

/// Sends one request line over the socket and returns the response line.
/// The client half of the daemon protocol, shared by the `fabric_client`
/// bin and the integration tests.
///
/// # Errors
///
/// Returns the underlying I/O error on connect/write/read failure, or
/// `UnexpectedEof` when the daemon closed without responding.
pub fn request(socket: &Path, line: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without a response",
        ));
    }
    Ok(response.trim_end().to_string())
}

/// [`request`] with bounded retry-with-backoff on *transient* outcomes:
/// typed `overloaded`/`draining` rejects and connect-level failures (the
/// daemon not yet listening, refused, reset, or closed mid-handshake).
/// Anything else — success, `deadline`, `flow`, `bad-request` — returns
/// immediately. `retries` is the number of extra attempts after the
/// first; backoff starts at 25 ms and doubles to a 400 ms cap.
///
/// # Errors
///
/// Returns the final attempt's I/O error when every attempt failed.
pub fn request_with_retry(socket: &Path, line: &str, retries: u32) -> std::io::Result<String> {
    let mut wait = Duration::from_millis(25);
    let mut attempt = 0u32;
    loop {
        let outcome = request(socket, line);
        let transient = match &outcome {
            Ok(response) => {
                response.contains("\"kind\":\"overloaded\"")
                    || response.contains("\"kind\":\"draining\"")
            }
            Err(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::NotFound
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::UnexpectedEof
            ),
        };
        if !transient || attempt >= retries {
            return outcome;
        }
        attempt += 1;
        std::thread::sleep(wait);
        wait = (wait * 2).min(Duration::from_millis(400));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parser_accepts_the_protocol_and_rejects_junk() {
        assert!(matches!(
            parse_request("{\"bench\":\"keyb\"}"),
            Request::Map { bench, backend: None } if bench == "keyb"
        ));
        assert!(matches!(
            parse_request("{\"bench\":\"keyb\",\"backend\":\"auto\"}"),
            Request::Map { bench, backend: Some(emb_fsm::MapBackend::Auto) } if bench == "keyb"
        ));
        assert!(matches!(
            parse_request("{\"backend\":\"overlay\",\"bench\":\"dk17\"}"),
            Request::Map {
                backend: Some(emb_fsm::MapBackend::Overlay),
                ..
            }
        ));
        assert!(matches!(parse_request("{\"cmd\":\"ping\"}"), Request::Ping));
        assert!(matches!(
            parse_request("{\"cmd\":\"stats\"}"),
            Request::Stats
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"shutdown\"}"),
            Request::Shutdown
        ));
        assert!(matches!(
            parse_request("{\"cmd\":\"sleep\",\"ms\":250}"),
            Request::Sleep { ms: 250 }
        ));
        for junk in [
            "",
            "hello",
            "{\"cmd\":\"reboot\"}",
            "{\"bench\":\"keyb\",\"cmd\":\"ping\"}",
            "{\"wat\":\"x\"}",
            "{\"cmd\":\"sleep\"}",
            "{\"cmd\":\"sleep\",\"ms\":\"soon\"}",
            "{\"ms\":9}",
            "{\"bench\":\"keyb\",\"backend\":\"vliw\"}",
            "{\"backend\":\"auto\"}",
            "{\"cmd\":\"ping\",\"backend\":\"auto\"}",
        ] {
            assert!(
                matches!(parse_request(junk), Request::Malformed(_)),
                "accepted junk request: {junk}"
            );
        }
    }

    #[test]
    fn worker_label_extraction_matches_argv_convention() {
        // This test binary was not started with --worker.
        assert_eq!(worker_invocation_label(), None);
    }

    #[test]
    fn error_responses_are_single_json_lines() {
        let r = error_response("overloaded", "busy\nretry");
        assert!(!r.contains('\n'), "response must stay one line: {r}");
        assert!(r.contains("\"ok\":false"));
        assert!(r.contains("\"kind\":\"overloaded\""));
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let a = backoff_with_jitter(50, 1, "table1", 0);
        let b = backoff_with_jitter(50, 1, "table1", 0);
        assert_eq!(a, b, "same (label, slot, strike) must back off identically");
        assert!(
            (50..=75).contains(&a),
            "strike 1: base + up to half jitter, got {a}"
        );
        let c = backoff_with_jitter(50, 1, "table1", 1);
        let d = backoff_with_jitter(50, 2, "table1", 0);
        assert!((100..=150).contains(&d), "strike 2 doubles, got {d}");
        // Jitter decorrelates slots (not guaranteed unequal in general,
        // but pinned here for the seeds verify.sh relies on).
        assert_ne!(a, c, "slots 0 and 1 must not thunder in lockstep");
        // Cap: enormous strikes stay ≤ 2 s + half jitter.
        let e = backoff_with_jitter(50, 63, "table1", 0);
        assert!(e <= 3_000, "backoff must cap, got {e}");
    }

    #[test]
    fn health_counters_fold_the_event_stream() {
        let health = FabricHealth::from_events(vec![
            FabricEvent::ItemTimeout {
                item: "keyb".to_string(),
                slot: 0,
                timeout_ms: 250,
            },
            FabricEvent::Respawn {
                slot: 0,
                strike: 1,
                backoff_ms: 60,
            },
            FabricEvent::HandshakeTimeout { slot: 1 },
            FabricEvent::Quarantine {
                slot: 1,
                strikes: 3,
            },
        ]);
        assert_eq!(health.timeouts, 2);
        assert_eq!(health.respawns, 1);
        assert_eq!(health.quarantined, 1);
        assert!(!health.is_clean());
        assert!(FabricHealth::default().is_clean());
        // Events render as one-line diagnostics.
        for e in &health.events {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
