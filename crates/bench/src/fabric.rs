//! The mapping daemon: a long-running compile service over a Unix socket.
//!
//! [`serve`] (the `fabric_daemon` bin) accepts mapping requests: one JSON
//! request line per connection, one JSON response line back. Admission
//! control bounds concurrently *running* mapping requests
//! ([`DaemonOptions::max_inflight`]); a request over the bound gets a
//! typed `{"ok":false,"kind":"overloaded"}` reject immediately
//! (backpressure the client can see) instead of queueing without bound.
//! Repeated requests amortize warm flow-cache hits — the response
//! carries the per-request cache delta and a `warm` flag so callers (and
//! the verify.sh smoke gate) can observe it. Control commands (`ping`,
//! `stats`, `shutdown`) bypass admission so the daemon stays steerable
//! under load. [`request`] and [`request_with_retry`] are the client
//! half, shared by the `fabric_client` bin and the tests.
//!
//! The daemon shares the on-disk flow-artifact store (`FLOW_CACHE_DIR`)
//! with harness runs and other processes; the concurrent-process
//! hardening in `emb_fsm::cache` (re-stat before evict, ENOENT-safe
//! refresh, atomic publishes) is what makes that safe.

use crate::runner::{json_string, JsonCursor};
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
    /// when it actually finishes).
    pub request_timeout: Duration,
    /// Idle-connection sweep: how long an accepted connection may sit
    /// silent before it is closed with a typed `idle` response.
    pub idle_timeout: Duration,
}

impl DaemonOptions {
    /// Daemon listening on `socket` with defaults: in-flight bound 4,
    /// request deadline 120 s, idle sweep 10 s. Reads no environment; the
    /// harness bins apply the `FABRIC_REQUEST_TIMEOUT_MS` knob
    /// ([`crate::knobs::Knobs::request_timeout`]) themselves.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonOptions {
            socket: socket.into(),
            max_inflight: 4,
            request_timeout: Duration::from_secs(120),
            idle_timeout: Duration::from_millis(10_000),
        }
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

/// The request line asking the daemon to map `item` (a paper benchmark
/// or a corpus item name), optionally forcing the mapping backend.
#[must_use]
pub fn map_request(item: &str, backend: Option<emb_fsm::MapBackend>) -> String {
    let backend = backend.map_or(String::new(), |b| format!(",\"backend\":\"{b}\""));
    format!("{{\"bench\":{}{backend}}}", json_string(item))
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
    fn map_requests_escape_any_item_name() {
        for name in ["keyb", "a\"b", "back\\slash", "\"\\\"", "cx.t1.0"] {
            for backend in [None, Some(emb_fsm::MapBackend::Auto)] {
                let line = map_request(name, backend);
                let Request::Map { bench, backend: b } = parse_request(&line) else {
                    panic!("{line} is not a map request");
                };
                assert_eq!((bench.as_str(), b), (name, backend), "{line}");
            }
        }
    }

    #[test]
    fn error_responses_are_single_json_lines() {
        let r = error_response("overloaded", "busy\nretry");
        assert!(!r.contains('\n'), "response must stay one line: {r}");
        assert!(r.contains("\"ok\":false"));
        assert!(r.contains("\"kind\":\"overloaded\""));
    }
}
