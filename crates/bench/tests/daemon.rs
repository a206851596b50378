//! Daemon-mode integration tests: protocol round-trips, warm-cache
//! repeat requests, admission-control rejects, request deadlines, the
//! idle-connection sweep, graceful drain under in-flight load,
//! stale-socket probing, client retry, and clean shutdown — all against
//! an in-process [`paper_bench::fabric::serve`] listener.

use paper_bench::fabric::{request, request_with_retry, serve, DaemonOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A short socket path (Unix sockets cap at ~108 bytes).
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fabric_{tag}_{}.sock", std::process::id()))
}

/// Blocks until the daemon answers ping (it binds on another thread).
fn await_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = request(socket, "{\"cmd\":\"ping\"}") {
            assert!(r.contains("\"pong\":true"), "bad ping response: {r}");
            return;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_serves_warm_repeat_requests_and_shuts_down_cleanly() {
    let socket = socket_path("warm");
    let opts = DaemonOptions::new(&socket);
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    // Unknown benchmark: a typed error, not a hang or a crash.
    let r = request(&socket, "{\"bench\":\"no-such-fsm\"}").expect("request");
    assert!(r.contains("\"ok\":false"), "unexpected: {r}");
    assert!(r.contains("\"kind\":\"unknown-bench\""), "unexpected: {r}");

    // Garbage: typed bad-request.
    let r = request(&socket, "definitely not json").expect("request");
    assert!(r.contains("\"kind\":\"bad-request\""), "unexpected: {r}");

    // A real mapping, twice: the second must be served entirely from the
    // warm flow cache (zero misses, some hits → "warm":true).
    let r1 = request(&socket, "{\"bench\":\"dk16\"}").expect("first map");
    assert!(r1.contains("\"ok\":true"), "first map failed: {r1}");
    assert!(r1.contains("\"saving_pct\":"), "no saving in: {r1}");
    let r2 = request(&socket, "{\"bench\":\"dk16\"}").expect("second map");
    assert!(r2.contains("\"ok\":true"), "second map failed: {r2}");
    assert!(
        r2.contains("\"warm\":true"),
        "repeat request was not served from warm cache: {r2}"
    );

    // Stats saw the traffic.
    let r = request(&socket, "{\"cmd\":\"stats\"}").expect("stats");
    assert!(r.contains("\"ok\":true"), "stats failed: {r}");
    assert!(r.contains("\"served\":3"), "unexpected served count: {r}");

    // Shutdown: acknowledged, serve() returns, socket file removed.
    let r = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    assert!(r.contains("\"shutdown\":true"), "unexpected: {r}");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
    assert!(!socket.exists(), "socket file left behind");
}

#[test]
fn daemon_rejects_mapping_requests_over_the_admission_bound() {
    let socket = socket_path("reject");
    let opts = DaemonOptions {
        // A zero bound makes every mapping request "one too many", so
        // the reject path is tested without timing-sensitive contention.
        max_inflight: 0,
        ..DaemonOptions::new(&socket)
    };
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    let r = request(&socket, "{\"bench\":\"dk16\"}").expect("request");
    assert!(r.contains("\"ok\":false"), "unexpected: {r}");
    assert!(
        r.contains("\"kind\":\"overloaded\""),
        "expected a typed overload reject: {r}"
    );

    // Control commands bypass admission: the daemon stays steerable.
    let r = request(&socket, "{\"cmd\":\"stats\"}").expect("stats");
    assert!(r.contains("\"rejected\":1"), "reject not counted: {r}");

    let r = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    assert!(r.contains("\"shutdown\":true"), "unexpected: {r}");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
}

#[test]
fn second_daemon_on_a_live_socket_fails_typed_without_clobbering_the_first() {
    let socket = socket_path("live");
    let opts = DaemonOptions::new(&socket);
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    // A second daemon on the same socket must probe-connect, see the
    // live daemon, and refuse — typed AddrInUse, socket untouched.
    let err = serve(&opts).expect_err("second daemon must not bind a live socket");
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::AddrInUse,
        "wrong kind: {err}"
    );
    assert!(
        err.to_string().contains("already-running"),
        "error must be typed: {err}"
    );

    // The first daemon is unharmed: still answering on the same socket.
    let r = request(&socket, "{\"cmd\":\"ping\"}").expect("first daemon died");
    assert!(r.contains("\"pong\":true"), "unexpected: {r}");

    let _ = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");

    // A *stale* socket file (nothing listening) is removed and reused.
    std::os::unix::net::UnixListener::bind(&socket).expect("plant stale socket");
    // Dropping the listener leaves the file with no one accepting on it.
    let opts2 = DaemonOptions::new(&socket);
    let handle = std::thread::spawn(move || serve(&opts2));
    await_ready(&socket);
    let _ = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("stale socket must be reclaimed");
}

#[test]
fn requests_past_the_deadline_get_a_typed_reject_and_are_counted() {
    let socket = socket_path("deadline");
    let opts = DaemonOptions {
        request_timeout: Duration::from_millis(100),
        ..DaemonOptions::new(&socket)
    };
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    let r = request(&socket, "{\"cmd\":\"sleep\",\"ms\":10000}").expect("sleep request");
    assert!(r.contains("\"ok\":false"), "unexpected: {r}");
    assert!(
        r.contains("\"kind\":\"deadline\""),
        "expected a typed deadline reject: {r}"
    );

    // The timeout is counted, the request is NOT counted as served, and
    // the admission slot is still held by the background job.
    let r = request(&socket, "{\"cmd\":\"stats\"}").expect("stats");
    assert!(r.contains("\"timeouts\":1"), "timeout not counted: {r}");
    assert!(
        r.contains("\"served\":0"),
        "timed-out request counted as served: {r}"
    );
    assert!(
        r.contains("\"inflight\":1"),
        "background job must hold its slot: {r}"
    );

    // A fast request still completes within the same deadline budget.
    let r = request(&socket, "{\"cmd\":\"sleep\",\"ms\":1}").expect("fast sleep");
    assert!(r.contains("\"slept_ms\":1"), "unexpected: {r}");

    let _ = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
}

#[test]
fn shutdown_drains_in_flight_work_and_rejects_new_requests() {
    let socket = socket_path("drain");
    let opts = DaemonOptions::new(&socket);
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    // Park one slow-but-within-deadline request in flight.
    let slow_socket = socket.clone();
    let slow = std::thread::spawn(move || request(&slow_socket, "{\"cmd\":\"sleep\",\"ms\":700}"));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let r = request(&socket, "{\"cmd\":\"stats\"}").expect("stats");
        if r.contains("\"inflight\":1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sleep request never went in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Shutdown while it runs: ack now, drain after.
    let r = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    assert!(r.contains("\"shutdown\":true"), "unexpected: {r}");

    // New work during the drain is rejected with the typed kind...
    let r = request(&socket, "{\"bench\":\"dk16\"}").expect("map during drain");
    assert!(
        r.contains("\"kind\":\"draining\""),
        "expected a typed draining reject: {r}"
    );

    // ...while the in-flight request still finishes successfully.
    let r = slow
        .join()
        .expect("slow client panicked")
        .expect("in-flight request was cut off by shutdown");
    assert!(
        r.contains("\"slept_ms\":700"),
        "in-flight work must complete during drain: {r}"
    );

    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
    assert!(!socket.exists(), "socket file left behind after drain");
}

#[test]
fn idle_connections_are_swept_with_a_typed_response() {
    use std::io::{BufRead as _, BufReader};
    let socket = socket_path("idle");
    let opts = DaemonOptions {
        idle_timeout: Duration::from_millis(100),
        ..DaemonOptions::new(&socket)
    };
    let handle = {
        let opts = opts.clone();
        std::thread::spawn(move || serve(&opts))
    };
    await_ready(&socket);

    // Connect and send nothing: the sweep must close us with a typed
    // `idle` line instead of holding the connection forever.
    let stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read sweep response");
    assert!(
        line.contains("\"kind\":\"idle\""),
        "unexpected sweep response: {line}"
    );

    let r = request(&socket, "{\"cmd\":\"stats\"}").expect("stats");
    assert!(r.contains("\"idle_closed\":1"), "sweep not counted: {r}");

    let _ = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    handle
        .join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
}

#[test]
fn client_retry_rides_out_a_daemon_that_binds_late() {
    let socket = socket_path("retry");
    // No daemon yet: a plain request fails immediately...
    let err = request(&socket, "{\"cmd\":\"ping\"}").expect_err("no daemon yet");
    assert!(matches!(
        err.kind(),
        std::io::ErrorKind::NotFound | std::io::ErrorKind::ConnectionRefused
    ));

    // ...but a retrying client spins until the daemon appears (bound
    // late on another thread), within its backoff budget.
    let late_socket = socket.clone();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        serve(&DaemonOptions::new(&late_socket))
    });
    let r = request_with_retry(&socket, "{\"cmd\":\"ping\"}", 20)
        .expect("retrying client must reach the late-bound daemon");
    assert!(r.contains("\"pong\":true"), "unexpected: {r}");

    let _ = request(&socket, "{\"cmd\":\"shutdown\"}").expect("shutdown");
    late.join()
        .expect("daemon thread panicked")
        .expect("serve returned an error");
}
