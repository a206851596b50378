//! Long-running mapping daemon: serves FF-vs-EMB flow requests over a
//! Unix socket until told to shut down.
//!
//! ```text
//! fabric_daemon [--socket PATH] [--max-inflight N]
//! ```
//!
//! The socket defaults to `./fabric.sock` and the in-flight bound to 4;
//! the per-request deadline is the `FABRIC_REQUEST_TIMEOUT_MS` knob
//! (default 120000; 0 disables it) and the idle-connection sweep is 10 s.
//! Protocol: one JSON request line per connection — `{"bench":"keyb"}`
//! to map, `{"cmd":"ping"|"stats"|"shutdown"}` for control,
//! `{"cmd":"sleep","ms":N}` as a deterministic load stand-in — one JSON
//! response line back. A socket a live daemon still answers on is never
//! clobbered: this exits 3 with the typed `already-running` error. See
//! `paper_bench::fabric` and DESIGN.md §12–13.

use paper_bench::fabric::{serve, DaemonOptions};
use std::path::PathBuf;

fn main() {
    let mut opts = DaemonOptions::new("fabric.sock");
    opts.request_timeout = paper_bench::knobs().request_timeout;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(p) => opts.socket = PathBuf::from(p),
                None => usage("--socket needs a path"),
            },
            "--max-inflight" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.max_inflight = n,
                None => usage("--max-inflight needs a number"),
            },
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Err(e) = serve(&opts) {
        eprintln!(
            "fabric_daemon: cannot serve on {}: {e}",
            opts.socket.display()
        );
        // Distinguish "another daemon owns this socket" (a deployment
        // race, not a fault) from genuine bind/serve failures.
        let code = if e.kind() == std::io::ErrorKind::AddrInUse {
            3
        } else {
            1
        };
        std::process::exit(code);
    }
}

fn usage(why: &str) -> ! {
    eprintln!("fabric_daemon: {why}\nusage: fabric_daemon [--socket PATH] [--max-inflight N]");
    std::process::exit(2);
}
