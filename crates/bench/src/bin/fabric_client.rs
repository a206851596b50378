//! One-shot client for the mapping daemon.
//!
//! ```text
//! fabric_client [--socket PATH] <ping|stats|shutdown|map BENCH|sleep MS>
//! ```
//!
//! Prints the daemon's JSON response line on stdout and exits 0 exactly
//! when the response says `"ok":true` — so shell gates (verify.sh's
//! daemon smoke test) can chain on the exit code and grep the body.
//! The socket defaults to `./fabric.sock`. There is no retry: a typed
//! `overloaded` or `draining` reject is printed as itself, which is what
//! the backpressure gates look for.

use paper_bench::fabric::{map_request, request};
use std::path::PathBuf;

fn main() {
    let mut socket = PathBuf::from("fabric.sock");
    let mut words: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(p) => socket = PathBuf::from(p),
                None => usage("--socket needs a path"),
            },
            _ => words.push(arg),
        }
    }
    let line = match words.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["ping"] => "{\"cmd\":\"ping\"}".to_string(),
        ["stats"] => "{\"cmd\":\"stats\"}".to_string(),
        ["shutdown"] => "{\"cmd\":\"shutdown\"}".to_string(),
        ["map", bench] => map_request(bench, None),
        ["sleep", ms] => match ms.parse::<u64>() {
            Ok(ms) => format!("{{\"cmd\":\"sleep\",\"ms\":{ms}}}"),
            Err(_) => usage("sleep needs a millisecond count"),
        },
        _ => usage("expected one of: ping | stats | shutdown | map BENCH | sleep MS"),
    };
    match request(&socket, &line) {
        Ok(response) => {
            println!("{response}");
            if !response.contains("\"ok\":true") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fabric_client: {}: {e}", socket.display());
            std::process::exit(1);
        }
    }
}

fn usage(why: &str) -> ! {
    eprintln!(
        "fabric_client: {why}\nusage: fabric_client [--socket PATH] <ping|stats|shutdown|map BENCH|sleep MS>"
    );
    std::process::exit(2);
}
