//! Integration test for the work-stealing runner: a parallel run must
//! emit exactly the rows a serial run emits, FAILED placeholders
//! included.

use paper_bench::runner::run;

/// The shared workload: deterministic rows per item, with one item that
/// returns an error and one that panics.
fn work(item: &str) -> Result<Vec<Vec<String>>, String> {
    match item {
        "fails" => Err("injected failure".to_string()),
        "panics" => panic!("injected panic"),
        _ => Ok(vec![
            vec![item.to_string(), format!("{item}-a")],
            vec![item.to_string(), format!("{item}-b")],
        ]),
    }
}

#[test]
fn parallel_rows_match_serial_rows_including_failures() {
    let items: Vec<String> = ["alpha", "fails", "beta", "panics", "gamma", "delta"]
        .iter()
        .map(ToString::to_string)
        .collect();

    let serial = run(1, &items, 3, work);
    let parallel = run(4, &items, 3, work);

    assert_eq!(
        serial.rows, parallel.rows,
        "rows must not depend on thread count"
    );
    assert_eq!(serial.failures, parallel.failures);
    // Both failure modes surfaced as placeholder rows in input order.
    assert_eq!(parallel.failures.len(), 2);
    assert!(parallel.rows[2][1].starts_with("FAILED: injected failure"));
    assert!(parallel.rows[5][1].starts_with("FAILED: panic: injected panic"));
}
