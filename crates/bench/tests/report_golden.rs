//! The deterministic reports as a golden file: Fig. 14 (left and right) and
//! the chaos table at 2 seeds per row — every number the `netcl-apps`
//! drivers compute for them, compared byte for byte with
//! `tests/golden/reports.txt`. They are simulated time and event counts
//! only, so the file is the same on every host.
//!
//! After an intended change to a driver, rewrite the file with
//! `cargo test -p netcl-bench --test report_golden -- --ignored` and review
//! the diff.

use netcl_bench::{report_chaos, report_fig14_agg, report_fig14_cache};

/// `cargo test` runs integration tests from the package root.
const GOLDEN: &str = "tests/golden/reports.txt";

fn render() -> String {
    [report_fig14_agg(), report_fig14_cache(), report_chaos(2)].concat()
}

#[test]
fn reports_match_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/reports.txt is committed");
    let now = render();
    assert!(!now.contains(" NO "), "a chaos safety property failed:\n{now}");
    if now != golden {
        let line = now.lines().zip(golden.lines()).position(|(a, b)| a != b);
        let at = line.unwrap_or(now.lines().count().min(golden.lines().count()));
        panic!(
            "reports differ from tests/golden/reports.txt at line {}:\n  now:    {:?}\n  golden: {:?}",
            at + 1,
            now.lines().nth(at),
            golden.lines().nth(at)
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/reports.txt from the current drivers"]
fn rewrite_the_golden_file() {
    std::fs::write(GOLDEN, render()).expect("write tests/golden/reports.txt");
}
