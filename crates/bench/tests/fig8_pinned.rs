//! End-to-end pin of `fig8_protocols`. One serial and one two-thread run of
//! the same small Figure 8(a) panel must print the same table, and the CSV
//! plus those table rows must hash to a pinned digest.

use std::path::Path;
use std::process::Command;

/// FNV-1a 64 of `results/fig8a_protocols.csv` followed by the table rows,
/// each ending in a newline. Any drift in a protocol's redundancy, the
/// CSV, or the table layout changes it.
const DIGEST: u64 = 0x9692_5ba5_8237_0a07;

/// Small knobs: 20 receivers, three points on the loss axis, two 20 000
/// packet trials per point.
const ARGS: [&str; 8] = [
    "--trials",
    "2",
    "--packets",
    "20000",
    "--receivers",
    "20",
    "--points",
    "3",
];

fn run(dir: &Path, threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fig8_protocols"))
        .args(ARGS)
        .args(["--threads", threads])
        .current_dir(dir)
        .output()
        .expect("fig8_protocols runs");
    assert!(
        out.status.success(),
        "fig8_protocols --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Everything after the header line, which names the thread count.
fn body(stdout: &str) -> &str {
    stdout
        .split_once('\n')
        .map(|(_, rest)| rest)
        .expect("header line")
}

/// The table's data rows: the lines that start with a loss value.
fn table_rows(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("0."))
        .collect()
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn serial_and_threaded_runs_print_one_pinned_table() {
    let dir = std::env::temp_dir().join(format!("mlf-fig8-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let serial = run(&dir, "1");
    let csv = std::fs::read(dir.join("results").join("fig8a_protocols.csv")).expect("csv");
    let threaded = run(&dir, "2");
    let csv_threaded = std::fs::read(dir.join("results").join("fig8a_protocols.csv")).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(serial.contains("worker threads: 1"), "{serial}");
    assert!(threaded.contains("worker threads: 2"), "{threaded}");
    assert_eq!(body(&serial), body(&threaded), "threaded run diverged");
    assert_eq!(csv, csv_threaded, "threaded CSV diverged");

    let rows = table_rows(&serial);
    assert_eq!(rows.len(), 3, "one row per loss point:\n{serial}");
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &csv);
    for row in &rows {
        h = fnv1a(h, row.as_bytes());
        h = fnv1a(h, b"\n");
    }
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
