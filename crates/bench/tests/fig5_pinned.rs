//! End-to-end pin of `fig5_random_joins`. A thread sweep, a process fleet
//! writing a checkpoint, and a second fleet resuming from that complete
//! checkpoint must print the same network-sweep metrics, and the CSV plus
//! those metric rows must hash to a pinned digest.

use std::path::Path;
use std::process::Command;

/// FNV-1a 64 of `results/fig5_random_joins.csv` followed by the metric
/// rows, each ending in a newline. Any drift in the figure's numbers, its
/// CSV, or its table layout changes it.
const DIGEST: u64 = 0x92b8_4093_0132_6bde;

/// Small knobs: the analytic table up to 10 receivers, a light
/// Monte-Carlo check, and 16 topologies per family.
const ARGS: [&str; 8] = [
    "--max-receivers",
    "10",
    "--mc-quanta",
    "20",
    "--mc-sigma",
    "20",
    "--sweep-seeds",
    "16",
];

fn run(dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_random_joins"))
        .args(ARGS)
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("fig5_random_joins runs");
    assert!(
        out.status.success(),
        "fig5_random_joins {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The network-sweep rows, cut to the metric columns (family through
/// all-props rate).
fn metric_rows(stdout: &str) -> Vec<String> {
    let section = stdout
        .split("Network sweep")
        .nth(1)
        .expect("network sweep section");
    section
        .lines()
        .skip_while(|l| !l.starts_with("family"))
        .skip(2)
        .take(4)
        .map(|l| l.split_whitespace().take(5).collect::<Vec<_>>().join(" "))
        .collect()
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn thread_fleet_and_resumed_fleet_print_one_pinned_table() {
    let dir = std::env::temp_dir().join(format!("mlf-fig5-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("ckpt").join("sweep");
    let ckpt = ckpt.to_str().expect("utf-8 path");

    let threads = run(&dir, &["--threads", "2"]);
    let fleet = run(&dir, &["--coordinate-procs", "2", "--checkpoint", ckpt]);
    let resumed = run(&dir, &["--coordinate-procs", "2", "--checkpoint", ckpt]);

    let rows = metric_rows(&threads);
    assert_eq!(rows.len(), 4, "one row per family:\n{threads}");
    assert_eq!(metric_rows(&fleet), rows, "fleet run diverged");
    assert_eq!(metric_rows(&resumed), rows, "resumed run diverged");
    assert_eq!(
        resumed
            .matches("shards: 2 total, 2 from checkpoint")
            .count(),
        4,
        "every family resumes wholly from its checkpoint:\n{resumed}"
    );

    let csv = std::fs::read(dir.join("results").join("fig5_random_joins.csv")).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, &csv);
    for row in &rows {
        h = fnv1a(h, row.as_bytes());
        h = fnv1a(h, b"\n");
    }
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
