//! End-to-end pin of `fig7a_markov` at a four-layer ladder: its printed
//! report and its CSV must hash to a pinned digest.

use std::process::Command;

/// FNV-1a 64 of `results/fig7a_markov.csv` followed by the binary's
/// standard output. Any drift in the exact two-receiver Markov chains,
/// their stationary redundancy, the CSV, or the report layout changes it.
const DIGEST: u64 = 0xedb5_c148_9b9e_a91f;

/// Quick scale: a four-layer ladder keeps the chains small.
const ARGS: [&str; 2] = ["--layers", "4"];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fig7a_report_and_csv_match_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("mlf-fig7a-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fig7a_markov"))
        .args(ARGS)
        .current_dir(&dir)
        .output()
        .expect("fig7a_markov runs");
    assert!(
        out.status.success(),
        "fig7a_markov failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(dir.join("results").join("fig7a_markov.csv")).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);

    let h = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &csv), &out.stdout);
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
