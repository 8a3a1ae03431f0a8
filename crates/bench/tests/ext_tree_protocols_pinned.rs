//! End-to-end pin of `ext_tree_protocols` on a small tree run: its printed
//! report and its CSV must hash to a pinned digest.

use std::process::Command;

/// FNV-1a 64 of `results/ext_tree_protocols.csv` followed by the binary's
/// standard output. Any drift in the tree engine's loss draws, a protocol's
/// per-level redundancy, the CSV, or the report layout changes it.
const DIGEST: u64 = 0x4d09_99e4_f41c_6415;

/// Quick scale: the depth-3 binary tree, two 20 000 packet trials per
/// protocol.
const ARGS: [&str; 4] = ["--packets", "20000", "--trials", "2"];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn ext_tree_report_and_csv_match_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("mlf-ext_tree-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_ext_tree_protocols"))
        .args(ARGS)
        .current_dir(&dir)
        .output()
        .expect("ext_tree_protocols runs");
    assert!(
        out.status.success(),
        "ext_tree_protocols failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(dir.join("results").join("ext_tree_protocols.csv")).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);

    let h = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &csv), &out.stdout);
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
