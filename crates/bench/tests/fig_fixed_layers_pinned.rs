//! End-to-end pin of `fig_fixed_layers`: its printed report and its CSV
//! must hash to a pinned digest.

use std::process::Command;

/// FNV-1a 64 of `results/fig_fixed_layers.csv` followed by the binary's
/// standard output. Any drift in the enumerated fixed-layer allocations,
/// their max-min verdicts, the CSV, or the report layout changes it.
const DIGEST: u64 = 0x3901_9d67_4fd1_3f90;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fixed_layers_report_and_csv_match_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("mlf-fixed_layers-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fig_fixed_layers"))
        .current_dir(&dir)
        .output()
        .expect("fig_fixed_layers runs");
    assert!(
        out.status.success(),
        "fig_fixed_layers failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(dir.join("results").join("fig_fixed_layers.csv")).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);

    let h = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &csv), &out.stdout);
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
