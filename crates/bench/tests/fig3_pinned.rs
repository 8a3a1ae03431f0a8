//! End-to-end pin of `fig3_removal`: its printed report and its CSVs must
//! hash to a pinned digest.

use std::process::Command;

/// FNV-1a 64 of `results/fig3a_removal.csv` and `results/fig3b_removal.csv`
/// followed by the binary's standard output. Both examples also solve a
/// network built by `Network::without_receiver`, so any drift in a pruned
/// network's incidence, the allocations, the CSVs, or the report layout
/// changes it.
const DIGEST: u64 = 0xfbde_0fc6_80cf_78a6;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fig3_report_and_csv_match_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("mlf-fig3-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fig3_removal"))
        .current_dir(&dir)
        .output()
        .expect("fig3_removal runs");
    assert!(
        out.status.success(),
        "fig3_removal failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut h = 0xcbf2_9ce4_8422_2325;
    for name in ["fig3a_removal.csv", "fig3b_removal.csv"] {
        let csv = std::fs::read(dir.join("results").join(name)).expect("csv");
        h = fnv1a(h, &csv);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let h = fnv1a(h, &out.stdout);
    assert_eq!(h, DIGEST, "digest is 0x{h:016x}");
}
