//! End-to-end pins of the three star-engine ablation binaries. Each runs at
//! small knobs, and its CSV followed by its standard output must hash to a
//! pinned digest. Between them they drive Gilbert–Elliott fanout loss
//! (`ablation_burst`), nonzero prune latencies through the protocol sweep
//! (`ablation_latency`) and the active-node hub next to the paper's three
//! protocols (`ablation_active`).

use std::process::Command;

/// Small knobs shared by all three: 20 receivers, two 20 000 packet trials
/// per point.
const ARGS: [&str; 6] = ["--trials", "2", "--packets", "20000", "--receivers", "20"];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `exe` (whose CSV is `results/<name>.csv`) in a private directory
/// with `extra` appended to the shared knobs, and return FNV-1a 64 of the
/// CSV followed by the binary's standard output.
fn digest(exe: &str, name: &str, extra: &[&str]) -> u64 {
    let dir = std::env::temp_dir().join(format!("mlf-{name}-pinned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(exe)
        .args(ARGS)
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("ablation binary runs");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(dir.join("results").join(format!("{name}.csv"))).expect("csv");
    let _ = std::fs::remove_dir_all(&dir);
    fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &csv), &out.stdout)
}

#[test]
fn ablation_latency_matches_the_pinned_digest() {
    let h = digest(
        env!("CARGO_BIN_EXE_ablation_latency"),
        "ablation_latency",
        &["--threads", "2"],
    );
    assert_eq!(h, 0x558b_07d5_5bd7_2c5e, "digest is 0x{h:016x}");
}

#[test]
fn ablation_burst_matches_the_pinned_digest() {
    let h = digest(env!("CARGO_BIN_EXE_ablation_burst"), "ablation_burst", &[]);
    assert_eq!(h, 0xac3e_aa7d_c9d9_362f, "digest is 0x{h:016x}");
}

#[test]
fn ablation_active_matches_the_pinned_digest() {
    let h = digest(
        env!("CARGO_BIN_EXE_ablation_active"),
        "ablation_active",
        &[],
    );
    assert_eq!(h, 0x16b4_fe7f_dcc6_6568, "digest is 0x{h:016x}");
}
