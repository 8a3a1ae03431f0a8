//! End-to-end pins of the three star-engine ablation binaries. Each runs at
//! small knobs, and its CSV followed by its standard output must hash to a
//! pinned digest. Between them they drive Gilbert–Elliott fanout loss
//! (`ablation_burst`), nonzero prune latencies through the protocol sweep
//! (`ablation_latency`) and the active-node hub next to the paper's three
//! protocols (`ablation_active`). All three reject an empty star or an
//! empty trial count with exit status 2 before writing anything.

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

/// `--receivers 0` and `--trials 0` each make every binary exit 2 with the
/// typed parameter error, and leave no CSV behind.
#[test]
fn ablations_reject_empty_shapes_before_writing() {
    for (exe, name) in [
        (env!("CARGO_BIN_EXE_ablation_latency"), "ablation_latency"),
        (env!("CARGO_BIN_EXE_ablation_burst"), "ablation_burst"),
        (env!("CARGO_BIN_EXE_ablation_active"), "ablation_active"),
    ] {
        for (knob, which) in [("--receivers", "receivers"), ("--trials", "trials")] {
            let mut args = ARGS;
            let at = args.iter().position(|&a| a == knob).expect("shared knob");
            args[at + 1] = "0";
            let dir = std::env::temp_dir()
                .join(format!("mlf-{name}-zero-{which}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let out = Command::new(exe)
                .args(args)
                .current_dir(&dir)
                .output()
                .expect("ablation binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let wrote = dir.join("results").exists();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(out.status.code(), Some(2), "{name} {knob} 0: {stderr}");
            assert!(
                stderr.contains(&format!("error: {which} must be at least 1")),
                "{name} {knob} 0: {stderr}"
            );
            assert!(!wrote, "{name} {knob} 0 wrote results");
        }
    }
}
