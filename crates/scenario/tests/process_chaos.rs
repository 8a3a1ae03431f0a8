//! Process-transport chaos: the supervised worker-process fleet merges
//! bytes identical to the serial sweep under no faults, under explicit
//! kill-the-worker-process and torn-frame plans, under the seeded
//! six-kind process fault matrix at both fleet sizes, and across a
//! kill-the-coordinator resume loop; a fault-free fleet also reports the
//! cache counters of a cold serial sweep.
//!
//! Built with `harness = false`: child worker processes re-execute this
//! binary, so `main` must route them into the stdio worker loop before
//! any test runs.

use mlf_core::allocator::MultiRate;
use mlf_scenario::checkpoint::encode_point;
use mlf_scenario::{
    CacheStats, CoordinatorConfig, CoordinatorError, FaultEvent, FaultKind, FaultPlan,
    ProcessConfig, Scenario, SweepPoint, TransportKind,
};
use std::path::PathBuf;
use std::time::Duration;

const SEEDS: std::ops::Range<u64> = 0..24;

fn main() {
    // Child processes re-enter this binary with the worker env/arg set;
    // this call turns them into stdio workers and never returns.
    mlf_scenario::transport::maybe_run_process_worker();

    let tests: &[(&str, fn())] = &[
        (
            "fault_free_process_fleet_matches_serial_sweep",
            fault_free_process_fleet_matches_serial_sweep,
        ),
        (
            "killed_worker_process_is_respawned_and_bytes_match",
            killed_worker_process_is_respawned_and_bytes_match,
        ),
        (
            "torn_frames_are_rejected_and_recomputed",
            torn_frames_are_rejected_and_recomputed,
        ),
        ("seeded_process_chaos_matrix", seeded_process_chaos_matrix),
        (
            "thread_transport_survives_process_fault_plans",
            thread_transport_survives_process_fault_plans,
        ),
        (
            "fault_free_process_fleet_reports_cold_cache_counters",
            fault_free_process_fleet_reports_cold_cache_counters,
        ),
        (
            "killed_coordinator_resumes_process_fleet_to_identical_bytes",
            killed_coordinator_resumes_process_fleet_to_identical_bytes,
        ),
    ];
    let mut failed = 0usize;
    for (name, test) in tests {
        eprintln!("test {name} ...");
        match std::panic::catch_unwind(test) {
            Ok(()) => eprintln!("test {name} ... ok"),
            Err(_) => {
                failed += 1;
                eprintln!("test {name} ... FAILED");
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} process-chaos leg(s) failed");
        std::process::exit(1);
    }
    eprintln!("all process-chaos legs passed");
}

fn scenario() -> Scenario {
    Scenario::builder()
        .label("process-chaos")
        .random_networks(14, 4, 4)
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario spec")
}

/// Process-fleet config: the same small shards and fast retry clocks as
/// the thread-transport differential, plus a tight respawn backoff so
/// kill-and-respawn cycles resolve in milliseconds.
fn process_cfg(workers: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        workers,
        shard_size: 2,
        spot_check: 1,
        shard_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        transport: TransportKind::Process(ProcessConfig {
            respawn_backoff: Duration::from_millis(2),
            respawn_backoff_cap: Duration::from_millis(50),
            ..ProcessConfig::default()
        }),
        ..CoordinatorConfig::default()
    }
}

/// A unique scratch directory for checkpoints.
fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlf-process-chaos-{}-{tag}", std::process::id()))
}

fn assert_bitwise(got: &[SweepPoint], want: &[SweepPoint]) {
    assert_eq!(got.len(), want.len(), "point count differs");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            encode_point(g),
            encode_point(w),
            "point {i} differs bitwise"
        );
    }
}

/// Arm `kind` on every worker for the given shards: a fault event fires
/// only when its (worker, shard) pair matches the first assignment, and
/// which worker draws a shard first is a scheduling accident.
fn plan_on_all_workers(kind: FaultKind, workers: usize, shards: &[u64]) -> FaultPlan {
    FaultPlan::from_events(
        shards
            .iter()
            .flat_map(|&shard| {
                (0..workers).map(move |worker| FaultEvent {
                    kind,
                    worker,
                    shard,
                })
            })
            .collect(),
    )
}

fn fault_free_process_fleet_matches_serial_sweep() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    for workers in [1, 2, 4] {
        let out = s
            .coordinate(SEEDS, &process_cfg(workers))
            .expect("fault-free process run succeeds");
        assert_bitwise(&out.report.points, &serial.points);
        assert!(!out.stats.serial_fallback, "no fallback without faults");
        assert_eq!(out.stats.respawns, 0, "no respawns without faults");
        assert_eq!(out.stats.frames_rejected, 0);
    }
}

fn killed_worker_process_is_respawned_and_bytes_match() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let cfg = CoordinatorConfig {
        fault_plan: plan_on_all_workers(FaultKind::KillProcess, 2, &[1, 4]),
        ..process_cfg(2)
    };
    let out = s
        .coordinate(SEEDS, &cfg)
        .expect("killed fleet still merges");
    assert_bitwise(&out.report.points, &serial.points);
    assert!(
        out.stats.respawns > 0,
        "a SIGKILLed worker process must be respawned (stats: {:?})",
        out.stats
    );
}

fn torn_frames_are_rejected_and_recomputed() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let cfg = CoordinatorConfig {
        fault_plan: plan_on_all_workers(FaultKind::TornFrame, 2, &[1, 4]),
        ..process_cfg(2)
    };
    let out = s.coordinate(SEEDS, &cfg).expect("torn frames still merge");
    assert_bitwise(&out.report.points, &serial.points);
    assert!(
        out.stats.frames_rejected > 0,
        "a torn frame must surface as a rejection (stats: {:?})",
        out.stats
    );
}

fn seeded_process_chaos_matrix() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let shards = (SEEDS.end as usize).div_ceil(2) as u64;
    for (fault_seed, workers) in [(1u64, 2usize), (2, 2), (3, 8), (4, 8)] {
        let cfg = CoordinatorConfig {
            fault_plan: FaultPlan::from_seed_process(fault_seed, workers, shards),
            ..process_cfg(workers)
        };
        let out = s
            .coordinate(SEEDS, &cfg)
            .expect("seeded process chaos still merges");
        assert_bitwise(&out.report.points, &serial.points);
    }
}

/// The six-kind process plans must also be survivable on the in-process
/// thread transport: `KillProcess` degrades to a worker crash and
/// `TornFrame` to a modelled frame rejection.
fn thread_transport_survives_process_fault_plans() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let shards = (SEEDS.end as usize).div_ceil(2) as u64;
    for fault_seed in [1u64, 2, 3] {
        let cfg = CoordinatorConfig {
            fault_plan: FaultPlan::from_seed_process(fault_seed, 2, shards),
            transport: TransportKind::Threads,
            ..process_cfg(2)
        };
        let out = s
            .coordinate(SEEDS, &cfg)
            .expect("thread transport survives process plans");
        assert_bitwise(&out.report.points, &serial.points);
    }
}

/// With spot checks off, a fault-free fleet reports one miss per job, like
/// a cold serial sweep: each worker report carries its own cache delta.
fn fault_free_process_fleet_reports_cold_cache_counters() {
    let cold = scenario().sweep(0..64);
    let cfg = CoordinatorConfig {
        spot_check: 0,
        ..process_cfg(2)
    };
    let out = scenario()
        .coordinate(0..64, &cfg)
        .expect("fault-free process run succeeds");
    assert_bitwise(&out.report.points, &cold.points);
    let want = CacheStats {
        hits: 0,
        misses: 64,
        evictions: 0,
    };
    assert_eq!(cold.cache, want);
    assert_eq!(out.report.cache, want);
}

fn killed_coordinator_resumes_process_fleet_to_identical_bytes() {
    let dir = tmp_dir("resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("sweep.ckpt");
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    // Accept exactly one new shard per run, then die — a coordinator kill
    // at every shard boundary, each restart driving a fresh process fleet
    // against the same checkpoint.
    let mut kills = 0u32;
    let out = loop {
        let cfg = CoordinatorConfig {
            checkpoint: Some(ckpt.clone()),
            max_new_shards: Some(1),
            ..process_cfg(2)
        };
        match s.coordinate(SEEDS, &cfg) {
            Ok(out) => break out,
            Err(CoordinatorError::Interrupted { .. }) => {
                kills += 1;
                assert!(kills < 100, "resume loop failed to converge");
            }
            Err(other) => panic!("unexpected failure mid-resume: {other:?}"),
        }
    };
    assert!(kills >= 5, "the cap must actually interrupt runs");
    assert_bitwise(&out.report.points, &serial.points);
    assert!(
        out.stats.shards_from_checkpoint > 0,
        "the final run must resume from disk, not recompute"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
