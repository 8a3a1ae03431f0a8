//! Process-transport chaos: the supervised worker-process fleet merges
//! bytes identical to the serial sweep under no faults, under explicit
//! kill-the-worker-process and torn-frame plans, under the seeded
//! six-kind process fault matrix at both fleet sizes, and across a
//! kill-the-coordinator resume loop; a fault-free fleet also reports the
//! topology counters of the serial sweep. The headline Figure-8 leg runs
//! a protocol grid with latency pairs through the same fleet, faults and
//! resume loop.
//!
//! Built with `harness = false`: child worker processes re-execute this
//! binary, so `main` must route them into the stdio worker loop before
//! any test runs. An optional first argument runs only the legs whose
//! names contain it (`cargo test --test process_chaos -- figure8`).

use mlf_core::allocator::MultiRate;
use mlf_protocols::ExperimentParams;
use mlf_scenario::checkpoint::encode_point;
use mlf_scenario::{
    CacheStats, CoordinatorConfig, CoordinatorError, FaultEvent, FaultKind, FaultPlan,
    ProcessConfig, ProtocolScenario, ProtocolSweepGrid, Scenario, SweepPoint, TransportKind,
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
        (
            "pipelined_fleet_requeues_exactly_the_lost_assignments",
            pipelined_fleet_requeues_exactly_the_lost_assignments,
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
        (
            "figure8_process_fleet_survives_faults_and_resumes_to_identical_bytes",
            figure8_process_fleet_survives_faults_and_resumes_to_identical_bytes,
        ),
    ];
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let mut failed = 0usize;
    for (name, test) in tests.iter().filter(|(name, _)| name.contains(&filter)) {
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
/// the thread-transport differential. Respawns ride the same 2–20 ms
/// backoff, so kill-and-respawn cycles resolve in milliseconds.
fn process_cfg(workers: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        workers,
        shard_size: 2,
        spot_check: 1,
        shard_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        transport: TransportKind::Process(ProcessConfig::default()),
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

/// A one-worker fleet holds two assignments from the first dispatch
/// pass (shards 0 and 1). Shard deadlines are generous, so any timeout
/// means a lost task was forgotten.
fn pipelined_fleet_requeues_exactly_the_lost_assignments() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let one_worker = |kind, shard| CoordinatorConfig {
        spot_check: 0,
        shard_timeout: Duration::from_secs(10),
        fault_plan: FaultPlan::from_events(vec![FaultEvent {
            kind,
            worker: 0,
            shard,
        }]),
        ..process_cfg(1)
    };
    // The child dies on shard 0 with shard 1 queued behind it: its death
    // requeues both, and the respawned child computes them.
    let out = s
        .coordinate(SEEDS, &one_worker(FaultKind::CrashWorker, 0))
        .expect("a crash with two in flight still merges");
    assert_bitwise(&out.report.points, &serial.points);
    let st = &out.stats;
    assert!(
        st.respawns >= 1 && st.retries >= 1 && st.timeouts == 0,
        "{st:?}"
    );
    // The child answers shard 0, then rejects the torn shard 1: the
    // rejection is attributed to the oldest unanswered frame, shard 1.
    let out = s
        .coordinate(SEEDS, &one_worker(FaultKind::TornFrame, 1))
        .expect("a torn second frame still merges");
    assert_bitwise(&out.report.points, &serial.points);
    let st = &out.stats;
    assert_eq!(
        (st.frames_rejected, st.retries, st.timeouts),
        (1, 1, 0),
        "{st:?}"
    );
    // Two shards: the child answers shard 0, then wedges on shard 1 with
    // nothing left to send it. The heartbeat stays armed while shard 1 is
    // unanswered, so the wedged child is killed and shard 1 requeued well
    // before its deadline.
    let mut cfg = one_worker(FaultKind::Stall, 1);
    cfg.transport = TransportKind::Process(ProcessConfig {
        heartbeat: Duration::from_millis(200),
    });
    let out = s
        .coordinate(0..4, &cfg)
        .expect("a wedged second assignment still merges");
    assert_bitwise(&out.report.points, &serial.points[..4]);
    let st = &out.stats;
    assert!(
        st.workers_lost >= 1 && st.respawns >= 1 && st.timeouts == 0,
        "{st:?}"
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

/// A fault-free fleet reports one topology build per job, like the serial
/// seeds-only sweep: both count every point of a random source a miss.
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

/// The headline leg: a quick-scale Figure-8 grid with latency pairs on a
/// two-process fleet, under a seeded process fault plan that arms all six
/// fault kinds, interrupted after every few accepted shards and resumed
/// from its checkpoint until done. Its records are byte-equal to the
/// serial sweep.
fn figure8_process_fleet_survives_faults_and_resumes_to_identical_bytes() {
    let scenario = ProtocolScenario::builder()
        .label("process-chaos/figure8")
        .template(ExperimentParams {
            receivers: 6,
            packets: 3_000,
            trials: 2,
            ..ExperimentParams::quick(0.0001, 0.0).expect("valid losses")
        })
        .build()
        .expect("valid protocol scenario");
    let grid = ProtocolSweepGrid::independent_losses([0.0, 0.04])
        .with_latencies([(0, 0), (16, 64)])
        .with_seeds([1, 2]);
    let serial = scenario.sweep(&grid);
    let shards = serial.points.len().div_ceil(2) as u64;
    assert_eq!(shards, 12);
    let dir = tmp_dir("figure8");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // The first seeded plan that arms all six fault kinds.
    let all_kinds = [
        FaultKind::CrashWorker,
        FaultKind::Stall,
        FaultKind::CorruptHash,
        FaultKind::DuplicateShard,
        FaultKind::KillProcess,
        FaultKind::TornFrame,
    ];
    let plan = (0..)
        .map(|seed| FaultPlan::from_seed_process(seed, 2, shards))
        .find(|p| {
            all_kinds
                .iter()
                .all(|k| p.events().iter().any(|e| e.kind == *k))
        })
        .expect("some seed arms every kind");
    let cfg = CoordinatorConfig {
        checkpoint: Some(dir.join("figure8.ckpt")),
        max_new_shards: Some(3),
        fault_plan: plan,
        ..process_cfg(2)
    };
    let mut kills = 0u32;
    let out = loop {
        match scenario.coordinate(&grid, &cfg) {
            Ok(out) => break out,
            Err(CoordinatorError::Interrupted { .. }) => {
                kills += 1;
                assert!(kills < 100, "resume loop failed to converge");
            }
            Err(other) => panic!("unexpected failure mid-resume: {other:?}"),
        }
    };
    assert!(kills >= 2, "the cap must actually interrupt runs");
    assert!(out.stats.shards_from_checkpoint > 0, "{:?}", out.stats);
    let got: Vec<Vec<u8>> = out.report.points.iter().map(|p| p.encode()).collect();
    let want: Vec<Vec<u8>> = serial.points.iter().map(|p| p.encode()).collect();
    assert_eq!(got, want, "fleet records differ from the serial sweep");
    let _ = std::fs::remove_dir_all(&dir);
}
