//! The coordinator's headline differential: the merged report is bitwise
//! identical to the serial sweep under no faults, under every seeded
//! fault plan, under targeted single-fault-class plans, and after losing
//! every worker. Tests whose names contain `chaos` are the seeded
//! fault-matrix legs CI runs as its own job (`cargo test chaos`).

use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_scenario::checkpoint::encode_point;
use mlf_scenario::{
    CacheStats, CoordinatorConfig, CoordinatorReport, CoordinatorStats, FaultEvent, FaultKind,
    FaultPlan, Scenario, SweepGrid, SweepPoint,
};
use std::time::Duration;

const SEEDS: std::ops::Range<u64> = 0..24;

fn scenario() -> Scenario {
    Scenario::builder()
        .label("coordinator-differential")
        .random_networks(14, 4, 4)
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario spec")
}

/// Small timeouts so injected stalls and crashes resolve in milliseconds,
/// not the production default seconds.
fn fast_cfg() -> CoordinatorConfig {
    CoordinatorConfig {
        workers: 2,
        shard_size: 2,
        spot_check: 1,
        shard_timeout: Duration::from_millis(100),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        fault_plan: FaultPlan::none(),
        ..CoordinatorConfig::default()
    }
}

/// Bitwise equality via the canonical 66-byte encoding (injective on bit
/// patterns, so NaN-safe — unlike `f64` equality).
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

#[test]
fn fault_free_coordinator_matches_serial_sweep() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    for workers in [1, 2, 4] {
        for shard_size in [1, 5, 64] {
            for spot_check in [0, 2] {
                let cfg = CoordinatorConfig {
                    workers,
                    shard_size,
                    spot_check,
                    ..fast_cfg()
                };
                let out: CoordinatorReport =
                    s.coordinate(SEEDS, &cfg).expect("fault-free run succeeds");
                assert_bitwise(&out.report.points, &serial.points);
                assert_eq!(out.report.label, serial.label);
                let stats: &CoordinatorStats = &out.stats;
                assert!(!stats.serial_fallback);
                assert_eq!(stats.hash_rejects, 0);
            }
        }
    }
}

/// With spot checks off, a fault-free run reports one miss per job, like a
/// cold serial sweep: each worker report carries its own cache delta.
#[test]
fn fault_free_coordinator_reports_cold_cache_counters() {
    let cold = scenario().sweep(0..64);
    let cfg = CoordinatorConfig {
        spot_check: 0,
        // Generous, so that machine load cannot turn into a reassignment.
        shard_timeout: Duration::from_secs(5),
        ..fast_cfg()
    };
    let out = scenario().coordinate(0..64, &cfg).expect("fault-free run");
    assert_bitwise(&out.report.points, &cold.points);
    let want = CacheStats {
        hits: 0,
        misses: 64,
        evictions: 0,
    };
    assert_eq!(cold.cache, want);
    assert_eq!(out.report.cache, want);
}

#[test]
fn coordinator_grid_matches_serial_grid_sweep() {
    let mut s = scenario();
    let grid = SweepGrid::seeds(0..8).with_models(vec![
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(1.5),
        LinkRateModel::Sum,
    ]);
    let serial = s.sweep_grid(&grid);
    let out = s
        .coordinate_grid(&grid, &fast_cfg())
        .expect("grid coordination succeeds");
    assert_bitwise(&out.report.points, &serial.points);
}

/// One targeted plan per fault class, each asserting both the differential
/// and that the fault actually exercised its handling path.
#[test]
fn each_fault_class_is_survived_and_observed() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let cases = [
        FaultKind::CrashWorker,
        FaultKind::Stall,
        FaultKind::CorruptHash,
        FaultKind::DuplicateShard,
    ];
    for kind in cases {
        // Arm each target shard on *both* workers: a fault event fires only
        // when its (worker, shard) pair matches the first assignment, and
        // which worker draws a shard first is a scheduling accident.
        let plan = FaultPlan::from_events(
            [1u64, 4]
                .into_iter()
                .flat_map(|shard| {
                    (0..2).map(move |worker| FaultEvent {
                        kind,
                        worker,
                        shard,
                    })
                })
                .collect(),
        );
        let cfg = CoordinatorConfig {
            fault_plan: plan,
            ..fast_cfg()
        };
        let out = s.coordinate(SEEDS, &cfg).expect("faulted run still merges");
        assert_bitwise(&out.report.points, &serial.points);
        match kind {
            FaultKind::CrashWorker => assert!(
                out.stats.timeouts > 0 || out.stats.serial_fallback,
                "crashes surface as timeouts or fallback"
            ),
            FaultKind::Stall => assert!(out.stats.timeouts > 0, "stalls surface as timeouts"),
            FaultKind::CorruptHash => assert!(
                out.stats.hash_rejects >= 2,
                "both corrupt deliveries are rejected"
            ),
            FaultKind::DuplicateShard => assert!(
                out.stats.duplicates_dropped >= 1,
                "at least one duplicate delivery is dropped"
            ),
            FaultKind::KillProcess | FaultKind::TornFrame => {
                unreachable!("process-transport kinds are exercised in tests/process_chaos.rs")
            }
        }
    }
}

#[test]
fn losing_every_worker_degrades_to_serial_with_identical_bytes() {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    // Both workers crash on their very first assignment.
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            kind: FaultKind::CrashWorker,
            worker: 0,
            shard: 0,
        },
        FaultEvent {
            kind: FaultKind::CrashWorker,
            worker: 1,
            shard: 1,
        },
    ]);
    let cfg = CoordinatorConfig {
        fault_plan: plan,
        ..fast_cfg()
    };
    let out = s.coordinate(SEEDS, &cfg).expect("degrades, not fails");
    assert!(out.stats.serial_fallback, "expected the serial fallback");
    assert_bitwise(&out.report.points, &serial.points);
}

/// The seeded chaos matrix: every drawn plan, at both fleet sizes, merges
/// the exact bytes of the fault-free serial sweep.
fn chaos_leg(fault_seed: u64, workers: usize) {
    let mut s = scenario();
    let serial = s.sweep(SEEDS);
    let shard_size = 2usize;
    let shards = (SEEDS.end as usize).div_ceil(shard_size) as u64;
    let cfg = CoordinatorConfig {
        workers,
        shard_size,
        fault_plan: FaultPlan::from_seed(fault_seed, workers, shards),
        ..fast_cfg()
    };
    let out = s.coordinate(SEEDS, &cfg).expect("chaos run still merges");
    assert_bitwise(&out.report.points, &serial.points);
}

#[test]
fn chaos_seed_1_workers_2() {
    chaos_leg(1, 2);
}

#[test]
fn chaos_seed_2_workers_2() {
    chaos_leg(2, 2);
}

#[test]
fn chaos_seed_3_workers_8() {
    chaos_leg(3, 8);
}

#[test]
fn chaos_seed_4_workers_8() {
    chaos_leg(4, 8);
}

#[test]
fn chaos_seed_5_workers_2() {
    chaos_leg(5, 2);
}

#[test]
fn chaos_seed_6_workers_8() {
    chaos_leg(6, 8);
}
