//! Benchmarks the fault-tolerant sweep coordinator against the plain
//! serial sweep and a plain thread sweep (`CoordinatorConfig::threads`).
//!
//! Three things are recorded:
//!
//! 1. **Correctness, always**: before any timing, the coordinated report is
//!    asserted bitwise identical to the serial sweep — fault-free at 2 and
//!    4 workers, under two seeded fault plans, and through a
//!    kill-at-every-shard checkpoint/resume loop. A robustness regression
//!    fails the bench run itself, which is why CI executes this bench.
//! 2. **Throughput artifact**: the coordinated sweep's points-per-second
//!    (2 workers, spot checks on, no faults, no checkpoint) is written as
//!    `BENCH_sweep_coordinator.json` for the CI regression gate — it tracks
//!    the coordination overhead (channels, hashing, spot checks) on top of
//!    per-point solve cost.
//! 3. **Overhead**: hand-timed one-thread vs two-thread vs coordinated
//!    wall-clock over the full sweep, printed so the cost of verification
//!    can be read directly. Skipped in `MLF_BENCH_CHECK=1` mode, along with
//!    criterion sampling.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_scenario::checkpoint::encode_point;
use mlf_scenario::{
    CoordinatorConfig, CoordinatorError, FaultPlan, LinkRates, Scenario, SweepPoint,
};
use std::hint::black_box;
use std::time::Duration;

/// Figure-5 scale, matching the parallel_sweep bench: 30-node trees,
/// 8 sessions, random-join redundancy.
fn fig5_scale_scenario() -> Scenario {
    Scenario::builder()
        .label("fig5-scale-coordinated-sweep")
        .random_networks(30, 8, 5)
        .link_rates(LinkRates::Uniform(LinkRateModel::RandomJoin { sigma: 6.0 }))
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario")
}

const FULL_SWEEP_SEEDS: u64 = 128;

fn cfg(workers: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        workers,
        shard_size: 8,
        spot_check: 2,
        shard_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        ..CoordinatorConfig::default()
    }
}

fn assert_bitwise(got: &[SweepPoint], want: &[SweepPoint], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: point count diverged");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            encode_point(g) == encode_point(w),
            "{what}: point {i} diverged bitwise"
        );
    }
}

/// The robustness differential, asserted before anything is timed.
fn assert_coordinator_matches_serial(scenario: &mut Scenario) {
    let serial = scenario.sweep(0..FULL_SWEEP_SEEDS);

    for workers in [2usize, 4] {
        let out = scenario
            .coordinate(0..FULL_SWEEP_SEEDS, &cfg(workers))
            .expect("fault-free coordination");
        assert_bitwise(
            &out.report.points,
            &serial.points,
            &format!("coordinate at {workers} workers"),
        );
    }

    for fault_seed in [11u64, 12] {
        let shards = FULL_SWEEP_SEEDS.div_ceil(8);
        let faulted = CoordinatorConfig {
            // Short deadline so injected stalls resolve quickly.
            shard_timeout: Duration::from_millis(200),
            fault_plan: FaultPlan::from_seed(fault_seed, 2, shards),
            ..cfg(2)
        };
        let out = scenario
            .coordinate(0..FULL_SWEEP_SEEDS, &faulted)
            .expect("faulted coordination");
        assert_bitwise(
            &out.report.points,
            &serial.points,
            &format!("coordinate under fault plan {fault_seed}"),
        );
    }

    // Kill after every accepted shard, resume from the checkpoint, repeat.
    let path = std::env::temp_dir().join(format!(
        "mlf-bench-coordinator-resume-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let resume_cfg = CoordinatorConfig {
        checkpoint: Some(path.clone()),
        max_new_shards: Some(4),
        ..cfg(2)
    };
    let resumed = loop {
        match scenario.coordinate(0..FULL_SWEEP_SEEDS, &resume_cfg) {
            Ok(out) => break out,
            Err(CoordinatorError::Interrupted { .. }) => continue,
            Err(e) => panic!("resume loop failed: {e}"),
        }
    };
    std::fs::remove_file(&path).ok();
    assert_bitwise(
        &resumed.report.points,
        &serial.points,
        "kill/resume via checkpoint",
    );
    assert!(resumed.stats.shards_from_checkpoint > 0);

    println!(
        "determinism: coordinated sweep bitwise-identical to serial over {FULL_SWEEP_SEEDS} \
         seeds (2/4 workers, 2 fault plans, kill-at-every-4-shards resume)"
    );
}

/// Time the coordinated sweep and write `BENCH_sweep_coordinator.json`.
fn emit_artifact(scenario: &Scenario) -> Duration {
    let coordinator_cfg = cfg(2);
    or_exit(measure_and_emit(
        "sweep_coordinator",
        FULL_SWEEP_SEEDS,
        "points",
        "coordinated threads (2 workers)",
        || {
            scenario
                .coordinate(0..FULL_SWEEP_SEEDS, &coordinator_cfg)
                .map(|out| out.report.points.len())
                .unwrap_or(0)
        },
    ))
}

/// Seeds `0..seeds` as a plain thread sweep on `threads` workers.
fn thread_sweep(scenario: &Scenario, seeds: u64, threads: usize) -> usize {
    scenario
        .coordinate(0..seeds, &CoordinatorConfig::threads(threads))
        .expect("thread sweeps succeed")
        .report
        .points
        .len()
}

fn report_overhead(scenario: &mut Scenario, coordinated: Duration) {
    let serial = time_best_of_three(|| thread_sweep(scenario, FULL_SWEEP_SEEDS, 1));
    let par2 = time_best_of_three(|| thread_sweep(scenario, FULL_SWEEP_SEEDS, 2));
    println!(
        "wall-clock over {FULL_SWEEP_SEEDS} seeds: 1 thread {serial:?}, 2 threads {par2:?}, \
         coordinated(2 workers, spot checks) {coordinated:?}"
    );
    println!(
        "  verification overhead vs a 2-thread sweep: {:.2}x",
        coordinated.as_secs_f64() / par2.as_secs_f64()
    );
}

fn bench_sweep_coordinator(c: &mut Criterion) {
    let mut scenario = fig5_scale_scenario();
    assert_coordinator_matches_serial(&mut scenario);
    let coordinated = emit_artifact(&scenario);
    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping overhead report and criterion sampling");
        return;
    }
    report_overhead(&mut scenario, coordinated);

    // Criterion samples on a smaller sweep so the measured windows stay
    // short; the full-size comparison above is the headline number.
    let small_cfg = cfg(2);
    let mut group = c.benchmark_group("scenario/coordinated_sweep_32seeds");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(thread_sweep(&scenario, 32, 1)))
    });
    group.bench_function("coordinated_2_workers", |b| {
        b.iter(|| {
            black_box(
                scenario
                    .coordinate(0..32, &small_cfg)
                    .map(|out| out.report.points.len())
                    .unwrap_or(0),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_coordinator);
criterion_main!(benches);
