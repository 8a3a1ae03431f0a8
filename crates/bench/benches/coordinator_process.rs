//! Benchmarks the coordinator's process-isolated worker fleet against
//! the in-process thread transport and the serial sweep.
//!
//! Three things are recorded:
//!
//! 1. **Correctness, always**: before any timing, the process-fleet
//!    report is asserted bitwise identical to the serial sweep —
//!    fault-free and under a seeded six-kind process fault plan (worker
//!    SIGKILLs and torn frames included). A robustness regression fails
//!    the bench run itself, which is why CI executes this bench.
//! 2. **Throughput artifact**: the process-fleet sweep's
//!    points-per-second (2 workers, spot checks on, no faults) is
//!    written as `BENCH_coordinator_process.json` for the CI regression
//!    gate — it tracks the cost of process isolation (spawn, frame
//!    codec, pipe I/O) on top of the thread-transport coordination
//!    overhead.
//! 3. **Overhead**: hand-timed thread-transport vs process-fleet
//!    wall-clock over the full sweep, printed so the isolation tax can
//!    be read directly. Skipped in `MLF_BENCH_CHECK=1` mode, along with
//!    criterion sampling.
//!
//! The bench binary re-executes itself as the fleet's workers, so
//! `main` is hand-rolled: the worker guard must run before criterion.

use criterion::{criterion_group, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_scenario::checkpoint::encode_point;
use mlf_scenario::{
    CoordinatorConfig, FaultPlan, LinkRates, ProcessConfig, Scenario, SweepPoint, TransportKind,
};
use std::hint::black_box;
use std::time::Duration;

/// Figure-5 scale, matching the sweep_coordinator bench: 30-node trees,
/// 8 sessions, random-join redundancy.
fn fig5_scale_scenario() -> Scenario {
    Scenario::builder()
        .label("fig5-scale-process-fleet")
        .random_networks(30, 8, 5)
        .link_rates(LinkRates::Uniform(LinkRateModel::RandomJoin { sigma: 6.0 }))
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario")
}

const FULL_SWEEP_SEEDS: u64 = 128;

fn cfg(transport: TransportKind) -> CoordinatorConfig {
    CoordinatorConfig {
        workers: 2,
        shard_size: 8,
        spot_check: 2,
        shard_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        transport,
        ..CoordinatorConfig::default()
    }
}

fn process_cfg() -> CoordinatorConfig {
    cfg(TransportKind::Process(ProcessConfig::default()))
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
fn assert_process_fleet_matches_serial(scenario: &mut Scenario) {
    let serial = scenario.sweep(0..FULL_SWEEP_SEEDS);

    let out = scenario
        .coordinate(0..FULL_SWEEP_SEEDS, &process_cfg())
        .expect("fault-free process fleet");
    assert_bitwise(&out.report.points, &serial.points, "process fleet");
    assert_eq!(out.stats.respawns, 0, "no respawns without faults");

    // Seeded six-kind process plan: crashes, stalls, corrupt hashes,
    // duplicates, worker SIGKILLs, torn frames.
    let shards = FULL_SWEEP_SEEDS.div_ceil(8);
    let faulted = CoordinatorConfig {
        shard_timeout: Duration::from_millis(500),
        fault_plan: FaultPlan::from_seed_process(21, 2, shards),
        ..process_cfg()
    };
    let out = scenario
        .coordinate(0..FULL_SWEEP_SEEDS, &faulted)
        .expect("faulted process fleet");
    assert_bitwise(
        &out.report.points,
        &serial.points,
        "process fleet under seeded faults",
    );

    println!(
        "determinism: process-fleet sweep bitwise-identical to serial over {FULL_SWEEP_SEEDS} \
         seeds (fault-free and under a seeded kill/torn-frame plan)"
    );
}

/// Time the process-fleet sweep and write `BENCH_coordinator_process.json`.
fn emit_artifact(scenario: &Scenario) -> Duration {
    let fleet_cfg = process_cfg();
    or_exit(measure_and_emit(
        "coordinator_process",
        FULL_SWEEP_SEEDS,
        || {
            scenario
                .coordinate(0..FULL_SWEEP_SEEDS, &fleet_cfg)
                .map(|out| out.report.points.len())
                .unwrap_or(0)
        },
    ))
}

fn report_overhead(scenario: &mut Scenario, fleet: Duration) {
    let threads_cfg = cfg(TransportKind::Threads);
    let threads = time_best_of_three(|| {
        scenario
            .coordinate(0..FULL_SWEEP_SEEDS, &threads_cfg)
            .map(|out| out.report.points.len())
            .unwrap_or(0)
    });
    println!(
        "wall-clock over {FULL_SWEEP_SEEDS} seeds: coordinated threads {threads:?}, \
         process fleet {fleet:?}"
    );
    println!(
        "  process-isolation overhead vs thread transport: {:.2}x",
        fleet.as_secs_f64() / threads.as_secs_f64()
    );
}

fn bench_coordinator_process(c: &mut Criterion) {
    let mut scenario = fig5_scale_scenario();
    assert_process_fleet_matches_serial(&mut scenario);
    let fleet = emit_artifact(&scenario);
    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping overhead report and criterion sampling");
        return;
    }
    report_overhead(&mut scenario, fleet);

    // Criterion samples on a smaller sweep so each measured window stays
    // short (every iteration spawns a fresh two-process fleet); the
    // full-size comparison above is the headline number.
    let small_cfg = process_cfg();
    let mut group = c.benchmark_group("scenario/process_fleet_32seeds");
    group.bench_function("process_fleet_2_workers", |b| {
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

criterion_group!(benches, bench_coordinator_process);

fn main() {
    // Fleet workers re-execute this bench binary: route them into the
    // stdio worker loop before criterion parses anything.
    mlf_scenario::transport::maybe_run_process_worker();
    benches();
}
