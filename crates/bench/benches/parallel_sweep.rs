//! Benchmarks thread sweeps: `Scenario::coordinate` on
//! `CoordinatorConfig::threads(n)` sharding a Figure-5-scale sweep (256
//! seeded random topologies under the Appendix B random-join link-rate
//! model) across worker threads, versus the serial `sweep_grid` on one
//! workspace.
//!
//! Three things are recorded:
//!
//! 1. **Correctness, always**: the parallel points are asserted bitwise
//!    identical to the serial ones at 2, 4, and 8 threads before any timing
//!    runs — a determinism regression fails the bench run itself, which is
//!    why CI executes this bench.
//! 2. **Throughput artifact**: the one-thread sweep's points-per-second
//!    (cold worker cache on every run) is written as
//!    `BENCH_parallel_sweep.json` for the CI regression gate
//!    (`bench_gate` fails the job on a >30% drop below the committed
//!    baseline in `crates/bench/baselines/`).
//! 3. **Speedup**: a hand-timed serial-vs-parallel comparison over the full
//!    256-seed sweep, printed as `parallel speedup at N threads: X.XXx`.
//!    On multi-core hardware the 4-thread sweep runs ≥ 2x faster than
//!    serial; on a single-core container the ratio degrades to ~1x (the
//!    report prints the detected parallelism so the number can be read in
//!    context). Skipped in `MLF_BENCH_CHECK=1` mode, along with criterion
//!    sampling.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_scenario::{CoordinatorConfig, LinkRates, Scenario, SweepGrid, SweepReport};
use std::hint::black_box;

/// Figure-5 scale: 30-node trees, 8 sessions, up to 5 receivers each, all
/// sessions under the random-join redundancy model.
fn fig5_scale_scenario() -> Scenario {
    Scenario::builder()
        .label("fig5-scale-parallel-sweep")
        .random_networks(30, 8, 5)
        .link_rates(LinkRates::Uniform(LinkRateModel::RandomJoin { sigma: 6.0 }))
        .allocator(MultiRate::new())
        .build()
        .expect("valid scenario")
}

const FULL_SWEEP_SEEDS: u64 = 256;

/// Seeds `0..seeds` as a thread sweep on `threads` workers.
fn thread_sweep(scenario: &Scenario, seeds: u64, threads: usize) -> SweepReport {
    scenario
        .coordinate(0..seeds, &CoordinatorConfig::threads(threads))
        .expect("thread sweeps succeed")
        .report
}

fn assert_parallel_matches_serial(scenario: &mut Scenario) {
    let grid = SweepGrid::seeds(0..FULL_SWEEP_SEEDS);
    let serial = scenario.sweep_grid(&grid);
    for threads in [2usize, 4, 8] {
        let parallel = scenario
            .coordinate_grid(&grid, &CoordinatorConfig::threads(threads))
            .expect("thread sweeps succeed");
        assert_eq!(
            serial, parallel.report,
            "thread sweep diverged from serial at {threads} threads"
        );
    }
    println!(
        "determinism: parallel sweep bitwise-identical to serial over {FULL_SWEEP_SEEDS} seeds \
         at 2/4/8 threads"
    );
}

/// Time the serial sweep and write `BENCH_parallel_sweep.json` for the CI
/// regression gate (serial points-per-second tracks per-solve cost without
/// parallel scheduling noise).
fn emit_artifact(scenario: &Scenario) -> std::time::Duration {
    or_exit(measure_and_emit(
        "parallel_sweep",
        FULL_SWEEP_SEEDS,
        "points",
        "serial",
        || thread_sweep(scenario, FULL_SWEEP_SEEDS, 1).points.len(),
    ))
}

fn report_wall_clock_speedup(scenario: &Scenario, serial: std::time::Duration) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wall-clock over {FULL_SWEEP_SEEDS} seeds (available parallelism {cores}): \
         serial {serial:?}"
    );
    for threads in [2usize, 4] {
        let par = time_best_of_three(|| {
            thread_sweep(scenario, FULL_SWEEP_SEEDS, threads)
                .points
                .len()
        });
        println!(
            "  parallel speedup at {threads} threads: {:.2}x ({par:?})",
            serial.as_secs_f64() / par.as_secs_f64()
        );
    }
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let mut scenario = fig5_scale_scenario();
    assert_parallel_matches_serial(&mut scenario);
    let serial = emit_artifact(&scenario);
    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping speedup report and criterion sampling");
        return;
    }
    report_wall_clock_speedup(&scenario, serial);

    // Criterion samples on a smaller grid so the measured windows stay
    // short; the full-size comparison above is the headline number.
    let mut group = c.benchmark_group("scenario/fig5_scale_sweep_64seeds");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(thread_sweep(&scenario, 64, 1).points.len()))
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("par_{threads}_threads"), |b| {
            b.iter(|| black_box(thread_sweep(&scenario, 64, threads).points.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_sweep);
criterion_main!(benches);
