//! Benchmarks protocol thread sweeps: `ProtocolScenario::coordinate` on
//! `CoordinatorConfig::threads(n)` sharding a Figure-8-scale grid (all
//! three protocols × a 6-point independent-loss axis × 2 replicate seeds,
//! on a scaled-down star) across worker threads, versus the serial sweep.
//!
//! Three things happen, in order:
//!
//! 1. **Correctness, always**: the parallel points are asserted bitwise
//!    identical to the serial ones at 2, 4, and 8 threads before any timing
//!    runs — a determinism regression fails the bench run itself, which is
//!    why CI executes this bench.
//! 2. **Throughput artifact**: the serial sweep is timed (best of three)
//!    and written as `BENCH_protocol_sweep.json` for the CI regression gate
//!    (`bench_gate` fails the job if points-per-second drops >30% below
//!    the committed baseline).
//! 3. **Speedup + sampling**: wall-clock serial-vs-parallel comparison and
//!    criterion sampling — skipped when `MLF_BENCH_CHECK=1` (CI check
//!    mode), where the determinism assert and the artifact are the point.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_protocols::ExperimentParams;
use mlf_scenario::{CoordinatorConfig, ProtocolScenario, ProtocolSweepGrid, ProtocolSweepReport};
use std::hint::black_box;
use std::time::Duration;

/// Figure-8 scale in grid shape (full protocol panel × loss axis ×
/// replicate seeds), scaled down in per-point volume so the sweep finishes
/// in CI time while still giving the throughput gate a measurement window
/// of hundreds of milliseconds: 24 receivers, 50k packets, 3 trials per
/// seed.
fn fig8_scale_scenario() -> ProtocolScenario {
    ProtocolScenario::builder()
        .label("fig8-scale-protocol-sweep")
        .template(ExperimentParams {
            receivers: 24,
            packets: 50_000,
            trials: 3,
            ..ExperimentParams::quick(0.0001, 0.0).expect("valid losses")
        })
        .build()
        .expect("valid protocol scenario")
}

fn sweep_grid() -> ProtocolSweepGrid {
    let seed = 0x51_66_C0_99;
    ProtocolSweepGrid::figure8_axis(6).with_seeds([seed, seed + 1])
}

fn thread_sweep(
    scenario: &ProtocolScenario,
    grid: &ProtocolSweepGrid,
    threads: usize,
) -> ProtocolSweepReport {
    scenario
        .coordinate(grid, &CoordinatorConfig::threads(threads))
        .expect("thread sweeps succeed")
        .report
}

fn assert_parallel_matches_serial(scenario: &ProtocolScenario, grid: &ProtocolSweepGrid) {
    let serial = scenario.sweep(grid);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            serial,
            thread_sweep(scenario, grid, threads),
            "protocol thread sweep diverged from serial at {threads} threads"
        );
    }
    println!(
        "determinism: parallel protocol sweep bitwise-identical to serial over {} points \
         (3 protocols x 6 losses x 2 seeds) at 2/4/8 threads",
        serial.points.len()
    );
}

fn emit_artifact(scenario: &ProtocolScenario, grid: &ProtocolSweepGrid) -> Duration {
    let points = grid.kinds.len() * grid.independent_losses.len() * grid.seeds.len();
    or_exit(measure_and_emit(
        "protocol_sweep",
        points as u64,
        "points",
        "serial",
        || scenario.sweep(grid).points.len(),
    ))
}

fn report_wall_clock_speedup(
    scenario: &ProtocolScenario,
    grid: &ProtocolSweepGrid,
    serial: Duration,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("wall-clock (available parallelism {cores}): serial {serial:?}");
    for threads in [2usize, 4] {
        let par = time_best_of_three(|| thread_sweep(scenario, grid, threads).points.len());
        println!(
            "  parallel speedup at {threads} threads: {:.2}x ({par:?})",
            serial.as_secs_f64() / par.as_secs_f64()
        );
    }
}

fn bench_protocol_sweep(c: &mut Criterion) {
    let scenario = fig8_scale_scenario();
    let grid = sweep_grid();
    assert_parallel_matches_serial(&scenario, &grid);
    let serial = emit_artifact(&scenario, &grid);
    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping speedup report and criterion sampling");
        return;
    }
    report_wall_clock_speedup(&scenario, &grid, serial);

    // Criterion samples on a smaller grid so the measured windows stay
    // short; the full-grid comparison above is the headline number.
    let small = ProtocolSweepGrid::figure8_axis(3).with_seeds([0x51_66_C0_99]);
    let mut group = c.benchmark_group("protocol/fig8_scale_sweep_9pts");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(scenario.sweep(&small).points.len()))
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("par_{threads}_threads"), |b| {
            b.iter(|| black_box(thread_sweep(&scenario, &small, threads).points.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocol_sweep);
criterion_main!(benches);
