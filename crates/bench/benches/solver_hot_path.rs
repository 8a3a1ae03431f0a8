//! Benchmarks the PR-4 tentpole: the incidence-indexed incremental solver
//! core and the cross-sweep topology/solve cache, on solver-bound
//! workloads — large GT-ITM-style transit–stub hierarchies and wide
//! high-fanout k-ary trees, swept over a `seeds × link-rate models` grid.
//!
//! Three things are recorded:
//!
//! 1. **Correctness, always**: the warm-cache replay of the grid is
//!    asserted bitwise identical to the cold sweep, and thread sweeps
//!    (worker-local caches) to the serial one, before any timing runs.
//! 2. **Throughput artifact**: the *cold* grid sweep's points-per-second —
//!    the number that tracks raw solver hot-path cost (topology build +
//!    index build + progressive filling, no memo hits) — is written as
//!    `BENCH_solver_hot_path.json` for the CI regression gate.
//! 3. **Warm-cache speedup**: the same grid re-swept against the warm
//!    scenario cache must run **≥ 2x** the cold throughput (the tentpole's
//!    acceptance bar; in practice hits skip the solve entirely and the
//!    ratio is far higher). Asserted, then printed.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_net::TopologyFamily;
use mlf_scenario::{Scenario, SweepGrid, SweepReport};
use std::cell::RefCell;
use std::hint::black_box;

/// One solver-bound workload: a topology family at scale plus a model grid.
struct Workload {
    label: &'static str,
    family: TopologyFamily,
    nodes: usize,
    sessions: usize,
    max_receivers: usize,
    grid: SweepGrid,
}

fn workloads() -> Vec<Workload> {
    let models = [
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(2.0),
        LinkRateModel::Sum,
    ];
    vec![
        Workload {
            label: "transit-stub-96",
            family: TopologyFamily::TransitStub { transit: 8 },
            nodes: 96,
            sessions: 12,
            max_receivers: 6,
            grid: SweepGrid::seeds(0..24).with_models(models),
        },
        Workload {
            label: "kary-85",
            family: TopologyFamily::KaryTree { arity: 4 },
            nodes: 85,
            sessions: 10,
            max_receivers: 8,
            grid: SweepGrid::seeds(0..24).with_models(models),
        },
    ]
}

fn scenario_for(w: &Workload) -> Scenario {
    Scenario::builder()
        .label(format!("solver-hot-path/{}", w.label))
        .random_networks_with(w.family, w.nodes, w.sessions, w.max_receivers)
        .allocator(MultiRate::new())
        .build()
        .expect("valid hot-path scenario")
}

fn total_points(ws: &[Workload]) -> u64 {
    ws.iter()
        .map(|w| (w.grid.seeds.len() * w.grid.models.len()) as u64)
        .sum()
}

/// Cold pass over every workload: fresh scenarios, empty caches.
fn sweep_cold(ws: &[Workload]) -> Vec<SweepReport> {
    ws.iter()
        .map(|w| scenario_for(w).sweep_grid(&w.grid))
        .collect()
}

fn assert_cache_and_parallel_agreement(ws: &[Workload]) {
    for w in ws {
        let mut scenario = scenario_for(w);
        let cold = scenario.sweep_grid(&w.grid);
        assert_eq!(cold.cache.hits, 0, "{}: cold sweep must not hit", w.label);
        let warm = scenario.sweep_grid(&w.grid);
        assert_eq!(cold, warm, "{}: warm replay diverged from cold", w.label);
        assert_eq!(
            warm.cache.misses, 0,
            "{}: warm sweep must not miss",
            w.label
        );
        for threads in [2usize, 4] {
            let par = scenario
                .coordinate_grid(&w.grid, &mlf_scenario::CoordinatorConfig::threads(threads))
                .expect("thread sweeps succeed");
            assert_eq!(
                cold, par.report,
                "{}: parallel diverged at {threads} threads",
                w.label
            );
        }
    }
    println!(
        "determinism: warm-cache and parallel grid sweeps bitwise-identical to cold/serial \
         across {} workloads",
        ws.len()
    );
}

fn bench_solver_hot_path(c: &mut Criterion) {
    let ws = workloads();
    assert_cache_and_parallel_agreement(&ws);
    let points = total_points(&ws);

    // Cold throughput: the gated number. Fresh scenario per pass, so every
    // point pays topology build + index build + solve.
    let cold = or_exit(measure_and_emit(
        "solver_hot_path",
        points,
        "points",
        "serial",
        || sweep_cold(&ws).iter().map(|r| r.points.len()).sum(),
    ));
    let cold_pps = points as f64 / cold.as_secs_f64();

    // Warm throughput: the same grids against scenarios whose caches
    // already hold every point.
    let warmed: Vec<RefCell<Scenario>> = ws
        .iter()
        .map(|w| {
            let mut s = scenario_for(w);
            let _ = s.sweep_grid(&w.grid);
            RefCell::new(s)
        })
        .collect();
    let warm = time_best_of_three(|| {
        ws.iter()
            .zip(&warmed)
            .map(|(w, s)| s.borrow_mut().sweep_grid(&w.grid).points.len())
            .sum()
    });
    let warm_pps = points as f64 / warm.as_secs_f64();
    let speedup = warm_pps / cold_pps;
    println!(
        "warm-cache sweep: {warm_pps:.1} points/s vs cold {cold_pps:.1} points/s \
         ({speedup:.1}x; cold {cold:?}, warm {warm:?} over {points} points)"
    );
    assert!(
        speedup >= 2.0,
        "warm-cache grid sweep must be >= 2x the cold path, got {speedup:.2}x"
    );

    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping criterion sampling");
        return;
    }

    // Criterion samples on the first workload only, cold vs warm.
    let w = &ws[0];
    let mut group = c.benchmark_group("solver/hot_path_grid");
    group.bench_function("cold", |b| {
        b.iter(|| black_box(scenario_for(w).sweep_grid(&w.grid).points.len()))
    });
    let warm_scenario = RefCell::new({
        let mut s = scenario_for(w);
        let _ = s.sweep_grid(&w.grid);
        s
    });
    group.bench_function("warm", |b| {
        b.iter(|| black_box(warm_scenario.borrow_mut().sweep_grid(&w.grid).points.len()))
    });
    group.finish();
}

criterion_group!(benches, bench_solver_hot_path);
criterion_main!(benches);
