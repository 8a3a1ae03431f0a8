//! Benchmarks the hot-path claim: `Allocator::solve` with a reused
//! `SolverWorkspace` vs a fresh workspace per call, on the
//! Figure 5 random-join sweep (RandomJoin link-rate models force the
//! bisection solver, the allocator's most scratch-hungry code path).
//!
//! Alongside wall-clock timings, a counting global allocator reports heap
//! allocations **per solve** for both paths — the number the workspace
//! design exists to cut.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{LinkRateConfig, LinkRateModel};
use mlf_net::topology::random_network;
use mlf_net::Network;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a relaxed counter increment on the allocation path.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The sweep corpus: one network per seed, all sessions under the Appendix B
/// random-join model (Figure 5's setting, fed back into the allocator).
fn sweep_corpus() -> (Vec<Network>, LinkRateConfig) {
    let nets: Vec<Network> = (0..24u64)
        .map(|s| random_network(s, 30, 8, 5).unwrap())
        .collect();
    let cfg = LinkRateConfig::uniform(8, LinkRateModel::RandomJoin { sigma: 6.0 });
    (nets, cfg)
}

fn fresh_sweep(nets: &[Network], allocator: &Hybrid) -> f64 {
    nets.iter()
        .map(|net| {
            allocator
                .solve(net, &mut SolverWorkspace::new())
                .allocation
                .total_rate()
        })
        .sum()
}

fn workspace_sweep(nets: &[Network], allocator: &Hybrid, ws: &mut SolverWorkspace) -> f64 {
    nets.iter()
        .map(|net| allocator.solve(net, ws).allocation.total_rate())
        .sum()
}

fn report_allocation_counts(nets: &[Network], cfg: &LinkRateConfig) {
    let allocator = Hybrid::as_declared().with_config(cfg.clone());
    let mut ws = SolverWorkspace::new();
    // Warm the workspace so steady-state reuse is measured, then compare.
    let (warm_total, _) = allocations_during(|| workspace_sweep(nets, &allocator, &mut ws));
    let (reused_total, reused_allocs) =
        allocations_during(|| workspace_sweep(nets, &allocator, &mut ws));
    let (fresh_total, fresh_allocs) = allocations_during(|| fresh_sweep(nets, &allocator));
    assert_eq!(warm_total, reused_total);
    assert_eq!(reused_total, fresh_total, "paths must agree");
    let n = nets.len() as u64;
    println!(
        "allocations/solve over the {n}-network random-join sweep: \
         fresh workspace per call {}  |  reused workspace {}  ({:.1}x fewer)",
        fresh_allocs / n,
        reused_allocs / n,
        fresh_allocs as f64 / reused_allocs.max(1) as f64
    );
}

fn bench_sweep(c: &mut Criterion) {
    let (nets, cfg) = sweep_corpus();
    report_allocation_counts(&nets, &cfg);

    let mut group = c.benchmark_group("allocator/fig5_random_join_sweep");
    let allocator = Hybrid::as_declared().with_config(cfg.clone());
    group.bench_function("fresh_workspace", |b| {
        b.iter(|| black_box(fresh_sweep(&nets, &allocator)))
    });
    let mut ws = SolverWorkspace::new();
    group.bench_function("reused_workspace", |b| {
        b.iter(|| black_box(workspace_sweep(&nets, &allocator, &mut ws)))
    });
    group.finish();
}

fn bench_single_network_resolve(c: &mut Criterion) {
    // The simulation-loop shape: the same network solved over and over.
    let net = random_network(7, 40, 10, 5).unwrap();
    let cfg = LinkRateConfig::efficient(10);
    let allocator = Hybrid::as_declared().with_config(cfg.clone());
    let mut ws = SolverWorkspace::new();
    let mut group = c.benchmark_group("allocator/repeated_resolve_40n_10s");
    group.bench_function("fresh_workspace", |b| {
        b.iter(|| black_box(allocator.solve(&net, &mut SolverWorkspace::new())))
    });
    group.bench_function("reused_workspace", |b| {
        b.iter(|| black_box(allocator.solve(&net, &mut ws).allocation.total_rate()))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_single_network_resolve);
criterion_main!(benches);
