//! Criterion benchmarks of the max-min allocator: scaling in network size,
//! session-type mix, and link-rate model, plus the paper's exact examples
//! as micro-cases.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{LinkRateConfig, LinkRateModel};
use mlf_net::topology::random_network;
use mlf_net::SessionType;
use std::hint::black_box;

fn bench_paper_examples(c: &mut Criterion) {
    let fig1 = mlf_net::paper::figure1();
    let fig2 = mlf_net::paper::figure2();
    let allocator = Hybrid::as_declared();
    let mut ws = SolverWorkspace::new();
    c.bench_function("allocator/figure1", |b| {
        b.iter(|| {
            black_box(
                allocator
                    .solve(&fig1.network, &mut ws)
                    .allocation
                    .total_rate(),
            )
        })
    });
    let mut ws = SolverWorkspace::new();
    c.bench_function("allocator/figure2_single_rate", |b| {
        b.iter(|| {
            black_box(
                allocator
                    .solve(&fig2.network, &mut ws)
                    .allocation
                    .total_rate(),
            )
        })
    });
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator/scaling");
    for &(nodes, sessions) in &[(10usize, 4usize), (30, 10), (100, 30), (300, 100)] {
        let net = random_network(42, nodes, sessions, 6).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{sessions}s")),
            &net,
            |b, net| {
                let allocator = Hybrid::as_declared();
                let mut ws = SolverWorkspace::new();
                b.iter(|| black_box(allocator.solve(net, &mut ws).allocation.total_rate()))
            },
        );
    }
    group.finish();
}

fn bench_session_types(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator/session_types");
    let net = random_network(7, 60, 20, 6).unwrap();
    let multi = net.with_uniform_kind(SessionType::MultiRate);
    let single = net.with_uniform_kind(SessionType::SingleRate);
    let allocator = Hybrid::as_declared();
    let mut ws = SolverWorkspace::new();
    group.bench_function("multi_rate", |b| {
        b.iter(|| black_box(allocator.solve(&multi, &mut ws).allocation.total_rate()))
    });
    group.bench_function("single_rate", |b| {
        b.iter(|| black_box(allocator.solve(&single, &mut ws).allocation.total_rate()))
    });
    group.finish();
}

fn bench_link_rate_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator/link_rate_models");
    let net = random_network(9, 60, 20, 6).unwrap();
    let m = net.session_count();
    for (name, cfg) in [
        ("efficient", LinkRateConfig::efficient(m)),
        (
            "scaled2",
            LinkRateConfig::uniform(m, LinkRateModel::Scaled(2.0)),
        ),
        ("sum", LinkRateConfig::uniform(m, LinkRateModel::Sum)),
        (
            "random_join",
            LinkRateConfig::uniform(m, LinkRateModel::RandomJoin { sigma: 100.0 }),
        ),
    ] {
        let mut ws = SolverWorkspace::new();
        group.bench_function(name, |b| {
            b.iter(|| {
                let sol = Hybrid::as_declared().solve_with(&net, &cfg, &mut ws);
                black_box(
                    sol.expect("the bench network solves")
                        .allocation
                        .total_rate(),
                )
            })
        });
    }
    group.finish();
}

fn bench_property_checks(c: &mut Criterion) {
    let net = random_network(11, 60, 20, 6).unwrap();
    let cfg = LinkRateConfig::efficient(net.session_count());
    let alloc = Hybrid::as_declared().allocate(&net);
    c.bench_function("properties/check_all_60n_20s", |b| {
        b.iter(|| black_box(mlf_core::check_all(&net, &cfg, &alloc)))
    });
}

criterion_group!(
    benches,
    bench_paper_examples,
    bench_scaling,
    bench_session_types,
    bench_link_rate_models,
    bench_property_checks
);
criterion_main!(benches);
