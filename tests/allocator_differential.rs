//! Differential coverage for the unified `Allocator` API: on every paper
//! figure network, each `Allocator` implementation must produce
//! **bitwise-identical** allocations to the legacy engine it replaced —
//! the pre-index solvers frozen verbatim in `mlf_core::reference`, which
//! the old free functions ran — workspace reuse must be transparent, and
//! `Scenario::sweep` must be deterministic under a fixed seed.

use mlf_core::allocator::{
    Allocator, Hybrid, MultiRate, Regimes, SingleRate, SolverWorkspace, Unicast, Weighted,
};
use mlf_core::{reference, Allocation, LinkRateConfig, LinkRateModel, Weights};
use mlf_net::SessionType;
use mlf_net::{paper, Network};
use mlf_scenario::{Scenario, SweepGrid};

/// Every paper figure network, by name: the differential corpus.
fn paper_networks() -> Vec<(&'static str, Network)> {
    let fig3a = paper::figure3a();
    let fig3b = paper::figure3b();
    vec![
        ("figure1", paper::figure1().network),
        ("figure2", paper::figure2().network),
        ("figure2_multi_rate", paper::figure2_multi_rate().network),
        ("figure3a", fig3a.network.clone()),
        (
            "figure3a_removed",
            fig3a.network.without_receiver(fig3a.removed).unwrap(),
        ),
        ("figure3b", fig3b.network.clone()),
        (
            "figure3b_removed",
            fig3b.network.without_receiver(fig3b.removed).unwrap(),
        ),
        ("figure4", paper::figure4().network),
        ("single_link", paper::single_link(6.0)),
    ]
}

/// Exact (bitwise) equality of allocations — the trait engines reproduce the
/// legacy engine exactly, so not even the last ulp may differ.
fn assert_bitwise(name: &str, legacy: &Allocation, new: &Allocation) {
    assert_eq!(
        legacy.rates(),
        new.rates(),
        "{name}: legacy and trait allocations diverge"
    );
}

fn efficient(net: &Network) -> LinkRateConfig {
    LinkRateConfig::efficient(net.session_count())
}

/// The legacy engine with every session forced to one type, efficient
/// link rates.
fn legacy_uniform(net: &Network, kind: SessionType) -> Allocation {
    reference::solve_in(net, &efficient(net), &Regimes::Uniform(kind)).allocation
}

#[test]
fn hybrid_matches_max_min_allocation_on_every_paper_network() {
    let mut ws = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        let legacy = reference::solve(&net, &efficient(&net)).allocation;
        let new = Hybrid::as_declared().solve(&net, &mut ws).allocation;
        assert_bitwise(name, &legacy, &new);
    }
}

#[test]
fn hybrid_with_config_matches_max_min_allocation_with() {
    let mut ws = SolverWorkspace::new();
    let models = [
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(2.0),
        LinkRateModel::Sum,
        LinkRateModel::RandomJoin { sigma: 8.0 },
    ];
    for (name, net) in paper_networks() {
        for model in models {
            let cfg = LinkRateConfig::uniform(net.session_count(), model);
            let legacy = reference::solve(&net, &cfg).allocation;
            let new = Hybrid::as_declared()
                .with_config(cfg)
                .solve(&net, &mut ws)
                .allocation;
            assert_bitwise(&format!("{name}/{model:?}"), &legacy, &new);
        }
    }
}

#[test]
fn multi_rate_matches_its_legacy_function() {
    let mut ws = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        let legacy = legacy_uniform(&net, SessionType::MultiRate);
        let new = MultiRate::new().solve(&net, &mut ws).allocation;
        assert_bitwise(name, &legacy, &new);
    }
}

#[test]
fn single_rate_matches_its_legacy_function() {
    let mut ws = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        let legacy = legacy_uniform(&net, SessionType::SingleRate);
        let new = SingleRate::new().solve(&net, &mut ws).allocation;
        assert_bitwise(name, &legacy, &new);
    }
}

#[test]
fn weighted_matches_its_legacy_function_on_multi_rate_networks() {
    let mut ws = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        // The weighted solver is defined for multi-rate sessions only.
        if !net.sessions().iter().all(|s| s.kind.is_multi_rate()) {
            continue;
        }
        // Deterministic non-uniform weights shaped like the network.
        let weights = Weights::from_values(
            net.sessions()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (0..s.receivers.len())
                        .map(|k| 1.0 + ((3 * i + 5 * k) % 4) as f64)
                        .collect()
                })
                .collect(),
        );
        let legacy = reference::weighted_solve(&net, &weights).allocation;
        let new = Weighted::new(weights).solve(&net, &mut ws).allocation;
        assert_bitwise(name, &legacy, &new);
    }
}

#[test]
fn unicast_matches_its_legacy_function_on_unicast_networks() {
    let mut ws = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        if !net.sessions().iter().all(|s| s.is_unicast()) {
            continue; // single_link qualifies; the multicast figures don't
        }
        let legacy = reference::unicast_solve(&net).allocation;
        let new = Unicast::new().solve(&net, &mut ws).allocation;
        assert_bitwise(name, &legacy, &new);
    }
    // Make sure the corpus actually exercised this branch.
    assert!(paper_networks()
        .iter()
        .any(|(_, net)| net.sessions().iter().all(|s| s.is_unicast())));
}

#[test]
fn paper_expected_rates_survive_the_migration() {
    // The figures' published numbers, through the new API end to end.
    let mut ws = SolverWorkspace::new();
    for (name, ex) in [
        ("figure1", paper::figure1()),
        ("figure2", paper::figure2()),
        ("figure2_multi_rate", paper::figure2_multi_rate()),
    ] {
        let alloc = Hybrid::as_declared().solve(&ex.network, &mut ws).allocation;
        for (i, session) in ex.expected_rates.iter().enumerate() {
            for (k, &expected) in session.iter().enumerate() {
                let got = alloc.rate(mlf_net::ReceiverId::new(i, k));
                assert!(
                    (got - expected).abs() < 1e-9,
                    "{name}: r{},{} expected {expected}, got {got}",
                    i + 1,
                    k + 1
                );
            }
        }
    }
}

#[test]
fn workspace_reuse_never_changes_results() {
    // Interleave shapes and regimes through ONE workspace and compare
    // against cold solves: scratch reuse must be invisible.
    let mut warm = SolverWorkspace::new();
    for (name, net) in paper_networks() {
        let declared_warm = Hybrid::as_declared().solve(&net, &mut warm).allocation;
        let multi_warm = MultiRate::new().solve(&net, &mut warm).allocation;
        let declared_cold = Hybrid::as_declared().allocate(&net);
        let multi_cold = MultiRate::new().allocate(&net);
        assert_bitwise(&format!("{name}/declared"), &declared_cold, &declared_warm);
        assert_bitwise(&format!("{name}/multi"), &multi_cold, &multi_warm);
    }
}

#[test]
fn scenario_sweeps_are_deterministic_under_a_fixed_seed() {
    let build = || {
        Scenario::builder()
            .label("differential-sweep")
            .random_networks(14, 5, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap()
    };
    // Same scenario object, swept twice.
    let mut s = build();
    let first = s.sweep(0..16);
    let second = s.sweep(0..16);
    assert_eq!(first, second, "sweep must be a pure function of its seeds");
    // A fresh scenario object reproduces the same points.
    let mut fresh = build();
    assert_eq!(first, fresh.sweep(0..16));
    // Grid sweeps too.
    let grid = SweepGrid::seeds(0..6).with_models([
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(1.5),
        LinkRateModel::Sum,
    ]);
    let g1 = s.sweep_grid(&grid);
    let g2 = fresh.sweep_grid(&grid);
    assert_eq!(g1, g2);
    assert_eq!(g1.points.len(), 18);
}

#[test]
fn shims_and_trait_also_agree_on_random_networks() {
    // Beyond the paper corpus: 25 random mixed networks.
    let mut ws = SolverWorkspace::new();
    for seed in 0..25u64 {
        let net = mlf_net::topology::random_network(seed, 14, 5, 4).unwrap();
        assert_bitwise(
            &format!("random-{seed}"),
            &reference::solve(&net, &efficient(&net)).allocation,
            &Hybrid::as_declared().solve(&net, &mut ws).allocation,
        );
        assert_bitwise(
            &format!("random-{seed}/single"),
            &legacy_uniform(&net, SessionType::SingleRate),
            &SingleRate::new().solve(&net, &mut ws).allocation,
        );
    }
}
