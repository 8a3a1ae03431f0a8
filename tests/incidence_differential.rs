//! Differential: the incidence-indexed solver core is **bitwise identical**
//! to the frozen pre-refactor reference (`mlf_core::reference`).
//!
//! The optimized engines replace the reference's `links × sessions ×
//! receivers` rescans with CSR incidence iteration and incrementally
//! maintained per-slot aggregates; their contract is that every produced
//! bit — rates, freeze reasons, iteration counts — matches the old scans.
//! These tests drive that claim across all four `TopologyFamily` variants
//! crossed with every link-rate model (including the nonlinear
//! `RandomJoin` bisection path), randomized session-type mixes and κ caps,
//! plus the weighted and unicast engines. The `random_join_*` cases focus
//! on the bisection path: the Figure-5 sweep shape, per-session layer
//! rates mixed with linear sessions, and workspace reuse across shapes
//! and models.

use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SolverWorkspace, Unicast, Weighted};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes, Weights};
use mlf_net::topology::{random_network_with, random_tree, SplitMix64};
use mlf_net::{Network, NodeId, Session, SessionId, SessionType, TopologyFamily};
use proptest::prelude::*;

const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 3 },
    TopologyFamily::Dumbbell,
];

const MODELS: [LinkRateModel; 4] = [
    LinkRateModel::Efficient,
    LinkRateModel::Scaled(2.0),
    LinkRateModel::Sum,
    LinkRateModel::RandomJoin { sigma: 4.0 },
];

fn assert_bitwise(
    label: &str,
    optimized: &mlf_core::MaxMinSolution,
    reference: &mlf_core::MaxMinSolution,
) {
    // PartialEq on MaxMinSolution compares f64 rates by value; spell the
    // bit-level comparison out so -0.0/0.0 or NaN drift cannot hide.
    assert_eq!(
        optimized.iterations, reference.iterations,
        "{label}: iteration counts diverged"
    );
    assert_eq!(optimized.reasons, reference.reasons, "{label}: reasons");
    let a = optimized.allocation.rates();
    let b = reference.allocation.rates();
    assert_eq!(a.len(), b.len(), "{label}: session count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{label}: receiver count of s{i}");
        for (k, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: r{i},{k} differs: {x} vs {y}"
            );
        }
    }
}

/// A random network of the given family, with a deterministic sprinkle of
/// single-rate sessions and κ caps derived from the seed.
fn mixed_network(family: TopologyFamily, seed: u64, nodes: usize) -> Network {
    sprinkle(
        random_network_with(family, seed, nodes, 5, 4).unwrap(),
        seed,
    )
}

/// Flip about a third of the sessions single-rate and cap about a third
/// at κ ∈ [0.5, 10.25], deterministically from the seed.
fn sprinkle(mut net: Network, seed: u64) -> Network {
    let mut rng = SplitMix64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in 0..net.session_count() {
        if rng.below(3) == 0 {
            net = net.with_session_kind(SessionId(i), SessionType::SingleRate);
        }
    }
    let mut sessions = net.sessions().to_vec();
    for s in sessions.iter_mut() {
        if rng.below(3) == 0 {
            s.max_rate = 0.5 + rng.below(40) as f64 * 0.25;
        }
    }
    Network::with_routes(net.graph().clone(), sessions, net.routes())
        .expect("same routes remain valid")
}

/// The Figure-5 layer model.
const FIG5_MODEL: LinkRateModel = LinkRateModel::RandomJoin { sigma: 6.0 };

/// Per-session models: about two thirds `RandomJoin` with σ drawn from
/// {1, 2, 4, 6, 8}, the rest linear, deterministically from the seed.
fn mixed_sigma_config(net: &Network, seed: u64) -> LinkRateConfig {
    const SIGMAS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];
    let mut rng = SplitMix64(seed ^ 0x51_6D_A5);
    let mut cfg = LinkRateConfig::efficient(net.session_count());
    for i in 0..net.session_count() {
        let model = if rng.below(3) < 2 {
            LinkRateModel::RandomJoin {
                sigma: SIGMAS[rng.below(SIGMAS.len())],
            }
        } else {
            MODELS[rng.below(3)]
        };
        cfg = cfg.with_session(i, model);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hybrid (declared session types) under every model × family: the
    /// full generalized progressive-filling engine, linear and bisection
    /// paths alike.
    #[test]
    fn hybrid_matches_reference(
        seed in any::<u64>(),
        nodes in 6usize..24,
        family_ix in 0usize..4,
        model_ix in 0usize..4,
    ) {
        let family = FAMILIES[family_ix];
        let model = MODELS[model_ix];
        let net = mixed_network(family, seed, nodes);
        let cfg = LinkRateConfig::uniform(net.session_count(), model);
        let mut ws = SolverWorkspace::new();
        let optimized = Hybrid::as_declared()
            .with_config(cfg.clone())
            .solve(&net, &mut ws);
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(
            &format!("{}/{:?}/seed {seed}", family.label(), model),
            &optimized,
            &reference,
        );
    }

    /// Per-session model mixes (different models on one link) through a
    /// reused workspace — aggregate state must not leak across solves.
    #[test]
    fn mixed_models_match_reference(seed in any::<u64>(), nodes in 6usize..20) {
        let net = mixed_network(TopologyFamily::FlatTree, seed, nodes);
        let mut cfg = LinkRateConfig::efficient(net.session_count());
        for i in 0..net.session_count() {
            cfg = cfg.with_session(i, MODELS[(seed as usize + i) % MODELS.len()]);
        }
        let mut ws = SolverWorkspace::new();
        for _ in 0..2 {
            let optimized = Hybrid::as_declared()
                .with_config(cfg.clone())
                .solve(&net, &mut ws);
            let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
            assert_bitwise(&format!("mixed/seed {seed}"), &optimized, &reference);
        }
    }

    /// The Figure-5 sweep shape (30 nodes, 8 sessions, ≤5 receivers,
    /// `RandomJoin{σ=6}`, all multi-rate) over every family: the
    /// workload the per-position miss factors and the early-exit
    /// bisection were built for.
    #[test]
    fn random_join_fig5_shape_matches_reference(seed in any::<u64>(), family_ix in 0usize..4) {
        let family = FAMILIES[family_ix];
        let net = random_network_with(family, seed, 30, 8, 5).unwrap();
        let cfg = LinkRateConfig::uniform(net.session_count(), FIG5_MODEL);
        let optimized = MultiRate::with_config(cfg.clone()).solve(&net, &mut SolverWorkspace::new());
        let reference =
            reference::solve_in(&net, &cfg, &Regimes::Uniform(SessionType::MultiRate));
        assert_bitwise(&format!("fig5/{}/seed {seed}", family.label()), &optimized, &reference);
    }

    /// Per-session layer rates σ ∈ {1, 2, 4, 6, 8} mixed with linear
    /// sessions on shared links, single-rate sessions and κ caps on both
    /// sides of σ.
    #[test]
    fn random_join_mixed_sigmas_match_reference(
        seed in any::<u64>(),
        nodes in 8usize..30,
        family_ix in 0usize..4,
    ) {
        let family = FAMILIES[family_ix];
        let net = sprinkle(random_network_with(family, seed, nodes, 6, 5).unwrap(), seed);
        let cfg = mixed_sigma_config(&net, seed);
        let optimized = Hybrid::as_declared()
            .with_config(cfg.clone())
            .solve(&net, &mut SolverWorkspace::new());
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(&format!("sigmas/{}/seed {seed}", family.label()), &optimized, &reference);
    }

    /// One workspace across shapes and models: RandomJoin on one network,
    /// Efficient on a differently shaped one, RandomJoin on that, then the
    /// first again. Stale per-position factors or flags from an earlier
    /// solve would show up as a bit difference.
    #[test]
    fn random_join_workspace_reuse_matches_reference(seed in any::<u64>(), family_ix in 0usize..4) {
        let a = random_network_with(FAMILIES[family_ix], seed, 30, 8, 5).unwrap();
        let b = sprinkle(
            random_network_with(FAMILIES[(family_ix + 1) % 4], seed ^ 1, 14, 4, 4).unwrap(),
            seed,
        );
        let mixed = mixed_sigma_config(&b, seed);
        let solves = [
            (&a, LinkRateConfig::uniform(a.session_count(), FIG5_MODEL)),
            (&b, LinkRateConfig::efficient(b.session_count())),
            (&b, mixed),
            (&a, LinkRateConfig::uniform(a.session_count(), FIG5_MODEL)),
        ];
        let mut ws = SolverWorkspace::new();
        for (step, (net, cfg)) in solves.iter().enumerate() {
            let optimized = Hybrid::as_declared().with_config(cfg.clone()).solve(net, &mut ws);
            let reference = reference::solve_in(net, cfg, &Regimes::AsDeclared);
            assert_bitwise(&format!("reuse step {step}/seed {seed}"), &optimized, &reference);
        }
    }

    /// Links in series with equal capacities carry the same receivers, so
    /// their loads are the same function of the level and their
    /// saturation levels tie exactly: every bisection after the first
    /// reaches the running minimum only on its last step. An early exit
    /// that fired before `lo ≥ best` would lower the round's level.
    #[test]
    fn random_join_tied_links_match_reference(
        hops in 2usize..5,
        fanout in 2usize..5,
        cap_ix in 0usize..6,
        leaf_ix in 0usize..3,
        sigma_ix in 0usize..5,
        linear_mate in 0usize..2,
    ) {
        const CAPS: [f64; 6] = [1.5, 2.0, 3.0, 4.5, 7.0, 10.0];
        const LEAF_CAPS: [f64; 3] = [0.75, 2.5, 100.0];
        let mut g = mlf_net::Graph::new();
        let chain = g.add_nodes(hops + 1);
        for w in chain.windows(2) {
            g.add_link(w[0], w[1], CAPS[cap_ix]).unwrap();
        }
        let leaves = g.add_nodes(fanout);
        for &leaf in &leaves {
            g.add_link(chain[hops], leaf, LEAF_CAPS[leaf_ix]).unwrap();
        }
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(chain[0], leaves.clone()),
                Session::multi_rate(chain[0], vec![leaves[0], leaves[fanout - 1]]),
                Session::unicast(chain[0], leaves[0]),
            ],
        )
        .unwrap();
        let rj = LinkRateModel::RandomJoin { sigma: [1.0, 2.0, 4.0, 6.0, 8.0][sigma_ix] };
        let mate = if linear_mate == 1 { LinkRateModel::Efficient } else { rj };
        let cfg = LinkRateConfig::per_session(vec![rj, rj, mate]);
        let optimized = Hybrid::as_declared()
            .with_config(cfg.clone())
            .solve(&net, &mut SolverWorkspace::new());
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(
            &format!("tied/{hops} hops/{fanout} leaves/cap {cap_ix}/leaf {leaf_ix}/{rj:?}"),
            &optimized,
            &reference,
        );
    }

    /// The weighted engine against its reference, with deterministic
    /// pseudo-random weights.
    #[test]
    fn weighted_matches_reference(seed in any::<u64>(), nodes in 6usize..20, family_ix in 0usize..4) {
        let net = random_network_with(FAMILIES[family_ix], seed, nodes, 4, 4).unwrap();
        let w = Weights::from_values(
            net.sessions()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (0..s.receivers.len())
                        .map(|k| 0.5 + ((seed as usize + 3 * i + 7 * k) % 9) as f64 * 0.375)
                        .collect()
                })
                .collect(),
        );
        let mut ws = SolverWorkspace::new();
        let optimized = Weighted::new(w.clone()).solve(&net, &mut ws);
        let reference = reference::weighted_solve(&net, &w);
        assert_bitwise(&format!("weighted/seed {seed}"), &optimized, &reference);
    }
}

/// The unicast engine against its reference on random all-unicast trees.
#[test]
fn unicast_matches_reference() {
    let mut rng = SplitMix64(0xD1FF_EE12_71A1 ^ 0xABCD);
    let mut ws = SolverWorkspace::new();
    for seed in 0..60u64 {
        let g = random_tree(seed, 12, 1.0, 8.0);
        let nodes = g.node_count();
        let mut sessions = Vec::new();
        for s in 0..5 {
            let from = NodeId((seed as usize + s) % nodes);
            let mut to = NodeId(rng.below(nodes));
            if to == from {
                to = NodeId((to.0 + 1) % nodes);
            }
            let mut sess = Session::unicast(from, to);
            if rng.below(3) == 0 {
                sess = sess.with_max_rate(0.5 + rng.below(20) as f64 * 0.3);
            }
            sessions.push(sess);
        }
        let net = Network::new(g, sessions).unwrap();
        let optimized = Unicast::new().solve(&net, &mut ws);
        let reference = reference::unicast_solve(&net);
        assert_bitwise(&format!("unicast/seed {seed}"), &optimized, &reference);
    }
}

/// Grid differential: a seed-major grid sweep, which solves every model
/// on one build of each seed's topology, equals one single-model sweep
/// per model concatenated, and the coordinated grid sweep (one topology
/// build per job) at several thread counts, bitwise across every family.
#[test]
fn seed_major_grid_sweeps_match_per_model_sweeps_across_families() {
    use mlf_scenario::checkpoint::encode_point;
    use mlf_scenario::{CoordinatorConfig, LinkRates, Scenario, SweepGrid, SweepPoint};

    let bits = |points: &[SweepPoint]| points.iter().map(encode_point).collect::<Vec<_>>();
    let models = [LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)];
    for family in FAMILIES {
        let mut s = Scenario::builder()
            .label(family.label())
            .random_networks_with(family, 16, 4, 4)
            .link_rates(LinkRates::Uniform(LinkRateModel::Efficient))
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..6).with_models(models);
        let seed_major = s.sweep_grid(&grid);
        let per_model: Vec<SweepPoint> = models
            .iter()
            .flat_map(|&m| {
                s.sweep_grid(&SweepGrid::seeds(0..6).with_models([m]))
                    .points
            })
            .collect();
        assert_eq!(
            bits(&seed_major.points),
            bits(&per_model),
            "{}: seed-major grid diverged from per-model sweeps",
            family.label()
        );
        for threads in [1usize, 2, 3] {
            let par = s
                .coordinate_grid(&grid, &CoordinatorConfig::threads(threads))
                .expect("thread sweep")
                .report;
            assert_eq!(
                bits(&seed_major.points),
                bits(&par.points),
                "{} at {threads} threads",
                family.label()
            );
        }
    }
}

/// The paper's fixture networks, for good measure (fixed shapes exercise
/// free riders and single-rate closures deliberately).
#[test]
fn paper_figures_match_reference() {
    for (label, net) in [
        ("figure1", mlf_net::paper::figure1().network),
        ("figure2", mlf_net::paper::figure2().network),
        ("figure3a", mlf_net::paper::figure3a().network),
    ] {
        let cfg = LinkRateConfig::efficient(net.session_count());
        let mut ws = SolverWorkspace::new();
        let optimized = Hybrid::as_declared().solve(&net, &mut ws);
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(label, &optimized, &reference);
    }
}
