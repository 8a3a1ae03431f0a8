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
//! on the bracketed saturation search: the Figure-5 sweep shape,
//! per-session layer rates mixed with linear sessions, workspace reuse
//! across shapes and models, tied and near-tied crossings, and inputs at
//! the edges of the validated range.

use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SolverWorkspace, Unicast, Weighted};
use mlf_core::{reference, LinkRateConfig, LinkRateModel, Regimes, SolveError, Weights};
use mlf_net::topology::{random_network_with, random_tree, SplitMix64};
use mlf_net::{Graph, NetError, Network, NodeId, Session, SessionId, SessionType, TopologyFamily};
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

/// Solve `net` under `cfg` with `solve_with` and the reference: bitwise
/// equal when the reference finishes, `SolveError::Stalled` at the same
/// level exactly where the reference panics with "made no progress".
/// Returns the solve's counters.
fn assert_bitwise_or_both_stall(
    label: &str,
    net: &Network,
    cfg: &LinkRateConfig,
) -> mlf_core::SolveCounters {
    let mut ws = SolverWorkspace::new();
    let optimized = Hybrid::as_declared().solve_with(net, cfg, &mut ws);
    assert_agrees_or_both_stall(label, optimized, || {
        reference::solve_in(net, cfg, &Regimes::AsDeclared)
    });
    ws.counters()
}

/// An optimized solve against its reference: bitwise equal when the
/// reference finishes, `SolveError::Stalled` at the same level exactly
/// where the reference panics with "made no progress".
fn assert_agrees_or_both_stall(
    label: &str,
    optimized: Result<mlf_core::MaxMinSolution, SolveError>,
    reference: impl FnOnce() -> mlf_core::MaxMinSolution + std::panic::UnwindSafe,
) {
    let reference = std::panic::catch_unwind(reference);
    match (optimized, reference) {
        (Ok(optimized), Ok(reference)) => assert_bitwise(label, &optimized, &reference),
        (Err(SolveError::Stalled { level }), Err(panic)) => {
            let message = panic.downcast_ref::<String>().map_or("", |m| m.as_str());
            assert!(
                message.contains(&format!("made no progress at level {level}")),
                "{label}: stalled at level {level}; the reference: {message}"
            );
        }
        (optimized, reference) => panic!(
            "{label}: optimized {:?} vs reference finished {}",
            optimized.err(),
            reference.is_ok()
        ),
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
    cap_sessions(net, &mut rng)
}

/// Cap about a third of the sessions at κ ∈ [0.5, 10.25], drawn from `rng`.
fn cap_sessions(net: Network, rng: &mut SplitMix64) -> Network {
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
            .solve_with(&net, &cfg, &mut ws)
            .expect("solvable");
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
                .solve_with(&net, &cfg, &mut ws)
                .expect("solvable");
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
        let optimized = MultiRate::new()
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable");
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
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable");
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
            let optimized = Hybrid::as_declared()
                .solve_with(net, cfg, &mut ws)
                .expect("solvable");
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
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable");
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(
            &format!("tied/{hops} hops/{fanout} leaves/cap {cap_ix}/leaf {leaf_ix}/{rj:?}"),
            &optimized,
            &reference,
        );
    }

    /// A linear link saturates in closed form at `s`; a `RandomJoin` link
    /// crosses its capacity at `s + δ`, with `δ` below the bisection's
    /// `1e-13` tolerance. The bisection of the `RandomJoin` link can end
    /// below `s`, so the round's level is that link's, not `s`. A skip
    /// probe with no margin above the running minimum would see
    /// `u(s) ≤ c` and keep `s`.
    #[test]
    fn random_join_near_tied_crossings_match_reference(
        seed in any::<u64>(),
        receivers in 1usize..4,
        sigma_ix in 0usize..4,
        linear_ix in 0usize..2,
    ) {
        let mut rng = SplitMix64(seed);
        let sigma = [1.0, 2.0, 6.0, 8.0][sigma_ix];
        let s = sigma * (0.05 + 0.9 * rng.unit());
        let delta = 1e-13 * (1.0 + s) * rng.unit();
        let rj = LinkRateModel::RandomJoin { sigma };
        let cap_rj = rj.link_rate(&vec![s + delta; receivers]);
        // src -(s)- a: the linear unicast; src -(cap_rj)- hub -(100)- leaves:
        // the RandomJoin session.
        let mut g = Graph::new();
        let src = g.add_node();
        let a = g.add_node();
        let hub = g.add_node();
        g.add_link(src, a, s).unwrap();
        g.add_link(src, hub, cap_rj).unwrap();
        let leaves = g.add_nodes(receivers);
        for &leaf in &leaves {
            g.add_link(hub, leaf, 100.0).unwrap();
        }
        let linear = [LinkRateModel::Efficient, LinkRateModel::Sum][linear_ix];
        let net = Network::new(
            g,
            vec![Session::unicast(src, a), Session::multi_rate(src, leaves)],
        )
        .unwrap();
        let cfg = LinkRateConfig::per_session(vec![linear, rj]);
        let optimized = Hybrid::as_declared()
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable");
        let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
        assert_bitwise(
            &format!("near-tie/s {s}/δ {delta}/{receivers} receivers/{rj:?}/{linear:?}"),
            &optimized,
            &reference,
        );
    }

    /// Inputs at the edges of what `Network::new` and
    /// `LinkRateModel::validate` accept: subnormal, tiny and huge σ,
    /// capacities from 1e-300 to 1e300, tiny and huge κ, and linear
    /// sessions mixed in. The solver must not panic: where the reference
    /// stalls (its "made no progress" assert), `solve_with` returns
    /// `SolveError::Stalled`; everywhere else the two agree bitwise. The
    /// counters show the bracketed search spent at most one probe per
    /// settled link plus two evaluations per replayed halving. A κ of 0
    /// is a typed `NetError`.
    #[test]
    fn random_join_extreme_inputs_match_reference(seed in any::<u64>(), family_ix in 0usize..4) {
        const SIGMAS: [f64; 9] = [5e-324, 1e-310, 1e-200, 1e-9, 1.0, 6.0, 1e12, 1e200, 1e300];
        const LINEAR: [LinkRateModel; 3] =
            [LinkRateModel::Efficient, LinkRateModel::Sum, LinkRateModel::Scaled(2.0)];
        let mut rng = SplitMix64(seed ^ 0xE7_7E3E);
        let base = random_network_with(FAMILIES[family_ix], seed, 12, 4, 4).unwrap();
        // One magnitude per network, jittered per link, so links compete;
        // σ and κ are drawn near it or from the extremes.
        let exponent = match rng.below(3) {
            0 => rng.below(7) as i32 - 3,
            _ => rng.below(601) as i32 - 300,
        };
        let magnitude = 10f64.powi(exponent);
        let near = |rng: &mut SplitMix64| magnitude * 10f64.powf(2.0 * rng.unit() - 1.0);
        let mut g = Graph::new();
        g.add_nodes(base.graph().node_count());
        for (_, link) in base.graph().links() {
            let jitter = [1.0, 0.5 + rng.unit(), 10f64.powi(rng.below(7) as i32 - 3)][rng.below(3)];
            g.add_link(link.a, link.b, (magnitude * jitter).clamp(1e-300, 1e300)).unwrap();
        }
        let mut sessions = base.sessions().to_vec();
        let mut models = Vec::new();
        for s in sessions.iter_mut() {
            s.max_rate = match rng.below(5) {
                0 => 5e-324,
                1 => 10f64.powi(rng.below(601) as i32 - 300),
                2 => near(&mut rng),
                _ => s.max_rate,
            };
            let sigma = match rng.below(2) {
                0 => SIGMAS[rng.below(SIGMAS.len())],
                _ => near(&mut rng),
            };
            models.push(if rng.below(4) == 0 {
                LINEAR[rng.below(LINEAR.len())]
            } else {
                LinkRateModel::RandomJoin { sigma }
            });
        }
        let mut zero = sessions.clone();
        zero[0].max_rate = 0.0;
        let zero = Network::with_routes(g.clone(), zero, base.routes());
        prop_assert!(matches!(zero, Err(NetError::BadMaxRate { .. })), "κ = 0 accepted");
        let net = Network::with_routes(g, sessions, base.routes()).unwrap();
        let cfg = LinkRateConfig::per_session(models);
        let label = format!("extreme/{}/seed {seed}", FAMILIES[family_ix].label());
        let c = assert_bitwise_or_both_stall(&label, &net, &cfg);
        prop_assert!(
            c.bracket_probes <= c.bracket_resolved + 2 * c.bisection_steps,
            "{label}: {c:?}"
        );
    }

    /// The weighted engine against its reference, with deterministic
    /// pseudo-random weights, and finite κ on about a third of the sessions
    /// when `capped` (the per-receiver κ test is where the weighted steps
    /// differ from the unweighted ones as floating-point expressions).
    #[test]
    fn weighted_matches_reference(
        seed in any::<u64>(),
        nodes in 6usize..20,
        family_ix in 0usize..4,
        capped in any::<bool>(),
    ) {
        let net = random_network_with(FAMILIES[family_ix], seed, nodes, 4, 4).unwrap();
        let net = if capped {
            cap_sessions(net, &mut SplitMix64(seed ^ 0x6A09_E667_F3BC_C909))
        } else {
            net
        };
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

/// The solvers' saturation tolerance: a link within it of its capacity is
/// full.
const RATE_EPS: f64 = 1e-9;

/// The piecewise-linear models, with `Scaled` factors across their domain
/// `v ≥ 1` (the slopes below 1 come from `Weighted` weights).
fn linear_model(rng: &mut SplitMix64) -> LinkRateModel {
    const FACTORS: [f64; 5] = [1.0, 1.5, 2.0, 8.0, 1e3];
    match rng.below(3) {
        0 => LinkRateModel::Efficient,
        1 => LinkRateModel::Sum,
        _ => LinkRateModel::Scaled(FACTORS[rng.below(FACTORS.len())]),
    }
}

/// `net` with link `j`'s capacity replaced by `cap(j)`, same sessions and
/// routes.
fn recapacitated(net: &Network, mut cap: impl FnMut(usize) -> f64) -> Network {
    let mut g = Graph::new();
    g.add_nodes(net.graph().node_count());
    for (id, link) in net.graph().links() {
        g.add_link(link.a, link.b, cap(id.0)).unwrap();
    }
    Network::with_routes(g, net.sessions().to_vec(), net.routes())
        .expect("same routes remain valid")
}

/// Capacities that make saturation levels tie or nearly tie, round after
/// round: one of four values at a magnitude up to 1e6, plus 0, 1 or 2
/// times one offset `δ ≤ RATE_EPS` drawn per network.
fn near_tied_capacities(net: &Network, rng: &mut SplitMix64) -> Network {
    let magnitude = 10f64.powi(rng.below(7) as i32) / 4.0;
    let delta = RATE_EPS * rng.unit();
    recapacitated(net, |_| {
        (1 + rng.below(4)) as f64 * magnitude + rng.below(3) as f64 * delta
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Linear links in series with equal capacities carry the same
    /// receivers, so their saturation levels tie exactly in every round,
    /// and the clean links of a round tie with the dirty ones. A floor that
    /// let a clean link out of `min` when it ties would lose that link's
    /// freezes.
    #[test]
    fn linear_tied_links_match_reference(
        hops in 2usize..5,
        fanout in 2usize..5,
        cap_ix in 0usize..6,
        leaf_ix in 0usize..3,
        seed in any::<u64>(),
        single in any::<bool>(),
    ) {
        const CAPS: [f64; 6] = [1.5, 2.0, 3.0, 4.5, 7.0, 10.0];
        const LEAF_CAPS: [f64; 3] = [0.75, 2.5, 100.0];
        let mut rng = SplitMix64(seed);
        let mut g = Graph::new();
        let chain = g.add_nodes(hops + 1);
        for w in chain.windows(2) {
            g.add_link(w[0], w[1], CAPS[cap_ix]).unwrap();
        }
        // A second chain of the same capacity into the same hub.
        let side = g.add_nodes(hops);
        g.add_link(chain[0], side[0], CAPS[cap_ix]).unwrap();
        for w in side.windows(2) {
            g.add_link(w[0], w[1], CAPS[cap_ix]).unwrap();
        }
        let leaves = g.add_nodes(fanout);
        for &leaf in &leaves {
            g.add_link(chain[hops], leaf, LEAF_CAPS[leaf_ix]).unwrap();
        }
        let pair = vec![leaves[0], leaves[fanout - 1]];
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(chain[0], leaves.clone()),
                if single {
                    Session::single_rate(chain[0], pair)
                } else {
                    Session::multi_rate(chain[0], pair)
                },
                Session::unicast(chain[0], leaves[0]),
                Session::unicast(chain[0], side[hops - 1]),
            ],
        )
        .unwrap();
        let cfg = LinkRateConfig::per_session((0..4).map(|_| linear_model(&mut rng)).collect());
        assert_bitwise_or_both_stall(
            &format!("linear tied/{hops} hops/{fanout} leaves/cap {cap_ix}/leaf {leaf_ix}/seed {seed}"),
            &net,
            &cfg,
        );
    }

    /// Random networks of every family with near-tied capacities up to
    /// 1e6, per-session linear models (`Scaled` factors up to 1e3),
    /// single-rate sessions and κ caps: crossings at most `RATE_EPS` apart
    /// in later rounds, where most links are clean and their floors decide
    /// what is scanned and what the freeze pass evaluates.
    #[test]
    fn linear_near_tied_crossings_match_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
        nodes in 8usize..30,
    ) {
        let mut rng = SplitMix64(seed ^ 0x7E1E_D0C5);
        let base = sprinkle(random_network_with(FAMILIES[family_ix], seed, nodes, 6, 5).unwrap(), seed);
        let net = near_tied_capacities(&base, &mut rng);
        let cfg = LinkRateConfig::per_session(
            (0..net.session_count()).map(|_| linear_model(&mut rng)).collect(),
        );
        assert_bitwise_or_both_stall(
            &format!("linear near-tie/{}/seed {seed}", FAMILIES[family_ix].label()),
            &net,
            &cfg,
        );
    }

    /// Weighted filling with weights from 1e-6 up on near-tied capacities
    /// up to 1e6, with and without κ caps.
    #[test]
    fn weighted_tiny_weights_match_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
        capped in any::<bool>(),
    ) {
        const SCALES: [f64; 5] = [1e-6, 1e-3, 0.5, 1.0, 4.0];
        let mut rng = SplitMix64(seed ^ 0x3E16_47ED);
        let base = random_network_with(FAMILIES[family_ix], seed, 16, 5, 4).unwrap();
        let base = if capped { cap_sessions(base, &mut rng) } else { base };
        let net = near_tied_capacities(&base, &mut rng);
        let w = Weights::from_values(
            net.sessions()
                .iter()
                .map(|s| {
                    (0..s.receivers.len())
                        .map(|_| SCALES[rng.below(SCALES.len())] * (1.0 + rng.below(4) as f64))
                        .collect()
                })
                .collect(),
        );
        let optimized = Weighted::new(w.clone()).solve_with(
            &net,
            &LinkRateConfig::efficient(net.session_count()),
            &mut SolverWorkspace::new(),
        );
        assert_agrees_or_both_stall(
            &format!("tiny weights/{}/seed {seed}", FAMILIES[family_ix].label()),
            optimized,
            || reference::weighted_solve(&net, &w),
        );
    }
}

/// Per-session models for a link shared by `RandomJoin` and linear
/// sessions: about half `RandomJoin` with σ log-uniform in `[1e-3, 1e6]`,
/// the rest `Efficient`, `Sum` or `Scaled` with factors up to 1e3.
fn random_join_mix(net: &Network, rng: &mut SplitMix64) -> LinkRateConfig {
    LinkRateConfig::per_session(
        (0..net.session_count())
            .map(|_| {
                if rng.below(2) == 0 {
                    LinkRateModel::RandomJoin {
                        sigma: 10f64.powf(9.0 * rng.unit() - 3.0),
                    }
                } else {
                    linear_model(rng)
                }
            })
            .collect(),
    )
}

/// `net` with one session's κ moved to within `±RATE_EPS` of a level at
/// which the reference froze some receiver, so a κ-freeze stores a rate up
/// to `RATE_EPS` above the level of its round (`net` itself where the
/// reference stalls).
fn kappa_near_a_freeze_level(net: &Network, cfg: &LinkRateConfig, rng: &mut SplitMix64) -> Network {
    let solved = std::panic::catch_unwind(|| reference::solve_in(net, cfg, &Regimes::AsDeclared));
    let levels: Vec<f64> = solved
        .map(|s| s.allocation.iter().map(|(_, a)| a).collect::<Vec<_>>())
        .unwrap_or_default()
        .into_iter()
        .filter(|a| a.is_finite() && *a > RATE_EPS)
        .collect();
    let mut sessions = net.sessions().to_vec();
    if let Some(&level) = levels.get(rng.below(levels.len().max(1))) {
        let s = rng.below(sessions.len());
        sessions[s].max_rate = level + (2.0 * rng.unit() - 1.0) * RATE_EPS;
    }
    Network::with_routes(net.graph().clone(), sessions, net.routes())
        .expect("same routes remain valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RandomJoin` sessions sharing links with `Scaled` sessions (factors
    /// up to 1e3), `Sum` and `Efficient` ones, single-rate sessions and κ
    /// caps, on capacities that tie or nearly tie. A floor's slope bound
    /// must count every active receiver at the largest `Scaled` factor: a
    /// `Scaled(1e3)` mate rises a thousand times faster than its one
    /// active receiver.
    #[test]
    fn random_join_scaled_and_sum_mates_match_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
        nodes in 8usize..30,
    ) {
        let mut rng = SplitMix64(seed ^ 0x5CA1_ED5D);
        let base = sprinkle(random_network_with(FAMILIES[family_ix], seed, nodes, 6, 5).unwrap(), seed);
        let net = if rng.below(2) == 0 { near_tied_capacities(&base, &mut rng) } else { base };
        let cfg = random_join_mix(&net, &mut rng);
        assert_bitwise_or_both_stall(
            &format!("rj mates/{}/seed {seed}", FAMILIES[family_ix].label()),
            &net,
            &cfg,
        );
    }

    /// A session capped within `±RATE_EPS` of a level at which receivers
    /// freeze: its κ-freeze stores a rate up to `RATE_EPS` above the level,
    /// which raises the load of every link it shares with a `RandomJoin`
    /// session just above the level. Floors from evaluations made before
    /// that freeze must leave room for it.
    #[test]
    fn random_join_kappa_near_freeze_level_matches_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
    ) {
        let mut rng = SplitMix64(seed ^ 0x000C_A99A);
        let base = random_network_with(FAMILIES[family_ix], seed, 16, 5, 4).unwrap();
        let cfg = random_join_mix(&base, &mut rng);
        let net = kappa_near_a_freeze_level(&base, &cfg, &mut rng);
        assert_bitwise_or_both_stall(
            &format!("rj κ near a level/{}/seed {seed}", FAMILIES[family_ix].label()),
            &net,
            &cfg,
        );
    }

    /// Layer rates σ from 1e-3 to 1e6 on capacities from 1e-3 up to 1e6,
    /// with linear sessions mixed in: the rounding bound of a load grows
    /// with σ and with the capacity, and floors must hold at both ends.
    #[test]
    fn random_join_sigma_and_capacity_ranges_match_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
    ) {
        let mut rng = SplitMix64(seed ^ 0x0051_6CA9);
        let base = sprinkle(random_network_with(FAMILIES[family_ix], seed, 20, 6, 5).unwrap(), seed);
        let magnitude = 10f64.powf(9.0 * rng.unit() - 3.0);
        let net = recapacitated(&base, |_| (magnitude * (0.5 + 2.0 * rng.unit())).min(1e6));
        let cfg = random_join_mix(&net, &mut rng);
        assert_bitwise_or_both_stall(
            &format!("rj ranges/{}/seed {seed}/magnitude {magnitude}", FAMILIES[family_ix].label()),
            &net,
            &cfg,
        );
    }

    /// One workspace solves `RandomJoin`, then a linear-only network of
    /// another shape, then `RandomJoin` on that one and on the first again.
    /// The linear solve sizes no `RandomJoin` state, so a stale end load or
    /// floor from the first solve would show as a bit difference; the
    /// reused workspace's counters are the fresh solves' sums.
    #[test]
    fn random_join_linear_random_join_reuse_matches_reference(
        seed in any::<u64>(),
        family_ix in 0usize..4,
    ) {
        let mut rng = SplitMix64(seed ^ 0x0002_E05E);
        let a = random_network_with(FAMILIES[family_ix], seed, 30, 8, 5).unwrap();
        let b = sprinkle(
            random_network_with(FAMILIES[(family_ix + 2) % 4], seed ^ 7, 24, 6, 5).unwrap(),
            seed,
        );
        let linear = LinkRateConfig::per_session(
            (0..b.session_count()).map(|_| linear_model(&mut rng)).collect(),
        );
        let mixed = random_join_mix(&b, &mut rng);
        let solves = [
            (&a, LinkRateConfig::uniform(a.session_count(), FIG5_MODEL)),
            (&b, linear),
            (&b, mixed),
            (&a, LinkRateConfig::uniform(a.session_count(), FIG5_MODEL)),
        ];
        let mut ws = SolverWorkspace::new();
        let mut summed = mlf_core::SolveCounters::default();
        for (step, (net, cfg)) in solves.iter().enumerate() {
            let label = format!("rj reuse step {step}/seed {seed}");
            let optimized = Hybrid::as_declared().solve_with(net, cfg, &mut ws);
            assert_agrees_or_both_stall(&label, optimized, || {
                reference::solve_in(net, cfg, &Regimes::AsDeclared)
            });
            let mut fresh = SolverWorkspace::new();
            let _ = Hybrid::as_declared().solve_with(net, cfg, &mut fresh);
            summed += fresh.counters();
        }
        prop_assert_eq!(ws.counters(), summed);
    }
}

/// The κ shift, built to be tight. Link A (capacity `2(s + d)`) carries
/// two one-receiver `RandomJoin` sessions `R` and `U` (each one's load is
/// its rate), so its load rises at exactly 2 while both are active.
/// Link B (capacity `2s`) carries `U` and an efficient unicast `W`, and
/// link C (capacity `s/2`) an efficient unicast `V`. `U` is capped at
/// `κ = s + t·ε`, `t ∈ [−1, 1]`, `ε = RATE_EPS`. The first round stops at
/// `s/2`, where A's load gives it a floor near `s + d`. For `t ∈ (1/2, 1)`
/// the second stops at B's crossing `s`, where `U`'s κ-freeze stores `κ`,
/// `tε` above the level, after the floor was set (a `RandomJoin` freeze
/// leaves floors in place). At `d ∈ (ε/2, (1 + t)ε/2]` the reference
/// freezes `R` on A there, and only the floor's `−ε` term keeps the floor
/// below the level.
#[test]
fn random_join_kappa_shift_is_covered() {
    let mut cases = 0;
    let mut linked = 0;
    for s in [0.75, 1.0, 3.0, 250.0] {
        for sigma in [4.0 * s, 1e3 * s] {
            for t in [-1.0, -0.5, 0.0, 0.5, 0.6, 0.75, 0.9, 1.0] {
                for d in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0] {
                    let (d, kappa) = (d * RATE_EPS, s + t * RATE_EPS);
                    let mut g = Graph::new();
                    let n = g.add_nodes(5);
                    g.add_link(n[0], n[1], 2.0 * (s + d)).unwrap();
                    g.add_link(n[1], n[2], 2.0 * s).unwrap();
                    g.add_link(n[1], n[3], 1e9).unwrap();
                    g.add_link(n[0], n[4], s / 2.0).unwrap();
                    let net = Network::new(
                        g,
                        vec![
                            Session::unicast(n[0], n[3]),
                            Session::unicast(n[0], n[2]).with_max_rate(kappa),
                            Session::unicast(n[1], n[2]),
                            Session::unicast(n[0], n[4]),
                        ],
                    )
                    .unwrap();
                    let rj = LinkRateModel::RandomJoin { sigma };
                    let cfg = LinkRateConfig::efficient(4)
                        .with_session(0, rj)
                        .with_session(1, rj);
                    let label = format!("κ shift/s {s}/σ {sigma}/t {t}/d {d}");
                    assert_bitwise_or_both_stall(&label, &net, &cfg);
                    let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
                    let r = mlf_net::ReceiverId::new(0, 0);
                    linked += usize::from(reference.bottleneck(r) == Some(mlf_net::LinkId(0)));
                    cases += 1;
                }
            }
        }
    }
    assert!(
        linked > 20,
        "only {linked} of {cases} cases froze R on link A"
    );
}

/// A `RandomJoin` link left just short of saturation at the level, so
/// that no floor clears the level and the next round evaluates the link's
/// load there afresh. Link B (capacity `c`) carries a one-receiver
/// session `U` capped at `κ` and a session `R` of `m` receivers, both
/// `RandomJoin`; every other link is wide. The first round stops at `κ`,
/// where `U` freezes and B's load `u` is known. With
/// `c = u + ε + t·m·ε`, `ε = RATE_EPS`, the floor raised from `u` sits
/// about `(1 − t)ε` below `κ` for `t < 1`, so the second round's bracket
/// starts from a fresh `u_B(κ)`; `t ≥ 1` lets the floor clear the level,
/// and `t ≤ 0` saturates B at `κ`.
#[test]
fn random_join_near_saturation_at_the_level_matches_reference() {
    let mut cases = 0;
    let mut later = 0;
    for sigma in [1.0, 6.0, 1e3] {
        for kappa in [0.1, 0.5, 0.9].map(|x| x * sigma) {
            for m in 1..=3 {
                for t in [-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.5, 3.0] {
                    let graph = |c: f64| {
                        let mut g = Graph::new();
                        let n = g.add_nodes(m + 3);
                        g.add_link(n[0], n[1], c).unwrap();
                        for leaf in 2..m + 3 {
                            g.add_link(n[1], n[leaf], 1e9).unwrap();
                        }
                        let sessions = vec![
                            Session::unicast(n[0], n[2]).with_max_rate(kappa),
                            Session::multi_rate(n[0], (3..m + 3).map(|k| n[k]).collect()),
                        ];
                        Network::new(g, sessions).unwrap()
                    };
                    let cfg = LinkRateConfig::uniform(2, LinkRateModel::RandomJoin { sigma });
                    // B's load with every receiver at κ: `U` frozen there,
                    // `R` still rising at the level.
                    let at_kappa = vec![vec![kappa], vec![kappa; m]];
                    let u = mlf_core::Allocation::from_rates(at_kappa).link_rate(
                        &graph(1.0),
                        &cfg,
                        mlf_net::LinkId(0),
                    );
                    let c = u + RATE_EPS + t * m as f64 * RATE_EPS;
                    let net = graph(c);
                    let label = format!("near saturation/σ {sigma}/κ {kappa}/m {m}/t {t}");
                    assert_bitwise_or_both_stall(&label, &net, &cfg);
                    let reference = reference::solve_in(&net, &cfg, &Regimes::AsDeclared);
                    let r = reference.allocation.rate(mlf_net::ReceiverId::new(1, 0));
                    if t > 0.0 && t < 1.0 {
                        later += usize::from(reference.iterations >= 2 && r > kappa);
                    }
                    cases += 1;
                }
            }
        }
    }
    assert!(
        later > 100,
        "only {later} of {cases} cases left B unsaturated at κ"
    );
}

/// A weighted free rider whose session's frozen maximum sits at most
/// `RATE_EPS` above its own rate when another link saturates it.
///
/// Link 0 (capacity `c`) carries a session with receivers of weights `3s`
/// and `s`, and a unicast of weight `s`; it saturates first, freezing the
/// heavy receiver at `H = 0.75c` and the unicast. The light receiver rides
/// link 0 for free until its own tail (link 2, capacity `H − η`) saturates
/// at `H − η`. There its rate is within `RATE_EPS` of the frozen maximum,
/// so the freeze pass freezes it on link 0 first: link 0 is clean in that
/// round, and its floor must not skip it. Weights run down to 1e-6.
#[test]
fn weighted_free_rider_within_eps_matches_reference() {
    let mut cases = 0;
    for s in [1e-6, 1e-3, 1.0, 4.0] {
        for c in [1.0, 10.0, 1e3, 1e6] {
            for eta in [0.0, 0.25, 0.5, 0.9, 1.0].map(|x| x * RATE_EPS) {
                let net = |tail: f64| {
                    let mut g = Graph::new();
                    let n = g.add_nodes(5);
                    g.add_link(n[0], n[1], c).unwrap();
                    g.add_link(n[1], n[2], 1e9).unwrap();
                    g.add_link(n[1], n[3], tail).unwrap();
                    g.add_link(n[1], n[4], 1e9).unwrap();
                    Network::new(
                        g,
                        vec![
                            Session::multi_rate(n[0], vec![n[2], n[3]]),
                            Session::unicast(n[0], n[4]),
                        ],
                    )
                    .unwrap()
                };
                let w = Weights::from_values(vec![vec![3.0 * s, s], vec![s]]);
                // The heavy receiver's rate does not depend on the tail.
                let heavy = reference::weighted_solve(&net(1e9), &w)
                    .allocation
                    .rate(mlf_net::ReceiverId::new(0, 0));
                let net = net(heavy - eta);
                let label = format!("free rider/s {s}/c {c}/η {eta}");
                let optimized = Weighted::new(w.clone()).solve(&net, &mut SolverWorkspace::new());
                let reference = reference::weighted_solve(&net, &w);
                assert_bitwise(&label, &optimized, &reference);
                let light = mlf_net::ReceiverId::new(0, 1);
                cases += usize::from(reference.bottleneck(light) == Some(mlf_net::LinkId(0)));
            }
        }
    }
    assert!(
        cases > 40,
        "only {cases} cases froze the free rider on link 0"
    );
}

/// The unicast engine against its reference on random all-unicast trees.
#[test]
fn unicast_matches_reference() {
    let mut rng = SplitMix64(0xD1FF_EE12_71A1 ^ 0xABCD);
    let mut ws = SolverWorkspace::new();
    for seed in 0..60u64 {
        let g = random_tree(seed, 12, 1.0, 8.0).unwrap();
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

/// A crossing one or a few skip margins above the running minimum, with
/// `upper` so large that 200 halvings of `[level, upper]` cannot narrow
/// the bisection past the margin: the reference's bisection hits its step
/// cap below `best` and lowers the round's level (here into a stall). The
/// skip probe passes, so only its `upper ≤ 2^100` condition keeps the
/// search from returning `best`.
#[test]
fn random_join_step_cap_below_best_matches_reference() {
    let mut cases = 0;
    for scale in [1e50, 1e60, 1e80] {
        for margins in [1.0, 1.5, 3.0, 10.0] {
            // src -(1)- a carries a linear unicast that saturates at 1;
            // src -(1 + margins·2e-12)- hub carries a RandomJoin session
            // with σ = κ = scale, whose load is 0 at small levels, and a
            // linear unicast, so that link crosses exactly at its capacity.
            let mut g = Graph::new();
            let n = g.add_nodes(5);
            g.add_link(n[0], n[1], 1.0).unwrap();
            g.add_link(n[0], n[2], 1.0 + margins * 2e-12).unwrap();
            g.add_link(n[2], n[3], 1e300).unwrap();
            g.add_link(n[2], n[4], 1e300).unwrap();
            let net = Network::new(
                g,
                vec![
                    Session::unicast(n[0], n[1]).with_max_rate(scale),
                    Session::unicast(n[0], n[3]).with_max_rate(scale),
                    Session::unicast(n[0], n[4]).with_max_rate(scale),
                ],
            )
            .unwrap();
            let cfg = LinkRateConfig::efficient(3)
                .with_session(1, LinkRateModel::RandomJoin { sigma: scale });
            let c = assert_bitwise_or_both_stall(
                &format!("step cap/scale {scale}/{margins} margins"),
                &net,
                &cfg,
            );
            cases += usize::from(c.cap_hits > 0);
        }
    }
    assert!(cases > 0, "no case ran a bisection into its step cap");
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
