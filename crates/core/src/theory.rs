//! Executable versions of the paper's theorems and lemmas.
//!
//! Each function checks one result of Section 2/3 on a concrete network and
//! returns whether it held, so both the unit tests and the property-based
//! integration tests can sweep randomized networks through them:
//!
//! * Theorem 1 — a multi-rate max-min fair allocation satisfies all four
//!   fairness properties.
//! * Theorem 2 — per-part fairness guarantees in mixed-type networks.
//! * Lemma 1 — every feasible allocation is min-unfavorable to the max-min
//!   fair allocation (checked against sampled feasible allocations).
//! * Lemma 3 / Corollary 1 — flipping single-rate sessions to multi-rate
//!   makes the max-min fair allocation weakly more max-min fair.
//! * Lemma 4 — pointwise-larger redundancy functions make it weakly less
//!   max-min fair.

use crate::allocation::{Allocation, RATE_EPS};
use crate::allocator::{Allocator, Hybrid, SolverWorkspace};
use crate::linkrate::LinkRateConfig;
use crate::maxmin::{solved, MaxMinSolution};
use crate::ordering::{is_min_unfavorable, ordered};
use crate::properties::{self, FairnessReport};
use mlf_net::topology::SplitMix64;
use mlf_net::{Network, ReceiverId, SessionType};

/// The max-min fair solution of `net` under `cfg` with each session's
/// declared type; panics where [`Allocator::solve`] does.
fn solve(net: &Network, cfg: &LinkRateConfig) -> MaxMinSolution {
    solved(Hybrid::as_declared().solve_with(net, cfg, &mut SolverWorkspace::new()))
}

/// Check Theorem 1 on a network: flip every session to multi-rate, compute
/// the max-min fair allocation under efficient link rates, and verify all
/// four fairness properties hold. Returns the report (callers assert
/// `report.all_hold()`).
pub fn check_theorem1(net: &Network) -> FairnessReport {
    let multi = net.with_uniform_kind(SessionType::MultiRate);
    let cfg = LinkRateConfig::efficient(multi.session_count());
    let alloc = solve(&multi, &cfg).allocation;
    properties::check_all(&multi, &cfg, &alloc)
}

/// The per-part outcome of Theorem 2 on a mixed-type network.
#[derive(Debug, Clone)]
pub struct Theorem2Outcome {
    /// (a) fully-utilized-receiver-fairness holds for every receiver of a
    /// multi-rate session.
    pub part_a: bool,
    /// (b) per-receiver-link-fairness holds for every multi-rate session.
    pub part_b: bool,
    /// (c) per-session-link-fairness holds for all sessions.
    pub part_c: bool,
    /// (d) same-path-receiver-fairness holds between multi-rate receivers.
    pub part_d: bool,
    /// (e) a multi-rate receiver sharing a path with a single-rate receiver
    /// is at `κ` or at least as fast.
    pub part_e: bool,
}

impl Theorem2Outcome {
    /// All five parts hold.
    pub fn all_hold(&self) -> bool {
        self.part_a && self.part_b && self.part_c && self.part_d && self.part_e
    }
}

/// Check Theorem 2 on the network's *given* session-type mapping, under
/// efficient link rates.
pub fn check_theorem2(net: &Network) -> Theorem2Outcome {
    let cfg = LinkRateConfig::efficient(net.session_count());
    let alloc = solve(net, &cfg).allocation;
    let report = properties::check_all(net, &cfg, &alloc);
    let is_multi = |r: ReceiverId| net.session(r.session).kind.is_multi_rate();

    let part_a = report
        .fully_utilized_violations
        .iter()
        .all(|&r| !is_multi(r));
    let part_b = report
        .per_receiver_link_violations
        .iter()
        .all(|&r| !is_multi(r));
    let part_c = report.per_session_link_violations.is_empty();
    let part_d = report
        .same_path_violations
        .iter()
        .all(|&(a, b)| !(is_multi(a) && is_multi(b)));

    // Part (e): multi-rate receiver r vs single-rate receiver r' on an
    // identical data-path: a_r = κ or a_r >= a_r'.
    let mut part_e = true;
    let receivers: Vec<ReceiverId> = net.receivers().collect();
    for &a in &receivers {
        if !is_multi(a) {
            continue;
        }
        for &b in &receivers {
            if is_multi(b) || !net.same_data_path(a, b) {
                continue;
            }
            let ra = alloc.rate(a);
            let rb = alloc.rate(b);
            let kappa = net.session(a.session).max_rate;
            if !(ra >= kappa - RATE_EPS || ra >= rb - RATE_EPS) {
                part_e = false;
            }
        }
    }
    Theorem2Outcome {
        part_a,
        part_b,
        part_c,
        part_d,
        part_e,
    }
}

/// Sample a random *feasible* allocation for the network: draw uniform rates
/// (uniformized per single-rate session), then scale the whole allocation
/// down until every link fits. Used to exercise Lemma 1.
///
/// Only valid for link-rate models that are positively homogeneous
/// (`Efficient`, `Scaled`, `Sum` — scaling all rates by `t` scales `u` by
/// `t`), which is what the Section 2 lemmas assume.
pub fn random_feasible_allocation(
    net: &Network,
    cfg: &LinkRateConfig,
    rng: &mut SplitMix64,
) -> Allocation {
    debug_assert!(cfg.all_piecewise_linear(), "needs homogeneous models");
    let mut rates: Vec<Vec<f64>> = Vec::with_capacity(net.session_count());
    for s in net.sessions() {
        if s.kind.is_single_rate() {
            let a = rng.unit() * s.max_rate.min(100.0);
            rates.push(vec![a; s.receivers.len()]);
        } else {
            rates.push(
                (0..s.receivers.len())
                    .map(|_| rng.unit() * s.max_rate.min(100.0))
                    .collect(),
            );
        }
    }
    let mut alloc = Allocation::from_rates(rates);
    // Scale down to fit the tightest link.
    let mut worst: f64 = 1.0;
    for j in 0..net.link_count() {
        let link = mlf_net::LinkId(j);
        let u = alloc.link_rate(net, cfg, link);
        let c = net.graph().capacity(link);
        if u > c {
            worst = worst.max(u / c);
        }
    }
    if worst > 1.0 {
        let scale = 1.0 / (worst * (1.0 + 1e-12));
        let scaled: Vec<Vec<f64>> = alloc
            .rates()
            .iter()
            .map(|rs| rs.iter().map(|a| a * scale).collect())
            .collect();
        alloc = Allocation::from_rates(scaled);
    }
    debug_assert!(alloc.is_feasible(net, cfg));
    alloc
}

/// Check Lemma 1 on a network: `trials` random feasible allocations must all
/// be min-unfavorable to the max-min fair allocation. Returns `true` when
/// every sample satisfied `B ≤ₘ A`.
pub fn check_lemma1(net: &Network, cfg: &LinkRateConfig, trials: usize, seed: u64) -> bool {
    let maxmin = ordered(&solve(net, cfg).allocation.ordered_vector());
    let mut rng = SplitMix64(seed);
    (0..trials).all(|_| {
        let b = random_feasible_allocation(net, cfg, &mut rng);
        is_min_unfavorable(&b.ordered_vector(), &maxmin)
    })
}

/// Check Lemma 3 on a network: for every single-rate session, flipping it to
/// multi-rate must make the max-min fair allocation weakly more max-min fair
/// (`A_before ≤ₘ A_after`). Also checks the full flip (Corollary 1).
/// Efficient link rates throughout.
pub fn check_lemma3(net: &Network) -> bool {
    let cfg = LinkRateConfig::efficient(net.session_count());
    let before = solve(net, &cfg).allocation.ordered_vector();
    let mut ok = true;
    for (sid, s) in net.sessions_iter() {
        if s.kind.is_single_rate() {
            let flipped = net.with_session_kind(sid, SessionType::MultiRate);
            let after = solve(&flipped, &cfg).allocation.ordered_vector();
            ok &= is_min_unfavorable(&before, &after);
        }
    }
    // Corollary 1: the all-multi-rate network dominates everything.
    let all_multi = net.with_uniform_kind(SessionType::MultiRate);
    let best = solve(&all_multi, &cfg).allocation.ordered_vector();
    ok && is_min_unfavorable(&before, &best)
}

/// Check Lemma 4 on a network: if `high` dominates `low` sessionwise
/// (pointwise-larger redundancy functions), the max-min allocation under
/// `high` must be min-unfavorable to the one under `low`.
pub fn check_lemma4(net: &Network, low: &LinkRateConfig, high: &LinkRateConfig) -> bool {
    assert!(
        high.dominates(low),
        "lemma 4 premise: high must dominate low"
    );
    let a_low = solve(net, low).allocation.ordered_vector();
    let a_high = solve(net, high).allocation.ordered_vector();
    is_min_unfavorable(&a_high, &a_low)
}

/// Section 2.5's single-session monotonicity (Lemma 9 of the technical
/// report): flipping exactly one session from single-rate to multi-rate
/// (all other types fixed) must not decrease any of *that session's*
/// receiver rates. Returns `true` if the property held for every
/// single-rate session of the network.
pub fn check_single_session_flip_monotonicity(net: &Network) -> bool {
    let cfg = LinkRateConfig::efficient(net.session_count());
    let before = solve(net, &cfg).allocation;
    let mut ok = true;
    for (sid, s) in net.sessions_iter() {
        if !s.kind.is_single_rate() {
            continue;
        }
        let flipped = net.with_session_kind(sid, SessionType::MultiRate);
        let after = solve(&flipped, &cfg).allocation;
        for k in 0..s.receivers.len() {
            let r = ReceiverId::new(sid.0, k);
            if after.rate(r) < before.rate(r) - 1e-6 {
                ok = false;
            }
        }
    }
    ok
}

/// A definition-level max-min spot check: verify via the allocator's output
/// that no receiver's rate can be increased in a way the max-min definition
/// forbids. For each receiver we test the single most favorable deviation —
/// raising it by `delta` while lowering only receivers with strictly larger
/// rates — and confirm even that is infeasible or forces a decrease of a
/// receiver at or below its rate. This is a necessary condition of
/// Definition 1 that catches allocator bugs cheaply.
pub fn spot_check_maxmin(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> bool {
    for r in net.receivers() {
        let a = alloc.rate(r);
        let kappa = net.session(r.session).max_rate;
        if a >= kappa - RATE_EPS {
            continue;
        }
        // The receiver must be blocked by some saturated link on its path
        // where it is marginal; otherwise raising it alone stays feasible
        // and violates max-min fairness.
        let mut blocked = false;
        for &l in net.route(r) {
            if !alloc.is_fully_utilized(net, cfg, l) {
                continue;
            }
            // Marginal: bumping this receiver raises u_{i,j} on l.
            let mut bumped = alloc.clone();
            bumped.set_rate(r, a + 1e-6);
            let before = alloc.session_link_rate(net, cfg, l, r.session);
            let after = bumped.session_link_rate(net, cfg, l, r.session);
            if after > before + RATE_EPS * 1e-3 {
                blocked = true;
                break;
            }
        }
        // Single-rate sessions are additionally blocked through their
        // session-mates (raising one receiver forces raising all).
        if !blocked && net.session(r.session).kind.is_single_rate() {
            blocked = net.sessions()[r.session.0]
                .receivers
                .iter()
                .enumerate()
                .any(|(k, _)| {
                    let mate = ReceiverId::new(r.session.0, k);
                    net.route(mate).iter().any(|&l| {
                        alloc.is_fully_utilized(net, cfg, l) && {
                            let mut bumped = alloc.clone();
                            bumped.set_rate(mate, alloc.rate(mate) + 1e-6);
                            bumped.session_link_rate(net, cfg, l, r.session)
                                > alloc.session_link_rate(net, cfg, l, r.session) + RATE_EPS * 1e-3
                        }
                    })
                });
        }
        if !blocked {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkrate::LinkRateModel;
    use mlf_net::topology::random_network;

    #[test]
    fn theorem1_on_random_trees() {
        for seed in 0..25u64 {
            let net = random_network(seed, 12, 4, 4).unwrap();
            let report = check_theorem1(&net);
            assert!(
                report.all_hold(),
                "seed {seed}: theorem 1 violated: {report:?}"
            );
        }
    }

    #[test]
    fn theorem2_on_random_mixed_networks() {
        for seed in 0..25u64 {
            let mut net = random_network(seed, 12, 5, 4).unwrap();
            // Flip sessions 0 and 2 single-rate.
            net = net.with_session_kind(mlf_net::SessionId(0), SessionType::SingleRate);
            net = net.with_session_kind(mlf_net::SessionId(2), SessionType::SingleRate);
            let outcome = check_theorem2(&net);
            assert!(outcome.all_hold(), "seed {seed}: {outcome:?}");
        }
    }

    #[test]
    fn lemma1_on_random_networks() {
        for seed in 0..10u64 {
            let net = random_network(seed, 10, 3, 3).unwrap();
            let cfg = LinkRateConfig::efficient(net.session_count());
            assert!(check_lemma1(&net, &cfg, 50, seed * 7 + 1), "seed {seed}");
        }
    }

    #[test]
    fn lemma1_with_single_rate_sessions() {
        for seed in 0..10u64 {
            let net = random_network(seed, 10, 3, 3)
                .unwrap()
                .with_session_kind(mlf_net::SessionId(0), SessionType::SingleRate);
            let cfg = LinkRateConfig::efficient(net.session_count());
            assert!(check_lemma1(&net, &cfg, 50, seed + 99), "seed {seed}");
        }
    }

    #[test]
    fn lemma3_on_random_networks() {
        for seed in 0..15u64 {
            let net = random_network(seed, 10, 4, 4)
                .unwrap()
                .with_session_kind(mlf_net::SessionId(0), SessionType::SingleRate)
                .with_session_kind(mlf_net::SessionId(1), SessionType::SingleRate);
            assert!(check_lemma3(&net), "seed {seed}");
        }
    }

    #[test]
    fn lemma4_scaled_vs_efficient() {
        for seed in 0..15u64 {
            let net = random_network(seed, 10, 4, 4).unwrap();
            let low = LinkRateConfig::efficient(net.session_count());
            let high = LinkRateConfig::uniform(net.session_count(), LinkRateModel::Scaled(2.0));
            assert!(check_lemma4(&net, &low, &high), "seed {seed}");
            let higher = LinkRateConfig::uniform(net.session_count(), LinkRateModel::Scaled(3.0));
            assert!(check_lemma4(&net, &high, &higher), "seed {seed}");
        }
    }

    #[test]
    fn single_session_flip_monotonicity() {
        for seed in 0..15u64 {
            let net = random_network(seed, 10, 4, 4)
                .unwrap()
                .with_session_kind(mlf_net::SessionId(0), SessionType::SingleRate);
            assert!(check_single_session_flip_monotonicity(&net), "seed {seed}");
        }
    }

    #[test]
    fn spot_check_accepts_allocator_output_and_rejects_slack() {
        let net = random_network(3, 10, 3, 3).unwrap();
        let cfg = LinkRateConfig::efficient(net.session_count());
        let alloc = solve(&net, &cfg).allocation;
        assert!(spot_check_maxmin(&net, &cfg, &alloc));
        // Halving all rates leaves slack everywhere: not max-min.
        let halved = Allocation::from_rates(
            alloc
                .rates()
                .iter()
                .map(|rs| rs.iter().map(|a| a / 2.0).collect())
                .collect(),
        );
        assert!(!spot_check_maxmin(&net, &cfg, &halved));
    }

    #[test]
    fn random_feasible_allocations_are_feasible() {
        let mut rng = SplitMix64(5);
        for seed in 0..10u64 {
            let net = random_network(seed, 10, 3, 3)
                .unwrap()
                .with_session_kind(mlf_net::SessionId(0), SessionType::SingleRate);
            let cfg = LinkRateConfig::efficient(net.session_count());
            for _ in 0..20 {
                let alloc = random_feasible_allocation(&net, &cfg, &mut rng);
                assert!(alloc.is_feasible(&net, &cfg), "seed {seed}");
            }
        }
    }
}
