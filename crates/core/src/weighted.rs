//! Weighted multi-rate max-min fairness (a Section 5 extension,
//! implemented).
//!
//! The paper's future-work section proposes that "many of our results can
//! be directly applied to TCP-fairness by constructing a definition of
//! max-min fairness where receiver rates are assigned weights (i.e., a
//! receiver's rate is weighted by the inverse of round trip time)". This
//! module holds exactly those weights: each receiver `r_{i,k}` carries a
//! weight `w_{i,k} > 0`, and the allocation is max-min fair over the
//! *normalized* rates `a_{i,k} / w_{i,k}`. Unweighted max-min is the
//! `w ≡ 1` special case; TCP-friendliness uses `w = 1/RTT` (per the
//! Mahdavi–Floyd model at fixed loss).
//!
//! The entry point is [`crate::allocator::Weighted`] through the
//! [`crate::allocator::Allocator`] trait. It runs the one progressive
//! filling of [`crate::maxmin`] (see "Weighted filling" there).
//!
//! Scope: multi-rate sessions under the efficient model (the setting the
//! paper's remark addresses). Single-rate sessions would need a convention
//! for mixing per-receiver weights with the uniform-rate constraint that
//! the paper does not define; the allocator rejects them.

use mlf_net::{Network, ReceiverId};

/// Per-receiver weights, shaped like the network (`[session][receiver]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Weights {
    w: Vec<Vec<f64>>,
}

impl Weights {
    /// Uniform weights (reduces weighted max-min to the ordinary one).
    pub fn uniform(net: &Network) -> Self {
        Weights {
            w: net
                .sessions()
                .iter()
                .map(|s| vec![1.0; s.receivers.len()])
                .collect(),
        }
    }

    /// Explicit weights; must be positive and finite and match the network
    /// shape (checked by [`crate::allocator::Allocator::check`]).
    pub fn from_values(w: Vec<Vec<f64>>) -> Self {
        Weights { w }
    }

    /// The weight of one receiver.
    pub fn get(&self, r: ReceiverId) -> f64 {
        self.w[r.session.0][r.index]
    }

    /// The raw weight tables, `[session][receiver]` (solver internals and
    /// the differential reference).
    pub(crate) fn values(&self) -> &[Vec<f64>] {
        &self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::RATE_EPS;
    use crate::allocator::{Allocator, MultiRate, SolverWorkspace, Weighted};
    use crate::linkrate::LinkRateConfig;
    use crate::maxmin::FreezeReason;
    use mlf_net::topology::random_network;
    use mlf_net::{Graph, LinkId, Session};

    #[test]
    fn weights_split_a_shared_link_proportionally() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 9.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let w = Weights::from_values(vec![vec![2.0], vec![1.0]]);
        let alloc = Weighted::new(w).allocate(&net);
        assert!((alloc.rate(ReceiverId::new(0, 0)) - 6.0).abs() < 1e-9);
        assert!((alloc.rate(ReceiverId::new(1, 0)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_weights_behave_like_tcp() {
        // Two flows on one link, RTTs 50ms and 100ms: the short-RTT flow
        // gets twice the rate, as the TCP-friendly model prescribes.
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 3.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let w = Weights::from_values(vec![vec![1.0 / 0.05], vec![1.0 / 0.1]]);
        let alloc = Weighted::new(w).allocate(&net);
        let a = alloc.rate(ReceiverId::new(0, 0));
        let b = alloc.rate(ReceiverId::new(1, 0));
        assert!((a - 2.0 * b).abs() < 1e-9);
        assert!((a + b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_free_rider_rides_past_saturation() {
        // Session with two receivers behind one shared link (cap 8) that
        // also carries a weight-1 unicast; receiver weights 3 and 1.
        // Saturation: max(3φ, 1φ) + 1φ = 4φ = 8 -> φ = 2: the weight-3
        // receiver (rate 6) and the unicast (rate 2) freeze; the weight-1
        // receiver rides the shared link (its rate 2 < 6 adds nothing) and
        // climbs until its own tail at 5 binds.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 8.0).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 5.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let w = Weights::from_values(vec![vec![3.0, 1.0], vec![1.0]]);
        let sol = Weighted::new(w).solve(&net, &mut SolverWorkspace::new());
        let alloc = &sol.allocation;
        assert!((alloc.rate(ReceiverId::new(0, 0)) - 6.0).abs() < 1e-9);
        assert!((alloc.rate(ReceiverId::new(1, 0)) - 2.0).abs() < 1e-9);
        assert!((alloc.rate(ReceiverId::new(0, 1)) - 5.0).abs() < 1e-9);
        // The riders froze on their own links, with diagnostics to prove it.
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(0))
        );
        assert_eq!(
            sol.reason(ReceiverId::new(0, 1)),
            FreezeReason::Link(LinkId(2))
        );
        // Feasible under the efficient model.
        let cfg = LinkRateConfig::efficient(2);
        assert!(alloc.is_feasible(&net, &cfg));
    }

    #[test]
    fn kappa_caps_apply_to_rates_not_potentials() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 10.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[1]).with_max_rate(1.0),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let w = Weights::from_values(vec![vec![5.0], vec![1.0]]);
        let sol = Weighted::new(w).solve(&net, &mut SolverWorkspace::new());
        // The heavy receiver caps at κ = 1 long before its weighted share;
        // the rest goes to the other flow.
        assert!((sol.allocation.rate(ReceiverId::new(0, 0)) - 1.0).abs() < 1e-9);
        assert!((sol.allocation.rate(ReceiverId::new(1, 0)) - 9.0).abs() < 1e-9);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);
    }

    #[test]
    fn results_are_feasible_on_random_networks() {
        let mut ws = SolverWorkspace::new();
        for seed in 20..40u64 {
            let net = random_network(seed, 12, 4, 4).unwrap();
            // Pseudo-random but deterministic weights.
            let w = Weights::from_values(
                net.sessions()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        (0..s.receivers.len())
                            .map(|k| 0.5 + ((seed as usize + 3 * i + 7 * k) % 5) as f64)
                            .collect()
                    })
                    .collect(),
            );
            let alloc = Weighted::new(w).solve(&net, &mut ws).allocation;
            let cfg = LinkRateConfig::efficient(net.session_count());
            assert!(
                alloc.is_feasible(&net, &cfg),
                "seed {seed}: {:?}",
                alloc.feasibility_violation(&net, &cfg)
            );
        }
    }

    /// The one step whose floating-point form differs between the
    /// weighted and unweighted fillings: at a level within a rounding of
    /// `κ − ε`, the per-receiver test `w·ℓ ≥ κ − ε` can hold where the
    /// session test `κ ≤ ℓ + ε` fails. `Weighted` keeps its reference's
    /// form, so with unit weights it caps this flow at κ while `MultiRate`
    /// freezes it on its link.
    #[test]
    fn kappa_test_keeps_the_weighted_reference_form() {
        let (cap, kappa) = (2.118557595709872e-9, 3.118557595709872e-9);
        assert!(cap >= kappa - RATE_EPS && kappa > cap + RATE_EPS);
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], cap).unwrap();
        let flow = Session::unicast(n[0], n[1]).with_max_rate(kappa);
        let net = Network::new(g, vec![flow]).unwrap();
        let r = ReceiverId::new(0, 0);
        let weighted = Weighted::uniform().solve(&net, &mut SolverWorkspace::new());
        let reference = crate::reference::weighted_solve(&net, &Weights::uniform(&net));
        assert_eq!(weighted.allocation.rate(r).to_bits(), kappa.to_bits());
        assert_eq!(weighted, reference);
        assert_eq!(weighted.reason(r), FreezeReason::MaxRate);
        let plain = MultiRate::new().solve(&net, &mut SolverWorkspace::new());
        assert_eq!(plain.allocation.rate(r).to_bits(), cap.to_bits());
        assert_eq!(plain.reason(r), FreezeReason::Link(LinkId(0)));
    }

    /// `Weighted::uniform()` is `MultiRate` bit for bit (rates, reasons,
    /// iterations) on all four topology families, with and without finite
    /// κ: at `w ≡ 1` the weighted steps of the shared filling are exact,
    /// and the per-receiver κ test agrees with the session-level one here.
    /// A weighted solve counts one freeze round per iteration.
    #[test]
    fn uniform_weights_are_multi_rate_bit_for_bit() {
        use mlf_net::topology::{random_network_with, SplitMix64};
        use mlf_net::TopologyFamily;
        let mut rng = SplitMix64(0x3E16_47ED);
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ] {
            for seed in 0..12u64 {
                let net = random_network_with(family, seed, 20, 5, 4).unwrap();
                let mut capped = net.sessions().to_vec();
                for s in capped.iter_mut() {
                    if rng.below(2) == 0 {
                        s.max_rate = 0.25 + rng.below(40) as f64 * 0.25;
                    }
                }
                let capped = Network::with_routes(net.graph().clone(), capped, net.routes())
                    .expect("same routes");
                for (kappa, net) in [("unbounded", &net), ("finite", &capped)] {
                    let label = format!("{}/seed {seed}/{kappa} κ", family.label());
                    let mut ws = SolverWorkspace::new();
                    let weighted = Weighted::uniform().solve(net, &mut ws);
                    let plain = MultiRate::new().solve(net, &mut SolverWorkspace::new());
                    let bits = |sol: &crate::MaxMinSolution| -> Vec<u64> {
                        sol.allocation.iter().map(|(_, a)| a.to_bits()).collect()
                    };
                    assert_eq!(bits(&weighted), bits(&plain), "{label}");
                    assert_eq!(weighted.reasons, plain.reasons, "{label}");
                    assert_eq!(weighted.iterations, plain.iterations, "{label}");
                    assert_eq!(
                        ws.counters().freeze_rounds,
                        weighted.iterations as u64,
                        "{label}"
                    );
                }
            }
        }
    }
}
