//! Weighted multi-rate max-min fairness (a Section 5 extension,
//! implemented).
//!
//! The paper's future-work section proposes that "many of our results can
//! be directly applied to TCP-fairness by constructing a definition of
//! max-min fairness where receiver rates are assigned weights (i.e., a
//! receiver's rate is weighted by the inverse of round trip time)". This
//! module implements exactly that: each receiver `r_{i,k}` carries a weight
//! `w_{i,k} > 0`, and the allocation is max-min fair over the *normalized*
//! rates `a_{i,k} / w_{i,k}`. Unweighted max-min is the `w ≡ 1` special
//! case; TCP-friendliness uses `w = 1/RTT` (per the Mahdavi–Floyd model at
//! fixed loss).
//!
//! The entry point is [`crate::allocator::Weighted`] through the
//! [`crate::allocator::Allocator`] trait.
//!
//! The algorithm is progressive filling over a common *potential* `φ`:
//! every active receiver holds `a = w·φ`. Under the efficient link-rate
//! model the load is `u_j(φ) = Σ_i max(f_{i,j}, φ·W_{i,j})` where
//! `f_{i,j}` is the session's frozen maximum on the link and `W_{i,j}` the
//! largest *weight* among its active receivers crossing the link — the same
//! `K + Σ w·max(b, φ)` form as the unweighted solver, solved exactly by
//! breakpoint scanning. Free riders generalize: an active receiver whose
//! weight is below its session's max weight on a saturated link rides it
//! indefinitely (its rate can never catch the session maximum there), so
//! only maximal-weight receivers freeze on saturation.
//!
//! Scope: multi-rate sessions under the efficient model (the setting the
//! paper's remark addresses). Single-rate sessions would need a convention
//! for mixing per-receiver weights with the uniform-rate constraint that
//! the paper does not define; the solver rejects them.

use crate::allocation::RATE_EPS;
use crate::allocator::SolverWorkspace;
use crate::maxmin::{FreezeReason, MaxMinSolution};
use mlf_net::{LinkId, Network, ReceiverId};

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
    /// shape (checked by the solver).
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

/// Weighted progressive filling into a caller-provided workspace: the
/// engine behind [`crate::allocator::Weighted`].
#[allow(clippy::needless_range_loop)] // parallel (rates, active, weights) tables
pub(crate) fn weighted_solve_in(
    net: &Network,
    weights: &Weights,
    ws: &mut SolverWorkspace,
) -> MaxMinSolution {
    assert!(
        net.sessions().iter().all(|s| s.kind.is_multi_rate()),
        "weighted max-min is defined for multi-rate sessions"
    );
    assert_eq!(weights.w.len(), net.session_count(), "weight shape");
    for (s, wsess) in net.sessions().iter().zip(&weights.w) {
        assert_eq!(wsess.len(), s.receivers.len(), "weight shape");
        assert!(
            wsess.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
    }

    ws.reset(net);
    let inc = net.incidence();
    // Seed the per-slot active-weight maxima (every receiver starts
    // active): the ascending-receiver fold over each slot's weights.
    for slot in 0..inc.slot_count() {
        let i = inc.slot_session(slot);
        let mut wmax = 0.0_f64;
        for &k in inc.slot_receivers(slot) {
            wmax = wmax.max(weights.w[i][k]);
        }
        ws.slot_wmax[slot] = wmax;
    }
    let mut phi = 0.0_f64;
    let mut iterations = 0usize;

    loop {
        if ws.active_total == 0 {
            break;
        }
        iterations += 1;
        assert!(iterations <= net.receiver_count() + 1, "no convergence");

        // Potential cap from κ: receiver r freezes at φ = κ_i / w_r.
        let mut upper = f64::INFINITY;
        for (i, s) in net.sessions().iter().enumerate() {
            for k in 0..s.receivers.len() {
                if ws.active[i][k] {
                    upper = upper.min(s.max_rate / weights.w[i][k]);
                }
            }
        }
        debug_assert!(upper.is_finite());

        // Exact saturation potential per link, from the cached slot
        // aggregates (`frozen_max` and the active-weight maximum are both
        // max-folds, which incremental maintenance reproduces exactly).
        let mut next = upper;
        for j in 0..net.link_count() {
            let link = LinkId(j);
            if ws.link_active[j] == 0 {
                continue;
            }
            let mut constant = 0.0;
            ws.terms.clear(); // (breakpoint b, slope W)
            for slot in inc.link_slots(j) {
                let frozen_max = ws.slot_frozen_max[slot];
                let w_max = ws.slot_wmax[slot];
                if w_max > 0.0 {
                    ws.terms.push((frozen_max / w_max, w_max));
                } else {
                    constant += frozen_max;
                }
            }
            let cap = net.graph().capacity(link);
            let terms = &ws.terms;
            let load_at = |p: f64| -> f64 {
                constant + terms.iter().map(|&(b, w)| w * b.max(p)).sum::<f64>()
            };
            ws.breakpoints.clear();
            ws.breakpoints.extend(terms.iter().map(|&(b, _)| b));
            ws.breakpoints.push(phi);
            ws.breakpoints.push(upper);
            // total_cmp: never panic on a NaN breakpoint mid-sweep.
            ws.breakpoints.sort_by(f64::total_cmp);
            ws.breakpoints.dedup();
            let mut lo = phi;
            let mut sat = upper;
            for &bp in ws.breakpoints.iter().filter(|&&b| b > phi && b <= upper) {
                if load_at(bp) > cap + RATE_EPS {
                    let slope: f64 = terms
                        .iter()
                        .filter(|&&(b, _)| b <= lo + RATE_EPS)
                        .map(|&(_, w)| w)
                        .sum();
                    let base = load_at(lo);
                    sat = if slope <= 0.0 {
                        lo
                    } else {
                        (lo + (cap - base) / slope).clamp(lo, bp)
                    };
                    break;
                }
                lo = bp;
            }
            next = next.min(sat);
        }
        phi = next.max(phi);

        // Raise all active receivers to w·φ.
        for i in 0..ws.rates.len() {
            for k in 0..ws.rates[i].len() {
                if ws.active[i][k] {
                    ws.rates[i][k] = weights.w[i][k] * phi;
                }
            }
        }

        let mut froze = false;
        // κ freezes.
        for (i, s) in net.sessions().iter().enumerate() {
            for k in 0..s.receivers.len() {
                if ws.active[i][k] && weights.w[i][k] * phi >= s.max_rate - RATE_EPS {
                    ws.active[i][k] = false;
                    ws.rates[i][k] = s.max_rate;
                    ws.reasons[i][k] = Some(FreezeReason::MaxRate);
                    ws.note_freeze_weighted(inc, i, k, &weights.w);
                    froze = true;
                }
            }
        }
        // Link freezes: on saturated links, freeze the session's
        // maximal-weight active receivers that are at or past the frozen
        // max. A session's maximum rate on a link is `max(frozen_max,
        // w_max·φ)` — active rates are exactly `w·φ` and multiplication by
        // the non-negative φ is monotone, so the cached maxima reproduce
        // the receiver-table fold bit for bit.
        for j in 0..net.link_count() {
            let link = LinkId(j);
            if ws.link_active[j] == 0 {
                continue; // nothing left to freeze here
            }
            // Load at current φ.
            let mut load = 0.0;
            for slot in inc.link_slots(j) {
                let frozen_max = ws.slot_frozen_max[slot];
                let max = if ws.slot_active[slot] > 0 {
                    frozen_max.max(ws.slot_wmax[slot] * phi)
                } else {
                    frozen_max
                };
                load += max;
            }
            if load < net.graph().capacity(link) - RATE_EPS {
                continue;
            }
            for slot in inc.link_slots(j) {
                let i = inc.slot_session(slot);
                let session_max = if ws.slot_active[slot] > 0 {
                    ws.slot_frozen_max[slot].max(ws.slot_wmax[slot] * phi)
                } else {
                    ws.slot_frozen_max[slot]
                };
                for &k in inc.slot_receivers(slot) {
                    if ws.active[i][k] && ws.rates[i][k] >= session_max - RATE_EPS {
                        ws.active[i][k] = false;
                        ws.reasons[i][k] = Some(FreezeReason::Link(link));
                        ws.note_freeze_weighted(inc, i, k, &weights.w);
                        froze = true;
                    }
                }
            }
        }
        assert!(froze, "weighted filling made no progress at phi = {phi}");
    }
    ws.take_solution(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, MultiRate, Weighted};
    use crate::linkrate::LinkRateConfig;
    use mlf_net::topology::random_network;
    use mlf_net::{Graph, Session};

    #[test]
    fn uniform_weights_match_unweighted() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..15u64 {
            let net = random_network(seed, 10, 4, 4).unwrap();
            let weighted = Weighted::uniform().solve(&net, &mut ws).allocation;
            let plain = Hybrid::as_declared().solve(&net, &mut ws).allocation;
            for (a, b) in weighted.rates().iter().zip(plain.rates()) {
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-9, "seed {seed}: {x} vs {y}");
                }
            }
        }
    }

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

    #[test]
    fn uniform_weights_equal_plain_multi_rate() {
        let net = random_network(7, 10, 3, 3).unwrap();
        assert_eq!(
            Weighted::uniform().allocate(&net).rates(),
            MultiRate::new().allocate(&net).rates()
        );
    }

    #[test]
    #[should_panic(expected = "multi-rate")]
    fn rejects_single_rate_sessions() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 1.0).unwrap();
        g.add_link(n[0], n[2], 1.0).unwrap();
        let net = Network::new(g, vec![Session::single_rate(n[0], vec![n[1], n[2]])]).unwrap();
        let _ = Weighted::uniform().allocate(&net);
    }
}
