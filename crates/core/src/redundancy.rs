//! Redundancy (Definition 3) and its analytic impact on fair rates
//! (Section 3.1, Figure 6).
//!
//! The *redundancy* of link `l_j` for session `S_i` is
//! `u_{i,j} / max{a_{i,k} : r_{i,k} ∈ R_{i,j}}` — the ratio of the
//! bandwidth the session actually uses on the link to the theoretical
//! minimum needed to deliver the downstream receivers' rates. A session's
//! bandwidth use on a link is *efficient* when the redundancy is 1.
//!
//! Section 3.1 quantifies the damage: with `n` sessions bottlenecked on one
//! link of capacity `c`, `m` of which exhibit redundancy `v` (the rest
//! efficient), every receiver's max-min fair rate is `c / ((n−m) + m·v)`.
//! Figure 6 plots this normalized by the all-efficient rate `c/n`.

use crate::allocation::Allocation;
use crate::linkrate::LinkRateConfig;
use mlf_net::{LinkId, Network, SessionId};

/// The measured redundancy of `link` for `session` under an allocation and
/// link-rate configuration; `None` when the session has no receivers
/// downstream of the link or all of them have zero rate (redundancy is then
/// undefined).
pub fn redundancy(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
    link: LinkId,
    session: SessionId,
) -> Option<f64> {
    let rates = alloc.rates_on_link(net, link, session);
    let max = rates.iter().copied().fold(0.0_f64, f64::max);
    if rates.is_empty() || max <= 0.0 {
        return None;
    }
    Some(cfg.model(session.0).link_rate(&rates) / max)
}

/// A network-wide redundancy survey: every `(link, session)` pair with a
/// defined redundancy.
pub(crate) fn survey(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<(LinkId, SessionId, f64)> {
    let mut out = Vec::new();
    for j in 0..net.link_count() {
        for i in 0..net.session_count() {
            if let Some(r) = redundancy(net, cfg, alloc, LinkId(j), SessionId(i)) {
                out.push((LinkId(j), SessionId(i), r));
            }
        }
    }
    out
}

/// The worst (largest) redundancy any session exhibits on any link.
pub fn max_redundancy(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> f64 {
    survey(net, cfg, alloc)
        .into_iter()
        .map(|(_, _, r)| r)
        .fold(1.0, f64::max)
}

/// Section 3.1's single-bottleneck fair rate: `n` sessions share a link of
/// capacity `c`; `m` of them have redundancy `v ≥ 1`, the rest are
/// efficient. Every receiver's max-min fair rate is `c / ((n−m) + m·v)`.
///
/// # Panics
///
/// Panics if `m > n`, `n == 0`, or `v < 1`.
pub fn bottleneck_fair_rate(capacity: f64, n_sessions: usize, m_redundant: usize, v: f64) -> f64 {
    assert!(n_sessions > 0, "need at least one session");
    assert!(m_redundant <= n_sessions, "m must not exceed n");
    assert!(v >= 1.0, "redundancy is at least 1");
    capacity / ((n_sessions - m_redundant) as f64 + m_redundant as f64 * v)
}

/// Figure 6's y-axis: the bottleneck fair rate normalized by the
/// all-efficient rate `c/n`, i.e. `n / ((n−m) + m·v)`. Depends only on the
/// ratio `m/n` and `v`: `1 / (1 − f + f·v)` for `f = m/n`.
pub fn normalized_fair_rate(fraction_redundant: f64, v: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&fraction_redundant),
        "fraction must be in [0,1]"
    );
    assert!(v >= 1.0, "redundancy is at least 1");
    1.0 / (1.0 - fraction_redundant + fraction_redundant * v)
}

/// One row of the Figure 6 sweep: redundancy value plus normalized fair rate
/// for each `m/n` curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6Row {
    /// The redundancy `v` (x-axis).
    pub v: f64,
    /// Normalized fair rates, one per requested `m/n` fraction.
    pub normalized_rates: Vec<f64>,
}

/// Regenerate the Figure 6 series: redundancy swept over `[1, v_max]` in
/// `steps` points for each `m/n` fraction. The paper plots
/// `m/n ∈ {0.01, 0.05, 0.1, 1}` over `v ∈ [1, 10]`.
pub fn figure6_series(fractions: &[f64], v_max: f64, steps: usize) -> Vec<Figure6Row> {
    assert!(steps >= 2 && v_max >= 1.0);
    (0..steps)
        .map(|t| {
            let v = 1.0 + (v_max - 1.0) * t as f64 / (steps - 1) as f64;
            Figure6Row {
                v,
                normalized_rates: fractions
                    .iter()
                    .map(|&f| normalized_fair_rate(f, v))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, SolverWorkspace};
    use crate::linkrate::{LinkRateConfig, LinkRateModel};
    use mlf_net::{Graph, Session};

    #[test]
    fn measured_redundancy_matches_model() {
        // Shared hub link with two receivers of one session.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 100.0).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let alloc = Allocation::from_rates(vec![vec![2.0, 1.0]]);

        let eff = LinkRateConfig::efficient(1);
        assert_eq!(
            redundancy(&net, &eff, &alloc, LinkId(0), SessionId(0)),
            Some(1.0)
        );
        let scaled = LinkRateConfig::uniform(1, LinkRateModel::Scaled(2.0));
        assert_eq!(
            redundancy(&net, &scaled, &alloc, LinkId(0), SessionId(0)),
            Some(2.0)
        );
        // Tail links have a single receiver: efficient even under Scaled.
        assert_eq!(
            redundancy(&net, &scaled, &alloc, LinkId(1), SessionId(0)),
            Some(1.0)
        );
        let sum = LinkRateConfig::uniform(1, LinkRateModel::Sum);
        assert_eq!(
            redundancy(&net, &sum, &alloc, LinkId(0), SessionId(0)),
            Some(1.5)
        );
        assert_eq!(max_redundancy(&net, &sum, &alloc), 1.5);
    }

    #[test]
    fn undefined_redundancy_is_none() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 1.0).unwrap();
        let net = Network::new(g, vec![Session::unicast(n[0], n[1])]).unwrap();
        let cfg = LinkRateConfig::efficient(1);
        let zero = Allocation::from_rates(vec![vec![0.0]]);
        assert_eq!(redundancy(&net, &cfg, &zero, LinkId(0), SessionId(0)), None);
    }

    #[test]
    fn bottleneck_formula_matches_paper() {
        // All efficient: c/n.
        assert_eq!(bottleneck_fair_rate(10.0, 5, 0, 1.0), 2.0);
        // All redundant at v: c/(n v).
        assert!((bottleneck_fair_rate(10.0, 5, 5, 2.0) - 1.0).abs() < 1e-12);
        // Mixed: c / ((n-m) + m v) = 10 / (3 + 2*3) = 10/9.
        assert!((bottleneck_fair_rate(10.0, 5, 2, 3.0) - 10.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_rate_figure6_endpoints() {
        // v = 1: no harm regardless of fraction.
        for f in [0.01, 0.05, 0.1, 1.0] {
            assert!((normalized_fair_rate(f, 1.0) - 1.0).abs() < 1e-12);
        }
        // m/n = 1: rate is 1/v.
        assert!((normalized_fair_rate(1.0, 10.0) - 0.1).abs() < 1e-12);
        // m/n = 0.01, v = 10: 1/(0.99 + 0.1) ≈ 0.917 — barely hurt.
        let r = normalized_fair_rate(0.01, 10.0);
        assert!(r > 0.9 && r < 1.0);
        // Monotone decreasing in v and in the fraction.
        assert!(normalized_fair_rate(0.1, 2.0) > normalized_fair_rate(0.1, 3.0));
        assert!(normalized_fair_rate(0.05, 5.0) > normalized_fair_rate(0.1, 5.0));
    }

    #[test]
    fn figure6_series_shape() {
        let rows = figure6_series(&[0.01, 0.05, 0.1, 1.0], 10.0, 10);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].v, 1.0);
        assert_eq!(rows[9].v, 10.0);
        for row in &rows {
            assert_eq!(row.normalized_rates.len(), 4);
            // Curves are ordered: higher fraction, lower rate (for v > 1).
            if row.v > 1.0 {
                for w in row.normalized_rates.windows(2) {
                    assert!(w[0] >= w[1]);
                }
            }
        }
    }

    #[test]
    fn redundancy_consistent_with_allocator_output() {
        // The Figure 6 scenario end-to-end: 4 unicasts + 1 redundant
        // 2-receiver session on one bottleneck. n=5, m=1, v=2:
        // rate = 12 / (4 + 2) = 2.
        let mut g = Graph::new();
        let s = g.add_node();
        let hub = g.add_node();
        g.add_link(s, hub, 12.0).unwrap();
        let r1 = g.add_node();
        let r2 = g.add_node();
        g.add_link(hub, r1, 1000.0).unwrap();
        g.add_link(hub, r2, 1000.0).unwrap();
        let mut sessions = vec![Session::multi_rate(s, vec![r1, r2])];
        for _ in 0..4 {
            sessions.push(Session::unicast(s, hub));
        }
        let net = Network::new(g, sessions).unwrap();
        let cfg = LinkRateConfig::efficient(5).with_session(0, LinkRateModel::Scaled(2.0));
        let alloc = Hybrid::as_declared()
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable")
            .allocation;
        let expected = bottleneck_fair_rate(12.0, 5, 1, 2.0);
        for (_, rate) in alloc.iter() {
            assert!((rate - expected).abs() < 1e-9, "rate {rate} != {expected}");
        }
    }
}
