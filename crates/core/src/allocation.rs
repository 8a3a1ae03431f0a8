//! Receiver-rate allocations and their induced link rates.
//!
//! An *allocation* assigns a rate `a_{i,k}` to every receiver `r_{i,k}` in a
//! network (Section 2). Given a per-session link-rate model `v_i`, the
//! allocation induces session link rates `u_{i,j} = v_i({a_{i,k} : r_{i,k} ∈
//! R_{i,j}})` and link rates `u_j = Σ_i u_{i,j}`. An allocation is *feasible*
//! when `0 ≤ a_{i,k} ≤ κ_i` for every receiver, single-rate sessions have
//! uniform receiver rates, and `u_j ≤ c_j` on every link.

use crate::linkrate::LinkRateConfig;
use mlf_net::{LinkId, Network, ReceiverId, SessionId};

/// Tolerance used for feasibility and full-utilization comparisons.
/// Rates in the paper's examples are small integers or simple fractions, so
/// a relative tolerance is unnecessary.
pub(crate) const RATE_EPS: f64 = 1e-9;

/// An assignment of rates to every receiver of a network, shaped
/// `[session][receiver]` to mirror [`Network`]'s layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    rates: Vec<Vec<f64>>,
}

impl Allocation {
    /// Build an allocation from explicit rates. The shape must match the
    /// network it will be used with; shape errors surface on first access.
    pub fn from_rates(rates: Vec<Vec<f64>>) -> Self {
        Allocation { rates }
    }

    /// The rate `a_{i,k}` of a receiver.
    pub fn rate(&self, r: ReceiverId) -> f64 {
        self.rates[r.session.0][r.index]
    }

    /// Set the rate of a receiver.
    pub(crate) fn set_rate(&mut self, r: ReceiverId, rate: f64) {
        self.rates[r.session.0][r.index] = rate;
    }

    /// Raw rates, `[session][receiver]`.
    pub fn rates(&self) -> &[Vec<f64>] {
        &self.rates
    }

    /// Iterate over `(ReceiverId, rate)` pairs, session-major.
    pub fn iter(&self) -> impl Iterator<Item = (ReceiverId, f64)> + '_ {
        self.rates.iter().enumerate().flat_map(|(i, rs)| {
            rs.iter()
                .enumerate()
                .map(move |(k, &a)| (ReceiverId::new(i, k), a))
        })
    }

    /// Total number of receivers.
    pub fn receiver_count(&self) -> usize {
        self.rates.iter().map(Vec::len).sum()
    }

    /// The rates of session `i`'s receivers whose data-path crosses `link`
    /// (the argument set of `v_i` on that link).
    pub(crate) fn rates_on_link(
        &self,
        net: &Network,
        link: LinkId,
        session: SessionId,
    ) -> Vec<f64> {
        net.receivers_of_session_on_link(link, session)
            .iter()
            .map(|&k| self.rates[session.0][k])
            .collect()
    }

    /// The session link rate `u_{i,j} = v_i({a_{i,k} : r_{i,k} ∈ R_{i,j}})`.
    pub fn session_link_rate(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        link: LinkId,
        session: SessionId,
    ) -> f64 {
        let rates = self.rates_on_link(net, link, session);
        cfg.model(session.0).link_rate(&rates)
    }

    /// The link rate `u_j = Σ_i u_{i,j}`.
    pub fn link_rate(&self, net: &Network, cfg: &LinkRateConfig, link: LinkId) -> f64 {
        (0..net.session_count())
            .map(|i| self.session_link_rate(net, cfg, link, SessionId(i)))
            .sum()
    }

    /// All link rates, indexed by link id.
    pub fn link_rates(&self, net: &Network, cfg: &LinkRateConfig) -> Vec<f64> {
        (0..net.link_count())
            .map(|j| self.link_rate(net, cfg, LinkId(j)))
            .collect()
    }

    /// Whether link `j` is fully utilized (`u_j = c_j` within tolerance).
    pub fn is_fully_utilized(&self, net: &Network, cfg: &LinkRateConfig, link: LinkId) -> bool {
        self.link_rate(net, cfg, link) >= net.graph().capacity(link) - RATE_EPS
    }

    /// Feasibility check (Section 2): rates within `[0, κ_i]`, single-rate
    /// sessions uniform, and no link over capacity.
    pub fn is_feasible(&self, net: &Network, cfg: &LinkRateConfig) -> bool {
        self.feasibility_violation(net, cfg).is_none()
    }

    /// Like [`Allocation::is_feasible`] but reports the first violation
    /// found, for diagnostics in tests and examples.
    pub fn feasibility_violation(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
    ) -> Option<FeasibilityViolation> {
        if self.rates.len() != net.session_count() {
            return Some(FeasibilityViolation::ShapeMismatch);
        }
        for (i, s) in net.sessions().iter().enumerate() {
            if self.rates[i].len() != s.receivers.len() {
                return Some(FeasibilityViolation::ShapeMismatch);
            }
            for (k, &a) in self.rates[i].iter().enumerate() {
                if !a.is_finite() || a < -RATE_EPS {
                    return Some(FeasibilityViolation::NegativeRate(ReceiverId::new(i, k)));
                }
                if a > s.max_rate + RATE_EPS {
                    return Some(FeasibilityViolation::ExceedsMaxRate(ReceiverId::new(i, k)));
                }
            }
            if s.kind.is_single_rate() {
                let first = self.rates[i][0];
                for (k, &a) in self.rates[i].iter().enumerate() {
                    if (a - first).abs() > RATE_EPS {
                        return Some(FeasibilityViolation::SingleRateMismatch(ReceiverId::new(
                            i, k,
                        )));
                    }
                }
            }
        }
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let u = self.link_rate(net, cfg, link);
            if u > net.graph().capacity(link) + RATE_EPS {
                return Some(FeasibilityViolation::OverCapacity {
                    link,
                    rate: u,
                    capacity: net.graph().capacity(link),
                });
            }
        }
        None
    }

    /// The *ordered vector* of all receiver rates (ascending), the object
    /// the min-unfavorable ordering of Definition 2 compares.
    pub fn ordered_vector(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.rates.iter().flatten().copied().collect();
        // total_cmp keeps the sort NaN-safe: a non-finite rate produced by
        // an upstream model sorts last instead of panicking the sweep.
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sum of all receiver rates (a coarse efficiency/throughput metric used
    /// in experiment reporting; not a fairness criterion).
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().flatten().sum()
    }

    /// The smallest receiver rate.
    pub fn min_rate(&self) -> f64 {
        self.rates
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// A specific way an allocation violates feasibility.
#[derive(Debug, Clone, PartialEq)]
pub enum FeasibilityViolation {
    /// Allocation shape does not match the network.
    ShapeMismatch,
    /// A receiver has a negative (or non-finite) rate.
    NegativeRate(ReceiverId),
    /// A receiver exceeds its session's maximum desired rate `κ_i`.
    ExceedsMaxRate(ReceiverId),
    /// A single-rate session has receivers at different rates.
    SingleRateMismatch(ReceiverId),
    /// A link carries more than its capacity.
    OverCapacity {
        /// The overloaded link.
        link: LinkId,
        /// The induced link rate `u_j`.
        rate: f64,
        /// The capacity `c_j`.
        capacity: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkrate::LinkRateModel;
    use mlf_net::{Graph, Session};

    /// sender(n0) --l0:6-- hub(n1) --l1:4-- n2 ; hub --l2:2-- n3
    fn tree() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 6.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 2.0).unwrap();
        Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap()
    }

    #[test]
    fn link_rates_under_efficient_model_use_max() {
        let net = tree();
        let cfg = LinkRateConfig::efficient(1);
        let alloc = Allocation::from_rates(vec![vec![4.0, 2.0]]);
        // Shared first hop carries the max of the two receiver rates.
        assert_eq!(alloc.link_rate(&net, &cfg, LinkId(0)), 4.0);
        assert_eq!(alloc.link_rate(&net, &cfg, LinkId(1)), 4.0);
        assert_eq!(alloc.link_rate(&net, &cfg, LinkId(2)), 2.0);
        assert!(alloc.is_feasible(&net, &cfg));
        assert!(alloc.is_fully_utilized(&net, &cfg, LinkId(1)));
        assert!(alloc.is_fully_utilized(&net, &cfg, LinkId(2)));
        assert!(!alloc.is_fully_utilized(&net, &cfg, LinkId(0)));
    }

    #[test]
    fn sum_model_can_overload_the_shared_link() {
        let net = tree();
        let cfg = LinkRateConfig::uniform(1, LinkRateModel::Sum);
        let alloc = Allocation::from_rates(vec![vec![4.0, 2.0]]);
        assert_eq!(alloc.link_rate(&net, &cfg, LinkId(0)), 6.0);
        assert!(alloc.is_feasible(&net, &cfg));
        let alloc = Allocation::from_rates(vec![vec![4.0, 2.1]]);
        assert!(matches!(
            alloc.feasibility_violation(&net, &cfg),
            Some(FeasibilityViolation::OverCapacity {
                link: LinkId(0),
                ..
            })
        ));
    }

    #[test]
    fn feasibility_catches_each_violation_kind() {
        let net = tree();
        let cfg = LinkRateConfig::efficient(1);
        assert!(matches!(
            Allocation::from_rates(vec![vec![-1.0, 0.0]]).feasibility_violation(&net, &cfg),
            Some(FeasibilityViolation::NegativeRate(_))
        ));
        assert!(matches!(
            Allocation::from_rates(vec![vec![0.0]]).feasibility_violation(&net, &cfg),
            Some(FeasibilityViolation::ShapeMismatch)
        ));
        // κ violation.
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 10.0).unwrap();
        let net2 = Network::new(g, vec![Session::unicast(n[0], n[1]).with_max_rate(1.0)]).unwrap();
        assert!(matches!(
            Allocation::from_rates(vec![vec![2.0]])
                .feasibility_violation(&net2, &LinkRateConfig::efficient(1)),
            Some(FeasibilityViolation::ExceedsMaxRate(_))
        ));
    }

    #[test]
    fn single_rate_sessions_must_be_uniform() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[0], n[2], 10.0).unwrap();
        let net = Network::new(g, vec![Session::single_rate(n[0], vec![n[1], n[2]])]).unwrap();
        let cfg = LinkRateConfig::efficient(1);
        assert!(Allocation::from_rates(vec![vec![2.0, 2.0]]).is_feasible(&net, &cfg));
        assert!(matches!(
            Allocation::from_rates(vec![vec![2.0, 3.0]]).feasibility_violation(&net, &cfg),
            Some(FeasibilityViolation::SingleRateMismatch(_))
        ));
    }

    #[test]
    fn ordered_vector_sorts_ascending() {
        let alloc = Allocation::from_rates(vec![vec![3.0, 1.0], vec![2.0]]);
        assert_eq!(alloc.ordered_vector(), vec![1.0, 2.0, 3.0]);
        assert_eq!(alloc.total_rate(), 6.0);
        assert_eq!(alloc.min_rate(), 1.0);
        assert_eq!(alloc.receiver_count(), 3);
    }

    #[test]
    fn iter_and_setters_round_trip() {
        let mut a = Allocation::from_rates(vec![vec![0.0, 0.0]]);
        a.set_rate(ReceiverId::new(0, 1), 2.5);
        assert_eq!(a.rate(ReceiverId::new(0, 1)), 2.5);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected[1], (ReceiverId::new(0, 1), 2.5));
    }
}
