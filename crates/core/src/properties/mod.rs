//! The four desirable fairness properties of Section 2.1 as executable
//! checkers.
//!
//! | Property | Perspective | Checker |
//! |----------|-------------|---------|
//! | 1. fully-utilized-receiver-fairness | receiver | [`fully_utilized`] |
//! | 2. same-path-receiver-fairness      | receiver | [`same_path`] |
//! | 3. per-receiver-link-fairness       | session  | [`per_receiver_link`] |
//! | 4. per-session-link-fairness        | session  | [`per_session_link`] |
//!
//! For a *unicast* network, Properties 1, 3 and 4 all collapse to Unicast
//! Fairness Property 1 and Property 2 to Unicast Fairness Property 2 (the
//! paper notes this in Section 2.2); the integration tests verify the
//! collapse. Theorem 1 asserts all four hold in a multi-rate max-min fair
//! allocation; Section 2.3's Figure 2 shows a single-rate max-min allocation
//! violating 1, 2 and 3 while still satisfying 4; Section 3's Figure 4 shows
//! redundancy breaking 3 and 4 while 1 and 2 survive.

pub mod fully_utilized;
pub mod per_receiver_link;
pub mod per_session_link;
pub mod same_path;

pub use fully_utilized::check_fully_utilized_receiver_fair;
pub use per_receiver_link::check_per_receiver_link_fair;
pub use per_session_link::check_per_session_link_fair;
pub(crate) use same_path::check_same_path_receiver_fair;

#[cfg(test)]
mod oracle;

use crate::allocation::{Allocation, RATE_EPS};
use crate::linkrate::LinkRateConfig;
use mlf_net::{Incidence, LinkId, Network, ReceiverId, SessionId};

/// Outcome of checking all four fairness properties on an allocation.
#[derive(Debug, Clone, Default)]
pub struct FairnessReport {
    /// Receivers violating fully-utilized-receiver-fairness (Property 1).
    pub fully_utilized_violations: Vec<ReceiverId>,
    /// Same-data-path receiver pairs with unequal, un-capped rates
    /// (Property 2).
    pub same_path_violations: Vec<(ReceiverId, ReceiverId)>,
    /// `(session, receiver)` pairs violating per-receiver-link-fairness
    /// (Property 3).
    pub per_receiver_link_violations: Vec<ReceiverId>,
    /// Sessions violating per-session-link-fairness (Property 4).
    pub per_session_link_violations: Vec<SessionId>,
}

impl FairnessReport {
    /// Whether Property 1 holds network-wide.
    pub fn fully_utilized_receiver_fair(&self) -> bool {
        self.fully_utilized_violations.is_empty()
    }

    /// Whether Property 2 holds network-wide.
    pub fn same_path_receiver_fair(&self) -> bool {
        self.same_path_violations.is_empty()
    }

    /// Whether Property 3 holds network-wide.
    pub fn per_receiver_link_fair(&self) -> bool {
        self.per_receiver_link_violations.is_empty()
    }

    /// Whether Property 4 holds network-wide.
    pub fn per_session_link_fair(&self) -> bool {
        self.per_session_link_violations.is_empty()
    }

    /// Whether all four properties hold.
    pub fn all_hold(&self) -> bool {
        self.fully_utilized_receiver_fair()
            && self.same_path_receiver_fair()
            && self.per_receiver_link_fair()
            && self.per_session_link_fair()
    }

    /// Number of properties (out of four) that hold.
    pub fn count_holding(&self) -> usize {
        [
            self.fully_utilized_receiver_fair(),
            self.same_path_receiver_fair(),
            self.per_receiver_link_fair(),
            self.per_session_link_fair(),
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

/// Check all four fairness properties of an allocation at once.
///
/// Equal, violation for violation, to calling the four checkers one by
/// one, but the link-level inputs Properties 1, 3 and 4 share (the
/// session link rates, the full-utilization mask and the per-link maxima)
/// are derived once instead of once per property.
pub fn check_all(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> FairnessReport {
    let links = LinkAudit::new(net, cfg, alloc);
    FairnessReport {
        fully_utilized_violations: fully_utilized::violations(net, alloc, &links),
        same_path_violations: check_same_path_receiver_fair(net, alloc),
        per_receiver_link_violations: per_receiver_link::violations(net, alloc, &links),
        per_session_link_violations: per_session_link::violations(net, alloc, &links),
    }
}

/// Push a violation onto `out`, which at most `bound` violations
/// (this one included) can still join: the first push sizes the list for
/// all of them, so a violation list costs one allocation, or none when
/// the property holds.
fn push_violation<T>(out: &mut Vec<T>, violation: T, bound: usize) {
    if out.capacity() == 0 {
        out.reserve_exact(bound);
    }
    out.push(violation);
}

/// `max(acc, x)` that keeps a NaN once it appears: a fold of it is NaN
/// exactly when some folded value is.
///
/// Over a non-empty set `X`, `fold(nan_max, X) ≤ t` is then bitwise the
/// answer of `X.all(|x| x ≤ t)`: with no NaN both say that the largest
/// element is at most `t`, and with one both are `false`. Which of `±0.0`
/// the fold keeps does not matter, since the two compare equal.
fn nan_max(acc: f64, x: f64) -> f64 {
    if x > acc || x.is_nan() {
        x
    } else {
        acc
    }
}

/// The link-level facts Properties 1, 3 and 4 read, derived once per
/// audit.
///
/// Per incidence slot it holds the session link rate `u_{i,j}`. Per link
/// it holds whether the link is fully utilized, the largest receiver rate
/// in `R_j`, and the largest session link rate over the sessions crossing
/// it. Both maxima are [`nan_max`] folds, so a property's "every rate on
/// the link is at most `x + ε`" scan becomes one comparison against the
/// maximum.
pub(crate) struct LinkAudit {
    /// `u_{i,j}` of each slot.
    slot_rates: Vec<f64>,
    links: Vec<LinkFacts>,
}

/// One link's row of a [`LinkAudit`].
#[derive(Clone, Copy)]
struct LinkFacts {
    /// `u_j ≥ c_j` within tolerance.
    full: bool,
    /// The largest `a_{i,k}` over `R_j`.
    rate_max: f64,
    /// The largest `u_{i,j}` over all sessions.
    share_max: f64,
}

impl LinkAudit {
    /// Evaluate every slot's `u_{i,j}` as [`Allocation::session_link_rate`]
    /// does, and derive `u_j` by the session-order sum
    /// [`Allocation::link_rate`] performs. That sum also adds `0.0` for
    /// every session off the link, which changes at most the sign of a
    /// zero, so the mask is the one [`Allocation::is_fully_utilized`]
    /// computes.
    pub(crate) fn new(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> Self {
        let inc = net.incidence();
        let mut slot_rates = Vec::with_capacity(inc.slot_count());
        let mut links = Vec::with_capacity(net.link_count());
        for j in 0..net.link_count() {
            let slots = inc.link_slots(j);
            let mut u = 0.0;
            let mut rate_max = f64::NEG_INFINITY;
            let mut share_max = f64::NEG_INFINITY;
            for slot in slots {
                let i = inc.slot_session(slot);
                let rates = &alloc.rates()[i];
                let on_link = inc.slot_receivers(slot).iter().map(|&k| rates[k]);
                rate_max = on_link.clone().fold(rate_max, nan_max);
                let rate = cfg.model(i).link_rate_of(on_link);
                slot_rates.push(rate);
                u += rate;
                share_max = nan_max(share_max, rate);
            }
            links.push(LinkFacts {
                full: u >= net.graph().capacity(LinkId(j)) - RATE_EPS,
                rate_max,
                share_max,
            });
        }
        LinkAudit { slot_rates, links }
    }

    /// Property 1's link condition for a receiver at rate `a` crossing
    /// `link`: the link is fully utilized and `a_{i',k'} ≤ a + ε` for all
    /// `r_{i',k'} ∈ R_j`.
    #[inline]
    pub(crate) fn bottleneck_for(&self, link: LinkId, a: f64) -> bool {
        let facts = self.links[link.0];
        facts.full && facts.rate_max <= a + RATE_EPS
    }

    /// Properties 3 and 4's link condition for the session of `slot`, a
    /// slot on `link`: the link is fully utilized and
    /// `u_{i',j} ≤ u_{i,j} + ε` for all `i' ≠ i`.
    ///
    /// The maximum differs from the definition's `i' ≠ i` scan in two
    /// ways, and neither changes the answer on a fully utilized link.
    /// It includes the session's own rate, which adds the test
    /// `u_{i,j} ≤ u_{i,j} + ε` that only a NaN fails; a NaN `u_{i,j}`
    /// makes `u_j` NaN, so the link is not full. It leaves out the
    /// sessions off the link, whose `u = 0` fails the test only when
    /// `u_{i,j} < −ε`; then every crossing rate is below `0` too, so
    /// `u_j < −ε` and the link is not full.
    #[inline]
    fn fair_share(&self, link: LinkId, slot: usize) -> bool {
        let facts = self.links[link.0];
        facts.full && facts.share_max <= self.slot_rates[slot] + RATE_EPS
    }

    /// Whether flat receiver `f`'s data-path has a link meeting
    /// [`LinkAudit::fair_share`] for its session: the link condition of
    /// Property 3, and of Property 4 for any one receiver of the session.
    pub(crate) fn fair_share_on_path(&self, inc: &Incidence, f: usize) -> bool {
        inc.route_links(f)
            .iter()
            .zip(inc.route_slots(f))
            .any(|(&l, &(slot, _))| self.fair_share(l, slot))
    }
}

/// Unicast Fairness Property 1 (Section 2.1) on an all-unicast network:
/// each session is at `κ_i` or has a fully utilized link on its path where
/// its rate is the largest among crossing receivers. Delegates to the
/// multicast Property 1 checker, to which it is equivalent for unicast.
pub fn check_unicast_property1(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<ReceiverId> {
    debug_assert!(net.sessions().iter().all(|s| s.is_unicast()));
    check_fully_utilized_receiver_fair(net, cfg, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, SolverWorkspace};
    use crate::linkrate::LinkRateModel;
    use mlf_net::topology::{random_network_with, SplitMix64};
    use mlf_net::{NodeId, Session, SessionType, TopologyFamily};

    /// `check_all` shares one link audit across Properties 1, 3 and 4; it
    /// must report exactly what the four checkers report one by one, on
    /// max-min allocations and on perturbed ones that violate properties.
    #[test]
    fn check_all_equals_the_four_checkers() {
        let families = [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 3 },
            TopologyFamily::Dumbbell,
        ];
        let models = [
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
            LinkRateModel::RandomJoin { sigma: 4.0 },
        ];
        let mut ws = SolverWorkspace::new();
        let mut violations_seen = 0;
        for (f, &family) in families.iter().enumerate() {
            for seed in 0..12u64 {
                let mut rng = SplitMix64(seed * 31 + f as u64);
                let mut net = random_network_with(family, seed, 16, 5, 4).unwrap();
                for i in 0..net.session_count() {
                    if rng.below(3) == 0 {
                        net = net.with_session_kind(SessionId(i), SessionType::SingleRate);
                    }
                }
                for model in models {
                    let cfg = LinkRateConfig::uniform(net.session_count(), model);
                    let solved = Hybrid::as_declared()
                        .solve_with(&net, &cfg, &mut ws)
                        .expect("solvable")
                        .allocation;
                    let perturbed = Allocation::from_rates(
                        solved
                            .rates()
                            .iter()
                            .map(|rs| {
                                rs.iter()
                                    .map(|&a| a * (0.5 + rng.below(5) as f64 * 0.25))
                                    .collect()
                            })
                            .collect(),
                    );
                    for alloc in [&solved, &perturbed] {
                        let all = check_all(&net, &cfg, alloc);
                        assert_eq!(
                            all.fully_utilized_violations,
                            check_fully_utilized_receiver_fair(&net, &cfg, alloc)
                        );
                        assert_eq!(
                            all.same_path_violations,
                            check_same_path_receiver_fair(&net, alloc)
                        );
                        assert_eq!(
                            all.per_receiver_link_violations,
                            check_per_receiver_link_fair(&net, &cfg, alloc)
                        );
                        assert_eq!(
                            all.per_session_link_violations,
                            check_per_session_link_fair(&net, &cfg, alloc)
                        );
                        violations_seen += 4 - all.count_holding();
                    }
                }
            }
        }
        assert!(
            violations_seen > 0,
            "the perturbed allocations must violate"
        );
    }

    /// The shared mask is bitwise the one `Allocation::is_fully_utilized`
    /// computes, the slot rates are `Allocation::session_link_rate`, and
    /// the per-link maxima are those of the link's receiver rates and of
    /// its sessions' link rates.
    #[test]
    fn link_audit_matches_allocation_accessors() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..8u64 {
            let net = random_network_with(TopologyFamily::FlatTree, seed, 20, 6, 5).unwrap();
            let cfg = LinkRateConfig::uniform(
                net.session_count(),
                LinkRateModel::RandomJoin { sigma: 6.0 },
            );
            let alloc = Hybrid::as_declared()
                .solve_with(&net, &cfg, &mut ws)
                .expect("solvable")
                .allocation;
            let links = LinkAudit::new(&net, &cfg, &alloc);
            let inc = net.incidence();
            for j in 0..net.link_count() {
                let link = LinkId(j);
                assert_eq!(
                    links.links[j].full,
                    alloc.is_fully_utilized(&net, &cfg, link)
                );
                let shares: Vec<f64> = (0..net.session_count())
                    .map(|i| alloc.session_link_rate(&net, &cfg, link, SessionId(i)))
                    .collect();
                for slot in inc.link_slots(j) {
                    let u = shares[inc.slot_session(slot)];
                    assert_eq!(links.slot_rates[slot].to_bits(), u.to_bits());
                }
                if inc.link_slots(j).is_empty() {
                    continue;
                }
                let share_max = inc
                    .link_slots(j)
                    .map(|slot| shares[inc.slot_session(slot)])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(links.links[j].share_max, share_max);
                let rate_max = net
                    .receivers_on_link(link)
                    .map(|r| alloc.rate(r))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(links.links[j].rate_max, rate_max);
            }
        }
    }

    /// Property 2 compares only receivers grouped by identical link sets;
    /// its pairs must equal the all-pairs scan's, in the same order, on
    /// networks where most receivers share a path with others.
    #[test]
    fn same_path_pairs_equal_the_all_pairs_scan() {
        let mut pairs_seen = 0;
        for seed in 0..48u64 {
            let mut rng = SplitMix64(seed);
            let nodes = 2 + rng.below(5);
            let g = mlf_net::topology::random_tree(seed, nodes, 1.0, 5.0);
            // Many sessions from two senders onto a handful of nodes:
            // co-located receivers of one sender share their path.
            let sessions: Vec<Session> = (0..10)
                .map(|_| {
                    let sender = NodeId(rng.below(2));
                    let mut receivers: Vec<NodeId> =
                        (0..nodes).map(NodeId).filter(|&n| n != sender).collect();
                    receivers.retain(|_| rng.below(3) > 0);
                    if receivers.is_empty() {
                        receivers.push(NodeId(1 - sender.0));
                    }
                    Session::multi_rate(sender, receivers).with_max_rate(1.0 + rng.below(3) as f64)
                })
                .collect();
            let net = Network::new(g, sessions).unwrap();
            let alloc = Allocation::from_rates(
                net.sessions()
                    .iter()
                    .map(|s| s.receivers.iter().map(|_| rng.below(4) as f64).collect())
                    .collect(),
            );
            let receivers: Vec<ReceiverId> = net.receivers().collect();
            let mut all_pairs = Vec::new();
            for (t, &a) in receivers.iter().enumerate() {
                for &b in &receivers[t + 1..] {
                    if net.same_data_path(a, b) && !same_path::pair_is_fair(&net, &alloc, a, b) {
                        all_pairs.push((a, b));
                    }
                }
            }
            let cfg = LinkRateConfig::efficient(net.session_count());
            assert_eq!(
                check_all(&net, &cfg, &alloc).same_path_violations,
                all_pairs
            );
            pairs_seen += all_pairs.len();
        }
        assert!(pairs_seen > 100, "only {pairs_seen} violating pairs");
    }
}
