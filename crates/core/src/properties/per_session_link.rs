//! Fairness Property 4: *per-session-link-fairness*.
//!
//! An allocation is per-session-link-fair for session `S_i` if every
//! receiver of `S_i` is at `κ_i`, or there exists a fully utilized link
//! `l_j` in `S_i`'s data-path where `u_{i',j} ≤ u_{i,j}` for all other
//! sessions. This is the weakest of the four properties — the session needs
//! a fair share on at least *one* link of its data-path (equivalently, on at
//! least one receiver's path), not on every receiver's path.
//!
//! It is the only property a single-rate max-min fair allocation always
//! satisfies (a consequence of the Tzeng–Siu results, Section 2.3), and the
//! property that *redundancy* destroys first: in Figure 4, `u_{1,4} = 4 >
//! u_{2,4} = 2` on the only full link of `S2`'s data-path.

use crate::allocation::{Allocation, RATE_EPS};
use crate::linkrate::LinkRateConfig;
use crate::properties::{push_violation, LinkAudit};
use mlf_net::{Network, SessionId};

/// Return the sessions violating per-session-link-fairness. Empty result ⇒
/// Property 4 holds network-wide.
pub fn check_per_session_link_fair(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<SessionId> {
    violations(net, alloc, &LinkAudit::new(net, cfg, alloc))
}

/// Property 4's violations, reading session link rates and
/// full-utilization from a prepared [`LinkAudit`]. A session's data-path
/// is the union of its receivers' routes, so it has a fair full link
/// exactly when one of its receivers' routes has one.
pub(crate) fn violations(net: &Network, alloc: &Allocation, links: &LinkAudit) -> Vec<SessionId> {
    let inc = net.incidence();
    let mut out = Vec::new();
    for (i, s) in net.sessions().iter().enumerate() {
        let receivers = 0..s.receivers.len();
        let fair_link = receivers
            .clone()
            .any(|k| links.fair_share_on_path(inc, inc.flat(i, k)));
        let rates = &alloc.rates()[i];
        if !fair_link && !receivers.clone().all(|k| rates[k] >= s.max_rate - RATE_EPS) {
            push_violation(&mut out, SessionId(i), net.session_count() - i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkrate::LinkRateModel;
    use mlf_net::{Graph, Session};

    /// Figure-4-shaped network: shared first hop + three tails for S1's
    /// receivers, unicast S2 sharing the first tail.
    fn fig4_like() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(5);
        g.add_link(n[1], n[2], 5.0).unwrap(); // l1
        g.add_link(n[1], n[3], 2.0).unwrap(); // l2
        g.add_link(n[1], n[4], 3.0).unwrap(); // l3
        g.add_link(n[0], n[1], 6.0).unwrap(); // l4 shared
        Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[3], n[4]]).with_max_rate(100.0),
                Session::unicast(n[0], n[2]).with_max_rate(100.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn redundancy_breaks_property4_for_the_competing_session() {
        let net = fig4_like();
        let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));
        // The redundant max-min allocation: everyone at 2.
        let alloc = Allocation::from_rates(vec![vec![2.0, 2.0, 2.0], vec![2.0]]);
        let v = check_per_session_link_fair(&net, &cfg, &alloc);
        // S2's only full link is l4 where u_{2,4}=2 < u_{1,4}=4.
        assert_eq!(v, vec![SessionId(1)]);
    }

    #[test]
    fn efficient_allocation_satisfies_property4() {
        let net = fig4_like();
        let cfg = LinkRateConfig::efficient(2);
        // Efficient max-min: (3, 2, 3; 3): l4 carries 3+3=6 full, equal
        // shares.
        let alloc = Allocation::from_rates(vec![vec![3.0, 2.0, 3.0], vec![3.0]]);
        assert!(check_per_session_link_fair(&net, &cfg, &alloc).is_empty());
    }

    #[test]
    fn all_capped_session_passes_vacuously() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 10.0).unwrap();
        let net = Network::new(g, vec![Session::unicast(n[0], n[1]).with_max_rate(1.0)]).unwrap();
        let cfg = LinkRateConfig::efficient(1);
        let alloc = Allocation::from_rates(vec![vec![1.0]]);
        assert!(check_per_session_link_fair(&net, &cfg, &alloc).is_empty());
    }

    #[test]
    fn session_with_no_fair_full_link_fails() {
        let net = fig4_like();
        let cfg = LinkRateConfig::efficient(2);
        // Nothing full at all.
        let alloc = Allocation::from_rates(vec![vec![0.5, 0.5, 0.5], vec![0.5]]);
        assert_eq!(check_per_session_link_fair(&net, &cfg, &alloc).len(), 2);
    }
}
