//! Fairness Property 3: *per-receiver-link-fairness*.
//!
//! A session `S_i`'s allocation is per-receiver-link-fair if for each of its
//! receivers `r_{i,k}` either (1) `a_{i,k} = κ_i`, or (2) some link `l_j` on
//! the receiver's data-path is fully utilized and `u_{i',j} ≤ u_{i,j}` for
//! all other sessions `S_{i'}`. The session must get a "fair share" of link
//! rate along *every* sender-to-receiver path — the session-perspective
//! strengthening of Property 1.
//!
//! Figure 2 violates it twice for `S1`: no link on `r_{1,3}`'s path is full,
//! and on `r_{1,1}`'s path only `l_1` is full where `u_{1,1} = 2 < u_{2,1} =
//! 3`. Figure 4 shows redundancy (not just single-rate coupling) breaking it.

use crate::allocation::{Allocation, RATE_EPS};
use crate::linkrate::LinkRateConfig;
use crate::properties::{push_violation, LinkAudit};
use mlf_net::{Network, ReceiverId};

/// Return the receivers witnessing per-receiver-link-fairness violations
/// (the property is per-session; a session violates it iff any of its
/// receivers is returned). Empty result ⇒ Property 3 holds network-wide.
pub fn check_per_receiver_link_fair(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<ReceiverId> {
    violations(net, alloc, &LinkAudit::new(net, cfg, alloc))
}

/// Property 3's violations, reading session link rates and
/// full-utilization from a prepared [`LinkAudit`].
pub(crate) fn violations(net: &Network, alloc: &Allocation, links: &LinkAudit) -> Vec<ReceiverId> {
    let inc = net.incidence();
    let mut out = Vec::new();
    for (i, s) in net.sessions().iter().enumerate() {
        let rates = &alloc.rates()[i][..s.receivers.len()];
        for (k, &a) in rates.iter().enumerate() {
            let f = inc.flat(i, k);
            let ok = a >= s.max_rate - RATE_EPS || links.fair_share_on_path(inc, f);
            if !ok {
                let bound = inc.receiver_count() - f;
                push_violation(&mut out, ReceiverId::new(i, k), bound);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::{Graph, Session};

    /// Shared link (cap 5) carrying a 2-receiver multicast and a unicast,
    /// plus private tails.
    fn net() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 5.0).unwrap(); // shared
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fair_split_passes() {
        let net = net();
        let cfg = LinkRateConfig::efficient(2);
        // u_1 = max(2.5, 2.5) = 2.5, u_2 = 2.5, shared link full.
        let alloc = Allocation::from_rates(vec![vec![2.5, 2.5], vec![2.5]]);
        assert!(check_per_receiver_link_fair(&net, &cfg, &alloc).is_empty());
    }

    #[test]
    fn session_with_smaller_share_on_its_only_full_link_fails() {
        let net = net();
        let cfg = LinkRateConfig::efficient(2);
        // Session 0 squeezed to 1 while the unicast takes 4.
        let alloc = Allocation::from_rates(vec![vec![1.0, 1.0], vec![4.0]]);
        let v = check_per_receiver_link_fair(&net, &cfg, &alloc);
        assert_eq!(v, vec![ReceiverId::new(0, 0), ReceiverId::new(0, 1)]);
    }

    #[test]
    fn no_full_link_on_path_fails() {
        let net = net();
        let cfg = LinkRateConfig::efficient(2);
        let alloc = Allocation::from_rates(vec![vec![1.0, 1.0], vec![1.0]]);
        assert_eq!(check_per_receiver_link_fair(&net, &cfg, &alloc).len(), 3);
    }

    #[test]
    fn kappa_capped_receivers_pass_without_full_links() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 10.0).unwrap();
        let netk = Network::new(g, vec![Session::unicast(n[0], n[1]).with_max_rate(2.0)]).unwrap();
        let cfg = LinkRateConfig::efficient(1);
        let alloc = Allocation::from_rates(vec![vec![2.0]]);
        assert!(check_per_receiver_link_fair(&netk, &cfg, &alloc).is_empty());
    }
}
