//! Fairness Property 1: *fully-utilized-receiver-fairness*.
//!
//! A receiver's rate `a_{i,k}` is fully-utilized-receiver-fair if either
//! `a_{i,k} = κ_i`, or there is at least one fully utilized link `l_j` with
//! `r_{i,k} ∈ R_{i,j}` and `a_{i',k'} ≤ a_{i,k}` for all receivers
//! `r_{i',k'} ∈ R_j`. This is the multicast extension of the unicast
//! max-min property's "no stealing": the receiver's rate cannot be raised
//! without using a saturated link on which it is already a maximal receiver.

use crate::allocation::{Allocation, RATE_EPS};
use crate::linkrate::LinkRateConfig;
use crate::properties::{push_violation, LinkAudit};
use mlf_net::{Network, ReceiverId};

/// Return the receivers whose rates are *not* fully-utilized-receiver-fair.
/// An empty result means the allocation has Property 1 network-wide.
pub fn check_fully_utilized_receiver_fair(
    net: &Network,
    cfg: &LinkRateConfig,
    alloc: &Allocation,
) -> Vec<ReceiverId> {
    violations(net, alloc, &LinkAudit::new(net, cfg, alloc))
}

/// Property 1's violations, reading full-utilization and each link's
/// largest receiver rate from a prepared [`LinkAudit`].
pub(crate) fn violations(net: &Network, alloc: &Allocation, links: &LinkAudit) -> Vec<ReceiverId> {
    let inc = net.incidence();
    let mut out = Vec::new();
    for (i, s) in net.sessions().iter().enumerate() {
        let rates = &alloc.rates()[i][..s.receivers.len()];
        for (k, &a) in rates.iter().enumerate() {
            let f = inc.flat(i, k);
            let fair = a >= s.max_rate - RATE_EPS
                || inc
                    .route_links(f)
                    .iter()
                    .any(|&l| links.bottleneck_for(l, a));
            if !fair {
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
    use crate::linkrate::LinkRateConfig;
    use mlf_net::{Graph, Session};

    /// Two unicasts over one shared link of capacity 4.
    fn shared_link_net() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 4.0).unwrap();
        Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap()
    }

    #[test]
    fn equal_split_is_fair() {
        let net = shared_link_net();
        let cfg = LinkRateConfig::efficient(2);
        let alloc = Allocation::from_rates(vec![vec![2.0], vec![2.0]]);
        assert!(check_fully_utilized_receiver_fair(&net, &cfg, &alloc).is_empty());
    }

    #[test]
    fn starved_receiver_is_flagged() {
        let net = shared_link_net();
        let cfg = LinkRateConfig::efficient(2);
        // Link full but receiver 0 is below receiver 1: receiver 0 has no
        // full link where it is maximal.
        let alloc = Allocation::from_rates(vec![vec![1.0], vec![3.0]]);
        let v = check_fully_utilized_receiver_fair(&net, &cfg, &alloc);
        assert_eq!(v, vec![ReceiverId::new(0, 0)]);
    }

    #[test]
    fn underutilized_link_is_flagged_for_everyone() {
        let net = shared_link_net();
        let cfg = LinkRateConfig::efficient(2);
        let alloc = Allocation::from_rates(vec![vec![1.0], vec![1.0]]);
        let v = check_fully_utilized_receiver_fair(&net, &cfg, &alloc);
        assert_eq!(v.len(), 2, "nobody has a saturated bottleneck");
    }

    #[test]
    fn kappa_capped_receiver_is_fair_without_a_full_link() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 4.0).unwrap();
        let net = Network::new(g, vec![Session::unicast(n[0], n[1]).with_max_rate(1.0)]).unwrap();
        let cfg = LinkRateConfig::efficient(1);
        let alloc = Allocation::from_rates(vec![vec![1.0]]);
        assert!(check_fully_utilized_receiver_fair(&net, &cfg, &alloc).is_empty());
    }
}
