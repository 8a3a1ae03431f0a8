//! Fairness Property 2: *same-path-receiver-fairness*.
//!
//! Two receivers `r_{i,k}` and `r_{i',k'}` whose data-paths traverse the
//! same set of links (`r_{i,k} ∈ R_j ⟺ r_{i',k'} ∈ R_j`) are same-path-
//! receiver-fair if their rates are equal, unless one of them is pinned at
//! its session's maximum desired rate *below* the other
//! (`a_{i,k} = κ_i < a_{i',k'}` or symmetrically).
//!
//! The paper highlights this as the property TCP-fairness implies: a unicast
//! TCP flow and a multicast receiver sharing its exact path should see the
//! same throughput. Figure 2 shows a single-rate max-min allocation breaking
//! it (`r_{1,1}` at 2 vs `r_{2,1}` at 3 on the identical path).

use crate::allocation::{Allocation, RATE_EPS};
use mlf_net::{Incidence, Network, ReceiverId};

/// Return all unordered receiver pairs with identical data-paths whose rates
/// violate same-path-receiver-fairness. Empty result ⇒ Property 2 holds.
///
/// Pairs come out in all-pairs order: by the first receiver, then the
/// second, both session-major. A receiver sharing `a`'s link set crosses
/// every link of it, so `a`'s partners are found among the receivers of
/// the link on its path that carries the fewest; that link's receivers
/// are stored session-major, so they come out in order.
pub(crate) fn check_same_path_receiver_fair(
    net: &Network,
    alloc: &Allocation,
) -> Vec<(ReceiverId, ReceiverId)> {
    let inc = net.incidence();
    let mut violations = Vec::new();
    for (i, s) in net.sessions().iter().enumerate() {
        for k in 0..s.receivers.len() {
            let a = ReceiverId::new(i, k);
            let path = inc.crossed(inc.flat(i, k));
            let mut check = |b: ReceiverId| {
                if b > a
                    && inc.crossed(inc.flat(b.session.0, b.index)) == path
                    && !pair_is_fair(net, alloc, a, b)
                {
                    violations.push((a, b));
                }
            };
            match path.iter().copied().min_by_key(|&j| receivers_on(inc, j)) {
                Some(j) => {
                    for slot in inc.link_slots(j) {
                        let i2 = inc.slot_session(slot);
                        for &k2 in inc.slot_receivers(slot) {
                            check(ReceiverId::new(i2, k2));
                        }
                    }
                }
                // An empty path (a receiver on its sender's node, which
                // network validation rejects) is shared with any receiver.
                None => net.receivers().for_each(check),
            }
        }
    }
    violations
}

/// `|R_j|`: how many receivers cross link `j`.
fn receivers_on(inc: &Incidence, j: usize) -> usize {
    let slots = inc.link_slots(j);
    if slots.is_empty() {
        return 0;
    }
    inc.slot_positions(slots.end - 1).end - inc.slot_positions(slots.start).start
}

/// Whether one specific same-path pair satisfies Property 2. Callers must
/// ensure the pair really shares a data-path.
pub(crate) fn pair_is_fair(
    net: &Network,
    alloc: &Allocation,
    a: ReceiverId,
    b: ReceiverId,
) -> bool {
    let ra = alloc.rate(a);
    let rb = alloc.rate(b);
    if (ra - rb).abs() <= RATE_EPS {
        return true;
    }
    let ka = net.session(a.session).max_rate;
    let kb = net.session(b.session).max_rate;
    // a capped below b, or b capped below a.
    (ra >= ka - RATE_EPS && ra < rb) || (rb >= kb - RATE_EPS && rb < ra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::{Graph, Session};

    /// Two unicast sessions over the identical two-hop path.
    fn twin_path_net(max0: f64, max1: f64) -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 10.0).unwrap();
        Network::new(
            g,
            vec![
                Session::unicast(n[0], n[2]).with_max_rate(max0),
                Session::unicast(n[0], n[2]).with_max_rate(max1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn equal_rates_are_fair() {
        let net = twin_path_net(100.0, 100.0);
        let alloc = Allocation::from_rates(vec![vec![5.0], vec![5.0]]);
        assert!(check_same_path_receiver_fair(&net, &alloc).is_empty());
    }

    #[test]
    fn unequal_rates_without_cap_are_flagged() {
        let net = twin_path_net(100.0, 100.0);
        let alloc = Allocation::from_rates(vec![vec![2.0], vec![3.0]]);
        let v = check_same_path_receiver_fair(&net, &alloc);
        assert_eq!(v, vec![(ReceiverId::new(0, 0), ReceiverId::new(1, 0))]);
    }

    #[test]
    fn kappa_pinned_receiver_may_lag() {
        // Session 0 capped at 2: (2, 8) is fair because a = κ < a'.
        let net = twin_path_net(2.0, 100.0);
        let alloc = Allocation::from_rates(vec![vec![2.0], vec![8.0]]);
        assert!(check_same_path_receiver_fair(&net, &alloc).is_empty());
        // But the *capped* receiver must be the smaller one.
        let alloc = Allocation::from_rates(vec![vec![2.0], vec![1.0]]);
        assert_eq!(check_same_path_receiver_fair(&net, &alloc).len(), 1);
    }

    #[test]
    fn different_paths_are_never_compared() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[0], n[2], 10.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[2])],
        )
        .unwrap();
        let alloc = Allocation::from_rates(vec![vec![1.0], vec![9.0]]);
        assert!(check_same_path_receiver_fair(&net, &alloc).is_empty());
    }

    #[test]
    fn same_session_multi_rate_receivers_can_violate() {
        // Contrived: two receivers of one multi-rate session reaching the
        // same node set via identical links cannot exist (distinct nodes),
        // but receivers of different sessions at the same node can. Pair a
        // multicast receiver with a unicast one.
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 10.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[1]]),
                Session::unicast(n[0], n[2]),
            ],
        )
        .unwrap();
        // r1,1 (path l0 l1) and r2,1 (path l0 l1) share a path; r1,2 (l0) no.
        let alloc = Allocation::from_rates(vec![vec![4.0, 9.0], vec![6.0]]);
        let v = check_same_path_receiver_fair(&net, &alloc);
        assert_eq!(v, vec![(ReceiverId::new(0, 0), ReceiverId::new(1, 0))]);
    }
}
