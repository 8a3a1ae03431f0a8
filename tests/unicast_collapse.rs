//! Section 2.2's observation, machine-checked: "in a unicast network,
//! Fairness Property 2 and Unicast Property 2 are identical, and the
//! remaining multicast fairness properties are identical to Unicast
//! Property 1."
//!
//! On all-unicast networks, Properties 1, 3 and 4 must agree with each
//! other (and with Unicast Property 1) on *every* allocation — not just the
//! max-min one — and the max-min allocation must satisfy all of them.

use mlf_core::allocator::{Allocator, Hybrid, Unicast};
use mlf_core::{linkrate::LinkRateConfig, properties, theory};
use mlf_net::topology::{random_tree, SplitMix64};
use mlf_net::{Network, NodeId, Session};
use proptest::prelude::*;

/// A random all-unicast network on a random tree.
fn arb_unicast_network() -> impl Strategy<Value = Network> {
    (any::<u64>(), 4usize..14, 2usize..7).prop_map(|(seed, nodes, flows)| {
        let g = random_tree(seed, nodes, 1.0, 9.0).unwrap();
        let mut rng = SplitMix64(seed ^ 0x1234);
        let sessions = (0..flows)
            .map(|_| {
                let from = NodeId(rng.below(nodes));
                let mut to = NodeId(rng.below(nodes));
                if to == from {
                    to = NodeId((to.0 + 1) % nodes);
                }
                Session::unicast(from, to)
            })
            .collect();
        Network::new(g, sessions).expect("tree network")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Properties 1, 3, 4 agree receiver-by-receiver / session-by-session
    /// on arbitrary feasible allocations of unicast networks.
    #[test]
    fn properties_collapse_on_feasible_allocations(
        net in arb_unicast_network(),
        seed in any::<u64>(),
    ) {
        let cfg = LinkRateConfig::efficient(net.session_count());
        let mut rng = SplitMix64(seed);
        for _ in 0..5 {
            let alloc = theory::random_feasible_allocation(&net, &cfg, &mut rng);
            let p1 = properties::check_fully_utilized_receiver_fair(&net, &cfg, &alloc);
            let p3 = properties::check_per_receiver_link_fair(&net, &cfg, &alloc);
            let p4 = properties::check_per_session_link_fair(&net, &cfg, &alloc);
            // Unicast: receiver == session, so violation sets coincide.
            let s1: Vec<usize> = p1.iter().map(|r| r.session.0).collect();
            let s3: Vec<usize> = p3.iter().map(|r| r.session.0).collect();
            let s4: Vec<usize> = p4.iter().map(|s| s.0).collect();
            prop_assert_eq!(&s1, &s3, "P1 vs P3 differ");
            prop_assert_eq!(&s1, &s4, "P1 vs P4 differ");
            // And the delegating unicast-property wrappers agree too.
            let u1 = properties::check_unicast_property1(&net, &cfg, &alloc);
            prop_assert_eq!(u1, p1);
        }
    }

    /// The unicast max-min allocation (textbook algorithm) satisfies all
    /// four properties, and matches the general allocator.
    #[test]
    fn unicast_max_min_satisfies_everything(net in arb_unicast_network()) {
        let cfg = LinkRateConfig::efficient(net.session_count());
        let bg = Unicast::new().allocate(&net);
        let general = Hybrid::as_declared().allocate(&net);
        for (a, b) in bg.rates().iter().flatten().zip(general.rates().iter().flatten()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        let report = properties::check_all(&net, &cfg, &bg);
        prop_assert!(report.all_hold(), "{report:?}");
    }
}
