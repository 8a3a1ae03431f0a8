//! The network's flat incidence against a naive recomputation from its
//! routes, and its independence from how the routes were supplied.

use mlf_net::topology::random_network_with;
use mlf_net::{paper, LinkId, Network, ReceiverId, SessionId, TopologyFamily};

const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 3 },
    TopologyFamily::Dumbbell,
];

fn networks() -> Vec<Network> {
    let mut nets = Vec::new();
    for family in FAMILIES {
        for seed in 0..8u64 {
            nets.push(random_network_with(family, seed, 16, 5, 4).unwrap());
        }
    }
    nets.push(paper::figure1().network);
    nets.push(paper::figure3b().network);
    nets
}

/// Slots, positions and route slots are exactly what a scan of `route(r)`
/// over every link and session gives, in ascending session and receiver
/// order.
#[test]
fn incidence_matches_a_naive_recomputation_from_routes() {
    for net in networks() {
        let inc = net.incidence();
        assert_eq!(inc.receiver_count(), net.receiver_count());
        let mut positions = 0;
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let mut sessions = Vec::new();
            let mut on_link = Vec::new();
            for i in 0..net.session_count() {
                let naive: Vec<usize> = (0..net.session(SessionId(i)).receivers.len())
                    .filter(|&k| net.route(ReceiverId::new(i, k)).contains(&link))
                    .collect();
                assert_eq!(net.receivers_of_session_on_link(link, SessionId(i)), naive);
                on_link.extend(naive.iter().map(|&k| ReceiverId::new(i, k)));
                if naive.is_empty() {
                    assert_eq!(inc.slot_of(j, i), None);
                    continue;
                }
                let slot = inc.slot_of(j, i).expect("a crossing session has a slot");
                assert_eq!(inc.slot_session(slot), i);
                assert_eq!(inc.slot_receivers(slot), naive);
                sessions.push(i);
            }
            let crossing: Vec<usize> = inc.link_slots(j).map(|s| inc.slot_session(s)).collect();
            assert_eq!(crossing, sessions, "sessions of link {j}, ascending");
            assert_eq!(net.receivers_on_link(link).collect::<Vec<_>>(), on_link);
            // Positions run link-major without gaps.
            if let Some(first) = inc.link_slots(j).next() {
                assert_eq!(inc.slot_positions(first).start, positions);
            }
            positions += on_link.len();
        }
        assert_eq!(inc.position_count(), positions);

        let mut flat = 0;
        for i in 0..net.session_count() {
            let mut path = vec![false; net.link_count()];
            let receivers = net.session(SessionId(i)).receivers.len();
            assert_eq!(inc.flat_range(i), flat..flat + receivers);
            for k in 0..receivers {
                let r = ReceiverId::new(i, k);
                assert_eq!(inc.flat(i, k), flat);
                let route = net.route(r);
                assert_eq!(inc.route_links(flat), route);
                let mut sorted: Vec<usize> = route.iter().map(|l| l.0).collect();
                sorted.sort_unstable();
                assert_eq!(inc.crossed(flat), sorted);
                assert_eq!(inc.route_slots(flat).len(), route.len());
                for (l, &(slot, p)) in route.iter().zip(inc.route_slots(flat)) {
                    assert_eq!(inc.slot_of(l.0, i), Some(slot));
                    assert!(inc.slot_positions(slot).contains(&p));
                    let offset = p - inc.slot_positions(slot).start;
                    assert_eq!(inc.slot_receivers(slot)[offset], k);
                    assert!(net.crosses(r, *l));
                    path[l.0] = true;
                }
                for j in 0..net.link_count() {
                    assert_eq!(net.crosses(r, LinkId(j)), route.contains(&LinkId(j)));
                }
                flat += 1;
            }
            assert_eq!(net.session_data_path(SessionId(i)), path);
        }
    }
}

/// The incidence depends only on the routes: explicit routes, and a
/// receiver removal, give exactly what is built from the same graph,
/// sessions and routes, by `Network::new` too wherever it picks them.
#[test]
fn with_routes_and_without_receiver_match_new() {
    for net in networks() {
        let (graph, sessions) = (net.graph().clone(), net.sessions().to_vec());
        let explicit = Network::with_routes(graph.clone(), sessions.clone(), net.routes()).unwrap();
        assert_eq!(explicit, net);
        // Figure 3(b) hands in routes `Network::new` would not pick.
        let shortest = Network::new(graph.clone(), sessions).unwrap() == net;

        for r in net.receivers() {
            let Ok(smaller) = net.without_receiver(r) else {
                continue; // the session's only receiver
            };
            let mut sessions = net.sessions().to_vec();
            sessions[r.session.0].receivers.remove(r.index);
            let mut routes = net.routes();
            routes[r.session.0].remove(r.index);
            let explicit = Network::with_routes(graph.clone(), sessions.clone(), routes).unwrap();
            assert_eq!(smaller.incidence(), explicit.incidence(), "without {r:?}");
            if shortest {
                let fresh = Network::new(graph.clone(), sessions).unwrap();
                assert_eq!(smaller.incidence(), fresh.incidence(), "without {r:?}");
            }
        }
    }
}
