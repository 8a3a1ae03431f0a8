//! Property tests of the routing and network-assembly substrate.

use mlf_net::topology::{random_network, random_network_with, random_tree, SplitMix64};
use mlf_net::{
    paper, shortest_path, validate_route, Graph, LinkId, NetError, Network, NodeId, ReceiverId,
    Session, TopologyFamily,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The routing oracle: a BFS that finds a node's neighbours by scanning
/// `graph.links()` in id order, the order in which `Graph` once kept a
/// per-node adjacency list. Among equal-hop routes it must pick the one
/// `Network::new` and `shortest_path` pick.
fn link_scan_route(graph: &Graph, from: NodeId, to: NodeId) -> Option<Vec<LinkId>> {
    if from == to {
        return Some(Vec::new());
    }
    if from.0 >= graph.node_count() || to.0 >= graph.node_count() {
        return None;
    }
    let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; graph.node_count()];
    let mut queue = VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        for (id, link) in graph.links() {
            let Some(v) = link.opposite(u) else { continue };
            if v != from && parent[v.0].is_none() {
                parent[v.0] = Some((u, id));
                queue.push_back(v);
            }
        }
    }
    let mut route = Vec::new();
    let mut cur = to;
    while cur != from {
        let (prev, id) = parent[cur.0]?;
        route.push(id);
        cur = prev;
    }
    route.reverse();
    Some(route)
}

/// Every route of `net`, and `shortest_path` between every pair of nodes,
/// equal the link-scan oracle's.
fn assert_routes_match_the_link_scan_oracle(net: &Network) {
    let g = net.graph();
    for r in net.receivers() {
        let s = net.session(r.session);
        let expected = link_scan_route(g, s.sender, s.receivers[r.index])
            .expect("a built network routes every receiver");
        assert_eq!(net.route(r), expected.as_slice(), "route of {r:?}");
    }
    for a in g.nodes() {
        for b in g.nodes() {
            assert_eq!(
                shortest_path(g, a, b),
                link_scan_route(g, a, b),
                "{a:?} -> {b:?}"
            );
        }
    }
}

/// A multigraph with many equal-hop routes: `layers` layers of `width`
/// nodes, every node linked to every node of the next layer, and each
/// link doubled with probability 1/2. Links are inserted in an order
/// shuffled by `seed`, so link ids do not follow node ids and a neighbour
/// order by node id would pick different routes.
fn tied_multigraph(seed: u64, layers: usize, width: usize, sessions: usize) -> Network {
    let mut rng = SplitMix64(seed);
    let nodes = 1 + layers * width;
    let node = |layer: usize, t: usize| NodeId(1 + (layer - 1) * width + t);
    let mut pairs = Vec::new();
    for t in 0..width {
        pairs.push((NodeId(0), node(1, t)));
    }
    for layer in 1..layers {
        for t in 0..width {
            for u in 0..width {
                pairs.push((node(layer, t), node(layer + 1, u)));
            }
        }
    }
    for t in (1..pairs.len()).rev() {
        pairs.swap(t, rng.below(t + 1));
    }
    let mut g = Graph::new();
    for _ in 0..nodes {
        g.add_node();
    }
    for (a, b) in pairs {
        let (a, b) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
        g.add_link(a, b, 1.0 + rng.unit()).expect("valid link");
        if rng.below(2) == 0 {
            g.add_link(b, a, 1.0 + rng.unit())
                .expect("valid parallel link");
        }
    }
    let sessions = (0..sessions)
        .map(|_| {
            let sender = NodeId(rng.below(nodes));
            let receivers: Vec<NodeId> = (0..nodes)
                .map(NodeId)
                .filter(|&v| v != sender && rng.below(2) == 0)
                .collect();
            let receivers = if receivers.is_empty() {
                vec![NodeId(usize::from(sender.0 == 0))]
            } else {
                receivers
            };
            Session::multi_rate(sender, receivers)
        })
        .collect();
    Network::new(g, sessions).expect("connected graphs route every receiver")
}

/// `Network::new` routes every receiver from one BFS tree per session;
/// each route must be the per-receiver `shortest_path` query's, tie-breaks
/// included.
fn assert_routes_match_shortest_paths(net: &Network) {
    for r in net.receivers() {
        let s = net.session(r.session);
        let expected = shortest_path(net.graph(), s.sender, s.receivers[r.index])
            .expect("a built network routes every receiver");
        assert_eq!(net.route(r), expected.as_slice(), "route of {r:?}");
    }
}

/// A random connected graph with cycles: a random tree plus `extra` random
/// links (parallel links and links closing cycles included), and sessions
/// with distinct members drawn over all of its nodes.
fn cyclic_network(seed: u64, nodes: usize, extra: usize, sessions: usize) -> Network {
    let mut g = random_tree(seed, nodes, 1.0, 5.0);
    let mut rng = SplitMix64(seed ^ 0x5eed_c7c1_e5ee_d000);
    for _ in 0..extra {
        let a = NodeId(rng.below(nodes));
        let b = NodeId(rng.below(nodes));
        if a != b {
            g.add_link(a, b, 1.0 + rng.unit()).expect("valid link");
        }
    }
    let sessions = (0..sessions)
        .map(|_| {
            let mut members: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            // Partial Fisher–Yates: the first 1 + receivers slots are the
            // sender and the receivers.
            let receivers = 1 + rng.below(nodes - 1);
            for t in 0..=receivers {
                let u = t + rng.below(nodes - t);
                members.swap(t, u);
            }
            Session::multi_rate(members[0], members[1..=receivers].to_vec())
        })
        .collect();
    Network::new(g, sessions).expect("connected graphs route every receiver")
}

#[test]
fn every_family_routes_like_shortest_path() {
    for family in [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ] {
        for seed in 0..32u64 {
            let net = random_network_with(family, seed, 30, 8, 5).unwrap();
            assert_routes_match_shortest_paths(&net);
        }
    }
}

#[test]
fn paper_networks_route_like_shortest_path() {
    let removals = [paper::figure3a(), paper::figure3b()];
    let mut nets = vec![
        paper::figure1().network,
        paper::figure2().network,
        paper::figure2_multi_rate().network,
        paper::figure4().network,
        paper::single_link(3.0),
        mlf_net::topology::star_network(8, 10.0, 4.0),
    ];
    for ex in removals {
        nets.push(ex.network.without_receiver(ex.removed).unwrap());
        nets.push(ex.network);
    }
    // Figure 3(b) hands in explicit routes; re-route every example from
    // its graph and sessions.
    for net in nets {
        let rerouted = Network::new(net.graph().clone(), net.sessions().to_vec()).unwrap();
        assert_routes_match_shortest_paths(&rerouted);
    }
}

/// The per-receiver code failed with `Unroutable` naming the first failing
/// receiver, session-major; so must the per-session trees.
#[test]
fn unroutable_receivers_keep_their_error_identity() {
    let mut g = Graph::new();
    let n = g.add_nodes(4);
    g.add_link(n[0], n[1], 1.0).unwrap();
    g.add_link(n[1], n[2], 1.0).unwrap();
    // n[3] is isolated; NodeId(9) is not in the graph.
    let unroutable = |sessions: Vec<Session>| match Network::new(g.clone(), sessions) {
        Err(NetError::Unroutable { receiver }) => receiver,
        other => panic!("expected Unroutable, got {other:?}"),
    };
    let ok = Session::multi_rate(n[0], vec![n[1], n[2]]);
    // Unknown sender: its first receiver off the sender's node.
    assert_eq!(
        unroutable(vec![
            ok.clone(),
            Session::multi_rate(NodeId(9), vec![n[1], n[2]])
        ]),
        ReceiverId::new(1, 0)
    );
    // Unknown receiver.
    assert_eq!(
        unroutable(vec![
            ok.clone(),
            Session::multi_rate(n[0], vec![n[1], NodeId(9)])
        ]),
        ReceiverId::new(1, 1)
    );
    // Disconnected receiver, ahead of a later session's unknown one.
    assert_eq!(
        unroutable(vec![
            Session::multi_rate(n[1], vec![n[0], n[3], n[2]]),
            Session::multi_rate(n[0], vec![NodeId(9)]),
        ]),
        ReceiverId::new(0, 1)
    );
    // Routing errors come before session validation, as before: the bad
    // rate of session 0 is not reported.
    assert_eq!(
        unroutable(vec![
            ok.clone().with_max_rate(0.0),
            Session::unicast(n[0], n[3]),
        ]),
        ReceiverId::new(1, 0)
    );
    // A receiver on an unknown sender's node has the empty route, so the
    // unknown node surfaces from validation instead.
    assert_eq!(
        Network::new(g.clone(), vec![Session::unicast(NodeId(9), NodeId(9))]),
        Err(NetError::UnknownNode(NodeId(9)))
    );
}

/// Layered multigraphs are full of equal-hop ties and parallel links;
/// every route must still be the link-scan oracle's.
#[test]
fn tied_multigraphs_route_like_the_link_scan_oracle() {
    for seed in 0..48u64 {
        let net = tied_multigraph(seed, 1 + (seed % 4) as usize, 2 + (seed % 3) as usize, 3);
        assert_routes_match_the_link_scan_oracle(&net);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On random connected multigraphs with cycles and parallel links,
    /// `Network::new` and `shortest_path` route like the link-scan oracle.
    #[test]
    fn cyclic_multigraphs_route_like_the_link_scan_oracle(
        seed in any::<u64>(),
        nodes in 2usize..24,
        extra in 0usize..30,
        sessions in 1usize..5,
    ) {
        let net = cyclic_network(seed, nodes, extra, sessions);
        assert_routes_match_the_link_scan_oracle(&net);
    }

    /// On connected graphs with cycles and parallel links, where routes
    /// are no longer unique, the per-session trees still pick exactly the
    /// per-receiver BFS routes.
    #[test]
    fn cyclic_graphs_route_like_shortest_path(
        seed in any::<u64>(),
        nodes in 2usize..24,
        extra in 0usize..30,
        sessions in 1usize..5,
    ) {
        let net = cyclic_network(seed, nodes, extra, sessions);
        assert_routes_match_shortest_paths(&net);
    }

    /// On trees, BFS finds the unique path; it validates, and reversing the
    /// endpoints reverses the route.
    #[test]
    fn tree_paths_validate_and_reverse(
        seed in any::<u64>(),
        nodes in 2usize..30,
        a in 0usize..30,
        b in 0usize..30,
    ) {
        let g = random_tree(seed, nodes, 1.0, 5.0);
        let from = NodeId(a % nodes);
        let to = NodeId(b % nodes);
        let route = shortest_path(&g, from, to).expect("trees are connected");
        validate_route(&g, from, to, &route, ReceiverId::new(0, 0)).expect("valid");
        let mut back = shortest_path(&g, to, from).expect("connected");
        back.reverse();
        prop_assert_eq!(route, back, "tree path is unique up to reversal");
    }

    /// BFS paths never repeat a node (simple paths), hence their length is
    /// bounded by the node count.
    #[test]
    fn bfs_paths_are_simple(seed in any::<u64>(), nodes in 2usize..25) {
        let g = random_tree(seed, nodes, 1.0, 5.0);
        for t in 1..nodes {
            let route = shortest_path(&g, NodeId(0), NodeId(t)).unwrap();
            prop_assert!(route.len() < nodes);
            // Walk the route and collect visited nodes.
            let mut cur = NodeId(0);
            let mut visited = vec![cur];
            for &l in &route {
                cur = g.link(l).opposite(cur).expect("connected walk");
                prop_assert!(!visited.contains(&cur), "node revisited");
                visited.push(cur);
            }
            prop_assert_eq!(cur, NodeId(t));
        }
    }

    /// Network assembly is internally consistent: `crosses` agrees with
    /// `route`, `R_{i,j}` agrees with both, and `R_j` is the union.
    #[test]
    fn network_index_tables_are_consistent(
        seed in any::<u64>(),
        nodes in 3usize..20,
        sessions in 1usize..5,
    ) {
        let net = random_network(seed, nodes, sessions, 4).unwrap();
        for r in net.receivers() {
            for &l in net.route(r) {
                prop_assert!(net.crosses(r, l));
                prop_assert!(net
                    .receivers_of_session_on_link(l, r.session)
                    .contains(&r.index));
            }
        }
        for j in 0..net.link_count() {
            let link = mlf_net::LinkId(j);
            let from_union: Vec<ReceiverId> = net.receivers_on_link(link).collect();
            for r in &from_union {
                prop_assert!(net.crosses(*r, link));
            }
            let direct: usize = net
                .receivers()
                .filter(|&r| net.crosses(r, link))
                .count();
            prop_assert_eq!(from_union.len(), direct);
        }
    }

    /// Removing a receiver preserves every other receiver's route verbatim
    /// (the Figure 3 experiments depend on this).
    #[test]
    fn removal_preserves_other_routes(seed in any::<u64>()) {
        let net = random_network(seed, 12, 3, 4).unwrap();
        // Find a session with >= 2 receivers.
        let Some((sid, s)) = net
            .sessions_iter()
            .find(|(_, s)| s.receivers.len() >= 2)
        else {
            return Ok(()); // all-unicast draw; nothing to remove
        };
        let victim = ReceiverId::new(sid.0, s.receivers.len() - 1);
        let smaller = net.without_receiver(victim).expect("removable");
        for r in smaller.receivers() {
            // Map back to the original id (indices shift only above victim
            // in the same session; we removed the last, so ids are stable).
            prop_assert_eq!(smaller.route(r), net.route(r));
        }
    }
}
