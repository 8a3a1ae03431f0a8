//! Topology builders for the experiment harnesses and property tests.
//!
//! The paper's quantitative experiments all run on "modified star" networks
//! (Figure 7): a sender behind one shared link feeding a hub that fans out to
//! the receivers over independent links. The theory sections use small
//! hand-built trees. Property tests and sweeps additionally need randomized
//! topologies; [`random_tree`] and the [`TopologyFamily`] generators produce
//! those deterministically from a seed (their own tiny SplitMix64 generator
//! keeps this crate dependency-free).
//!
//! Random sweeps pick a structural family via [`TopologyFamily`]:
//!
//! * [`TopologyFamily::FlatTree`] — uniform random-attachment trees (the
//!   original property-test family);
//! * [`TopologyFamily::KaryTree`] — balanced `arity`-ary trees with random
//!   per-link capacities;
//! * [`TopologyFamily::TransitStub`] — a two-level transit–stub hierarchy in
//!   the GT-ITM style: a high-capacity random core, stub domains hanging off
//!   each core node;
//! * [`TopologyFamily::Dumbbell`] — a dumbbell mesh: leaves randomly
//!   assigned to the two sides of a shared bottleneck.
//!
//! Every family generates trees, so routes stay unique and allocator
//! behaviour depends only on the fairness logic under test, never on
//! routing tie-breaks.

use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};
use crate::network::Network;
use crate::session::Session;
use std::fmt;

/// Add a link whose endpoints and capacity are valid by construction.
///
/// Every builder in this module creates its own nodes, never self-loops, and
/// takes capacities already validated (or drawn from a positive range), so
/// [`Graph::add_link`] cannot fail here; a failure is a builder bug.
fn must_link(g: &mut Graph, a: NodeId, b: NodeId, capacity: f64) -> LinkId {
    g.add_link(a, b, capacity)
        // mlf-lint: allow(panic-unwrap, reason = "single funnel for the by-construction link invariant shared by every topology builder")
        .expect("topology builders only add valid links")
}

/// A star (Figure 7): `sender --shared--> hub --fanout_k--> receiver_k`.
#[derive(Debug, Clone)]
pub struct Star {
    /// The assembled graph.
    pub graph: Graph,
    /// Node hosting the sender.
    pub sender: NodeId,
    /// The hub node behind the shared link.
    pub hub: NodeId,
    /// Receiver nodes, one per fanout link.
    pub receivers: Vec<NodeId>,
    /// The shared link abutting the sender.
    pub shared_link: LinkId,
    /// Fanout links, `fanout[k]` reaching `receivers[k]`.
    pub fanout_links: Vec<LinkId>,
}

/// Build the modified-star topology of Figure 7 with per-receiver fanout
/// capacities. The shared link abuts the sender; each receiver hangs off the
/// hub on its own link.
pub fn star(shared_capacity: f64, fanout_capacities: &[f64]) -> Star {
    let mut graph = Graph::new();
    let sender = graph.add_node();
    let hub = graph.add_node();
    let shared_link = must_link(&mut graph, sender, hub, shared_capacity);
    let mut receivers = Vec::with_capacity(fanout_capacities.len());
    let mut fanout_links = Vec::with_capacity(fanout_capacities.len());
    for &c in fanout_capacities {
        let r = graph.add_node();
        let l = must_link(&mut graph, hub, r, c);
        receivers.push(r);
        fanout_links.push(l);
    }
    Star {
        graph,
        sender,
        hub,
        receivers,
        shared_link,
        fanout_links,
    }
}

/// Build a uniform modified star (`n` receivers, all fanout links with the
/// same capacity) wrapped into a single multi-rate session network — the
/// exact substrate of the Figure 8 simulations.
pub fn star_network(n_receivers: usize, shared_capacity: f64, fanout_capacity: f64) -> Network {
    let caps = vec![fanout_capacity; n_receivers];
    let s = star(shared_capacity, &caps);
    Network::new(s.graph, vec![Session::multi_rate(s.sender, s.receivers)])
        // mlf-lint: allow(panic-unwrap, reason = "a star is a tree, so every receiver is reachable and Network::new cannot fail")
        .expect("star network is routable by construction")
}

/// A chain `n0 --l0-- n1 --l1-- ... -- n_k` with the given per-hop
/// capacities. Returns the graph, the node list, and the link list.
pub fn chain(capacities: &[f64]) -> (Graph, Vec<NodeId>, Vec<LinkId>) {
    let mut g = Graph::new();
    let nodes = g.add_nodes(capacities.len() + 1);
    let links = capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| must_link(&mut g, nodes[i], nodes[i + 1], c))
        .collect();
    (g, nodes, links)
}

/// A dumbbell: `left_count` sender nodes and `right_count` receiver nodes on
/// opposite sides of a single bottleneck link.
///
/// ```text
/// s_1 --access--\                    /--access-- r_1
///  ...           hubL --bottleneck-- hubR        ...
/// s_a --access--/                    \--access-- r_b
/// ```
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The assembled graph.
    pub graph: Graph,
    /// Sender-side leaf nodes.
    pub senders: Vec<NodeId>,
    /// Receiver-side leaf nodes.
    pub receivers: Vec<NodeId>,
    /// The central bottleneck link.
    pub bottleneck: LinkId,
    /// Access links from each sender to the left hub.
    pub sender_access: Vec<LinkId>,
    /// Access links from the right hub to each receiver.
    pub receiver_access: Vec<LinkId>,
}

/// Build a dumbbell topology.
pub fn dumbbell(
    left_count: usize,
    right_count: usize,
    bottleneck_capacity: f64,
    access_capacity: f64,
) -> Dumbbell {
    let mut g = Graph::new();
    let hub_l = g.add_node();
    let hub_r = g.add_node();
    let bottleneck = must_link(&mut g, hub_l, hub_r, bottleneck_capacity);
    let mut senders = Vec::new();
    let mut sender_access = Vec::new();
    for _ in 0..left_count {
        let n = g.add_node();
        sender_access.push(must_link(&mut g, n, hub_l, access_capacity));
        senders.push(n);
    }
    let mut receivers = Vec::new();
    let mut receiver_access = Vec::new();
    for _ in 0..right_count {
        let n = g.add_node();
        receiver_access.push(must_link(&mut g, hub_r, n, access_capacity));
        receivers.push(n);
    }
    Dumbbell {
        graph: g,
        senders,
        receivers,
        bottleneck,
        sender_access,
        receiver_access,
    }
}

/// A complete `arity`-ary tree of the given depth. Returns the graph, the
/// root, and the nodes grouped by level (`levels[0] = [root]`). Capacities
/// are assigned per level by `capacity_at(level_of_child)`.
///
/// # Errors
///
/// [`TopologyError::BadArity`] when `arity` is 0.
///
/// # Panics
///
/// When `capacity_at` returns a capacity [`Graph::add_link`] rejects (not
/// positive and finite): the capacities are the caller's code.
pub fn kary_tree(
    depth: usize,
    arity: usize,
    mut capacity_at: impl FnMut(usize) -> f64,
) -> Result<(Graph, NodeId, Vec<Vec<NodeId>>), TopologyError> {
    if arity == 0 {
        return Err(TopologyError::BadArity);
    }
    let mut g = Graph::new();
    let root = g.add_node();
    let mut levels = vec![vec![root]];
    for level in 1..=depth {
        let mut this_level = Vec::new();
        let parents = levels[level - 1].clone();
        for p in parents {
            for _ in 0..arity {
                let c = g.add_node();
                must_link(&mut g, p, c, capacity_at(level));
                this_level.push(c);
            }
        }
        levels.push(this_level);
    }
    Ok((g, root, levels))
}

/// Minimal deterministic generator (SplitMix64) used only for randomized
/// topology construction. Not a statistical-quality RNG; sufficient for
/// structural variety in property tests.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// A uniformly random labelled tree on `node_count` nodes (random attachment:
/// node `k` links to a uniformly chosen earlier node), with capacities drawn
/// uniformly from `[cap_lo, cap_hi)`. Deterministic in `seed`.
///
/// # Errors
///
/// [`TopologyError::TooFewNodes`] when `node_count` is 0, and
/// [`TopologyError::BadCapacityRange`] unless `0 < cap_lo < cap_hi < ∞`.
pub fn random_tree(
    seed: u64,
    node_count: usize,
    cap_lo: f64,
    cap_hi: f64,
) -> Result<Graph, TopologyError> {
    if node_count == 0 {
        return Err(TopologyError::TooFewNodes {
            family: TopologyFamily::FlatTree.label(),
            requested: 0,
            minimum: 1,
        });
    }
    check_capacity_range(cap_lo, cap_hi)?;
    let mut rng = SplitMix64(seed);
    let mut g = Graph::with_nodes(node_count, node_count - 1);
    for k in 1..node_count {
        let parent = NodeId(rng.below(k));
        let cap = rng.range_f64(cap_lo, cap_hi);
        must_link(&mut g, parent, NodeId(k), cap);
    }
    Ok(g)
}

/// Capacities are drawn from `[cap_lo, cap_hi)`: every draw is a valid
/// link capacity exactly when `0 < cap_lo < cap_hi < ∞` (NaN fails every
/// comparison).
fn check_capacity_range(cap_lo: f64, cap_hi: f64) -> Result<(), TopologyError> {
    if cap_lo > 0.0 && cap_hi > cap_lo && cap_hi.is_finite() {
        Ok(())
    } else {
        Err(TopologyError::BadCapacityRange)
    }
}

/// Attach `session_count` randomly-placed multicast sessions (each with
/// `1..=max_receivers` receivers on distinct nodes) to a graph. Sessions with
/// one receiver are unicast. Deterministic in `seed`. Session types are
/// multi-rate; callers flip types as needed for their experiment.
///
/// Receivers are drawn by a seeded partial Fisher–Yates shuffle over the
/// non-sender nodes, so every session gets *exactly* the drawn receiver
/// count — the earlier rejection-sampling implementation could silently
/// underfill (even down to zero receivers) on small graphs.
///
/// # Panics
///
/// Asserts `graph.node_count() >= 2` and `max_receivers >= 1` — violating
/// either is a caller bug. [`random_network_with`] validates the same
/// parameters up front and returns a [`TopologyError`] instead.
pub(crate) fn random_sessions(
    graph: &Graph,
    seed: u64,
    session_count: usize,
    max_receivers: usize,
) -> Vec<Session> {
    assert!(graph.node_count() >= 2, "need at least two nodes");
    assert!(max_receivers >= 1);
    let mut rng = SplitMix64(seed ^ 0xA5A5_A5A5_DEAD_BEEF);
    let n = graph.node_count();
    let mut sessions = Vec::with_capacity(session_count);
    let mut candidates: Vec<NodeId> = Vec::with_capacity(n - 1);
    for _ in 0..session_count {
        let sender = NodeId(rng.below(n));
        let want = 1 + rng.below(max_receivers.min(n - 1));
        sessions.push(Session::multi_rate(
            sender,
            sample_receivers(&mut rng, n, sender, want, &mut candidates),
        ));
    }
    sessions
}

/// Draw exactly `want` distinct non-sender nodes by a partial Fisher–Yates
/// shuffle of the candidate list. Requires `want <= n - 1`.
fn sample_receivers(
    rng: &mut SplitMix64,
    n: usize,
    sender: NodeId,
    want: usize,
    candidates: &mut Vec<NodeId>,
) -> Vec<NodeId> {
    debug_assert!(want < n, "cannot draw {want} receivers from {n} nodes");
    candidates.clear();
    candidates.extend((0..n).map(NodeId).filter(|&c| c != sender));
    for k in 0..want {
        let j = k + rng.below(candidates.len() - k);
        candidates.swap(k, j);
    }
    candidates[..want].to_vec()
}

/// Why a random-network request could not be honoured. Earlier versions
/// silently clamped bad parameters (`node_count.max(2)`,
/// `session_count.max(1)`), handing callers a *different experiment* than
/// they asked for; now the request is rejected instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The family needs more nodes than were requested.
    TooFewNodes {
        /// The family that rejected the request.
        family: &'static str,
        /// Nodes requested.
        requested: usize,
        /// The family's minimum.
        minimum: usize,
    },
    /// A random network with zero sessions is not an experiment.
    NoSessions,
    /// Sessions need at least one receiver (`max_receivers >= 1`).
    NoReceivers,
    /// A k-ary tree needs `arity >= 1`.
    BadArity,
    /// A transit–stub hierarchy needs at least one transit node.
    NoTransitNodes,
    /// Link capacities are drawn from `[lo, hi)`, which needs
    /// `0 < lo < hi < ∞`.
    BadCapacityRange,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewNodes {
                family,
                requested,
                minimum,
            } => write!(
                f,
                "{family} topology needs at least {minimum} nodes, got {requested}"
            ),
            TopologyError::NoSessions => write!(f, "random network needs at least one session"),
            TopologyError::NoReceivers => {
                write!(f, "random sessions need max_receivers >= 1")
            }
            TopologyError::BadArity => write!(f, "k-ary tree needs arity >= 1"),
            TopologyError::NoTransitNodes => {
                write!(f, "transit-stub hierarchy needs at least one transit node")
            }
            TopologyError::BadCapacityRange => {
                write!(f, "capacity range [lo, hi) needs 0 < lo < hi < infinity")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Capacity multiplier for transit-core links relative to stub links: the
/// classic transit–stub assumption that backbone links are provisioned an
/// order of magnitude above access links.
pub(crate) const TRANSIT_CAPACITY_SCALE: f64 = 8.0;

/// A structural family of random topologies, selectable per sweep. Every
/// family is generated deterministically from a seed and produces a tree
/// (unique routes, always connected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// Uniform random-attachment tree (node `k` links to a uniformly chosen
    /// earlier node) — the original property-test family.
    FlatTree,
    /// Balanced `arity`-ary tree filled level by level, with random
    /// per-link capacities.
    KaryTree {
        /// Children per interior node (`>= 1`).
        arity: usize,
    },
    /// Two-level transit–stub hierarchy: the first `transit` nodes form a
    /// high-capacity random core (`TRANSIT_CAPACITY_SCALE`× the stub
    /// capacity range); the remaining nodes are stub nodes assigned
    /// round-robin to per-core-node stub domains and attached by random
    /// attachment *within* their domain.
    TransitStub {
        /// Number of transit (core) nodes (`>= 1`).
        transit: usize,
    },
    /// Dumbbell mesh: two hubs joined by a drawn bottleneck link, every
    /// other node a leaf randomly assigned to one of the two sides (each
    /// side gets at least one leaf). Access links are drawn ×2 above the
    /// bottleneck range so the shared link tends to bind.
    Dumbbell,
}

impl TopologyFamily {
    /// A short label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyFamily::FlatTree => "flat-tree",
            TopologyFamily::KaryTree { .. } => "kary-tree",
            TopologyFamily::TransitStub { .. } => "transit-stub",
            TopologyFamily::Dumbbell => "dumbbell",
        }
    }

    /// The smallest node count the family can realize.
    pub(crate) fn min_nodes(&self) -> usize {
        match self {
            TopologyFamily::FlatTree | TopologyFamily::KaryTree { .. } => 2,
            // Core, plus at least one stub node (and never below two nodes).
            TopologyFamily::TransitStub { transit } => (transit + 1).max(2),
            // Two hubs and one leaf per side.
            TopologyFamily::Dumbbell => 4,
        }
    }

    /// Validate a full random-network request — family shape, node count,
    /// session count, receiver bound. This is the single source of truth
    /// for what [`random_network_with`] accepts; front-ends (like
    /// `mlf-scenario`'s builder) call it to reject bad requests early with
    /// the same errors the generator would raise.
    pub fn validate_request(
        &self,
        node_count: usize,
        session_count: usize,
        max_receivers: usize,
    ) -> Result<(), TopologyError> {
        self.validate(node_count)?;
        if session_count == 0 {
            return Err(TopologyError::NoSessions);
        }
        if max_receivers == 0 {
            return Err(TopologyError::NoReceivers);
        }
        Ok(())
    }

    /// Check that this family can build a graph of `node_count` nodes.
    pub fn validate(&self, node_count: usize) -> Result<(), TopologyError> {
        match self {
            TopologyFamily::KaryTree { arity } if *arity == 0 => {
                return Err(TopologyError::BadArity)
            }
            TopologyFamily::TransitStub { transit } if *transit == 0 => {
                return Err(TopologyError::NoTransitNodes)
            }
            _ => {}
        }
        if node_count < self.min_nodes() {
            return Err(TopologyError::TooFewNodes {
                family: self.label(),
                requested: node_count,
                minimum: self.min_nodes(),
            });
        }
        Ok(())
    }

    /// Build a random graph of this family, deterministically in `seed`,
    /// with (stub-level) capacities drawn uniformly from `[cap_lo, cap_hi)`
    /// (the same range contract as [`random_tree`]).
    pub(crate) fn build_graph(
        &self,
        seed: u64,
        node_count: usize,
        cap_lo: f64,
        cap_hi: f64,
    ) -> Result<Graph, TopologyError> {
        self.validate(node_count)?;
        check_capacity_range(cap_lo, cap_hi)?;
        Ok(match *self {
            TopologyFamily::FlatTree => random_tree(seed, node_count, cap_lo, cap_hi)?,
            TopologyFamily::KaryTree { arity } => {
                let mut rng = SplitMix64(seed);
                let mut g = Graph::with_nodes(node_count, node_count - 1);
                for k in 1..node_count {
                    let parent = NodeId((k - 1) / arity);
                    let cap = rng.range_f64(cap_lo, cap_hi);
                    must_link(&mut g, parent, NodeId(k), cap);
                }
                g
            }
            TopologyFamily::TransitStub { transit } => {
                let mut rng = SplitMix64(seed);
                let mut g = Graph::with_nodes(node_count, node_count - 1);
                // High-capacity random core over the transit nodes.
                for k in 1..transit {
                    let parent = NodeId(rng.below(k));
                    let cap = TRANSIT_CAPACITY_SCALE * rng.range_f64(cap_lo, cap_hi);
                    must_link(&mut g, parent, NodeId(k), cap);
                }
                // Stub domains: domain d starts at its transit node and
                // grows by random attachment within itself. Stubs join the
                // domains round-robin, so domain d holds the nodes
                // d, d + transit, d + 2·transit, … in join order, and its
                // t-th member is node d + t·transit.
                for stub in transit..node_count {
                    let d = (stub - transit) % transit;
                    let members = 1 + (stub - transit) / transit;
                    let parent = NodeId(d + rng.below(members) * transit);
                    let cap = rng.range_f64(cap_lo, cap_hi);
                    must_link(&mut g, parent, NodeId(stub), cap);
                }
                g
            }
            TopologyFamily::Dumbbell => {
                let mut rng = SplitMix64(seed);
                let mut g = Graph::with_nodes(node_count, node_count - 1);
                let (hub_l, hub_r) = (NodeId(0), NodeId(1));
                let cap = rng.range_f64(cap_lo, cap_hi);
                must_link(&mut g, hub_l, hub_r, cap);
                for leaf in 2..node_count {
                    // First two leaves pin one per side; the rest coin-flip.
                    let left = match leaf {
                        2 => true,
                        3 => false,
                        _ => rng.below(2) == 0,
                    };
                    let hub = if left { hub_l } else { hub_r };
                    let cap = 2.0 * rng.range_f64(cap_lo, cap_hi);
                    must_link(&mut g, hub, NodeId(leaf), cap);
                }
                g
            }
        })
    }
}

/// A fully-assembled random multicast network drawn from a
/// [`TopologyFamily`]. Deterministic in `seed`; capacities come from the
/// canonical `[1, 10)` stub range. Rejects degenerate requests instead of
/// silently adjusting them.
pub fn random_network_with(
    family: TopologyFamily,
    seed: u64,
    node_count: usize,
    session_count: usize,
    max_receivers: usize,
) -> Result<Network, TopologyError> {
    family.validate_request(node_count, session_count, max_receivers)?;
    let graph = family.build_graph(seed, node_count, 1.0, 10.0)?;
    let sessions = random_sessions(&graph, seed, session_count, max_receivers);
    // mlf-lint: allow(panic-unwrap, reason = "every TopologyFamily generator emits a connected tree, so routing always succeeds")
    Ok(Network::new(graph, sessions).expect("family graphs are trees, hence routable"))
}

/// A fully-assembled random multicast network on a flat random tree. This is
/// the canonical generator used by the cross-crate property tests: trees make
/// routes unique, so the allocator's behaviour depends only on the fairness
/// logic under test and not on routing tie-breaks.
///
/// # Errors
///
/// [`TopologyError`] on degenerate requests (fewer than two nodes, zero
/// sessions, zero receivers) — earlier versions silently clamped these,
/// running a different experiment than the caller asked for.
pub fn random_network(
    seed: u64,
    node_count: usize,
    session_count: usize,
    max_receivers: usize,
) -> Result<Network, TopologyError> {
    random_network_with(
        TopologyFamily::FlatTree,
        seed,
        node_count,
        session_count,
        max_receivers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ReceiverId;

    #[test]
    fn star_shape_is_correct() {
        let s = star(10.0, &[1.0, 2.0, 3.0]);
        assert_eq!(s.graph.node_count(), 5); // sender + hub + 3 receivers
        assert_eq!(s.graph.link_count(), 4);
        assert_eq!(s.graph.capacity(s.shared_link), 10.0);
        assert_eq!(s.graph.capacity(s.fanout_links[2]), 3.0);
        assert_eq!(s.receivers.len(), 3);
    }

    #[test]
    fn star_network_routes_through_shared_link() {
        let net = star_network(4, 10.0, 1.0);
        assert_eq!(net.receiver_count(), 4);
        for r in net.receivers() {
            let route = net.route(r);
            assert_eq!(route.len(), 2, "shared + fanout");
            assert_eq!(route[0], LinkId(0), "shared link first");
        }
    }

    #[test]
    fn chain_shape() {
        let (g, nodes, links) = chain(&[1.0, 2.0, 3.0]);
        assert_eq!(nodes.len(), 4);
        assert_eq!(links.len(), 3);
        assert_eq!(g.capacity(links[1]), 2.0);
    }

    #[test]
    fn dumbbell_shape() {
        let d = dumbbell(2, 3, 5.0, 100.0);
        assert_eq!(d.senders.len(), 2);
        assert_eq!(d.receivers.len(), 3);
        assert_eq!(d.graph.link_count(), 1 + 2 + 3);
        assert_eq!(d.graph.capacity(d.bottleneck), 5.0);
    }

    #[test]
    fn kary_tree_shape() {
        let (g, _root, levels) = kary_tree(3, 2, |_| 1.0).unwrap();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[3].len(), 8);
        assert_eq!(g.node_count(), 1 + 2 + 4 + 8);
        assert_eq!(g.link_count(), g.node_count() - 1);
    }

    #[test]
    fn random_tree_is_a_tree_and_deterministic() {
        let g1 = random_tree(7, 20, 1.0, 5.0).unwrap();
        let g2 = random_tree(7, 20, 1.0, 5.0).unwrap();
        assert_eq!(g1, g2, "same seed, same graph");
        assert_eq!(g1.link_count(), 19);
        // Connected: every node reachable from node 0.
        for k in 0..20 {
            assert!(
                crate::routing::shortest_path(&g1, NodeId(0), NodeId(k)).is_some(),
                "node {k} reachable"
            );
        }
        let g3 = random_tree(8, 20, 1.0, 5.0).unwrap();
        assert_ne!(g1, g3, "different seed, different graph (overwhelmingly)");
    }

    #[test]
    fn random_network_is_valid_and_deterministic() {
        let n1 = random_network(42, 15, 4, 5).unwrap();
        let n2 = random_network(42, 15, 4, 5).unwrap();
        assert_eq!(n1.routes(), n2.routes());
        assert_eq!(n1.session_count(), 4);
        for r in n1.receivers() {
            // Route is the unique tree path; spot-check it is consistent.
            let route = n1.route(r);
            for &l in route {
                assert!(n1.crosses(r, l));
            }
        }
    }

    #[test]
    fn random_sessions_respect_member_distinctness() {
        let g = random_tree(3, 12, 1.0, 2.0).unwrap();
        for seed in 0..20 {
            let sessions = random_sessions(&g, seed, 5, 6);
            for s in &sessions {
                assert!(!s.receivers.is_empty());
                for (i, a) in s.receivers.iter().enumerate() {
                    assert_ne!(*a, s.sender);
                    for b in &s.receivers[i + 1..] {
                        assert_ne!(a, b);
                    }
                }
            }
        }
    }

    /// Regression for the rejection-sampling shortfall: on tiny graphs with
    /// large `max_receivers`, every session must still hold exactly the
    /// drawn receiver count — in particular, sampling can fill the whole
    /// non-sender node set, which the old `guard < 16 * n` bailout could
    /// silently fail to do.
    #[test]
    fn sample_receivers_always_fills_the_exact_draw() {
        let mut rng = SplitMix64(99);
        let mut scratch = Vec::new();
        for n in 2..=8usize {
            for want in 1..n {
                for sender in 0..n {
                    let got = sample_receivers(&mut rng, n, NodeId(sender), want, &mut scratch);
                    assert_eq!(got.len(), want, "n={n} want={want} sender={sender}");
                    for (i, a) in got.iter().enumerate() {
                        assert_ne!(*a, NodeId(sender));
                        assert!(a.0 < n);
                        assert!(!got[i + 1..].contains(a), "duplicate receiver");
                    }
                }
            }
        }
    }

    #[test]
    fn random_sessions_on_tiny_graphs_cover_every_receiver_count() {
        // n = 3: receiver counts can only be 1 or 2; with a huge
        // max_receivers both must actually occur, and 2-receiver sessions
        // must span the full non-sender set (the old code could underfill).
        let g = random_tree(5, 3, 1.0, 2.0).unwrap();
        let mut seen = [false; 3];
        for seed in 0..40 {
            for s in random_sessions(&g, seed, 4, 64) {
                seen[s.receivers.len()] = true;
                if s.receivers.len() == 2 {
                    let mut nodes: Vec<usize> = s.receivers.iter().map(|r| r.0).collect();
                    nodes.push(s.sender.0);
                    nodes.sort_unstable();
                    assert_eq!(nodes, vec![0, 1, 2]);
                }
            }
        }
        assert!(seen[1] && seen[2], "both draw sizes occur: {seen:?}");
    }

    /// Regression for the silent clamping: degenerate requests are rejected,
    /// not quietly rewritten into a different experiment.
    #[test]
    fn degenerate_random_network_requests_are_rejected() {
        assert_eq!(
            random_network(1, 1, 3, 3).unwrap_err(),
            TopologyError::TooFewNodes {
                family: "flat-tree",
                requested: 1,
                minimum: 2,
            }
        );
        assert_eq!(
            random_network(1, 10, 0, 3).unwrap_err(),
            TopologyError::NoSessions
        );
        assert_eq!(
            random_network(1, 10, 3, 0).unwrap_err(),
            TopologyError::NoReceivers
        );
        assert_eq!(
            random_network_with(TopologyFamily::KaryTree { arity: 0 }, 1, 10, 3, 3).unwrap_err(),
            TopologyError::BadArity
        );
        assert_eq!(
            random_network_with(TopologyFamily::TransitStub { transit: 0 }, 1, 10, 3, 3)
                .unwrap_err(),
            TopologyError::NoTransitNodes
        );
        assert_eq!(
            random_network_with(TopologyFamily::Dumbbell, 1, 3, 2, 2).unwrap_err(),
            TopologyError::TooFewNodes {
                family: "dumbbell",
                requested: 3,
                minimum: 4,
            }
        );
        let msg = random_network(1, 1, 3, 3).unwrap_err().to_string();
        assert!(msg.contains("at least 2 nodes"), "{msg}");
    }

    #[test]
    fn bad_tree_requests_return_typed_errors() {
        assert_eq!(
            random_tree(1, 0, 1.0, 2.0).unwrap_err(),
            TopologyError::TooFewNodes {
                family: "flat-tree",
                requested: 0,
                minimum: 1,
            }
        );
        for (lo, hi) in [
            (f64::NAN, 2.0),
            (1.0, f64::NAN),
            (0.0, 2.0),
            (-1.0, 2.0),
            (2.0, 1.0),
            (2.0, 2.0),
            (1.0, f64::INFINITY),
        ] {
            assert_eq!(
                random_tree(1, 5, lo, hi).unwrap_err(),
                TopologyError::BadCapacityRange,
                "[{lo}, {hi})"
            );
            assert_eq!(
                TopologyFamily::Dumbbell
                    .build_graph(1, 5, lo, hi)
                    .unwrap_err(),
                TopologyError::BadCapacityRange
            );
        }
        assert_eq!(random_tree(1, 1, 1.0, 2.0).unwrap().link_count(), 0);
        assert_eq!(
            kary_tree(2, 0, |_| 1.0).unwrap_err(),
            TopologyError::BadArity
        );
        let (g, _, levels) = kary_tree(0, 3, |_| 1.0).unwrap();
        assert_eq!((g.node_count(), levels.len()), (1, 1));
        let msg = TopologyError::BadCapacityRange.to_string();
        assert!(msg.contains("0 < lo < hi"), "{msg}");
    }

    #[test]
    fn every_family_builds_connected_trees_deterministically() {
        let families = [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ];
        for family in families {
            for seed in 0..6u64 {
                let g1 = family.build_graph(seed, 17, 1.0, 10.0).unwrap();
                let g2 = family.build_graph(seed, 17, 1.0, 10.0).unwrap();
                assert_eq!(g1, g2, "{} seed {seed} deterministic", family.label());
                assert_eq!(g1.node_count(), 17);
                assert_eq!(g1.link_count(), 16, "{} is a tree", family.label());
                for k in 0..17 {
                    assert!(
                        crate::routing::shortest_path(&g1, NodeId(0), NodeId(k)).is_some(),
                        "{} node {k} reachable",
                        family.label()
                    );
                }
            }
        }
    }

    #[test]
    fn transit_stub_core_outcapacitates_stub_links() {
        let family = TopologyFamily::TransitStub { transit: 5 };
        let g = family.build_graph(11, 30, 1.0, 10.0).unwrap();
        // Core links connect transit nodes (ids < 5) to each other.
        let (mut core_min, mut stub_max) = (f64::INFINITY, 0.0_f64);
        for (_, l) in g.links() {
            if l.a.0 < 5 && l.b.0 < 5 {
                core_min = core_min.min(l.capacity);
            } else {
                stub_max = stub_max.max(l.capacity);
            }
        }
        assert!(
            core_min >= stub_max / 2.0,
            "core links ({core_min}) are provisioned above typical stub links ({stub_max})"
        );
    }

    #[test]
    fn dumbbell_family_splits_leaves_across_the_bottleneck() {
        let g = TopologyFamily::Dumbbell
            .build_graph(3, 12, 1.0, 10.0)
            .unwrap();
        // Hubs are nodes 0 and 1; every leaf hangs off exactly one hub.
        let mut left = 0usize;
        let mut right = 0usize;
        for (_, l) in g.links() {
            match (l.a.0, l.b.0) {
                (0, 1) | (1, 0) => {}
                (0, _) | (_, 0) => left += 1,
                (1, _) | (_, 1) => right += 1,
                other => panic!("leaf-to-leaf link {other:?}"),
            }
        }
        assert_eq!(left + right, 10);
        assert!(left >= 1 && right >= 1, "both sides populated");
    }

    #[test]
    fn random_network_with_families_yields_routable_sessions() {
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 2 },
            TopologyFamily::TransitStub { transit: 3 },
            TopologyFamily::Dumbbell,
        ] {
            let net = random_network_with(family, 21, 16, 5, 4).unwrap();
            assert_eq!(net.session_count(), 5);
            // Receivers never share the sender's node, so tree routes are
            // always non-empty.
            for r in net.receivers() {
                assert!(!net.route(r).is_empty());
            }
        }
    }

    #[test]
    fn splitmix_unit_is_in_range() {
        let mut rng = SplitMix64(1);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn two_receiver_star_matches_figure7a_shape() {
        // Figure 7(a): sender, shared link, two fanout links.
        let s = star(100.0, &[50.0, 50.0]);
        let net = Network::new(
            s.graph,
            vec![Session::multi_rate(s.sender, s.receivers.clone())],
        )
        .unwrap();
        assert_eq!(net.receiver_count(), 2);
        assert!(net.crosses(ReceiverId::new(0, 0), s.shared_link));
        assert!(net.crosses(ReceiverId::new(0, 1), s.shared_link));
        assert!(!net.same_data_path(ReceiverId::new(0, 0), ReceiverId::new(0, 1)));
    }
}
