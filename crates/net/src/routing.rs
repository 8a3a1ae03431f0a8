//! Routing: computing each receiver's data-path from its session sender.
//!
//! The paper assumes "the network employs a routing algorithm, such that for
//! each receiver `r_{i,k} ∈ S_i`, there is a sequence of links
//! `(l_{j1}, ..., l_{js})` that carries data from `X_i` to `r_{i,k}`"
//! (Section 2). The concrete algorithm is immaterial to the theory; what
//! matters is the *set* of links on each receiver's data-path. We provide:
//!
//! * hop-count shortest-path routing ([`shortest_path`]) with deterministic
//!   tie-breaking (lowest link id wins), which on the paper's tree-shaped
//!   example topologies recovers the unique route; and
//! * validation of explicitly supplied routes ([`validate_route`]) for
//!   networks where a non-shortest route is wanted.

use crate::error::{NetError, NetResult, RouteDefect};
use crate::graph::Graph;
use crate::ids::{LinkId, NodeId, ReceiverId};

/// A receiver's data-path: the ordered sequence of links from the session
/// sender to the receiver. The *set* of these links is what the fairness
/// definitions consume (`R_{i,j}` membership); order matters only for
/// packet-level simulation.
pub type Route = Vec<LinkId>;

/// Compute the hop-count shortest path between two nodes as a sequence of
/// links, or `None` if the nodes are disconnected.
///
/// Ties are broken deterministically: BFS explores each node's neighbours
/// in link insertion (id) order, so among equal-hop routes the one using
/// earliest-inserted links is returned. Determinism matters because the whole
/// reproduction pipeline (allocator, simulator, benches) must be re-runnable
/// bit-for-bit.
///
/// One query costs O(links): it builds the graph's adjacency and a full
/// BFS tree from `from`. [`crate::Network::new`] routes every receiver of
/// a session from one such tree, which is how networks should be routed;
/// this per-pair form is the reference its routes are tested against.
///
/// If `from == to`, the empty route is returned.
pub fn shortest_path(graph: &Graph, from: NodeId, to: NodeId) -> Option<Route> {
    if from == to {
        return Some(Vec::new());
    }
    if !graph.contains_node(from) || !graph.contains_node(to) {
        return None;
    }
    let adjacency = Adjacency::new(graph);
    let mut tree = RouteTree::default();
    tree.grow(&adjacency, from);
    let mut route = Vec::new();
    tree.route_into(from, to, &mut route).then_some(route)
}

/// A graph's adjacency in compressed sparse rows: the `(neighbour, link)`
/// pairs of node `v` are `entries[offsets[v]..offsets[v + 1]]`, in link id
/// order. That order is the routing tie-break: BFS discovers a node's
/// neighbours in link insertion order.
#[derive(Debug)]
pub(crate) struct Adjacency {
    offsets: Vec<usize>,
    entries: Vec<(NodeId, LinkId)>,
}

impl Adjacency {
    /// Bucket every link under both of its endpoints, each node's row in
    /// link id order.
    pub(crate) fn new(graph: &Graph) -> Self {
        let nodes = graph.node_count();
        // Degrees, summed into row ends: `offsets[v]` is where row `v`
        // stops. Placing links from the last id down moves each row end
        // back to its row start, and leaves the row in link id order.
        let mut offsets = vec![0usize; nodes + 1];
        for (_, l) in graph.links() {
            offsets[l.a.0] += 1;
            offsets[l.b.0] += 1;
        }
        for v in 1..=nodes {
            offsets[v] += offsets[v - 1];
        }
        let mut entries = vec![(NodeId(0), LinkId(0)); offsets[nodes]];
        for id in (0..graph.link_count()).rev().map(LinkId) {
            let l = graph.link(id);
            offsets[l.a.0] -= 1;
            entries[offsets[l.a.0]] = (l.b, id);
            offsets[l.b.0] -= 1;
            entries[offsets[l.b.0]] = (l.a, id);
        }
        Adjacency { offsets, entries }
    }

    /// The `(neighbour, link)` pairs of `node`, in link id order.
    #[inline]
    fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.entries[self.offsets[node.0]..self.offsets[node.0 + 1]]
    }
}

/// A BFS tree from one source; a route is the parent walk from its end
/// node back to the source, reversed. On a graph that is a tree,
/// [`crate::Network::new`] grows one of these from node 0 and routes every
/// receiver by [`RouteTree::climb_into`]. On any other graph it grows one
/// per session sender and routes the session's receivers by
/// [`RouteTree::route_into`], reusing the buffers from one source to the
/// next.
#[derive(Debug, Default)]
pub(crate) struct RouteTree {
    /// `parent[v] = (previous node, link used to reach v, hops from the
    /// source)`; `None` for the source and for nodes not reached.
    parent: Vec<Option<(NodeId, LinkId, usize)>>,
    /// The BFS queue: every node is pushed at most once, so a vector read
    /// from `head` never needs to drop its front.
    queue: Vec<NodeId>,
}

impl RouteTree {
    /// Grow the full BFS tree of `from` (a node of the graph `adjacency`
    /// was built from).
    pub(crate) fn grow(&mut self, adjacency: &Adjacency, from: NodeId) {
        let nodes = adjacency.offsets.len() - 1;
        self.parent.clear();
        self.parent.resize(nodes, None);
        self.queue.clear();
        self.queue.reserve(nodes);
        self.queue.push(from);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let hops = self.hops(u) + 1;
            for &(v, l) in adjacency.neighbors(u) {
                if v != from && self.parent[v.0].is_none() {
                    self.parent[v.0] = Some((u, l, hops));
                    self.queue.push(v);
                }
            }
        }
    }

    /// Whether the last [`RouteTree::grow`] reached every node.
    pub(crate) fn spans(&self) -> bool {
        self.queue.len() == self.parent.len()
    }

    /// The length of the route to `to`: 0 for the source and for nodes
    /// not in the tree.
    pub(crate) fn hops(&self, to: NodeId) -> usize {
        match self.parent.get(to.0) {
            Some(&Some((_, _, hops))) => hops,
            _ => 0,
        }
    }

    /// Append the route from the tree's source `from` to `to` onto `out`,
    /// in path order. Returns `false`, leaving `out` as it was, when `to`
    /// is not in the tree.
    pub(crate) fn route_into(&self, from: NodeId, to: NodeId, out: &mut Vec<LinkId>) -> bool {
        let start = out.len();
        let mut cur = to;
        while cur != from {
            let Some(&Some((prev, link, _))) = self.parent.get(cur.0) else {
                out.truncate(start);
                return false;
            };
            out.push(link);
            cur = prev;
        }
        out[start..].reverse();
        true
    }

    /// Append the path from `from` to `to` onto `out`, in path order, when
    /// the graph is a tree and this BFS tree [`RouteTree::spans`] it: then
    /// it is the graph itself, rooted at its source, and holds the graph's
    /// only simple path between any two nodes. Both ends climb their
    /// parent links to their deepest common ancestor; the path is the
    /// `from`-side links in climb order, then the `to`-side links
    /// reversed. Returns `false`, leaving `out` as it was, when the tree
    /// does not span its graph (two unreached nodes would climb forever)
    /// or either end is not a node of the graph.
    pub(crate) fn climb_into(&self, from: NodeId, to: NodeId, out: &mut Vec<LinkId>) -> bool {
        let nodes = self.parent.len();
        if !self.spans() || from.0 >= nodes || to.0 >= nodes {
            return false;
        }
        // Every node below the root has a parent, and no climb passes the
        // root: it is the common ancestor of any two nodes.
        let up = |v: NodeId| self.parent[v.0].map_or((v, LinkId(0)), |(p, l, _)| (p, l));
        let (mut a, mut b) = (from, to);
        while self.hops(a) > self.hops(b) {
            a = up(a).0;
        }
        while self.hops(b) > self.hops(a) {
            b = up(b).0;
        }
        while a != b {
            (a, b) = (up(a).0, up(b).0);
        }
        let climb = |mut v: NodeId, out: &mut Vec<LinkId>| {
            while v != a {
                let (p, l) = up(v);
                out.push(l);
                v = p;
            }
        };
        climb(from, out);
        let mid = out.len();
        climb(to, out);
        out[mid..].reverse();
        true
    }
}

/// Validate that `route` is a simple path from `from` to `to` in `graph`.
///
/// A valid route:
/// * starts at `from` and ends at `to`,
/// * uses consecutive links that share endpoints,
/// * never repeats a link (the model's data-paths are link *sets*).
///
/// The empty route is valid exactly when `from == to` (a receiver co-located
/// with its sender — allowed for members of *different* sessions sharing a
/// node, and degenerate-but-harmless otherwise).
pub fn validate_route(
    graph: &Graph,
    from: NodeId,
    to: NodeId,
    route: &[LinkId],
    receiver: ReceiverId,
) -> NetResult<()> {
    let defect = |reason| NetError::InvalidRoute { receiver, reason };
    if route.is_empty() {
        return if from == to {
            Ok(())
        } else {
            Err(defect(RouteDefect::Empty))
        };
    }
    // Repeat detection: routes are almost always a handful of links, so a
    // backward scan beats allocating a links-wide bitvec per call — at
    // bench scale (10⁵ receivers × 10⁵ links) the bitvec zeroing alone
    // cost seconds of network construction. Long routes fall back to it.
    let mut used = if route.len() > 64 {
        vec![false; graph.link_count()]
    } else {
        Vec::new()
    };
    let mut cur = from;
    for (i, &lid) in route.iter().enumerate() {
        if !graph.contains_link(lid) {
            return Err(NetError::UnknownLink(lid));
        }
        let repeated = if used.is_empty() {
            route[..i].contains(&lid)
        } else {
            std::mem::replace(&mut used[lid.0], true)
        };
        if repeated {
            return Err(defect(RouteDefect::RepeatedLink));
        }
        let link = graph.link(lid);
        match link.opposite(cur) {
            Some(next) => cur = next,
            None => {
                return Err(defect(if i == 0 {
                    RouteDefect::WrongStart
                } else {
                    RouteDefect::Disconnected
                }));
            }
        }
    }
    if cur != to {
        return Err(defect(RouteDefect::WrongEnd));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -l0- 1 -l1- 2
    ///  \------l2----/   (direct shortcut)
    fn triangle() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        let l0 = g.add_link(n[0], n[1], 1.0).unwrap();
        let l1 = g.add_link(n[1], n[2], 1.0).unwrap();
        let l2 = g.add_link(n[0], n[2], 1.0).unwrap();
        (g, n, vec![l0, l1, l2])
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        let (g, n, l) = triangle();
        assert_eq!(shortest_path(&g, n[0], n[2]), Some(vec![l[2]]));
        assert_eq!(shortest_path(&g, n[0], n[1]), Some(vec![l[0]]));
    }

    #[test]
    fn shortest_path_self_is_empty() {
        let (g, n, _) = triangle();
        assert_eq!(shortest_path(&g, n[1], n[1]), Some(vec![]));
    }

    #[test]
    fn shortest_path_disconnected_is_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(shortest_path(&g, a, b), None);
    }

    #[test]
    fn shortest_path_is_deterministic_on_ties() {
        // Two parallel 2-hop routes; BFS must pick the one through the
        // earlier-inserted middle node every time.
        let mut g = Graph::new();
        let n = g.add_nodes(4); // 0 -> {1,2} -> 3
        let l01 = g.add_link(n[0], n[1], 1.0).unwrap();
        let _l02 = g.add_link(n[0], n[2], 1.0).unwrap();
        let l13 = g.add_link(n[1], n[3], 1.0).unwrap();
        let _l23 = g.add_link(n[2], n[3], 1.0).unwrap();
        for _ in 0..10 {
            assert_eq!(shortest_path(&g, n[0], n[3]), Some(vec![l01, l13]));
        }
    }

    /// An `n − 1`-link graph need not be a tree: here a triangle and an
    /// isolated node. Its BFS tree from node 0 does not span it, so no
    /// climb is attempted; the isolated node and the root, both without a
    /// parent, would otherwise climb forever.
    #[test]
    fn climb_into_refuses_a_tree_that_does_not_span() {
        let (mut g, n, _) = triangle();
        let isolated = g.add_node();
        assert_eq!(g.link_count() + 1, g.node_count());
        let mut tree = RouteTree::default();
        tree.grow(&Adjacency::new(&g), n[0]);
        assert!(!tree.spans());
        let mut out = vec![LinkId(7)];
        for (from, to) in [(isolated, n[0]), (n[0], isolated), (n[1], n[2])] {
            assert!(!tree.climb_into(from, to, &mut out));
            assert_eq!(out, [LinkId(7)], "{from:?} → {to:?} left a partial route");
        }
    }

    #[test]
    fn validate_route_accepts_good_routes() {
        let (g, n, l) = triangle();
        let r = ReceiverId::new(0, 0);
        validate_route(&g, n[0], n[2], &[l[0], l[1]], r).unwrap();
        validate_route(&g, n[0], n[2], &[l[2]], r).unwrap();
        validate_route(&g, n[0], n[0], &[], r).unwrap();
    }

    #[test]
    fn validate_route_rejects_each_defect() {
        let (g, n, l) = triangle();
        let r = ReceiverId::new(0, 0);
        // Empty but endpoints differ.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::Empty,
                ..
            })
        ));
        // Starts at the wrong node.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[l[1]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::WrongStart,
                ..
            })
        ));
        // Ends at the wrong node.
        assert!(matches!(
            validate_route(&g, n[0], n[1], &[l[0], l[1]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::WrongEnd,
                ..
            })
        ));
        // Disconnected middle.
        let mut g2 = Graph::new();
        let m = g2.add_nodes(4);
        let a = g2.add_link(m[0], m[1], 1.0).unwrap();
        let b = g2.add_link(m[2], m[3], 1.0).unwrap();
        assert!(matches!(
            validate_route(&g2, m[0], m[3], &[a, b], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::Disconnected,
                ..
            })
        ));
        // Repeated link (0 -> 1 -> 0 is a repeat, not a walk we allow).
        assert!(matches!(
            validate_route(&g, n[0], n[0], &[l[0], l[0]], r),
            Err(NetError::InvalidRoute {
                reason: RouteDefect::RepeatedLink,
                ..
            })
        ));
        // Unknown link id.
        assert!(matches!(
            validate_route(&g, n[0], n[2], &[LinkId(99)], r),
            Err(NetError::UnknownLink(_))
        ));
    }
}
