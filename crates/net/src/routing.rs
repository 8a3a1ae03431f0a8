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
use std::collections::VecDeque;

/// A receiver's data-path: the ordered sequence of links from the session
/// sender to the receiver. The *set* of these links is what the fairness
/// definitions consume (`R_{i,j}` membership); order matters only for
/// packet-level simulation.
pub type Route = Vec<LinkId>;

/// Compute the hop-count shortest path between two nodes as a sequence of
/// links, or `None` if the nodes are disconnected.
///
/// Ties are broken deterministically: BFS explores neighbors in adjacency
/// (insertion) order, so among equal-hop routes the one using
/// earliest-inserted links is returned. Determinism matters because the whole
/// reproduction pipeline (allocator, simulator, benches) must be re-runnable
/// bit-for-bit.
///
/// If `from == to`, the empty route is returned.
pub fn shortest_path(graph: &Graph, from: NodeId, to: NodeId) -> Option<Route> {
    if from == to {
        return Some(Vec::new());
    }
    if !graph.contains_node(from) || !graph.contains_node(to) {
        return None;
    }
    let mut tree = RouteTree::default();
    tree.grow(graph, from, Some(to));
    let mut route = Vec::new();
    tree.route_into(from, to, &mut route).then_some(route)
}

/// A BFS tree from one source; a route is the parent walk from its end
/// node back to the source, reversed.
///
/// [`crate::Network::new`] grows one full tree per session sender and
/// routes every receiver of the session from it, while [`shortest_path`]
/// stops the same BFS once it discovers its target. The routes agree on
/// any graph, cycles and parallel links included: BFS from a fixed source
/// dequeues nodes in the same order and gives each discovered node the
/// same parent whether or not it stops early, since stopping only
/// truncates the run. So no per-receiver search and no tree check are
/// needed.
///
/// The buffers are reused from one source to the next.
#[derive(Debug, Default)]
pub(crate) struct RouteTree {
    /// parent[v] = (previous node, link used to reach v); `None` for the
    /// source and for nodes not reached.
    parent: Vec<Option<(NodeId, LinkId)>>,
    queue: VecDeque<NodeId>,
}

impl RouteTree {
    /// Grow the BFS tree of `from` (a node of `graph`), in full or until
    /// `stop_at` is discovered.
    pub(crate) fn grow(&mut self, graph: &Graph, from: NodeId, stop_at: Option<NodeId>) {
        self.parent.clear();
        self.parent.resize(graph.node_count(), None);
        self.queue.clear();
        self.queue.push_back(from);
        'bfs: while let Some(u) = self.queue.pop_front() {
            for (v, l) in graph.neighbors(u) {
                if v != from && self.parent[v.0].is_none() {
                    self.parent[v.0] = Some((u, l));
                    if Some(v) == stop_at {
                        break 'bfs;
                    }
                    self.queue.push_back(v);
                }
            }
        }
    }

    /// Append the route from the tree's source `from` to `to` onto `out`,
    /// in path order. Returns `false`, leaving `out` as it was, when `to`
    /// is not in the tree.
    pub(crate) fn route_into(&self, from: NodeId, to: NodeId, out: &mut Vec<LinkId>) -> bool {
        let start = out.len();
        let mut cur = to;
        while cur != from {
            let Some(&Some((prev, link))) = self.parent.get(cur.0) else {
                out.truncate(start);
                return false;
            };
            out.push(link);
            cur = prev;
        }
        out[start..].reverse();
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
