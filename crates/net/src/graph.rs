//! The network graph `G`: nodes connected by capacitated links.
//!
//! Following the paper's model (Section 2), a link `l_j` has a capacity `c_j`
//! that "limits the aggregate rate of flow it can transmit in either
//! direction between the two nodes it connects" — links are undirected and
//! the capacity is shared by both directions. (The paper notes that
//! per-direction capacities are a trivial extension obtained by splitting a
//! link in two; [`Graph::add_link`] can simply be called twice for that.)

use crate::error::{NetError, NetResult};
use crate::ids::{LinkId, NodeId};

/// An undirected, capacitated link `l_j` between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// The capacity `c_j > 0` shared by both directions.
    pub capacity: f64,
}

impl Link {
    /// Given one endpoint of the link, return the opposite endpoint, or
    /// `None` if `node` is not an endpoint.
    pub fn opposite(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// The network graph `G`: a set of nodes connected by `n` links.
///
/// Nodes carry no attributes in the model; they exist only as attachment
/// points for session members and link endpoints. The graph stores only
/// its links, in insertion (id) order: routing derives a node's neighbours
/// from that order (see [`crate::shortest_path`]), so a node keeps no
/// adjacency list of its own.
///
/// # Examples
///
/// ```
/// use mlf_net::{Graph, NodeId};
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let l = g.add_link(a, b, 5.0).unwrap();
/// assert_eq!(g.capacity(l), 5.0);
/// assert_eq!(g.link(l).opposite(a), Some(b));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    node_count: usize,
    links: Vec<Link>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// A graph of `node_count` nodes (ids `0..node_count`) with room for
    /// `link_capacity` links, for builders that know both up front.
    pub(crate) fn with_nodes(node_count: usize, link_capacity: usize) -> Self {
        Graph {
            node_count,
            links: Vec::with_capacity(link_capacity),
        }
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Add `k` nodes and return their ids in order.
    pub fn add_nodes(&mut self, k: usize) -> Vec<NodeId> {
        (0..k).map(|_| self.add_node()).collect()
    }

    /// Add an undirected link of the given capacity between `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] if either endpoint does not exist.
    /// * [`NetError::SelfLoop`] if `a == b`.
    /// * [`NetError::BadCapacity`] if the capacity is not a positive, finite
    ///   number. (Infinite-capacity links are modelled by a large finite
    ///   number; keeping capacities finite keeps the allocator's arithmetic
    ///   well-defined.)
    pub fn add_link(&mut self, a: NodeId, b: NodeId, capacity: f64) -> NetResult<LinkId> {
        if a.0 >= self.node_count {
            return Err(NetError::UnknownNode(a));
        }
        if b.0 >= self.node_count {
            return Err(NetError::UnknownNode(b));
        }
        let id = LinkId(self.links.len());
        if a == b {
            return Err(NetError::SelfLoop { link: id, node: a });
        }
        if !(capacity.is_finite() && capacity > 0.0) {
            return Err(NetError::BadCapacity { link: id, capacity });
        }
        self.links.push(Link { a, b, capacity });
        Ok(id)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of links `n`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterate over node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId)
    }

    /// Iterate over `(LinkId, &Link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Access a link by id. Panics if out of range (ids are only minted by
    /// this graph, so an out-of-range id is a logic error).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Capacity `c_j` of a link.
    pub fn capacity(&self, id: LinkId) -> f64 {
        self.links[id.0].capacity
    }

    /// Whether a node id is valid for this graph.
    pub(crate) fn contains_node(&self, node: NodeId) -> bool {
        node.0 < self.node_count
    }

    /// Whether a link id is valid for this graph.
    pub(crate) fn contains_link(&self, link: LinkId) -> bool {
        link.0 < self.links.len()
    }

    /// Iterate over `(neighbor, link)` pairs adjacent to `node`, in link
    /// id order: a scan of every link, kept for tests only.
    #[cfg(test)]
    pub(crate) fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.links()
            .filter_map(move |(id, l)| l.opposite(node).map(|v| (v, id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut g = Graph::new();
        let nodes = g.add_nodes(3);
        let l0 = g.add_link(nodes[0], nodes[1], 1.0).unwrap();
        let l1 = g.add_link(nodes[1], nodes[2], 2.0).unwrap();
        (g, nodes, vec![l0, l1])
    }

    #[test]
    fn builds_a_simple_line() {
        let (g, nodes, links) = line3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
        assert_eq!(g.capacity(links[0]), 1.0);
        assert_eq!(g.neighbors(nodes[1]).count(), 2);
        assert_eq!(g.neighbors(nodes[0]).count(), 1);
    }

    #[test]
    fn rejects_bad_links() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(matches!(
            g.add_link(a, a, 1.0),
            Err(NetError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_link(a, b, 0.0),
            Err(NetError::BadCapacity { .. })
        ));
        assert!(matches!(
            g.add_link(a, b, f64::INFINITY),
            Err(NetError::BadCapacity { .. })
        ));
        assert!(matches!(
            g.add_link(a, b, f64::NAN),
            Err(NetError::BadCapacity { .. })
        ));
        assert!(matches!(
            g.add_link(a, NodeId(99), 1.0),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn opposite_endpoint() {
        let (g, nodes, links) = line3();
        let l = g.link(links[0]);
        assert_eq!(l.opposite(nodes[0]), Some(nodes[1]));
        assert_eq!(l.opposite(nodes[1]), Some(nodes[0]));
        assert_eq!(l.opposite(nodes[2]), None);
    }

    #[test]
    fn neighbors_reflect_links() {
        let (g, nodes, links) = line3();
        let n: Vec<_> = g.neighbors(nodes[1]).collect();
        assert!(n.contains(&(nodes[0], links[0])));
        assert!(n.contains(&(nodes[2], links[1])));
    }

    #[test]
    fn parallel_links_are_allowed() {
        // Two unidirectional halves of a full-duplex link are modelled as
        // two parallel links, which the graph must therefore permit.
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let l0 = g.add_link(a, b, 1.0).unwrap();
        let l1 = g.add_link(a, b, 1.0).unwrap();
        assert_ne!(l0, l1);
        assert_eq!(g.neighbors(a).count(), 2);
    }
}
