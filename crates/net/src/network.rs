//! The network tuple `N = (G, {S_1, ..., S_m}, chi, tau)` with precomputed
//! routing tables.
//!
//! [`Network`] is the central immutable object consumed by the allocator, the
//! fairness-property checkers and the simulator. On construction it computes
//! (or validates) every receiver's data-path and builds, once, the flat
//! [`Incidence`] holding the per-link receiver index sets `R_{i,j}`
//! (receivers of session `S_i` whose data-path traverses link `l_j`) and
//! `R_j` (all receivers traversing `l_j`) from Table 1.

use crate::error::{NetError, NetResult};
use crate::graph::Graph;
use crate::ids::{LinkId, NodeId, ReceiverId, SessionId};
use crate::incidence::Incidence;
use crate::routing::{validate_route, Adjacency, Route, RouteTree};
use crate::session::{Session, SessionType};

/// A fully-routed multicast network.
///
/// # Examples
///
/// ```
/// use mlf_net::{Graph, Network, Session};
///
/// let mut g = Graph::new();
/// let s = g.add_node();
/// let r = g.add_node();
/// g.add_link(s, r, 10.0).unwrap();
/// let net = Network::new(g, vec![Session::unicast(s, r)]).unwrap();
/// assert_eq!(net.receiver_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    graph: Graph,
    sessions: Vec<Session>,
    /// Routes and `R_{i,j}`, flat. Stored per route entry (not as a
    /// links-wide bitvec per receiver) so memory scales with total route
    /// length, not receivers × links — the 10⁵-receiver tree benches would
    /// otherwise need tens of gigabytes here.
    incidence: Incidence,
}

impl Network {
    /// Build a network, routing every receiver along the hop-count shortest
    /// path from its session sender (deterministic tie-breaking): one BFS
    /// tree per session over one adjacency of the graph, whose parent walks
    /// give exactly the routes of [`crate::shortest_path`]. An unknown or
    /// unreachable receiver node (or an unknown sender) is
    /// [`NetError::Unroutable`], naming the first such receiver
    /// session-major.
    pub fn new(graph: Graph, sessions: Vec<Session>) -> NetResult<Self> {
        let receivers = sessions.iter().map(|s| s.receivers.len()).sum::<usize>();
        let mut offsets = Vec::with_capacity(receivers + 1);
        offsets.push(0);
        let mut links = Vec::new();
        let adjacency = Adjacency::new(&graph);
        let mut tree = RouteTree::default();
        for (i, s) in sessions.iter().enumerate() {
            let known = graph.contains_node(s.sender);
            if known {
                tree.grow(&adjacency, s.sender);
                links.reserve(s.receivers.iter().map(|&r| tree.hops(r)).sum());
            }
            for (k, &rnode) in s.receivers.iter().enumerate() {
                let routed =
                    rnode == s.sender || (known && tree.route_into(s.sender, rnode, &mut links));
                if !routed {
                    return Err(NetError::Unroutable {
                        receiver: ReceiverId::new(i, k),
                    });
                }
                offsets.push(links.len());
            }
        }
        Self::assemble(graph, sessions, offsets, links)
    }

    /// Build a network with explicitly supplied routes (`routes[i][k]` is the
    /// data-path of `r_{i,k}`). Every route is validated against the graph.
    pub fn with_routes(
        graph: Graph,
        sessions: Vec<Session>,
        routes: Vec<Vec<Route>>,
    ) -> NetResult<Self> {
        if routes.len() != sessions.len() {
            return Err(NetError::RouteShapeMismatch);
        }
        let mut offsets = vec![0];
        let mut links = Vec::new();
        for (i, (s, rs)) in sessions.iter().zip(&routes).enumerate() {
            if rs.len() != s.receivers.len() {
                return Err(NetError::RouteShapeMismatch);
            }
            for (k, route) in rs.iter().enumerate() {
                validate_route(
                    &graph,
                    s.sender,
                    s.receivers[k],
                    route,
                    ReceiverId::new(i, k),
                )?;
                links.extend_from_slice(route);
                offsets.push(links.len());
            }
        }
        Self::assemble(graph, sessions, offsets, links)
    }

    /// Validate the sessions and build the incidence of the flat,
    /// session-major routes (`route_links[offsets[f]..offsets[f + 1]]` is
    /// flat receiver `f`'s data-path).
    fn assemble(
        graph: Graph,
        sessions: Vec<Session>,
        offsets: Vec<usize>,
        route_links: Vec<LinkId>,
    ) -> NetResult<Self> {
        // Validate sessions against the model's restrictions. `stamp[v]`
        // holds the last session with a member on node `v`, so the tau
        // check is linear in the members.
        let mut stamp = vec![usize::MAX; graph.node_count()];
        for (i, s) in sessions.iter().enumerate() {
            let sid = SessionId(i);
            if s.receivers.is_empty() {
                return Err(NetError::EmptySession(sid));
            }
            if !(s.max_rate.is_finite() && s.max_rate > 0.0) {
                return Err(NetError::BadMaxRate {
                    session: sid,
                    max_rate: s.max_rate,
                });
            }
            if !graph.contains_node(s.sender) {
                return Err(NetError::UnknownNode(s.sender));
            }
            // tau restriction: no two members of one session on the same
            // node. Every member is checked for existence first; then the
            // lowest shared node is reported.
            stamp[s.sender.0] = i;
            let mut shared: Option<NodeId> = None;
            for &r in &s.receivers {
                if !graph.contains_node(r) {
                    return Err(NetError::UnknownNode(r));
                }
                if std::mem::replace(&mut stamp[r.0], i) == i {
                    shared = Some(shared.map_or(r, |n| n.min(r)));
                }
            }
            if let Some(node) = shared {
                return Err(NetError::DuplicateMember { session: sid, node });
            }
        }
        let incidence = Incidence::new(graph.link_count(), &sessions, offsets, route_links);
        Ok(Network {
            graph,
            sessions,
            incidence,
        })
    }

    /// The underlying graph `G`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// All sessions, indexed by [`SessionId`].
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of sessions `m`.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of links `n`.
    pub fn link_count(&self) -> usize {
        self.graph.link_count()
    }

    /// Total number of receivers across all sessions.
    pub fn receiver_count(&self) -> usize {
        self.incidence.receiver_count()
    }

    /// Access a session by id. Panics on out-of-range ids (which can only be
    /// produced by foreign networks — a logic error).
    pub fn session(&self, id: SessionId) -> &Session {
        &self.sessions[id.0]
    }

    /// Iterate over `(SessionId, &Session)`.
    pub fn sessions_iter(&self) -> impl Iterator<Item = (SessionId, &Session)> + '_ {
        self.sessions
            .iter()
            .enumerate()
            .map(|(i, s)| (SessionId(i), s))
    }

    /// Iterate over every receiver id in the network, session-major.
    pub fn receivers(&self) -> impl Iterator<Item = ReceiverId> + '_ {
        self.sessions
            .iter()
            .enumerate()
            .flat_map(|(i, s)| (0..s.receivers.len()).map(move |k| ReceiverId::new(i, k)))
    }

    /// The flat routing and `R_{i,j}` incidence arrays the solvers and the
    /// fairness audit read.
    pub fn incidence(&self) -> &Incidence {
        &self.incidence
    }

    fn flat(&self, r: ReceiverId) -> usize {
        self.incidence.flat(r.session.0, r.index)
    }

    /// The data-path (ordered link sequence) of a receiver.
    pub fn route(&self, r: ReceiverId) -> &[LinkId] {
        self.incidence.route_links(self.flat(r))
    }

    /// A copy of all routes, shaped `[session][receiver]`.
    pub fn routes(&self) -> Vec<Vec<Route>> {
        let mut routes = vec![Vec::new(); self.sessions.len()];
        for r in self.receivers() {
            routes[r.session.0].push(self.route(r).to_vec());
        }
        routes
    }

    /// `R_{i,j}`: indices `k` of the receivers of session `i` whose data-path
    /// traverses link `j` (sorted ascending).
    pub fn receivers_of_session_on_link(&self, link: LinkId, session: SessionId) -> &[usize] {
        let slot = self.incidence.slot_of(link.0, session.0);
        slot.map_or(&[], |slot| self.incidence.slot_receivers(slot))
    }

    /// `R_j`: every receiver whose data-path traverses link `j`, session-major.
    pub fn receivers_on_link(&self, link: LinkId) -> impl Iterator<Item = ReceiverId> + '_ {
        let inc = &self.incidence;
        inc.link_slots(link.0).flat_map(move |slot| {
            let i = inc.slot_session(slot);
            inc.slot_receivers(slot)
                .iter()
                .map(move |&k| ReceiverId::new(i, k))
        })
    }

    /// Whether receiver `r`'s data-path traverses link `j` (`r ∈ R_j`): a
    /// binary search of `R_{i,j}`.
    pub fn crosses(&self, r: ReceiverId, link: LinkId) -> bool {
        let on_link = self.receivers_of_session_on_link(link, r.session);
        on_link.binary_search(&r.index).is_ok()
    }

    /// The session's data-path: the set of links carrying data to *any* of
    /// its receivers, as a boolean mask indexed by link id.
    pub fn session_data_path(&self, session: SessionId) -> Vec<bool> {
        (0..self.link_count())
            .map(|j| self.incidence.slot_of(j, session.0).is_some())
            .collect()
    }

    /// Whether two receivers' data-paths traverse exactly the same link set
    /// (the premise of same-path-receiver-fairness, Fairness Property 2).
    /// Compares the two sorted link-id sets directly.
    pub fn same_data_path(&self, a: ReceiverId, b: ReceiverId) -> bool {
        self.incidence.crossed(self.flat(a)) == self.incidence.crossed(self.flat(b))
    }

    /// A copy of the network with session `id`'s type replaced.
    ///
    /// This is the "replacement" of Lemma 3 / Corollary 1 — identical members,
    /// identical topology, different `chi`. Routes are reused unchanged.
    pub fn with_session_kind(&self, id: SessionId, kind: SessionType) -> Self {
        let mut net = self.clone();
        net.sessions[id.0].kind = kind;
        net
    }

    /// A copy of the network with all sessions flipped to the given type.
    pub fn with_uniform_kind(&self, kind: SessionType) -> Self {
        let mut net = self.clone();
        for s in &mut net.sessions {
            s.kind = kind;
        }
        net
    }

    /// A copy of the network with one receiver removed from its session
    /// (the operation studied in Section 2.5 / Figure 3). Routes for the
    /// remaining receivers are preserved exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownReceiver`] for out-of-range ids, and
    /// [`NetError::EmptySession`] if removal would leave the session with no
    /// receivers.
    pub fn without_receiver(&self, r: ReceiverId) -> NetResult<Self> {
        let i = r.session.0;
        if i >= self.sessions.len() || r.index >= self.sessions[i].receivers.len() {
            return Err(NetError::UnknownReceiver(r));
        }
        if self.sessions[i].receivers.len() == 1 {
            return Err(NetError::EmptySession(r.session));
        }
        let mut sessions = self.sessions.clone();
        sessions[i].receivers.remove(r.index);
        let mut offsets = vec![0];
        let mut links = Vec::new();
        for other in self.receivers().filter(|&other| other != r) {
            links.extend_from_slice(self.route(other));
            offsets.push(links.len());
        }
        Self::assemble(self.graph.clone(), sessions, offsets, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sender node 0, junction 1, receivers at 2 and 3.
    ///   0 --l0-- 1 --l1-- 2
    ///            \--l2--- 3
    fn two_receiver_tree() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 6.0).unwrap();
        Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap()
    }

    #[test]
    fn routes_follow_the_tree() {
        let net = two_receiver_tree();
        assert_eq!(net.route(ReceiverId::new(0, 0)), &[LinkId(0), LinkId(1)]);
        assert_eq!(net.route(ReceiverId::new(0, 1)), &[LinkId(0), LinkId(2)]);
    }

    #[test]
    fn link_membership_tables_are_consistent() {
        let net = two_receiver_tree();
        // Both receivers cross l0; one each crosses l1 and l2.
        assert_eq!(
            net.receivers_of_session_on_link(LinkId(0), SessionId(0)),
            &[0, 1]
        );
        assert_eq!(
            net.receivers_of_session_on_link(LinkId(1), SessionId(0)),
            &[0]
        );
        assert_eq!(
            net.receivers_of_session_on_link(LinkId(2), SessionId(0)),
            &[1]
        );
        assert!(net.crosses(ReceiverId::new(0, 0), LinkId(0)));
        assert!(!net.crosses(ReceiverId::new(0, 0), LinkId(2)));
        assert_eq!(net.receivers_on_link(LinkId(0)).count(), 2);
    }

    #[test]
    fn session_data_path_is_union_of_routes() {
        let net = two_receiver_tree();
        assert_eq!(net.session_data_path(SessionId(0)), vec![true, true, true]);
    }

    #[test]
    fn same_data_path_detection() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 1.0).unwrap();
        g.add_link(n[1], n[2], 1.0).unwrap();
        // Two unicast sessions from n0: one to n2, one to n2's sibling... use
        // co-located receivers: S1 -> n2, S2 -> n2 not allowed same session;
        // different sessions may share nodes.
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[2]), Session::unicast(n[0], n[2])],
        )
        .unwrap();
        assert!(net.same_data_path(ReceiverId::new(0, 0), ReceiverId::new(1, 0)));
    }

    #[test]
    fn rejects_duplicate_members_within_a_session() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 1.0).unwrap();
        let err = Network::new(g, vec![Session::multi_rate(n[0], vec![n[1], n[1]])]);
        assert!(matches!(err, Err(NetError::DuplicateMember { .. })));
    }

    /// The lowest node shared by two members is reported, whatever the
    /// receiver order, and the sender counts as a member.
    #[test]
    fn duplicate_members_report_the_lowest_shared_node() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 1.0).unwrap();
        g.add_link(n[1], n[2], 1.0).unwrap();
        g.add_link(n[2], n[3], 1.0).unwrap();
        let shared = |sender: NodeId, receivers: Vec<NodeId>| {
            let sessions = vec![
                Session::unicast(n[0], n[3]),
                Session::multi_rate(sender, receivers),
            ];
            match Network::new(g.clone(), sessions) {
                Err(NetError::DuplicateMember { session, node }) => (session, node),
                other => panic!("expected DuplicateMember, got {other:?}"),
            }
        };
        assert_eq!(
            shared(n[0], vec![n[3], n[2], n[3], n[2]]),
            (SessionId(1), n[2])
        );
        assert_eq!(shared(n[2], vec![n[3], n[1], n[2]]), (SessionId(1), n[2]));
        assert_eq!(shared(n[3], vec![n[3], n[1], n[1]]), (SessionId(1), n[1]));
    }

    #[test]
    fn rejects_unroutable_receivers() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 1.0).unwrap();
        // n2 is isolated.
        let err = Network::new(g, vec![Session::unicast(n[0], n[2])]);
        assert!(matches!(err, Err(NetError::Unroutable { .. })));
    }

    #[test]
    fn rejects_empty_sessions_and_bad_rates() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 1.0).unwrap();
        let err = Network::new(g.clone(), vec![Session::multi_rate(n[0], vec![])]);
        assert!(matches!(err, Err(NetError::EmptySession(_))));
        let err = Network::new(g, vec![Session::unicast(n[0], n[1]).with_max_rate(0.0)]);
        assert!(matches!(err, Err(NetError::BadMaxRate { .. })));
    }

    #[test]
    fn with_routes_validates_shape_and_paths() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        let l0 = g.add_link(n[0], n[1], 1.0).unwrap();
        let l1 = g.add_link(n[1], n[2], 1.0).unwrap();
        let sessions = vec![Session::unicast(n[0], n[2])];
        // Correct explicit route.
        let net =
            Network::with_routes(g.clone(), sessions.clone(), vec![vec![vec![l0, l1]]]).unwrap();
        assert_eq!(net.route(ReceiverId::new(0, 0)), &[l0, l1]);
        // Wrong shape.
        assert!(matches!(
            Network::with_routes(g.clone(), sessions.clone(), vec![]),
            Err(NetError::RouteShapeMismatch)
        ));
        // Invalid path.
        assert!(matches!(
            Network::with_routes(g, sessions, vec![vec![vec![l1]]]),
            Err(NetError::InvalidRoute { .. })
        ));
    }

    #[test]
    fn without_receiver_preserves_remaining_routes() {
        let net = two_receiver_tree();
        let smaller = net.without_receiver(ReceiverId::new(0, 0)).unwrap();
        assert_eq!(smaller.receiver_count(), 1);
        assert_eq!(
            smaller.route(ReceiverId::new(0, 0)),
            &[LinkId(0), LinkId(2)],
            "surviving receiver keeps its original route"
        );
        // Removing the last receiver of a session is rejected.
        assert!(matches!(
            smaller.without_receiver(ReceiverId::new(0, 0)),
            Err(NetError::EmptySession(_))
        ));
        assert!(matches!(
            net.without_receiver(ReceiverId::new(5, 0)),
            Err(NetError::UnknownReceiver(_))
        ));
    }

    #[test]
    fn kind_flips_produce_independent_copies() {
        let net = two_receiver_tree();
        let single = net.with_session_kind(SessionId(0), SessionType::SingleRate);
        assert!(single.session(SessionId(0)).kind.is_single_rate());
        assert!(net.session(SessionId(0)).kind.is_multi_rate());
        let all_single = net.with_uniform_kind(SessionType::SingleRate);
        assert!(all_single
            .sessions()
            .iter()
            .all(|s| s.kind.is_single_rate()));
        assert!(net.sessions().iter().all(|s| s.kind.is_multi_rate()));
    }
}
