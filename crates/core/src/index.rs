//! CSR-style incidence index of a [`Network`] — the solver hot path's view
//! of `R_{i,j}`.
//!
//! The progressive-filling engines repeatedly ask two questions about a
//! network: *which sessions cross link `j`, and with which receivers?* and
//! *which links does receiver `r_{i,k}` traverse?* `Network` can answer
//! both, but only through nested jagged tables whose iteration scans every
//! session per link (most of which do not cross it). [`NetworkIndex`]
//! flattens the incidence structure once per solve into four contiguous
//! arrays:
//!
//! * `link_offsets` / `link_sessions` — for each link, the ids of the
//!   sessions crossing it, in **ascending session order**. One entry of
//!   `link_sessions` is called a *slot*: the `(link, session)` incidence
//!   pair every per-link aggregate in
//!   [`SolverWorkspace`](crate::allocator::SolverWorkspace) is keyed by.
//! * `slot_recv_offsets` / `slot_receivers` — for each slot, the receiver
//!   indices `k ∈ R_{i,j}`, in **ascending receiver order**.
//! * `recv_offsets` — session-major flat numbering of receivers.
//! * `route_offsets` / `route_slots` — for each (flat) receiver, the
//!   `(link, slot)` pairs along its data-path, in route order, plus
//!   `route_pos`: where the receiver sits in each of those slots.
//!
//! An index into `slot_receivers` is a *position*: one
//! `(link, session, receiver)` incidence. Per-position state in
//! [`SolverWorkspace`](crate::allocator::SolverWorkspace) (active flags,
//! `RandomJoin` miss factors) is aligned with `slot_receivers`, so a
//! slot's positions fold in the same ascending-receiver order as its
//! receiver list.
//!
//! The ascending orders are load-bearing: the solvers' floating-point
//! accumulations (frozen-rate sums and maxima, per-link load terms) must
//! fold in exactly the order the pre-index implementations used — session-
//! major, then receiver-major — so the optimized engines stay **bitwise
//! identical** to [`crate::reference`]. The index never reorders anything;
//! it only removes the empty intersections the old loops skipped one
//! `is_empty()` check at a time.
//!
//! All buffers are reused across [`NetworkIndex::rebuild`] calls, so a
//! workspace that solves many same-shaped networks (a sweep) performs no
//! steady-state allocation for indexing.

use mlf_net::{LinkId, Network, SessionId};

/// Flat link→session→receiver and receiver→route incidence arrays of one
/// network (see the [module docs](self) for the layout).
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
#[derive(Debug, Default, Clone)]
pub struct NetworkIndex {
    link_count: usize,
    session_count: usize,
    /// `links + 1` offsets into `link_sessions`.
    link_offsets: Vec<usize>,
    /// Session ids crossing each link, ascending within a link. Indices
    /// into this array are *slot* ids.
    link_sessions: Vec<usize>,
    /// `slots + 1` offsets into `slot_receivers`.
    slot_recv_offsets: Vec<usize>,
    /// Receiver indices `k` of each slot, ascending within a slot.
    slot_receivers: Vec<usize>,
    /// `sessions + 1` offsets assigning session-major flat receiver ids.
    recv_offsets: Vec<usize>,
    /// `flat receivers + 1` offsets into `route_slots`.
    route_offsets: Vec<usize>,
    /// `(link, slot)` pairs along each receiver's data-path, route order.
    route_slots: Vec<(usize, usize)>,
    /// The receiver's position in each slot of `route_slots` (an index
    /// into `slot_receivers`), aligned with `route_slots`.
    route_pos: Vec<usize>,
}

impl NetworkIndex {
    /// An empty index (populate with [`NetworkIndex::rebuild`]).
    pub fn new() -> Self {
        NetworkIndex::default()
    }

    /// Rebuild the index for `net`, reusing all buffers.
    pub fn rebuild(&mut self, net: &Network) {
        self.link_count = net.link_count();
        self.session_count = net.session_count();

        self.link_offsets.clear();
        self.link_sessions.clear();
        self.slot_recv_offsets.clear();
        self.slot_receivers.clear();
        self.slot_recv_offsets.push(0);
        for j in 0..self.link_count {
            self.link_offsets.push(self.link_sessions.len());
            for i in 0..self.session_count {
                let on = net.receivers_of_session_on_link(LinkId(j), SessionId(i));
                if on.is_empty() {
                    continue;
                }
                self.link_sessions.push(i);
                self.slot_receivers.extend_from_slice(on);
                self.slot_recv_offsets.push(self.slot_receivers.len());
            }
        }
        self.link_offsets.push(self.link_sessions.len());

        self.recv_offsets.clear();
        let mut flat = 0;
        for s in net.sessions() {
            self.recv_offsets.push(flat);
            flat += s.receivers.len();
        }
        self.recv_offsets.push(flat);

        self.route_offsets.clear();
        self.route_slots.clear();
        self.route_pos.clear();
        for (i, s) in net.sessions().iter().enumerate() {
            for k in 0..s.receivers.len() {
                self.route_offsets.push(self.route_slots.len());
                for &l in net.route(mlf_net::ReceiverId::new(i, k)) {
                    let slot = self
                        .slot_of(l.0, i)
                        // mlf-lint: allow(panic-unwrap, reason = "the slot table was just built from these same routes, so every (link, session) pair resolves")
                        .expect("every route link carries its own session");
                    let offset = self
                        .slot_receivers(slot)
                        .binary_search(&k)
                        // mlf-lint: allow(panic-unwrap, reason = "the slot's receiver list was built from the receivers routed over this link, this one included")
                        .expect("a routed receiver sits in its slot");
                    self.route_slots.push((l.0, slot));
                    self.route_pos.push(self.slot_recv_offsets[slot] + offset);
                }
            }
        }
        self.route_offsets.push(self.route_slots.len());
    }

    /// Number of links indexed.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Number of `(link, session)` incidence slots.
    pub(crate) fn slot_count(&self) -> usize {
        self.link_sessions.len()
    }

    /// Total number of (flat) receivers.
    pub fn receiver_count(&self) -> usize {
        *self.recv_offsets.last().unwrap_or(&0)
    }

    /// The slot range of link `j` (indices into the slot arrays).
    #[inline]
    pub(crate) fn link_slots(&self, j: usize) -> std::ops::Range<usize> {
        self.link_offsets[j]..self.link_offsets[j + 1]
    }

    /// The session a slot belongs to.
    #[inline]
    pub(crate) fn slot_session(&self, slot: usize) -> usize {
        self.link_sessions[slot]
    }

    /// The receiver indices `k ∈ R_{i,j}` of a slot, ascending.
    // mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
    #[inline]
    pub fn slot_receivers(&self, slot: usize) -> &[usize] {
        &self.slot_receivers[self.slot_positions(slot)]
    }

    /// The positions of a slot: indices into the flat receiver array,
    /// ascending with the receiver indices they hold.
    #[inline]
    pub(crate) fn slot_positions(&self, slot: usize) -> std::ops::Range<usize> {
        self.slot_recv_offsets[slot]..self.slot_recv_offsets[slot + 1]
    }

    /// The receiver index `k` held at a position.
    #[inline]
    pub(crate) fn position_receiver(&self, pos: usize) -> usize {
        self.slot_receivers[pos]
    }

    /// Total number of positions (`Σ_slots |R_{i,j}|`).
    pub(crate) fn position_count(&self) -> usize {
        self.slot_receivers.len()
    }

    /// How many receivers a slot holds (`|R_{i,j}|`).
    #[inline]
    pub(crate) fn slot_len(&self, slot: usize) -> usize {
        self.slot_positions(slot).len()
    }

    /// The session-major flat id of receiver `(i, k)`.
    #[inline]
    pub fn flat(&self, i: usize, k: usize) -> usize {
        self.recv_offsets[i] + k
    }

    /// The `(link, slot)` pairs along the data-path of flat receiver `r`.
    // mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
    #[inline]
    pub fn route_slots(&self, flat: usize) -> &[(usize, usize)] {
        &self.route_slots[self.route_offsets[flat]..self.route_offsets[flat + 1]]
    }

    /// The positions of flat receiver `r` in the slots of
    /// [`NetworkIndex::route_slots`], aligned with them.
    #[inline]
    pub(crate) fn route_positions(&self, flat: usize) -> &[usize] {
        &self.route_pos[self.route_offsets[flat]..self.route_offsets[flat + 1]]
    }

    /// The slot of `(link j, session i)`, if session `i` crosses link `j`.
    pub(crate) fn slot_of(&self, j: usize, i: usize) -> Option<usize> {
        let range = self.link_slots(j);
        self.link_sessions[range.clone()]
            .binary_search(&i)
            .ok()
            .map(|off| range.start + off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::topology::random_network_with;
    use mlf_net::{ReceiverId, TopologyFamily};

    /// The index is a faithful, merely flattened, view of the network's own
    /// incidence tables.
    #[test]
    fn index_matches_network_tables() {
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 3 },
            TopologyFamily::Dumbbell,
        ] {
            for seed in 0..8u64 {
                let net = random_network_with(family, seed, 16, 5, 4).unwrap();
                let mut idx = NetworkIndex::new();
                idx.rebuild(&net);
                assert_eq!(idx.link_count(), net.link_count());
                assert_eq!(idx.receiver_count(), net.receiver_count());
                for j in 0..net.link_count() {
                    let mut seen_sessions = Vec::new();
                    for slot in idx.link_slots(j) {
                        let i = idx.slot_session(slot);
                        seen_sessions.push(i);
                        assert_eq!(
                            idx.slot_receivers(slot),
                            net.receivers_of_session_on_link(LinkId(j), SessionId(i)),
                            "slot {slot} receivers"
                        );
                        assert_eq!(idx.slot_of(j, i), Some(slot));
                    }
                    // Ascending and exactly the non-empty sessions.
                    assert!(seen_sessions.windows(2).all(|w| w[0] < w[1]));
                    let expected: Vec<usize> = (0..net.session_count())
                        .filter(|&i| {
                            !net.receivers_of_session_on_link(LinkId(j), SessionId(i))
                                .is_empty()
                        })
                        .collect();
                    assert_eq!(seen_sessions, expected);
                }
                // Routes round-trip through the slot ids.
                for r in net.receivers() {
                    let flat = idx.flat(r.session.0, r.index);
                    let links: Vec<usize> = idx.route_slots(flat).iter().map(|&(j, _)| j).collect();
                    let expected: Vec<usize> = net.route(r).iter().map(|l| l.0).collect();
                    assert_eq!(links, expected, "route of {r:?}");
                    let positions = idx.route_positions(flat);
                    assert_eq!(positions.len(), idx.route_slots(flat).len());
                    for (&(_, slot), &pos) in idx.route_slots(flat).iter().zip(positions) {
                        assert!(idx.slot_positions(slot).contains(&pos));
                        assert_eq!(idx.position_receiver(pos), r.index);
                    }
                    for &(j, slot) in idx.route_slots(flat) {
                        assert_eq!(idx.slot_session(slot), r.session.0);
                        assert!(idx.slot_receivers(slot).contains(&r.index));
                        assert!(net.crosses(r, LinkId(j)));
                    }
                }
            }
        }
    }

    /// Rebuilding over differently shaped networks reuses the index
    /// without leaking state from the previous shape.
    #[test]
    fn rebuild_is_idempotent_across_shapes() {
        let a = random_network_with(TopologyFamily::FlatTree, 1, 20, 6, 5).unwrap();
        let b = random_network_with(TopologyFamily::Dumbbell, 2, 8, 2, 2).unwrap();
        let mut idx = NetworkIndex::new();
        idx.rebuild(&a);
        idx.rebuild(&b);
        let mut fresh = NetworkIndex::new();
        fresh.rebuild(&b);
        assert_eq!(idx.slot_count(), fresh.slot_count());
        for j in 0..b.link_count() {
            assert_eq!(idx.link_slots(j), fresh.link_slots(j));
            for slot in idx.link_slots(j) {
                assert_eq!(idx.slot_receivers(slot), fresh.slot_receivers(slot));
            }
        }
        let r = ReceiverId::new(0, 0);
        assert_eq!(
            idx.route_slots(idx.flat(r.session.0, r.index)),
            fresh.route_slots(fresh.flat(r.session.0, r.index))
        );
    }
}
