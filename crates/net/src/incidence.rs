//! The flat incidence of a routed network: every receiver's data-path and
//! the per-link receiver sets `R_{i,j}` / `R_j` of Table 1, as CSR arrays
//! built once with the [`Network`](crate::Network) and read by the
//! solvers, the fairness audit and the simulators.
//!
//! A *slot* is one `(link, session)` pair with `R_{i,j}` non-empty; slots
//! run link-major, sessions ascending within a link. A *position* is one
//! `(link, session, receiver)` incidence, an index into `slot_receivers`;
//! positions run slot by slot, receivers ascending within a slot. These
//! ascending orders are load-bearing: the `mlf-core` solvers fold sums,
//! maxima and products over a slot's positions, and only folds in the
//! frozen reference engines' order (session-major, then receiver-major)
//! keep them **bitwise identical** to those engines.

use crate::ids::LinkId;
use crate::session::Session;
use std::ops::Range;

/// Flat receiver → route and link → session → receiver incidence arrays
/// of one network (see the [module docs](self) for slots and positions).
#[derive(Debug, Clone, PartialEq)]
pub struct Incidence {
    /// `sessions + 1` offsets assigning session-major flat receiver ids.
    recv_offsets: Vec<usize>,
    /// `receivers + 1` offsets into the route-entry arrays below.
    route_offsets: Vec<usize>,
    /// Each receiver's data-path, route order.
    route_links: Vec<LinkId>,
    /// Each receiver's link ids, sorted ascending.
    crossed: Vec<usize>,
    /// The slot of each route entry, and the receiver's position in it.
    route_slots: Vec<(usize, usize)>,
    /// `links + 1` offsets into `link_sessions`.
    link_offsets: Vec<usize>,
    /// Session ids crossing each link, ascending within a link. Indices
    /// into this array are slot ids.
    link_sessions: Vec<usize>,
    /// `slots + 1` offsets into `slot_receivers`.
    slot_offsets: Vec<usize>,
    /// Receiver indices `k` of each slot, ascending within a slot.
    slot_receivers: Vec<usize>,
}

impl Incidence {
    /// Build the incidence of validated routes (link ids below
    /// `link_count`, none repeated within a route) of `sessions`' receivers:
    /// flat receiver `f`'s route is
    /// `route_links[route_offsets[f]..route_offsets[f + 1]]`.
    ///
    /// Two passes over the route entries, both session-major and
    /// receiver-ascending, which is already the order of positions within
    /// a link and of slots within a link. The first counts each link's
    /// positions and slots (a slot opens where a link meets a new
    /// session); the second places every entry at its link's next position
    /// and opens its slots, so every array is allocated once at its final
    /// size.
    pub(crate) fn new(
        link_count: usize,
        sessions: &[Session],
        route_offsets: Vec<usize>,
        route_links: Vec<LinkId>,
    ) -> Self {
        let mut recv_offsets = Vec::with_capacity(sessions.len() + 1);
        recv_offsets.push(0);
        for s in sessions {
            recv_offsets.push(recv_offsets[recv_offsets.len() - 1] + s.receivers.len());
        }
        let entries = route_links.len();
        let session_entries =
            |i: usize| route_offsets[recv_offsets[i]]..route_offsets[recv_offsets[i + 1]];

        // Counting pass: `next_pos[j]` and `next_slot[j]` end up as link
        // `j`'s first position and first slot; `last[j]` is the latest
        // session seen on link `j`.
        let mut next_pos = vec![0usize; link_count + 1];
        let mut next_slot = vec![0usize; link_count + 1];
        let mut last = vec![usize::MAX; link_count];
        for i in 0..sessions.len() {
            for l in &route_links[session_entries(i)] {
                next_pos[l.0 + 1] += 1;
                if std::mem::replace(&mut last[l.0], i) != i {
                    next_slot[l.0 + 1] += 1;
                }
            }
        }
        for j in 0..link_count {
            next_pos[j + 1] += next_pos[j];
            next_slot[j + 1] += next_slot[j];
        }
        let slots = next_slot[link_count];
        let link_offsets = next_slot.clone();

        // Placing pass. A session's entries on link `j` open a slot when
        // the link's newest slot belongs to an earlier session (or the
        // link has none yet).
        let mut slot_receivers = vec![0; entries];
        let mut link_sessions = vec![0; slots];
        let mut slot_offsets = vec![entries; slots + 1];
        let mut route_slots = Vec::with_capacity(entries);
        let mut crossed = Vec::with_capacity(entries);
        for i in 0..sessions.len() {
            for (k, f) in (recv_offsets[i]..recv_offsets[i + 1]).enumerate() {
                let route = &route_links[route_offsets[f]..route_offsets[f + 1]];
                for l in route {
                    let j = l.0;
                    let p = next_pos[j];
                    next_pos[j] += 1;
                    slot_receivers[p] = k;
                    if next_slot[j] == link_offsets[j] || link_sessions[next_slot[j] - 1] != i {
                        link_sessions[next_slot[j]] = i;
                        slot_offsets[next_slot[j]] = p;
                        next_slot[j] += 1;
                    }
                    route_slots.push((next_slot[j] - 1, p));
                    crossed.push(j);
                }
                crossed[route_offsets[f]..].sort_unstable();
            }
        }
        Incidence {
            recv_offsets,
            route_offsets,
            route_links,
            crossed,
            route_slots,
            link_offsets,
            link_sessions,
            slot_offsets,
            slot_receivers,
        }
    }

    /// Total number of (flat) receivers.
    pub fn receiver_count(&self) -> usize {
        self.recv_offsets[self.recv_offsets.len() - 1]
    }

    /// The session-major flat id of receiver `k` of session `i`. Panics if
    /// session `i` has no receiver `k`.
    #[inline]
    pub fn flat(&self, i: usize, k: usize) -> usize {
        let f = self.recv_offsets[i] + k;
        assert!(f < self.recv_offsets[i + 1], "receiver out of range");
        f
    }

    /// The flat ids of session `i`'s receivers, ascending with their
    /// index `k`: `flat(i, k) = flat_range(i).start + k`.
    #[inline]
    pub fn flat_range(&self, i: usize) -> Range<usize> {
        self.recv_offsets[i]..self.recv_offsets[i + 1]
    }

    /// The data-path of flat receiver `f`, route order.
    #[inline]
    pub fn route_links(&self, f: usize) -> &[LinkId] {
        &self.route_links[self.route_offsets[f]..self.route_offsets[f + 1]]
    }

    /// The link ids of flat receiver `f`'s data-path, sorted ascending.
    #[inline]
    pub fn crossed(&self, f: usize) -> &[usize] {
        &self.crossed[self.route_offsets[f]..self.route_offsets[f + 1]]
    }

    /// The `(slot, position)` of flat receiver `f` on each link of its
    /// data-path, aligned with [`Incidence::route_links`].
    #[inline]
    pub fn route_slots(&self, f: usize) -> &[(usize, usize)] {
        &self.route_slots[self.route_offsets[f]..self.route_offsets[f + 1]]
    }

    /// Number of `(link, session)` incidence slots.
    pub fn slot_count(&self) -> usize {
        self.link_sessions.len()
    }

    /// Total number of positions (`Σ_j |R_j|`).
    pub fn position_count(&self) -> usize {
        self.slot_receivers.len()
    }

    /// The slots of link `j`, sessions ascending.
    #[inline]
    pub fn link_slots(&self, j: usize) -> Range<usize> {
        self.link_offsets[j]..self.link_offsets[j + 1]
    }

    /// The session a slot belongs to.
    #[inline]
    pub fn slot_session(&self, slot: usize) -> usize {
        self.link_sessions[slot]
    }

    /// The positions of a slot, ascending with the receivers they hold.
    #[inline]
    pub fn slot_positions(&self, slot: usize) -> Range<usize> {
        self.slot_offsets[slot]..self.slot_offsets[slot + 1]
    }

    /// The receiver indices `k ∈ R_{i,j}` of a slot, ascending.
    #[inline]
    pub fn slot_receivers(&self, slot: usize) -> &[usize] {
        &self.slot_receivers[self.slot_positions(slot)]
    }

    /// The slot of `(link j, session i)`, if session `i` crosses link `j`.
    pub fn slot_of(&self, j: usize, i: usize) -> Option<usize> {
        let range = self.link_slots(j);
        self.link_sessions[range.clone()]
            .binary_search(&i)
            .ok()
            .map(|off| range.start + off)
    }
}
