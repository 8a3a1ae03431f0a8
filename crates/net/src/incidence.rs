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
    /// `route_links[route_offsets[f]..route_offsets[f + 1]]`. One counting
    /// pass buckets the route entries by link in session-major,
    /// receiver-ascending order, which is already the slot order.
    pub(crate) fn new(
        link_count: usize,
        sessions: &[Session],
        route_offsets: Vec<usize>,
        route_links: Vec<LinkId>,
    ) -> Self {
        let mut recv_offsets = vec![0];
        for s in sessions {
            recv_offsets.push(recv_offsets[recv_offsets.len() - 1] + s.receivers.len());
        }
        let entries = route_links.len();

        // First position of each link (counting sort by link id).
        let mut link_pos = vec![0usize; link_count + 1];
        for l in &route_links {
            link_pos[l.0 + 1] += 1;
        }
        for j in 0..link_count {
            link_pos[j + 1] += link_pos[j];
        }
        let mut next = link_pos.clone();
        let mut slot_receivers = vec![0; entries];
        let mut pos_session = vec![0; entries];
        let mut route_pos = Vec::with_capacity(entries);
        for i in 0..recv_offsets.len() - 1 {
            for (k, f) in (recv_offsets[i]..recv_offsets[i + 1]).enumerate() {
                for l in &route_links[route_offsets[f]..route_offsets[f + 1]] {
                    let p = next[l.0];
                    next[l.0] += 1;
                    slot_receivers[p] = k;
                    pos_session[p] = i;
                    route_pos.push(p);
                }
            }
        }

        // Slots: runs of one session within a link's positions. The
        // session buffer is reused for each position's slot.
        let mut link_offsets = Vec::with_capacity(link_count + 1);
        let mut link_sessions = Vec::new();
        let mut slot_offsets = Vec::new();
        let mut pos_slot = pos_session;
        for j in 0..link_count {
            link_offsets.push(link_sessions.len());
            let start = link_pos[j];
            for (t, entry) in pos_slot[start..link_pos[j + 1]].iter_mut().enumerate() {
                if t == 0 || link_sessions[link_sessions.len() - 1] != *entry {
                    link_sessions.push(*entry);
                    slot_offsets.push(start + t);
                }
                *entry = link_sessions.len() - 1;
            }
        }
        link_offsets.push(link_sessions.len());
        slot_offsets.push(entries);
        let route_slots = route_pos.iter().map(|&p| (pos_slot[p], p)).collect();

        let mut crossed: Vec<usize> = route_links.iter().map(|l| l.0).collect();
        for f in 0..route_offsets.len() - 1 {
            crossed[route_offsets[f]..route_offsets[f + 1]].sort_unstable();
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
