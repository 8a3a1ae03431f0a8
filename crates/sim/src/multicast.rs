//! Multicast group membership with optional join/leave latency, indexed so
//! the packet engine's per-slot cost scales with the slot layer's
//! subscriber count (plus a per-64-receivers word-scan), not the receiver
//! count.
//!
//! Each receiver holds a *subscription level* `0..=M` with cumulative
//! semantics (level `i` = joined to layers `1..=i`). The Section 4 model is
//! idealized — "network propagation delays and leave latencies are
//! negligible" — so by default changes take effect instantly. The Section 5
//! discussion predicts that join/leave latency *increases* redundancy ("a
//! link continues to receive at the rate prior to the leave, until the leave
//! takes effect, while the receiver's rate reduces immediately");
//! [`MembershipTable`] therefore supports per-operation latencies so the
//! ablation benches can quantify that prediction.
//!
//! The table distinguishes, per receiver:
//!
//! * the **requested** level — what the receiver's protocol asked for; the
//!   receiver counts its own goodput against this;
//! * the **effective** level — what the network is still delivering (grafted
//!   /pruned state); link usage is driven by this;
//! * the **active** level — `min(requested, effective)`, the prefix of
//!   layers the receiver both wants and holds: exactly the packets the
//!   engine delivers to it.
//!
//! A leave keeps the effective level high until the prune latency elapses; a
//! join keeps it low until the graft latency elapses. Delayed changes wait
//! in two FIFO lanes, one per latency kind, and land in `(due time,
//! request order)` order, merged from the two lane fronts. Under a fixed
//! latency and a monotone clock, as both engines drive the table, each
//! lane is appended to in due order, so a change costs O(1); a lane that
//! would fall out of order (a direct caller's earlier `now`, or a
//! latency changed mid-run) takes a sorted insert instead.
//!
//! ## The level index and its invariants
//!
//! The table owns a `LevelIndex` and maintains it **incrementally**: every
//! place a requested or effective level changes ([`request_level`] applying
//! a zero-latency change, [`advance_to`] landing a delayed one) reports the
//! `old → new` transition to the index before returning. The invariants,
//! property-tested in `tests/membership_proptest.rs`:
//!
//! * `index.effective_count(v)` equals a recount of receivers with
//!   `effective_level == v`, for every `v`, after every operation — so
//!   [`max_effective_level`] is a cached O(1) bucket maximum, not an O(n)
//!   scan;
//! * the layer-`L` subscriber bitset holds exactly the receivers with
//!   `active_level ≥ L` — so the engine's delivery loop visits only
//!   receivers it would deliver to;
//! * stale queued changes never overwrite newer state: each request gets a
//!   monotone per-receiver sequence number, and a delayed change only lands
//!   if no newer request superseded it (zero-latency changes bump the
//!   sequence too, so a stale in-flight join can never override a newer
//!   instant leave).
//!
//! A table can additionally carry a `LinkLevelIndex`
//! (`attach_link_index`/`detach_link_index`) for the tree engine:
//! both effective-level notification sites — the zero-latency fast path
//! in [`request_level`] and delayed changes landing in [`advance_to`] —
//! forward the same `old → new` transition to it, so per-link carry sets
//! stay exact under join/leave latencies without any extra bookkeeping at
//! the call sites.
//!
//! ## The RNG-draw-preservation contract
//!
//! The star engine's reproducibility across the indexed rewrite rests on
//! this table answering the *same questions with the same answers* as the
//! pre-index scan code (frozen in [`crate::reference`]): `max_effective_level`
//! decides whether the shared link draws a loss sample, and the layer-`L`
//! subscriber set — iterated in **ascending receiver id** — decides which
//! per-receiver RNG streams draw and in what order controllers run. Because
//! every receiver owns a private RNG substream, preserving each receiver's
//! *visit set* (not the interleaving) preserves its draw sequence exactly;
//! the ascending-id iteration preserves controller/marker observation order
//! for the shared state. Any index bug that adds or drops a visit breaks
//! bitwise equality — which is what `tests/star_engine_differential.rs`
//! pins.
//!
//! The tree engine extends the same contract to links: every link owns a
//! private RNG substream too, so preserving each link's *carried-slot set*
//! (which the link-index carry bitsets decide) preserves its loss-sample
//! sequence exactly, whatever order links are visited within a slot.
//! `tests/tree_engine_differential.rs` pins that side against the frozen
//! [`crate::reference_tree`].
//!
//! [`request_level`]: MembershipTable::request_level
//! [`advance_to`]: MembershipTable::advance_to
//! [`max_effective_level`]: MembershipTable::max_effective_level

use crate::events::Tick;
use crate::index::{LevelIndex, LinkLevelIndex};
use std::collections::VecDeque;

/// Pending membership-change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change {
    receiver: usize,
    level: usize,
    seq: u64,
}

/// Subscription state for a set of receivers of one layered session.
#[derive(Debug, Clone, Default)]
pub struct MembershipTable {
    requested: Vec<usize>,
    effective: Vec<usize>,
    /// Monotone per-receiver sequence numbers so a stale scheduled change
    /// never overwrites a newer one.
    latest_seq: Vec<u64>,
    /// Delayed joins, in `(at, seq)` order.
    grafts: VecDeque<(Tick, Change)>,
    /// Delayed leaves, in `(at, seq)` order.
    prunes: VecDeque<(Tick, Change)>,
    /// The latest time [`MembershipTable::advance_to`] has applied changes
    /// through; nothing may be scheduled before it.
    clock: Tick,
    join_latency: Tick,
    leave_latency: Tick,
    layer_count: usize,
    next_seq: u64,
    /// Incrementally maintained level buckets + subscriber bitsets.
    index: LevelIndex,
    /// Optional per-link index for the tree engine (boxed: star runs
    /// carry no tree topology and pay one null pointer). Kept in sync
    /// with every effective-level transition while attached.
    links: Option<Box<LinkLevelIndex>>,
}

impl MembershipTable {
    /// A table for `receivers` receivers of a session with `layer_count`
    /// layers, all initially at level `initial` (the Section 4 protocols
    /// start everyone at level 1 — every receiver always holds layer 1).
    pub fn new(receivers: usize, layer_count: usize, initial: usize) -> Self {
        let mut table = MembershipTable::default();
        table.reset(receivers, layer_count, initial);
        table
    }

    /// Re-initialize in place — same post-state as
    /// [`MembershipTable::new`] followed by
    /// [`MembershipTable::with_latencies`] with the current latencies, but
    /// reusing every allocation (level vectors, change lanes, index rows).
    /// The engine scratch calls this once per trial.
    pub fn reset(&mut self, receivers: usize, layer_count: usize, initial: usize) {
        assert!(initial <= layer_count || receivers == 0);
        self.requested.clear();
        self.requested.resize(receivers, initial);
        self.effective.clear();
        self.effective.resize(receivers, initial);
        self.latest_seq.clear();
        self.latest_seq.resize(receivers, 0);
        self.grafts.clear();
        self.prunes.clear();
        self.clock = 0;
        self.layer_count = layer_count;
        self.next_seq = 0;
        self.index.reset(receivers, layer_count, initial);
        // A fresh table has no link index; callers that reuse one across
        // trials detach it first and re-attach after the reset.
        self.links = None;
    }

    /// Builder-style join (graft) and leave (prune) latencies in ticks.
    pub fn with_latencies(mut self, join: Tick, leave: Tick) -> Self {
        self.set_latencies(join, leave);
        self
    }

    /// Set the join (graft) and leave (prune) latencies in place.
    pub(crate) fn set_latencies(&mut self, join: Tick, leave: Tick) {
        self.join_latency = join;
        self.leave_latency = leave;
    }

    /// Number of receivers tracked.
    pub fn receiver_count(&self) -> usize {
        self.requested.len()
    }

    /// Number of layers `M`.
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    /// The level the receiver's protocol most recently requested.
    pub fn requested_level(&self, r: usize) -> usize {
        self.requested[r]
    }

    /// The level the network is currently delivering to the receiver.
    pub fn effective_level(&self, r: usize) -> usize {
        self.effective[r]
    }

    /// The receiver's active level `min(requested, effective)`: the prefix
    /// of layers it both wants and effectively holds.
    pub(crate) fn active_level(&self, r: usize) -> usize {
        self.requested[r].min(self.effective[r])
    }

    /// The level index: O(1) bucket maximum and per-layer subscriber
    /// bitsets, maintained incrementally by this table.
    pub(crate) fn index(&self) -> &LevelIndex {
        &self.index
    }

    /// Attach a per-link index (tree engine). Its static topology must be
    /// built ([`LinkLevelIndex::rebuild`]) for this table's receiver
    /// count; the dynamic state is synced to the current effective levels
    /// here, and every later transition keeps it current until
    /// [`MembershipTable::detach_link_index`].
    pub(crate) fn attach_link_index(&mut self, mut links: Box<LinkLevelIndex>) {
        assert_eq!(
            links.receiver_count(),
            self.receiver_count(),
            "link index receiver count"
        );
        links.sync_levels(&self.effective);
        self.links = Some(links);
    }

    /// Detach and return the link index (if any), so engine scratch can
    /// reuse its allocations across trials.
    pub(crate) fn detach_link_index(&mut self) -> Option<Box<LinkLevelIndex>> {
        self.links.take()
    }

    /// The attached per-link index, if any.
    pub(crate) fn link_index(&self) -> Option<&LinkLevelIndex> {
        self.links.as_deref()
    }

    /// Apply an effective-level change, keeping the indexes in sync. The
    /// requested level must already hold its final value.
    fn apply_effective(&mut self, r: usize, level: usize) {
        let old_eff = self.effective[r];
        self.effective[r] = level;
        self.index.effective_changed(r, old_eff, level);
        if let Some(links) = self.links.as_deref_mut() {
            links.effective_changed(r, old_eff, level);
        }
        let old_active = self.requested[r].min(old_eff);
        let new_active = self.requested[r].min(level);
        self.index.active_changed(r, old_active, new_active);
    }

    /// Request a level change for receiver `r` at time `now`. Takes effect
    /// after the graft/prune latency (instantly at zero latency).
    pub fn request_level(&mut self, now: Tick, r: usize, level: usize) {
        assert!(level <= self.layer_count, "level beyond layer count");
        if level == self.requested[r] {
            return;
        }
        let raising = level > self.requested[r];
        let old_active = self.active_level(r);
        self.requested[r] = level;
        let latency = if raising {
            self.join_latency
        } else {
            self.leave_latency
        };
        self.next_seq += 1;
        self.latest_seq[r] = self.next_seq;
        if latency == 0 {
            // Apply immediately, but still respect ordering with any
            // pending delayed changes by sequence number.
            let old_eff = self.effective[r];
            self.effective[r] = level;
            self.index.effective_changed(r, old_eff, level);
            if let Some(links) = self.links.as_deref_mut() {
                links.effective_changed(r, old_eff, level);
            }
            self.index.active_changed(r, old_active, level);
        } else {
            // The requested level moved while the effective one did not:
            // only the active level (and so the subscriber bitsets) can
            // shrink or grow.
            self.index
                .active_changed(r, old_active, self.active_level(r));
            // Catch the lanes up to `now` before scheduling. The engine
            // always `advance_to`s the slot first (making this a no-op),
            // but a direct API caller may not have: apply — never discard —
            // any changes that fell due in the meantime, then schedule.
            let change = Change {
                receiver: r,
                level,
                seq: self.next_seq,
            };
            if self.clock < now {
                self.advance_to(now);
            }
            let at = now + latency;
            assert!(at >= self.clock, "cannot schedule into the past");
            let lane = if raising {
                &mut self.grafts
            } else {
                &mut self.prunes
            };
            // `change.seq` is the largest yet, so `(at, seq)` order is `at`
            // order with ties after the queued ones. With a fixed latency
            // and a monotone `now` every change goes to the back.
            if lane.back().map_or(true, |&(last, _)| last <= at) {
                lane.push_back((at, change));
            } else {
                let i = lane.partition_point(|&(queued, _)| queued <= at);
                lane.insert(i, (at, change));
            }
        }
    }

    /// Pop the change due first by `(at, seq)` — the order in which one
    /// queue of every delayed change would pop them — if it is due at or
    /// before `now`.
    fn pop_due(&mut self, now: Tick) -> Option<(Tick, Change)> {
        let key = |lane: &VecDeque<(Tick, Change)>| lane.front().map(|&(at, c)| (at, c.seq));
        let lane = match (key(&self.grafts), key(&self.prunes)) {
            (Some(g), Some(p)) if p < g => &mut self.prunes,
            (Some(_), _) => &mut self.grafts,
            (None, _) => &mut self.prunes,
        };
        if lane.front()?.0 > now {
            return None;
        }
        lane.pop_front()
    }

    /// Apply all membership changes due at or before `now`.
    pub fn advance_to(&mut self, now: Tick) {
        while let Some((_, change)) = self.pop_due(now) {
            // Only the most recent request per receiver wins; anything the
            // receiver superseded (or that a zero-latency change already
            // applied past) is dropped.
            if change.seq >= self.latest_seq[change.receiver] {
                self.apply_effective(change.receiver, change.level);
            }
        }
        self.clock = self.clock.max(now);
    }

    /// When the next queued membership change falls due (`None` when
    /// nothing is queued, as always at zero latency). Until then
    /// [`MembershipTable::advance_to`] has nothing to apply, so the star
    /// engine calls it only once this time is reached.
    pub(crate) fn next_change_at(&self) -> Option<Tick> {
        // A `match`, not `Iterator::min` over the fronts: the iterator form
        // ran perfbench's fig8_protocols ~15% slower (2-vCPU Linux host).
        let front = |lane: &VecDeque<(Tick, Change)>| lane.front().map(|&(at, _)| at);
        match (front(&self.grafts), front(&self.prunes)) {
            (Some(g), Some(p)) => Some(g.min(p)),
            (g, p) => g.or(p),
        }
    }

    /// The highest effective level across receivers — what the shared link
    /// upstream of everyone must carry (cumulative layering: the union of
    /// the receivers' layer sets is the layer prefix up to the max level).
    /// O(1) via the index's cached bucket maximum.
    pub fn max_effective_level(&self) -> usize {
        self.index.max_effective()
    }

    /// Whether receiver `r` is effectively subscribed to `layer` (1-based).
    pub fn subscribed(&self, r: usize, layer: usize) -> bool {
        layer >= 1 && layer <= self.effective[r]
    }

    /// Check every index invariant against the table's ground-truth level
    /// vectors (see `LevelIndex::check_invariants`), plus
    /// the attached link index's (if any).
    pub fn check_index_invariants(&self) -> Result<(), String> {
        self.index
            .check_invariants(&self.requested, &self.effective)?;
        if let Some(links) = self.links.as_deref() {
            links.check_invariants(&self.effective)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;

    #[test]
    fn zero_latency_changes_apply_instantly() {
        let mut t = MembershipTable::new(3, 8, 1);
        t.request_level(0, 1, 4);
        assert_eq!(t.effective_level(1), 4);
        assert_eq!(t.requested_level(1), 4);
        assert_eq!(t.max_effective_level(), 4);
        assert!(t.subscribed(1, 4));
        assert!(!t.subscribed(1, 5));
        assert!(!t.subscribed(0, 2));
        t.check_index_invariants().unwrap();
    }

    #[test]
    fn leave_latency_keeps_effective_level_high() {
        let mut t = MembershipTable::new(1, 8, 5).with_latencies(0, 10);
        t.request_level(100, 0, 2);
        assert_eq!(t.requested_level(0), 2);
        assert_eq!(t.effective_level(0), 5, "prune not yet effective");
        assert_eq!(t.active_level(0), 2, "the receiver's own rate drops now");
        t.advance_to(105);
        assert_eq!(t.effective_level(0), 5);
        assert_eq!(t.max_effective_level(), 5);
        t.advance_to(110);
        assert_eq!(t.effective_level(0), 2, "prune lands at +10");
        assert_eq!(t.max_effective_level(), 2);
        t.check_index_invariants().unwrap();
    }

    #[test]
    fn join_latency_keeps_effective_level_low() {
        let mut t = MembershipTable::new(1, 8, 1).with_latencies(7, 0);
        t.request_level(50, 0, 3);
        assert_eq!(t.effective_level(0), 1);
        assert_eq!(t.active_level(0), 1, "nothing new delivered yet");
        t.advance_to(56);
        assert_eq!(t.effective_level(0), 1);
        t.advance_to(57);
        assert_eq!(t.effective_level(0), 3);
        assert_eq!(t.active_level(0), 3);
        t.check_index_invariants().unwrap();
    }

    #[test]
    fn newer_request_supersedes_pending_one() {
        let mut t = MembershipTable::new(1, 8, 1).with_latencies(10, 0);
        t.request_level(0, 0, 3); // lands at 10
        t.request_level(5, 0, 1); // instant leave back to 1
        t.advance_to(20);
        assert_eq!(
            t.effective_level(0),
            1,
            "stale join must not override the newer leave"
        );
        t.check_index_invariants().unwrap();
    }

    #[test]
    fn a_request_applies_other_receivers_due_changes_instead_of_dropping_them() {
        // Receiver 0 schedules a delayed leave due at t=10. A *different*
        // receiver's request at t=12 (without an advance_to in between)
        // must apply that due change, not silently discard it.
        let mut t = MembershipTable::new(2, 8, 5).with_latencies(4, 10);
        t.request_level(0, 0, 2); // prune of receiver 0 lands at t=10
        t.request_level(12, 1, 7); // join of receiver 1, due at t=16
        assert_eq!(
            t.effective_level(0),
            2,
            "receiver 0's due prune was discarded by receiver 1's request"
        );
        t.check_index_invariants().unwrap();
        t.advance_to(16);
        assert_eq!(t.effective_level(1), 7);
        t.check_index_invariants().unwrap();
    }

    #[test]
    fn redundant_requests_are_no_ops() {
        let mut t = MembershipTable::new(1, 4, 2);
        t.request_level(0, 0, 2);
        assert_eq!(t.effective_level(0), 2);
    }

    #[test]
    fn reset_matches_a_fresh_table() {
        let mut t = MembershipTable::new(4, 6, 1).with_latencies(3, 7);
        t.request_level(0, 2, 5);
        t.request_level(1, 0, 2);
        t.advance_to(30);
        t.reset(9, 4, 1);
        assert_eq!(t.receiver_count(), 9);
        assert_eq!(t.layer_count(), 4);
        for r in 0..9 {
            assert_eq!(t.requested_level(r), 1);
            assert_eq!(t.effective_level(r), 1);
        }
        assert_eq!(t.max_effective_level(), 1);
        // Latencies survive a reset; events do not.
        t.request_level(0, 3, 2);
        assert_eq!(t.effective_level(3), 1, "join latency still 3");
        t.advance_to(3);
        assert_eq!(t.effective_level(3), 2);
        t.check_index_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "beyond layer count")]
    fn level_above_m_panics() {
        let mut t = MembershipTable::new(1, 4, 1);
        t.request_level(0, 0, 5);
    }

    #[test]
    fn attached_link_index_follows_latent_transitions() {
        // Star of 3: shared link 0 (rank 0), fanouts 1..=3; receiver r's
        // route is [0, r+1].
        let mut g = mlf_net::Graph::new();
        let n = g.add_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (1, 3), (1, 4)] {
            g.add_link(n[a], n[b], 1.0).unwrap();
        }
        let session = mlf_net::Session::multi_rate(n[0], n[2..].to_vec());
        let net = mlf_net::Network::new(g, vec![session]).unwrap();
        let mut links = Box::<LinkLevelIndex>::default();
        links.rebuild(8, &net).unwrap();
        let mut t = MembershipTable::new(3, 8, 1).with_latencies(4, 9);
        t.attach_link_index(links);
        t.check_index_invariants().unwrap();
        assert_eq!(t.link_index().unwrap().carrying(1), &[0b1111]);
        assert_eq!(t.link_index().unwrap().carrying(2), &[0]);

        // Receiver 1 joins level 3: nothing carries it until the graft
        // lands, then the shared link and r1's fanout do.
        t.request_level(0, 1, 3);
        t.check_index_invariants().unwrap();
        assert_eq!(t.link_index().unwrap().carrying(3), &[0]);
        t.advance_to(4);
        t.check_index_invariants().unwrap();
        assert_eq!(t.link_index().unwrap().carrying(3), &[0b0101]);

        // An instant (zero-latency) transition flows through the fast
        // path too: drop the leave latency and prune back to 1.
        t.set_latencies(4, 0);
        t.request_level(5, 1, 1);
        t.check_index_invariants().unwrap();
        assert_eq!(t.link_index().unwrap().carrying(2), &[0]);

        // Detach returns the index for reuse; the table stops updating it.
        let links = t.detach_link_index().unwrap();
        assert_eq!(links.rank_count(), 4);
        assert!(t.link_index().is_none());
    }

    /// The membership logic before the FIFO lanes: every delayed change in
    /// one binary heap ([`EventQueue`]), popped in `(at, insertion)` order.
    struct HeapModel {
        requested: Vec<usize>,
        effective: Vec<usize>,
        latest_seq: Vec<u64>,
        queue: EventQueue<Change>,
        join_latency: Tick,
        leave_latency: Tick,
        next_seq: u64,
    }

    impl HeapModel {
        fn new(receivers: usize) -> Self {
            HeapModel {
                requested: vec![1; receivers],
                effective: vec![1; receivers],
                latest_seq: vec![0; receivers],
                queue: EventQueue::new(),
                join_latency: 0,
                leave_latency: 0,
                next_seq: 0,
            }
        }

        fn request_level(&mut self, now: Tick, r: usize, level: usize) {
            if level == self.requested[r] {
                return;
            }
            let latency = if level > self.requested[r] {
                self.join_latency
            } else {
                self.leave_latency
            };
            self.requested[r] = level;
            self.next_seq += 1;
            self.latest_seq[r] = self.next_seq;
            if latency == 0 {
                self.effective[r] = level;
            } else {
                if self.queue.now() < now {
                    self.advance_to(now);
                }
                let change = Change {
                    receiver: r,
                    level,
                    seq: self.next_seq,
                };
                self.queue.schedule_at(now + latency, change);
            }
        }

        fn advance_to(&mut self, now: Tick) {
            for (_, change) in self.queue.drain_until(now) {
                if change.seq >= self.latest_seq[change.receiver] {
                    self.effective[change.receiver] = change.level;
                }
            }
        }
    }

    /// The two FIFO lanes land every change when and in the order the heap
    /// did: random requests at a clock that steps back as far as the
    /// smaller latency allows, latencies changed mid-run (so lanes fill out
    /// of order), and equal latencies whose grafts and prunes tie on their
    /// due time. Requested and effective levels, the next due time and the
    /// order in which every pending change would pop agree after every
    /// operation.
    #[test]
    fn fifo_lanes_match_the_heap_queue() {
        const LATENCIES: [Tick; 4] = [0, 1, 4, 9];
        const RECEIVERS: usize = 6;
        const LAYERS: usize = 5;
        for seed in 0..200u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(seed);
            let mut pick = |bound: u64| rng.below(bound);
            let mut table = MembershipTable::new(RECEIVERS, LAYERS, 1);
            let mut model = HeapModel::new(RECEIVERS);
            for step in 0..400 {
                let clock = model.queue.now();
                match pick(10) {
                    0 => {
                        let join = LATENCIES[pick(4) as usize];
                        let leave = if pick(2) == 0 {
                            join
                        } else {
                            LATENCIES[pick(4) as usize]
                        };
                        table.set_latencies(join, leave);
                        model.join_latency = join;
                        model.leave_latency = leave;
                    }
                    1..=3 => {
                        let now = (clock + pick(12)).saturating_sub(pick(6));
                        table.advance_to(now);
                        model.advance_to(now);
                    }
                    _ => {
                        // Any `now` within the smaller latency of the clock
                        // schedules nothing into the past.
                        let back = model.join_latency.min(model.leave_latency);
                        let now = clock.saturating_sub(pick(back + 1)) + pick(3);
                        let r = pick(RECEIVERS as u64) as usize;
                        let level = 1 + pick(LAYERS as u64) as usize;
                        table.request_level(now, r, level);
                        model.request_level(now, r, level);
                    }
                }
                let label = format!("seed {seed}, step {step}");
                assert_eq!(table.requested, model.requested, "{label}: requested");
                assert_eq!(table.effective, model.effective, "{label}: effective");
                assert_eq!(
                    table.next_change_at(),
                    model.queue.peek_time(),
                    "{label}: next change"
                );
                assert_eq!(table.clock, model.queue.now(), "{label}: clock");
                let mut lanes = table.clone();
                let pending: Vec<_> = std::iter::from_fn(|| lanes.pop_due(Tick::MAX)).collect();
                let queued = model.queue.clone().drain_until(Tick::MAX);
                assert_eq!(pending, queued, "{label}: pending changes");
                table.check_index_invariants().unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut t = MembershipTable::new(1, 4, 1).with_latencies(2, 2);
        t.advance_to(10);
        t.request_level(5, 0, 3);
    }
}
