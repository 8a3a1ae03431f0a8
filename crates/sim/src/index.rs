//! The level-bucketed membership index behind the O(subscribers) star
//! engine.
//!
//! Cumulative layering means every membership query the packet engine makes
//! is a *prefix* query: receiver `r` holds layer `L` iff its level is
//! `≥ L`, and the shared link carries layer `L` iff the **maximum**
//! effective level is `≥ L`. [`LevelIndex`] maintains exactly the two
//! structures that answer those queries in O(1)/O(subscribers) instead of
//! O(receivers):
//!
//! * **Per-level effective counts** — `eff_count[v]` = number of receivers
//!   whose *effective* level is exactly `v`, plus the cached maximum
//!   occupied bucket. `max_effective` is O(1); a level change moves one
//!   receiver between two buckets and repairs the cached maximum by
//!   scanning down only over newly emptied buckets (amortized O(1) for the
//!   ±1 moves the Section 4 protocols make).
//! * **Per-layer subscriber bitsets** — row `L−1` has bit `r` set iff
//!   receiver `r`'s *active* level `min(requested, effective)` is `≥ L`,
//!   i.e. iff the engine would deliver a layer-`L` packet to it
//!   (`wants ∧ subscribed`). A level change from `v` to `v'` touches only
//!   the `|v − v'|` rows between them, one word operation each. Iterating
//!   a row's set bits visits subscribers in **ascending receiver id** —
//!   the order the engine's RNG-draw-preservation contract requires (see
//!   [`crate::multicast`]) — at one `trailing_zeros` per subscriber plus
//!   one word-scan per 64 receivers.
//!
//! The index is owned and maintained incrementally by
//! [`MembershipTable`](crate::multicast::MembershipTable); it never
//! inspects the table's vectors itself, it is *told* about transitions via
//! [`LevelIndex::effective_changed`]/[`LevelIndex::active_changed`]. The
//! invariants (counts match a recount of effective levels; bitsets match a
//! recount of active levels; the cached maximum matches the occupied
//! buckets) are property-tested in `crates/sim/tests/membership_proptest.rs`
//! via [`LevelIndex::check_invariants`].
//!
//! [`LinkLevelIndex`] generalizes the same idea from the star's one shared
//! link to every link of a sender-rooted tree: per *link*, a per-level
//! bucket count of downstream effective levels plus a cached downstream
//! maximum, and per *layer* a carrying-link bitset row (bit `a` set iff
//! link rank `a`'s downstream maximum is `≥ L` — exactly the paper's
//! "some downstream receiver subscribes" carry condition). A ±1 level
//! transition updates one bucket pair and at most one bitset word per
//! *ancestor link* of the moving receiver — O(route length) — instead of
//! the O(links × downstream receivers) rescan the pre-bitset tree engine
//! performed every slot. Links are identified by dense *ranks* assigned in
//! `(depth, link id)` order so that every link's parent has a smaller
//! rank; the tree engine exploits that to resolve end-to-end loss in one
//! ascending-rank sweep per slot. The index is topology-only data: it
//! reads the routes from the network's incidence once per rebuild and
//! keeps them as its own CSR of ranks.

use mlf_net::{LinkId, Network};

/// Incremental per-level counts and per-layer subscriber bitsets for one
/// set of receivers with cumulative-layer subscriptions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelIndex {
    receiver_count: usize,
    layer_count: usize,
    /// Words per bitset row: `ceil(receiver_count / 64)`.
    words: usize,
    /// `eff_count[v]` = receivers whose effective level is exactly `v`
    /// (length `layer_count + 1`; level 0 = subscribed to nothing).
    eff_count: Vec<u32>,
    /// Highest `v` with `eff_count[v] > 0`; 0 when there are no receivers.
    max_eff: usize,
    /// Row-major bitsets, row `L-1` (layer `L`, 1-based) of `words` words:
    /// bit `r` set iff active level of `r` is `≥ L`.
    rows: Vec<u64>,
}

impl LevelIndex {
    /// Re-initialize in place (every receiver back to `initial`), reusing
    /// the count and bitset allocations — the engine scratch resets one
    /// index across trials instead of reallocating.
    pub(crate) fn reset(&mut self, receivers: usize, layer_count: usize, initial: usize) {
        assert!(initial <= layer_count || receivers == 0);
        self.receiver_count = receivers;
        self.layer_count = layer_count;
        self.words = receivers.div_ceil(64);
        self.eff_count.clear();
        self.eff_count.resize(layer_count + 1, 0);
        if receivers > 0 {
            self.eff_count[initial] = receivers as u32;
            self.max_eff = initial;
        } else {
            self.max_eff = 0;
        }
        self.rows.clear();
        self.rows.resize(layer_count * self.words, 0);
        if receivers > 0 {
            // Layers 1..=initial hold every receiver: all-ones rows with the
            // last word masked to the receiver count.
            let full = self.words - 1;
            let tail_bits = receivers - full * 64;
            let tail_mask = if tail_bits == 64 {
                u64::MAX
            } else {
                (1u64 << tail_bits) - 1
            };
            for layer in 1..=initial {
                let row = self.row_range(layer);
                self.rows[row.clone()][..full].fill(u64::MAX);
                self.rows[row][full] = tail_mask;
            }
        }
    }

    /// The highest effective level across receivers, O(1). Zero when no
    /// receivers are tracked.
    pub(crate) fn max_effective(&self) -> usize {
        self.max_eff
    }

    /// How many receivers hold effective level exactly `level`.
    pub(crate) fn effective_count(&self, level: usize) -> usize {
        self.eff_count[level] as usize
    }

    /// The bitset row of `layer` (1-based): bit `r` set iff receiver `r` is
    /// actively subscribed to it. The engine snapshots this slice per slot
    /// and walks its set bits in ascending receiver id.
    pub(crate) fn subscribers(&self, layer: usize) -> &[u64] {
        let range = self.row_range(layer);
        &self.rows[range]
    }

    /// Record receiver `r`'s effective level moving `old → new`.
    pub(crate) fn effective_changed(&mut self, _r: usize, old: usize, new: usize) {
        self.eff_count[old] -= 1;
        self.eff_count[new] += 1;
        if new > self.max_eff {
            self.max_eff = new;
        } else {
            while self.max_eff > 0 && self.eff_count[self.max_eff] == 0 {
                self.max_eff -= 1;
            }
        }
    }

    /// Record receiver `r`'s active level (`min(requested, effective)`)
    /// moving `old → new`: flip `r`'s bit in the rows of layers
    /// `min+1..=max` of the two.
    pub(crate) fn active_changed(&mut self, r: usize, old: usize, new: usize) {
        let word = r / 64;
        let mask = 1u64 << (r % 64);
        for layer in (old.min(new) + 1)..=(old.max(new)) {
            let at = (layer - 1) * self.words + word;
            if new > old {
                self.rows[at] |= mask;
            } else {
                self.rows[at] &= !mask;
            }
        }
    }

    /// Check every index invariant against ground-truth `effective` and
    /// `requested` level slices; returns the first violation as an error
    /// string. Used by the membership property tests.
    pub(crate) fn check_invariants(
        &self,
        requested: &[usize],
        effective: &[usize],
    ) -> Result<(), String> {
        if requested.len() != self.receiver_count || effective.len() != self.receiver_count {
            return Err("level slice length mismatch".into());
        }
        for v in 0..=self.layer_count {
            let recount = effective.iter().filter(|&&e| e == v).count();
            if recount != self.effective_count(v) {
                return Err(format!(
                    "eff_count[{v}] = {} but recount is {recount}",
                    self.effective_count(v)
                ));
            }
        }
        let true_max = effective.iter().copied().max().unwrap_or(0);
        if self.max_eff != true_max {
            return Err(format!(
                "cached max_effective {} but recount is {true_max}",
                self.max_eff
            ));
        }
        for layer in 1..=self.layer_count {
            let mut expect = vec![0u64; self.words];
            for (r, (&rq, &ef)) in requested.iter().zip(effective).enumerate() {
                if rq.min(ef) >= layer {
                    expect[r / 64] |= 1 << (r % 64);
                }
            }
            if expect != self.subscribers(layer) {
                return Err(format!("subscriber bitset of layer {layer} diverged"));
            }
        }
        Ok(())
    }

    fn row_range(&self, layer: usize) -> std::ops::Range<usize> {
        debug_assert!(
            (1..=self.layer_count).contains(&layer),
            "layer out of range"
        );
        let start = (layer - 1) * self.words;
        start..start + self.words
    }
}

/// `rank_of`/`pred` sentinel: link not on any route (carries nothing).
const UNSEEN: u32 = u32::MAX;
/// `pred` sentinel: link is the first hop of its routes (root-adjacent).
const ROOT_PRED: u32 = u32::MAX - 1;
/// `parent` sentinel: rank has no parent rank (root-adjacent link).
const NO_PARENT: u32 = u32::MAX;

/// Error from [`LinkLevelIndex::rebuild`]: the session's routes are not the
/// paths of a sender-rooted tree, so per-link downstream maxima (and the
/// parent-chain loss propagation built on them) would be ill-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkIndexError {
    /// A link appears at two different depths or with two different
    /// predecessor links across routes — impossible on a tree — or a
    /// route is empty (a receiver on the sender's node, which
    /// [`Network`] already refuses).
    NotATree {
        /// Receiver index whose route first exposed the inconsistency.
        receiver: usize,
    },
}

/// Incremental per-link downstream-level counts and per-layer
/// carrying-link bitsets for one multicast session on a sender-rooted
/// tree.
///
/// Links that appear on at least one receiver route get dense **ranks**,
/// assigned in ascending `(depth, link id)` order; links on no route are
/// excluded (they can never carry a packet). Because a link's predecessor
/// on a tree path is unique, every rank's parent rank is smaller than the
/// rank itself, so one ascending-rank pass visits parents before children
/// — the property the tree engine uses to push per-link loss fates down
/// the tree in a single sweep.
///
/// Dynamic state mirrors [`LevelIndex`] per rank: `eff_count` buckets of
/// downstream receivers' *effective* levels, a cached per-rank downstream
/// maximum with lazy downward repair, and per-layer bitset rows over ranks
/// (`carrying(L)` bit `a` set iff rank `a`'s downstream maximum is `≥ L`).
/// [`MembershipTable`](crate::multicast::MembershipTable) drives it
/// through [`LinkLevelIndex::effective_changed`] from the same two
/// notification sites that maintain the receiver-level index, so the
/// carry sets stay exact under join/leave latencies.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkLevelIndex {
    receiver_count: usize,
    layer_count: usize,
    link_count: usize,
    /// Links on at least one route (the only ones that can carry).
    rank_count: usize,
    /// Words per bitset row: `ceil(rank_count / 64)`.
    words: usize,
    /// Link id → rank, [`UNSEEN`] for links on no route.
    rank_of: Vec<u32>,
    /// Rank → link id.
    link_ids: Vec<u32>,
    /// Rank → parent rank ([`NO_PARENT`] for root-adjacent links).
    parent: Vec<u32>,
    /// CSR over receivers: `route_ranks[route_start[r]..route_start[r+1]]`
    /// is receiver `r`'s route as ranks, sender → receiver order.
    route_start: Vec<u32>,
    route_ranks: Vec<u32>,
    /// Rank-major `(layer_count + 1)` buckets: `eff_count[a * (M+1) + v]`
    /// = downstream receivers of rank `a` at effective level exactly `v`.
    eff_count: Vec<u32>,
    /// Rank → cached maximum downstream effective level.
    max_eff: Vec<u32>,
    /// Row-major bitsets, row `L-1` of `words` words: bit `a` set iff
    /// `max_eff[a] >= L`.
    rows: Vec<u64>,
    /// Rebuild scratch: link id → predecessor link id / depth on routes.
    pred: Vec<u32>,
    depth: Vec<u32>,
}

impl LinkLevelIndex {
    /// (Re)build the static topology from the routes of `net`'s session 0
    /// (read from its [`mlf_net::Incidence`], sender → receiver order),
    /// reusing prior allocations. Dynamic state is reset to *no* receivers
    /// counted; call [`LinkLevelIndex::sync_levels`] with the current
    /// effective levels before querying.
    ///
    /// Fails when the routes are not tree paths: every link must appear at
    /// one depth with one predecessor across all routes.
    pub(crate) fn rebuild(
        &mut self,
        layer_count: usize,
        net: &Network,
    ) -> Result<(), LinkIndexError> {
        let inc = net.incidence();
        let receivers = inc.flat_range(0);
        let link_count = net.link_count();
        self.receiver_count = receivers.len();
        self.layer_count = layer_count;
        self.link_count = link_count;

        // Pass 1: predecessor + depth per link, consistency-checked. On a
        // tree every route containing a link shares that link's full
        // prefix, so a consistent predecessor at every position is both
        // the validation and the parent relation.
        self.pred.clear();
        self.pred.resize(link_count, UNSEEN);
        self.depth.clear();
        self.depth.resize(link_count, 0);
        let mut max_depth = 0u32;
        for (r, f) in receivers.clone().enumerate() {
            let route = inc.route_links(f);
            if route.is_empty() {
                return Err(LinkIndexError::NotATree { receiver: r });
            }
            let mut p = ROOT_PRED;
            for (i, &LinkId(l)) in route.iter().enumerate() {
                let d = (i + 1) as u32;
                if self.pred[l] == UNSEEN {
                    self.pred[l] = p;
                    self.depth[l] = d;
                    max_depth = max_depth.max(d);
                } else if self.pred[l] != p || self.depth[l] != d {
                    return Err(LinkIndexError::NotATree { receiver: r });
                }
                p = l as u32;
            }
        }

        // Pass 2: counting-sort the on-route links by (depth, link id)
        // into ranks; parents land at strictly smaller ranks.
        let mut start = vec![0u32; max_depth as usize + 2];
        for l in 0..link_count {
            if self.pred[l] != UNSEEN {
                start[self.depth[l] as usize + 1] += 1;
            }
        }
        for d in 1..start.len() {
            start[d] += start[d - 1];
        }
        self.rank_count = start[max_depth as usize + 1] as usize;
        self.words = self.rank_count.div_ceil(64);
        self.rank_of.clear();
        self.rank_of.resize(link_count, UNSEEN);
        self.link_ids.clear();
        self.link_ids.resize(self.rank_count, 0);
        for l in 0..link_count {
            if self.pred[l] != UNSEEN {
                let slot = &mut start[self.depth[l] as usize];
                self.rank_of[l] = *slot;
                self.link_ids[*slot as usize] = l as u32;
                *slot += 1;
            }
        }
        self.parent.clear();
        self.parent.resize(self.rank_count, NO_PARENT);
        for a in 0..self.rank_count {
            let p = self.pred[self.link_ids[a] as usize];
            if p != ROOT_PRED {
                self.parent[a] = self.rank_of[p as usize];
            }
        }

        // Pass 3: routes re-expressed as ranks.
        self.route_start.clear();
        self.route_start.push(0);
        self.route_ranks.clear();
        for f in receivers {
            let ranks = inc.route_links(f).iter().map(|l| self.rank_of[l.0]);
            self.route_ranks.extend(ranks);
            self.route_start.push(self.route_ranks.len() as u32);
        }

        // Dynamic state: sized but empty until `sync_levels`.
        self.eff_count.clear();
        self.eff_count
            .resize(self.rank_count * (layer_count + 1), 0);
        self.max_eff.clear();
        self.max_eff.resize(self.rank_count, 0);
        self.rows.clear();
        self.rows.resize(layer_count * self.words, 0);
        Ok(())
    }

    /// Recompute all dynamic state (buckets, cached maxima, carrying rows)
    /// from ground-truth per-receiver effective levels. Called once when
    /// the index is attached to a [`MembershipTable`]; incremental updates
    /// flow through [`LinkLevelIndex::effective_changed`] afterwards.
    ///
    /// [`MembershipTable`]: crate::multicast::MembershipTable
    pub(crate) fn sync_levels(&mut self, effective: &[usize]) {
        assert_eq!(effective.len(), self.receiver_count, "receiver count");
        let m = self.layer_count;
        self.eff_count.fill(0);
        for (r, &e) in effective.iter().enumerate() {
            debug_assert!(e <= m);
            let s = self.route_start[r] as usize;
            let t = self.route_start[r + 1] as usize;
            for &a in &self.route_ranks[s..t] {
                self.eff_count[a as usize * (m + 1) + e] += 1;
            }
        }
        self.rows.fill(0);
        for a in 0..self.rank_count {
            let base = a * (m + 1);
            let mut v = m;
            while v > 0 && self.eff_count[base + v] == 0 {
                v -= 1;
            }
            self.max_eff[a] = v as u32;
            for layer in 1..=v {
                self.rows[(layer - 1) * self.words + a / 64] |= 1u64 << (a % 64);
            }
        }
    }

    /// Record receiver `r`'s effective level moving `old → new`: one
    /// bucket move, cached-max repair, and at most `|old − new|` bitset
    /// word flips per ancestor link of `r`.
    pub(crate) fn effective_changed(&mut self, r: usize, old: usize, new: usize) {
        let m = self.layer_count;
        let s = self.route_start[r] as usize;
        let e = self.route_start[r + 1] as usize;
        for i in s..e {
            let a = self.route_ranks[i] as usize;
            let base = a * (m + 1);
            self.eff_count[base + old] -= 1;
            self.eff_count[base + new] += 1;
            let cur = self.max_eff[a] as usize;
            if new > cur {
                self.flip_rows(a, cur + 1, new, true);
                self.max_eff[a] = new as u32;
            } else if old == cur && self.eff_count[base + cur] == 0 {
                let mut v = cur;
                while v > 0 && self.eff_count[base + v] == 0 {
                    v -= 1;
                }
                self.flip_rows(a, v + 1, cur, false);
                self.max_eff[a] = v as u32;
            }
        }
    }

    fn flip_rows(&mut self, rank: usize, lo: usize, hi: usize, set: bool) {
        let word = rank / 64;
        let mask = 1u64 << (rank % 64);
        for layer in lo..=hi {
            let at = (layer - 1) * self.words + word;
            if set {
                self.rows[at] |= mask;
            } else {
                self.rows[at] &= !mask;
            }
        }
    }

    /// The carrying-link bitset row of `layer` (1-based): bit `a` set iff
    /// rank `a`'s downstream maximum effective level is `≥ layer`. The
    /// engine walks its set bits in ascending rank order — parents before
    /// children.
    pub(crate) fn carrying(&self, layer: usize) -> &[u64] {
        debug_assert!(
            (1..=self.layer_count).contains(&layer),
            "layer out of range"
        );
        let start = (layer - 1) * self.words;
        &self.rows[start..start + self.words]
    }

    /// Number of link ranks (links on at least one route).
    pub(crate) fn rank_count(&self) -> usize {
        self.rank_count
    }

    /// Number of receivers the routes cover.
    pub(crate) fn receiver_count(&self) -> usize {
        self.receiver_count
    }

    /// The link id of rank `a`.
    pub(crate) fn link_of(&self, a: usize) -> usize {
        self.link_ids[a] as usize
    }

    /// The parent rank of rank `a` (`None` for root-adjacent links).
    /// Always strictly less than `a` when present.
    pub(crate) fn parent_of(&self, a: usize) -> Option<usize> {
        let p = self.parent[a];
        (p != NO_PARENT).then_some(p as usize)
    }

    /// The rank of receiver `r`'s access link (last link of its route);
    /// its fate decides `r`'s end-to-end delivery.
    pub(crate) fn last_rank(&self, r: usize) -> usize {
        self.route_ranks[self.route_start[r + 1] as usize - 1] as usize
    }

    /// Check every index invariant against ground-truth per-receiver
    /// `effective` levels; returns the first violation as an error string.
    /// Used by the membership property tests.
    pub(crate) fn check_invariants(&self, effective: &[usize]) -> Result<(), String> {
        if effective.len() != self.receiver_count {
            return Err("level slice length mismatch".into());
        }
        let m = self.layer_count;
        let mut expect_count = vec![0u32; self.rank_count * (m + 1)];
        for (r, &e) in effective.iter().enumerate() {
            let s = self.route_start[r] as usize;
            let t = self.route_start[r + 1] as usize;
            for &a in &self.route_ranks[s..t] {
                expect_count[a as usize * (m + 1) + e] += 1;
            }
        }
        if expect_count != self.eff_count {
            return Err("per-link effective buckets diverged".into());
        }
        for a in 0..self.rank_count {
            let base = a * (m + 1);
            let mut v = m;
            while v > 0 && expect_count[base + v] == 0 {
                v -= 1;
            }
            if self.max_eff[a] as usize != v {
                return Err(format!(
                    "rank {a}: cached downstream max {} but recount is {v}",
                    self.max_eff[a]
                ));
            }
            if let Some(p) = self.parent_of(a) {
                if p >= a {
                    return Err(format!("rank {a}: parent rank {p} not smaller"));
                }
                if self.max_eff[p] < self.max_eff[a] {
                    return Err(format!(
                        "rank {a}: downstream max {} exceeds parent's {}",
                        self.max_eff[a], self.max_eff[p]
                    ));
                }
            }
        }
        for layer in 1..=m {
            let mut expect = vec![0u64; self.words];
            for a in 0..self.rank_count {
                if self.max_eff[a] as usize >= layer {
                    expect[a / 64] |= 1u64 << (a % 64);
                }
            }
            if expect != self.carrying(layer) {
                return Err(format!("carrying bitset of layer {layer} diverged"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::{Graph, Session};

    /// An index over `receivers` receivers of `layer_count` layers, all at
    /// effective = active = `initial`.
    fn fresh(receivers: usize, layer_count: usize, initial: usize) -> LevelIndex {
        let mut ix = LevelIndex::default();
        ix.reset(receivers, layer_count, initial);
        ix
    }

    /// Number of receivers actively subscribed to `layer` (1-based).
    fn subscriber_count(ix: &LevelIndex, layer: usize) -> usize {
        ix.subscribers(layer)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The active subscribers of `layer`, in the ascending receiver-id
    /// order the engine visits them.
    fn subscriber_ids(ix: &LevelIndex, layer: usize) -> Vec<usize> {
        let mut ids = Vec::new();
        for (w, &word) in ix.subscribers(layer).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                ids.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        ids
    }

    #[test]
    fn initial_state_indexes_everyone_at_the_initial_level() {
        let ix = fresh(130, 4, 2);
        assert_eq!(ix.max_effective(), 2);
        assert_eq!(ix.effective_count(2), 130);
        assert_eq!(subscriber_count(&ix, 1), 130);
        assert_eq!(subscriber_count(&ix, 2), 130);
        assert_eq!(subscriber_count(&ix, 3), 0);
        let levels = vec![2usize; 130];
        ix.check_invariants(&levels, &levels).unwrap();
    }

    #[test]
    fn transitions_move_buckets_and_bits() {
        let mut ix = fresh(70, 8, 1);
        // Receiver 65 requests level 5 with zero latency: eff 1 -> 5,
        // active 1 -> 5.
        ix.effective_changed(65, 1, 5);
        ix.active_changed(65, 1, 5);
        assert_eq!(ix.max_effective(), 5);
        assert_eq!(ix.effective_count(5), 1);
        assert_eq!(subscriber_count(&ix, 5), 1);
        assert_eq!(subscriber_ids(&ix, 3), vec![65]);
        // Back down to 2: the cached max repairs by scanning down.
        ix.effective_changed(65, 5, 2);
        ix.active_changed(65, 5, 2);
        assert_eq!(ix.max_effective(), 2);
        assert_eq!(subscriber_count(&ix, 3), 0);
        assert_eq!(subscriber_count(&ix, 2), 1);
    }

    #[test]
    fn ascending_id_iteration_across_words() {
        let mut ix = fresh(200, 2, 1);
        for &r in &[3usize, 64, 77, 130, 199] {
            ix.effective_changed(r, 1, 2);
            ix.active_changed(r, 1, 2);
        }
        assert_eq!(subscriber_ids(&ix, 2), vec![3, 64, 77, 130, 199]);
    }

    #[test]
    fn empty_index_is_degenerate() {
        let ix = fresh(0, 4, 1);
        assert_eq!(ix.max_effective(), 0);
        assert_eq!(subscriber_count(&ix, 1), 0);
        ix.check_invariants(&[], &[]).unwrap();
    }

    #[test]
    fn reset_reuses_and_reinitializes() {
        let mut ix = fresh(10, 4, 1);
        ix.effective_changed(3, 1, 4);
        ix.active_changed(3, 1, 4);
        ix.reset(64, 3, 2);
        assert_eq!(ix.receiver_count, 64);
        assert_eq!(ix.layer_count, 3);
        assert_eq!(ix.max_effective(), 2);
        assert_eq!(subscriber_count(&ix, 2), 64);
        assert_eq!(subscriber_count(&ix, 3), 0);
        let levels = vec![2usize; 64];
        ix.check_invariants(&levels, &levels).unwrap();
    }

    /// A 2-level binary tree rooted at the sender: trunks l0, l1 then
    /// leaf links l2..=l5, receivers 0..4 behind l2..=l5.
    fn binary_tree() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(7);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)] {
            g.add_link(n[a], n[b], 1.0).unwrap();
        }
        Network::new(g, vec![Session::multi_rate(n[0], n[3..].to_vec())]).unwrap()
    }

    #[test]
    fn link_index_ranks_parents_before_children() {
        let mut ix = LinkLevelIndex::default();
        ix.rebuild(4, &binary_tree()).unwrap();
        assert_eq!(ix.rank_count(), 6);
        assert_eq!(ix.receiver_count(), 4);
        // Depth-1 trunks take ranks 0..2, leaf links 2..6, id order within.
        assert_eq!(
            (0..6).map(|a| ix.link_of(a)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        assert_eq!(ix.parent_of(0), None);
        assert_eq!(ix.parent_of(2), Some(0));
        assert_eq!(ix.parent_of(5), Some(1));
        assert_eq!(ix.last_rank(2), 4);
    }

    #[test]
    fn link_index_tracks_downstream_maxima() {
        let mut ix = LinkLevelIndex::default();
        ix.rebuild(4, &binary_tree()).unwrap();
        let mut eff = vec![1usize; 4];
        ix.sync_levels(&eff);
        ix.check_invariants(&eff).unwrap();
        // All trunks and leaves carry layer 1 only.
        assert_eq!(ix.carrying(1), &[0b111111]);
        assert_eq!(ix.carrying(2), &[0]);
        // Receiver 3 (behind trunk l1, leaf l5) rises to 3: its ancestor
        // chain flips in layers 2..=3.
        ix.effective_changed(3, 1, 3);
        eff[3] = 3;
        ix.check_invariants(&eff).unwrap();
        assert_eq!(ix.carrying(3), &[0b100010]);
        // Back down to 2: lazy repair clears layer 3 only.
        ix.effective_changed(3, 3, 2);
        eff[3] = 2;
        ix.check_invariants(&eff).unwrap();
        assert_eq!(ix.carrying(3), &[0]);
        assert_eq!(ix.carrying(2), &[0b100010]);
    }

    #[test]
    fn link_index_rejects_non_tree_routes() {
        // Parallel links l0, l1 into node 1, then l2 to node 2 and l3 to
        // node 3: the two routes reach l2 through different links.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        for (a, b) in [(0, 1), (0, 1), (1, 2), (2, 3)] {
            g.add_link(n[a], n[b], 1.0).unwrap();
        }
        let session = Session::multi_rate(n[0], vec![n[2], n[3]]);
        let routes = vec![vec![
            vec![LinkId(0), LinkId(2)],
            vec![LinkId(1), LinkId(2), LinkId(3)],
        ]];
        let net = Network::with_routes(g, vec![session], routes).unwrap();
        let mut ix = LinkLevelIndex::default();
        assert_eq!(
            ix.rebuild(2, &net),
            Err(LinkIndexError::NotATree { receiver: 1 })
        );
    }
}
