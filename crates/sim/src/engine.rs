//! The packet-level engine for the Figure 7/8 experiments: a layered sender
//! behind one shared link, fanning out to receivers over independent links.
//!
//! Time is slotted: each slot carries exactly one packet of the aggregate
//! stream, with layers interleaved by smooth weighted round-robin in
//! proportion to their rates (deterministic — no RNG in the schedule). For
//! each packet:
//!
//! 1. The packet belongs to a layer `L`. It traverses the **shared link**
//!    iff some receiver is effectively subscribed to `L` (multicast
//!    pruning: "a packet traverses a link only if it is received by some
//!    receiver downstream"); the engine counts this as the session's shared-
//!    link usage `u`.
//! 2. One loss draw on the shared link decides the packet's fate for *all*
//!    receivers at once (this is what makes shared loss *correlated*).
//! 3. Each subscribed receiver additionally draws loss on its own fanout
//!    link, sees the packet (or a congestion event), and its
//!    [`ReceiverController`] reacts by staying, joining one layer up, or
//!    leaving one layer down — the Section 4 state machines.
//!
//! The engine measures the long-term redundancy of the shared link:
//! `carried / max_r offered_r`, where `offered_r` counts the packets on
//! layers the receiver had requested at emission time (the receiver's
//! transmission rate `a_{i,k}`, which "equals the rate received, barring
//! loss").
//!
//! ## The level-indexed hot loop
//!
//! The engine does per-slot work only where the model has some:
//!
//! * **Every slot** costs O(1): the slot's layer comes from a table of one
//!   schedule period (`Σ rates` slots for integer rates, 128 for the
//!   paper's 8 exponential layers), precomputed per run from a
//!   [`LayerInterleaver`]; rates with no period within 4096 slots refill
//!   the table from the same live interleaver each time it runs out. The
//!   slot bumps its layer's cumulative emission counter, asks the
//!   [`MarkerSource`] for its marker (one call per slot, in slot order,
//!   so coordinated senders count every packet), and compares its layer
//!   with the `LevelIndex`'s cached maximum effective level.
//! * **An uncarried slot** (its layer above every effective level) ends
//!   there: no receiver is subscribed to it, so it has no loss draw, no
//!   subscriber row and no visit. Membership changes queued under join or
//!   leave latency are applied only at the slot they fall due, so a slot
//!   with nothing due does not touch the membership table's change lanes
//!   either.
//! * **A carried slot** draws the shared-link loss once, snapshots the
//!   layer's subscriber bitset (O(receivers/64) words) and walks its set
//!   bits in ascending receiver id, visiting only receivers it delivers
//!   to. A visit touches one per-receiver *lane* — the receiver's RNG
//!   stream, its fanout loss and its delivery/congestion tallies — where
//!   a Bernoulli fanout link is one integer compare of a raw draw against
//!   a precomputed threshold, then calls the receiver's controller.
//! * **A quiet receiver** is not visited at all. After a visit that leaves
//!   its level standing, a receiver on a lossless lane (no draw, never
//!   lost) whose requested and effective levels agree is *parked* when its
//!   controller promises `q > 0` quiet packets
//!   ([`ReceiverController::quiet_packets`]): the walk skips parked bits
//!   on slots with no shared loss and no marker. It wakes on a shared
//!   loss, a marker, or the slot that would be its `(q+1)`-th quiet
//!   delivery — finite budgets are per-level clocks of the layer prefix,
//!   so a slot costs one mask test while none is pending — and then its
//!   skipped deliveries are settled from the layer prefix in one
//!   [`ReceiverController::skip_quiet`] call at its level before its
//!   visit. A controller whose packets draw from a private RNG (the
//!   Uncoordinated join coin) promises the draws before its first acting
//!   one and replays them there. A run with no lossless lane compiles the
//!   walk without any of this.
//!
//! The per-receiver `offered`/`level_slot_sum` accounting is settled
//! **lazily at level-change events** from the cumulative per-layer
//! emitted-slot counters (plus once at run end) instead of every slot,
//! and so are a parked receiver's deliveries (at wake-up and run end).
//! The pre-index scan engine is preserved verbatim in
//! [`crate::reference`]; the rewrite's contract — bitwise-identical
//! [`StarReport`]s, resting on the RNG-draw-preservation argument spelled
//! out in [`crate::multicast`] — is pinned by
//! `tests/star_engine_differential.rs`.

use crate::events::Tick;
use crate::loss::{LaneLoss, LossProcess};
use crate::multicast::MembershipTable;
use crate::rng::SimRng;

/// What a receiver's protocol sees for one packet on a layer it requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketEvent {
    /// The packet's slot (one packet per slot).
    pub slot: Tick,
    /// The packet's layer (1-based).
    pub layer: usize,
    /// Whether the packet was lost on this receiver's path (shared or
    /// fanout link) — a *congestion event* in the protocols' terms.
    pub lost: bool,
    /// Sender join-marker carried by this packet, if any: receivers at
    /// level ≤ the marker value should join one layer (Coordinated
    /// protocol). Markers implied for lower levels per the paper.
    pub marker: Option<usize>,
    /// The receiver's current requested subscription level.
    pub level: usize,
    /// Total number of layers `M`.
    pub layer_count: usize,
}

/// A receiver's reaction to a packet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep the current subscription.
    Stay,
    /// Join one more layer (no-op at level `M`).
    JoinUp,
    /// Leave the top layer (no-op at level 1 — receivers never leave the
    /// base layer in the Section 4 protocols).
    LeaveDown,
}

/// A layered congestion-control receiver: reacts to each packet event.
///
/// ## Quiet packets
///
/// A *clean* packet is one delivered to the receiver (`lost == false`); a
/// *marker-free* one carries `marker == None`. A controller may promise
/// that it answers [`Action::Stay`] to its next `q` clean, marker-free
/// packets at requested level `level` ([`quiet_packets`]), and say how
/// `n` such calls at that level would leave it ([`skip_quiet`]). The star
/// engine then stops calling it on lossless fanout links until a packet
/// could change its answer — a shared-link loss, a marker, or the
/// `(q+1)`-th quiet packet — and settles the skipped deliveries in one
/// [`skip_quiet`] call. Neither answer may depend on the skipped packets'
/// slots or layers.
///
/// A controller that draws randomness per packet can still promise: it
/// looks ahead in a clone of its own stream for the first draw that would
/// act, and [`skip_quiet`] replays the draws the skipped packets would
/// have made. That is only sound for a stream nothing else reads.
///
/// The defaults (`0`, no-op) opt out: the engine calls
/// [`on_packet`](Self::on_packet) for every delivery. A controller whose
/// answers read state shared with other receivers (an active node's
/// common target level, say) must keep them: another receiver's visit may
/// change that state while this one is skipped, and the promise would no
/// longer hold.
///
/// [`quiet_packets`]: Self::quiet_packets
/// [`skip_quiet`]: Self::skip_quiet
pub trait ReceiverController {
    /// Handle one packet event and decide the subscription action.
    fn on_packet(&mut self, ev: &PacketEvent) -> Action;

    /// How many of the next clean, marker-free packets at requested level
    /// `level` (of `layer_count` layers) this controller answers with
    /// [`Action::Stay`], with [`skip_quiet`](Self::skip_quiet) describing
    /// the state they leave it in; `u64::MAX` means all of them. The
    /// default, 0, promises nothing.
    fn quiet_packets(&self, _level: usize, _layer_count: usize) -> u64 {
        0
    }

    /// Leave this controller exactly as `n` clean, marker-free
    /// [`on_packet`](Self::on_packet) calls at requested level `level` (of
    /// `layer_count` layers) would, for any `n` within its
    /// [`quiet_packets`](Self::quiet_packets) budget at that level. The
    /// default does nothing.
    fn skip_quiet(&mut self, _n: u64, _level: usize, _layer_count: usize) {}
}

impl ReceiverController for Box<dyn ReceiverController> {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        (**self).on_packet(ev)
    }

    fn quiet_packets(&self, level: usize, layer_count: usize) -> u64 {
        (**self).quiet_packets(level, layer_count)
    }

    fn skip_quiet(&mut self, n: u64, level: usize, layer_count: usize) {
        (**self).skip_quiet(n, level, layer_count)
    }
}

/// The sender side of join coordination: may attach a marker to each slot's
/// packet. Uncoordinated senders return `None` forever.
pub trait MarkerSource {
    /// The marker (if any) to attach to the packet at `slot` on `layer`.
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize>;
}

/// A sender that never emits markers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMarkers;

impl MarkerSource for NoMarkers {
    fn marker(&mut self, _slot: Tick, _layer: usize) -> Option<usize> {
        None
    }
}

/// Configuration of one star run.
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Per-layer packet rates (relative weights; the Section 4 exponential
    /// schedule is `[1, 1, 2, 4, ...]`).
    pub layer_rates: Vec<f64>,
    /// Loss process of the shared link abutting the sender.
    pub shared_loss: LossProcess,
    /// Loss process of each receiver's fanout link (length = #receivers).
    pub fanout_loss: Vec<LossProcess>,
    /// Graft latency in slots (0 = the paper's idealized instant join).
    pub join_latency: Tick,
    /// Prune latency in slots (0 = idealized instant leave).
    pub leave_latency: Tick,
}

impl StarConfig {
    /// The Figure 8 setting: `layers` exponential layers, `receivers`
    /// receivers with identical independent loss `p_independent`, shared
    /// loss `p_shared`, idealized latencies.
    pub fn figure8(
        layers: usize,
        receivers: usize,
        p_shared: f64,
        p_independent: f64,
    ) -> StarConfig {
        let schedule = mlf_layering::LayerSchedule::exponential(layers);
        StarConfig {
            layer_rates: (1..=layers).map(|i| schedule.layer_rate(i)).collect(),
            shared_loss: LossProcess::bernoulli(p_shared),
            fanout_loss: vec![LossProcess::bernoulli(p_independent); receivers],
            join_latency: 0,
            leave_latency: 0,
        }
    }

    /// This configuration with the given join (graft) and leave (prune)
    /// latencies in slots — how the latency-ablation sweeps derive their
    /// per-point configurations from a template.
    pub fn with_latencies(mut self, join: Tick, leave: Tick) -> StarConfig {
        self.join_latency = join;
        self.leave_latency = leave;
        self
    }

    /// Number of receivers.
    pub fn receiver_count(&self) -> usize {
        self.fanout_loss.len()
    }

    /// Number of layers `M`.
    pub fn layer_count(&self) -> usize {
        self.layer_rates.len()
    }
}

/// Measurements from one star run.
///
/// `Default` is the empty pre-run state; [`run_star_into`] (re)sizes and
/// resets every field from its inputs. Equality is exact on every counter
/// and final level (all integers) — the engine differential compares whole
/// reports with `==`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StarReport {
    /// Total slots simulated (= packets emitted by the sender).
    pub slots: u64,
    /// Packets that traversed the shared link (some receiver subscribed).
    pub shared_carried: u64,
    /// Per receiver: packets on layers it had *requested* at emission (its
    /// nominal rate `a_{i,k}`, loss notwithstanding).
    pub offered: Vec<u64>,
    /// Per receiver: packets actually delivered (requested, subscribed and
    /// not lost).
    pub delivered: Vec<u64>,
    /// Per receiver: congestion events observed (lost packets on requested
    /// layers).
    pub congestion_events: Vec<u64>,
    /// Per receiver: sum of requested level over slots (for mean level).
    pub level_slot_sum: Vec<u64>,
    /// Final requested levels.
    pub final_levels: Vec<usize>,
}

/// Exact `num / den` as `f64`.
fn ratio(num: u64, den: u64) -> f64 {
    // mlf-lint: allow(as-float-cast, reason = "slot and packet counters stay far below 2^53 for any feasible run length, so both casts are exact")
    num as f64 / den as f64
}

impl StarReport {
    /// The shared link's long-term redundancy (Definition 3):
    /// `carried / max_r offered_r`. `None` if no receiver was offered
    /// anything (degenerate).
    pub fn shared_redundancy(&self) -> Option<f64> {
        let max = *self.offered.iter().max()?;
        if max == 0 {
            return None;
        }
        Some(ratio(self.shared_carried, max))
    }

    /// Mean requested subscription level of a receiver over the run.
    pub fn mean_level(&self, r: usize) -> f64 {
        ratio(self.level_slot_sum[r], self.slots)
    }

    /// A receiver's goodput in packets per slot.
    pub fn goodput(&self, r: usize) -> f64 {
        ratio(self.delivered[r], self.slots)
    }

    /// A receiver's observed loss rate among requested packets.
    pub fn loss_rate(&self, r: usize) -> f64 {
        if self.offered[r] == 0 {
            0.0
        } else {
            ratio(self.congestion_events[r], self.offered[r])
        }
    }
}

/// Smooth weighted round-robin interleaver: deterministic layer schedule
/// proportional to the per-layer rates.
#[derive(Debug, Clone)]
pub struct LayerInterleaver {
    weights: Vec<f64>,
    credit: Vec<f64>,
    total: f64,
}

impl LayerInterleaver {
    /// Build an interleaver for the given per-layer rates.
    pub fn new(rates: &[f64]) -> Self {
        assert!(!rates.is_empty() && rates.iter().all(|&r| r > 0.0));
        LayerInterleaver {
            weights: rates.to_vec(),
            credit: vec![0.0; rates.len()],
            total: rates.iter().sum(),
        }
    }

    /// The layer (1-based) of the next slot's packet.
    pub fn next_layer(&mut self) -> usize {
        let mut best = 0;
        for i in 0..self.weights.len() {
            self.credit[i] += self.weights[i];
            if self.credit[i] > self.credit[best] {
                best = i;
            }
        }
        self.credit[best] -= self.total;
        best + 1
    }

    /// Replace `table` with the next layers of this schedule: at most
    /// `limit` (and at most [`SCHEDULE_CAP`]) of them, stopping early when
    /// every credit is back to exactly zero. Returns whether it stopped
    /// there. Zero credits are the state a fresh interleaver starts in, so
    /// a table filled from a fresh interleaver that stops there holds one
    /// whole period, and replaying it is the schedule itself. Layers must
    /// fit a `u8` (the engine asserts at most 255).
    fn fill_schedule(&mut self, table: &mut Vec<u8>, limit: u64) -> bool {
        table.clear();
        let cap = usize::try_from(limit).map_or(SCHEDULE_CAP, |l| l.min(SCHEDULE_CAP));
        while table.len() < cap {
            // Lossless: layers are at most 255.
            table.push(self.next_layer() as u8);
            if self.credit.iter().all(|&c| c == 0.0) {
                return true;
            }
        }
        false
    }
}

/// A star run's layer schedule: the [`LayerInterleaver`]'s sequence,
/// replayed from a table of precomputed layers.
struct Schedule<'a> {
    /// The layers of the next slots, read from `cursor` on.
    table: &'a mut Vec<u8>,
    /// The live interleaver the table continues from when it is not one
    /// whole period.
    interleaver: LayerInterleaver,
    /// Whether `table` holds one whole period and simply replays.
    periodic: bool,
    cursor: usize,
}

impl<'a> Schedule<'a> {
    /// The schedule of a run of `slots` slots on layers of `rates`, kept in
    /// `table`.
    fn new(rates: &[f64], table: &'a mut Vec<u8>, slots: u64) -> Self {
        let mut interleaver = LayerInterleaver::new(rates);
        let periodic = interleaver.fill_schedule(table, slots);
        Schedule {
            table,
            interleaver,
            periodic,
            cursor: 0,
        }
    }

    /// The layer (1-based) of the next slot; `remaining` counts the run's
    /// slots from this one on.
    #[inline]
    fn next_layer(&mut self, remaining: u64) -> usize {
        if self.cursor == self.table.len() {
            if !self.periodic {
                self.interleaver.fill_schedule(self.table, remaining);
            }
            self.cursor = 0;
        }
        let layer = self.table[self.cursor];
        self.cursor += 1;
        usize::from(layer)
    }
}

/// The longest layer-schedule table a star run precomputes. The Section 4
/// exponential rates repeat every `Σ rates` = `2^(M-1)` slots (128 for the
/// paper's 8 layers); rate vectors whose credits never return exactly to
/// zero within this many slots refill the table as the run reaches its end.
const SCHEDULE_CAP: usize = 4096;

/// Exact work counters of the star runs a [`StarScratch`] served, summed
/// over its lifetime (read them with [`StarScratch::counters`]).
///
/// They are deterministic functions of the runs: a scratch reused across
/// runs reports the sum of what fresh scratches report for each run, and
/// every receiver visit is one delivery or one congestion event, so
/// `visits` equals the summed `delivered + congestion_events` of the
/// reports. No clock is involved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StarCounters {
    /// Slots simulated (one packet each).
    pub slots: u64,
    /// Slots whose packet crossed the shared link.
    pub shared_carried: u64,
    /// Receiver visits: one delivery or congestion event per subscribed
    /// receiver and carried slot, whether the controller saw it through
    /// `on_packet` or it was settled as a quiet delivery.
    pub visits: u64,
    /// Fanout-link loss draws (visits whose packet survived the shared
    /// link).
    pub fanout_samples: u64,
    /// Join and leave requests the engine applied (clamped no-op actions
    /// at level 1 or `M` are not counted).
    pub level_changes: u64,
    /// Deliveries settled without an `on_packet` call: clean, marker-free
    /// packets to receivers parked on a lossless fanout link (see
    /// [`ReceiverController::quiet_packets`]). `visits - quiet_deliveries`
    /// is the number of `on_packet` calls.
    pub quiet_deliveries: u64,
}

impl std::ops::AddAssign for StarCounters {
    fn add_assign(&mut self, other: StarCounters) {
        self.slots += other.slots;
        self.shared_carried += other.shared_carried;
        self.visits += other.visits;
        self.fanout_samples += other.fanout_samples;
        self.level_changes += other.level_changes;
        self.quiet_deliveries += other.quiet_deliveries;
    }
}

/// Reusable buffers for back-to-back [`run_star`] calls (trial loops).
///
/// One star run needs a lane per receiver (its RNG stream, a copy of its
/// fanout loss process — sampling mutates its state — and its tallies),
/// the layer-schedule table, the membership table with its level index
/// (bitset rows sized to receivers × layers), and the lazy-accounting
/// checkpoint vectors; allocating those per trial dominated the
/// allocation profile of `run_point`-style experiments. A scratch re-seeds
/// the same buffers instead: [`run_star_into`] produces results bitwise
/// identical to [`run_star`] — every lane is rebuilt from `cfg` and the
/// run seed, the schedule is refilled from a fresh interleaver, and the
/// membership table is [`MembershipTable::reset`] to the all-at-level-1
/// start state — so nothing carries over between trials except the
/// allocations.
#[derive(Debug, Clone, Default)]
pub struct StarScratch {
    /// Per receiver: its fanout link's RNG stream and loss test, and its
    /// delivery and congestion tallies — everything a visit touches.
    lanes: Vec<Lane>,
    /// The layers of the next slots of the schedule (one whole period when
    /// the rates have a short one).
    schedule: Vec<u8>,
    membership: MembershipTable,
    /// `layer_cum[L-1]` = slots emitted on layer `L` so far, including the
    /// slot being processed: the lazy accounting's cumulative counters.
    layer_cum: Vec<u64>,
    /// Per receiver: slots already settled into `level_slot_sum`.
    settled_slots: Vec<u64>,
    /// Per receiver: the layer-prefix count (`Σ layer_cum[..level]`) at its
    /// last settlement, for its current requested level.
    settled_prefix: Vec<u64>,
    /// Snapshot of the slot layer's subscriber bitset row (a receiver's own
    /// action must not edit the row mid-walk).
    row: Vec<u64>,
    /// Bitset of the receivers parked as quiet (runs with a lossless lane
    /// only): the walk skips them on clean, marker-free slots.
    parked: Vec<u64>,
    /// Per receiver: its quiet-delivery checkpoint while parked.
    quiet: Vec<Parked>,
    /// Work done by every run this scratch served.
    counters: StarCounters,
}

impl StarScratch {
    /// The work counters summed over every run this scratch served.
    pub fn counters(&self) -> StarCounters {
        self.counters
    }
}

/// One receiver's per-run state in the delivery loop, kept together so a
/// visit indexes one vector once.
#[derive(Debug, Clone)]
struct Lane {
    /// The receiver's fanout-link RNG substream.
    rng: SimRng,
    /// The receiver's fanout-link loss, in its per-visit form.
    loss: LaneLoss,
    /// Packets delivered so far (the report's `delivered`).
    delivered: u64,
    /// Congestion events so far (the report's `congestion_events`).
    congestion: u64,
}

/// A parked receiver's quiet-delivery checkpoint. While it is parked at
/// level `l` every slot on layers `1..=l` is delivered to it — its lane
/// never loses, and a shared loss wakes it — so its quiet deliveries are
/// the growth of the layer prefix `Σ layer_cum[..l]`.
#[derive(Debug, Clone, Copy, Default)]
struct Parked {
    /// The layer prefix through the slot it parked in.
    since: u64,
    /// The layer prefix at which a delivery would be past its quiet budget
    /// (`u64::MAX`: never).
    wake_at: u64,
}

/// Deliver `run` skipped quiet packets to a receiver parked at `level` of
/// `layer_count`: its lane's tally, one [`ReceiverController::skip_quiet`]
/// call, and the counter.
fn settle_quiet<C: ReceiverController>(
    lane: &mut Lane,
    controller: &mut C,
    work: &mut StarCounters,
    run: u64,
    level: usize,
    layer_count: usize,
) {
    lane.delivered += run;
    controller.skip_quiet(run, level, layer_count);
    work.quiet_deliveries += run;
}

/// The slots emitted so far on layers `1..=level`.
#[inline]
fn layer_prefix(layer_cum: &[u64], level: usize) -> u64 {
    layer_cum[..level].iter().sum()
}

/// Levels up to which a finite quiet budget can park a receiver: one bit
/// of [`Budgets::tracked`] each.
const BUDGET_LEVELS: usize = 64;

/// The finite quiet budgets of parked receivers, per level: when the layer
/// prefix of a level reaches the earliest `wake_at` among its receivers.
/// A slot on layer `L` advances the clocks of the tracked levels `≥ L`
/// only, so a slot costs one mask test while no budget is finite. A
/// tracked level's clock equals its layer prefix; its `due` may be stale
/// low (its receiver woke early), which costs one walk that re-arms it.
#[derive(Debug, Clone)]
struct Budgets {
    /// Bit `l-1`: some receiver parked at level `l` has a finite budget.
    tracked: u64,
    /// `clock[l-1]`: the layer prefix of level `l` (kept while tracked).
    clock: [u64; BUDGET_LEVELS],
    /// `due[l-1]`: at most the least `wake_at` parked at level `l`.
    due: [u64; BUDGET_LEVELS],
}

impl Budgets {
    fn new() -> Self {
        Budgets {
            tracked: 0,
            clock: [0; BUDGET_LEVELS],
            due: [u64::MAX; BUDGET_LEVELS],
        }
    }

    /// Count a slot on `layer`; returns the levels whose clock reached its
    /// due value (bit `l-1`), whose `due` restarts at `u64::MAX` for the
    /// walk to recompute through [`Budgets::keep`] and [`Budgets::admit`].
    #[inline]
    fn advance(&mut self, layer: usize) -> u64 {
        let shift = u32::try_from(layer - 1).unwrap_or(u32::MAX);
        let mut levels = self.tracked & u64::MAX.checked_shl(shift).unwrap_or(0);
        let mut fired = 0;
        while levels != 0 {
            let i = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            self.clock[i] += 1;
            if self.clock[i] == self.due[i] {
                fired |= 1 << i;
                self.due[i] = u64::MAX;
            }
        }
        fired
    }

    /// Whether a receiver parked at `level` until `wake_at` is due now.
    #[inline]
    fn is_due(&self, level: usize, wake_at: u64) -> bool {
        wake_at != u64::MAX && self.clock[level - 1] == wake_at
    }

    /// A receiver stays parked at `level` until `wake_at`.
    #[inline]
    fn keep(&mut self, level: usize, wake_at: u64) {
        if wake_at != u64::MAX {
            let due = &mut self.due[level - 1];
            *due = (*due).min(wake_at);
        }
    }

    /// Park a receiver at `level` from layer prefix `since` until
    /// `wake_at`; `false` (do not park) for a finite budget above
    /// [`BUDGET_LEVELS`].
    #[inline]
    fn admit(&mut self, level: usize, since: u64, wake_at: u64) -> bool {
        if wake_at == u64::MAX {
            return true;
        }
        if level > BUDGET_LEVELS {
            return false;
        }
        let bit = 1u64 << (level - 1);
        if self.tracked & bit == 0 {
            self.tracked |= bit;
            // Untracked clocks stand still; restart this one here.
            self.clock[level - 1] = since;
            self.due[level - 1] = wake_at;
        } else {
            debug_assert_eq!(self.clock[level - 1], since, "clock off its layer prefix");
            self.keep(level, wake_at);
        }
        true
    }

    /// Stop tracking the `fired` levels left with no finite budget.
    fn retire(&mut self, fired: u64) {
        let mut levels = fired;
        while levels != 0 {
            let i = levels.trailing_zeros() as usize;
            levels &= levels - 1;
            if self.due[i] == u64::MAX {
                self.tracked &= !(1 << i);
            }
        }
    }
}

/// Settle receiver `r`'s lazy `offered`/`level_slot_sum` accounting through
/// the `slots_done` slots emitted so far (its requested level has been
/// `old_level` since its last settlement), then re-checkpoint at
/// `new_level`. Integer arithmetic throughout: exactly the sums the
/// per-slot accounting loop of [`crate::reference`] produces.
#[allow(clippy::too_many_arguments)] // private hot-path helper over scratch fields
fn settle_receiver(
    offered: &mut [u64],
    level_slot_sum: &mut [u64],
    layer_cum: &[u64],
    settled_slots: &mut [u64],
    settled_prefix: &mut [u64],
    r: usize,
    old_level: usize,
    new_level: usize,
    slots_done: u64,
) {
    let prefix_old = layer_prefix(layer_cum, old_level);
    offered[r] += prefix_old - settled_prefix[r];
    level_slot_sum[r] += old_level as u64 * (slots_done - settled_slots[r]);
    settled_slots[r] = slots_done;
    settled_prefix[r] = if new_level == old_level {
        prefix_old
    } else {
        layer_prefix(layer_cum, new_level)
    };
}

/// Run one star simulation for `slots` packets.
///
/// `controllers[r]` drives receiver `r`; all receivers start at level 1
/// (every receiver always holds the base layer). The run is deterministic
/// in (`cfg`, controllers' behaviour, `marker`, `slots`, `seed`).
///
/// This convenience wrapper allocates fresh buffers per call; trial loops
/// should reuse a [`StarScratch`] and an output report via
/// [`run_star_into`].
pub fn run_star<C: ReceiverController, M: MarkerSource>(
    cfg: &StarConfig,
    controllers: &mut [C],
    marker: &mut M,
    slots: u64,
    seed: u64,
) -> StarReport {
    let mut report = StarReport::default();
    run_star_into(
        cfg,
        controllers,
        marker,
        slots,
        seed,
        &mut report,
        &mut StarScratch::default(),
    );
    report
}

/// [`run_star`] into caller-provided report and scratch buffers: zero
/// steady-state allocation across repeated trials of one shape.
///
/// This is the level-indexed engine (see the module docs for its cost
/// model): every slot reads its layer from a precomputed schedule table
/// and tests the shared link against the index's O(1) bucket maximum; a
/// slot the shared link does not carry stops there; a carried slot visits
/// only the receivers actively subscribed to its layer (ascending receiver
/// id, so every per-receiver RNG stream consumes exactly the draws the
/// reference engine gives it; one O(receivers/64) word-scan snapshots the
/// row), skipping receivers parked as quiet. The per-receiver
/// `offered`/`level_slot_sum` accounting is deferred to join/leave events
/// (and run end), and parked receivers' deliveries to their wake-up.
/// Bitwise identical to [`crate::reference::run_star`] by the differential
/// proptests.
///
/// # Panics
///
/// Panics if `controllers` does not hold one controller per receiver, or
/// if the star has no layers or more than 255.
#[allow(clippy::too_many_arguments)] // the run_star signature plus two buffers
pub fn run_star_into<C: ReceiverController, M: MarkerSource>(
    cfg: &StarConfig,
    controllers: &mut [C],
    marker: &mut M,
    slots: u64,
    seed: u64,
    report: &mut StarReport,
    scratch: &mut StarScratch,
) {
    let n = cfg.receiver_count();
    assert_eq!(controllers.len(), n, "one controller per receiver");
    let m = cfg.layer_count();
    assert!(m >= 1);
    assert!(
        m <= usize::from(u8::MAX),
        "the star engine runs at most 255 layers"
    );

    let base = SimRng::seed_from_u64(seed);
    let shared_rng = base.split(u64::MAX);
    scratch.lanes.clear();
    scratch
        .lanes
        .extend(cfg.fanout_loss.iter().enumerate().map(|(r, loss)| Lane {
            rng: base.split(r as u64),
            loss: LaneLoss::new(loss),
            delivered: 0,
            congestion: 0,
        }));

    scratch.membership.reset(n, m, 1);
    scratch
        .membership
        .set_latencies(cfg.join_latency, cfg.leave_latency);
    reset_u64(&mut scratch.layer_cum, m);
    reset_u64(&mut scratch.settled_slots, n);
    reset_u64(&mut scratch.settled_prefix, n);

    report.slots = slots;
    report.shared_carried = 0;
    reset_u64(&mut report.offered, n);
    reset_u64(&mut report.level_slot_sum, n);
    report.final_levels.clear();
    report.final_levels.resize(n, 1);

    // Only a lossless lane can park, so a run without one compiles the
    // walk with no parking code at all.
    if scratch
        .lanes
        .iter()
        .any(|lane| lane.loss == LaneLoss::Never)
    {
        reset_u64(&mut scratch.parked, n.div_ceil(64));
        scratch.quiet.resize(n, Parked::default());
        run_slots::<true, C, M>(cfg, controllers, marker, shared_rng, report, scratch);
    } else {
        run_slots::<false, C, M>(cfg, controllers, marker, shared_rng, report, scratch);
    }
}

/// Clear `v` to `len` zeros, keeping its allocation.
fn reset_u64(v: &mut Vec<u64>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

/// The slot loop and final tally of [`run_star_into`] over its reset
/// scratch and report. With `PARK`, a receiver on a lossless lane whose
/// controller promises quiet packets ([`ReceiverController::quiet_packets`])
/// is parked after its visit, skipped by the walk on clean, marker-free
/// slots and woken — its skipped deliveries settled through the previous
/// slot by one [`ReceiverController::skip_quiet`] call — on a shared loss,
/// a marker, or the slot past its budget; then it is visited as usual.
fn run_slots<const PARK: bool, C: ReceiverController, M: MarkerSource>(
    cfg: &StarConfig,
    controllers: &mut [C],
    marker: &mut M,
    mut shared_rng: SimRng,
    report: &mut StarReport,
    scratch: &mut StarScratch,
) {
    let n = cfg.receiver_count();
    let m = cfg.layer_count();
    let slots = report.slots;
    let StarScratch {
        lanes,
        schedule,
        membership,
        layer_cum,
        settled_slots,
        settled_prefix,
        row,
        parked,
        quiet,
        counters,
    } = scratch;
    let mut shared_loss = cfg.shared_loss.clone();
    let mut work = StarCounters {
        slots,
        ..StarCounters::default()
    };
    let mut schedule = Schedule::new(&cfg.layer_rates, schedule, slots);
    let mut budgets = Budgets::new();
    // Nothing is queued yet; `advance_to` runs only once this is due.
    let mut next_change = Tick::MAX;

    for slot in 0..slots {
        if next_change <= slot {
            membership.advance_to(slot);
            next_change = membership.next_change_at().unwrap_or(Tick::MAX);
        }
        let layer = schedule.next_layer(slots - slot);
        let mk = marker.marker(slot, layer);
        // The slot now counts toward the cumulative per-layer emission
        // totals the lazy accounting settles from: a level change during
        // this slot's delivery bills the slot at the receiver's old level,
        // exactly as the reference's head-of-slot accounting loop did.
        layer_cum[layer - 1] += 1;
        let slots_done = slot + 1;
        // The budget clocks follow the layer prefixes on every slot; a
        // level that fires is re-armed by the walk below from its parked
        // receivers, all of which are in this slot's row.
        let fired = if PARK { budgets.advance(layer) } else { 0 };

        // Shared link: carried iff any receiver is effectively subscribed —
        // an O(1) read of the index's cached bucket maximum. An uncarried
        // slot has an empty subscriber row too (every active level is at
        // most the maximum effective one), so nothing else happens in it:
        // in particular no receiver is parked at a level it fired.
        if layer > membership.max_effective_level() {
            if PARK {
                budgets.retire(fired);
            }
            continue;
        }
        report.shared_carried += 1;
        let lost_shared = shared_loss.sample(&mut shared_rng);

        // Deliver to each receiver that requested and effectively holds
        // the layer: exactly the set bits of the layer's subscriber row.
        // Snapshot the row first — a receiver's own join/leave may edit it,
        // but only at its own bit, whose visit has already happened; later
        // receivers' bits are untouched, matching the reference's
        // visit-time `wants && subscribed` checks.
        row.clear();
        row.extend_from_slice(membership.index().subscribers(layer));
        let slot_visits: u64 = row.iter().map(|w| u64::from(w.count_ones())).sum();
        work.visits += slot_visits;
        if !lost_shared {
            work.fanout_samples += slot_visits;
        }
        // Parked receivers in the row all wake on a shared loss or a
        // marker; on other slots only those whose level's budget clock
        // fired are looked at, and a slot with neither skips them all.
        let wake_all = PARK && (lost_shared || mk.is_some());
        let examine_parked = wake_all || fired != 0;
        for (w, &bits) in row.iter().enumerate() {
            let parked_w = if PARK { parked[w] } else { 0 };
            let mut bits = if examine_parked {
                bits
            } else {
                bits & !parked_w
            };
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                let bit = bits & bits.wrapping_neg();
                bits &= bits - 1;
                if PARK && parked_w & bit != 0 {
                    let level = membership.requested_level(r);
                    let Parked { since, wake_at } = quiet[r];
                    if !wake_all && !budgets.is_due(level, wake_at) {
                        budgets.keep(level, wake_at);
                        continue;
                    }
                    // Wake: settle its quiet deliveries through the
                    // previous slot (this slot is on a layer it holds).
                    parked[w] &= !bit;
                    let quiet_run = layer_prefix(layer_cum, level) - 1 - since;
                    settle_quiet(
                        &mut lanes[r],
                        &mut controllers[r],
                        &mut work,
                        quiet_run,
                        level,
                        m,
                    );
                }
                let lane = &mut lanes[r];
                let lost = lost_shared || lane.loss.sample(&mut lane.rng);
                if lost {
                    lane.congestion += 1;
                } else {
                    lane.delivered += 1;
                }
                let level = membership.requested_level(r);
                let ev = PacketEvent {
                    slot,
                    layer,
                    lost,
                    marker: if lost { None } else { mk },
                    level,
                    layer_count: m,
                };
                let target = match controllers[r].on_packet(&ev) {
                    Action::JoinUp if level < m => level + 1,
                    Action::LeaveDown if level > 1 => level - 1,
                    _ => {
                        // Its level stands. Park it if nothing queued can
                        // move its active level and its controller
                        // promises quiet packets.
                        if PARK
                            && lanes[r].loss == LaneLoss::Never
                            && membership.effective_level(r) == level
                        {
                            let budget = controllers[r].quiet_packets(level, m);
                            if budget > 0 {
                                let since = layer_prefix(layer_cum, level);
                                let wake_at = since
                                    .checked_add(budget)
                                    .and_then(|v| v.checked_add(1))
                                    .unwrap_or(u64::MAX);
                                if budgets.admit(level, since, wake_at) {
                                    parked[w] |= bit;
                                    quiet[r] = Parked { since, wake_at };
                                }
                            }
                        }
                        continue;
                    }
                };
                settle_receiver(
                    &mut report.offered,
                    &mut report.level_slot_sum,
                    layer_cum,
                    settled_slots,
                    settled_prefix,
                    r,
                    level,
                    target,
                    slots_done,
                );
                work.level_changes += 1;
                membership.request_level(slot, r, target);
                next_change = membership.next_change_at().unwrap_or(Tick::MAX);
            }
        }
        if PARK {
            budgets.retire(fired);
        }
    }
    if PARK {
        // Settle every receiver still parked through the last slot.
        for (w, &bits) in parked.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let level = membership.requested_level(r);
                let quiet_run = layer_prefix(layer_cum, level) - quiet[r].since;
                settle_quiet(
                    &mut lanes[r],
                    &mut controllers[r],
                    &mut work,
                    quiet_run,
                    level,
                    m,
                );
            }
        }
    }
    report.delivered.clear();
    report
        .delivered
        .extend(lanes.iter().map(|lane| lane.delivered));
    report.congestion_events.clear();
    report
        .congestion_events
        .extend(lanes.iter().map(|lane| lane.congestion));
    for r in 0..n {
        let level = membership.requested_level(r);
        settle_receiver(
            &mut report.offered,
            &mut report.level_slot_sum,
            layer_cum,
            settled_slots,
            settled_prefix,
            r,
            level,
            level,
            slots,
        );
        report.final_levels[r] = level;
    }
    work.shared_carried = report.shared_carried;
    *counters += work;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller that never moves.
    struct Inert;
    impl ReceiverController for Inert {
        fn on_packet(&mut self, _ev: &PacketEvent) -> Action {
            Action::Stay
        }
    }

    /// A controller pinned at a fixed target level, reached immediately.
    struct Pinned(usize);
    impl ReceiverController for Pinned {
        fn on_packet(&mut self, ev: &PacketEvent) -> Action {
            use std::cmp::Ordering::*;
            match ev.level.cmp(&self.0) {
                Less => Action::JoinUp,
                Equal => Action::Stay,
                Greater => Action::LeaveDown,
            }
        }
    }

    /// The Coordinated receiver's rule — join on a marker at or above its
    /// level, leave on loss — opted in as quiet at every level, counting
    /// its `on_packet` calls.
    #[derive(Clone, Default)]
    struct MarkerJoiner {
        calls: u64,
    }
    impl ReceiverController for MarkerJoiner {
        fn on_packet(&mut self, ev: &PacketEvent) -> Action {
            self.calls += 1;
            if ev.lost {
                return Action::LeaveDown;
            }
            match ev.marker {
                Some(t) if ev.level <= t && ev.level < ev.layer_count => Action::JoinUp,
                _ => Action::Stay,
            }
        }
        fn quiet_packets(&self, _level: usize, _layer_count: usize) -> u64 {
            u64::MAX
        }
    }

    /// A sender marking every base-layer packet with threshold `.0`.
    struct MarkEveryBase(usize);
    impl MarkerSource for MarkEveryBase {
        fn marker(&mut self, _slot: Tick, layer: usize) -> Option<usize> {
            (layer == 1).then_some(self.0)
        }
    }

    #[test]
    fn interleaver_respects_rates() {
        let mut il = LayerInterleaver::new(&[1.0, 1.0, 2.0, 4.0]);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            counts[il.next_layer() - 1] += 1;
        }
        assert_eq!(counts, [1000, 1000, 2000, 4000]);
    }

    /// The table-driven schedule is the live interleaver's, slot for slot,
    /// across several table wraps: whole periods for rates that have a
    /// short one, refills for rates that do not.
    #[test]
    fn schedule_replays_the_live_interleaver() {
        let exponential = [1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        let cases: [(&[f64], Option<usize>); 6] = [
            (&exponential, Some(128)),
            (&[1.0], Some(1)),
            (&[3.0, 5.0], Some(8)),
            (&[0.5, 0.25, 0.25], Some(4)),
            (&[1.0, 0.3, 2.7], None),
            (&[0.1, 0.2, 0.7], None),
        ];
        let slots = 3 * SCHEDULE_CAP as u64 + 17;
        for (rates, period) in cases {
            let mut table = Vec::new();
            let mut schedule = Schedule::new(rates, &mut table, slots);
            let expected_len = period.unwrap_or(SCHEDULE_CAP);
            assert_eq!(schedule.periodic, period.is_some(), "{rates:?}");
            assert_eq!(schedule.table.len(), expected_len, "{rates:?}");
            let mut live = LayerInterleaver::new(rates);
            for slot in 0..slots {
                assert_eq!(
                    schedule.next_layer(slots - slot),
                    live.next_layer(),
                    "{rates:?}: slot {slot}"
                );
            }
        }
        // A run shorter than the period fills only what it plays.
        let mut table = Vec::new();
        let schedule = Schedule::new(&exponential, &mut table, 40);
        assert!(!schedule.periodic);
        assert_eq!(schedule.table.len(), 40);
    }

    #[test]
    fn inert_receivers_at_level1_get_base_layer_only() {
        let cfg = StarConfig::figure8(4, 3, 0.0, 0.0);
        let mut ctls = vec![Inert, Inert, Inert];
        let report = run_star(&cfg, &mut ctls, &mut NoMarkers, 8000, 1);
        // Exponential 4 layers: total rate 8, layer 1 rate 1 -> 1000
        // packets offered per receiver, all delivered (no loss).
        for r in 0..3 {
            assert_eq!(report.offered[r], 1000);
            assert_eq!(report.delivered[r], 1000);
            assert_eq!(report.congestion_events[r], 0);
            assert_eq!(report.mean_level(r), 1.0);
        }
        // Shared link carries exactly the base layer.
        assert_eq!(report.shared_carried, 1000);
        assert_eq!(report.shared_redundancy(), Some(1.0));
    }

    #[test]
    fn shared_link_carries_the_union_of_subscriptions() {
        // One receiver pinned at level 3, one at level 1: the shared link
        // carries layers 1..=3 (rate 4 of 8) while the max receiver is
        // offered the same 4 -> redundancy 1 when aligned.
        let cfg = StarConfig::figure8(4, 2, 0.0, 0.0);
        let mut ctls = vec![Pinned(3), Pinned(1)];
        let report = run_star(&cfg, &mut ctls, &mut NoMarkers, 80_000, 2);
        let red = report.shared_redundancy().unwrap();
        assert!((red - 1.0).abs() < 0.01, "redundancy {red}");
        assert!(report.offered[0] > report.offered[1]);
    }

    #[test]
    fn loss_generates_congestion_events_at_the_configured_rate() {
        let cfg = StarConfig::figure8(4, 2, 0.0, 0.05);
        let mut ctls = vec![Inert, Inert];
        let report = run_star(&cfg, &mut ctls, &mut NoMarkers, 80_000, 3);
        for r in 0..2 {
            let rate = report.loss_rate(r);
            assert!((rate - 0.05).abs() < 0.01, "loss rate {rate}");
        }
    }

    #[test]
    fn shared_loss_is_correlated_across_receivers() {
        // With pure shared loss, both receivers (at equal levels) lose the
        // exact same packets: congestion counts match exactly.
        let cfg = StarConfig::figure8(4, 2, 0.05, 0.0);
        let mut ctls = vec![Inert, Inert];
        let report = run_star(&cfg, &mut ctls, &mut NoMarkers, 40_000, 4);
        assert_eq!(report.congestion_events[0], report.congestion_events[1]);
        assert!(report.congestion_events[0] > 0);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let cfg = StarConfig::figure8(8, 5, 0.01, 0.02);
        let run = |seed| {
            let mut ctls = vec![Pinned(4), Pinned(2), Pinned(8), Pinned(1), Pinned(6)];
            let r = run_star(&cfg, &mut ctls, &mut NoMarkers, 20_000, seed);
            (r.shared_carried, r.offered.clone(), r.delivered.clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn leave_latency_inflates_shared_usage() {
        // A receiver that oscillates between levels 1 and M: with a long
        // prune latency the shared link keeps carrying high layers.
        struct Oscillate;
        impl ReceiverController for Oscillate {
            fn on_packet(&mut self, ev: &PacketEvent) -> Action {
                if ev.slot % 64 < 32 {
                    if ev.level < ev.layer_count {
                        Action::JoinUp
                    } else {
                        Action::Stay
                    }
                } else if ev.level > 1 {
                    Action::LeaveDown
                } else {
                    Action::Stay
                }
            }
        }
        let mut cfg = StarConfig::figure8(4, 1, 0.0, 0.0);
        let baseline = {
            let mut ctls = vec![Oscillate];
            run_star(&cfg, &mut ctls, &mut NoMarkers, 40_000, 5)
        };
        cfg.leave_latency = 200;
        let laggy = {
            let mut ctls = vec![Oscillate];
            run_star(&cfg, &mut ctls, &mut NoMarkers, 40_000, 5)
        };
        let r0 = baseline.shared_redundancy().unwrap();
        let r1 = laggy.shared_redundancy().unwrap();
        assert!(
            r1 > r0 + 0.05,
            "leave latency must inflate redundancy: {r0} vs {r1}"
        );
    }

    #[test]
    fn markers_reach_receivers_on_clean_packets_only() {
        struct CountMarkers(u64);
        impl ReceiverController for CountMarkers {
            fn on_packet(&mut self, ev: &PacketEvent) -> Action {
                if ev.marker.is_some() {
                    assert!(!ev.lost, "markers ride only delivered packets");
                    self.0 += 1;
                }
                Action::Stay
            }
        }
        struct EverySlot;
        impl MarkerSource for EverySlot {
            fn marker(&mut self, _s: Tick, _l: usize) -> Option<usize> {
                Some(1)
            }
        }
        let cfg = StarConfig::figure8(4, 1, 0.3, 0.0);
        let mut ctls = vec![CountMarkers(0)];
        let report = run_star(&cfg, &mut ctls, &mut EverySlot, 8000, 6);
        assert!(ctls[0].0 > 0);
        assert_eq!(ctls[0].0, report.delivered[0]);
    }

    #[test]
    fn counters_count_visits_draws_and_level_changes_exactly() {
        // Pure shared loss: a visit is lost exactly when the shared draw
        // lost it, so every fanout draw is a delivery. Pinned receivers
        // only ever join, once per level up to their target.
        let cfg = StarConfig::figure8(4, 3, 0.05, 0.0);
        let mut scratch = StarScratch::default();
        let mut report = StarReport::default();
        for _ in 0..2 {
            let mut ctls = vec![Pinned(1), Pinned(3), Pinned(4)];
            run_star_into(
                &cfg,
                &mut ctls,
                &mut NoMarkers,
                8_000,
                9,
                &mut report,
                &mut scratch,
            );
        }
        let delivered: u64 = report.delivered.iter().sum();
        let congested: u64 = report.congestion_events.iter().sum();
        assert!(congested > 0);
        // Two identical runs through one scratch: every counter doubles.
        assert_eq!(
            scratch.counters(),
            StarCounters {
                slots: 2 * 8_000,
                shared_carried: 2 * report.shared_carried,
                visits: 2 * (delivered + congested),
                fanout_samples: 2 * delivered,
                level_changes: 2 * (2 + 3),
                // Pinned keeps the default: no delivery is quiet.
                quiet_deliveries: 0,
            }
        );

        // Lossless, with a Coordinated-style controller that opts in and
        // a sender marking every base-layer packet "everyone joins". A
        // receiver's first delivery is a marked base-layer packet (it
        // joins to 2), each join is followed by one unparked visit that
        // parks it, and every later base-layer packet's marker wakes it
        // (three joins, then a Stay at the top). So its `on_packet`
        // calls are the 1000 base-layer packets of 8000 slots plus the
        // three visits after its joins; every other delivery is quiet.
        let cfg = StarConfig::figure8(4, 3, 0.0, 0.0);
        let mut scratch = StarScratch::default();
        let mut ctls = vec![MarkerJoiner::default(); 3];
        run_star_into(
            &cfg,
            &mut ctls,
            &mut MarkEveryBase(4),
            8_000,
            9,
            &mut report,
            &mut scratch,
        );
        let calls = 1000 + 3;
        assert!(ctls.iter().all(|c| c.calls == calls));
        assert_eq!(report.final_levels, vec![4; 3]);
        let delivered: u64 = report.delivered.iter().sum();
        assert_eq!(report.congestion_events, vec![0; 3]);
        assert_eq!(
            scratch.counters(),
            StarCounters {
                slots: 8_000,
                shared_carried: report.shared_carried,
                visits: delivered,
                fanout_samples: delivered,
                level_changes: 3 * 3,
                quiet_deliveries: delivered - 3 * calls,
            }
        );
        assert_eq!(
            report,
            crate::reference::run_star(
                &cfg,
                &mut vec![MarkerJoiner::default(); 3],
                &mut MarkEveryBase(4),
                8_000,
                9,
            )
        );
    }
}
