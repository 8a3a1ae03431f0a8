//! The three receiver state machines of Section 4.
//!
//! Common behaviour: "a receiver leaves the highest layer joined (unless
//! only joined to one layer) whenever it observes a congestion event", and
//! probes for bandwidth by joining layers. The protocols differ only in
//! *when* they join:
//!
//! * [`UncoordinatedReceiver`] — upon receiving a packet, joins with
//!   probability `2^{−2(i−1)}` (a memoryless coin flip);
//! * [`DeterministicReceiver`] — joins after a fixed `2^{2(i−1)}` packets
//!   received without loss since its last join or leave event;
//! * [`CoordinatedReceiver`] — joins exactly when a sender marker tells
//!   receivers at its level to (markers for level `i` imply markers for all
//!   `j < i`, so one threshold field suffices).
//!
//! [`ProtocolReceiver`] is the one place a [`ProtocolKind`] becomes a
//! controller. It is a plain enum over the three, so engine loops that are
//! generic over the controller type (`mlf_sim::run_star_into`) inline the
//! state machines into their per-delivery visit instead of making a
//! virtual call; [`make_receiver`] boxes the same enum for callers that
//! need a `dyn ReceiverController`.
//!
//! All three promise quiet packets (`ReceiverController::quiet_packets`),
//! so the star engine can skip their `Stay` answers on lossless lanes:
//! every packet at the top layer, where none can join; below it,
//! Deterministic's packets left before its threshold, Coordinated's until
//! the next marker, and Uncoordinated's failing join coins before the
//! first passing one. Uncoordinated finds those by flipping its coins
//! ahead in a clone of its private RNG, and its `skip_quiet` replays the
//! draws.

use crate::config::{join_threshold, ProtocolKind};
use mlf_sim::{Action, PacketEvent, ReceiverController, SimRng};

/// Uncoordinated: per-packet probabilistic joins.
#[derive(Debug, Clone, PartialEq)]
pub struct UncoordinatedReceiver {
    rng: SimRng,
}

impl UncoordinatedReceiver {
    /// Create with a dedicated RNG substream (each receiver must get its
    /// own so runs stay reproducible as receivers are added).
    pub fn new(rng: SimRng) -> Self {
        UncoordinatedReceiver { rng }
    }
}

impl ReceiverController for UncoordinatedReceiver {
    #[inline]
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        if ev.lost {
            return Action::LeaveDown; // engine clamps at level 1
        }
        if ev.level < ev.layer_count && join_coin(&mut self.rng, ev.level) {
            Action::JoinUp
        } else {
            Action::Stay
        }
    }

    /// All of them at the top layer, where no coin is flipped. Below it,
    /// the coins that fail before the first one that passes, flipped ahead
    /// in a clone of its RNG and counted up to `QUIET_SCAN_CAP` (none at
    /// level 1, whose coin always passes).
    fn quiet_packets(&self, level: usize, layer_count: usize) -> u64 {
        if level >= layer_count {
            return u64::MAX;
        }
        let mut rng = self.rng.clone();
        let mut quiet = 0;
        while quiet < QUIET_SCAN_CAP && !join_coin(&mut rng, level) {
            quiet += 1;
        }
        quiet
    }

    /// Flips the `n` coins the skipped packets would have: below the top
    /// layer only, and without a draw at level 1.
    fn skip_quiet(&mut self, n: u64, level: usize, layer_count: usize) {
        if level < layer_count {
            for _ in 0..n {
                join_coin(&mut self.rng, level);
            }
        }
    }
}

/// The most failing join coins [`UncoordinatedReceiver::quiet_packets`]
/// counts before it stops looking: near level 32 a coin almost never
/// passes, and an unbounded scan would not end. At Figure 8's deepest
/// level below the top (7 of 8, a coin in 4096) about 2% of budgets reach
/// it, each costing one call and a fresh scan. On the Figure 8 grid caps
/// of 2^12, 2^14 and 2^16 ran within noise of each other (2-vCPU Linux
/// host).
const QUIET_SCAN_CAP: u64 = 1 << 14;

/// The Uncoordinated join coin at `level`: `rng.bernoulli(join_probability(level))`
/// as an integer test, with the same answer from the same draws.
///
/// Level 1 joins with probability 1, so it draws nothing. Above it the
/// probability is `2^-k` with `k = 2(level−1)`, and `unit() < 2^-k` holds
/// exactly when the top `k` of the 53 bits `unit()` keeps are zero. Past
/// `k = 53` only the all-zero 53 bits pass, hence `min(k, 53)`. Panics for
/// levels outside `1..=32`, as [`join_threshold`] does.
#[inline]
fn join_coin(rng: &mut SimRng, level: usize) -> bool {
    let top_bits = join_threshold(level).trailing_zeros().min(53);
    top_bits == 0 || rng.next_u64().leading_zeros() >= top_bits
}

/// Deterministic: joins after a fixed run of clean packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeterministicReceiver {
    /// Clean packets received since the last join/leave event.
    clean_run: u64,
}

impl DeterministicReceiver {
    /// Fresh receiver (counter zeroed).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReceiverController for DeterministicReceiver {
    #[inline]
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        if ev.lost {
            // A congestion event: leave and restart the run. Leaving *is*
            // a join/leave event, so the counter resets either way.
            self.clean_run = 0;
            return Action::LeaveDown;
        }
        self.clean_run += 1;
        if ev.level < ev.layer_count && self.clean_run >= join_threshold(ev.level) {
            self.clean_run = 0;
            Action::JoinUp
        } else {
            Action::Stay
        }
    }

    /// All of them at the top layer; below it, the clean packets left
    /// before the one that reaches the join threshold.
    fn quiet_packets(&self, level: usize, layer_count: usize) -> u64 {
        if level >= layer_count {
            u64::MAX
        } else {
            join_threshold(level).saturating_sub(self.clean_run + 1)
        }
    }

    /// Each clean packet extends the run, at the top layer too.
    fn skip_quiet(&mut self, n: u64, _level: usize, _layer_count: usize) {
        self.clean_run += n;
    }
}

/// Coordinated: joins only on sender markers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoordinatedReceiver;

impl CoordinatedReceiver {
    /// Fresh receiver.
    pub fn new() -> Self {
        CoordinatedReceiver
    }
}

impl ReceiverController for CoordinatedReceiver {
    #[inline]
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        if ev.lost {
            return Action::LeaveDown;
        }
        match ev.marker {
            Some(threshold) if ev.level <= threshold && ev.level < ev.layer_count => Action::JoinUp,
            _ => Action::Stay,
        }
    }

    /// All of them: only a marker moves it up, and it keeps no state.
    fn quiet_packets(&self, _level: usize, _layer_count: usize) -> u64 {
        u64::MAX
    }
}

/// The controller of any of the three protocols, dispatched with `match`.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolReceiver {
    /// [`ProtocolKind::Uncoordinated`].
    Uncoordinated(UncoordinatedReceiver),
    /// [`ProtocolKind::Deterministic`].
    Deterministic(DeterministicReceiver),
    /// [`ProtocolKind::Coordinated`].
    Coordinated(CoordinatedReceiver),
}

impl ProtocolReceiver {
    /// A fresh controller for `kind`. `rng` is the receiver's own RNG
    /// substream; only the Uncoordinated protocol draws from it.
    pub fn new(kind: ProtocolKind, rng: SimRng) -> Self {
        match kind {
            ProtocolKind::Uncoordinated => {
                ProtocolReceiver::Uncoordinated(UncoordinatedReceiver::new(rng))
            }
            ProtocolKind::Deterministic => {
                ProtocolReceiver::Deterministic(DeterministicReceiver::new())
            }
            ProtocolKind::Coordinated => ProtocolReceiver::Coordinated(CoordinatedReceiver::new()),
        }
    }
}

impl ReceiverController for ProtocolReceiver {
    #[inline]
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        match self {
            ProtocolReceiver::Uncoordinated(r) => r.on_packet(ev),
            ProtocolReceiver::Deterministic(r) => r.on_packet(ev),
            ProtocolReceiver::Coordinated(r) => r.on_packet(ev),
        }
    }

    #[inline]
    fn quiet_packets(&self, level: usize, layer_count: usize) -> u64 {
        match self {
            ProtocolReceiver::Uncoordinated(r) => r.quiet_packets(level, layer_count),
            ProtocolReceiver::Deterministic(r) => r.quiet_packets(level, layer_count),
            ProtocolReceiver::Coordinated(r) => r.quiet_packets(level, layer_count),
        }
    }

    #[inline]
    fn skip_quiet(&mut self, n: u64, level: usize, layer_count: usize) {
        match self {
            ProtocolReceiver::Uncoordinated(r) => r.skip_quiet(n, level, layer_count),
            ProtocolReceiver::Deterministic(r) => r.skip_quiet(n, level, layer_count),
            ProtocolReceiver::Coordinated(r) => r.skip_quiet(n, level, layer_count),
        }
    }
}

/// A boxed [`ProtocolReceiver`], for callers that hold controllers as
/// `dyn ReceiverController` (wrappers and mixed fleets).
pub fn make_receiver(kind: ProtocolKind, rng: SimRng) -> Box<dyn ReceiverController> {
    Box::new(ProtocolReceiver::new(kind, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(level: usize, lost: bool, marker: Option<usize>) -> PacketEvent {
        PacketEvent {
            slot: 0,
            layer: 1,
            lost,
            marker,
            level,
            layer_count: 8,
        }
    }

    #[test]
    fn all_protocols_leave_on_loss() {
        let rng = SimRng::seed_from_u64(1);
        let mut u = UncoordinatedReceiver::new(rng);
        let mut d = DeterministicReceiver::new();
        let mut c = CoordinatedReceiver::new();
        assert_eq!(u.on_packet(&ev(3, true, None)), Action::LeaveDown);
        assert_eq!(d.on_packet(&ev(3, true, None)), Action::LeaveDown);
        assert_eq!(c.on_packet(&ev(3, true, None)), Action::LeaveDown);
    }

    #[test]
    fn deterministic_joins_after_exact_threshold() {
        let mut d = DeterministicReceiver::new();
        // Level 2: threshold 4 clean packets.
        for _ in 0..3 {
            assert_eq!(d.on_packet(&ev(2, false, None)), Action::Stay);
        }
        assert_eq!(d.on_packet(&ev(2, false, None)), Action::JoinUp);
        // Counter reset after the join.
        assert_eq!(d.on_packet(&ev(3, false, None)), Action::Stay);
    }

    #[test]
    fn deterministic_resets_on_loss() {
        let mut d = DeterministicReceiver::new();
        for _ in 0..3 {
            let _ = d.on_packet(&ev(2, false, None));
        }
        let _ = d.on_packet(&ev(2, true, None)); // loss wipes the run
        for _ in 0..3 {
            assert_eq!(d.on_packet(&ev(2, false, None)), Action::Stay);
        }
        assert_eq!(d.on_packet(&ev(2, false, None)), Action::JoinUp);
    }

    #[test]
    fn deterministic_never_joins_past_top_layer() {
        let mut d = DeterministicReceiver::new();
        for _ in 0..100_000 {
            assert_eq!(d.on_packet(&ev(8, false, None)), Action::Stay);
        }
    }

    #[test]
    fn uncoordinated_join_frequency_matches_probability() {
        let mut u = UncoordinatedReceiver::new(SimRng::seed_from_u64(2));
        let n = 200_000;
        let joins = (0..n)
            .filter(|_| u.on_packet(&ev(3, false, None)) == Action::JoinUp)
            .count();
        // Level 3: p = 1/16, expect n/16 = 12500 ± noise.
        let freq = joins as f64 / n as f64;
        assert!((freq - 1.0 / 16.0).abs() < 0.003, "freq {freq}");
    }

    /// The integer join coin is the float one, draw for draw: the same
    /// answer and the same RNG state after every draw, at every level.
    #[test]
    fn join_coin_matches_the_bernoulli_draw() {
        use crate::config::join_probability;
        for level in 1..=32 {
            let mut a = SimRng::seed_from_u64(0xC01 + level as u64);
            let mut b = a.clone();
            for i in 0..100_000 {
                assert_eq!(
                    join_coin(&mut a, level),
                    b.bernoulli(join_probability(level)),
                    "level {level}, draw {i}"
                );
                assert_eq!(a, b, "level {level}: rng state after draw {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn join_coin_rejects_levels_past_32() {
        let _ = join_coin(&mut SimRng::seed_from_u64(1), 33);
    }

    #[test]
    fn uncoordinated_at_level1_joins_every_clean_packet() {
        // Threshold at level 1 is 1 packet -> probability 1.
        let mut u = UncoordinatedReceiver::new(SimRng::seed_from_u64(3));
        for _ in 0..10 {
            assert_eq!(u.on_packet(&ev(1, false, None)), Action::JoinUp);
        }
    }

    #[test]
    fn coordinated_only_acts_on_markers_at_or_above_level() {
        let mut c = CoordinatedReceiver::new();
        assert_eq!(c.on_packet(&ev(3, false, None)), Action::Stay);
        assert_eq!(c.on_packet(&ev(3, false, Some(2))), Action::Stay);
        assert_eq!(c.on_packet(&ev(3, false, Some(3))), Action::JoinUp);
        assert_eq!(c.on_packet(&ev(2, false, Some(3))), Action::JoinUp);
        // At the top layer it cannot join further.
        assert_eq!(c.on_packet(&ev(8, false, Some(8))), Action::Stay);
    }

    /// Check the quiet contract of `start` at `level` of `layers` and return
    /// its budget. The promised clean, marker-free packets on any slot and
    /// layer all answer `Stay` — every one of a finite budget, the first
    /// [`UNBOUNDED_CALLS`] of an unbounded one — and `skip_quiet` over them
    /// leaves the controller equal to one that took the calls. A finite
    /// budget below [`QUIET_SCAN_CAP`] is also tight: one more packet
    /// either acts or changes the controller in a way no skip describes
    /// (the Uncoordinated coin's draw). A budget at the cap is not: the
    /// scan stopped there without finding the coin that passes, so the
    /// next packet may be quiet too.
    fn check_quiet_contract(start: &ProtocolReceiver, level: usize, layers: usize) -> u64 {
        let label = format!("{start:?} at level {level} of {layers}");
        let quiet = start.quiet_packets(level, layers);
        let calls = if quiet == u64::MAX {
            UNBOUNDED_CALLS
        } else {
            quiet
        };
        let clean = |i: u64| PacketEvent {
            slot: 3 * i + 1,
            layer: 1 + (i as usize % level),
            lost: false,
            marker: None,
            level,
            layer_count: layers,
        };
        let mut called = start.clone();
        for i in 0..calls {
            assert_eq!(
                called.on_packet(&clean(i)),
                Action::Stay,
                "{label}: call {i}"
            );
            if [1, calls / 2].contains(&(i + 1)) {
                let mut skipped = start.clone();
                skipped.skip_quiet(i + 1, level, layers);
                assert_eq!(skipped, called, "{label}: skip {}", i + 1);
            }
        }
        let mut skipped = start.clone();
        skipped.skip_quiet(calls, level, layers);
        assert_eq!(skipped, called, "{label}: skip {calls}");
        if quiet < QUIET_SCAN_CAP {
            let action = called.on_packet(&clean(calls));
            skipped.skip_quiet(1, level, layers);
            assert!(
                action != Action::Stay || skipped != called,
                "{label}: packet {} past the budget is quiet too",
                quiet + 1
            );
        }
        quiet
    }

    /// How many calls [`check_quiet_contract`] makes of an unbounded
    /// budget.
    const UNBOUNDED_CALLS: u64 = 5000;

    /// The quiet-packet contract for every protocol at layer counts 1, 2
    /// and 8, every level, several Uncoordinated seeds and (Deterministic)
    /// several clean-run starts. Some Uncoordinated budget at level 7 of 8
    /// (a coin in 4096) runs past 5000 calls.
    #[test]
    fn quiet_packets_are_stays_that_skip_quiet_replays() {
        let mut longest = 0;
        for layers in [1, 2, 8] {
            for level in 1..=layers {
                let mut starts: Vec<_> = (5..13)
                    .map(|seed| {
                        ProtocolReceiver::new(
                            ProtocolKind::Uncoordinated,
                            SimRng::seed_from_u64(seed),
                        )
                    })
                    .collect();
                starts.push(ProtocolReceiver::new(
                    ProtocolKind::Coordinated,
                    SimRng::seed_from_u64(5),
                ));
                starts.extend([0, 1, 2, 3, 15, 4000, 70_000].map(|clean_run| {
                    ProtocolReceiver::Deterministic(DeterministicReceiver { clean_run })
                }));
                for start in &starts {
                    let quiet = check_quiet_contract(start, level, layers);
                    if quiet != u64::MAX {
                        longest = longest.max(quiet);
                    }
                }
            }
        }
        assert!(longest > UNBOUNDED_CALLS, "longest finite budget {longest}");
    }

    /// Deep below the top layer the join coin almost never passes, so the
    /// look-ahead stops at its cap: every one of those packets is quiet.
    #[test]
    fn capped_uncoordinated_budgets_are_quiet() {
        for seed in [5, 6] {
            let start =
                ProtocolReceiver::new(ProtocolKind::Uncoordinated, SimRng::seed_from_u64(seed));
            assert_eq!(check_quiet_contract(&start, 20, 24), QUIET_SCAN_CAP);
        }
    }

    /// No coin is flipped at the top layer or at level 1, so skipping
    /// packets there leaves the Uncoordinated RNG untouched.
    #[test]
    fn uncoordinated_skips_draw_nothing_at_the_top_or_level_1() {
        let start = UncoordinatedReceiver::new(SimRng::seed_from_u64(7));
        for n in [1, 4096] {
            for level in [8, 1] {
                let mut skipped = start.clone();
                skipped.skip_quiet(n, level, 8);
                assert_eq!(skipped, start, "skip {n} at level {level} of 8");
            }
        }
    }

    /// The boxed controller answers the quiet contract as the enum does.
    #[test]
    fn boxed_receivers_forward_the_quiet_contract() {
        let mut boxed = make_receiver(ProtocolKind::Deterministic, SimRng::seed_from_u64(6));
        assert_eq!(boxed.quiet_packets(2, 8), 3);
        boxed.skip_quiet(3, 2, 8);
        assert_eq!(boxed.quiet_packets(2, 8), 0);
        assert_eq!(boxed.on_packet(&ev(2, false, None)), Action::JoinUp);
        assert_eq!(boxed.quiet_packets(8, 8), u64::MAX);
    }

    #[test]
    fn boxed_dispatch_works() {
        let mut r = make_receiver(ProtocolKind::Deterministic, SimRng::seed_from_u64(4));
        assert_eq!(r.on_packet(&ev(1, false, None)), Action::JoinUp);
    }
}
