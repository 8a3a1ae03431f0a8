//! Property tests of `MembershipTable`'s latency semantics under the level
//! index: random join/leave request streams with random graft/prune
//! latencies, driven the way the engine drives time (monotone
//! `advance_to`, then requests at the current slot).
//!
//! Two families of claims:
//!
//! * **Ordering** — stale queued changes never overwrite newer ones: after
//!   draining every scheduled event, each receiver's effective level equals
//!   its most recent request, regardless of how in-flight grafts/prunes
//!   interleaved; and a newer instant change is never clobbered by an older
//!   delayed one landing afterwards.
//! * **Index invariants** — after *every* operation, the per-level bucket
//!   counts equal a recount from the `effective` levels, the cached
//!   `max_effective_level` equals the true maximum, and the per-layer
//!   subscriber bitsets equal a recount from `min(requested, effective)`
//!   (`MembershipTable::check_index_invariants`).

use mlf_sim::{MembershipTable, SimRng};
use proptest::prelude::*;

/// Replay a deterministic random op stream on a table, checking the index
/// invariants after every step, and return the table plus the last
/// requested level per receiver.
fn drive(
    receivers: usize,
    layers: usize,
    join_latency: u64,
    leave_latency: u64,
    ops: usize,
    seed: u64,
) -> MembershipTable {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut table =
        MembershipTable::new(receivers, layers, 1).with_latencies(join_latency, leave_latency);
    table.check_index_invariants().expect("fresh table");
    let mut now = 0u64;
    for _ in 0..ops {
        now += rng.below(40);
        table.advance_to(now);
        table
            .check_index_invariants()
            .unwrap_or_else(|e| panic!("after advance_to({now}): {e}"));
        let r = rng.below(receivers as u64) as usize;
        let level = rng.below(layers as u64 + 1) as usize;
        table.request_level(now, r, level);
        table
            .check_index_invariants()
            .unwrap_or_else(|e| panic!("after request_level({now}, {r}, {level}): {e}"));
    }
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index invariants hold across arbitrary request/advance interleavings
    /// (all four latency regimes), and once every pending change has
    /// drained the effective level equals the newest requested level — no
    /// stale queued change survives to overwrite it.
    #[test]
    fn invariants_hold_and_effective_converges_to_requested(
        receivers in 1usize..90,
        layers in 1usize..9,
        join_latency in 0u64..30,
        leave_latency in 0u64..30,
        ops in 1usize..120,
        seed in any::<u64>(),
    ) {
        let mut table = drive(receivers, layers, join_latency, leave_latency, ops, seed);
        // Drain everything still in flight: the newest request per
        // receiver must win.
        let far = u64::MAX / 2;
        table.advance_to(far);
        table.check_index_invariants().unwrap_or_else(|e| panic!("after final drain: {e}"));
        for r in 0..receivers {
            prop_assert_eq!(
                table.effective_level(r),
                table.requested_level(r),
                "receiver {} still off its newest request after the drain",
                r
            );
        }
        prop_assert_eq!(
            table.max_effective_level(),
            (0..receivers).map(|r| table.effective_level(r)).max().unwrap_or(0)
        );
    }

    /// The targeted stale-overwrite shape: a delayed change scheduled
    /// first, then a newer (instant or delayed) change; whatever lands
    /// later in wall-clock order, the *newer request* decides the final
    /// effective level.
    #[test]
    fn stale_scheduled_change_never_overwrites_a_newer_one(
        first in 1usize..9,
        second in 1usize..9,
        join_latency in 1u64..50,
        leave_latency in 0u64..50,
        gap in 0u64..60,
        start in 1usize..9,
    ) {
        let mut t = MembershipTable::new(1, 8, start).with_latencies(join_latency, leave_latency);
        t.request_level(0, 0, first);
        t.advance_to(gap);
        t.request_level(gap, 0, second);
        // Past every possible landing time of either change.
        t.advance_to(gap + join_latency + leave_latency + 1);
        prop_assert_eq!(t.requested_level(0), second);
        prop_assert_eq!(
            t.effective_level(0),
            second,
            "an in-flight change from the older request (to {}) overwrote the newer one",
            first
        );
        t.check_index_invariants().unwrap();
    }

    /// Buckets equal a recount after a burst of instant changes alone
    /// (the zero-latency fast path skips the event queue entirely).
    #[test]
    fn instant_changes_keep_buckets_exact(
        receivers in 1usize..130,
        layers in 1usize..9,
        ops in 1usize..80,
        seed in any::<u64>(),
    ) {
        let table = drive(receivers, layers, 0, 0, ops, seed);
        for r in 0..receivers {
            prop_assert_eq!(table.effective_level(r), table.requested_level(r));
            // With every level in 0..=layers, the recounted buckets below
            // partition the receivers.
            prop_assert!(table.effective_level(r) <= layers);
        }
        table.check_index_invariants().unwrap();
    }
}
