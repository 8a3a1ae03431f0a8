//! Frozen pre-index reference star engine, kept verbatim for differential
//! testing.
//!
//! The production [`crate::engine::run_star_into`] runs on the
//! level-bucketed `LevelIndex`: the delivery loop visits
//! only receivers effectively subscribed to the slot's layer, the shared
//! link's `max_effective_level` is an O(1) cached bucket maximum, and the
//! per-receiver `offered`/`level_slot_sum` accounting is settled lazily at
//! join/leave events instead of every slot. This module preserves the
//! *original* scan-everything implementation — the two full `0..n` receiver
//! loops per slot plus the O(n) membership scans they replaced — so
//! property tests can assert the indexed engine is **bitwise identical** to
//! it on arbitrary configurations (`tests/star_engine_differential.rs` at
//! the workspace root, plus the in-crate unit tests).
//!
//! The copy includes the pre-index [`MembershipTable`] (as the private
//! `RefMembershipTable`), because the production table now maintains the
//! level index incrementally; the reference must not depend on any of that
//! machinery. Nothing here is meant for production use: every call
//! allocates fresh buffers and no attempt is made to keep the hot loop
//! tight. Treat the module as executable documentation of the engine
//! semantics — in particular the **RNG draw order** — that the indexed
//! engine must reproduce bit for bit.
//!
//! [`MembershipTable`]: crate::multicast::MembershipTable

use crate::engine::{
    Action, LayerInterleaver, MarkerSource, PacketEvent, ReceiverController, StarConfig, StarReport,
};
use crate::events::{EventQueue, Tick};
use crate::loss::LossProcess;
use crate::rng::SimRng;

/// Pending membership-change event (the pre-index `Change`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change {
    receiver: usize,
    level: usize,
    seq: u64,
}

/// The pre-index membership table: plain `requested`/`effective` vectors,
/// with `max_effective_level` an O(n) scan.
#[derive(Debug, Clone)]
struct RefMembershipTable {
    requested: Vec<usize>,
    effective: Vec<usize>,
    latest_seq: Vec<u64>,
    queue: EventQueue<Change>,
    join_latency: Tick,
    leave_latency: Tick,
    layer_count: usize,
    next_seq: u64,
}

impl RefMembershipTable {
    fn new(receivers: usize, layer_count: usize, initial: usize) -> Self {
        assert!(initial <= layer_count);
        RefMembershipTable {
            requested: vec![initial; receivers],
            effective: vec![initial; receivers],
            latest_seq: vec![0; receivers],
            queue: EventQueue::new(),
            join_latency: 0,
            leave_latency: 0,
            layer_count,
            next_seq: 0,
        }
    }

    fn with_latencies(mut self, join: Tick, leave: Tick) -> Self {
        self.join_latency = join;
        self.leave_latency = leave;
        self
    }

    fn requested_level(&self, r: usize) -> usize {
        self.requested[r]
    }

    fn request_level(&mut self, now: Tick, r: usize, level: usize) {
        assert!(level <= self.layer_count, "level beyond layer count");
        if level == self.requested[r] {
            return;
        }
        let raising = level > self.requested[r];
        self.requested[r] = level;
        let latency = if raising {
            self.join_latency
        } else {
            self.leave_latency
        };
        self.next_seq += 1;
        self.latest_seq[r] = self.next_seq;
        if latency == 0 {
            self.effective[r] = level;
        } else {
            let change = Change {
                receiver: r,
                level,
                seq: self.next_seq,
            };
            if self.queue.now() < now {
                self.queue.drain_until(now);
            }
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

    fn max_effective_level(&self) -> usize {
        self.effective.iter().copied().max().unwrap_or(0)
    }

    fn subscribed(&self, r: usize, layer: usize) -> bool {
        layer >= 1 && layer <= self.effective[r]
    }

    fn wants(&self, r: usize, layer: usize) -> bool {
        layer >= 1 && layer <= self.requested[r]
    }
}

/// The pre-index star engine, preserved verbatim: two full `0..n` receiver
/// loops per slot (requested-level accounting, then delivery) plus an O(n)
/// `max_effective_level` scan.
///
/// Deterministic in exactly the same inputs as the production engine; the
/// differential tests assert the two produce bitwise-equal [`StarReport`]s
/// (every counter and the final levels) for identical inputs.
pub fn run_star<C: ReceiverController, M: MarkerSource>(
    cfg: &StarConfig,
    controllers: &mut [C],
    marker: &mut M,
    slots: u64,
    seed: u64,
) -> StarReport {
    let n = cfg.receiver_count();
    assert_eq!(controllers.len(), n, "one controller per receiver");
    let m = cfg.layer_count();
    assert!(m >= 1);

    let base = SimRng::seed_from_u64(seed);
    let mut shared_rng = base.split(u64::MAX);
    let mut fanout_rng: Vec<SimRng> = (0..n).map(|r| base.split(r as u64)).collect();
    let mut shared_loss = cfg.shared_loss.clone();
    let mut fanout_loss: Vec<LossProcess> = cfg.fanout_loss.clone();

    let mut membership =
        RefMembershipTable::new(n, m, 1).with_latencies(cfg.join_latency, cfg.leave_latency);
    let mut interleaver = LayerInterleaver::new(&cfg.layer_rates);

    let mut report = StarReport {
        slots,
        shared_carried: 0,
        offered: vec![0; n],
        delivered: vec![0; n],
        congestion_events: vec![0; n],
        level_slot_sum: vec![0; n],
        final_levels: vec![1; n],
    };

    for slot in 0..slots {
        membership.advance_to(slot);
        let layer = interleaver.next_layer();
        let mk = marker.marker(slot, layer);

        // Account the requested levels (receiver nominal rates).
        for r in 0..n {
            let lvl = membership.requested_level(r);
            report.level_slot_sum[r] += lvl as u64;
            if layer <= lvl {
                report.offered[r] += 1;
            }
        }

        // Shared link: carried iff any receiver is effectively subscribed.
        let carried = layer <= membership.max_effective_level();
        let lost_shared = if carried {
            report.shared_carried += 1;
            shared_loss.sample(&mut shared_rng)
        } else {
            false
        };

        // Deliver to each receiver that requested and effectively holds the
        // layer.
        for r in 0..n {
            let wants = membership.wants(r, layer);
            let has = membership.subscribed(r, layer);
            if !(wants && has) {
                continue;
            }
            let lost = lost_shared || fanout_loss[r].sample(&mut fanout_rng[r]);
            if lost {
                report.congestion_events[r] += 1;
            } else {
                report.delivered[r] += 1;
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
            match controllers[r].on_packet(&ev) {
                Action::Stay => {}
                Action::JoinUp => {
                    if level < m {
                        membership.request_level(slot, r, level + 1);
                    }
                }
                Action::LeaveDown => {
                    if level > 1 {
                        membership.request_level(slot, r, level - 1);
                    }
                }
            }
        }
    }
    for r in 0..n {
        report.final_levels[r] = membership.requested_level(r);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_star as run_star_indexed, NoMarkers};

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

    #[test]
    fn reference_matches_indexed_engine_on_a_small_star() {
        let mut cfg = StarConfig::figure8(6, 5, 0.01, 0.04);
        cfg.join_latency = 3;
        cfg.leave_latency = 11;
        let mk = |target: usize| vec![Pinned(target), Pinned(1), Pinned(6), Pinned(3), Pinned(2)];
        let reference = run_star(&cfg, &mut mk(4), &mut NoMarkers, 20_000, 9);
        let indexed = run_star_indexed(&cfg, &mut mk(4), &mut NoMarkers, 20_000, 9);
        assert_eq!(reference, indexed);
    }
}
