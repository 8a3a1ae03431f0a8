//! Frozen pre-bitset reference tree engine, kept verbatim for differential
//! testing.
//!
//! The production [`crate::tree::run_tree`] runs on the per-link
//! `LinkLevelIndex`: carried-link detection is a non-zero
//! bit in a per-layer carrying-link bitset row, delivery batches the
//! effectively subscribed receivers with word-at-a-time
//! `trailing_zeros` walks, end-to-end loss is resolved by propagating
//! per-link fates down the tree once per slot, and per-receiver `offered`
//! accounting is settled lazily at join/leave events. This module
//! preserves the *original* scan-everything implementation — the
//! O(links × downstream receivers) carried scan plus the full `0..n`
//! receiver loop with a per-receiver route re-scan — so property tests can
//! assert the bitset engine is **bitwise identical** to it on arbitrary
//! tree topologies (`tests/tree_engine_differential.rs` at the workspace
//! root, plus the in-crate unit tests).
//!
//! The copy includes the pre-index membership table (as the private
//! `RefMembershipTable`), because the production table now maintains the
//! receiver- and link-level indexes incrementally; the reference must not
//! depend on any of that machinery. Nothing here is meant for production
//! use: every call allocates fresh buffers and no attempt is made to keep
//! the hot loop tight. Treat the module as executable documentation of the
//! engine semantics — in particular the **RNG draw order** (one private
//! substream per [`LinkId`], sampled exactly on the slots the link
//! carries) — that the bitset engine must reproduce bit for bit.

use crate::engine::{Action, LayerInterleaver, MarkerSource, PacketEvent, ReceiverController};
use crate::events::{EventQueue, Tick};
use crate::rng::SimRng;
use crate::tree::{TreeConfig, TreeReport};
use mlf_net::{LinkId, Network, ReceiverId, SessionId};

/// Pending membership-change event (the pre-index `Change`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change {
    receiver: usize,
    level: usize,
    seq: u64,
}

/// The pre-index membership table: plain `requested`/`effective` vectors.
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

    fn subscribed(&self, r: usize, layer: usize) -> bool {
        layer >= 1 && layer <= self.effective[r]
    }

    fn wants(&self, r: usize, layer: usize) -> bool {
        layer >= 1 && layer <= self.requested[r]
    }
}

/// The pre-bitset tree engine, preserved verbatim: per slot, one scan over
/// every link's downstream receiver set to find the carrying links, then a
/// full `0..n` receiver loop that re-scans each subscribed receiver's
/// route for the end-to-end loss fate.
///
/// Deterministic in exactly the same inputs as the production engine; the
/// differential tests assert the two produce bitwise-equal [`TreeReport`]s
/// (every counter and the final levels) for identical inputs.
#[allow(clippy::needless_range_loop)] // parallel per-receiver tables
pub fn run_tree<C: ReceiverController, M: MarkerSource>(
    net: &Network,
    cfg: &TreeConfig,
    controllers: &mut [C],
    marker: &mut M,
    slots: u64,
    seed: u64,
) -> TreeReport {
    assert_eq!(net.session_count(), 1, "one session per tree run");
    let session = SessionId(0);
    let n = net.session(session).receivers.len();
    assert_eq!(controllers.len(), n, "one controller per receiver");
    let n_links = net.link_count();
    assert_eq!(cfg.link_loss.len(), n_links, "one loss process per link");
    let m = cfg.layer_rates.len();

    // Downstream receiver sets per link (R_{1,j}).
    let downstream: Vec<Vec<usize>> = (0..n_links)
        .map(|j| {
            net.receivers_of_session_on_link(LinkId(j), session)
                .to_vec()
        })
        .collect();

    let base = SimRng::seed_from_u64(seed);
    let mut link_rng: Vec<SimRng> = (0..n_links).map(|j| base.split(j as u64)).collect();
    let mut link_loss = cfg.link_loss.clone();
    let mut membership =
        RefMembershipTable::new(n, m, 1).with_latencies(cfg.join_latency, cfg.leave_latency);
    let mut interleaver = LayerInterleaver::new(&cfg.layer_rates);

    let mut report = TreeReport {
        slots,
        carried: vec![0; n_links],
        offered: vec![0; n],
        delivered: vec![0; n],
        congestion_events: vec![0; n],
        final_levels: vec![1; n],
        downstream,
    };

    // Per-slot scratch: loss fate per link (None = not carried this slot).
    let mut link_lost: Vec<Option<bool>> = vec![None; n_links];

    for slot in 0..slots {
        membership.advance_to(slot);
        let layer = interleaver.next_layer();
        let mk = marker.marker(slot, layer);

        // Which links carry this packet: those with an effectively
        // subscribed downstream receiver. Draw loss once per carrying link
        // (the draw is what correlates the subtree).
        for j in 0..n_links {
            let sub = report.downstream[j]
                .iter()
                .any(|&r| membership.subscribed(r, layer));
            link_lost[j] = if sub {
                report.carried[j] += 1;
                Some(link_loss[j].sample(&mut link_rng[j]))
            } else {
                None
            };
        }

        for r in 0..n {
            let level = membership.requested_level(r);
            if layer <= level {
                report.offered[r] += 1;
            }
            if !(membership.wants(r, layer) && membership.subscribed(r, layer)) {
                continue;
            }
            // End-to-end fate: OR of the losses on the receiver's path.
            let rid = ReceiverId::new(0, r);
            let lost = net.route(rid).iter().any(|&l| link_lost[l.0] == Some(true));
            if lost {
                report.congestion_events[r] += 1;
            } else {
                report.delivered[r] += 1;
            }
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
    use crate::engine::NoMarkers;
    use crate::loss::LossProcess;
    use crate::tree;
    use mlf_net::topology::star_network;

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
    fn reference_matches_bitset_engine_on_a_small_tree() {
        let net = star_network(5, 1000.0, 1000.0);
        let cfg = TreeConfig {
            layer_rates: vec![1.0, 1.0, 2.0, 4.0, 8.0, 16.0],
            link_loss: vec![LossProcess::bursty_with_average(0.03, 4.0); net.link_count()],
            join_latency: 3,
            leave_latency: 11,
        };
        let mk = || vec![Pinned(4), Pinned(1), Pinned(6), Pinned(3), Pinned(2)];
        let reference = run_tree(&net, &cfg, &mut mk(), &mut NoMarkers, 20_000, 9);
        let bitset = tree::run_tree(&net, &cfg, &mut mk(), &mut NoMarkers, 20_000, 9)
            .expect("a valid tree run");
        assert_eq!(reference, bitset);
    }
}
