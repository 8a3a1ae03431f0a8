//! Star ↔ tree engine agreement: `run_tree` on a [`star_network`] must
//! reproduce `run_star`'s per-receiver counters exactly.
//!
//! The two engines model the same physics when the tree *is* the modified
//! star — link 0 the shared sender→hub link, link `r + 1` receiver `r`'s
//! fanout — but they are separate implementations with separate RNG
//! stream layouts (the star splits substreams per *receiver* plus one
//! shared stream; the tree splits per *link id*). The engines can
//! therefore only be compared bit-for-bit on loss processes that consume
//! **zero RNG draws**, which `SimRng::bernoulli` guarantees for `p ∈ {0, 1}`
//! (it short-circuits without advancing the stream). Two such regimes:
//!
//! * **Deterministic Bernoulli** (`p` 0 or 1 per link) under *arbitrary*
//!   join/leave latencies — fates are functions of the link alone, so the
//!   engines' different carried-link bookkeeping under latency (the tree
//!   samples a fanout link whenever the receiver is effectively
//!   subscribed, the star only when it also still wants the layer) cannot
//!   leak into the counters.
//! * **Deterministic periodic Gilbert–Elliott** (both transition
//!   probabilities 1, loss 0 in Good and 1 in Bad) at *zero* latency —
//!   the loss state advances exactly on the slots the link carries, and
//!   with zero latency the two engines' carried-slot sets coincide. One
//!   extra caveat applies on the fanouts: the star computes
//!   `lost_shared || fanout.sample(..)` with a short-circuit, so when the
//!   shared packet is already lost the star's fanout chain does *not*
//!   advance while the tree's does. Stateful fanout processes therefore
//!   stay in lockstep only under a lossless shared link.
//!
//! Within those regimes every per-receiver counter (`offered`,
//! `delivered`, `congestion_events`, `final_levels`) and the shared-link
//! carry count (`shared_carried` vs `carried[0]`) must agree exactly for
//! every protocol state machine.

use mlf_net::topology::star_network;
use mlf_net::LinkId;
use mlf_protocols::{CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::engine::{MarkerSource, NoMarkers, StarConfig};
use mlf_sim::tree::{run_tree, TreeConfig};
use mlf_sim::{run_star, LossProcess, SimRng, Tick};

const KINDS: [ProtocolKind; 3] = ProtocolKind::ALL;
const LATENCIES: [(Tick, Tick); 4] = [(0, 0), (0, 37), (19, 0), (11, 23)];

enum Markers {
    None(NoMarkers),
    Coordinated(CoordinatedSender),
}

impl MarkerSource for Markers {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        match self {
            Markers::None(m) => m.marker(slot, layer),
            Markers::Coordinated(m) => m.marker(slot, layer),
        }
    }
}

fn rig(
    kind: ProtocolKind,
    receivers: usize,
    layers: usize,
    seed: u64,
) -> (Vec<ProtocolReceiver>, Markers) {
    let base = SimRng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
    let controllers = (0..receivers)
        .map(|r| ProtocolReceiver::new(kind, base.split(1_000_000 + r as u64)))
        .collect();
    let markers = match kind {
        ProtocolKind::Coordinated => Markers::Coordinated(CoordinatedSender::new(layers)),
        _ => Markers::None(NoMarkers),
    };
    (controllers, markers)
}

/// Loss on every carried slot, then none, alternating — a Gilbert–Elliott
/// chain with certain transitions and certain per-state fates. Consumes no
/// RNG draws (all four probabilities short-circuit) but is *stateful*: the
/// pattern advances only on the slots the link actually carries.
fn periodic_loss() -> LossProcess {
    LossProcess::GilbertElliott {
        p_good_to_bad: 1.0,
        p_bad_to_good: 1.0,
        loss_good: 0.0,
        loss_bad: 1.0,
        in_bad: false,
    }
}

/// Run both engines on the same modified star and assert the per-receiver
/// counters and the shared-link carry count agree exactly.
#[allow(clippy::too_many_arguments)]
fn assert_star_tree_agree(
    label: &str,
    layers: usize,
    shared: LossProcess,
    fanout: Vec<LossProcess>,
    latencies: (Tick, Tick),
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
) {
    let n = fanout.len();
    let mut star_cfg = StarConfig::figure8(layers, n, 0.0, 0.0);
    star_cfg.shared_loss = shared.clone();
    star_cfg.fanout_loss = fanout.clone();
    let star_cfg = star_cfg.with_latencies(latencies.0, latencies.1);

    // star_network's link order is the star engine's implicit one: link 0
    // is the shared sender→hub link, link r+1 is receiver r's fanout.
    let net = star_network(n, 1000.0, 1000.0);
    let mut link_loss = Vec::with_capacity(n + 1);
    link_loss.push(shared);
    link_loss.extend(fanout);
    let tree_cfg = TreeConfig {
        layer_rates: star_cfg.layer_rates.clone(),
        link_loss,
        join_latency: latencies.0,
        leave_latency: latencies.1,
    };

    let (mut star_ctls, mut star_mk) = rig(kind, n, layers, seed);
    let star = run_star(&star_cfg, &mut star_ctls, &mut star_mk, slots, seed);
    let (mut tree_ctls, mut tree_mk) = rig(kind, n, layers, seed);
    let tree = run_tree(&net, &tree_cfg, &mut tree_ctls, &mut tree_mk, slots, seed)
        .expect("a valid tree run");

    assert_eq!(star.offered, tree.offered, "{label}: offered");
    assert_eq!(star.delivered, tree.delivered, "{label}: delivered");
    assert_eq!(
        star.congestion_events, tree.congestion_events,
        "{label}: congestion_events"
    );
    assert_eq!(
        star.final_levels, tree.final_levels,
        "{label}: final_levels"
    );
    assert_eq!(
        star.shared_carried,
        tree.carried[LinkId(0).0],
        "{label}: shared carry count"
    );
}

/// Deterministic Bernoulli mixes (per-link loss 0 or 1) under the full
/// latency grid: dead fanouts, a lossless path, and a dead shared link.
#[test]
fn deterministic_bernoulli_agrees_under_latency() {
    for kind in KINDS {
        for &(join, leave) in &LATENCIES {
            for (name, shared_p, dead_mask) in [
                ("lossless", 0.0, 0usize),
                ("dead fanouts", 0.0, 0b10101),
                ("dead shared", 1.0, 0b00110),
            ] {
                let n = 9;
                let fanout = (0..n)
                    .map(|r| {
                        LossProcess::bernoulli(if dead_mask >> (r % 5) & 1 == 1 {
                            1.0
                        } else {
                            0.0
                        })
                    })
                    .collect();
                assert_star_tree_agree(
                    &format!("{name} {} lat=({join},{leave})", kind.label()),
                    6,
                    LossProcess::bernoulli(shared_p),
                    fanout,
                    (join, leave),
                    kind,
                    12_000,
                    0xA11CE ^ join ^ (leave << 8),
                );
            }
        }
    }
}

/// Stateful-but-drawless periodic loss at zero latency: the carried-slot
/// sets coincide, so the Gilbert–Elliott chains stay in lockstep even
/// though they live in differently-split RNG worlds.
#[test]
fn periodic_gilbert_elliott_agrees_at_zero_latency() {
    for kind in KINDS {
        for (name, shared, periodic_mask, dead_mask) in [
            // Stateful fanouts need a lossless shared link (see module
            // docs): the star's short-circuited fanout draw would
            // otherwise freeze its chains on shared-loss slots.
            ("periodic shared", periodic_loss(), 0usize, 0usize),
            ("periodic fanouts", LossProcess::bernoulli(0.0), 0b01101, 0),
            ("periodic shared, dead fanouts", periodic_loss(), 0, 0b10010),
        ] {
            let n = 11;
            let fanout = (0..n)
                .map(|r| {
                    if periodic_mask >> (r % 5) & 1 == 1 {
                        periodic_loss()
                    } else if dead_mask >> (r % 5) & 1 == 1 {
                        LossProcess::bernoulli(1.0)
                    } else {
                        LossProcess::bernoulli(0.0)
                    }
                })
                .collect();
            assert_star_tree_agree(
                &format!("{name} {}", kind.label()),
                8,
                shared,
                fanout,
                (0, 0),
                kind,
                12_000,
                0xB0B,
            );
        }
    }
}
