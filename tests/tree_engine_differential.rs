//! Differential: the per-link bitset tree engine is **bitwise identical**
//! to the frozen pre-bitset reference (`mlf_sim::reference_tree`).
//!
//! The bitset engine replaces the reference's per-slot scan of every
//! link's downstream receiver set and its full `0..n` receiver loop (with
//! a per-receiver route re-scan for the end-to-end loss fate) with the
//! carrying-link rows of `LinkLevelIndex` (crate-private, in
//! `crates/sim/src/index.rs`), a single parents-first
//! path-loss sweep, word-at-a-time delivery walks and lazy `offered`
//! settlement. Its contract is that every produced bit of the
//! [`TreeReport`] — `carried`, `offered`, `delivered`,
//! `congestion_events`, `final_levels`, `downstream` — matches the old
//! scans, including every RNG draw (one private substream per link,
//! sampled exactly on the slots the link carries).
//!
//! These tests drive that claim across three topology families (stars,
//! complete k-ary trees with leaf receivers, random trees with receivers
//! at mixed depths) × all three `ProtocolKind` state machines × Bernoulli
//! and Gilbert–Elliott per-link loss × zero and nonzero join/leave
//! latencies.

use mlf_net::topology::{kary_tree, random_tree, star_network};
use mlf_net::{Network, NodeId, Session};
use mlf_protocols::{CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::engine::{MarkerSource, NoMarkers};
use mlf_sim::tree::{run_tree_expect, run_tree_into, TreeConfig, TreeReport, TreeScratch};
use mlf_sim::{reference_tree, LossProcess, SimRng, Tick};
use proptest::prelude::*;

const KINDS: [ProtocolKind; 3] = ProtocolKind::ALL;

/// The latency grid of the differential: the paper's idealized zero pair
/// plus join-only, leave-only and mixed nonzero latencies.
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

/// Controllers and marker source exactly as the bench rigs wire them:
/// per-receiver RNG substreams split off one trial base.
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

/// The three tree families of the differential. Every shape routes one
/// multi-rate session from a root sender; what varies is where the
/// receivers sit (fanout leaves, uniform-depth leaves, mixed depths).
fn topology(shape_ix: usize, size: usize, seed: u64) -> Network {
    match shape_ix {
        // Star: every receiver one shared + one fanout link deep.
        0 => star_network(size.clamp(1, 64), 1000.0, 1000.0),
        // Complete k-ary tree, receivers on all the deepest leaves.
        1 => {
            let arity = 2 + size % 3; // 2..=4
            let depth = 2 + size % 2; // 2..=3
            let (g, root, levels) = kary_tree(depth, arity, |_| 1000.0).unwrap();
            let leaves = levels[depth].clone();
            Network::new(g, vec![Session::multi_rate(root, leaves)]).expect("kary tree is routable")
        }
        // Random tree, receivers scattered across interior and leaf nodes
        // at mixed depths (every other non-root node).
        _ => {
            let nodes = (size.clamp(2, 48)) + 2;
            let g = random_tree(seed, nodes, 500.0, 1500.0).unwrap();
            let receivers: Vec<NodeId> = (1..nodes).step_by(2).map(NodeId).collect();
            Network::new(g, vec![Session::multi_rate(NodeId(0), receivers)])
                .expect("random tree is routable")
        }
    }
}

/// Per-link loss mix: alternate Bernoulli and Gilbert–Elliott processes
/// along the link index so both kinds appear in one run, with the rate
/// perturbed per link so no two links share a process verbatim.
fn link_loss_mix(n_links: usize, p: f64, bursty_mask: usize) -> Vec<LossProcess> {
    (0..n_links)
        .map(|j| {
            let pj = (p * (1.0 + 0.1 * (j % 5) as f64)).min(0.2);
            if (j + bursty_mask) % 2 == 0 {
                LossProcess::bursty_with_average(pj, 6.0)
            } else {
                LossProcess::bernoulli(pj)
            }
        })
        .collect()
}

fn config(
    net: &Network,
    layers: usize,
    p: f64,
    bursty_mask: usize,
    lat: (Tick, Tick),
) -> TreeConfig {
    TreeConfig {
        layer_rates: (0..layers)
            .map(|i| {
                if i == 0 {
                    1.0
                } else {
                    (1u64 << (i - 1)) as f64
                }
            })
            .collect(),
        link_loss: link_loss_mix(net.link_count(), p, bursty_mask),
        join_latency: lat.0,
        leave_latency: lat.1,
    }
}

fn receivers_of(net: &Network) -> usize {
    net.session(mlf_net::SessionId(0)).receivers.len()
}

fn run_bitset(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
) -> TreeReport {
    let (mut ctls, mut mk) = rig(kind, receivers_of(net), cfg.layer_rates.len(), seed);
    run_tree_expect(net, cfg, &mut ctls, &mut mk, slots, seed)
}

fn run_reference(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
) -> TreeReport {
    let (mut ctls, mut mk) = rig(kind, receivers_of(net), cfg.layer_rates.len(), seed);
    reference_tree::run_tree(net, cfg, &mut ctls, &mut mk, slots, seed)
}

/// Every counter and final level must agree exactly; `TreeReport` is all
/// integers, so `==` is the bit-level comparison.
fn assert_reports_identical(label: &str, bitset: &TreeReport, reference: &TreeReport) {
    assert_eq!(bitset.slots, reference.slots, "{label}: slots");
    assert_eq!(bitset.carried, reference.carried, "{label}: carried");
    assert_eq!(bitset.offered, reference.offered, "{label}: offered");
    assert_eq!(bitset.delivered, reference.delivered, "{label}: delivered");
    assert_eq!(
        bitset.congestion_events, reference.congestion_events,
        "{label}: congestion_events"
    );
    assert_eq!(
        bitset.final_levels, reference.final_levels,
        "{label}: final_levels"
    );
    assert_eq!(
        bitset.downstream, reference.downstream,
        "{label}: downstream"
    );
    // Belt and braces: the derived whole-report equality agrees too.
    assert_eq!(bitset, reference, "{label}: whole report");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline differential: random tree shapes, protocols, per-link
    /// loss mixes and latencies; the bitset and reference engines must
    /// produce bitwise-identical reports.
    #[test]
    fn bitset_engine_matches_reference(
        shape_ix in 0usize..3,
        size in 1usize..40,
        layers in 2usize..9,
        kind_ix in 0usize..3,
        bursty_mask in 0usize..2,
        latency_ix in 0usize..4,
        p in 0.0f64..0.08,
        seed in any::<u64>(),
    ) {
        let net = topology(shape_ix, size, seed);
        let kind = KINDS[kind_ix];
        let cfg = config(&net, layers, p, bursty_mask, LATENCIES[latency_ix]);
        let slots = 2_500;
        let bitset = run_bitset(&net, &cfg, kind, slots, seed);
        let reference = run_reference(&net, &cfg, kind, slots, seed);
        assert_reports_identical(
            &format!(
                "shape={shape_ix} n={} m={layers} {} lat={:?}",
                receivers_of(&net),
                kind.label(),
                LATENCIES[latency_ix]
            ),
            &bitset,
            &reference,
        );
    }

    /// Scratch reuse across back-to-back trials of *different* tree shapes
    /// must not leak state: each `run_tree_into` through one shared scratch
    /// and report buffer equals a fresh `reference_tree` run of the same
    /// trial.
    #[test]
    fn reused_scratch_matches_fresh_reference_runs(
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
        size_a in 1usize..24,
        size_b in 1usize..40,
        latency_ix in 0usize..4,
        p in 0.0f64..0.08,
    ) {
        let mut scratch = TreeScratch::default();
        let mut report = TreeReport::empty();
        for (t, &seed) in seeds.iter().enumerate() {
            // Alternate shapes so the scratch's membership/index buffers
            // must genuinely re-size, not just re-zero.
            let (shape_ix, size, layers) = if t % 2 == 0 {
                (t % 3, size_a, 8)
            } else {
                ((t + 1) % 3, size_b, 4)
            };
            let net = topology(shape_ix, size, seed);
            let kind = KINDS[(t + seeds.len()) % 3];
            let cfg = config(&net, layers, p, t % 2, LATENCIES[latency_ix]);
            let (mut ctls, mut mk) = rig(kind, receivers_of(&net), layers, seed);
            run_tree_into(&net, &cfg, &mut ctls, &mut mk, 2_000, seed, &mut report, &mut scratch)
                .expect("valid differential configuration");
            let reference = run_reference(&net, &cfg, kind, 2_000, seed);
            assert_reports_identical(
                &format!("trial {t} shape={shape_ix} ({})", kind.label()),
                &report,
                &reference,
            );
        }
    }
}

/// Pinned bench-shaped case (all three protocols on a 4-ary depth-4 tree
/// at the bench loss mix): the exact moderate-scale workload the tree
/// bench re-asserts before timing, at a test-sized slot budget.
#[test]
fn bench_shape_agrees_for_every_protocol() {
    let (g, root, levels) = kary_tree(4, 4, |_| 1000.0).unwrap();
    let leaves = levels[4].clone();
    let net = Network::new(g, vec![Session::multi_rate(root, leaves)]).expect("kary tree");
    for kind in KINDS {
        for &(join, leave) in &LATENCIES {
            let cfg = config(&net, 8, 0.03, 0, (join, leave));
            let bitset = run_bitset(&net, &cfg, kind, 4_000, 0x51_66_C0_99);
            let reference = run_reference(&net, &cfg, kind, 4_000, 0x51_66_C0_99);
            assert_reports_identical(
                &format!("bench {} lat=({join},{leave})", kind.label()),
                &bitset,
                &reference,
            );
        }
    }
}
