//! Benchmarks the per-link bitset tree engine tentpole at six-figure
//! scale: a complete 10-ary tree of depth 5 (100,000 leaf receivers,
//! 111,110 links, one multi-rate session) with an 8-layer exponential
//! ladder, bitset engine versus the frozen pre-bitset reference
//! (`mlf_sim::reference_tree`).
//!
//! Three things happen, in order:
//!
//! 1. **Correctness, always**: every protocol's bitset run is asserted
//!    bitwise identical (whole `TreeReport`) to the reference run on a
//!    moderate 4-ary depth-4 tree (256 receivers) before any timing — an
//!    engine-determinism regression fails the bench run itself, which is
//!    why CI executes this bench. (The workspace differential covers the
//!    same claim across random shapes; this is the bench-shaped pin.)
//! 2. **Throughput artifact + speedup floor**: the bitset engine is timed
//!    best-of-three over all three protocols at the full 10⁵-receiver
//!    scale and written as `BENCH_tree_engine.json` (the gated "points"
//!    are slots; the metric is slots/second), then the reference is timed
//!    the same way at a reduced slot budget — it is O(links × downstream)
//!    per slot — and the bitset engine is asserted **≥ 5x** faster, the
//!    tentpole's acceptance bar (measured orders of magnitude beyond it).
//! 3. **Criterion sampling**: per-protocol bitset-vs-reference samples at
//!    the moderate scale — skipped when `MLF_BENCH_CHECK=1` (CI check
//!    mode), where the determinism assert, the artifact, and the 5x floor
//!    are the point.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_net::{Graph, Network, Session};
use mlf_protocols::{CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::engine::{MarkerSource, NoMarkers};
use mlf_sim::tree::{run_tree_into, TreeConfig, TreeReport, TreeScratch};
use mlf_sim::{reference_tree, LossProcess, SimRng, Tick};
use std::hint::black_box;

const LAYERS: usize = 8;
const SEED: u64 = 0x51_66_C0_99;

/// Full-scale shape: 10-ary, depth 5 → 10⁵ leaf receivers.
const BIG_ARITY: usize = 10;
const BIG_DEPTH: usize = 5;
const BIG_SLOTS: u64 = 16_384;
/// The reference at full scale costs ~10⁶ receiver/route checks per slot;
/// a reduced budget keeps its best-of-three timing to seconds.
const BIG_REF_SLOTS: u64 = 128;

/// Moderate shape for the always-on bitwise assert and criterion samples.
const MID_ARITY: usize = 4;
const MID_DEPTH: usize = 4;
const MID_SLOTS: u64 = 20_000;

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

/// A complete `arity`-ary tree of the given depth with every leaf a
/// receiver. `Network::new` routes all 10⁵ leaves at full scale from one
/// BFS tree of the sender.
fn leaf_tree(arity: usize, depth: usize) -> Network {
    let mut g = Graph::new();
    let root = g.add_node();
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * arity);
        for &p in &frontier {
            for _ in 0..arity {
                let c = g.add_node();
                g.add_link(p, c, 1e6).expect("fresh link");
                next.push(c);
            }
        }
        frontier = next;
    }
    Network::new(g, vec![Session::multi_rate(root, frontier)]).expect("a tree routes every leaf")
}

fn config(net: &Network) -> TreeConfig {
    TreeConfig {
        layer_rates: (0..LAYERS)
            .map(|i| {
                if i == 0 {
                    1.0
                } else {
                    (1u64 << (i - 1)) as f64
                }
            })
            .collect(),
        link_loss: vec![LossProcess::bernoulli(0.03); net.link_count()],
        join_latency: 0,
        leave_latency: 0,
    }
}

fn receivers_of(net: &Network) -> usize {
    net.session(mlf_net::SessionId(0)).receivers.len()
}

fn rig(kind: ProtocolKind, receivers: usize) -> (Vec<ProtocolReceiver>, Markers) {
    let base = SimRng::seed_from_u64(SEED ^ 0xABCD_EF01_2345_6789);
    let controllers = (0..receivers)
        .map(|r| ProtocolReceiver::new(kind, base.split(1_000_000 + r as u64)))
        .collect();
    let markers = match kind {
        ProtocolKind::Coordinated => Markers::Coordinated(CoordinatedSender::new(LAYERS)),
        _ => Markers::None(NoMarkers),
    };
    (controllers, markers)
}

/// One bitset run through reusable scratch (the production trial path).
fn run_bitset(
    net: &Network,
    cfg: &TreeConfig,
    kind: ProtocolKind,
    slots: u64,
    report: &mut TreeReport,
    scratch: &mut TreeScratch,
) {
    let (mut ctls, mut mk) = rig(kind, receivers_of(net));
    run_tree_into(net, cfg, &mut ctls, &mut mk, slots, SEED, report, scratch)
        .expect("bench configuration is valid");
}

fn run_reference(net: &Network, cfg: &TreeConfig, kind: ProtocolKind, slots: u64) -> TreeReport {
    let (mut ctls, mut mk) = rig(kind, receivers_of(net));
    reference_tree::run_tree(net, cfg, &mut ctls, &mut mk, slots, SEED)
}

fn assert_engines_agree(net: &Network, cfg: &TreeConfig) {
    let mut report = TreeReport::empty();
    let mut scratch = TreeScratch::default();
    for kind in ProtocolKind::ALL {
        run_bitset(net, cfg, kind, MID_SLOTS, &mut report, &mut scratch);
        let reference = run_reference(net, cfg, kind, MID_SLOTS);
        assert_eq!(
            report,
            reference,
            "bitset engine diverged from reference for {}",
            kind.label()
        );
    }
    println!(
        "determinism: bitset engine bitwise-identical to reference across all 3 protocols \
         at {} receivers x {MID_SLOTS} slots",
        receivers_of(net)
    );
}

fn bench_tree_engine(c: &mut Criterion) {
    let mid = leaf_tree(MID_ARITY, MID_DEPTH);
    let mid_cfg = config(&mid);
    assert_engines_agree(&mid, &mid_cfg);

    let big = leaf_tree(BIG_ARITY, BIG_DEPTH);
    let big_cfg = config(&big);
    println!(
        "big tree: {} receivers, {} links",
        receivers_of(&big),
        big.link_count()
    );

    // Gated throughput: total slots across the three protocols per pass of
    // the bitset engine (scratch reused, as in a trial loop).
    let total_slots = BIG_SLOTS * ProtocolKind::ALL.len() as u64;
    let bitset = or_exit(measure_and_emit(
        "tree_engine",
        total_slots,
        "slots",
        "serial",
        || {
            let mut report = TreeReport::empty();
            let mut scratch = TreeScratch::default();
            let mut sum = 0usize;
            for kind in ProtocolKind::ALL {
                run_bitset(&big, &big_cfg, kind, BIG_SLOTS, &mut report, &mut scratch);
                sum += report.final_levels.len();
            }
            black_box(sum)
        },
    ));
    let bitset_sps = total_slots as f64 / bitset.as_secs_f64();

    let ref_total_slots = BIG_REF_SLOTS * ProtocolKind::ALL.len() as u64;
    let cold = time_best_of_three(|| {
        ProtocolKind::ALL
            .iter()
            .map(|&kind| {
                run_reference(&big, &big_cfg, kind, BIG_REF_SLOTS)
                    .final_levels
                    .len()
            })
            .sum()
    });
    let cold_sps = ref_total_slots as f64 / cold.as_secs_f64();
    let speedup = bitset_sps / cold_sps;
    println!(
        "tree engine: bitset {bitset_sps:.0} slots/s vs reference {cold_sps:.0} slots/s \
         ({speedup:.1}x; bitset {bitset:?} over {total_slots} slots, \
         reference {cold:?} over {ref_total_slots} slots)"
    );
    assert!(
        speedup >= 5.0,
        "bitset tree engine must be >= 5x the reference at 1e5 receivers, got {speedup:.1}x"
    );

    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping criterion sampling");
        return;
    }

    // Criterion samples at the moderate scale (the reference would take
    // minutes per sample at 10⁵ receivers).
    let mut group = c.benchmark_group("sim/tree_engine_kary");
    let bitset_slots = 10_000u64;
    let reference_slots = 1_000u64;
    for kind in ProtocolKind::ALL {
        group.bench_function(format!("bitset_{}", kind.label()), |b| {
            let mut report = TreeReport::empty();
            let mut scratch = TreeScratch::default();
            b.iter(|| {
                run_bitset(
                    &mid,
                    &mid_cfg,
                    kind,
                    bitset_slots,
                    &mut report,
                    &mut scratch,
                );
                black_box(report.carried[0])
            })
        });
        group.bench_function(format!("reference_{}", kind.label()), |b| {
            b.iter(|| black_box(run_reference(&mid, &mid_cfg, kind, reference_slots).carried[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tree_engine);
criterion_main!(benches);
