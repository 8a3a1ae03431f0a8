//! Benchmarks the level-indexed star engine tentpole at paper scale: the
//! Figure 8 star (8 layers, 100 receivers, shared loss 1e-4, independent
//! loss 0.05) for 500k slots per protocol, indexed engine versus the frozen
//! pre-index reference (`mlf_sim::reference`).
//!
//! Three things happen, in order:
//!
//! 1. **Correctness, always**: every protocol's indexed run is asserted
//!    bitwise identical (whole `StarReport`) to the reference run before
//!    any timing — an engine-determinism regression fails the bench run
//!    itself, which is why CI executes this bench. A second leg repeats
//!    the check at independent loss 0, where receivers on lossless lanes
//!    are parked as quiet and their deliveries settled lazily, and both
//!    legs run again under Section 5's (16, 64) graft/prune latencies,
//!    where membership changes wait in the table's FIFO lanes; the timed
//!    configuration stays the lossy zero-latency one.
//! 2. **Throughput artifact + speedup floor**: the indexed engine is timed
//!    best-of-three over all three protocols and written as
//!    `BENCH_star_engine.json` (the gated "points" are slots; the metric is
//!    slots/second), then the reference is timed the same way and the
//!    indexed engine is asserted **≥ 3x** faster — the tentpole's
//!    acceptance bar (measured ~5–13x depending on protocol).
//! 3. **Criterion sampling**: per-protocol indexed-vs-reference samples —
//!    skipped when `MLF_BENCH_CHECK=1` (CI check mode), where the
//!    determinism assert, the artifact, and the 3x floor are the point.

use criterion::{criterion_group, criterion_main, Criterion};
use mlf_bench::or_exit;
use mlf_bench::regression::{check_mode, measure_and_emit, time_best_of_three};
use mlf_protocols::{CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::engine::{MarkerSource, NoMarkers, StarConfig, StarReport};
use mlf_sim::{reference, run_star_into, SimRng, StarScratch, Tick};
use std::hint::black_box;

const RECEIVERS: usize = 100;
const LAYERS: usize = 8;
const SLOTS: u64 = 500_000;
const SEED: u64 = 0x51_66_C0_99;
/// Section 5's graft and prune latencies, as Figure 8's grid runs them.
const LATENCIES: (Tick, Tick) = (16, 64);

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

fn paper_config() -> StarConfig {
    StarConfig::figure8(LAYERS, RECEIVERS, 0.0001, 0.05)
}

/// The paper star with lossless fanout links: Figure 8's first loss point.
fn lossless_config() -> StarConfig {
    StarConfig::figure8(LAYERS, RECEIVERS, 0.0001, 0.0)
}

/// Controllers and marker source exactly as the Figure 8 `TrialRig` wires
/// them.
fn rig(kind: ProtocolKind) -> (Vec<ProtocolReceiver>, Markers) {
    let base = SimRng::seed_from_u64(SEED ^ 0xABCD_EF01_2345_6789);
    let controllers = (0..RECEIVERS)
        .map(|r| ProtocolReceiver::new(kind, base.split(1_000_000 + r as u64)))
        .collect();
    let markers = match kind {
        ProtocolKind::Coordinated => Markers::Coordinated(CoordinatedSender::new(LAYERS)),
        _ => Markers::None(NoMarkers),
    };
    (controllers, markers)
}

/// One indexed run through reusable scratch (the production trial path).
fn run_indexed(
    cfg: &StarConfig,
    kind: ProtocolKind,
    slots: u64,
    report: &mut StarReport,
    scratch: &mut StarScratch,
) {
    let (mut ctls, mut mk) = rig(kind);
    run_star_into(cfg, &mut ctls, &mut mk, slots, SEED, report, scratch);
}

fn run_reference(cfg: &StarConfig, kind: ProtocolKind, slots: u64) -> StarReport {
    let (mut ctls, mut mk) = rig(kind);
    reference::run_star(cfg, &mut ctls, &mut mk, slots, SEED)
}

fn assert_engines_agree(cfg: &StarConfig, label: &str) {
    let mut report = StarReport::default();
    let mut scratch = StarScratch::default();
    for kind in ProtocolKind::ALL {
        run_indexed(cfg, kind, SLOTS, &mut report, &mut scratch);
        let reference = run_reference(cfg, kind, SLOTS);
        assert_eq!(
            report,
            reference,
            "indexed engine diverged from reference for {} ({label})",
            kind.label()
        );
    }
    println!(
        "determinism ({label}): indexed engine bitwise-identical to reference across all 3 \
         protocols at {RECEIVERS} receivers x {SLOTS} slots"
    );
}

fn bench_star_engine(c: &mut Criterion) {
    let cfg = paper_config();
    assert_engines_agree(&cfg, "independent loss 0.05");
    assert_engines_agree(&lossless_config(), "independent loss 0");
    let (join, leave) = LATENCIES;
    assert_engines_agree(
        &cfg.clone().with_latencies(join, leave),
        "independent loss 0.05, latencies (16, 64)",
    );
    assert_engines_agree(
        &lossless_config().with_latencies(join, leave),
        "independent loss 0, latencies (16, 64)",
    );

    // Gated throughput: total slots across the three protocols per pass of
    // the indexed engine (scratch reused, as in a trial loop).
    let total_slots = SLOTS * ProtocolKind::ALL.len() as u64;
    let indexed = or_exit(measure_and_emit(
        "star_engine",
        total_slots,
        "slots",
        "serial",
        || {
            let mut report = StarReport::default();
            let mut scratch = StarScratch::default();
            let mut sum = 0usize;
            for kind in ProtocolKind::ALL {
                run_indexed(&cfg, kind, SLOTS, &mut report, &mut scratch);
                sum += report.final_levels.len();
            }
            black_box(sum)
        },
    ));
    let indexed_sps = total_slots as f64 / indexed.as_secs_f64();

    let cold = time_best_of_three(|| {
        ProtocolKind::ALL
            .iter()
            .map(|&kind| run_reference(&cfg, kind, SLOTS).final_levels.len())
            .sum()
    });
    let cold_sps = total_slots as f64 / cold.as_secs_f64();
    let speedup = indexed_sps / cold_sps;
    println!(
        "star engine: indexed {indexed_sps:.0} slots/s vs reference {cold_sps:.0} slots/s \
         ({speedup:.2}x; indexed {indexed:?}, reference {cold:?} over {total_slots} slots)"
    );
    assert!(
        speedup >= 3.0,
        "level-indexed engine must be >= 3x the reference at paper scale, got {speedup:.2}x"
    );

    if check_mode() {
        println!("MLF_BENCH_CHECK=1: skipping criterion sampling");
        return;
    }

    // Criterion samples at a reduced slot budget per protocol.
    let mut group = c.benchmark_group("sim/star_engine_paper_scale");
    let sample_slots = 50_000u64;
    for kind in ProtocolKind::ALL {
        group.bench_function(format!("indexed_{}", kind.label()), |b| {
            let mut report = StarReport::default();
            let mut scratch = StarScratch::default();
            b.iter(|| {
                run_indexed(&cfg, kind, sample_slots, &mut report, &mut scratch);
                black_box(report.shared_carried)
            })
        });
        group.bench_function(format!("reference_{}", kind.label()), |b| {
            b.iter(|| black_box(run_reference(&cfg, kind, sample_slots).shared_carried))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_star_engine);
criterion_main!(benches);
