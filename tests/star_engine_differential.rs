//! Differential: the level-indexed star engine is **bitwise identical** to
//! the frozen pre-index reference (`mlf_sim::reference`).
//!
//! The indexed engine replaces the reference's two full per-slot receiver
//! loops (requested-level accounting + delivery) and O(n)
//! `max_effective_level` scan with the level-bucketed subscriber index and
//! lazy event-time settlement; its contract is that every produced bit of
//! the [`StarReport`] — `shared_carried`, `offered`, `delivered`,
//! `congestion_events`, `level_slot_sum`, `final_levels` — matches the old
//! scans. These tests drive that claim across all three `ProtocolKind`
//! state machines × Bernoulli and Gilbert–Elliott loss (shared and fanout)
//! × zero and nonzero join/leave latencies × receiver counts 1..128, with
//! the controller/marker wiring the Figure 8 harness uses.
//!
//! The same grid also pins the controller dispatch: the statically
//! dispatched `ProtocolReceiver` enum the harness runs and the boxed
//! `make_receiver` controllers give identical reports and identical
//! [`StarCounters`].
//!
//! Receivers on lossless fanout links whose controllers promise quiet
//! packets are parked and their clean, marker-free deliveries settled
//! lazily. An exact zero independent loss in a third of the random cases,
//! stars mixing lossless and lossy lanes, fleets mixing quiet controllers
//! with ones that never opt in, and the lossless paper-shape cells cover
//! that path; a counting wrapper checks that the skipped `on_packet`
//! calls are exactly the counted quiet deliveries. Uncoordinated receivers
//! also park below the top layer, on budgets looked up in their own coin
//! streams; a count pins that the lossless paper-shape cell leaves fewer
//! than 1% of its visits to `on_packet`.
//!
//! The indexed engine replays its layer schedule from a table of one
//! period (or, for rates whose schedule has no short period, from tables it
//! refills as the run goes) and skips all per-slot work on slots the shared
//! link does not carry. Rate vectors with no short period, a single-layer
//! star and a recording `MarkerSource` cover those paths: the sender must
//! still see exactly one `marker` call per slot, in slot order, with the
//! interleaver's layer.

use mlf_protocols::{make_receiver, CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::engine::{
    Action, LayerInterleaver, MarkerSource, NoMarkers, PacketEvent, ReceiverController, StarConfig,
    StarReport,
};
use mlf_sim::{
    reference, run_star, run_star_into, LossProcess, SimRng, StarCounters, StarScratch, Tick,
};
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

/// One controller per receiver, each on the RNG substream the Figure 8
/// `TrialRig` gives it, built by `make` (the enum or its boxed form).
fn controllers<C>(
    kind: ProtocolKind,
    receivers: usize,
    seed: u64,
    make: impl Fn(ProtocolKind, SimRng) -> C,
) -> Vec<C> {
    let base = SimRng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
    (0..receivers)
        .map(|r| make(kind, base.split(1_000_000 + r as u64)))
        .collect()
}

/// Controllers and marker source exactly as the Figure 8 `TrialRig` wires
/// them: per-receiver RNG substreams split off one trial base.
fn rig(
    kind: ProtocolKind,
    receivers: usize,
    layers: usize,
    seed: u64,
) -> (Vec<ProtocolReceiver>, Markers) {
    (
        controllers(kind, receivers, seed, ProtocolReceiver::new),
        markers(kind, layers),
    )
}

/// The sender side: coordination markers for the Coordinated protocol.
fn markers(kind: ProtocolKind, layers: usize) -> Markers {
    match kind {
        ProtocolKind::Coordinated => Markers::Coordinated(CoordinatedSender::new(layers)),
        _ => Markers::None(NoMarkers),
    }
}

/// An independent (fanout) loss probability: exactly 0 — a lossless lane,
/// where receivers park — in about a third of the cases, else uniform.
fn independent_loss() -> impl Strategy<Value = f64> {
    (0u8..3, 0.0f64..0.08).prop_map(|(pick, p)| if pick == 0 { 0.0 } else { p })
}

/// Forwards every call to `inner` and counts its `on_packet` calls. With
/// `quiet` off it keeps the trait's defaults, as a controller that never
/// opts in to quiet packets does.
struct Counting<C> {
    inner: C,
    quiet: bool,
    calls: u64,
}

impl<C: ReceiverController> ReceiverController for Counting<C> {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        self.calls += 1;
        self.inner.on_packet(ev)
    }

    fn quiet_packets(&self, level: usize, layer_count: usize) -> u64 {
        if self.quiet {
            self.inner.quiet_packets(level, layer_count)
        } else {
            0
        }
    }

    fn skip_quiet(&mut self, n: u64, level: usize, layer_count: usize) {
        self.inner.skip_quiet(n, level, layer_count);
    }
}

/// A controller that walks to a fixed level and stays there, keeping the
/// trait's never-quiet defaults.
struct Pinned(usize);

impl ReceiverController for Pinned {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        match ev.level.cmp(&self.0) {
            std::cmp::Ordering::Less => Action::JoinUp,
            std::cmp::Ordering::Equal => Action::Stay,
            std::cmp::Ordering::Greater => Action::LeaveDown,
        }
    }
}

/// A boxed fleet on `kind`'s RNG substreams: receivers `3k` run `kind` as
/// `make_receiver` boxes it (quiet where it promises), receivers `3k+1`
/// run it behind a wrapper that keeps the never-quiet defaults, and
/// receivers `3k+2` are [`Pinned`] walkers.
fn mixed_fleet(
    kind: ProtocolKind,
    receivers: usize,
    layers: usize,
    seed: u64,
) -> Vec<Box<dyn ReceiverController>> {
    controllers(kind, receivers, seed, make_receiver)
        .into_iter()
        .enumerate()
        .map(|(r, ctl)| -> Box<dyn ReceiverController> {
            match r % 3 {
                0 => ctl,
                1 => Box::new(Counting {
                    inner: ctl,
                    quiet: false,
                    calls: 0,
                }),
                _ => Box::new(Pinned(1 + r % layers)),
            }
        })
        .collect()
}

fn loss(bursty: bool, p: f64) -> LossProcess {
    if bursty {
        LossProcess::bursty_with_average(p, 6.0)
    } else {
        LossProcess::bernoulli(p)
    }
}

fn config(
    layers: usize,
    receivers: usize,
    shared: LossProcess,
    fanout: LossProcess,
    latencies: (Tick, Tick),
) -> StarConfig {
    let mut cfg = StarConfig::figure8(layers, receivers, 0.0, 0.0);
    cfg.shared_loss = shared;
    cfg.fanout_loss = vec![fanout; receivers];
    cfg.with_latencies(latencies.0, latencies.1)
}

fn run_indexed(cfg: &StarConfig, kind: ProtocolKind, slots: u64, seed: u64) -> StarReport {
    let (mut ctls, mut mk) = rig(kind, cfg.receiver_count(), cfg.layer_count(), seed);
    run_star(cfg, &mut ctls, &mut mk, slots, seed)
}

/// One indexed run on a fresh scratch with the controllers `make` builds
/// (the enum or its boxed form); returns the report and the run's counters.
fn run_fresh<C: ReceiverController>(
    cfg: &StarConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
    make: impl Fn(ProtocolKind, SimRng) -> C,
) -> (StarReport, StarCounters) {
    let mut ctls = controllers(kind, cfg.receiver_count(), seed, make);
    let mut mk = markers(kind, cfg.layer_count());
    let mut report = StarReport::default();
    let mut scratch = StarScratch::default();
    run_star_into(
        cfg,
        &mut ctls,
        &mut mk,
        slots,
        seed,
        &mut report,
        &mut scratch,
    );
    (report, scratch.counters())
}

fn run_reference(cfg: &StarConfig, kind: ProtocolKind, slots: u64, seed: u64) -> StarReport {
    let (mut ctls, mut mk) = rig(kind, cfg.receiver_count(), cfg.layer_count(), seed);
    reference::run_star(cfg, &mut ctls, &mut mk, slots, seed)
}

/// A marker source that records every call it gets, in order, and passes
/// it on to the harness's sender.
struct Recording {
    inner: Markers,
    calls: Vec<(Tick, usize)>,
}

impl MarkerSource for Recording {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        self.calls.push((slot, layer));
        self.inner.marker(slot, layer)
    }
}

/// Run both engines with a recording sender; return each engine's report
/// and its sender's call log.
fn run_recorded(
    cfg: &StarConfig,
    kind: ProtocolKind,
    slots: u64,
    seed: u64,
) -> [(StarReport, Vec<(Tick, usize)>); 2] {
    let recorded = |reference_engine: bool| {
        let (mut ctls, inner) = rig(kind, cfg.receiver_count(), cfg.layer_count(), seed);
        let mut mk = Recording {
            inner,
            calls: Vec::new(),
        };
        let report = if reference_engine {
            reference::run_star(cfg, &mut ctls, &mut mk, slots, seed)
        } else {
            run_star(cfg, &mut ctls, &mut mk, slots, seed)
        };
        (report, mk.calls)
    };
    [recorded(false), recorded(true)]
}

/// The star of `config` on layers of the given `rates` instead of the
/// exponential schedule.
fn with_rates(rates: &[f64], cfg: StarConfig) -> StarConfig {
    StarConfig {
        layer_rates: rates.to_vec(),
        ..cfg
    }
}

/// Rate vectors whose interleaver credits never return exactly to zero, so
/// the indexed engine's schedule table refills instead of replaying.
const UNPERIODIC_RATES: [&[f64]; 2] = [&[1.0, 0.3, 2.7], &[0.1, 0.2, 0.7]];

/// Every counter and final level must agree exactly; `StarReport` is all
/// integers, so `==` is the bit-level comparison.
fn assert_reports_identical(label: &str, indexed: &StarReport, reference: &StarReport) {
    assert_eq!(indexed.slots, reference.slots, "{label}: slots");
    assert_eq!(
        indexed.shared_carried, reference.shared_carried,
        "{label}: shared_carried"
    );
    assert_eq!(indexed.offered, reference.offered, "{label}: offered");
    assert_eq!(indexed.delivered, reference.delivered, "{label}: delivered");
    assert_eq!(
        indexed.congestion_events, reference.congestion_events,
        "{label}: congestion_events"
    );
    assert_eq!(
        indexed.level_slot_sum, reference.level_slot_sum,
        "{label}: level_slot_sum"
    );
    assert_eq!(
        indexed.final_levels, reference.final_levels,
        "{label}: final_levels"
    );
    // Belt and braces: the derived whole-report equality agrees too.
    assert_eq!(indexed, reference, "{label}: whole report");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline differential: random star shapes, protocols, loss
    /// processes and latencies; the indexed and reference engines must
    /// produce bitwise-identical reports.
    #[test]
    fn indexed_engine_matches_reference(
        receivers in 1usize..128,
        layers in 2usize..9,
        kind_ix in 0usize..3,
        // Two bits: Bernoulli vs Gilbert–Elliott on the shared / fanout links.
        bursty_ix in 0usize..4,
        latency_ix in 0usize..4,
        p_shared in 0.0f64..0.08,
        p_ind in independent_loss(),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_ix];
        let cfg = config(
            layers,
            receivers,
            loss(bursty_ix & 1 == 1, p_shared),
            loss(bursty_ix & 2 == 2, p_ind),
            LATENCIES[latency_ix],
        );
        let slots = 2_500;
        let indexed = run_indexed(&cfg, kind, slots, seed);
        let reference = run_reference(&cfg, kind, slots, seed);
        assert_reports_identical(
            &format!(
                "{} n={receivers} m={layers} lat={:?}",
                kind.label(),
                LATENCIES[latency_ix]
            ),
            &indexed,
            &reference,
        );
    }

    /// Scratch reuse across back-to-back trials of *different* shapes must
    /// not leak state: each `run_star_into` through one shared scratch and
    /// report buffer equals a fresh `reference` run of the same trial.
    #[test]
    fn reused_scratch_matches_fresh_reference_runs(
        seeds in proptest::collection::vec(any::<u64>(), 2..5),
        receivers_a in 1usize..64,
        receivers_b in 1usize..128,
        latency_ix in 0usize..4,
        p_ind in independent_loss(),
    ) {
        let mut scratch = StarScratch::default();
        let mut report = StarReport::default();
        let mut fresh_sum = StarCounters::default();
        for (t, &seed) in seeds.iter().enumerate() {
            // Alternate shapes so the scratch's membership/index buffers
            // must genuinely re-size, not just re-zero.
            let (receivers, layers) = if t % 2 == 0 {
                (receivers_a, 8)
            } else {
                (receivers_b, 4)
            };
            let kind = KINDS[(t + seeds.len()) % 3];
            let cfg = config(
                layers,
                receivers,
                loss(t % 2 == 1, 0.01),
                loss(t % 2 == 0, p_ind),
                LATENCIES[latency_ix],
            );
            let (mut ctls, mut mk) = rig(kind, receivers, layers, seed);
            run_star_into(&cfg, &mut ctls, &mut mk, 2_000, seed, &mut report, &mut scratch);
            let reference = run_reference(&cfg, kind, 2_000, seed);
            assert_reports_identical(
                &format!("trial {t} ({})", kind.label()),
                &report,
                &reference,
            );
            fresh_sum += run_fresh(&cfg, kind, 2_000, seed, ProtocolReceiver::new).1;
        }
        // A reused scratch counts exactly the work of the fresh runs.
        prop_assert_eq!(scratch.counters(), fresh_sum);
    }

    /// Static and dynamic dispatch of the same controllers: the enum the
    /// Figure 8 harness runs and the boxed `make_receiver` controllers
    /// produce identical reports and identical work counters, and every
    /// counted visit is one delivery or one congestion event. A wrapper
    /// that forwards the quiet contract and counts `on_packet` calls sees
    /// exactly the visits that were not settled as quiet deliveries.
    #[test]
    fn boxed_controllers_match_the_enum(
        receivers in 1usize..128,
        layers in 2usize..9,
        kind_ix in 0usize..3,
        bursty_ix in 0usize..4,
        latency_ix in 0usize..4,
        p_shared in 0.0f64..0.08,
        p_ind in independent_loss(),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_ix];
        let cfg = config(
            layers,
            receivers,
            loss(bursty_ix & 1 == 1, p_shared),
            loss(bursty_ix & 2 == 2, p_ind),
            LATENCIES[latency_ix],
        );
        let label = format!(
            "{} n={receivers} m={layers} lat={:?}",
            kind.label(),
            LATENCIES[latency_ix]
        );
        let (plain, plain_counters) = run_fresh(&cfg, kind, 2_500, seed, ProtocolReceiver::new);
        let (boxed, boxed_counters) = run_fresh(&cfg, kind, 2_500, seed, make_receiver);
        assert_reports_identical(&label, &plain, &boxed);
        prop_assert_eq!(plain_counters, boxed_counters, "{}", label);
        let events: u64 = plain.delivered.iter().sum::<u64>()
            + plain.congestion_events.iter().sum::<u64>();
        prop_assert_eq!(plain_counters.visits, events, "{}", label);
        prop_assert_eq!(plain_counters.shared_carried, plain.shared_carried);

        let mut counted = controllers(kind, receivers, seed, |kind, rng| Counting {
            inner: ProtocolReceiver::new(kind, rng),
            quiet: true,
            calls: 0,
        });
        let mut mk = markers(kind, layers);
        let mut report = StarReport::default();
        let mut scratch = StarScratch::default();
        run_star_into(&cfg, &mut counted, &mut mk, 2_500, seed, &mut report, &mut scratch);
        assert_reports_identical(&label, &report, &plain);
        prop_assert_eq!(scratch.counters(), plain_counters, "{}", label);
        let calls: u64 = counted.iter().map(|c| c.calls).sum();
        prop_assert_eq!(
            calls,
            plain_counters.visits - plain_counters.quiet_deliveries,
            "{}",
            label
        );
    }

    /// Even receivers on lossless lanes (where they may park), odd ones on
    /// lossy lanes (where they never do), in one star.
    #[test]
    fn mixed_lossless_and_lossy_lanes_match_reference(
        receivers in 1usize..128,
        layers in 2usize..9,
        kind_ix in 0usize..3,
        bursty_ix in 0usize..4,
        latency_ix in 0usize..4,
        p_shared in 0.0f64..0.08,
        p_odd in 0.001f64..0.08,
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_ix];
        let mut cfg = config(
            layers,
            receivers,
            loss(bursty_ix & 1 == 1, p_shared),
            LossProcess::bernoulli(0.0),
            LATENCIES[latency_ix],
        );
        for lane in cfg.fanout_loss.iter_mut().skip(1).step_by(2) {
            *lane = loss(bursty_ix & 2 == 2, p_odd);
        }
        let label = format!(
            "mixed lanes {} n={receivers} m={layers} lat={:?}",
            kind.label(),
            LATENCIES[latency_ix]
        );
        assert_reports_identical(
            &label,
            &run_indexed(&cfg, kind, 2_500, seed),
            &run_reference(&cfg, kind, 2_500, seed),
        );
    }

    /// Boxed fleets in which quiet protocol controllers share lossless
    /// lanes with controllers that never opt in: a non-forwarding wrapper
    /// around the same protocol, and a pinned walker.
    #[test]
    fn mixed_quiet_and_default_fleets_match_reference(
        receivers in 1usize..128,
        layers in 2usize..9,
        kind_ix in 0usize..3,
        latency_ix in 0usize..4,
        p_shared in 0.0f64..0.08,
        p_ind in independent_loss(),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_ix];
        let cfg = config(
            layers,
            receivers,
            LossProcess::bernoulli(p_shared),
            LossProcess::bernoulli(p_ind),
            LATENCIES[latency_ix],
        );
        let indexed = run_star(
            &cfg,
            &mut mixed_fleet(kind, receivers, layers, seed),
            &mut markers(kind, layers),
            2_500,
            seed,
        );
        let reference = reference::run_star(
            &cfg,
            &mut mixed_fleet(kind, receivers, layers, seed),
            &mut markers(kind, layers),
            2_500,
            seed,
        );
        assert_reports_identical(
            &format!(
                "mixed fleet {} n={receivers} m={layers} lat={:?}",
                kind.label(),
                LATENCIES[latency_ix]
            ),
            &indexed,
            &reference,
        );
    }

    /// Arbitrary positive rate vectors, which almost never have a schedule
    /// period within the engine's table: long enough runs to refill the
    /// table, and the sender's call log must match too.
    #[test]
    fn arbitrary_rates_match_reference(
        rates in proptest::collection::vec(0.05f64..4.0, 1..6),
        receivers in 1usize..40,
        kind_ix in 0usize..3,
        bursty_ix in 0usize..4,
        latency_ix in 0usize..4,
        p_shared in 0.0f64..0.08,
        p_ind in independent_loss(),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_ix];
        let cfg = with_rates(
            &rates,
            config(
                rates.len(),
                receivers,
                loss(bursty_ix & 1 == 1, p_shared),
                loss(bursty_ix & 2 == 2, p_ind),
                LATENCIES[latency_ix],
            ),
        );
        let [(indexed, indexed_calls), (reference, reference_calls)] =
            run_recorded(&cfg, kind, 9_000, seed);
        let label = format!("{} rates={rates:?} n={receivers}", kind.label());
        assert_reports_identical(&label, &indexed, &reference);
        prop_assert!(indexed_calls == reference_calls, "{}: marker calls", label);
    }
}

/// Rates with no short schedule period: the indexed engine refills its
/// schedule table twice in a 10 000-slot run and must still match the
/// reference for every protocol, loss kind and latency pair.
#[test]
fn unperiodic_rates_agree_for_every_protocol() {
    for rates in UNPERIODIC_RATES {
        for kind in KINDS {
            for (i, &latencies) in LATENCIES.iter().enumerate() {
                let cfg = with_rates(
                    rates,
                    config(
                        rates.len(),
                        12,
                        loss(i % 2 == 1, 0.01),
                        loss(i % 2 == 0, 0.04),
                        latencies,
                    ),
                );
                let seed = 0x5EED + i as u64;
                assert_reports_identical(
                    &format!("rates {rates:?} {} lat={latencies:?}", kind.label()),
                    &run_indexed(&cfg, kind, 10_000, seed),
                    &run_reference(&cfg, kind, 10_000, seed),
                );
            }
        }
    }
}

/// A single-layer star: every slot is the base layer, every receiver
/// holds it for the whole run, and no protocol can join or leave.
#[test]
fn single_layer_star_agrees_for_every_protocol() {
    for kind in KINDS {
        for receivers in [1, 7, 65] {
            for (i, &latencies) in LATENCIES.iter().enumerate() {
                let (p_shared, p_ind) = if i == 0 { (0.0, 0.0) } else { (0.02, 0.05) };
                let cfg = config(
                    1,
                    receivers,
                    loss(i == 3, p_shared),
                    loss(i == 2, p_ind),
                    latencies,
                );
                let seed = 0x1A7E + receivers as u64;
                let indexed = run_indexed(&cfg, kind, 3_000, seed);
                assert_reports_identical(
                    &format!("1 layer {} n={receivers} lat={latencies:?}", kind.label()),
                    &indexed,
                    &run_reference(&cfg, kind, 3_000, seed),
                );
                assert_eq!(indexed.shared_carried, 3_000);
                assert!(indexed.final_levels.iter().all(|&l| l == 1));
            }
        }
    }
}

/// The sender sees one `marker` call per slot, in slot order, with the
/// interleaver's layer for that slot — on carried and uncarried slots
/// alike, for periodic and unperiodic schedules — exactly as the
/// reference engine calls it.
#[test]
fn marker_is_called_once_per_slot_in_slot_order() {
    let exponential: &[f64] = &[1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let slots = 9_000;
    for rates in [exponential, UNPERIODIC_RATES[0], UNPERIODIC_RATES[1]] {
        for kind in KINDS {
            for &latencies in &LATENCIES {
                // Heavy loss keeps receivers low, so most slots go
                // uncarried.
                let cfg = with_rates(
                    rates,
                    config(
                        rates.len(),
                        10,
                        loss(false, 0.05),
                        loss(true, 0.1),
                        latencies,
                    ),
                );
                let label = format!("rates {rates:?} {} lat={latencies:?}", kind.label());
                let [(indexed, indexed_calls), (reference, reference_calls)] =
                    run_recorded(&cfg, kind, slots, 0xCA11);
                assert_reports_identical(&label, &indexed, &reference);
                assert_eq!(indexed_calls, reference_calls, "{label}");
                let mut interleaver = LayerInterleaver::new(rates);
                let expected: Vec<(Tick, usize)> = (0..slots)
                    .map(|slot| (slot, interleaver.next_layer()))
                    .collect();
                assert_eq!(indexed_calls, expected, "{label}");
                assert!(
                    indexed.shared_carried < slots,
                    "{label}: some slots uncarried"
                );
            }
        }
    }
}

/// Pinned paper-shaped case (all three protocols on a 100-receiver, 8-layer
/// star at the Figure 8 loss mix): the exact workload the star bench gates,
/// at a test-sized slot budget.
#[test]
fn paper_shape_agrees_for_every_protocol() {
    for kind in KINDS {
        for &(join, leave) in &LATENCIES {
            let cfg = StarConfig::figure8(8, 100, 0.0001, 0.05).with_latencies(join, leave);
            let indexed = run_indexed(&cfg, kind, 10_000, 0x51_66_C0_99);
            let reference = run_reference(&cfg, kind, 10_000, 0x51_66_C0_99);
            assert_reports_identical(
                &format!("paper {} lat=({join},{leave})", kind.label()),
                &indexed,
                &reference,
            );
        }
    }
}

/// The lossless Figure 8 cells at paper shape: 100 receivers, 8 layers,
/// 100 000 slots, no independent loss, the paper's and a heavy shared
/// loss, at the idealized and a nonzero latency pair. Every receiver's
/// lane is lossless, so receivers park as quiet for most of the run.
#[test]
fn paper_shape_lossless_agrees_for_every_protocol() {
    for kind in KINDS {
        for latencies in [(0, 0), (16, 64)] {
            for p_shared in [0.0001, 0.3] {
                let cfg = StarConfig::figure8(8, 100, p_shared, 0.0)
                    .with_latencies(latencies.0, latencies.1);
                let seed = 0x51_66_C0_99;
                assert_reports_identical(
                    &format!(
                        "lossless {} lat={latencies:?} shared={p_shared}",
                        kind.label()
                    ),
                    &run_indexed(&cfg, kind, 100_000, seed),
                    &run_reference(&cfg, kind, 100_000, seed),
                );
            }
        }
    }
}

/// The lossless Uncoordinated Figure 8 cell at paper shape is nearly all
/// quiet: its receivers park below the top layer too, on budgets looked
/// up in their own coin streams, so fewer than 1% of its visits reach
/// `on_packet`.
#[test]
fn paper_shape_lossless_uncoordinated_is_mostly_quiet() {
    for latencies in [(0, 0), (16, 64)] {
        let cfg = StarConfig::figure8(8, 100, 0.0001, 0.0).with_latencies(latencies.0, latencies.1);
        let (_, counters) = run_fresh(
            &cfg,
            ProtocolKind::Uncoordinated,
            100_000,
            0x51_66_C0_99,
            ProtocolReceiver::new,
        );
        let calls = counters.visits - counters.quiet_deliveries;
        assert!(
            calls * 100 < counters.visits,
            "lat={latencies:?}: {calls} on_packet calls of {} visits",
            counters.visits
        );
    }
}
