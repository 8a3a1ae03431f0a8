//! `fig8_protocols`: one Figure-8 panel through `ProtocolScenario::sweep`
//! (one call per grid cell) — three protocols × the independent-loss axis
//! × one zero and one nonzero join/leave latency pair × replicate seeds —
//! at the paper's 8 layers, 100 receivers, shared loss and trial length.
//!
//! Every sweep point is checked against `mlf_protocols::run_point` for its
//! grid cell. The traced passes re-run each cell's trials through
//! `mlf_sim::run_star_into` with the receiver controllers of
//! `make_receiver` and the `CoordinatedSender` wrapped in counting
//! adapters. Each `on_packet`/`marker` call is counted exactly, but not
//! clocked one by one: the adapter logs the call and its answer, and every
//! [`BATCH`] calls the log is replayed through an identical shadow
//! controller in one timed loop. The replay's answers must equal the
//! logged ones, every wrapped trial must produce the `StarReport` of its
//! plain run, and on a run's first traced pass that report must equal
//! `mlf_protocols::run_trial`'s, so the breakdown describes the program
//! the sweep runs.

use crate::measure::{Fnv, Kernel};
use crate::trace::LayerValues;
use crate::{check, Pass, TracedPass, Workload};
use mlf_protocols::{make_receiver, run_point, run_trial, CoordinatedSender, ExperimentParams};
use mlf_protocols::{PointOutcome, ProtocolKind};
use mlf_scenario::{ProtocolScenario, ProtocolSweepGrid, ProtocolSweepPoint};
use mlf_sim::{
    run_star_into, Action, MarkerSource, NoMarkers, PacketEvent, ReceiverController, SimRng,
    StarConfig, StarReport, StarScratch, Tick,
};
use std::cell::RefCell;
use std::time::Instant;

const LAYERS: usize = 8;
const RECEIVERS: usize = 100;
/// Figure 8(a)'s shared loss and trial length, as `fig8_protocols`
/// defaults them: about ten shared losses per trial.
const SHARED_LOSS: f64 = 0.0001;
const PACKETS: u64 = 100_000;
/// One trial per cell; replicate seeds stand in for the figure's trials.
const TRIALS: usize = 1;
const LOSS_POINTS: usize = 4;
/// Replicate base seeds per cell, 1000 apart so their trials never share a
/// seed. With ten shared losses per trial, the time receivers spend on the
/// upper layers (and with it the work per slot) varies from trial to
/// trial; with two replicates a pass's work still moved by ±5% across
/// benchmark seeds, four halve that.
const REPLICATES: u64 = 4;
/// The zero pair of the paper plus one nonzero graft/prune delay, so the
/// membership event queue does work.
const LATENCIES: [(Tick, Tick); 2] = [(0, 0), (16, 64)];
/// Calls logged between two timed replays.
const BATCH: usize = 4096;

/// One grid cell, in the sweep's canonical order.
#[derive(Debug, Clone, Copy)]
struct Cell {
    kind: ProtocolKind,
    loss: f64,
    latency: (Tick, Tick),
    seed: u64,
}

impl Cell {
    fn params(&self, template: &ExperimentParams) -> ExperimentParams {
        ExperimentParams {
            seed: self.seed,
            independent_loss: self.loss,
            join_latency: self.latency.0,
            leave_latency: self.latency.1,
            ..*template
        }
    }
}

/// The exact bits of one point: its grid tags and every statistic.
fn bits(c: &Cell, shared_loss: f64, o: &PointOutcome) -> Vec<u64> {
    let tag = |k: ProtocolKind| ProtocolKind::ALL.iter().position(|&x| x == k).unwrap_or(9) as u64;
    let mut v = vec![
        tag(c.kind),
        tag(o.kind),
        shared_loss.to_bits(),
        c.loss.to_bits(),
        c.seed,
        c.latency.0,
        c.latency.1,
    ];
    for s in [
        &o.redundancy,
        &o.mean_level,
        &o.goodput,
        &o.observed_loss,
        &o.receiver_goodput,
        &o.receiver_mean_level,
    ] {
        v.extend([
            s.count(),
            s.mean().to_bits(),
            s.std_dev().to_bits(),
            s.min().to_bits(),
            s.max().to_bits(),
        ]);
    }
    v
}

fn point_bits(p: &ProtocolSweepPoint) -> Vec<u64> {
    let cell = Cell {
        kind: p.kind,
        loss: p.independent_loss,
        latency: (p.join_latency, p.leave_latency),
        seed: p.seed,
    };
    bits(&cell, p.shared_loss, &p.outcome)
}

/// A call log replayed through a shadow of the logged object in timed
/// batches.
struct Batch<S, E, A> {
    shadow: S,
    replay: fn(&mut S, &E) -> A,
    log: Vec<(E, A)>,
    calls: u64,
    busy: f64,
    mismatches: u64,
}

impl<S, E, A: PartialEq> Batch<S, E, A> {
    fn new(shadow: S, replay: fn(&mut S, &E) -> A) -> Self {
        Batch {
            shadow,
            replay,
            log: Vec::with_capacity(BATCH),
            calls: 0,
            busy: 0.0,
            mismatches: 0,
        }
    }

    fn record(&mut self, call: E, answer: A) {
        self.log.push((call, answer));
        self.calls += 1;
        if self.log.len() == BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let t = Instant::now();
        let mut bad = 0;
        for (call, answer) in &self.log {
            if (self.replay)(&mut self.shadow, call) != *answer {
                bad += 1;
            }
        }
        self.busy += t.elapsed().as_secs_f64();
        self.mismatches += bad;
        self.log.clear();
    }
}

type ReceiverLog = Batch<Vec<Box<dyn ReceiverController>>, (usize, PacketEvent), Action>;

/// A `make_receiver` controller that logs each call for batched timing and
/// counts the joins and leaves it asks for.
struct TracedReceiver<'a> {
    r: usize,
    inner: Box<dyn ReceiverController>,
    log: &'a RefCell<ReceiverLog>,
    joins: u64,
    leaves: u64,
}

impl ReceiverController for TracedReceiver<'_> {
    fn on_packet(&mut self, ev: &PacketEvent) -> Action {
        let action = self.inner.on_packet(ev);
        match action {
            Action::JoinUp => self.joins += 1,
            Action::LeaveDown => self.leaves += 1,
            Action::Stay => {}
        }
        self.log.borrow_mut().record((self.r, *ev), action);
        action
    }
}

/// A `CoordinatedSender` that logs each marker call for batched timing.
struct TracedSender {
    inner: CoordinatedSender,
    log: Batch<CoordinatedSender, (Tick, usize), Option<usize>>,
}

impl MarkerSource for TracedSender {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        let m = self.inner.marker(slot, layer);
        self.log.record((slot, layer), m);
        m
    }
}

/// Per-pass totals of the traced trial runs.
#[derive(Default)]
struct StarTally {
    receiver_calls: u64,
    joins: u64,
    leaves: u64,
    receiver_busy: f64,
    marker_calls: u64,
    sender_busy: f64,
    engine_self: f64,
    slots: u64,
    offered: u64,
    delivered: u64,
    shared_carried: u64,
    congestion_events: u64,
    trials: u64,
    /// Trials whose wrapped run differed from the plain one, or whose
    /// replayed calls answered differently from the logged ones.
    bad_trials: u64,
}

/// The sender of a trial: none, or a coordinated one (as in
/// `run_point`'s trial loop).
enum Markers<S> {
    None(NoMarkers),
    Coordinated(S),
}

impl<S: MarkerSource> MarkerSource for Markers<S> {
    fn marker(&mut self, slot: Tick, layer: usize) -> Option<usize> {
        match self {
            Markers::None(m) => m.marker(slot, layer),
            Markers::Coordinated(s) => s.marker(slot, layer),
        }
    }
}

impl<S> Markers<S> {
    fn new(kind: ProtocolKind, sender: impl FnOnce() -> S) -> Self {
        match kind {
            ProtocolKind::Coordinated => Markers::Coordinated(sender()),
            _ => Markers::None(NoMarkers),
        }
    }
}

/// Run one star trial; the wall time of `run_star_into`.
fn timed_star<C: ReceiverController, M: MarkerSource>(
    cfg: &StarConfig,
    controllers: &mut [C],
    markers: &mut M,
    seed: u64,
    report: &mut StarReport,
    scratch: &mut StarScratch,
) -> f64 {
    let t = Instant::now();
    run_star_into(cfg, controllers, markers, PACKETS, seed, report, scratch);
    t.elapsed().as_secs_f64()
}

/// One trial of `kind` at `params`, composed like `run_point`'s trial
/// loop: once plain, timing `run_star_into`, and once with traced
/// controllers, counting and batch-timing their calls. Both runs must
/// produce the same report, left in `report`.
fn traced_trial(
    kind: ProtocolKind,
    params: &ExperimentParams,
    trial: usize,
    report: &mut StarReport,
    scratch: &mut StarScratch,
    tally: &mut StarTally,
) {
    let cfg = StarConfig::figure8(
        params.layers,
        params.receivers,
        params.shared_loss,
        params.independent_loss,
    )
    .with_latencies(params.join_latency, params.leave_latency);
    let seed = params.seed.wrapping_add(trial as u64);
    let base = SimRng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
    let make = |r: usize| make_receiver(kind, base.split(1_000_000 + r as u64));

    let mut plain: Vec<Box<dyn ReceiverController>> = (0..params.receivers).map(make).collect();
    let mut markers = Markers::new(kind, || CoordinatedSender::new(params.layers));
    let wall = timed_star(&cfg, &mut plain, &mut markers, seed, report, scratch);

    let log = RefCell::new(Batch::new(
        (0..params.receivers).map(make).collect(),
        |shadow: &mut Vec<Box<dyn ReceiverController>>, (r, ev): &(usize, PacketEvent)| {
            shadow[*r].on_packet(ev)
        },
    ));
    let mut controllers: Vec<TracedReceiver> = (0..params.receivers)
        .map(|r| TracedReceiver {
            r,
            inner: make(r),
            log: &log,
            joins: 0,
            leaves: 0,
        })
        .collect();
    let mut markers = Markers::new(kind, || TracedSender {
        inner: CoordinatedSender::new(params.layers),
        log: Batch::new(
            CoordinatedSender::new(params.layers),
            |s, &(slot, layer)| s.marker(slot, layer),
        ),
    });
    let mut wrapped = StarReport::default();
    timed_star(
        &cfg,
        &mut controllers,
        &mut markers,
        seed,
        &mut wrapped,
        scratch,
    );
    let mut bad = wrapped != *report;
    for c in &controllers {
        tally.joins += c.joins;
        tally.leaves += c.leaves;
    }
    drop(controllers);
    let mut log = log.into_inner();
    log.flush();
    tally.receiver_busy += log.busy;
    tally.receiver_calls += log.calls;
    bad |= log.mismatches > 0;
    let mut sender_busy = 0.0;
    if let Markers::Coordinated(mut s) = markers {
        s.log.flush();
        sender_busy = s.log.busy;
        tally.marker_calls += s.log.calls;
        bad |= s.log.mismatches > 0;
    }
    tally.trials += 1;
    tally.bad_trials += u64::from(bad);
    tally.sender_busy += sender_busy;
    tally.engine_self += wall - log.busy - sender_busy;
    tally.slots += report.slots;
    tally.shared_carried += report.shared_carried;
    tally.offered += report.offered.iter().sum::<u64>();
    tally.delivered += report.delivered.iter().sum::<u64>();
    tally.congestion_events += report.congestion_events.iter().sum::<u64>();
}

pub struct Fig8 {
    template: ExperimentParams,
    /// The first replicate base seed.
    first_seed: u64,
    cells: Vec<Cell>,
    reference: Vec<Vec<u64>>,
    /// The next pass's scenario and per-cell grids, built by `set_up`.
    inputs: Option<(ProtocolScenario, Vec<ProtocolSweepGrid>)>,
}

/// The program's set-up: the Figure-8 scenario and its sweep grid, split
/// into one single-cell grid per cell in the grid's canonical order
/// (losses, latency pairs, kinds, seeds). A pass sweeps the cells one by
/// one so that the clock can take calibration samples between them.
fn inputs(
    template: ExperimentParams,
    first_seed: u64,
) -> (ProtocolScenario, Vec<ProtocolSweepGrid>) {
    let scenario = ProtocolScenario::builder()
        .label("perfbench/fig8a")
        .template(template)
        .build()
        .expect("template was validated");
    let grid = ProtocolSweepGrid::figure8_axis(LOSS_POINTS)
        .with_latencies(LATENCIES)
        .with_seeds((0..REPLICATES).map(|j| first_seed + 1000 * j));
    let mut cells = Vec::new();
    for &loss in &grid.independent_losses {
        for &latency in &grid.latencies {
            for &kind in &grid.kinds {
                for &seed in &grid.seeds {
                    cells.push(
                        ProtocolSweepGrid::independent_losses([loss])
                            .with_latencies([latency])
                            .with_kinds([kind])
                            .with_seeds([seed]),
                    );
                }
            }
        }
    }
    (scenario, cells)
}

impl Fig8 {
    pub fn new(seed: u64) -> Self {
        let template = ExperimentParams {
            layers: LAYERS,
            receivers: RECEIVERS,
            shared_loss: SHARED_LOSS,
            independent_loss: 0.0,
            packets: PACKETS,
            trials: TRIALS,
            seed: 0,
            join_latency: 0,
            leave_latency: 0,
        }
        .validated()
        .expect("constant losses are valid");
        let first_seed = 0x51_66_C0_99_u64.wrapping_add(seed.wrapping_mul(1 << 16));
        let cells: Vec<Cell> = inputs(template, first_seed)
            .1
            .iter()
            .map(|g| Cell {
                kind: g.kinds[0],
                loss: g.independent_losses[0],
                latency: g.latencies[0],
                seed: g.seeds[0],
            })
            .collect();
        let reference = cells
            .iter()
            .map(|c| bits(c, SHARED_LOSS, &run_point(c.kind, &c.params(&template))))
            .collect();
        Fig8 {
            template,
            first_seed,
            cells,
            reference,
            inputs: None,
        }
    }
}

impl Workload for Fig8 {
    fn unit(&self) -> &'static str {
        "protocol points"
    }

    fn kernel(&self) -> Kernel {
        Kernel::Simulation
    }

    fn slots_per_point(&self) -> Option<u64> {
        Some(PACKETS * TRIALS as u64)
    }

    fn reference_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for x in self.reference.iter().flatten() {
            h.write_u64(*x);
        }
        h.finish()
    }

    fn set_up(&mut self) {
        self.inputs = Some(inputs(self.template, self.first_seed));
    }

    fn pass(&mut self) -> Pass {
        let (scenario, cells) = self.inputs.take().expect("set_up precedes every pass");
        let mut pass = Pass::new(Kernel::Simulation);
        let mut got = Vec::with_capacity(cells.len());
        for grid in &cells {
            let report = pass.clock.time(|| scenario.sweep(grid));
            pass.points += report.points.len() as u64;
            got.extend(report.points.iter().map(point_bits));
        }
        check(&got, &self.reference, &mut pass);
        pass
    }

    fn traced_pass(&mut self, first: bool) -> TracedPass {
        let mut pass = self.pass();
        let template = self.template;

        // The trial loops on their own: run_point per cell.
        let mut run_point_busy = 0.0;
        let mut got = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            let t = Instant::now();
            let o = run_point(c.kind, &c.params(&template));
            run_point_busy += t.elapsed().as_secs_f64();
            got.push(bits(c, template.shared_loss, &o));
        }
        check(&got, &self.reference, &mut pass);

        // The trials again, with traced controllers.
        let mut tally = StarTally::default();
        let (mut report, mut scratch) = (StarReport::default(), StarScratch::default());
        let mut traced_wall = 0.0;
        for c in &self.cells {
            let params = c.params(&template);
            for trial in 0..params.trials {
                let t = Instant::now();
                traced_trial(
                    c.kind,
                    &params,
                    trial,
                    &mut report,
                    &mut scratch,
                    &mut tally,
                );
                traced_wall += t.elapsed().as_secs_f64();
                if first {
                    pass.attempted += 1;
                    if run_trial(c.kind, &params, trial) != report {
                        eprintln!("mismatch: traced star run differs from run_trial");
                        pass.failed += 1;
                    }
                }
            }
        }
        if tally.bad_trials > 0 {
            eprintln!(
                "mismatch: {} wrapped trials differ from their plain runs",
                tally.bad_trials
            );
        }
        pass.attempted += tally.trials;
        pass.failed += tally.bad_trials;

        let protocol_self = pass.clock.secs - run_point_busy;
        let mut v = LayerValues::default();
        v.set("protocols.receiver.calls", tally.receiver_calls as f64);
        v.set("protocols.receiver.joins", tally.joins as f64);
        v.set("protocols.receiver.leaves", tally.leaves as f64);
        v.set("protocols.receiver.busy_s", tally.receiver_busy);
        v.set("protocols.sender.marker_calls", tally.marker_calls as f64);
        v.set("protocols.sender.busy_s", tally.sender_busy);
        v.set("sim.engine.self_s", tally.engine_self);
        v.set("sim.engine.slots", tally.slots as f64);
        v.set("sim.engine.delivered", tally.delivered as f64);
        v.set("sim.engine.shared_carried", tally.shared_carried as f64);
        v.set(
            "sim.engine.congestion_events",
            tally.congestion_events as f64,
        );
        v.set(
            "sim.engine.delivered_ratio",
            tally.delivered as f64 / tally.offered as f64,
        );
        v.set("protocols.run_point.busy_s", run_point_busy);
        v.set("scenario.protocol.self_s", protocol_self);
        let rows = vec![
            ("sim.engine self (run_star_into)", tally.engine_self),
            ("protocols.receiver (on_packet)", tally.receiver_busy),
            ("protocols.sender (marker)", tally.sender_busy),
            ("scenario.protocol self (executor)", protocol_self),
        ];
        TracedPass {
            traced_per_s: pass.points as f64 / traced_wall,
            pass,
            values: v,
            rows,
        }
    }
}
