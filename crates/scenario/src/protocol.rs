//! Protocol experiments as first-class sweep citizens.
//!
//! The Figure 8 protocol comparison — RLM-style uncoordinated joins versus
//! deterministic and sender-coordinated join/leave behaviour under shared
//! and independent loss — used to run only through the serial
//! `mlf_protocols::experiment::figure8_series` loop, while allocator
//! experiments already had the seed-sharded parallel engine. This module
//! gives protocol grids the same treatment: a [`ProtocolScenario`] declares
//! the experiment template (star shape, packets, trials, latencies) once,
//! a [`ProtocolSweepGrid`] spans `(protocol kind × independent-loss grid ×
//! join/leave-latency pairs × trial seeds)`, and
//! [`ProtocolScenario::coordinate`] runs the grid's jobs on the
//! [`coordinator`] — thread or process fleets, fault
//! tolerance, checkpoint/resume — with the same **bitwise serial/parallel
//! agreement** contract the allocator sweeps have, because every point is
//! a pure function of its `(kind, loss, latency, seed)` job (the simulator
//! re-seeds its RNGs from the job; workers hold no cross-job state).
//! Points cross processes and checkpoints in a canonical codec that
//! stores every `f64` — each `RunningStats` field included — by its bits.
//!
//! ## Example
//!
//! ```
//! use mlf_protocols::ExperimentParams;
//! use mlf_scenario::{CoordinatorConfig, ProtocolScenario, ProtocolSweepGrid};
//!
//! let scenario = ProtocolScenario::builder()
//!     .label("quick-panel")
//!     .template(ExperimentParams {
//!         receivers: 8,
//!         packets: 5_000,
//!         trials: 2,
//!         ..ExperimentParams::quick(0.0001, 0.0).unwrap()
//!     })
//!     .build()
//!     .unwrap();
//! let grid = ProtocolSweepGrid::independent_losses([0.01, 0.05]);
//! let serial = scenario.sweep(&grid);
//! let parallel = scenario.coordinate(&grid, &CoordinatorConfig::threads(4)).unwrap();
//! assert_eq!(serial, parallel.report); // bitwise, on any fleet
//! assert_eq!(serial.points.len(), 6); // 2 losses × 3 protocols
//! ```

use crate::coordinator::{self, CoordinatorConfig, CoordinatorError, CoordinatorReport, Sweep};
use crate::hash::Fnv1a;
use crate::record::{Dec, Enc};
use crate::transport::FRAME_INIT_PROTOCOL;
use mlf_protocols::experiment::{
    run_point, validate_loss, ExperimentParamError, ExperimentParams, PointOutcome,
};
use mlf_protocols::ProtocolKind;
use mlf_sim::{RunningStats, Tick};

/// Why a [`ProtocolScenarioBuilder`] or a [`ProtocolSweepGrid`] was
/// rejected.
// mlf-lint: allow(unused-pub, reason = "reachable through public fn signatures and returned values; the ident-based usage scan cannot see type flow")
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolScenarioError {
    /// The experiment template (or a grid loss) carries an invalid loss
    /// probability.
    Params(ExperimentParamError),
    /// The grid names no protocols.
    EmptyKinds,
    /// The grid names no independent-loss points.
    EmptyLossGrid,
}

impl std::fmt::Display for ProtocolScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolScenarioError::Params(e) => write!(f, "bad experiment parameters: {e}"),
            ProtocolScenarioError::EmptyKinds => {
                write!(f, "protocol sweep grid needs at least one protocol kind")
            }
            ProtocolScenarioError::EmptyLossGrid => {
                write!(
                    f,
                    "protocol sweep grid needs at least one independent-loss point"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolScenarioError::Params(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExperimentParamError> for ProtocolScenarioError {
    fn from(e: ExperimentParamError) -> Self {
        ProtocolScenarioError::Params(e)
    }
}

/// Builder for [`ProtocolScenario`]. Obtain via
/// [`ProtocolScenario::builder`].
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
pub struct ProtocolScenarioBuilder {
    label: String,
    template: ExperimentParams,
}

impl Default for ProtocolScenarioBuilder {
    fn default() -> Self {
        ProtocolScenarioBuilder {
            label: "protocol-scenario".to_string(),
            template: ExperimentParams::quick(0.0001, 0.0)
                // mlf-lint: allow(panic-unwrap, reason = "the default losses are compile-time constants inside the validated range")
                .expect("static default losses are valid"),
        }
    }
}

impl ProtocolScenarioBuilder {
    /// Name the scenario (shows up in reports, like
    /// [`ScenarioBuilder::label`](crate::ScenarioBuilder::label)).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The experiment template: star shape, packets, trials, base seed,
    /// join/leave latencies, and the shared loss. The grid's independent
    /// losses and seeds are substituted per point.
    pub fn template(mut self, template: ExperimentParams) -> Self {
        self.template = template;
        self
    }

    /// Validate the template's loss probabilities and assemble the
    /// scenario.
    pub fn build(self) -> Result<ProtocolScenario, ProtocolScenarioError> {
        self.template.validate()?;
        Ok(ProtocolScenario {
            label: self.label,
            template: self.template,
        })
    }
}

/// The sweep space of a protocol comparison: which protocols, which
/// independent-loss points, which join/leave latency pairs, which base
/// seeds.
///
/// The canonical job order is **losses-major, then latency pairs, then
/// kinds, then seeds** — the Figure 8 presentation order (one loss point
/// holds all protocols' outcomes), with the Section 5 latency ablation as
/// the next-outer axis. Both the serial and the coordinated sweep consume
/// this one expansion, so their point order can never diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSweepGrid {
    /// Protocols to compare (default: all three, in the paper's order).
    pub kinds: Vec<ProtocolKind>,
    /// Fanout-link loss rates (the Figure 8 x-axis).
    pub independent_losses: Vec<f64>,
    /// `(join, leave)` latency pairs in slots, flowing into
    /// `StarConfig::with_latencies` through each point's
    /// [`ExperimentParams`]; empty means "the template's latencies" (one
    /// point per `(kind, loss, seed)`), which for
    /// [`ExperimentParams::paper`] is the idealized `(0, 0)`.
    pub latencies: Vec<(Tick, Tick)>,
    /// Base seeds; empty means "the template's seed" (one point per
    /// `(kind, loss, latency)`). Each point still runs the template's
    /// `trials` trials internally at `seed + trial`.
    pub seeds: Vec<u64>,
}

impl ProtocolSweepGrid {
    /// A grid over the given independent losses, all three protocols, the
    /// template's seed.
    pub fn independent_losses(losses: impl IntoIterator<Item = f64>) -> Self {
        ProtocolSweepGrid {
            kinds: ProtocolKind::ALL.to_vec(),
            independent_losses: losses.into_iter().collect(),
            latencies: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// The paper's Figure 8 x-axis: `points` evenly spaced losses on
    /// `[0, 0.1]`.
    pub fn figure8_axis(points: usize) -> Self {
        assert!(points >= 2, "a loss axis needs at least two points");
        Self::independent_losses((0..points).map(|i| 0.1 * i as f64 / (points - 1) as f64))
    }

    /// Restrict the grid to specific protocols.
    pub fn with_kinds(mut self, kinds: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Cross the grid with explicit base seeds (replicates per point).
    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Cross the grid with `(join, leave)` latency pairs (in slots) — the
    /// Section 5 latency-ablation axis. Each pair overrides the template's
    /// latencies for its points.
    pub fn with_latencies(mut self, pairs: impl IntoIterator<Item = (Tick, Tick)>) -> Self {
        self.latencies = pairs.into_iter().collect();
        self
    }

    /// Validate the grid: at least one kind and one loss, every loss
    /// finite and in `[0, 1)`.
    pub fn validate(&self) -> Result<(), ProtocolScenarioError> {
        if self.kinds.is_empty() {
            return Err(ProtocolScenarioError::EmptyKinds);
        }
        if self.independent_losses.is_empty() {
            return Err(ProtocolScenarioError::EmptyLossGrid);
        }
        for &loss in &self.independent_losses {
            validate_loss("independent", loss)?;
        }
        Ok(())
    }

    /// Expand the grid into its canonical job list (losses-major, then
    /// latency pairs, then kinds, then seeds).
    fn jobs(&self, template: &ExperimentParams) -> Vec<ProtocolJob> {
        let default_seeds = [template.seed];
        let seeds: &[u64] = if self.seeds.is_empty() {
            &default_seeds
        } else {
            &self.seeds
        };
        let default_latencies = [(template.join_latency, template.leave_latency)];
        let latencies: &[(Tick, Tick)] = if self.latencies.is_empty() {
            &default_latencies
        } else {
            &self.latencies
        };
        let mut jobs = Vec::with_capacity(
            self.independent_losses.len() * latencies.len() * self.kinds.len() * seeds.len(),
        );
        for &loss in &self.independent_losses {
            for &latency in latencies {
                for &kind in &self.kinds {
                    for &seed in seeds {
                        jobs.push(ProtocolJob {
                            kind,
                            loss,
                            latency,
                            seed,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// One expanded grid cell: the pure-function input of
/// [`ProtocolScenario::solve_job`], and therefore the unit the
/// coordinator shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProtocolJob {
    kind: ProtocolKind,
    loss: f64,
    latency: (Tick, Tick),
    seed: u64,
}

/// One point of a protocol sweep: one `(protocol, independent loss,
/// latency pair, seed)` cell, with the aggregated trial statistics —
/// points from a [`ProtocolSweepGrid::with_latencies`] grid share
/// `(kind, loss, seed)` and differ only in their
/// `join_latency`/`leave_latency` tags.
///
/// Equality compares every statistic as an `f64`; the canonical codec
/// behind coordinated sweeps and checkpoints stores each by its bits.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSweepPoint {
    /// Which protocol ran.
    pub kind: ProtocolKind,
    /// The template's shared-link loss rate.
    pub shared_loss: f64,
    /// This point's fanout-link loss rate.
    pub independent_loss: f64,
    /// The base seed this point's trials started from.
    pub seed: u64,
    /// The configured join (graft) latency in slots.
    pub join_latency: Tick,
    /// The configured leave (prune) latency in slots.
    pub leave_latency: Tick,
    /// The full trial statistics: shared-link redundancy, mean
    /// subscription level, goodput (throughput), and the observed
    /// loss-regime stats, straight from the `StarReport`s.
    pub outcome: PointOutcome,
}

impl ProtocolSweepPoint {
    /// Mean shared-link redundancy (the Figure 8 y-value).
    pub fn redundancy(&self) -> f64 {
        self.outcome.redundancy.mean()
    }

    /// Mean receiver goodput in packets/slot (throughput).
    pub fn throughput(&self) -> f64 {
        self.outcome.goodput.mean()
    }

    /// Mean observed per-receiver loss rate (the realized loss regime).
    pub fn observed_loss(&self) -> f64 {
        self.outcome.observed_loss.mean()
    }

    /// The per-receiver goodput distribution (one observation per
    /// `(receiver, trial)`): `min()`/`max()`/`std_dev()` expose the spread
    /// across receivers behind [`ProtocolSweepPoint::throughput`]'s mean.
    pub fn receiver_goodput(&self) -> &mlf_sim::RunningStats {
        &self.outcome.receiver_goodput
    }

    /// The per-receiver mean-subscription-level distribution, one
    /// observation per `(receiver, trial)`.
    pub fn receiver_mean_level(&self) -> &mlf_sim::RunningStats {
        &self.outcome.receiver_mean_level
    }
}

impl ProtocolSweepPoint {
    /// The point's canonical 282-byte encoding: the bytes coordinated
    /// sweeps ship between processes and store in checkpoints.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        ProtocolScenario::encode_record(self, &mut e);
        e.done()
    }

    /// Inverse of [`ProtocolSweepPoint::encode`]. Bytes it never writes
    /// are an error, so a decoded point re-encodes to exactly its input.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut d = Dec(bytes);
        let point = ProtocolScenario::decode_record(&mut d)?;
        d.finish().map(|()| point)
    }
}

/// The outcome of a protocol sweep: one [`ProtocolSweepPoint`] per grid
/// cell, in the grid's canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSweepReport {
    /// The scenario's label.
    pub label: String,
    /// The points, losses-major, then latency pairs, then kinds, then
    /// seeds.
    pub points: Vec<ProtocolSweepPoint>,
}

impl ProtocolSweepReport {
    /// Mean of a per-point value.
    pub fn mean_of(&self, f: impl Fn(&ProtocolSweepPoint) -> f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(f).sum::<f64>() / self.points.len() as f64
    }

    /// Mean shared-link redundancy of one protocol across the sweep.
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn mean_redundancy(&self, kind: ProtocolKind) -> f64 {
        let of_kind: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.kind == kind)
            .map(ProtocolSweepPoint::redundancy)
            .collect();
        if of_kind.is_empty() {
            return 0.0;
        }
        of_kind.iter().sum::<f64>() / of_kind.len() as f64
    }

    /// The points of one protocol, in sweep order.
    pub fn points_for(&self, kind: ProtocolKind) -> impl Iterator<Item = &ProtocolSweepPoint> {
        self.points.iter().filter(move |p| p.kind == kind)
    }
}

/// A declarative protocol experiment: one [`ExperimentParams`] template
/// plus a label, with serial and coordinated sweep entry points over
/// [`ProtocolSweepGrid`]s.
///
/// The scenario is immutable and `Sync` — unlike the allocator
/// [`Scenario`](crate::Scenario) it needs no per-worker scratch state, so
/// workers are stateless and one scenario can serve concurrent sweeps.
#[derive(Debug, Clone)]
pub struct ProtocolScenario {
    label: String,
    template: ExperimentParams,
}

impl ProtocolScenario {
    /// Start building a protocol scenario.
    pub fn builder() -> ProtocolScenarioBuilder {
        ProtocolScenarioBuilder::default()
    }

    /// The scenario's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The experiment template every point derives from.
    pub fn template(&self) -> &ExperimentParams {
        &self.template
    }

    /// Solve one grid cell. Pure in `(kind, loss, latency, seed)` — this is
    /// the function coordinator workers run, and why coordinated sweeps
    /// are bitwise serial-identical.
    fn solve_job(&self, job: &ProtocolJob) -> ProtocolSweepPoint {
        let &ProtocolJob {
            kind,
            loss,
            latency: (join_latency, leave_latency),
            seed,
        } = job;
        let params = ExperimentParams {
            seed,
            join_latency,
            leave_latency,
            ..self.template
        }
        .with_independent_loss(loss)
        // mlf-lint: allow(panic-unwrap, reason = "sweep and coordinate validate the whole grid before any job is built, and worker processes only receive jobs of validated grids, so every grid loss is in range here")
        .expect("grid losses are validated at sweep entry");
        ProtocolSweepPoint {
            kind,
            shared_loss: params.shared_loss,
            independent_loss: loss,
            seed,
            join_latency,
            leave_latency,
            outcome: run_point(kind, &params),
        }
    }

    /// Run one `(protocol, independent loss, seed)` point at the template's
    /// latencies.
    ///
    /// # Panics
    ///
    /// Panics if `independent_loss` is non-finite or outside `[0, 1)`;
    /// sweeps validate their whole grid up front instead.
    pub fn run_point(
        &self,
        kind: ProtocolKind,
        independent_loss: f64,
        seed: u64,
    ) -> ProtocolSweepPoint {
        // mlf-lint: allow(panic-unwrap, reason = "eager loss validation with a panic mirrors the documented sweep() contract for caller-bug inputs")
        validate_loss("independent", independent_loss).unwrap_or_else(|e| panic!("{e}"));
        self.solve_job(&ProtocolJob {
            kind,
            loss: independent_loss,
            latency: (self.template.join_latency, self.template.leave_latency),
            seed,
        })
    }

    /// Run the full grid serially, in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the grid fails [`ProtocolSweepGrid::validate`] (check it
    /// first, or use [`ProtocolScenario::coordinate`], for a typed error).
    pub fn sweep(&self, grid: &ProtocolSweepGrid) -> ProtocolSweepReport {
        if let Err(e) = grid.validate() {
            // mlf-lint: allow(panic-unwrap, reason = "documented '# Panics' contract: an invalid grid is a caller bug, and validate() offers the typed alternative")
            panic!("{e}");
        }
        ProtocolSweepReport {
            label: self.label.clone(),
            points: grid
                .jobs(&self.template)
                .iter()
                .map(|job| self.solve_job(job))
                .collect(),
        }
    }

    /// [`ProtocolScenario::sweep`] through the coordinator, on any fleet
    /// and under any fault plan or kill/resume sequence, **bitwise
    /// identical** to the serial sweep. A grid that fails
    /// [`ProtocolSweepGrid::validate`] is [`CoordinatorError::ProtocolGrid`].
    pub fn coordinate(
        &self,
        grid: &ProtocolSweepGrid,
        cfg: &CoordinatorConfig,
    ) -> Result<CoordinatorReport<ProtocolSweepReport>, CoordinatorError> {
        grid.validate().map_err(CoordinatorError::ProtocolGrid)?;
        let (points, stats) = coordinator::coordinate(self, grid.jobs(&self.template), cfg)?;
        Ok(CoordinatorReport {
            report: ProtocolSweepReport {
                label: self.label.clone(),
                points,
            },
            stats,
        })
    }
}

/// Inverse of a protocol's wire code, `kind as u8`: its index in
/// [`ProtocolKind::ALL`].
fn kind_from_code(code: u8) -> Result<ProtocolKind, String> {
    let kind = ProtocolKind::ALL.get(usize::from(code)).copied();
    kind.ok_or_else(|| format!("unknown protocol kind {code}"))
}

fn f64_at(d: &mut Dec<'_>) -> Result<f64, String> {
    Ok(f64::from_bits(d.u64()?))
}

/// Figure-8 points through the coordinator. A 282-byte record holds the
/// kind, losses, seed, latencies, the outcome's kind and its six
/// `RunningStats` (count, mean, M2, min, max), every `f64` by its bits.
/// Only a kind byte can be invalid, so decoding is canonical.
impl Sweep for ProtocolScenario {
    type Job = ProtocolJob;
    type Record = ProtocolSweepPoint;
    type Worker = ();
    const INIT_FRAME: u8 = FRAME_INIT_PROTOCOL;
    const JOB_BYTES: usize = 33;
    const RECORD_BYTES: usize = 282;

    fn encode_job(job: &ProtocolJob, e: &mut Enc) {
        e.u8(job.kind as u8);
        e.u64(job.loss.to_bits());
        e.u64(job.latency.0);
        e.u64(job.latency.1);
        e.u64(job.seed);
    }

    fn decode_job(d: &mut Dec<'_>) -> Result<ProtocolJob, String> {
        Ok(ProtocolJob {
            kind: kind_from_code(d.u8()?)?,
            loss: f64_at(d)?,
            latency: (d.u64()?, d.u64()?),
            seed: d.u64()?,
        })
    }

    fn encode_record(p: &ProtocolSweepPoint, e: &mut Enc) {
        e.u8(p.kind as u8);
        e.u64(p.shared_loss.to_bits());
        e.u64(p.independent_loss.to_bits());
        e.u64(p.seed);
        e.u64(p.join_latency);
        e.u64(p.leave_latency);
        let o = &p.outcome;
        e.u8(o.kind as u8);
        for stats in [
            &o.redundancy,
            &o.mean_level,
            &o.goodput,
            &o.observed_loss,
            &o.receiver_goodput,
            &o.receiver_mean_level,
        ] {
            let (n, mean, m2, min, max) = stats.raw_parts();
            e.u64(n);
            for x in [mean, m2, min, max] {
                e.u64(x.to_bits());
            }
        }
    }

    fn decode_record(d: &mut Dec<'_>) -> Result<ProtocolSweepPoint, String> {
        let kind = kind_from_code(d.u8()?)?;
        let (shared_loss, independent_loss) = (f64_at(d)?, f64_at(d)?);
        let (seed, join_latency, leave_latency) = (d.u64()?, d.u64()?, d.u64()?);
        let outcome_kind = kind_from_code(d.u8()?)?;
        let mut stat = || -> Result<RunningStats, String> {
            let n = d.u64()?;
            let (mean, m2, min, max) = (f64_at(d)?, f64_at(d)?, f64_at(d)?, f64_at(d)?);
            Ok(RunningStats::from_raw_parts(n, mean, m2, min, max))
        };
        let outcome = PointOutcome {
            kind: outcome_kind,
            redundancy: stat()?,
            mean_level: stat()?,
            goodput: stat()?,
            observed_loss: stat()?,
            receiver_goodput: stat()?,
            receiver_mean_level: stat()?,
        };
        Ok(ProtocolSweepPoint {
            kind,
            shared_loss,
            independent_loss,
            seed,
            join_latency,
            leave_latency,
            outcome,
        })
    }

    fn worker(&self) {}

    fn solve(&self, _: &mut (), job: &ProtocolJob) -> ProtocolSweepPoint {
        self.solve_job(job)
    }

    fn identity(&self, h: &mut Fnv1a) {
        h.write(b"protocol");
        let mut e = Enc::new();
        let _ = self.process_spec(&mut e);
        h.write(&e.done());
    }

    /// The label and every template field, `f64`s by their bits.
    fn process_spec(&self, e: &mut Enc) -> Result<(), String> {
        let t = &self.template;
        e.str(&self.label);
        for v in [t.layers as u64, t.receivers as u64] {
            e.u64(v);
        }
        e.u64(t.shared_loss.to_bits());
        e.u64(t.independent_loss.to_bits());
        for v in [
            t.packets,
            t.trials as u64,
            t.seed,
            t.join_latency,
            t.leave_latency,
        ] {
            e.u64(v);
        }
        Ok(())
    }

    fn from_spec(d: &mut Dec<'_>) -> Result<Self, String> {
        let label = d.str()?;
        let template = ExperimentParams {
            layers: d.u64()? as usize,
            receivers: d.u64()? as usize,
            shared_loss: f64_at(d)?,
            independent_loss: f64_at(d)?,
            packets: d.u64()?,
            trials: d.u64()? as usize,
            seed: d.u64()?,
            join_latency: d.u64()?,
            leave_latency: d.u64()?,
        };
        ProtocolScenario::builder()
            .label(label)
            .template(template)
            .build()
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_protocols::experiment::Figure8Point;

    fn tiny_scenario() -> ProtocolScenario {
        ProtocolScenario::builder()
            .label("tiny")
            .template(ExperimentParams {
                receivers: 6,
                packets: 3_000,
                trials: 2,
                ..ExperimentParams::quick(0.0001, 0.0).unwrap()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_templates() {
        let err = ProtocolScenario::builder()
            .template(ExperimentParams {
                shared_loss: 1.5,
                ..ExperimentParams::quick(0.0, 0.0).unwrap()
            })
            .build()
            .err();
        assert_eq!(
            err,
            Some(ProtocolScenarioError::Params(
                ExperimentParamError::LossOutOfRange {
                    which: "shared",
                    value: 1.5,
                }
            ))
        );
    }

    #[test]
    fn grid_validation_catches_empty_and_bad_losses() {
        let empty_kinds = ProtocolSweepGrid::independent_losses([0.01]).with_kinds([]);
        assert_eq!(
            empty_kinds.validate(),
            Err(ProtocolScenarioError::EmptyKinds)
        );
        let empty_losses = ProtocolSweepGrid::independent_losses([]);
        assert_eq!(
            empty_losses.validate(),
            Err(ProtocolScenarioError::EmptyLossGrid)
        );
        let bad_loss = ProtocolSweepGrid::independent_losses([0.01, 1.0]);
        assert_eq!(
            bad_loss.validate(),
            Err(ProtocolScenarioError::Params(
                ExperimentParamError::LossOutOfRange {
                    which: "independent",
                    value: 1.0,
                }
            ))
        );
        let msg = bad_loss.validate().unwrap_err().to_string();
        assert!(msg.contains("outside [0, 1)"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "at least one protocol kind")]
    fn sweeping_an_invalid_grid_panics_with_the_typed_message() {
        let grid = ProtocolSweepGrid::independent_losses([0.01]).with_kinds([]);
        tiny_scenario().sweep(&grid);
    }

    #[test]
    fn grid_order_is_losses_major_then_kinds_then_seeds() {
        let s = tiny_scenario();
        let grid = ProtocolSweepGrid::independent_losses([0.0, 0.05])
            .with_kinds([ProtocolKind::Deterministic, ProtocolKind::Coordinated])
            .with_seeds([1, 2]);
        let report = s.sweep(&grid);
        let cells: Vec<(ProtocolKind, f64, u64)> = report
            .points
            .iter()
            .map(|p| (p.kind, p.independent_loss, p.seed))
            .collect();
        assert_eq!(
            cells,
            vec![
                (ProtocolKind::Deterministic, 0.0, 1),
                (ProtocolKind::Deterministic, 0.0, 2),
                (ProtocolKind::Coordinated, 0.0, 1),
                (ProtocolKind::Coordinated, 0.0, 2),
                (ProtocolKind::Deterministic, 0.05, 1),
                (ProtocolKind::Deterministic, 0.05, 2),
                (ProtocolKind::Coordinated, 0.05, 1),
                (ProtocolKind::Coordinated, 0.05, 2),
            ]
        );
    }

    /// The grid on an `n`-thread fleet (`0` = available parallelism),
    /// which must run every requested worker, up to one per job.
    fn threads(s: &ProtocolScenario, grid: &ProtocolSweepGrid, n: usize) -> ProtocolSweepReport {
        let run = s
            .coordinate(grid, &CoordinatorConfig::threads(n))
            .expect("thread sweeps succeed");
        let n = if n == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            n
        };
        assert_eq!(run.stats.workers, n.min(run.report.points.len()) as u64);
        run.report
    }

    #[test]
    fn thread_sweep_is_bitwise_identical_to_serial() {
        let s = tiny_scenario();
        let grid = ProtocolSweepGrid::independent_losses([0.0, 0.03, 0.08]).with_seeds([7, 9]);
        let serial = s.sweep(&grid);
        assert_eq!(serial.points.len(), 3 * 3 * 2);
        for n in [0, 1, 2, 3, 8, 64] {
            assert_eq!(serial, threads(&s, &grid, n), "{n} threads");
        }
    }

    #[test]
    fn sweep_regroups_into_the_serial_figure8_series_bitwise() {
        let s = tiny_scenario();
        let losses = [0.0, 0.04, 0.09];
        let serial = mlf_protocols::experiment::figure8_series(s.template(), &losses);
        let report = s.sweep(&ProtocolSweepGrid::independent_losses(losses));
        let regrouped: Vec<Figure8Point> = report
            .points
            .chunks(ProtocolKind::ALL.len())
            .map(|cell| Figure8Point {
                independent_loss: cell[0].independent_loss,
                outcomes: cell.iter().map(|p| p.outcome.clone()).collect(),
            })
            .collect();
        assert_eq!(regrouped, serial);
    }

    #[test]
    fn coordinating_an_invalid_grid_is_a_typed_error() {
        let grid = ProtocolSweepGrid::independent_losses([0.01, 1.5]);
        let err = tiny_scenario()
            .coordinate(&grid, &CoordinatorConfig::threads(2))
            .err();
        assert_eq!(
            err,
            Some(CoordinatorError::ProtocolGrid(grid.validate().unwrap_err()))
        );
    }

    #[test]
    fn points_surface_throughput_latency_and_loss_regime() {
        let s = ProtocolScenario::builder()
            .template(ExperimentParams {
                receivers: 6,
                packets: 3_000,
                trials: 2,
                join_latency: 3,
                leave_latency: 5,
                ..ExperimentParams::quick(0.02, 0.0).unwrap()
            })
            .build()
            .unwrap();
        let p = s.run_point(ProtocolKind::Deterministic, 0.0, 42);
        assert_eq!(p.join_latency, 3);
        assert_eq!(p.leave_latency, 5);
        assert_eq!(p.seed, 42);
        assert!(p.throughput() > 0.0);
        // With nonzero join latency a receiver's *requested* rate can
        // briefly exceed what the link carried, so redundancy may dip a
        // little under 1; it just has to stay in a sane band.
        assert!(
            p.redundancy() > 0.5 && p.redundancy() < 10.0,
            "{}",
            p.redundancy()
        );
        // 2% shared loss, no independent loss: realized regime ≈ 2%.
        assert!(
            (p.observed_loss() - 0.02).abs() < 0.015,
            "{}",
            p.observed_loss()
        );
    }

    #[test]
    fn latency_axis_expands_between_losses_and_kinds() {
        let s = tiny_scenario();
        let grid = ProtocolSweepGrid::independent_losses([0.0, 0.05])
            .with_kinds([ProtocolKind::Deterministic, ProtocolKind::Coordinated])
            .with_latencies([(0, 0), (5, 40)]);
        let report = s.sweep(&grid);
        let cells: Vec<(f64, Tick, Tick, ProtocolKind)> = report
            .points
            .iter()
            .map(|p| (p.independent_loss, p.join_latency, p.leave_latency, p.kind))
            .collect();
        assert_eq!(
            cells,
            vec![
                (0.0, 0, 0, ProtocolKind::Deterministic),
                (0.0, 0, 0, ProtocolKind::Coordinated),
                (0.0, 5, 40, ProtocolKind::Deterministic),
                (0.0, 5, 40, ProtocolKind::Coordinated),
                (0.05, 0, 0, ProtocolKind::Deterministic),
                (0.05, 0, 0, ProtocolKind::Coordinated),
                (0.05, 5, 40, ProtocolKind::Deterministic),
                (0.05, 5, 40, ProtocolKind::Coordinated),
            ]
        );
        // A latency pair genuinely changes the experiment: same (kind,
        // loss) cells differ across the axis.
        assert_ne!(report.points[0].outcome, report.points[2].outcome);
    }

    #[test]
    fn latency_points_match_an_explicitly_latent_template() {
        // A grid latency pair must produce the same point as baking the
        // same pair into the template — the axis *is* the template knob.
        let template = ExperimentParams {
            receivers: 6,
            packets: 3_000,
            trials: 2,
            ..ExperimentParams::quick(0.001, 0.0).unwrap()
        };
        let base = ProtocolScenario::builder()
            .label("lat")
            .template(template)
            .build()
            .unwrap();
        let swept = base.sweep(
            &ProtocolSweepGrid::independent_losses([0.03])
                .with_kinds([ProtocolKind::Deterministic])
                .with_latencies([(7, 21)]),
        );
        let baked = ProtocolScenario::builder()
            .label("lat")
            .template(ExperimentParams {
                join_latency: 7,
                leave_latency: 21,
                ..template
            })
            .build()
            .unwrap()
            .run_point(ProtocolKind::Deterministic, 0.03, template.seed);
        assert_eq!(swept.points.len(), 1);
        assert_eq!(swept.points[0], baked);
    }

    #[test]
    fn latency_axis_is_bitwise_identical_in_parallel() {
        let s = tiny_scenario();
        let grid = ProtocolSweepGrid::independent_losses([0.0, 0.04])
            .with_latencies([(0, 0), (3, 17), (12, 0)])
            .with_seeds([5, 6]);
        let serial = s.sweep(&grid);
        assert_eq!(serial.points.len(), 2 * 3 * 3 * 2);
        for n in [2, 8, 64] {
            assert_eq!(serial, threads(&s, &grid, n), "{n} threads");
        }
    }

    #[test]
    fn points_surface_per_receiver_distributions() {
        let s = tiny_scenario();
        let p = s.run_point(ProtocolKind::Uncoordinated, 0.05, 3);
        // 6 receivers × 2 trials.
        assert_eq!(p.receiver_goodput().count(), 12);
        assert_eq!(p.receiver_mean_level().count(), 12);
        assert!(p.receiver_goodput().min() <= p.throughput());
        assert!(p.receiver_goodput().max() >= p.throughput());
        assert!(p.receiver_mean_level().std_dev() >= 0.0);
    }

    #[test]
    fn figure8_axis_spans_zero_to_ten_percent() {
        let grid = ProtocolSweepGrid::figure8_axis(11);
        assert_eq!(grid.independent_losses.len(), 11);
        assert_eq!(grid.independent_losses[0], 0.0);
        assert!((grid.independent_losses[10] - 0.1).abs() < 1e-12);
        assert!(grid.validate().is_ok());
    }
}
