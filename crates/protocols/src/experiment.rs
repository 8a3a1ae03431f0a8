//! The Figure 8 experiment harness: redundancy of the three protocols on
//! the 100-receiver modified star (Figure 7(b)).
//!
//! For each `(shared loss, independent loss, protocol)` point the paper runs
//! 30 trials of 100,000 transmitted packets with 8 layers and 100 receivers
//! sharing identical end-to-end loss rates, and plots the mean shared-link
//! redundancy. [`run_point`] reproduces one such point; [`figure8_series`]
//! sweeps the independent-loss axis for all three protocols.

use crate::config::{ProtocolKind, MAX_LAYERS};
use crate::receiver::ProtocolReceiver;
use crate::sender::CoordinatedSender;
use mlf_sim::{
    run_star_into, MarkerSource, NoMarkers, RunningStats, SimRng, StarConfig, StarReport,
    StarScratch, Tick,
};

/// A value that cannot parameterize an experiment.
///
/// The Bernoulli loss processes of the star (`StarConfig::figure8`) need
/// probabilities in `[0, 1)` — a loss of exactly 1 starves every trial and
/// a non-finite value silently poisons every [`RunningStats`] the
/// experiment aggregates (NaN redundancy means a whole Figure 8 point
/// quietly plots as a gap). The shape fails the same way: zero receivers
/// or packets divide by zero into NaN means, zero trials report all-zero
/// statistics that plot as a real redundancy of 0, and a layer count
/// outside `1..=32` panics inside the layer schedule or the join
/// threshold. [`ExperimentParams::validate`] rejects all of these up
/// front with this typed error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExperimentParamError {
    /// A loss rate was NaN or infinite.
    NonFiniteLoss {
        /// Which knob was bad (`"shared"` or `"independent"`).
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A loss rate was outside the half-open interval `[0, 1)`.
    LossOutOfRange {
        /// Which knob was bad (`"shared"` or `"independent"`).
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The layer count was outside `1..=32`, the levels whose join
    /// threshold `2^{2(i−1)}` fits a `u64`.
    LayersOutOfRange {
        /// The offending layer count.
        layers: usize,
    },
    /// A count that must be positive was zero.
    ZeroCount {
        /// Which knob was zero (`"receivers"`, `"packets"` or `"trials"`).
        which: &'static str,
    },
}

impl std::fmt::Display for ExperimentParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentParamError::NonFiniteLoss { which, value } => {
                write!(f, "{which} loss rate must be finite, got {value}")
            }
            ExperimentParamError::LossOutOfRange { which, value } => {
                write!(f, "{which} loss rate {value} is outside [0, 1)")
            }
            ExperimentParamError::LayersOutOfRange { layers } => {
                write!(f, "layer count {layers} is outside 1..={MAX_LAYERS}")
            }
            ExperimentParamError::ZeroCount { which } => write!(f, "{which} must be at least 1"),
        }
    }
}

impl std::error::Error for ExperimentParamError {}

/// Validate one Bernoulli loss probability: finite and in `[0, 1)`.
///
/// `which` names the knob in the error (`"shared"`, `"independent"`, …) so
/// a sweep over many losses can say which point was bad.
pub fn validate_loss(which: &'static str, value: f64) -> Result<(), ExperimentParamError> {
    if !value.is_finite() {
        return Err(ExperimentParamError::NonFiniteLoss { which, value });
    }
    if !(0.0..1.0).contains(&value) {
        return Err(ExperimentParamError::LossOutOfRange { which, value });
    }
    Ok(())
}

/// Parameters of one Figure 8 experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Number of layers `M` (paper: 8).
    pub layers: usize,
    /// Number of receivers (paper: 100).
    pub receivers: usize,
    /// Bernoulli loss rate of the shared link (paper: 1e-4 or 0.05).
    pub shared_loss: f64,
    /// Bernoulli loss rate of each fanout link (paper: x-axis, 0..0.1).
    pub independent_loss: f64,
    /// Packets transmitted per trial (paper: 100,000).
    pub packets: u64,
    /// Trials per point (paper: 30).
    pub trials: usize,
    /// Base seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Join (graft) latency in slots — 0 reproduces the paper's idealized
    /// model; nonzero values drive the Section 5 latency ablation.
    pub join_latency: Tick,
    /// Leave (prune) latency in slots.
    pub leave_latency: Tick,
}

impl ExperimentParams {
    /// The paper's Figure 8 configuration at one `(shared, independent)`
    /// loss point. Rejects non-finite or out-of-`[0,1)` loss probabilities
    /// (which would otherwise surface only as NaN trial stats).
    pub fn paper(shared_loss: f64, independent_loss: f64) -> Result<Self, ExperimentParamError> {
        ExperimentParams {
            layers: 8,
            receivers: 100,
            shared_loss,
            independent_loss,
            packets: 100_000,
            trials: 30,
            seed: 0x51_66_C0_99,
            join_latency: 0,
            leave_latency: 0,
        }
        .validated()
    }

    /// A scaled-down configuration for fast tests/benches: same shapes,
    /// fewer receivers, packets and trials. Loss probabilities are
    /// validated like [`ExperimentParams::paper`].
    pub fn quick(shared_loss: f64, independent_loss: f64) -> Result<Self, ExperimentParamError> {
        ExperimentParams {
            layers: 8,
            receivers: 20,
            shared_loss,
            independent_loss,
            packets: 20_000,
            trials: 5,
            seed: 0x51_66_C0_99,
            join_latency: 0,
            leave_latency: 0,
        }
        .validated()
    }

    /// Check both loss probabilities (finite, in `[0, 1)`), the layer
    /// count (`1..=32`) and that receivers, packets and trials are
    /// positive.
    ///
    /// The fields are public (struct-update syntax is how the binaries and
    /// tests tweak shapes), so a hand-built value can still carry a bad
    /// value; call this before running it.
    pub fn validate(&self) -> Result<(), ExperimentParamError> {
        validate_loss("shared", self.shared_loss)?;
        validate_loss("independent", self.independent_loss)?;
        if !(1..=MAX_LAYERS).contains(&self.layers) {
            return Err(ExperimentParamError::LayersOutOfRange {
                layers: self.layers,
            });
        }
        for (which, count) in [
            ("receivers", self.receivers as u64),
            ("packets", self.packets),
            ("trials", self.trials as u64),
        ] {
            if count == 0 {
                return Err(ExperimentParamError::ZeroCount { which });
            }
        }
        Ok(())
    }

    /// [`ExperimentParams::validate`], by value (builder-style).
    pub fn validated(self) -> Result<Self, ExperimentParamError> {
        self.validate()?;
        Ok(self)
    }

    /// This configuration with a different independent (fanout-link) loss,
    /// validated — how a sweep derives its per-point parameters from one
    /// template.
    pub fn with_independent_loss(self, loss: f64) -> Result<Self, ExperimentParamError> {
        ExperimentParams {
            independent_loss: loss,
            ..self
        }
        .validated()
    }
}

/// Aggregated outcome of one experiment point.
///
/// Equality is bitwise on every statistic, which is what the serial/parallel
/// differential tests compare.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Which protocol ran.
    pub kind: ProtocolKind,
    /// Shared-link redundancy across trials (the Figure 8 y-value is
    /// `redundancy.mean()`).
    pub redundancy: RunningStats,
    /// Mean receiver subscription level across trials (diagnostic).
    pub mean_level: RunningStats,
    /// Mean receiver goodput in packets/slot across trials (diagnostic).
    pub goodput: RunningStats,
    /// Mean observed loss rate among requested packets across trials — the
    /// loss-regime statistic: how much loss receivers actually saw under
    /// the configured shared/independent mix.
    pub observed_loss: RunningStats,
    /// Per-receiver goodput distribution: one observation per
    /// `(receiver, trial)` pair, so `min()`/`max()`/`std_dev()` expose the
    /// *spread* across receivers that the per-trial means above average
    /// away (fairness is about the worst-off receiver, not the mean one).
    pub receiver_goodput: RunningStats,
    /// Per-receiver mean-subscription-level distribution, one observation
    /// per `(receiver, trial)` pair.
    pub receiver_mean_level: RunningStats,
}

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

/// Reusable state for a point's trial loop: the star configuration (shared
/// by every trial of the point), the engine's loss/RNG scratch, the output
/// report buffers, and the per-receiver controller vector. One `TrialRig`
/// runs any number of trials of one `(protocol, params)` pair with no
/// steady-state allocation. The controllers are the concrete
/// [`ProtocolReceiver`] enum, so the engine's visit loop inlines them.
struct TrialRig {
    cfg: StarConfig,
    controllers: Vec<ProtocolReceiver>,
    report: StarReport,
    scratch: StarScratch,
}

impl TrialRig {
    fn new(params: &ExperimentParams) -> Self {
        let cfg = StarConfig::figure8(
            params.layers,
            params.receivers,
            params.shared_loss,
            params.independent_loss,
        )
        .with_latencies(params.join_latency, params.leave_latency);
        TrialRig {
            cfg,
            controllers: Vec::with_capacity(params.receivers),
            report: StarReport::default(),
            scratch: StarScratch::default(),
        }
    }

    /// Run one trial into the rig's report buffer. Results are bitwise
    /// identical to the standalone [`run_trial`]: the configuration is
    /// trial-independent and every piece of mutable state (controllers,
    /// loss processes, RNG streams) is rebuilt from the trial seed.
    fn run(&mut self, kind: ProtocolKind, params: &ExperimentParams, trial: usize) -> &StarReport {
        let seed = params.seed.wrapping_add(trial as u64);
        let base = SimRng::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789);
        self.controllers.clear();
        self.controllers.extend(
            (0..params.receivers)
                .map(|r| ProtocolReceiver::new(kind, base.split(1_000_000 + r as u64))),
        );
        let mut markers = match kind {
            ProtocolKind::Coordinated => {
                Markers::Coordinated(CoordinatedSender::new(params.layers))
            }
            _ => Markers::None(NoMarkers),
        };
        run_star_into(
            &self.cfg,
            &mut self.controllers,
            &mut markers,
            params.packets,
            seed,
            &mut self.report,
            &mut self.scratch,
        );
        &self.report
    }
}

/// Run one trial and return the raw engine report.
pub fn run_trial(kind: ProtocolKind, params: &ExperimentParams, trial: usize) -> StarReport {
    let mut rig = TrialRig::new(params);
    rig.run(kind, params, trial);
    rig.report
}

/// Run all trials of one `(protocol, loss point)` and aggregate. The star
/// configuration, report buffers and engine scratch are built once and
/// reused across every trial of the point.
pub fn run_point(kind: ProtocolKind, params: &ExperimentParams) -> PointOutcome {
    let mut redundancy = RunningStats::new();
    let mut mean_level = RunningStats::new();
    let mut goodput = RunningStats::new();
    let mut observed_loss = RunningStats::new();
    let mut receiver_goodput = RunningStats::new();
    let mut receiver_mean_level = RunningStats::new();
    let mut rig = TrialRig::new(params);
    for t in 0..params.trials {
        let report = rig.run(kind, params, t);
        if let Some(r) = report.shared_redundancy() {
            redundancy.push(r);
        }
        let n = params.receivers as f64;
        let (mut level_sum, mut goodput_sum, mut loss_sum) = (0.0, 0.0, 0.0);
        for r in 0..params.receivers {
            let (g, l) = (report.goodput(r), report.mean_level(r));
            receiver_goodput.push(g);
            receiver_mean_level.push(l);
            goodput_sum += g;
            level_sum += l;
            loss_sum += report.loss_rate(r);
        }
        mean_level.push(level_sum / n);
        goodput.push(goodput_sum / n);
        observed_loss.push(loss_sum / n);
    }
    PointOutcome {
        kind,
        redundancy,
        mean_level,
        goodput,
        observed_loss,
        receiver_goodput,
        receiver_mean_level,
    }
}

/// One x-axis point of Figure 8: all three protocols at one independent-loss
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure8Point {
    /// The fanout-link loss rate (x-axis).
    pub independent_loss: f64,
    /// Outcomes ordered as [`ProtocolKind::ALL`].
    pub outcomes: Vec<PointOutcome>,
}

/// Sweep the independent-loss axis for all three protocols at a fixed
/// shared loss — one full Figure 8 panel. `template` supplies everything
/// except the independent loss.
pub fn figure8_series(
    template: &ExperimentParams,
    independent_losses: &[f64],
) -> Vec<Figure8Point> {
    independent_losses
        .iter()
        .map(|&p| {
            let params = ExperimentParams {
                independent_loss: p,
                ..*template
            };
            Figure8Point {
                independent_loss: p,
                outcomes: ProtocolKind::ALL
                    .iter()
                    .map(|&kind| run_point(kind, &params))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_is_at_least_one_and_bounded() {
        for kind in ProtocolKind::ALL {
            let params = ExperimentParams {
                trials: 3,
                packets: 20_000,
                receivers: 10,
                ..ExperimentParams::quick(0.0001, 0.02).unwrap()
            };
            let out = run_point(kind, &params);
            let r = out.redundancy.mean();
            assert!(r >= 1.0, "{}: redundancy {r} < 1", kind.label());
            assert!(
                r < 10.0,
                "{}: redundancy {r} implausibly high",
                kind.label()
            );
        }
    }

    #[test]
    fn coordinated_beats_uncoordinated_at_moderate_independent_loss() {
        // The paper's headline: sender coordination keeps redundancy lowest
        // when receivers' losses are independent and equal.
        let params = ExperimentParams {
            trials: 4,
            packets: 30_000,
            receivers: 24,
            ..ExperimentParams::quick(0.0001, 0.05).unwrap()
        };
        let coord = run_point(ProtocolKind::Coordinated, &params);
        let uncoord = run_point(ProtocolKind::Uncoordinated, &params);
        assert!(
            coord.redundancy.mean() < uncoord.redundancy.mean(),
            "coordinated {} !< uncoordinated {}",
            coord.redundancy.mean(),
            uncoord.redundancy.mean()
        );
    }

    #[test]
    fn redundancy_grows_with_independent_loss_for_uncoordinated() {
        let lo = run_point(
            ProtocolKind::Uncoordinated,
            &ExperimentParams {
                trials: 3,
                packets: 30_000,
                receivers: 16,
                ..ExperimentParams::quick(0.0001, 0.01).unwrap()
            },
        );
        let hi = run_point(
            ProtocolKind::Uncoordinated,
            &ExperimentParams {
                trials: 3,
                packets: 30_000,
                receivers: 16,
                ..ExperimentParams::quick(0.0001, 0.08).unwrap()
            },
        );
        assert!(
            hi.redundancy.mean() > lo.redundancy.mean(),
            "lo {} hi {}",
            lo.redundancy.mean(),
            hi.redundancy.mean()
        );
    }

    #[test]
    fn pure_shared_loss_keeps_receivers_synchronized() {
        // With only shared loss, all receivers see identical loss patterns.
        // Deterministic receivers then move in lockstep: redundancy ≈ 1.
        let params = ExperimentParams {
            trials: 3,
            ..ExperimentParams::quick(0.02, 0.0).unwrap()
        };
        let out = run_point(ProtocolKind::Deterministic, &params);
        let r = out.redundancy.mean();
        assert!(r < 1.05, "lockstep redundancy should be ~1, got {r}");
    }

    #[test]
    fn bad_loss_probabilities_are_rejected_with_typed_errors() {
        // NaN payloads can't be compared with ==; match the variant.
        assert!(matches!(
            ExperimentParams::quick(f64::NAN, 0.05).unwrap_err(),
            ExperimentParamError::NonFiniteLoss {
                which: "shared",
                value,
            } if value.is_nan()
        ));
        assert_eq!(
            ExperimentParams::paper(0.0001, f64::INFINITY).unwrap_err(),
            ExperimentParamError::NonFiniteLoss {
                which: "independent",
                value: f64::INFINITY,
            }
        );
        assert_eq!(
            ExperimentParams::quick(-0.1, 0.05).unwrap_err(),
            ExperimentParamError::LossOutOfRange {
                which: "shared",
                value: -0.1,
            }
        );
        // Loss of exactly 1 starves every trial: rejected (half-open range).
        assert_eq!(
            ExperimentParams::paper(0.0001, 1.0).unwrap_err(),
            ExperimentParamError::LossOutOfRange {
                which: "independent",
                value: 1.0,
            }
        );
        // Boundary: 0 is a valid (lossless) probability.
        assert!(ExperimentParams::quick(0.0, 0.0).is_ok());
        let msg = ExperimentParams::quick(0.0001, 2.0)
            .unwrap_err()
            .to_string();
        assert_eq!(msg, "independent loss rate 2 is outside [0, 1)");
    }

    #[test]
    fn hand_built_params_validate_and_rederive() {
        let template = ExperimentParams::quick(0.0001, 0.0).unwrap();
        let swept = template.with_independent_loss(0.07).unwrap();
        assert_eq!(swept.independent_loss, 0.07);
        assert_eq!(swept.shared_loss, template.shared_loss);
        assert!(template.with_independent_loss(f64::NAN).is_err());
        let bad = ExperimentParams {
            shared_loss: 3.0,
            ..template
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn observed_loss_tracks_the_configured_regime() {
        // With 2% shared loss only, receivers should observe ~2% loss.
        let params = ExperimentParams {
            trials: 3,
            ..ExperimentParams::quick(0.02, 0.0).unwrap()
        };
        let out = run_point(ProtocolKind::Deterministic, &params);
        let seen = out.observed_loss.mean();
        assert!(
            (seen - 0.02).abs() < 0.01,
            "observed loss {seen} far from configured 0.02"
        );
    }

    #[test]
    fn per_receiver_distributions_bracket_the_means() {
        let params = ExperimentParams {
            trials: 3,
            packets: 20_000,
            receivers: 12,
            ..ExperimentParams::quick(0.0001, 0.05).unwrap()
        };
        let out = run_point(ProtocolKind::Uncoordinated, &params);
        // One observation per (receiver, trial).
        assert_eq!(out.receiver_goodput.count(), 12 * 3);
        assert_eq!(out.receiver_mean_level.count(), 12 * 3);
        // The distribution brackets the per-trial means, with real spread
        // under independent loss.
        assert!(out.receiver_goodput.min() <= out.goodput.mean());
        assert!(out.receiver_goodput.max() >= out.goodput.mean());
        assert!(out.receiver_mean_level.min() <= out.mean_level.mean());
        assert!(out.receiver_mean_level.max() >= out.mean_level.mean());
        assert!(
            out.receiver_mean_level.std_dev() > 0.0,
            "independent loss desynchronizes receivers"
        );
        // Same pooled mean as the mean-of-per-trial-means (equal-size
        // groups), up to float associativity.
        assert!((out.receiver_goodput.mean() - out.goodput.mean()).abs() < 1e-9);
    }

    #[test]
    fn trials_are_reproducible() {
        let params = ExperimentParams::quick(0.001, 0.03).unwrap();
        let a = run_trial(ProtocolKind::Deterministic, &params, 0);
        let b = run_trial(ProtocolKind::Deterministic, &params, 0);
        assert_eq!(a.shared_carried, b.shared_carried);
        assert_eq!(a.offered, b.offered);
        let c = run_trial(ProtocolKind::Deterministic, &params, 1);
        assert_ne!(a.offered, c.offered);
    }

    #[test]
    fn series_covers_all_protocols() {
        let template = ExperimentParams {
            trials: 2,
            packets: 10_000,
            receivers: 8,
            ..ExperimentParams::quick(0.0001, 0.0).unwrap()
        };
        let series = figure8_series(&template, &[0.01, 0.05]);
        assert_eq!(series.len(), 2);
        for point in &series {
            assert_eq!(point.outcomes.len(), 3);
            for out in &point.outcomes {
                assert_eq!(out.redundancy.count(), 2);
            }
        }
    }
}
