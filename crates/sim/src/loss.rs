//! Per-link packet-loss processes.
//!
//! Section 4 models loss (equivalently, ECN congestion marking) as a
//! **Bernoulli** process per link, arguing this is accurate when links carry
//! many flows so one flow's rate barely moves the link's loss rate
//! (Yajnik et al.). We implement that model plus a **Gilbert–Elliott**
//! two-state burst-loss process as a clearly-flagged extension: the paper's
//! related-work section points at temporal loss correlation as exactly the
//! thing its Bernoulli model abstracts away, and the Figure 8 ablation
//! benches quantify how much burstiness moves the redundancy curves.

use crate::rng::{bernoulli_threshold, SimRng};

/// A packet-loss process for one link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossProcess {
    /// Independent loss with fixed probability `p` (the paper's model).
    Bernoulli {
        /// Loss probability per packet.
        p: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst loss. The chain moves
    /// between a Good and a Bad state; each state has its own loss rate.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_good_to_bad: f64,
        /// P(Bad → Good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while Good (usually ≈ 0).
        loss_good: f64,
        /// Loss probability while Bad (usually large).
        loss_bad: f64,
        /// Current state: `true` = Bad.
        in_bad: bool,
    },
}

impl LossProcess {
    /// A Bernoulli process with per-packet loss probability `p`.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        LossProcess::Bernoulli { p }
    }

    /// A Gilbert–Elliott process started in the Good state.
    pub(crate) fn gilbert_elliott(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for p in [p_good_to_bad, p_bad_to_good, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        LossProcess::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// A Gilbert–Elliott process with the same *average* loss rate as a
    /// Bernoulli process of rate `p`, with mean burst length `burst` (in
    /// packets) and lossless Good state. Useful for like-for-like ablations.
    ///
    /// Stationary Bad probability `π_b = p / loss_bad`; with `loss_bad = 1`
    /// and mean Bad dwell `burst = 1/p_bg`, we need `π_b = p`, i.e.
    /// `p_gb = p_bg · p / (1 − p)`.
    pub fn bursty_with_average(p: f64, burst: f64) -> Self {
        assert!((0.0..1.0).contains(&p) && burst >= 1.0);
        let p_bg = 1.0 / burst;
        let p_gb = (p_bg * p / (1.0 - p)).min(1.0);
        Self::gilbert_elliott(p_gb, p_bg, 0.0, 1.0)
    }

    /// Draw the fate of one packet: `true` = lost. Advances internal state
    /// for the Markov variant.
    pub fn sample(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossProcess::Bernoulli { p } => rng.bernoulli(*p),
            LossProcess::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                in_bad,
            } => {
                // Transition first, then draw loss in the new state; the
                // order is a modelling convention, fixed for determinism.
                if *in_bad {
                    if rng.bernoulli(*p_bad_to_good) {
                        *in_bad = false;
                    }
                } else if rng.bernoulli(*p_good_to_bad) {
                    *in_bad = true;
                }
                let p = if *in_bad { *loss_bad } else { *loss_good };
                rng.bernoulli(p)
            }
        }
    }
}

/// A link's [`LossProcess`] in the form the star engine samples per visit:
/// a Bernoulli process becomes its precomputed integer test, anything else
/// is sampled as itself. [`LaneLoss::sample`] gives the same answers and
/// leaves the RNG in the same state as [`LossProcess::sample`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LaneLoss {
    /// Bernoulli with `p ≤ 0`: never lost, no draw.
    Never,
    /// Bernoulli with `p ≥ 1`: always lost, no draw.
    Always,
    /// Bernoulli with `p` inside `(0, 1)` (or NaN): one draw, lost iff it
    /// passes this [`bernoulli_threshold`].
    Below(u64),
    /// Any other process, sampled through [`LossProcess::sample`].
    Process(LossProcess),
}

impl LaneLoss {
    /// The lane form of `process`. Like [`SimRng::bernoulli`], a debug
    /// build rejects a Bernoulli probability outside `[0, 1]`; a release
    /// build treats a NaN one as a draw that never loses.
    pub(crate) fn new(process: &LossProcess) -> Self {
        match *process {
            LossProcess::Bernoulli { p } => {
                debug_assert!((0.0..=1.0).contains(&p), "probability out of range");
                if p <= 0.0 {
                    LaneLoss::Never
                } else if p >= 1.0 {
                    LaneLoss::Always
                } else {
                    LaneLoss::Below(bernoulli_threshold(p))
                }
            }
            LossProcess::GilbertElliott { .. } => LaneLoss::Process(process.clone()),
        }
    }

    /// Draw the fate of one packet: `true` = lost.
    #[inline]
    pub(crate) fn sample(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LaneLoss::Never => false,
            LaneLoss::Always => true,
            LaneLoss::Below(t) => rng.below_threshold(*t),
            LaneLoss::Process(process) => process.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane form of a Bernoulli process answers exactly like
    /// `SimRng::bernoulli` and consumes exactly the same draws, at the
    /// edges of the probability range and in its interior.
    #[test]
    fn lane_threshold_matches_bernoulli_draw_for_draw() {
        let cases = [
            0.0,
            -0.0,
            5e-324,
            f64::EPSILON / 2.0, // 2^-53
            1e-4,
            0.1,
            0.5,
            1.0 - f64::EPSILON / 2.0, // 1 - 2^-53
            1.0,
        ];
        for p in cases {
            let process = LossProcess::Bernoulli { p };
            let mut lane = LaneLoss::new(&process);
            let mut a = SimRng::seed_from_u64(0x1A2E);
            let mut b = a.clone();
            for i in 0..20_000 {
                assert_eq!(lane.sample(&mut a), b.bernoulli(p), "p={p:e}, draw {i}");
                assert_eq!(a, b, "p={p:e}: rng state after draw {i}");
            }
        }
    }

    /// The threshold's comparison is exact at its boundary: the draw whose
    /// top 53 bits equal `t - 1` passes and the one equal to `t` fails, as
    /// `unit() < p` decides.
    #[test]
    fn lane_threshold_is_exact_at_the_boundary() {
        for p in [
            5e-324,
            f64::EPSILON / 2.0,
            1e-4,
            0.1,
            0.5,
            1.0 - f64::EPSILON / 2.0,
        ] {
            let t = bernoulli_threshold(p);
            let unit = |k: u64| k as f64 / (1u64 << 53) as f64;
            assert!(unit(t - 1) < p, "p={p:e}: k = t-1 must pass");
            assert!(unit(t) >= p, "p={p:e}: k = t must fail");
        }
    }

    /// A NaN probability: a debug build rejects it, as `SimRng::bernoulli`
    /// does; a release build draws one word and never loses.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of range"))]
    fn nan_lane_draws_once_and_never_loses() {
        let mut lane = LaneLoss::new(&LossProcess::Bernoulli { p: f64::NAN });
        let mut a = SimRng::seed_from_u64(7);
        let mut b = a.clone();
        for _ in 0..1_000 {
            assert!(!lane.sample(&mut a));
            let _ = b.next_u64();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bernoulli_empirical_rate() {
        let mut lp = LossProcess::bernoulli(0.05);
        assert_eq!(lp, LossProcess::Bernoulli { p: 0.05 });
        let mut rng = SimRng::seed_from_u64(1);
        let n = 100_000;
        let losses = (0..n).filter(|_| lp.sample(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_matches_target_average() {
        let mut lp = LossProcess::bursty_with_average(0.05, 10.0);
        let LossProcess::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            ..
        } = lp
        else {
            panic!("bursty_with_average must build a Gilbert–Elliott process");
        };
        let pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good);
        let stationary = pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
        assert!((stationary - 0.05).abs() < 1e-12, "stationary {stationary}");
        let mut rng = SimRng::seed_from_u64(2);
        let n = 400_000;
        let losses = (0..n).filter(|_| lp.sample(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Measure mean run length of consecutive losses; must exceed the
        // Bernoulli expectation (~1/(1-p) ≈ 1.05) by a wide margin.
        let mut lp = LossProcess::bursty_with_average(0.05, 10.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut runs = 0usize;
        let mut losses = 0usize;
        let mut in_run = false;
        for _ in 0..200_000 {
            if lp.sample(&mut rng) {
                losses += 1;
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        let mean_run = losses as f64 / runs as f64;
        assert!(mean_run > 3.0, "mean burst length {mean_run}");
    }

    #[test]
    fn zero_and_one_probabilities() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut never = LossProcess::bernoulli(0.0);
        let mut always = LossProcess::bernoulli(1.0);
        for _ in 0..100 {
            assert!(!never.sample(&mut rng));
            assert!(always.sample(&mut rng));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        let _ = LossProcess::bernoulli(1.5);
    }
}
