//! Figure 5: redundancy of a single layer under random joins.
//!
//! Appendix B derives the expected per-quantum bandwidth of a session on a
//! link when each downstream receiver picks its packets uniformly at random:
//! `E[U_{i,j}] = σ(1 − ∏_t(1 − a_t/σ))`. Figure 5 plots the induced
//! redundancy `E[U]/max a_t` against the number of receivers for five rate
//! configurations (`All 0.1`, `All 0.5`, `All 0.9`, `1st .5 rest .1`,
//! `1st .9 rest .1`, all with `σ = 1`).
//!
//! Key shapes the paper reads off the figure (and the tests pin down):
//!
//! * redundancy is bounded above by `σ / max a_t` and approaches that bound
//!   as receivers multiply;
//! * for a fixed efficient link rate, identical receiver rates drive
//!   redundancy up fastest;
//! * the first receiver's high rate anchors the denominator, so
//!   `1st .9 rest .1` stays near 1.1 while `All 0.1` climbs toward 10.

use crate::quantum::{long_term_redundancy, SelectionMode};
use mlf_core::linkrate::LinkRateModel;

/// Analytic redundancy of a single random-join layer: `E[U] / max a_t`.
/// Returns 1.0 for empty/zero rate sets (the degenerate efficient case).
pub fn analytic_redundancy(rates: &[f64], sigma: f64) -> f64 {
    LinkRateModel::RandomJoin { sigma }.redundancy(rates)
}

/// The named receiver-rate configurations of Figure 5 (σ = 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure5Config {
    /// Every receiver at rate 0.1.
    All01,
    /// Every receiver at rate 0.5.
    All05,
    /// Every receiver at rate 0.9.
    All09,
    /// First receiver at 0.5, the rest at 0.1.
    First05Rest01,
    /// First receiver at 0.9, the rest at 0.1.
    First09Rest01,
}

impl Figure5Config {
    /// All five curves, in the paper's legend order.
    pub const ALL: [Figure5Config; 5] = [
        Figure5Config::All01,
        Figure5Config::All05,
        Figure5Config::First05Rest01,
        Figure5Config::All09,
        Figure5Config::First09Rest01,
    ];

    /// The legend label used in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Figure5Config::All01 => "All 0.1",
            Figure5Config::All05 => "All 0.5",
            Figure5Config::All09 => "All 0.9",
            Figure5Config::First05Rest01 => "1st .5 rest .1",
            Figure5Config::First09Rest01 => "1st .9 rest .1",
        }
    }

    /// Materialize the rate vector for `receivers` receivers.
    pub fn rates(self, receivers: usize) -> Vec<f64> {
        let (first, rest) = match self {
            Figure5Config::All01 => (0.1, 0.1),
            Figure5Config::All05 => (0.5, 0.5),
            Figure5Config::All09 => (0.9, 0.9),
            Figure5Config::First05Rest01 => (0.5, 0.1),
            Figure5Config::First09Rest01 => (0.9, 0.1),
        };
        (0..receivers)
            .map(|t| if t == 0 { first } else { rest })
            .collect()
    }

    /// The asymptotic redundancy bound `σ / max a_t` (σ = 1).
    pub fn asymptote(self) -> f64 {
        1.0 / self.rates(1)[0]
    }
}

/// One point of the Figure 5 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5Point {
    /// Number of receivers sharing the link (x-axis).
    pub receivers: usize,
    /// Analytic redundancy per configuration, ordered as
    /// [`Figure5Config::ALL`].
    pub redundancy: Vec<f64>,
}

/// Regenerate the Figure 5 series analytically for the given receiver
/// counts (the paper sweeps 1..=100 on a log axis).
pub fn figure5_series(receiver_counts: &[usize]) -> Vec<Figure5Point> {
    receiver_counts
        .iter()
        .map(|&r| Figure5Point {
            receivers: r,
            redundancy: Figure5Config::ALL
                .iter()
                .map(|c| analytic_redundancy(&c.rates(r), 1.0))
                .collect(),
        })
        .collect()
}

/// Monte-Carlo cross-validation of one Figure 5 point: simulate `quanta`
/// quanta of `sigma_packets` packets with uniformly random subsets and
/// measure the long-term redundancy. Rates are scaled by `sigma_packets`
/// and rounded to packet quotas, so choose `sigma_packets` to make the
/// rates integral (the Figure 5 configs are integral at multiples of 10).
pub fn monte_carlo_redundancy(
    config: Figure5Config,
    receivers: usize,
    sigma_packets: usize,
    quanta: usize,
    seed: u64,
) -> f64 {
    let quotas: Vec<usize> = config
        .rates(receivers)
        .iter()
        .map(|a| (a * sigma_packets as f64).round() as usize)
        .collect();
    long_term_redundancy(&quotas, sigma_packets, quanta, SelectionMode::Random, seed)
        // mlf-lint: allow(panic-unwrap, reason = "Figure 5 rate configs are strictly positive, so the scaled quotas are nonzero for any documented sigma_packets choice")
        .expect("nonzero quotas")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_monotone_in_receivers() {
        for cfg in Figure5Config::ALL {
            let mut prev = 0.0;
            for r in [1, 2, 5, 10, 50, 100] {
                let red = analytic_redundancy(&cfg.rates(r), 1.0);
                assert!(red >= prev - 1e-12, "{}: not monotone", cfg.label());
                prev = red;
            }
        }
    }

    #[test]
    fn redundancy_bounded_by_asymptote() {
        for cfg in Figure5Config::ALL {
            let bound = cfg.asymptote();
            for r in [1, 10, 100, 1000] {
                let red = analytic_redundancy(&cfg.rates(r), 1.0);
                assert!(red <= bound + 1e-12, "{}: exceeds bound", cfg.label());
            }
            // And approaches it.
            let red = analytic_redundancy(&cfg.rates(2000), 1.0);
            assert!(
                red > 0.99 * bound,
                "{}: {red} vs bound {bound}",
                cfg.label()
            );
        }
    }

    #[test]
    fn single_receiver_is_efficient() {
        for cfg in Figure5Config::ALL {
            assert!((analytic_redundancy(&cfg.rates(1), 1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn identical_rates_grow_fastest_at_fixed_efficient_rate() {
        // "All 0.5" vs "1st .5 rest .1": same efficient link rate (0.5),
        // but the uniform configuration is more redundant at every receiver
        // count > 1.
        for r in [2, 5, 20, 100] {
            let uniform = analytic_redundancy(&Figure5Config::All05.rates(r), 1.0);
            let skewed = analytic_redundancy(&Figure5Config::First05Rest01.rates(r), 1.0);
            assert!(uniform > skewed, "r={r}: {uniform} <= {skewed}");
        }
        for r in [2, 5, 20, 100] {
            let uniform = analytic_redundancy(&Figure5Config::All09.rates(r), 1.0);
            let skewed = analytic_redundancy(&Figure5Config::First09Rest01.rates(r), 1.0);
            assert!(uniform > skewed, "r={r}");
        }
    }

    #[test]
    fn figure5_series_shape() {
        let series = figure5_series(&[1, 10, 100]);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].redundancy.len(), 5);
        // All 0.1 at 100 receivers is close to its bound of 10.
        let all01_at_100 = series[2].redundancy[0];
        assert!(all01_at_100 > 9.9, "got {all01_at_100}");
        // All 0.9 saturates near 1/0.9 ≈ 1.111 almost immediately.
        let all09_at_10 = series[1].redundancy[3];
        assert!((all09_at_10 - 1.0 / 0.9).abs() < 0.01);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        // Spot-check three points with enough quanta for ~1% accuracy.
        for (cfg, r) in [
            (Figure5Config::All05, 4usize),
            (Figure5Config::All01, 10),
            (Figure5Config::First09Rest01, 5),
        ] {
            let analytic = analytic_redundancy(&cfg.rates(r), 1.0);
            let mc = monte_carlo_redundancy(cfg, r, 100, 300, 1234);
            assert!(
                (mc - analytic).abs() / analytic < 0.03,
                "{} r={r}: mc {mc} vs analytic {analytic}",
                cfg.label()
            );
        }
    }
}
