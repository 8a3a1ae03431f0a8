//! Session link-rate ("redundancy") functions `v_i`.
//!
//! Section 2 of the paper assumes the *efficient* session link rate
//! `u_{i,j} = max{a_{i,k} : r_{i,k} ∈ R_{i,j}}` — the theoretical minimum
//! bandwidth a layered session needs on a link to serve the receivers
//! downstream of it. Section 3 generalizes a session to carry a
//! *redundancy function* `v_i` mapping the set of downstream receiver rates
//! to the session's actual link rate, with `v_i(X) ≥ max X` required
//! (every byte a receiver gets must traverse its data-path).
//!
//! [`LinkRateModel`] provides the paper's models:
//!
//! * [`LinkRateModel::Efficient`] — `v(X) = max X` (redundancy 1, the §2
//!   assumption, achievable with perfectly coordinated joins/leaves);
//! * [`LinkRateModel::Scaled`] — `v(X) = r · max X` on links shared by two
//!   or more of the session's receivers (redundancy `r`, the knob of
//!   Lemma 4 / Figures 4 and 6). Single-receiver links stay efficient:
//!   redundancy is by definition excess caused by imperfectly-overlapping
//!   *sets* of received packets, which takes at least two receivers;
//! * [`LinkRateModel::Sum`] — `v(X) = Σ X`, the degenerate worst case in
//!   which the session behaves like independent unicasts (no sharing at
//!   all, e.g. the "distinct unicast connections" sessions of Tzeng & Siu);
//! * [`LinkRateModel::RandomJoin`] — the Appendix B closed form
//!   `v(X) = σ(1 − ∏_t(1 − a_t/σ))` for receivers that pick their
//!   `a_t·Δt` packets uniformly at random from a layer of rate `σ`
//!   (completely uncoordinated joins).

/// A session link-rate function `v_i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkRateModel {
    /// `u = max X`: perfectly coordinated (redundancy 1).
    Efficient,
    /// `u = factor · max X` when at least two receivers share the link,
    /// `max X` otherwise. Requires `factor ≥ 1`.
    Scaled(f64),
    /// `u = Σ X`: independent unicasts, the maximal redundancy.
    Sum,
    /// `u = σ (1 − ∏ (1 − a_t/σ))`: uniform random packet choice out of a
    /// single layer of aggregate rate `σ` (Appendix B). Receiver rates are
    /// clamped to `σ`, matching the model's requirement `a_t ≤ σ`.
    RandomJoin {
        /// The layer transmission rate `σ > 0`.
        sigma: f64,
    },
}

impl LinkRateModel {
    /// Evaluate `v_i` on the set of downstream receiver rates.
    ///
    /// Returns 0 for the empty set (the session does not use the link).
    /// All models satisfy the paper's requirement `v(X) ≥ max X` (for
    /// `RandomJoin` this holds because rates are clamped to `σ` and
    /// `σ(1 − ∏(1 − a_t/σ)) ≥ σ·(a_max/σ) = a_max`).
    pub fn link_rate(&self, rates: &[f64]) -> f64 {
        self.link_rate_of(rates.iter().copied())
    }

    /// [`LinkRateModel::link_rate`] of a sequence of rates that can be
    /// walked more than once, folded in sequence order: the same
    /// operations in the same order as on a slice of those rates, so the
    /// same bits, without gathering the rates first.
    pub(crate) fn link_rate_of<I>(&self, rates: I) -> f64
    where
        I: Iterator<Item = f64> + Clone,
    {
        let mut first_two = rates.clone();
        if first_two.next().is_none() {
            return 0.0;
        }
        let several = first_two.next().is_some();
        let max = || rates.clone().fold(0.0_f64, f64::max);
        match *self {
            LinkRateModel::Efficient => max(),
            LinkRateModel::Scaled(factor) => {
                debug_assert!(factor >= 1.0, "redundancy factor must be >= 1");
                if several {
                    factor * max()
                } else {
                    max()
                }
            }
            LinkRateModel::Sum => rates.sum(),
            LinkRateModel::RandomJoin { sigma } => {
                debug_assert!(sigma > 0.0, "layer rate must be positive");
                let mut miss_all = 1.0;
                for a in rates {
                    let a = a.min(sigma).max(0.0);
                    miss_all *= 1.0 - a / sigma;
                }
                sigma * (1.0 - miss_all)
            }
        }
    }

    /// Check the model's parameter against its domain: `RandomJoin` needs
    /// a finite layer rate `σ > 0`, and `Scaled` a finite factor `≥ 1`
    /// (below 1 it breaks the paper's premise `v(X) ≥ max X`). Returns
    /// why the parameter is invalid.
    ///
    /// The solver assumes a valid model: `σ = 0` reports every rate as 0,
    /// and a NaN `σ` stalls progressive filling.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            LinkRateModel::Efficient | LinkRateModel::Sum => Ok(()),
            LinkRateModel::Scaled(factor) => {
                if factor.is_finite() && factor >= 1.0 {
                    Ok(())
                } else {
                    Err("Scaled needs a finite redundancy factor >= 1")
                }
            }
            LinkRateModel::RandomJoin { sigma } => {
                if sigma.is_finite() && sigma > 0.0 {
                    Ok(())
                } else {
                    Err("RandomJoin needs a finite layer rate sigma > 0")
                }
            }
        }
    }

    /// The redundancy `v(X) / max X` this model exhibits on a link with the
    /// given downstream rates (Definition 3). Returns 1 for empty/zero sets.
    pub fn redundancy(&self, rates: &[f64]) -> f64 {
        let max = rates.iter().copied().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return 1.0;
        }
        self.link_rate(rates) / max
    }

    /// Whether the model is linear in a uniform scaling of the *active*
    /// water-filling level (true for `Efficient`, `Scaled`, `Sum`). The
    /// allocator uses an exact piecewise-linear solver for linear models and
    /// falls back to bisection otherwise.
    pub(crate) fn is_piecewise_linear(&self) -> bool {
        !matches!(self, LinkRateModel::RandomJoin { .. })
    }

    /// Whether this model dominates `other` pointwise (`v(X) ≥ v'(X)` for
    /// all rate sets) — the premise of Lemma 4. Conservative: returns `true`
    /// only for pairs we can prove.
    pub(crate) fn dominates(&self, other: &LinkRateModel) -> bool {
        use LinkRateModel::*;
        match (self, other) {
            (a, b) if a == b => true,
            (_, Efficient) => true, // every valid v dominates max
            (Scaled(a), Scaled(b)) => a >= b,
            (Sum, Scaled(_)) | (Sum, RandomJoin { .. }) => false, // not in general
            _ => false,
        }
    }
}

/// Per-session link-rate configuration for a network of `m` sessions.
///
/// The paper's Section 2 results assume every session is efficient;
/// Section 3 mixes efficient and redundant sessions (e.g. Figure 6's
/// `m` redundant out of `n` total sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRateConfig {
    models: Vec<LinkRateModel>,
}

impl LinkRateConfig {
    /// All sessions efficient (the Section 2 assumption).
    pub fn efficient(session_count: usize) -> Self {
        LinkRateConfig {
            models: vec![LinkRateModel::Efficient; session_count],
        }
    }

    /// The same model for every session.
    pub fn uniform(session_count: usize, model: LinkRateModel) -> Self {
        LinkRateConfig {
            models: vec![model; session_count],
        }
    }

    /// Explicit per-session models.
    pub fn per_session(models: Vec<LinkRateModel>) -> Self {
        LinkRateConfig { models }
    }

    /// Builder-style override of a single session's model.
    pub fn with_session(mut self, session: usize, model: LinkRateModel) -> Self {
        self.models[session] = model;
        self
    }

    /// The model for session `i`.
    pub fn model(&self, session: usize) -> &LinkRateModel {
        &self.models[session]
    }

    /// Number of sessions configured.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no sessions are configured.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Whether every session is piecewise-linear (enables the exact solver).
    pub(crate) fn all_piecewise_linear(&self) -> bool {
        self.models.iter().all(|m| m.is_piecewise_linear())
    }

    /// Whether `self` dominates `other` sessionwise (Lemma 4 premise).
    pub(crate) fn dominates(&self, other: &LinkRateConfig) -> bool {
        self.len() == other.len()
            && self
                .models
                .iter()
                .zip(&other.models)
                .all(|(a, b)| a.dominates(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn efficient_is_max() {
        let m = LinkRateModel::Efficient;
        assert_eq!(m.link_rate(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(m.link_rate(&[]), 0.0);
        assert_eq!(m.link_rate(&[5.0]), 5.0);
    }

    #[test]
    fn scaled_applies_only_to_shared_links() {
        let m = LinkRateModel::Scaled(2.0);
        assert_eq!(m.link_rate(&[2.0]), 2.0, "single receiver stays efficient");
        assert_eq!(m.link_rate(&[2.0, 1.0]), 4.0);
        assert_eq!(m.redundancy(&[2.0, 1.0]), 2.0);
        assert_eq!(m.redundancy(&[2.0]), 1.0);
    }

    #[test]
    fn sum_is_total() {
        let m = LinkRateModel::Sum;
        assert_eq!(m.link_rate(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(m.redundancy(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn random_join_matches_appendix_b() {
        let m = LinkRateModel::RandomJoin { sigma: 1.0 };
        // Two receivers at a/σ = 0.5: u = 1 - 0.25 = 0.75.
        assert!((m.link_rate(&[0.5, 0.5]) - 0.75).abs() < EPS);
        // Redundancy = 0.75 / 0.5 = 1.5.
        assert!((m.redundancy(&[0.5, 0.5]) - 1.5).abs() < EPS);
        // Single receiver: u = a (efficient).
        assert!((m.link_rate(&[0.3]) - 0.3).abs() < EPS);
        // Rates clamp at σ.
        assert!((m.link_rate(&[2.0, 0.1]) - 1.0).abs() < EPS);
    }

    #[test]
    fn random_join_dominates_max() {
        let m = LinkRateModel::RandomJoin { sigma: 1.0 };
        for rates in [&[0.1, 0.9][..], &[0.2, 0.2, 0.2], &[0.99, 0.5]] {
            let max = rates.iter().cloned().fold(0.0_f64, f64::max);
            assert!(m.link_rate(rates) >= max - EPS);
        }
    }

    #[test]
    fn validate_rejects_parameters_outside_the_domain() {
        use LinkRateModel::*;
        for ok in [
            Efficient,
            Sum,
            Scaled(1.0),
            Scaled(2.5),
            RandomJoin { sigma: 6.0 },
            RandomJoin { sigma: 1e-9 },
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        for bad in [
            Scaled(0.5),
            Scaled(-1.0),
            Scaled(f64::NAN),
            Scaled(f64::INFINITY),
            RandomJoin { sigma: 0.0 },
            RandomJoin { sigma: -1.0 },
            RandomJoin { sigma: f64::NAN },
            RandomJoin {
                sigma: f64::INFINITY,
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn domination_relation() {
        use LinkRateModel::*;
        assert!(Scaled(2.0).dominates(&Efficient));
        assert!(Scaled(3.0).dominates(&Scaled(2.0)));
        assert!(!Scaled(2.0).dominates(&Scaled(3.0)));
        assert!(Sum.dominates(&Efficient));
        assert!(Efficient.dominates(&Efficient));
        assert!(!Efficient.dominates(&Sum));
    }

    #[test]
    fn config_builders() {
        let cfg = LinkRateConfig::efficient(3).with_session(1, LinkRateModel::Scaled(2.0));
        assert_eq!(*cfg.model(0), LinkRateModel::Efficient);
        assert_eq!(*cfg.model(1), LinkRateModel::Scaled(2.0));
        assert_eq!(cfg.len(), 3);
        assert!(cfg.all_piecewise_linear());
        let cfg2 = LinkRateConfig::uniform(3, LinkRateModel::RandomJoin { sigma: 8.0 });
        assert!(!cfg2.all_piecewise_linear());
        assert!(cfg2.dominates(&LinkRateConfig::efficient(3)));
    }
}
