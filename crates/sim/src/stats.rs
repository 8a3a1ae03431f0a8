//! Statistics aggregation for multi-trial experiments.
//!
//! Figure 8 reports, for each parameter point, "the mean of 30 experiments
//! ... the variance is less than 1% with 95% confidence". [`RunningStats`]
//! accumulates trial results with Welford's numerically-stable online
//! algorithm and reports the mean, standard deviation, and a normal-approximation 95%
//! confidence half-width.

/// Online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Fold another accumulator into this one (Chan et al.'s parallel
    /// update), as if `other`'s observations had been pushed here.
    ///
    /// Exact for count/mean/M2 up to floating-point associativity; the
    /// sweep binaries use it to pool per-seed replicate outcomes into one
    /// statistic. Merging an empty accumulator is the identity in both
    /// directions.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let delta = other.mean - self.mean;
        let n = na + nb;
        self.mean += delta * (nb / n);
        self.m2 += other.m2 + delta * delta * (na * nb / n);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Rebuild an accumulator from [`RunningStats::raw_parts`], bit for bit.
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64, min: f64, max: f64) -> Self {
        RunningStats {
            n,
            mean,
            m2,
            min,
            max,
        }
    }

    /// The full state: count, mean, M2, min and max.
    pub fn raw_parts(&self) -> (u64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.min, self.max)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean. Zero when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance. Zero for fewer than two observations.
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval for
    /// the mean (`1.96 · SE`). The paper's 30-trial experiments are well
    /// inside the normal regime.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(xs: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn matches_closed_form_on_small_sample() {
        let s = stats_of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance (n-1): Σ(x-5)^2 = 32, /7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single_are_degenerate() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.variance(), 0.0);
        let s = stats_of(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small = stats_of(&[1.0, 2.0, 3.0, 4.0]);
        let mut big = RunningStats::new();
        for _ in 0..25 {
            for x in [1.0, 2.0, 3.0, 4.0] {
                big.push(x);
            }
        }
        assert!(big.ci95_half_width() < small.ci95_half_width() / 2.0);
    }

    #[test]
    fn merge_matches_pushing_everything_into_one_accumulator() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let whole = stats_of(&xs);
        for split in 0..=xs.len() {
            let mut left = stats_of(&xs[..split]);
            let right = stats_of(&xs[split..]);
            left.merge(&right);
            assert_eq!(left.count(), whole.count(), "split {split}");
            assert!((left.mean() - whole.mean()).abs() < 1e-12, "split {split}");
            assert!(
                (left.variance() - whole.variance()).abs() < 1e-12,
                "split {split}"
            );
            assert_eq!(left.min(), whole.min());
            assert_eq!(left.max(), whole.max());
        }
        // Empty merges are identities in both directions.
        let mut empty = RunningStats::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let mut pooled = whole.clone();
        pooled.merge(&RunningStats::new());
        assert_eq!(pooled, whole);
    }

    #[test]
    fn raw_parts_round_trip_bitwise() {
        let exotic = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            -0.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for (n, k) in [(0u64, 0usize), (3, 1), (u64::MAX, 2), (7, 4)] {
            let parts = (n, exotic[k], exotic[(k + 1) % 5], exotic[(k + 2) % 5], 2.5);
            let (n2, mean, m2, min, max) =
                RunningStats::from_raw_parts(parts.0, parts.1, parts.2, parts.3, parts.4)
                    .raw_parts();
            assert_eq!(n2, parts.0);
            for (got, want) in [mean, m2, min, max]
                .iter()
                .zip([parts.1, parts.2, parts.3, parts.4])
            {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        let s = stats_of(&[1.0, 2.5, 9.0]);
        let (n, mean, m2, min, max) = s.raw_parts();
        assert_eq!(RunningStats::from_raw_parts(n, mean, m2, min, max), s);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let base = 1e9;
        let s = stats_of(&[base + 1.0, base + 2.0, base + 3.0]);
        assert!((s.variance() - 1.0).abs() < 1e-6);
    }
}
