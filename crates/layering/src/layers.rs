//! Layer-rate schedules: how a sender splits its data across multicast
//! groups.
//!
//! Data is split into `M` ordered layers `L_1, ..., L_M`, each transmitted on
//! its own multicast group (Section 3). Subscriptions are *cumulative*: a
//! receiver joined "up to" layer `i` is subscribed to every layer `1..=i`
//! and receives their aggregate rate. Joining raises the aggregate, leaving
//! lowers it.
//!
//! The Section 4 protocols use the exponential schedule of Vicisano et al.:
//! the aggregate rate of layers `1..=i` equals `2^{i−1}`, i.e. layer rates
//! `1, 1, 2, 4, 8, ...` (see [`LayerSchedule::exponential`]).

/// A sender's layer configuration: per-layer rates, with cumulative-
/// subscription semantics. Subscription *levels* are counted `0..=M`:
/// level 0 means "not joined to any layer", level `i` means joined up to
/// layer `L_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSchedule {
    /// Rate of each individual layer, `rates[i]` being layer `L_{i+1}`'s.
    rates: Vec<f64>,
    /// `cumulative[i]` = aggregate rate at subscription level `i`
    /// (`cumulative[0] = 0`).
    cumulative: Vec<f64>,
}

impl LayerSchedule {
    /// Build a schedule from explicit per-layer rates.
    ///
    /// # Panics
    ///
    /// Panics if no layers are given or any rate is non-positive/non-finite.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "need at least one layer");
        assert!(
            rates.iter().all(|r| r.is_finite() && *r > 0.0),
            "layer rates must be positive and finite"
        );
        let mut cumulative = Vec::with_capacity(rates.len() + 1);
        cumulative.push(0.0);
        let mut acc = 0.0;
        for &r in &rates {
            acc += r;
            cumulative.push(acc);
        }
        LayerSchedule { rates, cumulative }
    }

    /// `layers` equal-rate layers of the given rate each.
    pub fn uniform(layers: usize, rate: f64) -> Self {
        Self::from_rates(vec![rate; layers])
    }

    /// The Section 4 exponential schedule: aggregate of layers `1..=i` is
    /// `2^{i−1}` (in units of the base rate), so per-layer rates are
    /// `1, 1, 2, 4, ..., 2^{M−2}`.
    pub fn exponential(layers: usize) -> Self {
        assert!((1..60).contains(&layers), "layer count out of range");
        let rates = (0..layers)
            .map(|i| {
                if i == 0 {
                    1.0
                } else {
                    (1u64 << (i - 1)) as f64
                }
            })
            .collect();
        Self::from_rates(rates)
    }

    /// Number of layers `M`.
    pub fn layer_count(&self) -> usize {
        self.rates.len()
    }

    /// Rate of layer `L_i` (1-based, matching the paper's numbering).
    pub fn layer_rate(&self, i: usize) -> f64 {
        assert!(i >= 1 && i <= self.rates.len(), "layer index out of range");
        self.rates[i - 1]
    }

    /// Aggregate rate at subscription level `level ∈ 0..=M`.
    pub fn cumulative_rate(&self, level: usize) -> f64 {
        self.cumulative[level]
    }

    /// All aggregate rates, `[0, r_1, r_1+r_2, ...]`.
    pub fn cumulative_rates(&self) -> &[f64] {
        &self.cumulative
    }

    /// The full aggregate rate (all layers joined); `0.0` with no layers.
    pub fn total_rate(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// The highest subscription level whose aggregate rate does not exceed
    /// `rate` (the best fixed subscription for a receiver whose fair rate is
    /// `rate`).
    pub fn level_for_rate(&self, rate: f64) -> usize {
        let mut level = 0;
        for (i, &c) in self.cumulative.iter().enumerate() {
            if c <= rate + 1e-12 {
                level = i;
            } else {
                break;
            }
        }
        level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_matches_section4() {
        let s = LayerSchedule::exponential(8);
        // Aggregate of layers 1..=i is 2^{i-1}.
        for i in 1..=8 {
            assert_eq!(s.cumulative_rate(i), (1u64 << (i - 1)) as f64, "level {i}");
        }
        assert_eq!(s.layer_rate(1), 1.0);
        assert_eq!(s.layer_rate(2), 1.0);
        assert_eq!(s.layer_rate(3), 2.0);
        assert_eq!(s.layer_rate(8), 64.0);
        assert_eq!(s.total_rate(), 128.0);
    }

    #[test]
    fn uniform_layers() {
        let s = LayerSchedule::uniform(3, 2.0);
        assert_eq!(s.cumulative_rates(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(s.layer_count(), 3);
    }

    #[test]
    fn level_for_rate_picks_the_floor() {
        let s = LayerSchedule::exponential(4); // cum: 0,1,2,4,8
        assert_eq!(s.level_for_rate(0.0), 0);
        assert_eq!(s.level_for_rate(0.9), 0);
        assert_eq!(s.level_for_rate(1.0), 1);
        assert_eq!(s.level_for_rate(3.0), 2);
        assert_eq!(s.level_for_rate(100.0), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_rates() {
        let _ = LayerSchedule::from_rates(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty() {
        let _ = LayerSchedule::from_rates(vec![]);
    }
}
