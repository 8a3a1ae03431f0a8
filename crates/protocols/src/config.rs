//! Shared protocol parameters (Section 4).
//!
//! All three protocols use the exponential layer schedule (aggregate rate of
//! layers `1..=i` equal to `2^{i−1}`) and the join pacing of Vicisano et
//! al.: the expected number of packets a receiver collects between a
//! join/leave event and its next join from level `i` is `2^{2(i−1)}`.
//! Doubling the aggregate rate on a join while quadrupling the wait between
//! joins is what makes the probe pressure decay at higher rates, mimicking
//! TCP's linear probe against an exponentially-spaced rate ladder.

/// Which Section 4 protocol a receiver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// No coordination: on each received packet, join one layer with
    /// probability `2^{−2(i−1)}` (memoryless).
    Uncoordinated,
    /// No coordination: join after exactly `2^{2(i−1)}` consecutively
    /// received packets since the last join/leave event.
    Deterministic,
    /// Sender coordination: join only when a sender marker says so; a
    /// marker for level `i` implies markers for all levels below.
    Coordinated,
}

impl ProtocolKind {
    /// All three, in the paper's presentation order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Uncoordinated,
        ProtocolKind::Deterministic,
        ProtocolKind::Coordinated,
    ];

    /// Display label matching the Figure 8 legend.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Uncoordinated => "Uncoordinated",
            ProtocolKind::Deterministic => "Deterministic",
            ProtocolKind::Coordinated => "Coordinated",
        }
    }
}

/// The most layers a protocol receiver can climb: the join threshold of
/// level 32, `2^62` packets, is the last that fits a `u64`.
pub(crate) const MAX_LAYERS: usize = 32;

/// The join threshold at level `i`: `2^{2(i−1)}` packets.
///
/// # Panics
///
/// Panics for `i = 0` (levels are 1-based) or `i > MAX_LAYERS`.
pub(crate) fn join_threshold(level: usize) -> u64 {
    assert!((1..=MAX_LAYERS).contains(&level), "level out of range");
    1u64 << (2 * (level - 1))
}

/// The per-packet join probability of the Uncoordinated protocol at level
/// `i`: `1 / 2^{2(i−1)}` (so the expected packets-to-join matches
/// [`join_threshold`]).
pub(crate) fn join_probability(level: usize) -> f64 {
    1.0 / join_threshold(level) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_quadratic_powers() {
        assert_eq!(join_threshold(1), 1);
        assert_eq!(join_threshold(2), 4);
        assert_eq!(join_threshold(3), 16);
        assert_eq!(join_threshold(8), 16384);
    }

    #[test]
    fn probability_is_reciprocal() {
        for i in 1..=8 {
            let p = join_probability(i);
            assert!((p * join_threshold(i) as f64 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn labels_match_figure8_legend() {
        assert_eq!(ProtocolKind::Uncoordinated.label(), "Uncoordinated");
        assert_eq!(ProtocolKind::Deterministic.label(), "Deterministic");
        assert_eq!(ProtocolKind::Coordinated.label(), "Coordinated");
        assert_eq!(ProtocolKind::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn level_zero_panics() {
        let _ = join_threshold(0);
    }
}
