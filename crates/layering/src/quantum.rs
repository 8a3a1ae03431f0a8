//! Quantum-based join/leave scheduling: achieving arbitrary long-term
//! average rates from a restricted layer set (Section 3).
//!
//! Time is divided into quanta of `Δt`; a layer transmitting at rate `σ`
//! carries `σΔt` packets per quantum. A receiver with fair packet rate
//! `a ≤ σ` joins the layer long enough to collect `a·Δt` packets each
//! quantum, then leaves. *Which* packets each receiver collects determines
//! the session's bandwidth use on shared links: a packet traverses a link
//! iff **some** downstream receiver takes it, so the session's packet count
//! on a link is the size of the union of the downstream receivers' packet
//! subsets.
//!
//! * [`prefix_subsets`] — the coordinated ideal: every receiver takes the
//!   *first* `a·Δt` packets, so subsets nest and the union equals the
//!   largest subset (redundancy exactly 1).
//! * [`random_subsets`] — no coordination: uniform random subsets, whose
//!   expected union size is the Appendix B formula (Figure 5's setting).
//! * [`rate_quota_schedule`] — fractional rates: alternating
//!   `⌊aΔt⌋`/`⌈aΔt⌉` quanta so the long-term average converges to `a`
//!   (footnote 7 of the paper).

use mlf_net::topology::SplitMix64;

/// Fisher–Yates shuffle driven by the workspace's deterministic generator
/// (the build ships no external `rand` dependency).
fn shuffle(indices: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..indices.len()).rev() {
        let j = rng.below(i + 1);
        indices.swap(i, j);
    }
}

/// Packet subsets within one quantum: `subsets[r][p]` is whether receiver
/// `r` collects packet `p` of the `sigma_packets` transmitted.
pub type PacketSubsets = Vec<Vec<bool>>;

/// Coordinated (sender-aligned) packet choice: receiver `r` takes the first
/// `quotas[r]` packets of the quantum. Subsets nest, so the union is the
/// maximum quota and redundancy is 1.
///
/// # Panics
///
/// Panics if any quota exceeds `sigma_packets`.
pub fn prefix_subsets(quotas: &[usize], sigma_packets: usize) -> PacketSubsets {
    quotas
        .iter()
        .map(|&q| {
            assert!(q <= sigma_packets, "quota exceeds the layer rate");
            (0..sigma_packets).map(|p| p < q).collect()
        })
        .collect()
}

/// Uncoordinated packet choice: receiver `r` takes a uniformly random
/// `quotas[r]`-subset of the quantum's packets. Deterministic in `seed`.
pub fn random_subsets(quotas: &[usize], sigma_packets: usize, seed: u64) -> PacketSubsets {
    let mut rng = SplitMix64(seed.wrapping_add(0x5EED_0F42));
    let mut indices: Vec<usize> = (0..sigma_packets).collect();
    quotas
        .iter()
        .map(|&q| {
            assert!(q <= sigma_packets, "quota exceeds the layer rate");
            shuffle(&mut indices, &mut rng);
            let mut take = vec![false; sigma_packets];
            for &p in &indices[..q] {
                take[p] = true;
            }
            take
        })
        .collect()
}

/// The number of packets the session must carry on a link whose downstream
/// receivers hold these subsets: the size of the union.
pub fn union_size(subsets: &PacketSubsets) -> usize {
    if subsets.is_empty() {
        return 0;
    }
    let n = subsets[0].len();
    (0..n).filter(|&p| subsets.iter().any(|s| s[p])).count()
}

/// Measured redundancy of a set of subsets (Definition 3 at quantum
/// granularity): union size over the largest individual subset. `None` when
/// every subset is empty.
pub fn measured_redundancy(subsets: &PacketSubsets) -> Option<f64> {
    let max = subsets
        .iter()
        .map(|s| s.iter().filter(|&&b| b).count())
        .max()?;
    if max == 0 {
        return None;
    }
    Some(union_size(subsets) as f64 / max as f64)
}

/// Per-quantum packet quotas whose long-term average converges to the
/// (possibly fractional) target `rate_packets`: quantum `q` gets
/// `⌊(q+1)·a⌋ − ⌊q·a⌋` packets (the Bresenham / balanced-words schedule the
/// paper's footnote 7 sketches: "receive ⌊aΔt⌋ packets each quantum, and
/// periodically receive ⌈aΔt⌉").
pub fn rate_quota_schedule(rate_packets: f64, quanta: usize) -> Vec<usize> {
    assert!(rate_packets >= 0.0 && rate_packets.is_finite());
    (0..quanta)
        .map(|q| {
            let next = ((q as f64 + 1.0) * rate_packets).floor();
            let prev = (q as f64 * rate_packets).floor();
            (next - prev) as usize
        })
        .collect()
}

/// Long-run average of a quota schedule (packets per quantum).
pub fn schedule_average(quotas: &[usize]) -> f64 {
    if quotas.is_empty() {
        return 0.0;
    }
    quotas.iter().sum::<usize>() as f64 / quotas.len() as f64
}

/// Simulate `quanta` quanta of a single shared link: each quantum, receiver
/// `r` collects `quotas[r]` packets chosen by `mode`, and the link carries
/// the union. Returns the long-term redundancy
/// `(Σ union) / (max_r Σ quota_r)` — Definition 3 with long-term averages.
pub fn long_term_redundancy(
    quotas: &[usize],
    sigma_packets: usize,
    quanta: usize,
    mode: SelectionMode,
    seed: u64,
) -> Option<f64> {
    let mut carried = 0usize;
    let mut per_receiver = vec![0usize; quotas.len()];
    for q in 0..quanta {
        let subsets = match mode {
            SelectionMode::Prefix => prefix_subsets(quotas, sigma_packets),
            SelectionMode::Random => {
                random_subsets(quotas, sigma_packets, seed.wrapping_add(q as u64))
            }
        };
        carried += union_size(&subsets);
        for (r, s) in subsets.iter().enumerate() {
            per_receiver[r] += s.iter().filter(|&&b| b).count();
        }
    }
    let max = *per_receiver.iter().max()?;
    if max == 0 {
        return None;
    }
    Some(carried as f64 / max as f64)
}

/// How receivers pick their packets within a quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// Coordinated: everyone takes the quantum's first packets.
    Prefix,
    /// Uncoordinated: uniform random subsets.
    Random,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_subsets_nest_and_are_efficient() {
        let subsets = prefix_subsets(&[3, 7, 5], 10);
        assert_eq!(union_size(&subsets), 7);
        assert_eq!(measured_redundancy(&subsets), Some(1.0));
    }

    #[test]
    fn random_subsets_have_right_sizes_and_more_redundancy() {
        let quotas = vec![5usize; 4];
        let subsets = random_subsets(&quotas, 50, 42);
        for s in &subsets {
            assert_eq!(s.iter().filter(|&&b| b).count(), 5);
        }
        let red = measured_redundancy(&subsets).unwrap();
        assert!(red >= 1.0);
        // With 4 receivers each taking 10% of 50 packets, collisions are
        // rare: expected union ≈ 50(1-0.9^4) ≈ 17 -> redundancy ≈ 3.4.
        assert!(red > 1.5, "got {red}");
    }

    #[test]
    fn random_subsets_are_deterministic_in_seed() {
        let a = random_subsets(&[3, 4], 20, 7);
        let b = random_subsets(&[3, 4], 20, 7);
        assert_eq!(a, b);
        let c = random_subsets(&[3, 4], 20, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn quota_schedule_converges_to_fractional_rates() {
        let quotas = rate_quota_schedule(2.5, 1000);
        assert!((schedule_average(&quotas) - 2.5).abs() < 1e-9);
        // Every quantum gets floor or ceil.
        assert!(quotas.iter().all(|&q| q == 2 || q == 3));
        // Irrational-ish rate.
        let quotas = rate_quota_schedule(1.0 / 3.0, 999);
        assert!((schedule_average(&quotas) - 1.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn long_term_redundancy_prefix_is_one() {
        let red = long_term_redundancy(&[2, 5, 3], 10, 50, SelectionMode::Prefix, 1).unwrap();
        assert!((red - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_term_redundancy_random_matches_appendix_b() {
        // 3 receivers each taking half the packets of σ=20:
        // E[U] = 20(1 - 0.5^3) = 17.5, redundancy = 17.5/10 = 1.75.
        let red = long_term_redundancy(&[10, 10, 10], 20, 400, SelectionMode::Random, 99).unwrap();
        assert!((red - 1.75).abs() < 0.05, "got {red}");
    }

    #[test]
    fn empty_and_zero_cases() {
        assert_eq!(union_size(&vec![]), 0);
        assert_eq!(measured_redundancy(&prefix_subsets(&[0, 0], 5)), None);
        assert_eq!(
            long_term_redundancy(&[0], 5, 10, SelectionMode::Prefix, 0),
            None
        );
    }

    #[test]
    #[should_panic(expected = "quota exceeds")]
    fn quota_above_sigma_panics() {
        let _ = prefix_subsets(&[11], 10);
    }
}
