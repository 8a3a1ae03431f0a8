//! Markov-chain analysis of the two-receiver star (Figure 7(a)).
//!
//! The paper analyzes the protocols over the two-receiver model with Markov
//! chains (Appendix F of the technical report) and reports the headline
//! finding reproduced here: *redundancy is highest when receivers
//! experience the same end-to-end loss rates*. The authors note their
//! chains were "too computation-intensive" for large receiver sets; on
//! modern hardware the two-receiver chain solves in microseconds, so we
//! solve it exactly and hand the many-receiver regime to simulation.
//!
//! # The chain
//!
//! State: the pair of subscription levels `(ℓ₁, ℓ₂) ∈ {1..M}²`. One step =
//! one slot of the aggregate packet stream; the slot's layer is drawn
//! categorically with probability proportional to the layer rates (the
//! deterministic WRR schedule's stationary frequencies). Loss is drawn once
//! on the shared link (correlating the receivers) and independently per
//! fanout link. A subscribed receiver leaves on loss; on a clean packet it
//! joins per protocol:
//!
//! * **Uncoordinated** — with probability `2^{−2(ℓ−1)}`: *exactly* Markov.
//! * **Deterministic** — the clean-run counter is abstracted to the same
//!   memoryless join probability (matching the mean pacing). This is the
//!   standard geometric approximation; the simulation quantifies the gap.
//! * **Coordinated** — base-layer packets carry a threshold `T` with the
//!   dyadic distribution `P(T ≥ t) = 2^{−(t−1)}`; both receivers see the
//!   *same* `T` (drawn once), which is what correlates their joins. The
//!   deterministic ruler schedule is abstracted to this matching Bernoulli
//!   mixture.

use crate::config::{join_probability, ProtocolKind};

/// A dense finite discrete-time Markov chain (row-stochastic matrix).
#[derive(Debug, Clone)]
pub struct DenseChain {
    /// `p[s][t]` = transition probability from state `s` to state `t`.
    p: Vec<Vec<f64>>,
}

impl DenseChain {
    /// Build from a row-stochastic matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or a row does not sum to 1
    /// (within 1e-9).
    pub fn new(p: Vec<Vec<f64>>) -> Self {
        let n = p.len();
        for (s, row) in p.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {s} sums to {sum}, not 1");
            assert!(row.iter().all(|&x| x >= -1e-15), "negative probability");
        }
        DenseChain { p }
    }

    /// Number of states.
    pub(crate) fn state_count(&self) -> usize {
        self.p.len()
    }

    /// Stationary distribution by power iteration from the uniform vector.
    /// Converges for the aperiodic, irreducible chains built here; the
    /// iteration cap guards against pathological inputs.
    #[allow(clippy::needless_range_loop)] // dense matrix-vector product
    pub(crate) fn stationary(&self, tol: f64, max_iter: usize) -> Vec<f64> {
        let n = self.state_count();
        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..max_iter {
            for t in next.iter_mut() {
                *t = 0.0;
            }
            for s in 0..n {
                let ps = pi[s];
                if ps == 0.0 {
                    continue;
                }
                for t in 0..n {
                    next[t] += ps * self.p[s][t];
                }
            }
            let delta: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            if delta < tol {
                break;
            }
        }
        pi
    }
}

/// The two-receiver chain plus its state indexing.
#[derive(Debug, Clone)]
pub struct TwoReceiverModel {
    /// The chain over states `(ℓ₁, ℓ₂)`.
    pub chain: DenseChain,
    /// Number of layers `M`.
    pub layers: usize,
}

impl TwoReceiverModel {
    /// Unflatten a state index, `(ℓ₁ − 1)·M + (ℓ₂ − 1)`, to `(ℓ₁, ℓ₂)`.
    pub(crate) fn levels_of(&self, s: usize) -> (usize, usize) {
        (s / self.layers + 1, s % self.layers + 1)
    }

    /// The stationary shared-link redundancy:
    /// `E[2^{max(ℓ₁,ℓ₂)−1}] / max(E[2^{ℓ₁−1}], E[2^{ℓ₂−1}])` — the
    /// long-term average link rate over the larger receiver's long-term
    /// average rate (Definition 3 in expectation).
    pub fn stationary_redundancy(&self) -> f64 {
        let pi = self.chain.stationary(1e-12, 200_000);
        let mut link = 0.0;
        let mut r1 = 0.0;
        let mut r2 = 0.0;
        for (s, &w) in pi.iter().enumerate() {
            let (l1, l2) = self.levels_of(s);
            link += w * (1u64 << (l1.max(l2) - 1)) as f64;
            r1 += w * (1u64 << (l1 - 1)) as f64;
            r2 += w * (1u64 << (l2 - 1)) as f64;
        }
        link / r1.max(r2)
    }

    /// Mean subscription level of each receiver in the stationary regime.
    pub fn stationary_levels(&self) -> (f64, f64) {
        let pi = self.chain.stationary(1e-12, 200_000);
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for (s, &w) in pi.iter().enumerate() {
            let (l1, l2) = self.levels_of(s);
            m1 += w * l1 as f64;
            m2 += w * l2 as f64;
        }
        (m1, m2)
    }
}

/// Build the Figure 7(a) chain for a protocol: `layers` exponential layers,
/// shared loss `p_s`, and per-receiver independent losses `p_1`, `p_2`.
pub fn two_receiver_chain(
    kind: ProtocolKind,
    layers: usize,
    p_s: f64,
    p_1: f64,
    p_2: f64,
) -> TwoReceiverModel {
    assert!((1..=12).contains(&layers), "state space out of range");
    for p in [p_s, p_1, p_2] {
        assert!((0.0..=1.0).contains(&p));
    }
    let m = layers;
    let n = m * m;
    let total_rate = (1u64 << (m - 1)) as f64;
    // P(slot layer = j), j in 1..=m: layer rates 1,1,2,4,... over 2^{m-1}.
    let layer_prob = |j: usize| -> f64 {
        let r = if j == 1 {
            1.0
        } else {
            (1u64 << (j - 2)) as f64
        };
        r / total_rate
    };
    // Coordinated: threshold distribution for base-layer packets.
    // P(T = t) for t in 1..m: dyadic ruler frequencies, capped at m-1.
    let thresh_prob = |t: usize| -> f64 {
        if m < 2 {
            return 0.0;
        }
        let cap = m - 1;
        if t < cap {
            (0.5f64).powi(t as i32 - 1) - (0.5f64).powi(t as i32)
        } else if t == cap {
            (0.5f64).powi(t as i32 - 1)
        } else {
            0.0
        }
    };

    let mut p = vec![vec![0.0; n]; n];
    for l1 in 1..=m {
        for l2 in 1..=m {
            let s = (l1 - 1) * m + (l2 - 1);
            // Enumerate slot layer.
            for j in 1..=m {
                let pj = layer_prob(j);
                let sub1 = j <= l1;
                let sub2 = j <= l2;
                if !sub1 && !sub2 {
                    // Nobody subscribed: no transition.
                    p[s][s] += pj;
                    continue;
                }
                // Enumerate shared loss and independent losses.
                for (shared, pshared) in [(true, p_s), (false, 1.0 - p_s)] {
                    for (x1, px1) in [(true, p_1), (false, 1.0 - p_1)] {
                        for (x2, px2) in [(true, p_2), (false, 1.0 - p_2)] {
                            let w = pj * pshared * px1 * px2;
                            if w == 0.0 {
                                continue;
                            }
                            let lost1 = sub1 && (shared || x1);
                            let lost2 = sub2 && (shared || x2);
                            // Joint join behaviour.
                            match kind {
                                ProtocolKind::Coordinated => {
                                    // Markers only on base-layer packets;
                                    // one threshold draw correlates both.
                                    if j == 1 && m >= 2 {
                                        for t in 1..m {
                                            let pt = thresh_prob(t);
                                            if pt == 0.0 {
                                                continue;
                                            }
                                            let n1 = next_level(
                                                l1,
                                                sub1,
                                                lost1,
                                                !lost1 && sub1 && l1 <= t,
                                                m,
                                            );
                                            let n2 = next_level(
                                                l2,
                                                sub2,
                                                lost2,
                                                !lost2 && sub2 && l2 <= t,
                                                m,
                                            );
                                            p[s][(n1 - 1) * m + (n2 - 1)] += w * pt;
                                        }
                                    } else {
                                        let n1 = next_level(l1, sub1, lost1, false, m);
                                        let n2 = next_level(l2, sub2, lost2, false, m);
                                        p[s][(n1 - 1) * m + (n2 - 1)] += w;
                                    }
                                }
                                ProtocolKind::Uncoordinated | ProtocolKind::Deterministic => {
                                    // Independent memoryless joins.
                                    let q1 = if sub1 && !lost1 && l1 < m {
                                        join_probability(l1)
                                    } else {
                                        0.0
                                    };
                                    let q2 = if sub2 && !lost2 && l2 < m {
                                        join_probability(l2)
                                    } else {
                                        0.0
                                    };
                                    for (j1, pj1) in [(true, q1), (false, 1.0 - q1)] {
                                        for (j2, pj2) in [(true, q2), (false, 1.0 - q2)] {
                                            let ww = w * pj1 * pj2;
                                            if ww == 0.0 {
                                                continue;
                                            }
                                            let n1 = next_level(l1, sub1, lost1, j1, m);
                                            let n2 = next_level(l2, sub2, lost2, j2, m);
                                            p[s][(n1 - 1) * m + (n2 - 1)] += ww;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    TwoReceiverModel {
        chain: DenseChain::new(p),
        layers: m,
    }
}

/// Next level of one receiver given subscription, loss and join decision.
fn next_level(l: usize, subscribed: bool, lost: bool, join: bool, m: usize) -> usize {
    if !subscribed {
        return l;
    }
    if lost {
        return l.saturating_sub(1).max(1);
    }
    if join && l < m {
        return l + 1;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_chain_stationary_of_two_state() {
        // P(a->b) = 0.25, P(b->a) = 0.75: pi = (0.75, 0.25).
        let chain = DenseChain::new(vec![vec![0.75, 0.25], vec![0.75, 0.25]]);
        let pi = chain.stationary(1e-14, 1000);
        assert!((pi[0] - 0.75).abs() < 1e-10);
        assert!((pi[1] - 0.25).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn rejects_non_stochastic_rows() {
        let _ = DenseChain::new(vec![vec![0.5, 0.4], vec![0.0, 1.0]]);
    }

    #[test]
    fn rows_are_stochastic_for_all_protocols() {
        // DenseChain::new itself asserts stochasticity; building the chain
        // is the test.
        for kind in ProtocolKind::ALL {
            let model = two_receiver_chain(kind, 6, 0.01, 0.03, 0.05);
            assert_eq!(model.chain.state_count(), 36);
        }
    }

    #[test]
    fn redundancy_is_at_least_one() {
        for kind in ProtocolKind::ALL {
            let model = two_receiver_chain(kind, 6, 0.001, 0.02, 0.02);
            let r = model.stationary_redundancy();
            assert!(r >= 1.0 - 1e-9, "{}: {r}", kind.label());
            assert!(r < 4.0, "{}: {r}", kind.label());
        }
    }

    #[test]
    fn equal_loss_rates_maximize_redundancy() {
        // The paper's key analytic finding. Fix the total "loss budget" and
        // compare the symmetric split against asymmetric ones.
        for kind in [ProtocolKind::Uncoordinated, ProtocolKind::Coordinated] {
            let sym = two_receiver_chain(kind, 6, 0.0001, 0.03, 0.03).stationary_redundancy();
            let asym1 = two_receiver_chain(kind, 6, 0.0001, 0.01, 0.05).stationary_redundancy();
            let asym2 = two_receiver_chain(kind, 6, 0.0001, 0.005, 0.055).stationary_redundancy();
            assert!(
                sym >= asym1 - 1e-6 && sym >= asym2 - 1e-6,
                "{}: sym {sym}, asym {asym1}/{asym2}",
                kind.label()
            );
        }
    }

    #[test]
    fn coordination_reduces_two_receiver_redundancy() {
        let unc = two_receiver_chain(ProtocolKind::Uncoordinated, 6, 0.0001, 0.03, 0.03)
            .stationary_redundancy();
        let coo = two_receiver_chain(ProtocolKind::Coordinated, 6, 0.0001, 0.03, 0.03)
            .stationary_redundancy();
        assert!(coo < unc, "coordinated {coo} !< uncoordinated {unc}");
    }

    #[test]
    fn shared_loss_lowers_redundancy_versus_independent() {
        // Same end-to-end loss, shifted from independent to shared: shared
        // loss synchronizes leaves, so redundancy drops.
        let kind = ProtocolKind::Uncoordinated;
        let independent = two_receiver_chain(kind, 6, 0.0001, 0.04, 0.04).stationary_redundancy();
        let shared = two_receiver_chain(kind, 6, 0.04, 0.0001, 0.0001).stationary_redundancy();
        assert!(
            shared < independent,
            "shared {shared} !< independent {independent}"
        );
    }

    #[test]
    fn stationary_levels_fall_with_loss() {
        let low = two_receiver_chain(ProtocolKind::Uncoordinated, 8, 0.0001, 0.005, 0.005);
        let high = two_receiver_chain(ProtocolKind::Uncoordinated, 8, 0.0001, 0.08, 0.08);
        let (l_low, _) = low.stationary_levels();
        let (l_high, _) = high.stationary_levels();
        assert!(l_low > l_high, "low-loss level {l_low} !> {l_high}");
    }

    #[test]
    fn state_indexing_round_trips() {
        let model = two_receiver_chain(ProtocolKind::Uncoordinated, 5, 0.01, 0.01, 0.01);
        for l1 in 1..=5 {
            for l2 in 1..=5 {
                assert_eq!(model.levels_of((l1 - 1) * 5 + (l2 - 1)), (l1, l2));
            }
        }
    }
}
