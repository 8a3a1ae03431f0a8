//! Scalar fairness metrics for comparing allocations.
//!
//! The paper's comparisons are structural (the four properties, the
//! `≤ₘ` ordering). Its related-work discussion, however, contrasts that
//! with scalar metrics used by contemporaries: *receiver satisfaction*
//! (Legout–Nonnenmacher–Biersack argue bandwidth should scale with receiver
//! count because it raises average satisfaction) and *inter-receiver
//! fairness* (Jiang–Ammar–Zegura). This module provides those scalars so
//! the examples and ablations can report them next to the paper's
//! structural verdicts:
//!
//! * [`jain_index`] — Jain's classic fairness index `((Σx)² / (n·Σx²))`,
//!   1 for perfectly equal rates;
//! * [`satisfaction`] — mean over receivers of `a_{i,k} / isolated_{i,k}`,
//!   where the *isolated rate* is what the receiver would get if its
//!   session were alone in the network (its path bottleneck capped by κ).

use crate::allocation::Allocation;
use mlf_net::Network;

/// Jain's fairness index of the receiver-rate vector. Returns 1.0 for the
/// empty or all-zero allocation (vacuously fair).
pub fn jain_index(alloc: &Allocation) -> f64 {
    let rates = || alloc.rates().iter().flatten();
    let n = alloc.receiver_count();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = rates().sum();
    let sum_sq: f64 = rates().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Mean receiver satisfaction: `mean(a_{i,k} / isolated_{i,k})` over all
/// receivers. 1.0 means every receiver does as well as it would alone.
///
/// A receiver's *isolated rate* is the minimum capacity along its
/// data-path, capped by its session's κ: what it would receive were its
/// session alone in the network.
pub fn satisfaction(net: &Network, alloc: &Allocation) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (r, a) in alloc.iter() {
        let bottleneck = net
            .route(r)
            .iter()
            .map(|&l| net.graph().capacity(l))
            .fold(f64::INFINITY, f64::min);
        let denom = bottleneck.min(net.session(r.session).max_rate);
        if denom > 0.0 && denom.is_finite() {
            total += a / denom;
            count += 1;
        }
    }
    if count == 0 {
        1.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, MultiRate, SingleRate};
    use mlf_net::{Graph, Session};

    #[test]
    fn jain_index_extremes() {
        assert_eq!(
            jain_index(&Allocation::from_rates(vec![vec![2.0, 2.0, 2.0]])),
            1.0
        );
        let skew = jain_index(&Allocation::from_rates(vec![vec![1.0, 0.0, 0.0]]));
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&Allocation::from_rates(vec![vec![]])), 1.0);
        assert_eq!(jain_index(&Allocation::from_rates(vec![vec![0.0]])), 1.0);
    }

    /// Heterogeneous star: multi-rate beats single-rate on both scalar
    /// metrics, matching the paper's structural verdict.
    #[test]
    fn multi_rate_raises_satisfaction_and_jain() {
        let mut g = Graph::new();
        let (src, hub) = (g.add_node(), g.add_node());
        g.add_link(src, hub, 100.0).unwrap();
        let mut leaves = Vec::new();
        for cap in [1.0, 4.0, 16.0] {
            let v = g.add_node();
            g.add_link(hub, v, cap).unwrap();
            leaves.push(v);
        }
        let net = Graph::clone(&g); // keep g for reuse clarity
        let net = mlf_net::Network::new(net, vec![Session::multi_rate(src, leaves)]).unwrap();

        let multi = MultiRate::new().allocate(&net);
        let single = SingleRate::new().allocate(&net);
        assert!(satisfaction(&net, &multi) > satisfaction(&net, &single));
        // Single-rate pins everyone to 1 -> Jain 1.0 (equal but starved);
        // satisfaction tells the truth where Jain cannot.
        assert_eq!(jain_index(&single), 1.0);
        assert!(
            (satisfaction(&net, &multi) - 1.0).abs() < 1e-9,
            "alone in the network, multi-rate receivers reach their bottlenecks"
        );
        assert!(satisfaction(&net, &single) < 0.5);
    }

    /// Regression: a non-finite rate leaking out of an upstream model must
    /// flow through the metrics path (ordered vector, Jain) without
    /// panicking — the old `partial_cmp(..).expect("finite")` sorts brought
    /// the whole sweep down on the first NaN.
    #[test]
    fn non_finite_rates_do_not_panic_the_metrics_path() {
        let alloc = Allocation::from_rates(vec![vec![1.0, f64::NAN], vec![f64::INFINITY, 2.0]]);
        let ordered = alloc.ordered_vector();
        assert_eq!(ordered.len(), 4);
        // total_cmp's order: finite values ascending, +inf, then NaN last.
        assert_eq!(ordered[0], 1.0);
        assert_eq!(ordered[1], 2.0);
        assert_eq!(ordered[2], f64::INFINITY);
        assert!(ordered[3].is_nan());
        // Scalar metrics propagate the NaN instead of panicking.
        assert!(jain_index(&alloc).is_nan());
        // The Definition 2 ordering helper tolerates NaNs too.
        let v = crate::ordering::ordered(&[f64::NAN, 0.5]);
        assert_eq!(v[0], 0.5);
        assert!(v[1].is_nan());
        // The Definition 2 comparison path accepts NaN-carrying vectors
        // (ordered() puts NaN last and the sortedness debug-assert uses the
        // same total_cmp order) and stays deterministic: a NaN coordinate
        // is an epsilon-tie — `(NaN - b).abs() > ORD_EPS` is false — so the
        // comparison never panics and never flips between runs.
        use std::cmp::Ordering;
        let with_nan = crate::ordering::ordered(&[f64::NAN, 1.0]);
        let finite = crate::ordering::ordered(&[2.0, 1.0]);
        let fwd = crate::ordering::min_unfavorable_cmp(&with_nan, &finite);
        let rev = crate::ordering::min_unfavorable_cmp(&finite, &with_nan);
        assert_eq!(fwd, rev.reverse(), "comparison must stay antisymmetric");
        assert_eq!(fwd, Ordering::Equal, "a NaN coordinate is an epsilon-tie");
        assert_eq!(
            crate::ordering::min_unfavorable_cmp(&with_nan, &with_nan),
            Ordering::Equal,
            "NaN vectors must compare equal to themselves"
        );
        assert!(!crate::ordering::is_strictly_min_unfavorable(
            &with_nan, &with_nan
        ));
    }

    /// Each receiver's isolated rate is its path bottleneck capped by its
    /// session's κ.
    #[test]
    fn satisfaction_divides_by_kappa_capped_bottlenecks() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 5.0).unwrap();
        g.add_link(n[1], n[2], 3.0).unwrap();
        let net = mlf_net::Network::new(
            g,
            vec![
                Session::unicast(n[0], n[2]).with_max_rate(2.0),
                Session::unicast(n[0], n[2]),
            ],
        )
        .unwrap();
        // Isolated rates 2 (kappa caps) and 3 (path bottleneck).
        let at = |a0: f64, a1: f64| {
            satisfaction(&net, &Allocation::from_rates(vec![vec![a0], vec![a1]]))
        };
        assert_eq!(at(2.0, 0.0), 0.5, "kappa caps");
        assert_eq!(at(0.0, 3.0), 0.5, "path bottleneck");
        assert_eq!(at(1.0, 1.5), 0.5);
    }
}
