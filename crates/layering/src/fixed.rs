//! Fixed-layer subscriptions: when receivers must hold a layer prefix for
//! the whole session, a max-min fair allocation **need not exist**
//! (Section 3's opening result).
//!
//! With each receiver restricted to the finite rate set of its session's
//! [`LayerSchedule`], the feasible allocations form a finite set. This
//! module enumerates that set and searches it for a max-min fair element
//! under Definition 1, reproducing the paper's single-link example: layers
//! `(c/3, c/3, c/3)` vs `(c/2, c/2)` admit *no* max-min fair allocation.

use crate::layers::LayerSchedule;
use mlf_core::allocation::Allocation;
use mlf_core::linkrate::LinkRateConfig;
use mlf_net::Network;

/// Outcome of the exhaustive fixed-layer max-min search.
#[derive(Debug, Clone)]
pub struct FixedLayerAnalysis {
    /// Every feasible allocation (receiver rates drawn from the cumulative
    /// layer rates; single-rate sessions take a common level).
    pub feasible: Vec<Allocation>,
    /// The max-min fair allocation among them, if one exists.
    pub max_min: Option<Allocation>,
}

/// Enumerate all feasible fixed-prefix allocations of `net` (session `i`
/// using `schedules[i]`) and search for a max-min fair one.
///
/// Receiver rates are `schedules[i].cumulative_rate(level)` for per-receiver
/// levels (multi-rate) or one common level per session (single-rate).
/// Feasibility uses the given link-rate configuration. Intended for small
/// instances — the state space is `∏ (M_i + 1)^{k_i}`; an assert guards
/// against blowups beyond 2'000'000 combinations.
pub fn analyze(
    net: &Network,
    schedules: &[LayerSchedule],
    cfg: &LinkRateConfig,
) -> FixedLayerAnalysis {
    assert_eq!(
        schedules.len(),
        net.session_count(),
        "one schedule per session"
    );
    // Choice dimensions: one level per receiver (multi-rate) or per session
    // (single-rate).
    struct Dim {
        session: usize,
        receiver: Option<usize>, // None = whole session (single-rate)
        levels: usize,           // number of options (M_i + 1)
    }
    let mut dims = Vec::new();
    let mut space: u64 = 1;
    for (i, s) in net.sessions().iter().enumerate() {
        let options = (schedules[i].layer_count() + 1) as u64;
        if s.kind.is_single_rate() {
            dims.push(Dim {
                session: i,
                receiver: None,
                levels: options as usize,
            });
            space = space.saturating_mul(options);
        } else {
            for k in 0..s.receivers.len() {
                dims.push(Dim {
                    session: i,
                    receiver: Some(k),
                    levels: options as usize,
                });
                space = space.saturating_mul(options);
            }
        }
    }
    assert!(
        space <= 2_000_000,
        "fixed-layer enumeration space too large ({space})"
    );

    let mut feasible = Vec::new();
    let mut choice = vec![0usize; dims.len()];
    'outer: loop {
        // Materialize the allocation for this choice vector.
        let mut rates: Vec<Vec<f64>> = net
            .sessions()
            .iter()
            .map(|s| vec![0.0; s.receivers.len()])
            .collect();
        for (d, &lvl) in dims.iter().zip(&choice) {
            let rate = schedules[d.session].cumulative_rate(lvl);
            match d.receiver {
                Some(k) => rates[d.session][k] = rate,
                None => {
                    for a in rates[d.session].iter_mut() {
                        *a = rate;
                    }
                }
            }
        }
        let alloc = Allocation::from_rates(rates);
        if alloc.is_feasible(net, cfg) {
            feasible.push(alloc);
        }
        // Odometer increment.
        for pos in 0..dims.len() {
            choice[pos] += 1;
            if choice[pos] < dims[pos].levels {
                continue 'outer;
            }
            choice[pos] = 0;
        }
        break;
    }

    let max_min = find_max_min(&feasible);
    FixedLayerAnalysis { feasible, max_min }
}

/// Search a finite set of feasible allocations for a max-min fair one, by
/// the literal Definition 1: `A` is max-min fair iff for every feasible `B`
/// and every receiver `r` with `B_r > A_r`, some receiver `r' ≠ r` has
/// `A_{r'} ≤ A_r` and `B_{r'} < A_{r'}`.
pub(crate) fn find_max_min(feasible: &[Allocation]) -> Option<Allocation> {
    feasible
        .iter()
        .find(|a| is_max_min_within(a, feasible))
        .cloned()
}

/// The Definition 1 predicate restricted to a finite feasible set.
pub fn is_max_min_within(candidate: &Allocation, feasible: &[Allocation]) -> bool {
    let a: Vec<f64> = candidate.rates().iter().flatten().copied().collect();
    for other in feasible {
        let b: Vec<f64> = other.rates().iter().flatten().copied().collect();
        for r in 0..a.len() {
            if b[r] > a[r] + 1e-12 {
                // Some r' with a[r'] <= a[r] must lose out in B.
                let compensated = (0..a.len())
                    .filter(|&x| x != r)
                    .any(|x| a[x] <= a[r] + 1e-12 && b[x] < a[x] - 1e-12);
                if !compensated {
                    return false;
                }
            }
        }
    }
    true
}

/// The paper's single-link example, parameterized by the link capacity `c`:
/// two unicast layered sessions, `S1` with three layers of `c/3`, `S2` with
/// two layers of `c/2`. Returns the analysis, whose `max_min` is `None`.
pub fn section3_example(capacity: f64) -> FixedLayerAnalysis {
    let net = mlf_net::paper::single_link(capacity);
    let schedules = vec![
        LayerSchedule::uniform(3, capacity / 3.0),
        LayerSchedule::uniform(2, capacity / 2.0),
    ];
    let cfg = LinkRateConfig::efficient(2);
    analyze(&net, &schedules, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::{Graph, Session};

    #[test]
    fn section3_example_has_no_max_min_allocation() {
        let analysis = section3_example(6.0);
        // The paper lists 7 feasible allocations:
        // (0,0) (0,c/2) (0,c) (c/3,0) (c/3,c/2) (2c/3,0) (c,0).
        assert_eq!(analysis.feasible.len(), 7);
        assert!(
            analysis.max_min.is_none(),
            "no fixed-layer max-min fair allocation exists"
        );
    }

    #[test]
    fn section3_feasible_set_matches_paper() {
        let analysis = section3_example(6.0);
        let mut pairs: Vec<(f64, f64)> = analysis
            .feasible
            .iter()
            .map(|a| (a.rates()[0][0], a.rates()[1][0]))
            .collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
        let mut expected: Vec<(f64, f64)> = vec![
            (0.0, 0.0),
            (0.0, 3.0),
            (0.0, 6.0),
            (2.0, 0.0),
            (2.0, 3.0),
            (4.0, 0.0),
            (6.0, 0.0),
        ];
        expected.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
        assert_eq!(pairs, expected);
    }

    #[test]
    fn compatible_layers_do_admit_a_max_min_allocation() {
        // If both sessions layer at c/2, (c/2, c/2) is feasible and max-min.
        let net = mlf_net::paper::single_link(6.0);
        let schedules = vec![
            LayerSchedule::uniform(2, 3.0),
            LayerSchedule::uniform(2, 3.0),
        ];
        let cfg = LinkRateConfig::efficient(2);
        let analysis = analyze(&net, &schedules, &cfg);
        let mm = analysis.max_min.expect("exists");
        assert_eq!(mm.rates(), &[vec![3.0], vec![3.0]]);
    }

    #[test]
    fn single_rate_sessions_share_one_level() {
        // A single-rate 2-receiver session behind one shared link: levels
        // are chosen per-session, so the feasible set is small.
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 4.0).unwrap();
        g.add_link(n[0], n[2], 4.0).unwrap();
        let net = Network::new(g, vec![Session::single_rate(n[0], vec![n[1], n[2]])]).unwrap();
        let schedules = vec![LayerSchedule::uniform(2, 2.0)];
        let cfg = LinkRateConfig::efficient(1);
        let analysis = analyze(&net, &schedules, &cfg);
        // Levels 0, 1, 2 → rates (0,0), (2,2), (4,4); all feasible.
        assert_eq!(analysis.feasible.len(), 3);
        let mm = analysis.max_min.expect("exists");
        assert_eq!(mm.rates(), &[vec![4.0, 4.0]]);
    }

    #[test]
    fn definition_check_flags_dominated_allocations() {
        let a = Allocation::from_rates(vec![vec![1.0], vec![1.0]]);
        let b = Allocation::from_rates(vec![vec![2.0], vec![1.0]]);
        // a is not max-min within {a, b}: b raises receiver 0 for free.
        assert!(!is_max_min_within(&a, &[a.clone(), b.clone()]));
        assert!(is_max_min_within(&b, &[a.clone(), b.clone()]));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn enumeration_guard_trips() {
        // 1 session × 8 receivers × 21 levels ≈ 3.7e10 combinations.
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut receivers = Vec::new();
        for _ in 0..8 {
            let r = g.add_node();
            g.add_link(hub, r, 100.0).unwrap();
            receivers.push(r);
        }
        let net = Network::new(g, vec![Session::multi_rate(hub, receivers)]).unwrap();
        let schedules = vec![LayerSchedule::uniform(20, 1.0)];
        let _ = analyze(&net, &schedules, &LinkRateConfig::efficient(1));
    }
}
