//! Property-based verification of the paper's theorems and lemmas on
//! randomized networks — the cross-crate heart of the test suite.
//!
//! Networks are random trees (so routes are unique and the properties under
//! test are exercised, not the routing tie-breaks) with random multicast
//! sessions; session types and κ caps are randomized per case.

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{
    linkrate::{LinkRateConfig, LinkRateModel},
    ordering, theory,
};
use mlf_net::topology::random_network;
use mlf_net::{Network, SessionId, SessionType};
use proptest::prelude::*;

/// Strategy: a random tree network with some sessions flipped single-rate
/// and some κ caps applied.
fn arb_network() -> impl Strategy<Value = Network> {
    (
        any::<u64>(),
        4usize..16,
        1usize..6,
        1usize..5,
        proptest::collection::vec(any::<bool>(), 6),
        proptest::collection::vec(0.5f64..8.0, 6),
        proptest::collection::vec(any::<bool>(), 6),
    )
        .prop_map(|(seed, nodes, sessions, maxrecv, single, caps, capped)| {
            let mut net = random_network(seed, nodes, sessions, maxrecv).unwrap();
            let m = net.session_count();
            for i in 0..m {
                if single[i % single.len()] {
                    net = net.with_session_kind(SessionId(i), SessionType::SingleRate);
                }
            }
            // Apply κ caps by rebuilding sessions (via the public API).
            let mut sessions_vec = net.sessions().to_vec();
            for (i, s) in sessions_vec.iter_mut().enumerate() {
                if capped[i % capped.len()] {
                    s.max_rate = caps[i % caps.len()];
                }
            }
            Network::with_routes(net.graph().clone(), sessions_vec, net.routes())
                .expect("same routes remain valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocator's output is always feasible and every receiver is
    /// blocked (κ or saturated marginal link) — the max-min signature.
    #[test]
    fn allocator_output_is_feasible_and_blocked(net in arb_network()) {
        let cfg = LinkRateConfig::efficient(net.session_count());
        let alloc = Hybrid::as_declared()
            .solve_with(&net, &cfg, &mut SolverWorkspace::new())
            .expect("solvable")
            .allocation;
        prop_assert!(alloc.is_feasible(&net, &cfg),
            "violation: {:?}", alloc.feasibility_violation(&net, &cfg));
        prop_assert!(theory::spot_check_maxmin(&net, &cfg, &alloc));
    }

    /// Theorem 1: the all-multi-rate max-min allocation satisfies all four
    /// fairness properties.
    #[test]
    fn theorem1_holds(net in arb_network()) {
        let report = theory::check_theorem1(&net);
        prop_assert!(report.all_hold(), "{report:?}");
    }

    /// Theorem 2: the per-part guarantees hold for arbitrary type mixes.
    #[test]
    fn theorem2_holds(net in arb_network()) {
        let outcome = theory::check_theorem2(&net);
        prop_assert!(outcome.all_hold(), "{outcome:?}");
    }

    /// Lemma 1: sampled feasible allocations are min-unfavorable to the
    /// max-min fair allocation.
    #[test]
    fn lemma1_holds(net in arb_network(), seed in any::<u64>()) {
        let cfg = LinkRateConfig::efficient(net.session_count());
        prop_assert!(theory::check_lemma1(&net, &cfg, 20, seed));
    }

    /// Lemma 3 / Corollary 1: flipping single-rate sessions multi-rate is
    /// weakly `≤ₘ`-improving, per session and in aggregate.
    #[test]
    fn lemma3_holds(net in arb_network()) {
        prop_assert!(theory::check_lemma3(&net));
    }

    /// Lemma 4: larger redundancy functions produce `≤ₘ`-smaller max-min
    /// allocations (Efficient ≤ Scaled(v) ≤ Scaled(v'), v ≤ v').
    #[test]
    fn lemma4_holds(net in arb_network(), v in 1.0f64..4.0, dv in 0.0f64..3.0) {
        let m = net.session_count();
        let low = LinkRateConfig::uniform(m, LinkRateModel::Scaled(v));
        let high = LinkRateConfig::uniform(m, LinkRateModel::Scaled(v + dv));
        prop_assert!(theory::check_lemma4(&net, &low, &high));
    }

    /// Lemma 9 (TR): flipping exactly one session to multi-rate never hurts
    /// that session's own receivers.
    #[test]
    fn single_flip_monotonicity(net in arb_network()) {
        prop_assert!(theory::check_single_session_flip_monotonicity(&net));
    }

    /// Uniqueness: the allocator is deterministic and invariant under
    /// re-solving (idempotence of the fixed point).
    #[test]
    fn allocator_is_deterministic(net in arb_network()) {
        let a = Hybrid::as_declared().allocate(&net);
        let b = Hybrid::as_declared().allocate(&net);
        prop_assert_eq!(a.rates(), b.rates());
    }

    /// The min-unfavorable relation is total, reflexive and antisymmetric
    /// on ordered vectors, and the definitional form agrees with the
    /// lexicographic fast path.
    #[test]
    fn ordering_laws(
        mut x in proptest::collection::vec(0.0f64..10.0, 1..8),
        mut y in proptest::collection::vec(0.0f64..10.0, 1..8),
    ) {
        let n = x.len().min(y.len());
        x.truncate(n);
        y.truncate(n);
        let x = ordering::ordered(&x);
        let y = ordering::ordered(&y);
        prop_assert!(ordering::is_min_unfavorable(&x, &x));
        prop_assert!(
            ordering::is_min_unfavorable(&x, &y) || ordering::is_min_unfavorable(&y, &x)
        );
        prop_assert_eq!(
            ordering::is_min_unfavorable(&x, &y),
            ordering::is_min_unfavorable_definitional(&x, &y)
        );
        // Lemma 2: a strict ordering always yields a verifiable witness.
        if ordering::is_strictly_min_unfavorable(&x, &y) {
            let x0 = ordering::lemma2_threshold(&x, &y).expect("witness exists");
            prop_assert!(ordering::verify_lemma2_witness(&x, &y, x0));
        }
    }
}
