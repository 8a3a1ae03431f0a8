//! The allocator must reproduce the paper's example figures *exactly*:
//! the receiver rates, the session link rates, the full-utilization pattern,
//! and the property violations the prose walks through.

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::linkrate::{LinkRateConfig, LinkRateModel};
use mlf_core::properties;
use mlf_core::redundancy;
use mlf_net::paper;
use mlf_net::{LinkId, ReceiverId, SessionId};

fn assert_alloc(alloc: &mlf_core::Allocation, expected: &[Vec<f64>]) {
    for (i, exp) in expected.iter().enumerate() {
        for (k, &e) in exp.iter().enumerate() {
            let got = alloc.rate(ReceiverId::new(i, k));
            assert!(
                (got - e).abs() < 1e-9,
                "r{},{}: expected {e}, got {got}",
                i + 1,
                k + 1
            );
        }
    }
}

#[test]
fn figure1_rates_and_link_rates() {
    let ex = paper::figure1();
    let net = &ex.network;
    let alloc = Hybrid::as_declared().allocate(net);
    assert_alloc(&alloc, &ex.expected_rates);

    let cfg = LinkRateConfig::efficient(net.session_count());
    // The four session link-rate triples of the figure:
    // l1: (1:2:0), l2: (0:0:2), l3: (0:2:2), l4: (1:1:1).
    let triples: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..3)
                .map(|i| alloc.session_link_rate(net, &cfg, LinkId(j), SessionId(i)))
                .collect()
        })
        .collect();
    assert_eq!(triples[0], vec![1.0, 2.0, 0.0]);
    assert_eq!(triples[1], vec![0.0, 0.0, 2.0]);
    assert_eq!(triples[2], vec![0.0, 2.0, 2.0]);
    assert_eq!(triples[3], vec![1.0, 1.0, 1.0]);

    // l3 is fully utilized and on r2,2's path with r2,2 maximal there.
    assert!(alloc.is_fully_utilized(net, &cfg, LinkId(2)));
    assert!(net.crosses(ReceiverId::new(1, 1), LinkId(2)));

    // The whole allocation satisfies all four properties (Theorem 1 demo;
    // the single-rate member S1 is unicast so the theorem's multi-rate
    // requirements are vacuous for it).
    let report = properties::check_all(net, &cfg, &alloc);
    assert!(report.all_hold(), "{report:?}");
}

#[test]
fn figure2_single_rate_fails_three_properties() {
    let ex = paper::figure2();
    let net = &ex.network;
    let alloc = Hybrid::as_declared().allocate(net);
    assert_alloc(&alloc, &ex.expected_rates);

    let cfg = LinkRateConfig::efficient(net.session_count());
    // Session link-rate pairs: l1 (2:3), l2 (2:0), l3 (2:0), l4 (2:3).
    let pairs: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..2)
                .map(|i| alloc.session_link_rate(net, &cfg, LinkId(j), SessionId(i)))
                .collect()
        })
        .collect();
    assert_eq!(pairs[0], vec![2.0, 3.0]);
    assert_eq!(pairs[1], vec![2.0, 0.0]);
    assert_eq!(pairs[2], vec![2.0, 0.0]);
    assert_eq!(pairs[3], vec![2.0, 3.0]);

    let report = properties::check_all(net, &cfg, &alloc);
    // Same-path fails for (r1,1, r2,1).
    assert_eq!(
        report.same_path_violations,
        vec![(ReceiverId::new(0, 0), ReceiverId::new(1, 0))]
    );
    // Fully-utilized-receiver-fairness fails for r1,3 (and r1,1: l1 is full
    // but r2,1 receives more across it).
    assert!(report
        .fully_utilized_violations
        .contains(&ReceiverId::new(0, 2)));
    // Per-receiver-link fails for S1 (witnessed by r1,1 and r1,3).
    assert!(report
        .per_receiver_link_violations
        .contains(&ReceiverId::new(0, 0)));
    assert!(report
        .per_receiver_link_violations
        .contains(&ReceiverId::new(0, 2)));
    // Per-session-link holds for everyone (the one survivor).
    assert!(report.per_session_link_fair());
    assert_eq!(report.count_holding(), 1);
}

#[test]
fn figure2_multi_rate_replacement_restores_all_properties() {
    let ex = paper::figure2_multi_rate();
    let net = &ex.network;
    let alloc = Hybrid::as_declared().allocate(net);
    assert_alloc(&alloc, &ex.expected_rates);
    let cfg = LinkRateConfig::efficient(net.session_count());
    let report = properties::check_all(net, &cfg, &alloc);
    assert!(report.all_hold(), "{report:?}");
}

#[test]
fn figure2_lemma3_ordering_between_variants() {
    // The multi-rate replacement must be weakly more max-min fair.
    let single = paper::figure2();
    let multi = paper::figure2_multi_rate();
    let a = Hybrid::as_declared()
        .allocate(&single.network)
        .ordered_vector();
    let b = Hybrid::as_declared()
        .allocate(&multi.network)
        .ordered_vector();
    assert!(mlf_core::is_min_unfavorable(&a, &b));
    // Strictly, here: (2,2,2,3) <m (2,2,2.5,2.5).
    assert!(mlf_core::is_strictly_min_unfavorable(&a, &b));
}

#[test]
fn figure3a_removal_decreases_a_sibling() {
    let ex = paper::figure3a();
    let before = Hybrid::as_declared().allocate(&ex.network);
    assert_alloc(&before, &ex.before);
    let after_net = ex.network.without_receiver(ex.removed).unwrap();
    let after = Hybrid::as_declared().allocate(&after_net);
    assert_alloc(&after, &ex.after);
    // The headline: r3,1 *decreased* (3 -> 2) while r1,1 rose (7 -> 8).
    assert!(after.rate(ReceiverId::new(2, 0)) < before.rate(ReceiverId::new(2, 0)));
    assert!(after.rate(ReceiverId::new(0, 0)) > before.rate(ReceiverId::new(0, 0)));
}

#[test]
fn figure3b_removal_increases_a_sibling() {
    let ex = paper::figure3b();
    let before = Hybrid::as_declared().allocate(&ex.network);
    assert_alloc(&before, &ex.before);
    let after_net = ex.network.without_receiver(ex.removed).unwrap();
    let after = Hybrid::as_declared().allocate(&after_net);
    assert_alloc(&after, &ex.after);
    // The headline: r3,1 *increased* (7 -> 8) while r1,1 fell (3 -> 2).
    assert!(after.rate(ReceiverId::new(2, 0)) > before.rate(ReceiverId::new(2, 0)));
    assert!(after.rate(ReceiverId::new(0, 0)) < before.rate(ReceiverId::new(0, 0)));
}

#[test]
fn figure4_redundancy_breaks_session_perspective_fairness() {
    let ex = paper::figure4();
    let net = &ex.network;
    // S1 redundancy 2 on shared links.
    let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));
    let alloc = Hybrid::as_declared()
        .solve_with(net, &cfg, &mut SolverWorkspace::new())
        .expect("solvable")
        .allocation;
    assert_alloc(&alloc, &ex.expected_rates);

    // u_{1,4} = 4, u_{2,4} = 2, l4 (index 3) fully utilized.
    assert_eq!(
        alloc.session_link_rate(net, &cfg, LinkId(3), SessionId(0)),
        4.0
    );
    assert_eq!(
        alloc.session_link_rate(net, &cfg, LinkId(3), SessionId(1)),
        2.0
    );
    assert!(alloc.is_fully_utilized(net, &cfg, LinkId(3)));
    assert_eq!(
        redundancy(net, &cfg, &alloc, LinkId(3), SessionId(0)),
        Some(2.0)
    );

    let report = properties::check_all(net, &cfg, &alloc);
    // Session-perspective properties fail for S2...
    assert_eq!(report.per_session_link_violations, vec![SessionId(1)]);
    assert!(report
        .per_receiver_link_violations
        .contains(&ReceiverId::new(1, 0)));
    // ...but the receiver-perspective properties survive (the paper calls
    // this out as trivial: they do not compare session link rates).
    assert!(report.fully_utilized_receiver_fair(), "{report:?}");
    assert!(report.same_path_receiver_fair());
}

#[test]
fn figure4_efficient_counterfactual() {
    let ex = paper::figure4();
    let alloc = Hybrid::as_declared().allocate(&ex.network);
    assert_alloc(&alloc, &paper::figure4_efficient_rates());
    let cfg = LinkRateConfig::efficient(2);
    let report = properties::check_all(&ex.network, &cfg, &alloc);
    assert!(report.all_hold(), "{report:?}");
}

#[test]
fn figure4_lemma4_ordering() {
    // Redundancy 2 must yield a weakly less max-min-fair allocation than
    // efficient, and redundancy 3 weaker still.
    let ex = paper::figure4();
    let eff = LinkRateConfig::efficient(2);
    let red2 = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));
    let red3 = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(3.0));
    assert!(mlf_core::theory::check_lemma4(&ex.network, &eff, &red2));
    assert!(mlf_core::theory::check_lemma4(&ex.network, &red2, &red3));
}
