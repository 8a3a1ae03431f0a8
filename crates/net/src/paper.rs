//! The example networks of the paper's figures, reconstructed exactly.
//!
//! The SIGCOMM '99 scan renders the figures as schematic drawings; we rebuilt
//! each network so that *every* quantitative and qualitative claim made in
//! the paper's prose holds:
//!
//! * **Figure 1** — three sessions, receiver rates `{1, 1, 1, 2, 2}`, link
//!   capacities `{5, 7, 4, 3}`, session link-rate triples
//!   `{(1:2:0), (0:0:2), (0:2:2), (1:1:1)}`, link `l3` fully utilized on
//!   `r2,2`'s path, `r1,1`/`r2,1` sharing a data-path.
//! * **Figure 2** — single-rate `S1` pinned to rate 2 by `l2` (capacity 2),
//!   unicast `S2` at 3, `l1` the only fully-utilized link on `r1,1`'s path,
//!   no fully-utilized link on `r1,3`'s path.
//! * **Figure 3(a)** — removing `r3,2` *decreases* `r3,1` (3 → 2) while
//!   `r1,1` rises (7 → 8).
//! * **Figure 3(b)** — removing `r3,2` *increases* `r3,1` (7 → 8) while
//!   `r1,1` falls (3 → 2).
//! * **Figure 4** — Figure 2's topology reshaped so all of `S1`'s receivers
//!   share link `l4`; with `S1` redundancy 2 on shared links the max-min
//!   allocation is 2 everywhere, `u_{1,4} = 4 > u_{2,4} = 2`, and
//!   per-session-link-fairness fails for `S2`.
//!
//! Each builder returns the [`Network`] plus the expected max-min receiver
//! rates (shaped `[session][receiver]`) asserted by the paper, which the
//! `mlf-core` tests verify against the allocator.

// mlf-lint: allow-file(panic-unwrap, reason = "figure builders construct compile-time-constant topologies; every unwrap/expect is a by-construction invariant re-verified by this module's structure tests")
#![allow(clippy::unwrap_used)] // same rationale as the lint allow-file above

use crate::graph::Graph;
use crate::ids::ReceiverId;
use crate::network::Network;
use crate::session::Session;

/// A paper example: the network plus the receiver rates the paper reports
/// for its max-min fair allocation (shaped `[session][receiver]`).
#[derive(Debug, Clone)]
pub struct PaperExample {
    /// The reconstructed network.
    pub network: Network,
    /// Expected max-min fair receiver rates, `[session][receiver]`.
    pub expected_rates: Vec<Vec<f64>>,
}

/// Figure 1: the three-session illustration network.
///
/// Topology (a tree; all paths are unique):
///
/// ```text
///  n0 (X1, X2) --l1:5-- n2 --l4:3-- n3 (r1,1  r2,1  r3,1)   rates 1,1,1
///  n1 (X3)     --l2:7-- n2 --l3:4-- n4 (r2,2  r3,2)         rates 2,2
/// ```
///
/// `S1` is unicast; `S2`, `S3` are multi-rate. In the multi-rate max-min
/// fair allocation `l4` saturates at level 1 freezing the three co-located
/// receivers, then `l3` saturates at level 2 freezing `r2,2`/`r3,2`.
/// Session link rates come out `(1:2:0)` on `l1`, `(0:0:2)` on `l2`,
/// `(0:2:2)` on `l3`, `(1:1:1)` on `l4` — the four triples in the figure.
pub fn figure1() -> PaperExample {
    let mut g = Graph::new();
    let n = g.add_nodes(5);
    g.add_link(n[0], n[2], 5.0).unwrap(); // l1
    g.add_link(n[1], n[2], 7.0).unwrap(); // l2
    g.add_link(n[2], n[4], 4.0).unwrap(); // l3
    g.add_link(n[2], n[3], 3.0).unwrap(); // l4
    let sessions = vec![
        Session::unicast(n[0], n[3]),                // S1: X1 -> r1,1
        Session::multi_rate(n[0], vec![n[3], n[4]]), // S2: X2 -> r2,1 r2,2
        Session::multi_rate(n[1], vec![n[3], n[4]]), // S3: X3 -> r3,1 r3,2
    ];
    let network = Network::new(g, sessions).expect("figure 1 network");
    PaperExample {
        network,
        expected_rates: vec![vec![1.0], vec![1.0, 2.0], vec![1.0, 2.0]],
    }
}

/// Figure 2: single-rate `S1` drags all its receivers to its slowest branch.
///
/// Topology (a tree):
///
/// ```text
///  n0 (X1, X2) --l1:5-- n1 --l4:6-- n4 (r1,1  r2,1)
///  n0          --l2:2-- n2 (r1,2)
///  n0          --l3:3-- n3 (r1,3)
/// ```
///
/// With `S1` single-rate: `S1` receivers all get 2 (pinned by `l2`), the
/// unicast `S2` gets 3, saturating `l1` (2 + 3 = 5). `r1,1` and `r2,1`
/// share the data-path `{l1, l4}` yet receive 2 ≠ 3 — same-path-receiver-
/// fairness fails, as do fully-utilized-receiver-fairness (for `r1,3`) and
/// per-receiver-link-fairness (for `S1`), exactly as Section 2.3 argues.
pub fn figure2() -> PaperExample {
    let mut g = Graph::new();
    let n = g.add_nodes(5);
    g.add_link(n[0], n[1], 5.0).unwrap(); // l1
    g.add_link(n[0], n[2], 2.0).unwrap(); // l2
    g.add_link(n[0], n[3], 3.0).unwrap(); // l3
    g.add_link(n[1], n[4], 6.0).unwrap(); // l4
    let sessions = vec![
        Session::single_rate(n[0], vec![n[4], n[2], n[3]]).with_max_rate(100.0), // S1
        Session::unicast(n[0], n[4]).with_max_rate(100.0),                       // S2
    ];
    let network = Network::new(g, sessions).expect("figure 2 network");
    PaperExample {
        network,
        expected_rates: vec![vec![2.0, 2.0, 2.0], vec![3.0]],
    }
}

/// The multi-rate counterfactual of Figure 2: identical network but `S1`
/// flipped to multi-rate (the Lemma 3 "replacement"). The max-min fair
/// allocation becomes `r1,1 = r2,1 = 2.5` (splitting `l1`), `r1,2 = 2`,
/// `r1,3 = 3` — all four fairness properties hold.
pub fn figure2_multi_rate() -> PaperExample {
    let base = figure2();
    let network = base.network.with_session_kind(
        crate::ids::SessionId(0),
        crate::session::SessionType::MultiRate,
    );
    PaperExample {
        network,
        expected_rates: vec![vec![2.5, 2.0, 3.0], vec![2.5]],
    }
}

/// A receiver-removal example: the network, the receiver to remove, and the
/// expected max-min rates before and after removal.
#[derive(Debug, Clone)]
pub struct RemovalExample {
    /// The network before removal.
    pub network: Network,
    /// The receiver the experiment removes (`r3,2` in both figures).
    pub removed: ReceiverId,
    /// Expected rates before removal, `[session][receiver]`.
    pub before: Vec<Vec<f64>>,
    /// Expected rates after removal, `[session][receiver]`.
    pub after: Vec<Vec<f64>>,
}

/// Figure 3(a): removing a receiver *decreases* a same-session receiver's
/// max-min fair rate (`r3,1`: 3 → 2) and increases another session's
/// (`r1,1`: 7 → 8).
///
/// Topology (a tree):
///
/// ```text
///  n4 (X1) --l4:10-- n2 --l1:10-- n3 (r1,1  r3,1)
///  n0 (X2) --l2:2--- n1 (X3) --l3:4-- n2 (r2,1)
///                    n0 also hosts r3,2
/// ```
///
/// Paths: `r1,1: {l4, l1}`, `r2,1: {l2, l3}`, `r3,1: {l3, l1}`,
/// `r3,2: {l2}`. Before removal, `l2` (capacity 2) freezes `r2,1` and
/// `r3,2` at 1, letting `r3,1` take 3 on `l3`; removing `r3,2` releases
/// `r2,1` to 2, which squeezes `r3,1` down to 2 on `l3` and releases a unit
/// of `l1` to `r1,1`.
pub fn figure3a() -> RemovalExample {
    let mut g = Graph::new();
    let n = g.add_nodes(5); // n0=A, n1=B, n2=C, n3=E, n4=F
    g.add_link(n[2], n[3], 10.0).unwrap(); // l1: C-E
    g.add_link(n[0], n[1], 2.0).unwrap(); // l2: A-B
    g.add_link(n[1], n[2], 4.0).unwrap(); // l3: B-C
    g.add_link(n[4], n[2], 10.0).unwrap(); // l4: F-C
    let sessions = vec![
        Session::unicast(n[4], n[3]),                // S1: X1@F -> r1,1@E
        Session::unicast(n[0], n[2]),                // S2: X2@A -> r2,1@C
        Session::multi_rate(n[1], vec![n[3], n[0]]), // S3: X3@B -> r3,1@E, r3,2@A
    ];
    let network = Network::new(g, sessions).expect("figure 3a network");
    RemovalExample {
        network,
        removed: ReceiverId::new(2, 1),
        before: vec![vec![7.0], vec![1.0], vec![3.0, 1.0]],
        after: vec![vec![8.0], vec![2.0], vec![2.0]],
    }
}

/// Figure 3(b): removing a receiver *increases* a same-session receiver's
/// max-min fair rate (`r3,1`: 7 → 8) and decreases another session's
/// (`r1,1`: 3 → 2).
///
/// The topology contains a cycle, so routes are supplied explicitly:
///
/// ```text
///  n0 (X2, X3, r3,2... see below) --l2:2-- n1 --l3:4-- n2 --l1:10-- n3
///  n0 ----------------l4:10---------------------------- n2
/// ```
///
/// Members: `X2@n0 -> r2,1@n2` via `{l2, l3}` (the long way — its provider
/// pinned it to that route); `X3@n0 -> r3,1@n3` via `{l4, l1}` and
/// `-> r3,2@n1` via `{l2}`; `X1@n1 -> r1,1@n3` via `{l3, l1}`.
/// Before removal `l2` freezes `r2,1` and `r3,2` at 1, `l3` then freezes
/// `r1,1` at 3, and `r3,1` soaks up `l1`'s remainder (7). Removing `r3,2`
/// releases `r2,1` to 2, which squeezes `r1,1` to 2 on `l3` and frees `l1`
/// up to 8 for `r3,1`.
pub fn figure3b() -> RemovalExample {
    let mut g = Graph::new();
    let n = g.add_nodes(4); // n0=A, n1=B, n2=C, n3=D
    let l1 = g.add_link(n[2], n[3], 10.0).unwrap(); // l1: C-D
    let l2 = g.add_link(n[0], n[1], 2.0).unwrap(); // l2: A-B
    let l3 = g.add_link(n[1], n[2], 4.0).unwrap(); // l3: B-C
    let l4 = g.add_link(n[0], n[2], 10.0).unwrap(); // l4: A-C
    let sessions = vec![
        Session::unicast(n[1], n[3]),                // S1: X1@B -> r1,1@D
        Session::unicast(n[0], n[2]),                // S2: X2@A -> r2,1@C
        Session::multi_rate(n[0], vec![n[3], n[1]]), // S3: X3@A -> r3,1@D, r3,2@B
    ];
    let routes = vec![
        vec![vec![l3, l1]],           // r1,1
        vec![vec![l2, l3]],           // r2,1 (explicitly the long way around)
        vec![vec![l4, l1], vec![l2]], // r3,1 ; r3,2
    ];
    let network = Network::with_routes(g, sessions, routes).expect("figure 3b network");
    RemovalExample {
        network,
        removed: ReceiverId::new(2, 1),
        before: vec![vec![3.0], vec![1.0], vec![7.0, 1.0]],
        after: vec![vec![2.0], vec![2.0], vec![8.0]],
    }
}

/// Figure 4: the redundancy illustration. Same link capacities as Figure 2
/// but reshaped so *all* of `S1`'s receivers traverse the shared link `l4`:
///
/// ```text
///  n0 (X1, X2) --l4:6-- n1 --l1:5-- n2 (r1,1  r2,1)
///                       n1 --l2:2-- n3 (r1,2)
///                       n1 --l3:3-- n4 (r1,3)
/// ```
///
/// With `S1` multi-rate but exhibiting redundancy 2 on its shared links
/// (`u_{1,j} = 2·max` wherever ≥ 2 of its receivers cross a link), the
/// max-min allocation puts every receiver at 2: `u_{1,4} = 4`, `u_{2,4} = 2`,
/// `l4` saturates (4 + 2 = 6). `l4` is the only fully utilized link on
/// `r2,1`'s path and `u_{2,4} < u_{1,4}`, so per-session-link-fairness fails
/// for `S2` — the paper's headline redundancy harm.
///
/// Returns the network and the rates expected *under redundancy 2 for `S1`*
/// (the efficient allocation for the same network is `(3, 2, 3; 3)` and is
/// exercised separately by the tests).
pub fn figure4() -> PaperExample {
    let mut g = Graph::new();
    let n = g.add_nodes(5);
    g.add_link(n[1], n[2], 5.0).unwrap(); // l1
    g.add_link(n[1], n[3], 2.0).unwrap(); // l2
    g.add_link(n[1], n[4], 3.0).unwrap(); // l3
    g.add_link(n[0], n[1], 6.0).unwrap(); // l4 (the shared first hop)
    let sessions = vec![
        Session::multi_rate(n[0], vec![n[2], n[3], n[4]]).with_max_rate(100.0), // S1
        Session::unicast(n[0], n[2]).with_max_rate(100.0),                      // S2
    ];
    let network = Network::new(g, sessions).expect("figure 4 network");
    PaperExample {
        network,
        expected_rates: vec![vec![2.0, 2.0, 2.0], vec![2.0]],
    }
}

/// The efficient-allocation expectation for the Figure 4 network (no
/// redundancy): `l1` (capacity 5) splits between `r1,1` and `r2,1` at 2.5,
/// `r1,2` keeps its 2-capacity tail, `r1,3` its 3-capacity tail, and the
/// shared `l4` ends up *not* fully utilized (max 3 + 2.5 = 5.5 < 6).
pub fn figure4_efficient_rates() -> Vec<Vec<f64>> {
    vec![vec![2.5, 2.0, 3.0], vec![2.5]]
}

/// The Section 3 fixed-layer example: a single link of capacity `c` carrying
/// two single-receiver layered sessions. `S1` offers three layers of `c/3`
/// each; `S2` offers two layers of `c/2` each. No max-min fair allocation
/// exists when receivers must hold a fixed layer prefix (the `mlf-layering`
/// crate proves this by enumeration).
pub fn single_link(capacity: f64) -> Network {
    let mut g = Graph::new();
    let a = g.add_node();
    let b = g.add_node();
    g.add_link(a, b, capacity).unwrap();
    Network::new(g, vec![Session::unicast(a, b), Session::unicast(a, b)])
        .expect("single link network")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LinkId, SessionId};

    #[test]
    fn figure1_structure() {
        let ex = figure1();
        let net = &ex.network;
        assert_eq!(net.session_count(), 3);
        assert_eq!(net.receiver_count(), 5);
        // r1,1 and r2,1 share a data-path (the same-path-fairness pair).
        assert!(net.same_data_path(ReceiverId::new(0, 0), ReceiverId::new(1, 0)));
        // l3 carries r2,2 and r3,2; l4 carries the three rate-1 receivers.
        assert_eq!(net.receivers_on_link(LinkId(2)).count(), 2);
        assert_eq!(net.receivers_on_link(LinkId(3)).count(), 3);
        // Capacities as labelled.
        let caps: Vec<f64> = (0..4).map(|j| net.graph().capacity(LinkId(j))).collect();
        assert_eq!(caps, vec![5.0, 7.0, 4.0, 3.0]);
    }

    #[test]
    fn figure2_structure() {
        let ex = figure2();
        let net = &ex.network;
        assert!(net.session(SessionId(0)).kind.is_single_rate());
        assert!(net.same_data_path(ReceiverId::new(0, 0), ReceiverId::new(1, 0)));
        // r1,2's path is exactly {l2}; r1,3's is {l3}.
        assert_eq!(net.route(ReceiverId::new(0, 1)), &[LinkId(1)]);
        assert_eq!(net.route(ReceiverId::new(0, 2)), &[LinkId(2)]);
    }

    #[test]
    fn figure3a_link_membership_matches_derivation() {
        let ex = figure3a();
        let net = &ex.network;
        // l2 carries r2,1 (S2) and r3,2 (S3).
        let on_l2: Vec<_> = net.receivers_on_link(LinkId(1)).collect();
        assert_eq!(on_l2, vec![ReceiverId::new(1, 0), ReceiverId::new(2, 1)]);
        // l3 carries r2,1 and r3,1.
        let on_l3: Vec<_> = net.receivers_on_link(LinkId(2)).collect();
        assert_eq!(on_l3, vec![ReceiverId::new(1, 0), ReceiverId::new(2, 0)]);
        // l1 carries r1,1 and r3,1.
        let on_l1: Vec<_> = net.receivers_on_link(LinkId(0)).collect();
        assert_eq!(on_l1, vec![ReceiverId::new(0, 0), ReceiverId::new(2, 0)]);
    }

    #[test]
    fn figure3b_link_membership_matches_derivation() {
        let ex = figure3b();
        let net = &ex.network;
        let on_l2: Vec<_> = net.receivers_on_link(LinkId(1)).collect();
        assert_eq!(on_l2, vec![ReceiverId::new(1, 0), ReceiverId::new(2, 1)]);
        let on_l3: Vec<_> = net.receivers_on_link(LinkId(2)).collect();
        assert_eq!(on_l3, vec![ReceiverId::new(0, 0), ReceiverId::new(1, 0)]);
        let on_l1: Vec<_> = net.receivers_on_link(LinkId(0)).collect();
        assert_eq!(on_l1, vec![ReceiverId::new(0, 0), ReceiverId::new(2, 0)]);
    }

    #[test]
    fn figure4_all_s1_receivers_share_l4() {
        let ex = figure4();
        let net = &ex.network;
        assert_eq!(
            net.receivers_of_session_on_link(LinkId(3), SessionId(0)),
            &[0, 1, 2]
        );
        assert!(net.same_data_path(ReceiverId::new(0, 0), ReceiverId::new(1, 0)));
    }

    #[test]
    fn removal_examples_remove_r32() {
        for ex in [figure3a(), figure3b()] {
            assert_eq!(ex.removed, ReceiverId::new(2, 1));
            let after = ex.network.without_receiver(ex.removed).unwrap();
            assert_eq!(after.receiver_count(), ex.network.receiver_count() - 1);
        }
    }

    #[test]
    fn single_link_assembles() {
        let net = single_link(1.0);
        assert_eq!(net.link_count(), 1);
        assert_eq!(net.session_count(), 2);
    }
}
