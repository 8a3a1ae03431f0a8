//! The audit oracle: Properties 1–4 of Section 2.1 written straight from
//! their definitions, over data-paths and the link-rate model alone — no
//! [`LinkAudit`](super::LinkAudit), no incidence slots, no per-link
//! maxima — and compared, violation for violation and in order, with
//! [`check_all`], the three public checkers and
//! [`check_same_path_receiver_fair`].

use super::*;
use crate::allocator::{Allocator, Hybrid, SolverWorkspace};
use crate::linkrate::LinkRateModel;
use mlf_net::topology::{random_network_with, random_tree, SplitMix64};
use mlf_net::{NetError, NodeId, Session, SessionType, TopologyFamily};

/// Every receiver with its data-path's link ids, sorted, session-major.
fn paths(net: &Network) -> Vec<(ReceiverId, Vec<usize>)> {
    net.receivers()
        .map(|r| {
            let mut links: Vec<usize> = net.route(r).iter().map(|l| l.0).collect();
            links.sort_unstable();
            (r, links)
        })
        .collect()
}

struct Oracle<'a> {
    net: &'a Network,
    cfg: &'a LinkRateConfig,
    alloc: &'a Allocation,
    paths: Vec<(ReceiverId, Vec<usize>)>,
}

impl Oracle<'_> {
    fn crosses(&self, r: usize, j: usize) -> bool {
        self.paths[r].1.contains(&j)
    }

    fn rate(&self, r: usize) -> f64 {
        self.alloc.rate(self.paths[r].0)
    }

    fn capped(&self, r: usize) -> bool {
        let id = self.paths[r].0;
        self.rate(r) >= self.net.session(id.session).max_rate - RATE_EPS
    }

    /// `u_{i,j} = v_i({a_{i,k} : r_{i,k} ∈ R_{i,j}})`, receivers ascending.
    fn u(&self, i: usize, j: usize) -> f64 {
        let rates: Vec<f64> = (0..self.paths.len())
            .filter(|&r| self.paths[r].0.session.0 == i && self.crosses(r, j))
            .map(|r| self.rate(r))
            .collect();
        self.cfg.model(i).link_rate(&rates)
    }

    /// `u_j = Σ_i u_{i,j} ≥ c_j`, within tolerance.
    fn full(&self, j: usize) -> bool {
        let u_j: f64 = (0..self.net.session_count()).map(|i| self.u(i, j)).sum();
        u_j >= self.net.graph().capacity(LinkId(j)) - RATE_EPS
    }

    /// `u_{i',j} ≤ u_{i,j}` for every other session `i'`, within tolerance.
    fn largest_share(&self, i: usize, j: usize) -> bool {
        let mine = self.u(i, j);
        (0..self.net.session_count()).all(|o| o == i || self.u(o, j) <= mine + RATE_EPS)
    }

    /// Property 1: `a = κ`, or a fully utilized link of the path on which
    /// no receiver of `R_j` gets more.
    fn property1(&self) -> Vec<ReceiverId> {
        (0..self.paths.len())
            .filter(|&r| {
                let a = self.rate(r);
                let fair = self.capped(r)
                    || self.paths[r].1.iter().any(|&j| {
                        self.full(j)
                            && (0..self.paths.len())
                                .filter(|&o| self.crosses(o, j))
                                .all(|o| self.rate(o) <= a + RATE_EPS)
                    });
                !fair
            })
            .map(|r| self.paths[r].0)
            .collect()
    }

    /// Property 2: receivers with the same link set get the same rate,
    /// unless one is held at its `κ` below the other.
    fn property2(&self) -> Vec<(ReceiverId, ReceiverId)> {
        let mut out = Vec::new();
        for x in 0..self.paths.len() {
            for y in x + 1..self.paths.len() {
                if self.paths[x].1 != self.paths[y].1 {
                    continue;
                }
                let (ax, ay) = (self.rate(x), self.rate(y));
                let fair = (ax - ay).abs() <= RATE_EPS
                    || (self.capped(x) && ax < ay)
                    || (self.capped(y) && ay < ax);
                if !fair {
                    out.push((self.paths[x].0, self.paths[y].0));
                }
            }
        }
        out
    }

    /// Property 3: `a = κ`, or a fully utilized link of the receiver's path
    /// where its session has the largest link rate.
    fn property3(&self) -> Vec<ReceiverId> {
        (0..self.paths.len())
            .filter(|&r| {
                let i = self.paths[r].0.session.0;
                let ok = self.capped(r)
                    || self.paths[r]
                        .1
                        .iter()
                        .any(|&j| self.full(j) && self.largest_share(i, j));
                !ok
            })
            .map(|r| self.paths[r].0)
            .collect()
    }

    /// Property 4: every receiver at `κ`, or a fully utilized link of the
    /// session's data-path where it has the largest link rate.
    fn property4(&self) -> Vec<SessionId> {
        (0..self.net.session_count())
            .filter(|&i| {
                let members: Vec<usize> = (0..self.paths.len())
                    .filter(|&r| self.paths[r].0.session.0 == i)
                    .collect();
                let all_capped = members.iter().all(|&r| self.capped(r));
                let fair_link = (0..self.net.link_count()).any(|j| {
                    members.iter().any(|&r| self.crosses(r, j))
                        && self.full(j)
                        && self.largest_share(i, j)
                });
                !(all_capped || fair_link)
            })
            .map(SessionId)
            .collect()
    }
}

/// Check every audit entry point against the oracle on one input, and
/// return how many properties it found violated.
fn assert_audit_matches_oracle(net: &Network, cfg: &LinkRateConfig, alloc: &Allocation) -> usize {
    let oracle = Oracle {
        net,
        cfg,
        alloc,
        paths: paths(net),
    };
    let expected = FairnessReport {
        fully_utilized_violations: oracle.property1(),
        same_path_violations: oracle.property2(),
        per_receiver_link_violations: oracle.property3(),
        per_session_link_violations: oracle.property4(),
    };
    let ctx = || format!("rates {:?}", alloc.rates());
    let all = check_all(net, cfg, alloc);
    assert_eq!(
        all.fully_utilized_violations,
        expected.fully_utilized_violations,
        "{}",
        ctx()
    );
    assert_eq!(
        all.same_path_violations,
        expected.same_path_violations,
        "{}",
        ctx()
    );
    assert_eq!(
        all.per_receiver_link_violations,
        expected.per_receiver_link_violations,
        "{}",
        ctx()
    );
    assert_eq!(
        all.per_session_link_violations,
        expected.per_session_link_violations,
        "{}",
        ctx()
    );
    assert_eq!(
        check_fully_utilized_receiver_fair(net, cfg, alloc),
        expected.fully_utilized_violations
    );
    assert_eq!(
        check_same_path_receiver_fair(net, alloc),
        expected.same_path_violations
    );
    assert_eq!(
        check_per_receiver_link_fair(net, cfg, alloc),
        expected.per_receiver_link_violations
    );
    assert_eq!(
        check_per_session_link_fair(net, cfg, alloc),
        expected.per_session_link_violations
    );
    4 - expected.count_holding()
}

/// A perturbed copy of `alloc`: rates scaled, tied, or replaced by NaN,
/// `±0.0`, infinity, a negative rate, the session's `κ` or `κ` plus a
/// sub-tolerance step.
fn perturbed(net: &Network, alloc: &Allocation, rng: &mut SplitMix64) -> Allocation {
    let rates = alloc
        .rates()
        .iter()
        .zip(net.sessions())
        .map(|(rs, s)| {
            let tie = rs[0];
            rs.iter()
                .map(|&a| match rng.below(12) {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    3 => s.max_rate,
                    4 => s.max_rate + RATE_EPS / 2.0,
                    5 => tie,
                    6 => f64::INFINITY,
                    7 => -1.0,
                    _ => a * (0.5 + rng.below(5) as f64 * 0.25),
                })
                .collect()
        })
        .collect();
    Allocation::from_rates(rates)
}

/// `net` with every session's `κ` drawn from `{2, 3, 5, ∞}` and about a
/// third of the sessions single-rate.
fn with_kappas_and_kinds(net: &Network, rng: &mut SplitMix64) -> Result<Network, NetError> {
    let sessions = net
        .sessions()
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.max_rate = [2.0, 3.0, 5.0, s.max_rate][rng.below(4)];
            if rng.below(3) == 0 {
                s.kind = SessionType::SingleRate;
            }
            s
        })
        .collect();
    Network::with_routes(net.graph().clone(), sessions, net.routes())
}

/// Many sessions from two senders onto a handful of tree nodes, so that
/// receivers of different sessions often share a data-path.
fn shared_path_network(seed: u64) -> Result<Network, NetError> {
    let mut rng = SplitMix64(seed);
    let nodes = 2 + rng.below(5);
    let g = random_tree(seed, nodes, 1.0, 5.0);
    let sessions: Vec<Session> = (0..6)
        .map(|_| {
            let sender = NodeId(rng.below(2));
            let mut receivers: Vec<NodeId> =
                (0..nodes).map(NodeId).filter(|&n| n != sender).collect();
            receivers.retain(|_| rng.below(3) > 0);
            if receivers.is_empty() {
                receivers.push(NodeId(1 - sender.0));
            }
            Session::multi_rate(sender, receivers)
        })
        .collect();
    Network::new(g, sessions)
}

#[test]
fn audit_matches_the_definitions_on_max_min_and_perturbed_allocations() {
    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 3 },
        TopologyFamily::Dumbbell,
    ];
    let models = [
        LinkRateModel::Efficient,
        LinkRateModel::Scaled(2.0),
        LinkRateModel::Sum,
        LinkRateModel::RandomJoin { sigma: 4.0 },
    ];
    let mut ws = SolverWorkspace::new();
    let mut violated = 0;
    let mut inputs = 0;
    for seed in 0..10u64 {
        let mut rng = SplitMix64(seed ^ 0xA0D17);
        let mut nets: Vec<Network> = families
            .iter()
            .map(|&family| {
                let sessions = 1 + rng.below(5);
                random_network_with(family, seed, 14, sessions, 4).unwrap()
            })
            .collect();
        nets.push(shared_path_network(seed).unwrap());
        for net in nets {
            let net = with_kappas_and_kinds(&net, &mut rng).unwrap();
            for model in models {
                let cfg = LinkRateConfig::uniform(net.session_count(), model);
                let solved = Hybrid::as_declared()
                    .solve_with(&net, &cfg, &mut ws)
                    .expect("solvable")
                    .allocation;
                let noisy = perturbed(&net, &solved, &mut rng);
                for alloc in [&solved, &noisy] {
                    violated += assert_audit_matches_oracle(&net, &cfg, alloc);
                    inputs += 1;
                }
            }
        }
    }
    assert!(
        violated > inputs,
        "only {violated} violated properties over {inputs} inputs"
    );
}

/// NaN receiver and session link rates, with one session (no other
/// session to out-share) and with two, and `±0.0` rates.
#[test]
fn nan_link_rates_match_the_definitions_with_one_and_two_sessions() {
    let mut g = mlf_net::Graph::new();
    let n = g.add_nodes(3);
    g.add_link(n[0], n[1], 1.0).unwrap();
    g.add_link(n[1], n[2], 1.0).unwrap();
    let one = Network::new(g.clone(), vec![Session::multi_rate(n[0], vec![n[1], n[2]])]).unwrap();
    let two = Network::new(
        g,
        vec![
            Session::multi_rate(n[0], vec![n[1], n[2]]),
            Session::unicast(n[0], n[2]),
        ],
    )
    .unwrap();
    let cases = [
        (&one, vec![vec![f64::NAN, 1.0]]),
        (&one, vec![vec![0.5, f64::NAN]]),
        (&two, vec![vec![f64::NAN, 1.0], vec![0.5]]),
        (&two, vec![vec![1.0, 1.0], vec![f64::NAN]]),
        (&two, vec![vec![-0.0, 0.0], vec![1.0]]),
    ];
    for (net, rates) in cases {
        let cfg = LinkRateConfig::uniform(net.session_count(), LinkRateModel::Sum);
        assert_audit_matches_oracle(net, &cfg, &Allocation::from_rates(rates));
    }
}
