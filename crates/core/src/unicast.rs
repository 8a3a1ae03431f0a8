//! Classic unicast max-min fairness (Bertsekas & Gallager, *Data Networks*):
//! an independent implementation used to cross-check the general allocator.
//!
//! The textbook algorithm treats every receiver as an independent flow along
//! its route and repeats: compute each unsaturated link's equal share of its
//! remaining capacity among its unfrozen flows; the minimum such share (or a
//! flow's remaining `κ` headroom) sets the next increment; flows on the
//! binding links (or at `κ`) freeze. This is exactly progressive filling
//! specialised to unicast, implemented here from the textbook description
//! with none of the general allocator's machinery, so agreement between the
//! two on all-unicast networks is a meaningful differential test.
//!
//! The entry point is [`crate::allocator::Unicast`] through the
//! [`crate::allocator::Allocator`] trait.

use crate::allocator::SolverWorkspace;
use crate::maxmin::{FreezeReason, MaxMinSolution, SolveError};
use mlf_net::{LinkId, Network};

/// Textbook water-filling into a caller-provided workspace: the engine
/// behind [`crate::allocator::Unicast`]. Every session has one receiver
/// (which [`crate::allocator::Allocator::check`] has confirmed), so flow
/// `i` is flat receiver `i` of the workspace's tables.
#[allow(clippy::needless_range_loop)] // parallel per-flow tables
pub(crate) fn unicast_solve_in(
    net: &Network,
    ws: &mut SolverWorkspace,
) -> Result<MaxMinSolution, SolveError> {
    ws.reset(net, None);
    ws.link_used.clear();
    ws.link_used.resize(net.link_count(), 0.0);
    ws.link_flag.clear();
    ws.link_flag.resize(net.link_count(), false);
    let m = net.session_count();
    let route = |i: usize| net.route(mlf_net::ReceiverId::new(i, 0));
    let kappa = |i: usize| net.sessions()[i].max_rate;

    // ws.link_used[j]: bandwidth consumed by frozen flows on link j.
    // ws.link_active[j]: count of active flows crossing link j, maintained
    // by the freeze bookkeeping (one receiver per session, so the
    // workspace's per-link active-receiver counter *is* the flow count —
    // integers, hence trivially identical to the reference's rescans).
    // ws.active[i]: flow i still rising. ws.rates[i]: its rate.
    let mut iterations = 0usize;
    loop {
        if ws.active_total == 0 {
            break;
        }
        iterations += 1;
        assert!(iterations <= m + 1, "no convergence");
        // Common increment level: all active flows currently share one rate
        // (they all started at zero and have risen together), so the binding
        // link share is (c_j - used_j) / #active flows on j, offset by the
        // current common rate.
        #[cfg(debug_assertions)]
        if let Some(first) = (0..m).find(|&i| ws.active[i]) {
            let current = ws.rates[first];
            debug_assert!((0..m)
                .filter(|&i| ws.active[i])
                .all(|i| (ws.rates[i] - current).abs() < 1e-12));
        }

        let mut next = f64::INFINITY;
        // κ events.
        for i in 0..m {
            if ws.active[i] {
                next = next.min(kappa(i));
            }
        }
        // Link saturation events.
        for j in 0..net.link_count() {
            let on = ws.link_active[j];
            if on == 0 {
                continue;
            }
            // mlf-lint: allow(as-float-cast, reason = "flow counts are bounded by the receiver population, far below 2^53, so the cast is exact")
            let share = (net.graph().capacity(LinkId(j)) - ws.link_used[j]) / on as f64;
            next = next.min(share);
        }
        debug_assert!(next.is_finite());

        // Raise everyone, then determine the binding links *before* any
        // bookkeeping mutation (freezing one flow must not shift the share
        // seen by the next flow in the same round).
        for i in 0..m {
            if ws.active[i] {
                ws.rates[i] = next.min(kappa(i));
            }
        }
        for j in 0..net.link_count() {
            let on = ws.link_active[j];
            ws.link_flag[j] = if on == 0 {
                false
            } else {
                // mlf-lint: allow(as-float-cast, reason = "flow counts are bounded by the receiver population, far below 2^53, so the cast is exact")
                let share = (net.graph().capacity(LinkId(j)) - ws.link_used[j]) / on as f64;
                share <= next + 1e-12
            };
        }
        let mut froze = false;
        for i in 0..m {
            if !ws.active[i] {
                continue;
            }
            let at_kappa = ws.rates[i] >= kappa(i) - 1e-12;
            let binding_link = route(i).iter().copied().find(|l| ws.link_flag[l.0]);
            let reason = if at_kappa {
                Some(FreezeReason::MaxRate)
            } else {
                binding_link.map(FreezeReason::Link)
            };
            if let Some(reason) = reason {
                ws.active[i] = false;
                ws.reasons[i] = Some(reason);
                froze = true;
                for &l in route(i) {
                    ws.link_used[l.0] += ws.rates[i];
                }
                ws.note_freeze(net.incidence(), i, i, None);
            }
        }
        if !froze {
            return Err(SolveError::Stalled { level: next });
        }
    }
    Ok(ws.take_solution(net.incidence(), m, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, Unicast};
    use crate::linkrate::LinkRateConfig;
    use mlf_net::topology::{random_tree, SplitMix64};
    use mlf_net::{Graph, NodeId, ReceiverId, Session};

    #[test]
    fn textbook_example_three_flows() {
        // Classic: flows A->C (via both links), A->B, B->C on a 2-link
        // chain with capacities 10 and 6: long flow and short flows split.
        //   l0: A-B cap 10, l1: B-C cap 6.
        // Flows: f1 A->C, f2 A->B, f3 B->C.
        // Water-fill: l1 share = 6/2 = 3 freezes f1, f3 at 3.
        // l0: remaining 10-3=7 for f2 -> 7.
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 6.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[2]),
                Session::unicast(n[0], n[1]),
                Session::unicast(n[1], n[2]),
            ],
        )
        .unwrap();
        let sol = Unicast::new().solve(&net, &mut SolverWorkspace::new());
        assert_eq!(sol.allocation.rates(), &[vec![3.0], vec![7.0], vec![3.0]]);
        // The long flow froze on the thin link; the fat-link flow on l0.
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(1))
        );
        assert_eq!(
            sol.reason(ReceiverId::new(1, 0)),
            FreezeReason::Link(LinkId(0))
        );
    }

    #[test]
    fn respects_kappa() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 10.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[1]).with_max_rate(2.0),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let sol = Unicast::new().solve(&net, &mut SolverWorkspace::new());
        assert_eq!(sol.allocation.rates(), &[vec![2.0], vec![8.0]]);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);
    }

    #[test]
    fn agrees_with_general_allocator_on_random_unicast_networks() {
        // Differential test: textbook unicast water-filling vs the general
        // progressive-filling allocator on all-unicast random trees, both
        // running through one shared workspace.
        let mut rng = SplitMix64(0xC0FFEE);
        let mut ws = SolverWorkspace::new();
        for seed in 0..40u64 {
            let g = random_tree(seed, 10, 1.0, 8.0).unwrap();
            let nodes = g.node_count();
            let mut sessions = Vec::new();
            for s in 0..4 {
                let from = NodeId((seed as usize + s) % nodes);
                let mut to = NodeId(rng.below(nodes));
                if to == from {
                    to = NodeId((to.0 + 1) % nodes);
                }
                sessions.push(Session::unicast(from, to));
            }
            let net = Network::new(g, sessions).unwrap();
            let a = Unicast::new().solve(&net, &mut ws).allocation;
            let b = Hybrid::as_declared().solve(&net, &mut ws).allocation;
            for (ra, rb) in a.rates().iter().zip(b.rates()) {
                for (x, y) in ra.iter().zip(rb) {
                    assert!((x - y).abs() < 1e-9, "seed {seed}: {x} vs {y}");
                }
            }
            // And the result is feasible under the efficient model.
            let cfg = LinkRateConfig::efficient(net.session_count());
            assert!(a.is_feasible(&net, &cfg));
        }
    }
}
