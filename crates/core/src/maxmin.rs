//! The max-min fair allocator: progressive filling for arbitrary mixes of
//! single-rate and multi-rate sessions (Appendix A of the paper),
//! generalized to arbitrary monotone session link-rate models (Section 3).
//!
//! The preferred entry points are the [`crate::allocator::Allocator`]
//! implementations ([`crate::allocator::MultiRate`],
//! [`crate::allocator::SingleRate`], [`crate::allocator::Hybrid`], …),
//! which share scratch buffers through a
//! [`crate::allocator::SolverWorkspace`]; [`solve`] is the low-level
//! one-shot engine entry.
//!
//! # Algorithm
//!
//! All receivers start active at rate 0. A global *water level* rises; every
//! active receiver's rate equals the level. A receiver freezes when
//!
//! 1. its session's maximum desired rate `κ_i` is reached, or
//! 2. a link on its data-path is fully utilized **and** raising this
//!    receiver's rate would raise the link's load, or
//! 3. (single-rate sessions only) any other receiver of its session froze —
//!    all receivers of a single-rate session must hold the same rate
//!    (step 7 of the paper's algorithm).
//!
//! Condition 2's "would raise the load" clause matters for multi-rate
//! sessions under the efficient model `u_{i,j} = max{a_{i,k}}`: a receiver
//! whose session-mates already pushed the session's link rate above the
//! current level can keep riding the saturated link *for free* until the
//! level reaches the session's frozen maximum on that link. (The algorithm
//! as printed in the paper's appendix elides this case; without it the
//! produced allocation would violate Definition 1 — a free rider's rate
//! could be raised without decreasing anyone — and would break Theorem 1 on
//! networks like Figure 3(b), where `r_{3,1}` must ride `l_1` past
//! `r_{1,1}`'s frozen rate.)
//!
//! Between freezing events the level advances in closed form: for the
//! piecewise-linear models (`Efficient`, `Scaled`, `Sum`) each link's load is
//! `K + Σ_i w_i · max(b_i, ℓ)` in the level `ℓ`, whose saturation point is
//! found exactly by scanning breakpoints; the nonlinear `RandomJoin` model
//! falls back to bisection. Every iteration freezes at least one receiver,
//! so the loop runs at most `#receivers` times.
//!
//! # Implementation: incidence index + incremental aggregates
//!
//! The hot loops run on the [`crate::index::NetworkIndex`] CSR incidence
//! structure held by the workspace: per link, only the sessions that
//! actually cross it are visited (in ascending session order), and each
//! `(link, session)` slot's frozen-rate sum/maximum and active count are
//! maintained incrementally — when a receiver freezes,
//! `SolverWorkspace::note_freeze` re-folds exactly the slots on that
//! receiver's data-path, in the same ascending-receiver order a full
//! rescan would use. The result is **bitwise identical** to the
//! pre-index engine preserved in [`crate::reference`] (asserted by the
//! `incidence_differential` proptest suite); see the invariant note on
//! [`SolverWorkspace`] for why. `Sum` and `RandomJoin` loads still re-fold
//! their receiver lists at evaluation points — their accumulation order is
//! part of the bitwise contract — but only over the link's own receivers,
//! never over every session in the network.

use crate::allocation::{Allocation, RATE_EPS};
use crate::allocator::{Regimes, SolverWorkspace};
use crate::linkrate::{LinkRateConfig, LinkRateModel};
use mlf_net::{LinkId, Network, ReceiverId};

/// Why a receiver's rate froze at its final value.
// mlf-lint: allow(unused-pub, reason = "reachable through public fn signatures and returned values; the ident-based usage scan cannot see type flow")
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// The session's maximum desired rate `κ_i` (or the layer rate `σ` for
    /// `RandomJoin` sessions) was reached.
    MaxRate,
    /// This link on the receiver's data-path saturated while the receiver
    /// was marginal on it.
    Link(LinkId),
    /// A session-mate froze and the session is single-rate (step 7).
    SessionClosure,
}

/// The allocator's output: the unique max-min fair allocation plus
/// per-receiver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxMinSolution {
    /// The max-min fair allocation.
    pub allocation: Allocation,
    /// Why each receiver froze, shaped `[session][receiver]`.
    pub reasons: Vec<Vec<FreezeReason>>,
    /// Number of water-filling iterations performed.
    pub iterations: usize,
}

impl MaxMinSolution {
    /// The freeze reason for a receiver.
    pub fn reason(&self, r: ReceiverId) -> FreezeReason {
        self.reasons[r.session.0][r.index]
    }

    /// The bottleneck link of a receiver, if it froze on a link.
    pub fn bottleneck(&self, r: ReceiverId) -> Option<LinkId> {
        match self.reason(r) {
            FreezeReason::Link(l) => Some(l),
            _ => None,
        }
    }
}

/// One-shot progressive-filling solve with diagnostics, honouring each
/// session's declared type. The low-level engine entry: allocates a fresh
/// workspace per call. Prefer the [`crate::allocator::Allocator`] trait with
/// a reused [`SolverWorkspace`] in sweeps and other hot paths.
pub fn solve(net: &Network, cfg: &LinkRateConfig) -> MaxMinSolution {
    solve_in(net, cfg, &Regimes::AsDeclared, &mut SolverWorkspace::new())
}

/// Progressive filling into a caller-provided workspace, with an explicit
/// session-type regime. The engine behind every [`crate::allocator`]
/// implementation except `Weighted` and `Unicast`.
pub(crate) fn solve_in(
    net: &Network,
    cfg: &LinkRateConfig,
    regimes: &Regimes,
    ws: &mut SolverWorkspace,
) -> MaxMinSolution {
    assert_eq!(
        cfg.len(),
        net.session_count(),
        "link-rate config must cover every session"
    );
    ws.reset(net);
    let mut state = State {
        net,
        cfg,
        regimes,
        ws,
        level: 0.0,
    };
    let mut iterations = 0;
    while state.any_active() {
        iterations += 1;
        assert!(
            iterations <= net.receiver_count() + 1,
            "progressive filling failed to converge (tolerance breakdown?)"
        );
        state.step();
    }
    ws.take_solution(iterations)
}

/// Water-filling pass over workspace-held state.
struct State<'a> {
    net: &'a Network,
    cfg: &'a LinkRateConfig,
    regimes: &'a Regimes,
    ws: &'a mut SolverWorkspace,
    level: f64,
}

impl State<'_> {
    fn any_active(&self) -> bool {
        self.ws.active_total > 0
    }

    fn session_has_active(&self, i: usize) -> bool {
        self.ws.session_active[i] > 0
    }

    fn single_rate(&self, i: usize) -> bool {
        self.regimes.kind(self.net, i).is_single_rate()
    }

    /// The effective rate cap of session `i`: `κ_i`, additionally clamped to
    /// the layer rate `σ` for `RandomJoin` sessions (a receiver cannot take
    /// more than the layer carries).
    fn effective_kappa(&self, i: usize) -> f64 {
        let kappa = self.net.sessions()[i].max_rate;
        match *self.cfg.model(i) {
            LinkRateModel::RandomJoin { sigma } => kappa.min(sigma),
            _ => kappa,
        }
    }

    /// One progressive-filling event: advance the level to the next freezing
    /// point and freeze every receiver that binds there.
    fn step(&mut self) {
        let upper = (0..self.net.session_count())
            .filter(|&i| self.session_has_active(i))
            .map(|i| self.effective_kappa(i))
            .fold(f64::INFINITY, f64::min);
        debug_assert!(upper.is_finite(), "session max rates are finite");

        // The next level is the smallest saturation level over all links
        // (clamped to `upper`).
        let mut next = upper;
        for j in 0..self.net.link_count() {
            if self.ws.link_active[j] == 0 {
                continue;
            }
            let lj = self.link_saturation_level(j, upper);
            next = next.min(lj);
        }
        debug_assert!(
            next >= self.level - RATE_EPS,
            "water level must not decrease"
        );
        self.level = next.max(self.level);

        // Raise every active receiver to the new level.
        for i in 0..self.ws.rates.len() {
            for k in 0..self.ws.rates[i].len() {
                if self.ws.active[i][k] {
                    self.ws.rates[i][k] = self.level;
                }
            }
        }

        let mut froze_any = false;

        // κ freezes.
        for i in 0..self.net.session_count() {
            if self.session_has_active(i) && self.effective_kappa(i) <= self.level + RATE_EPS {
                let kappa = self.effective_kappa(i);
                for k in 0..self.ws.rates[i].len() {
                    if self.ws.active[i][k] {
                        self.ws.active[i][k] = false;
                        self.ws.rates[i][k] = kappa;
                        self.ws.reasons[i][k] = Some(FreezeReason::MaxRate);
                        self.ws.note_freeze(i, k);
                        froze_any = true;
                    }
                }
            }
        }

        // Link freezes: saturated links freeze their marginal active receivers.
        for j in 0..self.net.link_count() {
            let link = LinkId(j);
            if self.ws.link_active[j] == 0 {
                continue;
            }
            let load = self.link_load_at(j, self.level);
            if load < self.net.graph().capacity(link) - RATE_EPS {
                continue;
            }
            for slot in self.ws.index.link_slots(j) {
                let i = self.ws.index.slot_session(slot);
                if self.ws.slot_active[slot] == 0 {
                    continue;
                }
                if !self.session_marginal_on(slot, i) {
                    continue; // free rider: keeps rising under the frozen max
                }
                if self.single_rate(i) {
                    // Freeze the whole session (step 7).
                    for k in 0..self.ws.rates[i].len() {
                        if self.ws.active[i][k] {
                            self.ws.active[i][k] = false;
                            self.ws.reasons[i][k] =
                                Some(if self.ws.index.slot_receivers(slot).contains(&k) {
                                    FreezeReason::Link(link)
                                } else {
                                    FreezeReason::SessionClosure
                                });
                            self.ws.note_freeze(i, k);
                            froze_any = true;
                        }
                    }
                } else {
                    let on_len = self.ws.index.slot_receivers(slot).len();
                    for t in 0..on_len {
                        let k = self.ws.index.slot_receivers(slot)[t];
                        if self.ws.active[i][k] {
                            self.ws.active[i][k] = false;
                            self.ws.reasons[i][k] = Some(FreezeReason::Link(link));
                            self.ws.note_freeze(i, k);
                            froze_any = true;
                        }
                    }
                }
            }
        }

        assert!(
            froze_any,
            "progressive filling made no progress at level {}",
            self.level
        );
    }

    /// Fill the workspace scratch buffer with the slot session's rates if
    /// the level were `ℓ` (frozen rates stay fixed, active ones take `ℓ`).
    fn fill_slot_rates_at(&mut self, slot: usize, i: usize, level: f64) {
        let ws = &mut *self.ws;
        ws.scratch.clear();
        for &k in ws.index.slot_receivers(slot) {
            ws.scratch.push(if ws.active[i][k] {
                level
            } else {
                ws.rates[i][k]
            });
        }
    }

    /// The load `u_j(ℓ)` of link `j` at hypothetical level `ℓ`.
    ///
    /// `Efficient`/`Scaled` sessions read the cached slot aggregates (their
    /// load is a max, which the incremental fold reproduces exactly);
    /// `Sum`/`RandomJoin` sessions rescan their receivers so the
    /// floating-point accumulation keeps the reference's ascending-receiver
    /// order.
    fn link_load_at(&mut self, j: usize, level: f64) -> f64 {
        let mut total = 0.0;
        for slot in self.ws.index.link_slots(j) {
            let i = self.ws.index.slot_session(slot);
            match *self.cfg.model(i) {
                LinkRateModel::Efficient => {
                    let frozen_max = self.ws.slot_frozen_max[slot];
                    total += if self.ws.slot_active[slot] > 0 {
                        frozen_max.max(level.max(0.0))
                    } else {
                        frozen_max
                    };
                }
                LinkRateModel::Scaled(factor) => {
                    let frozen_max = self.ws.slot_frozen_max[slot];
                    let max = if self.ws.slot_active[slot] > 0 {
                        frozen_max.max(level.max(0.0))
                    } else {
                        frozen_max
                    };
                    total += if self.ws.index.slot_len(slot) >= 2 {
                        factor * max
                    } else {
                        max
                    };
                }
                LinkRateModel::Sum | LinkRateModel::RandomJoin { .. } => {
                    self.fill_slot_rates_at(slot, i, level);
                    total += self.cfg.model(i).link_rate(&self.ws.scratch);
                }
            }
        }
        total
    }

    /// Whether raising the level marginally above the current value would
    /// raise the slot session's rate on its link (the free-rider test).
    fn session_marginal_on(&mut self, slot: usize, i: usize) -> bool {
        if self.ws.slot_active[slot] == 0 {
            return false;
        }
        match *self.cfg.model(i) {
            LinkRateModel::Efficient | LinkRateModel::Scaled(_) => {
                // Marginal iff no frozen session-mate on this link holds a
                // higher rate than the level.
                self.level >= self.ws.slot_frozen_max[slot] - RATE_EPS
            }
            LinkRateModel::Sum => true,
            LinkRateModel::RandomJoin { .. } => {
                let delta = (self.level.abs() + 1.0) * 1e-7;
                self.fill_slot_rates_at(slot, i, self.level);
                let now = self.cfg.model(i).link_rate(&self.ws.scratch);
                self.fill_slot_rates_at(slot, i, self.level + delta);
                let bumped = self.cfg.model(i).link_rate(&self.ws.scratch);
                bumped > now + RATE_EPS * delta
            }
        }
    }

    /// The largest level `ℓ ∈ [self.level, upper]` with `u_j(ℓ) ≤ c_j`.
    fn link_saturation_level(&mut self, j: usize, upper: f64) -> f64 {
        let cap = self.net.graph().capacity(LinkId(j));
        // Sessions crossing j: are they all piecewise-linear?
        let linear = self.ws.index.link_slots(j).all(|slot| {
            self.cfg
                .model(self.ws.index.slot_session(slot))
                .is_piecewise_linear()
        });
        if linear {
            self.saturation_level_linear(j, upper, cap)
        } else {
            self.saturation_level_bisect(j, upper, cap)
        }
    }

    /// Exact solve for piecewise-linear loads `u_j(ℓ) = K + Σ w_t·max(b_t, ℓ)`.
    fn saturation_level_linear(&mut self, j: usize, upper: f64, cap: f64) -> f64 {
        let mut constant = 0.0; // K: contributions independent of ℓ
        let ws = &mut *self.ws;
        ws.terms.clear(); // (b_t, w_t)
        for slot in ws.index.link_slots(j) {
            let i = ws.index.slot_session(slot);
            let active_count = ws.slot_active[slot];
            let frozen_sum = ws.slot_frozen_sum[slot];
            let frozen_max = ws.slot_frozen_max[slot];
            match *self.cfg.model(i) {
                LinkRateModel::Efficient => {
                    if active_count > 0 {
                        ws.terms.push((frozen_max, 1.0));
                    } else {
                        constant += frozen_max;
                    }
                }
                LinkRateModel::Scaled(v) => {
                    let w = if ws.index.slot_len(slot) >= 2 { v } else { 1.0 };
                    if active_count > 0 {
                        ws.terms.push((frozen_max, w));
                    } else {
                        constant += w * frozen_max;
                    }
                }
                LinkRateModel::Sum => {
                    constant += frozen_sum;
                    if active_count > 0 {
                        // mlf-lint: allow(as-float-cast, reason = "active_count is bounded by the receiver population, far below 2^53, so the cast is exact")
                        ws.terms.push((0.0, active_count as f64));
                    }
                }
                LinkRateModel::RandomJoin { .. } => {
                    unreachable!("nonlinear sessions route to bisection")
                }
            }
        }
        if ws.terms.is_empty() {
            return upper; // load independent of the level
        }
        // Scan segments between sorted breakpoints.
        ws.breakpoints.clear();
        ws.breakpoints.extend(ws.terms.iter().map(|&(b, _)| b));
        ws.breakpoints.push(self.level);
        ws.breakpoints.push(upper);
        // total_cmp: a NaN rate from an upstream model must not panic the
        // whole sweep mid-solve (NaNs sort last and surface in the output).
        ws.breakpoints.sort_by(f64::total_cmp);
        ws.breakpoints.dedup();
        let terms = &ws.terms;
        let load_at =
            |l: f64| -> f64 { constant + terms.iter().map(|&(b, w)| w * b.max(l)).sum::<f64>() };
        let mut lo = self.level;
        for &bp in ws
            .breakpoints
            .iter()
            .filter(|&&b| b > self.level && b <= upper)
        {
            // Segment [lo, bp]: slope = Σ w over terms with b ≤ lo.
            if load_at(bp) > cap + RATE_EPS {
                // Saturation inside (lo, bp]: solve linearly.
                let slope: f64 = terms
                    .iter()
                    .filter(|&&(b, _)| b <= lo + RATE_EPS)
                    .map(|&(_, w)| w)
                    .sum();
                let base = load_at(lo);
                if slope <= 0.0 {
                    // Load jumped due to a breakpoint exactly at `lo` being
                    // excluded by tolerance; saturate at lo.
                    return lo;
                }
                let l = lo + (cap - base) / slope;
                return l.clamp(lo, bp);
            }
            lo = bp;
        }
        upper // never saturates before the cap
    }

    /// Monotone bisection fallback for nonlinear (RandomJoin) loads.
    fn saturation_level_bisect(&mut self, j: usize, upper: f64, cap: f64) -> f64 {
        let mut lo = self.level;
        if self.link_load_at(j, upper) <= cap + RATE_EPS {
            return upper;
        }
        if self.link_load_at(j, lo) >= cap - RATE_EPS {
            // Already saturated: the level can only advance past this link's
            // constraint if no marginal session remains; conservatively stop
            // here and let the freezing pass sort it out. (For RandomJoin
            // loads there are no flat segments while any session is
            // marginal, so no free-rider ride-through exists to find.)
            return lo;
        }
        let mut hi = upper;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.link_load_at(j, mid) <= cap {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-13 * (1.0 + hi.abs()) {
                break;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{Allocator, Hybrid, MultiRate, SingleRate};
    use mlf_net::{Graph, Session, SessionId, SessionType};

    fn assert_rates(alloc: &Allocation, expected: &[Vec<f64>], tol: f64) {
        for (i, exp) in expected.iter().enumerate() {
            for (k, &e) in exp.iter().enumerate() {
                let got = alloc.rate(ReceiverId::new(i, k));
                assert!(
                    (got - e).abs() <= tol,
                    "r{},{} expected {e}, got {got}",
                    i + 1,
                    k + 1
                );
            }
        }
    }

    #[test]
    fn single_unicast_flow_takes_the_bottleneck() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 5.0).unwrap();
        g.add_link(n[1], n[2], 3.0).unwrap();
        let net = Network::new(g, vec![Session::unicast(n[0], n[2])]).unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(1));
        assert_rates(&sol.allocation, &[vec![3.0]], 1e-9);
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(1))
        );
    }

    #[test]
    fn two_unicasts_split_a_shared_link_evenly() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![4.0], vec![4.0]], 1e-9);
    }

    #[test]
    fn kappa_caps_a_flow_and_releases_bandwidth() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[1]).with_max_rate(1.0),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(2));
        assert_rates(&sol.allocation, &[vec![1.0], vec![7.0]], 1e-9);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);
    }

    #[test]
    fn multi_rate_session_lets_receivers_diverge() {
        // sender --10-- hub --4/2-- two receivers: a multi-rate session's
        // receivers take their own bottlenecks.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 10.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 2.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let alloc = MultiRate::new().allocate(&net);
        assert_rates(&alloc, &[vec![4.0, 2.0]], 1e-9);
        // The single-rate twin drags everyone to the slowest branch.
        let single = SingleRate::new().allocate(&net);
        assert_rates(&single, &[vec![2.0, 2.0]], 1e-9);
    }

    #[test]
    fn free_rider_rides_a_saturated_link() {
        // Shared link L (cap 6) carries unicast S1 and multi-rate
        // S2 = {r21 (via L + roomy tail), r22 (via L + cap-1 tail)}.
        // r22 freezes at 1 (its tail). L: u = a1 + max(a21, 1): saturates
        // when a1 + a21 = 6 -> both 3.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 6.0).unwrap(); // L shared
        g.add_link(n[1], n[2], 1.0).unwrap(); // tail to r22
        g.add_link(n[1], n[3], 100.0).unwrap(); // tail to r21
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[0], n[3]),
                Session::multi_rate(n[0], vec![n[3], n[2]]),
            ],
        )
        .unwrap();
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![3.0], vec![3.0, 1.0]], 1e-9);
    }

    #[test]
    fn free_rider_past_frozen_session_max() {
        // The case that breaks the paper's printed algorithm: a receiver
        // rides a saturated link because its session-mate already pays for
        // a higher session link rate there.
        //   L1 (cap 4): r11 (S1 unicast) + r21 (S2)
        //   L2 (cap 10): r21 + r22 (both S2, multi-rate)
        //   L3 (cap 9): r22 alone
        let mut g = Graph::new();
        let n = g.add_nodes(5);
        let l2 = g.add_link(n[0], n[1], 10.0).unwrap(); // L2 shared by S2
        g.add_link(n[1], n[2], 4.0).unwrap(); // L1: r21 tail shared with r11
        g.add_link(n[1], n[3], 9.0).unwrap(); // L3: r22 tail
        g.add_link(n[0], n[4], 100.0).unwrap();
        let _ = l2;
        let net = Network::new(
            g,
            vec![
                Session::unicast(n[1], n[2]),
                Session::multi_rate(n[0], vec![n[2], n[3]]),
            ],
        )
        .unwrap();
        // L1 (cap 4) carries r11 and r21: saturates at level 2 -> both 2.
        // r22 continues: L2 u = max(2, level) rides to 9 via L3 (cap 9).
        let alloc = Hybrid::as_declared().allocate(&net);
        assert_rates(&alloc, &[vec![2.0]], 1e-9);
        assert_rates(&alloc, &[vec![2.0], vec![2.0, 9.0]], 1e-9);
        // Check L2's load is the session max, not the sum.
        let cfg = LinkRateConfig::efficient(2);
        assert!((alloc.link_rate(&net, &cfg, LinkId(0)) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn single_rate_closure_freezes_whole_session() {
        // Star: S single-rate with branches of caps 2 and 8, plus a unicast
        // sharing the fat branch. S freezes at 2 everywhere; the unicast
        // takes 6.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 100.0).unwrap();
        g.add_link(n[1], n[2], 2.0).unwrap();
        g.add_link(n[1], n[3], 8.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::single_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[3]),
            ],
        )
        .unwrap();
        let sol = solve(&net, &LinkRateConfig::efficient(2));
        assert_rates(&sol.allocation, &[vec![2.0, 2.0], vec![6.0]], 1e-9);
        assert_eq!(
            sol.reason(ReceiverId::new(0, 0)),
            FreezeReason::Link(LinkId(1))
        );
        assert_eq!(
            sol.reason(ReceiverId::new(0, 1)),
            FreezeReason::SessionClosure
        );
    }

    #[test]
    fn scaled_model_shrinks_fair_rates() {
        // Figure 6's single-bottleneck model: n sessions on one link, m of
        // them redundancy v. Rates must equal c / ((n-m) + m v).
        let mut g = Graph::new();
        let a = g.add_node();
        let hub = g.add_node();
        g.add_link(a, hub, 12.0).unwrap();
        // Redundant multi-rate session needs >= 2 receivers crossing the
        // shared link for Scaled to bite: give it two receivers behind hub.
        let r1 = g.add_node();
        let r2 = g.add_node();
        g.add_link(hub, r1, 100.0).unwrap();
        g.add_link(hub, r2, 100.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(a, vec![r1, r2]),
                Session::unicast(a, r1),
            ],
        )
        .unwrap();
        // v = 2 for session 0: link load = 2·L + L = 3L = 12 -> L = 4.
        let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0));
        let alloc = Hybrid::as_declared().with_config(cfg).allocate(&net);
        assert_rates(&alloc, &[vec![4.0, 4.0], vec![4.0]], 1e-9);
        // Efficient: 2L = 12 -> 6 each.
        let eff = Hybrid::as_declared().allocate(&net);
        assert_rates(&eff, &[vec![6.0, 6.0], vec![6.0]], 1e-9);
    }

    #[test]
    fn sum_model_behaves_like_unicasts() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 9.0).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[2], n[3]]),
                Session::unicast(n[0], n[2]),
            ],
        )
        .unwrap();
        let cfg = LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Sum);
        let alloc = Hybrid::as_declared().with_config(cfg).allocate(&net);
        // Load on the first hop: a11 + a12 + a2 = 3L = 9.
        assert_rates(&alloc, &[vec![3.0, 3.0], vec![3.0]], 1e-9);
    }

    #[test]
    fn random_join_model_solves_by_bisection() {
        // Two receivers of one session share a link of capacity 1.5 under
        // RandomJoin with σ = 1: u(L) = 1 - (1-L)^2 caps at 1 < 1.5, so both
        // receivers climb to the σ clamp.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 1.5).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let cfg = LinkRateConfig::uniform(1, LinkRateModel::RandomJoin { sigma: 1.0 });
        let sol = solve(&net, &cfg);
        assert_rates(&sol.allocation, &[vec![1.0, 1.0]], 1e-6);
        assert_eq!(sol.reason(ReceiverId::new(0, 0)), FreezeReason::MaxRate);

        // Tighter link: u(L) = 1 - (1-L)^2 = 0.75 -> L = 0.5.
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 0.75).unwrap();
        g.add_link(n[1], n[2], 100.0).unwrap();
        g.add_link(n[1], n[3], 100.0).unwrap();
        let net = Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap();
        let sol = solve(&net, &cfg);
        assert_rates(&sol.allocation, &[vec![0.5, 0.5]], 1e-6);
    }

    #[test]
    fn allocation_is_invariant_to_session_order() {
        // Permuting sessions permutes the allocation accordingly (uniqueness
        // sanity check on a small asymmetric network).
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 5.0).unwrap();
        g.add_link(n[1], n[2], 2.0).unwrap();
        g.add_link(n[1], n[3], 9.0).unwrap();
        let s_a = Session::multi_rate(n[0], vec![n[2], n[3]]);
        let s_b = Session::unicast(n[0], n[3]);
        let net1 = Network::new(g.clone(), vec![s_a.clone(), s_b.clone()]).unwrap();
        let net2 = Network::new(g, vec![s_b, s_a]).unwrap();
        let a1 = Hybrid::as_declared().allocate(&net1);
        let a2 = Hybrid::as_declared().allocate(&net2);
        assert_eq!(a1.rates()[0], a2.rates()[1]);
        assert_eq!(a1.rates()[1], a2.rates()[0]);
    }

    #[test]
    fn result_is_always_feasible_and_saturating() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..30u64 {
            let net = mlf_net::topology::random_network(seed, 12, 4, 4).unwrap();
            let cfg = LinkRateConfig::efficient(net.session_count());
            let sol = solve_in(&net, &cfg, &Regimes::AsDeclared, &mut ws);
            assert!(
                sol.allocation.is_feasible(&net, &cfg),
                "seed {seed}: infeasible: {:?}",
                sol.allocation.feasibility_violation(&net, &cfg)
            );
            // Every receiver is blocked: κ or a saturated link on its path.
            for r in net.receivers() {
                match sol.reason(r) {
                    FreezeReason::MaxRate => {}
                    FreezeReason::Link(l) => {
                        assert!(net.crosses(r, l), "seed {seed}: bottleneck not on path");
                        assert!(
                            sol.allocation.is_fully_utilized(&net, &cfg, l),
                            "seed {seed}: bottleneck link not full"
                        );
                    }
                    FreezeReason::SessionClosure => {
                        assert!(net.session(r.session).kind.is_single_rate());
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_session_types_respect_single_rate_constraint() {
        for seed in 100..120u64 {
            let mut net = mlf_net::topology::random_network(seed, 10, 3, 4).unwrap();
            // Flip session 0 single-rate.
            net = net.with_session_kind(SessionId(0), SessionType::SingleRate);
            let cfg = LinkRateConfig::efficient(net.session_count());
            let alloc = Hybrid::as_declared()
                .with_config(cfg.clone())
                .allocate(&net);
            assert!(alloc.is_feasible(&net, &cfg), "seed {seed}");
            let rs = &alloc.rates()[0];
            for &a in rs {
                assert!((a - rs[0]).abs() < 1e-9, "seed {seed}: single-rate uniform");
            }
        }
    }
}
