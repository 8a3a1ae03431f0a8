//! Frozen pre-incidence-index reference solvers, kept verbatim for
//! differential testing.
//!
//! The production engines in [`crate::maxmin`] (weighted filling
//! included) and [`crate::unicast`] run on the CSR incidence structure of
//! [`mlf_net::Incidence`] with incrementally maintained per-link
//! aggregates. This module preserves the *original* scan-everything
//! implementations — the nested `for link { for session { for receiver } }`
//! rescans they replaced — so property tests can assert the optimized
//! solvers are **bitwise identical** to them on arbitrary networks
//! (`tests/incidence_differential.rs` at the workspace root, plus the
//! in-crate unit tests).
//!
//! Nothing here is meant for production use: every call allocates a fresh
//! private scratch, and no attempt is made to keep the hot loops tight.
//! Treat the module as executable documentation of the solver semantics the
//! incidence-indexed engines must reproduce bit for bit.

// mlf-lint: allow-file(panic-unwrap, reason = "frozen pre-refactor engine kept byte-for-byte for the bitwise differential; only comments may change in this file")
use crate::allocation::{Allocation, RATE_EPS};
use crate::allocator::Regimes;
use crate::linkrate::{LinkRateConfig, LinkRateModel};
use crate::maxmin::{FreezeReason, MaxMinSolution};
use crate::weighted::Weights;
use mlf_net::{LinkId, Network, SessionId};

/// Private scratch of the reference engines: the exact buffer set the
/// pre-index `SolverWorkspace` held, allocated fresh per call.
#[derive(Debug, Default)]
struct RefWorkspace {
    rates: Vec<Vec<f64>>,
    active: Vec<Vec<bool>>,
    reasons: Vec<Vec<Option<FreezeReason>>>,
    terms: Vec<(f64, f64)>,
    breakpoints: Vec<f64>,
    scratch: Vec<f64>,
    link_used: Vec<f64>,
    link_flag: Vec<bool>,
}

impl RefWorkspace {
    fn reset(&mut self, net: &Network) {
        let m = net.session_count();
        self.rates.resize_with(m, Vec::new);
        self.active.resize_with(m, Vec::new);
        self.reasons.resize_with(m, Vec::new);
        for (i, s) in net.sessions().iter().enumerate() {
            let k = s.receivers.len();
            self.rates[i].clear();
            self.rates[i].resize(k, 0.0);
            self.active[i].clear();
            self.active[i].resize(k, true);
            self.reasons[i].clear();
            self.reasons[i].resize(k, None);
        }
        self.link_used.clear();
        self.link_used.resize(net.link_count(), 0.0);
        self.link_flag.clear();
        self.link_flag.resize(net.link_count(), false);
    }

    fn take_solution(&self, iterations: usize) -> MaxMinSolution {
        MaxMinSolution {
            allocation: Allocation::from_rates(self.rates.clone()),
            reasons: self
                .reasons
                .iter()
                .map(|rs| {
                    rs.iter()
                        .map(|r| r.expect("every receiver froze"))
                        .collect()
                })
                .collect(),
            iterations,
        }
    }
}

/// Reference progressive filling with an explicit session-type regime: the
/// pre-index implementation of `maxmin::solve_in`, scan loops and all.
pub fn solve_in(net: &Network, cfg: &LinkRateConfig, regimes: &Regimes) -> MaxMinSolution {
    assert_eq!(
        cfg.len(),
        net.session_count(),
        "link-rate config must cover every session"
    );
    let mut ws = RefWorkspace::default();
    ws.reset(net);
    let mut state = State {
        net,
        cfg,
        regimes,
        ws: &mut ws,
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

/// Reference solve honouring each session's declared type under explicit
/// link rates (what `Hybrid::as_declared().solve_with` computes).
pub fn solve(net: &Network, cfg: &LinkRateConfig) -> MaxMinSolution {
    solve_in(net, cfg, &Regimes::AsDeclared)
}

struct State<'a> {
    net: &'a Network,
    cfg: &'a LinkRateConfig,
    regimes: &'a Regimes,
    ws: &'a mut RefWorkspace,
    level: f64,
}

impl State<'_> {
    fn any_active(&self) -> bool {
        self.ws.active.iter().any(|s| s.iter().any(|&a| a))
    }

    fn session_has_active(&self, i: usize) -> bool {
        self.ws.active[i].iter().any(|&a| a)
    }

    fn single_rate(&self, i: usize) -> bool {
        self.regimes.kind(self.net, i).is_single_rate()
    }

    fn effective_kappa(&self, i: usize) -> f64 {
        let kappa = self.net.sessions()[i].max_rate;
        match *self.cfg.model(i) {
            LinkRateModel::RandomJoin { sigma } => kappa.min(sigma),
            _ => kappa,
        }
    }

    fn step(&mut self) {
        let upper = (0..self.net.session_count())
            .filter(|&i| self.session_has_active(i))
            .map(|i| self.effective_kappa(i))
            .fold(f64::INFINITY, f64::min);
        debug_assert!(upper.is_finite(), "session max rates are finite");

        let mut next = upper;
        for j in 0..self.net.link_count() {
            if !self.link_has_active(j) {
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

        for i in 0..self.ws.rates.len() {
            for k in 0..self.ws.rates[i].len() {
                if self.ws.active[i][k] {
                    self.ws.rates[i][k] = self.level;
                }
            }
        }

        let mut froze_any = false;

        for i in 0..self.net.session_count() {
            if self.session_has_active(i) && self.effective_kappa(i) <= self.level + RATE_EPS {
                let kappa = self.effective_kappa(i);
                for k in 0..self.ws.rates[i].len() {
                    if self.ws.active[i][k] {
                        self.ws.active[i][k] = false;
                        self.ws.rates[i][k] = kappa;
                        self.ws.reasons[i][k] = Some(FreezeReason::MaxRate);
                        froze_any = true;
                    }
                }
            }
        }

        for j in 0..self.net.link_count() {
            let link = LinkId(j);
            if !self.link_has_active(j) {
                continue;
            }
            let load = self.link_load_at(j, self.level);
            if load < self.net.graph().capacity(link) - RATE_EPS {
                continue;
            }
            for i in 0..self.net.session_count() {
                let on = self.net.receivers_of_session_on_link(link, SessionId(i));
                if on.is_empty() || !on.iter().any(|&k| self.ws.active[i][k]) {
                    continue;
                }
                if !self.session_marginal_on(j, i) {
                    continue; // free rider: keeps rising under the frozen max
                }
                if self.single_rate(i) {
                    for k in 0..self.ws.rates[i].len() {
                        if self.ws.active[i][k] {
                            self.ws.active[i][k] = false;
                            self.ws.reasons[i][k] = Some(if on.contains(&k) {
                                FreezeReason::Link(link)
                            } else {
                                FreezeReason::SessionClosure
                            });
                            froze_any = true;
                        }
                    }
                } else {
                    for &k in on {
                        if self.ws.active[i][k] {
                            self.ws.active[i][k] = false;
                            self.ws.reasons[i][k] = Some(FreezeReason::Link(link));
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

    fn link_has_active(&self, j: usize) -> bool {
        let link = LinkId(j);
        (0..self.net.session_count()).any(|i| {
            self.net
                .receivers_of_session_on_link(link, SessionId(i))
                .iter()
                .any(|&k| self.ws.active[i][k])
        })
    }

    fn fill_session_rates_at(&mut self, j: usize, i: usize, level: f64) {
        let ws = &mut *self.ws;
        ws.scratch.clear();
        for &k in self
            .net
            .receivers_of_session_on_link(LinkId(j), SessionId(i))
        {
            ws.scratch.push(if ws.active[i][k] {
                level
            } else {
                ws.rates[i][k]
            });
        }
    }

    fn link_load_at(&mut self, j: usize, level: f64) -> f64 {
        let mut total = 0.0;
        for i in 0..self.net.session_count() {
            self.fill_session_rates_at(j, i, level);
            total += self.cfg.model(i).link_rate(&self.ws.scratch);
        }
        total
    }

    fn session_marginal_on(&mut self, j: usize, i: usize) -> bool {
        let link = LinkId(j);
        let on = self.net.receivers_of_session_on_link(link, SessionId(i));
        if !on.iter().any(|&k| self.ws.active[i][k]) {
            return false;
        }
        match *self.cfg.model(i) {
            LinkRateModel::Efficient | LinkRateModel::Scaled(_) => {
                let frozen_max = on
                    .iter()
                    .filter(|&&k| !self.ws.active[i][k])
                    .map(|&k| self.ws.rates[i][k])
                    .fold(0.0_f64, f64::max);
                self.level >= frozen_max - RATE_EPS
            }
            LinkRateModel::Sum => true,
            LinkRateModel::RandomJoin { .. } => {
                let delta = (self.level.abs() + 1.0) * 1e-7;
                self.fill_session_rates_at(j, i, self.level);
                let now = self.cfg.model(i).link_rate(&self.ws.scratch);
                self.fill_session_rates_at(j, i, self.level + delta);
                let bumped = self.cfg.model(i).link_rate(&self.ws.scratch);
                bumped > now + RATE_EPS * delta
            }
        }
    }

    fn link_saturation_level(&mut self, j: usize, upper: f64) -> f64 {
        let cap = self.net.graph().capacity(LinkId(j));
        let linear = (0..self.net.session_count()).all(|i| {
            self.net
                .receivers_of_session_on_link(LinkId(j), SessionId(i))
                .is_empty()
                || self.cfg.model(i).is_piecewise_linear()
        });
        if linear {
            self.saturation_level_linear(j, upper, cap)
        } else {
            self.saturation_level_bisect(j, upper, cap)
        }
    }

    fn saturation_level_linear(&mut self, j: usize, upper: f64, cap: f64) -> f64 {
        let link = LinkId(j);
        let mut constant = 0.0;
        let ws = &mut *self.ws;
        ws.terms.clear();
        for i in 0..self.net.session_count() {
            let on = self.net.receivers_of_session_on_link(link, SessionId(i));
            if on.is_empty() {
                continue;
            }
            let active_count = on.iter().filter(|&&k| ws.active[i][k]).count();
            let mut frozen_sum = 0.0_f64;
            let mut frozen_max = 0.0_f64;
            for &k in on.iter().filter(|&&k| !ws.active[i][k]) {
                frozen_sum += ws.rates[i][k];
                frozen_max = frozen_max.max(ws.rates[i][k]);
            }
            match *self.cfg.model(i) {
                LinkRateModel::Efficient => {
                    if active_count > 0 {
                        ws.terms.push((frozen_max, 1.0));
                    } else {
                        constant += frozen_max;
                    }
                }
                LinkRateModel::Scaled(v) => {
                    let w = if on.len() >= 2 { v } else { 1.0 };
                    if active_count > 0 {
                        ws.terms.push((frozen_max, w));
                    } else {
                        constant += w * frozen_max;
                    }
                }
                LinkRateModel::Sum => {
                    constant += frozen_sum;
                    if active_count > 0 {
                        ws.terms.push((0.0, active_count as f64));
                    }
                }
                LinkRateModel::RandomJoin { .. } => {
                    unreachable!("nonlinear sessions route to bisection")
                }
            }
        }
        if ws.terms.is_empty() {
            return upper;
        }
        ws.breakpoints.clear();
        ws.breakpoints.extend(ws.terms.iter().map(|&(b, _)| b));
        ws.breakpoints.push(self.level);
        ws.breakpoints.push(upper);
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
            if load_at(bp) > cap + RATE_EPS {
                let slope: f64 = terms
                    .iter()
                    .filter(|&&(b, _)| b <= lo + RATE_EPS)
                    .map(|&(_, w)| w)
                    .sum();
                let base = load_at(lo);
                if slope <= 0.0 {
                    return lo;
                }
                let l = lo + (cap - base) / slope;
                return l.clamp(lo, bp);
            }
            lo = bp;
        }
        upper
    }

    fn saturation_level_bisect(&mut self, j: usize, upper: f64, cap: f64) -> f64 {
        let mut lo = self.level;
        if self.link_load_at(j, upper) <= cap + RATE_EPS {
            return upper;
        }
        if self.link_load_at(j, lo) >= cap - RATE_EPS {
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

/// Reference weighted progressive filling: the pre-index implementation of
/// the weighted steps of `maxmin::solve_in` (see "Weighted filling" there).
#[allow(clippy::needless_range_loop)] // parallel (rates, active, weights) tables
pub fn weighted_solve(net: &Network, weights: &Weights) -> MaxMinSolution {
    assert!(
        net.sessions().iter().all(|s| s.kind.is_multi_rate()),
        "weighted max-min is defined for multi-rate sessions"
    );
    let w = weights.values();
    assert_eq!(w.len(), net.session_count(), "weight shape");
    for (s, wsess) in net.sessions().iter().zip(w) {
        assert_eq!(wsess.len(), s.receivers.len(), "weight shape");
        assert!(
            wsess.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
    }

    let mut ws = RefWorkspace::default();
    ws.reset(net);
    let mut phi = 0.0_f64;
    let mut iterations = 0usize;

    loop {
        let any_active = ws.active.iter().any(|s| s.iter().any(|&a| a));
        if !any_active {
            break;
        }
        iterations += 1;
        assert!(iterations <= net.receiver_count() + 1, "no convergence");

        let mut upper = f64::INFINITY;
        for (i, s) in net.sessions().iter().enumerate() {
            for k in 0..s.receivers.len() {
                if ws.active[i][k] {
                    upper = upper.min(s.max_rate / w[i][k]);
                }
            }
        }
        debug_assert!(upper.is_finite());

        let mut next = upper;
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let mut constant = 0.0;
            ws.terms.clear();
            let mut has_active = false;
            for i in 0..net.session_count() {
                let on = net.receivers_of_session_on_link(link, SessionId(i));
                if on.is_empty() {
                    continue;
                }
                let frozen_max = on
                    .iter()
                    .filter(|&&k| !ws.active[i][k])
                    .map(|&k| ws.rates[i][k])
                    .fold(0.0_f64, f64::max);
                let w_max = on
                    .iter()
                    .filter(|&&k| ws.active[i][k])
                    .map(|&k| w[i][k])
                    .fold(0.0_f64, f64::max);
                if w_max > 0.0 {
                    has_active = true;
                    ws.terms.push((frozen_max / w_max, w_max));
                } else {
                    constant += frozen_max;
                }
            }
            if !has_active {
                continue;
            }
            let cap = net.graph().capacity(link);
            let terms = &ws.terms;
            let load_at = |p: f64| -> f64 {
                constant + terms.iter().map(|&(b, w)| w * b.max(p)).sum::<f64>()
            };
            ws.breakpoints.clear();
            ws.breakpoints.extend(terms.iter().map(|&(b, _)| b));
            ws.breakpoints.push(phi);
            ws.breakpoints.push(upper);
            ws.breakpoints.sort_by(f64::total_cmp);
            ws.breakpoints.dedup();
            let mut lo = phi;
            let mut sat = upper;
            for &bp in ws.breakpoints.iter().filter(|&&b| b > phi && b <= upper) {
                if load_at(bp) > cap + RATE_EPS {
                    let slope: f64 = terms
                        .iter()
                        .filter(|&&(b, _)| b <= lo + RATE_EPS)
                        .map(|&(_, w)| w)
                        .sum();
                    let base = load_at(lo);
                    sat = if slope <= 0.0 {
                        lo
                    } else {
                        (lo + (cap - base) / slope).clamp(lo, bp)
                    };
                    break;
                }
                lo = bp;
            }
            next = next.min(sat);
        }
        phi = next.max(phi);

        for i in 0..ws.rates.len() {
            for k in 0..ws.rates[i].len() {
                if ws.active[i][k] {
                    ws.rates[i][k] = w[i][k] * phi;
                }
            }
        }

        let mut froze = false;
        for (i, s) in net.sessions().iter().enumerate() {
            for k in 0..s.receivers.len() {
                if ws.active[i][k] && w[i][k] * phi >= s.max_rate - RATE_EPS {
                    ws.active[i][k] = false;
                    ws.rates[i][k] = s.max_rate;
                    ws.reasons[i][k] = Some(FreezeReason::MaxRate);
                    froze = true;
                }
            }
        }
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let mut load = 0.0;
            for i in 0..net.session_count() {
                let on = net.receivers_of_session_on_link(link, SessionId(i));
                let max = on.iter().map(|&k| ws.rates[i][k]).fold(0.0_f64, f64::max);
                load += max;
            }
            if load < net.graph().capacity(link) - RATE_EPS {
                continue;
            }
            for i in 0..net.session_count() {
                let on = net.receivers_of_session_on_link(link, SessionId(i));
                if on.is_empty() {
                    continue;
                }
                let session_max = on.iter().map(|&k| ws.rates[i][k]).fold(0.0_f64, f64::max);
                for &k in on {
                    if ws.active[i][k] && ws.rates[i][k] >= session_max - RATE_EPS {
                        ws.active[i][k] = false;
                        ws.reasons[i][k] = Some(FreezeReason::Link(link));
                        froze = true;
                    }
                }
            }
        }
        assert!(froze, "weighted filling made no progress at phi = {phi}");
    }
    ws.take_solution(iterations)
}

/// Reference textbook unicast water-filling: the pre-index implementation of
/// `unicast::unicast_solve_in`.
#[allow(clippy::needless_range_loop)] // parallel per-flow tables
pub fn unicast_solve(net: &Network) -> MaxMinSolution {
    assert!(
        net.sessions().iter().all(|s| s.is_unicast()),
        "unicast_max_min requires an all-unicast network"
    );
    let mut ws = RefWorkspace::default();
    ws.reset(net);
    let m = net.session_count();
    let route = |i: usize| net.route(mlf_net::ReceiverId::new(i, 0));
    let kappa = |i: usize| net.sessions()[i].max_rate;

    let mut iterations = 0usize;
    loop {
        let n_active = (0..m).filter(|&i| ws.active[i][0]).count();
        if n_active == 0 {
            break;
        }
        iterations += 1;
        assert!(iterations <= m + 1, "no convergence");

        let mut next = f64::INFINITY;
        for i in 0..m {
            if ws.active[i][0] {
                next = next.min(kappa(i));
            }
        }
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let on = (0..m)
                .filter(|&i| ws.active[i][0] && route(i).contains(&link))
                .count();
            if on == 0 {
                continue;
            }
            let share = (net.graph().capacity(link) - ws.link_used[j]) / on as f64;
            next = next.min(share);
        }
        debug_assert!(next.is_finite());

        for i in 0..m {
            if ws.active[i][0] {
                ws.rates[i][0] = next.min(kappa(i));
            }
        }
        for j in 0..net.link_count() {
            let link = LinkId(j);
            let on = (0..m)
                .filter(|&i| ws.active[i][0] && route(i).contains(&link))
                .count();
            ws.link_flag[j] = if on == 0 {
                false
            } else {
                let share = (net.graph().capacity(link) - ws.link_used[j]) / on as f64;
                share <= next + 1e-12
            };
        }
        let mut froze = false;
        for i in 0..m {
            if !ws.active[i][0] {
                continue;
            }
            let at_kappa = ws.rates[i][0] >= kappa(i) - 1e-12;
            let binding_link = route(i).iter().copied().find(|l| ws.link_flag[l.0]);
            if at_kappa || binding_link.is_some() {
                ws.active[i][0] = false;
                ws.reasons[i][0] = Some(if at_kappa {
                    FreezeReason::MaxRate
                } else {
                    FreezeReason::Link(binding_link.unwrap())
                });
                froze = true;
                for &l in route(i) {
                    ws.link_used[l.0] += ws.rates[i][0];
                }
            }
        }
        assert!(froze, "unicast water-filling must freeze a flow per round");
    }
    ws.take_solution(iterations)
}
