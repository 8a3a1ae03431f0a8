//! The unified allocation API: one [`Allocator`] trait over every
//! allocation regime the paper compares, plus the reusable
//! [`SolverWorkspace`] that lets sweeps and simulations solve thousands of
//! networks without re-allocating scratch buffers per call.
//!
//! The paper's core result compares four regimes — multi-rate max-min
//! (Theorem 1's setting), single-rate max-min (Tzeng–Siu), weighted
//! (TCP-fairness-style, the Section 5 extension), and the textbook unicast
//! Bertsekas–Gallager baseline — plus arbitrary per-session mixes. Each is
//! an [`Allocator`] implementation here:
//!
//! | Allocator | Regime |
//! |-----------|--------|
//! | [`MultiRate`] | every session multi-rate (Theorem 1) |
//! | [`SingleRate`] | every session single-rate (Tzeng–Siu) |
//! | [`Hybrid`] | per-session regime mix (`χ` as declared, or overridden) |
//! | [`Weighted`] | weighted multi-rate max-min (`w = 1/RTT` TCP fairness) |
//! | [`Unicast`] | Bertsekas–Gallager water-filling (differential baseline) |
//!
//! An allocator is a regime and carries no link-rate configuration. The
//! per-session models `v` of Section 3 enter a solve in one place, the
//! `cfg` argument of [`Allocator::solve_with`], the one required solve
//! method; it returns a typed [`SolveError`] instead of panicking, and
//! [`Allocator::check`] returns its input errors without solving.
//! [`Allocator::solve`] and [`Allocator::allocate`] are conveniences for
//! the efficient model. Pass the same `cfg` to the fairness audit
//! ([`crate::properties::check_all`]): the properties are only meaningful
//! relative to the model the allocation was solved under.
//! [`Allocator::signature`] states everything about an allocator that can
//! change a solve's bits, which sweeps fold into their identity.
//!
//! # Example
//!
//! ```
//! use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SolverWorkspace, Weighted};
//! use mlf_core::{properties, LinkRateConfig, LinkRateModel, SolveError};
//!
//! # fn main() -> Result<(), SolveError> {
//! let example = mlf_net::paper::figure2();
//! let net = &example.network;
//! let mut ws = SolverWorkspace::new();
//!
//! // The network's declared regime mix (S1 single-rate)…
//! let declared = Hybrid::as_declared().solve(net, &mut ws);
//! // …versus the all-multi-rate counterfactual, reusing the same scratch.
//! let multi = MultiRate::new().solve(net, &mut ws);
//! assert!(multi.allocation.min_rate() >= declared.allocation.min_rate());
//!
//! // Redundant layering: solve and audit under the same configuration.
//! let rj = LinkRateModel::RandomJoin { sigma: 8.0 };
//! let cfg = LinkRateConfig::uniform(net.session_count(), rj);
//! let layered = MultiRate::new().solve_with(net, &cfg, &mut ws)?;
//! let report = properties::check_all(net, &cfg, &layered.allocation);
//! assert!(report.count_holding() <= 4);
//!
//! // Weighted max-min is defined for the efficient model only.
//! assert!(matches!(
//!     Weighted::uniform().solve_with(net, &cfg, &mut ws),
//!     Err(SolveError::UnsupportedLinkRates { allocator: "weighted", session: 0 })
//! ));
//! assert_eq!(ws.solves(), 3);
//! # Ok(())
//! # }
//! ```

use crate::allocation::Allocation;
use crate::linkrate::{LinkRateConfig, LinkRateModel};
use crate::maxmin::{
    miss_factor, solve_in, solved, Curve, FreezeReason, MaxMinSolution, Pending, SolveError,
};
use crate::unicast::unicast_solve_in;
use crate::weighted::Weights;
use mlf_net::{Incidence, Network, Session, SessionType};
use std::borrow::Cow;

/// Reusable scratch state for the progressive-filling solvers.
///
/// A workspace owns every buffer a solve needs — per-receiver rate/active/
/// reason tables, the piecewise-linear term and breakpoint arrays, and
/// per-link and per-position state — so repeated [`Allocator::solve`]
/// calls (parameter sweeps, simulation loops) reuse allocations instead of
/// re-allocating per call. A workspace may be shared freely across allocators and networks of
/// different shapes; buffers are resized, not reallocated, when shapes
/// repeat.
///
/// # Incidence and incremental aggregates
///
/// The solvers iterate the network's own [`Incidence`] (CSR link →
/// session → receiver incidence, built once with the [`Network`]). The
/// per-receiver tables are flat, indexed by the incidence's session-major
/// receiver id [`Incidence::flat`]. Each
/// solve (`SolverWorkspace::reset`) sizes, per `(link, session)` *slot*,
/// the aggregates the hot loops consume: active-receiver count,
/// frozen-rate sum, frozen-rate maximum, and (in a `Weighted` solve) the
/// maximum weight among active receivers. Between freeze events the
/// solvers never rescan `links × sessions × receivers`; when a receiver
/// freezes, `SolverWorkspace::note_freeze` recomputes the aggregates of
/// exactly the slots on that receiver's data-path, and clears its
/// per-position active flags (one per slot it sits in, aligned with the
/// incidence's flat receiver array), storing its `RandomJoin` miss factor
/// there when its session has one (see [`crate::maxmin`]).
///
/// **The incremental-load invariant**: after every freeze, each slot's
/// aggregates equal the ascending-receiver-order fold over the live
/// `active`/`rates` tables — the same fold the pre-index engines
/// ([`crate::reference`]) performed at every point of use. Recomputing a
/// dirty slot from its receiver list (rather than incrementally patching a
/// running sum) is what keeps the floating-point results **bitwise
/// identical** to the reference: the fold order never changes, only how
/// often the fold runs.
///
/// Most slots need less. A slot of a session that is neither `Sum` nor
/// weighted reads only its active count and frozen maximum (its frozen
/// sum is never read, and stays 0), and a freeze on it patches both in
/// O(1): `slot_active − 1` and `slot_frozen_max.max(rate)`. That running
/// max is the ascending fold's value bit for bit, up to the sign of a
/// zero result:
/// * both are `f64::max` folds from `0.0` over the same set of rates;
///   `max` of two distinct values is the larger, and of two equal values
///   with one sign the same bits, so on values other than zero the fold
///   order does not matter;
/// * a NaN operand is skipped by `f64::max` (the other one returns), in
///   either fold, so NaN rates (which a solve never stores) could not
///   split them either;
/// * only a zero maximum may come out as `0.0` in one fold and `−0.0` in
///   the other (`max(0.0, −0.0)` may return either). Every reader is blind
///   to that sign: the free-rider test compares `frozen_max − ε`; a load
///   adds the maximum (or a multiple of it, or of `frozen_max.max(x)`)
///   into a total that starts at `0.0`, as a linear scan does into its
///   constant `K`, which then takes the scan's term sum: `±0` leaves a
///   non-zero total as it is, and `0.0 + −0.0` is `0.0`; and a scan keeps
///   only breakpoints above the level, which is `≥ 0`.
///
/// `Sum` slots, weighted solves and the unicast solver re-fold.
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Per-receiver rates, indexed by flat receiver id.
    pub(crate) rates: Vec<f64>,
    /// Per-receiver active flags (still rising with the water level).
    pub(crate) active: Vec<bool>,
    /// Per-receiver freeze diagnostics.
    pub(crate) reasons: Vec<Option<FreezeReason>>,
    /// Per-receiver weights of a `Weighted` solve; empty otherwise.
    pub(crate) weights: Vec<f64>,
    /// `(breakpoint, weight)` terms of a link's piecewise-linear load.
    pub(crate) terms: Vec<(f64, f64)>,
    /// Sorted breakpoint scan buffer.
    pub(crate) breakpoints: Vec<f64>,
    /// Per-link accumulator (bandwidth used by frozen unicast flows).
    /// Sized by the unicast solver only.
    pub(crate) link_used: Vec<f64>,
    /// Per-link flags (binding links in the unicast solver). Sized by the
    /// unicast solver only.
    pub(crate) link_flag: Vec<bool>,
    /// The links with an active receiver, ascending, each with whether
    /// every session crossing it is piecewise-linear (set once per solve).
    pub(crate) live: Vec<(usize, bool)>,
    /// The clean linear links a round settles after all others.
    pub(crate) clean: Vec<usize>,
    /// The links a round still has to search, with their bracket loads.
    pub(crate) pending: Vec<Pending>,
    /// Per-link load at the water level, left by the last freeze pass for
    /// the next round's lower bracket; NaN until the first pass of a solve.
    /// Read by nonlinear links only.
    pub(crate) level_load: Vec<f64>,
    /// Per-link floor of the saturation level: a linear link's is stored
    /// by its last exact scan and cleared by any freeze of a receiver on
    /// it; a nonlinear link's is raised by its load evaluations and
    /// cleared only by freezes of linear sessions' receivers on it. NaN
    /// when unknown (see "Change-following rounds" and "`RandomJoin`
    /// floors" in [`crate::maxmin`]).
    pub(crate) floor: Vec<f64>,
    /// Per-link state of the links a `RandomJoin` session crosses: the
    /// rounding bound of their loads, the load their floor came from, and
    /// their last end load. Sized by solves that have such a link only.
    pub(crate) curves: Vec<Curve>,
    /// Per-position active flags, aligned with the flat `slot_receivers`
    /// array of the network's [`Incidence`]: position `p` of slot `(j, i)`
    /// is receiver `(i, slot_receivers[p])` on link `j`.
    pub(crate) pos_active: Vec<bool>,
    /// Per-position `RandomJoin` miss factor `1 − a.min(σ).max(0)/σ` of a
    /// frozen receiver, written when it freezes. Read only at frozen
    /// positions of `RandomJoin` sessions.
    pub(crate) pos_miss: Vec<f64>,
    /// Per-slot count of active receivers.
    pub(crate) slot_active: Vec<usize>,
    /// Per-slot frozen-rate sum (ascending-receiver fold; `Sum` model).
    pub(crate) slot_frozen_sum: Vec<f64>,
    /// Per-slot frozen-rate maximum (ascending-receiver fold).
    pub(crate) slot_frozen_max: Vec<f64>,
    /// Per-slot maximum weight among active receivers (ascending-receiver
    /// fold, `0` once none is active). Sized by `Weighted` solves only and
    /// read only while the solve has weights.
    pub(crate) slot_wmax: Vec<f64>,
    /// Per-link count of active receivers crossing the link.
    pub(crate) link_active: Vec<usize>,
    /// Per-session count of active receivers.
    pub(crate) session_active: Vec<usize>,
    /// Total count of active receivers.
    pub(crate) active_total: usize,
    /// Work done by every solve this workspace served.
    pub(crate) counters: SolveCounters,
    solves: u64,
}

/// Exact work counters of the solves a [`SolverWorkspace`] served, summed
/// over its lifetime (read them with [`SolverWorkspace::counters`]).
///
/// The counts are deterministic functions of the solved networks: a
/// workspace reused across solves reports the sum of what fresh
/// workspaces report for each solve, and two runs of the same solves
/// report equal counters. No clock is involved; callers that want time
/// measure it themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// Progressive-filling rounds (the `iterations` of every solution).
    pub freeze_rounds: u64,
    /// Evaluations of one link's load `u_j(ℓ)` at a candidate level, by
    /// the link-freeze pass and the `RandomJoin` saturation search
    /// (bracket checks and `bracket_probes`).
    pub link_load_evals: u64,
    /// Halvings the `RandomJoin` saturation search replayed; a link its
    /// skip probe settles replays none.
    pub bisection_steps: u64,
    /// Searches stopped early because their lower bound already reached
    /// the round's running minimum saturation level, counting the links
    /// the skip probe settled.
    pub early_exits: u64,
    /// Searches that used every one of their 200 halvings without meeting
    /// the convergence tolerance.
    pub cap_hits: u64,
    /// Load evaluations inside a link's bracket: skip probes, regula falsi
    /// points and midpoint fallbacks. At most
    /// `bracket_resolved + 2 · bisection_steps`.
    pub bracket_probes: u64,
    /// Bracketed links settled by their skip probe alone.
    pub bracket_resolved: u64,
    /// Links with an active receiver, once per round that visited them.
    pub links_visited: u64,
    /// Exact breakpoint scans of piecewise-linear links; a clean link its
    /// cached floor settles is not scanned.
    pub linear_scans: u64,
    /// Freeze-pass load evaluations skipped on links whose floor lies
    /// above the round's level, so that nobody on them freezes: clean
    /// linear links and `RandomJoin` links alike.
    pub freeze_skips: u64,
    /// `RandomJoin` end checks `u_j(upper) ≤ c_j + ε` a floor at or above
    /// `upper` passed without a load evaluation.
    pub end_checks_skipped: u64,
    /// `RandomJoin` end loads `u_j(upper)` reused from an earlier round at
    /// the same `upper`, no receiver on the link having frozen since.
    pub end_loads_reused: u64,
    /// Skip probes a floor at or above the probe level settled without a
    /// load evaluation (counted in `early_exits`, not `bracket_resolved`).
    pub probes_skipped: u64,
    /// Slot aggregates re-folded by freezes: one per link on the route of
    /// a freezing receiver of a `Sum` session, a weighted solve or the
    /// unicast solver (other freezes patch their slots in O(1)).
    pub slot_refolds: u64,
}

impl std::ops::AddAssign for SolveCounters {
    fn add_assign(&mut self, other: SolveCounters) {
        self.freeze_rounds += other.freeze_rounds;
        self.link_load_evals += other.link_load_evals;
        self.bisection_steps += other.bisection_steps;
        self.early_exits += other.early_exits;
        self.cap_hits += other.cap_hits;
        self.bracket_probes += other.bracket_probes;
        self.bracket_resolved += other.bracket_resolved;
        self.links_visited += other.links_visited;
        self.linear_scans += other.linear_scans;
        self.freeze_skips += other.freeze_skips;
        self.end_checks_skipped += other.end_checks_skipped;
        self.end_loads_reused += other.end_loads_reused;
        self.probes_skipped += other.probes_skipped;
        self.slot_refolds += other.slot_refolds;
    }
}

impl SolverWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// How many solves this workspace has served (telemetry for benches).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// The work counters summed over every solve this workspace served.
    pub fn counters(&self) -> SolveCounters {
        self.counters
    }

    /// Size the per-receiver tables for `net` and reset them to the
    /// progressive-filling start state (all rates 0, everyone active), with
    /// the flat weights and per-slot weight maxima of `weights` when the
    /// solve has them. Buffers are reused whenever shapes repeat.
    pub(crate) fn reset(&mut self, net: &Network, weights: Option<&[Vec<f64>]>) {
        let receivers = net.receiver_count();
        self.rates.clear();
        self.rates.resize(receivers, 0.0);
        self.active.clear();
        self.active.resize(receivers, true);
        self.reasons.clear();
        self.reasons.resize(receivers, None);
        self.weights.clear();
        if let Some(w) = weights {
            self.weights.extend(w.iter().flatten());
        }

        // Per-slot aggregates for the hot loops: all receivers start
        // active, so frozen aggregates are zero and the active counts are
        // the slot/link/session receiver totals.
        let inc = net.incidence();
        let slots = inc.slot_count();
        self.slot_active.clear();
        self.slot_frozen_sum.clear();
        self.slot_frozen_sum.resize(slots, 0.0);
        self.slot_frozen_max.clear();
        self.slot_frozen_max.resize(slots, 0.0);
        self.slot_wmax.clear();
        if !self.weights.is_empty() {
            let w = &self.weights;
            self.slot_wmax.extend((0..slots).map(|slot| {
                let base = inc.flat_range(inc.slot_session(slot)).start;
                let receivers = inc.slot_receivers(slot).iter();
                receivers.fold(0.0_f64, |wmax, &k| wmax.max(w[base + k]))
            }));
        }
        let positions = inc.position_count();
        self.pos_active.clear();
        self.pos_active.resize(positions, true);
        self.pos_miss.clear();
        self.pos_miss.resize(positions, 1.0);
        self.slot_active
            .extend((0..slots).map(|slot| inc.slot_positions(slot).len()));
        self.link_active.clear();
        let slot_active = &self.slot_active;
        self.link_active.extend((0..net.link_count()).map(|j| {
            inc.link_slots(j)
                .map(|slot| slot_active[slot])
                .sum::<usize>()
        }));
        self.session_active.clear();
        self.session_active
            .extend(net.sessions().iter().map(|s| s.receivers.len()));
        self.active_total = receivers;
        self.solves += 1;
    }

    /// Account a just-frozen receiver with flat id `f` of session `i`,
    /// whose session has link-rate `model` (`None` in the unicast
    /// solver): decrement the active counters, clear its position flags,
    /// store its `RandomJoin` miss factor at every position when `model`
    /// has one, and update the frozen aggregates of every slot on the
    /// receiver's data-path (see the incremental-load invariant in the
    /// type docs): in O(1) for a session that is neither `Sum` nor
    /// weighted, otherwise by the ascending-receiver re-fold, active-weight
    /// maxima included when the solve has weights. The caller must have
    /// already cleared `active[f]` and stored the final rate in
    /// `rates[f]`; `inc` is the incidence of the network being solved.
    pub(crate) fn note_freeze(
        &mut self,
        inc: &Incidence,
        i: usize,
        f: usize,
        model: Option<LinkRateModel>,
    ) {
        debug_assert!(!self.active[f], "freeze bookkeeping before the flag");
        self.session_active[i] -= 1;
        self.active_total -= 1;
        let rate = self.rates[f];
        let (miss, refold) = match model {
            Some(LinkRateModel::RandomJoin { sigma }) => (Some(miss_factor(rate, sigma)), false),
            Some(LinkRateModel::Efficient | LinkRateModel::Scaled(_)) => (None, false),
            Some(LinkRateModel::Sum) | None => (None, true),
        };
        let refold = refold || !self.weights.is_empty();
        let base = inc.flat_range(i).start;
        let route = inc.route_links(f);
        if refold {
            self.counters.slot_refolds += route.len() as u64;
        }
        for (l, &(slot, pos)) in route.iter().zip(inc.route_slots(f)) {
            self.link_active[l.0] -= 1;
            self.pos_active[pos] = false;
            if let Some(miss) = miss {
                self.pos_miss[pos] = miss;
            }
            if !refold {
                self.slot_active[slot] -= 1;
                self.slot_frozen_max[slot] = self.slot_frozen_max[slot].max(rate);
                continue;
            }
            let mut active = 0usize;
            let mut frozen_sum = 0.0_f64;
            let mut frozen_max = 0.0_f64;
            let positions = || inc.slot_positions(slot).zip(inc.slot_receivers(slot));
            for (p, &k) in positions() {
                if self.pos_active[p] {
                    active += 1;
                } else {
                    let a = self.rates[base + k];
                    frozen_sum += a;
                    frozen_max = frozen_max.max(a);
                }
            }
            self.slot_active[slot] = active;
            self.slot_frozen_sum[slot] = frozen_sum;
            self.slot_frozen_max[slot] = frozen_max;
            if !self.weights.is_empty() {
                let w = &self.weights;
                let active = positions().filter(|&(p, _)| self.pos_active[p]);
                self.slot_wmax[slot] = active.fold(0.0_f64, |wmax, (_, &k)| wmax.max(w[base + k]));
            }
        }
    }

    /// Package the frozen state as a [`MaxMinSolution`] shaped
    /// `[session][receiver]` by `inc` (the only allocations a warm solve
    /// performs are for this owned output) and count the solve's rounds.
    pub(crate) fn take_solution(
        &mut self,
        inc: &Incidence,
        sessions: usize,
        iterations: usize,
    ) -> MaxMinSolution {
        self.counters.freeze_rounds += iterations as u64;
        let rates = (0..sessions)
            .map(|i| self.rates[inc.flat_range(i)].to_vec())
            .collect();
        let reasons = (0..sessions)
            .map(|i| {
                self.reasons[inc.flat_range(i)]
                    .iter()
                    // mlf-lint: allow(panic-unwrap, reason = "the progressive-filling loop only returns after every receiver froze; a None reason here is an allocator bug")
                    .map(|r| r.expect("every receiver froze"))
                    .collect()
            })
            .collect();
        MaxMinSolution {
            allocation: Allocation::from_rates(rates),
            reasons,
            iterations,
        }
    }
}

/// How session types (`χ` in the paper) are chosen for a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regimes {
    /// Use each session's declared [`SessionType`].
    AsDeclared,
    /// Treat every session as the given type.
    Uniform(SessionType),
    /// Explicit per-session types (length must equal the session count).
    PerSession(Vec<SessionType>),
}

impl Regimes {
    /// The effective type of session `i` in `net`.
    pub(crate) fn kind(&self, net: &Network, i: usize) -> SessionType {
        match self {
            Regimes::AsDeclared => net.sessions()[i].kind,
            Regimes::Uniform(k) => *k,
            Regimes::PerSession(ks) => ks[i],
        }
    }

    /// `Ok` unless a per-session list misses or exceeds `net`'s sessions.
    fn check(&self, net: &Network) -> Result<(), SolveError> {
        match self {
            Regimes::PerSession(ks) => session_count("regime list", net, ks.len()),
            _ => Ok(()),
        }
    }
}

/// A max-min fair allocation solver for one regime of the paper.
///
/// Implementations are cheap, immutable specs; all mutable state lives in
/// the caller's [`SolverWorkspace`], so one allocator can serve many
/// networks concurrently (one workspace per thread) and sweeps can reuse
/// scratch across solves. The `Send + Sync` bound makes that concurrency
/// real: a `&dyn Allocator` can be shared across `std::thread::scope`
/// workers, each solving with its own workspace — the substrate of
/// `mlf-scenario`'s sweep coordinator. Link rates are an argument of
/// [`Allocator::solve_with`], never allocator state (see the module docs).
pub trait Allocator: Send + Sync {
    /// Compute the regime's unique max-min fair allocation of `net` under
    /// the per-session link-rate models `cfg`, with per-receiver freeze
    /// diagnostics.
    ///
    /// Returns the error of [`Allocator::check`] on inputs it rejects, and
    /// [`SolveError::Stalled`] when progressive filling stops short of
    /// every link.
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError>;

    /// The [`SolveError`] [`Allocator::solve_with`] returns for `net` and
    /// `cfg` before any filling, or `Ok` (the solve can still stall): a
    /// per-session input of the wrong length, a model outside its domain,
    /// a model or session the regime does not define, or bad weights.
    fn check(&self, net: &Network, cfg: &LinkRateConfig) -> Result<(), SolveError> {
        link_rates(net, cfg)
    }

    /// [`Allocator::solve_with`] under the efficient link-rate model.
    ///
    /// # Panics
    ///
    /// Where [`Allocator::solve_with`] returns a [`SolveError`].
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        solved(self.solve_with(net, &LinkRateConfig::efficient(net.session_count()), ws))
    }

    /// Convenience one-shot [`Allocator::solve`] returning just the
    /// allocation. Panics where `solve` does.
    fn allocate(&self, net: &Network) -> Allocation {
        self.solve(net, &mut SolverWorkspace::new()).allocation
    }

    /// Whether [`Allocator::solve_with`] accepts link-rate models other
    /// than `Efficient`.
    fn supports_link_rates(&self) -> bool {
        true
    }

    /// A short regime label for reports and benches.
    fn name(&self) -> &'static str;

    /// A stable textual identity of everything about this allocator that
    /// can change a solve's bits, with float parameters spelled as exact
    /// bit patterns.
    ///
    /// Two allocators with equal signatures produce bitwise-equal
    /// solutions for the same network and link-rate inputs, which is what
    /// lets a sweep fold the allocator into its identity and ship it to a
    /// worker process by name.
    fn signature(&self) -> String;
}

/// `Ok` when a per-session `input` of `got` entries covers `net`.
fn session_count(input: &'static str, net: &Network, got: usize) -> Result<(), SolveError> {
    if got == net.session_count() {
        Ok(())
    } else {
        Err(SolveError::SessionCount { input, got })
    }
}

/// `Ok` when `cfg` holds one model per session of `net`, each inside its
/// domain ([`LinkRateModel::validate`]).
fn link_rates(net: &Network, cfg: &LinkRateConfig) -> Result<(), SolveError> {
    session_count("link-rate config", net, cfg.len())?;
    (0..cfg.len()).try_for_each(|session| {
        cfg.model(session)
            .validate()
            .map_err(|reason| SolveError::BadLinkRate { session, reason })
    })
}

/// `Ok` when `cfg` covers `net` with efficient models only and every
/// session is one the regime defines: the inputs of the regimes without a
/// link-rate parameterization.
fn efficient_only(
    allocator: &'static str,
    net: &Network,
    cfg: &LinkRateConfig,
    defined: impl Fn(&Session) -> bool,
) -> Result<(), SolveError> {
    session_count("link-rate config", net, cfg.len())?;
    let efficient = |i| matches!(cfg.model(i), LinkRateModel::Efficient);
    if let Some(session) = (0..cfg.len()).find(|&i| !efficient(i)) {
        return Err(SolveError::UnsupportedLinkRates { allocator, session });
    }
    match net.sessions().iter().position(|s| !defined(s)) {
        Some(session) => Err(SolveError::UnsupportedSession { allocator, session }),
        None => Ok(()),
    }
}

/// Every session treated as multi-rate (Theorem 1's setting).
#[derive(Debug, Clone, Default)]
pub struct MultiRate;

impl MultiRate {
    /// The multi-rate max-min allocator.
    pub fn new() -> Self {
        MultiRate
    }
}

impl Allocator for MultiRate {
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError> {
        self.check(net, cfg)?;
        let regimes = Regimes::Uniform(SessionType::MultiRate);
        solve_in(net, cfg, &regimes, None, ws)
    }

    fn name(&self) -> &'static str {
        "multi-rate"
    }

    fn signature(&self) -> String {
        "multi-rate@eff".to_string()
    }
}

/// Every session treated as single-rate (the Tzeng–Siu setting).
#[derive(Debug, Clone, Default)]
pub struct SingleRate;

impl SingleRate {
    /// The single-rate max-min allocator.
    pub fn new() -> Self {
        SingleRate
    }
}

impl Allocator for SingleRate {
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError> {
        self.check(net, cfg)?;
        let regimes = Regimes::Uniform(SessionType::SingleRate);
        solve_in(net, cfg, &regimes, None, ws)
    }

    fn name(&self) -> &'static str {
        "single-rate"
    }

    fn signature(&self) -> String {
        "single-rate@eff".to_string()
    }
}

/// A per-session regime mix: the general solver of the paper's Section 2,
/// honouring (or overriding) each session's declared type.
#[derive(Debug, Clone)]
pub struct Hybrid {
    regimes: Regimes,
}

impl Hybrid {
    /// Solve with each session's declared type.
    pub fn as_declared() -> Self {
        Hybrid {
            regimes: Regimes::AsDeclared,
        }
    }

    /// Solve with explicit per-session types (overriding the declared `χ`).
    pub fn new(kinds: Vec<SessionType>) -> Self {
        Hybrid {
            regimes: Regimes::PerSession(kinds),
        }
    }
}

impl Default for Hybrid {
    fn default() -> Self {
        Hybrid::as_declared()
    }
}

impl Allocator for Hybrid {
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError> {
        self.check(net, cfg)?;
        solve_in(net, cfg, &self.regimes, None, ws)
    }

    fn check(&self, net: &Network, cfg: &LinkRateConfig) -> Result<(), SolveError> {
        link_rates(net, cfg)?;
        self.regimes.check(net)
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn signature(&self) -> String {
        match &self.regimes {
            Regimes::AsDeclared => "hybrid@eff|declared".to_string(),
            Regimes::Uniform(t) => format!("hybrid@eff|uniform:{t:?}"),
            Regimes::PerSession(kinds) => format!("hybrid@eff|per-session:{kinds:?}"),
        }
    }
}

/// Weighted multi-rate max-min fairness (the Section 5 TCP-fairness
/// extension): max-min over the normalized rates `a / w`.
#[derive(Debug, Clone)]
pub struct Weighted {
    /// Explicit weights, or `None` for uniform ones.
    weights: Option<Weights>,
}

impl Weighted {
    /// Explicit per-receiver weights (checked by [`Allocator::check`]).
    pub fn new(weights: Weights) -> Self {
        Weighted {
            weights: Some(weights),
        }
    }

    /// Uniform weights — reduces to the ordinary multi-rate max-min, which
    /// makes this the differential twin of [`MultiRate`] on multi-rate
    /// networks.
    pub fn uniform() -> Self {
        Weighted { weights: None }
    }
}

impl Allocator for Weighted {
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError> {
        self.check(net, cfg)?;
        let uniform = || Cow::Owned(Weights::uniform(net));
        let weights = self.weights.as_ref().map_or_else(uniform, Cow::Borrowed);
        let regimes = Regimes::Uniform(SessionType::MultiRate);
        solve_in(net, cfg, &regimes, Some(weights.values()), ws)
    }

    fn check(&self, net: &Network, cfg: &LinkRateConfig) -> Result<(), SolveError> {
        efficient_only(self.name(), net, cfg, |s| s.kind.is_multi_rate())?;
        let Some(weights) = &self.weights else {
            return Ok(());
        };
        session_count("weight table", net, weights.values().len())?;
        let fits = |(s, row): (&Session, &Vec<f64>)| {
            row.len() == s.receivers.len() && row.iter().all(|w| w.is_finite() && *w > 0.0)
        };
        match net
            .sessions()
            .iter()
            .zip(weights.values())
            .position(|p| !fits(p))
        {
            Some(session) => Err(SolveError::BadWeights { session }),
            None => Ok(()),
        }
    }

    fn supports_link_rates(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "weighted"
    }

    /// Explicit weights enter by their exact bit patterns, session by
    /// session.
    fn signature(&self) -> String {
        match &self.weights {
            None => "weighted@uniform".to_string(),
            Some(w) => {
                let sessions: Vec<Vec<u64>> = w
                    .values()
                    .iter()
                    .map(|ws| ws.iter().map(|x| x.to_bits()).collect())
                    .collect();
                format!("weighted@explicit:{sessions:?}")
            }
        }
    }
}

/// The textbook Bertsekas–Gallager unicast water-filling, kept
/// implementation-independent from the general solver as a differential
/// baseline. Defined for one-receiver sessions only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unicast;

impl Unicast {
    /// The unicast baseline allocator.
    pub fn new() -> Self {
        Unicast
    }
}

impl Allocator for Unicast {
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Result<MaxMinSolution, SolveError> {
        self.check(net, cfg)?;
        unicast_solve_in(net, ws)
    }

    fn check(&self, net: &Network, cfg: &LinkRateConfig) -> Result<(), SolveError> {
        efficient_only(self.name(), net, cfg, Session::is_unicast)
    }

    fn supports_link_rates(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "unicast"
    }

    fn signature(&self) -> String {
        "unicast@eff".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_net::topology::random_network;
    use mlf_net::{Graph, Session};

    fn tree() -> Network {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 6.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 2.0).unwrap();
        Network::new(g, vec![Session::multi_rate(n[0], vec![n[2], n[3]])]).unwrap()
    }

    #[test]
    fn regimes_pick_session_kinds() {
        let net = tree();
        let multi = MultiRate::new().allocate(&net);
        assert_eq!(multi.rates(), &[vec![4.0, 2.0]]);
        let single = SingleRate::new().allocate(&net);
        assert_eq!(single.rates(), &[vec![2.0, 2.0]]);
        let hybrid = Hybrid::new(vec![SessionType::SingleRate]).allocate(&net);
        assert_eq!(hybrid.rates(), single.rates());
        let declared = Hybrid::as_declared().allocate(&net);
        assert_eq!(declared.rates(), multi.rates());
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..10u64 {
            let net = random_network(seed, 12, 4, 4).unwrap();
            let warm = Hybrid::as_declared().solve(&net, &mut ws);
            let cold = Hybrid::as_declared().allocate(&net);
            assert_eq!(warm.allocation.rates(), cold.rates(), "seed {seed}");
        }
        assert_eq!(ws.solves(), 10);
    }

    /// Counters are exact work counts: a workspace reused across solves
    /// reports the sum of what a fresh workspace reports per solve, and
    /// the Figure-5 shape never runs a search into its step cap.
    ///
    /// The pins: rounds and cap hits are the plain bisection's (it made
    /// 39 426 load evaluations here); the rest, early exits included (the
    /// search order decides which links exit early), are the bracketed
    /// search's and the floors' own, exact, so a change in how they probe
    /// shows up here first.
    #[test]
    fn solve_counters_are_deterministic_sums() {
        use mlf_net::topology::random_network_with;
        use mlf_net::TopologyFamily;
        let mut reused = SolverWorkspace::new();
        let mut summed = SolveCounters::default();
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ] {
            for seed in 0..16u64 {
                let net = random_network_with(family, seed, 30, 8, 5).unwrap();
                let cfg = LinkRateConfig::uniform(
                    net.session_count(),
                    LinkRateModel::RandomJoin { sigma: 6.0 },
                );
                let warm = MultiRate::new().solve_with(&net, &cfg, &mut reused);
                let mut fresh = SolverWorkspace::new();
                let cold = MultiRate::new()
                    .solve_with(&net, &cfg, &mut fresh)
                    .expect("the Figure-5 shape solves");
                assert_eq!(warm, Ok(cold.clone()));
                assert_eq!(
                    fresh.counters().freeze_rounds,
                    cold.iterations as u64,
                    "one round per iteration"
                );
                summed += fresh.counters();
            }
        }
        let counters = reused.counters();
        assert_eq!(counters, summed);
        assert_eq!(
            (
                counters.freeze_rounds,
                counters.early_exits,
                counters.cap_hits
            ),
            (438, 2795, 0)
        );
        assert_eq!(
            counters,
            SolveCounters {
                freeze_rounds: 438,
                link_load_evals: 8499,
                bisection_steps: 20_368,
                early_exits: 2795,
                cap_hits: 0,
                bracket_probes: 4650,
                bracket_resolved: 273,
                links_visited: 5251,
                linear_scans: 0,
                freeze_skips: 4119,
                end_checks_skipped: 1460,
                end_loads_reused: 1369,
                probes_skipped: 2522,
                slot_refolds: 0,
            }
        );
        assert!(counters.link_load_evals <= 9300);
        assert!(
            counters.bracket_probes <= counters.bracket_resolved + 2 * counters.bisection_steps
        );
    }

    /// The round counters on the piecewise-linear sweep shapes: a 96-node
    /// transit–stub and an 85-node 4-ary tree, 8 sessions of at most 5
    /// receivers, under `Efficient`, `Scaled(2.0)` and `Sum`. The floors
    /// of clean links settle most of every round: the exact scans and the
    /// freeze-pass loads are both well below the links visited, and every
    /// visited link a round does not scan needed no scan to stay out of
    /// `min`.
    #[test]
    fn linear_round_counters_are_deterministic_sums() {
        use mlf_net::topology::random_network_with;
        use mlf_net::TopologyFamily;
        let mut reused = SolverWorkspace::new();
        let mut summed = SolveCounters::default();
        for (family, nodes) in [
            (TopologyFamily::TransitStub { transit: 4 }, 96),
            (TopologyFamily::KaryTree { arity: 4 }, 85),
        ] {
            for seed in 0..8u64 {
                let net = random_network_with(family, seed, nodes, 8, 5).unwrap();
                for model in [
                    LinkRateModel::Efficient,
                    LinkRateModel::Scaled(2.0),
                    LinkRateModel::Sum,
                ] {
                    let cfg = LinkRateConfig::uniform(net.session_count(), model);
                    let warm = MultiRate::new().solve_with(&net, &cfg, &mut reused);
                    let mut fresh = SolverWorkspace::new();
                    let cold = MultiRate::new()
                        .solve_with(&net, &cfg, &mut fresh)
                        .expect("the linear shapes solve");
                    assert_eq!(warm, Ok(cold));
                    summed += fresh.counters();
                }
            }
        }
        let counters = reused.counters();
        assert_eq!(counters, summed);
        assert_eq!(
            counters,
            SolveCounters {
                freeze_rounds: 353,
                link_load_evals: 1042,
                bisection_steps: 0,
                early_exits: 0,
                cap_hits: 0,
                bracket_probes: 0,
                bracket_resolved: 0,
                links_visited: 7179,
                linear_scans: 3844,
                freeze_skips: 4797,
                end_checks_skipped: 0,
                end_loads_reused: 0,
                probes_skipped: 0,
                slot_refolds: 2068,
            }
        );
        assert!(counters.linear_scans < counters.links_visited);
        assert!(counters.link_load_evals < counters.links_visited);
    }

    /// `solve` is `solve_with` under the efficient model, bit for bit, for
    /// every allocator on every topology family; the efficient-only
    /// regimes refuse any other model with a typed error naming the first
    /// session that has one.
    #[test]
    fn solve_is_solve_with_under_efficient_link_rates() {
        use mlf_net::topology::random_network_with;
        use mlf_net::TopologyFamily;
        let bits = |sol: &MaxMinSolution| -> Vec<u64> {
            sol.allocation.iter().map(|(_, a)| a.to_bits()).collect()
        };
        let allocators: [Box<dyn Allocator>; 5] = [
            Box::new(MultiRate::new()),
            Box::new(SingleRate::new()),
            Box::new(Hybrid::as_declared()),
            Box::new(Weighted::uniform()),
            Box::new(Unicast::new()),
        ];
        let rj = LinkRateModel::RandomJoin { sigma: 6.0 };
        let mut ws = SolverWorkspace::new();
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 3 },
            TopologyFamily::TransitStub { transit: 4 },
            TopologyFamily::Dumbbell,
        ] {
            for seed in 0..4u64 {
                for a in &allocators {
                    // The unicast baseline solves one-receiver sessions only.
                    let receivers = if a.name() == "unicast" { 1 } else { 5 };
                    let net = random_network_with(family, seed, 30, 6, receivers).unwrap();
                    let m = net.session_count();
                    let plain = a.solve(&net, &mut ws);
                    let with = a
                        .solve_with(&net, &LinkRateConfig::efficient(m), &mut ws)
                        .unwrap();
                    let label = format!("{}/{}/seed {seed}", a.name(), family.label());
                    assert_eq!(bits(&plain), bits(&with), "{label}");
                    assert_eq!(plain.reasons, with.reasons, "{label}");
                    assert_eq!(plain.iterations, with.iterations, "{label}");
                    let mixed = LinkRateConfig::efficient(m).with_session(m - 1, rj);
                    let got = a.solve_with(&net, &mixed, &mut ws);
                    if a.supports_link_rates() {
                        assert!(got.is_ok(), "{label}");
                    } else {
                        let allocator = a.name();
                        let session = m - 1;
                        let want = SolveError::UnsupportedLinkRates { allocator, session };
                        assert_eq!(got, Err(want), "{label}");
                    }
                }
            }
        }
    }

    /// The registry allocators state the identities sweeps and checkpoints
    /// already carry; explicit weights enter theirs bit for bit.
    #[test]
    fn signatures_state_every_bit_of_identity() {
        assert_eq!(MultiRate::new().signature(), "multi-rate@eff");
        assert_eq!(SingleRate::new().signature(), "single-rate@eff");
        assert_eq!(Hybrid::as_declared().signature(), "hybrid@eff|declared");
        assert_eq!(Weighted::uniform().signature(), "weighted@uniform");
        assert_eq!(Unicast::new().signature(), "unicast@eff");
        assert_eq!(
            Hybrid::new(vec![SessionType::SingleRate]).signature(),
            "hybrid@eff|per-session:[SingleRate]"
        );
        let explicit = |w: f64| Weighted::new(Weights::from_values(vec![vec![1.0, w]])).signature();
        assert_eq!(
            explicit(0.5),
            format!(
                "weighted@explicit:[[{}, {}]]",
                1.0f64.to_bits(),
                0.5f64.to_bits()
            )
        );
        assert_ne!(explicit(0.0), explicit(-0.0));
    }

    #[test]
    fn workspace_survives_shape_changes() {
        let mut ws = SolverWorkspace::new();
        let small = tree();
        let big = random_network(3, 20, 6, 5).unwrap();
        let a1 = MultiRate::new().solve(&small, &mut ws).allocation;
        let _ = MultiRate::new().solve(&big, &mut ws);
        let a2 = MultiRate::new().solve(&small, &mut ws).allocation;
        assert_eq!(a1.rates(), a2.rates());
    }

    /// Every input a regime does not define returns its typed error, from
    /// `check` and `solve_with` alike, instead of a panic.
    #[test]
    fn rejected_inputs_return_typed_errors() {
        let mut g = Graph::new();
        let n = g.add_nodes(4);
        g.add_link(n[0], n[1], 6.0).unwrap();
        g.add_link(n[1], n[2], 4.0).unwrap();
        g.add_link(n[1], n[3], 2.0).unwrap();
        let unicast = Session::unicast(n[0], n[2]);
        let multi = Session::multi_rate(n[0], vec![n[2], n[3]]);
        let single = Session::single_rate(n[0], vec![n[2], n[3]]);
        let net = Network::new(g.clone(), vec![multi, unicast.clone()]).unwrap();
        let mixed = Network::new(g, vec![single, unicast]).unwrap();
        let weighted = |w: Vec<Vec<f64>>| -> Box<dyn Allocator> {
            Box::new(Weighted::new(Weights::from_values(w)))
        };
        let second_weight = |w: f64| weighted(vec![vec![1.0, w], vec![1.0]]);
        let bad_weights = SolveError::BadWeights { session: 0 };
        let one_short = |input| SolveError::SessionCount { input, got: 1 };
        let short = LinkRateConfig::efficient(1);
        let eff = LinkRateConfig::efficient(2);
        let second_model = |m| LinkRateConfig::efficient(2).with_session(1, m);
        let sigma = |sigma| second_model(LinkRateModel::RandomJoin { sigma });
        let (half, zero, negative) = (
            second_model(LinkRateModel::Scaled(0.5)),
            sigma(0.0),
            sigma(-1.0),
        );
        let (nan, infinite) = (sigma(f64::NAN), sigma(f64::INFINITY));
        let bad_scaled = SolveError::BadLinkRate {
            session: 1,
            reason: "Scaled needs a finite redundancy factor >= 1",
        };
        let bad_sigma = SolveError::BadLinkRate {
            session: 1,
            reason: "RandomJoin needs a finite layer rate sigma > 0",
        };
        type Case<'a> = (
            &'a str,
            Box<dyn Allocator>,
            &'a Network,
            &'a LinkRateConfig,
            SolveError,
        );
        let cases: Vec<Case> = vec![
            (
                "weights one session short",
                weighted(vec![vec![1.0, 1.0]]),
                &net,
                &eff,
                one_short("weight table"),
            ),
            (
                "weights one receiver short",
                weighted(vec![vec![1.0], vec![1.0]]),
                &net,
                &eff,
                bad_weights,
            ),
            ("zero weight", second_weight(0.0), &net, &eff, bad_weights),
            (
                "NaN weight",
                second_weight(f64::NAN),
                &net,
                &eff,
                bad_weights,
            ),
            (
                "negative weight",
                second_weight(-1.0),
                &net,
                &eff,
                bad_weights,
            ),
            (
                "infinite weight",
                second_weight(f64::INFINITY),
                &net,
                &eff,
                bad_weights,
            ),
            (
                "single-rate session under Weighted",
                Box::new(Weighted::uniform()),
                &mixed,
                &eff,
                SolveError::UnsupportedSession {
                    allocator: "weighted",
                    session: 0,
                },
            ),
            (
                "link rates one short under MultiRate",
                Box::new(MultiRate::new()),
                &net,
                &short,
                one_short("link-rate config"),
            ),
            (
                "link rates one short under Weighted",
                Box::new(Weighted::uniform()),
                &net,
                &short,
                one_short("link-rate config"),
            ),
            (
                "Scaled(0.5) under MultiRate",
                Box::new(MultiRate::new()),
                &net,
                &half,
                bad_scaled,
            ),
            (
                "Scaled(0.5) under Hybrid",
                Box::new(Hybrid::as_declared()),
                &mixed,
                &half,
                bad_scaled,
            ),
            (
                "RandomJoin σ = 0 under SingleRate",
                Box::new(SingleRate::new()),
                &net,
                &zero,
                bad_sigma,
            ),
            (
                "RandomJoin σ < 0 under MultiRate",
                Box::new(MultiRate::new()),
                &net,
                &negative,
                bad_sigma,
            ),
            (
                "RandomJoin σ = NaN under Hybrid",
                Box::new(Hybrid::new(vec![SessionType::MultiRate; 2])),
                &net,
                &nan,
                bad_sigma,
            ),
            (
                "RandomJoin σ = ∞ under MultiRate",
                Box::new(MultiRate::new()),
                &net,
                &infinite,
                bad_sigma,
            ),
            (
                "regime list one short",
                Box::new(Hybrid::new(vec![SessionType::MultiRate])),
                &net,
                &eff,
                one_short("regime list"),
            ),
            (
                "Unicast on a multicast network",
                Box::new(Unicast::new()),
                &net,
                &eff,
                SolveError::UnsupportedSession {
                    allocator: "unicast",
                    session: 0,
                },
            ),
        ];
        let mut ws = SolverWorkspace::new();
        for (label, allocator, net, cfg, want) in &cases {
            assert_eq!(allocator.check(net, cfg), Err(*want), "{label}");
            assert_eq!(
                allocator.solve_with(net, cfg, &mut ws),
                Err(*want),
                "{label}"
            );
        }
        assert_eq!(ws.solves(), 0, "no input reached the filling");
        // Well-formed inputs pass the same checks.
        assert_eq!(second_weight(0.5).check(&net, &eff), Ok(()));
        assert_eq!(Weighted::uniform().check(&net, &eff), Ok(()));
        assert_eq!(MultiRate::new().check(&mixed, &eff), Ok(()));
    }

    #[test]
    fn unicast_matches_hybrid_on_unicast_networks() {
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
        let mut ws = SolverWorkspace::new();
        let bg = Unicast::new().solve(&net, &mut ws);
        assert_eq!(bg.allocation.rates(), &[vec![3.0], vec![7.0], vec![3.0]]);
        let general = Hybrid::as_declared().solve(&net, &mut ws);
        assert_eq!(bg.allocation.rates(), general.allocation.rates());
    }

    /// The parallel sweep substrate: workspaces move into worker threads,
    /// allocators are shared across them by reference.
    #[test]
    fn workspaces_are_send_and_allocators_are_shareable() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_send::<SolverWorkspace>();
        assert_sync::<dyn Allocator>();
        assert_send::<Box<dyn Allocator>>();

        // One shared allocator, one workspace per scoped thread; every
        // thread's result is bitwise identical to the serial one.
        let allocator = Hybrid::as_declared();
        let net = random_network(5, 16, 5, 4).unwrap();
        let serial = allocator.solve(&net, &mut SolverWorkspace::new());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (a, n) = (&allocator, &net);
                    scope.spawn(move || a.solve(n, &mut SolverWorkspace::new()))
                })
                .collect();
            for h in handles {
                let parallel = h.join().expect("worker");
                assert_eq!(parallel.allocation.rates(), serial.allocation.rates());
            }
        });
    }

    #[test]
    fn allocators_are_object_safe() {
        let net = tree();
        let mut ws = SolverWorkspace::new();
        let allocators: Vec<Box<dyn Allocator>> = vec![
            Box::new(MultiRate::new()),
            Box::new(SingleRate::new()),
            Box::new(Hybrid::as_declared()),
            Box::new(Weighted::uniform()),
        ];
        for a in &allocators {
            let sol = a.solve(&net, &mut ws);
            assert!(!a.name().is_empty());
            assert!(sol.allocation.min_rate() > 0.0);
        }
    }
}
