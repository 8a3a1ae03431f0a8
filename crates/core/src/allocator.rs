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
//! # Example
//!
//! ```
//! use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SolverWorkspace};
//!
//! let example = mlf_net::paper::figure2();
//! let mut ws = SolverWorkspace::new();
//!
//! // The network's declared regime mix (S1 single-rate)…
//! let declared = Hybrid::as_declared().solve(&example.network, &mut ws);
//! // …versus the all-multi-rate counterfactual, reusing the same scratch.
//! let multi = MultiRate::new().solve(&example.network, &mut ws);
//! assert!(multi.allocation.min_rate() >= declared.allocation.min_rate());
//! assert_eq!(ws.solves(), 2);
//! ```

use crate::allocation::Allocation;
use crate::linkrate::{LinkRateConfig, LinkRateModel};
use crate::maxmin::{solve_in, FreezeReason, MaxMinSolution};
use crate::unicast::unicast_solve_in;
use crate::weighted::{weighted_solve_in, Weights};
use mlf_net::{Incidence, Network, SessionType};

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
/// session → receiver incidence, built once with the [`Network`]). Each
/// solve (`SolverWorkspace::reset`) sizes, per `(link, session)` *slot*,
/// the aggregates the hot loops consume: active-receiver count,
/// frozen-rate sum, frozen-rate maximum, and (for the weighted solver) the
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
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// Per-receiver rates, `[session][receiver]`.
    pub(crate) rates: Vec<Vec<f64>>,
    /// Per-receiver active flags (still rising with the water level).
    pub(crate) active: Vec<Vec<bool>>,
    /// Per-receiver freeze diagnostics.
    pub(crate) reasons: Vec<Vec<Option<FreezeReason>>>,
    /// `(breakpoint, weight)` terms of a link's piecewise-linear load.
    pub(crate) terms: Vec<(f64, f64)>,
    /// Sorted breakpoint scan buffer.
    pub(crate) breakpoints: Vec<f64>,
    /// Per-link accumulator (bandwidth used by frozen unicast flows).
    pub(crate) link_used: Vec<f64>,
    /// Per-link flags (binding links in the unicast solver).
    pub(crate) link_flag: Vec<bool>,
    /// `(estimate, link)` of the links a round still has to bisect.
    pub(crate) pending: Vec<(f64, usize)>,
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
    /// Per-slot maximum weight among active receivers (weighted solver
    /// only; left zeroed by the unweighted engines).
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
// mlf-lint: allow(unused-pub, reason = "reachable through SolverWorkspace::counters; the ident-based usage scan cannot see type flow")
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// Progressive-filling rounds (the `iterations` of every solution).
    pub freeze_rounds: u64,
    /// Evaluations of one link's load `u_j(ℓ)` at a candidate level, by
    /// the link-freeze pass and the `RandomJoin` saturation search
    /// (bracket checks and bisection steps).
    pub link_load_evals: u64,
    /// Halving steps of the `RandomJoin` saturation bisection.
    pub bisection_steps: u64,
    /// Bisections stopped early because their lower bound already reached
    /// the round's running minimum saturation level.
    pub early_exits: u64,
    /// Bisections that used every one of their 200 steps without meeting
    /// the convergence tolerance.
    pub cap_hits: u64,
}

impl std::ops::AddAssign for SolveCounters {
    fn add_assign(&mut self, other: SolveCounters) {
        self.freeze_rounds += other.freeze_rounds;
        self.link_load_evals += other.link_load_evals;
        self.bisection_steps += other.bisection_steps;
        self.early_exits += other.early_exits;
        self.cap_hits += other.cap_hits;
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
    /// progressive-filling start state (all rates 0, everyone active).
    /// Inner buffers are reused whenever shapes repeat.
    pub(crate) fn reset(&mut self, net: &Network) {
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
        self.slot_wmax.resize(slots, 0.0);
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
        self.active_total = net.receiver_count();
        self.solves += 1;
    }

    /// Account a just-frozen receiver `(i, k)`: decrement the active
    /// counters, clear its position flags, store its `RandomJoin` miss
    /// factor `miss` (when its session has one) at every position, and
    /// recompute the frozen aggregates of every slot on the receiver's
    /// data-path by the ascending-receiver fold (see the incremental-load
    /// invariant in the type docs). The caller must have already cleared
    /// `active[i][k]` and stored the final rate in `rates[i][k]`; `inc` is
    /// the incidence of the network being solved.
    pub(crate) fn note_freeze(&mut self, inc: &Incidence, i: usize, k: usize, miss: Option<f64>) {
        debug_assert!(!self.active[i][k], "freeze bookkeeping before the flag");
        self.session_active[i] -= 1;
        self.active_total -= 1;
        let flat = inc.flat(i, k);
        for (l, &(slot, pos)) in inc.route_links(flat).iter().zip(inc.route_slots(flat)) {
            self.link_active[l.0] -= 1;
            self.pos_active[pos] = false;
            if let Some(miss) = miss {
                self.pos_miss[pos] = miss;
            }
            let mut active = 0usize;
            let mut frozen_sum = 0.0_f64;
            let mut frozen_max = 0.0_f64;
            for (p, &kk) in inc.slot_positions(slot).zip(inc.slot_receivers(slot)) {
                if self.pos_active[p] {
                    active += 1;
                } else {
                    let a = self.rates[i][kk];
                    frozen_sum += a;
                    frozen_max = frozen_max.max(a);
                }
            }
            self.slot_active[slot] = active;
            self.slot_frozen_sum[slot] = frozen_sum;
            self.slot_frozen_max[slot] = frozen_max;
        }
    }

    /// [`SolverWorkspace::note_freeze`] plus maintenance of the per-slot
    /// active-weight maximum the weighted solver reads (`slot_wmax`).
    pub(crate) fn note_freeze_weighted(
        &mut self,
        inc: &Incidence,
        i: usize,
        k: usize,
        weights: &[Vec<f64>],
    ) {
        self.note_freeze(inc, i, k, None);
        for &(slot, _) in inc.route_slots(inc.flat(i, k)) {
            let mut wmax = 0.0_f64;
            for &kk in inc.slot_receivers(slot) {
                if self.active[i][kk] {
                    wmax = wmax.max(weights[i][kk]);
                }
            }
            self.slot_wmax[slot] = wmax;
        }
    }

    /// Package the frozen state as a [`MaxMinSolution`] (the only
    /// allocations a warm solve performs are for this owned output) and
    /// count the solve's rounds.
    pub(crate) fn take_solution(&mut self, iterations: usize) -> MaxMinSolution {
        self.counters.freeze_rounds += iterations as u64;
        MaxMinSolution {
            allocation: Allocation::from_rates(self.rates.clone()),
            reasons: self
                .reasons
                .iter()
                .map(|rs| {
                    rs.iter()
                        // mlf-lint: allow(panic-unwrap, reason = "the progressive-filling loop only returns after every receiver froze; a None reason here is an allocator bug")
                        .map(|r| r.expect("every receiver froze"))
                        .collect()
                })
                .collect(),
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

    fn check(&self, net: &Network) {
        if let Regimes::PerSession(ks) = self {
            assert_eq!(
                ks.len(),
                net.session_count(),
                "per-session regime list must cover every session"
            );
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
/// `mlf-scenario`'s sweep coordinator.
pub trait Allocator: Send + Sync {
    /// Compute the regime's unique max-min fair allocation of `net`,
    /// with per-receiver freeze diagnostics.
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution;

    /// Convenience one-shot solve returning just the allocation.
    fn allocate(&self, net: &Network) -> Allocation {
        self.solve(net, &mut SolverWorkspace::new()).allocation
    }

    /// Solve under an explicit link-rate configuration, overriding any the
    /// allocator carries. Returns `None` for allocators whose regime has no
    /// link-rate parameterization ([`Weighted`] and [`Unicast`] are defined
    /// for the efficient model only) — callers that need the override, like
    /// `Scenario` model sweeps, treat `None` as a configuration error.
    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Option<MaxMinSolution> {
        let _ = (net, cfg, ws);
        None
    }

    /// Whether [`Allocator::solve_with`] honours a link-rate configuration.
    fn supports_link_rates(&self) -> bool {
        false
    }

    /// A short regime label for reports and benches.
    fn name(&self) -> &'static str {
        "allocator"
    }

    /// A stable textual identity of everything about this allocator that
    /// can change a solve's bits: the regime and any carried link-rate
    /// configuration, with float parameters spelled as exact bit patterns.
    ///
    /// Two allocators with equal signatures produce bitwise-equal
    /// solutions for the same network and link-rate inputs, which is what
    /// lets a sweep fold the allocator into its identity and ship it to a
    /// worker process by name. Return `None` when the identity is not
    /// cheaply representable (e.g. explicit per-receiver weights) — such
    /// an allocator then stays in-process rather than risk another
    /// configuration's bits.
    fn cache_signature(&self) -> Option<String> {
        None
    }
}

/// Render a [`LinkRateConfig`] for [`Allocator::cache_signature`]:
/// per-session model tags with parameters as exact `f64` bit patterns.
fn signature_of_cfg(cfg: &LinkRateConfig) -> String {
    let mut out = String::from("[");
    for i in 0..cfg.len() {
        if i > 0 {
            out.push(',');
        }
        match cfg.model(i) {
            LinkRateModel::Efficient => out.push_str("eff"),
            LinkRateModel::Sum => out.push_str("sum"),
            LinkRateModel::Scaled(v) => {
                out.push_str("scaled:");
                out.push_str(&v.to_bits().to_string());
            }
            LinkRateModel::RandomJoin { sigma } => {
                out.push_str("rj:");
                out.push_str(&sigma.to_bits().to_string());
            }
        }
    }
    out.push(']');
    out
}

/// The common shape of most regime signatures: `name` plus the carried
/// configuration (or `@eff` when the allocator solves the efficient model).
fn signature_with_cfg(name: &str, cfg: Option<&LinkRateConfig>) -> String {
    match cfg {
        None => format!("{name}@eff"),
        Some(c) => format!("{name}@{}", signature_of_cfg(c)),
    }
}

fn solve_regime(
    net: &Network,
    cfg: Option<&LinkRateConfig>,
    regimes: &Regimes,
    ws: &mut SolverWorkspace,
) -> MaxMinSolution {
    regimes.check(net);
    match cfg {
        Some(cfg) => solve_in(net, cfg, regimes, ws),
        None => solve_in(
            net,
            &LinkRateConfig::efficient(net.session_count()),
            regimes,
            ws,
        ),
    }
}

/// Every session treated as multi-rate (Theorem 1's setting).
#[derive(Debug, Clone, Default)]
pub struct MultiRate {
    cfg: Option<LinkRateConfig>,
}

impl MultiRate {
    /// Multi-rate max-min under the efficient link-rate model.
    pub fn new() -> Self {
        MultiRate { cfg: None }
    }

    /// Multi-rate max-min under explicit per-session link-rate models.
    pub fn with_config(cfg: LinkRateConfig) -> Self {
        MultiRate { cfg: Some(cfg) }
    }
}

impl Allocator for MultiRate {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        solve_regime(
            net,
            self.cfg.as_ref(),
            &Regimes::Uniform(SessionType::MultiRate),
            ws,
        )
    }

    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Option<MaxMinSolution> {
        Some(solve_regime(
            net,
            Some(cfg),
            &Regimes::Uniform(SessionType::MultiRate),
            ws,
        ))
    }

    fn supports_link_rates(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "multi-rate"
    }

    fn cache_signature(&self) -> Option<String> {
        Some(signature_with_cfg("multi-rate", self.cfg.as_ref()))
    }
}

/// Every session treated as single-rate (the Tzeng–Siu setting).
#[derive(Debug, Clone, Default)]
pub struct SingleRate {
    cfg: Option<LinkRateConfig>,
}

impl SingleRate {
    /// Single-rate max-min under the efficient link-rate model.
    pub fn new() -> Self {
        SingleRate { cfg: None }
    }

    /// Single-rate max-min under explicit per-session link-rate models.
    pub fn with_config(cfg: LinkRateConfig) -> Self {
        SingleRate { cfg: Some(cfg) }
    }
}

impl Allocator for SingleRate {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        solve_regime(
            net,
            self.cfg.as_ref(),
            &Regimes::Uniform(SessionType::SingleRate),
            ws,
        )
    }

    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Option<MaxMinSolution> {
        Some(solve_regime(
            net,
            Some(cfg),
            &Regimes::Uniform(SessionType::SingleRate),
            ws,
        ))
    }

    fn supports_link_rates(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "single-rate"
    }

    fn cache_signature(&self) -> Option<String> {
        Some(signature_with_cfg("single-rate", self.cfg.as_ref()))
    }
}

/// A per-session regime mix: the general solver of the paper's Section 2,
/// honouring (or overriding) each session's declared type.
#[derive(Debug, Clone)]
pub struct Hybrid {
    regimes: Regimes,
    cfg: Option<LinkRateConfig>,
}

impl Hybrid {
    /// Solve with each session's declared type and efficient link rates.
    pub fn as_declared() -> Self {
        Hybrid {
            regimes: Regimes::AsDeclared,
            cfg: None,
        }
    }

    /// Solve with explicit per-session types (overriding the declared `χ`).
    pub fn new(kinds: Vec<SessionType>) -> Self {
        Hybrid {
            regimes: Regimes::PerSession(kinds),
            cfg: None,
        }
    }

    /// Use explicit per-session link-rate models (the Section 3 setting).
    pub fn with_config(mut self, cfg: LinkRateConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }
}

impl Default for Hybrid {
    fn default() -> Self {
        Hybrid::as_declared()
    }
}

impl Allocator for Hybrid {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        solve_regime(net, self.cfg.as_ref(), &self.regimes, ws)
    }

    fn solve_with(
        &self,
        net: &Network,
        cfg: &LinkRateConfig,
        ws: &mut SolverWorkspace,
    ) -> Option<MaxMinSolution> {
        Some(solve_regime(net, Some(cfg), &self.regimes, ws))
    }

    fn supports_link_rates(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn cache_signature(&self) -> Option<String> {
        let regimes = match &self.regimes {
            Regimes::AsDeclared => "declared".to_string(),
            Regimes::Uniform(t) => format!("uniform:{t:?}"),
            Regimes::PerSession(kinds) => format!("per-session:{kinds:?}"),
        };
        Some(format!(
            "{}|{}",
            signature_with_cfg("hybrid", self.cfg.as_ref()),
            regimes
        ))
    }
}

/// Weighted multi-rate max-min fairness (the Section 5 TCP-fairness
/// extension): max-min over the normalized rates `a / w`.
#[derive(Debug, Clone)]
pub struct Weighted {
    weights: WeightSpec,
}

#[derive(Debug, Clone)]
enum WeightSpec {
    Uniform,
    Explicit(Weights),
}

impl Weighted {
    /// Explicit per-receiver weights (shape-checked at solve time).
    pub fn new(weights: Weights) -> Self {
        Weighted {
            weights: WeightSpec::Explicit(weights),
        }
    }

    /// Uniform weights — reduces to the ordinary multi-rate max-min, which
    /// makes this the differential twin of [`MultiRate`] on multi-rate
    /// networks.
    pub fn uniform() -> Self {
        Weighted {
            weights: WeightSpec::Uniform,
        }
    }

    /// TCP-style weights from per-receiver round-trip times (`w = 1/RTT`).
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn from_rtts(rtts: Vec<Vec<f64>>) -> Self {
        Weighted::new(Weights::from_rtts(rtts))
    }
}

impl Allocator for Weighted {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        match &self.weights {
            WeightSpec::Uniform => weighted_solve_in(net, &Weights::uniform(net), ws),
            WeightSpec::Explicit(w) => weighted_solve_in(net, w, ws),
        }
    }

    fn name(&self) -> &'static str {
        "weighted"
    }

    /// Uniform weights have a stable identity; explicit per-receiver
    /// weights are deliberately unrepresentable (`None`), so they stay
    /// in-process rather than fingerprint a large float matrix.
    fn cache_signature(&self) -> Option<String> {
        match &self.weights {
            WeightSpec::Uniform => Some("weighted@uniform".to_string()),
            WeightSpec::Explicit(_) => None,
        }
    }
}

/// The textbook Bertsekas–Gallager unicast water-filling, kept
/// implementation-independent from the general solver as a differential
/// baseline. Panics (as the legacy free function did) if any session has
/// more than one receiver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unicast;

impl Unicast {
    /// The unicast baseline allocator.
    pub fn new() -> Self {
        Unicast
    }
}

impl Allocator for Unicast {
    fn solve(&self, net: &Network, ws: &mut SolverWorkspace) -> MaxMinSolution {
        unicast_solve_in(net, ws)
    }

    fn name(&self) -> &'static str {
        "unicast"
    }

    fn cache_signature(&self) -> Option<String> {
        Some("unicast@eff".to_string())
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
    /// the Figure-5 shape never runs a bisection into its step cap.
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
                let allocator = MultiRate::with_config(cfg);
                let warm = allocator.solve(&net, &mut reused);
                let mut fresh = SolverWorkspace::new();
                let cold = allocator.solve(&net, &mut fresh);
                assert_eq!(warm, cold);
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
        assert_eq!(counters.cap_hits, 0);
        assert!(counters.bisection_steps > 0 && counters.early_exits > 0);
        assert!(counters.link_load_evals > counters.bisection_steps);
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

    #[test]
    fn weighted_uniform_matches_multi_rate() {
        let mut ws = SolverWorkspace::new();
        for seed in 0..10u64 {
            let net = random_network(seed, 10, 4, 4).unwrap();
            let w = Weighted::uniform().solve(&net, &mut ws).allocation;
            let m = MultiRate::new().solve(&net, &mut ws).allocation;
            for (a, b) in w.rates().iter().flatten().zip(m.rates().iter().flatten()) {
                assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
            }
        }
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
