//! # mlf-scenario — declarative experiment composition
//!
//! Every figure of the paper — and every experiment this workspace has
//! grown beyond it — composes the same five ingredients: a topology (from
//! `mlf-net`), a session link-rate model (`LinkRateConfig`), an allocation
//! regime (an `mlf-core` [`Allocator`]), optionally a layer ladder (from
//! `mlf-layering`), and metric/property reporting. Before this crate, each
//! figure binary, example, and test hand-wired those pieces; a [`Scenario`]
//! declares them once and offers [`Scenario::run`] for a single solve and
//! [`Scenario::sweep`]/[`Scenario::sweep_grid`] for parameter grids.
//!
//! A scenario owns one [`SolverWorkspace`], so a sweep's repeated solves
//! reuse scratch buffers instead of re-allocating per call — the hot-path
//! win the Figure 5/8 sweeps need. A grid sweep loops over seeds first:
//! each seeded topology is built once and solved under every grid model
//! before the next seed's is built, so model grids share topology builds
//! without any memo.
//!
//! ## One parallel engine
//!
//! Every parallel sweep runs on the [`coordinator`]:
//! [`Scenario::coordinate`] / [`Scenario::coordinate_grid`] for allocator
//! sweeps and [`ProtocolScenario::coordinate`] for the Figure 8 protocol
//! comparisons ([`ProtocolSweepGrid`]). [`CoordinatorConfig::threads`] is
//! a plain thread sweep; the same engine also runs hash-verified,
//! spot-checked, checkpointed sweeps on thread or process fleets. Each
//! worker owns its scratch (a [`SolverWorkspace`]), and records merge
//! back in job order, so the coordinated output is **bitwise identical**
//! to the serial sweep on any fleet.
//!
//! ## Topology families
//!
//! Random sweeps draw their topologies from a [`TopologyFamily`]:
//! [`ScenarioBuilder::random_networks`] uses the flat random-attachment
//! tree, and [`ScenarioBuilder::random_networks_with`] selects any family —
//! balanced k-ary trees, GT-ITM-style transit–stub hierarchies, or dumbbell
//! meshes — so sweeps cover structurally diverse networks instead of one
//! tree shape. Degenerate requests (one node, zero sessions) are rejected
//! at [`ScenarioBuilder::build`] time via [`ScenarioError::Topology`]
//! rather than silently rewritten.
//!
//! ## Example
//!
//! ```
//! use mlf_core::allocator::MultiRate;
//! use mlf_net::{Graph, Network, Session};
//! use mlf_scenario::Scenario;
//!
//! // One layered video session against a competing unicast.
//! let mut g = Graph::new();
//! let (src, hub) = (g.add_node(), g.add_node());
//! let (a, b) = (g.add_node(), g.add_node());
//! g.add_link(src, hub, 10.0).unwrap();
//! g.add_link(hub, a, 2.0).unwrap();
//! g.add_link(hub, b, 6.0).unwrap();
//! let net = Network::new(g, vec![
//!     Session::multi_rate(src, vec![a, b]),
//!     Session::unicast(src, b),
//! ]).unwrap();
//!
//! let mut scenario = Scenario::builder()
//!     .label("quickstart")
//!     .network(net)
//!     .allocator(MultiRate::new())
//!     .build()
//!     .unwrap();
//! let report = scenario.run();
//! assert_eq!(report.solution.allocation.rates(), &[vec![2.0, 3.0], vec![3.0]]);
//! assert!(report.fairness.unwrap().all_hold()); // Theorem 1
//! ```
//!
//! Sweeps over random topologies are deterministic in their seeds, and a
//! thread sweep reproduces the serial points exactly:
//!
//! ```
//! use mlf_net::TopologyFamily;
//! use mlf_scenario::{CoordinatorConfig, Scenario};
//!
//! let mut s = Scenario::builder()
//!     .random_networks_with(TopologyFamily::TransitStub { transit: 3 }, 12, 4, 4)
//!     .build()
//!     .unwrap();
//! let once = s.sweep(0..8);
//! let again = s.sweep(0..8);
//! assert_eq!(once.points, again.points);
//! let parallel = s.coordinate(0..8, &CoordinatorConfig::threads(4)).unwrap();
//! assert_eq!(once.points, parallel.report.points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
mod hash;
mod point;
pub mod protocol;
mod record;
mod supervisor;
pub mod transport;

pub use checkpoint::CheckpointError;
pub use coordinator::{
    CoordinatorConfig, CoordinatorError, CoordinatorReport, CoordinatorStats, FaultEvent,
    FaultKind, FaultPlan, ProcessConfig, TransportKind,
};
pub use protocol::ProtocolScenarioError;
pub use protocol::{
    ProtocolScenario, ProtocolScenarioBuilder, ProtocolSweepGrid, ProtocolSweepPoint,
    ProtocolSweepReport,
};
pub use transport::TransportError;

use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{
    metrics, properties, FairnessReport, LinkRateConfig, LinkRateModel, MaxMinSolution, SolveError,
};
use mlf_layering::LayerSchedule;
use mlf_net::topology::random_network_with;
use mlf_net::{Network, ReceiverId, TopologyError, TopologyFamily};
use std::borrow::Cow;

/// Where a scenario's networks come from.
#[derive(Debug, Clone)]
pub(crate) enum NetworkSource {
    /// One fixed network (e.g. a paper figure).
    Fixed(Box<Network>),
    /// A `mlf_net::topology` random family, one network per sweep seed.
    Random {
        /// The structural family the topologies are drawn from.
        family: TopologyFamily,
        /// Number of nodes in the random graph.
        nodes: usize,
        /// Number of multicast sessions.
        sessions: usize,
        /// Maximum receivers per session.
        max_receivers: usize,
    },
}

/// How the per-session link-rate models are chosen.
#[derive(Debug, Clone, Default)]
pub enum LinkRates {
    /// Every session efficient (`v = max`, the Section 2 assumption).
    #[default]
    Efficient,
    /// The same model for every session.
    Uniform(LinkRateModel),
    /// An explicit per-session configuration (fixed networks only; its
    /// length must match the network's session count).
    Explicit(LinkRateConfig),
}

impl LinkRates {
    /// Check every configured model (see [`LinkRateModel::validate`]).
    fn validate(&self) -> Result<(), ScenarioError> {
        let invalid =
            |session| move |reason| ScenarioError::InvalidLinkRateModel { session, reason };
        match self {
            LinkRates::Efficient => Ok(()),
            LinkRates::Uniform(m) => m.validate().map_err(invalid(None)),
            LinkRates::Explicit(cfg) => {
                (0..cfg.len()).try_for_each(|i| cfg.model(i).validate().map_err(invalid(Some(i))))
            }
        }
    }

    fn resolve(&self, session_count: usize) -> LinkRateConfig {
        match self {
            LinkRates::Efficient => LinkRateConfig::efficient(session_count),
            LinkRates::Uniform(m) => LinkRateConfig::uniform(session_count, *m),
            LinkRates::Explicit(cfg) => cfg.clone(),
        }
    }
}

/// Why a [`ScenarioBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Neither [`ScenarioBuilder::network`] nor
    /// [`ScenarioBuilder::random_networks`] was called.
    MissingNetwork,
    /// An explicit [`LinkRateConfig`] does not cover the fixed network's
    /// sessions.
    ConfigShape {
        /// Sessions in the network.
        expected: usize,
        /// Models in the config.
        got: usize,
    },
    /// An explicit [`LinkRateConfig`] cannot parameterize a random-network
    /// sweep (session counts are not fixed); use `Efficient` or `Uniform`.
    ExplicitConfigOnRandom,
    /// Non-efficient link rates were configured for an allocator whose
    /// regime has no link-rate parameterization (`Weighted`, `Unicast`).
    AllocatorIgnoresLinkRates,
    /// A random-network source was configured with parameters its topology
    /// family rejects (too few nodes, zero sessions, zero receivers, …).
    /// Earlier versions silently clamped these into a different experiment.
    Topology(TopologyError),
    /// A configured link-rate model has a parameter outside its domain
    /// (see [`LinkRateModel::validate`]).
    InvalidLinkRateModel {
        /// The session whose model is invalid (`None` for a model every
        /// session shares: a [`LinkRates::Uniform`] or [`SweepGrid`] model).
        session: Option<usize>,
        /// What is wrong with the parameter.
        reason: &'static str,
    },
    /// The allocator rejects the fixed network under the scenario's link
    /// rates (see [`Allocator::check`]): weights of the wrong shape or
    /// outside `(0, ∞)`, or a session its regime does not define.
    Solve(SolveError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingNetwork => {
                write!(
                    f,
                    "scenario needs a network source (network(..) or random_networks(..))"
                )
            }
            ScenarioError::ConfigShape { expected, got } => write!(
                f,
                "link-rate config covers {got} sessions but the network has {expected}"
            ),
            ScenarioError::ExplicitConfigOnRandom => write!(
                f,
                "explicit link-rate configs don't compose with random-network sweeps; \
                 use LinkRates::Efficient or LinkRates::Uniform"
            ),
            ScenarioError::AllocatorIgnoresLinkRates => write!(
                f,
                "this allocator has no link-rate parameterization; configure link \
                 rates with MultiRate, SingleRate, or Hybrid"
            ),
            ScenarioError::Topology(e) => write!(f, "bad random-network source: {e}"),
            ScenarioError::InvalidLinkRateModel { session, reason } => match session {
                Some(i) => write!(f, "invalid link-rate model for session {i}: {reason}"),
                None => write!(f, "invalid link-rate model: {reason}"),
            },
            ScenarioError::Solve(e) => write!(f, "the allocator rejects the network: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

/// Builder for [`Scenario`]. Obtain via [`Scenario::builder`].
pub struct ScenarioBuilder {
    label: String,
    source: Option<NetworkSource>,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            label: "scenario".to_string(),
            source: None,
            link_rates: LinkRates::Efficient,
            allocator: Box::new(Hybrid::as_declared()),
            layering: None,
            check_properties: true,
        }
    }
}

impl ScenarioBuilder {
    /// Name the scenario (shows up in reports).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Solve this fixed network.
    pub fn network(mut self, net: Network) -> Self {
        self.source = Some(NetworkSource::Fixed(Box::new(net)));
        self
    }

    /// Sweep over flat random-tree topologies
    /// (`random_network(seed, nodes, sessions, max_receivers)`), one per
    /// seed. Shorthand for [`ScenarioBuilder::random_networks_with`] with
    /// [`TopologyFamily::FlatTree`].
    pub fn random_networks(self, nodes: usize, sessions: usize, max_receivers: usize) -> Self {
        self.random_networks_with(TopologyFamily::FlatTree, nodes, sessions, max_receivers)
    }

    /// Sweep over random topologies of an explicit [`TopologyFamily`]
    /// (balanced k-ary trees, transit–stub hierarchies, dumbbell meshes, …),
    /// one network per seed. Parameters the family cannot realize are
    /// rejected at [`ScenarioBuilder::build`] time.
    pub fn random_networks_with(
        mut self,
        family: TopologyFamily,
        nodes: usize,
        sessions: usize,
        max_receivers: usize,
    ) -> Self {
        self.source = Some(NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        });
        self
    }

    /// Choose the link-rate models (default: every session efficient).
    pub fn link_rates(mut self, rates: LinkRates) -> Self {
        self.link_rates = rates;
        self
    }

    /// Choose the allocation regime (default:
    /// [`Hybrid::as_declared`] — each session's declared type).
    pub fn allocator(mut self, allocator: impl Allocator + 'static) -> Self {
        self.allocator = Box::new(allocator);
        self
    }

    /// Quantize fair rates onto a layer ladder and report the fit.
    pub fn layering(mut self, schedule: LayerSchedule) -> Self {
        self.layering = Some(schedule);
        self
    }

    /// Audit the four Section 2 fairness properties on every run
    /// (default: on).
    pub fn check_properties(mut self, check: bool) -> Self {
        self.check_properties = check;
        self
    }

    /// Validate and assemble the scenario. A fixed network must also pass
    /// the allocator's [`Allocator::check`] under the scenario's link rates.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let source = self.source.ok_or(ScenarioError::MissingNetwork)?;
        if !matches!(self.link_rates, LinkRates::Efficient) && !self.allocator.supports_link_rates()
        {
            return Err(ScenarioError::AllocatorIgnoresLinkRates);
        }
        self.link_rates.validate()?;
        if let NetworkSource::Random {
            family,
            nodes,
            sessions,
            max_receivers,
        } = &source
        {
            // The same validation random_network_with performs, surfaced at
            // build time so sweeps never panic mid-run on a bad request.
            family
                .validate_request(*nodes, *sessions, *max_receivers)
                .map_err(ScenarioError::Topology)?;
        }
        if let LinkRates::Explicit(cfg) = &self.link_rates {
            match &source {
                NetworkSource::Fixed(net) => {
                    if cfg.len() != net.session_count() {
                        return Err(ScenarioError::ConfigShape {
                            expected: net.session_count(),
                            got: cfg.len(),
                        });
                    }
                }
                NetworkSource::Random { .. } => {
                    return Err(ScenarioError::ExplicitConfigOnRandom);
                }
            }
        }
        if let NetworkSource::Fixed(net) = &source {
            let cfg = self.link_rates.resolve(net.session_count());
            self.allocator
                .check(net, &cfg)
                .map_err(ScenarioError::Solve)?;
        }
        Ok(Scenario {
            label: self.label,
            source,
            link_rates: self.link_rates,
            allocator: self.allocator,
            layering: self.layering,
            check_properties: self.check_properties,
            ws: SolverWorkspace::new(),
        })
    }
}

/// A declarative experiment: topology × link-rate model × allocation regime
/// × (optional) layering × reporting, with solver scratch reused across
/// every run it performs.
pub struct Scenario {
    label: String,
    source: NetworkSource,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
    ws: SolverWorkspace,
}

impl Scenario {
    /// Start building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The scenario's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The fixed network, when the source is fixed.
    pub fn network(&self) -> Option<&Network> {
        match &self.source {
            NetworkSource::Fixed(net) => Some(&**net),
            NetworkSource::Random { .. } => None,
        }
    }

    /// How many solves this scenario's workspace has served.
    pub fn solves(&self) -> u64 {
        self.ws.solves()
    }

    /// Solve the scenario once (seed 0 for random sources).
    ///
    /// # Panics
    ///
    /// On a solve that fails: one that stalls
    /// ([`mlf_core::SolveError::Stalled`]), or, for a random source, a
    /// drawn network the allocator's [`Allocator::check`] rejects (such as
    /// explicit weights that do not fit it).
    pub fn run(&mut self) -> ScenarioReport {
        // Detach the owned workspace so the shared solve path can borrow
        // `self` immutably (the same path coordinator workers use).
        let mut ws = std::mem::take(&mut self.ws);
        let report = self.report(&mut ws);
        self.ws = ws;
        report
    }

    /// The full report of seed 0: the sweep point's solve and audit, plus
    /// what only a single run keeps (the label, the solution and the
    /// layer fits).
    fn report(&self, ws: &mut SolverWorkspace) -> ScenarioReport {
        let net = self.network_for(0);
        let (solution, fairness) = self.solve_and_audit(&net, None, ws);
        let layering = self
            .layering
            .as_ref()
            .map(|s| LayeringSummary::new(s, &net, &solution));
        ScenarioReport {
            label: self.label.clone(),
            seed: 0,
            metrics: ScenarioMetrics::measure(&net, &solution),
            solution,
            fairness,
            layering,
        }
    }

    /// The network of `seed`: a fixed source's own, or a random source's
    /// seeded topology, built here.
    fn network_for(&self, seed: u64) -> Cow<'_, Network> {
        match &self.source {
            NetworkSource::Fixed(net) => Cow::Borrowed(net),
            NetworkSource::Random {
                family,
                nodes,
                sessions,
                max_receivers,
            } => Cow::Owned(
                random_network_with(*family, seed, *nodes, *sessions, *max_receivers)
                    // mlf-lint: allow(panic-unwrap, reason = "ScenarioBuilder::build already rejected invalid random-source parameters, so regeneration cannot fail")
                    .expect("random-source parameters were validated at build time"),
            ),
        }
    }

    /// One sweep point against an explicit, already-built network: the
    /// solve path shared by serial grid sweeps (one network per seed,
    /// reused across the grid's models) and coordinator workers (their
    /// own workspace). The two agree bitwise because a solve's result
    /// depends neither on workspace history nor on which build of a seed's
    /// network it reads.
    fn point_for(
        &self,
        net: &Network,
        seed: u64,
        model: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
    ) -> SweepPoint {
        let (solution, fairness) = self.solve_and_audit(net, model, ws);
        SweepPoint {
            seed,
            model,
            metrics: ScenarioMetrics::measure(net, &solution),
            properties_holding: fairness.as_ref().map(FairnessReport::count_holding),
        }
    }

    /// Solve `net` under the scenario's link rates (or the uniform
    /// `model_override`), and audit the solution unless disabled.
    fn solve_and_audit(
        &self,
        net: &Network,
        model_override: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
    ) -> (MaxMinSolution, Option<FairnessReport>) {
        let cfg = match model_override {
            Some(m) => LinkRateConfig::uniform(net.session_count(), m),
            None => self.link_rates.resolve(net.session_count()),
        };
        // One config for the solve and the audit: the properties hold, or
        // fail, relative to the link-rate model the allocation was solved
        // under.
        let solution = self
            .allocator
            .solve_with(net, &cfg, ws)
            // mlf-lint: allow(panic-unwrap, reason = "build() and validate_grid() reject link rates the allocator cannot solve, and build() every fixed network its check rejects; the rest is the documented `# Panics` of run() and sweep_grid()")
            .unwrap_or_else(|e| panic!("{e}"));
        let fairness = self
            .check_properties
            .then(|| properties::check_all(net, &cfg, &solution.allocation));
        (solution, fairness)
    }

    /// Run one solve per seed, reusing the workspace throughout. The
    /// result is a pure function of the seeds (and the scenario spec): two
    /// sweeps with equal seeds produce equal points.
    pub fn sweep<I: IntoIterator<Item = u64>>(&mut self, seeds: I) -> SweepReport {
        self.sweep_grid(&SweepGrid::seeds(seeds))
    }

    /// Run the full `seeds × models` grid (the Figure 4/5/6 pattern:
    /// the same topologies under different redundancy models).
    ///
    /// # Panics
    ///
    /// On a grid that [`Scenario::validate_grid`] rejects, with that
    /// error's message: link-rate models on an allocator without a
    /// link-rate parameterization
    /// ([`ScenarioError::AllocatorIgnoresLinkRates`]), or a model outside
    /// its domain ([`ScenarioError::InvalidLinkRateModel`]). Also on a
    /// solve that fails, as [`Scenario::run`] does.
    ///
    /// The sweep runs inline on one workspace with seeds in the outer
    /// loop: each seeded topology is built once, solved under every grid
    /// model, and dropped before the next seed's is built. The points come
    /// back in the canonical models-major order of the coordinated grid
    /// sweep.
    pub fn sweep_grid(&mut self, grid: &SweepGrid) -> SweepReport {
        if let Err(e) = self.validate_grid(grid) {
            // mlf-lint: allow(panic-unwrap, reason = "the documented `# Panics` contract of the infallible sweep_grid; validate_grid and coordinate_grid are the typed alternatives")
            panic!("{e}");
        }
        // Detach the owned workspace so the shared solve path can borrow
        // `self` immutably (the same path coordinator workers use).
        let mut ws = std::mem::take(&mut self.ws);
        let models: Vec<Option<LinkRateModel>> = if grid.models.is_empty() {
            vec![None]
        } else {
            grid.models.iter().copied().map(Some).collect()
        };
        let mut per_model: Vec<Vec<SweepPoint>> = models
            .iter()
            .map(|_| Vec::with_capacity(grid.seeds.len()))
            .collect();
        for &seed in &grid.seeds {
            let net = self.network_for(seed);
            for (points, &model) in per_model.iter_mut().zip(&models) {
                points.push(self.point_for(&net, seed, model, &mut ws));
            }
        }
        self.ws = ws;
        let points: Vec<SweepPoint> = per_model.into_iter().flatten().collect();
        SweepReport {
            label: self.label.clone(),
            cache: CacheStats::per_point(&self.source, points.len(), grid.seeds.len()),
            points,
        }
    }

    /// The canonical job order of a grid — models-major, then seeds. The
    /// coordinated grid sweep runs these jobs; the serial grid sweep emits
    /// its points in the same order.
    fn grid_jobs(grid: &SweepGrid) -> Vec<(Option<LinkRateModel>, u64)> {
        let mut jobs = Vec::with_capacity(grid.seeds.len() * grid.models.len().max(1));
        if grid.models.is_empty() {
            jobs.extend(grid.seeds.iter().map(|&s| (None, s)));
        } else {
            for &model in &grid.models {
                jobs.extend(grid.seeds.iter().map(|&s| (Some(model), s)));
            }
        }
        jobs
    }

    /// Check a grid against this scenario once, before any point runs:
    /// grid models need an allocator with a link-rate parameterization,
    /// and each model must pass [`LinkRateModel::validate`]. The typed
    /// form of the check [`Scenario::sweep_grid`] panics on and
    /// [`Scenario::coordinate_grid`] returns as [`CoordinatorError::Grid`].
    pub fn validate_grid(&self, grid: &SweepGrid) -> Result<(), ScenarioError> {
        if !grid.models.is_empty() && !self.allocator.supports_link_rates() {
            return Err(ScenarioError::AllocatorIgnoresLinkRates);
        }
        grid.models.iter().try_for_each(|m| {
            m.validate()
                .map_err(|reason| ScenarioError::InvalidLinkRateModel {
                    session: None,
                    reason,
                })
        })
    }
}

/// A parameter grid for [`Scenario::sweep_grid`]: topology seeds crossed
/// with uniform link-rate models (empty `models` = use the scenario's own).
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// Topology seeds (one network per seed for random sources).
    pub seeds: Vec<u64>,
    /// Uniform link-rate models to apply, each across the whole grid.
    pub models: Vec<LinkRateModel>,
}

impl SweepGrid {
    /// A seeds-only grid.
    pub fn seeds(seeds: impl IntoIterator<Item = u64>) -> Self {
        SweepGrid {
            seeds: seeds.into_iter().collect(),
            models: Vec::new(),
        }
    }

    /// Cross the grid with uniform link-rate models.
    pub fn with_models(mut self, models: impl IntoIterator<Item = LinkRateModel>) -> Self {
        self.models = models.into_iter().collect();
        self
    }
}

/// Scalar metrics of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Jain's fairness index of the receiver rates.
    pub jain_index: f64,
    /// The smallest receiver rate.
    pub min_rate: f64,
    /// Sum of receiver rates.
    pub total_rate: f64,
    /// Mean satisfaction (rate / isolated rate) across receivers.
    pub satisfaction: f64,
    /// Water-filling iterations the solve performed.
    pub iterations: usize,
}

impl ScenarioMetrics {
    fn measure(net: &Network, solution: &MaxMinSolution) -> Self {
        ScenarioMetrics {
            jain_index: metrics::jain_index(&solution.allocation),
            min_rate: solution.allocation.min_rate(),
            total_rate: solution.allocation.total_rate(),
            satisfaction: metrics::satisfaction(net, &solution.allocation),
            iterations: solution.iterations,
        }
    }
}

/// How one receiver's fair rate fits the scenario's layer ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFit {
    /// The receiver.
    pub receiver: ReceiverId,
    /// Its max-min fair rate.
    pub fair_rate: f64,
    /// The deepest layer prefix whose cumulative rate fits under the fair
    /// rate.
    pub level: usize,
    /// That prefix's cumulative rate.
    pub fixed_rate: f64,
    /// The fraction of the fair rate the fixed prefix leaves on the table
    /// (recoverable by quantum join/leave scheduling).
    pub deficit: f64,
}

/// The layering report of one run: per-receiver ladder fits.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeringSummary {
    /// Per-receiver fits, session-major.
    pub fits: Vec<LayerFit>,
}

impl LayeringSummary {
    fn new(schedule: &LayerSchedule, net: &Network, solution: &MaxMinSolution) -> Self {
        let fits = net
            .receivers()
            .map(|r| {
                let fair = solution.allocation.rate(r);
                let level = schedule.level_for_rate(fair);
                let fixed = schedule.cumulative_rate(level);
                LayerFit {
                    receiver: r,
                    fair_rate: fair,
                    level,
                    fixed_rate: fixed,
                    deficit: (fair - fixed) / fair.max(1e-12),
                }
            })
            .collect();
        LayeringSummary { fits }
    }
}

/// Everything one [`Scenario::run`] produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The scenario's label.
    pub label: String,
    /// The topology seed this run used (0 for fixed networks' `run()`).
    pub seed: u64,
    /// The full solver output (allocation + freeze diagnostics).
    pub solution: MaxMinSolution,
    /// The Section 2 property audit, unless disabled.
    pub fairness: Option<FairnessReport>,
    /// Scalar metrics.
    pub metrics: ScenarioMetrics,
    /// Ladder fits, when a layering schedule was configured.
    pub layering: Option<LayeringSummary>,
}

/// One point of a sweep, compressed to comparable scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The topology seed.
    pub seed: u64,
    /// The uniform link-rate model applied, for grid sweeps.
    pub model: Option<LinkRateModel>,
    /// Scalar metrics of the solve.
    pub metrics: ScenarioMetrics,
    /// How many of the four fairness properties held (when audited).
    pub properties_holding: Option<usize>,
}

/// Topology-reuse counters of one sweep, per point.
///
/// Kept only because the benchmark harness reads them; delete them with
/// the next change to the benchmark. `hits + misses` is the point count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Points solved on a network the sweep already had: a later model of
    /// the same seed, or any point of a fixed source.
    pub hits: u64,
    /// Points whose topology was built for that point.
    pub misses: u64,
    /// Always 0.
    pub evictions: u64,
}

impl CacheStats {
    /// The counters of `points` points of `source` that asked for
    /// `networks` seeded networks: a random source builds each one (a
    /// miss), and every other point reuses one (a hit).
    fn per_point(source: &NetworkSource, points: usize, networks: usize) -> Self {
        let builds = match source {
            NetworkSource::Fixed(_) => 0,
            NetworkSource::Random { .. } => networks,
        };
        CacheStats {
            hits: (points - builds) as u64,
            misses: builds as u64,
            evictions: 0,
        }
    }

    /// Accumulate another sweep's counters.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// The outcome of a sweep: one [`SweepPoint`] per (seed, model) pair.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The scenario's label.
    pub label: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// This sweep's topology-reuse counters (see [`CacheStats`]).
    pub cache: CacheStats,
}

/// Equality compares the **output** — label and points — and ignores
/// [`SweepReport::cache`]: a serial grid sweep shares each seed's topology
/// across the grid's models, while a coordinated one builds a topology
/// per job, yet both produce the same points bitwise. This is what lets
/// the serial/parallel differential suites assert `serial == parallel`.
impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label && self.points == other.points
    }
}

impl SweepReport {
    /// Mean of a per-point metric.
    pub fn mean_of(&self, f: impl Fn(&SweepPoint) -> f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(f).sum::<f64>() / self.points.len() as f64
    }

    /// Mean Jain index across points.
    pub fn mean_jain(&self) -> f64 {
        self.mean_of(|p| p.metrics.jain_index)
    }

    /// Mean minimum rate across points.
    pub fn mean_min_rate(&self) -> f64 {
        self.mean_of(|p| p.metrics.min_rate)
    }

    /// Fraction of points where all four properties held.
    pub fn all_properties_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points
            .iter()
            .filter(|p| p.properties_holding == Some(4))
            .count() as f64
            / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlf_core::allocator::{MultiRate, SingleRate, Weighted};
    use mlf_net::{Graph, Session};

    fn two_branch_network() -> Network {
        let mut g = Graph::new();
        let (src, hub) = (g.add_node(), g.add_node());
        let (a, b) = (g.add_node(), g.add_node());
        g.add_link(src, hub, 10.0).unwrap();
        g.add_link(hub, a, 2.0).unwrap();
        g.add_link(hub, b, 6.0).unwrap();
        Network::new(
            g,
            vec![
                Session::multi_rate(src, vec![a, b]),
                Session::unicast(src, b),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builder_validates_inputs() {
        assert_eq!(
            Scenario::builder().build().err(),
            Some(ScenarioError::MissingNetwork)
        );
        let err = Scenario::builder()
            .network(two_branch_network())
            .link_rates(LinkRates::Explicit(LinkRateConfig::efficient(5)))
            .build()
            .err();
        assert_eq!(
            err,
            Some(ScenarioError::ConfigShape {
                expected: 2,
                got: 5
            })
        );
        let err = Scenario::builder()
            .random_networks(10, 3, 3)
            .link_rates(LinkRates::Explicit(LinkRateConfig::efficient(3)))
            .build()
            .err();
        assert_eq!(err, Some(ScenarioError::ExplicitConfigOnRandom));
    }

    /// Link-rate models outside their domain are refused at build time
    /// instead of sweeping into zero rates or a stalled solve.
    #[test]
    fn builder_rejects_invalid_link_rate_models() {
        let bad = [
            LinkRateModel::RandomJoin { sigma: 0.0 },
            LinkRateModel::RandomJoin { sigma: -1.0 },
            LinkRateModel::RandomJoin { sigma: f64::NAN },
            LinkRateModel::Scaled(0.5),
            LinkRateModel::Scaled(-1.0),
            LinkRateModel::Scaled(f64::NAN),
        ];
        for model in bad {
            let reason = model.validate().unwrap_err();
            let uniform = Scenario::builder()
                .random_networks(10, 3, 3)
                .link_rates(LinkRates::Uniform(model))
                .allocator(MultiRate::new())
                .build()
                .err();
            assert_eq!(
                uniform,
                Some(ScenarioError::InvalidLinkRateModel {
                    session: None,
                    reason
                }),
                "{model:?}"
            );
            let explicit = Scenario::builder()
                .network(two_branch_network())
                .link_rates(LinkRates::Explicit(
                    LinkRateConfig::efficient(2).with_session(1, model),
                ))
                .build()
                .err();
            assert_eq!(
                explicit,
                Some(ScenarioError::InvalidLinkRateModel {
                    session: Some(1),
                    reason
                }),
                "{model:?}"
            );
            assert!(explicit.unwrap().to_string().contains("session 1"));
        }
        for good in [
            LinkRateModel::RandomJoin { sigma: 6.0 },
            LinkRateModel::Scaled(1.0),
        ] {
            assert!(Scenario::builder()
                .random_networks(10, 3, 3)
                .link_rates(LinkRates::Uniform(good))
                .build()
                .is_ok());
        }
    }

    #[test]
    fn fixed_run_reports_paper_numbers() {
        let mut s = Scenario::builder()
            .label("fixture")
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let report = s.run();
        assert_eq!(
            report.solution.allocation.rates(),
            &[vec![2.0, 3.0], vec![3.0]]
        );
        assert!(report.fairness.unwrap().all_hold());
        assert!((report.metrics.total_rate - 8.0).abs() < 1e-9);
        assert_eq!(s.network().unwrap().session_count(), 2);
        assert_eq!(s.solves(), 1);
    }

    #[test]
    fn regime_comparison_through_scenarios() {
        let net = two_branch_network();
        let multi = Scenario::builder()
            .network(net.clone())
            .allocator(MultiRate::new())
            .build()
            .unwrap()
            .run();
        let single = Scenario::builder()
            .network(net)
            .allocator(SingleRate::new())
            .build()
            .unwrap()
            .run();
        // Multi-rate is strictly fairer by Jain's index on this network
        // (2,3,3 vs 2,2,4) and no receiver is worse off at the bottom.
        assert!(multi.metrics.jain_index > single.metrics.jain_index);
        assert!(multi.metrics.min_rate >= single.metrics.min_rate);
    }

    #[test]
    fn sweeps_are_deterministic_and_reuse_the_workspace() {
        let mut s = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let a = s.sweep(0..10);
        let b = s.sweep(0..10);
        assert_eq!(a, b);
        // Both sweeps solved every point on the one workspace.
        assert_eq!(s.solves(), 20);
        assert_eq!(a.points.len(), 10);
        // Theorem 1 holds at every point of an all-multi-rate sweep.
        assert_eq!(a.all_properties_rate(), 1.0);
    }

    #[test]
    fn repeated_grid_sweeps_are_bitwise_identical() {
        let mut s = Scenario::builder()
            .random_networks(14, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..6).with_models([
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
        ]);
        let first = s.sweep_grid(&grid);
        let second = s.sweep_grid(&grid);
        assert_eq!(first, second);
        assert_eq!(s.solves(), 36, "every sweep solves every point");
        let counters = |r: &SweepReport| (r.cache.hits, r.cache.misses);
        assert_eq!(counters(&first), (12, 6));
        assert_eq!(counters(&first), counters(&second));
    }

    #[test]
    fn grid_points_do_not_depend_on_grid_order() {
        // Seeds and models reversed: every (seed, model) cell must come out
        // bitwise the same, only in the reversed grid's own order.
        let models = [
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
        ];
        let canonical = SweepGrid::seeds(0..6).with_models(models);
        let permuted = SweepGrid::seeds((0..6).rev()).with_models({
            let mut m = models;
            m.reverse();
            m
        });
        let mut s = Scenario::builder()
            .random_networks(14, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let want = s.sweep_grid(&canonical).points;
        let got = s.sweep_grid(&permuted).points;
        let mut reversed = want.clone();
        reversed.reverse();
        assert_eq!(got, reversed);
    }

    #[test]
    fn efficient_grid_model_matches_the_scenario_default() {
        // The scenario's default (Efficient) and an explicit Efficient grid
        // model are the same solve.
        let mut s = Scenario::builder()
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5).with_models([LinkRateModel::Efficient]);
        let with_model = s.sweep_grid(&grid);
        let plain = s.sweep(0..5);
        // Labels reflect what each sweep requested.
        assert!(with_model
            .points
            .iter()
            .all(|p| p.model == Some(LinkRateModel::Efficient)));
        assert!(plain.points.iter().all(|p| p.model.is_none()));
        // Metrics are identical cell for cell.
        for (a, b) in with_model.points.iter().zip(&plain.points) {
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn fixed_sources_reuse_their_network_across_seeds() {
        // A fixed network's solve is seed-independent: every seed labels
        // its own point, and no seed builds a topology.
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let report = s.sweep(0..8);
        assert_eq!((report.cache.hits, report.cache.misses), (8, 0));
        assert_eq!(s.solves(), 8);
        for (seed, p) in report.points.iter().enumerate() {
            assert_eq!(p.seed, seed as u64, "each point carries its seed");
            assert_eq!(p.metrics, report.points[0].metrics);
        }
    }

    /// The counters count topology builds per point. 300 seeds is more
    /// than any per-seed memo of 256 networks could hold across a
    /// models-major grid; the seed-major loop builds each one once.
    #[test]
    fn grid_counters_count_one_build_per_seed() {
        let mut s = Scenario::builder()
            .random_networks(6, 2, 2)
            .allocator(MultiRate::new())
            .check_properties(false)
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..300)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let report = s.sweep_grid(&grid);
        assert_eq!(report.points.len(), 600);
        let want = CacheStats {
            hits: 300,
            misses: 300,
            evictions: 0,
        };
        assert_eq!(report.cache, want);

        let fixed = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap()
            .sweep_grid(&SweepGrid::seeds(0..5).with_models([LinkRateModel::Sum]));
        assert_eq!((fixed.cache.hits, fixed.cache.misses), (5, 0));

        // A seeds-only coordinated sweep builds one topology per job too.
        let serial = s.sweep(0..40);
        let coordinated = s.coordinate(0..40, &threads(2)).unwrap().report;
        assert_eq!(serial.cache, coordinated.cache);
        assert_eq!((serial.cache.hits, serial.cache.misses), (0, 40));
    }

    fn threads(n: usize) -> CoordinatorConfig {
        CoordinatorConfig::threads(n)
    }

    #[test]
    fn thread_sweeps_are_bitwise_identical_to_serial_at_any_thread_count() {
        for family in [
            TopologyFamily::FlatTree,
            TopologyFamily::KaryTree { arity: 2 },
            TopologyFamily::TransitStub { transit: 3 },
            TopologyFamily::Dumbbell,
        ] {
            let mut s = Scenario::builder()
                .label(family.label())
                .random_networks_with(family, 14, 4, 4)
                .allocator(MultiRate::new())
                .build()
                .unwrap();
            let serial = s.sweep(0..12);
            // 0 delegates to available_parallelism.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            for n in [0, 1, 2, 3, 5, 8, 64] {
                let parallel = s.coordinate(0..12, &threads(n)).unwrap();
                assert_eq!(serial, parallel.report, "{} at {n} threads", family.label());
                // Every requested worker runs, up to one per job.
                let workers = if n == 0 { cores } else { n };
                assert_eq!(
                    parallel.stats.workers,
                    workers.min(12) as u64,
                    "{n} threads"
                );
            }
            let empty = s.coordinate(0..0, &threads(4)).unwrap();
            assert!(empty.report.points.is_empty());
            assert_eq!((empty.stats.shards, empty.stats.workers), (0, 0));
        }
    }

    #[test]
    fn thread_grid_sweeps_match_serial_order_and_bits() {
        let mut s = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let serial = s.sweep_grid(&grid);
        for n in [1, 2, 4, 7] {
            let parallel = s.coordinate_grid(&grid, &threads(n)).unwrap().report;
            assert_eq!(serial, parallel, "{n} threads");
        }
        // Seeds-only grids go through the same job path.
        let seeds_only = SweepGrid::seeds(3..9);
        let parallel = s.coordinate_grid(&seeds_only, &threads(3)).unwrap();
        assert_eq!(s.sweep_grid(&seeds_only), parallel.report);
    }

    #[test]
    fn degenerate_random_sources_are_rejected_at_build_time() {
        let err = Scenario::builder().random_networks(1, 3, 3).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(
                mlf_net::TopologyError::TooFewNodes {
                    family: "flat-tree",
                    requested: 1,
                    minimum: 2,
                }
            ))
        );
        let err = Scenario::builder().random_networks(10, 0, 3).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(mlf_net::TopologyError::NoSessions))
        );
        let err = Scenario::builder().random_networks(10, 3, 0).build().err();
        assert_eq!(
            err,
            Some(ScenarioError::Topology(mlf_net::TopologyError::NoReceivers))
        );
        let err = Scenario::builder()
            .random_networks_with(TopologyFamily::Dumbbell, 3, 2, 2)
            .build()
            .err();
        assert!(matches!(
            err,
            Some(ScenarioError::Topology(
                mlf_net::TopologyError::TooFewNodes { .. }
            ))
        ));
        let msg = err.unwrap().to_string();
        assert!(msg.contains("bad random-network source"), "{msg}");
    }

    #[test]
    fn family_sweeps_produce_structurally_distinct_points() {
        // The same seeds through two different families must not produce
        // identical sweeps (otherwise the family never reached the
        // generator).
        let sweep_for = |family| {
            Scenario::builder()
                .random_networks_with(family, 16, 4, 4)
                .allocator(MultiRate::new())
                .build()
                .unwrap()
                .sweep(0..8)
        };
        let flat = sweep_for(TopologyFamily::FlatTree);
        let dumbbell = sweep_for(TopologyFamily::Dumbbell);
        assert_ne!(flat.points, dumbbell.points);
    }

    #[test]
    fn grid_sweeps_cross_models_with_seeds() {
        let mut s = Scenario::builder()
            .random_networks(10, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..4)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let report = s.sweep_grid(&grid);
        assert_eq!(report.points.len(), 8);
        // Lemma 4's direction in aggregate: redundancy shrinks min rates.
        let eff: Vec<&SweepPoint> = report
            .points
            .iter()
            .filter(|p| p.model == Some(LinkRateModel::Efficient))
            .collect();
        let red: Vec<&SweepPoint> = report
            .points
            .iter()
            .filter(|p| p.model == Some(LinkRateModel::Scaled(2.0)))
            .collect();
        for (e, r) in eff.iter().zip(&red) {
            assert!(r.metrics.min_rate <= e.metrics.min_rate + 1e-9);
        }
        // And the redundancy model must actually bite somewhere: at least
        // one seed's allocation strictly shrinks (guards against the model
        // override silently not reaching the allocator).
        assert!(
            eff.iter()
                .zip(&red)
                .any(|(e, r)| r.metrics.total_rate < e.metrics.total_rate - 1e-9),
            "Scaled(2.0) never changed any allocation across the grid"
        );
    }

    #[test]
    fn link_rates_reach_the_allocator() {
        // A Uniform(Scaled) scenario must produce a *different* allocation
        // from the efficient default on a network where redundancy binds.
        let net = two_branch_network();
        let efficient = Scenario::builder()
            .network(net.clone())
            .allocator(MultiRate::new())
            .build()
            .unwrap()
            .run();
        let scaled = Scenario::builder()
            .network(net)
            .allocator(MultiRate::new())
            .link_rates(LinkRates::Uniform(LinkRateModel::Scaled(4.0)))
            .build()
            .unwrap()
            .run();
        assert!(scaled.metrics.total_rate < efficient.metrics.total_rate - 1e-9);
    }

    /// Grid models outside their domain are refused before any point
    /// runs: typed by `validate_grid` and `coordinate_grid`, and as a
    /// panic carrying the same message from the serial grid sweep (a NaN
    /// sigma used to stall the solver instead).
    #[test]
    fn grid_sweeps_reject_invalid_link_rate_models() {
        let mut s = Scenario::builder()
            .random_networks(10, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let bad = [
            LinkRateModel::RandomJoin { sigma: 0.0 },
            LinkRateModel::RandomJoin { sigma: f64::NAN },
            LinkRateModel::Scaled(0.5),
            LinkRateModel::Scaled(f64::NAN),
        ];
        for model in bad {
            let grid = SweepGrid::seeds(0..4).with_models(vec![LinkRateModel::Efficient, model]);
            let want = ScenarioError::InvalidLinkRateModel {
                session: None,
                reason: model.validate().unwrap_err(),
            };
            assert_eq!(s.validate_grid(&grid), Err(want.clone()), "{model:?}");
            let message = |payload: Box<dyn std::any::Any + Send>| {
                payload.downcast::<String>().map(|m| *m).unwrap_or_default()
            };
            let serial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.sweep_grid(&grid);
            }));
            assert_eq!(serial.map_err(message), Err(want.to_string()), "{model:?}");
            let coordinated = s.coordinate_grid(&grid, &threads(2)).err();
            assert_eq!(coordinated, Some(CoordinatorError::Grid(want)), "{model:?}");
        }
        let good = SweepGrid::seeds(0..4).with_models(vec![
            LinkRateModel::RandomJoin { sigma: 6.0 },
            LinkRateModel::Scaled(1.0),
            LinkRateModel::Sum,
        ]);
        assert_eq!(s.validate_grid(&good), Ok(()));
        let weighted = Scenario::builder()
            .random_networks(10, 3, 3)
            .allocator(Weighted::uniform())
            .build()
            .unwrap();
        assert_eq!(
            weighted.validate_grid(&good),
            Err(ScenarioError::AllocatorIgnoresLinkRates)
        );
        assert_eq!(weighted.validate_grid(&SweepGrid::seeds(0..4)), Ok(()));
    }

    #[test]
    fn weighted_rejects_non_efficient_link_rates() {
        let err = Scenario::builder()
            .network(two_branch_network())
            .allocator(Weighted::uniform())
            .link_rates(LinkRates::Uniform(LinkRateModel::Sum))
            .build()
            .err();
        assert_eq!(err, Some(ScenarioError::AllocatorIgnoresLinkRates));
    }

    #[test]
    fn layering_summary_reports_ladder_fits() {
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .layering(LayerSchedule::exponential(4)) // cumulative 1,2,4,8
            .build()
            .unwrap();
        let report = s.run();
        let summary = report.layering.unwrap();
        assert_eq!(summary.fits.len(), 3);
        // r1,1 fair rate 2 sits exactly on the ladder (level 2); r1,2 at 3
        // fits level 2 (cumulative 2) with deficit 1/3.
        assert_eq!(summary.fits[0].level, 2);
        assert!((summary.fits[0].deficit).abs() < 1e-9);
        assert!((summary.fits[1].deficit - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_allocator_composes_with_scenarios() {
        let mut g = Graph::new();
        let n = g.add_nodes(2);
        g.add_link(n[0], n[1], 9.0).unwrap();
        let net = Network::new(
            g,
            vec![Session::unicast(n[0], n[1]), Session::unicast(n[0], n[1])],
        )
        .unwrap();
        let mut s = Scenario::builder()
            .network(net)
            .allocator(Weighted::new(mlf_core::Weights::from_values(vec![
                vec![2.0],
                vec![1.0],
            ])))
            .build()
            .unwrap();
        let report = s.run();
        assert_eq!(report.solution.allocation.rates(), &[vec![6.0], vec![3.0]]);
    }

    /// Weights that do not fit a fixed network are refused at build time
    /// with the allocator's typed error, so `run` never meets them.
    #[test]
    fn fixed_network_with_bad_weights_fails_to_build() {
        let mut g = Graph::new();
        let n = g.add_nodes(3);
        g.add_link(n[0], n[1], 9.0).unwrap();
        g.add_link(n[0], n[2], 9.0).unwrap();
        let net = Network::new(
            g,
            vec![
                Session::multi_rate(n[0], vec![n[1], n[2]]),
                Session::unicast(n[0], n[1]),
            ],
        )
        .unwrap();
        let build = |w: Vec<Vec<f64>>| {
            Scenario::builder()
                .network(net.clone())
                .allocator(Weighted::new(mlf_core::Weights::from_values(w)))
                .build()
                .err()
        };
        let bad = Some(ScenarioError::Solve(SolveError::BadWeights { session: 0 }));
        assert_eq!(build(vec![vec![1.0], vec![1.0]]), bad);
        assert_eq!(build(vec![vec![1.0, -2.0], vec![1.0]]), bad);
        assert_eq!(
            build(vec![vec![1.0, 1.0]]),
            Some(ScenarioError::Solve(SolveError::SessionCount {
                input: "weight table",
                got: 1,
            }))
        );
        assert!(build(vec![vec![1.0, 2.0], vec![1.0]]).is_none());
    }
}
