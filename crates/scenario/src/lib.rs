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
//! win the Figure 5/8 sweeps need. It also owns a bounded [`SolveCache`]
//! ([`cache`]): seeded topologies are built once per `(family, shape,
//! seed)` and whole sweep points are memoized per `(topology, effective
//! link-rate model)`, so model grids share topology builds and repeated
//! sweeps replay from cache — bitwise identically, with
//! [`SweepReport::cache`] reporting hits/misses/evictions. For multi-core
//! machines, [`Scenario::sweep_par`] and [`Scenario::sweep_grid_par`]
//! shard the seed/grid space across `std::thread::scope` workers (one
//! workspace and one worker-local cache per worker) and merge the points
//! back in deterministic seed order, so the parallel output is **bitwise
//! identical** to the serial one at any thread count.
//!
//! ## The shared executor
//!
//! The shard/merge machinery itself lives in [`executor::run_jobs_par`],
//! generic over the job and output types: balanced contiguous partition,
//! one worker-local state per thread, in-order merge. Allocator sweeps
//! instantiate it with `(model, seed)` jobs and per-worker
//! [`SolverWorkspace`]s; [`protocol`] instantiates it with
//! `(protocol, loss, seed)` jobs and stateless workers, which is how the
//! Figure 8 protocol comparisons ([`ProtocolScenario`] over a
//! [`ProtocolSweepGrid`]) get the same parallel, bitwise-deterministic
//! treatment as allocator sweeps. See the [`executor`] module docs for the
//! exact determinism contract.
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
//! Sweeps over random topologies are deterministic in their seeds, and the
//! parallel executor reproduces the serial points exactly:
//!
//! ```
//! use mlf_net::TopologyFamily;
//! use mlf_scenario::Scenario;
//!
//! let mut s = Scenario::builder()
//!     .random_networks_with(TopologyFamily::TransitStub { transit: 3 }, 12, 4, 4)
//!     .build()
//!     .unwrap();
//! let once = s.sweep(0..8);
//! let again = s.sweep(0..8);
//! assert_eq!(once.points, again.points);
//! let parallel = s.sweep_par(0..8, 4);
//! assert_eq!(once.points, parallel.points);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint;
pub mod coordinator;
pub mod executor;
mod hash;
pub mod protocol;
mod record;
mod supervisor;
pub mod transport;

pub use cache::{CacheStats, SolveCache};
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

use cache::{SolveKey, TopologyKey};
use mlf_core::allocator::{Allocator, Hybrid, SolverWorkspace};
use mlf_core::{
    metrics, properties, FairnessReport, LinkRateConfig, LinkRateModel, MaxMinSolution,
};
use mlf_layering::LayerSchedule;
use mlf_net::topology::random_network_with;
use mlf_net::{Network, ReceiverId, TopologyError, TopologyFamily};

/// Where a scenario's networks come from.
#[derive(Debug, Clone)]
pub(crate) enum NetworkSource {
    /// One fixed network (e.g. a paper figure).
    Fixed(Network),
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
    fn resolve(&self, session_count: usize) -> LinkRateConfig {
        match self {
            LinkRates::Efficient => LinkRateConfig::efficient(session_count),
            LinkRates::Uniform(m) => LinkRateConfig::uniform(session_count, *m),
            LinkRates::Explicit(cfg) => cfg.clone(),
        }
    }
}

/// Why a [`ScenarioBuilder`] refused to build.
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
#[derive(Debug, Clone, PartialEq, Eq)]
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
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Builder for [`Scenario`]. Obtain via [`Scenario::builder`].
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
pub struct ScenarioBuilder {
    label: String,
    source: Option<NetworkSource>,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
    cache_points: usize,
    cache_networks: usize,
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
            cache_points: cache::DEFAULT_POINT_CAPACITY,
            cache_networks: cache::DEFAULT_NETWORK_CAPACITY,
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
        self.source = Some(NetworkSource::Fixed(net));
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

    /// Bound the sweep solve/topology cache: `points` memoized
    /// [`SweepPoint`]s and `networks` built topologies (defaults:
    /// [`cache::DEFAULT_POINT_CAPACITY`] /
    /// [`cache::DEFAULT_NETWORK_CAPACITY`]). `cache_capacity(0, 0)`
    /// disables caching entirely; see [`cache`] for the key semantics and
    /// the determinism argument.
    pub fn cache_capacity(mut self, points: usize, networks: usize) -> Self {
        self.cache_points = points;
        self.cache_networks = networks;
        self
    }

    /// Validate and assemble the scenario.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let source = self.source.ok_or(ScenarioError::MissingNetwork)?;
        if !matches!(self.link_rates, LinkRates::Efficient) && !self.allocator.supports_link_rates()
        {
            return Err(ScenarioError::AllocatorIgnoresLinkRates);
        }
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
        Ok(Scenario {
            label: self.label,
            source,
            link_rates: self.link_rates,
            allocator: self.allocator,
            layering: self.layering,
            check_properties: self.check_properties,
            ws: SolverWorkspace::new(),
            cache: SolveCache::with_capacity(self.cache_points, self.cache_networks),
            cache_points: self.cache_points,
            cache_networks: self.cache_networks,
        })
    }
}

/// A declarative experiment: topology × link-rate model × allocation regime
/// × (optional) layering × reporting, with solver scratch reused across
/// every run it performs.
///
/// Serial sweeps additionally reuse a per-scenario [`SolveCache`]: seeded
/// topologies are built once per `(family, shape, seed)` and whole sweep
/// points are memoized per `(topology, effective link-rate model)`, so a
/// grid revisiting the same cells (across its models, or across repeated
/// sweep calls) skips the rebuild and the solve. Cached output is bitwise
/// identical to uncached output — a point is a pure function of its key —
/// and the parallel executors give each worker a private cache, keeping
/// the serial/parallel bitwise contract intact. [`SweepReport::cache`]
/// reports each sweep's hits/misses/evictions.
pub struct Scenario {
    label: String,
    source: NetworkSource,
    link_rates: LinkRates,
    allocator: Box<dyn Allocator>,
    layering: Option<LayerSchedule>,
    check_properties: bool,
    ws: SolverWorkspace,
    cache: SolveCache,
    cache_points: usize,
    cache_networks: usize,
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
            NetworkSource::Fixed(net) => Some(net),
            NetworkSource::Random { .. } => None,
        }
    }

    /// How many solves this scenario's workspace has served.
    pub fn solves(&self) -> u64 {
        self.ws.solves()
    }

    /// Solve the scenario once (seed 0 for random sources).
    pub fn run(&mut self) -> ScenarioReport {
        self.run_seeded(0)
    }

    /// Solve the scenario for one seed (ignored by fixed sources).
    pub(crate) fn run_seeded(&mut self, seed: u64) -> ScenarioReport {
        self.run_inner(seed, None)
    }

    fn run_inner(&mut self, seed: u64, model_override: Option<LinkRateModel>) -> ScenarioReport {
        // Detach the owned workspace so the shared solve path can borrow
        // `self` immutably (the same path the parallel workers use).
        let mut ws = std::mem::take(&mut self.ws);
        let report = self.solve_with_ws(seed, model_override, &mut ws);
        self.ws = ws;
        report
    }

    /// Solve one point against an explicit workspace. This is the whole
    /// solve path: serial sweeps call it with the scenario's own workspace,
    /// parallel workers with their per-thread one — which is why the two
    /// executors agree bitwise (a solve's result never depends on workspace
    /// history).
    fn solve_with_ws(
        &self,
        seed: u64,
        model_override: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
    ) -> ScenarioReport {
        let owned;
        let net = match &self.source {
            NetworkSource::Fixed(net) => net,
            NetworkSource::Random { .. } => {
                owned = self.build_network(seed);
                &owned
            }
        };
        self.report_for(net, seed, model_override, ws)
    }

    /// Build the seeded topology of a random source (panics on fixed
    /// sources, which never call it).
    fn build_network(&self, seed: u64) -> Network {
        match &self.source {
            NetworkSource::Fixed(_) => unreachable!("fixed sources hold their network"),
            NetworkSource::Random {
                family,
                nodes,
                sessions,
                max_receivers,
            } => random_network_with(*family, seed, *nodes, *sessions, *max_receivers)
                // mlf-lint: allow(panic-unwrap, reason = "ScenarioBuilder::build already rejected invalid random-source parameters, so regeneration cannot fail")
                .expect("random-source parameters were validated at build time"),
        }
    }

    /// The full per-point report against an explicit, already-built
    /// network: the tail of the solve path shared by the cached and
    /// uncached executors.
    fn report_for(
        &self,
        net: &Network,
        seed: u64,
        model_override: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
    ) -> ScenarioReport {
        let cfg = match model_override {
            Some(m) => LinkRateConfig::uniform(net.session_count(), m),
            None => self.link_rates.resolve(net.session_count()),
        };
        // The allocator solves under the scenario's link-rate config — the
        // same one the property audit uses. Allocators without link-rate
        // parameterization (Weighted, Unicast) only compose with efficient
        // link rates, enforced at build()/sweep_grid() time.
        let solution =
            if matches!(self.link_rates, LinkRates::Efficient) && model_override.is_none() {
                self.allocator.solve(net, ws)
            } else {
                self.allocator
                    .solve_with(net, &cfg, ws)
                    // mlf-lint: allow(panic-unwrap, reason = "build()/sweep_grid() already rejected allocator/link-rate combinations that solve_with cannot handle")
                    .expect("allocator link-rate support was validated at build time")
            };
        let fairness = self
            .check_properties
            .then(|| properties::check_all(net, &cfg, &solution.allocation));
        let layering = self
            .layering
            .as_ref()
            .map(|s| LayeringSummary::new(s, net, &solution));
        let metrics = ScenarioMetrics::measure(net, &solution);
        ScenarioReport {
            label: self.label.clone(),
            seed,
            solution,
            fairness,
            metrics,
            layering,
        }
    }

    /// The cache identity of one sweep point, when the scenario's
    /// configuration is expressible as a uniform link-rate model (explicit
    /// per-session configs are not and bypass the cache).
    fn solve_key(&self, seed: u64, model_override: Option<LinkRateModel>) -> Option<SolveKey> {
        let model = match model_override {
            Some(m) => m,
            None => match &self.link_rates {
                LinkRates::Efficient => LinkRateModel::Efficient,
                LinkRates::Uniform(m) => *m,
                LinkRates::Explicit(_) => return None,
            },
        };
        let topology = match &self.source {
            // Fixed solves are seed-independent: every seed shares one
            // entry (the hit path restores the requesting seed label).
            NetworkSource::Fixed(_) => TopologyKey::fixed(),
            NetworkSource::Random {
                family,
                nodes,
                sessions,
                max_receivers,
            } => TopologyKey::random(*family, *nodes, *sessions, *max_receivers, seed),
        };
        Some(SolveKey::new(topology, model))
    }

    /// One sweep point through the cache (when one is supplied and the
    /// point is representable): memoized points return as clones, misses
    /// solve against the cached topology and populate the memo.
    fn sweep_point_with(
        &self,
        seed: u64,
        model: Option<LinkRateModel>,
        ws: &mut SolverWorkspace,
        cache: Option<&mut SolveCache>,
    ) -> SweepPoint {
        let uncached = |ws: &mut SolverWorkspace| {
            SweepPoint::from_report(self.solve_with_ws(seed, model, ws), model)
        };
        let Some(cache) = cache else {
            return uncached(ws);
        };
        let Some(key) = self.solve_key(seed, model) else {
            return uncached(ws);
        };
        if let Some(mut point) = cache.point(&key) {
            // The solve is key-determined but the `model` and `seed`
            // labels record what *this* job requested: a `None` job served
            // by a memoized `Some(Efficient)` solve, or a fixed-source
            // point memoized under a different seed, must still label its
            // point the way an uncached run would.
            point.model = model;
            point.seed = seed;
            return point;
        }
        let report = match &self.source {
            NetworkSource::Fixed(net) => self.report_for(net, seed, model, ws),
            NetworkSource::Random { .. } => {
                let net = cache.network(key.topology(), || self.build_network(seed));
                self.report_for(&net, seed, model, ws)
            }
        };
        let point = SweepPoint::from_report(report, model);
        cache.insert_point(key, point.clone());
        point
    }

    /// Whether caching is enabled at all for this scenario.
    fn caching_enabled(&self) -> bool {
        self.cache_points > 0 || self.cache_networks > 0
    }

    /// A fresh cache sized like the scenario's (the worker-local caches of
    /// the parallel executors), or `None` when caching is disabled.
    fn worker_cache(&self) -> Option<SolveCache> {
        self.caching_enabled()
            .then(|| SolveCache::with_capacity(self.cache_points, self.cache_networks))
    }

    /// Run one solve per seed, reusing the workspace — and the scenario's
    /// persistent [`SolveCache`] — throughout. The result is a pure
    /// function of the seeds (and the scenario spec): two sweeps with
    /// equal seeds produce equal points (the second served from cache).
    pub fn sweep<I: IntoIterator<Item = u64>>(&mut self, seeds: I) -> SweepReport {
        let jobs: Vec<(Option<LinkRateModel>, u64)> =
            seeds.into_iter().map(|s| (None, s)).collect();
        self.sweep_jobs_serial(&jobs)
    }

    /// Run the full `seeds × models` grid (the Figure 4/5/6 pattern:
    /// the same topologies under different redundancy models). Each seeded
    /// topology is built once and shared across the grid's models through
    /// the scenario cache.
    pub fn sweep_grid(&mut self, grid: &SweepGrid) -> SweepReport {
        self.check_grid(grid);
        let jobs = Self::grid_jobs(grid);
        self.sweep_jobs_serial(&jobs)
    }

    /// The serial executor: one workspace, the scenario's own cache, jobs
    /// in order. [`SweepReport::cache`] carries this sweep's share of the
    /// cache counters.
    fn sweep_jobs_serial(&mut self, jobs: &[(Option<LinkRateModel>, u64)]) -> SweepReport {
        // Detach the owned workspace/cache so the shared solve path can
        // borrow `self` immutably (the same path the parallel workers use).
        let mut ws = std::mem::take(&mut self.ws);
        let mut cache = std::mem::take(&mut self.cache);
        let before = cache.stats();
        let enabled = self.caching_enabled();
        let points = jobs
            .iter()
            .map(|&(model, seed)| {
                self.sweep_point_with(seed, model, &mut ws, enabled.then_some(&mut cache))
            })
            .collect();
        let stats = cache.stats().since(&before);
        self.cache = cache;
        self.ws = ws;
        SweepReport {
            label: self.label.clone(),
            points,
            cache: stats,
        }
    }

    /// The canonical job order of a grid — models-major, then seeds. Both
    /// the serial and the parallel grid executor consume this one
    /// expansion, so their point order can never diverge.
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

    fn check_grid(&self, grid: &SweepGrid) {
        assert!(
            grid.models.is_empty() || self.allocator.supports_link_rates(),
            "{}",
            ScenarioError::AllocatorIgnoresLinkRates
        );
    }

    /// [`Scenario::sweep`], sharded across `threads` scoped worker threads.
    ///
    /// Each worker solves a contiguous shard of the seed list with its own
    /// [`SolverWorkspace`] and its own worker-local [`SolveCache`]; shards
    /// are merged back in seed order, so the result is **bitwise
    /// identical** to the serial [`Scenario::sweep`] for the same seeds,
    /// at any thread count (a solve's output never depends on workspace or
    /// cache history — a hit replays exactly the bits a fresh solve would
    /// produce). `threads == 0` means "use
    /// `std::thread::available_parallelism`". The scenario's own workspace
    /// and cache are untouched, so [`Scenario::solves`] does not count
    /// parallel solves; the report's [`SweepReport::cache`] merges the
    /// workers' counters.
    pub fn sweep_par<I: IntoIterator<Item = u64>>(&self, seeds: I, threads: usize) -> SweepReport {
        let jobs: Vec<(Option<LinkRateModel>, u64)> =
            seeds.into_iter().map(|s| (None, s)).collect();
        let (points, cache) = self.run_jobs_par(&jobs, threads);
        SweepReport {
            label: self.label.clone(),
            points,
            cache,
        }
    }

    /// [`Scenario::sweep_grid`], sharded across `threads` scoped worker
    /// threads. Point order (models-major, then seeds) and every point's
    /// bits match the serial executor exactly.
    pub fn sweep_grid_par(&self, grid: &SweepGrid, threads: usize) -> SweepReport {
        self.check_grid(grid);
        let (points, cache) = self.run_jobs_par(&Self::grid_jobs(grid), threads);
        SweepReport {
            label: self.label.clone(),
            points,
            cache,
        }
    }

    /// Run a job list through the shared deterministic executor
    /// ([`executor::run_jobs_par_with_state`]): balanced contiguous
    /// shards, one `(SolverWorkspace, SolveCache)` per worker, outputs
    /// merged back in job order, worker cache counters summed in shard
    /// order.
    fn run_jobs_par(
        &self,
        jobs: &[(Option<LinkRateModel>, u64)],
        threads: usize,
    ) -> (Vec<SweepPoint>, CacheStats) {
        let (points, states) = executor::run_jobs_par_with_state(
            jobs,
            threads,
            || (SolverWorkspace::new(), self.worker_cache()),
            |(ws, cache), &(model, seed)| self.sweep_point_with(seed, model, ws, cache.as_mut()),
        );
        let mut stats = CacheStats::default();
        for (_, cache) in &states {
            if let Some(cache) = cache {
                stats.merge(&cache.stats());
            }
        }
        (points, stats)
    }

    /// The lifetime counters of the scenario's own (serial-sweep) cache.
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every cached topology and sweep point (counters are kept).
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn clear_cache(&mut self) {
        self.cache.clear();
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
// mlf-lint: allow(unused-pub, reason = "reachable through public fn signatures and returned values; the ident-based usage scan cannot see type flow")
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
// mlf-lint: allow(unused-pub, reason = "reachable through public fn signatures and returned values; the ident-based usage scan cannot see type flow")
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

    /// Mean deficit across receivers (0 when every fair rate sits exactly
    /// on a ladder step).
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn mean_deficit(&self) -> f64 {
        if self.fits.is_empty() {
            return 0.0;
        }
        self.fits.iter().map(|f| f.deficit).sum::<f64>() / self.fits.len() as f64
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

impl SweepPoint {
    fn from_report(report: ScenarioReport, model: Option<LinkRateModel>) -> Self {
        SweepPoint {
            seed: report.seed,
            model,
            metrics: report.metrics,
            properties_holding: report.fairness.as_ref().map(|f| f.count_holding()),
        }
    }
}

/// The outcome of a sweep: one [`SweepPoint`] per (seed, model) pair.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The scenario's label.
    pub label: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// This sweep's solve-cache counters (serial: the scenario cache's
    /// delta; parallel: the workers' merged totals).
    pub cache: CacheStats,
}

/// Equality compares the **deterministic output** — label and points —
/// and deliberately ignores [`SweepReport::cache`]: cache telemetry
/// depends on execution history (a warm scenario hits where a cold one
/// misses, workers shard differently at different thread counts) while
/// the points are bitwise reproducible regardless. This is what lets the
/// serial/parallel differential suites keep asserting `serial == parallel`.
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
        // The first sweep solved everything; the second was served
        // entirely from the scenario cache (same points, no new solves).
        assert_eq!(s.solves(), 10);
        assert_eq!(
            (a.cache.hits, a.cache.misses, b.cache.hits, b.cache.misses),
            (0, 10, 10, 0)
        );
        assert_eq!(a.points.len(), 10);
        // Theorem 1 holds at every point of an all-multi-rate sweep.
        assert_eq!(a.all_properties_rate(), 1.0);

        // With the cache disabled, every sweep re-solves.
        let mut uncached = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .cache_capacity(0, 0)
            .build()
            .unwrap();
        let c = uncached.sweep(0..10);
        let d = uncached.sweep(0..10);
        assert_eq!(a.points, c.points, "cached and uncached points agree");
        assert_eq!(c.points, d.points);
        assert_eq!(uncached.solves(), 20);
        assert_eq!(c.cache, CacheStats::default());
    }

    #[test]
    fn warm_cache_replays_grid_sweeps_bitwise() {
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
        let cold = s.sweep_grid(&grid);
        assert_eq!((cold.cache.hits, cold.cache.misses), (0, 18));
        let solves_after_cold = s.solves();
        let warm = s.sweep_grid(&grid);
        assert_eq!(cold, warm, "warm replay is bitwise identical");
        assert_eq!((warm.cache.hits, warm.cache.misses), (18, 0));
        assert_eq!(s.solves(), solves_after_cold, "warm sweep solved nothing");
        // And a fresh uncached scenario agrees point for point.
        let fresh = Scenario::builder()
            .random_networks(14, 4, 4)
            .allocator(MultiRate::new())
            .cache_capacity(0, 0)
            .build()
            .unwrap()
            .sweep_grid(&grid);
        assert_eq!(cold.points, fresh.points);
    }

    #[test]
    fn permuted_cache_population_order_preserves_stats_and_output() {
        // Warm two identical scenarios through grids that visit the same
        // cells in different orders, then sweep both with the canonical
        // grid. The caches were *populated* in different orders, so any
        // iteration-order dependence inside the cache (or hash-seed
        // dependence across instances) would surface as diverging stats or
        // points here.
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
        let build = || {
            Scenario::builder()
                .random_networks(14, 4, 4)
                .allocator(MultiRate::new())
                .build()
                .unwrap()
        };
        let mut a = build();
        let mut b = build();
        a.sweep_grid(&canonical);
        b.sweep_grid(&permuted);
        let out_a = a.sweep_grid(&canonical);
        let out_b = b.sweep_grid(&canonical);
        assert_eq!(out_a, out_b, "sweep output depends on population order");
        assert_eq!(
            (out_a.cache.hits, out_a.cache.misses),
            (18, 0),
            "canonical replay after canonical warmup must be all hits"
        );
        assert_eq!(
            out_a.cache, out_b.cache,
            "cache stats depend on population order"
        );
    }

    #[test]
    fn grid_cells_share_solves_when_models_normalize_equal() {
        // The scenario's default (Efficient) and an explicit Efficient grid
        // model are the *same* solve: the second block of cells is served
        // from the first block's entries.
        let mut s = Scenario::builder()
            .random_networks(12, 3, 3)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5).with_models([LinkRateModel::Efficient]);
        let with_model = s.sweep_grid(&grid);
        assert_eq!((with_model.cache.hits, with_model.cache.misses), (0, 5));
        let plain = s.sweep(0..5);
        assert_eq!((plain.cache.hits, plain.cache.misses), (5, 0));
        // Labels still reflect what each sweep requested.
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
    fn fixed_sources_share_one_solve_across_seeds() {
        // A fixed network's solve is seed-independent; sweeping many seeds
        // must solve once and relabel cached points per seed.
        let mut s = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let report = s.sweep(0..8);
        assert_eq!((report.cache.hits, report.cache.misses), (7, 1));
        assert_eq!(s.solves(), 1);
        for (seed, p) in report.points.iter().enumerate() {
            assert_eq!(p.seed, seed as u64, "seed label restored on hit");
            assert_eq!(p.metrics, report.points[0].metrics);
        }
        // And the points match an uncached scenario's exactly.
        let uncached = Scenario::builder()
            .network(two_branch_network())
            .allocator(MultiRate::new())
            .cache_capacity(0, 0)
            .build()
            .unwrap()
            .sweep(0..8);
        assert_eq!(report.points, uncached.points);
    }

    #[test]
    fn explicit_configs_bypass_the_cache() {
        let net = two_branch_network();
        let mut s = Scenario::builder()
            .network(net)
            .allocator(MultiRate::new())
            .link_rates(LinkRates::Explicit(
                LinkRateConfig::efficient(2).with_session(0, LinkRateModel::Scaled(2.0)),
            ))
            .build()
            .unwrap();
        let a = s.sweep([0, 0, 0]);
        assert_eq!(a.cache, CacheStats::default(), "no cacheable key");
        assert_eq!(s.solves(), 3);
    }

    #[test]
    fn sweep_par_is_bitwise_identical_to_serial_at_any_thread_count() {
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
            for threads in [1, 2, 3, 5, 8, 64] {
                let parallel = s.sweep_par(0..12, threads);
                assert_eq!(serial, parallel, "{} at {threads} threads", family.label());
            }
            // threads == 0 delegates to available_parallelism.
            assert_eq!(serial, s.sweep_par(0..12, 0));
        }
    }

    #[test]
    fn sweep_grid_par_matches_serial_order_and_bits() {
        let mut s = Scenario::builder()
            .random_networks(12, 4, 4)
            .allocator(MultiRate::new())
            .build()
            .unwrap();
        let grid = SweepGrid::seeds(0..5)
            .with_models([LinkRateModel::Efficient, LinkRateModel::Scaled(2.0)]);
        let serial = s.sweep_grid(&grid);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                serial,
                s.sweep_grid_par(&grid, threads),
                "{threads} threads"
            );
        }
        // Seeds-only grids go through the same job path.
        let seeds_only = SweepGrid::seeds(3..9);
        assert_eq!(s.sweep_grid(&seeds_only), s.sweep_grid_par(&seeds_only, 3));
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
        assert!(summary.mean_deficit() > 0.0);
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
}
