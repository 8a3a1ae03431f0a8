//! The three solver workloads: `fig5_randomjoin` and `hier_linear_grid`
//! (serial scenario sweeps) and `fig5_fleet` (the `fig5_randomjoin` jobs
//! on the coordinator's process fleet).
//!
//! The traced passes re-run each sweep's jobs through the benchmark's own
//! composition of the public layer functions — `random_network_with` →
//! `Allocator::solve_with` → `properties::check_all` → metrics →
//! `encode_point` — clocking each call. That composition must reproduce
//! the scenario's points bitwise, or the breakdown would describe a
//! different program and the pass counts as failed.

use crate::measure::{percentile, Kernel};
use crate::trace::LayerValues;
use crate::{check, Pass, TracedPass, Workload};
use mlf_core::allocator::{Allocator, MultiRate, SolverWorkspace};
use mlf_core::{check_all, jain_index, satisfaction, LinkRateConfig, LinkRateModel};
use mlf_net::topology::random_network_with;
use mlf_net::{Network, TopologyFamily};
use mlf_scenario::checkpoint::{encode_point, POINT_BYTES};
use mlf_scenario::{
    CacheStats, CoordinatorConfig, CoordinatorStats, LinkRates, ProcessConfig, Scenario,
    ScenarioMetrics, SweepGrid, SweepPoint, SweepReport, TransportKind,
};
use std::time::Instant;

type Encoded = [u8; POINT_BYTES];

/// Random topologies per family in one `fig5_randomjoin` pass.
const FIG5_SEEDS: u64 = 256;
/// Random topologies per family in one `hier_linear_grid` pass.
const HIER_SEEDS: u64 = 96;

/// The four families of the `fig5_random_joins` network sweep.
const FIG5_FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::FlatTree,
    TopologyFamily::KaryTree { arity: 3 },
    TopologyFamily::TransitStub { transit: 4 },
    TopologyFamily::Dumbbell,
];

/// The first topology seed of a workload: the benchmark seed, spread so
/// that different benchmark seeds never share topologies.
fn seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(1 << 20)
}

/// One serial sweep of a pass: a cold scenario over `seeds` × `models`.
struct SweepSpec {
    family: TopologyFamily,
    nodes: usize,
    sessions: usize,
    max_receivers: usize,
    /// The scenario's own link rates.
    link_rates: LinkRateModel,
    /// Grid models (`sweep_grid`, models-major); empty runs `sweep`.
    models: Vec<LinkRateModel>,
    seeds: Vec<u64>,
}

impl SweepSpec {
    fn scenario(&self) -> Scenario {
        let rates = match self.link_rates {
            LinkRateModel::Efficient => LinkRates::Efficient,
            m => LinkRates::Uniform(m),
        };
        Scenario::builder()
            .label(format!("perfbench/{}", self.family.label()))
            .random_networks_with(self.family, self.nodes, self.sessions, self.max_receivers)
            .link_rates(rates)
            .allocator(MultiRate::new())
            .build()
            .expect("workload shapes are valid scenarios")
    }

    fn sweep(&self, scenario: &mut Scenario) -> SweepReport {
        if self.models.is_empty() {
            scenario.sweep(self.seeds.iter().copied())
        } else {
            let grid = SweepGrid::seeds(self.seeds.iter().copied())
                .with_models(self.models.iter().copied());
            scenario.sweep_grid(&grid)
        }
    }

    /// The sweep's jobs in its point order, as `(grid model, seed index)`.
    fn jobs(&self) -> Vec<(Option<LinkRateModel>, usize)> {
        let seeds = 0..self.seeds.len();
        if self.models.is_empty() {
            seeds.map(|i| (None, i)).collect()
        } else {
            self.models
                .iter()
                .flat_map(|&m| seeds.clone().map(move |i| (Some(m), i)))
                .collect()
        }
    }
}

fn fig5_specs(seed: u64) -> Vec<SweepSpec> {
    let base = seed_base(seed);
    FIG5_FAMILIES
        .iter()
        .map(|&family| SweepSpec {
            family,
            nodes: 30,
            sessions: 8,
            max_receivers: 5,
            link_rates: LinkRateModel::RandomJoin { sigma: 6.0 },
            models: Vec::new(),
            seeds: (base..base + FIG5_SEEDS).collect(),
        })
        .collect()
}

fn hier_specs(seed: u64) -> Vec<SweepSpec> {
    let base = seed_base(seed);
    [
        (TopologyFamily::TransitStub { transit: 4 }, 96),
        (TopologyFamily::KaryTree { arity: 4 }, 85),
    ]
    .into_iter()
    .map(|(family, nodes)| SweepSpec {
        family,
        nodes,
        sessions: 8,
        max_receivers: 5,
        link_rates: LinkRateModel::Efficient,
        models: vec![
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::Sum,
        ],
        seeds: (base..base + HIER_SEEDS).collect(),
    })
    .collect()
}

/// Seconds spent in each layer by [`pipeline`], plus its exact counts.
#[derive(Default)]
struct LayerClock {
    topology: f64,
    topology_calls: u64,
    solve: f64,
    solve_us: Vec<f64>,
    iterations: u64,
    properties: f64,
    metrics: f64,
}

impl LayerClock {
    /// Busy time of the layers a sweep point passes through.
    fn point_layers(&self) -> f64 {
        self.topology + self.solve + self.properties + self.metrics
    }

    fn record(&self, v: &mut LayerValues) {
        v.set("net.topology.busy_s", self.topology);
        v.set("net.topology.calls", self.topology_calls as f64);
        v.set("core.allocator.busy_s", self.solve);
        v.set(
            "core.allocator.solve_us_p50",
            percentile(&self.solve_us, 50.0),
        );
        v.set(
            "core.allocator.solve_us_p99",
            percentile(&self.solve_us, 99.0),
        );
        v.set("core.maxmin.iterations", self.iterations as f64);
        v.set("core.properties.busy_s", self.properties);
        v.set("core.metrics.busy_s", self.metrics);
    }
}

/// The sweep's points composed from the public layer functions, each call
/// clocked into `clock`. Topologies are built once per seed and shared by
/// every grid model, as the scenario's topology memo shares them.
fn pipeline(spec: &SweepSpec, ws: &mut SolverWorkspace, clock: &mut LayerClock) -> Vec<Encoded> {
    let allocator = MultiRate::new();
    let nets: Vec<Network> = spec
        .seeds
        .iter()
        .map(|&seed| {
            let t = Instant::now();
            let net = random_network_with(
                spec.family,
                seed,
                spec.nodes,
                spec.sessions,
                spec.max_receivers,
            )
            .expect("workload shapes are valid topologies");
            clock.topology += t.elapsed().as_secs_f64();
            clock.topology_calls += 1;
            net
        })
        .collect();
    let mut out = Vec::new();
    for (model, i) in spec.jobs() {
        let net = &nets[i];
        let cfg = LinkRateConfig::uniform(net.session_count(), model.unwrap_or(spec.link_rates));
        let t0 = Instant::now();
        let solution = allocator
            .solve_with(net, &cfg, ws)
            .expect("multi-rate solves under any link-rate config");
        let t1 = Instant::now();
        let fairness = check_all(net, &cfg, &solution.allocation);
        let t2 = Instant::now();
        let metrics = ScenarioMetrics {
            jain_index: jain_index(&solution.allocation),
            min_rate: solution.allocation.min_rate(),
            total_rate: solution.allocation.total_rate(),
            satisfaction: satisfaction(net, &solution.allocation),
            iterations: solution.iterations,
        };
        let t3 = Instant::now();
        let solve = (t1 - t0).as_secs_f64();
        clock.solve += solve;
        clock.solve_us.push(solve * 1e6);
        clock.iterations += solution.iterations as u64;
        clock.properties += (t2 - t1).as_secs_f64();
        clock.metrics += (t3 - t2).as_secs_f64();
        out.push(encode_point(&SweepPoint {
            seed: spec.seeds[i],
            model,
            metrics,
            properties_holding: Some(fairness.count_holding()),
        }));
    }
    out
}

/// Encode every point, clocking the encoder (the checkpoint layer).
fn encode_all(points: &[SweepPoint], busy: &mut f64) -> Vec<Encoded> {
    let t = Instant::now();
    let out = points.iter().map(encode_point).collect();
    *busy += t.elapsed().as_secs_f64();
    out
}

fn digest(reference: &[Vec<Encoded>]) -> u64 {
    let mut h = crate::measure::Fnv::new();
    for p in reference.iter().flatten() {
        h.write(p);
    }
    h.finish()
}

/// `fig5_randomjoin` and `hier_linear_grid`: cold serial scenario sweeps,
/// checked against the benchmark's own composition of the layers.
pub struct SerialSweeps {
    specs: Vec<SweepSpec>,
    reference: Vec<Vec<Encoded>>,
    ws: SolverWorkspace,
    /// One cold scenario per spec for the next pass, built by `set_up`.
    scenarios: Vec<Scenario>,
}

impl SerialSweeps {
    pub fn fig5_randomjoin(seed: u64) -> Self {
        Self::new(fig5_specs(seed))
    }

    pub fn hier_linear_grid(seed: u64) -> Self {
        Self::new(hier_specs(seed))
    }

    fn new(specs: Vec<SweepSpec>) -> Self {
        let mut ws = SolverWorkspace::new();
        let reference = specs
            .iter()
            .map(|s| pipeline(s, &mut ws, &mut LayerClock::default()))
            .collect();
        SerialSweeps {
            specs,
            reference,
            ws,
            scenarios: Vec::new(),
        }
    }
}

/// The cold scenarios the last set-up built, one per spec; a pass uses
/// them up.
fn take_scenarios(scenarios: &mut Vec<Scenario>, specs: &[SweepSpec]) -> Vec<Scenario> {
    assert_eq!(scenarios.len(), specs.len(), "set_up precedes every pass");
    std::mem::take(scenarios)
}

impl Workload for SerialSweeps {
    fn reference_digest(&self) -> u64 {
        digest(&self.reference)
    }

    fn set_up(&mut self) {
        self.scenarios = self.specs.iter().map(SweepSpec::scenario).collect();
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::new(Kernel::Solver);
        let scenarios = take_scenarios(&mut self.scenarios, &self.specs);
        for ((spec, want), mut scenario) in self.specs.iter().zip(&self.reference).zip(scenarios) {
            let report = pass.clock.time(|| spec.sweep(&mut scenario));
            pass.points += report.points.len() as u64;
            let got: Vec<Encoded> = report.points.iter().map(encode_point).collect();
            check(&got, want, &mut pass);
        }
        pass
    }

    fn traced_pass(&mut self, _first: bool) -> TracedPass {
        let mut pass = Pass::new(Kernel::Solver);
        let mut clock = LayerClock::default();
        let mut cache = CacheStats::default();
        let (mut encode, mut traced_wall) = (0.0, 0.0);
        let scenarios = take_scenarios(&mut self.scenarios, &self.specs);
        for ((spec, want), mut scenario) in self.specs.iter().zip(&self.reference).zip(scenarios) {
            let report = pass.clock.time(|| spec.sweep(&mut scenario));
            pass.points += report.points.len() as u64;
            cache.merge(&report.cache);
            check(&encode_all(&report.points, &mut encode), want, &mut pass);

            let t = Instant::now();
            let traced = pipeline(spec, &mut self.ws, &mut clock);
            traced_wall += t.elapsed().as_secs_f64();
            check(&traced, want, &mut pass);
        }
        let mut v = LayerValues::default();
        clock.record(&mut v);
        record_cache(&mut v, &cache);
        let sweep_self = pass.clock.secs - clock.point_layers();
        v.set("scenario.sweep.self_s", sweep_self);
        v.set("scenario.checkpoint.busy_s", encode);
        let rows = vec![
            ("net.topology (random_network_with)", clock.topology),
            ("core.allocator (solve_with)", clock.solve),
            ("core.properties (check_all)", clock.properties),
            ("core.metrics", clock.metrics),
            ("scenario.sweep self (executor, cache)", sweep_self),
        ];
        TracedPass {
            traced_per_s: pass.points as f64 / traced_wall,
            pass,
            values: v,
            rows,
        }
    }
}

fn record_cache(v: &mut LayerValues, cache: &CacheStats) {
    v.set("scenario.cache.hits", cache.hits as f64);
    v.set("scenario.cache.misses", cache.misses as f64);
    v.set("scenario.cache.evictions", cache.evictions as f64);
    let total = cache.hits + cache.misses;
    v.set(
        "scenario.cache.hit_ratio",
        cache.hits as f64 / total.max(1) as f64,
    );
}

/// `fig5_fleet`: the `fig5_randomjoin` jobs through `Scenario::coordinate`
/// on a two-process fleet, checked against the serial sweep.
pub struct Fleet {
    specs: Vec<SweepSpec>,
    reference: Vec<Vec<Encoded>>,
    ws: SolverWorkspace,
    /// The next pass's coordinator configuration and one scenario per
    /// spec, built by `set_up`.
    cfg: CoordinatorConfig,
    scenarios: Vec<Scenario>,
}

impl Fleet {
    pub fn fig5(seed: u64) -> Self {
        let specs = fig5_specs(seed);
        let reference = specs
            .iter()
            .map(|s| {
                let points = s.sweep(&mut s.scenario()).points;
                points.iter().map(encode_point).collect()
            })
            .collect();
        Fleet {
            specs,
            reference,
            ws: SolverWorkspace::new(),
            cfg: fleet_config(),
            scenarios: Vec::new(),
        }
    }

    /// One coordinated sweep, checked; its stats when it succeeded.
    fn coordinate(
        &self,
        scenario: &Scenario,
        seeds: &[u64],
        want: &[Encoded],
        pass: &mut Pass,
        encode: &mut f64,
    ) -> Option<CoordinatorStats> {
        let result = pass
            .clock
            .time(|| scenario.coordinate(seeds.iter().copied(), &self.cfg));
        match result {
            Ok(out) => {
                pass.points += out.report.points.len() as u64;
                check(&encode_all(&out.report.points, encode), want, pass);
                Some(out.stats)
            }
            Err(e) => {
                eprintln!("coordinate failed: {e}");
                pass.attempted += want.len() as u64;
                pass.failed += want.len() as u64;
                None
            }
        }
    }
}

/// Exactly `fig5_random_joins --coordinate-procs 2`.
fn fleet_config() -> CoordinatorConfig {
    CoordinatorConfig {
        workers: 2,
        transport: TransportKind::Process(ProcessConfig::default()),
        ..CoordinatorConfig::default()
    }
}

impl Workload for Fleet {
    fn reference_digest(&self) -> u64 {
        digest(&self.reference)
    }

    fn note(&self) -> Option<&'static str> {
        Some("(fig5_fleet: peak RSS is the coordinator process only; the two worker processes are not counted)")
    }

    fn set_up(&mut self) {
        self.cfg = fleet_config();
        self.scenarios = self.specs.iter().map(SweepSpec::scenario).collect();
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::new(Kernel::Solver);
        let scenarios = take_scenarios(&mut self.scenarios, &self.specs);
        for ((spec, want), scenario) in self.specs.iter().zip(&self.reference).zip(&scenarios) {
            self.coordinate(scenario, &spec.seeds, want, &mut pass, &mut 0.0);
        }
        pass
    }

    fn traced_pass(&mut self, _first: bool) -> TracedPass {
        let mut pass = Pass::new(Kernel::Solver);
        let mut clock = LayerClock::default();
        let mut stats = CoordinatorStats::default();
        let mut fallbacks = 0u64;
        let mut encode = 0.0;
        let scenarios = take_scenarios(&mut self.scenarios, &self.specs);
        for ((spec, want), scenario) in self.specs.iter().zip(&self.reference).zip(&scenarios) {
            if let Some(s) = self.coordinate(scenario, &spec.seeds, want, &mut pass, &mut encode) {
                stats.shards += s.shards;
                stats.retries += s.retries;
                stats.timeouts += s.timeouts;
                stats.hash_rejects += s.hash_rejects;
                stats.spot_checks_passed += s.spot_checks_passed;
                stats.spot_checks_skipped += s.spot_checks_skipped;
                stats.respawns += s.respawns;
                stats.frames_rejected += s.frames_rejected;
                fallbacks += u64::from(s.serial_fallback);
            }
            let traced = pipeline(spec, &mut self.ws, &mut clock);
            check(&traced, want, &mut pass);
        }
        // The fleet's fixed cost: spawn, init and shut down a fleet around
        // a one-shard sweep.
        let (spec, want) = (&self.specs[0], &self.reference[0]);
        let mut fixed = Pass::new(Kernel::Solver);
        let scenario = spec.scenario();
        self.coordinate(
            &scenario,
            &spec.seeds[..1],
            &want[..1],
            &mut fixed,
            &mut 0.0,
        );
        pass.attempted += fixed.attempted;
        pass.failed += fixed.failed;
        let calls = self.specs.len() as f64;

        let jobs = pass.points as f64;
        let recomputes =
            stats.spot_checks_passed as f64 * self.cfg.spot_check.min(self.cfg.shard_size) as f64;
        let mut v = LayerValues::default();
        clock.record(&mut v);
        v.set("scenario.checkpoint.busy_s", encode);
        v.set("scenario.coordinator.shards", stats.shards as f64);
        v.set("scenario.coordinator.retries", stats.retries as f64);
        v.set("scenario.coordinator.timeouts", stats.timeouts as f64);
        v.set(
            "scenario.coordinator.hash_rejects",
            stats.hash_rejects as f64,
        );
        v.set(
            "scenario.coordinator.spot_checks_passed",
            stats.spot_checks_passed as f64,
        );
        v.set(
            "scenario.coordinator.spot_checks_skipped",
            stats.spot_checks_skipped as f64,
        );
        v.set("scenario.coordinator.respawns", stats.respawns as f64);
        v.set(
            "scenario.coordinator.frames_rejected",
            stats.frames_rejected as f64,
        );
        v.set("scenario.coordinator.serial_fallback", fallbacks as f64);
        v.set(
            "scenario.coordinator.useful_ratio",
            jobs / (jobs + recomputes),
        );
        v.set("scenario.coordinator.fixed_s", fixed.clock.secs);
        // The workers' share of the solve work, estimated from the same
        // jobs composed serially: every computed job (spot checks
        // included) split evenly over the workers.
        let workers = self.cfg.workers as f64;
        let rows = vec![
            (
                "scenario.coordinator fixed (fixed_s x calls)",
                fixed.clock.secs * calls,
            ),
            (
                "net+core work per worker (estimated)",
                clock.point_layers() * (jobs + recomputes) / jobs / workers,
            ),
            ("scenario.checkpoint (encode_point)", encode),
        ];
        TracedPass {
            traced_per_s: pass.points as f64 / pass.clock.secs,
            pass,
            values: v,
            rows,
        }
    }
}
