//! The cross-sweep topology/solve cache.
//!
//! Grid sweeps re-derive the same work over and over: `sweep_grid` visits
//! every `(link-rate model, seed)` cell, rebuilding the seeded topology
//! once *per model* and re-solving cells that repeat across sweep calls
//! (benches, figure binaries that sweep the same grid with different
//! reporting, warm re-runs). A [`SolveCache`] memoizes both layers:
//!
//! * **Topology cache** — built [`Network`]s keyed by
//!   [`TopologyKey`] `(family, shape params, seed)`, shared across every
//!   model of a grid, behind an [`Arc`] so a hit costs one refcount.
//! * **Solve cache** — finished [`SweepPoint`]s keyed by [`SolveKey`]
//!   `(family, shape params, seed, effective link-rate model)`.
//!
//! # Cache-key semantics (what invalidates an entry)
//!
//! A key captures *everything* that can change a sweep point inside one
//! scenario: the topology family and its shape parameters, the seed, and
//! the **effective** uniform link-rate model (a grid override of
//! `Scaled(2.0)` and a scenario default of `Uniform(Scaled(2.0))` are the
//! same solve and share an entry; model parameters are compared by exact
//! bit pattern, so `Scaled(2.0)` and `Scaled(2.0 + ε)` never collide).
//! Everything else that shapes a point — the allocator configuration and
//! the property-audit switch — stays out of the key: every cache belongs
//! to exactly one scenario (the scenario's own serial cache, or one
//! parallel or coordinator worker's), so it only ever sees one
//! configuration. Scenarios whose link rates are an explicit per-session
//! [`LinkRateConfig`](mlf_core::LinkRateConfig) are not representable as a
//! uniform model key and bypass the cache entirely.
//!
//! Entries never expire by time; capacity is the only pressure. Both maps
//! evict in insertion (FIFO) order once their capacity is reached, and
//! solve-entry evictions are reported in [`CacheStats::evictions`].
//!
//! # Determinism
//!
//! A hit returns a clone of a point the same scenario previously computed
//! from the same key — and every point is a pure function of its key
//! within a scenario — so cached sweeps are **bitwise identical** to
//! uncached ones. The parallel executors give each worker its own cache
//! (worker-local state, like its `SolverWorkspace`), preserving the
//! serial/parallel bitwise contract at any thread count.

use crate::SweepPoint;
use mlf_core::LinkRateModel;
use mlf_net::{Network, TopologyFamily};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default bound on memoized sweep points.
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
pub const DEFAULT_POINT_CAPACITY: usize = 4096;
/// Default bound on memoized built topologies.
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
pub const DEFAULT_NETWORK_CAPACITY: usize = 256;

/// Cache telemetry: solve-cache hits/misses and capacity evictions.
///
/// Reported on [`SweepReport::cache`](crate::SweepReport::cache) so
/// examples and figure binaries can print cache effectiveness. Telemetry
/// is execution-history-dependent (a warm scenario hits where a cold one
/// misses) and therefore deliberately **not** part of `SweepReport`
/// equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sweep points served from the cache.
    pub hits: u64,
    /// Sweep points that had to be solved.
    pub misses: u64,
    /// Solve entries dropped to the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    // mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0 when there were none).
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Accumulate another stats block (merging parallel workers).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// The counters accumulated since `before` was captured (one sweep's
    /// share of a longer-lived cache's totals). Saturating: passing
    /// snapshots in the wrong order yields zeros, not wrapped counts.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            evictions: self.evictions.saturating_sub(before.evictions),
        }
    }
}

/// Hashable identity of a topology family (model parameters by bit
/// pattern, so keys are `Eq + Hash` despite the `f64`s upstream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FamilyKey {
    /// A fixed network (shape parameters unused).
    Fixed,
    FlatTree,
    KaryTree(usize),
    TransitStub(usize),
    Dumbbell,
}

impl From<TopologyFamily> for FamilyKey {
    fn from(f: TopologyFamily) -> Self {
        match f {
            TopologyFamily::FlatTree => FamilyKey::FlatTree,
            TopologyFamily::KaryTree { arity } => FamilyKey::KaryTree(arity),
            TopologyFamily::TransitStub { transit } => FamilyKey::TransitStub(transit),
            TopologyFamily::Dumbbell => FamilyKey::Dumbbell,
        }
    }
}

/// Hashable identity of a uniform link-rate model (parameters by exact bit
/// pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ModelKey {
    Efficient,
    Scaled(u64),
    Sum,
    RandomJoin(u64),
}

impl From<LinkRateModel> for ModelKey {
    fn from(m: LinkRateModel) -> Self {
        match m {
            LinkRateModel::Efficient => ModelKey::Efficient,
            LinkRateModel::Scaled(v) => ModelKey::Scaled(v.to_bits()),
            LinkRateModel::Sum => ModelKey::Sum,
            LinkRateModel::RandomJoin { sigma } => ModelKey::RandomJoin(sigma.to_bits()),
        }
    }
}

/// The identity of one seeded topology build: `(family, shape, seed)`.
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopologyKey {
    family: FamilyKey,
    nodes: usize,
    sessions: usize,
    max_receivers: usize,
    seed: u64,
}

impl TopologyKey {
    /// A key for one seed of a random-network source.
    // mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
    pub fn random(
        family: TopologyFamily,
        nodes: usize,
        sessions: usize,
        max_receivers: usize,
        seed: u64,
    ) -> Self {
        TopologyKey {
            family: family.into(),
            nodes,
            sessions,
            max_receivers,
            seed,
        }
    }

    /// The key of a fixed-network source. Fixed solves are
    /// seed-independent (the sweep seed only labels the produced point),
    /// so every seed shares one entry — the cache consumer restores the
    /// requesting seed on its point, like it restores the model label.
    pub fn fixed() -> Self {
        TopologyKey {
            family: FamilyKey::Fixed,
            nodes: 0,
            sessions: 0,
            max_receivers: 0,
            seed: 0,
        }
    }
}

/// The identity of one sweep point's solve: a [`TopologyKey`] and the
/// effective uniform link-rate model.
// mlf-lint: allow(unused-pub, reason = "documented public API; doc examples and links are invisible to the analyzer")
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveKey {
    topology: TopologyKey,
    model: ModelKey,
}

impl SolveKey {
    /// A key from the topology identity and the effective model.
    pub fn new(topology: TopologyKey, model: LinkRateModel) -> Self {
        SolveKey {
            topology,
            model: model.into(),
        }
    }

    /// The topology component (what the network cache is keyed by).
    pub fn topology(&self) -> TopologyKey {
        self.topology
    }
}

/// A bounded FIFO memo of solved sweep points and built topologies (see
/// the [module docs](self) for key semantics and the determinism
/// argument).
#[derive(Debug, Default)]
pub struct SolveCache {
    point_capacity: usize,
    network_capacity: usize,
    points: HashMap<SolveKey, SweepPoint>,
    point_order: VecDeque<SolveKey>,
    networks: HashMap<TopologyKey, Arc<Network>>,
    network_order: VecDeque<TopologyKey>,
    stats: CacheStats,
}

impl SolveCache {
    /// A cache with the default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_POINT_CAPACITY, DEFAULT_NETWORK_CAPACITY)
    }

    /// A cache bounded to `points` memoized solves and `networks` built
    /// topologies. A zero `points` capacity disables solve memoization
    /// (topology reuse still applies unless `networks` is also zero).
    pub fn with_capacity(points: usize, networks: usize) -> Self {
        SolveCache {
            point_capacity: points,
            network_capacity: networks,
            ..SolveCache::default()
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no sweep points are memoized.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The configured solve-entry capacity.
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn point_capacity(&self) -> usize {
        self.point_capacity
    }

    /// The configured topology-entry capacity.
    // mlf-lint: allow(unused-pub, reason = "intentional API surface kept public alongside its siblings")
    pub fn network_capacity(&self) -> usize {
        self.network_capacity
    }

    /// Look up a memoized point. Counts a hit or a miss.
    pub fn point(&mut self, key: &SolveKey) -> Option<SweepPoint> {
        match self.points.get(key) {
            Some(p) => {
                self.stats.hits += 1;
                Some(p.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoize a freshly solved point, evicting the oldest entry at
    /// capacity. No-op when solve memoization is disabled.
    pub(crate) fn insert_point(&mut self, key: SolveKey, point: SweepPoint) {
        if self.point_capacity == 0 {
            return;
        }
        if !self.points.contains_key(&key) {
            if self.points.len() >= self.point_capacity {
                if let Some(oldest) = self.point_order.pop_front() {
                    if self.points.remove(&oldest).is_some() {
                        self.stats.evictions += 1;
                    }
                }
            }
            self.point_order.push_back(key);
        }
        self.points.insert(key, point);
    }

    /// The built topology for `key`, building (and memoizing) it on first
    /// use. Does not touch the hit/miss counters — topology reuse is the
    /// mechanism *inside* a solve miss, not a separate lookup class.
    pub fn network(&mut self, key: TopologyKey, build: impl FnOnce() -> Network) -> Arc<Network> {
        if let Some(net) = self.networks.get(&key) {
            return Arc::clone(net);
        }
        let net = Arc::new(build());
        if self.network_capacity > 0 {
            if self.networks.len() >= self.network_capacity {
                if let Some(oldest) = self.network_order.pop_front() {
                    self.networks.remove(&oldest);
                }
            }
            self.network_order.push_back(key);
            self.networks.insert(key, Arc::clone(&net));
        }
        net
    }

    /// Drop every entry (counters are preserved — they describe history,
    /// not contents).
    pub fn clear(&mut self) {
        self.points.clear();
        self.point_order.clear();
        self.networks.clear();
        self.network_order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioMetrics;

    fn dummy_point(seed: u64) -> SweepPoint {
        SweepPoint {
            seed,
            model: None,
            metrics: ScenarioMetrics {
                jain_index: 1.0,
                min_rate: seed as f64,
                total_rate: 2.0 * seed as f64,
                satisfaction: 0.5,
                iterations: 3,
            },
            properties_holding: Some(4),
        }
    }

    fn key(seed: u64, model: LinkRateModel) -> SolveKey {
        SolveKey::new(
            TopologyKey::random(TopologyFamily::FlatTree, 10, 3, 3, seed),
            model,
        )
    }

    #[test]
    fn hits_misses_and_evictions_are_counted() {
        let mut c = SolveCache::with_capacity(2, 2);
        let k0 = key(0, LinkRateModel::Efficient);
        let k1 = key(1, LinkRateModel::Efficient);
        let k2 = key(2, LinkRateModel::Efficient);
        assert!(c.point(&k0).is_none());
        c.insert_point(k0, dummy_point(0));
        assert_eq!(c.point(&k0).unwrap().seed, 0);
        assert!(c.point(&k1).is_none());
        c.insert_point(k1, dummy_point(1));
        assert!(c.point(&k2).is_none());
        c.insert_point(k2, dummy_point(2)); // evicts k0 (FIFO)
        assert!(c.point(&k0).is_none(), "oldest entry evicted");
        assert_eq!(c.point(&k2).unwrap().seed, 2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 1));
        assert_eq!(s.lookups(), 6);
        assert!((s.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn behavior_depends_only_on_the_operation_sequence() {
        // Every `SolveCache` instance owns `HashMap`s with their own
        // `RandomState` seeds, so any internal reliance on map iteration
        // order (e.g. for eviction) would make two caches replaying the
        // same operation trace diverge. Replay several permuted traces on
        // independent instances and require identical per-op results,
        // identical stats, and identical surviving entries.
        let orders: [[u64; 6]; 4] = [
            [0, 1, 2, 3, 4, 5],
            [5, 4, 3, 2, 1, 0],
            [3, 0, 5, 2, 4, 1],
            [2, 5, 0, 4, 1, 3],
        ];
        for order in orders {
            let run = |order: &[u64]| {
                let mut c = SolveCache::with_capacity(3, 3);
                let mut trace = Vec::new();
                for &s in order {
                    let k = key(s, LinkRateModel::Efficient);
                    trace.push(c.point(&k).map(|p| p.seed));
                    c.insert_point(k, dummy_point(s));
                }
                // Final lookups over every key: capacity 3 must have kept
                // exactly the last three inserts, FIFO order, regardless of
                // the maps' hash seeds.
                for &s in order {
                    trace.push(c.point(&key(s, LinkRateModel::Efficient)).map(|p| p.seed));
                }
                (trace, c.stats())
            };
            let (trace_a, stats_a) = run(&order);
            let (trace_b, stats_b) = run(&order);
            assert_eq!(trace_a, trace_b, "instance-dependent trace for {order:?}");
            assert_eq!(stats_a, stats_b, "instance-dependent stats for {order:?}");
            let survivors: Vec<Option<u64>> = order[..3].iter().map(|_| None).collect();
            assert_eq!(
                &trace_a[6..9],
                &survivors[..],
                "first three inserts of {order:?} must be evicted (FIFO)"
            );
            assert_eq!(
                &trace_a[9..],
                &order[3..].iter().map(|&s| Some(s)).collect::<Vec<_>>()[..],
                "last three inserts of {order:?} must survive"
            );
        }
    }

    #[test]
    fn model_parameters_key_by_bit_pattern() {
        let mut c = SolveCache::new();
        c.insert_point(key(0, LinkRateModel::Scaled(2.0)), dummy_point(0));
        assert!(c.point(&key(0, LinkRateModel::Scaled(2.0))).is_some());
        assert!(c
            .point(&key(0, LinkRateModel::Scaled(2.0 + 1e-12)))
            .is_none());
        assert!(c
            .point(&key(0, LinkRateModel::RandomJoin { sigma: 2.0 }))
            .is_none());
        assert!(c.point(&key(0, LinkRateModel::Efficient)).is_none());
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut c = SolveCache::with_capacity(0, 0);
        let k = key(7, LinkRateModel::Sum);
        c.insert_point(k, dummy_point(7));
        assert!(c.point(&k).is_none());
        assert_eq!(c.stats().evictions, 0);
        // Networks are rebuilt every time at zero capacity.
        let mut builds = 0;
        for _ in 0..2 {
            let _ = c.network(TopologyKey::fixed(), || {
                builds += 1;
                mlf_net::topology::random_network(0, 6, 2, 2).unwrap()
            });
        }
        assert_eq!(builds, 2);
    }

    #[test]
    fn network_cache_builds_once_per_key() {
        let mut c = SolveCache::new();
        let tk = TopologyKey::random(TopologyFamily::FlatTree, 12, 4, 4, 3);
        let mut builds = 0;
        for _ in 0..3 {
            let net = c.network(tk, || {
                builds += 1;
                mlf_net::topology::random_network(3, 12, 4, 4).unwrap()
            });
            assert_eq!(net.session_count(), 4);
        }
        assert_eq!(builds, 1, "topology built exactly once");
        // Stats untouched by topology traffic.
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn stats_merge_and_since() {
        let mut a = CacheStats {
            hits: 3,
            misses: 2,
            evictions: 1,
        };
        let b = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        a.merge(&b);
        assert_eq!(
            a,
            CacheStats {
                hits: 4,
                misses: 3,
                evictions: 1
            }
        );
        let since = a.since(&b);
        assert_eq!(
            since,
            CacheStats {
                hits: 3,
                misses: 2,
                evictions: 1
            }
        );
    }
}
