//! The per-layer metric registry and the traced run's reporting: medians
//! of timings, exact-repeat checks of counters, and the "where the time
//! goes" table.
//!
//! Every metric here is measured from outside the library, around calls
//! to the public function of its layer. Time metrics are seconds per pass
//! (or microseconds per solve); counts are per pass and exact.

use crate::measure::{median, Fnv};
use std::collections::BTreeMap;

/// How a per-layer metric is aggregated over a run's traced passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A deterministic count: identical in every pass, or the run fails.
    Exact,
    /// A time, a ratio, or a count that depends on timing (coordinator
    /// retries and the like): median over passes.
    Median,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> LayerMetric {
    LayerMetric { name, unit, kind }
}

/// Every per-layer metric the traced run prints, in `BENCHMARK.json`
/// order. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[LayerMetric] = &[
    m("net.topology.busy_s", "s", Kind::Median),
    m("net.topology.calls", "count", Kind::Exact),
    m("core.allocator.busy_s", "s", Kind::Median),
    m("core.allocator.solve_us_p50", "us", Kind::Median),
    m("core.allocator.solve_us_p99", "us", Kind::Median),
    m("core.maxmin.iterations", "count", Kind::Exact),
    m("core.properties.busy_s", "s", Kind::Median),
    m("core.metrics.busy_s", "s", Kind::Median),
    m("scenario.cache.hits", "count", Kind::Exact),
    m("scenario.cache.misses", "count", Kind::Exact),
    m("scenario.cache.evictions", "count", Kind::Exact),
    m("scenario.cache.hit_ratio", "ratio", Kind::Median),
    m("scenario.sweep.self_s", "s", Kind::Median),
    m("scenario.checkpoint.busy_s", "s", Kind::Median),
    m("scenario.coordinator.shards", "count", Kind::Exact),
    m("scenario.coordinator.retries", "count", Kind::Median),
    m("scenario.coordinator.timeouts", "count", Kind::Median),
    m("scenario.coordinator.hash_rejects", "count", Kind::Median),
    m(
        "scenario.coordinator.spot_checks_passed",
        "count",
        Kind::Exact,
    ),
    m(
        "scenario.coordinator.spot_checks_skipped",
        "count",
        Kind::Median,
    ),
    m("scenario.coordinator.respawns", "count", Kind::Median),
    m(
        "scenario.coordinator.frames_rejected",
        "count",
        Kind::Median,
    ),
    m(
        "scenario.coordinator.serial_fallback",
        "count",
        Kind::Median,
    ),
    m("scenario.coordinator.useful_ratio", "ratio", Kind::Median),
    m("scenario.coordinator.fixed_s", "s", Kind::Median),
    m("protocols.receiver.calls", "count", Kind::Exact),
    m("protocols.receiver.joins", "count", Kind::Exact),
    m("protocols.receiver.leaves", "count", Kind::Exact),
    m("protocols.receiver.busy_s", "s", Kind::Median),
    m("protocols.sender.marker_calls", "count", Kind::Exact),
    m("protocols.sender.busy_s", "s", Kind::Median),
    m("sim.engine.self_s", "s", Kind::Median),
    m("sim.engine.slots", "count", Kind::Exact),
    m("sim.engine.delivered", "count", Kind::Exact),
    m("sim.engine.shared_carried", "count", Kind::Exact),
    m("sim.engine.congestion_events", "count", Kind::Exact),
    m("sim.engine.delivered_ratio", "ratio", Kind::Median),
    m("protocols.run_point.busy_s", "s", Kind::Median),
    m("scenario.protocol.self_s", "s", Kind::Median),
    m("trace.untraced_per_s", "1/s", Kind::Median),
    m("trace.traced_per_s", "1/s", Kind::Median),
    m("trace.overhead_frac", "ratio", Kind::Median),
];

fn kind_of(name: &str) -> Kind {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"))
        .kind
}

/// Per-layer metric values of one traced pass (or their aggregate).
#[derive(Debug, Clone, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        kind_of(name);
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// FNV-1a over every exact counter, so two run sets can be compared
    /// by one printed number.
    pub fn counter_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, v) in &self.0 {
            if kind_of(name) == Kind::Exact {
                h.write(name.as_bytes());
                h.write_u64(v.to_bits());
            }
        }
        h.finish()
    }
}

/// The names of exact counters whose value differs between passes.
pub fn counter_drift<'a>(passes: impl Iterator<Item = &'a LayerValues>) -> Vec<&'static str> {
    let passes: Vec<&LayerValues> = passes.collect();
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .0
        .keys()
        .filter(|name| kind_of(name) == Kind::Exact)
        .filter(|name| passes.iter().any(|p| p.0.get(*name) != first.0.get(*name)))
        .copied()
        .collect()
}

/// Each metric's median over the passes (exact counters are equal in every
/// pass unless drift was reported, so their median is that value).
pub fn median_values<'a>(passes: impl Iterator<Item = &'a LayerValues>) -> LayerValues {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (&name, &v) in &p.0 {
            samples.entry(name).or_default().push(v);
        }
    }
    LayerValues(samples.into_iter().map(|(k, v)| (k, median(&v))).collect())
}

/// Print the "where the time goes" table of one pass: each layer's busy or
/// self time and its share of the pass wall time, then the remainder.
pub fn print_table(wall: f64, rows: &[(&'static str, f64)]) {
    println!("where the time goes (one traced pass, wall {wall:.6} s):");
    println!("  {:<44} {:>12} {:>8}", "layer", "seconds", "share");
    let mut attributed = 0.0;
    for &(name, secs) in rows {
        attributed += secs;
        println!("  {name:<44} {secs:>12.6} {:>7.1}%", 100.0 * secs / wall);
    }
    let rest = wall - attributed;
    println!(
        "  {:<44} {rest:>12.6} {:>7.1}%",
        "unattributed",
        100.0 * rest / wall
    );
}
