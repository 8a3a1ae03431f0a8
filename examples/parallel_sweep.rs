//! Parallel sweeps over structurally diverse random topologies.
//!
//! This example shows two capabilities together:
//!
//! * `TopologyFamily` — the sweep below draws networks from four different
//!   structural families (flat random trees, balanced k-ary trees,
//!   transit–stub hierarchies, dumbbell meshes) instead of one tree shape;
//! * `Scenario::coordinate` with `CoordinatorConfig::threads` — each
//!   family's 48-seed sweep is sharded across worker threads, and the
//!   merged points are *bitwise identical* to the serial `sweep`, which
//!   the example asserts before reporting.
//!
//! Run with `cargo run --release --example parallel_sweep`.

use multicast_fairness::prelude::*;

fn main() {
    let seeds = 0u64..48;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Sweeping {} seeds per family across {threads} worker thread(s)\n",
        seeds.end
    );

    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 2 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];

    let mut cache_lines = Vec::new();
    println!(
        "{:<14} {:>10} {:>14} {:>16}",
        "family", "mean Jain", "mean min rate", "all-props rate"
    );
    for family in families {
        let mut scenario = Scenario::builder()
            .label(format!("parallel-sweep/{}", family.label()))
            .random_networks_with(family, 24, 6, 5)
            .allocator(MultiRate::new())
            .build()
            .expect("valid sweep parameters");

        // The parallel engine must reproduce the serial sweep exactly —
        // same seeds, same bits, regardless of thread count. (Cache
        // telemetry is not part of report equality: the serial sweep uses
        // the scenario's persistent cache, parallel workers their own.)
        let serial = scenario.sweep(seeds.clone());
        let parallel = scenario
            .coordinate(seeds.clone(), &CoordinatorConfig::threads(threads))
            .expect("thread sweeps succeed")
            .report;
        assert_eq!(
            serial,
            parallel,
            "parallel sweep diverged from serial for {}",
            family.label()
        );
        // A warm serial re-sweep is served from the scenario's solve cache.
        let warm = scenario.sweep(seeds.clone());
        assert_eq!(serial, warm);
        cache_lines.push(format!(
            "{:<14} cold: {} misses -> warm re-sweep: {} hits / {} misses",
            family.label(),
            serial.cache.misses,
            warm.cache.hits,
            warm.cache.misses,
        ));

        println!(
            "{:<14} {:>10.4} {:>14.4} {:>16.3}",
            family.label(),
            parallel.mean_jain(),
            parallel.mean_min_rate(),
            parallel.all_properties_rate(),
        );
    }

    // Each scenario's solve cache replays a repeated sweep without
    // re-solving a single point (bitwise identically — asserted above).
    println!("\nSolve-cache effectiveness per family:");
    for line in &cache_lines {
        println!("  {line}");
    }

    // Degenerate requests fail loudly at build time instead of silently
    // running a different experiment.
    match Scenario::builder().random_networks(1, 0, 3).build() {
        Err(err) => println!("\nDegenerate sweep request is rejected: {err}"),
        Ok(_) => unreachable!("a 1-node 0-session sweep must not build"),
    }
}
