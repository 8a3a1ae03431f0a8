//! Differential test for thread sweeps: `Scenario::coordinate` and
//! `Scenario::coordinate_grid` on `CoordinatorConfig::threads(n)` must be
//! **bitwise identical** to the serial `sweep`/`sweep_grid` for the same
//! seeds, at any thread count.
//!
//! The per-thread-count tests are named so CI can pin the 2- and 8-thread
//! configurations explicitly:
//! `cargo test --test parallel_sweep_differential -- two_threads eight_threads`.

use multicast_fairness::prelude::*;

/// Families × allocators the differential runs over. Everything the sweep
/// reports (metrics, property counts, model tags) must agree to the bit —
/// `SweepReport` equality compares raw f64s, so any divergence in merge
/// order, workspace reuse, or per-thread solve state fails the assert.
fn scenarios() -> Vec<Scenario> {
    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];
    families
        .into_iter()
        .map(|family| {
            Scenario::builder()
                .label(format!("differential/{}", family.label()))
                .random_networks_with(family, 18, 5, 4)
                .allocator(MultiRate::new())
                .build()
                .expect("valid differential scenario")
        })
        .collect()
}

fn assert_identical_at(threads: usize) {
    let cfg = CoordinatorConfig::threads(threads);
    for mut scenario in scenarios() {
        let label = scenario.label().to_string();
        let serial = scenario.sweep(0..32);
        let parallel = scenario.coordinate(0..32, &cfg).expect("thread sweep");
        assert_eq!(
            serial, parallel.report,
            "{label}: coordinate on {threads} threads diverged"
        );
        // Every requested worker runs, up to one per job.
        assert_eq!(parallel.stats.workers, threads.min(32) as u64);

        let grid = SweepGrid::seeds(0..8).with_models([
            LinkRateModel::Efficient,
            LinkRateModel::Scaled(2.0),
            LinkRateModel::RandomJoin { sigma: 4.0 },
        ]);
        let serial_grid = scenario.sweep_grid(&grid);
        let parallel_grid = scenario.coordinate_grid(&grid, &cfg).expect("thread sweep");
        assert_eq!(
            serial_grid, parallel_grid.report,
            "{label}: coordinate_grid on {threads} threads diverged"
        );
    }
}

#[test]
fn parallel_sweep_matches_serial_on_two_threads() {
    assert_identical_at(2);
}

#[test]
fn parallel_sweep_matches_serial_on_four_threads() {
    assert_identical_at(4);
}

#[test]
fn parallel_sweep_matches_serial_on_eight_threads() {
    assert_identical_at(8);
}

#[test]
fn parallel_sweep_matches_serial_with_more_threads_than_seeds() {
    // Thread counts beyond the shard count collapse to one worker per
    // shard; the merge contract must still hold.
    assert_identical_at(64);
}

#[test]
fn fixed_network_sweeps_also_shard_cleanly() {
    // Fixed sources ignore seeds, but the sweep path is shared; a
    // layered scenario exercises the report-side state too.
    let example = mlf_net::paper::figure2();
    let mut scenario = Scenario::builder()
        .label("differential/fixed")
        .network(example.network.clone())
        .allocator(Hybrid::as_declared())
        .layering(LayerSchedule::exponential(4))
        .build()
        .unwrap();
    let serial = scenario.sweep(0..16);
    for threads in [2, 8] {
        let parallel = scenario.coordinate(0..16, &CoordinatorConfig::threads(threads));
        assert_eq!(serial, parallel.expect("thread sweep").report);
    }
}
