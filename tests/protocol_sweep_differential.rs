//! Differential test for protocol thread sweeps:
//! `ProtocolScenario::coordinate` on `CoordinatorConfig::threads(n)` must
//! be **bitwise identical** to the serial `sweep` for the same grid, at
//! any thread count, across all
//! `ProtocolKind`s and a loss grid — the same contract the allocator
//! sweeps prove in `parallel_sweep_differential.rs`, now for the Figure 8
//! path.
//!
//! The per-thread-count tests are named so CI can pin the 2- and 8-thread
//! configurations explicitly:
//! `cargo test --test protocol_sweep_differential -- two_threads eight_threads`.

use mlf_protocols::experiment::{figure8_series, Figure8Point};
use multicast_fairness::prelude::*;

/// A scaled-down star (8 receivers, 4k packets, 2 trials) so the full
/// differential grid stays fast; determinism does not depend on scale.
fn scenario() -> ProtocolScenario {
    ProtocolScenario::builder()
        .label("differential/protocols")
        .template(ExperimentParams {
            receivers: 8,
            packets: 4_000,
            trials: 2,
            ..ExperimentParams::quick(0.001, 0.0).expect("valid template losses")
        })
        .build()
        .expect("valid differential protocol scenario")
}

/// All three protocols × a 4-point loss grid × 2 replicate seeds = 24
/// points per sweep. Everything a point carries (trial statistics, loss
/// tags, seeds, latencies) must agree to the bit — `ProtocolSweepReport`
/// equality compares raw f64s, so any divergence in merge order, shard
/// boundaries, or per-job seeding fails the assert.
fn grid() -> ProtocolSweepGrid {
    ProtocolSweepGrid::independent_losses([0.0, 0.02, 0.05, 0.09]).with_seeds([11, 12])
}

/// The grid on an `n`-thread fleet, which must run every requested
/// worker, up to one per job.
fn threads(s: &ProtocolScenario, g: &ProtocolSweepGrid, n: usize) -> ProtocolSweepReport {
    let run = s
        .coordinate(g, &CoordinatorConfig::threads(n))
        .expect("thread sweep");
    assert_eq!(run.stats.workers, n.min(run.report.points.len()) as u64);
    run.report
}

fn assert_identical_at(n: usize) {
    let s = scenario();
    let g = grid();
    assert_eq!(g.kinds, ProtocolKind::ALL.to_vec());
    let serial = s.sweep(&g);
    assert_eq!(serial.points.len(), 3 * 4 * 2);
    assert_eq!(
        serial,
        threads(&s, &g, n),
        "protocol sweep on {n} threads diverged from serial"
    );
    // Every protocol kind must actually be exercised by the grid.
    for kind in ProtocolKind::ALL {
        assert_eq!(serial.points_for(kind).count(), 8, "{}", kind.label());
    }
}

#[test]
fn protocol_sweep_matches_serial_on_two_threads() {
    assert_identical_at(2);
}

#[test]
fn protocol_sweep_matches_serial_on_four_threads() {
    assert_identical_at(4);
}

#[test]
fn protocol_sweep_matches_serial_on_eight_threads() {
    assert_identical_at(8);
}

#[test]
fn protocol_sweep_matches_serial_with_more_threads_than_jobs() {
    // Thread counts beyond the shard count collapse to one worker per
    // shard; the merge contract must still hold.
    assert_identical_at(64);
}

#[test]
fn latency_axis_sweep_matches_serial_at_any_thread_count() {
    // The Section 5 latency ablation as a grid axis: (3 protocols × 2
    // losses × 3 latency pairs × 2 seeds) = 36 points, serial vs parallel
    // bitwise — and every latency pair must be represented with its tags.
    let s = scenario();
    let g = ProtocolSweepGrid::independent_losses([0.0, 0.04])
        .with_latencies([(0, 0), (4, 25), (13, 0)])
        .with_seeds([11, 12]);
    let serial = s.sweep(&g);
    assert_eq!(serial.points.len(), 3 * 2 * 3 * 2);
    for n in [2, 8, 64] {
        assert_eq!(
            serial,
            threads(&s, &g, n),
            "latency-axis sweep on {n} threads diverged from serial"
        );
    }
    for &(join, leave) in &[(0u64, 0u64), (4, 25), (13, 0)] {
        assert_eq!(
            serial
                .points
                .iter()
                .filter(|p| p.join_latency == join && p.leave_latency == leave)
                .count(),
            12,
            "latency pair ({join},{leave})"
        );
    }
}

#[test]
fn per_receiver_distributions_ride_the_sweep_points() {
    // Satellite of the latency axis: every sweep point carries the
    // per-receiver goodput / mean-level distributions (receivers × trials
    // observations), identical across the serial and parallel paths (the
    // whole-report equality above already pins that; this pins the shape).
    let s = scenario();
    let g = grid();
    let report = s.sweep(&g);
    for p in &report.points {
        assert_eq!(p.receiver_goodput().count(), 8 * 2);
        assert_eq!(p.receiver_mean_level().count(), 8 * 2);
        assert!(p.receiver_goodput().min() >= 0.0);
        assert!(p.receiver_goodput().max() >= p.receiver_goodput().min());
    }
}

#[test]
fn figure8_through_the_executor_matches_the_serial_series() {
    // A Figure 8 grid, regrouped one loss point per chunk of protocols,
    // must reproduce the classic serial `figure8_series` output bit for
    // bit, serially and at any thread count.
    let s = scenario();
    let losses = [0.0, 0.03, 0.07];
    let series = figure8_series(s.template(), &losses);
    let g = ProtocolSweepGrid::independent_losses(losses);
    let serial = s.sweep(&g);
    for report in [&serial, &threads(&s, &g, 2), &threads(&s, &g, 8)] {
        let regrouped: Vec<Figure8Point> = report
            .points
            .chunks(ProtocolKind::ALL.len())
            .map(|cell| Figure8Point {
                independent_loss: cell[0].independent_loss,
                outcomes: cell.iter().map(|p| p.outcome.clone()).collect(),
            })
            .collect();
        assert_eq!(regrouped, series, "sweep diverged from figure8_series");
    }
}

#[test]
fn repeated_sweeps_are_reproducible() {
    // The whole chain (grid expansion, per-job seeding, trial RNGs) is a
    // pure function of the spec: two sweeps of the same grid are equal.
    let s = scenario();
    let g = grid();
    assert_eq!(s.sweep(&g), s.sweep(&g));
}
