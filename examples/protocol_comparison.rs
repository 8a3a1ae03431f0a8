//! Run the three Section 4 congestion-control protocols on the Figure 7(b)
//! star and compare their shared-link redundancy — a scaled-down Figure 8
//! point run as a thread sweep on the `ProtocolScenario` coordinator, plus
//! the exact two-receiver Markov answer.
//!
//! Run with `cargo run --release --example protocol_comparison
//! [-- [--threads N] [--sweep-seeds N]]`. The sweep output is bitwise
//! independent of `--threads`; `--sweep-seeds` pools extra replicate base
//! seeds per protocol for tighter confidence intervals.

use mlf_protocols::{markov, ExperimentParams, ProtocolKind};
use mlf_scenario::{CoordinatorConfig, ProtocolScenario, ProtocolSweepGrid};
use mlf_sim::RunningStats;

/// Parse the example's two optional `--key value` knobs (threads,
/// sweep-seeds) without pulling in the bench crate's CLI.
fn parse_args() -> (usize, u64) {
    let (mut threads, mut sweep_seeds) = (0usize, 4u64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next();
        let parsed = value.as_deref().map(str::parse::<u64>);
        match (flag.as_str(), parsed) {
            ("--threads", Some(Ok(v))) => threads = v as usize,
            ("--sweep-seeds", Some(Ok(v))) if v > 0 => sweep_seeds = v,
            _ => {
                eprintln!(
                    "usage: protocol_comparison [--threads N] [--sweep-seeds N>=1] (got {flag:?})"
                );
                std::process::exit(2);
            }
        }
    }
    (threads, sweep_seeds)
}

/// The one independent-loss point this comparison sweeps (and prints).
const INDEPENDENT_LOSS: f64 = 0.05;

fn main() {
    let (threads, sweep_seeds) = parse_args();

    // One Figure 8 point, scaled down to run in seconds in a demo:
    // 40 receivers, 8 layers, 40k packets, 5 trials per seed.
    let template = ExperimentParams {
        receivers: 40,
        packets: 40_000,
        trials: 5,
        ..ExperimentParams::quick(0.0001, INDEPENDENT_LOSS).unwrap()
    };
    let scenario = ProtocolScenario::builder()
        .label("protocol-comparison")
        .template(template)
        .build()
        .expect("quick() already validated the losses");
    println!(
        "Star: {} receivers, {} layers, shared loss {}, independent loss {INDEPENDENT_LOSS}",
        template.receivers, template.layers, template.shared_loss,
    );
    println!(
        "{} packets x {} trials x {sweep_seeds} seeds per protocol, worker threads: {}\n",
        template.packets,
        template.trials,
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );

    // The grid: one loss point × all three protocols × `sweep_seeds`
    // replicate base seeds, sharded across worker threads. The merged
    // output is bitwise identical to the serial sweep at any thread count.
    let grid = ProtocolSweepGrid::independent_losses([INDEPENDENT_LOSS])
        .with_seeds(template.seed..template.seed + sweep_seeds);
    let report = scenario
        .coordinate(&grid, &CoordinatorConfig::threads(threads))
        .expect("thread sweeps succeed")
        .report;

    println!(
        "protocol        redundancy (mean ± 95% CI)   mean level   goodput   observed loss   \
         per-rx goodput [min..max] σ"
    );
    for kind in ProtocolKind::ALL {
        let mut redundancy = RunningStats::new();
        let mut level = RunningStats::new();
        let mut goodput = RunningStats::new();
        let mut loss = RunningStats::new();
        let mut per_rx = RunningStats::new();
        for point in report.points_for(kind) {
            redundancy.merge(&point.outcome.redundancy);
            level.merge(&point.outcome.mean_level);
            goodput.merge(&point.outcome.goodput);
            loss.merge(&point.outcome.observed_loss);
            per_rx.merge(point.receiver_goodput());
        }
        println!(
            "  {:<14} {:>6.3} ± {:<6.3}             {:>6.2}     {:>7.4}   {:>7.4}         \
             [{:.4}..{:.4}] {:.4}",
            kind.label(),
            redundancy.mean(),
            redundancy.ci95_half_width(),
            level.mean(),
            goodput.mean(),
            loss.mean(),
            per_rx.min(),
            per_rx.max(),
            per_rx.std_dev(),
        );
    }

    // The exact two-receiver chain (Figure 7a) for the same loss setting.
    println!("\nExact 2-receiver Markov redundancy (Figure 7a):");
    for kind in ProtocolKind::ALL {
        let model = markov::two_receiver_chain(
            kind,
            8,
            template.shared_loss,
            INDEPENDENT_LOSS,
            INDEPENDENT_LOSS,
        );
        println!(
            "  {:<14} {:>6.3}",
            kind.label(),
            model.stationary_redundancy()
        );
    }

    println!("\nSender coordination keeps redundancy lowest; uncoordinated");
    println!("probing desynchronizes receivers, so the shared link carries");
    println!("layers only the momentarily-luckiest receiver uses.");
}
