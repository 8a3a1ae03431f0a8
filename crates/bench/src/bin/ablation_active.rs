//! Active-node ablation (Section 5 extension): compare the four
//! coordination designs — Uncoordinated, Deterministic, Coordinated
//! (sender markers), and Active-node (hub-delegated control) — across the
//! Figure 8 independent-loss axis, reporting redundancy *and* mean goodput
//! so the autonomy-vs-efficiency trade-off is visible.
//!
//! `cargo run --release -p mlf-bench --bin ablation_active
//!    [--trials 5] [--packets 30000] [--receivers 30]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_protocols::{active, experiment, ExperimentParams, ProtocolKind};
use mlf_sim::RunningStats;

const KNOBS: &[cli::Knob] = &[
    knob("trials", "5", "trials per point"),
    knob("packets", "30000", "base-layer packets per trial"),
    knob("receivers", "30", "receivers on the star"),
];

fn main() {
    let args = Args::for_binary(
        "ablation_active",
        "Active-node ablation: hub-delegated control vs the paper's protocols",
        KNOBS,
    );
    let trials: usize = or_exit(args.get("trials", 5));
    let packets: u64 = or_exit(args.get("packets", 30_000));
    let receivers: usize = or_exit(args.get("receivers", 30));

    let template = or_exit(
        ExperimentParams {
            layers: 8,
            receivers,
            shared_loss: 0.0001,
            independent_loss: 0.01,
            packets,
            trials,
            seed: 0xAC71,
            join_latency: 0,
            leave_latency: 0,
        }
        .validated(),
    );
    println!(
        "Active-node ablation: {receivers} receivers, shared loss 1e-4, \
         {packets} packets x {trials} trials\n"
    );
    let mut t = Table::new([
        "indep loss",
        "Uncoordinated",
        "Deterministic",
        "Coordinated",
        "ActiveNode",
        "ActiveNode goodput",
        "Coordinated goodput",
    ]);
    for loss in [0.01f64, 0.03, 0.05, 0.08, 0.1] {
        let params = ExperimentParams {
            independent_loss: loss,
            ..template
        };
        let mut cells = vec![format!("{loss:.2}")];
        let mut coord_goodput = 0.0;
        for kind in ProtocolKind::ALL {
            let out = experiment::run_point(kind, &params);
            cells.push(format!("{:.3}", out.redundancy.mean()));
            if kind == ProtocolKind::Coordinated {
                coord_goodput = out.goodput.mean();
            }
        }
        // Active-node runs.
        let mut red = RunningStats::new();
        let mut goodput = RunningStats::new();
        for trial in 0..trials {
            let report = active::run_trial_active(&params, trial);
            if let Some(r) = report.shared_redundancy() {
                red.push(r);
            }
            goodput.push((0..receivers).map(|r| report.goodput(r)).sum::<f64>() / receivers as f64);
        }
        cells.push(format!("{:.3}", red.mean()));
        cells.push(format!("{:.4}", goodput.mean()));
        cells.push(format!("{coord_goodput:.4}"));
        t.row(cells);
    }
    print!("{t}");
    println!("\nActive-node delegation pins redundancy at ~1 (the paper's");
    println!("feasibility claim), at the cost of subtree-uniform rates: its");
    println!("goodput tracks the representative receiver, not each receiver's");
    println!("own bottleneck — single-rate coupling reborn one hop down.");

    let path = write_csv(".", "ablation_active", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}
