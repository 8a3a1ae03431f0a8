//! Figure 8 regenerator: redundancy of the three protocols vs independent
//! link loss on the 100-receiver, 8-layer modified star — now driven
//! through the `ProtocolScenario` coordinator as a thread sweep, so the
//! `(loss × protocol × seed)` grid shards across worker threads with
//! bitwise-deterministic output (any `--threads` value produces the same
//! numbers).
//!
//! The paper's panels:
//! * 8(a): `--shared 0.0001` (the default)
//! * 8(b): `--shared 0.05`
//!
//! Full-fidelity run (paper parameters — takes a few minutes serially;
//! `--threads 0` uses every core):
//! `cargo run --release -p mlf-bench --bin fig8_protocols -- --trials 30 --packets 100000 --receivers 100 --threads 0`
//!
//! Scaled run for a quick look:
//! `cargo run --release -p mlf-bench --bin fig8_protocols -- --trials 5 --packets 30000 --receivers 40`
//!
//! `--sweep-seeds N` pools N replicate base seeds per grid cell (the
//! per-cell statistics merge the replicates' trials exactly; the default 1
//! reproduces the classic `figure8_series` numbers bit for bit).

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_protocols::{ExperimentParams, ProtocolKind};
use mlf_scenario::{CoordinatorConfig, ProtocolScenario, ProtocolSweepGrid};
use mlf_sim::RunningStats;

const KNOBS: &[cli::Knob] = &[
    knob("shared", "0.0001", "shared (sender-side) loss rate"),
    knob("trials", "30", "trials per point"),
    knob("packets", "100000", "base-layer packets per trial"),
    knob("receivers", "100", "receivers on the star"),
    knob("layers", "8", "layers in the ladder"),
    knob("points", "11", "points on the independent-loss axis"),
    knob(
        "sweep-seeds",
        "1",
        "replicate base seeds pooled per grid cell",
    ),
    knob(
        "threads",
        "0",
        "sweep worker threads (0 = available parallelism)",
    ),
];

fn main() {
    let args = Args::for_binary(
        "fig8_protocols",
        "Figure 8 regenerator: protocol redundancy vs independent loss",
        KNOBS,
    );
    let shared: f64 = or_exit(args.get("shared", 0.0001));
    let trials: usize = or_exit(args.get("trials", 30));
    let packets: u64 = or_exit(args.get("packets", 100_000));
    let receivers: usize = or_exit(args.get("receivers", 100));
    let layers: usize = or_exit(args.get("layers", 8));
    let points: usize = or_exit(args.get("points", 11));
    let sweep_seeds: u64 = or_exit(args.get("sweep-seeds", 1));
    let threads: usize = or_exit(args.get("threads", 0));
    if points < 2 {
        eprintln!("error: --points must be at least 2");
        std::process::exit(2);
    }
    if sweep_seeds == 0 {
        eprintln!("error: --sweep-seeds must be at least 1");
        std::process::exit(2);
    }

    // The loss knobs come straight off the command line; the typed
    // validation turns a bad probability into a clean exit instead of NaN
    // statistics deep inside the sweep.
    let template = match (ExperimentParams {
        layers,
        receivers,
        shared_loss: shared,
        independent_loss: 0.0,
        packets,
        trials,
        seed: 0x51_66_C0_99,
        join_latency: 0,
        leave_latency: 0,
    })
    .validated()
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let scenario = ProtocolScenario::builder()
        .label(if shared < 0.01 {
            "fig8a_protocols"
        } else {
            "fig8b_protocols"
        })
        .template(template)
        .build()
        .expect("template was validated above");

    let losses: Vec<f64> = (0..points)
        .map(|i| 0.1 * i as f64 / (points - 1) as f64)
        .collect();
    let grid = ProtocolSweepGrid::independent_losses(losses.iter().copied())
        .with_seeds(template.seed..template.seed + sweep_seeds);

    println!(
        "Figure 8 ({}): {receivers} receivers, {layers} layers, shared loss {shared}, \
         {packets} packets x {trials} trials, {sweep_seeds} seed(s)/cell, \
         worker threads: {}\n",
        if shared < 0.01 {
            "a: low shared loss"
        } else {
            "b: high shared loss"
        },
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );

    let report = or_exit(scenario.coordinate(&grid, &CoordinatorConfig::threads(threads))).report;

    let mut t = Table::new([
        "indep loss",
        "Uncoordinated",
        "ci95",
        "Deterministic",
        "ci95",
        "Coordinated",
        "ci95",
    ]);
    // Grid order is losses-major, then kinds, then seeds: each loss owns a
    // contiguous chunk of kinds × seeds points, and each kind's replicate
    // seeds pool into one exact statistic via RunningStats::merge.
    let kinds = ProtocolKind::ALL.len();
    let replicates = sweep_seeds as usize;
    for cell in report.points.chunks(kinds * replicates) {
        let mut cells = vec![format!("{:.3}", cell[0].independent_loss)];
        for by_kind in cell.chunks(replicates) {
            let mut pooled = RunningStats::new();
            for point in by_kind {
                pooled.merge(&point.outcome.redundancy);
            }
            cells.push(format!("{:.3}", pooled.mean()));
            cells.push(format!("{:.3}", pooled.ci95_half_width()));
        }
        t.row(cells);
    }
    println!("{t}");

    // The paper's headline checks.
    let records = t.records();
    let last_row = &records[records.len() - 1];
    let coord_max: f64 = records[1..]
        .iter()
        .map(|r| r[5].parse::<f64>().unwrap())
        .fold(0.0, f64::max);
    println!("max Coordinated redundancy over the sweep: {coord_max:.3} (paper: < 2.5)");
    println!(
        "at 10% independent loss: Uncoordinated {}, Deterministic {}, Coordinated {}",
        last_row[1], last_row[3], last_row[5]
    );

    let path = write_csv(".", scenario.label(), &records).expect("csv");
    println!("series written to {}", path.display());
}
