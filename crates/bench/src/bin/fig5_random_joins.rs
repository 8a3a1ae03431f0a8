//! Figure 5 regenerator: redundancy of a single layer with random joins,
//! for the paper's five receiver-rate configurations, 1 to 100 receivers
//! (analytic closed form + Monte-Carlo confirmation at selected points),
//! plus a network-level random-join sweep across the four topology
//! families, executed through the parallel sweep engine.
//!
//! `cargo run --release -p mlf-bench --bin fig5_random_joins
//!    [--max-receivers 100] [--mc-quanta 200] [--mc-sigma 100]
//!    [--sweep-seeds 64] [--threads 0] [--coordinate-procs 0]
//!    [--checkpoint PATH]`
//!
//! With `--coordinate-procs N` the network sweep runs on the
//! fault-tolerant coordinator over a fleet of N supervised worker
//! *processes* instead of the in-process thread pool, optionally with a
//! crash-safe checkpoint (`--checkpoint`, one file per family) that a
//! rerun resumes from; the fleet's `CoordinatorStats` are printed per
//! family. The metric columns are identical in every mode; the cache
//! column counts the fleet workers' lookups, spot checks included.

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_core::allocator::MultiRate;
use mlf_core::LinkRateModel;
use mlf_layering::randomjoin::{self, Figure5Config};
use mlf_net::TopologyFamily;
use mlf_scenario::{
    CoordinatorConfig, CoordinatorStats, LinkRates, ProcessConfig, Scenario, TransportKind,
};
use std::path::PathBuf;

const KNOBS: &[cli::Knob] = &[
    knob(
        "max-receivers",
        "100",
        "largest receiver count on the x axis",
    ),
    knob(
        "mc-quanta",
        "200",
        "Monte-Carlo quanta per confirmation point",
    ),
    knob(
        "mc-sigma",
        "100",
        "packets per quantum in the Monte-Carlo runs",
    ),
    knob(
        "sweep-seeds",
        "64",
        "random topologies per family in the network sweep",
    ),
    knob(
        "threads",
        "0",
        "sweep worker threads (0 = available parallelism)",
    ),
    knob(
        "coordinate-procs",
        "0",
        "run the network sweep on a supervised fleet of N worker processes (0 = thread sweep)",
    ),
    knob(
        "checkpoint",
        "",
        "crash-safe checkpoint base path for the fleet sweep (per-family suffix; empty = off)",
    ),
];

fn main() {
    // Fleet workers re-execute this binary: route them into the stdio
    // worker loop before any CLI parsing (never returns for workers).
    mlf_scenario::transport::maybe_run_process_worker();

    let args = Args::for_binary(
        "fig5_random_joins",
        "Figure 5 regenerator: single-layer random-join redundancy",
        KNOBS,
    );
    let max_receivers: usize = or_exit(args.get("max-receivers", 100));
    let mc_quanta: usize = or_exit(args.get("mc-quanta", 200));
    let mc_sigma: usize = or_exit(args.get("mc-sigma", 100));
    let sweep_seeds: u64 = or_exit(args.get("sweep-seeds", 64));
    let threads: usize = or_exit(args.get("threads", 0));
    let coordinate_procs: usize = or_exit(args.get("coordinate-procs", 0));
    let checkpoint: String = or_exit(args.get("checkpoint", String::new()));

    // Log-spaced x-axis like the paper's log plot.
    let mut xs = vec![1usize, 2, 3, 4, 5, 7, 10, 14, 20, 30, 50, 70];
    xs.push(max_receivers);
    xs.retain(|&x| x <= max_receivers);
    xs.dedup();

    let mut t = Table::new([
        "receivers",
        "All 0.1",
        "All 0.5",
        "1st .5 rest .1",
        "All 0.9",
        "1st .9 rest .1",
    ]);
    for point in randomjoin::figure5_series(&xs) {
        t.numeric_row(point.receivers.to_string(), &point.redundancy, 3);
    }
    println!("Figure 5 (analytic): redundancy of a single layer, random joins\n");
    print!("{t}");
    println!(
        "\nasymptotes (σ / max rate): {:?}",
        Figure5Config::ALL.map(|c| c.asymptote())
    );

    println!("\nMonte-Carlo confirmation ({mc_sigma} packets/quantum, {mc_quanta} quanta):\n");
    let mut mc = Table::new(["config", "receivers", "analytic", "simulated"]);
    for (cfg, r) in [
        (Figure5Config::All01, 10usize),
        (Figure5Config::All05, 10),
        (Figure5Config::All09, 10),
        (Figure5Config::First05Rest01, 10),
        (Figure5Config::First09Rest01, 10),
        (Figure5Config::All01, 50),
    ] {
        let analytic = randomjoin::analytic_redundancy(&cfg.rates(r), 1.0);
        let sim = randomjoin::monte_carlo_redundancy(cfg, r, mc_sigma, mc_quanta, 0x515);
        mc.row([
            cfg.label().to_string(),
            r.to_string(),
            format!("{analytic:.3}"),
            format!("{sim:.3}"),
        ]);
    }
    print!("{mc}");

    let path = write_csv(".", "fig5_random_joins", &t.records()).expect("csv");
    println!("\nseries written to {}", path.display());

    // ---- Network-level sweep through the coordinator ---------------------
    // The same random-join redundancy model, now inside whole networks:
    // every session of every random topology carries RandomJoin link rates
    // and the multi-rate allocator solves the resulting fixed point. Each
    // family's seeds are sharded across `threads` workers by the
    // coordinator, whose merge order makes the output independent of the
    // thread count. It resolves 0 to available parallelism and never runs
    // more workers than shards; the banner reports what was requested.
    println!(
        "\nNetwork sweep (random-join model, {sweep_seeds} seeds/family, \
         requested worker threads: {}):\n",
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    let families = [
        TopologyFamily::FlatTree,
        TopologyFamily::KaryTree { arity: 3 },
        TopologyFamily::TransitStub { transit: 4 },
        TopologyFamily::Dumbbell,
    ];
    let mut sweep_table = Table::new([
        "family",
        "mean Jain",
        "mean min rate",
        "mean satisfaction",
        "all-props rate",
        "cache h/m/e",
    ]);
    if coordinate_procs > 0 && !checkpoint.is_empty() {
        // The writer creates the file, not its directory.
        if let Some(parent) = std::path::Path::new(&checkpoint).parent() {
            or_exit(std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create checkpoint directory {}: {e}",
                    parent.display()
                )
            }));
        }
    }
    let mut fleet_stats: Vec<(&'static str, CoordinatorStats)> = Vec::new();
    for family in families {
        let scenario = Scenario::builder()
            .label(format!("fig5-sweep/{}", family.label()))
            .random_networks_with(family, 30, 8, 5)
            .link_rates(LinkRates::Uniform(LinkRateModel::RandomJoin { sigma: 6.0 }))
            .allocator(MultiRate::new())
            .build()
            .expect("family sweep scenario");
        let cfg = if coordinate_procs > 0 {
            CoordinatorConfig {
                workers: coordinate_procs,
                checkpoint: (!checkpoint.is_empty())
                    .then(|| PathBuf::from(format!("{checkpoint}.{}", family.label()))),
                transport: TransportKind::Process(ProcessConfig::default()),
                ..CoordinatorConfig::default()
            }
        } else {
            CoordinatorConfig::threads(threads)
        };
        let out = or_exit(scenario.coordinate(0..sweep_seeds, &cfg));
        if coordinate_procs > 0 {
            fleet_stats.push((family.label(), out.stats));
        }
        let report = out.report;
        sweep_table.row([
            family.label().to_string(),
            format!("{:.4}", report.mean_jain()),
            format!("{:.4}", report.mean_min_rate()),
            format!("{:.4}", report.mean_of(|p| p.metrics.satisfaction)),
            format!("{:.3}", report.all_properties_rate()),
            format!(
                "{}/{}/{}",
                report.cache.hits, report.cache.misses, report.cache.evictions
            ),
        ]);
    }
    print!("{sweep_table}");
    for (family, stats) in &fleet_stats {
        println!("\nprocess fleet [{family}] ({coordinate_procs} workers):\n{stats}");
    }
    println!(
        "\n(cache h/m/e: sweep solve-cache hits/misses/evictions — every (seed, model) cell \
         is unique in a one-shot sweep, so cold sweeps report all misses; warm re-sweeps and \
         model grids report hits where cells repeat)"
    );
}
