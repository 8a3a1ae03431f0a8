//! Tree-topology extension: run the Section 4 protocols on a binary
//! multicast tree (not just the paper's star) and report redundancy per
//! tree level. Interior links whose subtrees straddle independent loss
//! accumulate redundancy; links deep in the tree, serving few receivers,
//! stay near 1 — the hierarchy-aware version of the paper's star result.
//!
//! `cargo run --release -p mlf-bench --bin ext_tree_protocols
//!    [--depth 3] [--loss 0.03] [--packets 40000] [--trials 3]`

use mlf_bench::{cli, knob, or_exit, write_csv, Args, Table};
use mlf_net::{LinkId, Network, Session};
use mlf_protocols::{CoordinatedSender, ProtocolKind, ProtocolReceiver};
use mlf_sim::{
    tree::{run_tree, TreeConfig},
    LossProcess, NoMarkers, RunningStats, SimRng,
};

const KNOBS: &[cli::Knob] = &[
    knob("depth", "3", "depth of the binary multicast tree"),
    knob("loss", "0.03", "per-link Bernoulli loss rate"),
    knob("packets", "40000", "base-layer packets per trial"),
    knob("trials", "3", "trials per protocol"),
];

fn main() {
    let args = Args::for_binary(
        "ext_tree_protocols",
        "Tree-topology extension: per-level protocol redundancy",
        KNOBS,
    );
    let depth: usize = or_exit(args.get("depth", 3));
    let loss: f64 = or_exit(args.get("loss", 0.03));
    let packets: u64 = or_exit(args.get("packets", 40_000));
    let trials: usize = or_exit(args.get("trials", 3));

    let (net, level_of_link) = binary_tree_session(depth);
    let leaves = net.session(mlf_net::SessionId(0)).receivers.len();
    println!(
        "Binary tree of depth {depth} ({leaves} receivers), per-link loss {loss}, \
         {packets} packets x {trials} trials\n"
    );

    let mut t = Table::new([
        "tree level",
        "Uncoordinated",
        "Deterministic",
        "Coordinated",
    ]);
    let levels = depth;
    let mut per_level: Vec<Vec<RunningStats>> = vec![vec![RunningStats::new(); 3]; levels];
    for (p_idx, kind) in ProtocolKind::ALL.into_iter().enumerate() {
        for trial in 0..trials {
            let report = run_once(&net, kind, loss, packets, trial as u64);
            for j in 0..net.link_count() {
                if let Some(r) = report.link_redundancy(LinkId(j)) {
                    per_level[level_of_link[j] - 1][p_idx].push(r);
                }
            }
        }
    }
    for (lvl, stats) in per_level.iter().enumerate() {
        t.row([
            format!("{} (root side)", lvl + 1),
            format!("{:.3}", stats[0].mean()),
            format!("{:.3}", stats[1].mean()),
            format!("{:.3}", stats[2].mean()),
        ]);
    }
    print!("{t}");
    println!("\nRedundancy is largest on root-side links (subtrees straddling");
    println!("many independent loss processes) and decays toward the leaves;");
    println!("coordination helps most exactly where redundancy concentrates.");

    let path = write_csv(".", "ext_tree_protocols", &t.records()).expect("csv");
    println!("series written to {}", path.display());
}

/// A complete binary tree of the given depth with one multi-rate session
/// from the root to every leaf. Returns the network and each link's tree
/// level (1 = root-adjacent).
fn binary_tree_session(depth: usize) -> (Network, Vec<usize>) {
    let mut g = mlf_net::Graph::new();
    let root = g.add_node();
    let mut frontier = vec![root];
    let mut level_of_link = Vec::new();
    for level in 1..=depth {
        let mut next = Vec::new();
        for &p in &frontier {
            for _ in 0..2 {
                let c = g.add_node();
                g.add_link(p, c, 1e6).unwrap();
                level_of_link.push(level);
                next.push(c);
            }
        }
        frontier = next;
    }
    let net = Network::new(g, vec![Session::multi_rate(root, frontier)]).unwrap();
    (net, level_of_link)
}

fn run_once(
    net: &Network,
    kind: ProtocolKind,
    loss: f64,
    packets: u64,
    trial: u64,
) -> mlf_sim::TreeReport {
    let layers = 8;
    let cfg = TreeConfig {
        layer_rates: (0..layers)
            .map(|i| {
                if i == 0 {
                    1.0
                } else {
                    (1u64 << (i - 1)) as f64
                }
            })
            .collect(),
        link_loss: vec![LossProcess::bernoulli(loss); net.link_count()],
        join_latency: 0,
        leave_latency: 0,
    };
    let n = net.session(mlf_net::SessionId(0)).receivers.len();
    let base = SimRng::seed_from_u64(0x7EEE + trial);
    let mut controllers: Vec<ProtocolReceiver> = (0..n)
        .map(|r| ProtocolReceiver::new(kind, base.split(r as u64)))
        .collect();
    match kind {
        ProtocolKind::Coordinated => {
            let mut sender = CoordinatedSender::new(layers);
            run_tree(
                net,
                &cfg,
                &mut controllers,
                &mut sender,
                packets,
                0x11 + trial,
            )
            .expect("a valid tree run")
        }
        _ => run_tree(
            net,
            &cfg,
            &mut controllers,
            &mut NoMarkers,
            packets,
            0x11 + trial,
        )
        .expect("a valid tree run"),
    }
}
