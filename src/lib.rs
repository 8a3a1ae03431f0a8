//! # multicast-fairness
//!
//! A full reproduction of **Rubenstein, Kurose & Towsley, "The Impact of
//! Multicast Layering on Network Fairness", ACM SIGCOMM 1999** as a Rust
//! workspace. This umbrella crate re-exports the six library crates:
//!
//! | Crate | Paper section | Contents |
//! |-------|---------------|----------|
//! | [`net`] (`mlf-net`) | §2 model | graphs, links, routing, sessions, topologies, the paper's example networks |
//! | [`core`] (`mlf-core`) | §2–§3 theory | the unified `Allocator` trait + `SolverWorkspace`, fairness properties, min-unfavorable ordering, redundancy |
//! | [`scenario`] (`mlf-scenario`) | everything | the declarative `Scenario` builder composing topology × link rates × allocator × layering × reporting, with `run()`/`sweep()` |
//! | [`layering`] (`mlf-layering`) | §3 | layer schedules, fixed-layer analysis, quantum join/leave scheduling, random-join redundancy |
//! | [`sim`] (`mlf-sim`) | §4 substrate | deterministic packet-level star simulator, loss processes, statistics |
//! | [`protocols`] (`mlf-protocols`) | §4 | the Uncoordinated/Deterministic/Coordinated protocols, the Figure 8 harness, the Figure 7(a) Markov model |
//!
//! The repo-level `ARCHITECTURE.md` is the written guide to how these
//! crates, the frozen-reference differential pattern, and the CI gates
//! fit together; `docs/benchmarks.md` catalogs the benchmarks and the
//! baseline re-seed procedure.
//!
//! ## Quickstart
//!
//! Declare an experiment as a [`Scenario`](mlf_scenario::Scenario): the
//! topology, the allocation regime, and the reporting come back as one
//! `run()`:
//!
//! ```
//! use multicast_fairness::prelude::*;
//!
//! // Build a network: one multi-rate session, two receivers behind
//! // different bottlenecks, plus a competing unicast.
//! let mut g = Graph::new();
//! let src = g.add_node();
//! let hub = g.add_node();
//! let (a, b) = (g.add_node(), g.add_node());
//! g.add_link(src, hub, 10.0).unwrap();
//! g.add_link(hub, a, 2.0).unwrap();
//! g.add_link(hub, b, 6.0).unwrap();
//! let net = Network::new(g, vec![
//!     Session::multi_rate(src, vec![a, b]),
//!     Session::unicast(src, b),
//! ]).unwrap();
//!
//! let mut scenario = Scenario::builder()
//!     .network(net)
//!     .allocator(MultiRate::new())
//!     .build()
//!     .unwrap();
//! let report = scenario.run();
//!
//! // The multi-rate max-min fair allocation…
//! assert_eq!(report.solution.allocation.rates(), &[vec![2.0, 3.0], vec![3.0]]);
//! // …satisfies all four fairness properties (Theorem 1).
//! assert!(report.fairness.unwrap().all_hold());
//! ```
//!
//! For one-off solves without a scenario, use the
//! [`Allocator`](mlf_core::allocator::Allocator) trait directly; a shared
//! [`SolverWorkspace`](mlf_core::allocator::SolverWorkspace) makes repeated
//! solves allocation-free:
//!
//! ```
//! use multicast_fairness::prelude::*;
//!
//! let example = mlf_net::paper::figure2();
//! let mut ws = SolverWorkspace::new();
//! let declared = Hybrid::as_declared().solve(&example.network, &mut ws);
//! let multi = MultiRate::new().solve(&example.network, &mut ws);
//! assert!(multi.allocation.min_rate() >= declared.allocation.min_rate());
//! ```
//!
//! ## Determinism contract
//!
//! Every result this workspace produces is a pure function of explicit
//! inputs (topology, configuration, seeds). Concretely:
//!
//! * **Bitwise reproducibility.** The same scenario, grid, and seeds
//!   produce byte-identical output on every run, on any worker fleet
//!   (the sweep coordinator merges shards in canonical order, whether it
//!   runs plain threads or a fault-injected, checkpointed process fleet),
//!   and whether a grid sweep runs serially (each seed's topology shared
//!   across the grid's models) or coordinated (one topology per job).
//! * **No ambient inputs.** Library code takes seeds, times, and
//!   configuration as parameters — never from wall clocks
//!   (`Instant`/`SystemTime`), environment variables, or thread identity.
//!   Randomness comes only from in-tree seeded generators (SplitMix64).
//! * **No iteration-order dependence.** `HashMap`/`HashSet` are keyed
//!   stores only; anything order-sensitive (folds, output)
//!   walks explicit orders — sorted ids, insertion queues, CSR index
//!   order.
//! * **Total float comparisons.** Sorts and extrema over `f64` use
//!   [`f64::total_cmp`]; a NaN leaking from an upstream model degrades
//!   deterministically instead of panicking a sweep or flipping an order.
//! * **Frozen references.** Optimized engines are proven against frozen
//!   pre-refactor copies (`mlf_core::reference`, `mlf_sim::reference`,
//!   `mlf_sim::reference_tree`) by bitwise differentials; reference
//!   modules only ever change in comments.
//!
//! The contract is *enforced*, not aspirational: the workspace linter
//! (`cargo run -p mlf-lint`, in `crates/lint`) checks these invariants —
//! plus hygiene rules (no `unwrap`/`panic!` in library code, no stray
//! `unsafe`, no `dbg!`/`println!` in libraries, `#[ignore]` needs a
//! reason) — token-accurately over the whole tree, and CI fails on any
//! finding.
//!
//! On top of the token rules, an item-level *structural pass* holds the
//! architecture itself to snapshots committed under
//! `crates/lint/snapshots/`:
//!
//! * **Frozen-reference integrity** — comment/whitespace-normalized
//!   fingerprints of `mlf_core::reference`, `mlf_sim::reference`, and
//!   `mlf_sim::reference_tree` (`snapshots/frozen/`); any semantic edit
//!   to a frozen engine is a finding until deliberately re-blessed.
//! * **Crate-layering DAG** — every `mlf_*` dependency edge, from
//!   manifests and `use` declarations alike, must point strictly
//!   downward in `net → core → layering → sim → protocols → scenario →
//!   bench` (the linter itself stays dependency-free).
//! * **API-surface snapshots** — each crate's `pub` item inventory
//!   (`snapshots/api/`) is committed and diffed, so accidental surface
//!   growth or loss is visible in review rather than discovered
//!   downstream.
//! * **Unused pub & differential coverage** — `pub` items no other crate
//!   references are flagged with a `pub(crate)` suggestion, and every
//!   frozen module must be exercised by at least one workspace test.
//!
//! Comment-only edits to a frozen module need nothing. Intentional
//! reference or API changes are re-frozen with
//! `cargo run -p mlf-lint -- --bless`, which regenerates all snapshots
//! deterministically so the diff rides in review alongside the code
//! change. Deliberate exceptions carry inline
//! `// mlf-lint: allow(<rule>, reason = "…")` directives whose reasons
//! are mandatory and whose targets are validated (unknown rules and
//! unused allows are themselves errors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mlf_core as core;
pub use mlf_layering as layering;
pub use mlf_net as net;
pub use mlf_protocols as protocols;
pub use mlf_scenario as scenario;
pub use mlf_sim as sim;

/// The most commonly used items across all crates, for glob import.
pub mod prelude {
    pub use mlf_core::allocator::{
        Allocator, Hybrid, MultiRate, SingleRate, SolverWorkspace, Unicast, Weighted,
    };
    pub use mlf_core::{
        check_all, Allocation, FairnessReport, LinkRateConfig, LinkRateModel, MaxMinSolution,
        Weights,
    };
    pub use mlf_layering::LayerSchedule;
    pub use mlf_net::{
        Graph, LinkId, Network, NodeId, ReceiverId, Session, SessionId, SessionType, TopologyError,
        TopologyFamily,
    };
    pub use mlf_protocols::{ExperimentParamError, ExperimentParams, ProtocolKind};
    pub use mlf_scenario::{
        CacheStats, CoordinatorConfig, LinkRates, ProtocolScenario, ProtocolSweepGrid,
        ProtocolSweepPoint, ProtocolSweepReport, Scenario, ScenarioReport, SweepGrid, SweepReport,
    };
    pub use mlf_sim::{LossProcess, RunningStats, SimRng};
}
