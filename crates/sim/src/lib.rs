//! # mlf-sim — deterministic packet-level multicast simulator
//!
//! The simulation substrate for Section 4 of *"The Impact of Multicast
//! Layering on Network Fairness"* (SIGCOMM '99). The paper's authors used an
//! unreleased ad-hoc simulator; this crate rebuilds the exact model the
//! paper describes:
//!
//! * slotted packet time with layers interleaved by deterministic weighted
//!   round-robin ([`engine::LayerInterleaver`]);
//! * Bernoulli per-link loss — one *shared* draw on the sender-side link
//!   (correlated loss) and independent draws per fanout link — plus a
//!   Gilbert–Elliott burst-loss extension ([`loss`]);
//! * idealized multicast membership with optional join/leave latency for
//!   the Section 5 ablations ([`multicast`]), backed by the incrementally
//!   maintained level-bucketed `LevelIndex` (O(1) max effective
//!   level, per-layer subscriber bitsets);
//! * the modified-star engine measuring shared-link redundancy
//!   ([`engine::run_star`]) — O(1) per slot the shared link does not
//!   carry, O(subscribed(layer)) + O(receivers/64) per carried slot, via
//!   a precomputed schedule period, the level index and lazy event-time
//!   accounting, with the
//!   pre-index scan engine frozen in [`mod@reference`] and bitwise equality
//!   between the two pinned by `tests/star_engine_differential.rs`;
//! * bit-for-bit reproducible RNG with per-component substreams ([`rng`]);
//! * Welford statistics for the 30-trial experiment protocol ([`stats`]);
//! * the simulation clock's [`Tick`] ([`events`], whose heap-based
//!   future-event list only the frozen references still use);
//! * a general-tree engine ([`tree`]) extending the star model to arbitrary
//!   sender-rooted multicast trees with per-link loss and per-link
//!   redundancy measurement — running on the per-link carrying bitsets of
//!   `LinkLevelIndex` (per-slot cost O(carrying links) +
//!   O(subscribed receivers), good for 10⁵+ receivers in one session),
//!   with the pre-bitset scan engine frozen in [`mod@reference_tree`] and
//!   bitwise equality pinned by `tests/tree_engine_differential.rs`.
//!
//! The Section 4 protocol state machines themselves live in
//! `mlf-protocols`; this crate only knows the [`engine::ReceiverController`]
//! interface they implement. The workspace-level `ARCHITECTURE.md`
//! explains how these engines, their frozen references, and the bench
//! regression gates fit together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod events;
mod index;
pub mod loss;
pub mod multicast;
pub mod reference;
pub mod reference_tree;
pub mod rng;
pub mod stats;
pub mod tree;

pub use engine::{
    run_star, run_star_into, Action, LayerInterleaver, MarkerSource, NoMarkers, PacketEvent,
    ReceiverController, StarConfig, StarCounters, StarReport, StarScratch,
};
pub use events::Tick;
pub use loss::LossProcess;
pub use multicast::MembershipTable;
pub use rng::SimRng;
pub use stats::RunningStats;
pub use tree::{run_tree, run_tree_into, TreeConfig, TreeConfigError, TreeReport, TreeScratch};
