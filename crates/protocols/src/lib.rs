//! # mlf-protocols — layered congestion-control protocols (Section 4)
//!
//! The three protocols of *"The Impact of Multicast Layering on Network
//! Fairness"* (SIGCOMM '99), which differ only in how layer *joins* are
//! coordinated within a session (everyone leaves the top layer on a
//! congestion event):
//!
//! * **Uncoordinated** — each received packet triggers a join with
//!   probability `2^{−2(i−1)}`;
//! * **Deterministic** — a join fires after exactly `2^{2(i−1)}` packets
//!   received without loss since the last join/leave event;
//! * **Coordinated** — the sender stamps base-layer packets with dyadic
//!   join markers; a marker for level `i` implies one for every `j < i`.
//!
//! [`experiment`] drives the Figure 8 measurements on the 100-receiver
//! modified star (via `mlf-sim`); [`markov`] solves the two-receiver
//! Figure 7(a) model exactly and reproduces the paper's analytic finding
//! that redundancy peaks when receivers share identical end-to-end loss
//! rates.
//!
//! ## Sweep entry points
//!
//! [`run_point`] is the unit of work: one `(protocol, loss point)` cell,
//! all trials aggregated into a [`PointOutcome`] (shared-link redundancy,
//! mean subscription level, goodput, and the observed loss regime). It is
//! a pure function of its [`ExperimentParams`], which is what lets
//! `mlf-scenario`'s `ProtocolScenario` shard whole
//! `(protocol × loss × seed)` grids across worker threads with bitwise
//! serial/parallel agreement. [`figure8_series`] remains the serial
//! reference for one full Figure 8 panel; parallel callers should prefer
//! the scenario path. [`ExperimentParams::validate`] (which
//! [`ExperimentParams::paper`]/[`ExperimentParams::quick`] run) rejects
//! non-finite or out-of-`[0,1)` loss probabilities, a layer count outside
//! `1..=32` and zero receivers, packets or trials with a typed
//! [`ExperimentParamError`] instead of producing NaN trial statistics or
//! panicking mid-sweep.
//!
//! ## Example
//!
//! ```
//! use mlf_protocols::{experiment, ProtocolKind};
//!
//! // One scaled-down Figure 8 point.
//! let params = experiment::ExperimentParams {
//!     trials: 2, packets: 10_000, receivers: 8,
//!     ..experiment::ExperimentParams::quick(0.0001, 0.05).unwrap()
//! };
//! let out = experiment::run_point(ProtocolKind::Coordinated, &params);
//! assert!(out.redundancy.mean() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod config;
pub mod experiment;
pub mod markov;
pub mod receiver;
pub mod sender;

pub use active::run_trial_active;
pub use config::ProtocolKind;
pub use experiment::{
    figure8_series, run_point, run_trial, validate_loss, ExperimentParamError, ExperimentParams,
    PointOutcome,
};
pub use markov::two_receiver_chain;
pub use markov::{DenseChain, TwoReceiverModel};
pub use receiver::{
    make_receiver, CoordinatedReceiver, DeterministicReceiver, ProtocolReceiver,
    UncoordinatedReceiver,
};
pub use sender::CoordinatedSender;
