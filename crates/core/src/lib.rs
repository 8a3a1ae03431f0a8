//! # mlf-core — multi-rate multicast max-min fairness
//!
//! The primary contribution of *"The Impact of Multicast Layering on Network
//! Fairness"* (Rubenstein, Kurose, Towsley, SIGCOMM 1999), as a library:
//!
//! * [`allocator`] — **the unified allocation API**: the [`Allocator`]
//!   trait over every regime the paper compares ([`MultiRate`],
//!   [`SingleRate`], [`Hybrid`] per-session mixes, [`Weighted`] TCP-style,
//!   [`Unicast`] Bertsekas–Gallager), all sharing scratch buffers through a
//!   reusable [`SolverWorkspace`]. [`Allocator::solve_with`] is the one
//!   typed solve: the link-rate configuration is its argument, never
//!   allocator state;
//! * [`maxmin`] — the one progressive-filling engine (the paper's Appendix
//!   A algorithm) computing the unique max-min fair allocation for any mix
//!   of single-rate and multi-rate sessions, generalized to arbitrary
//!   monotone session link-rate models and, for [`Weighted`], to
//!   per-receiver weights. Its hot paths iterate the network's own
//!   CSR incidence ([`mlf_net::Incidence`], built once with the
//!   `Network`) instead of rescanning `links × sessions × receivers`, with
//!   incrementally maintained per-`(link, session)` aggregates in the
//!   [`SolverWorkspace`];
//! * [`mod@reference`] — the frozen pre-index engines, kept verbatim so
//!   differential tests can assert the optimized solvers are bitwise
//!   identical to them;
//! * [`linkrate`] — the session link-rate ("redundancy") functions `v_i` of
//!   Section 3: efficient (`max`), scaled, sum, and the Appendix B
//!   random-join closed form;
//! * [`allocation`] — rate allocations, induced link rates, feasibility;
//! * [`properties`] — the four desirable fairness properties of Section 2.1
//!   as executable checkers;
//! * [`ordering`] — the min-unfavorable relation `≤ₘ` (Definition 2) and
//!   Lemma 2's threshold characterization;
//! * [`mod@redundancy`] — Definition 3's redundancy measure and the Figure 6
//!   fair-rate impact model;
//! * [`theory`] — Theorems 1–2 and Lemmas 1, 3, 4 as executable checks;
//! * [`unicast`] — the textbook Bertsekas–Gallager unicast water-filling,
//!   kept implementation-independent as a differential baseline;
//! * [`weighted`] — the per-receiver [`Weights`] of weighted
//!   (TCP-fairness-style) multi-rate max-min, the Section 5 future-work
//!   item, which [`Weighted`] solves through [`maxmin`].
//!
//! Every solve goes through the [`Allocator`] trait (or the `Scenario`
//! builder in the `mlf-scenario` crate, which adds topology, metrics and
//! sweep composition on top). Solve and audit read the same
//! [`LinkRateConfig`]: the fairness properties hold, or fail, relative to
//! the link-rate model the allocation was solved under.
//! ## Example: the four regimes through one trait
//!
//! ```
//! use mlf_core::allocator::{Allocator, Hybrid, MultiRate, SingleRate, SolverWorkspace};
//! use mlf_core::{properties, LinkRateConfig};
//!
//! # fn main() -> Result<(), mlf_core::SolveError> {
//! let example = mlf_net::paper::figure2();
//! let net = &example.network;
//! let cfg = LinkRateConfig::efficient(net.session_count());
//!
//! // One workspace serves every solve: sweeps reuse its scratch buffers.
//! let mut ws = SolverWorkspace::new();
//!
//! // The declared regime mix (S1 single-rate) costs three properties…
//! let declared = Hybrid::as_declared().solve_with(net, &cfg, &mut ws)?;
//! let report = properties::check_all(net, &cfg, &declared.allocation);
//! assert_eq!(report.count_holding(), 1);
//!
//! // …the all-multi-rate regime recovers all four (Theorem 1)…
//! let multi = MultiRate::new().solve_with(net, &cfg, &mut ws)?;
//! assert!(properties::check_all(net, &cfg, &multi.allocation).all_hold());
//!
//! // …and the single-rate regime is what the declared mix collapses to.
//! let single = SingleRate::new().solve_with(net, &cfg, &mut ws)?;
//! assert_eq!(declared.allocation.rates(), single.allocation.rates());
//! assert_eq!(ws.solves(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod allocator;
pub mod linkrate;
pub mod maxmin;
pub mod metrics;
pub mod ordering;
pub mod properties;
pub mod redundancy;
// The frozen pre-refactor engines only ever change in comments, so the
// hygiene allow lives on the declaration instead of inside the module.
#[allow(clippy::unwrap_used)]
pub mod reference;
pub mod theory;
pub mod unicast;
pub mod weighted;

pub use allocation::Allocation;
pub use allocation::FeasibilityViolation;
pub use allocator::{
    Allocator, Hybrid, MultiRate, Regimes, SingleRate, SolveCounters, SolverWorkspace, Unicast,
    Weighted,
};
pub use linkrate::{LinkRateConfig, LinkRateModel};
pub use maxmin::FreezeReason;
pub use maxmin::{MaxMinSolution, SolveError};
pub use metrics::{jain_index, satisfaction};
pub use ordering::{is_min_unfavorable, is_strictly_min_unfavorable, ordered};
pub use properties::{check_all, FairnessReport};
pub use redundancy::{bottleneck_fair_rate, normalized_fair_rate, redundancy};
pub use weighted::Weights;
