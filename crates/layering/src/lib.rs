//! # mlf-layering — layered multicast machinery
//!
//! Section 3 of *"The Impact of Multicast Layering on Network Fairness"*
//! (SIGCOMM '99) as a library:
//!
//! * [`layers`] — layer-rate schedules with cumulative-subscription
//!   semantics, including the Section 4 exponential schedule
//!   (`aggregate(1..=i) = 2^{i−1}`);
//! * [`fixed`] — exhaustive proof that max-min fair allocations need not
//!   exist when receivers hold fixed layer prefixes (the single-link
//!   `(c/3 ×3)` vs `(c/2 ×2)` example);
//! * [`quantum`] — per-quantum join/leave packet scheduling: coordinated
//!   prefix subsets (redundancy 1), uncoordinated random subsets, and
//!   Bresenham quota schedules that hit fractional average rates;
//! * [`randomjoin`] — the Appendix B closed form and the full Figure 5
//!   sweep (analytic + Monte-Carlo).
//!
//! ## Example
//!
//! ```
//! use mlf_layering::{layers::LayerSchedule, randomjoin};
//!
//! // The Section 4 exponential layering.
//! let s = LayerSchedule::exponential(8);
//! assert_eq!(s.cumulative_rate(8), 128.0);
//!
//! // Ten uncoordinated receivers each taking 10% of one layer use the
//! // link ~6.5x less efficiently than one coordinated receiver would.
//! let red = randomjoin::analytic_redundancy(&vec![0.1; 10], 1.0);
//! assert!(red > 6.0 && red < 7.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod layers;
pub mod quantum;
pub mod randomjoin;

pub use fixed::FixedLayerAnalysis;
pub use fixed::{analyze, section3_example};
pub use layers::LayerSchedule;
pub use quantum::{
    long_term_redundancy, measured_redundancy, prefix_subsets, random_subsets, rate_quota_schedule,
    SelectionMode,
};
pub use randomjoin::{analytic_redundancy, figure5_series, Figure5Config};
