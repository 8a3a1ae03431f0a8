//! # mlf-net — network substrate for the SIGCOMM '99 layering-fairness study
//!
//! This crate implements the network model of *"The Impact of Multicast
//! Layering on Network Fairness"* (Rubenstein, Kurose, Towsley, SIGCOMM
//! 1999), Section 2 / Table 1:
//!
//! * a capacitated undirected [`Graph`] `G` of nodes and links `l_j` with
//!   capacities `c_j`;
//! * multicast [`Session`]s `S_i` with one sender `X_i`, receivers
//!   `r_{i,k}`, a type `chi(S_i) ∈ {single-rate, multi-rate}` and a maximum
//!   desired rate `kappa_i`;
//! * a fully-routed [`Network`] `N = (G, {S_i}, chi, tau)` exposing each
//!   receiver's data-path and the per-link receiver sets `R_{i,j}` / `R_j`,
//!   built once into the flat [`Incidence`] the solvers and audits read;
//! * [`topology`] builders (stars, trees, dumbbells, random trees) and the
//!   paper's exact example networks in [`paper`].
//!
//! Everything here is purely structural: rate allocations, fairness
//! properties and the max-min allocator live in `mlf-core`; the packet-level
//! simulator lives in `mlf-sim`.
//!
//! ## Example
//!
//! ```
//! use mlf_net::{Graph, Network, Session, ReceiverId};
//!
//! // sender -- 10 -- hub -- 4 / 6 -- two receivers
//! let mut g = Graph::new();
//! let s = g.add_node();
//! let hub = g.add_node();
//! let r1 = g.add_node();
//! let r2 = g.add_node();
//! g.add_link(s, hub, 10.0).unwrap();
//! g.add_link(hub, r1, 4.0).unwrap();
//! g.add_link(hub, r2, 6.0).unwrap();
//!
//! let net = Network::new(g, vec![Session::multi_rate(s, vec![r1, r2])]).unwrap();
//! assert_eq!(net.route(ReceiverId::new(0, 0)).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod ids;
pub mod incidence;
pub mod network;
pub mod paper;
pub mod routing;
pub mod session;
pub mod topology;

pub use error::NetError;
pub use error::RouteDefect;
pub use graph::{Graph, Link};
pub use ids::{LinkId, NodeId, ReceiverId, SessionId};
pub use incidence::Incidence;
pub use network::Network;
pub use routing::{shortest_path, validate_route, Route};
pub use session::{Session, SessionType};
pub use topology::{TopologyError, TopologyFamily};
