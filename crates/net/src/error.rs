//! Error type for network-model construction and validation.

use crate::ids::{LinkId, NodeId, ReceiverId, SessionId};
use std::fmt;

/// Errors raised while building or validating a [`crate::Network`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A link references a node index that does not exist.
    UnknownNode(NodeId),
    /// A link id is out of range for the graph.
    UnknownLink(LinkId),
    /// A session id is out of range for the network.
    UnknownSession(SessionId),
    /// A receiver id does not exist in its session.
    UnknownReceiver(ReceiverId),
    /// A link was declared with a non-positive or non-finite capacity.
    BadCapacity {
        /// The offending link.
        link: LinkId,
        /// The declared capacity.
        capacity: f64,
    },
    /// A link connects a node to itself, which the model forbids.
    SelfLoop {
        /// The offending link.
        link: LinkId,
        /// The node at both endpoints.
        node: NodeId,
    },
    /// A session was declared with no receivers (the model requires at least one).
    EmptySession(SessionId),
    /// A session's maximum desired rate is not positive (`0 < kappa` required).
    BadMaxRate {
        /// The offending session.
        session: SessionId,
        /// The declared maximum rate.
        max_rate: f64,
    },
    /// Two members of the same session are mapped to the same node, which the
    /// topology mapping `tau` forbids.
    DuplicateMember {
        /// The offending session.
        session: SessionId,
        /// The node holding two members.
        node: NodeId,
    },
    /// No route exists from the session sender to one of its receivers.
    Unroutable {
        /// The unreachable receiver.
        receiver: ReceiverId,
    },
    /// An explicitly supplied route is not a valid path from the sender to
    /// the receiver in the graph.
    InvalidRoute {
        /// The receiver whose route failed validation.
        receiver: ReceiverId,
        /// What was wrong with the route.
        reason: RouteDefect,
    },
    /// The number of explicit route lists does not match the session layout.
    RouteShapeMismatch,
}

/// The specific way an explicit route failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDefect {
    /// The route is empty but sender and receiver are on different nodes.
    Empty,
    /// Consecutive links do not share an endpoint.
    Disconnected,
    /// The route does not start at the sender's node.
    WrongStart,
    /// The route does not end at the receiver's node.
    WrongEnd,
    /// The route visits the same link twice.
    RepeatedLink,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetError::UnknownSession(s) => write!(f, "unknown session {s}"),
            NetError::UnknownReceiver(r) => write!(f, "unknown receiver {r}"),
            NetError::BadCapacity { link, capacity } => {
                write!(f, "link {link} has invalid capacity {capacity}")
            }
            NetError::SelfLoop { link, node } => {
                write!(f, "link {link} is a self-loop at node {node}")
            }
            NetError::EmptySession(s) => write!(f, "session {s} has no receivers"),
            NetError::BadMaxRate { session, max_rate } => {
                write!(f, "session {session} has invalid maximum rate {max_rate}")
            }
            NetError::DuplicateMember { session, node } => write!(
                f,
                "session {session} maps two members onto the same node {node}"
            ),
            NetError::Unroutable { receiver } => {
                write!(f, "no route from sender to receiver {receiver}")
            }
            NetError::InvalidRoute { receiver, reason } => {
                write!(f, "invalid explicit route for {receiver}: {reason:?}")
            }
            NetError::RouteShapeMismatch => {
                write!(f, "explicit route table shape does not match sessions")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Convenient result alias for network construction.
pub(crate) type NetResult<T> = Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = NetError::BadCapacity {
            link: LinkId(0),
            capacity: -1.0,
        };
        assert_eq!(e.to_string(), "link l1 has invalid capacity -1");
        let e = NetError::Unroutable {
            receiver: ReceiverId::new(0, 0),
        };
        assert!(e.to_string().contains("r1,1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<NetError>();
    }
}
