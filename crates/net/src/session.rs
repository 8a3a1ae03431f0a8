//! Multicast sessions: a sender, a set of receivers, a type, and a maximum
//! desired rate.
//!
//! A session `S_i = (X_i, {r_{i,1}, ..., r_{i,k_i}})` has exactly one sender
//! and at least one receiver (Section 2). The mapping `chi` assigns each
//! session a type:
//!
//! * **single-rate** (`chi(S_i) = S`): data must be transmitted to all
//!   receivers at the same rate — the assumption made by most prior multicast
//!   fairness definitions (Tzeng & Siu among others);
//! * **multi-rate** (`chi(S_i) = M`): receivers may receive at independent
//!   (arbitrary) rates, as enabled by layered multicast.
//!
//! A unicast session is simply a session with a single receiver; the paper
//! observes it can be modelled as either type (both coincide), so we do not
//! introduce a third variant.

use crate::ids::NodeId;

/// The session-type mapping `chi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionType {
    /// `chi(S_i) = S`: all receivers must receive at a common rate.
    SingleRate,
    /// `chi(S_i) = M`: receivers may receive at independent rates.
    MultiRate,
}

impl SessionType {
    /// `true` for [`SessionType::MultiRate`].
    pub fn is_multi_rate(self) -> bool {
        matches!(self, SessionType::MultiRate)
    }

    /// `true` for [`SessionType::SingleRate`].
    pub fn is_single_rate(self) -> bool {
        matches!(self, SessionType::SingleRate)
    }
}

/// A multicast session `S_i` together with its topology mapping (`tau`
/// restricted to this session's members) and maximum desired rate `kappa_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Node hosting the sender `X_i`.
    pub sender: NodeId,
    /// Nodes hosting the receivers `r_{i,1}, ..., r_{i,k_i}` (at least one).
    pub receivers: Vec<NodeId>,
    /// The session type `chi(S_i)`.
    pub kind: SessionType,
    /// The maximum desired rate `kappa_i` (`0 < kappa_i <= INF_RATE`). The
    /// paper permits `kappa_i = infinity`; we encode "effectively unbounded"
    /// as `Session::UNBOUNDED_RATE` (`1e12`).
    pub max_rate: f64,
}

impl Session {
    /// Stand-in for `kappa_i = infinity`: far larger than any capacity used in
    /// experiments, yet finite so rate arithmetic stays well-behaved.
    pub(crate) const UNBOUNDED_RATE: f64 = 1e12;

    /// Create a multi-rate session with unbounded desired rate.
    pub fn multi_rate(sender: NodeId, receivers: Vec<NodeId>) -> Self {
        Session {
            sender,
            receivers,
            kind: SessionType::MultiRate,
            max_rate: Self::UNBOUNDED_RATE,
        }
    }

    /// Create a single-rate session with unbounded desired rate.
    pub fn single_rate(sender: NodeId, receivers: Vec<NodeId>) -> Self {
        Session {
            sender,
            receivers,
            kind: SessionType::SingleRate,
            max_rate: Self::UNBOUNDED_RATE,
        }
    }

    /// Create a unicast session (single receiver, multi-rate by convention —
    /// the two types coincide for unicast).
    pub fn unicast(sender: NodeId, receiver: NodeId) -> Self {
        Session::multi_rate(sender, vec![receiver])
    }

    /// Builder-style override of the maximum desired rate `kappa_i`.
    pub fn with_max_rate(mut self, max_rate: f64) -> Self {
        self.max_rate = max_rate;
        self
    }

    /// Number of receivers `k_i`.
    pub fn receiver_count(&self) -> usize {
        self.receivers.len()
    }

    /// Whether this session is unicast (exactly one receiver).
    pub fn is_unicast(&self) -> bool {
        self.receivers.len() == 1
    }

    /// Return a copy with receiver `index` removed (used by the Figure 3
    /// receiver-removal experiments). Panics if `index` is out of range.
    pub fn without_receiver(&self, index: usize) -> Self {
        let mut s = self.clone();
        s.receivers.remove(index);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let s = Session::multi_rate(NodeId(0), vec![NodeId(1), NodeId(2)]);
        assert!(s.kind.is_multi_rate());
        assert_eq!(s.receiver_count(), 2);
        assert_eq!(s.max_rate, Session::UNBOUNDED_RATE);

        let u = Session::unicast(NodeId(0), NodeId(1));
        assert!(u.is_unicast());

        let sr = Session::single_rate(NodeId(0), vec![NodeId(1)]).with_max_rate(3.0);
        assert!(sr.kind.is_single_rate());
        assert_eq!(sr.max_rate, 3.0);
    }

    #[test]
    fn without_receiver_removes_exactly_one() {
        let s = Session::multi_rate(NodeId(0), vec![NodeId(1), NodeId(2), NodeId(3)]);
        let t = s.without_receiver(1);
        assert_eq!(t.receivers, vec![NodeId(1), NodeId(3)]);
        assert_eq!(s.receiver_count(), 3, "original untouched");
    }

    #[test]
    fn session_type_predicates() {
        assert!(SessionType::MultiRate.is_multi_rate());
        assert!(!SessionType::MultiRate.is_single_rate());
        assert!(SessionType::SingleRate.is_single_rate());
    }
}
