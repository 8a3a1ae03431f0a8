//! A generic future-event list for discrete-event simulation.
//!
//! The frozen reference engines ([`crate::reference`] and
//! [`crate::reference_tree`]) keep their membership changes under
//! join/leave latency in an `EventQueue`: a classic calendar built on a
//! binary heap with two guarantees the reproduction relies on:
//!
//! * **deterministic tie-breaking** — events at the same timestamp pop in
//!   insertion order (a monotone sequence number breaks ties), so runs are
//!   bit-for-bit repeatable;
//! * **monotone time** — popping never goes backwards, and scheduling in
//!   the past is a caller bug caught by an assertion.
//!
//! The optimized engines' [`crate::multicast::MembershipTable`] pops its
//! changes in the same order from two FIFO lanes instead.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in discrete ticks (packet slots for the Section 4
/// experiments).
pub type Tick = u64;

/// An event queue over payloads of type `E`.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Tick,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Tick,
    seq: u64,
    payload: E,
}

// Min-heap by (time, seq): BinaryHeap is a max-heap, so invert the ordering.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> Tick {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub(crate) fn schedule_at(&mut self, at: Tick, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pop the next event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(Tick, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<Tick> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop all events scheduled at or before `t` (advancing the clock to at
    /// most `t`).
    pub(crate) fn drain_until(&mut self, t: Tick) -> Vec<(Tick, E)> {
        let mut out = Vec::new();
        while self.peek_time().is_some_and(|at| at <= t) {
            // A successful peek guarantees the pop; `break` degrades safely.
            let Some(ev) = self.pop() else { break };
            out.push(ev);
        }
        self.now = self.now.max(t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "c");
        q.schedule_at(1, "a");
        q.schedule_at(3, "b");
        assert_eq!(q.pop(), Some((1, "a")));
        assert_eq!(q.pop(), Some((3, "b")));
        assert_eq!(q.now(), 3);
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "x");
        let _ = q.pop();
        q.schedule_at(5, "y");
    }

    #[test]
    fn drain_until_never_moves_the_clock_back() {
        let mut q = EventQueue::<()>::new();
        assert!(q.drain_until(7).is_empty());
        assert_eq!(q.now(), 7);
        assert!(q.drain_until(3).is_empty());
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn drain_until_collects_due_events_and_advances() {
        let mut q = EventQueue::new();
        q.schedule_at(1, "a");
        q.schedule_at(2, "b");
        q.schedule_at(9, "c");
        let due = q.drain_until(5);
        assert_eq!(due, vec![(1, "a"), (2, "b")]);
        assert_eq!(q.now(), 5);
        assert_eq!(q.drain_until(Tick::MAX), vec![(9, "c")]);
    }
}
