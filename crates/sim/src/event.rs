//! Totally ordered discrete-event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events the engine schedules on its own heap.
///
/// Flow completions are *not* heap events: their times move whenever max-min
/// rates change, so the engine queries [`tetrium_net::FlowSim`] for the next
/// completion instead of enqueuing stale entries.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job (by workload index) arrives at the global manager.
    JobArrival(usize),
    /// An attempt finished its compute phase: `(job, stage, task, attempt
    /// id, copy)`, `copy` telling a speculative copy from the original.
    ComputeDone(usize, usize, usize, u64, bool),
    /// A batched scheduling instance fires.
    SchedulingPoint,
    /// A dynamics-timeline event (by index into the engine's timeline —
    /// capacity drop, link change, outage or recovery) takes effect.
    Dynamics(usize),
}

/// A heap entry ordered by `(time, seq)`.
///
/// `seq` is a monotonically increasing tie-breaker so simultaneous events
/// process in insertion order, which keeps runs deterministic.
#[derive(Debug, Clone)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Whether no events are pending.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, Event::SchedulingPoint);
        q.push(1.0, Event::JobArrival(0));
        q.push(2.0, Event::ComputeDone(0, 0, 0, 0, false));
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::JobArrival(7));
        q.push(1.0, Event::JobArrival(9));
        assert_eq!(q.pop().unwrap().1, Event::JobArrival(7));
        assert_eq!(q.pop().unwrap().1, Event::JobArrival(9));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(5.5, Event::SchedulingPoint);
        assert_eq!(q.peek_time(), Some(5.5));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
