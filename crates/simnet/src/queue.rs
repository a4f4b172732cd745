//! A deterministic event queue keyed by [`SimTime`].
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which keeps simulations reproducible regardless of payload type.
//!
//! # Engine
//!
//! [`EventQueue`] is a `BinaryHeap` ordered on `(at, seq)`: the scheduled
//! instant, then an insertion sequence number that breaks same-instant
//! ties. That pair is a total order, so delivery never depends on how the
//! heap happens to be laid out — the `(at, seq)` contract the simulation's
//! byte-determinism is built on is the heap's own comparison. Schedule and
//! pop are O(log n) in the pending population, which the runtime holds at
//! a handful of events (DESIGN.md §12 has the measured means); peeking is
//! O(1) and never mutates the queue. Once the heap's buffer has grown to
//! the peak population, the schedule/pop cycle allocates nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

use crate::time::SimTime;

/// A pending event: its instant, its insertion sequence number, and the
/// payload, which takes no part in the ordering.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: invert so the earliest event pops
        // first, and of two at one instant the one scheduled first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-priority queue of simulation events ordered by virtual time.
///
/// The queue also tracks the current virtual clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling into the past is
/// a programming error and panics, because it would silently reorder the
/// simulation.
///
/// # Examples
///
/// ```
/// use c4h_simnet::{EventQueue, SimTime};
/// use std::time::Duration;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(Duration::from_millis(5), "second");
/// q.schedule_at(SimTime::from_millis(1), "first");
///
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_millis(1), "first"));
/// assert_eq!(q.now(), SimTime::from_millis(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` after a relative `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) {
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "queue surfaced an event from the past");
        self.now = s.at;
        Some((s.at, s.payload))
    }

    /// Advances the clock to `at` without delivering events.
    ///
    /// Useful when an external model (e.g. the flow network) decides the next
    /// interesting instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if an event is
    /// pending before `at` (advancing past it would drop causality).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(t) = self.peek_time() {
            assert!(t >= at, "cannot advance past a pending event at {t}");
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), 3);
        q.schedule_at(SimTime::from_millis(10), 1);
        q.schedule_at(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// A tie run scheduled after a later event still pops first, in
    /// insertion order.
    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule_at(SimTime::from_millis(9), 99);
        for i in 0..4 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 99]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.pop();
        q.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    #[should_panic(expected = "pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(20));
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(1));
        assert_eq!(q.now(), SimTime::from_secs(1));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    /// One instant scheduled from two clock positions, far from it and
    /// one millisecond short of it: its entries must pop as one run in
    /// insertion order.
    #[test]
    fn same_instant_entries_merge_across_levels() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(10);
        q.schedule_at(t, 0);
        q.schedule_at(SimTime::from_millis(9_999), -1);
        q.pop(); // now = 9.999 s: t is one millisecond out
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2], "seq order across scheduling clocks");
    }

    /// Far-future events (including the `SimTime::MAX` sentinel) pop in
    /// order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::MAX, 3);
        q.schedule_at(SimTime::from_secs(3_600 * 24 * 365), 2); // one year
        q.schedule_at(SimTime::from_millis(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.now(), SimTime::MAX);
    }

    /// Zero-delay re-arming from inside the pop loop: each rescheduled
    /// event lands at the same instant with a later seq, after events
    /// already queued there.
    #[test]
    fn zero_delay_rearm_delivers_after_queued_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "a");
        q.schedule_in(Duration::ZERO, "rearmed"); // at == now == t
        let (t2, second) = q.pop().unwrap();
        assert_eq!((t2, second), (t, "b"), "queued tie pops before re-arm");
        let (t3, third) = q.pop().unwrap();
        assert_eq!((t3, third), (t, "rearmed"));
    }

    /// `advance_to` across a long empty stretch, then scheduling near the
    /// new clock: the nearer event pops first.
    #[test]
    fn advance_past_empty_slots_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(100), "far");
        q.advance_to(SimTime::from_secs(99));
        q.schedule_at(SimTime::from_secs(99) + Duration::from_nanos(1), "near");
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_secs(99) + Duration::from_nanos(1))
        );
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["near", "far"]);
    }
}
