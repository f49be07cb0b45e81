//! The binary-heap event queue: the reference the timing wheel is
//! property-checked against (`wheel::tests::prop_equivalent_to_heap`).
//! The module is compiled for tests only; the machine's one scheduler is
//! [`crate::WheelQueue`].
//!
//! Determinism requires that events scheduled for the *same* cycle pop in
//! insertion order; a plain `BinaryHeap<(Cycle, E)>` would instead break
//! ties on the payload's `Ord`, which is both semantically wrong and a
//! subtle source of irreproducibility. We therefore pair every event with
//! a monotonically increasing sequence number.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{Cycle, Scheduled};

// The heap is a max-heap, so order is reversed: the *smallest* (at, seq)
// must compare greatest.
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

#[derive(Debug)]
struct HeapEntry<E>(Scheduled<E>);

/// A deterministic discrete-event queue on a binary heap.
///
/// Events pop in nondecreasing `at` order; events with equal `at` pop in the
/// order they were pushed. Popping an event advances [`EventQueue::now`] to
/// the event's cycle; scheduling an event in the past is a logic error and
/// panics in debug builds (it is clamped to `now` in release builds, which
/// keeps long experiment sweeps alive while still surfacing the bug under
/// `cargo test`).
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    now: Cycle,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulation time: the cycle of the most recently popped
    /// event (0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// `at` must be `>= now()`.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Scheduled { at, seq, event }));
    }

    /// Schedules `event` to fire `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// Pops the next event, advancing the clock to its cycle.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        self.now = entry.0.at;
        self.popped += 1;
        Some(entry.0)
    }

    /// The cycle of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.0.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert_eq!(q.now(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(5, 0u32);
        q.pop();
        q.schedule_in(3, 1u32);
        let e = q.pop().unwrap();
        assert_eq!(e.at, 8);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1, 'a');
        q.schedule(4, 'd');
        assert_eq!(q.pop().unwrap().event, 'a');
        // scheduled after 'd' but earlier in time
        q.schedule(2, 'b');
        q.schedule(2, 'c');
        assert_eq!(q.pop().unwrap().event, 'b');
        assert_eq!(q.pop().unwrap().event, 'c');
        assert_eq!(q.pop().unwrap().event, 'd');
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.popped(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_pops_at_now_in_release() {
        let mut q = EventQueue::new();
        q.schedule(10, 'a');
        q.pop();
        q.schedule(5, 'b');
        let e = q.pop().unwrap();
        assert_eq!((e.at, e.event), (10, 'b'));
        assert_eq!(q.now(), 10);
    }

    proptest! {
        /// Events always pop in nondecreasing time, and FIFO within a time.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            let mut max_t = 0;
            for (i, &t) in times.iter().enumerate() {
                // keep schedules legal (>= now == 0 since we pop at the end)
                q.schedule(t, i);
                max_t = max_t.max(t);
            }
            let mut last: Option<(u64, usize)> = None;
            while let Some(s) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(s.at >= lt);
                    if s.at == lt {
                        prop_assert!(s.event > li, "FIFO violated within cycle {}", s.at);
                    }
                }
                last = Some((s.at, s.event));
            }
            prop_assert_eq!(q.now(), max_t);
        }

        /// now() never decreases across arbitrary interleavings.
        #[test]
        fn prop_clock_monotone(ops in proptest::collection::vec(0u64..50, 1..100)) {
            let mut q = EventQueue::new();
            let mut prev_now = 0;
            for &d in &ops {
                if d % 3 == 0 {
                    q.pop();
                } else {
                    q.schedule_in(d, d);
                }
                prop_assert!(q.now() >= prev_now);
                prev_now = q.now();
            }
        }
    }
}
