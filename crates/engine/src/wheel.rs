//! A timing-wheel event queue — the classic DES alternative to a binary
//! heap (cf. calendar queues, Brown 1988).
//!
//! Events within the wheel's horizon go into `buckets[time & mask]`; events
//! beyond it wait in an overflow map that is drained as the wheel turns.
//! Pop order is identical to [`crate::EventQueue`]: nondecreasing time,
//! FIFO among equal times — verified by an equivalence property test.
//!
//! The hot path is kept O(1)-ish per operation:
//!
//! * slot count is rounded up to a power of two so the slot index is a
//!   bitmask, not a modulo;
//! * a per-slot **occupancy bitmap** lets the cursor jump straight to the
//!   next non-empty slot of the current turn instead of stepping cycle by
//!   cycle;
//! * an **in-wheel counter** answers "is the wheel empty" without scanning
//!   the buckets;
//! * the earliest overflow time is cached, so the overflow map is only
//!   touched at refill boundaries;
//! * refills drain a prefix of the overflow map in place (overflow keys
//!   are always beyond every bucketed time, so no allocation is needed).
//!
//! The wheel wins when event times are dense and near the current time
//! (the common case for a machine simulator, where most events are a few
//! cycles out); the heap wins on sparse, long-horizon schedules. The
//! `micro` bench times the wheel under simulator-like load.

use std::collections::{BTreeMap, VecDeque};

use crate::event::Scheduled;
use crate::Cycle;

/// Sentinel for "overflow map is empty".
const NO_OVERFLOW: Cycle = Cycle::MAX;

/// A timing-wheel event queue with heap-identical ordering semantics.
#[derive(Debug)]
pub struct WheelQueue<E> {
    /// `buckets[t & mask]` holds events with `t` within the horizon, in
    /// insertion order (same-time FIFO comes for free).
    buckets: Vec<VecDeque<Scheduled<E>>>,
    /// Bit `i` set ⇔ `buckets[i]` is non-empty.
    occupied: Vec<u64>,
    /// Bit `i` set ⇔ a refill appended to a non-empty `buckets[i]`, so
    /// its entries may be out of seq order and pops must scan for the
    /// minimum; cleared when the bucket drains.
    dirty: Vec<u64>,
    /// Events beyond the horizon, keyed by `(time, seq)`.
    overflow: BTreeMap<(Cycle, u64), E>,
    /// Earliest overflow time ([`NO_OVERFLOW`] when the map is empty).
    next_overflow: Cycle,
    /// Events currently sitting in the buckets (not in overflow).
    in_wheel: usize,
    /// `slots - 1`; slots is a power of two.
    mask: Cycle,
    /// Current time (last popped).
    now: Cycle,
    /// Next wheel slot to inspect (time, not index).
    cursor: Cycle,
    next_seq: u64,
    len: usize,
    popped: u64,
}

impl<E> WheelQueue<E> {
    /// Creates a wheel with at least `slots` one-cycle buckets of horizon
    /// (rounded up to the next power of two).
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 2);
        let slots = slots.next_power_of_two();
        Self {
            buckets: (0..slots).map(|_| VecDeque::new()).collect(),
            occupied: vec![0u64; slots.div_ceil(64)],
            dirty: vec![0u64; slots.div_ceil(64)],
            overflow: BTreeMap::new(),
            next_overflow: NO_OVERFLOW,
            in_wheel: 0,
            mask: (slots - 1) as Cycle,
            now: 0,
            cursor: 0,
            next_seq: 0,
            len: 0,
            popped: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    fn horizon(&self) -> Cycle {
        self.mask + 1
    }

    /// Appends to a bucket. Direct schedules always append in increasing
    /// seq order; a refill (`mark_dirty`) may not, in which case the
    /// bucket is flagged so pops fall back to a full min-seq scan.
    #[inline]
    fn push_bucket(&mut self, at: Cycle, seq: u64, event: E, mark_dirty: bool) {
        let idx = (at & self.mask) as usize;
        if mark_dirty && !self.buckets[idx].is_empty() {
            self.dirty[idx >> 6] |= 1u64 << (idx & 63);
        }
        self.buckets[idx].push_back(Scheduled { at, seq, event });
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
        self.in_wheel += 1;
    }

    /// Schedules `event` at cycle `at` (must be `>= now()`).
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if at < self.cursor {
            // A peek fast-forwarded the cursor past `at` (still >= now):
            // rewind so the slot scan visits this time again. Bucketed
            // events beyond the horizon are harmless — the pop filter
            // only takes events whose time equals the cursor.
            self.cursor = at;
        }
        if at - self.cursor < self.horizon() {
            self.push_bucket(at, seq, event, false);
        } else {
            self.overflow.insert((at, seq), event);
            self.next_overflow = self.next_overflow.min(at);
        }
        self.len += 1;
    }

    /// Schedules `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now.saturating_add(delay), event);
    }

    /// Pops the next event (time order, FIFO within a cycle).
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        loop {
            // (a) the wheel slot for the cursor time
            let idx = (self.cursor & self.mask) as usize;
            if self.occupied[idx >> 6] & (1u64 << (idx & 63)) != 0 {
                if let Some(ev) = self.take_from_bucket(idx) {
                    self.len -= 1;
                    self.popped += 1;
                    self.now = ev.at;
                    return Some(ev);
                }
            }
            // (b) overflow events exactly at the cursor (defensive: refill
            // normally moves them into the wheel before the cursor arrives)
            if self.next_overflow == self.cursor {
                let ((at, seq), event) = self.overflow.pop_first().expect("cached key exists");
                self.next_overflow = self
                    .overflow
                    .first_key_value()
                    .map_or(NO_OVERFLOW, |(&(t, _), _)| t);
                self.len -= 1;
                self.popped += 1;
                self.now = at;
                return Some(Scheduled { at, seq, event });
            }
            self.advance();
        }
    }

    /// Time of the next event without popping it (`None` when empty).
    ///
    /// Finding the next event may rotate the cursor across empty slots
    /// (refilling from overflow at horizon boundaries), so this takes
    /// `&mut self`; the queue's contents and pop order are unchanged.
    /// Mirrors the scan in [`WheelQueue::pop`].
    pub fn peek_time(&mut self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        loop {
            let idx = (self.cursor & self.mask) as usize;
            if self.occupied[idx >> 6] & (1u64 << (idx & 63)) != 0
                && self.buckets[idx].iter().any(|s| s.at == self.cursor)
            {
                return Some(self.cursor);
            }
            if self.next_overflow == self.cursor {
                return Some(self.cursor);
            }
            self.advance();
        }
    }

    /// Removes the earliest (min-seq) event at the cursor time from
    /// `buckets[idx]`, if one exists.
    ///
    /// Fast path: a clean bucket holds entries in seq order, so the
    /// first entry matching the cursor time is the minimum — and it is
    /// almost always at the front (`pop_front`). Only a bucket a refill
    /// appended to out of order needs the full min-seq scan.
    #[inline]
    fn take_from_bucket(&mut self, idx: usize) -> Option<Scheduled<E>> {
        let dirty = self.dirty[idx >> 6] & (1u64 << (idx & 63)) != 0;
        let bucket = &mut self.buckets[idx];
        let pos = if !dirty {
            if bucket.front().is_some_and(|s| s.at == self.cursor) {
                Some(0)
            } else {
                bucket.iter().position(|s| s.at == self.cursor)
            }
        } else {
            // events of different wheel turns can share a slot (e.g.
            // after a refill or a cursor rewind): filter to the cursor
            // time, then take the earliest seq
            let mut best: Option<(usize, u64)> = None;
            for (i, s) in bucket.iter().enumerate() {
                if s.at == self.cursor {
                    best = match best {
                        Some((_, bseq)) if bseq <= s.seq => best,
                        _ => Some((i, s.seq)),
                    };
                }
            }
            best.map(|(i, _)| i)
        }?;
        let ev = if pos == 0 {
            bucket.pop_front().expect("position 0 exists")
        } else {
            bucket.remove(pos).expect("position exists")
        };
        if bucket.is_empty() {
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
            self.dirty[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.in_wheel -= 1;
        Some(ev)
    }

    /// Moves the cursor to the next candidate time: the next occupied
    /// slot of the current turn, else the next horizon boundary (where
    /// overflow refills), fast-forwarding over fully empty stretches.
    #[inline]
    fn advance(&mut self) {
        let idx = (self.cursor & self.mask) as usize;
        // Only slots idx+1 .. slots belong to the current turn (they map
        // to times cursor+1 .. boundary-1); earlier slots are next turn.
        if let Some(j) = self.next_occupied_after(idx) {
            self.cursor += (j - idx) as Cycle;
            return;
        }
        // boundary: cursor - idx is horizon-aligned, one turn further on
        self.cursor += self.horizon() - idx as Cycle;
        self.refill();
        if self.in_wheel == 0 {
            // fast-forward across an empty wheel to the first overflow
            debug_assert!(self.next_overflow != NO_OVERFLOW, "len says non-empty");
            self.cursor = self.next_overflow;
            self.refill();
        }
    }

    /// The first occupied slot index strictly after `idx`, if any.
    #[inline]
    fn next_occupied_after(&self, idx: usize) -> Option<usize> {
        let slots = self.buckets.len();
        let mut word_i = (idx + 1) >> 6;
        if word_i >= self.occupied.len() {
            return None;
        }
        // mask off bits <= idx in the first word
        let mut word = self.occupied[word_i] & (!0u64 << ((idx + 1) & 63));
        loop {
            if word != 0 {
                let j = (word_i << 6) + word.trailing_zeros() as usize;
                return (j < slots).then_some(j);
            }
            word_i += 1;
            if word_i >= self.occupied.len() {
                return None;
            }
            word = self.occupied[word_i];
        }
    }

    /// Moves overflow events that now fall within the horizon into the
    /// wheel, preserving seq for FIFO. Overflow keys are always beyond
    /// every bucketed time, so the moved events form a prefix of the map.
    fn refill(&mut self) {
        let hi = self.cursor + self.horizon();
        if self.next_overflow >= hi {
            return;
        }
        while let Some((&(at, _), _)) = self.overflow.first_key_value() {
            if at >= hi {
                break;
            }
            let ((at, seq), event) = self.overflow.pop_first().expect("non-empty");
            self.push_bucket(at, seq, event, true);
        }
        self.next_overflow = self
            .overflow
            .first_key_value()
            .map_or(NO_OVERFLOW, |(&(t, _), _)| t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn basic_order() {
        let mut w = WheelQueue::new(8);
        w.schedule(30, "c");
        w.schedule(1, "a");
        w.schedule(7, "b");
        assert_eq!(w.pop().unwrap().event, "a");
        assert_eq!(w.pop().unwrap().event, "b");
        assert_eq!(w.pop().unwrap().event, "c");
        assert_eq!(w.now(), 30);
        assert!(w.pop().is_none());
    }

    #[test]
    fn fifo_within_cycle() {
        let mut w = WheelQueue::new(4);
        for i in 0..50 {
            w.schedule(9, i);
        }
        for i in 0..50 {
            assert_eq!(w.pop().unwrap().event, i);
        }
    }

    #[test]
    fn far_horizon_via_overflow() {
        let mut w = WheelQueue::new(4);
        w.schedule(1_000_000, "far");
        w.schedule(2, "near");
        assert_eq!(w.pop().unwrap().event, "near");
        assert_eq!(w.pop().unwrap().event, "far");
        assert_eq!(w.now(), 1_000_000);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut w = WheelQueue::new(8);
        w.schedule(3, 1u32);
        assert_eq!(w.pop().unwrap().event, 1);
        w.schedule_in(5, 2);
        w.schedule_in(2, 3);
        assert_eq!(w.pop().unwrap().event, 3);
        assert_eq!(w.pop().unwrap().event, 2);
        assert_eq!(w.now(), 8);
    }

    #[test]
    fn peek_time_does_not_consume() {
        let mut w = WheelQueue::new(4);
        assert_eq!(w.peek_time(), None);
        w.schedule(5, "a");
        w.schedule(5, "b");
        assert_eq!(w.peek_time(), Some(5));
        assert_eq!(w.peek_time(), Some(5));
        assert_eq!(w.len(), 2);
        assert_eq!(w.pop().unwrap().event, "a");
        assert_eq!(w.peek_time(), Some(5));
        assert_eq!(w.pop().unwrap().event, "b");
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn peek_time_reaches_overflow() {
        let mut w = WheelQueue::new(4);
        w.schedule(1_000, "far");
        assert_eq!(w.peek_time(), Some(1_000));
        assert_eq!(w.pop().unwrap().at, 1_000);
    }

    #[test]
    fn schedule_earlier_after_peek_rewinds() {
        // peek fast-forwards the cursor to 10; a later schedule at 3
        // (legal: now is still 0) must rewind and pop first
        let mut w = WheelQueue::new(4);
        w.schedule(10, "late");
        assert_eq!(w.peek_time(), Some(10));
        w.schedule(3, "early");
        assert_eq!(w.peek_time(), Some(3));
        assert_eq!(w.pop().unwrap().event, "early");
        assert_eq!(w.pop().unwrap().event, "late");
        assert!(w.pop().is_none());
    }

    #[test]
    fn same_slot_different_turns() {
        // horizon 4: times 2 and 6 share slot 2
        let mut w = WheelQueue::new(4);
        w.schedule(2, "t2");
        w.schedule(3, "t3");
        // t=6 is outside [cursor, cursor+4) = [0,4): goes to overflow
        w.schedule(6, "t6");
        assert_eq!(w.pop().unwrap().event, "t2");
        assert_eq!(w.pop().unwrap().event, "t3");
        assert_eq!(w.pop().unwrap().event, "t6");
    }

    #[test]
    fn slot_count_rounds_up_to_power_of_two() {
        let w = WheelQueue::<u32>::new(3);
        assert_eq!(w.horizon(), 4);
        let w = WheelQueue::<u32>::new(1000);
        assert_eq!(w.horizon(), 1024);
    }

    proptest! {
        /// The wheel pops in exactly the same order as the binary-heap
        /// queue for any schedule/pop interleaving.
        #[test]
        fn prop_equivalent_to_heap(
            slots in 2usize..32,
            ops in proptest::collection::vec((0u64..200, 0u8..3), 1..200),
        ) {
            let mut heap = EventQueue::new();
            let mut wheel = WheelQueue::new(slots);
            let mut tag = 0u64;
            for (d, action) in ops {
                match action {
                    0 => {
                        heap.schedule_in(d, tag);
                        wheel.schedule_in(d, tag);
                        tag += 1;
                    }
                    1 => {
                        let a = heap.pop().map(|s| (s.at, s.event));
                        let b = wheel.pop().map(|s| (s.at, s.event));
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(heap.now(), wheel.now());
                    }
                    _ => {
                        // peeks interleave with schedules/pops without
                        // disturbing pop order
                        prop_assert_eq!(heap.peek_time(), wheel.peek_time());
                    }
                }
            }
            // drain both fully
            loop {
                let a = heap.pop().map(|s| (s.at, s.event));
                let b = wheel.pop().map(|s| (s.at, s.event));
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
