//! A timing-wheel event queue — the classic DES alternative to a binary
//! heap (cf. calendar queues, Brown 1988).
//!
//! Events within the wheel's horizon go into `buckets[time & mask]`; events
//! beyond it wait in an overflow map that is drained as the wheel turns.
//! Pop order is nondecreasing time, FIFO among equal times — identical to
//! a binary heap's, which an equivalence property test checks against the
//! test-only heap queue in `event`.
//!
//! The hot path is kept O(1)-ish per operation:
//!
//! * every bucketed event lives in one **slab**; each bucket is a FIFO
//!   list threaded through the slab by index, and a popped event's slab
//!   slot goes on a LIFO free list, so a schedule reuses the slot the
//!   last pop left warm in cache and nothing is allocated once the slab
//!   has reached the peak number of bucketed events;
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
//! cycles out); the heap wins on sparse, long-horizon schedules.

use std::collections::BTreeMap;

use crate::Cycle;

/// An event together with the cycle at which it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Cycle at which the event fires.
    pub at: Cycle,
    /// Insertion sequence number; breaks ties among events at the same cycle.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Sentinel for "overflow map is empty".
const NO_OVERFLOW: Cycle = Cycle::MAX;

/// Sentinel slab index: the end of a list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// One slab entry: a bucketed event and the link to the next entry of
/// its bucket (or of the free list, once its event has been taken).
#[derive(Debug)]
struct Slot<E> {
    at: Cycle,
    seq: u64,
    next: u32,
    /// `None` while the slot is on the free list.
    event: Option<E>,
}

/// A bucket's FIFO list through the slab: its first and last slot
/// ([`NIL`] when the bucket is empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// A timing-wheel event queue with heap-identical ordering semantics.
#[derive(Debug)]
pub struct WheelQueue<E> {
    /// Every bucketed event; each bucket's entries are linked through
    /// `Slot::next`, and so are the free slots.
    slab: Vec<Slot<E>>,
    /// First slot of the free list ([`NIL`] when every slot is in use).
    free: u32,
    /// `buckets[t & mask]` lists events with `t` within the horizon, in
    /// insertion order (same-time FIFO comes for free).
    buckets: Vec<Bucket>,
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
            slab: Vec::new(),
            free: NIL,
            buckets: vec![Bucket::EMPTY; slots],
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

    /// Appends to a bucket, in a slot taken from the free list when one
    /// is there. Direct schedules always append in increasing seq order;
    /// a refill (`mark_dirty`) may not, in which case the bucket is
    /// flagged so pops fall back to a full min-seq scan.
    #[inline]
    fn push_bucket(&mut self, at: Cycle, seq: u64, event: E, mark_dirty: bool) {
        let idx = (at & self.mask) as usize;
        let slot = Slot {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = slot;
            i
        } else {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more bucketed events than a u32 slab index can address");
            self.slab.push(slot);
            i
        };
        let bucket = &mut self.buckets[idx];
        if bucket.tail == NIL {
            bucket.head = i;
        } else {
            if mark_dirty {
                self.dirty[idx >> 6] |= 1u64 << (idx & 63);
            }
            self.slab[bucket.tail as usize].next = i;
        }
        bucket.tail = i;
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
                && self.find_in_bucket(idx, false).is_some()
            {
                return Some(self.cursor);
            }
            if self.next_overflow == self.cursor {
                return Some(self.cursor);
            }
            self.advance();
        }
    }

    /// The slot of the earliest (min-seq) event at the cursor time in
    /// `buckets[idx]`, with its predecessor in the list ([`NIL`] at the
    /// head), if one exists.
    ///
    /// Fast path: a clean bucket holds entries in seq order, so the
    /// first entry matching the cursor time is the minimum — and it is
    /// almost always the head. Only a bucket a refill appended to out
    /// of order (`dirty`) needs the full min-seq scan: events of
    /// different wheel turns can share a slot (e.g. after a refill or a
    /// cursor rewind), so it filters to the cursor time, then takes the
    /// earliest seq.
    #[inline]
    fn find_in_bucket(&self, idx: usize, dirty: bool) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        let (mut prev, mut i) = (NIL, self.buckets[idx].head);
        while i != NIL {
            let s = &self.slab[i as usize];
            if s.at == self.cursor && best.is_none_or(|(_, b)| s.seq < self.slab[b as usize].seq) {
                best = Some((prev, i));
                if !dirty {
                    break;
                }
            }
            prev = i;
            i = s.next;
        }
        best
    }

    /// Removes the earliest (min-seq) event at the cursor time from
    /// `buckets[idx]`, if one exists, and frees its slot.
    #[inline]
    fn take_from_bucket(&mut self, idx: usize) -> Option<Scheduled<E>> {
        let dirty = self.dirty[idx >> 6] & (1u64 << (idx & 63)) != 0;
        let (prev, i) = self.find_in_bucket(idx, dirty)?;
        let slot = &mut self.slab[i as usize];
        let next = slot.next;
        let ev = Scheduled {
            at: slot.at,
            seq: slot.seq,
            event: slot.event.take().expect("a listed slot holds its event"),
        };
        slot.next = self.free;
        self.free = i;
        let bucket = &mut self.buckets[idx];
        if prev == NIL {
            bucket.head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if bucket.tail == i {
            bucket.tail = prev;
        }
        if bucket.head == NIL {
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
    use crate::event::EventQueue;
    use crate::SimRng;
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

    #[test]
    fn freed_slots_are_reused() {
        // a steady state of at most 8 pending events, some of them
        // beyond the horizon, never grows the slab past the peak
        // pending count
        let mut w = WheelQueue::new(64);
        let mut rng = SimRng::new(21);
        let mut peak = 0;
        for step in 0..100_000u64 {
            if w.is_empty() || (w.len() < 8 && rng.chance(0.5)) {
                let delay = if rng.chance(0.05) { 200 } else { rng.below(40) };
                w.schedule_in(delay, step);
            } else {
                w.pop().unwrap();
            }
            peak = peak.max(w.len());
            assert!(w.slab.len() <= peak, "slab {} > peak {peak}", w.slab.len());
        }
        assert_eq!(peak, 8);
    }

    proptest! {
        /// The wheel pops in exactly the same order as the binary-heap
        /// queue for any schedule/pop interleaving.
        #[test]
        fn prop_equivalent_to_heap(
            slots in 2usize..32,
            ops in proptest::collection::vec((0u64..200, 0u8..4, 1usize..65), 1..1000),
        ) {
            let mut heap = EventQueue::new();
            let mut wheel = WheelQueue::new(slots);
            let mut tag = 0u64;
            for (d, action, burst) in ops {
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
                    2 => {
                        // peeks interleave with schedules/pops without
                        // disturbing pop order
                        prop_assert_eq!(heap.peek_time(), wheel.peek_time());
                    }
                    _ => {
                        // a burst at one time, like a broadcast's
                        // invalidations
                        for _ in 0..burst {
                            heap.schedule_in(d, tag);
                            wheel.schedule_in(d, tag);
                            tag += 1;
                        }
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
