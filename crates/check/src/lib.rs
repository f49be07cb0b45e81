//! # ssmp-check
//!
//! A runtime protocol sanitizer for the machine simulator. A [`Checker`]
//! folds every [`TraceEvent`] into a reference oracle and asserts, as the
//! run progresses, the invariants the paper argues informally:
//!
//! * **wire exactly-once** — every injected wire id is delivered at most
//!   once (duplicates must be suppressed at delivery), and never before it
//!   was injected;
//! * **write-buffer drain ordering** — acks match outstanding buffered
//!   writes, reported depths agree with the reconstructed occupancy, and a
//!   drain completion requires an empty buffer;
//! * **CBL mutual exclusion + FIFO handoff** — grants land in directory
//!   arrival order of requests, and the holder set stays mode-compatible
//!   (via the machine-side structural hooks);
//! * **SWMR / directory agreement** — WBI single-writer and RIC
//!   list-membership structural checks, re-asserted after every protocol
//!   delivery and cross-checked against actual cached copies at the end of
//!   a completed run;
//! * **value oracle** — every shared-read value was actually written to
//!   that word by some node earlier in the run (no out-of-thin-air values,
//!   sound under both sequential and buffered consistency, where in-flight
//!   updates legitimately let readers observe older writes).
//!
//! Violations become structured [`ViolationReport`]s carrying the last-K
//! trace ring, mirroring the machine's `DeadlockReport`. The sanitizer is
//! wired in as a [`TraceSink`] plus a handful of narrow state-exposure
//! hooks, and is zero-cost when off: an unarmed machine never constructs a
//! checker, and an armed run's report is byte-identical to an unarmed one
//! whenever no invariant is violated.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

use ssmp_engine::{Cycle, IdMap, Kind, TraceEvent, TraceSink};

/// How many trailing trace events a violation carries.
const RING_CAP: usize = 32;

/// Wire-state bits: the wire departed onto the interconnect.
const INJECTED: u8 = 1;
/// Wire-state bits: the wire was processed at its destination.
const DELIVERED: u8 = 2;

/// How many violations are retained per run (the first ones; later
/// violations of an already-broken run are usually cascade noise).
const MAX_VIOLATIONS: usize = 16;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// Stable identifier of the broken invariant (`"wire.exactly-once"`,
    /// `"cbl.fifo"`, `"cbl.exclusion"`, `"ric.list"`, `"ric.membership"`,
    /// `"wbi.swmr"`, `"wbuf.drain"`, `"value.oracle"`, `"memory.final"`).
    pub invariant: &'static str,
    /// Simulation time at which the violation was detected.
    pub cycle: Cycle,
    /// Node the violating event is attributed to (`-1` = machine-global).
    pub node: i64,
    /// Human-readable specifics.
    pub detail: String,
    /// The last trace events before detection, oldest first (empty when
    /// the violation was found by a finish-time cross-check).
    pub recent: Vec<TraceEvent>,
}

impl ViolationReport {
    /// A multi-line human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "VIOLATION [{}] at cycle {} node {}: {}",
            self.invariant, self.cycle, self.node, self.detail
        );
        for ev in &self.recent {
            let _ = writeln!(s, "    {ev}");
        }
        s
    }
}

impl fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A per-line ownership summary attached to deadlock diagnoses so hangs
/// and violations share one format: who the directory believes owns or
/// shares the block, plus the sanitizer's last-writer observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineSummary {
    /// Shared block id.
    pub block: usize,
    /// Exclusive owner, if the block is modified somewhere.
    pub owner: Option<usize>,
    /// Nodes holding (or enrolled for) a copy, ascending.
    pub sharers: Vec<usize>,
    /// The node the sanitizer last saw write this block, if any.
    pub last_writer: Option<i64>,
}

impl fmt::Display for LineSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:>3}:", self.block)?;
        match self.owner {
            Some(o) => write!(f, " owner {o}")?,
            None => write!(f, " no owner")?,
        }
        write!(f, " sharers {:?}", self.sharers)?;
        if let Some(w) = self.last_writer {
            write!(f, " last-writer {w}")?;
        }
        Ok(())
    }
}

/// The reference oracle. Owned by the machine (shared with the
/// [`CheckSink`] riding the tracer); trace events arrive through
/// [`Checker::fold`], protocol state through the named hook methods.
#[derive(Debug, Default)]
pub struct Checker {
    ring: VecDeque<TraceEvent>,
    violations: Vec<ViolationReport>,
    /// Total violations detected, including ones dropped past the cap.
    detected: u64,
    /// Per wire id: its [`INJECTED`] and [`DELIVERED`] bits.
    wires: IdMap<u8>,
    /// Per-node outstanding (pushed, unacked) write-buffer ids.
    wbuf: HashMap<i64, BTreeSet<u64>>,
    /// Per-lock FIFO of requesters in directory arrival order.
    cbl_pending: HashMap<u64, VecDeque<i64>>,
    /// Every value ever written to each shared `(block, word)`.
    writes: HashMap<(u64, u64), HashSet<u64>>,
    /// Last node observed writing each shared block.
    last_writer: BTreeMap<u64, i64>,
}

impl Checker {
    /// A fresh oracle with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    fn violate(&mut self, invariant: &'static str, cycle: Cycle, node: i64, detail: String) {
        self.detected += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            let recent = self.ring.iter().copied().collect();
            self.violations.push(ViolationReport {
                invariant,
                cycle,
                node,
                detail,
                recent,
            });
        }
    }

    /// Sets `bit` in wire `id`'s state; returns the state before.
    fn mark(&mut self, id: u64, bit: u8) -> u8 {
        let seen = self.wires.get_or_insert_with(id, || 0);
        let before = *seen;
        *seen |= bit;
        before
    }

    /// Folds one trace event into the oracle. Called by the [`CheckSink`]
    /// for every event the machine emits.
    pub fn fold(&mut self, ev: &TraceEvent) {
        match ev.kind {
            Kind::NetInject if self.mark(ev.id, INJECTED) & INJECTED != 0 => {
                self.violate(
                    "wire.exactly-once",
                    ev.cycle,
                    ev.node,
                    format!("wire id {} injected twice ({})", ev.id, ev.detail),
                );
            }
            Kind::NetDeliver => {
                let seen = self.mark(ev.id, DELIVERED);
                if seen & INJECTED == 0 {
                    self.violate(
                        "wire.exactly-once",
                        ev.cycle,
                        ev.node,
                        format!(
                            "wire id {} delivered but never injected ({})",
                            ev.id, ev.detail
                        ),
                    );
                }
                if seen & DELIVERED != 0 {
                    self.violate(
                        "wire.exactly-once",
                        ev.cycle,
                        ev.node,
                        format!(
                            "wire id {} processed twice at its destination ({})",
                            ev.id, ev.detail
                        ),
                    );
                }
            }
            Kind::Queue if ev.detail == "wbuf.push" => {
                let set = self.wbuf.entry(ev.node).or_default();
                if !set.insert(ev.id) {
                    self.violate(
                        "wbuf.drain",
                        ev.cycle,
                        ev.node,
                        format!("write id {} buffered while already outstanding", ev.id),
                    );
                }
                let depth = self.wbuf[&ev.node].len() as u64;
                if ev.arg != depth {
                    self.violate(
                        "wbuf.drain",
                        ev.cycle,
                        ev.node,
                        format!(
                            "buffer reports depth {} after push, oracle reconstructs {}",
                            ev.arg, depth
                        ),
                    );
                }
            }
            Kind::Queue if ev.detail == "wbuf.ack" => {
                let set = self.wbuf.entry(ev.node).or_default();
                if !set.remove(&ev.id) {
                    self.violate(
                        "wbuf.drain",
                        ev.cycle,
                        ev.node,
                        format!("ack for write id {} that is not outstanding", ev.id),
                    );
                }
                let depth = self.wbuf[&ev.node].len() as u64;
                if ev.arg != depth {
                    self.violate(
                        "wbuf.drain",
                        ev.cycle,
                        ev.node,
                        format!(
                            "buffer reports depth {} after ack, oracle reconstructs {}",
                            ev.arg, depth
                        ),
                    );
                }
            }
            Kind::Flush if ev.detail == "drained" => {
                let outstanding = self.wbuf.get(&ev.node).map_or(0, |s| s.len());
                if outstanding != 0 {
                    self.violate(
                        "wbuf.drain",
                        ev.cycle,
                        ev.node,
                        format!("drain completed with {outstanding} writes still unacked"),
                    );
                }
            }
            _ => {}
        }
        if self.ring.len() == RING_CAP {
            self.ring.pop_front();
        }
        self.ring.push_back(*ev);
    }

    /// A lock request reached its home directory (post-dedup, so exactly
    /// once per accepted request).
    pub fn cbl_request(&mut self, lock: usize, node: usize, _cycle: Cycle) {
        self.cbl_pending
            .entry(lock as u64)
            .or_default()
            .push_back(node as i64);
    }

    /// A grant landed at `node`. CBL hands locks over in directory arrival
    /// order of requests (read-sharing grants a contiguous prefix), so the
    /// granted node must be the oldest ungranted requester.
    pub fn cbl_grant(&mut self, lock: usize, node: usize, cycle: Cycle) {
        let q = self.cbl_pending.entry(lock as u64).or_default();
        match q.front().copied() {
            Some(front) if front == node as i64 => {
                q.pop_front();
            }
            Some(front) => {
                // consume the grant anyway so one reorder doesn't cascade
                if let Some(pos) = q.iter().position(|&n| n == node as i64) {
                    q.remove(pos);
                }
                self.violate(
                    "cbl.fifo",
                    cycle,
                    node as i64,
                    format!("lock {lock} granted to node {node} ahead of queued node {front}"),
                );
            }
            None => {
                self.violate(
                    "cbl.fifo",
                    cycle,
                    node as i64,
                    format!("lock {lock} granted to node {node} with no pending request"),
                );
            }
        }
    }

    /// Outcome of a machine-side structural invariant check (CBL holder
    /// exclusion, RIC list well-formedness, WBI single-writer).
    pub fn structural(
        &mut self,
        invariant: &'static str,
        cycle: Cycle,
        result: Result<(), String>,
    ) {
        if let Err(e) = result {
            self.violate(invariant, cycle, -1, e);
        }
    }

    /// A value was written to shared `(block, word)`.
    pub fn value_write(&mut self, node: usize, block: usize, word: u8, value: u64) {
        self.writes
            .entry((block as u64, word as u64))
            .or_default()
            .insert(value);
        self.last_writer.insert(block as u64, node as i64);
    }

    /// A shared read returned `value`; it must be the initial zero or some
    /// previously performed write to the same word.
    pub fn value_read(&mut self, node: usize, block: usize, word: u8, value: u64, cycle: Cycle) {
        if value == 0 {
            return;
        }
        let known = self
            .writes
            .get(&(block as u64, word as u64))
            .is_some_and(|s| s.contains(&value));
        if !known {
            self.violate(
                "value.oracle",
                cycle,
                node as i64,
                format!("read of block {block} word {word} returned {value}, never written there"),
            );
        }
    }

    /// Finish-time cross-check: every node holding a live update-enrolled
    /// cached copy of `block` must be on the directory's RIC list (a node
    /// off the list silently misses updates). The reverse can legitimately
    /// disagree at end of run — final leave messages may still be in
    /// flight when the last node retires.
    pub fn ric_membership(&mut self, block: usize, members: &[usize], cached: &[usize], at: Cycle) {
        for &n in cached {
            if !members.contains(&n) {
                self.violate(
                    "ric.membership",
                    at,
                    n as i64,
                    format!(
                        "node {n} holds an update-enrolled copy of block {block} \
                         but the directory list is {members:?}"
                    ),
                );
            }
        }
    }

    /// Finish-time cross-check: the final coherent value of a shared word
    /// must be the initial zero or some write performed during the run.
    pub fn final_word(&mut self, block: usize, word: u8, value: u64, at: Cycle) {
        if value == 0 {
            return;
        }
        let known = self
            .writes
            .get(&(block as u64, word as u64))
            .is_some_and(|s| s.contains(&value));
        if !known {
            self.violate(
                "memory.final",
                at,
                -1,
                format!(
                    "final memory of block {block} word {word} is {value}, never written there"
                ),
            );
        }
    }

    /// The sanitizer's last-writer observation for `block`, if any.
    pub fn last_writer(&self, block: usize) -> Option<i64> {
        self.last_writer.get(&(block as u64)).copied()
    }

    /// Violations found so far (capped at the first `MAX_VIOLATIONS`, 16).
    pub fn violations(&self) -> &[ViolationReport] {
        &self.violations
    }

    /// Total violations detected, including any past the retention cap.
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Drains the retained violations out of the oracle (into a report).
    pub fn take_violations(&mut self) -> Vec<ViolationReport> {
        std::mem::take(&mut self.violations)
    }
}

/// Shared handle to a [`Checker`]: the machine folds state-exposure hooks
/// into it while the [`CheckSink`] on the tracer folds the event stream.
pub type SharedChecker = Rc<RefCell<Checker>>;

/// A [`TraceSink`] forwarding every event into a shared [`Checker`].
pub struct CheckSink {
    checker: SharedChecker,
}

impl CheckSink {
    /// Creates a sink plus the shared oracle handle to read violations
    /// from (and to feed the machine-side hooks).
    pub fn new() -> (Self, SharedChecker) {
        let checker: SharedChecker = Rc::new(RefCell::new(Checker::new()));
        (
            Self {
                checker: checker.clone(),
            },
            checker,
        )
    }
}

impl TraceSink for CheckSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.checker.borrow_mut().fold(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmp_engine::Family;

    fn ev(kind: Kind, detail: &'static str, node: i64, id: u64, arg: u64) -> TraceEvent {
        TraceEvent {
            cycle: 1,
            node,
            family: Family::Net,
            kind,
            detail,
            id,
            arg,
        }
    }

    #[test]
    fn exactly_once_catches_double_delivery() {
        let mut c = Checker::new();
        c.fold(&ev(Kind::NetInject, "m", 0, 7, 1));
        c.fold(&ev(Kind::NetDeliver, "m", 1, 7, 0));
        assert!(c.violations().is_empty());
        c.fold(&ev(Kind::NetDeliver, "m", 1, 7, 0));
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].invariant, "wire.exactly-once");
    }

    #[test]
    fn doubled_inject_of_the_largest_id_is_flagged_once() {
        let mut c = Checker::new();
        c.fold(&ev(Kind::NetInject, "m", 0, u64::MAX, 1));
        c.fold(&ev(Kind::NetInject, "m", 0, u64::MAX, 1));
        c.fold(&ev(Kind::NetDeliver, "m", 1, u64::MAX, 0));
        assert_eq!(c.detected(), 1, "{:?}", c.violations());
        assert_eq!(c.violations()[0].invariant, "wire.exactly-once");
        assert!(c.violations()[0].detail.contains("injected twice"));
    }

    #[test]
    fn phantom_delivery_is_flagged() {
        let mut c = Checker::new();
        c.fold(&ev(Kind::NetDeliver, "m", 1, 9, 0));
        assert_eq!(c.violations()[0].invariant, "wire.exactly-once");
        assert!(c.violations()[0].detail.contains("never injected"));
    }

    #[test]
    fn wbuf_oracle_tracks_depth_and_acks() {
        let mut c = Checker::new();
        c.fold(&ev(Kind::Queue, "wbuf.push", 0, 1, 1));
        c.fold(&ev(Kind::Queue, "wbuf.push", 0, 2, 2));
        c.fold(&ev(Kind::Queue, "wbuf.ack", 0, 1, 1));
        c.fold(&ev(Kind::Queue, "wbuf.ack", 0, 2, 0));
        c.fold(&ev(Kind::Flush, "drained", 0, 0, 0));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        // an ack for a write that was never pushed
        c.fold(&ev(Kind::Queue, "wbuf.ack", 0, 9, 0));
        assert_eq!(c.violations()[0].invariant, "wbuf.drain");
    }

    #[test]
    fn drain_with_outstanding_writes_is_flagged() {
        let mut c = Checker::new();
        c.fold(&ev(Kind::Queue, "wbuf.push", 3, 1, 1));
        c.fold(&ev(Kind::Flush, "drained", 3, 0, 0));
        assert_eq!(c.violations()[0].invariant, "wbuf.drain");
    }

    #[test]
    fn cbl_fifo_enforced_in_arrival_order() {
        let mut c = Checker::new();
        c.cbl_request(0, 4, 10);
        c.cbl_request(0, 2, 11);
        c.cbl_grant(0, 4, 20);
        c.cbl_grant(0, 2, 21);
        assert!(c.violations().is_empty());
        c.cbl_request(0, 1, 30);
        c.cbl_request(0, 5, 31);
        c.cbl_grant(0, 5, 40); // out of order
        assert_eq!(c.violations()[0].invariant, "cbl.fifo");
    }

    #[test]
    fn value_oracle_rejects_out_of_thin_air() {
        let mut c = Checker::new();
        c.value_write(0, 3, 1, 42);
        c.value_read(1, 3, 1, 42, 5);
        c.value_read(1, 3, 1, 0, 6); // initial value always fine
        assert!(c.violations().is_empty());
        c.value_read(1, 3, 1, 43, 7);
        assert_eq!(c.violations()[0].invariant, "value.oracle");
        c.final_word(3, 1, 42, 8);
        assert_eq!(c.violations().len(), 1);
        c.final_word(3, 1, 99, 9);
        assert_eq!(c.violations()[1].invariant, "memory.final");
    }

    #[test]
    fn membership_check_requires_cached_subset() {
        let mut c = Checker::new();
        c.ric_membership(2, &[0, 1], &[1], 50);
        assert!(c.violations().is_empty());
        c.ric_membership(2, &[0], &[1], 51);
        assert_eq!(c.violations()[0].invariant, "ric.membership");
    }

    #[test]
    fn ring_is_attached_and_bounded() {
        let mut c = Checker::new();
        for i in 0..100 {
            c.fold(&ev(Kind::NetInject, "m", 0, i, 0));
        }
        c.fold(&ev(Kind::NetDeliver, "m", 0, 999, 0));
        let v = &c.violations()[0];
        assert_eq!(v.recent.len(), RING_CAP);
        assert!(v.render().contains("wire.exactly-once"));
    }

    #[test]
    fn violation_cap_keeps_first_and_counts_all() {
        let mut c = Checker::new();
        for i in 0..40 {
            c.fold(&ev(Kind::NetDeliver, "m", 0, 1000 + i, 0));
        }
        assert_eq!(c.violations().len(), MAX_VIOLATIONS);
        assert_eq!(c.detected(), 40);
        let taken = c.take_violations();
        assert_eq!(taken.len(), MAX_VIOLATIONS);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn sink_feeds_shared_checker() {
        let (mut sink, shared) = CheckSink::new();
        sink.record(&ev(Kind::NetDeliver, "m", 0, 5, 0));
        assert_eq!(shared.borrow().violations().len(), 1);
    }
}
