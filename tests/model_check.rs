//! Bounded exhaustive model checking of the CBL lock protocol and of the
//! three coherence backends (WBI, MESI, Dragon).
//!
//! Property tests sample interleavings; this harness explores **all** of
//! them for small configurations — every reachable (controller state,
//! in-flight message multiset, program counter) vertex under
//! per-(src,dst)-FIFO delivery — and checks, at every state:
//!
//! * **safety** — mutual exclusion for the lock, single-writer for the
//!   data backends;
//! * **deadlock freedom** — every non-final state has a successor;
//! * **termination soundness** — every terminal state has all critical
//!   sections executed and the queue quiescently free, or, for a data
//!   block, passes the backend's quiescence check with a final value
//!   that some write stored.
//!
//! Lock programs are `rounds` iterations of `request; (hold); release`,
//! with both lock modes explored; data programs are short read/write
//! scripts on one word, run unchanged on every backend.

use std::collections::{HashSet, VecDeque};

use ssmp::core::cbl::{CblEffect, CblMsg, LockQueue};
use ssmp::core::msg::Msg;
use ssmp::core::primitive::LockMode;

/// One node's progress through its `request/release` rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeScript {
    mode: LockMode,
    rounds_left: u32,
    /// true when the node currently holds the lock and must release.
    holding: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    q: LockQueue,
    wire: VecDeque<CblMsg>,
    scripts: Vec<NodeScript>,
    grants_seen: u32,
}

impl State {
    fn key(&self) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}",
            self.q, self.wire, self.scripts, self.grants_seen
        )
    }

    fn is_final(&self) -> bool {
        self.wire.is_empty()
            && self
                .scripts
                .iter()
                .all(|s| s.rounds_left == 0 && !s.holding)
    }
}

/// Deliverable message indices: the first in flight per (src, dst) pair.
fn deliverable<K>(wire: &VecDeque<Msg<K>>) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, m) in wire.iter().enumerate() {
        for e in wire.iter().take(i) {
            if e.src == m.src && e.dst == m.dst {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

fn apply_effects(st: &mut State, effects: &[CblEffect]) {
    for e in effects {
        if let CblEffect::Granted { node, .. } = e {
            st.grants_seen += 1;
            let s = &mut st.scripts[*node];
            assert!(!s.holding, "granted while already holding");
            s.holding = true;
        }
    }
}

/// Enumerates all successor states.
fn successors(st: &State) -> Vec<State> {
    let mut out = Vec::new();
    // (a) deliver any FIFO-eligible message
    for i in deliverable(&st.wire) {
        let mut next = st.clone();
        let msg = next.wire.remove(i).expect("index valid");
        let (msgs, effects) = next.q.deliver(msg);
        next.q.check_exclusion().expect("exclusion violated");
        next.wire.extend(msgs);
        apply_effects(&mut next, &effects);
        out.push(next);
    }
    // (b) any node may take its next program step
    for node in 0..st.scripts.len() {
        let s = &st.scripts[node];
        if s.holding {
            let mut next = st.clone();
            next.scripts[node].holding = false;
            next.scripts[node].rounds_left -= 1;
            let (msgs, effects) = next.q.release(node);
            next.q.check_exclusion().expect("exclusion violated");
            next.wire.extend(msgs);
            apply_effects(&mut next, &effects);
            out.push(next);
        } else if s.rounds_left > 0 && !st.q.is_active(node) {
            let mut next = st.clone();
            let msgs = next.q.request(node, s.mode);
            next.wire.extend(msgs);
            out.push(next);
        }
    }
    out
}

/// Explores the full state space; returns (states visited, grants seen at
/// terminals).
fn explore(modes: &[LockMode], rounds: u32, max_states: usize) -> (usize, u32) {
    let init = State {
        q: LockQueue::new(4),
        wire: VecDeque::new(),
        scripts: modes
            .iter()
            .map(|&mode| NodeScript {
                mode,
                rounds_left: rounds,
                holding: false,
            })
            .collect(),
        grants_seen: 0,
    };
    let expected_grants = modes.len() as u32 * rounds;
    let mut visited: HashSet<String> = HashSet::new();
    let mut stack = vec![init];
    let mut terminals = 0u32;
    while let Some(st) = stack.pop() {
        if !visited.insert(st.key()) {
            continue;
        }
        assert!(
            visited.len() <= max_states,
            "state space larger than expected ({max_states})"
        );
        let succ = successors(&st);
        if succ.is_empty() {
            // terminal: everything done, queue free, all grants happened
            assert!(
                st.is_final(),
                "deadlock: no successor in non-final state {st:?}"
            );
            assert!(
                st.q.is_quiescent_free(),
                "terminal state with residual queue: {:?}",
                st.q
            );
            assert_eq!(
                st.grants_seen, expected_grants,
                "terminal state missed grants"
            );
            terminals += 1;
        } else {
            stack.extend(succ);
        }
    }
    assert!(terminals > 0, "no terminal state reached");
    (visited.len(), expected_grants)
}

#[test]
fn two_writers_two_rounds_exhaustive() {
    let (states, _) = explore(&[LockMode::Write, LockMode::Write], 2, 2_000_000);
    assert!(states > 100, "state space suspiciously small: {states}");
}

#[test]
fn three_writers_one_round_exhaustive() {
    let (states, _) = explore(&[LockMode::Write; 3], 1, 2_000_000);
    assert!(states > 200);
}

#[test]
fn two_readers_one_writer_exhaustive() {
    let (states, _) = explore(
        &[LockMode::Read, LockMode::Read, LockMode::Write],
        1,
        5_000_000,
    );
    assert!(states > 200);
}

#[test]
fn three_readers_exhaustive() {
    let (states, _) = explore(&[LockMode::Read; 3], 1, 5_000_000);
    assert!(states > 100);
}

#[test]
fn reader_writer_two_rounds_exhaustive() {
    let (states, _) = explore(&[LockMode::Read, LockMode::Write], 2, 2_000_000);
    assert!(states > 100);
}

// ---------------------------------------------------------------------
// Coherence backends (WBI, MESI, Dragon): bounded exhaustive exploration
// ---------------------------------------------------------------------

mod coherence_check {
    use std::collections::{HashSet, VecDeque};
    use std::fmt::Debug;

    use ssmp_coherence::{CohEffect, CohMsg, CoherenceProtocol};

    use super::deliverable;

    /// One access to word 0: `(is_write, value)`.
    pub type Access = (bool, u64);

    pub const TWO_WRITERS: &[&[Access]] = &[&[(true, 11)], &[(true, 22)]];
    pub const READER_WRITER: &[&[Access]] = &[&[(false, 0), (false, 0)], &[(true, 7), (true, 8)]];
    pub const THREE_NODES_MIXED: &[&[Access]] =
        &[&[(false, 0)], &[(true, 5)], &[(false, 0), (true, 9)]];
    pub const READ_WRITE_PAIRS: &[&[Access]] =
        &[&[(false, 0), (true, 3)], &[(true, 4), (false, 0)]];

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct State<B> {
        b: B,
        wire: VecDeque<CohMsg>,
        /// per-node remaining accesses
        progs: Vec<Vec<Access>>,
        /// per-node outstanding access (waiting for a fill, ownership or
        /// an in-protocol store)
        waiting: Vec<Option<Access>>,
    }

    impl<B: CoherenceProtocol + Debug> State<B> {
        fn key(&self) -> String {
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                self.b, self.wire, self.progs, self.waiting
            )
        }

        fn is_final(&self) -> bool {
            self.wire.is_empty()
                && self.progs.iter().all(|p| p.is_empty())
                && self.waiting.iter().all(|w| w.is_none())
        }

        /// Completes outstanding accesses: a read on its fill; a write on
        /// its ownership grant (then performing the deferred store) or, on
        /// Dragon, when the home reports the store complete.
        fn apply_effects(&mut self, effects: Vec<CohEffect>) {
            for e in effects {
                match e {
                    CohEffect::FilledShared { node, .. } => {
                        if let Some((false, _)) = self.waiting[node] {
                            self.waiting[node] = None;
                        }
                    }
                    CohEffect::FilledExcl { node, .. } | CohEffect::UpgradeGranted { node } => {
                        if let Some((true, v)) = self.waiting[node] {
                            assert!(self.b.local_write(node, 0, v), "store after ownership");
                            self.waiting[node] = None;
                        }
                    }
                    CohEffect::StoreComplete { node } => {
                        assert!(matches!(self.waiting[node], Some((true, _))));
                        self.waiting[node] = None;
                    }
                    // invalidations, downgrades and pushes need no action
                    _ => {}
                }
            }
        }
    }

    fn successors<B: CoherenceProtocol + Clone + Debug>(st: &State<B>) -> Vec<State<B>> {
        let mut out = Vec::new();
        for i in deliverable(&st.wire) {
            let mut next = st.clone();
            let m = next.wire.remove(i).expect("valid index");
            let (msgs, effects) = next.b.deliver(m);
            next.b
                .check_single_writer()
                .expect("single-writer violated");
            next.wire.extend(msgs);
            next.apply_effects(effects);
            out.push(next);
        }
        for node in 0..st.progs.len() {
            if st.waiting[node].is_some() || st.progs[node].is_empty() {
                continue;
            }
            let mut next = st.clone();
            let (is_write, v) = next.progs[node].remove(0);
            if is_write {
                if next.b.local_write(node, 0, v) {
                    // silent hit (Modified/Exclusive)
                } else {
                    next.waiting[node] = Some((true, v));
                    let msgs = next.b.write_req(node, 0, v);
                    next.wire.extend(msgs);
                }
            } else if next.b.local_read(node, 0).is_some() {
                // read hit
            } else {
                next.waiting[node] = Some((false, 0));
                let msgs = next.b.read_req(node);
                next.wire.extend(msgs);
            }
            out.push(next);
        }
        out
    }

    /// Explores every FIFO delivery order of `progs` on backend `b`; at
    /// each state single-writer holds, no state but a final one lacks a
    /// successor, and every terminal state is quiescent with a final
    /// value (read through `coherent_word`) that some write stored.
    /// Returns the number of states visited.
    pub fn explore<B>(b: B, progs: &[&[Access]], max_states: usize) -> usize
    where
        B: CoherenceProtocol + Clone + Eq + Debug,
    {
        let written: Vec<u64> = progs
            .iter()
            .flat_map(|p| p.iter())
            .filter(|(w, _)| *w)
            .map(|(_, v)| *v)
            .collect();
        let init = State {
            b,
            wire: VecDeque::new(),
            progs: progs.iter().map(|p| p.to_vec()).collect(),
            waiting: vec![None; progs.len()],
        };
        let mut visited: HashSet<String> = HashSet::new();
        let mut stack = vec![init];
        let mut terminals = 0;
        while let Some(st) = stack.pop() {
            if !visited.insert(st.key()) {
                continue;
            }
            assert!(
                visited.len() <= max_states,
                "state space exceeded {max_states}"
            );
            let succ = successors(&st);
            if succ.is_empty() {
                assert!(st.is_final(), "protocol deadlock: {st:?}");
                st.b.check_quiescent()
                    .unwrap_or_else(|e| panic!("terminal state not quiescent: {e}: {st:?}"));
                let v = st.b.coherent_word(0);
                assert!(
                    written.contains(&v),
                    "final value {v} was never written: {st:?}"
                );
                terminals += 1;
            } else {
                stack.extend(succ);
            }
        }
        assert!(terminals > 0);
        visited.len()
    }
}

mod wbi_check {
    use super::coherence_check::*;
    use ssmp::wbi::WbiBlock;

    #[test]
    fn two_writers_exhaustive() {
        let states = explore(WbiBlock::new(4), TWO_WRITERS, 500_000);
        assert!(states > 20, "{states}");
    }

    #[test]
    fn reader_writer_exhaustive() {
        let states = explore(WbiBlock::new(4), READER_WRITER, 2_000_000);
        assert!(states > 50, "{states}");
    }

    #[test]
    fn three_nodes_mixed_exhaustive() {
        let states = explore(WbiBlock::new(4), THREE_NODES_MIXED, 5_000_000);
        assert!(states > 100, "{states}");
    }

    #[test]
    fn mesi_two_nodes_exhaustive() {
        let states = explore(WbiBlock::with_mesi(4), READ_WRITE_PAIRS, 2_000_000);
        assert!(states > 50, "{states}");
    }
}

mod mesi_check {
    use super::coherence_check::*;
    use ssmp_coherence::MesiBlock;

    fn mesi(progs: &[&[Access]]) -> usize {
        explore(MesiBlock::new(4, progs.len()), progs, 2_000_000)
    }

    #[test]
    fn two_writers_exhaustive() {
        let states = mesi(TWO_WRITERS);
        assert!(states > 20, "{states}");
    }

    #[test]
    fn reader_writer_exhaustive() {
        let states = mesi(READER_WRITER);
        assert!(states > 50, "{states}");
    }

    #[test]
    fn three_nodes_mixed_exhaustive() {
        let states = mesi(THREE_NODES_MIXED);
        assert!(states > 100, "{states}");
    }

    #[test]
    fn two_nodes_exhaustive() {
        let states = mesi(READ_WRITE_PAIRS);
        assert!(states > 50, "{states}");
    }
}

mod dragon_check {
    use super::coherence_check::*;
    use ssmp_coherence::DragonBlock;

    fn dragon(progs: &[&[Access]]) -> usize {
        explore(DragonBlock::new(4), progs, 2_000_000)
    }

    #[test]
    fn two_writers_exhaustive() {
        let states = dragon(TWO_WRITERS);
        assert!(states > 20, "{states}");
    }

    #[test]
    fn reader_writer_exhaustive() {
        let states = dragon(READER_WRITER);
        assert!(states > 50, "{states}");
    }

    #[test]
    fn three_nodes_mixed_exhaustive() {
        let states = dragon(THREE_NODES_MIXED);
        assert!(states > 100, "{states}");
    }

    #[test]
    fn two_nodes_exhaustive() {
        let states = dragon(READ_WRITE_PAIRS);
        assert!(states > 50, "{states}");
    }
}
