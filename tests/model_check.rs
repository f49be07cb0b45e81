//! Bounded exhaustive model checking of the CBL lock protocol.
//!
//! Property tests sample interleavings; this harness explores **all** of
//! them for small configurations — every reachable (queue state, in-flight
//! message multiset, program counter) vertex under per-(src,dst)-FIFO
//! delivery — and checks, at every state:
//!
//! * **safety** — the mutual-exclusion invariant;
//! * **deadlock freedom** — every non-final state has a successor;
//! * **termination soundness** — every terminal state has all critical
//!   sections executed and the queue quiescently free.
//!
//! Node programs are `rounds` iterations of `request; (hold); release`,
//! with both lock modes explored.

use std::collections::{HashSet, VecDeque};

use ssmp::core::cbl::{CblEffect, CblMsg, LockQueue};
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

    /// Deliverable message indices: first in-flight per (src, dst) pair.
    fn deliverable(&self) -> Vec<usize> {
        let mut out = Vec::new();
        'outer: for (i, m) in self.wire.iter().enumerate() {
            for e in self.wire.iter().take(i) {
                if e.src == m.src && e.dst == m.dst {
                    continue 'outer;
                }
            }
            out.push(i);
        }
        out
    }
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
    for i in st.deliverable() {
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
// WBI directory protocol: bounded exhaustive exploration
// ---------------------------------------------------------------------

mod wbi_check {
    use std::collections::{HashSet, VecDeque};

    use ssmp::wbi::WbiBlock;
    use ssmp_coherence::{CohEffect, CohMsg, CoherenceProtocol};

    /// Each node's program: a list of (is_write, value) accesses to word 0.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct WState {
        b: WbiBlock,
        wire: VecDeque<CohMsg>,
        /// per-node remaining accesses
        progs: Vec<Vec<(bool, u64)>>,
        /// per-node outstanding request (waiting for a fill/ownership)
        waiting: Vec<Option<(bool, u64)>>,
    }

    impl WState {
        fn key(&self) -> String {
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                self.b, self.wire, self.progs, self.waiting
            )
        }

        fn deliverable(&self) -> Vec<usize> {
            let mut out = Vec::new();
            'outer: for (i, m) in self.wire.iter().enumerate() {
                for e in self.wire.iter().take(i) {
                    if e.src == m.src && e.dst == m.dst {
                        continue 'outer;
                    }
                }
                out.push(i);
            }
            out
        }

        fn is_final(&self) -> bool {
            self.wire.is_empty()
                && self.progs.iter().all(|p| p.is_empty())
                && self.waiting.iter().all(|w| w.is_none())
        }
    }

    /// Applies fills: a node whose outstanding access completed performs
    /// the deferred store (if a write).
    fn apply_effects(st: &mut WState, effects: Vec<CohEffect>) {
        for e in effects {
            match e {
                CohEffect::FilledShared { node, .. } => {
                    if let Some((false, _)) = st.waiting[node] {
                        st.waiting[node] = None; // read satisfied
                    }
                }
                CohEffect::FilledExcl { node, .. } | CohEffect::UpgradeGranted { node } => {
                    if let Some((true, v)) = st.waiting[node] {
                        assert!(st.b.local_write(node, 0, v), "store after ownership");
                        st.waiting[node] = None;
                    }
                }
                // invalidations and downgrades need no action here
                _ => {}
            }
        }
    }

    fn successors(st: &WState) -> Vec<WState> {
        let mut out = Vec::new();
        for i in st.deliverable() {
            let mut next = st.clone();
            let m = next.wire.remove(i).expect("valid index");
            let (msgs, effects) = next.b.deliver(m);
            next.b
                .check_single_writer()
                .expect("single-writer violated");
            next.wire.extend(msgs);
            apply_effects(&mut next, effects);
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

    fn explore(progs: Vec<Vec<(bool, u64)>>, mesi: bool, max_states: usize) -> usize {
        let nodes = progs.len();
        // the final memory value must be one of the written values (no
        // invented or lost data): collect the candidate set
        let written: Vec<u64> = progs
            .iter()
            .flatten()
            .filter(|(w, _)| *w)
            .map(|(_, v)| *v)
            .collect();
        let init = WState {
            b: if mesi {
                WbiBlock::with_mesi(4)
            } else {
                WbiBlock::new(4)
            },
            wire: VecDeque::new(),
            progs,
            waiting: vec![None; nodes],
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
                // coherent final value: reconstruct the owner's view
                let v = (0..nodes)
                    .find_map(|n| st.b.local_read(n, 0))
                    .unwrap_or_else(|| st.b.mem().get(0));
                assert!(
                    v == 0 || written.contains(&v),
                    "final value {v} was never written"
                );
                terminals += 1;
            } else {
                stack.extend(succ);
            }
        }
        assert!(terminals > 0);
        visited.len()
    }

    #[test]
    fn two_writers_exhaustive() {
        let states = explore(vec![vec![(true, 11)], vec![(true, 22)]], false, 500_000);
        assert!(states > 20, "{states}");
    }

    #[test]
    fn reader_writer_exhaustive() {
        let states = explore(
            vec![vec![(false, 0), (false, 0)], vec![(true, 7), (true, 8)]],
            false,
            2_000_000,
        );
        assert!(states > 50, "{states}");
    }

    #[test]
    fn three_nodes_mixed_exhaustive() {
        let states = explore(
            vec![
                vec![(false, 0)],
                vec![(true, 5)],
                vec![(false, 0), (true, 9)],
            ],
            false,
            5_000_000,
        );
        assert!(states > 100, "{states}");
    }

    #[test]
    fn mesi_two_nodes_exhaustive() {
        let states = explore(
            vec![vec![(false, 0), (true, 3)], vec![(true, 4), (false, 0)]],
            true,
            2_000_000,
        );
        assert!(states > 50, "{states}");
    }
}
