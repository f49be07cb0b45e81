//! Counting semaphores at the directory.
//!
//! The paper's §2 uses semaphore **P** and **V** as the canonical examples
//! of its synchronization classes — P is NP-Synch (acquiring a resource
//! need not wait for prior writes), V is CP-Synch (releasing one must be
//! preceded by a `FLUSH-BUFFER`) — but only sketches locks and barriers in
//! hardware. This module completes the set in the same style as
//! [`crate::barrier`]: the semaphore count lives at the block's home
//! directory; `P` is an atomic decrement-if-positive (blocked requesters
//! enqueue in arrival order), `V` either increments or hands the credit
//! directly to the oldest waiter.
//!
//! Uncontended costs mirror the barrier row of Table 3: P = 2 messages
//! (request + grant), V = 2 (release + ack).

use std::collections::VecDeque;

use crate::addr::NodeId;
use crate::msg::{Endpoint, Msg, Outbox};

/// Semaphore protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemKind {
    /// Node → directory: P (acquire one credit).
    P,
    /// Node → directory: V (return one credit).
    V,
    /// Directory → node: credit granted (P completes).
    Grant,
    /// Directory → node: V performed (needed by sequential consistency).
    VAck,
}

/// A semaphore protocol message (all control-sized).
pub type SemMsg = Msg<SemKind>;

/// Externally visible semaphore effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemEffect {
    /// The node's P completed; it owns one credit.
    Acquired {
        /// The acquiring node.
        node: NodeId,
    },
    /// The node's V is globally performed.
    VDone {
        /// The releasing node.
        node: NodeId,
    },
}

/// A counting semaphore homed at a directory.
#[derive(Debug, Clone)]
pub struct HwSemaphore {
    count: u64,
    waiters: VecDeque<NodeId>,
    /// Total grants issued (statistics).
    grants: u64,
}

impl HwSemaphore {
    /// Creates a semaphore with `initial` credits.
    pub fn new(initial: u64) -> Self {
        Self {
            count: initial,
            waiters: VecDeque::new(),
            grants: 0,
        }
    }

    /// Current credit count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nodes blocked in P.
    pub fn waiting(&self) -> usize {
        self.waiters.len()
    }

    /// Total grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Processor issues P.
    pub fn p(&mut self, node: NodeId) -> Vec<SemMsg> {
        vec![Msg::ctl(Endpoint::Node(node), Endpoint::Dir, SemKind::P)]
    }

    /// Processor issues V (after flushing — V is CP-Synch).
    pub fn v(&mut self, node: NodeId) -> Vec<SemMsg> {
        vec![Msg::ctl(Endpoint::Node(node), Endpoint::Dir, SemKind::V)]
    }

    /// Delivers a semaphore message, appending the follow-on messages and
    /// effects to `out`.
    pub fn deliver_into(&mut self, msg: SemMsg, out: &mut Outbox<SemKind, SemEffect>) {
        match (msg.dst, msg.kind) {
            (Endpoint::Dir, SemKind::P) => {
                let Endpoint::Node(src) = msg.src else {
                    panic!("P from directory")
                };
                if self.count > 0 {
                    self.count -= 1;
                    self.grants += 1;
                    out.ctl(Endpoint::Dir, msg.src, SemKind::Grant);
                } else {
                    debug_assert!(
                        !self.waiters.contains(&src),
                        "node {src} blocked twice in P"
                    );
                    self.waiters.push_back(src);
                }
            }
            (Endpoint::Dir, SemKind::V) => {
                assert!(msg.src != Endpoint::Dir, "V from directory");
                out.ctl(Endpoint::Dir, msg.src, SemKind::VAck);
                match self.waiters.pop_front() {
                    // Hand the credit straight to the oldest waiter.
                    Some(w) => {
                        self.grants += 1;
                        out.ctl(Endpoint::Dir, Endpoint::Node(w), SemKind::Grant);
                    }
                    None => self.count += 1,
                }
            }
            (Endpoint::Node(node), SemKind::Grant) => out.effect(SemEffect::Acquired { node }),
            (Endpoint::Node(node), SemKind::VAck) => out.effect(SemEffect::VDone { node }),
            other => panic!("semaphore cannot handle {other:?}"),
        }
    }

    /// Invariant: credits never exceed initial + V surplus; here simply
    /// that waiters and positive count never coexist.
    pub fn check(&self) -> Result<(), String> {
        if self.count > 0 && !self.waiters.is_empty() {
            return Err(format!(
                "count {} with {} waiters",
                self.count,
                self.waiters.len()
            ));
        }
        Ok(())
    }
}

/// Delivers `m` into a fresh outbox (the tests' Vec-returning form).
#[cfg(test)]
fn deliver(s: &mut HwSemaphore, m: SemMsg) -> (Vec<SemMsg>, Vec<SemEffect>) {
    Outbox::collect(|out| s.deliver_into(m, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    struct Harness {
        s: HwSemaphore,
        wire: VecDeque<SemMsg>,
        acquired: Vec<NodeId>,
    }

    impl Harness {
        fn new(initial: u64) -> Self {
            Self {
                s: HwSemaphore::new(initial),
                wire: VecDeque::new(),
                acquired: Vec::new(),
            }
        }

        fn p(&mut self, n: NodeId) {
            let m = self.s.p(n);
            self.wire.extend(m);
            self.drain();
        }

        fn v(&mut self, n: NodeId) {
            let m = self.s.v(n);
            self.wire.extend(m);
            self.drain();
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (ms, eff) = deliver(&mut self.s, m);
                self.s.check().unwrap();
                self.wire.extend(ms);
                for e in eff {
                    if let SemEffect::Acquired { node } = e {
                        self.acquired.push(node);
                    }
                }
            }
        }
    }

    #[test]
    fn credits_grant_immediately() {
        let mut h = Harness::new(2);
        h.p(0);
        h.p(1);
        assert_eq!(h.acquired, vec![0, 1]);
        assert_eq!(h.s.count(), 0);
    }

    #[test]
    fn blocked_p_waits_for_v() {
        let mut h = Harness::new(1);
        h.p(0);
        h.p(1);
        assert_eq!(h.acquired, vec![0], "no credit for node 1 yet");
        assert_eq!(h.s.waiting(), 1);
        h.v(0);
        assert_eq!(h.acquired, vec![0, 1], "V hands the credit over");
        assert_eq!(h.s.waiting(), 0);
        assert_eq!(h.s.count(), 0, "credit went to the waiter, not the pool");
    }

    #[test]
    fn fifo_wakeup_order() {
        let mut h = Harness::new(0);
        for n in [3, 1, 4, 1 + 4, 9] {
            h.p(n);
        }
        for _ in 0..5 {
            h.v(0);
        }
        assert_eq!(h.acquired, vec![3, 1, 4, 5, 9]);
    }

    #[test]
    fn v_without_waiters_accumulates() {
        let mut h = Harness::new(0);
        h.v(0);
        h.v(0);
        assert_eq!(h.s.count(), 2);
        h.p(1);
        h.p(2);
        h.p(3);
        assert_eq!(h.acquired, vec![1, 2]);
        assert_eq!(h.s.waiting(), 1);
    }

    #[test]
    fn conservation_of_credits() {
        // P's and V's balance: final count == initial.
        let mut h = Harness::new(3);
        for n in 0..3 {
            h.p(n);
        }
        for n in 0..3 {
            h.v(n);
        }
        assert_eq!(h.s.count(), 3);
        assert_eq!(h.s.waiting(), 0);
        assert_eq!(h.s.grants(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For any interleaving of P and V with sufficient total credits:
        /// grants never exceed credits issued so far, FIFO order holds, and
        /// the final count balances.
        #[test]
        fn prop_pv_sequences(
            initial in 0u64..4,
            script in proptest::collection::vec((0usize..6, proptest::bool::ANY), 1..60),
        ) {
            let mut s = HwSemaphore::new(initial);
            let mut wire = std::collections::VecDeque::new();
            let mut acquired: Vec<NodeId> = Vec::new();
            let mut blocked_order: Vec<NodeId> = Vec::new();
            let mut p_count = 0u64;
            let mut v_count = 0u64;
            let mut outstanding: std::collections::BTreeSet<NodeId> = Default::default();
            for (node, is_p) in script {
                if is_p {
                    if outstanding.contains(&node) {
                        continue; // a node blocks at most one P at a time
                    }
                    outstanding.insert(node);
                    p_count += 1;
                    let before = s.waiting();
                    wire.extend(s.p(node));
                    while let Some(m) = wire.pop_front() {
                        let (ms, eff) = deliver(&mut s, m);
                        wire.extend(ms);
                        for e in eff {
                            if let SemEffect::Acquired { node } = e {
                                acquired.push(node);
                                outstanding.remove(&node);
                            }
                        }
                    }
                    if s.waiting() > before {
                        blocked_order.push(node);
                    }
                } else {
                    v_count += 1;
                    wire.extend(s.v(node));
                    while let Some(m) = wire.pop_front() {
                        let (ms, eff) = deliver(&mut s, m);
                        wire.extend(ms);
                        for e in eff {
                            if let SemEffect::Acquired { node } = e {
                                acquired.push(node);
                                outstanding.remove(&node);
                                // FIFO: the woken node is the oldest blocked
                                prop_assert_eq!(Some(node), blocked_order.first().copied());
                                blocked_order.remove(0);
                            }
                        }
                    }
                }
                s.check().unwrap();
                prop_assert!(acquired.len() as u64 <= initial + v_count,
                    "grants exceed credits");
            }
            // conservation: credits in == grants + remaining count
            prop_assert_eq!(initial + v_count, acquired.len() as u64 + s.count());
            let _ = p_count;
        }
    }
}
