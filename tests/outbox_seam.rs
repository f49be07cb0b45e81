//! The delivery seam: every controller's `deliver_into` appends to a
//! caller-owned outbox that the machine drains and reuses, and the
//! Vec-returning `deliver` wrappers (the form the benchmark's replays
//! call) must report exactly the same messages and effects.
//!
//! Each property drives two copies of one controller through the same
//! random script of requests and FIFO deliveries: one copy delivers into
//! a single reused outbox, the other through the wrapper. Every delivery
//! must yield identical messages and effects, and both copies must end
//! in the same state.

use std::collections::VecDeque;
use std::fmt::Debug;

use proptest::prelude::*;
use ssmp::core::cbl::LockQueue;
use ssmp::core::msg::{Msg, Outbox};
use ssmp::core::primitive::LockMode;
use ssmp::core::ric::UpdateList;
use ssmp_coherence::{CohEffect, CoherenceProtocol, DragonBlock, MesiBlock, WbiBlock};

/// Two copies of one controller and the wire they share.
struct Twin<C, K, E> {
    reused: C,
    wrapped: C,
    /// The one outbox `reused` delivers into, drained after each delivery.
    out: Outbox<K, E>,
    wire: VecDeque<Msg<K>>,
}

impl<C, K: Copy + PartialEq + Debug, E: PartialEq + Debug> Twin<C, K, E> {
    fn new(reused: C, wrapped: C) -> Self {
        Self {
            reused,
            wrapped,
            out: Outbox::default(),
            wire: VecDeque::new(),
        }
    }

    /// Runs a request method on both copies; they must send the same
    /// messages, which go on the wire.
    fn issue(&mut self, request: impl Fn(&mut C) -> Vec<Msg<K>>) {
        let sent = request(&mut self.reused);
        assert_eq!(sent, request(&mut self.wrapped), "request diverged");
        self.wire.extend(sent);
    }

    /// Delivers the oldest in-flight message to both copies, `reused`
    /// through `deliver_into` and `wrapped` through `deliver`; returns
    /// the effects both reported.
    fn step(
        &mut self,
        deliver_into: impl Fn(&mut C, Msg<K>, &mut Outbox<K, E>),
        deliver: impl Fn(&mut C, Msg<K>) -> (Vec<Msg<K>>, Vec<E>),
    ) -> Vec<E> {
        let Some(m) = self.wire.pop_front() else {
            return Vec::new();
        };
        assert!(self.out.msgs.is_empty() && self.out.effects.is_empty());
        deliver_into(&mut self.reused, m, &mut self.out);
        let (msgs, effects) = deliver(&mut self.wrapped, m);
        assert_eq!(self.out.msgs, msgs, "messages diverged delivering {m:?}");
        assert_eq!(
            self.out.effects, effects,
            "effects diverged delivering {m:?}"
        );
        self.wire.extend(self.out.msgs.drain(..));
        self.out.effects.clear();
        effects
    }
}

proptest! {
    /// RIC: enrolments, leaves, buffered stores with their `WRITE-GLOBAL`s
    /// and `READ-GLOBAL`s, interleaved with deliveries.
    #[test]
    fn ric_deliver_into_matches_deliver(
        script in proptest::collection::vec((0usize..6, 0u8..5, 0u8..4), 1..120),
    ) {
        let list = UpdateList::new(4);
        let mut t = Twin::new(list.clone(), list);
        let into = |u: &mut UpdateList, m, out: &mut _| u.deliver_into(m, out);
        let wrap = |u: &mut UpdateList, m| u.deliver(m);
        let mut stamp = 0u64;
        for (node, op, word) in script {
            match op {
                0 if !t.reused.is_member(node) => t.issue(|u| u.read_update(node)),
                1 => t.issue(|u| u.leave(node)),
                2 => {
                    stamp += 1;
                    t.issue(|u| {
                        u.store(node, word, stamp, stamp);
                        u.write_global(node, word, stamp, stamp)
                    });
                }
                3 => t.issue(|u| u.read_global(node, word)),
                _ => {
                    t.step(into, wrap);
                }
            }
        }
        while !t.wire.is_empty() {
            t.step(into, wrap);
        }
        prop_assert_eq!(t.reused.members_in_order(), t.wrapped.members_in_order());
        prop_assert_eq!(t.reused.mem(), t.wrapped.mem());
        for n in 0..6 {
            for w in 0..4 {
                prop_assert_eq!(t.reused.cached(n, w), t.wrapped.cached(n, w));
            }
        }
    }

    /// CBL: read and write lock requests and releases (whose own messages
    /// and effects must agree too), interleaved with deliveries.
    #[test]
    fn cbl_deliver_into_matches_deliver(
        script in proptest::collection::vec((0usize..6, 0u8..4, proptest::bool::ANY), 1..120),
    ) {
        let q = LockQueue::new(4);
        let mut t = Twin::new(q.clone(), q);
        let into = |q: &mut LockQueue, m, out: &mut _| q.deliver_into(m, out);
        let wrap = |q: &mut LockQueue, m| q.deliver(m);
        for (node, op, read) in script {
            match op {
                0 if !t.reused.is_active(node) => {
                    let mode = if read { LockMode::Read } else { LockMode::Write };
                    t.issue(|q| q.request(node, mode));
                }
                1 if t.reused.holds(node) => {
                    let released = t.reused.release(node);
                    prop_assert_eq!(&released, &t.wrapped.release(node));
                    t.wire.extend(released.0);
                }
                _ => {
                    t.step(into, wrap);
                }
            }
        }
        while !t.wire.is_empty() {
            t.step(into, wrap);
        }
        prop_assert!(t.reused == t.wrapped, "queues diverged");
    }

    /// The coherence backends: reads and writes with at most one
    /// outstanding request per node, the machine's discipline, completed
    /// the way the machine completes them.
    #[test]
    fn coherence_deliver_into_matches_deliver(
        script in proptest::collection::vec((0usize..4, 0u8..4, 0u8..4), 1..120),
    ) {
        let backends: [fn() -> Box<dyn CoherenceProtocol>; 3] = [
            || Box::new(WbiBlock::new(4)),
            || Box::new(MesiBlock::new(4, 4)),
            || Box::new(DragonBlock::new(4)),
        ];
        for make in backends {
            let mut t = Twin::new(make(), make());
            let into = |b: &mut Box<dyn CoherenceProtocol>, m, out: &mut _| b.deliver_into(m, out);
            let wrap = |b: &mut Box<dyn CoherenceProtocol>, m| b.deliver(m);
            // Per node: no request outstanding (None), a read (Some(None))
            // or a write of (word, value) (Some(Some(..))).
            let mut pending: [Option<Option<(u8, u64)>>; 4] = [None; 4];
            let mut stamp = 0u64;
            let step = |t: &mut Twin<Box<dyn CoherenceProtocol>, _, CohEffect>,
                            pending: &mut [Option<Option<(u8, u64)>>; 4]| {
                for e in t.step(into, wrap) {
                    let node = match e {
                        CohEffect::FilledShared { node, .. } | CohEffect::StoreComplete { node } => node,
                        CohEffect::FilledExcl { node, .. } | CohEffect::UpgradeGranted { node } => {
                            // invalidate backends store locally once they own the line
                            if let Some(Some((w, v))) = pending[node] {
                                let hit = t.reused.local_write(node, w, v);
                                assert_eq!(hit, t.wrapped.local_write(node, w, v));
                            }
                            node
                        }
                        _ => continue,
                    };
                    pending[node] = None;
                }
            };
            for (node, op, word) in script.iter().copied() {
                match op {
                    0 if pending[node].is_none() && t.reused.local_read(node, word).is_none() => {
                        pending[node] = Some(None);
                        t.issue(|b| b.read_req(node));
                    }
                    1 if pending[node].is_none() => {
                        stamp += 1;
                        let hit = t.reused.local_write(node, word, stamp);
                        prop_assert_eq!(hit, t.wrapped.local_write(node, word, stamp));
                        if !hit {
                            pending[node] = Some(Some((word, stamp)));
                            t.issue(|b| b.write_req(node, word, stamp));
                        }
                    }
                    _ => step(&mut t, &mut pending),
                }
            }
            while !t.wire.is_empty() {
                step(&mut t, &mut pending);
            }
            prop_assert_eq!(t.reused.check_quiescent(), t.wrapped.check_quiescent());
            for w in 0..4 {
                prop_assert_eq!(t.reused.coherent_word(w), t.wrapped.coherent_word(w));
                for n in 0..4 {
                    prop_assert_eq!(t.reused.local_read(n, w), t.wrapped.local_read(n, w));
                }
            }
        }
    }
}
