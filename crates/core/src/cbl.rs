//! The **cache-based lock** (CBL) protocol of paper §4.3: queued
//! busy-waiting built from cache lines.
//!
//! Lock requesters for a block form a doubly-linked list threaded through
//! their cache lines (`prev`/`next` of Fig. 2a); the central directory holds
//! only a pointer to the **tail**. A new request goes to the directory,
//! which forwards it to the current tail and records the requester as the
//! new tail; the old tail either shares the lock immediately (read–read) or
//! records the requester as its successor. Releases hand the lock (and the
//! protected data, merged into the grant message) directly to the successor
//! — the O(n) behaviour of Table 3, versus the O(n²) invalidation storms of
//! spin locks on a WBI protocol.
//!
//! This module is a *pure* protocol state machine: [`LockQueue::request`]
//! and [`LockQueue::release`] return, and [`LockQueue::deliver_into`]
//! appends to the caller's outbox, the messages that would be placed on
//! the interconnect; the caller (the machine simulator, or a test
//! harness) decides when each is delivered.
//!
//! ## Modelling choices for the elided transients
//!
//! The paper elides the detailed queue-maintenance algorithms (footnote 3;
//! they live in Lee's thesis). We model:
//!
//! * **fully** — the release/forward race through the directory: a forward
//!   racing with a release bounces off the released node back to the
//!   directory, which re-forwards to the new tail or grants from memory;
//!   released lines stay in `ReleasePending` until acknowledged so a
//!   re-request can never splice a stale forward into a cycle. This is the
//!   transient that matters for the contention behaviour the paper
//!   evaluates.
//! * **atomically** — doubly-linked-list *pointer* surgery (enqueue
//!   back-pointers, read-holder splice-out). Hardware serialises these
//!   updates on line ownership; simulating that serialisation adds messages
//!   the paper does not count and states it does not describe. The
//!   controller therefore applies pointer updates atomically at the event
//!   that initiates them, while still emitting the corresponding messages
//!   (`Enqueued`, `SpliceNext`, `SplicePrev`) so message counts and timing
//!   match the hardware; their delivery is a no-op.

use std::collections::BTreeMap;

use crate::addr::NodeId;
use crate::line::LockField;
use crate::msg::{Endpoint, Msg, Outbox};
use crate::primitive::LockMode;

/// Where the data accompanying a lock grant comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Main memory (grant from the directory).
    Memory,
    /// The previous holder's cache line (grant passed node-to-node).
    Node(NodeId),
}

/// CBL protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CblKind {
    /// Node → directory: lock request (read or write).
    Request(LockMode),
    /// Directory → old tail: forward a new requester.
    Forward {
        /// The requesting node.
        requester: NodeId,
        /// The requested mode.
        mode: LockMode,
    },
    /// Directory → node: lock granted from memory, block data attached.
    GrantMem,
    /// Node → node: lock handed over (release) or shared (read–read).
    /// Carries the block data.
    GrantChain,
    /// Old tail → requester: "you are enqueued behind me" (back-pointer
    /// notification; accounting only, pointers applied atomically).
    Enqueued,
    /// Node → directory: release with no known successor. Carries the
    /// written-back data and the directory's proposed new tail.
    Release {
        /// The node that should become the directory tail (`None` frees
        /// the block).
        new_tail: Option<NodeId>,
    },
    /// Directory → node: release acknowledged; the line may be dropped.
    ReleaseAck,
    /// Node → directory: a forward arrived at a node that has released.
    Bounce {
        /// The requester from the bounced forward.
        requester: NodeId,
        /// Its requested mode.
        mode: LockMode,
    },
    /// Node → node: splice fix-up, "your `next` changed" (accounting only).
    SpliceNext,
    /// Node → node: splice fix-up, "your `prev` changed" (accounting only).
    SplicePrev,
}

/// A CBL protocol message (block data rides along with grants and
/// releases).
pub type CblMsg = Msg<CblKind>;

/// Where a [`LockQueue`] delivery puts its messages and effects.
pub type CblOutbox = Outbox<CblKind, CblEffect>;

/// Externally visible protocol effects, consumed by the machine simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CblEffect {
    /// The node now holds the lock in `mode`; the protected data arrived
    /// from `data_from` (merged data/synchronization transfer, §4.3).
    Granted {
        /// The new holder.
        node: NodeId,
        /// Held mode.
        mode: LockMode,
        /// Where the block data came from.
        data_from: DataSource,
    },
    /// The node's release is complete; under sequential consistency the
    /// processor waits for this before proceeding.
    ReleaseComplete {
        /// The releasing node.
        node: NodeId,
    },
    /// The released lock was handed to a successor; `from`'s dirty data
    /// travelled inside the grant.
    ReleaseForwarded {
        /// Releasing node.
        from: NodeId,
        /// New holder.
        to: NodeId,
    },
}

/// Per-node lock-line state tracked by the controller (mirrors the lock
/// field and list pointers of the node's cache line, Fig. 2a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeLock {
    state: LockField,
    prev: Option<NodeId>,
    next: Option<NodeId>,
    next_mode: Option<LockMode>,
    /// A grant has already been sent to `next` (read sharing); guards
    /// against double-granting when a release races with a share grant.
    next_granted: bool,
}

impl NodeLock {
    fn waiting(mode: LockMode) -> Self {
        Self {
            state: LockField::Waiting(mode),
            prev: None,
            next: None,
            next_mode: None,
            next_granted: false,
        }
    }
}

/// The distributed lock queue for one memory block.
///
/// Owns the directory-side tail pointer and each participating node's
/// lock-line state. All methods are pure protocol transitions.
///
/// ```
/// use ssmp_core::cbl::{CblEffect, CblOutbox, LockQueue};
/// use ssmp_core::primitive::LockMode;
///
/// let mut q = LockQueue::new(4);
/// let mut out = CblOutbox::default();
/// // node 3 requests; deliver the request and then the grant
/// let mut wire = q.request(3, LockMode::Write);
/// while let Some(m) = wire.pop() {
///     q.deliver_into(m, &mut out);
///     wire.append(&mut out.msgs);
///     for e in out.effects.drain(..) {
///         if let CblEffect::Granted { node, .. } = e {
///             assert_eq!(node, 3);
///         }
///     }
/// }
/// assert!(q.holds(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockQueue {
    block_words: u32,
    nodes: BTreeMap<NodeId, NodeLock>,
    tail: Option<NodeId>,
    /// Releasing node → its proposed new tail, while the release is
    /// deferred waiting for an in-flight forward to bounce.
    release_pending: BTreeMap<NodeId, Option<NodeId>>,
}

impl LockQueue {
    /// Creates a queue for blocks of `block_words` words.
    pub fn new(block_words: u32) -> Self {
        Self {
            block_words,
            nodes: BTreeMap::new(),
            tail: None,
            release_pending: BTreeMap::new(),
        }
    }

    /// True if `node` currently holds the lock (in any mode).
    pub fn holds(&self, node: NodeId) -> bool {
        matches!(
            self.nodes.get(&node).map(|n| n.state),
            Some(LockField::Held(_))
        )
    }

    /// The current holders (read sharers, or the single write holder).
    pub fn holders(&self) -> Vec<(NodeId, LockMode)> {
        self.nodes
            .iter()
            .filter_map(|(&n, s)| match s.state {
                LockField::Held(m) => Some((n, m)),
                _ => None,
            })
            .collect()
    }

    /// Nodes still waiting for a grant.
    pub fn waiters(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, s)| matches!(s.state, LockField::Waiting(_)))
            .map(|(&n, _)| n)
            .collect()
    }

    /// True when no node holds, waits for, or is releasing this lock.
    pub fn is_quiescent_free(&self) -> bool {
        self.nodes.is_empty() && self.tail.is_none() && self.release_pending.is_empty()
    }

    /// Whether `node` has any active lock line for this block (and thus may
    /// not issue a new request yet).
    pub fn is_active(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// Processor issues `READ-LOCK`/`WRITE-LOCK`: returns the request
    /// message to send to the home directory.
    ///
    /// Panics if the node already has an active lock line for this block.
    pub fn request(&mut self, node: NodeId, mode: LockMode) -> Vec<CblMsg> {
        assert!(
            !self.is_active(node),
            "node {node} issued a lock request while already active on this block"
        );
        self.nodes.insert(node, NodeLock::waiting(mode));
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            CblKind::Request(mode),
        )]
    }

    /// Processor issues `UNLOCK`.
    ///
    /// Returns the resulting messages plus immediately-known effects (the
    /// unlocking processor "is allowed to continue its computation
    /// immediately", §4.3 — completion effects matter only to sequential
    /// consistency).
    pub fn release(&mut self, node: NodeId) -> (Vec<CblMsg>, Vec<CblEffect>) {
        let me = Endpoint::Node(node);
        let st = *self
            .nodes
            .get(&node)
            .unwrap_or_else(|| panic!("unlock by node {node} with no lock line"));
        let LockField::Held(mode) = st.state else {
            panic!("unlock by node {node} which does not hold the lock: {st:?}");
        };

        let mut msgs = Vec::new();
        let mut effects = Vec::new();

        match st.next {
            Some(q) => {
                let q_is_holder = self.holds(q) || st.next_granted;
                let hand_over = match mode {
                    // A write holder always hands over to its successor.
                    LockMode::Write => true,
                    // A read holder hands over only when it is the last
                    // remaining holder (head of the list) and the successor
                    // has not already been granted a share.
                    LockMode::Read => st.prev.is_none() && !q_is_holder,
                };
                if hand_over {
                    // Successor becomes the new head (pointer applied
                    // atomically; the grant message carries data + timing).
                    if let Some(qs) = self.nodes.get_mut(&q) {
                        qs.prev = None;
                    }
                    self.nodes.remove(&node);
                    msgs.push(Msg::data(
                        me,
                        Endpoint::Node(q),
                        self.block_words,
                        CblKind::GrantChain,
                    ));
                    effects.push(CblEffect::ReleaseForwarded { from: node, to: q });
                } else {
                    // Splice self out of the holder chain ("similar to
                    // deleting a node from a doubly-linked list").
                    if let Some(x) = st.prev {
                        let xs = self.nodes.get_mut(&x).expect("prev node active");
                        xs.next = Some(q);
                        xs.next_mode = st.next_mode;
                        xs.next_granted = q_is_holder;
                        msgs.push(Msg::ctl(me, Endpoint::Node(x), CblKind::SpliceNext));
                    }
                    if let Some(qs) = self.nodes.get_mut(&q) {
                        qs.prev = st.prev;
                    }
                    msgs.push(Msg::ctl(me, Endpoint::Node(q), CblKind::SplicePrev));
                    self.nodes.remove(&node);
                    effects.push(CblEffect::ReleaseComplete { node });
                }
            }
            None => {
                // No known successor: release through the directory. A
                // forward may still be in flight towards us, so hold the
                // line in ReleasePending until the directory acknowledges.
                let new_tail = st.prev;
                if let Some(x) = st.prev {
                    let xs = self.nodes.get_mut(&x).expect("prev node active");
                    xs.next = None;
                    xs.next_mode = None;
                    xs.next_granted = false;
                    msgs.push(Msg::ctl(me, Endpoint::Node(x), CblKind::SpliceNext));
                }
                let entry = self.nodes.get_mut(&node).expect("checked above");
                entry.state = LockField::ReleasePending;
                entry.prev = None;
                msgs.push(Msg::data(
                    me,
                    Endpoint::Dir,
                    self.block_words,
                    CblKind::Release { new_tail },
                ));
            }
        }
        (msgs, effects)
    }

    /// Delivers a protocol message at its destination, appending the
    /// follow-on messages and effects to `out`.
    pub fn deliver_into(&mut self, msg: CblMsg, out: &mut CblOutbox) {
        match msg.dst {
            Endpoint::Dir => self.deliver_at_dir(msg, out),
            Endpoint::Node(n) => self.deliver_at_node(n, msg, out),
        }
    }

    /// The Vec-returning form of [`LockQueue::deliver_into`]: delivers into a
    /// fresh outbox and returns its messages and effects.
    pub fn deliver(&mut self, msg: CblMsg) -> (Vec<CblMsg>, Vec<CblEffect>) {
        Outbox::collect(|out| self.deliver_into(msg, out))
    }

    fn deliver_at_dir(&mut self, msg: CblMsg, out: &mut CblOutbox) {
        let Endpoint::Node(src) = msg.src else {
            panic!("directory received a message from itself: {msg:?}");
        };
        let (dir, to_src) = (Endpoint::Dir, Endpoint::Node(src));
        match msg.kind {
            CblKind::Request(mode) => match self.tail.replace(src) {
                None => out.data(dir, to_src, self.block_words, CblKind::GrantMem),
                Some(t) => {
                    let fwd = CblKind::Forward {
                        requester: src,
                        mode,
                    };
                    out.ctl(dir, Endpoint::Node(t), fwd);
                }
            },
            CblKind::Release { new_tail } => {
                if self.tail == Some(src) {
                    // No forward in flight: retire the release now. The new
                    // tail may itself have a release deferred here (it
                    // released before we did, but its Release reached the
                    // directory first): cascade-retire those too.
                    self.tail = new_tail;
                    out.ctl(dir, to_src, CblKind::ReleaseAck);
                    self.retire_pending_tails(out);
                } else {
                    // A forward towards `src` is in flight; defer until it
                    // bounces.
                    self.release_pending.insert(src, new_tail);
                }
            }
            CblKind::Bounce { requester, mode } => {
                let Some(new_tail) = self.release_pending.remove(&src) else {
                    panic!("bounce from {src} with no pending release");
                };
                out.ctl(dir, to_src, CblKind::ReleaseAck);
                match new_tail {
                    // The releaser had predecessors: the bounced requester
                    // re-attaches behind the proposed new tail.
                    Some(x) => {
                        out.ctl(dir, Endpoint::Node(x), CblKind::Forward { requester, mode })
                    }
                    // Queue drained: grant the bounced requester from
                    // memory (the release wrote the data back).
                    None => {
                        let to = Endpoint::Node(requester);
                        out.data(dir, to, self.block_words, CblKind::GrantMem);
                    }
                }
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    /// While the directory tail names a node whose release is deferred
    /// here, retire that release and move the tail to its proposed
    /// successor. This resolves the race where a chain of read holders
    /// release concurrently and their `Release` messages arrive at the
    /// directory out of chain order.
    fn retire_pending_tails(&mut self, out: &mut CblOutbox) {
        while let Some(t) = self.tail {
            let Some(next_tail) = self.release_pending.remove(&t) else {
                break;
            };
            self.tail = next_tail;
            out.ctl(Endpoint::Dir, Endpoint::Node(t), CblKind::ReleaseAck);
        }
    }

    fn deliver_at_node(&mut self, node: NodeId, msg: CblMsg, out: &mut CblOutbox) {
        let me = Endpoint::Node(node);
        match msg.kind {
            CblKind::Forward { requester, mode } => {
                let state = self.nodes.get(&node).map(|s| s.state);
                let share = match state {
                    Some(LockField::Held(held_mode)) => held_mode.compatible(mode),
                    Some(LockField::Waiting(_)) => false,
                    Some(LockField::ReleasePending) | None => {
                        // We released before the forward arrived: bounce it
                        // back to the directory.
                        out.ctl(me, Endpoint::Dir, CblKind::Bounce { requester, mode });
                        return;
                    }
                    Some(LockField::None) => panic!("forward at node with inactive lock field"),
                };
                let entry = self.nodes.get_mut(&node).expect("checked");
                entry.next = Some(requester);
                entry.next_mode = Some(mode);
                entry.next_granted = share;
                if let Some(rq) = self.nodes.get_mut(&requester) {
                    rq.prev = Some(node);
                }
                let to = Endpoint::Node(requester);
                if share {
                    // Read–read: share immediately; data rides along.
                    out.data(me, to, self.block_words, CblKind::GrantChain);
                } else {
                    out.ctl(me, to, CblKind::Enqueued);
                }
            }
            CblKind::GrantMem => self.grant_at(node, DataSource::Memory, out),
            CblKind::GrantChain => {
                let Endpoint::Node(from) = msg.src else {
                    panic!("grant-chain from directory")
                };
                self.grant_at(node, DataSource::Node(from), out)
            }
            // Pointer updates were applied atomically at the initiating
            // event; these messages exist for cost accounting only.
            CblKind::Enqueued | CblKind::SpliceNext | CblKind::SplicePrev => {}
            CblKind::ReleaseAck => {
                let entry = self.nodes.remove(&node);
                debug_assert!(
                    matches!(entry.map(|e| e.state), Some(LockField::ReleasePending)),
                    "release-ack at node not in ReleasePending"
                );
                out.effect(CblEffect::ReleaseComplete { node });
            }
            other => panic!("node cannot handle {other:?}"),
        }
    }

    /// Common grant handling: the node transitions Waiting → Held and, if a
    /// compatible read waiter is queued behind it, the grant propagates
    /// ("the lock release notification goes down the linked list until it
    /// meets a write-lock requester").
    fn grant_at(&mut self, node: NodeId, data_from: DataSource, out: &mut CblOutbox) {
        let entry = self
            .nodes
            .get_mut(&node)
            .unwrap_or_else(|| panic!("grant delivered to node {node} with no lock line"));
        let LockField::Waiting(mode) = entry.state else {
            panic!("grant delivered to node {node} in state {:?}", entry.state);
        };
        entry.state = LockField::Held(mode);
        let next = entry.next;
        let next_mode = entry.next_mode;
        let next_granted = entry.next_granted;

        out.effect(CblEffect::Granted {
            node,
            mode,
            data_from,
        });
        if mode == LockMode::Read && next_mode == Some(LockMode::Read) && !next_granted {
            if let Some(q) = next {
                if matches!(
                    self.nodes.get(&q).map(|s| s.state),
                    Some(LockField::Waiting(_))
                ) {
                    self.nodes
                        .get_mut(&node)
                        .expect("just updated")
                        .next_granted = true;
                    let (me, to) = (Endpoint::Node(node), Endpoint::Node(q));
                    out.data(me, to, self.block_words, CblKind::GrantChain);
                }
            }
        }
    }

    /// Checks the mutual-exclusion invariant (valid at *all* times, even
    /// mid-protocol): either all holders are readers, or there is exactly
    /// one holder and it holds a write lock.
    pub fn check_exclusion(&self) -> Result<(), String> {
        let holders = self.holders();
        let writers = holders
            .iter()
            .filter(|(_, m)| *m == LockMode::Write)
            .count();
        if writers > 1 {
            return Err(format!("{writers} simultaneous write holders: {holders:?}"));
        }
        if writers == 1 && holders.len() > 1 {
            return Err(format!(
                "write holder coexists with other holders: {holders:?}"
            ));
        }
        Ok(())
    }

    /// Checks quiescent-state list consistency: with no messages in flight,
    /// the queue must be a single well-formed doubly-linked chain from head
    /// to the directory tail, holders forming a compatible prefix.
    pub fn check_quiescent(&self) -> Result<(), String> {
        self.check_exclusion()?;
        if !self.release_pending.is_empty() {
            return Err(format!(
                "release pending at quiescence: {:?}",
                self.release_pending
            ));
        }
        if self
            .nodes
            .values()
            .any(|s| s.state == LockField::ReleasePending)
        {
            return Err("node stuck in ReleasePending at quiescence".into());
        }
        match self.tail {
            None => {
                if !self.nodes.is_empty() {
                    return Err(format!("no tail but active nodes: {:?}", self.nodes));
                }
                Ok(())
            }
            Some(tail) => {
                let heads: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .filter(|(_, s)| s.prev.is_none())
                    .map(|(&n, _)| n)
                    .collect();
                if heads.len() != 1 {
                    return Err(format!("expected one head, found {heads:?}"));
                }
                let mut seen = std::collections::BTreeSet::new();
                let mut cur = heads[0];
                let mut holders_done = false;
                loop {
                    if !seen.insert(cur) {
                        return Err(format!("cycle at node {cur}"));
                    }
                    let s = self
                        .nodes
                        .get(&cur)
                        .ok_or_else(|| format!("chain references absent node {cur}"))?;
                    match s.state {
                        LockField::Held(_) => {
                            if holders_done {
                                return Err(format!("holder {cur} after a waiter"));
                            }
                        }
                        LockField::Waiting(_) => holders_done = true,
                        other => return Err(format!("node {cur} in state {other:?}")),
                    }
                    match s.next {
                        Some(nx) => {
                            let nxs = self
                                .nodes
                                .get(&nx)
                                .ok_or_else(|| format!("next {nx} absent"))?;
                            if nxs.prev != Some(cur) {
                                return Err(format!(
                                    "broken back-pointer: {cur}.next = {nx} but {nx}.prev = {:?}",
                                    nxs.prev
                                ));
                            }
                            cur = nx;
                        }
                        None => break,
                    }
                }
                if cur != tail {
                    return Err(format!("chain ends at {cur} but directory tail is {tail}"));
                }
                if seen.len() != self.nodes.len() {
                    return Err(format!(
                        "chain covers {} of {} active nodes",
                        seen.len(),
                        self.nodes.len()
                    ));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmp_engine::SimRng;
    use std::collections::VecDeque;

    const B: u32 = 4;

    /// Delivery harness: holds in-flight messages, delivers them (FIFO or
    /// randomized per-pair-FIFO), checks the exclusion invariant after
    /// every step, and records effects.
    struct Harness {
        q: LockQueue,
        wire: VecDeque<CblMsg>,
        effects: Vec<CblEffect>,
        messages_seen: usize,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                q: LockQueue::new(B),
                wire: VecDeque::new(),
                effects: Vec::new(),
                messages_seen: 0,
            }
        }

        fn request(&mut self, node: NodeId, mode: LockMode) {
            let msgs = self.q.request(node, mode);
            self.messages_seen += msgs.len();
            self.wire.extend(msgs);
        }

        fn release(&mut self, node: NodeId) {
            let (msgs, eff) = self.q.release(node);
            self.messages_seen += msgs.len();
            self.wire.extend(msgs);
            self.effects.extend(eff);
        }

        fn step(&mut self, m: CblMsg) {
            let (msgs, eff) = self.q.deliver(m);
            self.messages_seen += msgs.len();
            self.q.check_exclusion().unwrap();
            self.wire.extend(msgs);
            self.effects.extend(eff);
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                self.step(m);
            }
        }

        /// Drain delivering in a pseudo-random order that preserves
        /// per-(src,dst) FIFO, like the network does.
        fn drain_shuffled(&mut self, rng: &mut SimRng) {
            while !self.wire.is_empty() {
                let mut candidates: Vec<usize> = Vec::new();
                'outer: for (i, m) in self.wire.iter().enumerate() {
                    for e in self.wire.iter().take(i) {
                        if e.src == m.src && e.dst == m.dst {
                            continue 'outer;
                        }
                    }
                    candidates.push(i);
                }
                let pick = candidates[rng.index(candidates.len())];
                let m = self.wire.remove(pick).unwrap();
                self.step(m);
            }
        }

        fn granted(&self) -> Vec<NodeId> {
            self.effects
                .iter()
                .filter_map(|e| match e {
                    CblEffect::Granted { node, .. } => Some(*node),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn single_write_lock_roundtrip() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.drain();
        assert!(h.q.holds(0));
        assert_eq!(h.granted(), vec![0]);
        h.q.check_quiescent().unwrap();
        h.release(0);
        h.drain();
        assert!(h.q.is_quiescent_free());
        // serial lock: request + grant + release + ack = 4 messages
        // (the paper counts 3: the off-critical-path ack is elided there)
        assert_eq!(h.messages_seen, 4);
    }

    #[test]
    fn grant_carries_data_source() {
        let mut h = Harness::new();
        h.request(2, LockMode::Write);
        h.drain();
        match h.effects[0] {
            CblEffect::Granted {
                node,
                mode,
                data_from,
            } => {
                assert_eq!(node, 2);
                assert_eq!(mode, LockMode::Write);
                assert_eq!(data_from, DataSource::Memory);
            }
            ref e => panic!("{e:?}"),
        }
    }

    #[test]
    fn fifo_handover_of_write_locks() {
        let mut h = Harness::new();
        for n in 0..3 {
            h.request(n, LockMode::Write);
        }
        h.drain();
        assert!(h.q.holds(0));
        assert_eq!(h.q.waiters(), vec![1, 2]);
        h.q.check_quiescent().unwrap();

        h.release(0);
        h.drain();
        assert!(h.q.holds(1));
        h.q.check_quiescent().unwrap();
        h.release(1);
        h.drain();
        assert!(h.q.holds(2));
        h.release(2);
        h.drain();
        assert!(h.q.is_quiescent_free());
        assert_eq!(h.granted(), vec![0, 1, 2], "grants in FIFO request order");
    }

    #[test]
    fn handover_grant_comes_from_previous_holder() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.request(1, LockMode::Write);
        h.drain();
        h.release(0);
        h.drain();
        let grant_to_1 = h
            .effects
            .iter()
            .find_map(|e| match e {
                CblEffect::Granted {
                    node: 1, data_from, ..
                } => Some(*data_from),
                _ => None,
            })
            .unwrap();
        assert_eq!(
            grant_to_1,
            DataSource::Node(0),
            "data must ride with the grant"
        );
    }

    #[test]
    fn read_locks_share() {
        let mut h = Harness::new();
        h.request(0, LockMode::Read);
        h.drain();
        h.request(1, LockMode::Read);
        h.drain();
        assert!(h.q.holds(0) && h.q.holds(1), "read–read must share");
        h.q.check_quiescent().unwrap();
    }

    #[test]
    fn writer_waits_behind_readers() {
        // Paper Fig. 3: P1 read, P2 read, P3 write.
        let mut h = Harness::new();
        h.request(1, LockMode::Read);
        h.drain();
        h.request(2, LockMode::Read);
        h.drain();
        h.request(3, LockMode::Write);
        h.drain();
        assert!(h.q.holds(1) && h.q.holds(2));
        assert!(!h.q.holds(3));
        assert_eq!(h.q.waiters(), vec![3]);
        h.q.check_quiescent().unwrap();

        // Releasing one reader is not enough.
        h.release(1);
        h.drain();
        assert!(!h.q.holds(3));
        h.q.check_quiescent().unwrap();
        // Releasing the last reader grants the writer.
        h.release(2);
        h.drain();
        assert!(h.q.holds(3));
        h.q.check_quiescent().unwrap();
        h.release(3);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn reader_release_any_order() {
        let mut h = Harness::new();
        for n in 0..4 {
            h.request(n, LockMode::Read);
            h.drain();
        }
        h.request(9, LockMode::Write);
        h.drain();
        // release from the tail of the holder group towards the head
        for n in (0..4).rev() {
            assert!(!h.q.holds(9));
            h.release(n);
            h.drain();
            h.q.check_quiescent().unwrap();
        }
        assert!(h.q.holds(9));
        h.release(9);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn reader_release_middle_splices() {
        let mut h = Harness::new();
        for n in 0..3 {
            h.request(n, LockMode::Read);
            h.drain();
        }
        h.release(1); // middle of the holder chain
        h.drain();
        assert!(h.q.holds(0) && h.q.holds(2));
        h.q.check_quiescent().unwrap();
        h.release(0);
        h.drain();
        h.q.check_quiescent().unwrap();
        h.release(2);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn head_reader_release_with_waiting_writer() {
        // head releases first while other readers still hold
        let mut h = Harness::new();
        for n in 0..3 {
            h.request(n, LockMode::Read);
            h.drain();
        }
        h.request(7, LockMode::Write);
        h.drain();
        h.release(0); // head, but 1 and 2 still hold
        h.drain();
        assert!(!h.q.holds(7));
        h.q.check_quiescent().unwrap();
        h.release(1);
        h.drain();
        assert!(!h.q.holds(7));
        h.release(2);
        h.drain();
        assert!(h.q.holds(7));
        h.release(7);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn write_release_grants_contiguous_readers() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.drain();
        for n in 1..=3 {
            h.request(n, LockMode::Read);
            h.drain();
        }
        h.request(4, LockMode::Write);
        h.drain();
        h.release(0);
        h.drain();
        assert!(h.q.holds(1) && h.q.holds(2) && h.q.holds(3));
        assert!(!h.q.holds(4));
        h.q.check_quiescent().unwrap();
        for n in 1..=3 {
            h.release(n);
            h.drain();
        }
        assert!(h.q.holds(4));
        h.release(4);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn parallel_lock_message_complexity_is_linear() {
        // n simultaneous requesters, then serial critical sections: the
        // total message count must be O(n) (Table 3: CBL 6n-3 vs WBI
        // 6n²+4n).
        for n in [4usize, 8, 16, 32] {
            let mut h = Harness::new();
            for node in 0..n {
                h.request(node, LockMode::Write);
            }
            h.drain();
            for _ in 0..n {
                let holder = h.q.holders()[0].0;
                h.release(holder);
                h.drain();
            }
            assert!(h.q.is_quiescent_free());
            assert_eq!(h.granted().len(), n);
            assert!(
                h.messages_seen <= 6 * n,
                "n={n}: {} messages, expected O(n) <= {}",
                h.messages_seen,
                6 * n
            );
        }
    }

    #[test]
    fn release_bounce_race() {
        // Holder releases while a forward is in flight towards it.
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.drain();
        // Node 1 requests; deliver only the Request at the directory so the
        // Forward to node 0 is left in flight.
        h.request(1, LockMode::Write);
        let req = h.wire.pop_front().unwrap();
        h.step(req);
        // Node 0 releases before the forward arrives.
        h.release(0);
        h.drain();
        assert!(h.q.holds(1), "bounced requester must still obtain the lock");
        h.release(1);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn bounce_with_successor_chain() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.drain();
        h.request(1, LockMode::Write);
        let req = h.wire.pop_front().unwrap();
        h.step(req); // Forward to node 0 in flight
        h.release(0); // release before forward arrives
        h.drain();
        assert!(h.q.holds(1));
        h.request(2, LockMode::Write);
        h.drain();
        h.release(1);
        h.drain();
        assert!(h.q.holds(2));
        h.release(2);
        h.drain();
        assert!(h.q.is_quiescent_free());
        assert_eq!(h.granted(), vec![0, 1, 2]);
    }

    #[test]
    fn bounce_chain_through_two_releasers() {
        // Readers 0 and 1 share; a forward for writer 2 is in flight to
        // tail 1 while BOTH readers release: the bounce must walk the
        // pending-release chain and finally grant 2 from memory.
        let mut h = Harness::new();
        h.request(0, LockMode::Read);
        h.drain();
        h.request(1, LockMode::Read);
        h.drain();
        h.request(2, LockMode::Write);
        let req = h.wire.pop_front().unwrap();
        h.step(req); // Forward to node 1 in flight
        h.release(1); // tail reader releases (Release{new_tail: 0} to dir)
        h.release(0); // head reader releases too
        h.drain();
        assert!(h.q.holds(2), "writer starved by release/forward race");
        h.release(2);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn share_grant_race_with_release() {
        // Holder 0 (read) shares with requester 1 (read), but releases
        // before the share grant is delivered: no double grant.
        let mut h = Harness::new();
        h.request(0, LockMode::Read);
        h.drain();
        h.request(1, LockMode::Read);
        // deliver Request -> Forward, deliver Forward at 0 -> GrantChain in flight
        let req = h.wire.pop_front().unwrap();
        h.step(req);
        let fwd = h.wire.pop_front().unwrap();
        h.step(fwd);
        assert_eq!(h.wire.len(), 1, "share grant in flight");
        // 0 releases while the grant to 1 is in flight.
        h.release(0);
        h.drain();
        assert!(h.q.holds(1));
        assert_eq!(h.granted(), vec![0, 1], "each node granted exactly once");
        h.release(1);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn relock_after_release_is_safe() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.drain();
        h.release(0);
        h.drain();
        h.request(0, LockMode::Write);
        h.drain();
        assert!(h.q.holds(0));
        h.release(0);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn double_request_panics() {
        let mut h = Harness::new();
        h.request(0, LockMode::Write);
        h.request(0, LockMode::Write);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unlock_without_hold_panics() {
        let mut q = LockQueue::new(B);
        q.request(0, LockMode::Write);
        // still waiting, not held
        let _ = q.release(0);
    }

    #[test]
    fn mixed_modes_fifo_compatible_order() {
        // W R R W R: grants must respect queue order with read coalescing.
        let mut h = Harness::new();
        let seq = [
            (0, LockMode::Write),
            (1, LockMode::Read),
            (2, LockMode::Read),
            (3, LockMode::Write),
            (4, LockMode::Read),
        ];
        for (n, m) in seq {
            h.request(n, m);
            h.drain();
        }
        assert!(h.q.holds(0));
        h.release(0);
        h.drain();
        assert!(h.q.holds(1) && h.q.holds(2) && !h.q.holds(3) && !h.q.holds(4));
        h.release(2);
        h.drain();
        h.release(1);
        h.drain();
        assert!(h.q.holds(3) && !h.q.holds(4));
        h.release(3);
        h.drain();
        assert!(h.q.holds(4));
        h.release(4);
        h.drain();
        assert!(h.q.is_quiescent_free());
    }

    #[test]
    fn grant_message_carries_block_data_size() {
        let mut q = LockQueue::new(8);
        let msgs = q.request(0, LockMode::Write);
        assert_eq!(msgs[0].words, 1, "request is a control message");
        let (grants, _) = q.deliver(msgs[0]);
        assert_eq!(grants[0].kind, CblKind::GrantMem);
        assert_eq!(grants[0].words, 8, "grant carries the block");
    }

    proptest::proptest! {
        /// Random request/release schedules with randomized (pairwise-FIFO)
        /// delivery preserve exclusion, grant everyone exactly once, and
        /// drain to a free queue.
        #[test]
        fn prop_random_schedules(
            seed: u64,
            script in proptest::collection::vec((0usize..6, proptest::bool::ANY), 1..40),
        ) {
            let mut rng = SimRng::new(seed);
            let mut h = Harness::new();
            let mut total_requests = 0usize;
            for (node, is_read) in script {
                if h.q.is_active(node) {
                    h.drain_shuffled(&mut rng);
                    if h.q.holds(node) {
                        h.release(node);
                    }
                } else {
                    let mode = if is_read { LockMode::Read } else { LockMode::Write };
                    h.request(node, mode);
                    total_requests += 1;
                }
                h.drain_shuffled(&mut rng);
            }
            // Release everything still held; waiting nodes become holders.
            let mut safety = 0;
            h.drain_shuffled(&mut rng);
            while !h.q.is_quiescent_free() {
                let holders = h.q.holders();
                proptest::prop_assert!(!holders.is_empty(), "deadlock: waiters but no holders");
                for (n, _) in holders {
                    h.release(n);
                }
                h.drain_shuffled(&mut rng);
                safety += 1;
                proptest::prop_assert!(safety < 1000, "no progress towards quiescence");
            }
            proptest::prop_assert_eq!(h.granted().len(), total_requests);
        }

        /// Interleaved releases racing with forwards never deadlock and the
        /// quiescent invariant holds after every full drain.
        #[test]
        fn prop_quiescent_consistency(
            seed: u64,
            nodes in 2usize..8,
            rounds in 1usize..6,
        ) {
            let mut rng = SimRng::new(seed);
            let mut h = Harness::new();
            for _ in 0..rounds {
                for n in 0..nodes {
                    let mode = if rng.chance(0.5) { LockMode::Read } else { LockMode::Write };
                    h.request(n, mode);
                }
                h.drain_shuffled(&mut rng);
                h.q.check_quiescent().unwrap();
                let mut safety = 0;
                while !h.q.is_quiescent_free() {
                    for (n, _) in h.q.holders() {
                        h.release(n);
                    }
                    h.drain_shuffled(&mut rng);
                    h.q.check_quiescent().unwrap();
                    safety += 1;
                    proptest::prop_assert!(safety < 100, "stuck");
                }
            }
        }
    }
}

#[cfg(test)]
mod regression {
    use super::*;
    use std::collections::VecDeque;

    /// Regression: two read holders (chain head→tail) release concurrently
    /// and their `Release` messages reach the directory out of chain order.
    /// The directory must cascade-retire the deferred release instead of
    /// waiting for a forward that will never arrive.
    #[test]
    fn concurrent_reader_releases_cascade_retire() {
        let mut q = LockQueue::new(4);
        let mut wire: VecDeque<CblMsg> = VecDeque::new();
        // Build chain: 0 write-holder, readers 2 then 1 queue up: 0→2→1.
        wire.extend(q.request(0, LockMode::Write));
        while let Some(m) = wire.pop_front() {
            let (ms, _) = q.deliver(m);
            wire.extend(ms);
        }
        wire.extend(q.request(2, LockMode::Read));
        while let Some(m) = wire.pop_front() {
            let (ms, _) = q.deliver(m);
            wire.extend(ms);
        }
        wire.extend(q.request(1, LockMode::Read));
        while let Some(m) = wire.pop_front() {
            let (ms, _) = q.deliver(m);
            wire.extend(ms);
        }
        // Hand over to the readers.
        let (ms, _) = q.release(0);
        wire.extend(ms);
        while let Some(m) = wire.pop_front() {
            let (ms, _) = q.deliver(m);
            wire.extend(ms);
        }
        assert!(q.holds(1) && q.holds(2));
        // Both readers release before any message is delivered; deliver the
        // non-tail reader's Release first.
        let (ms1, _) = q.release(1); // tail of the chain (dir tail = 1)
        let (ms2, _) = q.release(2); // head
                                     // ms2's Release{None} must hit the directory before ms1's.
        let rel2 = ms2
            .iter()
            .find(|m| matches!(m.kind, CblKind::Release { .. }))
            .copied()
            .unwrap();
        let rel1 = ms1
            .iter()
            .find(|m| matches!(m.kind, CblKind::Release { .. }))
            .copied()
            .unwrap();
        let (ms, _) = q.deliver(rel2); // deferred: tail is 1
        wire.extend(ms);
        let (ms, _) = q.deliver(rel1); // retires 1, must cascade to 2
        wire.extend(ms);
        for m in ms1.into_iter().chain(ms2) {
            if !matches!(m.kind, CblKind::Release { .. }) {
                wire.push_back(m);
            }
        }
        while let Some(m) = wire.pop_front() {
            let (ms, _) = q.deliver(m);
            wire.extend(ms);
        }
        q.check_quiescent().unwrap();
        assert!(q.is_quiescent_free(), "deferred release leaked: {q:?}");
    }
}
