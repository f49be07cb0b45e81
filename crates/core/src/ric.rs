//! **Reader-initiated coherence** (RIC), paper §4.1.
//!
//! Instead of the writer deciding how to keep readers coherent (invalidate
//! or update), readers *opt in* to updates: `READ-UPDATE` fetches the block
//! and enrolls the reader in the block's update list; `RESET-UPDATE` leaves
//! it. The list is a doubly-linked list threaded through the enrolled
//! cache lines; the central directory stores only its head (Fig. 2b). When
//! a `WRITE-GLOBAL` updates memory, memory pushes the updated block to the
//! head, and each member forwards it to its successor.
//!
//! Compared with classic write-update protocols the reader set is *live*:
//! a reader that stops caring stops receiving updates, and "a smart
//! compiler could selectively determine regions in the program where
//! updates may be needed" (e.g. the FFT phase pattern of §4.2).
//!
//! Like [`crate::cbl`], this module is a pure message-level state machine;
//! list pointer surgery is applied atomically at the initiating event (the
//! fix-up messages are emitted for cost accounting, their delivery is a
//! no-op — see the modelling note in `cbl`). The controller also keeps
//! every node's cached copy of the block (Fig. 2a: data, valid bit, update
//! bit, per-word dirty bits): a read reply installs it, a push refreshes
//! it, and the machine's hit checks read it. A node's store marks its word
//! dirty until the home applies it, and fills and pushes keep dirty words,
//! so a node always reads its own latest write.
//!
//! A member that leaves while an update push is in flight towards it simply
//! drops the push ([`RicEffect::UpdateDropped`]); downstream members miss
//! that push. This is benign: memory is always up to date, and program
//! correctness never depends on pushes (synchronization transfers data
//! explicitly); pushes are a freshness optimisation.

use std::collections::BTreeMap;

use crate::addr::NodeId;
use crate::line::BlockData;
use crate::msg::{Endpoint, Msg};

/// RIC protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RicKind {
    /// Node → directory: fetch and enroll in the update list.
    ReadUpdateReq,
    /// Directory → node: block data in response to `READ-UPDATE`.
    ReadReply,
    /// Node → directory: `READ-GLOBAL` (bypass cache, one word).
    ReadGlobalReq {
        /// Word offset requested.
        word: u8,
    },
    /// Directory → node: `READ-GLOBAL` result.
    ReadGlobalReply {
        /// Word offset.
        word: u8,
    },
    /// Node → directory: `WRITE-GLOBAL` of one word.
    WriteGlobal {
        /// Word offset written.
        word: u8,
        /// Value (version stamp).
        value: u64,
        /// Write-buffer id, echoed in the ack.
        wid: u64,
    },
    /// Directory → node: global write performed at memory.
    WriteAck {
        /// Write-buffer id being acknowledged.
        wid: u64,
    },
    /// Directory → head, then member → member: updated block pushed down
    /// the update list.
    UpdatePush,
    /// Node → directory: head hand-off when the head leaves (accounting).
    HeadChange,
    /// Node → node: list fix-up (accounting only).
    Splice,
}

/// A RIC protocol message (block data rides along with read replies and
/// update pushes).
pub type RicMsg = Msg<RicKind>;

/// Externally visible effects, consumed by the machine simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RicEffect {
    /// Block data arrived at `node` in response to `READ-UPDATE` and is
    /// installed as its copy, with the update bit set.
    Filled {
        /// Receiving node.
        node: NodeId,
    },
    /// The node's global write `wid` is globally performed; retire the
    /// write-buffer entry.
    WriteDone {
        /// Writing node.
        node: NodeId,
        /// Write-buffer id.
        wid: u64,
    },
    /// A pushed update arrived at a member; its copy is refreshed if it
    /// is valid with the update bit set.
    UpdateApplied {
        /// Receiving node.
        node: NodeId,
    },
    /// A push arrived at a node that had left the list; dropped.
    UpdateDropped {
        /// The stale destination.
        node: NodeId,
    },
    /// A `READ-GLOBAL` result.
    ReadValue {
        /// Requesting node.
        node: NodeId,
        /// Word offset.
        word: u8,
        /// Value read straight from memory.
        value: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Member {
    prev: Option<NodeId>,
    next: Option<NodeId>,
}

/// A node's cached copy of the block (paper Fig. 2a).
#[derive(Debug, Clone)]
struct CachedCopy {
    data: BlockData,
    valid: bool,
    /// Update bit: set by the enrolling fill, cleared by `RESET-UPDATE`.
    update: bool,
    /// Bit `w` set while the node's latest store to word `w` is not yet
    /// applied at the home.
    dirty: u64,
    /// Write-buffer id of the node's latest store to each dirty word.
    wids: BlockData,
}

impl CachedCopy {
    /// Takes the words of `mem`, keeping the dirty ones.
    fn refresh(&mut self, mem: &BlockData) {
        let mut data = mem.clone();
        data.merge_masked(&self.data, self.dirty);
        self.data = data;
    }
}

/// The RIC controller for one memory block: the authoritative memory copy,
/// the central-directory head pointer, the members' list linkage, and
/// every node's cached copy.
#[derive(Debug, Clone)]
pub struct UpdateList {
    block_words: u32,
    mem: BlockData,
    head: Option<NodeId>,
    members: BTreeMap<NodeId, Member>,
    /// Indexed by node; grows on a node's first store or fill, so
    /// building a list allocates nothing.
    copies: Vec<CachedCopy>,
}

impl UpdateList {
    /// Creates the controller for a block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            block_words: block_words as u32,
            mem: BlockData::new(block_words),
            head: None,
            members: BTreeMap::new(),
            copies: Vec::new(),
        }
    }

    /// The authoritative memory copy.
    pub fn mem(&self) -> &BlockData {
        &self.mem
    }

    /// Word `word` of `node`'s copy, if the copy is valid (a read hit).
    pub fn cached(&self, node: NodeId, word: u8) -> Option<u64> {
        self.copies
            .get(node)
            .filter(|c| c.valid)
            .map(|c| c.data.get(word))
    }

    /// Whether `node` holds a valid copy with the update bit set, so a
    /// `READ-UPDATE` is serviced locally.
    pub fn has_update(&self, node: NodeId) -> bool {
        self.copies.get(node).is_some_and(|c| c.valid && c.update)
    }

    /// Nodes holding a valid copy with the update bit set, ascending.
    pub fn update_holders(&self) -> Vec<NodeId> {
        (0..self.copies.len())
            .filter(|&n| self.has_update(n))
            .collect()
    }

    /// The processor stores `value` to `word`, buffered as write `wid`:
    /// the node's copy, valid or not, takes the word and marks it dirty
    /// until the home applies that write.
    pub fn store(&mut self, node: NodeId, word: u8, value: u64, wid: u64) {
        self.grow(node);
        let c = &mut self.copies[node];
        c.data.set(word, value);
        c.dirty |= 1 << word;
        c.wids.set(word, wid);
    }

    /// Makes room for `node`'s copy: a node's first store or fill creates
    /// it invalid.
    fn grow(&mut self, node: NodeId) {
        if node >= self.copies.len() {
            let k = self.mem.len();
            let blank = CachedCopy {
                data: BlockData::new(k),
                valid: false,
                update: false,
                dirty: 0,
                wids: BlockData::new(k),
            };
            self.copies.resize(node + 1, blank);
        }
    }

    /// Current update-list membership, head first.
    pub fn members_in_order(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.members.len());
        let mut cur = self.head;
        while let Some(n) = cur {
            v.push(n);
            cur = self.members.get(&n).and_then(|m| m.next);
            if v.len() > self.members.len() {
                panic!("update list cycle");
            }
        }
        v
    }

    /// Whether `node` is enrolled.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.members.contains_key(&node)
    }

    /// Number of enrolled nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when nobody is enrolled.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Processor issues `READ-UPDATE` (cache miss or update bit clear).
    ///
    /// Panics if already enrolled — the cache services that case locally
    /// ("a read-update request is serviced locally by the cache if the
    /// update bit of the cache line is already set").
    pub fn read_update(&mut self, node: NodeId) -> Vec<RicMsg> {
        assert!(
            !self.is_member(node),
            "node {node} issued READ-UPDATE while already enrolled"
        );
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::ReadUpdateReq,
        )]
    }

    /// Processor issues `READ-GLOBAL` for one word.
    pub fn read_global(&mut self, node: NodeId, word: u8) -> Vec<RicMsg> {
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::ReadGlobalReq { word },
        )]
    }

    /// The write buffer issues a buffered `WRITE-GLOBAL`.
    pub fn write_global(&mut self, node: NodeId, word: u8, value: u64, wid: u64) -> Vec<RicMsg> {
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            RicKind::WriteGlobal { word, value, wid },
        )]
    }

    /// Processor issues `RESET-UPDATE`: clear the copy's update bit and
    /// leave the list. Pointer surgery is atomic; the returned messages are
    /// the fix-up traffic (accounting).
    pub fn leave(&mut self, node: NodeId) -> Vec<RicMsg> {
        if let Some(c) = self.copies.get_mut(node) {
            c.update = false;
        }
        let Some(m) = self.members.remove(&node) else {
            return vec![]; // idempotent: already gone
        };
        let me = Endpoint::Node(node);
        let mut msgs = Vec::new();
        if let Some(p) = m.prev {
            self.members.get_mut(&p).expect("prev member").next = m.next;
            msgs.push(Msg::ctl(me, Endpoint::Node(p), RicKind::Splice));
        } else {
            // We were the head: tell the directory.
            self.head = m.next;
            msgs.push(Msg::ctl(me, Endpoint::Dir, RicKind::HeadChange));
        }
        if let Some(n) = m.next {
            self.members.get_mut(&n).expect("next member").prev = m.prev;
            msgs.push(Msg::ctl(me, Endpoint::Node(n), RicKind::Splice));
        }
        msgs
    }

    /// Delivers a protocol message at its destination.
    pub fn deliver(&mut self, msg: RicMsg) -> (Vec<RicMsg>, Vec<RicEffect>) {
        match msg.dst {
            Endpoint::Dir => self.deliver_at_dir(msg),
            Endpoint::Node(n) => self.deliver_at_node(n, msg),
        }
    }

    fn deliver_at_dir(&mut self, msg: RicMsg) -> (Vec<RicMsg>, Vec<RicEffect>) {
        let Endpoint::Node(src) = msg.src else {
            panic!("directory message from directory: {msg:?}");
        };
        match msg.kind {
            RicKind::ReadUpdateReq => {
                let mut msgs = Vec::new();
                if !self.is_member(src) {
                    // Enroll at the head (cheapest insertion point: only the
                    // directory pointer and the old head's back pointer move).
                    let old_head = self.head;
                    self.members.insert(
                        src,
                        Member {
                            prev: None,
                            next: old_head,
                        },
                    );
                    if let Some(h) = old_head {
                        self.members.get_mut(&h).expect("old head").prev = Some(src);
                        msgs.push(Msg::ctl(Endpoint::Dir, Endpoint::Node(h), RicKind::Splice));
                    }
                    self.head = Some(src);
                }
                msgs.push(Msg::data(
                    Endpoint::Dir,
                    Endpoint::Node(src),
                    self.block_words,
                    RicKind::ReadReply,
                ));
                (msgs, vec![])
            }
            RicKind::ReadGlobalReq { word } => (
                vec![Msg::ctl(
                    Endpoint::Dir,
                    Endpoint::Node(src),
                    RicKind::ReadGlobalReply { word },
                )],
                vec![],
            ),
            RicKind::WriteGlobal { word, value, wid } => {
                self.mem.set(word, value);
                // The writer's latest store to the word is now in memory,
                // so later pushes and fills may overwrite it.
                if let Some(c) = self.copies.get_mut(src) {
                    if c.dirty & (1 << word) != 0 && c.wids.get(word) == wid {
                        c.dirty &= !(1 << word);
                    }
                }
                let mut msgs = vec![Msg::ctl(
                    Endpoint::Dir,
                    Endpoint::Node(src),
                    RicKind::WriteAck { wid },
                )];
                if let Some(h) = self.head {
                    msgs.push(Msg::data(
                        Endpoint::Dir,
                        Endpoint::Node(h),
                        self.block_words,
                        RicKind::UpdatePush,
                    ));
                }
                (msgs, vec![])
            }
            RicKind::HeadChange => (vec![], vec![]), // applied atomically at leave()
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    fn deliver_at_node(&mut self, node: NodeId, msg: RicMsg) -> (Vec<RicMsg>, Vec<RicEffect>) {
        match msg.kind {
            RicKind::ReadReply => {
                // The update bit is set even if the node left the list
                // while the reply was in flight.
                self.grow(node);
                let c = &mut self.copies[node];
                c.refresh(&self.mem);
                c.valid = true;
                c.update = true;
                (vec![], vec![RicEffect::Filled { node }])
            }
            RicKind::ReadGlobalReply { word } => (
                vec![],
                vec![RicEffect::ReadValue {
                    node,
                    word,
                    value: self.mem.get(word),
                }],
            ),
            RicKind::WriteAck { wid } => (vec![], vec![RicEffect::WriteDone { node, wid }]),
            RicKind::UpdatePush => {
                match self.members.get(&node) {
                    Some(m) => {
                        let mut msgs = Vec::new();
                        if let Some(nx) = m.next {
                            msgs.push(Msg::data(
                                Endpoint::Node(node),
                                Endpoint::Node(nx),
                                self.block_words,
                                RicKind::UpdatePush,
                            ));
                        }
                        if let Some(c) = self.copies.get_mut(node) {
                            if c.valid && c.update {
                                c.refresh(&self.mem);
                            }
                        }
                        (msgs, vec![RicEffect::UpdateApplied { node }])
                    }
                    // Left the list while the push was in flight.
                    None => (vec![], vec![RicEffect::UpdateDropped { node }]),
                }
            }
            RicKind::Splice => (vec![], vec![]),
            other => panic!("node cannot handle {other:?}"),
        }
    }

    /// Checks list well-formedness (valid at all times thanks to atomic
    /// pointer surgery): the chain from `head` visits every member exactly
    /// once with consistent back pointers.
    pub fn check_list(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut prev: Option<NodeId> = None;
        let mut cur = self.head;
        while let Some(n) = cur {
            if !seen.insert(n) {
                return Err(format!("cycle at {n}"));
            }
            let m = self
                .members
                .get(&n)
                .ok_or_else(|| format!("chain references non-member {n}"))?;
            if m.prev != prev {
                return Err(format!("node {n}: prev = {:?}, expected {prev:?}", m.prev));
            }
            prev = Some(n);
            cur = m.next;
        }
        if seen.len() != self.members.len() {
            return Err(format!(
                "chain covers {} of {} members",
                seen.len(),
                self.members.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmp_engine::SimRng;
    use std::collections::VecDeque;

    struct Harness {
        u: UpdateList,
        wire: VecDeque<RicMsg>,
        effects: Vec<RicEffect>,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                u: UpdateList::new(4),
                wire: VecDeque::new(),
                effects: Vec::new(),
            }
        }

        fn send(&mut self, msgs: Vec<RicMsg>) {
            self.wire.extend(msgs);
        }

        fn deliver(&mut self, m: RicMsg) {
            let (msgs, eff) = self.u.deliver(m);
            self.u.check_list().unwrap();
            self.send(msgs);
            self.effects.extend(eff);
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                self.deliver(m);
            }
        }

        /// Delivers the first in-flight message matching `pick`.
        fn deliver_first(&mut self, pick: impl Fn(&RicMsg) -> bool) {
            let i = self.wire.iter().position(pick).expect("no such message");
            let m = self.wire.remove(i).unwrap();
            self.deliver(m);
        }

        /// Each node in turn issues `READ-UPDATE`, drained.
        fn enroll(&mut self, nodes: &[NodeId]) {
            for &n in nodes {
                let m = self.u.read_update(n);
                self.send(m);
                self.drain();
            }
        }

        /// `node` issues `RESET-UPDATE`, drained.
        fn leave(&mut self, node: NodeId) {
            let m = self.u.leave(node);
            self.send(m);
            self.drain();
        }

        /// `node` sends a global write, in flight.
        fn write(&mut self, node: NodeId, word: u8, value: u64, wid: u64) {
            let m = self.u.write_global(node, word, value, wid);
            self.send(m);
        }

        /// `node` stores `value` to `word` and sends the buffered write.
        fn store(&mut self, node: NodeId, word: u8, value: u64, wid: u64) {
            self.u.store(node, word, value, wid);
            self.write(node, word, value, wid);
        }

        fn updates_applied_to(&self) -> Vec<NodeId> {
            self.effects
                .iter()
                .filter_map(|e| match e {
                    RicEffect::UpdateApplied { node, .. } => Some(*node),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn read_update_enrolls_at_head() {
        let mut h = Harness::new();
        h.enroll(&[5, 2, 9]);
        assert_eq!(
            h.u.members_in_order(),
            vec![9, 2, 5],
            "newest enrollee is the head"
        );
        h.u.check_list().unwrap();
    }

    #[test]
    fn write_pushes_down_the_chain_in_order() {
        let mut h = Harness::new();
        h.enroll(&[0, 1, 2]);
        h.effects.clear();
        h.write(7, 1, 42, 0);
        h.drain();
        assert_eq!(h.u.mem().get(1), 42);
        // chain order: head (last enrollee) first
        assert_eq!(h.updates_applied_to(), vec![2, 1, 0]);
        // writer got its ack
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, RicEffect::WriteDone { node: 7, wid: 0 })));
        // the members' copies are fresh
        for n in [0, 1, 2] {
            assert_eq!(h.u.cached(n, 1), Some(42));
        }
    }

    #[test]
    fn write_with_no_members_only_acks() {
        let mut h = Harness::new();
        h.write(0, 0, 5, 3);
        h.drain();
        assert_eq!(h.effects.len(), 1);
        assert!(matches!(
            h.effects[0],
            RicEffect::WriteDone { node: 0, wid: 3 }
        ));
    }

    #[test]
    fn leave_middle_and_head() {
        let mut h = Harness::new();
        h.enroll(&[0, 1, 2]);
        // order: 2, 1, 0
        h.leave(1);
        assert_eq!(h.u.members_in_order(), vec![2, 0]);
        h.leave(2); // head
        assert_eq!(h.u.members_in_order(), vec![0]);
        h.u.check_list().unwrap();
        // writes now reach only node 0
        h.effects.clear();
        h.write(9, 0, 1, 0);
        h.drain();
        assert_eq!(h.updates_applied_to(), vec![0]);
    }

    #[test]
    fn leave_is_idempotent() {
        let mut h = Harness::new();
        assert!(h.u.leave(4).is_empty());
        h.enroll(&[4]);
        let m = h.u.leave(4);
        assert!(!m.is_empty());
        h.send(m);
        h.drain();
        assert!(h.u.leave(4).is_empty());
        assert!(h.u.is_empty());
    }

    #[test]
    fn push_to_departed_member_is_dropped() {
        let mut h = Harness::new();
        h.enroll(&[0, 1]);
        // Write: push to head (1) in flight...
        h.write(9, 0, 7, 0);
        h.deliver_first(is_write_from(9));
        // ... while the head leaves.
        h.leave(1);
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, RicEffect::UpdateDropped { node: 1 })));
        // memory still authoritative
        assert_eq!(h.u.mem().get(0), 7);
    }

    #[test]
    fn read_global_returns_memory_value() {
        let mut h = Harness::new();
        h.write(0, 2, 31, 0);
        h.drain();
        let m = h.u.read_global(5, 2);
        h.send(m);
        h.drain();
        assert!(h.effects.iter().any(|e| matches!(
            e,
            RicEffect::ReadValue {
                node: 5,
                word: 2,
                value: 31
            }
        )));
    }

    #[test]
    fn message_sizes() {
        let mut u = UpdateList::new(4);
        let req = u.read_update(0);
        assert_eq!(req[0].words, 1);
        let (reply, _) = u.deliver(req[0]);
        assert_eq!(
            reply.last().unwrap().words,
            4,
            "read reply carries the block"
        );
        let w = u.write_global(1, 0, 9, 0);
        assert_eq!(w[0].words, 1, "a global write sends one word");
        let (out, _) = u.deliver(w[0]);
        let push = out.iter().find(|m| m.kind == RicKind::UpdatePush).unwrap();
        assert_eq!(push.words, 4, "the push carries the whole block");
    }

    #[test]
    fn reenroll_after_leave() {
        let mut h = Harness::new();
        h.enroll(&[0]);
        h.leave(0);
        h.enroll(&[0]);
        assert!(h.u.is_member(0));
        h.u.check_list().unwrap();
    }

    #[test]
    #[should_panic(expected = "already enrolled")]
    fn double_enroll_panics() {
        let mut h = Harness::new();
        h.enroll(&[0]);
        let _ = h.u.read_update(0);
    }

    fn is_push_to(n: NodeId) -> impl Fn(&RicMsg) -> bool {
        move |m| m.kind == RicKind::UpdatePush && m.dst == Endpoint::Node(n)
    }

    fn is_write_from(n: NodeId) -> impl Fn(&RicMsg) -> bool {
        move |m| matches!(m.kind, RicKind::WriteGlobal { .. }) && m.src == Endpoint::Node(n)
    }

    #[test]
    fn own_store_survives_a_push_that_precedes_its_apply() {
        let mut h = Harness::new();
        h.enroll(&[0, 1]);
        // Node 1's write reaches memory; its push is on the way to node 0
        // when node 0 stores to another word.
        h.store(1, 1, 5, 0);
        h.deliver_first(is_write_from(1));
        h.store(0, 0, 77, 0);
        h.deliver_first(is_push_to(1));
        h.deliver_first(is_push_to(0));
        assert_eq!(h.u.mem().get(0), 0, "node 0's write is not applied yet");
        assert_eq!(h.u.cached(0, 0), Some(77), "the push erased node 0's store");
        assert_eq!(h.u.cached(0, 1), Some(5), "the push carries node 1's word");
        h.drain();
        assert_eq!(h.u.mem().get(0), 77);
        assert_eq!(h.u.cached(1, 0), Some(77));
    }

    #[test]
    fn applied_store_yields_to_a_later_foreign_write() {
        let mut h = Harness::new();
        h.enroll(&[0, 1]);
        h.store(0, 0, 77, 0);
        h.deliver_first(is_write_from(0));
        // Node 0's write is in memory, its ack still in flight; node 1
        // overwrites the word and the push reaches node 0 before the ack.
        h.store(1, 0, 88, 0);
        h.deliver_first(is_write_from(1));
        h.deliver_first(is_push_to(1));
        h.deliver_first(is_push_to(0));
        assert_eq!(h.u.cached(0, 0), Some(88), "the later write must win");
        assert!(h
            .wire
            .iter()
            .any(|m| m.kind == RicKind::WriteAck { wid: 0 } && m.dst == Endpoint::Node(0)));
        h.drain();
        assert_eq!(h.u.cached(0, 0), Some(88));
        assert_eq!(h.u.mem().get(0), 88);
    }

    #[test]
    fn store_to_an_invalid_copy_survives_the_enrolling_fill() {
        let mut h = Harness::new();
        h.u.store(0, 2, 77, 0);
        assert_eq!(h.u.cached(0, 2), None, "the copy is not valid yet");
        h.write(1, 3, 9, 0);
        h.drain();
        h.enroll(&[0]);
        assert_eq!(h.u.cached(0, 2), Some(77), "the fill erased the store");
        assert_eq!(h.u.cached(0, 3), Some(9), "the fill carries memory");
        // Once the buffered write is applied, memory's word takes over.
        h.write(0, 2, 77, 0);
        h.drain();
        h.write(1, 2, 10, 1);
        h.drain();
        assert_eq!(h.u.cached(0, 2), Some(10));
    }

    proptest::proptest! {
        /// Arbitrary join/leave/store interleavings keep the list
        /// well-formed; after every drain each valid enrolled copy equals
        /// memory, and every current member has observed the latest write
        /// (via push or its enrollment fill).
        #[test]
        fn prop_membership_churn(seed: u64, ops in proptest::collection::vec((0usize..8, 0u8..3), 1..60)) {
            let mut rng = SimRng::new(seed);
            let mut h = Harness::new();
            let mut stamp = 1u64;
            for (node, op) in ops {
                match op {
                    0 if !h.u.is_member(node) => h.enroll(&[node]),
                    0 => {}
                    1 => h.leave(node),
                    _ => {
                        let w = rng.below(4) as u8;
                        h.store(node, w, stamp, stamp);
                        stamp += 1;
                    }
                }
                h.drain();
                h.u.check_list().unwrap();
                for n in 0..8 {
                    if h.u.has_update(n) {
                        let copy: Vec<u64> = (0..4).map(|w| h.u.cached(n, w).unwrap()).collect();
                        proptest::prop_assert_eq!(copy.as_slice(), h.u.mem().words());
                    }
                }
            }
            // After the final drain, push the latest state once more and
            // confirm every member sees it.
            let members = h.u.members_in_order();
            h.effects.clear();
            h.write(0, 0, 999_999, 0);
            h.drain();
            let got = h.updates_applied_to();
            proptest::prop_assert_eq!(got, members);
        }
    }
}
