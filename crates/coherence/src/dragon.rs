//! Dragon: the classic four-state write-update protocol.
//!
//! Where MESI resolves a write to a shared line by destroying every other
//! copy, Dragon *repairs* them: the written word is serialized at home
//! and multicast (`UpdPush`) to every cached copy, which stays resident.
//! Spinning readers therefore never take a coherence miss on the flag
//! they watch — the update arrives in their cache — at the price of a
//! multicast on every store to shared data. False sharing inverts
//! accordingly: invalidate protocols ping-pong whole blocks between
//! writers, update protocols spray word-sized updates to nodes that
//! never read them. The profiler's heatmaps show the two shapes
//! directly (`update.apply` vs `invalidate` access classes).
//!
//! States: `Excl` (sole clean copy — silent upgrade to `Mod` on write),
//! `Sc` (shared clean), `Sm` (shared, this node wrote last), `Mod` (sole
//! dirty copy).
//!
//! Serialization discipline: every line-state transition happens at the
//! home side, at the instant the triggering request is serialized there;
//! only *data* application is split (a reader's fill is snapshotted at
//! home, a sharer applies a pushed word when `UpdPush` reaches it, the
//! writer applies its own word when `UpdDone` reaches it). The
//! [`crate::CohEffect::StoreSerialized`] effect fires at home so the
//! machine's provenance oracle learns the written value before any
//! pushed copy can be read.

use std::collections::{BTreeMap, VecDeque};

use ssmp_core::addr::NodeId;
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg};

use crate::{CohEffect, CohKind, CohMsg, CoherenceProtocol};

/// Dragon message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DragonKind {
    /// Read miss: node asks for a copy.
    Rd,
    /// Shared-copy fill (block payload).
    FillShared,
    /// Exclusive-clean fill: no other copies existed (block payload).
    FillExcl,
    /// Home recalls the exclusive owner's line (it stays cached as `Sc`).
    Fetch,
    /// Owner had no line after all (defensive; FIFO makes this unreachable).
    FetchMiss,
    /// Owner's writeback answering a `Fetch` (block payload).
    OwnerData,
    /// Write hit on a shared line: send the word home for serialization.
    Upd {
        /// Written word.
        word: u8,
        /// Written value.
        value: u64,
    },
    /// Write miss: fetch a copy and serialize the word in one transaction.
    UpdFill {
        /// Written word.
        word: u8,
        /// Written value.
        value: u64,
    },
    /// Home multicasts the serialized word to a cached copy.
    UpdPush {
        /// Written word.
        word: u8,
        /// Written value.
        value: u64,
    },
    /// Sharer acknowledges an `UpdPush`.
    UpdAck,
    /// Home tells the writer its store is complete everywhere.
    UpdDone {
        /// Written word.
        word: u8,
        /// Written value.
        value: u64,
        /// No other copies existed (store completed without a multicast).
        sole: bool,
    },
}

/// Dragon line states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DragonState {
    /// Sole clean copy; a write upgrades to `Mod` silently.
    Excl,
    /// Shared clean copy.
    Sc,
    /// Shared copy, last written by this node.
    Sm,
    /// Sole dirty copy.
    Mod,
}

#[derive(Debug, Clone)]
struct NodeLine {
    state: DragonState,
    data: BlockData,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    Upd { word: u8, value: u64 },
    UpdFill { word: u8, value: u64 },
}

#[derive(Debug)]
struct Pending {
    txn: Txn,
    requester: NodeId,
    acks_left: usize,
}

/// One shared block under the Dragon write-update protocol.
#[derive(Debug)]
pub struct DragonBlock {
    block_words: u32,
    mem: BlockData,
    lines: BTreeMap<NodeId, NodeLine>,
    busy: Option<Pending>,
    queue: VecDeque<(NodeId, Txn)>,
}

impl DragonBlock {
    /// A block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            block_words: block_words.into(),
            mem: BlockData::new(block_words),
            lines: BTreeMap::new(),
            busy: None,
            queue: VecDeque::new(),
        }
    }

    fn excl_owner(&self) -> Option<NodeId> {
        self.lines
            .iter()
            .find(|(_, l)| matches!(l.state, DragonState::Excl | DragonState::Mod))
            .map(|(n, _)| *n)
    }

    fn begin_or_queue(
        &mut self,
        node: NodeId,
        txn: Txn,
        msgs: &mut Vec<CohMsg>,
        effects: &mut Vec<CohEffect>,
    ) {
        if self.busy.is_some() {
            self.queue.push_back((node, txn));
        } else {
            self.begin(node, txn, msgs, effects);
        }
    }

    fn begin(
        &mut self,
        node: NodeId,
        txn: Txn,
        msgs: &mut Vec<CohMsg>,
        effects: &mut Vec<CohEffect>,
    ) {
        // an exclusive copy elsewhere must be recalled first, whatever
        // the transaction; it comes back downgraded to Sc, never gone.
        if let Some(o) = self.excl_owner() {
            if o != node {
                self.busy = Some(Pending {
                    txn,
                    requester: node,
                    acks_left: 1,
                });
                msgs.push(Msg::ctl(
                    Endpoint::Dir,
                    Endpoint::Node(o),
                    DragonKind::Fetch,
                ));
                return;
            }
        }
        match txn {
            Txn::Read => self.serve_read_now(node, msgs),
            Txn::Upd { word, value } => {
                self.serialize_update(node, word, value, false, msgs, effects)
            }
            Txn::UpdFill { word, value } => {
                self.serialize_update(node, word, value, true, msgs, effects)
            }
        }
    }

    fn serve_read_now(&mut self, node: NodeId, msgs: &mut Vec<CohMsg>) {
        if self.lines.contains_key(&node) {
            // defensive: a node re-reading a block it still holds
            msgs.push(Msg::data(
                Endpoint::Dir,
                Endpoint::Node(node),
                self.block_words,
                DragonKind::FillShared,
            ));
            return;
        }
        if self.lines.is_empty() {
            self.lines.insert(
                node,
                NodeLine {
                    state: DragonState::Excl,
                    data: self.mem.clone(),
                },
            );
            msgs.push(Msg::data(
                Endpoint::Dir,
                Endpoint::Node(node),
                self.block_words,
                DragonKind::FillExcl,
            ));
        } else {
            self.lines.insert(
                node,
                NodeLine {
                    state: DragonState::Sc,
                    data: self.mem.clone(),
                },
            );
            msgs.push(Msg::data(
                Endpoint::Dir,
                Endpoint::Node(node),
                self.block_words,
                DragonKind::FillShared,
            ));
        }
    }

    /// The write serialization point: home memory takes the word, the
    /// provenance oracle learns it, every other cached copy gets a push,
    /// and the writer's completion (`UpdDone`) is held until all pushes
    /// are acknowledged. `filling` distinguishes a write miss (the
    /// writer's line is installed here and `UpdDone` carries the block).
    fn serialize_update(
        &mut self,
        node: NodeId,
        word: u8,
        value: u64,
        filling: bool,
        msgs: &mut Vec<CohMsg>,
        effects: &mut Vec<CohEffect>,
    ) {
        self.mem.set(word, value);
        effects.push(CohEffect::StoreSerialized { node, word, value });
        let others: Vec<NodeId> = self.lines.keys().copied().filter(|&n| n != node).collect();
        if filling {
            let state = if others.is_empty() {
                DragonState::Mod
            } else {
                DragonState::Sm
            };
            self.lines.insert(
                node,
                NodeLine {
                    state,
                    data: self.mem.clone(),
                },
            );
        }
        if others.is_empty() {
            if let Some(line) = self.lines.get_mut(&node) {
                // sole holder: promote in place (Sc/Sm writer whose
                // co-sharers have since been recalled)
                line.state = DragonState::Mod;
            }
            let done = DragonKind::UpdDone {
                word,
                value,
                sole: true,
            };
            msgs.push(if filling {
                Msg::data(Endpoint::Dir, Endpoint::Node(node), self.block_words, done)
            } else {
                Msg::ctl(Endpoint::Dir, Endpoint::Node(node), done)
            });
        } else {
            for o in &others {
                if let Some(line) = self.lines.get_mut(o) {
                    if line.state == DragonState::Sm {
                        line.state = DragonState::Sc;
                    }
                }
                msgs.push(Msg::ctl(
                    Endpoint::Dir,
                    Endpoint::Node(*o),
                    DragonKind::UpdPush { word, value },
                ));
            }
            if let Some(line) = self.lines.get_mut(&node) {
                line.state = DragonState::Sm;
            }
            self.busy = Some(Pending {
                txn: if filling {
                    Txn::UpdFill { word, value }
                } else {
                    Txn::Upd { word, value }
                },
                requester: node,
                acks_left: others.len(),
            });
        }
    }

    fn pump_queue(&mut self, msgs: &mut Vec<CohMsg>, effects: &mut Vec<CohEffect>) {
        while self.busy.is_none() {
            let Some((node, txn)) = self.queue.pop_front() else {
                break;
            };
            self.begin(node, txn, msgs, effects);
        }
    }
}

impl CoherenceProtocol for DragonBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.lines.get(&node).map(|l| l.data.get(word))
    }

    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        match self.lines.get_mut(&node) {
            Some(line) if line.state == DragonState::Mod => {
                line.data.set(word, value);
                true
            }
            Some(line) if line.state == DragonState::Excl => {
                line.state = DragonState::Mod;
                line.data.set(word, value);
                true
            }
            _ => false,
        }
    }

    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg> {
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            DragonKind::Rd,
        )]
    }

    fn write_req(&mut self, node: NodeId, word: u8, value: u64) -> Vec<CohMsg> {
        let kind = if self.lines.contains_key(&node) {
            DragonKind::Upd { word, value }
        } else {
            DragonKind::UpdFill { word, value }
        };
        vec![Msg::ctl(Endpoint::Node(node), Endpoint::Dir, kind)]
    }

    fn deliver(&mut self, msg: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>) {
        let CohKind::Dragon(kind) = msg.kind else {
            panic!("Dragon backend delivered a foreign message: {:?}", msg.kind);
        };
        let mut msgs = Vec::new();
        let mut effects = Vec::new();
        match (kind, msg.src, msg.dst) {
            (DragonKind::Rd, Endpoint::Node(n), Endpoint::Dir) => {
                self.begin_or_queue(n, Txn::Read, &mut msgs, &mut effects);
            }
            (DragonKind::Upd { word, value }, Endpoint::Node(n), Endpoint::Dir) => {
                self.begin_or_queue(n, Txn::Upd { word, value }, &mut msgs, &mut effects);
            }
            (DragonKind::UpdFill { word, value }, Endpoint::Node(n), Endpoint::Dir) => {
                self.begin_or_queue(n, Txn::UpdFill { word, value }, &mut msgs, &mut effects);
            }
            (DragonKind::Fetch, _, Endpoint::Node(n)) => {
                if let Some(line) = self.lines.get_mut(&n) {
                    self.mem = line.data.clone();
                    line.state = DragonState::Sc;
                    effects.push(CohEffect::Downgraded { node: n });
                    msgs.push(Msg::data(
                        Endpoint::Node(n),
                        Endpoint::Dir,
                        self.block_words,
                        DragonKind::OwnerData,
                    ));
                } else {
                    msgs.push(Msg::ctl(
                        Endpoint::Node(n),
                        Endpoint::Dir,
                        DragonKind::FetchMiss,
                    ));
                }
            }
            (DragonKind::OwnerData | DragonKind::FetchMiss, _, Endpoint::Dir) => {
                let p = self.busy.take().expect("writeback with no transaction");
                // the old owner is Sc now; re-dispatch the blocked request
                self.begin(p.requester, p.txn, &mut msgs, &mut effects);
                self.pump_queue(&mut msgs, &mut effects);
            }
            (DragonKind::UpdPush { word, value }, _, Endpoint::Node(n)) => {
                if let Some(line) = self.lines.get_mut(&n) {
                    line.data.set(word, value);
                    effects.push(CohEffect::UpdateApplied { node: n, word });
                }
                msgs.push(Msg::ctl(
                    Endpoint::Node(n),
                    Endpoint::Dir,
                    DragonKind::UpdAck,
                ));
            }
            (DragonKind::UpdAck, _, Endpoint::Dir) => {
                let done = {
                    let p = self.busy.as_mut().expect("UpdAck with no transaction");
                    p.acks_left -= 1;
                    p.acks_left == 0
                };
                if done {
                    let p = self.busy.take().expect("checked above");
                    let (word, value, filling) = match p.txn {
                        Txn::Upd { word, value } => (word, value, false),
                        Txn::UpdFill { word, value } => (word, value, true),
                        Txn::Read => unreachable!("reads collect no update acks"),
                    };
                    let done = DragonKind::UpdDone {
                        word,
                        value,
                        sole: false,
                    };
                    msgs.push(if filling {
                        Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            self.block_words,
                            done,
                        )
                    } else {
                        Msg::ctl(Endpoint::Dir, Endpoint::Node(p.requester), done)
                    });
                    self.pump_queue(&mut msgs, &mut effects);
                }
            }
            (DragonKind::UpdDone { word, value, .. }, _, Endpoint::Node(n)) => {
                if let Some(line) = self.lines.get_mut(&n) {
                    line.data.set(word, value);
                }
                effects.push(CohEffect::StoreComplete { node: n });
            }
            (DragonKind::FillShared | DragonKind::FillExcl, _, Endpoint::Node(n)) => {
                effects.push(CohEffect::FilledShared {
                    node: n,
                    data: self
                        .lines
                        .get(&n)
                        .map(|l| l.data.clone())
                        .unwrap_or_else(|| self.mem.clone()),
                });
            }
            (k, src, dst) => panic!("Dragon: misrouted {k:?} from {src:?} to {dst:?}"),
        }
        (msgs, effects)
    }

    fn coherent_word(&self, word: u8) -> u64 {
        match self.excl_owner().and_then(|o| self.lines.get(&o)) {
            Some(line) => line.data.get(word),
            None => self.mem.get(word),
        }
    }

    fn owner(&self) -> Option<NodeId> {
        self.excl_owner()
    }

    fn sharers(&self) -> Vec<NodeId> {
        self.lines
            .iter()
            .filter(|(_, l)| matches!(l.state, DragonState::Sc | DragonState::Sm))
            .map(|(n, _)| *n)
            .collect()
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let excl: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(_, l)| matches!(l.state, DragonState::Excl | DragonState::Mod))
            .map(|(n, _)| *n)
            .collect();
        if excl.len() > 1 {
            return Err(format!("multiple Excl/Mod copies: {excl:?}"));
        }
        if let Some(&w) = excl.first() {
            if self.lines.len() != 1 {
                return Err(format!(
                    "node {w} holds an Excl/Mod copy but {} other lines exist",
                    self.lines.len() - 1
                ));
            }
        }
        let sm: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(_, l)| l.state == DragonState::Sm)
            .map(|(n, _)| *n)
            .collect();
        if sm.len() > 1 {
            return Err(format!("multiple Sm copies: {sm:?}"));
        }
        Ok(())
    }

    /// The update-coherence invariant: at quiescence every shared copy
    /// must be *byte-equal* to home memory — a dropped or misordered
    /// multicast leaves a permanently stale word in some cache, the
    /// failure mode invalidate protocols structurally cannot have.
    fn check_quiescent(&self) -> Result<(), String> {
        if self.busy.is_some() {
            return Err("transaction still in flight".into());
        }
        if !self.queue.is_empty() {
            return Err(format!("{} transactions still queued", self.queue.len()));
        }
        for (n, line) in &self.lines {
            match line.state {
                DragonState::Mod => {}
                DragonState::Excl => {
                    if line.data != self.mem {
                        return Err(format!("node {n}'s Excl copy diverges from memory"));
                    }
                }
                DragonState::Sc | DragonState::Sm => {
                    if line.data != self.mem {
                        return Err(format!(
                            "node {n}'s shared copy missed an update (stale vs memory)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn swmr_invariant(&self) -> &'static str {
        "dragon.swmr"
    }

    fn quiescent_invariant(&self) -> &'static str {
        "dragon.update_coherence"
    }
}
