//! Snooping MESI: the classic four-state write-invalidate protocol.
//!
//! Structure mirrors the WBI directory block — one centralized controller
//! per shared block holding the memory copy, every node's cache line, and
//! a blocking transaction slot — but the write path is a *snoop
//! broadcast*: a write transaction interrogates every other node on the
//! bus (`Inv` to all n-1, wait for all `InvAck`s) whether or not they
//! hold a copy. That O(n) per-write cost is exactly what the paper's
//! directory schemes avoid, which makes this backend the natural
//! contrast point in cross-protocol sweeps.
//!
//! The E (Exclusive-clean) state earns its keep on private data: a read
//! miss with no other cached copies grants `DataExclClean`, and the first
//! store then upgrades E→M silently, with no bus transaction at all.
//!
//! State-update discipline: grants and fills mutate the line map at the
//! *home* (serialization) side, so directory decisions always see copies
//! that are logically installed even while the fill is in flight; snoop
//! responses (`Inv`, `Fetch`) mutate at node-delivery time, which is safe
//! because they only ever fly while the controller is busy and therefore
//! serialized against every other transaction. Per-pair FIFO delivery
//! (the machine's delay model) keeps the two sides consistent.

use std::collections::{BTreeMap, VecDeque};

use ssmp_core::addr::NodeId;
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg};

use crate::{CohEffect, CohKind, CohMsg, CohOutbox, CoherenceProtocol};

/// Snooping-MESI message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiKind {
    /// Read miss: node asks for a shared copy.
    BusRd,
    /// Write miss: node asks for an exclusive copy (no prior copy).
    BusRdx,
    /// Write hit on a Shared line: node asks for ownership only.
    BusUpgr,
    /// Shared-copy fill (block payload).
    DataShared,
    /// Exclusive dirty-path fill after invalidations (block payload).
    DataExcl,
    /// Exclusive-clean fill: no other copies existed (block payload).
    DataExclClean,
    /// Ownership granted without data (requester kept its copy).
    UpgradeAck,
    /// Snoop: invalidate your copy (sent to all n-1 others on a write).
    Inv,
    /// Snoop acknowledgement (sent whether or not a copy existed).
    InvAck,
    /// Home recalls the owner's line; `shared` keeps a downgraded copy.
    Fetch {
        /// Downgrade to Shared (read recall) vs invalidate (write recall).
        shared: bool,
    },
    /// Owner had no line after all (defensive; FIFO makes this unreachable).
    FetchMiss,
    /// Owner's writeback answering a `Fetch` (block payload).
    OwnerData {
        /// Whether the owner kept a Shared copy.
        downgrade: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Shared,
    Exclusive,
    Modified,
}

#[derive(Debug, Clone)]
struct NodeLine {
    state: LineState,
    data: BlockData,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    Write,
}

#[derive(Debug)]
struct Pending {
    txn: Txn,
    requester: NodeId,
    acks_left: usize,
}

/// One shared block under snooping MESI.
#[derive(Debug)]
pub struct MesiBlock {
    nodes: usize,
    block_words: u32,
    mem: BlockData,
    /// Conservative exclusive-owner tracking: set on every E/M grant.
    /// E holders may silently upgrade to M, so home must recall from
    /// them exactly as it would from a known-dirty owner.
    owner: Option<NodeId>,
    lines: BTreeMap<NodeId, NodeLine>,
    busy: Option<Pending>,
    queue: VecDeque<(NodeId, Txn)>,
}

impl MesiBlock {
    /// A block of `block_words` words snooped by `nodes` caches.
    pub fn new(block_words: u8, nodes: usize) -> Self {
        Self {
            nodes,
            block_words: block_words.into(),
            mem: BlockData::new(block_words),
            owner: None,
            lines: BTreeMap::new(),
            busy: None,
            queue: VecDeque::new(),
        }
    }

    fn begin_or_queue(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        if self.busy.is_some() {
            self.queue.push_back((node, txn));
        } else {
            self.begin(node, txn, out);
        }
    }

    fn begin(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        match (txn, self.owner) {
            (_, Some(o)) if o != node => {
                self.busy = Some(Pending {
                    txn,
                    requester: node,
                    acks_left: 1,
                });
                let shared = txn == Txn::Read;
                self.send(o, MesiKind::Fetch { shared }, false, out);
            }
            (Txn::Read, _) => self.serve_read_now(node, out),
            (Txn::Write, _) if self.nodes > 1 => {
                // the snoop: every other cache is interrogated, copy
                // or not, and the write waits for all of them.
                self.busy = Some(Pending {
                    txn,
                    requester: node,
                    acks_left: self.nodes - 1,
                });
                for o in (0..self.nodes).filter(|&o| o != node) {
                    self.send(o, MesiKind::Inv, false, out);
                }
            }
            (Txn::Write, _) => self.grant_write(node, out),
        }
    }

    /// Sends `kind` from the home to `node`, with the block when `block`.
    fn send(&self, node: NodeId, kind: MesiKind, block: bool, out: &mut CohOutbox) {
        let words = if block { self.block_words } else { 1 };
        out.data(Endpoint::Dir, Endpoint::Node(node), words, kind);
    }

    /// Installs memory's copy of the block at `node` in `state`.
    fn install(&mut self, node: NodeId, state: LineState) {
        let data = self.mem.clone();
        self.lines.insert(node, NodeLine { state, data });
    }

    fn serve_read_now(&mut self, node: NodeId, out: &mut CohOutbox) {
        // (a node re-reading a block it still holds is served defensively)
        let kind = if self.owner == Some(node) || self.lines.contains_key(&node) {
            MesiKind::DataShared
        } else if self.lines.is_empty() {
            self.install(node, LineState::Exclusive);
            self.owner = Some(node);
            MesiKind::DataExclClean
        } else {
            self.install(node, LineState::Shared);
            MesiKind::DataShared
        };
        self.send(node, kind, true, out);
    }

    fn grant_write(&mut self, node: NodeId, out: &mut CohOutbox) {
        // re-check the copy here, not at request time: a queued upgrader
        // may have been invalidated by the write that ran before it.
        self.owner = Some(node);
        if let Some(line) = self.lines.get_mut(&node) {
            line.state = LineState::Modified;
            self.send(node, MesiKind::UpgradeAck, false, out);
        } else {
            self.install(node, LineState::Modified);
            self.send(node, MesiKind::DataExcl, true, out);
        }
    }

    fn pump_queue(&mut self, out: &mut CohOutbox) {
        while self.busy.is_none() {
            let Some((node, txn)) = self.queue.pop_front() else {
                break;
            };
            self.begin(node, txn, out);
        }
    }

    fn fill_data(&self, node: NodeId) -> BlockData {
        self.lines.get(&node).map_or(&self.mem, |l| &l.data).clone()
    }
}

impl CoherenceProtocol for MesiBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.lines.get(&node).map(|l| l.data.get(word))
    }

    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        match self.lines.get_mut(&node) {
            Some(line) if line.state == LineState::Modified => {
                line.data.set(word, value);
                true
            }
            Some(line) if line.state == LineState::Exclusive => {
                // the E-state payoff: silent upgrade, no bus transaction
                line.state = LineState::Modified;
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
            MesiKind::BusRd,
        )]
    }

    fn write_req(&mut self, node: NodeId, _word: u8, _value: u64) -> Vec<CohMsg> {
        let kind = if self.lines.contains_key(&node) {
            MesiKind::BusUpgr
        } else {
            MesiKind::BusRdx
        };
        vec![Msg::ctl(Endpoint::Node(node), Endpoint::Dir, kind)]
    }

    fn deliver_into(&mut self, msg: CohMsg, out: &mut CohOutbox) {
        let CohKind::Mesi(kind) = msg.kind else {
            panic!("MESI backend delivered a foreign message: {:?}", msg.kind);
        };
        match (kind, msg.src, msg.dst) {
            (MesiKind::BusRd, Endpoint::Node(n), Endpoint::Dir) => {
                self.begin_or_queue(n, Txn::Read, out);
            }
            (MesiKind::BusRdx | MesiKind::BusUpgr, Endpoint::Node(n), Endpoint::Dir) => {
                self.begin_or_queue(n, Txn::Write, out);
            }
            (MesiKind::Inv, _, Endpoint::Node(n)) => {
                if self.lines.remove(&n).is_some() {
                    out.effect(CohEffect::Invalidated { node: n });
                }
                out.ctl(Endpoint::Node(n), Endpoint::Dir, MesiKind::InvAck);
            }
            (MesiKind::InvAck, _, Endpoint::Dir) => {
                let p = self.busy.as_mut().expect("InvAck with no transaction");
                p.acks_left -= 1;
                if p.acks_left > 0 {
                    return;
                }
                let p = self.busy.take().expect("checked above");
                self.grant_write(p.requester, out);
                self.pump_queue(out);
            }
            (MesiKind::Fetch { shared }, _, Endpoint::Node(n)) => {
                let me = Endpoint::Node(n);
                let Some(line) = self.lines.remove(&n) else {
                    out.ctl(me, Endpoint::Dir, MesiKind::FetchMiss);
                    return;
                };
                self.mem = line.data.clone();
                if shared {
                    let state = LineState::Shared;
                    self.lines.insert(n, NodeLine { state, ..line });
                    out.effect(CohEffect::Downgraded { node: n });
                } else {
                    out.effect(CohEffect::Invalidated { node: n });
                }
                let reply = MesiKind::OwnerData { downgrade: shared };
                out.data(me, Endpoint::Dir, self.block_words, reply);
            }
            (MesiKind::OwnerData { .. } | MesiKind::FetchMiss, _, Endpoint::Dir) => {
                self.owner = None;
                let p = self.busy.take().expect("writeback with no transaction");
                match p.txn {
                    Txn::Read => self.serve_read_now(p.requester, out),
                    Txn::Write => self.grant_write(p.requester, out),
                }
                self.pump_queue(out);
            }
            (MesiKind::DataShared | MesiKind::DataExclClean, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::FilledShared {
                    node: n,
                    data: self.fill_data(n),
                });
            }
            (MesiKind::DataExcl, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::FilledExcl {
                    node: n,
                    data: self.fill_data(n),
                });
            }
            (MesiKind::UpgradeAck, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::UpgradeGranted { node: n });
            }
            (k, src, dst) => panic!("MESI: misrouted {k:?} from {src:?} to {dst:?}"),
        }
    }

    fn coherent_word(&self, word: u8) -> u64 {
        match self.owner.and_then(|o| self.lines.get(&o)) {
            Some(line) => line.data.get(word),
            None => self.mem.get(word),
        }
    }

    fn owner(&self) -> Option<NodeId> {
        self.owner
    }

    fn sharers(&self) -> Vec<NodeId> {
        self.lines
            .iter()
            .filter(|(_, l)| l.state == LineState::Shared)
            .map(|(n, _)| *n)
            .collect()
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let writable: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(_, l)| l.state != LineState::Shared)
            .map(|(n, _)| *n)
            .collect();
        if writable.len() > 1 {
            return Err(format!("multiple E/M copies: {writable:?}"));
        }
        if let Some(&w) = writable.first() {
            if self.lines.len() != 1 {
                return Err(format!(
                    "node {w} holds an E/M copy but {} other lines exist",
                    self.lines.len() - 1
                ));
            }
            if self.owner != Some(w) {
                return Err(format!(
                    "node {w} holds an E/M copy but home tracks owner {:?}",
                    self.owner
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&self) -> Result<(), String> {
        if self.busy.is_some() {
            return Err("transaction still in flight".into());
        }
        if !self.queue.is_empty() {
            return Err(format!("{} transactions still queued", self.queue.len()));
        }
        match self.owner {
            Some(o) => {
                let Some(line) = self.lines.get(&o) else {
                    return Err(format!("owner {o} tracked but holds no line"));
                };
                if line.state == LineState::Shared {
                    return Err(format!("owner {o} tracked but its line is Shared"));
                }
                if self.lines.len() != 1 {
                    return Err(format!("owner {o} coexists with other lines"));
                }
                if line.state == LineState::Exclusive && line.data != self.mem {
                    return Err(format!(
                        "node {o}'s Exclusive-clean copy diverges from memory"
                    ));
                }
            }
            None => {
                for (n, line) in &self.lines {
                    if line.state != LineState::Shared {
                        return Err(format!("untracked E/M copy at node {n}"));
                    }
                    if line.data != self.mem {
                        return Err(format!("node {n}'s Shared copy diverges from memory"));
                    }
                }
            }
        }
        Ok(())
    }

    fn swmr_invariant(&self) -> &'static str {
        "mesi.swmr"
    }

    fn quiescent_invariant(&self) -> &'static str {
        "mesi.quiescent"
    }
}
