//! Snooping MESI: the classic four-state write-invalidate protocol.
//!
//! Built on the same home controller as the WBI directory block — one
//! per shared block, holding the memory copy, every node's cache line,
//! and a blocking transaction slot — but the write path is a *snoop
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

use ssmp_core::addr::NodeId;
use ssmp_core::msg::Endpoint;

use crate::home::{self, Home, Line};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    Write,
}

/// One shared block under snooping MESI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MesiBlock {
    home: Home<LineState, Txn>,
    nodes: usize,
    /// Conservative exclusive-owner tracking: set on every E/M grant.
    /// E holders may silently upgrade to M, so home must recall from
    /// them exactly as it would from a known-dirty owner.
    owner: Option<NodeId>,
}

impl MesiBlock {
    /// A block of `block_words` words snooped by `nodes` caches.
    pub fn new(block_words: u8, nodes: usize) -> Self {
        Self {
            home: Home::new(block_words),
            nodes,
            owner: None,
        }
    }

    fn admit(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        if let Some(txn) = self.home.admit(node, txn) {
            self.begin(node, txn, out);
        }
    }

    fn pump(&mut self, out: &mut CohOutbox) {
        while let Some((node, txn)) = self.home.next_queued() {
            self.begin(node, txn, out);
        }
    }

    fn begin(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        match (txn, self.owner) {
            (_, Some(o)) if o != node => {
                self.home.wait(node, txn, 1);
                let shared = txn == Txn::Read;
                self.home.send(o, MesiKind::Fetch { shared }, false, out);
            }
            (Txn::Read, _) => self.serve_read_now(node, out),
            (Txn::Write, _) if self.nodes > 1 => {
                // the snoop: every other cache is interrogated, copy
                // or not, and the write waits for all of them.
                self.home.wait(node, txn, self.nodes - 1);
                for o in (0..self.nodes).filter(|&o| o != node) {
                    self.home.send(o, MesiKind::Inv, false, out);
                }
            }
            (Txn::Write, _) => self.grant_write(node, out),
        }
    }

    fn serve_read_now(&mut self, node: NodeId, out: &mut CohOutbox) {
        // (a node re-reading a block it still holds is served defensively)
        let kind = if self.owner == Some(node) || self.home.lines.contains_key(&node) {
            MesiKind::DataShared
        } else if self.home.lines.is_empty() {
            self.home.install(node, LineState::Exclusive);
            self.owner = Some(node);
            MesiKind::DataExclClean
        } else {
            self.home.install(node, LineState::Shared);
            MesiKind::DataShared
        };
        self.home.send(node, kind, true, out);
    }

    fn grant_write(&mut self, node: NodeId, out: &mut CohOutbox) {
        // re-check the copy here, not at request time: a queued upgrader
        // may have been invalidated by the write that ran before it.
        self.owner = Some(node);
        if let Some(line) = self.home.lines.get_mut(&node) {
            line.state = LineState::Modified;
            self.home.send(node, MesiKind::UpgradeAck, false, out);
        } else {
            self.home.install(node, LineState::Modified);
            self.home.send(node, MesiKind::DataExcl, true, out);
        }
    }
}

impl CoherenceProtocol for MesiBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.home.local_read(node, word)
    }

    /// Hits on Modified, and on Exclusive-clean — the E-state payoff: a
    /// silent upgrade, no bus transaction.
    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        let owned = |s| s != LineState::Shared;
        self.home
            .local_write(node, word, value, owned, LineState::Modified)
    }

    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg> {
        home::request(node, MesiKind::BusRd)
    }

    fn write_req(&mut self, node: NodeId, _word: u8, _value: u64) -> Vec<CohMsg> {
        let kind = if self.home.lines.contains_key(&node) {
            MesiKind::BusUpgr
        } else {
            MesiKind::BusRdx
        };
        home::request(node, kind)
    }

    fn deliver_into(&mut self, msg: CohMsg, out: &mut CohOutbox) {
        let CohKind::Mesi(kind) = msg.kind else {
            panic!("MESI backend delivered a foreign message: {:?}", msg.kind);
        };
        match (kind, msg.src, msg.dst) {
            (MesiKind::BusRd, Endpoint::Node(n), Endpoint::Dir) => {
                self.admit(n, Txn::Read, out);
            }
            (MesiKind::BusRdx | MesiKind::BusUpgr, Endpoint::Node(n), Endpoint::Dir) => {
                self.admit(n, Txn::Write, out);
            }
            (MesiKind::Inv, _, Endpoint::Node(n)) => {
                if self.home.lines.remove(&n).is_some() {
                    out.effect(CohEffect::Invalidated { node: n });
                }
                out.ctl(Endpoint::Node(n), Endpoint::Dir, MesiKind::InvAck);
            }
            (MesiKind::InvAck, _, Endpoint::Dir) => {
                if let Some(p) = self.home.ack() {
                    self.grant_write(p.requester, out);
                    self.pump(out);
                }
            }
            (MesiKind::Fetch { shared }, _, Endpoint::Node(n)) => {
                let me = Endpoint::Node(n);
                let Some(line) = self.home.lines.remove(&n) else {
                    out.ctl(me, Endpoint::Dir, MesiKind::FetchMiss);
                    return;
                };
                self.home.mem = line.data.clone();
                if shared {
                    let state = LineState::Shared;
                    self.home.lines.insert(n, Line { state, ..line });
                    out.effect(CohEffect::Downgraded { node: n });
                } else {
                    out.effect(CohEffect::Invalidated { node: n });
                }
                let reply = MesiKind::OwnerData { downgrade: shared };
                out.data(me, Endpoint::Dir, self.home.block_words, reply);
            }
            (MesiKind::OwnerData { .. } | MesiKind::FetchMiss, _, Endpoint::Dir) => {
                self.owner = None;
                let p = self.home.finish();
                match p.txn {
                    Txn::Read => self.serve_read_now(p.requester, out),
                    Txn::Write => self.grant_write(p.requester, out),
                }
                self.pump(out);
            }
            (MesiKind::DataShared | MesiKind::DataExclClean, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::FilledShared {
                    node: n,
                    data: self.home.fill(n),
                });
            }
            (MesiKind::DataExcl, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::FilledExcl {
                    node: n,
                    data: self.home.fill(n),
                });
            }
            (MesiKind::UpgradeAck, _, Endpoint::Node(n)) => {
                out.effect(CohEffect::UpgradeGranted { node: n });
            }
            (k, src, dst) => panic!("MESI: misrouted {k:?} from {src:?} to {dst:?}"),
        }
    }

    fn coherent_word(&self, word: u8) -> u64 {
        self.home.coherent_word(self.owner, word)
    }

    fn owner(&self) -> Option<NodeId> {
        self.owner
    }

    fn sharers(&self) -> Vec<NodeId> {
        self.home.holders(|s| s == LineState::Shared).collect()
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let writable: Vec<NodeId> = self.home.holders(|s| s != LineState::Shared).collect();
        if writable.len() > 1 {
            return Err(format!("multiple E/M copies: {writable:?}"));
        }
        let lines = &self.home.lines;
        if let Some(&w) = writable.first() {
            if lines.len() != 1 {
                return Err(format!(
                    "node {w} holds an E/M copy but {} other lines exist",
                    lines.len() - 1
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
        let Home {
            mem,
            lines,
            busy,
            queue,
            ..
        } = &self.home;
        if busy.is_some() {
            return Err("transaction still in flight".into());
        }
        if !queue.is_empty() {
            return Err(format!("{} transactions still queued", queue.len()));
        }
        match self.owner {
            Some(o) => {
                let Some(line) = lines.get(&o) else {
                    return Err(format!("owner {o} tracked but holds no line"));
                };
                if line.state == LineState::Shared {
                    return Err(format!("owner {o} tracked but its line is Shared"));
                }
                if lines.len() != 1 {
                    return Err(format!("owner {o} coexists with other lines"));
                }
                if line.state == LineState::Exclusive && line.data != *mem {
                    return Err(format!(
                        "node {o}'s Exclusive-clean copy diverges from memory"
                    ));
                }
            }
            None => {
                for (n, line) in lines {
                    if line.state != LineState::Shared {
                        return Err(format!("untracked E/M copy at node {n}"));
                    }
                    if line.data != *mem {
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
