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

use ssmp_core::addr::NodeId;
use ssmp_core::msg::Endpoint;

use crate::home::{self, Home};
use crate::{CohEffect, CohKind, CohMsg, CohOutbox, CoherenceProtocol};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    Upd { word: u8, value: u64 },
    UpdFill { word: u8, value: u64 },
}

/// One shared block under the Dragon write-update protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DragonBlock {
    home: Home<DragonState, Txn>,
}

/// Whether `s` is a sole copy, which a store hits silently.
fn exclusive(s: DragonState) -> bool {
    matches!(s, DragonState::Excl | DragonState::Mod)
}

impl DragonBlock {
    /// A block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            home: Home::new(block_words),
        }
    }

    fn excl_owner(&self) -> Option<NodeId> {
        self.home.holders(exclusive).next()
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
        // an exclusive copy elsewhere must be recalled first, whatever
        // the transaction; it comes back downgraded to Sc, never gone.
        if let Some(o) = self.excl_owner().filter(|&o| o != node) {
            self.home.wait(node, txn, 1);
            self.home.send(o, DragonKind::Fetch, false, out);
            return;
        }
        match txn {
            Txn::Read => self.serve_read_now(node, out),
            Txn::Upd { word, value } => self.serialize_update(node, word, value, false, out),
            Txn::UpdFill { word, value } => self.serialize_update(node, word, value, true, out),
        }
    }

    fn serve_read_now(&mut self, node: NodeId, out: &mut CohOutbox) {
        // (a node re-reading a block it still holds is served defensively)
        let kind = if self.home.lines.contains_key(&node) {
            DragonKind::FillShared
        } else if self.home.lines.is_empty() {
            self.home.install(node, DragonState::Excl);
            DragonKind::FillExcl
        } else {
            self.home.install(node, DragonState::Sc);
            DragonKind::FillShared
        };
        self.home.send(node, kind, true, out);
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
        out: &mut CohOutbox,
    ) {
        self.home.mem.set(word, value);
        out.effect(CohEffect::StoreSerialized { node, word, value });
        let others = self.home.lines.keys().filter(|&&n| n != node).count();
        if filling {
            let state = if others == 0 {
                DragonState::Mod
            } else {
                DragonState::Sm
            };
            self.home.install(node, state);
        }
        if others == 0 {
            if let Some(line) = self.home.lines.get_mut(&node) {
                // sole holder: promote in place (Sc/Sm writer whose
                // co-sharers have since been recalled)
                line.state = DragonState::Mod;
            }
            let done = DragonKind::UpdDone {
                word,
                value,
                sole: true,
            };
            self.home.send(node, done, filling, out);
            return;
        }
        for (&o, line) in self.home.lines.iter_mut() {
            if o == node {
                line.state = DragonState::Sm;
                continue;
            }
            if line.state == DragonState::Sm {
                line.state = DragonState::Sc;
            }
            let push = DragonKind::UpdPush { word, value };
            out.ctl(Endpoint::Dir, Endpoint::Node(o), push);
        }
        let txn = if filling {
            Txn::UpdFill { word, value }
        } else {
            Txn::Upd { word, value }
        };
        self.home.wait(node, txn, others);
    }
}

impl CoherenceProtocol for DragonBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.home.local_read(node, word)
    }

    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        self.home
            .local_write(node, word, value, exclusive, DragonState::Mod)
    }

    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg> {
        home::request(node, DragonKind::Rd)
    }

    fn write_req(&mut self, node: NodeId, word: u8, value: u64) -> Vec<CohMsg> {
        let kind = if self.home.lines.contains_key(&node) {
            DragonKind::Upd { word, value }
        } else {
            DragonKind::UpdFill { word, value }
        };
        home::request(node, kind)
    }

    fn deliver_into(&mut self, msg: CohMsg, out: &mut CohOutbox) {
        let CohKind::Dragon(kind) = msg.kind else {
            panic!("Dragon backend delivered a foreign message: {:?}", msg.kind);
        };
        match (kind, msg.src, msg.dst) {
            (DragonKind::Rd, Endpoint::Node(n), Endpoint::Dir) => self.admit(n, Txn::Read, out),
            (DragonKind::Upd { word, value }, Endpoint::Node(n), Endpoint::Dir) => {
                self.admit(n, Txn::Upd { word, value }, out)
            }
            (DragonKind::UpdFill { word, value }, Endpoint::Node(n), Endpoint::Dir) => {
                self.admit(n, Txn::UpdFill { word, value }, out)
            }
            (DragonKind::Fetch, _, Endpoint::Node(n)) => {
                let me = Endpoint::Node(n);
                if let Some(line) = self.home.lines.get_mut(&n) {
                    self.home.mem = line.data.clone();
                    line.state = DragonState::Sc;
                    out.effect(CohEffect::Downgraded { node: n });
                    out.data(
                        me,
                        Endpoint::Dir,
                        self.home.block_words,
                        DragonKind::OwnerData,
                    );
                } else {
                    out.ctl(me, Endpoint::Dir, DragonKind::FetchMiss);
                }
            }
            (DragonKind::OwnerData | DragonKind::FetchMiss, _, Endpoint::Dir) => {
                let p = self.home.finish();
                // the old owner is Sc now; re-dispatch the blocked request
                self.begin(p.requester, p.txn, out);
                self.pump(out);
            }
            (DragonKind::UpdPush { word, value }, _, Endpoint::Node(n)) => {
                if let Some(line) = self.home.lines.get_mut(&n) {
                    line.data.set(word, value);
                    out.effect(CohEffect::UpdateApplied { node: n, word });
                }
                out.ctl(Endpoint::Node(n), Endpoint::Dir, DragonKind::UpdAck);
            }
            (DragonKind::UpdAck, _, Endpoint::Dir) => {
                let Some(p) = self.home.ack() else {
                    return;
                };
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
                self.home.send(p.requester, done, filling, out);
                self.pump(out);
            }
            (DragonKind::UpdDone { word, value, .. }, _, Endpoint::Node(n)) => {
                if let Some(line) = self.home.lines.get_mut(&n) {
                    line.data.set(word, value);
                }
                out.effect(CohEffect::StoreComplete { node: n });
            }
            (DragonKind::FillShared | DragonKind::FillExcl, _, Endpoint::Node(n)) => {
                let data = self.home.fill(n);
                out.effect(CohEffect::FilledShared { node: n, data });
            }
            (k, src, dst) => panic!("Dragon: misrouted {k:?} from {src:?} to {dst:?}"),
        }
    }

    fn coherent_word(&self, word: u8) -> u64 {
        self.home.coherent_word(self.excl_owner(), word)
    }

    fn owner(&self) -> Option<NodeId> {
        self.excl_owner()
    }

    fn sharers(&self) -> Vec<NodeId> {
        self.home.holders(|s| !exclusive(s)).collect()
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let excl: Vec<NodeId> = self.home.holders(exclusive).collect();
        if excl.len() > 1 {
            return Err(format!("multiple Excl/Mod copies: {excl:?}"));
        }
        let lines = self.home.lines.len();
        if let Some(&w) = excl.first() {
            if lines != 1 {
                return Err(format!(
                    "node {w} holds an Excl/Mod copy but {} other lines exist",
                    lines - 1
                ));
            }
        }
        let sm: Vec<NodeId> = self.home.holders(|s| s == DragonState::Sm).collect();
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
        for (n, line) in lines {
            match line.state {
                DragonState::Mod => {}
                DragonState::Excl => {
                    if line.data != *mem {
                        return Err(format!("node {n}'s Excl copy diverges from memory"));
                    }
                }
                DragonState::Sc | DragonState::Sm => {
                    if line.data != *mem {
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
