//! The write-back-invalidate (MSI) directory protocol for one block: the
//! paper's baseline, and the substrate of its TTS spin locks and software
//! barrier flag.
//!
//! A blocking home directory: at most one transaction is in flight per
//! block; requests arriving in the meantime are queued in arrival order.
//! Remote-dirty misses resolve in four hops (requester → home → owner →
//! home → requester), the `2C_R + 2C_B` of the paper's Table 2.
//!
//! Like the protocol controllers in `ssmp-core`, this is a pure
//! message-level state machine; the machine crate assigns timing. The
//! `WriteBack`/`Fetch` race is resolved with a `WbRace` reply: a fetch that
//! misses at the (former) owner tells the home to satisfy the request from
//! memory, which is correct because the owner's replacement already merged
//! its data into memory.

use std::collections::BTreeSet;

use ssmp_core::addr::NodeId;
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg};

use crate::home::{self, Home};
use crate::{CohEffect, CohKind, CohMsg, CohOutbox, CoherenceProtocol};

/// Directory state for the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies.
    Uncached,
    /// Read-only copies at the listed nodes.
    Shared(BTreeSet<NodeId>),
    /// One dirty exclusive copy.
    Modified(NodeId),
}

/// Cache-line state at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Clean, read-only.
    Shared,
    /// Clean but exclusive (MESI 'E'): may be written without directory
    /// traffic (silently becoming Modified). Only granted when the MESI
    /// extension is enabled.
    Exclusive,
    /// Dirty, exclusive.
    Modified,
}

/// WBI protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbiKind {
    /// Node → home: read miss.
    ReadReq,
    /// Node → home: write miss or upgrade request.
    WriteReq,
    /// Home → node: shared copy (block data).
    DataShared,
    /// Home → node: exclusive-clean copy (MESI 'E'; sole reader).
    DataExclClean,
    /// Home → node: exclusive copy; `upgrade` means the requester already
    /// held the data and only ownership travels (one word).
    DataExcl {
        /// No data payload, ownership only.
        upgrade: bool,
    },
    /// Home → sharer: invalidate.
    Inv,
    /// Sharer → home: invalidation acknowledged.
    InvAck,
    /// Home → owner: send data, downgrade to shared.
    FetchShared,
    /// Home → owner: send data, invalidate.
    FetchExcl,
    /// Owner → home: the dirty data (block).
    OwnerData {
        /// Owner kept a shared copy (read fetch) vs. invalidated (write).
        downgrade: bool,
    },
    /// Owner → home: replacement write-back of a dirty line (block).
    WriteBack,
    /// (Former) owner → home: fetch arrived after the line was replaced;
    /// memory is already up to date.
    WbRace,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    /// A read that must first evict a sharer (limited directory overflow).
    ReadEvict,
    Write,
    /// A write whose requester holds a shared copy: only ownership
    /// travels.
    Upgrade,
}

/// The WBI coherence controller for one block: memory copy, directory
/// state, per-node lines, and the blocking-transaction queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbiBlock {
    home: Home<LineState, Txn>,
    dir: DirState,
    /// Maximum sharers the directory can record (`None` = full map). A
    /// read that would exceed the limit first invalidates a sharer — the
    /// "limited directory" organisation of Stenström's survey that the
    /// paper rejects in favour of its O(1) pointer chain (§4.1).
    sharer_limit: Option<usize>,
    /// Evictions forced by the sharer limit.
    dir_evictions: u64,
    /// MESI extension: grant Exclusive-clean to a sole reader so a
    /// subsequent write needs no upgrade transaction.
    mesi: bool,
}

impl WbiBlock {
    /// Creates a controller for a block of `block_words` words.
    pub fn new(block_words: u8) -> Self {
        Self {
            home: Home::new(block_words),
            dir: DirState::Uncached,
            sharer_limit: None,
            dir_evictions: 0,
            mesi: false,
        }
    }

    /// Creates a controller with the MESI exclusive-clean extension: a
    /// read miss on an uncached block returns an 'E' copy, and the sole
    /// owner's first write is silent (no upgrade round trip).
    pub fn with_mesi(block_words: u8) -> Self {
        let mut b = Self::new(block_words);
        b.mesi = true;
        b
    }

    /// Creates a controller whose directory records at most `limit`
    /// sharers (a `Dir_i` limited directory; reads beyond the limit evict).
    pub fn with_sharer_limit(block_words: u8, limit: usize) -> Self {
        assert!(limit >= 1);
        let mut b = Self::new(block_words);
        b.sharer_limit = Some(limit);
        b
    }

    /// The authoritative memory copy (may be stale while a line is
    /// Modified, as in real hardware).
    pub fn mem(&self) -> &BlockData {
        &self.home.mem
    }

    /// Directory state (for tests and stats).
    pub fn dir_state(&self) -> &DirState {
        &self.dir
    }

    /// The node's line state, if cached.
    pub fn line_state(&self, node: NodeId) -> Option<LineState> {
        self.home.lines.get(&node).map(|l| l.state)
    }

    /// The node replaces its line. Dirty lines emit a write-back (memory is
    /// updated immediately — monotone freshness — with the directory state
    /// transition applied when the message arrives); shared lines are
    /// dropped silently.
    pub fn replace(&mut self, node: NodeId) -> Vec<CohMsg> {
        match self.home.lines.remove(&node) {
            Some(l) if l.state == LineState::Modified => {
                self.home.mem = l.data;
                vec![Msg::data(
                    Endpoint::Node(node),
                    Endpoint::Dir,
                    self.home.block_words,
                    WbiKind::WriteBack,
                )]
            }
            // Silent replacement of a shared line. The directory may
            // send a spurious Inv later; the node just acks it.
            _ => vec![],
        }
    }

    fn deliver_at_dir(&mut self, src: NodeId, kind: WbiKind, out: &mut CohOutbox) {
        match kind {
            WbiKind::ReadReq => self.admit(src, Txn::Read, out),
            WbiKind::WriteReq => self.admit(src, Txn::Write, out),
            WbiKind::InvAck => {
                let Some(p) = self.home.ack() else {
                    return;
                };
                match p.txn {
                    Txn::Write | Txn::Upgrade => {
                        self.grant_excl(p.requester, p.txn == Txn::Upgrade, out)
                    }
                    Txn::ReadEvict => {
                        // The victim's ack arrived: record the new sharer
                        // set and serve the read.
                        let mut s = match std::mem::replace(&mut self.dir, DirState::Uncached) {
                            DirState::Shared(s) => s,
                            other => panic!("read-evict on {other:?}"),
                        };
                        s.retain(|n| self.home.lines.contains_key(n));
                        s.insert(p.requester);
                        self.dir = DirState::Shared(s);
                        self.home.send(p.requester, WbiKind::DataShared, true, out);
                    }
                    Txn::Read => unreachable!("plain reads collect no acks"),
                }
                self.pump(out);
            }
            WbiKind::OwnerData { downgrade } => {
                // Owner's data arrives; memory is refreshed and the waiting
                // requester served.
                if let Some(l) = self.home.lines.get(&src) {
                    // (downgraded owner keeps a clean shared copy)
                    self.home.mem = l.data.clone();
                } // else: owner invalidated; data was stashed at fetch time
                let p = self.home.finish();
                match p.txn {
                    Txn::Read => {
                        debug_assert!(downgrade);
                        self.dir = DirState::Shared(BTreeSet::from([src, p.requester]));
                        self.home.send(p.requester, WbiKind::DataShared, true, out);
                    }
                    Txn::ReadEvict => unreachable!("evictions fetch nothing from owners"),
                    Txn::Write | Txn::Upgrade => {
                        debug_assert!(!downgrade);
                        self.grant_excl(p.requester, false, out);
                    }
                }
                self.pump(out);
            }
            WbiKind::WbRace => {
                // The fetch missed: the owner replaced the line and its
                // write-back (already applied to memory) is in flight.
                let p = self.home.finish();
                match p.txn {
                    Txn::ReadEvict => unreachable!("evictions never fetch"),
                    Txn::Read => {
                        self.dir = DirState::Shared(BTreeSet::from([p.requester]));
                        self.home.send(p.requester, WbiKind::DataShared, true, out);
                    }
                    Txn::Write | Txn::Upgrade => self.grant_excl(p.requester, false, out),
                }
                self.pump(out);
            }
            WbiKind::WriteBack => {
                // Memory was already updated at replace(); retire the
                // directory's owner record if it still names the sender.
                if self.dir == DirState::Modified(src) {
                    self.dir = DirState::Uncached;
                }
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    fn admit(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        if let Some(txn) = self.home.admit(node, txn) {
            self.begin(node, txn, out);
        }
    }

    /// Begins the queued requests until one blocks. A queued read may
    /// already be satisfied (e.g. granted shared while it waited); it is
    /// served anyway from memory.
    fn pump(&mut self, out: &mut CohOutbox) {
        while let Some((node, txn)) = self.home.next_queued() {
            self.begin(node, txn, out);
        }
    }

    fn begin(&mut self, node: NodeId, txn: Txn, out: &mut CohOutbox) {
        match txn {
            // A queued ReadEvict restarts as a plain read against the
            // current state (the eviction may no longer be necessary).
            Txn::Read | Txn::ReadEvict => match self.dir.clone() {
                DirState::Uncached => {
                    if self.mesi {
                        // sole reader: grant exclusive-clean; the directory
                        // conservatively records an owner (it cannot see
                        // the silent E -> M upgrade).
                        self.dir = DirState::Modified(node);
                        self.home.send(node, WbiKind::DataExclClean, true, out);
                    } else {
                        self.dir = DirState::Shared(BTreeSet::from([node]));
                        self.home.send(node, WbiKind::DataShared, true, out);
                    }
                }
                DirState::Shared(mut s) => {
                    if let Some(limit) = self.sharer_limit {
                        if !s.contains(&node) && s.len() >= limit {
                            // Limited directory: no pointer left — evict a
                            // sharer, then serve the read.
                            let victim = *s.iter().next().expect("non-empty");
                            self.dir_evictions += 1;
                            self.home.wait(node, Txn::ReadEvict, 1);
                            self.home.send(victim, WbiKind::Inv, false, out);
                            return;
                        }
                    }
                    s.insert(node);
                    self.dir = DirState::Shared(s);
                    self.home.send(node, WbiKind::DataShared, true, out);
                }
                DirState::Modified(owner) => {
                    self.home.wait(node, txn, 0);
                    self.home.send(owner, WbiKind::FetchShared, false, out);
                }
            },
            Txn::Write | Txn::Upgrade => match self.dir.clone() {
                DirState::Uncached => self.grant_excl(node, false, out),
                DirState::Shared(s) => {
                    // observed now, not at request time: a queued
                    // upgrader may have been invalidated while it waited
                    let upgrade =
                        self.line_state(node) == Some(LineState::Shared) && s.contains(&node);
                    let others = s.iter().filter(|&&x| x != node);
                    let acks_left = others.clone().count();
                    if acks_left == 0 {
                        self.grant_excl(node, upgrade, out);
                    } else {
                        let txn = if upgrade { Txn::Upgrade } else { Txn::Write };
                        self.home.wait(node, txn, acks_left);
                        for &o in others {
                            self.home.send(o, WbiKind::Inv, false, out);
                        }
                    }
                }
                DirState::Modified(owner) => {
                    debug_assert_ne!(owner, node, "owner write-missed its own line");
                    self.home.wait(node, txn, 0);
                    self.home.send(owner, WbiKind::FetchExcl, false, out);
                }
            },
        }
    }

    /// Makes `node` the owner; an upgrade grants ownership without data.
    fn grant_excl(&mut self, node: NodeId, upgrade: bool, out: &mut CohOutbox) {
        self.dir = DirState::Modified(node);
        self.home
            .send(node, WbiKind::DataExcl { upgrade }, !upgrade, out);
    }

    fn deliver_at_node(&mut self, node: NodeId, kind: WbiKind, out: &mut CohOutbox) {
        let me = Endpoint::Node(node);
        match kind {
            WbiKind::DataShared => {
                self.home.install(node, LineState::Shared);
                let data = self.home.mem.clone();
                out.effect(CohEffect::FilledShared { node, data });
            }
            WbiKind::DataExclClean => {
                // a read completes exactly like a shared fill
                self.home.install(node, LineState::Exclusive);
                let data = self.home.mem.clone();
                out.effect(CohEffect::FilledShared { node, data });
            }
            WbiKind::DataExcl { upgrade } => match self.home.lines.get_mut(&node) {
                Some(l) if upgrade => {
                    l.state = LineState::Modified;
                    out.effect(CohEffect::UpgradeGranted { node });
                }
                // A full exclusive fill — or an upgrade grant that a
                // delay-injected invalidation overtook (unreachable on a
                // fault-free network): the grant is authoritative, so it
                // degrades to a full exclusive fill.
                _ => {
                    self.home.install(node, LineState::Modified);
                    let data = self.home.mem.clone();
                    out.effect(CohEffect::FilledExcl { node, data });
                }
            },
            WbiKind::Inv => {
                // (an Inv after a silent replacement is spurious: just ack)
                if self.home.lines.remove(&node).is_some() {
                    out.effect(CohEffect::Invalidated { node });
                }
                out.ctl(me, Endpoint::Dir, WbiKind::InvAck);
            }
            WbiKind::FetchShared => match self.home.lines.get_mut(&node) {
                Some(l) => {
                    l.state = LineState::Shared;
                    self.home.mem = l.data.clone();
                    let reply = WbiKind::OwnerData { downgrade: true };
                    out.data(me, Endpoint::Dir, self.home.block_words, reply);
                    out.effect(CohEffect::Downgraded { node });
                }
                None => out.ctl(me, Endpoint::Dir, WbiKind::WbRace),
            },
            WbiKind::FetchExcl => match self.home.lines.remove(&node) {
                Some(l) => {
                    self.home.mem = l.data;
                    let reply = WbiKind::OwnerData { downgrade: false };
                    out.data(me, Endpoint::Dir, self.home.block_words, reply);
                    out.effect(CohEffect::Invalidated { node });
                }
                None => out.ctl(me, Endpoint::Dir, WbiKind::WbRace),
            },
            other => panic!("node cannot handle {other:?}"),
        }
    }
}

impl CoherenceProtocol for WbiBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.home.local_read(node, word)
    }

    /// Hits iff the node holds the line Modified, or Exclusive-clean
    /// (the silent E -> M upgrade of the MESI extension).
    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        let owned = |s| s != LineState::Shared;
        self.home
            .local_write(node, word, value, owned, LineState::Modified)
    }

    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg> {
        debug_assert!(
            !self.home.lines.contains_key(&node),
            "read request with a valid line"
        );
        home::request(node, WbiKind::ReadReq)
    }

    fn write_req(&mut self, node: NodeId, _word: u8, _value: u64) -> Vec<CohMsg> {
        debug_assert!(
            self.line_state(node) != Some(LineState::Modified),
            "write request while already owner"
        );
        home::request(node, WbiKind::WriteReq)
    }

    fn deliver_into(&mut self, msg: CohMsg, out: &mut CohOutbox) {
        let CohKind::Wbi(kind) = msg.kind else {
            panic!("WBI backend delivered a foreign message: {:?}", msg.kind);
        };
        match (msg.src, msg.dst) {
            (Endpoint::Node(src), Endpoint::Dir) => self.deliver_at_dir(src, kind, out),
            (_, Endpoint::Node(n)) => self.deliver_at_node(n, kind, out),
            (Endpoint::Dir, Endpoint::Dir) => panic!("directory message from directory: {msg:?}"),
        }
    }

    fn coherent_word(&self, word: u8) -> u64 {
        self.home.coherent_word(self.owner(), word)
    }

    fn owner(&self) -> Option<NodeId> {
        match self.dir {
            DirState::Modified(o) => Some(o),
            _ => None,
        }
    }

    fn sharers(&self) -> Vec<NodeId> {
        match &self.dir {
            DirState::Shared(s) => s.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    fn dir_evictions(&self) -> u64 {
        self.dir_evictions
    }

    fn check_quiescent(&self) -> Result<(), String> {
        let lines = &self.home.lines;
        if self.home.busy.is_some() || !self.home.queue.is_empty() {
            return Err("transaction still in flight".into());
        }
        let modified: Vec<NodeId> = self.home.holders(|s| s != LineState::Shared).collect();
        match &self.dir {
            DirState::Uncached => {
                if !lines.is_empty() {
                    return Err(format!("uncached but lines exist: {:?}", lines.keys()));
                }
            }
            DirState::Shared(s) => {
                if !modified.is_empty() {
                    return Err(format!("shared dir but modified lines {modified:?}"));
                }
                for n in lines.keys() {
                    if !s.contains(n) {
                        return Err(format!("line at {n} not in sharer set"));
                    }
                }
            }
            DirState::Modified(o) => {
                if modified != vec![*o] {
                    return Err(format!("dir owner {o} but modified lines {modified:?}"));
                }
                if lines.len() != 1 {
                    return Err("stale copies alongside an owner".into());
                }
            }
        }
        Ok(())
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let writers = self.home.holders(|s| s != LineState::Shared).count();
        if writers > 1 {
            return Err(format!("{writers} simultaneous owners"));
        }
        if writers == 1 && self.home.lines.len() > 1 {
            return Err("owner coexists with other copies".into());
        }
        Ok(())
    }

    fn swmr_invariant(&self) -> &'static str {
        "wbi.swmr"
    }

    fn quiescent_invariant(&self) -> &'static str {
        "wbi.quiescent"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Harness;

    fn wbi() -> Harness<WbiBlock> {
        Harness::new(Box::new(WbiBlock::new(4)))
    }

    #[test]
    fn read_sharing_accumulates() {
        let mut h = wbi();
        for n in 0..4 {
            h.read(n);
        }
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.len(), 4),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut h = wbi();
        for n in 0..4 {
            h.read(n);
        }
        h.effects.clear();
        h.write(4, 0, 99);
        assert_eq!(h.invalidated(), vec![0, 1, 2, 3]);
        assert_eq!(h.b.dir_state(), &DirState::Modified(4));
        assert_eq!(h.b.local_read(4, 0), Some(99));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn upgrade_from_shared_carries_no_data() {
        let mut h = wbi();
        h.read(0);
        h.read(1);
        h.effects.clear();
        h.write(0, 1, 7);
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, CohEffect::UpgradeGranted { node: 0 })));
        assert_eq!(h.b.dir_state(), &DirState::Modified(0));
    }

    #[test]
    fn sole_sharer_upgrade_is_two_messages() {
        let mut h = wbi();
        h.read(0);
        h.sent.clear();
        h.write(0, 0, 5);
        // WriteReq + upgrade-DataExcl
        assert_eq!(h.sent.len(), 2);
    }

    #[test]
    fn dirty_remote_read_is_four_hops() {
        let mut h = wbi();
        h.write(0, 2, 42);
        h.sent.clear();
        h.effects.clear();
        h.read(1);
        // ReadReq, FetchShared, OwnerData, DataShared
        assert_eq!(h.sent.len(), 4);
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, CohEffect::Downgraded { node: 0 })));
        // reader sees the dirty value
        assert!(matches!(
            h.effects.iter().find(|e| matches!(e, CohEffect::FilledShared { node: 1, .. })),
            Some(CohEffect::FilledShared { data, .. }) if data.get(2) == 42
        ));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn dirty_remote_write_transfers_ownership() {
        let mut h = wbi();
        h.write(0, 0, 1);
        h.write(1, 0, 2);
        assert_eq!(h.b.dir_state(), &DirState::Modified(1));
        assert_eq!(h.b.local_read(1, 0), Some(2));
        assert_eq!(h.b.line_state(0), None, "previous owner invalidated");
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_on_replacement() {
        let mut h = wbi();
        h.write(0, 3, 8);
        let m = h.b.replace(0);
        assert_eq!(m.len(), 1);
        h.send(m);
        h.pump();
        assert_eq!(h.b.dir_state(), &DirState::Uncached);
        assert_eq!(h.b.mem().get(3), 8);
        h.b.check_quiescent().unwrap();
        // fresh reader sees the written-back value
        h.effects.clear();
        h.read(1);
        assert!(matches!(
            h.effects.iter().find(|e| matches!(e, CohEffect::FilledShared { node: 1, .. })),
            Some(CohEffect::FilledShared { data, .. }) if data.get(3) == 8
        ));
    }

    #[test]
    fn shared_replacement_is_silent_and_inv_spurious() {
        let mut h = wbi();
        h.read(0);
        h.read(1);
        let m = h.b.replace(0);
        assert!(m.is_empty(), "shared replacement sends nothing");
        h.effects.clear();
        // write from 2 sends Inv to both recorded sharers; node 0 acks
        // without an Invalidated effect.
        h.write(2, 0, 1);
        assert_eq!(h.invalidated(), vec![1]);
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_fetch_race_resolves_from_memory() {
        let mut h = wbi();
        h.write(0, 1, 77);
        // Node 0 replaces the dirty line; write-back in flight.
        let wb = h.b.replace(0);
        // Node 1 reads while the write-back has not yet arrived.
        let rd = h.b.read_req(1);
        h.send(rd);
        h.pump(); // FetchShared to 0 -> WbRace -> DataShared from memory
        assert_eq!(h.b.local_read(1, 1), Some(77), "memory had the data");
        // deliver the late write-back
        h.send(wb);
        h.pump();
        match h.b.dir_state() {
            DirState::Shared(s) => assert!(s.contains(&1)),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn queued_requests_serve_in_order() {
        let mut h = wbi();
        h.write(0, 0, 1);
        // Two reads and a write arrive while the dirty fetch is pending.
        let r1 = h.b.read_req(1);
        let r2 = h.b.read_req(2);
        let w3 = h.b.write_req(3, 0, 9);
        // deliver all requests first (directory queues 2 of them)
        h.send(r1);
        h.send(r2);
        h.send(w3);
        h.pump();
        // final state: 3 owns the line
        assert_eq!(h.b.dir_state(), &DirState::Modified(3));
        assert!(h.b.local_write(3, 0, 9));
        h.b.check_quiescent().unwrap();
        // and the readers were served before the writer invalidated them
        let filled: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                CohEffect::FilledShared { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(filled, vec![1, 2]);
    }

    #[test]
    fn false_sharing_ping_pong() {
        // Two nodes writing *different words* of the same block: every
        // write transfers ownership — the WBI pathology the paper's
        // per-word dirty bits eliminate.
        let mut h = wbi();
        h.write(0, 0, 1);
        h.sent.clear();
        for i in 0..10u64 {
            h.write(1, 1, i); // node 1 writes word 1
            h.write(0, 0, i); // node 0 writes word 0
        }
        // each write after the first costs a 4-hop ownership transfer
        assert!(
            h.sent.len() >= 20 * 4,
            "expected ping-pong traffic, got {} messages",
            h.sent.len()
        );
        // no update was lost despite the transfers
        assert_eq!(h.b.local_read(0, 0), Some(9));
        assert_eq!(h.b.local_read(0, 1), Some(9));
    }

    #[test]
    fn test_and_set_requires_ownership() {
        // the machine's TTS test-and-set is a local read then a local
        // write of word 0, which only a writable copy accepts
        let mut h = wbi();
        h.read(0);
        assert_eq!(h.b.local_read(0, 0), Some(0));
        assert!(
            !h.b.local_write(0, 0, 1),
            "a shared copy cannot test-and-set"
        );
        h.write(0, 0, 5);
        assert_eq!(h.b.local_read(0, 0), Some(5));
        assert!(h.b.local_write(0, 0, 6));
        assert_eq!(h.b.line_state(0), Some(LineState::Modified));
    }

    proptest::proptest! {
        /// Random read/write/replace sequences keep the directory sound and
        /// every completed write readable by a subsequent reader.
        #[test]
        fn prop_directory_soundness(ops in proptest::collection::vec((0usize..5, 0u8..3, 0u64..100), 1..80)) {
            let mut h = wbi();
            let mut last_write: Option<(u8, u64)> = None;
            let mut stamp = 1000u64;
            for (node, op, _) in ops {
                match op {
                    0 => {
                        if h.b.line_state(node).is_none() {
                            h.read(node);
                        }
                    }
                    1 => {
                        stamp += 1;
                        let word = (stamp % 4) as u8;
                        h.write(node, word, stamp);
                        last_write = Some((word, stamp));
                    }
                    _ => {
                        let m = h.b.replace(node);
                        h.send(m);
                        h.pump();
                    }
                }
                h.b.check_single_writer().unwrap();
                h.b.check_quiescent().unwrap();
            }
            // A fresh reader observes the last completed write.
            if let Some((word, val)) = last_write {
                let reader = 7usize; // never used above (nodes 0..5)
                h.read(reader);
                proptest::prop_assert_eq!(h.b.local_read(reader, word), Some(val));
            }
        }
    }
}

#[cfg(test)]
mod limited_dir_tests {
    use super::*;
    use crate::tests::Harness;

    fn limited(limit: usize) -> Harness<WbiBlock> {
        Harness::new(Box::new(WbiBlock::with_sharer_limit(4, limit)))
    }

    #[test]
    fn within_limit_no_evictions() {
        let mut h = limited(4);
        for n in 0..4 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 0);
        assert!(h.invalidated().is_empty());
    }

    #[test]
    fn overflow_evicts_a_sharer() {
        let mut h = limited(2);
        for n in 0..3 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 1);
        assert_eq!(h.invalidated().len(), 1);
        match h.b.dir_state() {
            DirState::Shared(s) => {
                assert_eq!(s.len(), 2, "limit respected: {s:?}");
                assert!(s.contains(&2), "new reader recorded");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_robin_readers_thrash_a_dir1() {
        // Dir_1: every new reader evicts the previous one — the pathology
        // the paper's pointer chain avoids at O(1) directory cost.
        let mut h = limited(1);
        for round in 0..3 {
            for n in 0..4 {
                h.read(n);
            }
            let _ = round;
        }
        assert!(h.b.dir_evictions() >= 11, "{}", h.b.dir_evictions());
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn evicted_sharer_can_return() {
        let mut h = limited(1);
        h.read(0);
        h.read(1); // evicts 0
        h.read(0); // evicts 1, 0 returns
        match h.b.dir_state() {
            DirState::Shared(s) => assert!(s.contains(&0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.b.dir_evictions(), 2);
    }

    #[test]
    fn writes_still_work_under_limit() {
        let mut h = limited(2);
        h.read(0);
        h.read(1);
        h.write(2, 0, 9);
        assert_eq!(h.b.dir_state(), &DirState::Modified(2));
    }
}

#[cfg(test)]
mod mesi_tests {
    use super::*;
    use crate::tests::Harness;

    fn wbi(mesi: bool) -> Harness<WbiBlock> {
        Harness::new(Box::new(if mesi {
            WbiBlock::with_mesi(4)
        } else {
            WbiBlock::new(4)
        }))
    }

    #[test]
    fn sole_reader_gets_exclusive_clean() {
        let mut h = wbi(true);
        h.read(0);
        assert_eq!(h.b.line_state(0), Some(LineState::Exclusive));
    }

    #[test]
    fn silent_upgrade_costs_nothing() {
        let mut h = wbi(true);
        h.read(0);
        let before = h.sent.len();
        assert!(h.b.local_write(0, 1, 42), "E line must accept the write");
        assert_eq!(h.sent.len(), before, "the E -> M upgrade is silent");
        assert_eq!(h.b.line_state(0), Some(LineState::Modified));
    }

    #[test]
    fn msi_needs_an_upgrade_transaction() {
        let mut h = wbi(false);
        h.read(0);
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert!(
            !h.b.local_write(0, 1, 42),
            "MSI shared line cannot be written"
        );
        h.write(0, 1, 42); // upgrade round trip, then the store
    }

    #[test]
    fn read_then_write_message_counts_mesi_vs_msi() {
        let count = |mesi: bool| {
            let mut h = wbi(mesi);
            h.read(0);
            h.write(0, 0, 1);
            h.sent.len()
        };
        assert_eq!(count(true), 2, "MESI: read + E grant");
        assert_eq!(count(false), 4, "MSI: read + data + upgrade + ack");
    }

    #[test]
    fn second_reader_downgrades_the_e_copy() {
        let mut h = wbi(true);
        h.read(0);
        h.read(1); // fetch-shared from the E owner
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn silently_dropped_e_line_resolves_via_race() {
        let mut h = wbi(true);
        h.read(0);
        // replace the clean E line: silent, directory still names node 0
        let wb = h.b.replace(0);
        assert!(wb.is_empty(), "clean replacement is silent");
        // next reader: fetch misses at node 0, WbRace serves from memory
        h.read(1);
        // the race path serves the read from memory as a shared copy
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
    }
}
