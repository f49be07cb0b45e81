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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ssmp_core::addr::NodeId;
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg};

use crate::{CohEffect, CohKind, CohMsg, CoherenceProtocol};

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

#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeLine {
    state: LineState,
    data: BlockData,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Txn {
    Read,
    /// A read that must first evict a sharer (limited directory overflow).
    ReadEvict,
    Write {
        /// Requester already held a shared copy (upgrade).
        had_copy: bool,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending {
    txn: Txn,
    requester: NodeId,
    acks_left: usize,
}

/// The WBI coherence controller for one block: memory copy, directory
/// state, per-node lines, and the blocking-transaction queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbiBlock {
    block_words: u32,
    mem: BlockData,
    dir: DirState,
    lines: BTreeMap<NodeId, NodeLine>,
    busy: Option<Pending>,
    queue: VecDeque<(NodeId, Txn)>,
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
            block_words: block_words.into(),
            mem: BlockData::new(block_words),
            dir: DirState::Uncached,
            lines: BTreeMap::new(),
            busy: None,
            queue: VecDeque::new(),
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
        &self.mem
    }

    /// Directory state (for tests and stats).
    pub fn dir_state(&self) -> &DirState {
        &self.dir
    }

    /// The node's line state, if cached.
    pub fn line_state(&self, node: NodeId) -> Option<LineState> {
        self.lines.get(&node).map(|l| l.state)
    }

    /// The node replaces its line. Dirty lines emit a write-back (memory is
    /// updated immediately — monotone freshness — with the directory state
    /// transition applied when the message arrives); shared lines are
    /// dropped silently.
    pub fn replace(&mut self, node: NodeId) -> Vec<CohMsg> {
        match self.lines.remove(&node) {
            Some(l) if l.state == LineState::Modified => {
                self.mem = l.data;
                vec![Msg::data(
                    Endpoint::Node(node),
                    Endpoint::Dir,
                    self.block_words,
                    WbiKind::WriteBack,
                )]
            }
            Some(_) => {
                // Silent replacement of a shared line. The directory may
                // send a spurious Inv later; the node just acks it.
                vec![]
            }
            None => vec![],
        }
    }

    fn deliver_at_dir(&mut self, src: NodeId, kind: WbiKind) -> (Vec<CohMsg>, Vec<CohEffect>) {
        match kind {
            WbiKind::ReadReq => self.begin_or_queue(src, Txn::Read),
            WbiKind::WriteReq => {
                let had = self.line_state(src) == Some(LineState::Shared);
                self.begin_or_queue(src, Txn::Write { had_copy: had })
            }
            WbiKind::InvAck => {
                let p = self.busy.as_mut().expect("ack with no transaction");
                debug_assert!(p.acks_left > 0);
                p.acks_left -= 1;
                if p.acks_left == 0 {
                    let p = self.busy.take().expect("checked");
                    let mut msgs = match p.txn {
                        Txn::Write { had_copy } => vec![self.grant_excl(p.requester, had_copy)],
                        Txn::ReadEvict => {
                            // The victim's ack arrived: record the new
                            // sharer set and serve the read.
                            let mut s = match std::mem::replace(&mut self.dir, DirState::Uncached) {
                                DirState::Shared(s) => s,
                                other => panic!("read-evict on {other:?}"),
                            };
                            s.retain(|n| self.lines.contains_key(n));
                            s.insert(p.requester);
                            self.dir = DirState::Shared(s);
                            vec![Msg::data(
                                Endpoint::Dir,
                                Endpoint::Node(p.requester),
                                self.block_words,
                                WbiKind::DataShared,
                            )]
                        }
                        Txn::Read => unreachable!("plain reads collect no acks"),
                    };
                    msgs.extend(self.pump_queue());
                    (msgs, vec![])
                } else {
                    (vec![], vec![])
                }
            }
            WbiKind::OwnerData { downgrade } => {
                // Owner's data arrives; memory is refreshed and the waiting
                // requester served.
                if let Some(l) = self.lines.get(&src) {
                    // (downgraded owner keeps a clean shared copy)
                    self.mem = l.data.clone();
                } // else: owner invalidated; data was stashed at fetch time
                let p = self.busy.take().expect("owner data with no transaction");
                let mut msgs = Vec::new();
                match p.txn {
                    Txn::Read => {
                        debug_assert!(downgrade);
                        let mut s: BTreeSet<NodeId> = BTreeSet::new();
                        s.insert(src);
                        s.insert(p.requester);
                        self.dir = DirState::Shared(s);
                        msgs.push(Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            self.block_words,
                            WbiKind::DataShared,
                        ));
                    }
                    Txn::ReadEvict => unreachable!("evictions fetch nothing from owners"),
                    Txn::Write { .. } => {
                        debug_assert!(!downgrade);
                        self.dir = DirState::Modified(p.requester);
                        msgs.push(Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            self.block_words,
                            WbiKind::DataExcl { upgrade: false },
                        ));
                    }
                }
                msgs.extend(self.pump_queue());
                (msgs, vec![])
            }
            WbiKind::WbRace => {
                // The fetch missed: the owner replaced the line and its
                // write-back (already applied to memory) is in flight.
                let p = self.busy.take().expect("race reply with no transaction");
                let mut msgs = Vec::new();
                match p.txn {
                    Txn::ReadEvict => unreachable!("evictions never fetch"),
                    Txn::Read => {
                        self.dir = DirState::Shared(BTreeSet::from([p.requester]));
                        msgs.push(Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            self.block_words,
                            WbiKind::DataShared,
                        ));
                    }
                    Txn::Write { .. } => {
                        self.dir = DirState::Modified(p.requester);
                        msgs.push(Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(p.requester),
                            self.block_words,
                            WbiKind::DataExcl { upgrade: false },
                        ));
                    }
                }
                msgs.extend(self.pump_queue());
                (msgs, vec![])
            }
            WbiKind::WriteBack => {
                // Memory was already updated at replace(); retire the
                // directory's owner record if it still names the sender.
                if self.dir == DirState::Modified(src) {
                    self.dir = DirState::Uncached;
                }
                (vec![], vec![])
            }
            other => panic!("directory cannot handle {other:?}"),
        }
    }

    fn begin_or_queue(&mut self, node: NodeId, txn: Txn) -> (Vec<CohMsg>, Vec<CohEffect>) {
        if self.busy.is_some() {
            self.queue.push_back((node, txn));
            return (vec![], vec![]);
        }
        (self.begin(node, txn), vec![])
    }

    fn begin(&mut self, node: NodeId, txn: Txn) -> Vec<CohMsg> {
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
                        vec![Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(node),
                            self.block_words,
                            WbiKind::DataExclClean,
                        )]
                    } else {
                        self.dir = DirState::Shared(BTreeSet::from([node]));
                        vec![Msg::data(
                            Endpoint::Dir,
                            Endpoint::Node(node),
                            self.block_words,
                            WbiKind::DataShared,
                        )]
                    }
                }
                DirState::Shared(mut s) => {
                    if let Some(limit) = self.sharer_limit {
                        if !s.contains(&node) && s.len() >= limit {
                            // Limited directory: no pointer left — evict a
                            // sharer, then serve the read.
                            let victim = *s.iter().next().expect("non-empty");
                            self.dir_evictions += 1;
                            self.busy = Some(Pending {
                                txn: Txn::ReadEvict,
                                requester: node,
                                acks_left: 1,
                            });
                            return vec![Msg::ctl(
                                Endpoint::Dir,
                                Endpoint::Node(victim),
                                WbiKind::Inv,
                            )];
                        }
                    }
                    s.insert(node);
                    self.dir = DirState::Shared(s);
                    vec![Msg::data(
                        Endpoint::Dir,
                        Endpoint::Node(node),
                        self.block_words,
                        WbiKind::DataShared,
                    )]
                }
                DirState::Modified(owner) => {
                    self.busy = Some(Pending {
                        txn,
                        requester: node,
                        acks_left: 0,
                    });
                    vec![Msg::ctl(
                        Endpoint::Dir,
                        Endpoint::Node(owner),
                        WbiKind::FetchShared,
                    )]
                }
            },
            Txn::Write { had_copy } => match self.dir.clone() {
                DirState::Uncached => {
                    self.dir = DirState::Modified(node);
                    vec![Msg::data(
                        Endpoint::Dir,
                        Endpoint::Node(node),
                        self.block_words,
                        WbiKind::DataExcl { upgrade: false },
                    )]
                }
                DirState::Shared(s) => {
                    let others: Vec<NodeId> = s.iter().copied().filter(|&x| x != node).collect();
                    if others.is_empty() {
                        self.dir = DirState::Modified(node);
                        vec![self.grant_excl(node, had_copy && s.contains(&node))]
                    } else {
                        self.busy = Some(Pending {
                            txn: Txn::Write {
                                had_copy: had_copy && s.contains(&node),
                            },
                            requester: node,
                            acks_left: others.len(),
                        });
                        others
                            .into_iter()
                            .map(|o| Msg::ctl(Endpoint::Dir, Endpoint::Node(o), WbiKind::Inv))
                            .collect()
                    }
                }
                DirState::Modified(owner) => {
                    debug_assert_ne!(owner, node, "owner write-missed its own line");
                    self.busy = Some(Pending {
                        txn,
                        requester: node,
                        acks_left: 0,
                    });
                    vec![Msg::ctl(
                        Endpoint::Dir,
                        Endpoint::Node(owner),
                        WbiKind::FetchExcl,
                    )]
                }
            },
        }
    }

    fn grant_excl(&mut self, node: NodeId, upgrade: bool) -> CohMsg {
        self.dir = DirState::Modified(node);
        if upgrade {
            Msg::ctl(
                Endpoint::Dir,
                Endpoint::Node(node),
                WbiKind::DataExcl { upgrade: true },
            )
        } else {
            Msg::data(
                Endpoint::Dir,
                Endpoint::Node(node),
                self.block_words,
                WbiKind::DataExcl { upgrade: false },
            )
        }
    }

    fn pump_queue(&mut self) -> Vec<CohMsg> {
        let mut out = Vec::new();
        while self.busy.is_none() {
            let Some((node, mut txn)) = self.queue.pop_front() else {
                break;
            };
            // Refresh the upgrade observation: the copy may have been
            // invalidated while queued.
            if let Txn::Write { had_copy } = &mut txn {
                *had_copy = self.line_state(node) == Some(LineState::Shared);
            }
            // A queued read may already be satisfied (e.g. granted shared
            // while this request waited); serve it anyway from memory.
            out.extend(self.begin(node, txn));
        }
        out
    }

    fn deliver_at_node(&mut self, node: NodeId, kind: WbiKind) -> (Vec<CohMsg>, Vec<CohEffect>) {
        match kind {
            WbiKind::DataShared => {
                let data = self.mem.clone();
                self.lines.insert(
                    node,
                    NodeLine {
                        state: LineState::Shared,
                        data: data.clone(),
                    },
                );
                (vec![], vec![CohEffect::FilledShared { node, data }])
            }
            WbiKind::DataExclClean => {
                let data = self.mem.clone();
                self.lines.insert(
                    node,
                    NodeLine {
                        state: LineState::Exclusive,
                        data: data.clone(),
                    },
                );
                // a read completes exactly like a shared fill
                (vec![], vec![CohEffect::FilledShared { node, data }])
            }
            WbiKind::DataExcl { upgrade } => {
                if upgrade {
                    match self.lines.get_mut(&node) {
                        Some(l) => {
                            l.state = LineState::Modified;
                            (vec![], vec![CohEffect::UpgradeGranted { node }])
                        }
                        // Unreachable on a fault-free network, but a
                        // delay-injected invalidation can overtake the
                        // upgrade grant; the grant is authoritative, so
                        // degrade to a full exclusive fill.
                        None => {
                            let data = self.mem.clone();
                            self.lines.insert(
                                node,
                                NodeLine {
                                    state: LineState::Modified,
                                    data: data.clone(),
                                },
                            );
                            (vec![], vec![CohEffect::FilledExcl { node, data }])
                        }
                    }
                } else {
                    let data = self.mem.clone();
                    self.lines.insert(
                        node,
                        NodeLine {
                            state: LineState::Modified,
                            data: data.clone(),
                        },
                    );
                    (vec![], vec![CohEffect::FilledExcl { node, data }])
                }
            }
            WbiKind::Inv => {
                let had = self.lines.remove(&node).is_some();
                let effects = if had {
                    vec![CohEffect::Invalidated { node }]
                } else {
                    vec![] // spurious Inv after silent replacement
                };
                (
                    vec![Msg::ctl(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::InvAck,
                    )],
                    effects,
                )
            }
            WbiKind::FetchShared => match self.lines.get_mut(&node) {
                Some(l) => {
                    l.state = LineState::Shared;
                    self.mem = l.data.clone();
                    (
                        vec![Msg::data(
                            Endpoint::Node(node),
                            Endpoint::Dir,
                            self.block_words,
                            WbiKind::OwnerData { downgrade: true },
                        )],
                        vec![CohEffect::Downgraded { node }],
                    )
                }
                None => (
                    vec![Msg::ctl(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::WbRace,
                    )],
                    vec![],
                ),
            },
            WbiKind::FetchExcl => match self.lines.remove(&node) {
                Some(l) => {
                    self.mem = l.data;
                    (
                        vec![Msg::data(
                            Endpoint::Node(node),
                            Endpoint::Dir,
                            self.block_words,
                            WbiKind::OwnerData { downgrade: false },
                        )],
                        vec![CohEffect::Invalidated { node }],
                    )
                }
                None => (
                    vec![Msg::ctl(
                        Endpoint::Node(node),
                        Endpoint::Dir,
                        WbiKind::WbRace,
                    )],
                    vec![],
                ),
            },
            other => panic!("node cannot handle {other:?}"),
        }
    }
}

impl CoherenceProtocol for WbiBlock {
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.lines.get(&node).map(|l| l.data.get(word))
    }

    /// Hits iff the node holds the line Modified, or Exclusive-clean
    /// (the silent E -> M upgrade of the MESI extension).
    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool {
        match self.lines.get_mut(&node) {
            Some(l) if matches!(l.state, LineState::Modified | LineState::Exclusive) => {
                l.state = LineState::Modified;
                l.data.set(word, value);
                true
            }
            _ => false,
        }
    }

    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg> {
        debug_assert!(
            !self.lines.contains_key(&node),
            "read request with a valid line"
        );
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            WbiKind::ReadReq,
        )]
    }

    fn write_req(&mut self, node: NodeId, _word: u8, _value: u64) -> Vec<CohMsg> {
        debug_assert!(
            self.line_state(node) != Some(LineState::Modified),
            "write request while already owner"
        );
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            WbiKind::WriteReq,
        )]
    }

    fn deliver(&mut self, msg: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>) {
        let CohKind::Wbi(kind) = msg.kind else {
            panic!("WBI backend delivered a foreign message: {:?}", msg.kind);
        };
        match (msg.src, msg.dst) {
            (Endpoint::Node(src), Endpoint::Dir) => self.deliver_at_dir(src, kind),
            (_, Endpoint::Node(n)) => self.deliver_at_node(n, kind),
            (Endpoint::Dir, Endpoint::Dir) => panic!("directory message from directory: {msg:?}"),
        }
    }

    fn coherent_word(&self, word: u8) -> u64 {
        match self.dir {
            DirState::Modified(o) => self
                .local_read(o, word)
                .unwrap_or_else(|| self.mem.get(word)),
            _ => self.mem.get(word),
        }
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
        if self.busy.is_some() || !self.queue.is_empty() {
            return Err("transaction still in flight".into());
        }
        let modified: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(_, l)| matches!(l.state, LineState::Modified | LineState::Exclusive))
            .map(|(&n, _)| n)
            .collect();
        match &self.dir {
            DirState::Uncached => {
                if !self.lines.is_empty() {
                    return Err(format!("uncached but lines exist: {:?}", self.lines.keys()));
                }
            }
            DirState::Shared(s) => {
                if !modified.is_empty() {
                    return Err(format!("shared dir but modified lines {modified:?}"));
                }
                for n in self.lines.keys() {
                    if !s.contains(n) {
                        return Err(format!("line at {n} not in sharer set"));
                    }
                }
            }
            DirState::Modified(o) => {
                if modified != vec![*o] {
                    return Err(format!("dir owner {o} but modified lines {modified:?}"));
                }
                if self.lines.len() != 1 {
                    return Err("stale copies alongside an owner".into());
                }
            }
        }
        Ok(())
    }

    fn check_single_writer(&self) -> Result<(), String> {
        let writers = self
            .lines
            .values()
            .filter(|l| matches!(l.state, LineState::Modified | LineState::Exclusive))
            .count();
        if writers > 1 {
            return Err(format!("{writers} simultaneous owners"));
        }
        if writers == 1 && self.lines.len() > 1 {
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
    use std::collections::VecDeque;

    struct Harness {
        b: WbiBlock,
        wire: VecDeque<CohMsg>,
        effects: Vec<CohEffect>,
        messages: usize,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                b: WbiBlock::new(4),
                wire: VecDeque::new(),
                effects: Vec::new(),
                messages: 0,
            }
        }

        fn send(&mut self, msgs: Vec<CohMsg>) {
            self.messages += msgs.len();
            self.wire.extend(msgs);
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (msgs, eff) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.messages += msgs.len();
                self.wire.extend(msgs);
                self.effects.extend(eff);
            }
        }

        fn read(&mut self, n: NodeId) {
            let m = self.b.read_req(n);
            self.send(m);
            self.drain();
        }

        fn write(&mut self, n: NodeId, word: u8, v: u64) {
            if self.b.local_write(n, word, v) {
                return;
            }
            let m = self.b.write_req(n, word, v);
            self.send(m);
            self.drain();
            assert!(self.b.local_write(n, word, v), "store after ownership");
        }
    }

    #[test]
    fn read_sharing_accumulates() {
        let mut h = Harness::new();
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
        let mut h = Harness::new();
        for n in 0..4 {
            h.read(n);
        }
        h.effects.clear();
        h.write(4, 0, 99);
        let invalidated: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                CohEffect::Invalidated { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(invalidated, vec![0, 1, 2, 3]);
        assert_eq!(h.b.dir_state(), &DirState::Modified(4));
        assert_eq!(h.b.local_read(4, 0), Some(99));
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn upgrade_from_shared_carries_no_data() {
        let mut h = Harness::new();
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
        let mut h = Harness::new();
        h.read(0);
        h.messages = 0;
        h.write(0, 0, 5);
        // WriteReq + upgrade-DataExcl
        assert_eq!(h.messages, 2);
    }

    #[test]
    fn dirty_remote_read_is_four_hops() {
        let mut h = Harness::new();
        h.write(0, 2, 42);
        h.messages = 0;
        h.effects.clear();
        h.read(1);
        // ReadReq, FetchShared, OwnerData, DataShared
        assert_eq!(h.messages, 4);
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
        let mut h = Harness::new();
        h.write(0, 0, 1);
        h.write(1, 0, 2);
        assert_eq!(h.b.dir_state(), &DirState::Modified(1));
        assert_eq!(h.b.local_read(1, 0), Some(2));
        assert_eq!(h.b.line_state(0), None, "previous owner invalidated");
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_on_replacement() {
        let mut h = Harness::new();
        h.write(0, 3, 8);
        let m = h.b.replace(0);
        assert_eq!(m.len(), 1);
        h.send(m);
        h.drain();
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
        let mut h = Harness::new();
        h.read(0);
        h.read(1);
        let m = h.b.replace(0);
        assert!(m.is_empty(), "shared replacement sends nothing");
        h.effects.clear();
        // write from 2 sends Inv to both recorded sharers; node 0 acks
        // without an Invalidated effect.
        h.write(2, 0, 1);
        let invalidated: Vec<NodeId> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                CohEffect::Invalidated { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(invalidated, vec![1]);
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn writeback_fetch_race_resolves_from_memory() {
        let mut h = Harness::new();
        h.write(0, 1, 77);
        // Node 0 replaces the dirty line; write-back in flight.
        let wb = h.b.replace(0);
        // Node 1 reads while the write-back has not yet arrived.
        let rd = h.b.read_req(1);
        h.send(rd);
        h.drain(); // FetchShared to 0 -> WbRace -> DataShared from memory
        assert_eq!(h.b.local_read(1, 1), Some(77), "memory had the data");
        // deliver the late write-back
        h.send(wb);
        h.drain();
        match h.b.dir_state() {
            DirState::Shared(s) => assert!(s.contains(&1)),
            other => panic!("{other:?}"),
        }
        h.b.check_quiescent().unwrap();
    }

    #[test]
    fn queued_requests_serve_in_order() {
        let mut h = Harness::new();
        h.write(0, 0, 1);
        // Two reads and a write arrive while the dirty fetch is pending.
        let r1 = h.b.read_req(1);
        let r2 = h.b.read_req(2);
        let w3 = h.b.write_req(3, 0, 9);
        // deliver all requests first (directory queues 2 of them)
        h.send(r1);
        h.send(r2);
        h.send(w3);
        h.drain();
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
        let mut h = Harness::new();
        h.write(0, 0, 1);
        h.messages = 0;
        for i in 0..10u64 {
            h.write(1, 1, i); // node 1 writes word 1
            h.write(0, 0, i); // node 0 writes word 0
        }
        // each write after the first costs a 4-hop ownership transfer
        assert!(
            h.messages >= 20 * 4,
            "expected ping-pong traffic, got {} messages",
            h.messages
        );
        // no update was lost despite the transfers
        assert_eq!(h.b.local_read(0, 0), Some(9));
        assert_eq!(h.b.local_read(0, 1), Some(9));
    }

    #[test]
    fn test_and_set_requires_ownership() {
        // the machine's TTS test-and-set is a local read then a local
        // write of word 0, which only a writable copy accepts
        let mut h = Harness::new();
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
            let mut h = Harness::new();
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
                        h.drain();
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
    use std::collections::VecDeque;

    struct H {
        b: WbiBlock,
        wire: VecDeque<CohMsg>,
        invalidated: Vec<NodeId>,
    }

    impl H {
        fn new(limit: usize) -> Self {
            Self {
                b: WbiBlock::with_sharer_limit(4, limit),
                wire: VecDeque::new(),
                invalidated: Vec::new(),
            }
        }

        fn read(&mut self, n: NodeId) {
            let m = self.b.read_req(n);
            self.wire.extend(m);
            self.drain();
        }

        fn drain(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (ms, eff) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.wire.extend(ms);
                for e in eff {
                    if let CohEffect::Invalidated { node } = e {
                        self.invalidated.push(node);
                    }
                }
            }
        }
    }

    #[test]
    fn within_limit_no_evictions() {
        let mut h = H::new(4);
        for n in 0..4 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 0);
        assert!(h.invalidated.is_empty());
    }

    #[test]
    fn overflow_evicts_a_sharer() {
        let mut h = H::new(2);
        for n in 0..3 {
            h.read(n);
        }
        assert_eq!(h.b.dir_evictions(), 1);
        assert_eq!(h.invalidated.len(), 1);
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
        let mut h = H::new(1);
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
        let mut h = H::new(1);
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
        let mut h = H::new(2);
        h.read(0);
        h.read(1);
        let m = h.b.write_req(2, 0, 9);
        h.wire.extend(m);
        h.drain();
        assert!(h.b.local_write(2, 0, 9));
        assert_eq!(h.b.dir_state(), &DirState::Modified(2));
    }
}

#[cfg(test)]
mod mesi_tests {
    use super::*;
    use std::collections::VecDeque;

    struct H {
        b: WbiBlock,
        wire: VecDeque<CohMsg>,
        messages: usize,
    }

    impl H {
        fn new(mesi: bool) -> Self {
            Self {
                b: if mesi {
                    WbiBlock::with_mesi(4)
                } else {
                    WbiBlock::new(4)
                },
                wire: VecDeque::new(),
                messages: 0,
            }
        }

        fn send(&mut self, msgs: Vec<CohMsg>) {
            self.messages += msgs.len();
            self.wire.extend(msgs);
            while let Some(m) = self.wire.pop_front() {
                let (ms, _) = self.b.deliver(m);
                self.b.check_single_writer().unwrap();
                self.messages += ms.len();
                self.wire.extend(ms);
            }
        }
    }

    #[test]
    fn sole_reader_gets_exclusive_clean() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        assert_eq!(h.b.line_state(0), Some(LineState::Exclusive));
    }

    #[test]
    fn silent_upgrade_costs_nothing() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        let before = h.messages;
        assert!(h.b.local_write(0, 1, 42), "E line must accept the write");
        assert_eq!(h.messages, before, "the E -> M upgrade is silent");
        assert_eq!(h.b.line_state(0), Some(LineState::Modified));
    }

    #[test]
    fn msi_needs_an_upgrade_transaction() {
        let mut h = H::new(false);
        let m = h.b.read_req(0);
        h.send(m);
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert!(
            !h.b.local_write(0, 1, 42),
            "MSI shared line cannot be written"
        );
        let m = h.b.write_req(0, 1, 42);
        h.send(m); // upgrade round trip
        assert!(h.b.local_write(0, 1, 42));
    }

    #[test]
    fn read_then_write_message_counts_mesi_vs_msi() {
        let count = |mesi: bool| {
            let mut h = H::new(mesi);
            let m = h.b.read_req(0);
            h.send(m);
            if !h.b.local_write(0, 0, 1) {
                let m = h.b.write_req(0, 0, 1);
                h.send(m);
                assert!(h.b.local_write(0, 0, 1));
            }
            h.messages
        };
        assert_eq!(count(true), 2, "MESI: read + E grant");
        assert_eq!(count(false), 4, "MSI: read + data + upgrade + ack");
    }

    #[test]
    fn second_reader_downgrades_the_e_copy() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        let m = h.b.read_req(1);
        h.send(m); // fetch-shared from the E owner
        assert_eq!(h.b.line_state(0), Some(LineState::Shared));
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
        match h.b.dir_state() {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn silently_dropped_e_line_resolves_via_race() {
        let mut h = H::new(true);
        let m = h.b.read_req(0);
        h.send(m);
        // replace the clean E line: silent, directory still names node 0
        let wb = h.b.replace(0);
        assert!(wb.is_empty(), "clean replacement is silent");
        // next reader: fetch misses at node 0, WbRace serves from memory
        let m = h.b.read_req(1);
        h.send(m);
        // the race path serves the read from memory as a shared copy
        assert_eq!(h.b.line_state(1), Some(LineState::Shared));
    }
}
