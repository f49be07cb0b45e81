//! The home controller every backend in this crate is built on.
//!
//! A block's home keeps memory's copy, every node's cached line, and one
//! blocking transaction with an arrival-order queue behind it. What does
//! not depend on the protocol lives here: the one-word request, sends
//! from home, installing memory's copy, the hit and silent-store paths, a
//! fill's payload, the coherent value, and the admit / ack / finish cycle
//! of the transaction slot. Each backend keeps its own line states,
//! transitions and invariants.

use std::collections::{BTreeMap, VecDeque};

use ssmp_core::addr::NodeId;
use ssmp_core::line::BlockData;
use ssmp_core::msg::{Endpoint, Msg};

use crate::{CohKind, CohMsg, CohOutbox};

/// A node's cached copy of the block, in a backend's line state `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Line<S> {
    pub state: S,
    pub data: BlockData,
}

/// Every node's line: the one place the per-node storage is named.
pub(crate) type Lines<S> = BTreeMap<NodeId, Line<S>>;

/// The transaction in flight: what `requester` asked for, and how many
/// acknowledgements it still waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pending<T> {
    pub txn: T,
    pub requester: NodeId,
    pub acks_left: usize,
}

/// One block's home: memory, the lines, and the blocking transaction
/// slot with the requests queued behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Home<S, T> {
    pub block_words: u32,
    pub mem: BlockData,
    pub lines: Lines<S>,
    pub busy: Option<Pending<T>>,
    pub queue: VecDeque<(NodeId, T)>,
}

/// `node`'s one-word request to the home.
pub(crate) fn request(node: NodeId, kind: impl Into<CohKind>) -> Vec<CohMsg> {
    vec![Msg::ctl(Endpoint::Node(node), Endpoint::Dir, kind)]
}

impl<S: Copy, T> Home<S, T> {
    /// An idle home of a zeroed `block_words`-word block, cached nowhere.
    pub fn new(block_words: u8) -> Self {
        Self {
            block_words: block_words.into(),
            mem: BlockData::new(block_words),
            lines: Lines::new(),
            busy: None,
            queue: VecDeque::new(),
        }
    }

    /// Sends `kind` from the home to `node`, with the block when `block`.
    pub fn send(&self, node: NodeId, kind: impl Into<CohKind>, block: bool, out: &mut CohOutbox) {
        let words = if block { self.block_words } else { 1 };
        out.data(Endpoint::Dir, Endpoint::Node(node), words, kind);
    }

    /// Installs memory's copy of the block at `node` in `state`.
    pub fn install(&mut self, node: NodeId, state: S) {
        let data = self.mem.clone();
        self.lines.insert(node, Line { state, data });
    }

    /// Reads `word` from `node`'s line, if it holds one.
    pub fn local_read(&self, node: NodeId, word: u8) -> Option<u64> {
        self.lines.get(&node).map(|l| l.data.get(word))
    }

    /// Stores silently if `node`'s line is in a state `owned` accepts,
    /// which leaves it `modified`; returns whether the store hit.
    pub fn local_write(
        &mut self,
        node: NodeId,
        word: u8,
        value: u64,
        owned: impl Fn(S) -> bool,
        modified: S,
    ) -> bool {
        match self.lines.get_mut(&node) {
            Some(l) if owned(l.state) => {
                l.state = modified;
                l.data.set(word, value);
                true
            }
            _ => false,
        }
    }

    /// A fill's payload: the copy installed at `node`, else memory.
    pub fn fill(&self, node: NodeId) -> BlockData {
        self.lines.get(&node).map_or(&self.mem, |l| &l.data).clone()
    }

    /// `word`'s value at quiescence: `owner`'s copy if it holds one, else
    /// memory.
    pub fn coherent_word(&self, owner: Option<NodeId>, word: u8) -> u64 {
        match owner.and_then(|o| self.lines.get(&o)) {
            Some(l) => l.data.get(word),
            None => self.mem.get(word),
        }
    }

    /// The nodes whose line state satisfies `pred`, ascending.
    pub fn holders<'a>(
        &'a self,
        pred: impl Fn(S) -> bool + 'a,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.lines
            .iter()
            .filter(move |(_, l)| pred(l.state))
            .map(|(&n, _)| n)
    }

    /// Hands `txn` back to begin now if the home is idle; otherwise
    /// queues it behind the transaction in flight.
    pub fn admit(&mut self, node: NodeId, txn: T) -> Option<T> {
        if self.busy.is_none() {
            return Some(txn);
        }
        self.queue.push_back((node, txn));
        None
    }

    /// The oldest queued request, once the home is idle.
    pub fn next_queued(&mut self) -> Option<(NodeId, T)> {
        match self.busy {
            Some(_) => None,
            None => self.queue.pop_front(),
        }
    }

    /// Makes `txn` the transaction in flight, waiting on `acks_left`
    /// acknowledgements (or on one reply when 0).
    pub fn wait(&mut self, requester: NodeId, txn: T, acks_left: usize) {
        self.busy = Some(Pending {
            txn,
            requester,
            acks_left,
        });
    }

    /// Counts one acknowledgement; returns the transaction, ended, with
    /// its last one.
    pub fn ack(&mut self) -> Option<Pending<T>> {
        let p = self.busy.as_mut().expect("ack with no transaction");
        p.acks_left -= 1;
        if p.acks_left > 0 {
            return None;
        }
        self.busy.take()
    }

    /// Ends the transaction in flight and returns it.
    pub fn finish(&mut self) -> Pending<T> {
        self.busy.take().expect("reply with no transaction")
    }
}
