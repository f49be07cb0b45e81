//! The one wire envelope every protocol controller speaks, the outbox it
//! speaks into, and the effect vocabulary of the data-line controllers.
//!
//! RIC update lists, CBL lock queues, the hardware barrier and semaphores
//! are all built from one linked-list mechanism over one network, and the
//! comparison coherence backends share the same message/timing model. So
//! their messages share one header (sender, receiver, payload size) around
//! a controller-specific kind: `CblMsg` is `Msg<CblKind>`, and so on, and
//! the machine routes all of them as one type. A delivery pushes its
//! follow-on messages and effects into a caller-owned [`Outbox`], which
//! the caller drains and reuses, so steady-state deliveries allocate
//! nothing.

use crate::addr::NodeId;
use crate::line::BlockData;

/// A message endpoint: a node's cache, or the block's home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A node (cache controller).
    Node(NodeId),
    /// The home directory / memory module of the block.
    Dir,
}

/// A protocol message: the wire header around a protocol-specific `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg<K> {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Payload size in words (1 for control; the block size when block
    /// data rides along). Sets the wire cost.
    pub words: u32,
    /// Protocol content.
    pub kind: K,
}

impl<K> Msg<K> {
    /// A one-word control message.
    pub fn ctl(src: Endpoint, dst: Endpoint, kind: impl Into<K>) -> Self {
        Self::data(src, dst, 1, kind)
    }

    /// A message carrying `words` words of block data.
    pub fn data(src: Endpoint, dst: Endpoint, words: u32, kind: impl Into<K>) -> Self {
        Self {
            src,
            dst,
            words,
            kind: kind.into(),
        }
    }

    /// Whether block data rides along (more than one word).
    pub fn carries_data(&self) -> bool {
        self.words > 1
    }

    /// The same header around another kind.
    pub fn with_kind<J>(&self, kind: J) -> Msg<J> {
        Msg {
            src: self.src,
            dst: self.dst,
            words: self.words,
            kind,
        }
    }
}

/// What one delivery produced: the messages it puts on the wire and the
/// effects it reports, each in emission order. Every controller's
/// `deliver_into` appends here; the caller owns the outbox, drains it,
/// and reuses it, so its buffers stop growing once warm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outbox<K, E> {
    /// Messages to route.
    pub msgs: Vec<Msg<K>>,
    /// Effects to apply.
    pub effects: Vec<E>,
}

impl<K, E> Default for Outbox<K, E> {
    fn default() -> Self {
        Self {
            msgs: Vec::new(),
            effects: Vec::new(),
        }
    }
}

impl<K, E> Outbox<K, E> {
    /// Sends a one-word control message.
    pub fn ctl(&mut self, src: Endpoint, dst: Endpoint, kind: impl Into<K>) {
        self.msgs.push(Msg::ctl(src, dst, kind));
    }

    /// Sends a message carrying `words` words of block data.
    pub fn data(&mut self, src: Endpoint, dst: Endpoint, words: u32, kind: impl Into<K>) {
        self.msgs.push(Msg::data(src, dst, words, kind));
    }

    /// Reports an effect.
    pub fn effect(&mut self, e: E) {
        self.effects.push(e);
    }

    /// Runs `deliver` against a fresh outbox and returns its buffers: the
    /// Vec-returning form of a `deliver_into`.
    pub fn collect(deliver: impl FnOnce(&mut Self)) -> (Vec<Msg<K>>, Vec<E>) {
        let mut out = Self::default();
        deliver(&mut out);
        (out.msgs, out.effects)
    }
}

/// What a data-line controller reports to the machine. The first five are
/// the invalidate lifecycle (WBI, MESI); the next three exist for Dragon,
/// whose stores complete *in-protocol* (the home applies the word and
/// multicasts it) instead of through a local write after an ownership
/// grant; the last three are RIC's write-buffer completion, `READ-GLOBAL`
/// reply and dropped push. A RIC fill is `FilledShared` with the installed
/// copy, and a RIC push is `UpdateApplied { word: 0 }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CohEffect {
    /// A shared copy arrived at `node`.
    FilledShared {
        /// Receiving node.
        node: NodeId,
        /// Block contents.
        data: BlockData,
    },
    /// An exclusive copy arrived at `node`; the pending store may proceed.
    FilledExcl {
        /// Receiving node.
        node: NodeId,
        /// Block contents.
        data: BlockData,
    },
    /// Ownership arrived without data (requester already had the block).
    UpgradeGranted {
        /// Receiving node.
        node: NodeId,
    },
    /// The node's copy was invalidated (write elsewhere).
    Invalidated {
        /// The invalidated node.
        node: NodeId,
    },
    /// The node's exclusive copy was downgraded to shared (read elsewhere).
    Downgraded {
        /// The downgraded node.
        node: NodeId,
    },
    /// A pushed update reached `node`'s cached copy (a Dragon multicast,
    /// or a RIC push down the update list).
    UpdateApplied {
        /// The updated sharer.
        node: NodeId,
        /// The word that changed (0 for a RIC push, which carries the
        /// whole block).
        word: u8,
    },
    /// A store was serialized at home memory (Dragon): the written value
    /// is globally visible from this point — the provenance oracle must
    /// learn it *before* any pushed copy is read.
    StoreSerialized {
        /// The writing node.
        node: NodeId,
        /// Written word.
        word: u8,
        /// Written value.
        value: u64,
    },
    /// The writer's update transaction completed (Dragon): the pending
    /// store is done without a local write — the protocol already applied
    /// it everywhere.
    StoreComplete {
        /// The writing node.
        node: NodeId,
    },
    /// The node's buffered global write `wid` is performed at memory
    /// (RIC `WRITE-GLOBAL`); its write-buffer entry retires.
    WriteDone {
        /// Writing node.
        node: NodeId,
        /// Write-buffer id.
        wid: u64,
    },
    /// A `READ-GLOBAL` result, read straight from memory (RIC).
    ReadValue {
        /// Requesting node.
        node: NodeId,
        /// Word offset.
        word: u8,
        /// Value read.
        value: u64,
    },
    /// A push reached a node that had left the update list; dropped (RIC).
    UpdateDropped {
        /// The stale destination.
        node: NodeId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_is_one_word_and_data_is_not() {
        let c: Msg<u8> = Msg::ctl(Endpoint::Node(2), Endpoint::Dir, 7u8);
        assert_eq!(
            (c.src, c.dst, c.words, c.kind),
            (Endpoint::Node(2), Endpoint::Dir, 1, 7)
        );
        assert!(!c.carries_data());
        let d: Msg<u8> = Msg::data(Endpoint::Dir, Endpoint::Node(0), 4, 9u8);
        assert_eq!(d.words, 4);
        assert!(d.carries_data());
        let w = d.with_kind("grant");
        assert_eq!((w.src, w.dst, w.words, w.kind), (d.src, d.dst, 4, "grant"));
    }

    #[test]
    fn outbox_collects_in_emission_order() {
        let (msgs, effects) = Outbox::<u8, &str>::collect(|out| {
            out.ctl(Endpoint::Node(1), Endpoint::Dir, 3u8);
            out.effect("a");
            out.data(Endpoint::Dir, Endpoint::Node(1), 4, 5u8);
            out.effect("b");
        });
        assert_eq!(
            msgs,
            vec![
                Msg::ctl(Endpoint::Node(1), Endpoint::Dir, 3u8),
                Msg::data(Endpoint::Dir, Endpoint::Node(1), 4, 5u8),
            ]
        );
        assert_eq!(effects, vec!["a", "b"]);
    }
}
