//! The one wire envelope every protocol controller speaks.
//!
//! RIC update lists, CBL lock queues, the hardware barrier and semaphores
//! are all built from one linked-list mechanism over one network, and the
//! comparison coherence backends share the same message/timing model. So
//! their messages share one header (sender, receiver, payload size) around
//! a controller-specific kind: `CblMsg` is `Msg<CblKind>`, and so on, and
//! the machine routes all of them as one type.

use crate::addr::NodeId;

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
}
