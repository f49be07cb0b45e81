//! # ssmp-coherence
//!
//! The pluggable coherence-protocol zoo. The machine simulator drives the
//! coherence of every line through one object-safe [`CoherenceProtocol`]
//! trait; three backends implement it:
//!
//! * the WBI **directory** baseline ([`WbiBlock`]) — the paper's blocking
//!   home-directory MSI protocol. Besides shared data under `--protocol
//!   wbi`, its lines hold the TTS spin locks and the software barrier's
//!   release flag, which are ordinary cache lines in the paper's baseline;
//! * **snooping MESI** ([`MesiBlock`]) — write-invalidate with broadcast
//!   snoops: every write transaction without a known owner interrogates
//!   *every* other cache and waits for all acknowledgements, the O(n)
//!   per-write cost that motivates directories in the first place;
//! * **Dragon** ([`DragonBlock`]) — write-update: a store to a shared line
//!   multicasts the new word to every cached copy instead of invalidating,
//!   so spinning readers stay cache-resident (the behavior the paper's RIC
//!   update lists emulate for enrolled readers).
//!
//! All three share the machine's message/timing model and one
//! centralized per-block home controller (the private `home` module:
//! memory copy, per-node lines, one blocking transaction and its queue);
//! each backend adds only its line states, transitions and invariants.
//! [`CohMsg`]s — the shared
//! [`ssmp_core::msg::Msg`] envelope around a [`CohKind`] — are timing
//! tokens (source, destination, payload size, kind) whose data travels
//! implicitly through the controller.
//!
//! The paper's own scheme, RIC, has the same per-block shape:
//! [`ssmp_core::ric::UpdateList`] holds memory, the update-list links and
//! every node's cached copy, and it reports through the same
//! [`CohEffect`] vocabulary (defined in `ssmp-core` and re-exported
//! here), so the machine applies all four backends' effects on one path.
//! It stays outside the trait because its stores drain through the write
//! buffer as `WRITE-GLOBAL`s that retire by write id.

#![warn(missing_docs)]

pub mod dragon;
mod home;
pub mod mesi;
pub mod wbi;

pub use dragon::{DragonBlock, DragonKind, DragonState};
pub use mesi::{MesiBlock, MesiKind};
pub use wbi::{WbiBlock, WbiKind};

use ssmp_core::addr::NodeId;
use ssmp_core::msg::{Msg, Outbox};

pub use ssmp_core::msg::CohEffect;

/// Protocol content of a coherence message, tagged by backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohKind {
    /// A WBI directory-protocol message.
    Wbi(WbiKind),
    /// A snooping-MESI message.
    Mesi(MesiKind),
    /// A Dragon write-update message.
    Dragon(DragonKind),
}

impl From<WbiKind> for CohKind {
    fn from(k: WbiKind) -> Self {
        Self::Wbi(k)
    }
}

impl From<MesiKind> for CohKind {
    fn from(k: MesiKind) -> Self {
        Self::Mesi(k)
    }
}

impl From<DragonKind> for CohKind {
    fn from(k: DragonKind) -> Self {
        Self::Dragon(k)
    }
}

/// A coherence protocol message: pure timing token (block data travels
/// implicitly through the centralized controller; `words` only sets the
/// wire cost). A backend builds it from its own kind, which converts into
/// [`CohKind`].
pub type CohMsg = Msg<CohKind>;

/// Where a backend's delivery puts its messages and effects.
pub type CohOutbox = Outbox<CohKind, CohEffect>;

/// One shared data block's coherence backend, as the machine sees it.
///
/// The machine calls `local_read`/`local_write` on the issuing node's
/// behalf (hit path), falls back to `read_req`/`write_req` on a miss, and
/// feeds every delivered [`CohMsg`] back through `deliver_into`, applying
/// the effects and routing the messages it left in the outbox. The remaining
/// methods serve the finish-time memory view, watchdog line summaries,
/// and the sanitizer's per-protocol invariants.
pub trait CoherenceProtocol {
    /// Reads `word` from `node`'s cached copy, if it has one.
    fn local_read(&self, node: NodeId, word: u8) -> Option<u64>;

    /// Writes through `node`'s copy if its state permits a silent write
    /// (Modified, or Exclusive-clean upgrading silently). Returns whether
    /// the write hit; a miss must go through [`CoherenceProtocol::write_req`].
    fn local_write(&mut self, node: NodeId, word: u8, value: u64) -> bool;

    /// Starts a read transaction for `node`; returns the request wire(s).
    fn read_req(&mut self, node: NodeId) -> Vec<CohMsg>;

    /// Starts a write transaction for `node`. Invalidate backends ignore
    /// `word`/`value` (the store happens locally after the ownership
    /// grant); Dragon carries them to home, where the store serializes.
    fn write_req(&mut self, node: NodeId, word: u8, value: u64) -> Vec<CohMsg>;

    /// Processes a delivered message, appending follow-on wires and
    /// effects to `out`.
    fn deliver_into(&mut self, msg: CohMsg, out: &mut CohOutbox);

    /// The Vec-returning form of [`CoherenceProtocol::deliver_into`]:
    /// delivers into a fresh outbox and returns its messages and effects.
    fn deliver(&mut self, msg: CohMsg) -> (Vec<CohMsg>, Vec<CohEffect>) {
        Outbox::collect(|out| self.deliver_into(msg, out))
    }

    /// The coherent value of `word` at quiescence: the exclusive owner's
    /// copy if one exists, else home memory.
    fn coherent_word(&self, word: u8) -> u64;

    /// The exclusive owner, if any (watchdog line summaries).
    fn owner(&self) -> Option<NodeId>;

    /// Nodes holding shared copies, ascending (watchdog line summaries).
    fn sharers(&self) -> Vec<NodeId>;

    /// Directory entries evicted by capacity limits (limited-directory
    /// WBI ablation; 0 for the full-map backends).
    fn dir_evictions(&self) -> u64 {
        0
    }

    /// Single-writer invariant: at most one writable copy, and a writable
    /// copy excludes all others.
    fn check_single_writer(&self) -> Result<(), String>;

    /// Quiescence invariant: no transaction in flight and control state
    /// consistent with the cached copies (for Dragon, additionally every
    /// shared copy byte-equal to home memory — update coherence).
    fn check_quiescent(&self) -> Result<(), String>;

    /// Sanitizer tag for [`CoherenceProtocol::check_single_writer`].
    fn swmr_invariant(&self) -> &'static str;

    /// Sanitizer tag for [`CoherenceProtocol::check_quiescent`].
    fn quiescent_invariant(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Drives a backend by delivering every in-flight message FIFO,
    /// checking single-writer after each delivery and collecting effects.
    pub(crate) struct Harness<B: ?Sized> {
        wire: VecDeque<CohMsg>,
        pub effects: Vec<CohEffect>,
        /// Every message sent so far, requests included.
        pub sent: Vec<CohMsg>,
        pub b: Box<B>,
    }

    impl<B: CoherenceProtocol + ?Sized> Harness<B> {
        pub fn new(b: Box<B>) -> Self {
            Self {
                wire: VecDeque::new(),
                effects: Vec::new(),
                sent: Vec::new(),
                b,
            }
        }

        pub fn send(&mut self, msgs: Vec<CohMsg>) {
            self.sent.extend(msgs.iter().copied());
            self.wire.extend(msgs);
        }

        pub fn pump(&mut self) {
            while let Some(m) = self.wire.pop_front() {
                let (msgs, effects) = self.b.deliver(m);
                self.b
                    .check_single_writer()
                    .expect("single-writer violated mid-protocol");
                self.effects.extend(effects);
                self.send(msgs);
            }
        }

        pub fn read(&mut self, node: NodeId) {
            let msgs = self.b.read_req(node);
            self.send(msgs);
            self.pump();
        }

        pub fn write(&mut self, node: NodeId, word: u8, value: u64) {
            if self.b.local_write(node, word, value) {
                return;
            }
            let start = self.effects.len();
            let msgs = self.b.write_req(node, word, value);
            self.send(msgs);
            self.pump();
            // Dragon completes the store in-protocol; the invalidate
            // backends store locally after the ownership grant
            let done = self.effects[start..].contains(&CohEffect::StoreComplete { node });
            assert!(
                done || self.b.local_write(node, word, value),
                "store after ownership"
            );
        }

        /// The nodes invalidated so far, in order.
        pub fn invalidated(&self) -> Vec<NodeId> {
            let node = |e: &CohEffect| match *e {
                CohEffect::Invalidated { node } => Some(node),
                _ => None,
            };
            self.effects.iter().filter_map(node).collect()
        }
    }

    fn backends() -> Vec<(&'static str, Box<dyn CoherenceProtocol>)> {
        vec![
            ("wbi", Box::new(WbiBlock::new(4))),
            ("mesi", Box::new(MesiBlock::new(4, 4))),
            ("dragon", Box::new(DragonBlock::new(4))),
        ]
    }

    #[test]
    fn every_backend_serializes_writes_coherently() {
        for (name, b) in backends() {
            let mut h = Harness::new(b);
            h.read(0);
            h.read(1);
            h.write(2, 1, 77);
            h.write(0, 2, 88);
            h.pump();
            h.b.check_quiescent()
                .unwrap_or_else(|e| panic!("{name}: not quiescent: {e}"));
            assert_eq!(h.b.coherent_word(1), 77, "{name}: lost write to word 1");
            assert_eq!(h.b.coherent_word(2), 88, "{name}: lost write to word 2");
        }
    }

    #[test]
    fn every_backend_reads_back_the_latest_write() {
        for (name, b) in backends() {
            let mut h = Harness::new(b);
            h.write(3, 0, 11);
            h.pump();
            h.read(1);
            h.pump();
            let v = h.b.local_read(1, 0);
            assert_eq!(v, Some(11), "{name}: reader missed the write");
            h.b.check_quiescent().unwrap();
        }
    }

    #[test]
    fn invariant_tags_are_distinct_per_backend() {
        let tags: Vec<(&str, &str)> = backends()
            .into_iter()
            .map(|(_, b)| (b.swmr_invariant(), b.quiescent_invariant()))
            .collect();
        assert_eq!(
            tags,
            vec![
                ("wbi.swmr", "wbi.quiescent"),
                ("mesi.swmr", "mesi.quiescent"),
                ("dragon.swmr", "dragon.update_coherence"),
            ]
        );
    }

    #[test]
    fn mesi_writes_broadcast_snoops() {
        // a write with no tracked owner interrogates every other node —
        // O(n). Two readers first: the second read downgrades the first
        // reader's Exclusive-clean line, leaving owner-less sharers.
        let mut h = Harness::new(Box::new(MesiBlock::new(4, 8)));
        h.read(0);
        h.read(1);
        h.write(2, 0, 5);
        h.pump();
        let invs = h
            .sent
            .iter()
            .filter(|m| matches!(m.kind, CohKind::Mesi(MesiKind::Inv)))
            .count();
        assert_eq!(invs, 7, "snooping MESI must invalidate all n-1 others");
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, CohEffect::Invalidated { node: 0 })));
        assert_eq!(h.b.local_read(0, 0), None, "sharer 0 must lose its copy");
    }

    #[test]
    fn dragon_writes_update_instead_of_invalidating() {
        let mut h = Harness::new(Box::new(DragonBlock::new(4)));
        h.read(0);
        h.read(1);
        h.write(2, 0, 42);
        h.pump();
        // both sharers keep their copies and see the new value
        assert_eq!(h.b.local_read(0, 0), Some(42));
        assert_eq!(h.b.local_read(1, 0), Some(42));
        assert!(!h
            .effects
            .iter()
            .any(|e| matches!(e, CohEffect::Invalidated { .. })));
        let pushes = h
            .effects
            .iter()
            .filter(|e| matches!(e, CohEffect::UpdateApplied { .. }))
            .count();
        assert_eq!(pushes, 2, "both sharers receive the multicast update");
        // serialization precedes completion
        let ser = h
            .effects
            .iter()
            .position(|e| matches!(e, CohEffect::StoreSerialized { .. }))
            .unwrap();
        let done = h
            .effects
            .iter()
            .position(|e| matches!(e, CohEffect::StoreComplete { .. }))
            .unwrap();
        assert!(ser < done);
        h.b.check_quiescent().unwrap();
    }
}
