//! Hardware barrier synchronization over the linked-list machinery.
//!
//! The paper's Table 3 costs a CBL-style barrier as: **barrier request** =
//! 2 messages (`2(t_nw + t_m)` — an atomic decrement at the memory module
//! plus its acknowledgment), and **barrier notify** = `n` messages
//! (`2t_nw + (n-1)t_D` — the last arriver's request reaches memory, memory
//! releases the head waiter, and the release notification chains down the
//! waiter list, one directory/cache check per hop).
//!
//! Arrivals enroll in a waiter list (the same cache-line linked list used
//! by read-update and CBL, with the central directory holding the head);
//! the last arriver triggers the release chain. The barrier is reusable
//! (episode counter), which the machine uses for iterative workloads.

use crate::addr::NodeId;
use crate::msg::{Endpoint, Msg};

/// Barrier protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarKind {
    /// Node → directory: arrive at the barrier (atomic decrement).
    Arrive,
    /// Directory → node: arrival recorded; wait for release.
    Ack,
    /// Directory → head waiter, then waiter → waiter: barrier passed.
    Release,
}

/// A barrier protocol message (all control-sized).
pub type BarMsg = Msg<BarKind>;

/// Externally visible barrier effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarEffect {
    /// The node has passed the barrier and may resume.
    Passed {
        /// The resuming node.
        node: NodeId,
        /// Barrier episode that completed.
        episode: u64,
    },
}

/// How the release notification propagates to the waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReleaseShape {
    /// The paper's linear chain down the waiter list: `n` messages,
    /// O(n) depth (Table 3's `2t_nw + (n−1)t_D`).
    Chain,
    /// A binary fan-out over the waiter list: still `n − 1` messages but
    /// O(log n) depth — the obvious latency improvement the linked-list
    /// hardware also supports (each line knows its successors).
    Tree,
}

/// A reusable hardware barrier for `n` participants.
#[derive(Debug, Clone)]
pub struct HwBarrier {
    n: usize,
    /// Waiters of the current episode, in arrival order (the release chain
    /// follows this order).
    waiters: Vec<NodeId>,
    /// Waiter chain of the episode currently being released.
    release_chain: Vec<NodeId>,
    shape: ReleaseShape,
    episode: u64,
}

impl HwBarrier {
    /// Creates a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            n,
            waiters: Vec::with_capacity(n),
            release_chain: Vec::new(),
            shape: ReleaseShape::Chain,
            episode: 0,
        }
    }

    /// Creates a barrier whose release fans out as a binary tree (O(log n)
    /// notify depth instead of the paper's O(n) chain).
    pub fn with_tree_release(n: usize) -> Self {
        let mut b = Self::new(n);
        b.shape = ReleaseShape::Tree;
        b
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Completed episodes so far.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    /// Arrivals recorded in the current episode.
    pub fn arrived(&self) -> usize {
        self.waiters.len()
    }

    /// Processor arrives at the barrier.
    pub fn arrive(&mut self, node: NodeId) -> Vec<BarMsg> {
        vec![Msg::ctl(
            Endpoint::Node(node),
            Endpoint::Dir,
            BarKind::Arrive,
        )]
    }

    /// Delivers a barrier message.
    pub fn deliver(&mut self, msg: BarMsg) -> (Vec<BarMsg>, Vec<BarEffect>) {
        match (msg.dst, msg.kind) {
            (Endpoint::Dir, BarKind::Arrive) => {
                let Endpoint::Node(src) = msg.src else {
                    panic!("arrive from directory")
                };
                assert!(
                    !self.waiters.contains(&src),
                    "node {src} arrived twice in one episode"
                );
                self.waiters.push(src);
                if self.waiters.len() == self.n {
                    // Last arriver: release the chain. It passes locally
                    // (its Ack is the release) and the head waiter gets the
                    // first release message.
                    let episode = self.episode;
                    self.episode += 1;
                    let mut msgs = Vec::new();
                    let mut effects = vec![BarEffect::Passed { node: src, episode }];
                    let chain: Vec<NodeId> = self.waiters.drain(..).filter(|&w| w != src).collect();
                    if let Some(&head) = chain.first() {
                        msgs.push(Msg::ctl(
                            Endpoint::Dir,
                            Endpoint::Node(head),
                            BarKind::Release,
                        ));
                    }
                    // Stash the chain for the release propagation.
                    self.release_chain = chain;
                    (msgs, std::mem::take(&mut effects))
                } else {
                    (vec![Msg::ctl(Endpoint::Dir, msg.src, BarKind::Ack)], vec![])
                }
            }
            (Endpoint::Node(_), BarKind::Ack) => (vec![], vec![]),
            (Endpoint::Node(node), BarKind::Release) => {
                let episode = self.episode - 1;
                let pos = self
                    .release_chain
                    .iter()
                    .position(|&w| w == node)
                    .expect("release delivered to a non-waiter");
                let mut msgs = Vec::new();
                match self.shape {
                    ReleaseShape::Chain => {
                        if let Some(&next) = self.release_chain.get(pos + 1) {
                            msgs.push(Msg::ctl(
                                Endpoint::Node(node),
                                Endpoint::Node(next),
                                BarKind::Release,
                            ));
                        }
                    }
                    ReleaseShape::Tree => {
                        // binary heap indexing over the waiter list
                        for child in [2 * pos + 1, 2 * pos + 2] {
                            if let Some(&next) = self.release_chain.get(child) {
                                msgs.push(Msg::ctl(
                                    Endpoint::Node(node),
                                    Endpoint::Node(next),
                                    BarKind::Release,
                                ));
                            }
                        }
                    }
                }
                (msgs, vec![BarEffect::Passed { node, episode }])
            }
            other => panic!("barrier cannot handle {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_episode(b: &mut HwBarrier, order: &[NodeId]) -> (Vec<NodeId>, usize) {
        let mut passed = Vec::new();
        let mut messages = 0;
        let mut wire = std::collections::VecDeque::new();
        for (i, &n) in order.iter().enumerate() {
            let ms = b.arrive(n);
            messages += ms.len();
            wire.extend(ms);
            // drain after each arrival except we keep going regardless
            while let Some(m) = wire.pop_front() {
                let (ms, eff) = b.deliver(m);
                messages += ms.len();
                wire.extend(ms);
                for e in eff {
                    let BarEffect::Passed { node, .. } = e;
                    passed.push(node);
                }
            }
            if i < order.len() - 1 {
                assert!(passed.is_empty(), "released before all arrived");
            }
        }
        (passed, messages)
    }

    #[test]
    fn releases_only_when_all_arrive() {
        let mut b = HwBarrier::new(4);
        let (passed, _) = run_episode(&mut b, &[2, 0, 3, 1]);
        let mut sorted = passed.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // last arriver passes first (local release), then chain in arrival order
        assert_eq!(passed[0], 1);
        assert_eq!(&passed[1..], &[2, 0, 3]);
    }

    #[test]
    fn message_count_matches_table3() {
        // Table 3: request = 2 messages per non-last processor; notify = n
        // messages. Total for n processors: 2(n-1) + n.
        for n in [2usize, 4, 8, 16] {
            let mut b = HwBarrier::new(n);
            let order: Vec<NodeId> = (0..n).collect();
            let (_, messages) = run_episode(&mut b, &order);
            assert_eq!(messages, 2 * (n - 1) + n, "n={n}");
        }
    }

    #[test]
    fn single_participant_passes_immediately() {
        let mut b = HwBarrier::new(1);
        let (passed, messages) = run_episode(&mut b, &[0]);
        assert_eq!(passed, vec![0]);
        assert_eq!(messages, 1, "only the arrive message");
    }

    #[test]
    fn reusable_across_episodes() {
        let mut b = HwBarrier::new(3);
        for ep in 0..5u64 {
            assert_eq!(b.episode(), ep);
            let (passed, _) = run_episode(&mut b, &[0, 1, 2]);
            assert_eq!(passed.len(), 3);
        }
        assert_eq!(b.episode(), 5);
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut b = HwBarrier::new(3);
        let m = b.arrive(0);
        b.deliver(m[0]);
        let m = b.arrive(0);
        b.deliver(m[0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any arrival order releases everyone exactly once per episode,
        /// and the barrier never releases early.
        #[test]
        fn prop_arrival_orders(n in 2usize..12, seed: u64, episodes in 1usize..4) {
            let mut b = HwBarrier::new(n);
            let mut rng = ssmp_engine::SimRng::new(seed);
            for ep in 0..episodes {
                let mut order: Vec<NodeId> = (0..n).collect();
                rng.shuffle(&mut order);
                let mut passed = Vec::new();
                let mut wire = std::collections::VecDeque::new();
                for (i, &node) in order.iter().enumerate() {
                    wire.extend(b.arrive(node));
                    while let Some(m) = wire.pop_front() {
                        let (ms, eff) = b.deliver(m);
                        wire.extend(ms);
                        for e in eff {
                            let BarEffect::Passed { node, episode } = e;
                            prop_assert_eq!(episode, ep as u64);
                            passed.push(node);
                        }
                    }
                    if i + 1 < n {
                        prop_assert!(passed.is_empty(), "released before all arrived");
                    }
                }
                let mut sorted = passed.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            }
        }
    }
}

#[cfg(test)]
mod tree_tests {
    use super::*;

    /// Drains a full episode, returning (passed order, messages, depth):
    /// depth = longest causal release path in hops.
    fn episode_with_depth(b: &mut HwBarrier, n: usize) -> (Vec<NodeId>, usize, usize) {
        let mut passed = Vec::new();
        let mut messages = 0;
        // wire entries carry the hop depth of the message
        let mut wire: std::collections::VecDeque<(BarMsg, usize)> = Default::default();
        let mut max_depth = 0;
        for node in 0..n {
            for m in b.arrive(node) {
                messages += 1;
                wire.push_back((m, 0));
            }
            while let Some((m, d)) = wire.pop_front() {
                let (ms, eff) = b.deliver(m);
                for m2 in ms {
                    messages += 1;
                    wire.push_back((m2, d + 1));
                    max_depth = max_depth.max(d + 1);
                }
                for e in eff {
                    let BarEffect::Passed { node, .. } = e;
                    passed.push(node);
                }
            }
        }
        (passed, messages, max_depth)
    }

    #[test]
    fn tree_releases_everyone() {
        for n in [2usize, 3, 8, 16, 33] {
            let mut b = HwBarrier::with_tree_release(n);
            let (passed, _, _) = episode_with_depth(&mut b, n);
            let mut sorted = passed.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn tree_and_chain_same_message_count() {
        for n in [4usize, 16, 32] {
            let mut chain = HwBarrier::new(n);
            let mut tree = HwBarrier::with_tree_release(n);
            let (_, mc, _) = episode_with_depth(&mut chain, n);
            let (_, mt, _) = episode_with_depth(&mut tree, n);
            assert_eq!(mc, mt, "same traffic, different shape (n={n})");
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let mut chain = HwBarrier::new(32);
        let mut tree = HwBarrier::with_tree_release(32);
        let (_, _, dc) = episode_with_depth(&mut chain, 32);
        let (_, _, dt) = episode_with_depth(&mut tree, 32);
        assert_eq!(dc, 31, "chain: one hop per waiter");
        assert!(dt <= 6, "tree depth {dt} should be ~log2(31)");
    }

    #[test]
    fn tree_reusable_across_episodes() {
        let mut b = HwBarrier::with_tree_release(5);
        for _ in 0..3 {
            let (passed, _, _) = episode_with_depth(&mut b, 5);
            assert_eq!(passed.len(), 5);
        }
    }
}
