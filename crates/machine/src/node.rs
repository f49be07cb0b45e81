//! Per-node state: processor status, lock cache, write buffer, and the
//! small state machines for software synchronization. A node's copies of
//! RIC blocks live with the block's controller (`ssmp_core::ric`).

use std::collections::{BTreeMap, VecDeque};

use ssmp_core::addr::NodeId;
use ssmp_core::lockcache::LockCache;
use ssmp_core::wbuf::WriteBuffer;
use ssmp_engine::{Cycle, SimRng};
use ssmp_wbi::Backoff;

use crate::op::{LockId, Op};

/// What a stalled processor is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// Running (not stalled).
    None,
    /// A data fill / ownership grant / read value from the memory system.
    Fill,
    /// A CBL lock grant.
    LockGrant(LockId),
    /// Completion of a CBL release (sequential consistency only).
    ReleaseDone(LockId),
    /// The node's own lock-cache line to drain (a re-request raced with
    /// the release acknowledgment of the same lock).
    LineFree(LockId),
    /// The barrier release.
    BarrierPass,
    /// A semaphore credit (P outstanding).
    SemGrant(usize),
    /// A semaphore V to be globally performed (sequential consistency).
    SemDone(usize),
    /// The write buffer to drain.
    Flush,
    /// Passively spinning: woken by an invalidation of the watched block.
    SpinInv(SpinTarget),
    /// A backoff timer.
    Timer,
}

/// Which cached variable a spinning processor watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinTarget {
    /// The lock variable of lock `LockId` (word 0 of its block).
    LockVar(LockId),
    /// The software barrier's release flag.
    Flag,
}

/// Software-synchronization state machine of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncCtx {
    /// Test-and-test-and-set acquire in progress.
    TtsLock {
        /// The lock being acquired.
        lock: LockId,
        /// Current phase.
        phase: TtsPhase,
    },
    /// TTS release in progress (waiting for ownership of the lock block).
    TtsUnlock {
        /// The lock being released.
        lock: LockId,
    },
    /// Software barrier: waiting for flag-block ownership to write the
    /// release flag.
    SwWriteFlag,
    /// Software barrier: waiting for a flag fill to test the sense.
    SwSpinFlag,
    /// A store waiting for ownership of a coherence line: a shared-data
    /// block, or (a locked write under TTS) a lock block.
    PendingStore {
        /// Target line (an index into the machine's line table).
        line: usize,
        /// Word to store.
        word: u8,
        /// Version stamp to store.
        value: u64,
    },
}

/// TTS acquire phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtsPhase {
    /// Read of the lock word outstanding.
    Fetch,
    /// Ownership request outstanding (attempting test-and-set).
    Acquire,
}

/// Machine-internal micro-operations injected ahead of the workload stream
/// (used to expand the software barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// An ordinary operation.
    Op(Op),
    /// Decrement the barrier counter (under the barrier lock).
    SwArrive,
    /// Last arriver: write the release flag.
    SwWriteFlag,
    /// Non-last arriver: spin on the release flag.
    SwSpinFlag,
}

/// One node of the machine.
#[derive(Debug)]
pub struct Node {
    /// Node id.
    pub id: NodeId,
    /// Node-private PRNG (forked from the machine seed).
    pub rng: SimRng,
    /// The fully-associative lock cache (capacity accounting for CBL).
    pub lock_cache: LockCache,
    /// The write buffer (buffered consistency).
    pub wbuf: WriteBuffer,
    /// Backoff state for the `Q-backoff` lock variant.
    pub backoff: Backoff,
    /// What the processor is stalled on.
    pub waiting: Waiting,
    /// Active software-synchronization state machine.
    pub sync: Option<SyncCtx>,
    /// Operation deferred behind a flush (re-executed when drained).
    pub pending_op: Option<Op>,
    /// Micro-ops to run before asking the workload again.
    pub injected: VecDeque<MicroOp>,
    /// Whether a write-buffer issue event is scheduled.
    pub wbuf_issue_scheduled: bool,
    /// Set when the stream is exhausted.
    pub done: bool,
    /// When the node retired.
    pub done_at: Cycle,
    /// A recorded read outstanding (litmus logging): the address whose
    /// fill value should be appended to the read log.
    pub pending_record: Option<ssmp_core::addr::SharedAddr>,
    /// An active `SpinUntilGlobal` poll: `(address, value to wait for)`.
    pub spin_global: Option<(ssmp_core::addr::SharedAddr, u64)>,
    /// Locks currently held (lock-order analysis).
    pub held_locks: std::collections::BTreeSet<LockId>,
    /// Started waiting for a lock at this cycle (wait-time histogram).
    pub lock_wait_start: Option<Cycle>,
    /// Operations completed.
    pub ops_completed: u64,
    /// Cycles spent stalled (approximate: stall start bookkeeping).
    pub stall_start: Option<Cycle>,
    /// Total stalled cycles.
    pub stalled_cycles: Cycle,
    /// Stalled cycles by cause (fill, lock, barrier, flush, spin, timer).
    pub stall_breakdown: BTreeMap<&'static str, Cycle>,
}

impl Node {
    /// Creates node `id` with forked RNG and sized lock cache and write
    /// buffer.
    pub fn new(
        id: NodeId,
        master: &SimRng,
        lock_cache_capacity: usize,
        wbuf_capacity: Option<usize>,
    ) -> Self {
        Self {
            id,
            rng: master.fork(id as u64),
            lock_cache: LockCache::new(lock_cache_capacity),
            wbuf: match wbuf_capacity {
                Some(n) => WriteBuffer::bounded(n),
                None => WriteBuffer::unbounded(),
            },
            backoff: Backoff::paper_default(),
            waiting: Waiting::None,
            sync: None,
            pending_op: None,
            injected: VecDeque::new(),
            wbuf_issue_scheduled: false,
            done: false,
            done_at: 0,
            pending_record: None,
            spin_global: None,
            held_locks: std::collections::BTreeSet::new(),
            lock_wait_start: None,
            ops_completed: 0,
            stall_start: None,
            stalled_cycles: 0,
            stall_breakdown: BTreeMap::new(),
        }
    }

    /// Coarse cause label for a wait state (also the `detail` of stall
    /// trace events and the column suffix of interval stall gauges).
    pub fn cause(w: Waiting) -> &'static str {
        match w {
            Waiting::None => "none",
            Waiting::Fill => "fill",
            Waiting::LockGrant(_) | Waiting::ReleaseDone(_) | Waiting::LineFree(_) => "lock",
            Waiting::BarrierPass => "barrier",
            Waiting::SemGrant(_) | Waiting::SemDone(_) => "semaphore",
            Waiting::Flush => "flush",
            Waiting::SpinInv(_) => "spin",
            Waiting::Timer => "timer",
        }
    }

    /// Marks the processor stalled on `w` starting at `now`.
    pub fn stall(&mut self, w: Waiting, now: Cycle) {
        debug_assert_eq!(self.waiting, Waiting::None, "node {} double stall", self.id);
        self.waiting = w;
        self.stall_start = Some(now);
    }

    /// Clears a stall at `now`, accumulating stalled cycles by cause.
    pub fn unstall(&mut self, now: Cycle) {
        if let Some(s) = self.stall_start.take() {
            let d = now.saturating_sub(s);
            self.stalled_cycles += d;
            *self
                .stall_breakdown
                .entry(Self::cause(self.waiting))
                .or_insert(0) += d;
        }
        self.waiting = Waiting::None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting() {
        let master = SimRng::new(1);
        let mut n = Node::new(0, &master, 8, None);
        n.stall(Waiting::Fill, 10);
        assert_eq!(n.waiting, Waiting::Fill);
        n.unstall(25);
        assert_eq!(n.stalled_cycles, 15);
        assert_eq!(n.waiting, Waiting::None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double stall")]
    fn double_stall_panics() {
        let master = SimRng::new(1);
        let mut n = Node::new(0, &master, 8, None);
        n.stall(Waiting::Fill, 1);
        n.stall(Waiting::Flush, 2);
    }

    #[test]
    fn forked_rngs_differ_between_nodes() {
        let master = SimRng::new(7);
        let mut a = Node::new(0, &master, 8, None);
        let mut b = Node::new(1, &master, 8, None);
        let same = (0..32)
            .filter(|_| a.rng.next_u64() == b.rng.next_u64())
            .count();
        assert_eq!(same, 0);
    }
}
