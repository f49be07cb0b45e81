//! The per-node write buffer (paper §4.2).
//!
//! `WRITE-GLOBAL` requests are absorbed here so the processor never stalls
//! on the network round-trip of a global write; the buffer issues them to
//! the interconnect as it becomes available and retires entries when the
//! home memory module acknowledges. The number of un-acknowledged entries
//! implicitly implements the pending-operation counter of Adve & Hill that
//! the paper cites (§3 issue 2). `FLUSH-BUFFER` stalls the processor until
//! the buffer drains — the hardware hook for CP-Synch operations.
//!
//! The paper assumes an infinite buffer; a finite capacity is supported as
//! an ablation (`capacity: Some(n)`), in which case a full buffer reports
//! back-pressure and the machine stalls the processor until space frees up.

use crate::addr::SharedAddr;
use ssmp_engine::Cycle;
use std::collections::VecDeque;

/// A buffered global write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingWrite {
    /// Target word.
    pub addr: SharedAddr,
    /// Value (version stamp) to store.
    pub value: u64,
    /// Monotone id used to match acknowledgments.
    pub id: u64,
    /// Whether the write has been put on the network yet.
    pub issued: bool,
    /// Span transaction id attached by the machine when tracing (0 =
    /// untagged). Carried here so the issue and ack paths can attribute
    /// the write's wire messages without a side table.
    pub txn: u64,
    /// Cycle the write's span began (meaningful when `txn != 0`), so
    /// the ack can close the span with its duration.
    pub begin: Cycle,
}

/// The write buffer.
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    entries: VecDeque<PendingWrite>,
    next_id: u64,
    capacity: Option<usize>,
    /// Peak occupancy observed (for reporting).
    peak: usize,
    total_enqueued: u64,
}

/// Outcome of attempting to enqueue a global write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Accepted; the returned id will be used in the acknowledgment.
    Accepted(u64),
    /// Buffer full (finite-capacity ablation): the processor must stall.
    Full,
}

impl WriteBuffer {
    /// An unbounded buffer (the paper's assumption).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A buffer holding at most `n` pending writes.
    pub fn bounded(n: usize) -> Self {
        Self {
            capacity: Some(n),
            ..Self::default()
        }
    }

    /// Attempts to enqueue a global write.
    pub fn push(&mut self, addr: SharedAddr, value: u64) -> Enqueue {
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                return Enqueue::Full;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push_back(PendingWrite {
            addr,
            value,
            id,
            issued: false,
            txn: 0,
            begin: 0,
        });
        self.peak = self.peak.max(self.entries.len());
        self.total_enqueued += 1;
        Enqueue::Accepted(id)
    }

    /// Next write that has not yet been issued to the network, marking it
    /// issued. The buffer issues writes in FIFO order.
    pub fn next_unissued(&mut self) -> Option<PendingWrite> {
        let e = self.entries.iter_mut().find(|e| !e.issued)?;
        e.issued = true;
        Some(*e)
    }

    /// Attaches span transaction `txn`, begun at cycle `begin`, to the
    /// pending write `id` (no-op if the id is unknown — e.g. it was
    /// already acknowledged).
    pub fn tag_txn(&mut self, id: u64, txn: u64, begin: Cycle) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.txn = txn;
            e.begin = begin;
        }
    }

    /// The span transaction tagged onto pending write `id` and the cycle
    /// it began (`(0, 0)` when untagged or unknown).
    pub fn txn_of(&self, id: u64) -> (u64, Cycle) {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map_or((0, 0), |e| (e.txn, e.begin))
    }

    /// Retires the entry whose acknowledgment arrived. Returns `true` if the
    /// id was pending.
    pub fn ack(&mut self, id: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            debug_assert!(self.entries[pos].issued, "ack for un-issued write");
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of writes not yet globally performed — the Adve-&-Hill
    /// counter.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// True when every buffered write has been globally performed:
    /// `FLUSH-BUFFER` completes at this point.
    pub fn is_drained(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peak occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total writes ever accepted.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(w: u8) -> SharedAddr {
        SharedAddr::new(0, w)
    }

    #[test]
    fn fifo_issue_and_ack() {
        let mut b = WriteBuffer::unbounded();
        let Enqueue::Accepted(i0) = b.push(a(0), 10) else {
            panic!()
        };
        let Enqueue::Accepted(i1) = b.push(a(1), 11) else {
            panic!()
        };
        assert_eq!(b.pending(), 2);
        let w0 = b.next_unissued().unwrap();
        assert_eq!(w0.id, i0);
        let w1 = b.next_unissued().unwrap();
        assert_eq!(w1.id, i1);
        assert!(b.next_unissued().is_none());
        assert!(b.ack(i0));
        assert!(!b.ack(i0), "double ack");
        assert!(b.ack(i1));
        assert!(b.is_drained());
    }

    #[test]
    fn out_of_order_acks() {
        let mut b = WriteBuffer::unbounded();
        let ids: Vec<u64> = (0..5)
            .map(|w| match b.push(a(w), w as u64) {
                Enqueue::Accepted(id) => id,
                Enqueue::Full => panic!(),
            })
            .collect();
        while b.next_unissued().is_some() {}
        // acks arrive in reverse
        for &id in ids.iter().rev() {
            assert!(b.ack(id));
        }
        assert!(b.is_drained());
    }

    #[test]
    fn bounded_backpressure() {
        let mut b = WriteBuffer::bounded(2);
        assert!(matches!(b.push(a(0), 0), Enqueue::Accepted(_)));
        assert!(matches!(b.push(a(1), 1), Enqueue::Accepted(_)));
        assert_eq!(b.push(a(2), 2), Enqueue::Full);
        let w = b.next_unissued().unwrap();
        b.ack(w.id);
        assert!(matches!(b.push(a(2), 2), Enqueue::Accepted(_)));
    }

    #[test]
    fn peak_and_totals() {
        let mut b = WriteBuffer::unbounded();
        for w in 0..4 {
            b.push(a(w), 0);
        }
        while let Some(w) = b.next_unissued() {
            b.ack(w.id);
        }
        assert_eq!(b.peak(), 4);
        assert_eq!(b.total_enqueued(), 4);
        assert!(b.is_drained());
    }

    #[test]
    fn drained_empty_buffer() {
        let b = WriteBuffer::unbounded();
        assert!(b.is_drained());
        assert_eq!(b.pending(), 0);
    }
}
