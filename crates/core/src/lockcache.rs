//! The small fully-associative **lock cache** (paper §4.3).
//!
//! A cache line that is part of a CBL waiting queue must not be replaced —
//! replacement would break the doubly-linked list. Rather than make the
//! whole cache fully associative, the paper provisions a small separate
//! fully-associative cache for lock variables: "Since a processor holds (or
//! waits for) only a small number of locks at a time, a small separate
//! fully-associative cache for lock variables would be an efficient method."
//!
//! The paper treats capacity as a compile-time resource-management problem
//! ("Mapping of software locks to hardware locks is a compile time decision
//! that can be made conservatively"). We surface overflow explicitly so
//! experiments can verify the assumption and ablations can probe it.

use crate::addr::BlockId;

/// Error: the lock cache has no free entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockCacheFull;

/// A small fully-associative cache for lock lines. It tracks only which
/// locks are resident: the lock field and queue pointers of each line live
/// in [`crate::cbl::LockQueue`].
#[derive(Debug, Clone)]
pub struct LockCache {
    entries: Vec<BlockId>,
    capacity: usize,
    /// Overflow attempts observed (should stay 0 under the paper's
    /// conservative-mapping assumption).
    pub overflows: u64,
}

impl LockCache {
    /// Creates a lock cache with room for `capacity` lock lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            overflows: 0,
        }
    }

    /// Number of resident lock lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a line for `block` is resident.
    pub fn contains(&self, block: BlockId) -> bool {
        self.entries.contains(&block)
    }

    /// Makes `block` resident. Fails (and counts an overflow) when full;
    /// lock lines are never evicted implicitly.
    pub fn try_insert(&mut self, block: BlockId) -> Result<(), LockCacheFull> {
        if self.contains(block) {
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            self.overflows += 1;
            return Err(LockCacheFull);
        }
        self.entries.push(block);
        Ok(())
    }

    /// Drops `block` (when the lock activity on it ends); returns whether
    /// it was resident.
    pub fn remove(&mut self, block: BlockId) -> bool {
        let Some(pos) = self.entries.iter().position(|&b| b == block) else {
            return false;
        };
        self.entries.remove(pos);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut lc = LockCache::new(2);
        lc.try_insert(10).unwrap();
        assert!(lc.contains(10));
        assert_eq!(lc.len(), 1);
        assert!(lc.remove(10));
        assert!(!lc.contains(10));
        assert!(!lc.remove(10));
    }

    #[test]
    fn overflow_is_explicit() {
        let mut lc = LockCache::new(2);
        lc.try_insert(1).unwrap();
        lc.try_insert(2).unwrap();
        assert_eq!(lc.try_insert(3), Err(LockCacheFull));
        assert_eq!(lc.overflows, 1);
        // reinsertion of a resident block is not an overflow
        lc.try_insert(1).unwrap();
        assert_eq!(lc.overflows, 1);
    }

    #[test]
    fn never_evicts_silently() {
        let mut lc = LockCache::new(1);
        lc.try_insert(1).unwrap();
        let _ = lc.try_insert(2);
        assert!(lc.contains(1), "resident lock line must survive overflow");
        assert!(!lc.contains(2));
    }
}
