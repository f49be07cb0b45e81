//! The lock modes of the CBL primitives (paper Table 1, §4.3) and the
//! synchronization classes of the buffered consistency model (§2).

/// Lock access mode: `READ-LOCK` grants shared access, `WRITE-LOCK`
/// exclusive access (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (non-exclusive) lock.
    Read,
    /// Exclusive lock.
    Write,
}

impl LockMode {
    /// Two lock requests are compatible iff both are read locks.
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Read && other == LockMode::Read
    }
}

/// Synchronization classes of the buffered consistency model (§2).
///
/// * **NP-Synch** (non-consistency-preserving) operations — lock,
///   semaphore-P — do *not* wait for the completion of preceding writes.
/// * **CP-Synch** (consistency-preserving) operations — unlock, semaphore-V,
///   barrier — may be performed only after all preceding global writes have
///   been globally performed (i.e. the write buffer must be flushed first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// An ordinary data access.
    Data,
    /// Non-consistency-preserving synchronization (lock, P).
    NpSynch,
    /// Consistency-preserving synchronization (unlock, V, barrier).
    CpSynch,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_compatibility_matrix() {
        assert!(LockMode::Read.compatible(LockMode::Read));
        assert!(!LockMode::Read.compatible(LockMode::Write));
        assert!(!LockMode::Write.compatible(LockMode::Read));
        assert!(!LockMode::Write.compatible(LockMode::Write));
    }
}
