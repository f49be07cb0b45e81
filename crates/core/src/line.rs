//! Block data and the CBL lock field of a cache-directory entry (paper
//! Fig. 2a).
//!
//! The entry's other fields live with the controller that uses them: the
//! update bit and the RIC copy in [`crate::ric::UpdateList`], the lock
//! field and the queue's `prev`/`next` pointers in
//! [`crate::cbl::LockQueue`]. Per-word writes merge with
//! [`BlockData::merge_masked`], so writers of different words of one block
//! never clobber each other (§3 issue 6).

use crate::primitive::LockMode;

/// Words a [`BlockData`] stores without heap allocation. The paper's
/// geometry uses 4-word blocks, so protocol payloads cloned per message
/// (grants, fills, write-backs) stay allocation-free; larger blocks —
/// test-only today — fall back to a `Vec`.
const INLINE_WORDS: usize = 8;

/// Block-word storage: inline for blocks up to [`INLINE_WORDS`], heap
/// beyond. The variant is fixed by the length at construction, so equal
/// contents always mean equal representation (derived `Eq` is sound: the
/// inline tail past `len` is never written and stays zero).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline { buf: [u64; INLINE_WORDS], len: u8 },
    Heap(Vec<u64>),
}

/// Simulated contents of one memory block. Words are `u64` "version stamps":
/// the machine writes a fresh stamp on every store so tests can check
/// visibility (who observed whose write) exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockData {
    words: Words,
}

impl BlockData {
    /// A zero-filled block of `k` words.
    pub fn new(k: u8) -> Self {
        let words = if k as usize <= INLINE_WORDS {
            Words::Inline {
                buf: [0; INLINE_WORDS],
                len: k,
            }
        } else {
            Words::Heap(vec![0; k as usize])
        };
        Self { words }
    }

    fn as_slice(&self) -> &[u64] {
        match &self.words {
            Words::Inline { buf, len } => &buf[..*len as usize],
            Words::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline { buf, len } => &mut buf[..*len as usize],
            Words::Heap(v) => v,
        }
    }

    /// Number of words.
    pub fn len(&self) -> u8 {
        self.as_slice().len() as u8
    }

    /// True if the block has no words (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Reads word `w`.
    pub fn get(&self, w: u8) -> u64 {
        self.as_slice()[w as usize]
    }

    /// Writes word `w`.
    pub fn set(&mut self, w: u8, v: u64) {
        self.as_mut_slice()[w as usize] = v;
    }

    /// Merges the words of `src` selected by `mask` into `self`.
    ///
    /// This is the word-granular write-back: only dirty words overwrite the
    /// destination, so two nodes that dirtied *different* words of the same
    /// block never clobber each other (§3 issue 6).
    pub fn merge_masked(&mut self, src: &BlockData, mask: u64) {
        let src = src.as_slice();
        let dst = self.as_mut_slice();
        for w in 0..dst.len() {
            if mask & (1 << w) != 0 {
                dst[w] = src[w];
            }
        }
    }

    /// All words as a slice.
    pub fn words(&self) -> &[u64] {
        self.as_slice()
    }
}

/// The CBL lock field of a cache line (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockField {
    /// No lock activity on this line.
    #[default]
    None,
    /// Lock requested in `mode`, grant not yet received.
    Waiting(LockMode),
    /// Lock held in `mode`.
    Held(LockMode),
    /// Lock released and written back to memory; awaiting the directory's
    /// acknowledgment. Forwarded requests arriving in this window bounce.
    ReleasePending,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inline_and_heap_blocks_behave_identically() {
        // 8 words sit in the inline buffer, 9 spill to the heap; the API
        // must not care.
        for k in [1u8, 4, 8, 9, 64] {
            let mut d = BlockData::new(k);
            assert_eq!(d.len(), k);
            assert!(!d.is_empty());
            assert_eq!(d.words(), vec![0u64; k as usize].as_slice());
            for w in 0..k {
                d.set(w, 1000 + w as u64);
            }
            for w in 0..k {
                assert_eq!(d.get(w), 1000 + w as u64);
            }
            assert_eq!(d.clone(), d);
        }
    }

    #[test]
    #[should_panic]
    fn inline_block_out_of_range_word_panics() {
        // an inline block of 4 words must reject word 5 even though the
        // backing buffer physically has 8 slots
        let mut d = BlockData::new(4);
        d.set(5, 1);
    }

    #[test]
    fn merge_masked_takes_only_dirty_words() {
        let mut mem = BlockData::new(4);
        for w in 0..4 {
            mem.set(w, 100 + w as u64);
        }
        let mut mine = BlockData::new(4);
        mine.set(1, 7);
        mine.set(3, 9);
        mem.merge_masked(&mine, 0b1010);
        assert_eq!(mem.words(), &[100, 7, 102, 9]);
    }

    #[test]
    fn merge_disjoint_writers_lose_nothing() {
        // Node A dirties word 0, node B dirties word 2; both write back.
        let mut mem = BlockData::new(4);
        let mut a = BlockData::new(4);
        a.set(0, 11);
        let mut b = BlockData::new(4);
        b.set(2, 22);
        mem.merge_masked(&a, 0b0001);
        mem.merge_masked(&b, 0b0100);
        assert_eq!(mem.words(), &[11, 0, 22, 0]);
    }

    proptest! {
        /// Per-word merge never loses an update when writers touch disjoint
        /// word sets — the false-sharing fix of §3 issue 6.
        #[test]
        fn prop_disjoint_merges_preserve_all_writes(
            writes in proptest::collection::vec((0u8..64, 1u64..u64::MAX), 1..64)
        ) {
            // Deduplicate words: later writes to the same word win.
            let mut last: std::collections::BTreeMap<u8, u64> = Default::default();
            for (w, v) in &writes {
                last.insert(*w, *v);
            }
            let mut mem = BlockData::new(64);
            // Each writer owns exactly one word; write-backs in arbitrary order.
            for (&w, &v) in &last {
                let mut line = BlockData::new(64);
                line.set(w, v);
                mem.merge_masked(&line, 1u64 << w);
            }
            for (&w, &v) in &last {
                prop_assert_eq!(mem.get(w), v);
            }
        }

        /// Masked merge never touches words outside the mask.
        #[test]
        fn prop_merge_respects_mask(mask: u64, seed in 0u64..1000) {
            let k = 64u8;
            let mut mem = BlockData::new(k);
            for w in 0..k {
                mem.set(w, seed + w as u64);
            }
            let before = mem.clone();
            let mut src = BlockData::new(k);
            for w in 0..k {
                src.set(w, 1_000_000 + w as u64);
            }
            mem.merge_masked(&src, mask);
            for w in 0..k {
                if mask & (1 << w) != 0 {
                    prop_assert_eq!(mem.get(w), src.get(w));
                } else {
                    prop_assert_eq!(mem.get(w), before.get(w));
                }
            }
        }
    }
}
