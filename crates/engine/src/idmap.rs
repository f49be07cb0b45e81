//! Dense tables keyed by the machine's 1-based ids.
//!
//! The machine numbers its wires and its span transactions from one upward,
//! so an observer folding the trace can keep per-id state in a vector
//! indexed by the id instead of an ordered map or a hash set. An [`IdMap`]
//! is that vector, bounded for ids read back from a file: an id at most
//! [`DENSE_REACH`] past the dense end extends the vector, and a farther one
//! goes to an ordered side map, so no id makes the table allocate in
//! proportion to its value; the vector holds at most [`DENSE_REACH`] slots
//! per id ever inserted. When the dense range grows over side-map entries
//! they move into it. Every id therefore lives in exactly one place, each
//! lookup checks one place, and iteration is in id order.

use std::collections::BTreeMap;
use std::ops::Index;

/// How far past the end of the dense vector an id may land and still
/// extend it; a farther id goes to the side map.
pub const DENSE_REACH: u64 = 4096;

/// A map from `u64` ids to `V`, dense for ids near those already seen.
///
/// Equality compares contents in id order, not the dense/side split.
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// Slot `i` holds id `i`; every id below `dense.len()` lives here.
    dense: Vec<Option<V>>,
    /// Ids at or past `dense.len()` that were too far out to extend it.
    sparse: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self {
            dense: Vec::new(),
            sparse: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<V> IdMap<V> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense slot of `id`, if `id` falls in the dense range.
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id).ok().filter(|&i| i < self.dense.len())
    }

    /// The value stored for `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        match self.slot(id) {
            Some(i) => self.dense[i].as_ref(),
            None => self.sparse.get(&id),
        }
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        match self.slot(id) {
            Some(i) => self.dense[i].as_mut(),
            None => self.sparse.get_mut(&id),
        }
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Stores `v` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: u64, v: V) -> Option<V> {
        let old = match self.reach(id) {
            Some(i) => self.dense[i].replace(v),
            None => self.sparse.insert(id, v),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value for `id`, inserting `f()` first if it is absent.
    pub fn get_or_insert_with(&mut self, id: u64, f: impl FnOnce() -> V) -> &mut V {
        match self.reach(id) {
            Some(i) => {
                let slot = &mut self.dense[i];
                if slot.is_none() {
                    self.len += 1;
                }
                slot.get_or_insert_with(f)
            }
            None => {
                let len = &mut self.len;
                self.sparse.entry(id).or_insert_with(|| {
                    *len += 1;
                    f()
                })
            }
        }
    }

    /// Removes `id`, returning its value.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let old = match self.slot(id) {
            Some(i) => self.dense[i].take(),
            None => self.sparse.remove(&id),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The dense slot for `id`, growing the dense range to cover it when
    /// `id` is within [`DENSE_REACH`] of its end; `None` sends `id` to the
    /// side map.
    fn reach(&mut self, id: u64) -> Option<usize> {
        if let Some(i) = self.slot(id) {
            return Some(i);
        }
        if id - self.dense.len() as u64 >= DENSE_REACH {
            return None;
        }
        let end = id + 1;
        self.dense.resize_with(end as usize, || None);
        if self.sparse.first_key_value().is_some_and(|(&k, _)| k < end) {
            let beyond = self.sparse.split_off(&end);
            for (k, v) in std::mem::replace(&mut self.sparse, beyond) {
                self.dense[k as usize] = Some(v);
            }
        }
        Some(id as usize)
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let dense = self.dense.iter().enumerate();
        dense
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u64, v)))
            .chain(self.sparse.iter().map(|(&k, v)| (k, v)))
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<V: PartialEq> PartialEq for IdMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for IdMap<V> {}

impl<V> Index<u64> for IdMap<V> {
    type Output = V;

    /// The value for `id`; panics if it is absent.
    fn index(&self, id: u64) -> &V {
        self.get(id)
            .unwrap_or_else(|| panic!("id {id} not in the map"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn new_map_allocates_nothing() {
        let m: IdMap<u64> = IdMap::default();
        assert_eq!(m.dense.capacity(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn far_ids_stay_sparse_until_the_dense_range_reaches_them() {
        let mut m = IdMap::new();
        m.insert(u64::MAX, 'z');
        m.insert(1 << 40, 'y');
        m.insert(DENSE_REACH + 10, 'x');
        assert!(
            m.dense.is_empty(),
            "no id is within reach of an empty table"
        );
        m.insert(DENSE_REACH - 1, 'a');
        assert_eq!(m.dense.len() as u64, DENSE_REACH);
        m.insert(DENSE_REACH + 20, 'b');
        assert_eq!(
            m.sparse.len(),
            2,
            "id {} moved into the dense range",
            DENSE_REACH + 10
        );
        assert_eq!(m[DENSE_REACH + 10], 'x');
        let ids: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(
            ids,
            [
                DENSE_REACH - 1,
                DENSE_REACH + 10,
                DENSE_REACH + 20,
                1 << 40,
                u64::MAX
            ]
        );
    }

    proptest! {
        /// Insert/get/remove/ordered-values sequences over ids of three
        /// kinds, mixed by `kinds`: ascending dense ids, dense ids in any
        /// order, and ids at or past 2^40 including `u64::MAX`.
        #[test]
        fn prop_matches_an_ordered_map(
            kinds in 1u8..8,
            start in 1u64..8,
            len in 1u64..64,
            scattered in collection::vec(1u64..3 * DENSE_REACH, 1..64),
            far in collection::vec((1u64 << 40)..=u64::MAX, 0..16),
            ops in collection::vec((0u8..5, 0usize..256, any::<u32>()), 0..160),
        ) {
            let mut pool = Vec::new();
            if kinds & 1 != 0 {
                pool.extend(start..start + len);
            }
            if kinds & 2 != 0 {
                pool.extend(&scattered);
            }
            if kinds & 4 != 0 {
                pool.extend(&far);
                pool.push(u64::MAX);
            }
            let mut m = IdMap::new();
            let mut model = BTreeMap::new();
            let fill = pool.iter().map(|&id| (0, id, 0));
            let rest = ops.iter().map(|&(op, i, v)| (op, pool[i % pool.len()], v));
            for (op, id, v) in fill.chain(rest) {
                match op {
                    0 => prop_assert_eq!(m.insert(id, v), model.insert(id, v)),
                    1 => {
                        prop_assert_eq!(m.get(id), model.get(&id));
                        prop_assert_eq!(m.contains_key(id), model.contains_key(&id));
                    }
                    2 => prop_assert_eq!(m.remove(id), model.remove(&id)),
                    3 => prop_assert_eq!(
                        *m.get_or_insert_with(id, || v),
                        *model.entry(id).or_insert(v)
                    ),
                    _ => {
                        prop_assert!(m.values().eq(model.values()));
                        prop_assert!(m.iter().eq(model.iter().map(|(&k, v)| (k, v))));
                    }
                }
                prop_assert_eq!(m.len(), model.len());
                // bounded: no id past the dense kinds ever becomes a slot
                prop_assert!(m.dense.len() as u64 <= 3 * DENSE_REACH);
                prop_assert!(m.sparse.keys().all(|&k| k >= m.dense.len() as u64));
            }
            prop_assert!(m.values().eq(model.values()));
        }
    }
}
