//! Dense tables keyed by the machine's 1-based ids.
//!
//! The machine numbers its wires and its span transactions from one upward,
//! so an observer folding the trace can keep per-id state in a table
//! indexed by the id instead of an ordered map or a hash set. An [`IdMap`]
//! is that table, bounded for ids read back from a file: an id at most
//! [`DENSE_REACH`] past the dense end extends the dense range, and a farther
//! one goes to an ordered side map, so no id makes the table allocate in
//! proportion to its value; the dense range holds at most [`DENSE_REACH`]
//! slots per id ever inserted. When the dense range grows over side-map
//! entries they move into it. Every id therefore lives in exactly one
//! place, each lookup checks one place, and iteration is in id order.
//!
//! The dense range is a list of fixed-size pages of 1,024 slots. Growing
//! appends pages, so a stored value never moves: growth costs one
//! allocation per page and copies nothing, where a single vector would
//! copy every value each time it doubled.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// How far past the end of the dense range an id may land and still
/// extend it; a farther id goes to the side map.
pub const DENSE_REACH: u64 = 4096;

/// Slots per page of the dense range.
const PAGE: usize = 1024;

// A power of two, so `split` is a shift and a mask. The dense end is a
// page multiple, so a reach of whole pages keeps each growth within
// `DENSE_REACH` slots.
const _: () = assert!(PAGE.is_power_of_two() && DENSE_REACH.is_multiple_of(PAGE as u64));

/// Page `p` of the dense range: ids `p * PAGE .. (p + 1) * PAGE`.
type Page<V> = Box<[Option<V>; PAGE]>;

/// A page of empty slots, built on the heap.
fn empty_page<V>() -> Page<V> {
    let slots: Box<[Option<V>]> = (0..PAGE).map(|_| None).collect();
    match slots.try_into() {
        Ok(page) => page,
        Err(_) => unreachable!("a page is built with PAGE slots"),
    }
}

/// The page and the slot within it of an id in, or within reach of, the
/// dense range.
fn split(id: u64) -> (usize, usize) {
    ((id / PAGE as u64) as usize, (id % PAGE as u64) as usize)
}

/// A map from `u64` ids to `V`, dense for ids near those already seen.
///
/// Equality compares contents in id order, not the dense/side split.
#[derive(Clone)]
pub struct IdMap<V> {
    /// Page `p` holds ids from `p * PAGE`; every id below the dense end
    /// (`pages.len() * PAGE`) lives here.
    pages: Vec<Page<V>>,
    /// Ids at or past the dense end that were too far out to extend it.
    sparse: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self {
            pages: Vec::new(),
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

    /// The first id past the dense range.
    fn dense_end(&self) -> u64 {
        (self.pages.len() * PAGE) as u64
    }

    /// The page and slot of `id`, if `id` falls in the dense range.
    fn slot(&self, id: u64) -> Option<(usize, usize)> {
        (id < self.dense_end()).then(|| split(id))
    }

    /// The value stored for `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        match self.slot(id) {
            Some((p, i)) => self.pages[p][i].as_ref(),
            None => self.sparse.get(&id),
        }
    }

    /// The value stored for `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        match self.slot(id) {
            Some((p, i)) => self.pages[p][i].as_mut(),
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
            Some((p, i)) => self.pages[p][i].replace(v),
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
            Some((p, i)) => {
                let slot = &mut self.pages[p][i];
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
            Some((p, i)) => self.pages[p][i].take(),
            None => self.sparse.remove(&id),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The page and slot for `id`, appending pages to cover it when `id`
    /// is within [`DENSE_REACH`] of the dense end; `None` sends `id` to the
    /// side map.
    fn reach(&mut self, id: u64) -> Option<(usize, usize)> {
        if let Some(at) = self.slot(id) {
            return Some(at);
        }
        if id - self.dense_end() >= DENSE_REACH {
            return None;
        }
        self.pages.resize_with(split(id).0 + 1, empty_page);
        let end = self.dense_end();
        if self.sparse.first_key_value().is_some_and(|(&k, _)| k < end) {
            let beyond = self.sparse.split_off(&end);
            for (k, v) in std::mem::replace(&mut self.sparse, beyond) {
                let (p, i) = split(k);
                self.pages[p][i] = Some(v);
            }
        }
        Some(split(id))
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let dense = self.pages.iter().flat_map(|page| page.iter()).enumerate();
        dense
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u64, v)))
            .chain(self.sparse.iter().map(|(&k, v)| (k, v)))
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<V: fmt::Debug> fmt::Debug for IdMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        assert_eq!(m.pages.capacity(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn far_ids_stay_sparse_until_the_dense_range_reaches_them() {
        let mut m = IdMap::new();
        m.insert(u64::MAX, 'z');
        m.insert(1 << 40, 'y');
        m.insert(DENSE_REACH + 10, 'x');
        assert!(
            m.pages.is_empty(),
            "no id is within reach of an empty table"
        );
        m.insert(DENSE_REACH - 1, 'a');
        assert_eq!(m.dense_end(), DENSE_REACH);
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

    /// Growth appends pages and never moves a stored value: the address
    /// of each page's first value survives growth across several pages,
    /// and so does the address of a far id once the dense range pulls it
    /// in from the side map.
    #[test]
    fn stored_values_keep_their_address_as_the_table_grows() {
        let mut m = IdMap::new();
        let far = DENSE_REACH + 10;
        m.insert(far, far);
        let mut pinned = Vec::new();
        for id in 1..=DENSE_REACH {
            m.insert(id, id);
            if id % PAGE as u64 == 1 {
                pinned.push((id, m.get(id).unwrap() as *const u64));
            }
        }
        assert!(
            m.sparse.is_empty(),
            "inserting {DENSE_REACH} pulled {far} in"
        );
        pinned.push((far, m.get(far).unwrap() as *const u64));
        for id in far + 1..4 * DENSE_REACH {
            m.insert(id, id);
        }
        for (id, at) in pinned {
            assert_eq!(m.get(id).unwrap() as *const u64, at, "id {id} moved");
            assert_eq!(m[id], id);
        }
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
                prop_assert!(m.dense_end() <= 3 * DENSE_REACH);
                prop_assert!(m.sparse.keys().all(|&k| k >= m.dense_end()));
            }
            prop_assert!(m.values().eq(model.values()));
        }
    }
}
