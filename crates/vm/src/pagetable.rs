//! The page → frame translation table behind [`crate::Task::pmap`] and
//! [`crate::VmObject::resident`].
//!
//! Pages are a fixed 4096 bytes, so a translation is an index, not a hash:
//! the low [`LEAF_BITS`] bits of the page number pick a slot in a 512-entry
//! leaf of `u32` frame ids, the remaining bits pick the leaf. Leaves live in
//! a directory sorted by leaf key, so the table costs memory per *populated*
//! 512-page span — never per address: a region at 1 GiB, one at the top of
//! the 64-bit space and one at page 0 are three leaves. A leaf whose last
//! entry is removed is freed, so the table never holds more leaves than
//! entries.
//!
//! Iteration is in ascending page order, which makes every walk over a
//! pmap or a residency set replay-stable without a sort.

use core::fmt;

use crate::types::FrameId;

/// Page-number bits resolved inside one leaf.
const LEAF_BITS: u32 = 9;
/// Entries per leaf (2 KiB of frame ids).
const LEAF_LEN: usize = 1 << LEAF_BITS;
/// The empty-slot sentinel. Frame ids index a table of at most `u32::MAX`
/// frames, so no real frame carries it.
const NO_FRAME: u32 = u32::MAX;

#[derive(Clone)]
struct Leaf {
    /// Occupied slots; the leaf is freed when this returns to zero.
    live: u32,
    slots: [u32; LEAF_LEN],
}

/// A sparse map from page number to [`FrameId`].
#[derive(Clone, Default)]
pub struct PageTable {
    /// `(page >> LEAF_BITS, leaf)`, ascending by key.
    dir: Vec<(u64, Box<Leaf>)>,
    len: usize,
}

fn split(page: u64) -> (u64, usize) {
    (page >> LEAF_BITS, (page & (LEAF_LEN as u64 - 1)) as usize)
}

impl PageTable {
    /// Creates an empty table (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Directory position of leaf `key`, or where it would be inserted.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        // Regions are carved upward from one base, so leaf keys are almost
        // always consecutive: the offset from the first key is the index.
        if let Some(&(first, _)) = self.dir.first() {
            let guess = key.wrapping_sub(first) as usize;
            if self.dir.get(guess).is_some_and(|&(k, _)| k == key) {
                return Ok(guess);
            }
        }
        self.dir.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The frame `page` translates to, if any.
    #[inline]
    pub fn get(&self, page: u64) -> Option<FrameId> {
        let (key, slot) = split(page);
        let raw = self.dir[self.find(key).ok()?].1.slots[slot];
        (raw != NO_FRAME).then_some(FrameId(raw))
    }

    /// Maps `page` to `frame`, returning the translation it replaces.
    ///
    /// # Panics
    /// If `frame` is `FrameId(u32::MAX)`, which no frame table can hold.
    pub fn insert(&mut self, page: u64, frame: FrameId) -> Option<FrameId> {
        assert_ne!(frame.0, NO_FRAME, "frame id collides with the sentinel");
        let (key, slot) = split(page);
        let at = self.find(key).unwrap_or_else(|at| {
            let leaf = Box::new(Leaf {
                live: 0,
                slots: [NO_FRAME; LEAF_LEN],
            });
            self.dir.insert(at, (key, leaf));
            at
        });
        let leaf = &mut self.dir[at].1;
        let old = std::mem::replace(&mut leaf.slots[slot], frame.0);
        if old == NO_FRAME {
            leaf.live += 1;
            self.len += 1;
            None
        } else {
            Some(FrameId(old))
        }
    }

    /// Removes the translation of `page`, returning its frame.
    pub fn remove(&mut self, page: u64) -> Option<FrameId> {
        let (key, slot) = split(page);
        let at = self.find(key).ok()?;
        let leaf = &mut self.dir[at].1;
        let old = std::mem::replace(&mut leaf.slots[slot], NO_FRAME);
        if old == NO_FRAME {
            return None;
        }
        leaf.live -= 1;
        self.len -= 1;
        if leaf.live == 0 {
            self.dir.remove(at);
        }
        Some(FrameId(old))
    }

    /// Drops every translation and every leaf.
    pub fn clear(&mut self) {
        self.dir.clear();
        self.len = 0;
    }

    /// Number of translations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no translation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaves currently allocated (never more than [`PageTable::len`]).
    pub fn leaf_count(&self) -> usize {
        self.dir.len()
    }

    /// Every `(page, frame)` translation in ascending page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, FrameId)> + '_ {
        self.dir.iter().flat_map(|(key, leaf)| {
            let base = key << LEAF_BITS;
            leaf.slots
                .iter()
                .enumerate()
                .filter(|(_, &raw)| raw != NO_FRAME)
                .map(move |(slot, &raw)| (base | slot as u64, FrameId(raw)))
        })
    }

    /// The mapped frames, in ascending page order.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.iter().map(|(_, frame)| frame)
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The highest page number a 64-bit address can name.
    const TOP_PAGE: u64 = u64::MAX >> 12;

    #[test]
    fn far_apart_pages_cost_one_leaf_each() {
        let mut t = PageTable::new();
        assert_eq!(t.get(0), None);
        t.insert(0, FrameId(1));
        t.insert((1 << 30) / 4096, FrameId(2));
        t.insert(TOP_PAGE, FrameId(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.get(TOP_PAGE), Some(FrameId(3)));
        assert_eq!(t.get(TOP_PAGE - 1), None);
        let pages: Vec<u64> = t.iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![0, (1 << 30) / 4096, TOP_PAGE]);
        assert_eq!(
            format!("{t:?}"),
            format!("{:?}", t.iter().collect::<BTreeMap<_, _>>())
        );
    }

    #[test]
    fn an_emptied_leaf_is_freed_and_refills() {
        let mut t = PageTable::new();
        for p in 512..1024 {
            t.insert(p, FrameId(p as u32));
        }
        assert_eq!(t.leaf_count(), 1);
        for p in 512..1024 {
            assert_eq!(t.remove(p), Some(FrameId(p as u32)));
        }
        assert_eq!((t.len(), t.leaf_count()), (0, 0));
        assert_eq!(t.remove(600), None);
        t.insert(600, FrameId(9));
        assert_eq!(t.insert(600, FrameId(10)), Some(FrameId(9)));
        assert_eq!((t.len(), t.leaf_count()), (1, 1));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Get(u64),
        Clear,
    }

    /// Pages clustered so that leaves fill, empty and refill: a few leaf
    /// spans at the bottom, at the find-space base and at the very top of
    /// the address space, plus arbitrary 64-bit page numbers.
    fn page() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1536,
            (1u64 << 18)..(1u64 << 18) + 1536,
            (TOP_PAGE - 1535)..=TOP_PAGE,
            0u64..=TOP_PAGE,
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (page(), 0u32..u32::MAX).prop_map(|(p, f)| Op::Insert(p, f)),
            (page(), 0u32..u32::MAX).prop_map(|(p, f)| Op::Insert(p, f)),
            page().prop_map(Op::Remove),
            page().prop_map(Op::Remove),
            page().prop_map(Op::Get),
            (0u32..64).prop_map(|n| if n == 0 { Op::Clear } else { Op::Get(0) }),
        ]
    }

    proptest! {
        #[test]
        fn matches_a_btreemap(ops in proptest::collection::vec(op(), 1..400)) {
            let mut table = PageTable::new();
            let mut model: BTreeMap<u64, FrameId> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(p, f) => {
                        prop_assert_eq!(table.insert(p, FrameId(f)), model.insert(p, FrameId(f)));
                    }
                    Op::Remove(p) => prop_assert_eq!(table.remove(p), model.remove(&p)),
                    Op::Get(p) => prop_assert_eq!(table.get(p), model.get(&p).copied()),
                    Op::Clear => {
                        table.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                // Memory follows the population, never the largest key.
                let spans: std::collections::BTreeSet<u64> =
                    model.keys().map(|p| p >> LEAF_BITS).collect();
                prop_assert_eq!(table.leaf_count(), spans.len());
                prop_assert!(table.leaf_count() <= table.len());
            }
            let got: Vec<(u64, FrameId)> = table.iter().collect();
            let want: Vec<(u64, FrameId)> = model.iter().map(|(&p, &f)| (p, f)).collect();
            prop_assert_eq!(got, want);
            prop_assert!(table.frames().eq(model.values().copied()));
        }
    }
}
