//! The hash-consing sample-set interner.

use std::collections::hash_map::{Entry, HashMap};

/// Handle to one interned sample set: a dense index into the pool's
/// arena. Handles are 4 bytes — the whole point of interning is that a
/// record carries a `SetRef` instead of an owned payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetRef(u32);

impl SetRef {
    /// Dense arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Zero-copy access to an interned set: a plain borrow of the arena's
/// single copy. Readers hand these straight to computation kernels —
/// no sample data is ever cloned out of the pool.
pub type SampleSetView<'a, S> = &'a S;

/// What the pool needs from an interned item.
///
/// `content_hash` must be **consistent with equality**: `a == b` implies
/// `a.content_hash() == b.content_hash()` whenever `a` and `b` are
/// bit-identical payloads. (Value-equal items with different bit
/// patterns may hash apart — they then both get retained, which costs
/// memory but never correctness; see the crate-level invariants.)
pub trait PoolItem: PartialEq {
    /// Content hash used to bucket candidates for deduplication.
    fn content_hash(&self) -> u64;
    /// Heap bytes owned by this item (beyond `size_of::<Self>()`), for
    /// footprint accounting.
    fn heap_bytes(&self) -> usize;
}

/// A hash-consing interner: [`intern`](SampleSetPool::intern) returns a
/// [`SetRef`] to the arena's single copy of each distinct value.
///
/// The arena is append-only, so a `SetRef` stays valid (and keeps
/// denoting the same value) for the life of the pool.
#[derive(Debug, Clone)]
pub struct SampleSetPool<S> {
    /// One copy per distinct interned value.
    arena: Vec<S>,
    /// `content_hash →` arena index of the first value interned under
    /// that hash, held inline: no per-entry allocation.
    index: HashMap<u64, u32>,
    /// Collision chain, parallel to `arena`: the arena index of the
    /// next value with the same hash ([`NO_NEXT`] at the tail).
    next: Vec<u32>,
    /// Interns resolved to an existing entry.
    hits: u64,
    /// Running `size_of::<S>() + heap_bytes()` over the arena, updated
    /// on each intern miss so [`SampleSetPool::bytes`] is O(1) — serve
    /// shards read it on every window advance.
    payload_bytes: usize,
}

/// Chain terminator in [`SampleSetPool::next`]; never a valid arena
/// index, because the arena is capped at `u32::MAX` entries.
const NO_NEXT: u32 = u32::MAX;

impl<S> Default for SampleSetPool<S> {
    fn default() -> Self {
        SampleSetPool {
            arena: Vec::new(),
            index: HashMap::new(),
            next: Vec::new(),
            hits: 0,
            payload_bytes: 0,
        }
    }
}

impl<S: PoolItem> SampleSetPool<S> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `set`: returns the existing handle when an equal value is
    /// already in the arena (counting an intern *hit* and dropping
    /// `set`), otherwise moves `set` into the arena.
    pub fn intern(&mut self, set: S) -> SetRef {
        let new = u32::try_from(self.arena.len())
            .ok()
            .filter(|&i| i != NO_NEXT)
            .expect("pool exceeds u32 handles");
        match self.index.entry(set.content_hash()) {
            Entry::Vacant(slot) => {
                slot.insert(new);
            }
            Entry::Occupied(head) => {
                let mut i = *head.get();
                loop {
                    if self.arena[i as usize] == set {
                        self.hits += 1;
                        return SetRef(i);
                    }
                    match self.next[i as usize] {
                        NO_NEXT => break,
                        n => i = n,
                    }
                }
                self.next[i as usize] = new;
            }
        }
        self.payload_bytes += std::mem::size_of::<S>() + set.heap_bytes();
        self.arena.push(set);
        self.next.push(NO_NEXT);
        SetRef(new)
    }

    /// Zero-copy access to the interned value behind `r`.
    pub fn get(&self, r: SetRef) -> SampleSetView<'_, S> {
        &self.arena[r.index()]
    }

    /// Number of distinct interned values.
    pub fn sets_interned(&self) -> usize {
        self.arena.len()
    }

    /// Interns that resolved to an already-present value.
    pub fn intern_hits(&self) -> u64 {
        self.hits
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Resident bytes of the arena (inline + heap payloads) plus the
    /// minimal hash-index payload (`hash → index` per distinct set).
    /// Allocator slack and map capacity overhead are excluded — the same
    /// convention [`crate::RecordStore::row_bytes`] uses, so the two
    /// sides of a footprint comparison are measured alike. O(1): the
    /// payload sum is maintained incrementally at intern time.
    pub fn bytes(&self) -> usize {
        let index = self.arena.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        self.payload_bytes + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in for a sample set: (loc, prob-bits) pairs.
    #[derive(Debug, Clone, PartialEq)]
    struct TestSet(Vec<(u32, u64)>);

    impl PoolItem for TestSet {
        fn content_hash(&self) -> u64 {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            for &(loc, bits) in &self.0 {
                h.write_u32(loc);
                h.write_u64(bits);
            }
            h.finish()
        }

        fn heap_bytes(&self) -> usize {
            self.0.len() * std::mem::size_of::<(u32, u64)>()
        }
    }

    #[test]
    fn identical_sets_share_one_handle() {
        let mut pool = SampleSetPool::new();
        let a = pool.intern(TestSet(vec![(1, 10), (2, 20)]));
        let b = pool.intern(TestSet(vec![(1, 10), (2, 20)]));
        let c = pool.intern(TestSet(vec![(1, 10), (2, 21)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.sets_interned(), 2);
        assert_eq!(pool.intern_hits(), 1);
        assert_eq!(pool.get(a), pool.get(b));
        assert_eq!(pool.get(a).0, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn handles_are_stable_under_later_interns() {
        let mut pool = SampleSetPool::new();
        let first = pool.intern(TestSet(vec![(7, 7)]));
        for i in 0..100u32 {
            pool.intern(TestSet(vec![(i, u64::from(i))]));
        }
        assert_eq!(pool.get(first).0, vec![(7, 7)]);
        // Re-interning still finds the original.
        assert_eq!(pool.intern(TestSet(vec![(7, 7)])), first);
    }

    #[test]
    fn hash_collisions_fall_back_to_equality() {
        /// Every value hashes alike: dedup must still be exact.
        #[derive(Debug, Clone, PartialEq)]
        struct Colliding(u32);
        impl PoolItem for Colliding {
            fn content_hash(&self) -> u64 {
                42
            }
            fn heap_bytes(&self) -> usize {
                0
            }
        }
        let mut pool = SampleSetPool::new();
        let a = pool.intern(Colliding(1));
        let b = pool.intern(Colliding(2));
        let a2 = pool.intern(Colliding(1));
        assert_ne!(a, b);
        assert_eq!(a, a2);
        assert_eq!(pool.sets_interned(), 2);
        assert_eq!(pool.intern_hits(), 1);
    }

    #[test]
    fn bytes_grow_with_distinct_sets_only() {
        let mut pool = SampleSetPool::new();
        assert!(pool.is_empty());
        pool.intern(TestSet(vec![(1, 1), (2, 2)]));
        let one = pool.bytes();
        for _ in 0..10 {
            pool.intern(TestSet(vec![(1, 1), (2, 2)]));
        }
        assert_eq!(pool.bytes(), one, "duplicates must not grow the pool");
        pool.intern(TestSet(vec![(3, 3)]));
        assert!(pool.bytes() > one);
    }
}
