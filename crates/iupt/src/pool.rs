//! The hash-consing sample-set interner behind [`crate::Iupt`].
//!
//! Real positioning feeds re-report identical sample sets for long
//! stretches (a dwelling WiFi device), so the log stores each distinct
//! set once and gives every record a 4-byte [`SetRef`] to it.
//!
//! Interning is value-preserving: [`SampleSetPool::intern`] returns a
//! handle to a set *equal* to the one interned, so computations over the
//! pooled copy are bit-identical to computations over the original.
//! Dedup is best-effort: two equal sets whose
//! [`SampleSet::content_hash`] disagreed (impossible for bit-identical
//! payloads) would both be retained. Nothing may assume that equal sets
//! share a `SetRef`, only that one `SetRef` always denotes one value.

use std::collections::hash_map::{Entry, HashMap};

use crate::sample::SampleSet;

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

/// A hash-consing interner: [`intern`](SampleSetPool::intern) returns a
/// [`SetRef`] to the arena's single copy of each distinct set.
///
/// The arena is append-only, so a `SetRef` stays valid (and keeps
/// denoting the same set) for the life of the pool.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleSetPool {
    /// One copy per distinct interned set.
    arena: Vec<SampleSet>,
    /// `content_hash →` arena index of the first set interned under
    /// that hash, held inline: no per-entry allocation.
    index: HashMap<u64, u32>,
    /// Collision chain, parallel to `arena`: the arena index of the
    /// next set with the same hash ([`NO_NEXT`] at the tail).
    next: Vec<u32>,
    /// Interns resolved to an existing entry.
    hits: u64,
    /// Running `size_of::<SampleSet>() + heap_bytes()` over the arena,
    /// updated on each intern miss so [`SampleSetPool::bytes`] is O(1) —
    /// serve shards read it on every window advance.
    payload_bytes: usize,
}

/// Chain terminator in [`SampleSetPool::next`]; never a valid arena
/// index, because the arena is capped at `u32::MAX` entries.
const NO_NEXT: u32 = u32::MAX;

impl SampleSetPool {
    /// Interns `set`: returns the existing handle when an equal set is
    /// already in the arena (counting an intern *hit* and dropping
    /// `set`), otherwise moves `set` into the arena.
    pub(crate) fn intern(&mut self, set: SampleSet) -> SetRef {
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
        self.payload_bytes += std::mem::size_of::<SampleSet>() + set.heap_bytes();
        self.arena.push(set);
        self.next.push(NO_NEXT);
        SetRef(new)
    }

    /// The interned set behind `r`.
    pub(crate) fn get(&self, r: SetRef) -> &SampleSet {
        &self.arena[r.index()]
    }

    /// Number of distinct interned sets.
    pub(crate) fn sets_interned(&self) -> usize {
        self.arena.len()
    }

    /// Interns that resolved to an already-present set.
    pub(crate) fn intern_hits(&self) -> u64 {
        self.hits
    }

    /// Resident bytes of the arena (inline + heap payloads) plus the
    /// minimal hash-index payload (`hash → index` per distinct set).
    /// Allocator slack and map capacity overhead are excluded — the same
    /// convention [`crate::Iupt::row_bytes`] uses, so the two sides of a
    /// footprint comparison are measured alike.
    pub(crate) fn bytes(&self) -> usize {
        let index = self.arena.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        self.payload_bytes + index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;
    use indoor_model::PLocId;

    fn set(locs: &[(u32, f64)]) -> SampleSet {
        SampleSet::new(
            locs.iter()
                .map(|&(l, p)| Sample::new(PLocId(l), p))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn identical_sets_share_one_handle() {
        let mut pool = SampleSetPool::default();
        let a = pool.intern(set(&[(1, 0.25), (2, 0.75)]));
        let b = pool.intern(set(&[(1, 0.25), (2, 0.75)]));
        let c = pool.intern(set(&[(1, 0.5), (2, 0.5)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.sets_interned(), 2);
        assert_eq!(pool.intern_hits(), 1);
        assert!(std::ptr::eq(pool.get(a), pool.get(b)));
        assert_eq!(pool.get(a), &set(&[(1, 0.25), (2, 0.75)]));
    }

    #[test]
    fn handles_are_stable_under_later_interns() {
        let mut pool = SampleSetPool::default();
        let first = pool.intern(set(&[(7, 1.0)]));
        for i in 0..100 {
            pool.intern(SampleSet::certain(PLocId(i)));
        }
        assert_eq!(pool.get(first), &set(&[(7, 1.0)]));
        // Re-interning still finds the original.
        assert_eq!(pool.intern(set(&[(7, 1.0)])), first);
    }

    /// Two distinct sets under one hash: dedup must still be exact. The
    /// collision is forced by filing `b`'s hash under `a`'s arena slot,
    /// so `b` joins `a`'s chain instead of opening its own.
    #[test]
    fn hash_collisions_fall_back_to_equality() {
        let (x, y) = (set(&[(1, 1.0)]), set(&[(2, 1.0)]));
        let mut pool = SampleSetPool::default();
        let a = pool.intern(x.clone());
        pool.index.insert(y.content_hash(), a.0);
        let b = pool.intern(y.clone());
        assert_ne!(a, b);
        assert_eq!(pool.next[a.index()], b.0, "b chained behind a");
        assert_eq!(pool.intern(x), a);
        assert_eq!(pool.intern(y), b, "found by walking the chain");
        assert_eq!(pool.sets_interned(), 2);
        assert_eq!(pool.intern_hits(), 2);
    }

    #[test]
    fn bytes_grow_with_distinct_sets_only() {
        let mut pool = SampleSetPool::default();
        assert_eq!(pool.bytes(), 0);
        pool.intern(set(&[(1, 0.5), (2, 0.5)]));
        let one = pool.bytes();
        for _ in 0..10 {
            pool.intern(set(&[(1, 0.5), (2, 0.5)]));
        }
        assert_eq!(pool.bytes(), one, "duplicates must not grow the pool");
        pool.intern(set(&[(3, 1.0)]));
        assert!(pool.bytes() > one);
    }
}
