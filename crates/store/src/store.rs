//! The columnar, append-only record store.

use crate::memo::MemoStats;
use crate::pool::{PoolItem, SampleSetPool, SampleSetView, SetRef};

/// Footprint and interner accounting of a [`RecordStore`] (or a merge of
/// several — see [`StoreStats::merge`], used by sharded layouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Records in the store.
    pub records: usize,
    /// Resident bytes: the three record columns plus the interned-set
    /// arena and minimal hash-index payload (see
    /// [`SampleSetPool::bytes`]). Allocator slack is excluded on both
    /// sides of any comparison with [`RecordStore::row_bytes`].
    pub bytes: usize,
    /// Distinct sample sets in the pool.
    pub sets_interned: usize,
    /// Interns that deduplicated to an existing set.
    pub intern_hits: u64,
    /// Kernel-memo side-table accounting, folded in by the layer that
    /// owns the memo (see [`StoreStats::with_memo`]). The store itself
    /// reports zeros; once folded, [`StoreStats::bytes_per_record`]
    /// charges the memo's resident bytes against the same per-record
    /// budget as the log, so the footprint gates cannot be won by
    /// unbounded cache growth.
    pub memo: MemoStats,
}

impl StoreStats {
    /// Combines per-shard stats into totals (fields are additive).
    pub fn merge(self, other: StoreStats) -> StoreStats {
        StoreStats {
            records: self.records + other.records,
            bytes: self.bytes + other.bytes,
            sets_interned: self.sets_interned + other.sets_interned,
            intern_hits: self.intern_hits + other.intern_hits,
            memo: self.memo.merge(other.memo),
        }
    }

    /// Folds a kernel memo's accounting into the stats — used by layers
    /// (batch drivers, serve shards) that pair a store with a compute
    /// cache keyed by its [`SetRef`]s.
    pub fn with_memo(mut self, memo: MemoStats) -> StoreStats {
        self.memo = self.memo.merge(memo);
        self
    }

    /// Total resident bytes: the log columns and interner arena
    /// ([`StoreStats::bytes`]) plus any folded kernel-memo tables
    /// ([`MemoStats::bytes`]).
    pub fn total_bytes(&self) -> usize {
        self.bytes + self.memo.bytes
    }

    /// Mean resident bytes per record (0 for an empty store), including
    /// any folded kernel-memo bytes — caches are part of the footprint.
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.records as f64
        }
    }

    /// Fraction of interns served by deduplication, in `[0, 1]`.
    pub fn intern_hit_rate(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.intern_hits as f64 / self.records as f64
        }
    }
}

/// Zero-copy view of one stored record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a, S> {
    /// Position in the store (stable forever).
    pub pos: u32,
    /// Object id column value.
    pub oid: u32,
    /// Timestamp column value, milliseconds.
    pub t: i64,
    /// Handle of the interned sample set.
    pub set_ref: SetRef,
    /// Borrow of the single interned copy of the sample set.
    pub set: SampleSetView<'a, S>,
}

/// An append-only, struct-of-arrays record log over a
/// [`SampleSetPool`]: parallel `oid` / `t` / `set` columns, with each
/// `set` entry a 4-byte [`SetRef`] into the pool.
///
/// Positions (the `u32` returned by [`push`](RecordStore::push)) are
/// dense, start at 0, and are **stable**: the store never moves or
/// removes a record, so layers above may cache positions across
/// arbitrary later appends.
#[derive(Debug, Clone)]
pub struct RecordStore<S> {
    oids: Vec<u32>,
    times: Vec<i64>,
    sets: Vec<SetRef>,
    pool: SampleSetPool<S>,
}

impl<S> Default for RecordStore<S> {
    fn default() -> Self {
        RecordStore {
            oids: Vec::new(),
            times: Vec::new(),
            sets: Vec::new(),
            pool: SampleSetPool::default(),
        }
    }
}

impl<S: PoolItem> RecordStore<S> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record, interning its sample set. Returns the record's
    /// (stable) position.
    pub fn push(&mut self, oid: u32, t: i64, set: S) -> u32 {
        let set = self.pool.intern(set);
        let pos = u32::try_from(self.oids.len()).expect("store exceeds u32 positions");
        self.oids.push(oid);
        self.times.push(t);
        self.sets.push(set);
        pos
    }

    /// Appends a run of `(oid, t, set)` records in iteration order,
    /// growing each column once for the whole run. Interning, positions
    /// and the resulting columns are exactly those of pushing the
    /// records one by one. Returns the run's position range.
    pub fn extend<I>(&mut self, records: I) -> std::ops::Range<u32>
    where
        I: IntoIterator<Item = (u32, i64, S)>,
    {
        let records = records.into_iter();
        let expected = records.size_hint().0;
        self.oids.reserve(expected);
        self.times.reserve(expected);
        self.sets.reserve(expected);
        let start = self.len() as u32;
        for (oid, t, set) in records {
            self.push(oid, t, set);
        }
        start..self.len() as u32
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// The object id at `pos`.
    pub fn oid(&self, pos: u32) -> u32 {
        self.oids[pos as usize]
    }

    /// The timestamp (ms) at `pos`.
    pub fn time(&self, pos: u32) -> i64 {
        self.times[pos as usize]
    }

    /// The interned-set handle at `pos`.
    pub fn set_ref(&self, pos: u32) -> SetRef {
        self.sets[pos as usize]
    }

    /// Zero-copy borrow of the sample set at `pos`.
    pub fn set(&self, pos: u32) -> SampleSetView<'_, S> {
        self.pool.get(self.sets[pos as usize])
    }

    /// Zero-copy view of the whole record at `pos`.
    pub fn view(&self, pos: u32) -> RecordView<'_, S> {
        let set_ref = self.sets[pos as usize];
        RecordView {
            pos,
            oid: self.oids[pos as usize],
            t: self.times[pos as usize],
            set_ref,
            set: self.pool.get(set_ref),
        }
    }

    /// Iterates all records in position (append) order, zero-copy.
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_, S>> + '_ {
        (0..self.len() as u32).map(move |pos| self.view(pos))
    }

    /// The raw object-id column.
    pub fn oids(&self) -> &[u32] {
        &self.oids
    }

    /// The raw timestamp column (ms).
    pub fn times(&self) -> &[i64] {
        &self.times
    }

    /// The raw set-handle column.
    pub fn set_refs(&self) -> &[SetRef] {
        &self.sets
    }

    /// The underlying interner.
    pub fn pool(&self) -> &SampleSetPool<S> {
        &self.pool
    }

    /// Footprint and interner accounting.
    pub fn stats(&self) -> StoreStats {
        let columns = self.len()
            * (std::mem::size_of::<u32>()
                + std::mem::size_of::<i64>()
                + std::mem::size_of::<SetRef>());
        StoreStats {
            records: self.len(),
            bytes: columns + self.pool.bytes(),
            sets_interned: self.pool.sets_interned(),
            intern_hits: self.pool.intern_hits(),
            memo: MemoStats::default(),
        }
    }

    /// The row-layout counterfactual: bytes a plain `Vec` of
    /// `(oid, t, set)` rows — every record owning its own set — would
    /// occupy for the same content. Measured with the same convention as
    /// [`StoreStats::bytes`] (payload only, no allocator slack), and
    /// slightly *below* a real row struct's cost since per-row padding
    /// is ignored — so beating it is a conservative win.
    pub fn row_bytes(&self) -> usize {
        self.sets
            .iter()
            .map(|&r| {
                std::mem::size_of::<u32>()
                    + std::mem::size_of::<i64>()
                    + std::mem::size_of::<S>()
                    + self.pool.get(r).heap_bytes()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolItem;

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

    fn set(tag: u32) -> TestSet {
        TestSet(vec![(tag, u64::from(tag)), (tag + 1, 7)])
    }

    #[test]
    fn columns_and_views_agree() {
        let mut s = RecordStore::new();
        let p0 = s.push(1, 100, set(0));
        let p1 = s.push(2, 200, set(1));
        let p2 = s.push(1, 300, set(0)); // duplicate set
        assert_eq!((p0, p1, p2), (0, 1, 2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.oids(), &[1, 2, 1]);
        assert_eq!(s.times(), &[100, 200, 300]);
        assert_eq!(s.set_ref(0), s.set_ref(2), "duplicates share a handle");
        assert_ne!(s.set_ref(0), s.set_ref(1));
        let v = s.view(2);
        assert_eq!((v.pos, v.oid, v.t), (2, 1, 300));
        assert_eq!(v.set, &set(0));
        assert!(std::ptr::eq(s.set(0), s.set(2)), "one arena copy");
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn positions_stay_stable_across_appends() {
        let mut s = RecordStore::new();
        let early = s.push(3, 30, set(3));
        for i in 0..500u32 {
            s.push(i, i64::from(i), set(i % 7));
        }
        let v = s.view(early);
        assert_eq!((v.oid, v.t), (3, 30));
        assert_eq!(v.set, &set(3));
    }

    #[test]
    fn interned_store_beats_row_layout_on_redundant_data() {
        let mut s = RecordStore::new();
        for i in 0..100u32 {
            s.push(i % 5, i64::from(i), set(i % 3)); // only 3 distinct sets
        }
        let st = s.stats();
        assert_eq!(st.records, 100);
        assert_eq!(st.sets_interned, 3);
        assert_eq!(st.intern_hits, 97);
        assert!((st.intern_hit_rate() - 0.97).abs() < 1e-12);
        assert!(
            st.bytes < s.row_bytes(),
            "interned {} vs row {}",
            st.bytes,
            s.row_bytes()
        );
        assert!(st.bytes_per_record() > 0.0);
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = RecordStore::new();
        let mut b = RecordStore::new();
        a.push(1, 1, set(1));
        a.push(1, 2, set(1));
        b.push(2, 1, set(2));
        let m = a.stats().merge(b.stats());
        assert_eq!(m.records, 3);
        assert_eq!(m.sets_interned, 2);
        assert_eq!(m.intern_hits, 1);
        assert_eq!(m.bytes, a.stats().bytes + b.stats().bytes);
    }

    #[test]
    fn with_memo_charges_cache_bytes_per_record() {
        let mut s = RecordStore::new();
        for i in 0..10u32 {
            s.push(i, i64::from(i), set(i % 2));
        }
        let plain = s.stats();
        let memo = MemoStats {
            hits: 4,
            misses: 2,
            entries: 2,
            bytes: 1_000,
            evictions: 0,
            invalidations: 0,
        };
        let folded = s.stats().with_memo(memo);
        assert_eq!(folded.memo, memo);
        assert_eq!(folded.total_bytes(), plain.bytes + 1_000);
        assert!(
            folded.bytes_per_record() > plain.bytes_per_record(),
            "memo bytes must count against the per-record footprint"
        );
        let merged = folded.merge(folded);
        assert_eq!(merged.memo.bytes, 2_000);
        assert_eq!(merged.memo.hits, 8);
    }

    #[test]
    fn empty_store_stats_are_zero() {
        let s: RecordStore<TestSet> = RecordStore::new();
        assert!(s.is_empty());
        let st = s.stats();
        assert_eq!(st, StoreStats::default());
        assert_eq!(st.bytes_per_record(), 0.0);
        assert_eq!(st.intern_hit_rate(), 0.0);
        assert_eq!(s.row_bytes(), 0);
    }
}
