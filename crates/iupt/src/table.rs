use std::ops::Range;

use crate::pool::{SampleSetPool, SetRef};
use crate::sample::SampleSet;
use crate::time::{TimeInterval, Timestamp};

/// How far apart, per record of a window, [`Iupt::sequences_in`] lets
/// the window's object ids spread before it groups by sorting instead of
/// counting: the count array then holds at most this many slots per
/// record.
const DENSE_SPAN_PER_RECORD: usize = 4;

/// Identifier of an indoor moving object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Dense container index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// One positioning record `(oid, X, t)` (§2.2): at time `t`, object `oid`'s
/// location is described by the sample set `X`.
///
/// This is the *transfer* shape — what streams deliver and `Iupt::push`
/// ingests. Inside the table the record is held columnar and its sample
/// set interned (see [`Iupt`]); reads come back as borrowed
/// [`RecordRef`] views, not owned `Record`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The positioned object.
    pub oid: ObjectId,
    /// Positioning timestamp.
    pub t: Timestamp,
    /// The probabilistic sample set reported at `t`.
    pub samples: SampleSet,
}

/// Zero-copy view of one stored record: the scalar columns by value, the
/// sample set borrowed from the store's single interned copy.
///
/// Equality compares the record's *value* (`oid`, `t`, `samples`), not
/// [`RecordRef::set_ref`] — the handle is pool-local, so views of equal
/// records read from different tables (e.g. sharded vs. flat) compare
/// equal even though their pools numbered the set differently.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    /// The positioned object.
    pub oid: ObjectId,
    /// Positioning timestamp.
    pub t: Timestamp,
    /// Handle of the interned sample set in this table's pool.
    /// Pool-local: only meaningful against the [`Iupt`] that produced
    /// this view.
    pub set_ref: SetRef,
    /// Borrow of the interned sample set ([`SampleSetView`]).
    pub samples: SampleSetView<'a>,
}

/// Zero-copy access to an interned sample set — a borrow of the pool's
/// single arena copy.
pub type SampleSetView<'a> = &'a SampleSet;

impl PartialEq for RecordRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid && self.t == other.t && self.samples == other.samples
    }
}

impl RecordRef<'_> {
    /// Materializes an owned [`Record`] (clones the sample set) — the
    /// transfer shape for handing the record to another owner, e.g. a
    /// serve shard across a thread boundary.
    pub fn to_record(&self) -> Record {
        Record {
            oid: self.oid,
            t: self.t,
            samples: self.samples.clone(),
        }
    }
}

/// An object's positioning sequence within a query window: the records
/// ordered by time — the `X = (X1, …, Xn)` of §2.3.
#[derive(Debug, Clone)]
pub struct ObjectSequence<'a> {
    /// The object the sequence belongs to.
    pub oid: ObjectId,
    /// The object's records in the window, time-ordered.
    pub records: Vec<RecordRef<'a>>,
}

impl ObjectSequence<'_> {
    /// Sequence length `n`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Upper bound on the number of possible paths,
    /// `Π 1..n |πl(Xi)|` (§3.2) — saturating, as it grows explosively.
    pub fn max_paths(&self) -> u128 {
        self.records
            .iter()
            .fold(1u128, |acc, r| acc.saturating_mul(r.samples.len() as u128))
    }
}

/// The Indoor Uncertain Positioning Table (IUPT): the append-only log of
/// positioning records, in non-decreasing time order.
///
/// # Storage layout
///
/// Parallel `oid`/`t`/`set` columns, with every sample set hash-consed
/// through the table's interner so identical reports (a dwelling device
/// re-reporting the same probabilistic position) share **one** copy and
/// each record holds a 4-byte [`SetRef`].
///
/// The time column is the paper's time index (§3.3): records are
/// appended in time order, so a window `[ts, te]` is the contiguous
/// position range two binary searches on that column find — the same
/// records, in the same order, that a 1D R-tree over the time attribute
/// returns, with no second copy of the timestamps.
///
/// Two invariants carry the layers above:
///
/// * **Position stability** — the log is append-only; a record's `u32`
///   position (as returned by [`Iupt::push`] and [`Iupt::extend`]) stays
///   valid as later records arrive. The `popflow-serve` shards keep
///   positions for the log's lifetime on the strength of this.
/// * **Value-preserving interning** — [`Iupt::samples_at`] returns a
///   set equal to the one pushed, so flows computed over views are
///   bit-identical to flows over the original owned records.
#[derive(Debug, Clone, Default)]
pub struct Iupt {
    oids: Vec<u32>,
    /// Non-decreasing: the index every window lookup searches.
    times: Vec<i64>,
    sets: Vec<SetRef>,
    pool: SampleSetPool,
}

impl Iupt {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from records, sorting them by time (stable, so same-timestamp
    /// records keep insertion order).
    pub fn from_records(mut records: Vec<Record>) -> Self {
        records.sort_by_key(|r| r.t);
        let mut table = Iupt::new();
        table.extend(records);
        table
    }

    /// Appends a record, interning its sample set; records must arrive in
    /// non-decreasing time order. Returns the record's (stable) position.
    /// The one-record case of [`Iupt::extend`].
    ///
    /// # Panics
    /// Panics on an out-of-order record, as [`Iupt::extend`] does.
    pub fn push(&mut self, record: Record) -> u32 {
        self.extend(std::iter::once(record)).start
    }

    /// Appends a run of records in iteration order — each column grows
    /// once for the whole run — interning every sample set. Returns the
    /// run's (stable) position range. The log that results is
    /// position-identical to pushing the records one by one.
    ///
    /// # Panics
    /// Panics on a record older than the one before it: the IUPT is an
    /// append-only log of positioning reports and its time column is its
    /// index, so an out-of-order record is a bug upstream rather than a
    /// condition to tolerate silently.
    pub fn extend<I: IntoIterator<Item = Record>>(&mut self, records: I) -> Range<u32> {
        let records = records.into_iter();
        let expected = records.size_hint().0;
        self.oids.reserve(expected);
        self.times.reserve(expected);
        self.sets.reserve(expected);
        let start = self.len() as u32;
        for Record { oid, t, samples } in records {
            let t = t.millis();
            if let Some(&last) = self.times.last() {
                assert!(t >= last, "Iupt append out of order: {t} after {last}");
            }
            let set = self.pool.intern(samples);
            self.oids.push(oid.0);
            self.times.push(t);
            self.sets.push(set);
        }
        start..u32::try_from(self.len()).expect("log exceeds u32 positions")
    }

    /// Does nothing: the time column needs no build step. Kept because
    /// the frozen benchmark still calls it; it goes when the benchmark
    /// is next changed (ROADMAP item 1(c)).
    pub fn freeze(&self) {}

    /// Number of records.
    pub fn len(&self) -> usize {
        self.oids.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.oids.is_empty()
    }

    /// Zero-copy view of the record at `pos` (positions are dense, in
    /// time order).
    pub fn view(&self, pos: u32) -> RecordRef<'_> {
        let i = pos as usize;
        RecordRef {
            oid: ObjectId(self.oids[i]),
            t: Timestamp(self.times[i]),
            set_ref: self.sets[i],
            samples: self.pool.get(self.sets[i]),
        }
    }

    /// Zero-copy borrow of the sample set at `pos` — the accessor the
    /// serve shards use to resolve their cached record positions.
    pub fn samples_at(&self, pos: u32) -> SampleSetView<'_> {
        self.pool.get(self.sets[pos as usize])
    }

    /// Iterates all records in time (append) order, zero-copy.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        self.positions(0..self.len())
    }

    /// Materializes the table as owned records (clones every sample set)
    /// — the transfer shape for re-ingesting the log elsewhere; prefer
    /// [`Iupt::iter`] for reading.
    pub fn to_records(&self) -> Vec<Record> {
        self.iter().map(|r| r.to_record()).collect()
    }

    /// Earliest and latest record timestamps.
    pub fn time_bounds(&self) -> Option<TimeInterval> {
        match (self.times.first(), self.times.last()) {
            (Some(&lo), Some(&hi)) => Some(TimeInterval::new(Timestamp(lo), Timestamp(hi))),
            _ => None,
        }
    }

    /// Number of distinct objects in the table.
    pub fn object_count(&self) -> usize {
        let mut ids = self.oids.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The positions of the records within `[ts, te]`: a contiguous
    /// range, found by binary search on the sorted time column
    /// (Algorithm 2 line 1).
    fn window(&self, interval: TimeInterval) -> Range<usize> {
        let (ts, te) = (interval.start.millis(), interval.end.millis());
        let first = self.times.partition_point(|&t| t < ts);
        let last = self.times.partition_point(|&t| t <= te);
        first..last.max(first)
    }

    /// Views of the records at `range`, in position order.
    fn positions(&self, range: Range<usize>) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        range.map(move |i| self.view(i as u32))
    }

    /// Records within `[ts, te]`, in time order (Algorithm 2 line 1).
    pub fn range_query(&self, interval: TimeInterval) -> Vec<RecordRef<'_>> {
        self.positions(self.window(interval)).collect()
    }

    /// The per-object hash table `HO : {oid} → {X}` of Algorithms 2–4,
    /// built without hashing: the records in `[ts, te]` grouped by object,
    /// the groups in ascending object id, each group in position (hence
    /// time) order.
    ///
    /// When the window's ids are dense — their span at most four times
    /// the window's record count — one
    /// counting pass sizes every group exactly and a second pushes the
    /// records in position order. Sparse or huge ids are grouped by a
    /// stable sort of the positions by id instead, so no count array
    /// outgrows the window. Both give the same groups.
    pub fn sequences_in(&self, interval: TimeInterval) -> Vec<ObjectSequence<'_>> {
        let window = self.window(interval);
        let oids = &self.oids[window.clone()];
        let (Some(&lo), Some(&hi)) = (oids.iter().min(), oids.iter().max()) else {
            return Vec::new();
        };
        let span = (hi - lo) as usize + 1;
        if span > DENSE_SPAN_PER_RECORD * oids.len() {
            return self.sequences_by_sort(window);
        }
        // Per id, its record count; then, for the ids present, their
        // group's index.
        let mut slots = vec![0u32; span];
        for &oid in oids {
            slots[(oid - lo) as usize] += 1;
        }
        let mut seqs = Vec::new();
        for (oid, slot) in (lo..=hi).zip(&mut slots) {
            if *slot > 0 {
                let records = Vec::with_capacity(*slot as usize);
                *slot = seqs.len() as u32;
                seqs.push(ObjectSequence {
                    oid: ObjectId(oid),
                    records,
                });
            }
        }
        for (pos, &oid) in window.zip(oids) {
            let group = &mut seqs[slots[(oid - lo) as usize] as usize];
            group.records.push(self.view(pos as u32));
        }
        seqs
    }

    /// [`Iupt::sequences_in`] over a window of sparse ids: the window's
    /// positions stably sorted by id, then cut into one group per id.
    fn sequences_by_sort(&self, window: Range<usize>) -> Vec<ObjectSequence<'_>> {
        let mut order: Vec<u32> = (window.start as u32..window.end as u32).collect();
        order.sort_by_key(|&pos| self.oids[pos as usize]);
        let mut seqs: Vec<ObjectSequence<'_>> = Vec::new();
        for record in order.into_iter().map(|pos| self.view(pos)) {
            match seqs.last_mut() {
                Some(group) if group.oid == record.oid => group.records.push(record),
                _ => seqs.push(ObjectSequence {
                    oid: record.oid,
                    records: vec![record],
                }),
            }
        }
        seqs
    }

    /// One object's sequence within the window.
    pub fn sequence_of(&self, oid: ObjectId, interval: TimeInterval) -> ObjectSequence<'_> {
        let records = self
            .window(interval)
            .filter(|&i| self.oids[i] == oid.0)
            .map(|i| self.view(i as u32))
            .collect();
        ObjectSequence { oid, records }
    }

    /// Summary statistics for reporting.
    pub fn stats(&self) -> IuptStats {
        let mut samples = 0usize;
        let mut max_set = 0usize;
        for &r in &self.sets {
            let len = self.pool.get(r).len();
            samples += len;
            max_set = max_set.max(len);
        }
        IuptStats {
            records: self.len(),
            objects: self.object_count(),
            total_samples: samples,
            max_sample_set_size: max_set,
        }
    }

    /// Footprint and interner accounting of the log.
    pub fn store_stats(&self) -> StoreStats {
        let columns = self.len()
            * (std::mem::size_of::<u32>()
                + std::mem::size_of::<i64>()
                + std::mem::size_of::<SetRef>());
        StoreStats {
            records: self.len(),
            bytes: columns + self.pool.bytes(),
            sets_interned: self.pool.sets_interned(),
            intern_hits: self.pool.intern_hits(),
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
                    + std::mem::size_of::<SampleSet>()
                    + self.pool.get(r).heap_bytes()
            })
            .sum()
    }
}

/// Footprint and interner accounting of an [`Iupt`], or of several
/// merged with [`StoreStats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Records in the log.
    pub records: usize,
    /// Resident bytes: the three record columns plus the interned-set
    /// arena and its minimal hash-index payload. Allocator slack is
    /// excluded on both sides of any comparison with
    /// [`Iupt::row_bytes`].
    pub bytes: usize,
    /// Distinct sample sets in the pool.
    pub sets_interned: usize,
    /// Interns that deduplicated to an existing set.
    pub intern_hits: u64,
}

impl StoreStats {
    /// Combines per-shard stats into totals (fields are additive).
    pub fn merge(self, other: StoreStats) -> StoreStats {
        StoreStats {
            records: self.records + other.records,
            bytes: self.bytes + other.bytes,
            sets_interned: self.sets_interned + other.sets_interned,
            intern_hits: self.intern_hits + other.intern_hits,
        }
    }

    /// Mean resident bytes per record (0 for an empty log).
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.bytes as f64 / self.records as f64
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

/// Summary statistics of an [`Iupt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IuptStats {
    /// Number of stored records.
    pub records: usize,
    /// Number of distinct objects.
    pub objects: usize,
    /// Total samples across all records.
    pub total_samples: usize,
    /// Largest single sample-set size.
    pub max_sample_set_size: usize,
}

impl std::fmt::Display for IuptStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} records from {} objects ({} samples, mss {})",
            self.records, self.objects, self.total_samples, self.max_sample_set_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;
    use indoor_model::PLocId;

    fn rec(oid: u32, t_secs: i64, locs: &[(u32, f64)]) -> Record {
        Record {
            oid: ObjectId(oid),
            t: Timestamp::from_secs(t_secs),
            samples: SampleSet::new(
                locs.iter()
                    .map(|&(l, pr)| Sample::new(PLocId(l), pr))
                    .collect(),
            )
            .unwrap(),
        }
    }

    fn table() -> Iupt {
        Iupt::from_records(vec![
            rec(1, 1, &[(4, 1.0)]),
            rec(2, 1, &[(1, 0.5), (2, 0.5)]),
            rec(3, 2, &[(2, 0.6), (3, 0.4)]),
            rec(1, 3, &[(9, 1.0)]),
            rec(2, 3, &[(2, 0.7), (4, 0.3)]),
            rec(1, 4, &[(8, 1.0)]),
            rec(2, 5, &[(5, 0.3), (6, 0.6), (8, 0.1)]),
            rec(3, 5, &[(2, 0.4), (3, 0.6)]),
            rec(2, 6, &[(5, 0.2), (6, 0.3), (8, 0.5)]),
            rec(3, 8, &[(3, 1.0)]),
        ])
    }

    #[test]
    fn counts_and_bounds() {
        let t = table();
        assert_eq!(t.len(), 10);
        assert_eq!(t.object_count(), 3);
        let b = t.time_bounds().unwrap();
        assert_eq!(b.start, Timestamp::from_secs(1));
        assert_eq!(b.end, Timestamp::from_secs(8));
        let st = t.stats();
        assert_eq!(st.max_sample_set_size, 3);
        assert_eq!(st.total_samples, 18);
    }

    #[test]
    fn range_query_filters_by_time() {
        let t = table();
        let iv = TimeInterval::new(Timestamp::from_secs(3), Timestamp::from_secs(5));
        let hits = t.range_query(iv);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|r| iv.contains(r.t)));
    }

    #[test]
    fn sequences_grouped_and_ordered() {
        let t = table();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let seqs = t.sequences_in(iv);
        assert_eq!(seqs.len(), 3);
        assert_eq!(seqs[0].oid, ObjectId(1));
        assert_eq!(seqs[0].len(), 3);
        assert_eq!(seqs[1].len(), 4);
        assert_eq!(seqs[2].len(), 3);
        for s in &seqs {
            assert!(s.records.windows(2).all(|w| w[0].t <= w[1].t));
        }
    }

    #[test]
    fn sequence_of_single_object() {
        let t = table();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let s = t.sequence_of(ObjectId(3), iv);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_paths(), 2 * 2);
        let none = t.sequence_of(ObjectId(99), iv);
        assert!(none.is_empty());
        assert_eq!(none.max_paths(), 1);
    }

    #[test]
    fn from_records_sorts_by_time() {
        let t = Iupt::from_records(vec![rec(1, 5, &[(0, 1.0)]), rec(1, 2, &[(1, 1.0)])]);
        assert_eq!(t.view(0).t, Timestamp::from_secs(2));
    }

    #[test]
    fn empty_table_behaviour() {
        let t = Iupt::new();
        assert!(t.is_empty());
        assert!(t.time_bounds().is_none());
        let iv = TimeInterval::new(Timestamp(0), Timestamp(1000));
        assert!(t.sequences_in(iv).is_empty());
        assert_eq!(t.store_stats(), StoreStats::default());
    }

    #[test]
    fn empty_table_window_lookups() {
        let t = Iupt::new();
        let iv = TimeInterval::new(Timestamp(0), Timestamp(100));
        assert!(t.range_query(iv).is_empty());
        assert!(t.sequences_in(iv).is_empty());
        assert!(t.sequence_of(ObjectId(0), iv).is_empty());
        assert!(t.time_bounds().is_none());
    }

    /// The interning contract: identical sample sets pushed as separate
    /// records share one arena copy (pointer-identical views), positions
    /// stay stable across appends, and `to_records` round-trips the
    /// exact pushed content.
    #[test]
    fn interns_identical_sets_and_keeps_positions_stable() {
        let mut t = Iupt::new();
        let dup = rec(1, 1, &[(2, 0.5), (3, 0.5)]);
        let p0 = t.push(dup.clone());
        t.push(rec(2, 2, &[(4, 1.0)]));
        let p2 = t.push(Record {
            oid: ObjectId(3),
            t: Timestamp::from_secs(3),
            ..dup.clone()
        });
        // One interned copy serves both records.
        assert!(std::ptr::eq(t.samples_at(p0), t.samples_at(p2)));
        assert_eq!(t.view(p0).set_ref, t.view(p2).set_ref);
        let stats = t.store_stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.sets_interned, 2);
        assert_eq!(stats.intern_hits, 1);
        assert!(
            stats.bytes < t.row_bytes(),
            "dedup must beat the row layout"
        );

        // Positions survive later appends.
        for i in 0..50 {
            t.push(rec(9, 10 + i, &[(1, 1.0)]));
        }
        assert_eq!(t.view(p0).samples, &dup.samples);
        assert_eq!(t.view(p0).oid, ObjectId(1));

        // Round-trip.
        let round = Iupt::from_records(t.to_records());
        assert_eq!(round.len(), t.len());
        for (a, b) in round.iter().zip(t.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn columns_and_views_agree() {
        let mut t = Iupt::new();
        let dup = rec(1, 1, &[(2, 0.5), (3, 0.5)]);
        let p0 = t.push(dup.clone());
        let p1 = t.push(rec(2, 2, &[(4, 1.0)]));
        let p2 = t.push(rec(1, 3, &[(2, 0.5), (3, 0.5)])); // duplicate set
        assert_eq!((p0, p1, p2), (0, 1, 2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.oids, [1, 2, 1]);
        assert_eq!(t.times, [1000, 2000, 3000]);
        assert_eq!(
            t.view(p0).set_ref,
            t.view(p2).set_ref,
            "duplicates share a handle"
        );
        assert_ne!(t.view(p0).set_ref, t.view(p1).set_ref);
        let v = t.view(p2);
        assert_eq!((v.oid, v.t), (ObjectId(1), Timestamp::from_secs(3)));
        assert_eq!(v.samples, &dup.samples);
        assert!(
            std::ptr::eq(t.samples_at(p0), t.samples_at(p2)),
            "one arena copy"
        );
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn positions_stay_stable_across_appends() {
        let mut t = Iupt::new();
        let early = t.push(rec(3, 30, &[(3, 1.0)]));
        for i in 0..500u32 {
            t.push(rec(i, 30 + i64::from(i), &[(i % 7, 1.0)]));
        }
        let v = t.view(early);
        assert_eq!((v.oid, v.t), (ObjectId(3), Timestamp::from_secs(30)));
        assert_eq!(v.samples, &rec(3, 30, &[(3, 1.0)]).samples);
    }

    fn at(ms: i64) -> Record {
        Record {
            oid: ObjectId((ms % 3) as u32),
            t: Timestamp(ms),
            samples: SampleSet::certain(PLocId(1)),
        }
    }

    fn times(hits: &[RecordRef<'_>]) -> Vec<i64> {
        hits.iter().map(|r| r.t.millis()).collect()
    }

    fn window(ts: i64, te: i64) -> TimeInterval {
        TimeInterval {
            start: Timestamp(ts),
            end: Timestamp(te),
        }
    }

    #[test]
    fn exact_boundaries_inclusive() {
        let t = Iupt::from_records((0..100).map(|i| at(i * 10)).collect());
        let hits = t.range_query(window(100, 200));
        assert_eq!(times(&hits), (10..=20).map(|i| i * 10).collect::<Vec<_>>());
    }

    fn assert_empty_window(t: &Iupt, ts: i64, te: i64) {
        assert!(t.range_query(window(ts, te)).is_empty(), "[{ts}, {te}]");
        assert!(t.sequences_in(window(ts, te)).is_empty(), "[{ts}, {te}]");
        assert!(t.sequence_of(ObjectId(0), window(ts, te)).is_empty());
    }

    #[test]
    fn inverted_range_is_empty() {
        let t = Iupt::from_records((0..10).map(|i| at(i * 10)).collect());
        assert_empty_window(&t, 50, 40);
        assert_empty_window(&t, 40, 39);
    }

    #[test]
    fn range_outside_data_is_empty() {
        let t = Iupt::from_records((0..10).map(|i| at(i * 10)).collect());
        for (ts, te) in [(-100, -1), (1000, 2000), (i64::MIN, -1), (91, 99)] {
            assert_empty_window(&t, ts, te);
        }
    }

    /// Ties at both edges: every record at `ts` and every record at `te`
    /// is inside, in append order.
    #[test]
    fn duplicate_timestamps_all_returned() {
        let ms = [3, 5, 5, 5, 6, 7, 7, 7, 9];
        let t = Iupt::from_records(ms.iter().map(|&m| at(m)).collect());
        assert_eq!(times(&t.range_query(window(5, 7))), [5, 5, 5, 6, 7, 7, 7]);
        assert_eq!(times(&t.range_query(window(5, 5))), [5, 5, 5]);
        let positions: Vec<u32> = (1..8).collect();
        let got: Vec<RecordRef<'_>> = positions.iter().map(|&p| t.view(p)).collect();
        assert_eq!(t.range_query(window(5, 7)), got);
    }

    /// The whole log through an end of `i64::MAX`, the window the
    /// benchmark's `cut_after` uses.
    #[test]
    fn an_end_of_i64_max_reaches_the_last_record() {
        let t = Iupt::from_records((0..50).map(|i| at(i * 7)).collect());
        assert_eq!(t.range_query(window(0, i64::MAX)).len(), 50);
        assert_eq!(t.range_query(window(300, i64::MAX)).len(), 7);
        assert_eq!(t.range_query(window(i64::MIN, i64::MAX)).len(), 50);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut t = Iupt::new();
        t.push(at(10));
        t.push(at(5));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_extend_panics() {
        let mut t = Iupt::new();
        t.push(at(10));
        t.extend([at(10), at(12), at(11)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random time-sorted tables with ties, every window lookup
        /// equals a linear filter over `iter()`.
        #[test]
        fn matches_linear_filter(
            mut ms in proptest::collection::vec(0i64..500, 0..300),
            ts in -10i64..510,
            len in -20i64..300,
            oid in 0u32..4,
        ) {
            ms.sort_unstable();
            let t = Iupt::from_records(ms.iter().map(|&m| at(m)).collect());
            let iv = window(ts, ts + len);
            let inside: Vec<RecordRef<'_>> = t.iter().filter(|r| iv.contains(r.t)).collect();
            proptest::prop_assert_eq!(t.range_query(iv), inside.clone());

            let seqs = t.sequences_in(iv);
            let mut oids: Vec<ObjectId> = inside.iter().map(|r| r.oid).collect();
            oids.sort_unstable();
            oids.dedup();
            proptest::prop_assert_eq!(seqs.iter().map(|s| s.oid).collect::<Vec<_>>(), oids);
            for seq in &seqs {
                let want: Vec<RecordRef<'_>> =
                    inside.iter().copied().filter(|r| r.oid == seq.oid).collect();
                proptest::prop_assert_eq!(&seq.records, &want);
            }

            let want: Vec<RecordRef<'_>> =
                inside.iter().copied().filter(|r| r.oid == ObjectId(oid)).collect();
            proptest::prop_assert_eq!(t.sequence_of(ObjectId(oid), iv).records, want);
        }
    }

    #[test]
    fn stats_merge_is_additive() {
        let mut a = Iupt::new();
        let mut b = Iupt::new();
        a.push(rec(1, 1, &[(1, 1.0)]));
        a.push(rec(1, 2, &[(1, 1.0)]));
        b.push(rec(2, 1, &[(2, 1.0)]));
        let m = a.store_stats().merge(b.store_stats());
        assert_eq!(m.records, 3);
        assert_eq!(m.sets_interned, 2);
        assert_eq!(m.intern_hits, 1);
        assert_eq!(m.bytes, a.store_stats().bytes + b.store_stats().bytes);
    }

    /// Three distinct sets over 100 records: the interned log undercuts
    /// the row layout, and the hit rate counts the 97 repeats.
    #[test]
    fn interned_store_beats_row_layout_on_redundant_data() {
        let t = Iupt::from_records(
            (0..100)
                .map(|i| rec(i % 5, i64::from(i), &[(i % 3, 0.5), (i % 3 + 1, 0.5)]))
                .collect(),
        );
        let st = t.store_stats();
        assert_eq!(st.records, 100);
        assert_eq!(st.sets_interned, 3);
        assert_eq!(st.intern_hits, 97);
        assert!((st.intern_hit_rate() - 0.97).abs() < 1e-12);
        assert!(
            st.bytes < t.row_bytes(),
            "interned {} vs row {}",
            st.bytes,
            t.row_bytes()
        );
        assert!(st.bytes_per_record() > 0.0);
    }

    #[test]
    fn empty_store_stats_are_zero() {
        let t = Iupt::new();
        let st = t.store_stats();
        assert_eq!(st.bytes_per_record(), 0.0);
        assert_eq!(st.intern_hit_rate(), 0.0);
        assert_eq!(t.row_bytes(), 0);
    }

    /// A window's groups as `(oid, [(t, set_ref)])`.
    type Groups = Vec<(u32, Vec<(i64, SetRef)>)>;

    fn groups(seqs: &[ObjectSequence<'_>]) -> Groups {
        let group = |s: &ObjectSequence<'_>| {
            let records = s.records.iter().map(|r| (r.t.millis(), r.set_ref));
            (s.oid.0, records.collect())
        };
        seqs.iter().map(group).collect()
    }

    /// The grouping `sequences_in` did before it stopped hashing: a
    /// `HashMap` from id to records in position order, drained and sorted
    /// by id.
    fn hashed_groups(t: &Iupt, interval: TimeInterval) -> Groups {
        let mut by_object: std::collections::HashMap<ObjectId, Vec<RecordRef<'_>>> =
            std::collections::HashMap::new();
        for r in t.range_query(interval) {
            by_object.entry(r.oid).or_default().push(r);
        }
        let mut seqs: Vec<ObjectSequence<'_>> = by_object
            .into_iter()
            .map(|(oid, records)| ObjectSequence { oid, records })
            .collect();
        seqs.sort_by_key(|s| s.oid);
        groups(&seqs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Both grouping regimes return exactly the hashed grouping:
        /// dense small ids and dense ids just below `u32::MAX` (counted),
        /// ids spread over the whole range and ids at both 0 and
        /// `u32::MAX` (sorted); timestamps repeat, and the window cuts
        /// the log anywhere.
        #[test]
        fn sequences_in_matches_hashed_grouping(
            regime in 0u32..4,
            raw in proptest::collection::vec((0u32..9, 0i64..3, 0u32..4), 0..120),
            (from, len) in (0i64..150, 0i64..150),
        ) {
            let id = |i: u32| match regime {
                0 => i,
                1 => u32::MAX - i,
                2 => i.wrapping_mul(0x9e37_79b9),
                _ if i % 2 == 0 => i,
                _ => u32::MAX - i,
            };
            let mut t = 0;
            let records = raw
                .iter()
                .map(|&(i, dt, loc)| {
                    t += dt;
                    rec(id(i), t, &[(loc, 1.0)])
                })
                .collect();
            let table = Iupt::from_records(records);
            let interval = TimeInterval::new(Timestamp::from_secs(from), Timestamp::from_secs(from + len));
            let got = groups(&table.sequences_in(interval));
            let want = hashed_groups(&table, interval);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
