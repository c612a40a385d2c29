use std::collections::HashMap;

use popflow_store::{RecordStore, SetRef, StoreStats};

use crate::sample::SampleSet;
use crate::time::{TimeInterval, Timestamp};
use crate::time_index::TimeIndex;

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
/// single arena copy (re-exported shape of
/// [`popflow_store::SampleSetView`]).
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
/// positioning records, indexed on its time attribute by a 1D R-tree
/// (§3.3).
///
/// # Storage layout
///
/// Since the `popflow-store` port the table is a thin façade over a
/// columnar [`popflow_store::RecordStore`]: parallel `oid`/`t`/`set`
/// columns, with every sample set hash-consed through the store's
/// interner so identical reports (a dwelling device re-reporting the
/// same probabilistic position) share **one** arena-backed copy.
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
    store: RecordStore<SampleSet>,
    index: TimeIndex<u32>,
}

/// Converts a raw store view into the table's typed [`RecordRef`] — the
/// one place the scalar columns pick up their domain types. Free
/// function (not a method) so the split-borrow call sites, which hold
/// `&RecordStore` while the time index is borrowed mutably, can use it.
fn record_ref(v: popflow_store::RecordView<'_, SampleSet>) -> RecordRef<'_> {
    RecordRef {
        oid: ObjectId(v.oid),
        t: Timestamp(v.t),
        set_ref: v.set_ref,
        samples: v.set,
    }
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
    pub fn push(&mut self, record: Record) -> u32 {
        self.extend(std::iter::once(record)).start
    }

    /// Appends a run of records in iteration order — the columns and the
    /// time index each grow once for the whole run — interning every
    /// sample set; the run must continue the table's non-decreasing time
    /// order. Returns the run's (stable) position range. The log that
    /// results is position-identical to pushing the records one by one.
    pub fn extend<I: IntoIterator<Item = Record>>(&mut self, records: I) -> std::ops::Range<u32> {
        let run = self.store.extend(
            records
                .into_iter()
                .map(|r| (r.oid.0, r.t.millis(), r.samples)),
        );
        // The index is fed from the time column the store just grew.
        let times = &self.store.times()[run.start as usize..];
        self.index.extend(times.iter().copied().zip(run.clone()));
        run
    }

    /// Explicitly rebuilds the time index after a batch of appends (see
    /// [`TimeIndex::freeze`]), so subsequent range queries pay no lazy
    /// rebuild — the pattern the streaming ingestion path uses between
    /// record bursts.
    pub fn freeze(&mut self) {
        self.index.freeze();
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Zero-copy view of the record at `pos` (positions are dense, in
    /// time order).
    pub fn view(&self, pos: u32) -> RecordRef<'_> {
        record_ref(self.store.view(pos))
    }

    /// Zero-copy borrow of the sample set at `pos` — the accessor the
    /// serve shards use to resolve their cached record positions.
    pub fn samples_at(&self, pos: u32) -> SampleSetView<'_> {
        self.store.set(pos)
    }

    /// Iterates all records in time (append) order, zero-copy.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        (0..self.len() as u32).map(move |pos| self.view(pos))
    }

    /// Materializes the table as owned records (clones every sample set)
    /// — the transfer shape for re-ingesting the log elsewhere; prefer
    /// [`Iupt::iter`] for reading.
    pub fn to_records(&self) -> Vec<Record> {
        self.iter().map(|r| r.to_record()).collect()
    }

    /// Earliest and latest record timestamps.
    pub fn time_bounds(&self) -> Option<TimeInterval> {
        if self.is_empty() {
            return None;
        }
        let times = self.store.times();
        Some(TimeInterval::new(
            Timestamp(times[0]),
            Timestamp(times[times.len() - 1]),
        ))
    }

    /// Number of distinct objects in the table.
    pub fn object_count(&self) -> usize {
        let mut ids: Vec<u32> = self.store.oids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Records within `[ts, te]` via the time index (Algorithm 2 line 1).
    pub fn range_query(&mut self, interval: TimeInterval) -> Vec<RecordRef<'_>> {
        let Iupt { store, index } = self;
        index
            .range_query(interval.start.millis(), interval.end.millis())
            .iter()
            .map(|&(_, i)| record_ref(store.view(i)))
            .collect()
    }

    /// The per-object hash table `HO : {oid} → {X}` of Algorithms 2–4:
    /// records in `[ts, te]` grouped by object, each group ordered by time.
    /// Groups are returned sorted by object id for deterministic iteration.
    pub fn sequences_in(&mut self, interval: TimeInterval) -> Vec<ObjectSequence<'_>> {
        let Iupt { store, index } = self;
        let hits = index.range_query(interval.start.millis(), interval.end.millis());
        let mut by_object: HashMap<ObjectId, Vec<RecordRef<'_>>> = HashMap::new();
        for &(_, i) in hits {
            let r = record_ref(store.view(i));
            by_object.entry(r.oid).or_default().push(r);
        }
        let mut seqs: Vec<ObjectSequence<'_>> = by_object
            .into_iter()
            .map(|(oid, records)| ObjectSequence { oid, records })
            .collect();
        seqs.sort_by_key(|s| s.oid);
        seqs
    }

    /// One object's sequence within the window.
    pub fn sequence_of(&mut self, oid: ObjectId, interval: TimeInterval) -> ObjectSequence<'_> {
        let Iupt { store, index } = self;
        let records = index
            .range_query(interval.start.millis(), interval.end.millis())
            .iter()
            .filter(|&&(_, i)| store.oid(i) == oid.0)
            .map(|&(_, i)| record_ref(store.view(i)))
            .collect();
        ObjectSequence { oid, records }
    }

    /// Summary statistics for reporting.
    pub fn stats(&self) -> IuptStats {
        let mut samples = 0usize;
        let mut max_set = 0usize;
        for &r in self.store.set_refs() {
            let len = self.store.pool().get(r).len();
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

    /// Footprint and interner accounting of the columnar store backing
    /// this table.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Bytes the pre-interning row layout (a `Vec` of owned records)
    /// would occupy for the same content — the counterfactual the memory
    /// experiments report against (see
    /// [`popflow_store::RecordStore::row_bytes`]).
    pub fn row_bytes(&self) -> usize {
        self.store.row_bytes()
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
        let mut t = table();
        let iv = TimeInterval::new(Timestamp::from_secs(3), Timestamp::from_secs(5));
        let hits = t.range_query(iv);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|r| iv.contains(r.t)));
    }

    #[test]
    fn sequences_grouped_and_ordered() {
        let mut t = table();
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
        let mut t = table();
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
        let mut t = Iupt::new();
        assert!(t.is_empty());
        assert!(t.time_bounds().is_none());
        let iv = TimeInterval::new(Timestamp(0), Timestamp(1000));
        assert!(t.sequences_in(iv).is_empty());
        assert_eq!(t.store_stats(), StoreStats::default());
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
}
