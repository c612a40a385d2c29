/// A packed one-dimensional R-tree over timestamped entries — the
/// "1DR-tree" of Lu, Yang & Jensen (ICDE 2011) that the paper uses to index
/// the Indoor Uncertain Positioning Table on its time attribute (§3.3).
///
/// Entries are appended in non-decreasing time order (positioning reports
/// arrive chronologically), so leaves pack perfectly and internal levels
/// are arrays of `[t_min, t_max]` intervals. A range query descends the
/// interval hierarchy and returns the contiguous slice of matching entries.
///
/// Timestamps are `i64` (the workspace convention is milliseconds since
/// simulation start; this type is agnostic).
#[derive(Debug, Clone)]
pub struct TimeIndex<T> {
    entries: Vec<(i64, T)>,
    /// `levels[0]` summarizes chunks of `entries`; `levels[k]` summarizes
    /// chunks of `levels[k-1]`. Rebuilt lazily on query after appends.
    levels: Vec<Vec<(i64, i64)>>,
    fanout: usize,
    dirty: bool,
}

const DEFAULT_FANOUT: usize = 64;

impl<T> Default for TimeIndex<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimeIndex<T> {
    /// Creates an empty index with the default fanout.
    pub fn new() -> Self {
        Self::with_fanout(DEFAULT_FANOUT)
    }

    /// Creates an empty index with node fanout `fanout` (>= 2).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 2, "time index fanout must be at least 2");
        TimeIndex {
            entries: Vec::new(),
            levels: Vec::new(),
            fanout,
            dirty: false,
        }
    }

    /// Bulk-builds from entries that are already sorted by time.
    ///
    /// # Panics
    /// Panics if `entries` is not sorted by timestamp.
    pub fn from_sorted(entries: Vec<(i64, T)>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "TimeIndex::from_sorted requires time-ordered entries"
        );
        let mut idx = Self::new();
        idx.entries = entries;
        idx.dirty = true;
        idx.rebuild();
        idx
    }

    /// Appends an entry; `t` must be >= the last appended timestamp.
    ///
    /// # Panics
    /// Panics on out-of-order appends — the IUPT is an append-only log of
    /// positioning reports, so an out-of-order record indicates a bug
    /// upstream rather than a condition to tolerate silently.
    pub fn push(&mut self, t: i64, value: T) {
        if let Some(&(last, _)) = self.entries.last() {
            assert!(t >= last, "TimeIndex append out of order: {t} after {last}");
        }
        self.entries.push((t, value));
        self.dirty = true;
    }

    /// Appends a time-ordered run of entries, growing the entry array
    /// once; each entry is checked like a [`TimeIndex::push`].
    ///
    /// # Panics
    /// Panics on an out-of-order entry, as [`TimeIndex::push`] does.
    pub fn extend<I: IntoIterator<Item = (i64, T)>>(&mut self, run: I) {
        let run = run.into_iter();
        self.entries.reserve(run.size_hint().0);
        for (t, value) in run {
            self.push(t, value);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest and largest indexed timestamps.
    pub fn time_bounds(&self) -> Option<(i64, i64)> {
        match (self.entries.first(), self.entries.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => Some((lo, hi)),
            _ => None,
        }
    }

    fn rebuild(&mut self) {
        self.levels.clear();
        if self.entries.is_empty() {
            self.dirty = false;
            return;
        }
        let mut current: Vec<(i64, i64)> = self
            .entries
            .chunks(self.fanout)
            .map(|c| (c.first().unwrap().0, c.last().unwrap().0))
            .collect();
        while current.len() > 1 {
            let next: Vec<(i64, i64)> = current
                .chunks(self.fanout)
                .map(|c| (c.first().unwrap().0, c.last().unwrap().1))
                .collect();
            self.levels.push(current);
            current = next;
        }
        self.levels.push(current);
        self.dirty = false;
    }

    /// Whether appends have happened since the interval hierarchy was last
    /// built (a [`TimeIndex::range_query`] would rebuild first).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Explicitly (re)builds the interval hierarchy after a batch of
    /// appends, so that subsequent queries can go through the immutable
    /// [`TimeIndex::range_query_built`] path — e.g. from behind a shared
    /// reference, or on a hot serving path that must not pay a lazy
    /// rebuild at query time. Idempotent: a clean index is left untouched.
    pub fn freeze(&mut self) {
        if self.dirty {
            self.rebuild();
        }
    }

    /// Range query: returns the contiguous slice of entries with
    /// `ts <= t <= te`. Rebuilds the interval hierarchy first if appends
    /// happened since the last query.
    pub fn range_query(&mut self, ts: i64, te: i64) -> &[(i64, T)] {
        self.freeze();
        self.range_query_built(ts, te)
    }

    /// Range query on an index known to be up to date (e.g. built via
    /// [`TimeIndex::from_sorted`] and never appended to since).
    pub fn range_query_built(&self, ts: i64, te: i64) -> &[(i64, T)] {
        if ts > te || self.entries.is_empty() {
            return &[];
        }
        // Descend the interval hierarchy to find the first candidate leaf
        // chunk, then binary-search the exact boundaries inside the entry
        // array. The hierarchy bounds the search the same way node MBRs do
        // in a 1D R-tree.
        let (mut lo_chunk, mut hi_chunk) = match self.levels.last() {
            Some(root) if root.len() == 1 => (0usize, 1usize),
            _ => (0usize, self.levels.first().map_or(0, |l| l.len())),
        };
        for level in self.levels.iter().rev().skip(1) {
            let child_lo = lo_chunk * self.fanout;
            let child_hi = (hi_chunk * self.fanout).min(level.len());
            let slice = &level[child_lo..child_hi];
            let first = slice.partition_point(|&(_, max)| max < ts);
            let last = slice.partition_point(|&(min, _)| min <= te);
            lo_chunk = child_lo + first;
            hi_chunk = child_lo + last;
            if lo_chunk >= hi_chunk {
                return &[];
            }
        }
        let lo_entry = (lo_chunk * self.fanout).min(self.entries.len());
        let hi_entry = (hi_chunk * self.fanout).min(self.entries.len());
        let slice = &self.entries[lo_entry..hi_entry];
        let first = slice.partition_point(|&(t, _)| t < ts);
        let last = slice.partition_point(|&(t, _)| t <= te);
        &slice[first..last]
    }

    /// Iterates over all entries in time order.
    pub fn iter(&self) -> impl Iterator<Item = &(i64, T)> {
        self.entries.iter()
    }

    /// Height of the interval hierarchy (1 = single level of chunks).
    pub fn height(&self) -> usize {
        self.levels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(n: i64) -> TimeIndex<i64> {
        TimeIndex::from_sorted((0..n).map(|t| (t * 10, t)).collect())
    }

    #[test]
    fn empty_index() {
        let mut idx: TimeIndex<u8> = TimeIndex::new();
        assert!(idx.is_empty());
        assert!(idx.range_query(0, 100).is_empty());
        assert!(idx.time_bounds().is_none());
    }

    #[test]
    fn exact_boundaries_inclusive() {
        let mut idx = build(100);
        let hits = idx.range_query(100, 200);
        assert_eq!(hits.len(), 11); // t = 100, 110, ..., 200
        assert_eq!(hits.first().unwrap().0, 100);
        assert_eq!(hits.last().unwrap().0, 200);
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut idx = build(10);
        assert!(idx.range_query(50, 40).is_empty());
    }

    #[test]
    fn range_outside_data_is_empty() {
        let mut idx = build(10);
        assert!(idx.range_query(-100, -1).is_empty());
        assert!(idx.range_query(1000, 2000).is_empty());
    }

    #[test]
    fn duplicate_timestamps_all_returned() {
        let mut idx = TimeIndex::from_sorted(vec![(5, 'a'), (5, 'b'), (5, 'c'), (7, 'd')]);
        let hits = idx.range_query(5, 5);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn push_then_query_rebuilds() {
        let mut idx = TimeIndex::with_fanout(4);
        for t in 0..200 {
            idx.push(t, t);
        }
        assert_eq!(idx.range_query(20, 29).len(), 10);
        idx.push(200, 200);
        assert_eq!(idx.range_query(195, 500).len(), 6);
    }

    /// The lazy `dirty`-flag rebuild was previously exercised only through
    /// `range_query`; this pins the explicit freeze/bulk-load contract:
    /// appends mark the index dirty, `freeze` clears it, and a frozen
    /// index answers `range_query_built` (the shared-reference path)
    /// identically to the lazy path — across repeated append/query/freeze
    /// interleavings.
    #[test]
    fn freeze_interleaved_with_appends_and_queries() {
        let mut idx = TimeIndex::with_fanout(4);
        assert!(!idx.is_dirty(), "empty index starts clean");
        idx.freeze(); // freeze of an empty index is a no-op
        assert!(idx.range_query_built(0, 100).is_empty());

        let mut appended = 0i64;
        for round in 0..5 {
            // Append a burst of entries; the index must go dirty.
            for _ in 0..37 {
                idx.push(appended * 10, appended);
                appended += 1;
            }
            assert!(idx.is_dirty(), "appends must mark the index dirty");

            // Freeze, then query through the immutable built path.
            idx.freeze();
            assert!(!idx.is_dirty());
            let lo = round * 50;
            let hi = lo + 120;
            let built: Vec<i64> = idx
                .range_query_built(lo, hi)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            let want: Vec<i64> = (0..appended)
                .filter(|&v| v * 10 >= lo && v * 10 <= hi)
                .collect();
            assert_eq!(built, want, "round {round}");

            // The lazy path agrees and freezing again changes nothing.
            let lazy: Vec<i64> = idx.range_query(lo, hi).iter().map(|&(_, v)| v).collect();
            assert_eq!(lazy, want);
            idx.freeze();
            assert_eq!(idx.range_query_built(lo, hi).len(), want.len());
        }
        assert_eq!(idx.len(), 5 * 37);
    }

    /// `from_sorted` bulk-load yields an immediately frozen index.
    #[test]
    fn bulk_load_is_frozen() {
        let idx = TimeIndex::from_sorted((0..1000i64).map(|t| (t, t)).collect());
        assert!(!idx.is_dirty());
        assert_eq!(idx.range_query_built(10, 19).len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut idx = TimeIndex::new();
        idx.push(10, ());
        idx.push(5, ());
    }

    #[test]
    fn hierarchy_height_grows() {
        let idx = TimeIndex::<i64>::from_sorted((0..100_000).map(|t| (t, t)).collect());
        assert!(idx.height() >= 2);
        assert_eq!(idx.len(), 100_000);
        let hits = idx.range_query_built(12_345, 12_354);
        assert_eq!(hits.len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_linear_filter(
            mut times in proptest::collection::vec(0i64..10_000, 0..300),
            ts in 0i64..10_000,
            len in 0i64..5_000,
        ) {
            times.sort_unstable();
            let entries: Vec<(i64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            let idx = TimeIndex::from_sorted(entries.clone());
            let te = ts + len;
            let got: Vec<usize> =
                idx.range_query_built(ts, te).iter().map(|&(_, v)| v).collect();
            let want: Vec<usize> = entries
                .iter()
                .filter(|&&(t, _)| t >= ts && t <= te)
                .map(|&(_, v)| v)
                .collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn small_fanout_matches_linear_filter(
            mut times in proptest::collection::vec(0i64..500, 1..200),
            ts in 0i64..500,
            len in 0i64..250,
        ) {
            times.sort_unstable();
            let mut idx = TimeIndex::with_fanout(2);
            for (i, &t) in times.iter().enumerate() {
                idx.push(t, i);
            }
            let te = ts + len;
            let got = idx.range_query(ts, te).len();
            let want = times.iter().filter(|&&t| t >= ts && t <= te).count();
            prop_assert_eq!(got, want);
        }
    }
}
