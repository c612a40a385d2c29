//! Continuous Top-k Popular Location Queries — the paper's §7 future work
//! ("it is relevant to consider an online and continuous version of the
//! top-k popular location query in similar scenarios").
//!
//! A standing query ingests a time-ordered record stream, advances a
//! bucketed sliding window, and reports what changed in the top-k
//! relative to the previous evaluation — the delta a dashboard or
//! alerting pipeline would consume. Two engines serve it:
//! [`RecomputeEngine`] here (re-runs the Nested-Loop search per slide —
//! the baseline; each slide touches only the records inside the new
//! window through the time index, so the cost per advance is that of one
//! windowed query, independent of the table's total history) and the
//! sharded incremental multi-query engine in `popflow-serve`. Both share
//! [`WindowSpec`]'s arithmetic, the lateness contract on
//! [`RecomputeEngine::ingest`], and [`diff_topk`], so they accept the
//! same streams and report the same deltas.

use std::collections::HashSet;
use std::sync::Arc;

use indoor_iupt::{Iupt, Record, TimeInterval, Timestamp};
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowConfig, FlowError};
use crate::query::{nested_loop, QueryOutcome, TkPlQuery};
use crate::query_set::QuerySet;

/// Bucket/window geometry of a continuous query: the sliding window is
/// `window_buckets` whole buckets of `bucket_millis` each, and slides in
/// bucket-width steps. Both continuous engines share this arithmetic so
/// their evaluation windows are identical millisecond for millisecond.
///
/// Bucket `b` covers the closed millisecond range
/// `[b·width, (b+1)·width − 1]`; buckets tile the time axis without
/// overlap, so a window of whole buckets is exactly the union of its
/// buckets' record sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Bucket width in milliseconds (> 0).
    pub bucket_millis: i64,
    /// Window length in buckets (≥ 1).
    pub window_buckets: usize,
}

impl WindowSpec {
    /// Creates the spec; `bucket_millis` and `window_buckets` must be
    /// positive.
    pub fn new(bucket_millis: i64, window_buckets: usize) -> Self {
        assert!(bucket_millis > 0, "bucket width must be positive");
        assert!(window_buckets >= 1, "window must cover at least one bucket");
        WindowSpec {
            bucket_millis,
            window_buckets,
        }
    }

    /// Index of the bucket containing `t` (floor division; correct for
    /// negative timestamps too).
    pub fn bucket_of(&self, t: Timestamp) -> i64 {
        t.millis().div_euclid(self.bucket_millis)
    }

    /// The closed time interval covered by bucket `b`.
    pub fn bucket_interval(&self, b: i64) -> TimeInterval {
        TimeInterval::new(
            Timestamp(b * self.bucket_millis),
            Timestamp((b + 1) * self.bucket_millis - 1),
        )
    }

    /// The last bucket fully elapsed at wall-clock `now`. Bucket `b`
    /// covers the closed range `[b·width, (b+1)·width − 1]`, so it is
    /// complete only once `now ≥ (b+1)·width`: at `now = (b+1)·width − 1`
    /// the bucket's final millisecond is still the current instant and
    /// may yet produce records. May be negative when `now` precedes the
    /// first full bucket.
    pub fn last_complete_bucket(&self, now: Timestamp) -> i64 {
        self.bucket_of(now) - 1
    }

    /// The evaluation window at `now`: the last `window_buckets` complete
    /// buckets, as `(end_bucket, closed interval)`.
    pub fn window_at(&self, now: Timestamp) -> (i64, TimeInterval) {
        let end = self.last_complete_bucket(now);
        let start = end - self.window_buckets as i64 + 1;
        (
            end,
            TimeInterval::new(
                Timestamp(start * self.bucket_millis),
                Timestamp((end + 1) * self.bucket_millis - 1),
            ),
        )
    }

    /// Window length in milliseconds.
    pub fn window_millis(&self) -> i64 {
        self.bucket_millis * self.window_buckets as i64
    }
}

/// The full shape of one standing continuous query: its location subset,
/// top-k size, and window geometry — the unit a multi-query serving
/// engine registers and unregisters as data, rather than baking one
/// query into its construction.
///
/// Engines that serve many specs off one shared ingest stream (the
/// `popflow-serve` query registry) require every registered spec to
/// share the engine's bucket width — the granularity its caches seal
/// at — while `window.window_buckets` (the window length) is free to
/// differ per query, so windows of different widths advance
/// independently off the same logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Top-k size (≥ 1; clamped to `|query_set|` at ranking time).
    pub k: usize,
    /// The query's S-location set (non-empty).
    pub query_set: QuerySet,
    /// Bucket width and window length for this query.
    pub window: WindowSpec,
}

impl QuerySpec {
    /// Creates the spec; `k` must be at least 1 and `query_set`
    /// non-empty.
    pub fn new(k: usize, query_set: QuerySet, window: WindowSpec) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(!query_set.is_empty(), "query set must be non-empty");
        QuerySpec {
            k,
            query_set,
            window,
        }
    }
}

/// Opaque handle to a query registered with a multi-query engine.
/// Returned by `register`, consumed by `unregister`; never reused within
/// one engine, so a stale handle is detected rather than silently
/// addressing a later query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query#{}", self.0)
    }
}

/// Diffs a fresh top-k against the previous one: `(changed, entered,
/// left)`. Shared by both continuous engines so deltas are reported
/// uniformly.
pub fn diff_topk(
    previous: Option<&[SLocId]>,
    fresh: &[SLocId],
) -> (bool, Vec<SLocId>, Vec<SLocId>) {
    match previous {
        None => (true, fresh.to_vec(), Vec::new()),
        Some(prev) => {
            let prev_set: HashSet<SLocId> = prev.iter().copied().collect();
            let fresh_set: HashSet<SLocId> = fresh.iter().copied().collect();
            let entered: Vec<SLocId> = fresh
                .iter()
                .copied()
                .filter(|s| !prev_set.contains(s))
                .collect();
            let left: Vec<SLocId> = prev
                .iter()
                .copied()
                .filter(|s| !fresh_set.contains(s))
                .collect();
            (prev != fresh, entered, left)
        }
    }
}

/// The outcome of one slide, as both continuous engines report it:
/// [`RecomputeEngine::advance`] for its one query, and `popflow-serve`'s
/// `advance_all` once per registered query.
#[derive(Debug, Clone)]
pub struct ContinuousUpdate {
    /// The fresh top-k evaluation.
    pub outcome: QueryOutcome,
    /// Whether the top-k membership or order differs from the previous
    /// slide (always `true` on the first).
    pub changed: bool,
    /// Locations newly in the top-k.
    pub entered: Vec<SLocId>,
    /// Locations that dropped out of the top-k.
    pub left: Vec<SLocId>,
    /// The window that was evaluated.
    pub window: TimeInterval,
}

/// The recompute-per-slide baseline engine: owns its IUPT, and every
/// [`RecomputeEngine::advance`] re-runs the full Nested-Loop search over
/// the bucket-aligned window, so it can be compared head-to-head against
/// the incremental `popflow-serve` engine on identical windows.
///
/// [`RecomputeEngine::ingest`] and [`RecomputeEngine::advance`] return
/// [`FlowError`] instead of panicking on malformed input (out-of-order
/// records, backwards advances): a serving process must survive a bad
/// record.
#[derive(Debug, Clone)]
pub struct RecomputeEngine {
    space: Arc<IndoorSpace>,
    iupt: Iupt,
    k: usize,
    query_set: QuerySet,
    spec: WindowSpec,
    cfg: FlowConfig,
    previous: Option<Vec<SLocId>>,
    last_ingest: Option<Timestamp>,
    last_advance: Option<Timestamp>,
    /// End (exclusive, in ms) of the last bucket an advance evaluated —
    /// the same late-record frontier the serve engine enforces, so both
    /// continuous engines accept exactly the same streams.
    sealed_frontier_millis: Option<i64>,
}

impl RecomputeEngine {
    /// Creates the baseline engine over an initially empty record store.
    pub fn new(
        space: Arc<IndoorSpace>,
        k: usize,
        query_set: QuerySet,
        spec: WindowSpec,
        cfg: FlowConfig,
    ) -> Self {
        assert!(k >= 1, "k must be at least 1");
        RecomputeEngine {
            space,
            iupt: Iupt::new(),
            k,
            query_set,
            spec,
            cfg,
            previous: None,
            last_ingest: None,
            last_advance: None,
            sealed_frontier_millis: None,
        }
    }

    /// Number of records ingested so far.
    pub fn records_ingested(&self) -> usize {
        self.iupt.len()
    }

    /// Footprint/interner accounting of the engine's columnar record log
    /// (see [`Iupt::store_stats`]).
    pub fn store_stats(&self) -> indoor_iupt::StoreStats {
        self.iupt.store_stats()
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Feeds one positioning record. Records must arrive in
    /// non-decreasing time order, and — once an advance has run — at or
    /// after the sealed frontier; a regression or late record is
    /// rejected with [`FlowError::TimeRegression`] and leaves the engine
    /// unchanged.
    ///
    /// # Lateness and the sealed frontier
    ///
    /// Bucket `b` covers the closed millisecond range
    /// `[b·width, (b+1)·width − 1]` and **seals** at the first advance
    /// whose `now ≥ (b+1)·width` — strictly after the bucket's final
    /// millisecond has elapsed, so a record timestamped
    /// `(b+1)·width − 1` that arrives at that same wall-clock instant is
    /// *not* late. An advance at `now` seals every bucket through
    /// [`WindowSpec::last_complete_bucket`]`(now)` and moves the *sealed
    /// frontier* to the end of that bucket (exclusive, i.e.
    /// `(last_complete + 1)·width`). From then on a record is **late**
    /// exactly when its timestamp lies strictly before the frontier: it
    /// would land inside evaluated, immutable history, so it is rejected
    /// rather than silently dropped from every future window. Records at
    /// or after the frontier are accepted regardless of how much
    /// wall-clock time the advance took. `popflow-serve`'s engine
    /// enforces the same contract.
    pub fn ingest(&mut self, record: Record) -> Result<(), FlowError> {
        if let Some(last) = self.last_ingest {
            if record.t < last {
                return Err(FlowError::TimeRegression {
                    last_millis: last.millis(),
                    offending_millis: record.t.millis(),
                });
            }
        }
        if let Some(frontier) = self.sealed_frontier_millis {
            if record.t.millis() < frontier {
                return Err(FlowError::TimeRegression {
                    last_millis: frontier,
                    offending_millis: record.t.millis(),
                });
            }
        }
        self.last_ingest = Some(record.t);
        self.iupt.push(record);
        Ok(())
    }

    /// Advances the window to `now` (non-decreasing; a regression is
    /// rejected with [`FlowError::TimeRegression`]) and re-evaluates the
    /// top-k over the last [`WindowSpec::window_buckets`] complete
    /// buckets.
    pub fn advance(&mut self, now: Timestamp) -> Result<ContinuousUpdate, FlowError> {
        if let Some(last) = self.last_advance {
            if now < last {
                return Err(FlowError::TimeRegression {
                    last_millis: last.millis(),
                    offending_millis: now.millis(),
                });
            }
        }
        self.last_advance = Some(now);
        let (end_bucket, window) = self.spec.window_at(now);
        let frontier = (end_bucket + 1) * self.spec.bucket_millis;
        self.sealed_frontier_millis = Some(
            self.sealed_frontier_millis
                .unwrap_or(frontier)
                .max(frontier),
        );
        let query = TkPlQuery::new(self.k, self.query_set.clone(), window);
        let outcome = nested_loop(&self.space, &mut self.iupt, &query, &self.cfg)?;
        let fresh = outcome.topk_slocs();
        let (changed, entered, left) = diff_topk(self.previous.as_deref(), &fresh);
        self.previous = Some(fresh);
        Ok(ContinuousUpdate {
            outcome,
            changed,
            entered,
            left,
            window,
        })
    }

    /// The most recent top-k, if any advance has run.
    pub fn current(&self) -> Option<&[SLocId]> {
        self.previous.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_model::fixtures::paper_figure1;

    fn cfg() -> FlowConfig {
        FlowConfig::default().with_full_product_normalization()
    }

    /// The paper's Table 2 replayed into a fresh baseline engine whose
    /// window is `window_buckets` one-second buckets.
    fn loaded_engine(k: usize, window_buckets: usize) -> RecomputeEngine {
        let fig = paper_figure1();
        let mut engine = RecomputeEngine::new(
            Arc::new(fig.space.clone()),
            k,
            QuerySet::new(fig.r.to_vec()),
            WindowSpec::new(1_000, window_buckets),
            cfg(),
        );
        for r in paper_table2().to_records() {
            engine.ingest(r).unwrap();
        }
        engine
    }

    #[test]
    fn first_advance_reports_everything_as_entered() {
        let fig = paper_figure1();
        // Nine buckets ending at 8999 ms: the full t1..t8 span.
        let mut engine = loaded_engine(2, 9);
        assert!(engine.current().is_none());
        let update = engine.advance(Timestamp::from_secs(9)).unwrap();
        assert!(update.changed);
        assert_eq!(update.entered.len(), 2);
        assert!(update.left.is_empty());
        // r6 tops the full window (Example 4).
        assert_eq!(update.outcome.ranking[0].sloc, fig.r[5]);
    }

    #[test]
    fn idempotent_re_advance_reports_no_change() {
        let mut engine = loaded_engine(2, 9);
        let now = Timestamp::from_secs(9);
        engine.advance(now).unwrap();
        let second = engine.advance(now).unwrap();
        assert!(!second.changed);
        assert!(second.entered.is_empty() && second.left.is_empty());
    }

    /// A 3-second window sliding through the data: every slide evaluates
    /// exactly its own window, and the reported delta is the diff
    /// against the previous slide's top-k.
    #[test]
    fn sliding_window_changes_topk() {
        let fig = paper_figure1();
        let mut engine = loaded_engine(1, 3);
        let mut previous: Option<Vec<SLocId>> = None;
        for t in [4i64, 6, 9] {
            let update = engine.advance(Timestamp::from_secs(t)).unwrap();
            assert_eq!(update.window.start, Timestamp::from_secs(t - 3));
            assert_eq!(update.window.end, Timestamp(t * 1_000 - 1));
            let mut iupt = paper_table2();
            let one_shot = nested_loop(
                &fig.space,
                &mut iupt,
                &TkPlQuery::new(1, QuerySet::new(fig.r.to_vec()), update.window),
                &cfg(),
            )
            .unwrap();
            let fresh = update.outcome.topk_slocs();
            assert_eq!(fresh, one_shot.topk_slocs(), "slide to {t}s");
            let (changed, entered, left) = diff_topk(previous.as_deref(), &fresh);
            assert_eq!(
                (update.changed, &update.entered, &update.left),
                (changed, &entered, &left)
            );
            previous = Some(fresh);
        }
    }

    #[test]
    fn rejects_time_regression() {
        let mut engine = loaded_engine(1, 1);
        engine.advance(Timestamp::from_secs(5)).unwrap();
        let err = engine.advance(Timestamp::from_secs(4)).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        // The rejected slide must not corrupt the engine: advancing
        // forward still works.
        engine.advance(Timestamp::from_secs(6)).unwrap();
    }

    #[test]
    fn window_spec_geometry() {
        let spec = WindowSpec::new(1_000, 3);
        assert_eq!(spec.window_millis(), 3_000);
        assert_eq!(spec.bucket_of(Timestamp(0)), 0);
        assert_eq!(spec.bucket_of(Timestamp(999)), 0);
        assert_eq!(spec.bucket_of(Timestamp(1_000)), 1);
        assert_eq!(spec.bucket_of(Timestamp(-1)), -1);
        let iv = spec.bucket_interval(2);
        assert_eq!(iv.start, Timestamp(2_000));
        assert_eq!(iv.end, Timestamp(2_999));

        // Bucket 4 covers [4000, 4999]; it completes only at t = 5000 —
        // at t = 4999 its final millisecond is still current and may
        // yet produce records (the window-frontier regression).
        assert_eq!(spec.last_complete_bucket(Timestamp(4_998)), 3);
        assert_eq!(spec.last_complete_bucket(Timestamp(4_999)), 3);
        assert_eq!(spec.last_complete_bucket(Timestamp(5_000)), 4);
        let (end, window) = spec.window_at(Timestamp(5_000));
        assert_eq!(end, 4);
        assert_eq!(window.start, Timestamp(2_000));
        assert_eq!(window.end, Timestamp(4_999));

        // Buckets tile the axis: every ms belongs to exactly one bucket.
        for t in -3_000i64..3_000 {
            let b = spec.bucket_of(Timestamp(t));
            assert!(spec.bucket_interval(b).contains(Timestamp(t)), "t = {t}");
        }
    }

    /// The window-frontier regression: a record timestamped at the final
    /// millisecond of a bucket, ingested immediately after an advance at
    /// that very instant, must be accepted — the bucket is not yet
    /// complete, so it was not sealed.
    #[test]
    fn frontier_timestamped_record_accepted_after_advance() {
        let fig = paper_figure1();
        let spec = WindowSpec::new(1_000, 2);
        let mut engine = RecomputeEngine::new(
            std::sync::Arc::new(fig.space.clone()),
            1,
            QuerySet::new(fig.r.to_vec()),
            spec,
            cfg(),
        );
        let template = paper_table2().to_records()[0].clone();
        engine
            .ingest(Record {
                t: Timestamp(1_500),
                ..template.clone()
            })
            .unwrap();
        // Advance at the last millisecond of bucket 4: only buckets
        // through 3 are sealed (frontier 4000), so a record arriving at
        // that same instant — inside the still-open bucket 4 — is legal.
        engine.advance(Timestamp(4_999)).unwrap();
        engine
            .ingest(Record {
                t: Timestamp(4_999),
                ..template.clone()
            })
            .unwrap();
        // The bucket seals at t = 5000; from then on 4999 is late.
        engine.advance(Timestamp(5_000)).unwrap();
        let err = engine
            .ingest(Record {
                t: Timestamp(4_999),
                ..template
            })
            .unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
    }

    #[test]
    fn diff_topk_reports_deltas() {
        let (a, b, c) = (SLocId(1), SLocId(2), SLocId(3));
        let (changed, entered, left) = diff_topk(None, &[a, b]);
        assert!(changed && left.is_empty());
        assert_eq!(entered, vec![a, b]);

        let (changed, entered, left) = diff_topk(Some(&[a, b]), &[b, c]);
        assert!(changed);
        assert_eq!(entered, vec![c]);
        assert_eq!(left, vec![a]);

        // Reorder counts as a change but no membership delta.
        let (changed, entered, left) = diff_topk(Some(&[a, b]), &[b, a]);
        assert!(changed && entered.is_empty() && left.is_empty());

        let (changed, ..) = diff_topk(Some(&[a, b]), &[a, b]);
        assert!(!changed);
    }

    #[test]
    fn recompute_engine_matches_one_shot_query() {
        let fig = paper_figure1();
        let spec = WindowSpec::new(2_000, 4); // window [1000, 8999] at t=8999
        let mut engine = RecomputeEngine::new(
            std::sync::Arc::new(fig.space.clone()),
            3,
            QuerySet::new(fig.r.to_vec()),
            spec,
            cfg(),
        );
        for r in paper_table2().to_records() {
            engine.ingest(r).unwrap();
        }
        assert_eq!(engine.records_ingested(), paper_table2().len());
        let update = engine.advance(Timestamp(8_999)).unwrap();
        // Window covers buckets 0..=3 → [0, 7999]; compare with one-shot.
        assert_eq!(update.window.start, Timestamp(0));
        assert_eq!(update.window.end, Timestamp(7_999));
        let mut iupt = paper_table2();
        let one_shot = nested_loop(
            &fig.space,
            &mut iupt,
            &TkPlQuery::new(
                3,
                QuerySet::new(fig.r.to_vec()),
                TimeInterval::new(Timestamp(0), Timestamp(7_999)),
            ),
            &cfg(),
        )
        .unwrap();
        assert_eq!(update.outcome.topk_slocs(), one_shot.topk_slocs());
        assert_eq!(engine.current().unwrap(), one_shot.topk_slocs());
    }

    #[test]
    fn recompute_engine_rejects_out_of_order_ingest() {
        let fig = paper_figure1();
        let mut engine = RecomputeEngine::new(
            std::sync::Arc::new(fig.space.clone()),
            1,
            QuerySet::new(fig.r.to_vec()),
            WindowSpec::new(1_000, 2),
            cfg(),
        );
        let records = paper_table2().to_records();
        engine.ingest(records[3].clone()).unwrap();
        let err = engine.ingest(records[0].clone()).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        // The store is unchanged by the rejected record and keeps serving.
        assert_eq!(engine.records_ingested(), 1);
        engine.ingest(records[4].clone()).unwrap();
        engine.advance(Timestamp::from_secs(10)).unwrap();

        // After the advance, buckets through t=10s are sealed history:
        // a record inside them is late even though it is after the last
        // ingest — the same frontier contract the serve engine enforces.
        let late = Record {
            t: Timestamp::from_secs(7),
            ..records[4].clone()
        };
        let err = engine.ingest(late).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        assert_eq!(engine.records_ingested(), 2);
        engine
            .ingest(Record {
                t: Timestamp::from_secs(11),
                ..records[4].clone()
            })
            .unwrap();
    }
}
