//! `popflow-serve` — sharded streaming ingestion and multi-query
//! continuous top-k serving for indoor flow queries.
//!
//! The batch algorithms in `popflow-core` answer one Top-k Popular
//! Location Query at a time; the paper's §7 names the *online and
//! continuous* version as the open direction. This crate is that
//! direction taken to a serving shape: a **query registry** of standing
//! [`QuerySpec`]s evaluated off one shared, sharded record stream.
//!
//! ```text
//!            records (time-ordered stream)
//!                       │ hash(oid)
//!        ┌──────────────┼──────────────┐
//!        ▼              ▼              ▼
//!   shard worker 0  shard worker 1 … shard worker N-1   (std::thread + mpsc)
//!   ┌───────────┐   ┌───────────┐
//!   │ IUPT part │   │ IUPT part │   the shard's append-only log;
//!   │ buckets:  │   │ buckets:  │   record positions grouped per bucket
//!   │ [b₀][b₁]… │   │ [b₀][b₁]… │   and object as they land; one
//!   │ rosters   │   │ rosters   │   roster per window width: the window's
//!   └─────┬─────┘   └─────┬─────┘   objects with their spans and UNION
//!         └───────┬───────┘         contributions, one flat block;
//!                 │                 open-bucket spans folded record by
//!                 │                 record at ingest
//!                 ▼  advance_all(now): evaluate every query
//!     merge the blocks by object id → slice per query;
//!     then each shard settles its rosters for the next slide
//! ```
//!
//! * **Ingestion** partitions records by object across worker threads;
//!   each worker owns one IUPT partition and files every record's log
//!   position under its object and bucket as it lands, so no advance
//!   range-queries the partition by time.
//!   Records travel in *runs* ([`ServeEngine::ingest_run`]): one call
//!   validates a run, splits it by shard and hands each shard its part
//!   with a single `tell`, and the shard appends it through
//!   `Iupt::extend` — a shard's log is the stream filtered by shard
//!   whatever the run lengths (`tests/ingest_equivalence.rs`), and a
//!   single record is a run of one.
//!   The partition is a columnar, interned `indoor_iupt::Iupt` log: the
//!   shard holds `SetRef`s into its hash-consing pool instead of owned
//!   sample sets, so redundant streams (a dwelling device re-reporting
//!   the same position) deduplicate at ingest, bucket caches reference
//!   stable `u32` log positions, and
//!   [`ServeStats::log_bytes`]/[`ServeStats::intern_hits`] report the
//!   resident footprint per advance. Each record's log position is filed
//!   under its bucket and object as it lands, so an advance groups
//!   nothing.
//! * **Queries are registry entries, not construction parameters.** A
//!   [`QuerySpec`]`{ k, query_set, window }` is registered with
//!   [`ServeEngine::register`] (mid-stream is fine) and removed with
//!   [`ServeEngine::unregister`]; [`ServeEngine::advance_all`] evaluates
//!   every registered query per slide. All queries must share the
//!   engine's bucket width (the cache granularity), but their window
//!   *lengths* may differ — each query keeps its own window frontier, so
//!   windows of different widths advance independently off the same
//!   shard logs. Presence work is paid once against the union of
//!   registered location sets; per-query results slice the shared union
//!   contributions, so N overlapping queries cost far less than N
//!   engines ([`ServeStats::presence_cells`] measures exactly this).
//! * **The sliding window is bucketed** ([`popflow_core::WindowSpec`]):
//!   a slide drops its oldest bucket and closes the newly completed one
//!   instead of recomputing history. A bucket seals only once its final
//!   millisecond has *elapsed* (`now ≥ bucket end + 1`); a record
//!   timestamped inside a sealed bucket is late and rejected at ingest,
//!   while anything at or after the sealed frontier is accepted.
//! * **Evaluation is incremental but exact.** Each shard carries, per
//!   window width, a roster of every window object's *span* — its first
//!   and last sealed bucket in the window — and full union contribution,
//!   from slide to slide. A slide changes the span of an object it gave
//!   a record to or took a bucket from, and of no other, so presence is
//!   computed once per distinct span ([`ServeStats::fresh_presence`]),
//!   not once per slide. Both edges of a slide are paid ahead of it: the
//!   spans a slide will truncate right after the previous advance, and
//!   the spans in the still-open bucket
//!   record by record — each object's open-bucket span is a resumable
//!   [`popflow_core::SpanFold`] that takes every record as it lands, so
//!   the advance only finishes it ([`ServeStats::spans_finished`]). The
//!   advance folds from the log only the spans that had no live fold
//!   ([`ServeStats::spans_in_advance`]); a span paid ahead that no
//!   advance asks for is counted in [`ServeStats::spans_unused`]. Spans
//!   are evaluated through the batch search's per-object kernel
//!   ([`popflow_core::object_flow_contributions`] is that fold, pushed
//!   and finished) and merged in
//!   the same object-id order, so every registered query's advance
//!   reports *bit-identical* top-k sets and flows to a batch
//!   recomputation — and to a dedicated single-query engine — over the
//!   same window. (The paper's §4.2 COUNT bound prunes the *batch*
//!   Best-First search, `popflow_core::best_first`; on the serving path
//!   a bound-pruned twin of this advance measured slower on every
//!   benchmark workload, so there is none.)
//!
//! The recompute-per-slide baseline lives in `popflow-core`
//! ([`popflow_core::RecomputeEngine`]). It answers one query; a
//! [`ServeEngine`] answers each registered query through
//! [`ServeEngine::advance_all`] and [`ServeEngine::current_for`]. The two
//! accept the same streams and are compared slide by slide by
//! `tests/serve_equivalence.rs` and the `serve_demo` example in
//! `popflow-eval`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod metric_names;
mod shard;
mod trace;

pub use engine::{AdvanceStrategy, LateRecord, ServeConfig, ServeEngine, ServeStats};
pub use trace::{AdvanceTrace, QueryTrace, ShardTrace};
// The registry vocabulary lives in `popflow-core`, beside the window
// geometry both continuous engines share; re-exported so serving call
// sites need one import.
pub use popflow_core::{QueryId, QuerySpec};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{Record, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use indoor_sim::{Scenario, World};
    use popflow_core::{
        ContinuousUpdate, FlowConfig, FlowError, PresenceEngine, QuerySet, RecomputeEngine,
        WindowSpec,
    };

    use super::*;

    /// An engine over the paper's Figure 1 with one query registered:
    /// the top 2 of all six rooms.
    fn paper_engine(spec: WindowSpec, shards: usize) -> (ServeEngine, QueryId) {
        let fig = paper_figure1();
        let cfg = ServeConfig::with_buckets(spec.bucket_millis)
            .with_shards(shards)
            .with_flow(FlowConfig::default().with_full_product_normalization());
        engine_with(
            &Arc::new(fig.space.clone()),
            cfg,
            QuerySpec::new(2, QuerySet::new(fig.r.to_vec()), spec),
        )
    }

    /// An engine over `space` with `spec` registered.
    fn engine_with(
        space: &Arc<indoor_model::IndoorSpace>,
        cfg: ServeConfig,
        spec: QuerySpec,
    ) -> (ServeEngine, QueryId) {
        let mut engine = ServeEngine::new(Arc::clone(space), cfg);
        let id = engine.register(spec).unwrap();
        (engine, id)
    }

    /// The update of the one query an `advance_all` evaluated.
    fn only(mut updates: Vec<(QueryId, ContinuousUpdate)>) -> ContinuousUpdate {
        assert_eq!(updates.len(), 1, "one registered query, one update");
        updates.remove(0).1
    }

    #[test]
    fn paper_example_topk_served() {
        let (mut engine, id) = paper_engine(WindowSpec::new(2_000, 4), 3);
        engine.ingest_all(paper_table2().to_records()).unwrap();
        // Window at t=8999: buckets 0..=3 = [0, 7999] — the full Table 2.
        let update = only(engine.advance_all(Timestamp(8_999)).unwrap());
        let fig = paper_figure1();
        assert_eq!(update.outcome.ranking[0].sloc, fig.r[5]);
        assert!((update.outcome.ranking[0].flow - 1.85).abs() < 1e-9);
        assert!(update.changed);
        assert_eq!(engine.current_for(id).unwrap(), update.outcome.topk_slocs());
        let stats = engine.stats();
        assert_eq!(stats.records_ingested, 10);
        assert_eq!(stats.advances, 1);
    }

    /// The scheduler's planner: `due_advances` names exactly the bucket
    /// boundaries between the sealed frontier and the last ingested
    /// record's bucket, and a budgeted `advance_due` catch-up replays
    /// them bit-identically to an unbudgeted driver.
    #[test]
    fn due_advances_plan_and_budgeted_catchup() {
        let width = 2_000i64;
        let (mut engine, _) = paper_engine(WindowSpec::new(width, 2), 2);
        assert!(engine.due_advances(Timestamp(i64::MAX)).is_empty());
        assert_eq!(engine.last_ingest(), None);
        assert_eq!(engine.last_advance(), None);

        engine.ingest_all(paper_table2().to_records()).unwrap();
        let last = engine.last_ingest().unwrap();
        let cap = (last.millis().div_euclid(width) + 1) * width;
        // An upper bound below the first boundary releases nothing.
        assert!(engine.due_advances(Timestamp(width - 1)).is_empty());
        // An unbounded upper is capped at the last record's bucket.
        let due = engine.due_advances(Timestamp(i64::MAX));
        assert_eq!(due.first().copied(), Some(Timestamp(width)));
        assert_eq!(due.last().copied(), Some(Timestamp(cap)));
        assert!(due
            .windows(2)
            .all(|w| w[1].millis() - w[0].millis() == width));

        // An already-expired deadline still performs exactly one due
        // advance (the progress guarantee).
        let (mut reference, _) = paper_engine(WindowSpec::new(width, 2), 2);
        reference.ingest_all(paper_table2().to_records()).unwrap();
        let expired = Some(std::time::Instant::now());
        let (runs, remaining) = engine
            .advance_due(Timestamp(i64::MAX), expired, usize::MAX)
            .unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(remaining, due.len() - 1);

        // Budgeted catch-up, two advances per call, matches the
        // unbudgeted reference bit for bit at every boundary.
        let mut performed = runs;
        loop {
            let (runs, remaining) = engine.advance_due(Timestamp(i64::MAX), None, 2).unwrap();
            assert!(runs.len() <= 2);
            performed.extend(runs);
            if remaining == 0 {
                break;
            }
        }
        assert_eq!(performed.iter().map(|(t, _)| *t).collect::<Vec<_>>(), due);
        for (t, updates) in &performed {
            let want = reference.advance_all(*t).unwrap();
            assert_eq!(updates.len(), want.len(), "advance at {t:?}");
            for ((qa, ua), (qb, ub)) in updates.iter().zip(&want) {
                assert_eq!(qa, qb);
                assert_eq!(ua.window, ub.window);
                assert_eq!(
                    (ua.changed, &ua.entered, &ua.left),
                    (ub.changed, &ub.entered, &ub.left)
                );
                for (x, y) in ua.outcome.ranking.iter().zip(&ub.outcome.ranking) {
                    assert_eq!((x.sloc, x.flow.to_bits()), (y.sloc, y.flow.to_bits()));
                }
            }
        }
        // Caught up: nothing due until new records arrive.
        assert!(engine.due_advances(Timestamp(i64::MAX)).is_empty());
        assert_eq!(engine.last_advance(), Some(Timestamp(cap)));
    }

    #[test]
    fn matches_recompute_engine_on_every_slide() {
        let world = World::generate(Scenario::tiny().with_seed(5));
        let space = Arc::new(world.space.clone());
        let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
        let spec = WindowSpec::new(30_000, 4); // 30 s buckets, 2 min window
        let flow = FlowConfig::default().with_dp_engine();

        let serve_cfg = ServeConfig::with_buckets(spec.bucket_millis)
            .with_shards(3)
            .with_flow(flow);
        let (mut serve, _) = engine_with(
            &space,
            serve_cfg,
            QuerySpec::new(3, QuerySet::new(slocs.clone()), spec),
        );
        let mut batch =
            RecomputeEngine::new(Arc::clone(&space), 3, QuerySet::new(slocs), spec, flow);

        let records: Vec<Record> = world.iupt.to_records();
        let mut next = 0usize;
        for slide in 1..=12 {
            let now = Timestamp::from_secs(slide * 45);
            while next < records.len() && records[next].t <= now {
                serve.ingest_all([records[next].clone()]).unwrap();
                batch.ingest(records[next].clone()).unwrap();
                next += 1;
            }
            let a = only(serve.advance_all(now).unwrap());
            let b = batch.advance(now).unwrap();
            assert_eq!(a.window, b.window, "slide {slide}");
            assert_eq!(
                a.outcome.topk_slocs(),
                b.outcome.topk_slocs(),
                "slide {slide}"
            );
            // Bit-identical flows, not merely equal rankings.
            for (x, y) in a.outcome.ranking.iter().zip(b.outcome.ranking.iter()) {
                assert_eq!(x.flow.to_bits(), y.flow.to_bits(), "slide {slide}");
            }
            assert_eq!(a.changed, b.changed);
            assert_eq!(a.entered, b.entered);
            assert_eq!(a.left, b.left);
        }
        // The windows genuinely slid and the caches were exercised.
        let stats = serve.stats();
        assert_eq!(stats.advances, 12);
        assert!(stats.cache_hits > 0, "no cached window objects: {stats:?}");
        // The shard logs' store accounting surfaces through ServeStats:
        // the gauge reflects the interned columnar footprint at the last
        // advance. Interning is per shard, so a set shared by objects on
        // different shards is stored once per shard — the sharded log can
        // only be at least as large (and dedup at most as often) as the
        // batch engine's single store over the identical records.
        assert!(stats.log_bytes > 0, "no log footprint reported: {stats:?}");
        assert!(stats.log_bytes >= batch.store_stats().bytes as u64);
        assert!(stats.intern_hits <= batch.store_stats().intern_hits);
        assert!(
            stats.intern_hits > 0,
            "dwell-free tiny world still dedups singles"
        );
    }

    #[test]
    fn rejects_out_of_order_and_late_records_without_dying() {
        let (mut engine, _) = paper_engine(WindowSpec::new(1_000, 2), 2);
        let records = paper_table2().to_records();
        engine.ingest_all([records[5].clone()]).unwrap();
        // Out of order.
        let err = engine.ingest_all([records[0].clone()]).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        // Advance at t=5000 seals through bucket 4 (frontier t=5000); a
        // record at t=4500 is late even though it is after the last
        // ingest.
        engine.advance_all(Timestamp(5_000)).unwrap();
        let late = Record {
            t: Timestamp(4_500),
            ..records[5].clone()
        };
        let err = engine.ingest_all([late]).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        assert_eq!(engine.stats().records_rejected, 2);
        // Rejections do not poison: the engine still serves.
        assert!(!engine.is_poisoned());
        engine.ingest_all([records[9].clone()]).unwrap();
        let update = only(engine.advance_all(Timestamp(8_999)).unwrap());
        assert_eq!(update.outcome.ranking.len(), 2);
        assert_eq!(engine.stats().records_ingested, 2);
    }

    /// The window-frontier regression: a record timestamped at the final
    /// millisecond of the newest bucket, ingested right after an advance
    /// at that same wall-clock instant, must be accepted — the bucket's
    /// last millisecond had not elapsed, so the bucket was not sealed.
    #[test]
    fn frontier_timestamped_record_accepted_after_advance() {
        let (mut engine, _) = paper_engine(WindowSpec::new(1_000, 2), 2);
        let template = paper_table2().to_records()[0].clone();
        engine
            .ingest_all([Record {
                t: Timestamp(1_500),
                ..template.clone()
            }])
            .unwrap();
        // Advance at t=4999: bucket 4 covers [4000, 4999] and is not
        // yet complete, so only buckets through 3 seal (frontier 4000).
        engine.advance_all(Timestamp(4_999)).unwrap();
        engine
            .ingest_all([Record {
                t: Timestamp(4_999),
                ..template.clone()
            }])
            .expect("a frontier-timestamped record is not late");
        // One millisecond later bucket 4 seals; now 4999 is history.
        engine.advance_all(Timestamp(5_000)).unwrap();
        let err = engine
            .ingest_all([Record {
                t: Timestamp(4_999),
                ..template
            }])
            .unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
    }

    /// A failed advance must poison the engine: coordinator and shard
    /// state have diverged, so everything afterwards is refused. The
    /// failure is injected through a path-enumeration budget small enough
    /// that evaluating the paper data blows it.
    #[test]
    fn failed_advance_poisons_engine() {
        let fig = paper_figure1();
        let cfg = ServeConfig::with_buckets(4_000)
            .with_shards(2)
            .with_flow(FlowConfig {
                engine: PresenceEngine::PathEnumeration,
                path_budget: 1,
                ..FlowConfig::default()
            });
        let (mut engine, _) = engine_with(
            &Arc::new(fig.space.clone()),
            cfg,
            QuerySpec::new(2, QuerySet::new(fig.r.to_vec()), WindowSpec::new(4_000, 2)),
        );
        engine.ingest_all(paper_table2().to_records()).unwrap();
        let err = engine.advance_all(Timestamp::from_secs(8)).unwrap_err();
        assert!(
            matches!(err, FlowError::PathBudgetExceeded { .. }),
            "unexpected injected error {err}"
        );
        assert!(engine.is_poisoned());
        // Every later call is refused with EngineUnavailable — even
        // perfectly well-formed input.
        let record = Record {
            t: Timestamp::from_secs(20),
            ..paper_table2().to_records()[0].clone()
        };
        let err = engine.ingest_all([record]).unwrap_err();
        assert!(matches!(err, FlowError::EngineUnavailable { .. }));
        let err = engine.advance_all(Timestamp::from_secs(30)).unwrap_err();
        assert!(matches!(err, FlowError::EngineUnavailable { .. }));
    }

    #[test]
    fn advance_is_monotonic() {
        let (mut engine, _) = paper_engine(WindowSpec::new(1_000, 1), 1);
        engine.advance_all(Timestamp(5_000)).unwrap();
        let err = engine.advance_all(Timestamp(4_000)).unwrap_err();
        assert!(matches!(err, FlowError::TimeRegression { .. }));
        assert!(!engine.is_poisoned(), "a rejected advance must not poison");
        engine.advance_all(Timestamp(5_000)).unwrap(); // idempotent re-advance ok
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let records = paper_table2().to_records();
        let mut rankings = Vec::new();
        for shards in [1, 2, 5] {
            let (mut engine, _) = paper_engine(WindowSpec::new(4_000, 2), shards);
            engine.ingest_all(records.clone()).unwrap();
            let update = only(engine.advance_all(Timestamp::from_secs(8)).unwrap());
            rankings.push(
                update
                    .outcome
                    .ranking
                    .iter()
                    .map(|r| (r.sloc, r.flow.to_bits()))
                    .collect::<Vec<_>>(),
            );
        }
        for r in &rankings[1..] {
            assert_eq!(&rankings[0], r);
        }
    }

    /// A query registered mid-stream returns, from its first advance on,
    /// results bit-identical to a dedicated engine that held it from the
    /// start: growing the union resets the shard caches, and re-evaluating
    /// from the append-only logs is deterministic.
    #[test]
    fn register_mid_stream_matches_dedicated_from_start() {
        let world = World::generate(Scenario::tiny().with_seed(11));
        let space = Arc::new(world.space.clone());
        let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
        let split = slocs.len() * 2 / 3;
        let set_a = QuerySet::new(slocs[..split].to_vec());
        // Overlaps A and adds locations beyond it, so registering B
        // grows the union.
        let set_b = QuerySet::new(slocs[slocs.len() / 3..].to_vec());
        let spec = WindowSpec::new(30_000, 3);
        let records: Vec<Record> = world.iupt.to_records();

        let base = ServeConfig::with_buckets(30_000).with_shards(2);
        let (mut registry, _) =
            engine_with(&space, base.clone(), QuerySpec::new(2, set_a.clone(), spec));
        let resets_before = registry.stats().cache_resets;
        let (mut dedicated, dedicated_id) =
            engine_with(&space, base.clone(), QuerySpec::new(3, set_b.clone(), spec));
        let mut next = 0usize;
        let mut b_id = None;
        for slide in 1..=8 {
            let now = Timestamp::from_secs(slide * 40);
            while next < records.len() && records[next].t <= now {
                registry.ingest_all([records[next].clone()]).unwrap();
                dedicated.ingest_all([records[next].clone()]).unwrap();
                next += 1;
            }
            if slide == 4 {
                b_id = Some(
                    registry
                        .register(QuerySpec::new(3, set_b.clone(), spec))
                        .unwrap(),
                );
                assert!(
                    registry.stats().cache_resets > resets_before,
                    "a union-growing registration must reset"
                );
                assert_eq!(registry.stats().registered_queries, 2);
            }
            let updates = registry.advance_all(now).unwrap();
            let d = only(dedicated.advance_all(now).unwrap());
            if let Some(id) = b_id {
                let (_, b) = updates.iter().find(|(i, _)| *i == id).unwrap();
                assert_eq!(b.window, d.window, "slide {slide}");
                assert_eq!(
                    b.outcome.ranking.len(),
                    d.outcome.ranking.len(),
                    "slide {slide}"
                );
                for (x, y) in b.outcome.ranking.iter().zip(d.outcome.ranking.iter()) {
                    assert_eq!(x.sloc, y.sloc, "slide {slide}");
                    assert_eq!(x.flow.to_bits(), y.flow.to_bits(), "slide {slide}");
                }
                assert_eq!(
                    registry.current_for(id).unwrap(),
                    dedicated.current_for(dedicated_id).unwrap(),
                    "slide {slide}"
                );
            }
        }
        // Unregistering B keeps serving A; its handle goes stale and
        // is rejected (not ignored) from then on.
        let id = b_id.unwrap();
        registry.unregister(id).unwrap();
        assert_eq!(registry.stats().registered_queries, 1);
        assert!(registry.current_for(id).is_none());
        assert!(matches!(
            registry.unregister(id),
            Err(FlowError::InvalidQuery { .. })
        ));
        assert!(!registry.is_poisoned());
        registry.advance_all(Timestamp::from_secs(400)).unwrap();
    }

    /// Two registered queries with different window widths advance out
    /// of lockstep — same end bucket, different starts — and each stays
    /// bit-identical to a dedicated engine of its width.
    #[test]
    fn different_window_widths_advance_out_of_lockstep() {
        let world = World::generate(Scenario::tiny().with_seed(7));
        let space = Arc::new(world.space.clone());
        let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
        let qs = QuerySet::new(slocs);
        let narrow = QuerySpec::new(2, qs.clone(), WindowSpec::new(30_000, 2));
        let wide = QuerySpec::new(2, qs.clone(), WindowSpec::new(30_000, 5));
        let records: Vec<Record> = world.iupt.to_records();

        let base = ServeConfig::with_buckets(30_000).with_shards(2);
        let (mut registry, narrow_id) = engine_with(&space, base.clone(), narrow.clone());
        let wide_id = registry.register(wide.clone()).unwrap();
        let ids = registry.query_ids();
        assert_eq!(ids, [narrow_id, wide_id]);
        let (mut narrow_only, _) = engine_with(&space, base.clone(), narrow.clone());
        let (mut wide_only, _) = engine_with(&space, base.clone(), wide.clone());
        let mut next = 0usize;
        for slide in 1..=8 {
            let now = Timestamp::from_secs(slide * 40);
            while next < records.len() && records[next].t <= now {
                registry.ingest_all([records[next].clone()]).unwrap();
                narrow_only.ingest_all([records[next].clone()]).unwrap();
                wide_only.ingest_all([records[next].clone()]).unwrap();
                next += 1;
            }
            let updates = registry.advance_all(now).unwrap();
            let n = updates.iter().find(|(i, _)| *i == ids[0]).unwrap();
            let w = updates.iter().find(|(i, _)| *i == ids[1]).unwrap();
            // Out of lockstep: same end, different start.
            assert_eq!(n.1.window.end, w.1.window.end, "slide {slide}");
            assert!(
                n.1.window.start > w.1.window.start,
                "slide {slide}: the narrow window must trail the wide one"
            );
            for (got, reference) in [
                (&n.1, only(narrow_only.advance_all(now).unwrap())),
                (&w.1, only(wide_only.advance_all(now).unwrap())),
            ] {
                assert_eq!(got.window, reference.window, "slide {slide}");
                for (x, y) in got
                    .outcome
                    .ranking
                    .iter()
                    .zip(reference.outcome.ranking.iter())
                {
                    assert_eq!(x.sloc, y.sloc, "slide {slide}");
                    assert_eq!(x.flow.to_bits(), y.flow.to_bits(), "slide {slide}");
                }
            }
        }
    }

    /// Registry rejections (no queries, mismatched bucket width,
    /// S-locations the space lacks, stale handles) are rejections — the
    /// engine keeps serving afterwards.
    #[test]
    fn registry_rejections_do_not_poison() {
        let fig = paper_figure1();
        let mut engine = ServeEngine::new(
            Arc::new(fig.space.clone()),
            ServeConfig::with_buckets(1_000).with_shards(2),
        );
        engine.ingest_all(paper_table2().to_records()).unwrap();
        // No registered queries: an advance has nothing to evaluate.
        let err = engine.advance_all(Timestamp(5_000)).unwrap_err();
        assert!(matches!(err, FlowError::InvalidQuery { .. }));
        // A spec with the wrong bucket width cannot share the caches.
        let err = engine
            .register(QuerySpec::new(
                2,
                QuerySet::new(fig.r.to_vec()),
                WindowSpec::new(2_000, 2),
            ))
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidQuery { .. }));
        // A location id the venue does not have would rank with flow 0
        // forever; it is named in the rejection.
        let mut slocs = fig.r.to_vec();
        slocs.push(indoor_model::SLocId(1_000_000));
        let err = engine
            .register(QuerySpec::new(
                2,
                QuerySet::new(slocs),
                WindowSpec::new(1_000, 2),
            ))
            .unwrap_err();
        match err {
            FlowError::InvalidQuery { detail } => assert!(detail.contains("1000000"), "{detail}"),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        assert!(engine.query_ids().is_empty());
        assert!(!engine.is_poisoned());
        // After a valid registration the engine serves normally — the
        // records ingested while the registry was empty are all visible.
        let id = engine
            .register(QuerySpec::new(
                2,
                QuerySet::new(fig.r.to_vec()),
                WindowSpec::new(1_000, 8),
            ))
            .unwrap();
        assert_eq!(engine.spec(id).unwrap().k, 2);
        let update = only(engine.advance_all(Timestamp(8_999)).unwrap());
        assert_eq!(update.outcome.ranking.len(), 2);
        assert_eq!(engine.current_for(id).unwrap(), update.outcome.topk_slocs());
    }

    /// Regression for the stale-gauge bug: `stats()` used to report the
    /// `log_bytes`/`intern_hits` captured at the *last advance*, so the
    /// footprint of records ingested since then was invisible. The
    /// gauges are now refreshed from the live shard stores on every
    /// `stats()` call.
    #[test]
    fn store_gauges_are_fresh_between_advances() {
        let (mut engine, _) = paper_engine(WindowSpec::new(4_000, 2), 2);
        let records = paper_table2().to_records();
        engine.ingest_all(records[..5].to_vec()).unwrap();
        // Before any advance the old code reported 0 — the ingested
        // records must already show up.
        let before = engine.stats();
        assert!(
            before.log_bytes > 0,
            "ingested log invisible before first advance: {before:?}"
        );
        // Advance only to the next record's timestamp: the sealed
        // frontier stays at or below it, so the rest of the stream is
        // not late.
        engine.advance_all(records[5].t).unwrap();
        let at_advance = engine.stats();
        assert!(at_advance.log_bytes >= before.log_bytes);
        // Ingest more without advancing: the gauge must grow NOW, not at
        // the next advance.
        engine.ingest_all(records[5..].to_vec()).unwrap();
        let after = engine.stats();
        assert!(
            after.log_bytes > at_advance.log_bytes,
            "gauge went stale between advances: {at_advance:?} -> {after:?}"
        );
        // The mirrored registry gauge refreshes along with it.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.gauges["serve.log_bytes"], after.log_bytes);
    }

    /// Every advance leaves a trace in the ring buffer: every phase is
    /// recorded once, they tile the measured total, shard and query
    /// attribution is present (the shard reply phase is the slowest
    /// shard's own time), and the buffer caps at the configured capacity
    /// (oldest dropped first).
    #[test]
    fn advance_traces_ring_buffer() {
        let fig = paper_figure1();
        let cfg = ServeConfig::with_buckets(1_000)
            .with_shards(3)
            .with_trace_capacity(3);
        let (mut engine, _) = engine_with(
            &Arc::new(fig.space.clone()),
            cfg,
            QuerySpec::new(2, QuerySet::new(fig.r.to_vec()), WindowSpec::new(1_000, 4)),
        );
        engine.ingest_all(paper_table2().to_records()).unwrap();
        for slide in 1..=5 {
            engine.advance_all(Timestamp::from_secs(4 + slide)).unwrap();
        }
        let traces: Vec<_> = engine.recent_traces().collect();
        assert_eq!(traces.len(), 3, "capacity not enforced");
        assert_eq!(
            traces.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "oldest traces must fall off first"
        );
        let expected = metric_names::EAGER_PHASES.as_slice();
        for trace in &traces {
            assert!(trace.total_ns > 0);
            assert!(trace.phase_total_ns() <= trace.total_ns);
            // Each phase once, in the order an advance runs them.
            let names: Vec<&str> = trace.phases.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, expected);
            assert_eq!(trace.shards.len(), 3);
            assert_eq!(trace.queries.len(), 1);
            // The shard reply phase is the slowest shard's own time.
            let slowest = trace.shards.iter().map(|s| s.reply_ns).max();
            assert_eq!(
                slowest,
                Some(trace.phase_ns(metric_names::PHASE_SHARD_REPLY_NS))
            );
            assert!(trace.shards.iter().all(|s| s.reply_ns > 0));
        }
        // Advance-scoped histograms mirror the traces.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.histograms[metric_names::ADVANCE_NS].count, 5);
        for phase in expected {
            assert_eq!(
                snap.histograms[*phase].count, 5,
                "{phase} not recorded per advance"
            );
        }
    }

    /// Metrics off: no traces are retained, the registry stays empty,
    /// and — the non-perturbation guarantee — results are bit-identical
    /// to a metrics-on engine over the same stream.
    #[test]
    fn metrics_off_leaves_no_footprint_and_identical_results() {
        let fig = paper_figure1();
        let space = Arc::new(fig.space.clone());
        let base = ServeConfig::with_buckets(2_000).with_shards(2);
        let spec = QuerySpec::new(2, QuerySet::new(fig.r.to_vec()), WindowSpec::new(2_000, 4));
        let (mut on, _) = engine_with(&space, base.clone(), spec.clone());
        let (mut off, _) = engine_with(&space, base.with_metrics(false), spec);
        for engine in [&mut on, &mut off] {
            engine.ingest_all(paper_table2().to_records()).unwrap();
        }
        let a = only(on.advance_all(Timestamp(8_999)).unwrap());
        let b = only(off.advance_all(Timestamp(8_999)).unwrap());
        assert_eq!(a.outcome.topk_slocs(), b.outcome.topk_slocs());
        for (x, y) in a.outcome.ranking.iter().zip(b.outcome.ranking.iter()) {
            assert_eq!(x.flow.to_bits(), y.flow.to_bits());
        }
        assert_eq!(off.recent_traces().count(), 0);
        let snap = off.metrics().snapshot();
        assert!(
            snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty(),
            "metrics-off engine populated its registry: {snap:?}"
        );
        // Stats still work with metrics off (satellite-1 refresh
        // included).
        assert!(off.stats().log_bytes > 0);
    }

    /// The registry's counters and gauges mirror `ServeStats` exactly
    /// after an advance, and the shard pool's per-job histograms are
    /// registered under the serve prefix.
    #[test]
    fn registry_mirrors_serve_stats() {
        let (mut engine, _) = paper_engine(WindowSpec::new(2_000, 4), 2);
        engine.ingest_all(paper_table2().to_records()).unwrap();
        engine.advance_all(Timestamp(8_999)).unwrap();
        let stats = engine.stats();
        let snap = engine.metrics().snapshot();
        for (name, value) in [
            (metric_names::RECORDS_INGESTED, stats.records_ingested),
            (metric_names::ADVANCES, stats.advances),
            (metric_names::CACHE_HITS, stats.cache_hits),
            (metric_names::FRESH_PRESENCE, stats.fresh_presence),
            (metric_names::PRESENCE_CELLS, stats.presence_cells),
            (metric_names::SPANS_IN_ADVANCE, stats.spans_in_advance),
            (metric_names::SPANS_FINISHED, stats.spans_finished),
            (metric_names::SPANS_UNUSED, stats.spans_unused),
        ] {
            assert_eq!(
                snap.counters.get(name).copied().unwrap_or(0),
                value,
                "counter {name} out of sync with {stats:?}"
            );
        }
        assert_eq!(snap.gauges[metric_names::LOG_BYTES], stats.log_bytes);
        assert_eq!(snap.gauges[metric_names::INTERN_HITS], stats.intern_hits);
        assert_eq!(snap.gauges[metric_names::REGISTERED_QUERIES], 1);
        // No kernel memo: the fields kept for the frozen benchmark read 0.
        assert_eq!((stats.memo_hits, stats.memo_misses), (0, 0));
        // Per-shard pool instrumentation came along for the ride.
        assert!(snap.histograms.contains_key("serve.pool.shard0.run_ns"));
        assert!(snap
            .histograms
            .contains_key("serve.pool.shard1.queue_wait_ns"));
        // Ingest wall-clock is one sample per hand-off — the one
        // `ingest_all` call above — however many records it carried;
        // the records themselves are counted by `records_ingested`.
        assert_eq!(snap.histograms[metric_names::INGEST_NS].count, 1);
        assert!(stats.records_ingested > 1);
        // One run of five buckets, then the only advance: records in the
        // first two were folded as they landed — the query was
        // registered before them — and the rest, a backlog no advance
        // was keeping up with, was folded from the log by the advance.
        // Every span was evaluated exactly once, one way or the other.
        assert!(stats.spans_in_advance > 0 && stats.spans_finished > 0);
        assert_eq!(
            stats.spans_in_advance + stats.spans_finished,
            stats.fresh_presence
        );
    }
}
