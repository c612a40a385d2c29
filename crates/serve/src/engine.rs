//! The serving engine: a registry of standing TkPLQ queries over one
//! shared, sharded record stream. Routes time-ordered records to shard
//! workers and assembles each registered query's incremental window
//! evaluation into the same top-k the batch Nested-Loop search would
//! produce — bit-identical flows, for every query.

use std::collections::VecDeque;
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use popflow_core::{
    diff_topk, rank_topk, ContinuousUpdate, FlowError, Normalization, QueryId, QueryOutcome,
    QuerySet, QuerySpec, SearchStats,
};
use popflow_exec::{ShardDown, ShardPool};
use popflow_obs::{Counter, Gauge, Histogram, MetricsRegistry, Timer};

use crate::metric_names as names;
use crate::shard::{ShardWorker, SpanWork, WindowEval};
use crate::trace::{AdvanceTrace, QueryTrace, ShardTrace};

/// One merged window of an advance: the union-wide flows, in
/// `union.slocs()` order, plus the shared [`SearchStats`] reported for
/// every query on that window.
type WindowScores = (Vec<f64>, SearchStats);

/// A compatibility stub: the engine has one advance protocol, and
/// [`ServeConfig::with_strategy`] ignores its argument. Kept only
/// because the frozen benchmark still names both variants; it goes
/// with that benchmark's `pruned_*` metrics (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvanceStrategy {
    /// The engine's one advance: every window object's union
    /// contribution, cached per span of buckets, merged per
    /// window and sliced per registered query.
    #[default]
    Eager,
    /// Selects the same advance as [`AdvanceStrategy::Eager`].
    BoundPruned,
}

/// What [`ServeEngine::ingest_run`] does with a record that fails the
/// time-order checks — earlier than the last accepted record, or inside
/// a sealed bucket. Either way the record is counted in
/// [`ServeStats::records_rejected`] and never reaches a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LateRecord {
    /// Hand the records accepted so far to the shards and return the
    /// late record's [`FlowError::TimeRegression`]; the rest of the run
    /// is not looked at.
    Stop,
    /// Leave the late record out, report its index in the run, and
    /// carry on with the records behind it.
    Skip,
}

/// Configuration of a [`ServeEngine`]: the shared serving substrate
/// (shard count, bucket granularity, presence normalization) and its
/// telemetry. Queries are added and removed, at any point in the stream,
/// with [`ServeEngine::register`] / [`ServeEngine::unregister`].
///
/// The shards run one kernel: the transition DP over the §3.2-reduced
/// sequence ([`popflow_core::SpanFold`]), bit-identical to a batch
/// search with the transition-DP engine, data reduction on and the same
/// normalization. Path enumeration is for batch queries only; there is
/// no path budget to run out of here.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shard workers (threads). Objects are hash-partitioned
    /// across shards, so any count ≥ 1 yields identical results.
    pub num_shards: usize,
    /// Bucket width in milliseconds — the cache granularity every
    /// registered query must share (their window *lengths* are free to
    /// differ).
    pub bucket_millis: i64,
    /// How presence is normalized over an object's paths. It changes
    /// results: the paper defines it two ways (see [`Normalization`]).
    pub normalization: Normalization,
    /// Whether to record internal telemetry (phase histograms, mirrored
    /// counters, advance traces) into the engine's
    /// [`MetricsRegistry`]. On by default — instrumentation is relaxed
    /// atomics with no hot-path allocation, and results are
    /// bit-identical either way — but can be disabled for overhead
    /// comparisons.
    pub metrics: bool,
    /// How many [`AdvanceTrace`]s the engine retains for
    /// [`ServeEngine::recent_traces`] (oldest evicted first; 0
    /// disables tracing). Only applies when `metrics` is on.
    pub trace_capacity: usize,
}

impl ServeConfig {
    /// A config with the given bucket granularity and defaults: 4
    /// shards, the default [`Normalization`] (Algorithm 2's valid-path
    /// normalization), metrics on, 64 traces kept.
    pub fn with_buckets(bucket_millis: i64) -> Self {
        assert!(bucket_millis > 0, "bucket width must be positive");
        ServeConfig {
            num_shards: 4,
            bucket_millis,
            normalization: Normalization::default(),
            metrics: true,
            trace_capacity: 64,
        }
    }

    /// Overrides the shard count.
    pub fn with_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }

    /// Overrides the presence normalization.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Returns the config unchanged: there is one advance protocol (see
    /// [`AdvanceStrategy`], the compatibility stub this accepts).
    pub fn with_strategy(self, _strategy: AdvanceStrategy) -> Self {
        self
    }

    /// Enables or disables internal telemetry (see
    /// [`ServeConfig::metrics`]).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Overrides the advance-trace ring buffer capacity (see
    /// [`ServeConfig::trace_capacity`]).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// Pre-resolved metric handles: looked up by name once at engine
/// construction, recorded through lock-free afterwards.
#[derive(Debug)]
struct ServeMetrics {
    records_ingested: Counter,
    records_rejected: Counter,
    advances: Counter,
    cache_hits: Counter,
    straddler_recomputes: Counter,
    fresh_presence: Counter,
    presence_cells: Counter,
    spans_in_advance: Counter,
    spans_finished: Counter,
    spans_unused: Counter,
    cache_resets: Counter,
    log_bytes: Gauge,
    intern_hits: Gauge,
    registered_queries: Gauge,
    ingest_ns: Histogram,
    advance_ns: Histogram,
    /// One histogram per advance phase, keyed by metric name (5
    /// entries; linear scan beats hashing at this size).
    phases: Vec<(&'static str, Histogram)>,
}

impl ServeMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            records_ingested: registry.counter(names::RECORDS_INGESTED),
            records_rejected: registry.counter(names::RECORDS_REJECTED),
            advances: registry.counter(names::ADVANCES),
            cache_hits: registry.counter(names::CACHE_HITS),
            straddler_recomputes: registry.counter(names::STRADDLER_RECOMPUTES),
            fresh_presence: registry.counter(names::FRESH_PRESENCE),
            presence_cells: registry.counter(names::PRESENCE_CELLS),
            spans_in_advance: registry.counter(names::SPANS_IN_ADVANCE),
            spans_finished: registry.counter(names::SPANS_FINISHED),
            spans_unused: registry.counter(names::SPANS_UNUSED),
            cache_resets: registry.counter(names::CACHE_RESETS),
            log_bytes: registry.gauge(names::LOG_BYTES),
            intern_hits: registry.gauge(names::INTERN_HITS),
            registered_queries: registry.gauge(names::REGISTERED_QUERIES),
            ingest_ns: registry.histogram(names::INGEST_NS),
            advance_ns: registry.histogram(names::ADVANCE_NS),
            phases: names::EAGER_PHASES
                .into_iter()
                .map(|name| (name, registry.histogram(name)))
                .collect(),
        }
    }

    /// Records one phase duration into its histogram.
    fn record_phase(&self, name: &'static str, ns: u64) {
        if let Some((_, h)) = self.phases.iter().find(|(n, _)| *n == name) {
            h.record(ns);
        }
    }

    /// Re-mirrors the flat [`ServeStats`] into the registry: gauges are
    /// overwritten, counters lifted to the stats value (all stats
    /// counters are monotone, and only the coordinator thread writes).
    fn sync_from(&self, stats: &ServeStats) {
        let lift = |counter: &Counter, value: u64| {
            counter.add(value.saturating_sub(counter.get()));
        };
        lift(&self.records_ingested, stats.records_ingested);
        lift(&self.records_rejected, stats.records_rejected);
        lift(&self.advances, stats.advances);
        lift(&self.cache_hits, stats.cache_hits);
        lift(&self.straddler_recomputes, stats.straddler_recomputes);
        lift(&self.fresh_presence, stats.fresh_presence);
        lift(&self.presence_cells, stats.presence_cells);
        lift(&self.spans_in_advance, stats.spans_in_advance);
        lift(&self.spans_finished, stats.spans_finished);
        lift(&self.spans_unused, stats.spans_unused);
        lift(&self.cache_resets, stats.cache_resets);
        self.log_bytes.set(stats.log_bytes);
        self.intern_hits.set(stats.intern_hits);
        self.registered_queries.set(stats.registered_queries);
    }
}

/// Cumulative serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Records accepted and routed to a shard.
    pub records_ingested: u64,
    /// Records rejected (late or out of order).
    pub records_rejected: u64,
    /// Window advances served (each advance evaluates every registered
    /// query).
    pub advances: u64,
    /// Window objects an advance served without evaluating anything,
    /// once per distinct window they are in: objects the slide neither
    /// gave a record nor took one from (carried in the shards' rosters),
    /// spans shared with another window width's roster, and the spans
    /// the shards evaluated ahead of the advance — the trailing edge, and
    /// the leading-edge folds finished when their object moved on to a
    /// later bucket before the advance. Work shared across registered
    /// queries shows up here: a window two queries share is assembled
    /// once.
    pub cache_hits: u64,
    /// Multi-bucket spans evaluated — each distinct span once, when an
    /// advance first asks for it (or the shards evaluate it ahead of
    /// that advance), not once per slide it stays in a window.
    pub straddler_recomputes: u64,
    /// Presence computations counted per object — the quantity the
    /// bucketing scheme minimizes: spans evaluated, i.e. one per object
    /// per distinct run of buckets its windowed records cover
    /// (PSL-pruned spans pay nothing and are not counted). Spans the
    /// shards evaluated ahead of an advance are counted too, including
    /// the [`ServeStats::spans_unused`] that no advance asked for; they
    /// are reported with the advance that follows their evaluation.
    pub fresh_presence: u64,
    /// The same computations counted per (object, location) cell: the
    /// union locations each evaluated span's contribution covers. A span
    /// is evaluated against the whole union of registered location sets,
    /// once, not once per query or location.
    pub presence_cells: u64,
    /// Spans the advances had to fold from the log themselves, on the
    /// record→delta path: spans with neither a cache entry nor a live
    /// fold. Every other evaluated span was paid ahead of its advance,
    /// while the shards would otherwise have waited.
    pub spans_in_advance: u64,
    /// Spans obtained by finishing a live fold — the leading edge, whose
    /// records the shards fold in as they land: by the advance that asks
    /// for the span (one DP step and a sum on the record→delta path), or
    /// ahead of it when the object moved on to a later bucket first.
    pub spans_finished: u64,
    /// Spans evaluated ahead of an advance — the trailing edge, or a fold
    /// finished ahead — that were dropped or replaced before any advance
    /// asked for them: the waste of working ahead. Counted with the
    /// advance that follows the drop.
    pub spans_unused: u64,
    /// Resident bytes of the shard logs' columnar stores (summed across
    /// shards). A *gauge*, not a counter: [`ServeEngine::stats`] asks
    /// the shards for their live [`indoor_iupt::StoreStats`], so the
    /// value reflects the current log footprint — including records
    /// ingested since the last advance (it used to go stale between
    /// advances).
    pub log_bytes: u64,
    /// Ingested sample sets the shard interners deduplicated to an
    /// already-stored copy (summed across shards). Like
    /// [`ServeStats::log_bytes`], a live gauge.
    pub intern_hits: u64,
    /// Always 0: the shards keep no kernel memo, only the rosters
    /// [`ServeStats::cache_hits`] counts. Kept, with
    /// [`ServeStats::memo_misses`], only because the frozen benchmark
    /// reads both for its `popflow-serve.memo_hit_ratio`; both go when
    /// that metric does (ROADMAP item 1(c)).
    pub memo_hits: u64,
    /// Always 0; see [`ServeStats::memo_hits`].
    pub memo_misses: u64,
    /// Queries currently registered — a gauge tracking
    /// [`ServeEngine::register`] / [`ServeEngine::unregister`].
    pub registered_queries: u64,
    /// Times a registration grew the union of registered location sets
    /// and forced the shards to empty their rosters (the next advance
    /// evaluates every span afresh from the append-only logs). Shrinking
    /// the union never resets.
    pub cache_resets: u64,
}

impl ServeStats {
    /// Adds one shard reply's span work and cache hits.
    fn add_work(&mut self, work: &SpanWork, cache_hits: usize) {
        self.cache_hits += cache_hits as u64;
        self.straddler_recomputes += work.straddlers as u64;
        self.fresh_presence += work.fresh_presence as u64;
        self.presence_cells += work.presence_cells as u64;
        self.spans_in_advance += work.in_advance as u64;
        self.spans_finished += work.finished as u64;
        self.spans_unused += work.unused as u64;
    }
}

/// One registered standing query and its serving state.
#[derive(Debug)]
struct Registered {
    id: QueryId,
    spec: QuerySpec,
    /// The query's previous top-k, for delta reporting.
    previous: Option<Vec<SLocId>>,
}

/// The sharded incremental continuous top-k engine: a **query registry**
/// over shared bucket caches.
///
/// Ingestion partitions records by object across `num_shards` worker
/// threads of a [`popflow_exec::ShardPool`] (routed by the pool's shared
/// [`popflow_exec::Partitioner`]); each worker owns its shard's IUPT
/// partition, its record positions grouped by bucket at ingest, and one
/// roster per window width of contributions computed against the
/// **union** of every registered query's location set. An
/// [`advance_all`](ServeEngine::advance_all) closes the newly completed
/// bucket once, evaluates every registered query on top — slicing the
/// shared union contributions per location subset — and reports one
/// [`ContinuousUpdate`] per query.
/// Queries may use different window lengths (sharing the bucket width);
/// each keeps its own frontier and delta state, so windows of different
/// widths advance independently off the same shard logs.
///
/// Every registered query's ranking is, by construction, **bit-identical**
/// to a dedicated single-query engine (and to the batch Nested-Loop
/// search over the same window): per-location presence scores do not
/// depend on which other locations are evaluated alongside, and the
/// merge accumulates per-object contributions in ascending object-id
/// order with zero scores skipped, exactly as the batch search does.
///
/// # Registration
///
/// [`register`](ServeEngine::register) /
/// [`unregister`](ServeEngine::unregister) may be called mid-stream.
/// Registering a query whose locations grow the union drops the shard
/// caches (counted in [`ServeStats::cache_resets`]); because shard logs
/// are append-only, the next advance re-evaluates deterministically, so a
/// query registered mid-stream returns exactly what it would have
/// returned had it been registered from the start.
///
/// # Failure contract
///
/// A failed advance poisons the engine. Once shards have begun an
/// advance, a mid-advance error (a shard worker dying, a presence
/// computation failing) leaves coordinator and shard state divergent —
/// some shards have carried their rosters on, others may not have — so instead
/// of serving unpredictable results, every later `ingest`/`advance`
/// returns [`FlowError::EngineUnavailable`]. Rejected inputs (late records,
/// backwards advances, unknown or invalid queries) do **not** poison:
/// they leave the engine untouched by design.
///
/// ```
/// use std::sync::Arc;
/// use indoor_iupt::fixtures::paper_table2;
/// use indoor_iupt::Timestamp;
/// use indoor_model::fixtures::paper_figure1;
/// use popflow_core::{Normalization, QuerySet, QuerySpec, WindowSpec};
/// use popflow_serve::{ServeConfig, ServeEngine};
///
/// let fig = paper_figure1();
/// let cfg = ServeConfig::with_buckets(4_000)
///     .with_normalization(Normalization::FullProduct);
/// let mut engine = ServeEngine::new(Arc::new(fig.space.clone()), cfg);
/// let id = engine
///     .register(QuerySpec::new(
///         2,
///         QuerySet::new(fig.r.to_vec()),
///         WindowSpec::new(4_000, 2), // two 4-second buckets
///     ))
///     .unwrap();
/// engine.ingest_all(paper_table2().to_records()).unwrap();
/// let updates = engine.advance_all(Timestamp::from_secs(8)).unwrap();
/// assert_eq!(updates[0].0, id);
/// assert_eq!(updates[0].1.outcome.ranking[0].sloc, fig.r[5]); // r6 (Example 4)
/// assert_eq!(engine.current_for(id).unwrap()[0], fig.r[5]);
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    pool: ShardPool<ShardWorker>,
    stats: ServeStats,
    /// Registered queries in registration order.
    queries: Vec<Registered>,
    /// Next [`QueryId`] to hand out; ids are never reused.
    next_id: u64,
    /// Union of every registered query's location set — what the shard
    /// caches are computed against.
    union: QuerySet,
    /// The registered queries' distinct window widths, in buckets,
    /// ascending — what the shards keep their leading-edge folds for.
    widths: Vec<i64>,
    /// How many S-locations the space has. Their ids are dense indexes:
    /// [`ServeEngine::register`] rejects any id at or past this bound, and
    /// it sizes the eager merge's by-id slot table.
    num_slocs: usize,
    /// Timestamp of the first accepted record — anchors
    /// [`ServeEngine::due_advances`] before the first advance seals a
    /// frontier.
    first_ingest: Option<Timestamp>,
    last_ingest: Option<Timestamp>,
    last_advance: Option<Timestamp>,
    /// Records must land at or after the sealed frontier: once an
    /// advance has closed a bucket, the spans cached over it are final,
    /// so a record falling into it would silently be ignored by future
    /// windows. Such late records are rejected at ingest instead.
    sealed_frontier_millis: Option<i64>,
    /// Set by the first failed advance; see the failure contract above.
    poisoned: Option<String>,
    /// The engine's telemetry registry (empty when
    /// [`ServeConfig::metrics`] is off).
    registry: MetricsRegistry,
    /// Pre-resolved metric handles; `None` disables all recording.
    metrics: Option<ServeMetrics>,
    /// Ring buffer of the last [`ServeConfig::trace_capacity`] advance
    /// traces, oldest first.
    traces: VecDeque<AdvanceTrace>,
    /// One run under construction per shard, filled and handed over
    /// within a single [`ServeEngine::ingest_run`] call: every run is
    /// empty between calls, only the outer vector (and the buffer of a
    /// shard that got nothing) is kept.
    shard_runs: Vec<Vec<Record>>,
}

impl ServeEngine {
    /// Spawns the shard worker pool, with no query registered. `space` is
    /// shared read-only with all workers.
    pub fn new(space: Arc<IndoorSpace>, config: ServeConfig) -> Self {
        assert!(config.num_shards >= 1, "need at least one shard");
        let normalization = config.normalization;
        let bucket_millis = config.bucket_millis;
        let registry = MetricsRegistry::new();
        let mut pool = ShardPool::new("popflow-shard", config.num_shards, |_| {
            ShardWorker::new(
                Arc::clone(&space),
                QuerySet::new(Vec::new()),
                normalization,
                bucket_millis,
            )
        });
        let metrics = if config.metrics {
            pool.set_metrics(&registry, names::POOL_PREFIX);
            Some(ServeMetrics::new(&registry))
        } else {
            None
        };
        ServeEngine {
            config,
            pool,
            stats: ServeStats::default(),
            queries: Vec::new(),
            next_id: 0,
            union: QuerySet::new(Vec::new()),
            widths: Vec::new(),
            num_slocs: space.slocs().len(),
            first_ingest: None,
            last_ingest: None,
            last_advance: None,
            sealed_frontier_millis: None,
            poisoned: None,
            registry,
            metrics,
            traces: VecDeque::new(),
            shard_runs: Vec::new(),
        }
    }

    /// Cumulative serving counters.
    ///
    /// The [`ServeStats::log_bytes`] / [`ServeStats::intern_hits`]
    /// gauges are refreshed from the live shard stores on every call
    /// (a cheap per-shard store-stats round-trip), so they are current
    /// even before the first advance and between advances. A poisoned
    /// (or shard-down) engine returns the last cached values instead.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.stats;
        if self.poisoned.is_none() {
            if let Ok(stores) = self
                .pool
                .ask_all(|_, worker: &mut ShardWorker| worker.store_stats())
            {
                stats.log_bytes = stores.iter().map(|s| s.bytes as u64).sum();
                stats.intern_hits = stores.iter().map(|s| s.intern_hits).sum();
            }
        }
        if let Some(m) = &self.metrics {
            m.sync_from(&stats);
        }
        stats
    }

    /// The engine's telemetry registry. Snapshot it for export:
    /// `engine.metrics().snapshot().to_json()` (or `.to_prometheus()`).
    /// Empty when [`ServeConfig::metrics`] is off.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The retained [`AdvanceTrace`]s, oldest first (at most
    /// [`ServeConfig::trace_capacity`]; empty when metrics are off).
    pub fn recent_traces(&self) -> impl Iterator<Item = &AdvanceTrace> {
        self.traces.iter()
    }

    /// The engine configuration (as constructed; for the live query
    /// registry see [`ServeEngine::query_ids`] and
    /// [`ServeEngine::spec`]).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether a failed advance has taken the engine out of service.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Timestamp of the most recent accepted record, if any.
    pub fn last_ingest(&self) -> Option<Timestamp> {
        self.last_ingest
    }

    /// The `now` of the most recent advance, if any.
    pub fn last_advance(&self) -> Option<Timestamp> {
        self.last_advance
    }

    /// The bucket-boundary advance instants currently *due*, ascending.
    ///
    /// A boundary `m · bucket_millis` is due when it would seal at least
    /// one new bucket — it lies after the sealed frontier (after the
    /// first ingested record's bucket when nothing is sealed yet) — and
    /// it is at most `upper`. Boundaries past the bucket of the last
    /// ingested record seal nothing and are omitted, so passing
    /// `Timestamp(i64::MAX)` as `upper` means "everything the stream
    /// justifies" rather than an infinite list. Empty before the first
    /// ingest.
    ///
    /// This is the serving front-end's planner: a scheduler calls
    /// it (or [`ServeEngine::advance_due`]) with its release watermark
    /// and knows exactly which `advance_all` calls are pending without
    /// guessing at wall-clock alignment.
    pub fn due_advances(&self, upper: Timestamp) -> Vec<Timestamp> {
        let width = self.config.bucket_millis;
        let (Some(first), Some(last)) = (self.first_ingest, self.last_ingest) else {
            return Vec::new();
        };
        let next = match self.sealed_frontier_millis {
            Some(frontier) => frontier + width,
            None => (first.millis().div_euclid(width) + 1) * width,
        };
        let cap = (last.millis().div_euclid(width) + 1) * width;
        let mut due = Vec::new();
        let mut t = next;
        while t <= upper.millis().min(cap) {
            due.push(Timestamp(t));
            t += width;
        }
        due
    }

    /// Runs the due advances (see [`ServeEngine::due_advances`]) oldest
    /// first, stopping early once `deadline` passes or `max_advances`
    /// have run, and returns the performed advances with their updates
    /// plus the number still due.
    ///
    /// Each advance is atomic: the deadline is consulted only *between*
    /// `advance_all` calls, never inside one, so a tight budget defers
    /// whole window slides to the next call instead of splitting one —
    /// which is what keeps budgeted serving bit-identical to an
    /// unbudgeted driver. At least one due advance always runs per call
    /// (when `max_advances > 0`), so a scheduler that is persistently
    /// over deadline still makes progress.
    #[allow(clippy::type_complexity)]
    pub fn advance_due(
        &mut self,
        upper: Timestamp,
        deadline: Option<std::time::Instant>,
        max_advances: usize,
    ) -> Result<(Vec<(Timestamp, Vec<(QueryId, ContinuousUpdate)>)>, usize), FlowError> {
        let due = self.due_advances(upper);
        let mut done = Vec::new();
        for &t in &due {
            let budget_spent = done.len() >= max_advances;
            let over_deadline =
                !done.is_empty() && deadline.is_some_and(|d| std::time::Instant::now() >= d);
            if budget_spent || over_deadline {
                break;
            }
            let updates = self.advance_all(t)?;
            done.push((t, updates));
        }
        let remaining = due.len() - done.len();
        Ok((done, remaining))
    }

    /// Registers a standing query, at any point in the stream, and
    /// returns its handle. The spec's window must use the engine's
    /// bucket width, and every location must exist in the space
    /// ([`FlowError::InvalidQuery`] otherwise; a rejection leaves the
    /// engine unchanged). If the query's locations grow the union of
    /// registered sets, shard caches reset and the next advance
    /// re-evaluates from the append-only logs — making the
    /// late-registered query's results identical to an engine that held
    /// it from the start.
    pub fn register(&mut self, spec: QuerySpec) -> Result<QueryId, FlowError> {
        self.check_poisoned()?;
        if spec.window.bucket_millis != self.config.bucket_millis {
            return Err(FlowError::InvalidQuery {
                detail: format!(
                    "query bucket width {}ms does not match the engine's cache \
                     granularity of {}ms",
                    spec.window.bucket_millis, self.config.bucket_millis
                ),
            });
        }
        if let Some(&unknown) = spec
            .query_set
            .slocs()
            .iter()
            .find(|s| s.index() >= self.num_slocs)
        {
            return Err(FlowError::InvalidQuery {
                detail: format!(
                    "unknown S-location {} (the space has {})",
                    unknown.0, self.num_slocs
                ),
            });
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.queries.push(Registered {
            id,
            spec,
            previous: None,
        });
        self.sync_union()?;
        Ok(id)
    }

    /// Removes a registered query. Unknown (or already removed) handles
    /// are rejected with [`FlowError::InvalidQuery`] and change nothing.
    /// Shrinking the union keeps the shard caches — they are valid
    /// supersets, sliced at merge time.
    pub fn unregister(&mut self, id: QueryId) -> Result<(), FlowError> {
        self.check_poisoned()?;
        let Some(pos) = self.queries.iter().position(|r| r.id == id) else {
            return Err(FlowError::InvalidQuery {
                detail: format!("unknown {id}"),
            });
        };
        self.queries.remove(pos);
        self.sync_union()?;
        Ok(())
    }

    /// Handles of the registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.iter().map(|r| r.id).collect()
    }

    /// The spec registered under `id`, if any.
    pub fn spec(&self, id: QueryId) -> Option<&QuerySpec> {
        self.queries.iter().find(|r| r.id == id).map(|r| &r.spec)
    }

    /// The most recent top-k of the query registered under `id`, if that
    /// query has seen an advance.
    pub fn current_for(&self, id: QueryId) -> Option<&[SLocId]> {
        self.queries
            .iter()
            .find(|r| r.id == id)
            .and_then(|r| r.previous.as_deref())
    }

    /// Recomputes the union of registered location sets and the
    /// registered window widths, and retargets every shard at them when
    /// either changed. Growth forces a cache reset (cached contributions
    /// were computed against the smaller union and would be missing
    /// locations); shrinkage keeps the caches.
    fn sync_union(&mut self) -> Result<(), FlowError> {
        self.stats.registered_queries = self.queries.len() as u64;
        if let Some(m) = &self.metrics {
            m.registered_queries.set(self.stats.registered_queries);
        }
        let union: QuerySet = self
            .queries
            .iter()
            .flat_map(|r| r.spec.query_set.slocs().iter().copied())
            .collect();
        let mut widths: Vec<i64> = self
            .queries
            .iter()
            .map(|r| r.spec.window.window_buckets as i64)
            .collect();
        widths.sort_unstable();
        widths.dedup();
        if union == self.union && widths == self.widths {
            return Ok(());
        }
        let grew = union.slocs().iter().any(|&s| !self.union.contains(s));
        if grew {
            self.stats.cache_resets += 1;
        }
        self.union = union.clone();
        self.widths = widths.clone();
        for shard in 0..self.pool.shards() {
            let (union, widths) = (union.clone(), widths.clone());
            self.pool
                .tell(shard, move |worker| worker.retarget(union, widths, grew))
                .map_err(|down| {
                    let e = self.shard_down(down);
                    self.poison(e)
                })?;
        }
        if let Some(m) = &self.metrics {
            m.sync_from(&self.stats);
        }
        Ok(())
    }

    /// Ingests a whole batch, stopping at the first rejected record
    /// (the records before it are in the shard logs). One
    /// [`ServeEngine::ingest_run`] hand-off.
    pub fn ingest_all<I: IntoIterator<Item = Record>>(
        &mut self,
        records: I,
    ) -> Result<(), FlowError> {
        self.ingest_run(records, LateRecord::Stop).map(|_| ())
    }

    /// The engine's one ingest path: validates a run of records in
    /// order, partitions the accepted ones into one run per shard
    /// (stream order kept within each) and hands every non-empty shard
    /// run over with a single `tell` — so a shard's log is the stream
    /// filtered by shard whatever the run lengths, and the hand-off cost
    /// is per run, not per record. Nothing is held back: when the call
    /// returns every accepted record is queued on its shard.
    ///
    /// Returns the indices (into `records`, ascending) of the records
    /// skipped as late — always empty under [`LateRecord::Stop`], which
    /// returns the first late record's [`FlowError::TimeRegression`]
    /// instead. [`serve.ingest_ns`](crate::metric_names::INGEST_NS)
    /// gets one sample per call.
    pub fn ingest_run<I: IntoIterator<Item = Record>>(
        &mut self,
        records: I,
        late: LateRecord,
    ) -> Result<Vec<usize>, FlowError> {
        self.check_poisoned()?;
        let timer = self.metrics.as_ref().map(|_| Timer::start());
        let records = records.into_iter();
        let shards = self.pool.shards();
        let partitioner = self.pool.partitioner();
        let mut runs = std::mem::take(&mut self.shard_runs);
        runs.resize_with(shards, Vec::new);
        // Hash partitioning is near-even: an even share plus a sixteenth
        // spares the fuller shards a regrowth on all but skewed runs.
        let expected = records.size_hint().0;
        for run in &mut runs {
            run.reserve(expected / shards + expected / 16 + 1);
        }
        let mut skipped = Vec::new();
        let mut stopped = None;
        let mut accepted = 0u64;
        for (i, record) in records.enumerate() {
            if let Err(e) = self.check_ingest_time(record.t) {
                match late {
                    LateRecord::Stop => {
                        stopped = Some(e);
                        break;
                    }
                    LateRecord::Skip => {
                        skipped.push(i);
                        continue;
                    }
                }
            }
            if self.first_ingest.is_none() {
                self.first_ingest = Some(record.t);
            }
            self.last_ingest = Some(record.t);
            let shard = partitioner.partition_of(u64::from(record.oid.0));
            if let Some(run) = runs.get_mut(shard) {
                run.push(record);
                accepted += 1;
            }
        }
        for (shard, slot) in runs.iter_mut().enumerate() {
            if slot.is_empty() {
                continue;
            }
            let run = std::mem::take(slot);
            self.pool
                .tell(shard, move |worker| worker.ingest(run))
                .map_err(|down| {
                    let e = self.shard_down(down);
                    self.poison(e)
                })?;
        }
        self.shard_runs = runs;
        self.stats.records_ingested += accepted;
        if let (Some(m), Some(timer)) = (&self.metrics, timer) {
            timer.record_into(&m.ingest_ns);
            m.records_ingested.add(accepted);
        }
        match stopped {
            Some(e) => Err(e),
            None => Ok(skipped),
        }
    }

    /// A copy of every shard's partition of the positioning log, in
    /// shard order, as of everything ingested so far — for audits and
    /// equivalence tests (each call clones the logs).
    pub fn shard_logs(&self) -> Result<Vec<Iupt>, FlowError> {
        self.check_poisoned()?;
        self.pool
            .ask_all(|_, worker: &mut ShardWorker| worker.log())
            .map_err(|down| self.shard_down(down))
    }

    fn check_poisoned(&self) -> Result<(), FlowError> {
        match &self.poisoned {
            Some(detail) => Err(FlowError::EngineUnavailable {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    fn poison(&mut self, e: FlowError) -> FlowError {
        self.poisoned = Some(format!(
            "engine poisoned by a failed advance ({e}); coordinator and \
             shard state may have diverged — rebuild the engine"
        ));
        e
    }

    fn check_ingest_time(&mut self, t: Timestamp) -> Result<(), FlowError> {
        if let Some(last) = self.last_ingest {
            if t < last {
                self.stats.records_rejected += 1;
                if let Some(m) = &self.metrics {
                    m.records_rejected.inc();
                }
                return Err(FlowError::TimeRegression {
                    last_millis: last.millis(),
                    offending_millis: t.millis(),
                });
            }
        }
        if let Some(frontier) = self.sealed_frontier_millis {
            if t.millis() < frontier {
                self.stats.records_rejected += 1;
                if let Some(m) = &self.metrics {
                    m.records_rejected.inc();
                }
                return Err(FlowError::TimeRegression {
                    last_millis: frontier,
                    offending_millis: t.millis(),
                });
            }
        }
        Ok(())
    }

    fn shard_down(&self, down: ShardDown) -> FlowError {
        FlowError::EngineUnavailable {
            detail: down.to_string(),
        }
    }

    /// Advances every registered query to `now` and returns one update
    /// per query, in registration order. The shards assemble each
    /// distinct window **once** across all queries; per-query evaluation
    /// runs on top of the shared caches.
    ///
    /// `now` must be non-decreasing across calls, and at least one query
    /// must be registered ([`FlowError::InvalidQuery`] otherwise — a
    /// rejection, not a poisoning).
    pub fn advance_all(
        &mut self,
        now: Timestamp,
    ) -> Result<Vec<(QueryId, ContinuousUpdate)>, FlowError> {
        self.check_poisoned()?;
        if self.queries.is_empty() {
            return Err(FlowError::InvalidQuery {
                detail: "advance with no registered queries".to_string(),
            });
        }
        if let Some(last) = self.last_advance {
            if now < last {
                return Err(FlowError::TimeRegression {
                    last_millis: last.millis(),
                    offending_millis: now.millis(),
                });
            }
        }
        self.last_advance = Some(now);
        let total_timer = Timer::start();
        let mut trace = AdvanceTrace::new(self.stats.advances + 1, now.millis());

        // All queries share the bucket width, so they share the end
        // bucket; window lengths (and thus starts) differ per query.
        let end_bucket = now.millis().div_euclid(self.config.bucket_millis) - 1;
        let mut starts: Vec<i64> = self
            .queries
            .iter()
            .map(|r| end_bucket - r.spec.window.window_buckets as i64 + 1)
            .collect();
        starts.sort_unstable();
        starts.dedup();

        let result = self.advance_eager(end_bucket, &starts, &mut trace);
        // Buckets through `end_bucket` are now sealed engine-wide — even
        // if a shard reported an error: some shards may have cached
        // spans over them, and accepting a late record into a sealed
        // bucket would silently corrupt every future window.
        let frontier = (end_bucket + 1) * self.config.bucket_millis;
        self.sealed_frontier_millis = Some(
            self.sealed_frontier_millis
                .unwrap_or(frontier)
                .max(frontier),
        );

        let outcomes = match result {
            Ok(outcomes) => outcomes,
            Err(e) => return Err(self.poison(e)),
        };
        self.stats.advances += 1;

        debug_assert_eq!(outcomes.len(), self.queries.len());
        let slice_timer = Timer::start();
        let mut updates = Vec::with_capacity(self.queries.len());
        for (qi, (reg, outcome)) in self.queries.iter_mut().zip(outcomes).enumerate() {
            let (_, window) = reg.spec.window.window_at(now);
            let fresh = outcome.topk_slocs();
            let (changed, entered, left) = diff_topk(reg.previous.as_deref(), &fresh);
            if let Some(q) = trace.queries.get_mut(qi) {
                q.changed = changed;
            }
            reg.previous = Some(fresh);
            updates.push((
                reg.id,
                ContinuousUpdate {
                    outcome,
                    changed,
                    entered,
                    left,
                    window,
                },
            ));
        }
        trace.add_phase(names::PHASE_SLICE_NS, slice_timer.elapsed_ns());
        // Last, with the results in hand: the shards are idle until the
        // next records arrive, and already hold everything the next
        // slide's settled rosters follow from. No reply — nothing here
        // can change a result — and the pool's FIFO queues run it before
        // any later ingest or advance.
        let ahead_timer = Timer::start();
        for shard in 0..self.pool.shards() {
            let request = starts.clone();
            self.pool
                .tell(shard, move |worker| {
                    worker.evaluate_ahead(end_bucket, &request)
                })
                .map_err(|down| {
                    let e = self.shard_down(down);
                    self.poison(e)
                })?;
        }
        trace.add_phase(names::PHASE_AHEAD_NS, ahead_timer.elapsed_ns());
        trace.total_ns = total_timer.elapsed_ns();
        if let Some(m) = &self.metrics {
            m.advance_ns.record(trace.total_ns);
            for &(name, ns) in &trace.phases {
                m.record_phase(name, ns);
            }
            m.sync_from(&self.stats);
            if self.config.trace_capacity > 0 {
                if self.traces.len() == self.config.trace_capacity {
                    self.traces.pop_front();
                }
                self.traces.push_back(trace);
            }
        }
        Ok(updates)
    }

    /// The index into `starts` of the window a query of `window_buckets`
    /// buckets evaluates this advance. The advance plan collects every
    /// registered query's start, so a miss means the plan and the
    /// registry diverged — an engine fault, not a caller error.
    fn window_index(
        starts: &[i64],
        end_bucket: i64,
        window_buckets: usize,
    ) -> Result<usize, FlowError> {
        let start = end_bucket - window_buckets as i64 + 1;
        starts
            .binary_search(&start)
            .map_err(|_| FlowError::EngineUnavailable {
                detail: format!(
                    "window start {start} (width {window_buckets}) missing from the advance \
                     plan {starts:?}"
                ),
            })
    }

    /// The eager advance: every shard replies with its block for every
    /// requested window in one round-trip ([`ShardPool::ask_all`] —
    /// gathered in shard order); the coordinator merges each window once
    /// and slices the merged union scores per query.
    fn advance_eager(
        &mut self,
        end_bucket: i64,
        starts: &[i64],
        trace: &mut AdvanceTrace,
    ) -> Result<Vec<QueryOutcome>, FlowError> {
        let request: Vec<i64> = starts.to_vec();
        let rpc_timer = Timer::start();
        let reports = self
            .pool
            .ask_all(move |_, worker: &mut ShardWorker| worker.evaluate_multi(end_bucket, &request))
            .map_err(|down| self.shard_down(down))?;
        let rpc_ns = rpc_timer.elapsed_ns();
        // The slowest shard's own work, and what the round trip spent
        // besides: jobs queued ahead of the request and wake-ups.
        let reply_ns = reports.iter().map(|r| r.reply_ns).max().unwrap_or(0);
        trace.add_phase(names::PHASE_SHARD_REPLY_NS, reply_ns);
        trace.add_phase(names::PHASE_SHARD_WAIT_NS, rpc_ns.saturating_sub(reply_ns));

        let merge_timer = Timer::start();
        self.stats.log_bytes = 0;
        self.stats.intern_hits = 0;
        for (shard, report) in reports.iter().enumerate() {
            self.stats.add_work(&report.work, report.cache_hits);
            self.stats.log_bytes += report.store.bytes as u64;
            self.stats.intern_hits += report.store.intern_hits;
            let mut shard_trace = ShardTrace {
                shard,
                reply_ns: report.reply_ns,
                ..ShardTrace::default()
            };
            shard_trace.add_work(&report.work, report.cache_hits);
            trace.shards.push(shard_trace);
        }
        if let Some(e) = reports.iter().find_map(|r| r.error.clone()) {
            return Err(e);
        }
        let windows: Vec<Vec<Arc<WindowEval>>> = reports.into_iter().map(|r| r.windows).collect();
        let merged = merge_windows(&self.union, self.num_slocs, &windows, starts.len())?;
        trace.add_phase(names::PHASE_MERGE_NS, merge_timer.elapsed_ns());

        let slice_timer = Timer::start();
        let mut outcomes = Vec::with_capacity(self.queries.len());
        for reg in &self.queries {
            let query_timer = Timer::start();
            let wi = Self::window_index(starts, end_bucket, reg.spec.window.window_buckets)?;
            let (flows, stats) = merged.get(wi).ok_or_else(|| FlowError::EngineUnavailable {
                detail: format!("merge produced no window {wi} for the advance plan"),
            })?;
            // Slice the union-merged flows down to this query's
            // locations. Per-location flows are query-independent,
            // so the projection is bit-identical to a dedicated
            // single-query merge.
            let sliced: Vec<(SLocId, f64)> = reg
                .spec
                .query_set
                .slocs()
                .iter()
                .map(|&s| {
                    let flow = self.union.index_of(s).and_then(|slot| flows.get(slot));
                    (s, flow.copied().unwrap_or(0.0))
                })
                .collect();
            outcomes.push(QueryOutcome {
                ranking: rank_topk(sliced, reg.spec.k),
                stats: stats.clone(),
            });
            trace.queries.push(QueryTrace {
                id: reg.id,
                ns: query_timer.elapsed_ns(),
                changed: false,
            });
        }
        trace.add_phase(names::PHASE_SLICE_NS, slice_timer.elapsed_ns());
        Ok(outcomes)
    }
}

/// Merges the shards' blocks (`shards[shard][window]`) into one dense
/// flow vector per window (`union.slocs()` order), accumulating
/// per-object contributions in ascending object-id order with zero
/// scores skipped — the exact order (and therefore the exact
/// floating-point sums) of the batch Nested-Loop search. Each shard's
/// block is ascending and an object lives on one shard, so the blocks are
/// merged, not concatenated and re-sorted: every block is read once,
/// front to back. `num_slocs` bounds the S-location ids. The per-window
/// [`SearchStats`] describe the shared union evaluation and are reported
/// identically for every query using the window.
fn merge_windows(
    union: &QuerySet,
    num_slocs: usize,
    shards: &[Vec<Arc<WindowEval>>],
    num_windows: usize,
) -> Result<Vec<WindowScores>, FlowError> {
    // Where each S-location's flow accumulates: its position in the
    // union, looked up by id. Locations outside the current union — a
    // block may hold supersets of a shrunk union — keep the out-of-range
    // default and are skipped.
    let mut slots = vec![usize::MAX; num_slocs];
    for (slot, s) in union.slocs().iter().enumerate() {
        if let Some(entry) = slots.get_mut(s.index()) {
            *entry = slot;
        }
    }
    let mut merged = Vec::with_capacity(num_windows);
    for wi in 0..num_windows {
        let mut flows = vec![0.0; union.len()];
        let mut stats = SearchStats::default();
        let mut blocks = Vec::with_capacity(shards.len());
        for windows in shards {
            let win = windows
                .get(wi)
                .ok_or_else(|| FlowError::EngineUnavailable {
                    detail: format!("shard reply is missing window {wi} of the advance plan"),
                })?;
            stats.objects_total += win.len();
            blocks.push((&**win, 0));
        }
        let mut previous = None;
        loop {
            // The block whose next object has the lowest id.
            let mut lowest: Option<(ObjectId, usize)> = None;
            for (shard, &(win, i)) in blocks.iter().enumerate() {
                if let Some(&oid) = win.oids.get(i) {
                    if lowest.is_none_or(|(low, _)| oid < low) {
                        lowest = Some((oid, shard));
                    }
                }
            }
            let Some((oid, (win, i))) =
                lowest.and_then(|(oid, shard)| Some((oid, blocks.get_mut(shard)?)))
            else {
                break;
            };
            debug_assert!(previous < Some(oid), "shard blocks ascend and are disjoint");
            previous = Some(oid);
            let (locs, scores) = win.cells(*i);
            *i += 1;
            // A PSL-pruned entry has no cells.
            stats.objects_computed += usize::from(!locs.is_empty());
            for (q, &score) in locs.iter().zip(scores) {
                if score > 0.0 {
                    let slot = slots.get(q.index()).and_then(|&slot| flows.get_mut(slot));
                    if let Some(flow) = slot {
                        *flow += score;
                    }
                }
            }
        }
        merged.push((flows, stats));
    }
    Ok(merged)
}

// No Drop impl: dropping the engine drops its `ShardPool`, which closes
// every worker queue and joins the threads.

#[cfg(test)]
impl ServeEngine {
    /// Test hook: from the shards' next job on, every span of `oid` a
    /// shard evaluates fails as if the kernel had rejected it.
    pub(crate) fn fail_on_object(&self, oid: ObjectId) {
        for shard in 0..self.pool.shards() {
            let marked = self.pool.tell(shard, move |w| w.mark_faulty(oid));
            marked.expect("shard worker alive");
        }
    }
}

#[cfg(test)]
mod tests {
    use popflow_core::ObjectContribution;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// A random contribution over a random non-empty ascending subset of
    /// `all` (a scored entry has a cell at least: the kernel prunes an
    /// object that touches no location): scores of very different
    /// magnitudes, so that the order they are added in shows in the
    /// sums' bits, and some exactly zero.
    fn random_contribution(rng: &mut StdRng, all: &[SLocId]) -> ObjectContribution {
        let first = rng.gen_range(0..all.len());
        let relevant: Vec<SLocId> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| i == first || rng.gen_range(0..3) == 0)
            .map(|(_, &s)| s)
            .collect();
        let scores = relevant
            .iter()
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0.0..1e-9),
                _ => rng.gen_range(0.0..1.0),
            })
            .collect();
        ObjectContribution {
            relevant,
            scores,
            ..ObjectContribution::default()
        }
    }

    /// Sums `entries` into flows over `union` in the order given, zero
    /// scores skipped.
    fn sum_in_order<'a>(
        union: &QuerySet,
        entries: impl IntoIterator<Item = &'a Option<ObjectContribution>>,
    ) -> Vec<f64> {
        let mut flows = vec![0.0; union.len()];
        for contribution in entries.into_iter().flatten() {
            for (&q, &score) in contribution.relevant.iter().zip(&contribution.scores) {
                if let Some(slot) = union.index_of(q).filter(|_| score > 0.0) {
                    flows[slot] += score;
                }
            }
        }
        flows
    }

    fn to_bits(flows: &[f64]) -> Vec<u64> {
        flows.iter().map(|f| f.to_bits()).collect()
    }

    /// Random per-shard blocks — evaluated against a union that has
    /// since shrunk, with PSL-pruned objects and zero scores — merge to
    /// exactly what collecting every contribution by object id and
    /// summing in id order gives: flows `to_bits`-equal, stats equal.
    /// Summing one shard's block before the other's would not be: the
    /// schedules include windows where that order changes the bits.
    #[test]
    fn merge_windows_sums_flat_blocks_in_object_order() {
        let num_slocs = 24;
        let all: Vec<SLocId> = (0..num_slocs as u32).map(SLocId).collect();
        let mut order_shows = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let union: QuerySet = all
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..3) != 0)
                .collect();
            let shards = rng.gen_range(1..=4usize);
            let num_windows = rng.gen_range(1..=3);
            let mut blocks: Vec<Vec<Arc<WindowEval>>> = vec![Vec::new(); shards];
            let mut expected = Vec::new();
            for _ in 0..num_windows {
                let mut per_shard: Vec<WindowEval> =
                    (0..shards).map(|_| WindowEval::default()).collect();
                let mut by_shard: Vec<Vec<Option<ObjectContribution>>> = vec![Vec::new(); shards];
                let mut entries = Vec::new();
                let mut oid = 0;
                for _ in 0..rng.gen_range(0..80) {
                    oid += rng.gen_range(1..4u32);
                    let contribution =
                        (rng.gen_range(0..5) != 0).then(|| random_contribution(&mut rng, &all));
                    let shard = oid as usize % shards;
                    per_shard[shard].push(ObjectId(oid), (0, 0), contribution.as_ref());
                    by_shard[shard].push(contribution.clone());
                    entries.push(contribution);
                }
                let flows = sum_in_order(&union, &entries);
                let shard_by_shard = sum_in_order(&union, by_shard.iter().flatten());
                order_shows += usize::from(to_bits(&flows) != to_bits(&shard_by_shard));
                let stats = SearchStats {
                    objects_total: entries.len(),
                    objects_computed: entries.iter().flatten().count(),
                    ..SearchStats::default()
                };
                expected.push((flows, stats));
                for (shard, block) in per_shard.into_iter().enumerate() {
                    blocks[shard].push(Arc::new(block));
                }
            }
            let merged = merge_windows(&union, num_slocs, &blocks, num_windows).expect("merge");
            assert_eq!(merged.len(), expected.len());
            for (wi, ((got, got_stats), (want, want_stats))) in
                merged.iter().zip(&expected).enumerate()
            {
                assert_eq!(to_bits(got), to_bits(want), "seed {seed}, window {wi}");
                assert_eq!(got_stats, want_stats, "seed {seed}, window {wi}");
            }
        }
        assert!(
            order_shows > 10,
            "only {order_shows} windows tell the orders apart"
        );
    }
}
