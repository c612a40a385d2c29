//! The serving engine's metric names — the contract between the
//! engine's instrumentation and its consumers (the streaming
//! experiment, dashboards, `BENCH_obs.json` validation in CI).
//!
//! All durations are nanoseconds. The per-phase advance histograms
//! tile an advance: summing [`EAGER_PHASES`] (or [`PRUNED_PHASES`])
//! accounts for essentially all of [`ADVANCE_NS`], so a latency spike
//! is attributable to sealing/RPC vs merging vs threshold loops.

/// Histogram: one ingest *hand-off* — a whole
/// [`ServeEngine::ingest_run`](crate::ServeEngine::ingest_run) /
/// `ingest_all` call (validation, partitioning by shard, one `tell` per
/// non-empty shard), or a single `ingest`. One sample per call however
/// many records it carried; [`RECORDS_INGESTED`] counts the records.
pub const INGEST_NS: &str = "serve.ingest_ns";
/// Histogram: one whole `advance_all` call.
pub const ADVANCE_NS: &str = "serve.advance_ns";

/// Histogram (eager phase): the `evaluate_multi` shard round-trip —
/// bucket sealing and per-window contribution assembly on the workers.
pub const PHASE_EVAL_RPC_NS: &str = "serve.advance.eval_rpc_ns";
/// Histogram (eager phase): merging shard reports into per-window
/// union score maps.
pub const PHASE_MERGE_NS: &str = "serve.advance.merge_ns";
/// Histogram (both strategies): per-query slicing — ranking each
/// registered query's locations and assembling its update/delta.
pub const PHASE_SLICE_NS: &str = "serve.advance.slice_ns";

/// Histogram (bound-pruned phase): the `advance_bounds_multi` shard
/// round-trip — cheap sealing and candidate collection.
pub const PHASE_BOUNDS_RPC_NS: &str = "serve.advance.bounds_rpc_ns";
/// Histogram (bound-pruned phase): merging candidate lists into
/// per-location COUNT bounds.
pub const PHASE_BOUNDS_MERGE_NS: &str = "serve.advance.bounds_merge_ns";
/// Histogram (bound-pruned phase): the per-query threshold loops,
/// including their nested lazy evaluation round-trips.
pub const PHASE_THRESHOLD_NS: &str = "serve.advance.threshold_ns";

/// Histogram: one lazy `evaluate_lazy` round-trip (a location's exact
/// evaluation). Nested *inside* [`PHASE_THRESHOLD_NS`] — informative,
/// not part of the phase tiling.
pub const LAZY_EVAL_NS: &str = "serve.advance.lazy_eval_ns";
/// Histogram: one shard worker's bucket-sealing pass (recorded on the
/// worker thread; nested inside the RPC phases).
pub const SHARD_SEAL_NS: &str = "serve.shard.seal_ns";

/// The phases that tile an eager advance end-to-end.
pub const EAGER_PHASES: [&str; 3] = [PHASE_EVAL_RPC_NS, PHASE_MERGE_NS, PHASE_SLICE_NS];
/// The phases that tile a bound-pruned advance end-to-end.
pub const PRUNED_PHASES: [&str; 4] = [
    PHASE_BOUNDS_RPC_NS,
    PHASE_BOUNDS_MERGE_NS,
    PHASE_THRESHOLD_NS,
    PHASE_SLICE_NS,
];

/// Counter: mirrors [`ServeStats::records_ingested`](crate::ServeStats).
pub const RECORDS_INGESTED: &str = "serve.records_ingested";
/// Counter: mirrors [`ServeStats::records_rejected`](crate::ServeStats).
pub const RECORDS_REJECTED: &str = "serve.records_rejected";
/// Counter: mirrors [`ServeStats::advances`](crate::ServeStats).
pub const ADVANCES: &str = "serve.advances";
/// Counter: mirrors [`ServeStats::cache_hits`](crate::ServeStats) —
/// under eager advances, window objects served from the shards' span
/// caches.
pub const CACHE_HITS: &str = "serve.cache_hits";
/// Counter: mirrors [`ServeStats::straddler_recomputes`](crate::ServeStats)
/// — under eager advances, multi-bucket spans evaluated, each once, not
/// once per slide.
pub const STRADDLER_RECOMPUTES: &str = "serve.straddler_recomputes";
/// Counter: mirrors [`ServeStats::fresh_presence`](crate::ServeStats) —
/// under eager advances, spans evaluated; what the shards evaluated
/// ahead of a slide is counted with the following advance.
pub const FRESH_PRESENCE: &str = "serve.fresh_presence";
/// Counter: mirrors [`ServeStats::presence_cells`](crate::ServeStats) —
/// the same evaluations per (object, location) cell.
pub const PRESENCE_CELLS: &str = "serve.presence_cells";
/// Counter: mirrors [`ServeStats::presence_skipped`](crate::ServeStats).
pub const PRESENCE_SKIPPED: &str = "serve.presence_skipped";
/// Counter: mirrors [`ServeStats::cache_resets`](crate::ServeStats).
pub const CACHE_RESETS: &str = "serve.cache_resets";

/// Gauge: mirrors [`ServeStats::log_bytes`](crate::ServeStats).
pub const LOG_BYTES: &str = "serve.log_bytes";
/// Gauge: mirrors [`ServeStats::intern_hits`](crate::ServeStats).
pub const INTERN_HITS: &str = "serve.intern_hits";
/// Gauge: mirrors [`ServeStats::registered_queries`](crate::ServeStats).
pub const REGISTERED_QUERIES: &str = "serve.registered_queries";

/// Gauge: mirrors [`ServeStats::memo_hits`](crate::ServeStats) — kernel
/// evaluations the shards' per-`SetRef` compute caches served without
/// recomputation.
pub const MEMO_HITS: &str = "serve.memo_hits";
/// Gauge: mirrors [`ServeStats::memo_misses`](crate::ServeStats).
pub const MEMO_MISSES: &str = "serve.memo_misses";
/// Gauge: mirrors [`ServeStats::memo_bytes`](crate::ServeStats) —
/// resident bytes of the shards' kernel memo tables (bounded by their
/// capacity; also folded into the store footprint gauges).
pub const MEMO_BYTES: &str = "serve.memo_bytes";

/// Prefix of the shard pool's per-job histograms
/// (`serve.pool.shard{N}.queue_wait_ns` / `.run_ns`), recorded by
/// [`popflow_exec::ShardPool::set_metrics`].
pub const POOL_PREFIX: &str = "serve.pool";
