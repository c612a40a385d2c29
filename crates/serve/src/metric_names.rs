//! The serving engine's metric names — the contract between the
//! engine's instrumentation and its consumers (the streaming
//! experiment, dashboards, `BENCH_obs.json` validation in CI).
//!
//! All durations are nanoseconds. The per-phase advance histograms
//! tile an advance: summing [`EAGER_PHASES`] accounts for essentially
//! all of [`ADVANCE_NS`], so a latency spike is attributable to the
//! shards' own work vs waiting for them vs merging vs slicing vs the
//! hand-off after the advance. Where the shards' kernel
//! work was paid shows in three counters: [`SPANS_IN_ADVANCE`] folded
//! from the log on the record→delta path, [`SPANS_FINISHED`] folded as
//! the records landed and only finished by or ahead of the advance, and
//! [`SPANS_UNUSED`] for what was paid ahead of an advance and wasted.

/// Histogram: one ingest *hand-off* — a whole
/// [`ServeEngine::ingest_run`](crate::ServeEngine::ingest_run) /
/// `ingest_all` call (validation, partitioning by shard, one `tell` per
/// non-empty shard), or a single `ingest`. One sample per call however
/// many records it carried; [`RECORDS_INGESTED`] counts the records.
pub const INGEST_NS: &str = "serve.ingest_ns";
/// Histogram: one whole `advance_all` call.
pub const ADVANCE_NS: &str = "serve.advance_ns";

/// Histogram (advance phase): the slowest shard's own time answering
/// the advance's request — carrying its rosters to the new windows —
/// as the shard measured it.
pub const PHASE_SHARD_REPLY_NS: &str = "serve.advance.shard_reply_ns";
/// Histogram (advance phase): the rest of the request's round trip —
/// ingest jobs queued on the shards ahead of it, and wake-ups.
pub const PHASE_SHARD_WAIT_NS: &str = "serve.advance.shard_wait_ns";
/// Histogram (advance phase): merging shard reports into per-window
/// union flow vectors.
pub const PHASE_MERGE_NS: &str = "serve.advance.merge_ns";
/// Histogram (advance phase): per-query slicing — ranking each
/// registered query's locations and assembling its update/delta.
pub const PHASE_SLICE_NS: &str = "serve.advance.slice_ns";
/// Histogram (advance phase): handing every shard the job that follows
/// the advance (settling the next window's rosters); the job itself runs
/// after the advance returns.
pub const PHASE_AHEAD_NS: &str = "serve.advance.ahead_ns";

/// The phases that tile an advance end-to-end.
pub const EAGER_PHASES: [&str; 5] = [
    PHASE_SHARD_REPLY_NS,
    PHASE_SHARD_WAIT_NS,
    PHASE_MERGE_NS,
    PHASE_SLICE_NS,
    PHASE_AHEAD_NS,
];

/// Counter: mirrors [`ServeStats::records_ingested`](crate::ServeStats).
pub const RECORDS_INGESTED: &str = "serve.records_ingested";
/// Counter: mirrors [`ServeStats::records_rejected`](crate::ServeStats).
pub const RECORDS_REJECTED: &str = "serve.records_rejected";
/// Counter: mirrors [`ServeStats::advances`](crate::ServeStats).
pub const ADVANCES: &str = "serve.advances";
/// Counter: mirrors [`ServeStats::cache_hits`](crate::ServeStats) —
/// window objects an advance served without evaluating anything.
pub const CACHE_HITS: &str = "serve.cache_hits";
/// Counter: mirrors [`ServeStats::straddler_recomputes`](crate::ServeStats)
/// — multi-bucket spans evaluated, each once, not once per slide.
pub const STRADDLER_RECOMPUTES: &str = "serve.straddler_recomputes";
/// Counter: mirrors [`ServeStats::fresh_presence`](crate::ServeStats) —
/// spans evaluated; what the shards evaluated ahead of an advance is
/// counted with the following advance.
pub const FRESH_PRESENCE: &str = "serve.fresh_presence";
/// Counter: mirrors [`ServeStats::presence_cells`](crate::ServeStats) —
/// the same evaluations per (object, location) cell: the union locations
/// each evaluated span covers.
pub const PRESENCE_CELLS: &str = "serve.presence_cells";
/// Counter: mirrors [`ServeStats::spans_in_advance`](crate::ServeStats) —
/// spans the advances had to fold from the log themselves.
pub const SPANS_IN_ADVANCE: &str = "serve.spans_in_advance";
/// Counter: mirrors [`ServeStats::spans_finished`](crate::ServeStats) —
/// spans obtained by finishing a live fold.
pub const SPANS_FINISHED: &str = "serve.spans_finished";
/// Counter: mirrors [`ServeStats::spans_unused`](crate::ServeStats) —
/// spans evaluated ahead of an advance that none asked for.
pub const SPANS_UNUSED: &str = "serve.spans_unused";
/// Counter: mirrors [`ServeStats::cache_resets`](crate::ServeStats).
pub const CACHE_RESETS: &str = "serve.cache_resets";

/// Gauge: mirrors [`ServeStats::log_bytes`](crate::ServeStats).
pub const LOG_BYTES: &str = "serve.log_bytes";
/// Gauge: mirrors [`ServeStats::intern_hits`](crate::ServeStats).
pub const INTERN_HITS: &str = "serve.intern_hits";
/// Gauge: mirrors [`ServeStats::registered_queries`](crate::ServeStats).
pub const REGISTERED_QUERIES: &str = "serve.registered_queries";

/// Prefix of the shard pool's per-job histograms
/// (`serve.pool.shard{N}.queue_wait_ns` / `.run_ns`), recorded by
/// [`popflow_exec::ShardPool::set_metrics`].
pub const POOL_PREFIX: &str = "serve.pool";
