//! Canonical metric names the network front-end records into its
//! `popflow-obs` registry.
//!
//! One constant per metric, mirroring `popflow_serve::metric_names`:
//! call sites and tests share these, so a renamed metric is a compile
//! error, not a silently broken dashboard. The server's registry is
//! separate from the engine's (`serve.*`); a scrape concatenates both
//! expositions, which is why every name here is `server.`-prefixed —
//! the two namespaces can never collide.

/// Histogram: ns spent in a scheduler pass's one
/// `ServeEngine::ingest_run` hand-off — one sample per pass that
/// drained anything, however many records the run carried
/// ([`RECORDS_INGESTED`] counts the records). Taken with the queue lock
/// released.
pub const INGEST_NS: &str = "server.ingest_ns";

/// Histogram: ns one full scheduler pass took (control + drain +
/// advances + delta push). Its count is the number of passes: one per
/// wake-up, plus one per pass that a budget cut short. (The scheduler
/// has no clock; the name is older than that.)
pub const TICK_NS: &str = "server.tick_ns";

/// Histogram: ns from the oldest unserved post (a batch admitted, a
/// control op, a `StreamEnd`, a disconnect, an ingest Hello) to the
/// start of the pass that serves it — how long work waited for the
/// scheduler. Near the thread wake-up cost on an idle server; the
/// length of the pass in progress on a busy one, so it is the direct
/// measure of an overloaded scheduler.
pub const TICK_LAG_NS: &str = "server.tick_lag_ns";

/// Histogram: ns from a batch entering the ingest queue to its last
/// record entering the engine (server-side batch latency; the load
/// generator measures the end-to-end send→ack round trip on top).
pub const BATCH_LATENCY_NS: &str = "server.batch_latency_ns";

/// Gauge: records sitting in the bounded ingest queue, sampled at the
/// end of each pass's drain.
pub const QUEUE_DEPTH: &str = "server.queue_depth";

/// Gauge: the highest queue depth ever observed at an enqueue or a
/// drain — the number the bounded-memory contract is audited against.
pub const QUEUE_PEAK: &str = "server.queue_peak";

/// Counter: batches refused with a throttle frame because the queue
/// was full.
pub const THROTTLES: &str = "server.throttles";

/// Counter: frames successfully parsed off client connections.
pub const FRAMES_IN: &str = "server.frames_in";

/// Counter: frames pushed to client connections.
pub const FRAMES_OUT: &str = "server.frames_out";

/// Counter: malformed frames answered with a protocol error.
pub const PROTOCOL_ERRORS: &str = "server.protocol_errors";

/// Counter: records the engine rejected during a drain (late or
/// time-regressing).
pub const RECORDS_REJECTED: &str = "server.records_rejected";

/// Counter: records the engine accepted during drains.
pub const RECORDS_INGESTED: &str = "server.records_ingested";

/// Counter: due window advances deferred past a pass's deadline or
/// per-pass budget (they run in the passes that follow at once).
pub const ADVANCES_DEFERRED: &str = "server.advances_deferred";

/// Counter: `advance_all` calls the scheduler performed.
pub const ADVANCES: &str = "server.advances";

/// Gauge: currently open client connections.
pub const CONNECTIONS: &str = "server.connections";

/// Counter: connections evicted because their outbound frame queue
/// stayed full (slow consumers).
pub const SLOW_CONSUMER_DROPS: &str = "server.slow_consumer_drops";
