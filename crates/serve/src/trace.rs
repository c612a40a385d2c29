//! Per-advance traces: where did this advance's time go, per phase,
//! per shard, and per query? The engine keeps a bounded ring buffer of
//! the most recent traces (see
//! [`ServeEngine::recent_traces`](crate::ServeEngine::recent_traces))
//! so a p99 spike can be attributed after the fact without re-running
//! the stream.

use popflow_core::QueryId;

use crate::shard::SpanWork;

/// One shard's contribution to an advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTrace {
    /// Shard index.
    pub shard: usize,
    /// (object, location) presence cells this shard computed fresh: the
    /// union locations of every span it evaluated, including the spans
    /// it evaluated ahead of time after the previous advance.
    pub presence_cells: u64,
    /// Window objects this shard served from its span cache.
    pub cache_hits: u64,
    /// Multi-bucket spans this shard evaluated.
    pub straddlers: u64,
}

impl ShardTrace {
    /// Adds one shard reply's span work and cache hits.
    pub(crate) fn add_work(&mut self, work: &SpanWork, cache_hits: usize) {
        self.presence_cells += work.presence_cells as u64;
        self.cache_hits += cache_hits as u64;
        self.straddlers += work.straddlers as u64;
    }
}

/// One registered query's slice of an advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query's handle.
    pub id: QueryId,
    /// Nanoseconds spent evaluating this query on top of the shared
    /// caches (slicing its locations out of the merged window and
    /// ranking them).
    pub ns: u64,
    /// Whether the query's top-k changed this advance.
    pub changed: bool,
}

/// A postmortem record of one `advance_all` call: total wall-clock,
/// the per-phase breakdown (metric names from
/// [`metric_names`](crate::metric_names)), and per-shard / per-query
/// work attribution.
///
/// ```
/// use std::sync::Arc;
/// use indoor_iupt::fixtures::paper_table2;
/// use indoor_iupt::Timestamp;
/// use indoor_model::fixtures::paper_figure1;
/// use popflow_core::{ContinuousEngine, QuerySet, QuerySpec, WindowSpec};
/// use popflow_serve::{metric_names, ServeConfig, ServeEngine};
///
/// let fig = paper_figure1();
/// let cfg = ServeConfig::with_buckets(4_000).with_query(QuerySpec::new(
///     2,
///     QuerySet::new(fig.r.to_vec()),
///     WindowSpec::new(4_000, 2),
/// ));
/// let mut engine = ServeEngine::new(Arc::new(fig.space.clone()), cfg);
/// for r in paper_table2().to_records() {
///     engine.ingest(r).unwrap();
/// }
/// engine.advance(Timestamp::from_secs(8)).unwrap();
///
/// let trace = engine.recent_traces().last().expect("one advance ran");
/// assert!(trace.total_ns > 0);
/// assert!(trace.phase_ns(metric_names::PHASE_EVAL_RPC_NS) > 0);
/// // The phase breakdown accounts for the advance end to end.
/// assert!(trace.phase_total_ns() <= trace.total_ns);
/// for shard in &trace.shards {
///     println!("shard {}: {} fresh cells", shard.shard, shard.presence_cells);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct AdvanceTrace {
    /// 1-based advance sequence number (monotone per engine).
    pub seq: u64,
    /// The `now` timestamp the advance was called with, in ms.
    pub now_millis: i64,
    /// Total advance wall-clock, nanoseconds.
    pub total_ns: u64,
    /// Per-phase durations `(metric name, ns)`, in execution order.
    pub phases: Vec<(&'static str, u64)>,
    /// Per-shard work attribution, indexed by shard.
    pub shards: Vec<ShardTrace>,
    /// Per-query timings, in registration order.
    pub queries: Vec<QueryTrace>,
}

impl AdvanceTrace {
    pub(crate) fn new(seq: u64, now_millis: i64) -> Self {
        AdvanceTrace {
            seq,
            now_millis,
            total_ns: 0,
            phases: Vec::new(),
            shards: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// Adds `ns` to the named phase (merging with an existing entry, so
    /// a phase split across code segments reports one total).
    pub(crate) fn add_phase(&mut self, name: &'static str, ns: u64) {
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += ns,
            None => self.phases.push((name, ns)),
        }
    }

    /// The recorded duration of phase `name` (0 if it did not run).
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, ns)| ns)
            .unwrap_or(0)
    }

    /// Sum of all phase durations — the instrumented share of
    /// [`AdvanceTrace::total_ns`].
    pub fn phase_total_ns(&self) -> u64 {
        self.phases.iter().map(|&(_, ns)| ns).sum()
    }
}
