//! The unified batch entry point: one [`TkplqRequest`] — the query's
//! *shape* (location set, `k`, flow configuration) without a time
//! interval — consumed by every TkPLQ search algorithm through the
//! [`BatchEngine`] trait.
//!
//! The classic free functions taking `(space, iupt, &TkPlQuery,
//! &FlowConfig)` — [`naive()`], [`nested_loop()`], [`best_first()`] —
//! are thin forwarding wrappers over the three engines here ([`Naive`], [`NestedLoop`],
//! [`BestFirst`]), so drivers that sweep algorithms can hold a
//! `&dyn BatchEngine` instead of matching on function pointers.

use std::sync::Arc;

use indoor_iupt::{Iupt, TimeInterval};
use indoor_model::IndoorSpace;

use crate::config::{FlowConfig, FlowError};
use crate::memo::FlowMemo;
use crate::query::{best_first, naive, nested_loop, QueryOutcome, TkPlQuery};
use crate::query_set::QuerySet;

/// The engine-independent shape of a batch TkPLQ: what to rank, how many
/// to return, and how to compute presence — everything except *when*.
/// Pair it with a [`TimeInterval`] at [`BatchEngine::evaluate`] time.
#[derive(Debug, Clone)]
pub struct TkplqRequest {
    /// Top-k size (≥ 1; clamped to `|query_set|` at query construction).
    pub k: usize,
    /// The query's S-location set.
    pub query_set: QuerySet,
    /// Flow computation configuration (engine, normalization, reduction,
    /// parallelism).
    pub flow: FlowConfig,
    /// Optional shared kernel memo ([`FlowMemo`]). When attached (and
    /// [`FlowConfig::memo`] is on), the Nested-Loop engine serves and
    /// populates per-sequence kernel results through it, and the
    /// Best-First engine reads it — so repeated or overlapping requests
    /// against the same store skip per-object kernels bit-identically.
    /// `None` (the default, and what [`TkplqRequest::from_query`]
    /// produces) evaluates every kernel from scratch; cross-request
    /// reuse requires explicitly attaching one memo to each request via
    /// [`TkplqRequest::with_memo`].
    pub memo: Option<Arc<FlowMemo>>,
}

impl TkplqRequest {
    /// A request with the default [`FlowConfig`].
    pub fn new(k: usize, query_set: QuerySet) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TkplqRequest {
            k,
            query_set,
            flow: FlowConfig::default(),
            memo: None,
        }
    }

    /// Overrides the flow configuration.
    pub fn with_flow(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }

    /// Attaches a shared kernel memo. Results stay bit-identical; only
    /// repeated kernel work is skipped.
    pub fn with_memo(mut self, memo: Arc<FlowMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The request a classic `(query, cfg)` call pair describes.
    pub fn from_query(query: &TkPlQuery, cfg: &FlowConfig) -> Self {
        TkplqRequest {
            k: query.k,
            query_set: query.query_set.clone(),
            flow: *cfg,
            memo: None,
        }
    }

    /// The memo the engines should consult: the attached one, unless
    /// [`FlowConfig::memo`] turned memoization off.
    fn kernel_memo(&self) -> Option<&FlowMemo> {
        if self.flow.memo {
            self.memo.as_deref()
        } else {
            None
        }
    }

    /// Instantiates the classic [`TkPlQuery`] for `interval` (`k` clamped
    /// to `|query_set|` exactly as direct construction clamps it).
    pub fn query(&self, interval: TimeInterval) -> TkPlQuery {
        TkPlQuery::new(self.k, self.query_set.clone(), interval)
    }
}

/// A batch TkPLQ search algorithm: evaluates one [`TkplqRequest`] over
/// one time interval. All built-in engines return bit-identical flows
/// for the locations they rank (property-tested); they differ only in
/// work and pruning behaviour.
pub trait BatchEngine {
    /// Engine name for reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Evaluates the request over `interval`.
    fn evaluate(
        &self,
        space: &IndoorSpace,
        iupt: &mut Iupt,
        request: &TkplqRequest,
        interval: TimeInterval,
    ) -> Result<QueryOutcome, FlowError>;

    /// Wraps this engine so every evaluation's wall-clock and
    /// [`SearchStats`](crate::query::SearchStats) land in `registry`
    /// under `batch.<name>.*` — the same export path the serving
    /// engine uses, so batch and serve telemetry share one snapshot.
    fn instrumented(self, registry: &popflow_obs::MetricsRegistry) -> Instrumented<Self>
    where
        Self: Sized,
    {
        Instrumented::new(self, registry)
    }
}

/// A [`BatchEngine`] decorator that records each evaluation into a
/// [`MetricsRegistry`](popflow_obs::MetricsRegistry): a
/// `batch.<name>.evaluate_ns` histogram plus the inner engine's
/// [`SearchStats`](crate::query::SearchStats) counters
/// (`evaluations`, `objects_total`, `objects_computed`,
/// `dp_fallback_objects`). The returned outcome is byte-for-byte the
/// inner engine's — instrumentation never perturbs results.
#[derive(Debug, Clone)]
pub struct Instrumented<E> {
    inner: E,
    registry: popflow_obs::MetricsRegistry,
    evaluate_ns: popflow_obs::Histogram,
}

impl<E: BatchEngine> Instrumented<E> {
    /// Wraps `inner`, resolving its metric handles in `registry`.
    pub fn new(inner: E, registry: &popflow_obs::MetricsRegistry) -> Self {
        let evaluate_ns = registry.histogram(&format!("batch.{}.evaluate_ns", inner.name()));
        Instrumented {
            inner,
            registry: registry.clone(),
            evaluate_ns,
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: BatchEngine> BatchEngine for Instrumented<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(
        &self,
        space: &IndoorSpace,
        iupt: &mut Iupt,
        request: &TkplqRequest,
        interval: TimeInterval,
    ) -> Result<QueryOutcome, FlowError> {
        let timer = popflow_obs::Timer::start();
        let outcome = self.inner.evaluate(space, iupt, request, interval)?;
        timer.record_into(&self.evaluate_ns);
        outcome.stats.record_to(&self.registry, self.inner.name());
        Ok(outcome)
    }
}

/// The naive algorithm (§4 intro): one `flow` call per query location.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

/// The Nested-Loop search (§4.1, Algorithm 3); per-object kernels fork
/// across [`FlowConfig::exec`] threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoop;

/// The Best-First search (§4.2, Algorithm 4) over exact per-location
/// candidate counts; per-object work forks across [`FlowConfig::exec`]
/// threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFirst;

impl BatchEngine for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn evaluate(
        &self,
        space: &IndoorSpace,
        iupt: &mut Iupt,
        request: &TkplqRequest,
        interval: TimeInterval,
    ) -> Result<QueryOutcome, FlowError> {
        naive::run(space, iupt, &request.query(interval), &request.flow)
    }
}

impl BatchEngine for NestedLoop {
    fn name(&self) -> &'static str {
        "nested-loop"
    }

    fn evaluate(
        &self,
        space: &IndoorSpace,
        iupt: &mut Iupt,
        request: &TkplqRequest,
        interval: TimeInterval,
    ) -> Result<QueryOutcome, FlowError> {
        nested_loop::run(
            space,
            iupt,
            &request.query(interval),
            &request.flow,
            request.kernel_memo(),
        )
    }
}

impl BatchEngine for BestFirst {
    fn name(&self) -> &'static str {
        "best-first"
    }

    fn evaluate(
        &self,
        space: &IndoorSpace,
        iupt: &mut Iupt,
        request: &TkplqRequest,
        interval: TimeInterval,
    ) -> Result<QueryOutcome, FlowError> {
        best_first::run(
            space,
            iupt,
            &request.query(interval),
            &request.flow,
            request.kernel_memo(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::Timestamp;
    use indoor_model::fixtures::paper_figure1;

    /// Every engine consumes the same request and returns the same
    /// ranking with bit-identical flows, whether or not its per-object
    /// work is forked — and agrees with the classic free-function
    /// wrappers it now backs.
    #[test]
    fn all_engines_agree_on_one_request() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let flow = FlowConfig::default().with_full_product_normalization();
        let request = TkplqRequest::new(3, QuerySet::new(fig.r.to_vec())).with_flow(flow);
        let engines: [&dyn BatchEngine; 3] = [&Naive, &NestedLoop, &BestFirst];
        let reference = NestedLoop
            .evaluate(&fig.space, &mut iupt, &request, interval)
            .unwrap();
        assert_eq!(reference.ranking[0].sloc, fig.r[5]); // Example 4: r6 tops
        for threads in [1, 4] {
            let forked = request.clone().with_flow(FlowConfig {
                exec: popflow_exec::ExecConfig::with_threads(threads),
                ..flow
            });
            for engine in engines {
                let out = engine
                    .evaluate(&fig.space, &mut iupt, &forked, interval)
                    .unwrap();
                assert_eq!(
                    out.topk_slocs(),
                    reference.topk_slocs(),
                    "engine {} threads {threads}",
                    engine.name()
                );
                for (a, b) in out.ranking.iter().zip(&reference.ranking) {
                    assert_eq!(
                        a.flow.to_bits(),
                        b.flow.to_bits(),
                        "engine {} threads {threads}",
                        engine.name()
                    );
                }
            }
        }
        // The classic wrappers forward through the same entry point.
        let query = request.query(interval);
        let wrapped =
            crate::query::nested_loop(&fig.space, &mut iupt, &query, &request.flow).unwrap();
        assert_eq!(wrapped.topk_slocs(), reference.topk_slocs());
    }

    /// The instrumented wrapper returns bit-identical outcomes and
    /// routes `SearchStats` into the shared registry.
    #[test]
    fn instrumented_engine_matches_and_exports_stats() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let request = TkplqRequest::new(3, QuerySet::new(fig.r.to_vec()));
        let plain = NestedLoop
            .evaluate(&fig.space, &mut iupt, &request, interval)
            .unwrap();
        let registry = popflow_obs::MetricsRegistry::new();
        let engine = NestedLoop.instrumented(&registry);
        assert_eq!(engine.name(), "nested-loop");
        let out = engine
            .evaluate(&fig.space, &mut iupt, &request, interval)
            .unwrap();
        assert_eq!(out.topk_slocs(), plain.topk_slocs());
        for (a, b) in out.ranking.iter().zip(&plain.ranking) {
            assert_eq!(a.flow.to_bits(), b.flow.to_bits());
        }
        engine
            .evaluate(&fig.space, &mut iupt, &request, interval)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["batch.nested-loop.evaluations"], 2);
        assert_eq!(
            snap.counters["batch.nested-loop.objects_total"],
            2 * out.stats.objects_total as u64
        );
        assert_eq!(
            snap.counters["batch.nested-loop.objects_computed"],
            2 * out.stats.objects_computed as u64
        );
        assert_eq!(snap.histograms["batch.nested-loop.evaluate_ns"].count, 2);
    }

    /// A memo attached to the request leaves every engine's ranking and
    /// flows bit-identical while the Nested-Loop engine populates it and
    /// the Best-First engine serves from it read-only; turning
    /// [`FlowConfig::memo`] off bypasses the attached memo entirely.
    #[test]
    fn attached_memo_is_bit_identical_across_engines() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        for flow in [
            FlowConfig::default(),
            FlowConfig::default().with_dp_engine(),
            FlowConfig::default().without_reduction(),
            FlowConfig::default().with_full_product_normalization(),
        ] {
            let plain = TkplqRequest::new(6, QuerySet::new(fig.r.to_vec())).with_flow(flow);
            let memo = std::sync::Arc::new(crate::memo::FlowMemo::new());
            let memoized = plain.clone().with_memo(std::sync::Arc::clone(&memo));
            let reference = NestedLoop
                .evaluate(&fig.space, &mut iupt, &plain, interval)
                .unwrap();
            let engines: [&dyn BatchEngine; 2] = [&NestedLoop, &BestFirst];
            for round in 0..2 {
                for engine in engines {
                    let out = engine
                        .evaluate(&fig.space, &mut iupt, &memoized, interval)
                        .unwrap();
                    assert_eq!(
                        out.topk_slocs(),
                        reference.topk_slocs(),
                        "engine {} round {round}",
                        engine.name()
                    );
                    for (a, b) in out.ranking.iter().zip(&reference.ranking) {
                        assert_eq!(
                            a.flow.to_bits(),
                            b.flow.to_bits(),
                            "engine {} round {round}",
                            engine.name()
                        );
                    }
                }
            }
            let stats = memo.stats();
            assert!(stats.hits > 0, "repeat rounds must hit: {stats:?}");
            assert!(stats.entries > 0 && stats.bytes > 0);

            // `memo: false` ignores the attachment: the memo sees no
            // further traffic and results are still bit-identical.
            let before = memo.stats();
            let off = memoized.clone().with_flow(flow.with_memo(false));
            let out = NestedLoop
                .evaluate(&fig.space, &mut iupt, &off, interval)
                .unwrap();
            for (a, b) in out.ranking.iter().zip(&reference.ranking) {
                assert_eq!(a.flow.to_bits(), b.flow.to_bits());
            }
            let after = memo.stats();
            assert_eq!(after.hits, before.hits);
            assert_eq!(after.misses, before.misses);
        }
    }

    #[test]
    fn request_clamps_k_at_query_time() {
        let fig = paper_figure1();
        let request = TkplqRequest::new(50, QuerySet::new(fig.r.to_vec()));
        let q = request.query(TimeInterval::new(Timestamp(0), Timestamp(10)));
        assert_eq!(q.k, fig.r.len());
    }
}
