//! The Top-k Popular Location Query (TkPLQ, Problem 1) and its three
//! search algorithms: Naive, Nested-Loop (Algorithm 3), and Best-First
//! (Algorithm 4).

mod best_first;
pub mod bounds;
pub mod continuous;
mod naive;
mod nested_loop;
pub mod request;

pub use best_first::best_first;
pub use bounds::{LocationBound, ThresholdHeap, ThresholdStep};
pub use continuous::{
    diff_topk, ContinuousEngine, ContinuousUpdate, QueryId, QuerySpec, RecomputeEngine, WindowSpec,
};
pub use naive::naive;
pub use nested_loop::nested_loop;
pub use request::{BatchEngine, Instrumented, TkplqRequest};

use indoor_iupt::{ObjectId, TimeInterval};
use indoor_model::SLocId;

use crate::query_set::QuerySet;

/// A Top-k Popular Location Query: return the `k` S-locations of `Q` with
/// the highest indoor flows during `[ts, te]`.
#[derive(Debug, Clone)]
pub struct TkPlQuery {
    /// How many locations to return.
    pub k: usize,
    /// The candidate S-locations `Q`.
    pub query_set: QuerySet,
    /// The query window `[ts, te]`.
    pub interval: TimeInterval,
}

impl TkPlQuery {
    /// Creates a query; `k` is clamped to `|Q|` (requesting more locations
    /// than exist simply returns all of them ranked).
    pub fn new(k: usize, query_set: QuerySet, interval: TimeInterval) -> Self {
        assert!(k >= 1, "k must be at least 1");
        TkPlQuery {
            k: k.min(query_set.len()).max(1),
            query_set,
            interval,
        }
    }
}

/// One ranked result location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedLocation {
    /// The ranked S-location.
    pub sloc: SLocId,
    /// Its indoor flow over the query window.
    pub flow: f64,
}

/// Work accounting for a TkPLQ evaluation.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Objects with records in the query window (`|O|`).
    pub objects_total: usize,
    /// Objects whose presence the algorithm had to compute (`|Of|`).
    pub objects_computed: usize,
    /// Objects the [`crate::PresenceEngine::Hybrid`] engine evaluated with
    /// the DP after their path set exceeded the budget (0 for the pure
    /// engines).
    pub dp_fallback_objects: usize,
}

impl SearchStats {
    /// The pruning ratio `σ = (|O| − |Of|) / |O|` (§5.1).
    pub fn pruning_ratio(&self) -> f64 {
        if self.objects_total == 0 {
            return 0.0;
        }
        (self.objects_total - self.objects_computed) as f64 / self.objects_total as f64
    }

    /// Records these counters into `registry` under
    /// `batch.<engine>.{evaluations, objects_total, objects_computed,
    /// dp_fallback_objects}` — the shared export path batch and serve
    /// telemetry agree on. Callers of the classic free functions
    /// (`nested_loop`, `best_first`, ...) can route their stats with
    /// one call instead of bespoke plumbing; the
    /// [`Instrumented`] engine wrapper does this automatically.
    pub fn record_to(&self, registry: &popflow_obs::MetricsRegistry, engine: &str) {
        registry
            .counter(&format!("batch.{engine}.evaluations"))
            .inc();
        registry
            .counter(&format!("batch.{engine}.objects_total"))
            .add(self.objects_total as u64);
        registry
            .counter(&format!("batch.{engine}.objects_computed"))
            .add(self.objects_computed as u64);
        registry
            .counter(&format!("batch.{engine}.dp_fallback_objects"))
            .add(self.dp_fallback_objects as u64);
    }
}

/// The outcome of a TkPLQ: the top-k ranking plus work statistics.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Top-k S-locations in descending flow order (ties broken by id).
    pub ranking: Vec<RankedLocation>,
    /// Work accounting for the evaluation.
    pub stats: SearchStats,
}

impl QueryOutcome {
    /// Just the ranked S-location ids.
    pub fn topk_slocs(&self) -> Vec<SLocId> {
        self.ranking.iter().map(|r| r.sloc).collect()
    }
}

/// Ranks `(sloc, flow)` scores and keeps the top `k`, breaking flow ties by
/// ascending S-location id so every algorithm returns the same ranking on
/// tied inputs. Public so external evaluation strategies (notably the
/// `popflow-serve` incremental engine) rank exactly like the built-in
/// searches.
pub fn rank_topk(scores: Vec<(SLocId, f64)>, k: usize) -> Vec<RankedLocation> {
    let mut ranked: Vec<RankedLocation> = scores
        .into_iter()
        .map(|(sloc, flow)| RankedLocation { sloc, flow })
        .collect();
    ranked.sort_by(|a, b| b.flow.total_cmp(&a.flow).then(a.sloc.cmp(&b.sloc)));
    ranked.truncate(k);
    ranked
}

/// Tracks the distinct objects whose presence has been computed.
#[derive(Debug, Default)]
pub(crate) struct ComputedSet {
    seen: std::collections::HashSet<ObjectId>,
}

impl ComputedSet {
    pub fn mark(&mut self, oid: ObjectId) {
        self.seen.insert(oid);
    }

    pub fn count(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::Timestamp;

    fn s(i: u32) -> SLocId {
        SLocId(i)
    }

    #[test]
    fn rank_topk_orders_and_breaks_ties() {
        let ranked = rank_topk(vec![(s(3), 1.0), (s(1), 2.0), (s(2), 1.0), (s(0), 0.5)], 3);
        let ids: Vec<SLocId> = ranked.iter().map(|r| r.sloc).collect();
        assert_eq!(ids, vec![s(1), s(2), s(3)]);
    }

    #[test]
    fn query_clamps_k() {
        let q = TkPlQuery::new(
            10,
            QuerySet::new(vec![s(0), s(1)]),
            TimeInterval::new(Timestamp(0), Timestamp(10)),
        );
        assert_eq!(q.k, 2);
    }

    #[test]
    fn pruning_ratio_edge_cases() {
        let st = SearchStats {
            objects_total: 0,
            objects_computed: 0,
            dp_fallback_objects: 0,
        };
        assert_eq!(st.pruning_ratio(), 0.0);
        let st = SearchStats {
            objects_total: 10,
            objects_computed: 4,
            dp_fallback_objects: 0,
        };
        assert!((st.pruning_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn computed_set_deduplicates() {
        let mut c = ComputedSet::default();
        c.mark(ObjectId(1));
        c.mark(ObjectId(1));
        c.mark(ObjectId(2));
        assert_eq!(c.count(), 2);
    }
}
