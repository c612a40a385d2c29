//! The Top-k Popular Location Query (TkPLQ, Problem 1) and its three
//! search algorithms: Naive, Nested-Loop (Algorithm 3), and Best-First
//! (Algorithm 4).

mod best_first;
pub mod bounds;
pub mod continuous;
mod naive;
mod nested_loop;

pub use best_first::best_first;
pub use bounds::{LocationBound, ThresholdHeap, ThresholdStep};
pub use continuous::{
    diff_topk, ContinuousUpdate, QueryId, QuerySpec, RecomputeEngine, WindowSpec,
};
pub use naive::naive;
pub use nested_loop::nested_loop;

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
///
/// From the serving engine (`popflow-serve`) the statistics describe the
/// shared evaluation of a window over the *union* of the registered
/// queries' locations — what a batch Nested-Loop search of that window
/// over the union would report — and every query on the window gets the same ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    /// The three searches return the same ranking with bit-identical
    /// flows on one query, whether or not their per-object work is
    /// forked.
    #[test]
    fn all_engines_agree_on_one_request() {
        use crate::config::FlowConfig;
        use indoor_iupt::fixtures::paper_table2;
        use indoor_model::fixtures::paper_figure1;

        type Search = fn(
            &indoor_model::IndoorSpace,
            &indoor_iupt::Iupt,
            &TkPlQuery,
            &FlowConfig,
        ) -> Result<QueryOutcome, crate::config::FlowError>;
        let fig = paper_figure1();
        let iupt = paper_table2();
        let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let flow = FlowConfig::default().with_full_product_normalization();
        let query = TkPlQuery::new(3, QuerySet::new(fig.r.to_vec()), interval);
        let searches: [(&str, Search); 3] = [
            ("naive", naive),
            ("nested-loop", nested_loop),
            ("best-first", best_first),
        ];
        let reference = nested_loop(&fig.space, &iupt, &query, &flow).unwrap();
        assert_eq!(reference.ranking[0].sloc, fig.r[5]); // Example 4: r6 tops
        for threads in [1, 4] {
            let forked = FlowConfig {
                exec: popflow_exec::ExecConfig::with_threads(threads),
                ..flow
            };
            for (name, search) in searches {
                let out = search(&fig.space, &iupt, &query, &forked).unwrap();
                assert_eq!(
                    out.topk_slocs(),
                    reference.topk_slocs(),
                    "engine {name} threads {threads}"
                );
                for (a, b) in out.ranking.iter().zip(&reference.ranking) {
                    assert_eq!(
                        a.flow.to_bits(),
                        b.flow.to_bits(),
                        "engine {name} threads {threads}"
                    );
                }
            }
        }
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
