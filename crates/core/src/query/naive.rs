//! The naive TkPLQ algorithm (§4 intro): compute the indoor flow of each
//! query S-location independently with Algorithm 2 and rank. Object
//! samples and paths are re-processed once per query location — exactly
//! the re-computation the Nested-Loop algorithm removes.

use indoor_iupt::Iupt;
use indoor_model::IndoorSpace;

use crate::config::{FlowConfig, FlowError};
use crate::flow::flow;
use crate::query::{rank_topk, ComputedSet, QueryOutcome, SearchStats, TkPlQuery};

/// Evaluates a TkPLQ by one [`flow`] call per query location.
pub fn naive(
    space: &IndoorSpace,
    iupt: &mut Iupt,
    query: &TkPlQuery,
    cfg: &FlowConfig,
) -> Result<QueryOutcome, FlowError> {
    let mut scores = Vec::with_capacity(query.query_set.len());
    let mut computed = ComputedSet::default();
    let mut objects_total = 0;
    let mut dp_fallback_objects = 0;

    for &q in query.query_set.slocs() {
        let result = flow(space, iupt, q, query.interval, cfg)?;
        objects_total = result.objects_seen;
        dp_fallback_objects = dp_fallback_objects.max(result.dp_fallback_objects);
        for oid in &result.computed_objects {
            computed.mark(*oid);
        }
        scores.push((q, result.flow));
    }

    Ok(QueryOutcome {
        ranking: rank_topk(scores, query.k),
        stats: SearchStats {
            objects_total,
            objects_computed: computed.count(),
            dp_fallback_objects,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_set::QuerySet;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    /// Example 4: with Q = {r1, r6}, the top-1 during [t1, t8] is r6
    /// (Θ(r6) = 1.97 > Θ(r1) = 0.5).
    #[test]
    fn example4_top1_is_r6() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let cfg = FlowConfig {
            use_reduction: false,
            ..FlowConfig::default()
        }
        .with_full_product_normalization();
        let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval());
        let out = naive(&fig.space, &mut iupt, &query, &cfg).unwrap();
        assert_eq!(out.ranking.len(), 1);
        assert_eq!(out.ranking[0].sloc, fig.r[5]);
        assert!((out.ranking[0].flow - 1.97).abs() < 1e-9);
    }

    #[test]
    fn full_query_ranks_all_locations() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let out = naive(&fig.space, &mut iupt, &query, &FlowConfig::default()).unwrap();
        assert_eq!(out.ranking.len(), 6);
        // Flows are non-increasing.
        for w in out.ranking.windows(2) {
            assert!(w[0].flow >= w[1].flow);
        }
        // r6 (the hallway every object crosses) ranks first.
        assert_eq!(out.ranking[0].sloc, fig.r[5]);
        assert_eq!(out.stats.objects_total, 3);
    }
}
