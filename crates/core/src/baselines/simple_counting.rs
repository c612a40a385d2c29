//! The Simple Counting baselines SC and SC-ρ (§5.1).
//!
//! SC keeps, per positioning record, only the (first) sample with the
//! highest probability; SC-ρ keeps every sample with probability ≥ ρ. A
//! kept sample increments the flow of every query S-location containing
//! its P-location — and an object is counted at most once per S-location
//! over the whole window, "to be consistent with our indoor flow
//! definition".

use std::collections::HashSet;

use indoor_iupt::{Iupt, ObjectId};
use indoor_model::{IndoorSpace, SLocId};

use crate::query::{rank_topk, QueryOutcome, SearchStats, TkPlQuery};

/// The SC baseline: argmax sample per record.
pub fn simple_counting(space: &IndoorSpace, iupt: &Iupt, query: &TkPlQuery) -> QueryOutcome {
    counting_impl(space, iupt, query, None)
}

/// The SC-ρ baseline: all samples with probability at least `rho`.
pub fn simple_counting_rho(
    space: &IndoorSpace,
    iupt: &Iupt,
    query: &TkPlQuery,
    rho: f64,
) -> QueryOutcome {
    counting_impl(space, iupt, query, Some(rho))
}

fn counting_impl(
    space: &IndoorSpace,
    iupt: &Iupt,
    query: &TkPlQuery,
    rho: Option<f64>,
) -> QueryOutcome {
    // (object, S-location) pairs already counted.
    let mut counted: HashSet<(ObjectId, SLocId)> = HashSet::new();
    let mut scores: Vec<(SLocId, f64)> =
        query.query_set.slocs().iter().map(|&s| (s, 0.0)).collect();
    let index_of = |s: SLocId| query.query_set.index_of(s);

    let sequences = iupt.sequences_in(query.interval);
    let objects_total = sequences.len();
    let mut touched: HashSet<ObjectId> = HashSet::new();

    for seq in &sequences {
        for record in &seq.records {
            match rho {
                None => {
                    let s = record.samples.argmax();
                    count_sample(
                        space,
                        s.loc,
                        seq.oid,
                        &mut counted,
                        &mut scores,
                        &index_of,
                        &mut touched,
                    );
                }
                Some(rho) => {
                    for s in record.samples.above_threshold(rho) {
                        count_sample(
                            space,
                            s.loc,
                            seq.oid,
                            &mut counted,
                            &mut scores,
                            &index_of,
                            &mut touched,
                        );
                    }
                }
            }
        }
    }

    QueryOutcome {
        ranking: rank_topk(scores, query.k),
        stats: SearchStats {
            objects_total,
            // SC has no pruning concept; every record is inspected.
            objects_computed: objects_total,
            dp_fallback_objects: 0,
        },
    }
}

fn count_sample(
    space: &IndoorSpace,
    loc: indoor_model::PLocId,
    oid: ObjectId,
    counted: &mut HashSet<(ObjectId, SLocId)>,
    scores: &mut [(SLocId, f64)],
    index_of: &impl Fn(SLocId) -> Option<usize>,
    touched: &mut HashSet<ObjectId>,
) {
    // A P-location may be contained in multiple S-locations (e.g. a door
    // point on a shared wall); SC deliberately counts all of them.
    for &sloc in space.slocs_of_ploc(loc) {
        if let Some(i) = index_of(sloc) {
            if counted.insert((oid, sloc)) {
                scores[i].1 += 1.0;
                touched.insert(oid);
            }
        }
    }
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

    #[test]
    fn sc_counts_argmax_samples_once_per_location() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let out = simple_counting(&fig.space, &iupt, &query);
        assert_eq!(out.ranking.len(), 6);
        // Flows are whole numbers (counts).
        for r in &out.ranking {
            assert!((r.flow - r.flow.round()).abs() < 1e-12);
        }
        // r6 accumulates counts from the hallway door/presence P-locations
        // (p4, p9, p8 all count toward r6 for o1 alone).
        let r6 = out.ranking.iter().find(|r| r.sloc == fig.r[5]).unwrap();
        assert!(r6.flow >= 2.0, "r6 count {}", r6.flow);
    }

    #[test]
    fn sc_rho_includes_more_samples_than_sc() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let i1 = paper_table2();
        let sc = simple_counting(&fig.space, &i1, &query);
        let i2 = paper_table2();
        let sc_rho = simple_counting_rho(&fig.space, &i2, &query, 0.25);
        let total_sc: f64 = sc.ranking.iter().map(|r| r.flow).sum();
        let total_rho: f64 = sc_rho.ranking.iter().map(|r| r.flow).sum();
        assert!(total_rho >= total_sc, "{total_rho} < {total_sc}");
    }

    #[test]
    fn object_counted_once_per_sloc() {
        // o1 visits r6-related P-locations at t1, t3, t4 — but contributes
        // at most 1 to r6.
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[5]]), interval());
        let out = simple_counting(&fig.space, &iupt, &query);
        assert!(out.ranking[0].flow <= 3.0); // at most one per object
    }

    #[test]
    fn rho_one_counts_only_certain_samples() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let out = simple_counting_rho(&fig.space, &iupt, &query, 1.0);
        // Only the certain records (o1's three, o3's last) qualify.
        let total: f64 = out.ranking.iter().map(|r| r.flow).sum();
        assert!(total > 0.0);
        assert!(total <= 8.0);
    }
}
