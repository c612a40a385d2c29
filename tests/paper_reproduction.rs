//! The paper's worked examples, verified end to end through the public
//! API of every crate: Figure 1 topology, Figure 3 matrix entries,
//! Figure 4 reduction trace, Examples 2–4 presence/flow numbers, and the
//! cross-method agreement claim of §5.1.

use indoor_iupt::fixtures::{paper_table2, O1, O2, O3};
use indoor_iupt::{ObjectId, SampleSet, TimeInterval, Timestamp};
use indoor_model::fixtures::paper_figure1;
use popflow_core::{
    best_first, flow, naive, nested_loop, presence::object_presence, reduction, FlowConfig,
    QuerySet, TkPlQuery,
};

fn interval() -> TimeInterval {
    TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
}

fn worked_example_cfg() -> FlowConfig {
    // Examples 2–4 use raw sequences and the full-product normalization
    // (DESIGN.md §2.2).
    FlowConfig::default()
        .without_reduction()
        .with_full_product_normalization()
}

fn sets_of(oid: ObjectId) -> Vec<SampleSet> {
    let iupt = paper_table2();
    iupt.sequence_of(oid, interval())
        .records
        .iter()
        .map(|r| r.samples.clone())
        .collect()
}

#[test]
fn figure1_topology() {
    let fig = paper_figure1();
    let st = fig.space.stats();
    assert_eq!((st.partitions, st.plocs, st.slocs, st.cells), (6, 9, 6, 5));
    // p4 ≡ p9 and p6 ≡ p8 (§3.1.2).
    let m = fig.space.matrix();
    assert!(m.equivalent(fig.p[3], fig.p[8]));
    assert!(m.equivalent(fig.p[5], fig.p[7]));
    // MIL[p3, p4] = ∅; MIL[p4, p9] = {c1, c6} (Figure 3).
    assert!(m.cells_between(fig.p[2], fig.p[3]).is_empty());
    assert_eq!(m.cells_between(fig.p[3], fig.p[8]).len(), 2);
}

#[test]
fn example2_and_3_presences() {
    let fig = paper_figure1();
    let cfg = worked_example_cfg();
    let cases = [
        (O3, fig.r[5], 0.12), // Example 2
        (O1, fig.r[0], 0.5),  // Example 3
        (O1, fig.r[5], 1.0),
        (O2, fig.r[0], 0.0),
        (O2, fig.r[5], 0.85),
        (O3, fig.r[0], 0.0),
    ];
    for (oid, q, want) in cases {
        let phi = object_presence(&fig.space, &sets_of(oid), q, &cfg).unwrap();
        assert!(
            (phi - want).abs() < 1e-9,
            "Φ({q}, {oid}) = {phi}, want {want}"
        );
    }
}

#[test]
fn example3_flows() {
    let fig = paper_figure1();
    let iupt = paper_table2();
    let cfg = worked_example_cfg();
    let r6 = flow(&fig.space, &iupt, fig.r[5], interval(), &cfg).unwrap();
    assert!((r6.flow - 1.97).abs() < 1e-9, "Θ(r6) = {}", r6.flow);
    let r1 = flow(&fig.space, &iupt, fig.r[0], interval(), &cfg).unwrap();
    assert!((r1.flow - 0.5).abs() < 1e-9, "Θ(r1) = {}", r1.flow);
}

#[test]
fn example4_top1_query_all_algorithms() {
    let fig = paper_figure1();
    let cfg = worked_example_cfg();
    let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval());
    type Algo = fn(
        &indoor_model::IndoorSpace,
        &indoor_iupt::Iupt,
        &TkPlQuery,
        &FlowConfig,
    ) -> Result<popflow_core::QueryOutcome, popflow_core::FlowError>;
    let algos: [(&str, Algo); 3] = [
        ("naive", naive),
        ("nested_loop", nested_loop),
        ("best_first", best_first),
    ];
    for (name, f) in algos {
        let iupt = paper_table2();
        let out = f(&fig.space, &iupt, &query, &cfg).unwrap();
        assert_eq!(out.ranking[0].sloc, fig.r[5], "{name} returns r6");
        assert!((out.ranking[0].flow - 1.97).abs() < 1e-9, "{name}");
    }
}

#[test]
fn figure4_reduction_trace() {
    let fig = paper_figure1();
    let sets = sets_of(O2);
    let reduced = reduction::scan_sequence(&fig.space, sets.iter(), true).unwrap();
    // 4 raw sets → 3 after inter-merge; |P| bound 36 → 8.
    assert_eq!(reduced.sets.len(), 3);
    assert_eq!(reduced.max_paths(), 8);
    // Merged X̄3 probabilities: p5 ↦ 0.25, p6 ↦ 0.75.
    let merged = &reduced.sets[2];
    assert!((merged.prob_of(fig.p[4]) - 0.25).abs() < 1e-12);
    assert!((merged.prob_of(fig.p[5]) - 0.75).abs() < 1e-12);
}

#[test]
fn psl_pruning_matches_paper_narrative() {
    // §3.2: o3's PSLs are {r3, r4, r6}; a query on {r1, r2, r5} prunes it.
    let fig = paper_figure1();
    let sets = sets_of(O3);
    let q = QuerySet::new(vec![fig.r[0], fig.r[1], fig.r[4]]);
    assert!(
        reduction::reduce_for_query(&fig.space, sets.iter(), &q, true)
            .unwrap()
            .is_none()
    );
}
