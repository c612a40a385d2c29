//! Workspace smoke test: the paper's running example, end to end.
//!
//! Builds the Figure 1 floor plan, loads the Table 2 IUPT, computes the
//! Example 3 flows, and answers the Example 4 top-k query with
//! `best_first` — one assertion-backed pass over the fixtures → flow →
//! query pipeline so CI exercises the worked example itself, not just
//! per-crate unit tests.

use indoor_iupt::fixtures::paper_table2;
use indoor_iupt::{TimeInterval, Timestamp};
use indoor_model::fixtures::paper_figure1;
use popflow_core::{best_first, flow, nested_loop, ExecConfig, FlowConfig, QuerySet, TkPlQuery};

/// The worked example's normalization: no data reduction, full-product
/// denominator (the paper's Examples 2–4 compute with these).
fn worked_example_config() -> FlowConfig {
    FlowConfig::default()
        .without_reduction()
        .with_full_product_normalization()
}

#[test]
fn paper_running_example_end_to_end() {
    let fig = paper_figure1();
    let space = &fig.space;
    let mut iupt = paper_table2();
    let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
    let cfg = worked_example_config();

    // Example 3: Θ(t1..t8, r6) = 1.97 and Θ(t1..t8, r1) = 0.5.
    let theta_r6 = flow(space, &mut iupt, fig.r[5], interval, &cfg)
        .expect("flow over r6 computes")
        .flow;
    let theta_r1 = flow(space, &mut iupt, fig.r[0], interval, &cfg)
        .expect("flow over r1 computes")
        .flow;
    assert!(
        (theta_r6 - 1.97).abs() < 0.01,
        "Θ(r6) should be ≈1.97, got {theta_r6}"
    );
    assert!(
        (theta_r1 - 0.5).abs() < 0.01,
        "Θ(r1) should be ≈0.5, got {theta_r1}"
    );

    // Example 4: top-1 among Q = {r1, r6} is r6, with the same flow
    // value the direct computation produced.
    let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval);
    let outcome = best_first(space, &mut iupt, &query, &cfg).expect("query evaluates");
    assert_eq!(outcome.ranking.len(), 1, "top-1 query returns one location");
    let top = &outcome.ranking[0];
    assert_eq!(top.sloc, fig.r[5], "the paper's Example 4 returns r6");
    assert!(
        (top.flow - theta_r6).abs() < 1e-9,
        "best_first reports the same flow as the direct computation"
    );
}

/// The exec-layer smoke gate: on the Figure 1 / Table 2 fixture, both
/// drivers return at 4 threads exactly — bit for bit — what they return
/// at 1 thread, on both the worked-example and the default
/// configuration.
#[test]
fn four_thread_parallel_drivers_match_serial_on_paper_fixture() {
    let fig = paper_figure1();
    let space = &fig.space;
    let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
    for base in [worked_example_config(), FlowConfig::default()] {
        let par_cfg = FlowConfig {
            exec: ExecConfig::with_threads(4),
            ..base
        };
        let query = TkPlQuery::new(3, QuerySet::new(fig.r.to_vec()), interval);

        let mut iupt = paper_table2();
        let nl = nested_loop(space, &mut iupt, &query, &base).expect("nested_loop@1t");
        let nl_par = nested_loop(space, &mut iupt, &query, &par_cfg).expect("nested_loop@4t");
        let bf = best_first(space, &mut iupt, &query, &base).expect("best_first@1t");
        let bf_par = best_first(space, &mut iupt, &query, &par_cfg).expect("best_first@4t");
        for (name, serial, par) in [("nested_loop", nl, nl_par), ("best_first", bf, bf_par)] {
            assert_eq!(serial.topk_slocs(), par.topk_slocs(), "{name}");
            for (a, b) in serial.ranking.iter().zip(par.ranking.iter()) {
                assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "{name} flow bits");
            }
        }
    }
}

#[test]
fn paper_running_example_top2_ranks_both() {
    let fig = paper_figure1();
    let space = &fig.space;
    let mut iupt = paper_table2();
    let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
    let cfg = worked_example_config();

    let query = TkPlQuery::new(2, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval);
    let outcome = best_first(space, &mut iupt, &query, &cfg).expect("query evaluates");
    assert_eq!(outcome.ranking.len(), 2);
    assert_eq!(outcome.ranking[0].sloc, fig.r[5], "r6 first");
    assert_eq!(outcome.ranking[1].sloc, fig.r[0], "r1 second");
    assert!(outcome.ranking[0].flow >= outcome.ranking[1].flow);
}
