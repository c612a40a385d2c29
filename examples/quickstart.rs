//! Quickstart: the paper's running example end to end.
//!
//! Builds the Figure 1 floor plan, loads the Table 2 uncertain positioning
//! data, computes indoor flows (reproducing Examples 2–4), and answers the
//! top-1 popular location query.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example quickstart
//! ```

use indoor_iupt::fixtures::paper_table2;
use indoor_iupt::{TimeInterval, Timestamp};
use indoor_model::fixtures::paper_figure1;
use popflow_core::{best_first, flow, FlowConfig, QuerySet, TkPlQuery};

fn main() {
    // The Figure 1 floor plan: rooms r1..r5, hallway r6, P-locations
    // p1..p9, cells derived automatically (c1 = {r1, r2}).
    let fig = paper_figure1();
    let space = &fig.space;
    println!("indoor space: {}", space.stats());
    println!(
        "equivalent P-locations: p4 ≡ p9? {}   p6 ≡ p8? {}",
        space.matrix().equivalent(fig.p[3], fig.p[8]),
        space.matrix().equivalent(fig.p[5], fig.p[7]),
    );

    // The Table 2 IUPT: objects o1, o2, o3 reporting probabilistic sample
    // sets between t1 and t8.
    let iupt = paper_table2();
    println!("\nIUPT: {}", iupt.stats());

    // Example 3: indoor flows over [t1, t8] under the worked-example
    // (full-product) normalization — Θ(r6) = 1.97, Θ(r1) = 0.5.
    let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
    let cfg = FlowConfig::default()
        .without_reduction()
        .with_full_product_normalization();
    for (name, q) in [("r1", fig.r[0]), ("r6", fig.r[5])] {
        let result = flow(space, &iupt, q, interval, &cfg).expect("flow computes");
        println!("Θ(t1..t8, {name}) = {:.2}", result.flow);
    }

    // Example 4: the top-1 popular location among Q = {r1, r6} is r6.
    let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval);
    let outcome = best_first(space, &iupt, &query, &cfg).expect("query evaluates");
    let top = &outcome.ranking[0];
    println!(
        "\ntop-1 popular location: {} (flow {:.2})",
        space.sloc(top.sloc).name,
        top.flow
    );
    assert_eq!(top.sloc, fig.r[5], "the paper's Example 4 returns r6");
}
