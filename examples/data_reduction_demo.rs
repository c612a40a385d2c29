//! Data-reduction walkthrough (paper §3.2, Figure 4): intra-merge folds
//! samples at equivalent P-locations, inter-merge collapses stationary
//! runs, and PSL pruning rules out objects irrelevant to the query set.
//!
//! The first half replays the paper's own Figure 4 trace on object o2;
//! the second half quantifies the reduction on simulated Wi-Fi data,
//! reproducing the spirit of Table 4's reduction-on/off comparison.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example data_reduction_demo
//! ```

use indoor_iupt::fixtures::{paper_table2, O2};
use indoor_iupt::{TimeInterval, Timestamp};
use indoor_model::fixtures::paper_figure1;
use popflow_core::{reduction, QuerySet};
use popflow_eval::Lab;

fn main() {
    // ---- Part 1: the paper's Figure 4 trace.
    let fig = paper_figure1();
    let iupt = paper_table2();
    let interval = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
    let sets: Vec<_> = iupt
        .sequence_of(O2, interval)
        .records
        .iter()
        .map(|r| r.samples.clone())
        .collect();

    println!("o2's raw positioning sequence (|P| bound = 36):");
    for (i, s) in sets.iter().enumerate() {
        println!("  X{} = {s}", i + 1);
    }

    let intra: Vec<_> = sets
        .iter()
        .map(|s| reduction::intra_merge(&fig.space, s).unwrap())
        .collect();
    println!("\nafter intra-merge (p8 folds into p6 ≡ p8; |P| bound = 16):");
    for (i, s) in intra.iter().enumerate() {
        println!("  X{} = {s}", i + 1);
    }

    let reduced = reduction::scan_sequence(&fig.space, sets.iter(), true).unwrap();
    println!("\nafter inter-merge (X3, X4 share support {{p5, p6}}; |P| bound = 8):");
    for (i, s) in reduced.sets.iter().enumerate() {
        println!("  X{} = {s}", i + 1);
    }
    assert_eq!(reduced.max_paths(), 8, "the paper's Figure 4 ends at 8");

    let psl_names: Vec<_> = reduced
        .psls
        .iter()
        .map(|&s| fig.space.sloc(s).name.clone())
        .collect();
    println!("\no2's possible semantic locations: {psl_names:?}");
    let q = QuerySet::new(vec![fig.r[2]]); // {r3}
    let pruned = reduction::reduce_for_query(&fig.space, sets.iter(), &q, true).unwrap();
    println!("query {{r3}} prunes o2 entirely: {}", pruned.is_none());

    // ---- Part 2: reduction on simulated Wi-Fi data.
    let lab = Lab::real_analog();
    let window = lab.random_window(30, 3);
    let space = &lab.world.space;
    let mut raw_sets = 0usize;
    let mut reduced_sets = 0usize;
    let mut raw_bound: f64 = 0.0;
    let mut reduced_bound: f64 = 0.0;
    for seq in lab.iupt().sequences_in(window) {
        let sets: Vec<_> = seq.records.iter().map(|r| r.samples.clone()).collect();
        let red = reduction::scan_sequence(space, sets.iter(), true).unwrap();
        raw_sets += sets.len();
        reduced_sets += red.sets.len();
        raw_bound += (sets
            .iter()
            .map(|s| s.len() as f64)
            .map(f64::ln)
            .sum::<f64>())
        .exp()
        .log10();
        reduced_bound += (red.max_paths() as f64).log10();
    }
    println!(
        "\nsimulated 30-minute window: {} raw sample sets → {} after reduction ({:.1}× fewer)",
        raw_sets,
        reduced_sets,
        raw_sets as f64 / reduced_sets.max(1) as f64
    );
    println!(
        "mean per-object path-count bound: 10^{:.1} raw → 10^{:.1} reduced",
        raw_bound / 35.0,
        reduced_bound / 35.0
    );
}
