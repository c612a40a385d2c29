//! Popularity heatmap: renders a generated floor plan as SVG, shaded by
//! each location's indoor flow next to the ground-truth visit counts —
//! the visual the paper's exhibition/mall scenarios would put in front of
//! a facility manager.
//!
//! Writes `heatmap_flow.svg` and `heatmap_truth.svg` to the current
//! directory.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example popularity_heatmap
//! ```

use popflow_core::{nested_loop, FlowConfig, PresenceEngine, TkPlQuery};
use popflow_eval::svg::{render_floor, SvgOptions};
use popflow_eval::Lab;

fn main() {
    let lab = Lab::real_analog();
    let qs = lab.query_fraction(1.0, 2);
    let interval = lab.random_window(60, 7);
    let query = TkPlQuery::new(qs.len(), qs.clone(), interval);

    // Estimated flows from the uncertain data.
    let cfg = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };
    let space = &lab.world.space;
    let outcome = nested_loop(space, lab.iupt(), &query, &cfg).expect("query evaluates");
    let mut flows = vec![0.0; space.slocs().len()];
    for r in &outcome.ranking {
        flows[r.sloc.index()] = r.flow;
    }

    // Ground truth for comparison.
    let truth = lab.world.ground_truth_flows(interval);

    let floor = lab.world.space.building().floors()[0];
    let opts = SvgOptions::default();
    let flow_svg = render_floor(&lab.world.space, floor, Some(&flows), &opts);
    let truth_svg = render_floor(&lab.world.space, floor, Some(&truth), &opts);
    std::fs::write("heatmap_flow.svg", &flow_svg).expect("write heatmap_flow.svg");
    std::fs::write("heatmap_truth.svg", &truth_svg).expect("write heatmap_truth.svg");

    println!(
        "wrote heatmap_flow.svg ({} bytes) and heatmap_truth.svg ({} bytes)",
        flow_svg.len(),
        truth_svg.len()
    );
    println!("\nestimated flow vs ground truth (top 8):");
    let mut ranked: Vec<(usize, f64)> = flows.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (idx, flow) in ranked.into_iter().take(8) {
        let sloc = &lab.world.space.slocs()[idx];
        println!(
            "  {:<10} flow {:6.2}   truth {:4.0}",
            sloc.name, flow, truth[idx]
        );
    }
}
