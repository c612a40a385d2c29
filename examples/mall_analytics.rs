//! Shopping-mall analytics — the paper's second motivating scenario:
//! "knowing the most popular semantic locations is useful for the mall
//! management, e.g., to decide the space rental prices" (§1).
//!
//! Generates a three-floor mall, simulates shoppers, and compares the
//! uncertainty-aware Best-First search against the simple-counting
//! baseline on the same question: which shops were the most visited this
//! afternoon? It also demonstrates querying a *subset* of shops (e.g. one
//! anchor tenant's units) and the object-pruning that query locality buys.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example mall_analytics
//! ```

use indoor_model::PartitionKind;
use indoor_sim::{BuildingGenConfig, MobilityConfig, PositioningConfig, Scenario, World};
use popflow_core::{
    baselines::simple_counting, best_first, FlowConfig, PresenceEngine, QuerySet, TkPlQuery,
};
use popflow_eval::{kendall_tau, recall};

fn main() {
    let scenario = Scenario {
        building: BuildingGenConfig {
            floors: 3,
            width: 80.0,
            corridor_width: 4.0,
            room_rows: 4,
            rooms_per_row: 6,
            room_depth: 10.0,
            corridor_segment_len: 24.0,
            ploc_spacing: 3.6,
            // Every shop entrance carries a reference point: a shop whose
            // door has no partitioning P-location merges into the corridor
            // *cell* and inherits all of its through-traffic as flow.
            room_door_ploc_fraction: 1.0,
            corridor_opening_ploc_fraction: 1.0,
            room_interconnect_fraction: 0.12,
            staircases: true,
            seed: 99,
        },
        mobility: MobilityConfig {
            num_objects: 180,
            duration_secs: 3 * 3600,
            vmax: 1.0,
            dwell_secs: (4 * 60, 25 * 60),
            lifespan_secs: (45 * 60, 3 * 3600),
            destination_skew: 1.0,
            seed: 41,
        },
        positioning: PositioningConfig {
            // A denser commercial deployment than the paper's synthetic
            // office building: beacons every ~3.6 m with μ ≈ 3 m error.
            mu: 3.0,
            ..PositioningConfig::paper_synthetic()
        },
    };
    let world = World::generate(scenario);
    println!("mall: {}", world.space.stats());
    println!(
        "shoppers: {} — IUPT: {}",
        world.trajectories.len(),
        world.iupt.stats()
    );

    let shops: Vec<_> = world
        .space
        .building()
        .partitions_of_kind(PartitionKind::Room)
        .flat_map(|p| world.space.slocs_of_partition(p.id).to_vec())
        .collect();
    // A 30-minute analysis window, the paper's default Δt: pass
    // probabilities (Eq. 2) accumulate over a window, so very long windows
    // on dense traffic saturate toward "everyone may have passed
    // everywhere" (the paper's Fig. 21 shows the same τ decline with Δt).
    let interval = world.window(90, 30);
    let k = 10;

    let cfg = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };

    // Rental-pricing view: rank a candidate portfolio. Like the paper's
    // synthetic queries (|Q| = 4–12 % of all S-locations), the candidate
    // set is a sample of shops rather than every unit: flow measures
    // *passing* traffic (§1: "the number of people passing by a particular
    // indoor region"), and with every unit as a candidate, a popular
    // shop's same-corridor neighbors — which genuinely see the footfall —
    // would crowd the ranking.
    let candidates: Vec<_> = shops.iter().copied().step_by(3).collect();
    let all_query = TkPlQuery::new(k, QuerySet::new(candidates.clone()), interval);
    let bf = best_first(&world.space, &world.iupt, &all_query, &cfg).expect("BF evaluates");
    let sc = simple_counting(&world.space, &world.iupt, &all_query);

    let truth: Vec<_> = world
        .ground_truth_topk(interval, &candidates, k)
        .into_iter()
        .map(|(s, _)| s)
        .collect();

    println!(
        "\n{:<4} {:<14} {:<14} {:<14}",
        "rank", "BF", "SC", "ground truth"
    );
    for i in 0..k {
        println!(
            "{:<4} {:<14} {:<14} {:<14}",
            i + 1,
            bf.ranking
                .get(i)
                .map(|r| world.space.sloc(r.sloc).name.clone())
                .unwrap_or_default(),
            sc.ranking
                .get(i)
                .map(|r| world.space.sloc(r.sloc).name.clone())
                .unwrap_or_default(),
            truth
                .get(i)
                .map(|s| world.space.sloc(*s).name.clone())
                .unwrap_or_default(),
        );
    }
    let bf_ids = bf.topk_slocs();
    let sc_ids = sc.topk_slocs();
    println!(
        "\nBF: τ = {:.3}, recall = {:.2}   |   SC: τ = {:.3}, recall = {:.2}",
        kendall_tau(&bf_ids, &truth),
        recall(&bf_ids, &truth),
        kendall_tau(&sc_ids, &truth),
        recall(&sc_ids, &truth),
    );

    // Anchor-tenant view: a small query set exercises PSL + R-tree
    // pruning — most shoppers never come near these six units.
    let anchor: Vec<_> = shops.iter().copied().take(6).collect();
    let anchor_query = TkPlQuery::new(3, QuerySet::new(anchor), interval);
    let bf_anchor =
        best_first(&world.space, &world.iupt, &anchor_query, &cfg).expect("BF evaluates");
    println!(
        "\nanchor-tenant query (|Q| = 6, k = 3): top unit {} — {:.1}% of shoppers pruned",
        world.space.sloc(bf_anchor.ranking[0].sloc).name,
        bf_anchor.stats.pruning_ratio() * 100.0
    );
}
