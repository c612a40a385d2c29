//! Exhibition planning — the paper's first motivating scenario: "the
//! top-k regions with highest flows indicate which items are the most
//! popular, and they can be used to make recommendations to future
//! visitors or to optimize the exhibition selections" (§1).
//!
//! Generates a single-floor exhibition hall, simulates visitors with
//! skewed interest across exhibit rooms, derives Wi-Fi-style uncertain
//! positioning data, and asks: which five exhibits drew the most
//! visitors in the last hour? The answer is checked against the simulated
//! ground truth.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example exhibition_planning
//! ```

use indoor_model::PartitionKind;
use indoor_sim::{BuildingGenConfig, MobilityConfig, PositioningConfig, Scenario, World};
use popflow_core::{best_first, FlowConfig, PresenceEngine, QuerySet, TkPlQuery};
use popflow_eval::{kendall_tau, recall};

fn main() {
    // A 60 m × 45 m exhibition hall: 3 bands of 5 exhibit rooms around
    // wide corridors, positioning reference points every ~3.5 m.
    let scenario = Scenario {
        building: BuildingGenConfig {
            floors: 1,
            width: 60.0,
            corridor_width: 4.0,
            room_rows: 3,
            rooms_per_row: 5,
            room_depth: 11.0,
            corridor_segment_len: 20.0,
            ploc_spacing: 3.5,
            room_door_ploc_fraction: 1.0,
            corridor_opening_ploc_fraction: 0.8,
            room_interconnect_fraction: 0.1,
            staircases: false,
            seed: 2024,
        },
        mobility: MobilityConfig {
            num_objects: 150,
            duration_secs: 2 * 3600,
            vmax: 1.0,
            dwell_secs: (3 * 60, 12 * 60), // visitors linger at exhibits
            lifespan_secs: (30 * 60, 2 * 3600),
            destination_skew: 1.1, // strong favorites
            seed: 7,
        },
        positioning: PositioningConfig {
            mu: 4.0,
            ..PositioningConfig::paper_synthetic()
        },
    };
    let world = World::generate(scenario);
    println!("exhibition hall: {}", world.space.stats());
    println!(
        "visitors: {} — IUPT: {}",
        world.trajectories.len(),
        world.iupt.stats()
    );

    // Query set: the exhibit rooms only (corridors are not exhibits).
    let exhibits: Vec<_> = world
        .space
        .building()
        .partitions_of_kind(PartitionKind::Room)
        .flat_map(|p| world.space.slocs_of_partition(p.id).to_vec())
        .collect();
    let interval = world.window(60, 60); // the last hour
    let query = TkPlQuery::new(5, QuerySet::new(exhibits.clone()), interval);

    let cfg = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };
    let outcome = best_first(&world.space, &world.iupt, &query, &cfg).expect("query evaluates");

    println!("\ntop-5 exhibits by estimated visitor flow:");
    for (rank, r) in outcome.ranking.iter().enumerate() {
        println!(
            "  {}. {:<10} flow {:6.1}",
            rank + 1,
            world.space.sloc(r.sloc).name,
            r.flow
        );
    }
    println!(
        "objects pruned before flow computing: {:.1}%",
        outcome.stats.pruning_ratio() * 100.0
    );

    // Score against the simulated ground truth.
    let truth: Vec<_> = world
        .ground_truth_topk(interval, &exhibits, 5)
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let result = outcome.topk_slocs();
    println!("\nground-truth top-5:");
    for (rank, s) in truth.iter().enumerate() {
        println!("  {}. {}", rank + 1, world.space.sloc(*s).name);
    }
    println!(
        "\nKendall τ = {:.3}, recall = {:.2}",
        kendall_tau(&result, &truth),
        recall(&result, &truth)
    );
}
