//! The three presence engines (path enumeration, transition DP, hybrid)
//! must produce identical flows and rankings on generated data, under
//! both normalizations and with reduction on or off — the cross-checks
//! that make the DP a safe drop-in for the paper's enumeration.

use popflow_core::{nested_loop, FlowConfig, Normalization, PresenceEngine, TkPlQuery};
use popflow_eval::Lab;

fn run(lab: &Lab, query: &TkPlQuery, cfg: &FlowConfig) -> Vec<(u32, f64)> {
    nested_loop(&lab.world.space, lab.iupt(), query, cfg)
        .expect("evaluates")
        .ranking
        .iter()
        .map(|r| (r.sloc.0, r.flow))
        .collect()
}

#[test]
fn engines_agree_on_generated_worlds() {
    for seed in [11u64, 12] {
        let mut lab = Lab::new(indoor_sim::Scenario::tiny().with_seed(seed));
        // Pure (no-reduction) enumeration is exponential in the window, so
        // this comparison caps the sample sets at 2 and uses a one-minute
        // window; the hybrid/DP pair is additionally exercised on the full
        // window below.
        lab.cap_mss(2);
        let query = TkPlQuery::new(6, lab.query_fraction(1.0, seed), lab.random_window(1, seed));
        for use_reduction in [true, false] {
            for normalization in [Normalization::ValidPaths, Normalization::FullProduct] {
                let base = FlowConfig {
                    use_reduction,
                    normalization,
                    // Generous budget so pure enumeration completes on the
                    // tiny world.
                    path_budget: 50_000_000,
                    ..FlowConfig::default()
                };
                let enumeration = run(
                    &lab,
                    &query,
                    &FlowConfig {
                        engine: PresenceEngine::PathEnumeration,
                        ..base
                    },
                );
                let dp = run(
                    &lab,
                    &query,
                    &FlowConfig {
                        engine: PresenceEngine::TransitionDp,
                        ..base
                    },
                );
                let hybrid = run(
                    &lab,
                    &query,
                    &FlowConfig {
                        engine: PresenceEngine::Hybrid,
                        ..base
                    },
                );
                for ((a, b), c) in enumeration.iter().zip(dp.iter()).zip(hybrid.iter()) {
                    assert_eq!(a.0, b.0, "ranking ids (enum vs dp)");
                    assert_eq!(a.0, c.0, "ranking ids (enum vs hybrid)");
                    assert!(
                        (a.1 - b.1).abs() < 1e-9,
                        "flow enum {} vs dp {} (seed {seed}, red {use_reduction}, {normalization:?})",
                        a.1,
                        b.1
                    );
                    assert!((a.1 - c.1).abs() < 1e-9, "flow enum vs hybrid");
                }
            }
        }
    }
}

#[test]
fn hybrid_and_dp_agree_on_full_windows() {
    let lab = Lab::new(indoor_sim::Scenario::tiny().with_seed(5));
    let query = TkPlQuery::new(6, lab.query_fraction(1.0, 6), lab.world.full_interval());
    let base = FlowConfig::default();
    let hybrid = run(
        &lab,
        &query,
        &FlowConfig {
            engine: PresenceEngine::Hybrid,
            ..base
        },
    );
    let dp = run(
        &lab,
        &query,
        &FlowConfig {
            engine: PresenceEngine::TransitionDp,
            ..base
        },
    );
    for (a, b) in hybrid.iter().zip(dp.iter()) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-9, "{} vs {}", a.1, b.1);
    }
}

#[test]
fn hybrid_fallback_is_exact() {
    // Force the hybrid engine into its DP fallback with a tiny budget and
    // verify the flows still match the pure DP.
    let lab = Lab::new(indoor_sim::Scenario::tiny().with_seed(21));
    let query = TkPlQuery::new(6, lab.query_fraction(1.0, 3), lab.world.full_interval());
    let hybrid_starved = run(
        &lab,
        &query,
        &FlowConfig {
            engine: PresenceEngine::Hybrid,
            path_budget: 8, // everything falls back
            ..FlowConfig::default()
        },
    );
    let dp = run(
        &lab,
        &query,
        &FlowConfig {
            engine: PresenceEngine::TransitionDp,
            ..FlowConfig::default()
        },
    );
    assert_eq!(hybrid_starved, dp);
}
