//! Cross-crate integration: generate a world, derive uncertain positioning
//! data, answer TkPLQs with every method, and validate the statistics.

use popflow_core::{FlowConfig, PresenceEngine, TkPlQuery};
use popflow_eval::{Lab, Method};

fn tiny_lab() -> Lab {
    Lab::new(indoor_sim::Scenario::tiny())
}

#[test]
fn every_method_answers_on_a_generated_world() {
    let mut lab = tiny_lab();
    let query = TkPlQuery::new(3, lab.query_fraction(1.0, 1), lab.world.full_interval());
    for method in [
        Method::Bf,
        Method::Nl,
        Method::Naive,
        Method::BfOrg,
        Method::NlOrg,
        Method::NaiveOrg,
        Method::Sc,
        Method::ScRho(0.2),
        Method::Mc(30),
        Method::Scc,
        Method::Ur,
    ] {
        let scored = lab.evaluate(method, &query);
        assert_eq!(
            scored.run.outcome.ranking.len(),
            3,
            "{} must return exactly k results",
            method.name()
        );
        for r in &scored.run.outcome.ranking {
            assert!(r.flow.is_finite() && r.flow >= 0.0, "{}", method.name());
        }
        assert!((-1.0..=1.0).contains(&scored.tau));
        assert!((0.0..=1.0).contains(&scored.recall));
        let st = &scored.run.outcome.stats;
        assert!(st.objects_computed <= st.objects_total);
    }
}

#[test]
fn exact_algorithms_agree_on_generated_data() {
    let mut lab = tiny_lab();
    let query = TkPlQuery::new(5, lab.query_fraction(1.0, 2), lab.world.full_interval());
    let bf = lab.evaluate(Method::Bf, &query);
    let nl = lab.evaluate(Method::Nl, &query);
    let nv = lab.evaluate(Method::Naive, &query);
    // Same flows at every rank (ties may permute ids; flows must match).
    for (a, b) in nl
        .run
        .outcome
        .ranking
        .iter()
        .zip(nv.run.outcome.ranking.iter())
    {
        assert!((a.flow - b.flow).abs() < 1e-9, "NL vs Naive");
    }
    for (a, b) in bf
        .run
        .outcome
        .ranking
        .iter()
        .zip(nl.run.outcome.ranking.iter())
    {
        assert!((a.flow - b.flow).abs() < 1e-9, "BF vs NL");
    }
    // And BF computes no more objects than NL.
    assert!(bf.run.outcome.stats.objects_computed <= nl.run.outcome.stats.objects_computed);
}

#[test]
fn flows_are_bounded_by_window_population() {
    let mut lab = tiny_lab();
    let query = TkPlQuery::new(
        lab.all_slocs().len(),
        lab.query_fraction(1.0, 3),
        lab.world.full_interval(),
    );
    let scored = lab.evaluate(Method::Nl, &query);
    let n_objects = scored.run.outcome.stats.objects_total as f64;
    for r in &scored.run.outcome.ranking {
        assert!(
            r.flow <= n_objects + 1e-9,
            "flow {} exceeds object count {n_objects}",
            r.flow
        );
    }
}

#[test]
fn uncertainty_aware_flow_tracks_ground_truth() {
    // On the real-data analog the full flow ranking must correlate
    // strongly with ground truth (the paper's τ at k = 3 is 0.859; the
    // full-ranking correlation behind it is higher still).
    let lab = Lab::real_analog();
    let qs = lab.query_fraction(1.0, 4);
    let query = TkPlQuery::new(qs.len(), qs.clone(), lab.random_window(30, 17));
    let cfg = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };
    let out = popflow_core::nested_loop(&lab.world.space, lab.iupt(), &query, &cfg).unwrap();
    let truth: Vec<_> = lab.ground_truth_topk(&query);
    let tau = popflow_eval::kendall_tau(&out.topk_slocs(), &truth);
    assert!(tau > 0.6, "full-ranking Kendall τ = {tau}");
}

#[test]
fn mss_capping_degrades_gracefully() {
    let mut lab = tiny_lab();
    let iv = lab.world.full_interval();
    let mut taus = Vec::new();
    for mss in [1usize, 4] {
        lab.cap_mss(mss);
        let query = TkPlQuery::new(3, lab.query_fraction(1.0, 5), iv);
        let scored = lab.evaluate(Method::Bf, &query);
        taus.push(scored.tau);
    }
    // Both runs complete; effectiveness values are in range (the paper's
    // Fig. 7 trend — more samples help — is asserted statistically in the
    // experiments, not on one tiny world).
    for t in taus {
        assert!((-1.0..=1.0).contains(&t));
    }
}

#[test]
fn rfid_pipeline_is_consistent() {
    let mut lab = tiny_lab();
    lab.ensure_rfid();
    let query = TkPlQuery::new(3, lab.query_fraction(1.0, 6), lab.world.full_interval());
    let scc = lab.evaluate(Method::Scc, &query);
    // SCC counts are integers bounded by the population.
    for r in &scc.run.outcome.ranking {
        assert!((r.flow - r.flow.round()).abs() < 1e-12);
        assert!(r.flow <= lab.world.trajectories.len() as f64);
    }
}
