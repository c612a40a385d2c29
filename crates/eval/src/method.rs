//! A uniform runner over every method of the paper's evaluation, with
//! wall-clock timing.

use std::time::Instant;

use indoor_iupt::{Iupt, RfidTrackingData};
use indoor_model::IndoorSpace;
use popflow_core::baselines::{
    monte_carlo, semi_constrained_counting, simple_counting, simple_counting_rho,
    uncertainty_region, MonteCarloConfig, UrConfig,
};
use popflow_core::{
    best_first, naive, nested_loop, FlowConfig, FlowError, PresenceEngine, QueryOutcome, TkPlQuery,
};

/// Every method compared in §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Best-First (Algorithm 4).
    Bf,
    /// Nested-Loop (Algorithm 3).
    Nl,
    /// Naive (one Flow call per query location).
    Naive,
    /// Best-First without data reduction.
    BfOrg,
    /// Nested-Loop without data reduction.
    NlOrg,
    /// Naive without data reduction.
    NaiveOrg,
    /// Simple counting (argmax sample).
    Sc,
    /// Simple counting with probability threshold ρ.
    ScRho(f64),
    /// Monte Carlo with the given number of rounds.
    Mc(usize),
    /// Semi-constrained RFID counting (needs RFID data).
    Scc,
    /// Uncertainty-region RFID method (needs RFID data).
    Ur,
}

impl Method {
    /// Short display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::Bf => "BF".into(),
            Method::Nl => "NL".into(),
            Method::Naive => "Naive".into(),
            Method::BfOrg => "BF-ORG".into(),
            Method::NlOrg => "NL-ORG".into(),
            Method::NaiveOrg => "Naive-ORG".into(),
            Method::Sc => "SC".into(),
            Method::ScRho(rho) => format!("SC-rho({rho})"),
            Method::Mc(rounds) => format!("MC({rounds})"),
            Method::Scc => "SCC".into(),
            Method::Ur => "UR".into(),
        }
    }

    /// Whether the method consumes RFID tracking data instead of the IUPT.
    pub fn needs_rfid(&self) -> bool {
        matches!(self, Method::Scc | Method::Ur)
    }
}

/// A timed method evaluation.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// The query outcome produced by the method.
    pub outcome: QueryOutcome,
    /// Wall-clock evaluation time in seconds.
    pub elapsed_secs: f64,
    /// Set when the hybrid engine had to evaluate at least one object with
    /// the transition DP because its path set exceeded the budget.
    pub dp_fallback: bool,
}

/// Inputs shared by the methods.
pub struct MethodInput<'a> {
    /// The indoor space queried against.
    pub space: &'a IndoorSpace,
    /// The uncertain positioning table.
    pub iupt: &'a Iupt,
    /// RFID tracking data for the SCC/UR comparators.
    pub rfid: Option<&'a RfidTrackingData>,
    /// Vmax for the UR comparator's ellipses.
    pub vmax: f64,
}

/// Runs `method` on `query`, timing it. Exact methods that exhaust the
/// path-enumeration budget are retried once with the DP engine (flagged in
/// the result) so full-scale experiments degrade gracefully instead of
/// aborting.
pub fn run_method(method: Method, input: &MethodInput<'_>, query: &TkPlQuery) -> MethodRun {
    let start = Instant::now();
    let (outcome, dp_fallback) = match method {
        Method::Bf
        | Method::Nl
        | Method::Naive
        | Method::BfOrg
        | Method::NlOrg
        | Method::NaiveOrg => {
            let cfg = flow_config(method);
            let outcome = run_exact(method, input, query, &cfg)
                .expect("the hybrid engine never exceeds the path budget");
            let fell_back = outcome.stats.dp_fallback_objects > 0;
            (outcome, fell_back)
        }
        Method::Sc => (simple_counting(input.space, input.iupt, query), false),
        Method::ScRho(rho) => (
            simple_counting_rho(input.space, input.iupt, query, rho),
            false,
        ),
        Method::Mc(rounds) => (
            monte_carlo(
                input.space,
                input.iupt,
                query,
                &MonteCarloConfig {
                    rounds,
                    ..MonteCarloConfig::default()
                },
            ),
            false,
        ),
        Method::Scc => {
            let data = input.rfid.expect("SCC requires RFID tracking data");
            (semi_constrained_counting(data, query), false)
        }
        Method::Ur => {
            let data = input.rfid.expect("UR requires RFID tracking data");
            (
                uncertainty_region(
                    input.space,
                    data,
                    query,
                    &UrConfig {
                        vmax: input.vmax,
                        ..UrConfig::default()
                    },
                ),
                false,
            )
        }
    };
    MethodRun {
        outcome,
        elapsed_secs: start.elapsed().as_secs_f64(),
        dp_fallback,
    }
}

fn flow_config(method: Method) -> FlowConfig {
    // The harness runs the exact methods with the hybrid engine: the
    // paper's path enumeration wherever it fits the budget, per-object DP
    // fallback elsewhere (results identical; see DESIGN.md §2.3).
    let base = FlowConfig {
        engine: PresenceEngine::Hybrid,
        ..FlowConfig::default()
    };
    match method {
        Method::Bf | Method::Nl | Method::Naive => base,
        Method::BfOrg | Method::NlOrg | Method::NaiveOrg => base.without_reduction(),
        _ => unreachable!("flow_config only applies to exact methods"),
    }
}

fn run_exact(
    method: Method,
    input: &MethodInput<'_>,
    query: &TkPlQuery,
    cfg: &FlowConfig,
) -> Result<QueryOutcome, FlowError> {
    match method {
        Method::Bf | Method::BfOrg => best_first(input.space, input.iupt, query, cfg),
        Method::Nl | Method::NlOrg => nested_loop(input.space, input.iupt, query, cfg),
        Method::Naive | Method::NaiveOrg => naive(input.space, input.iupt, query, cfg),
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use popflow_core::QuerySet;

    #[test]
    fn all_iupt_methods_run_on_paper_example() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(
            2,
            QuerySet::new(fig.r.to_vec()),
            TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8)),
        );
        for method in [
            Method::Bf,
            Method::Nl,
            Method::Naive,
            Method::BfOrg,
            Method::NlOrg,
            Method::NaiveOrg,
            Method::Sc,
            Method::ScRho(0.25),
            Method::Mc(50),
        ] {
            let iupt = paper_table2();
            let input = MethodInput {
                space: &fig.space,
                iupt: &iupt,
                rfid: None,
                vmax: 1.0,
            };
            let run = run_method(method, &input, &query);
            assert_eq!(run.outcome.ranking.len(), 2, "{}", method.name());
            assert!(run.elapsed_secs >= 0.0);
            assert!(!run.dp_fallback);
        }
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Method::Bf.name(), "BF");
        assert_eq!(Method::ScRho(0.25).name(), "SC-rho(0.25)");
        assert_eq!(Method::Mc(900).name(), "MC(900)");
        assert!(Method::Scc.needs_rfid());
        assert!(!Method::Naive.needs_rfid());
    }
}
