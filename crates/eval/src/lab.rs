//! The experiment laboratory: a generated world plus helpers to draw query
//! workloads, run methods, and score them against ground truth.

use indoor_iupt::{Iupt, Record, RfidTrackingData, TimeInterval};
use indoor_model::SLocId;
use indoor_sim::{RfidConfig, Scenario, World};
use popflow_core::{QuerySet, TkPlQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::method::{run_method, Method, MethodInput, MethodRun};
use crate::metrics::{kendall_tau, recall};

/// A method run scored against ground truth.
#[derive(Debug, Clone)]
pub struct ScoredRun {
    /// The run being scored.
    pub run: MethodRun,
    /// Kendall tau of the ranking vs ground truth.
    pub tau: f64,
    /// Top-k recall vs ground truth.
    pub recall: f64,
}

/// A reusable experiment context.
pub struct Lab {
    /// The generated world under experiment.
    pub world: World,
    /// The IUPT actually queried (may be an mss-capped copy of the
    /// world's).
    iupt: Iupt,
    rfid: Option<RfidTrackingData>,
}

impl Lab {
    /// Builds a lab from a scenario.
    pub fn new(scenario: Scenario) -> Self {
        let world = World::generate(scenario);
        let iupt = world.iupt.clone();
        Lab {
            world,
            iupt,
            rfid: None,
        }
    }

    /// The §5.2 real-data analog lab.
    pub fn real_analog() -> Self {
        Lab::new(Scenario::real_floor_analog())
    }

    /// The §5.3 synthetic lab scaled by `scale`.
    pub fn synthetic(scale: f64) -> Self {
        Lab::new(Scenario::synthetic_scaled(scale))
    }

    /// All S-location ids of the space.
    pub fn all_slocs(&self) -> Vec<SLocId> {
        self.world.space.slocs().iter().map(|s| s.id).collect()
    }

    /// A random query set holding `fraction` of all S-locations.
    pub fn query_fraction(&self, fraction: f64, seed: u64) -> QuerySet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = self.all_slocs();
        let take = ((ids.len() as f64 * fraction).round() as usize).clamp(1, ids.len());
        for i in 0..take {
            let j = rng.gen_range(i..ids.len());
            ids.swap(i, j);
        }
        ids.truncate(take);
        QuerySet::new(ids)
    }

    /// A random `dt_min`-minute window within the simulated duration.
    pub fn random_window(&self, dt_min: i64, seed: u64) -> TimeInterval {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_min = self.world.scenario.mobility.duration_secs / 60;
        let dt = dt_min.min(total_min);
        let latest = (total_min - dt).max(0);
        let start = if latest == 0 {
            0
        } else {
            rng.gen_range(0..=latest)
        };
        self.world.window(start, dt)
    }

    /// Caps every record of the queried IUPT at `mss` samples (the §5.2.2
    /// uncertainty knob). Pass the scenario's own mss to restore.
    pub fn cap_mss(&mut self, mss: usize) {
        let records: Vec<Record> = self
            .world
            .iupt
            .iter()
            .map(|r| Record {
                oid: r.oid,
                t: r.t,
                samples: r.samples.capped(mss),
            })
            .collect();
        self.iupt = Iupt::from_records(records);
    }

    /// Regenerates positioning with a different maximum period `T` and
    /// error `μ` over the same trajectories (used by the Fig. 14–16
    /// sweeps).
    pub fn reposition(&mut self, max_period_secs: f64, mu: f64) {
        let mut cfg = self.world.scenario.positioning.clone();
        cfg.max_period_secs = max_period_secs;
        cfg.mu = mu;
        self.iupt = indoor_sim::generate_iupt(&self.world.space, &self.world.trajectories, &cfg);
    }

    /// Split borrow of the space and the queried IUPT, for calling the
    /// query algorithms directly.
    pub fn space_and_iupt(&mut self) -> (&indoor_model::IndoorSpace, &mut Iupt) {
        (&self.world.space, &mut self.iupt)
    }

    /// Ensures RFID tracking data exists (generated lazily — only the
    /// Table 7 experiment needs it).
    pub fn ensure_rfid(&mut self) {
        if self.rfid.is_none() {
            self.rfid = Some(self.world.rfid_data(&RfidConfig::default()));
        }
    }

    /// Ground-truth top-k ids among the query set.
    pub fn ground_truth_topk(&self, query: &TkPlQuery) -> Vec<SLocId> {
        self.world
            .ground_truth_topk(query.interval, query.query_set.slocs(), query.k)
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// Runs a method and scores it against ground truth.
    pub fn evaluate(&mut self, method: Method, query: &TkPlQuery) -> ScoredRun {
        if method.needs_rfid() {
            self.ensure_rfid();
        }
        let vmax = self.world.scenario.mobility.vmax;
        let mut input = MethodInput {
            space: &self.world.space,
            iupt: &mut self.iupt,
            rfid: self.rfid.as_ref(),
            vmax,
        };
        let run = run_method(method, &mut input, query);
        let truth = self
            .world
            .ground_truth_topk(query.interval, query.query_set.slocs(), query.k)
            .into_iter()
            .map(|(s, _)| s)
            .collect::<Vec<_>>();
        let result = run.outcome.topk_slocs();
        ScoredRun {
            tau: kendall_tau(&result, &truth),
            recall: recall(&result, &truth),
            run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_sim::Scenario;

    fn tiny_lab() -> Lab {
        Lab::new(Scenario::tiny())
    }

    #[test]
    fn query_fraction_sizes() {
        let lab = tiny_lab();
        let all = lab.all_slocs().len();
        let half = lab.query_fraction(0.5, 1);
        assert_eq!(half.len(), (all as f64 * 0.5).round() as usize);
        let full = lab.query_fraction(1.0, 1);
        assert_eq!(full.len(), all);
        // Deterministic under seed.
        assert_eq!(
            lab.query_fraction(0.5, 7).slocs(),
            lab.query_fraction(0.5, 7).slocs()
        );
    }

    #[test]
    fn windows_fit_duration() {
        let lab = tiny_lab();
        let iv = lab.random_window(5, 3);
        assert!(iv.duration_millis() <= 5 * 60 * 1000);
        let too_long = lab.random_window(100_000, 3);
        assert_eq!(
            too_long.duration_millis(),
            lab.world.scenario.mobility.duration_secs * 1000
        );
    }

    #[test]
    fn evaluate_bf_on_tiny_world() {
        let mut lab = tiny_lab();
        let qs = lab.query_fraction(1.0, 11);
        let iv = lab.world.full_interval();
        let query = TkPlQuery::new(3, qs, iv);
        let scored = lab.evaluate(Method::Bf, &query);
        assert_eq!(scored.run.outcome.ranking.len(), 3);
        assert!((-1.0..=1.0).contains(&scored.tau));
        assert!((0.0..=1.0).contains(&scored.recall));
    }

    #[test]
    fn bf_beats_random_on_effectiveness() {
        // On a tiny world BF's top-k should correlate with ground truth
        // far better than an inverted ranking would.
        let mut lab = tiny_lab();
        let qs = lab.query_fraction(1.0, 5);
        let iv = lab.world.full_interval();
        let query = TkPlQuery::new(5, qs, iv);
        let scored = lab.evaluate(Method::Bf, &query);
        assert!(scored.tau > 0.0, "tau = {}", scored.tau);
        assert!(scored.recall >= 0.4, "recall = {}", scored.recall);
    }

    #[test]
    fn cap_mss_reduces_sample_sets() {
        let mut lab = tiny_lab();
        lab.cap_mss(1);
        let qs = lab.query_fraction(0.5, 2);
        let query = TkPlQuery::new(2, qs, lab.world.full_interval());
        // Still runs end to end with certain reports.
        let scored = lab.evaluate(Method::Nl, &query);
        assert_eq!(scored.run.outcome.ranking.len(), 2);
    }

    #[test]
    fn rfid_methods_run() {
        let mut lab = tiny_lab();
        let qs = lab.query_fraction(1.0, 9);
        let query = TkPlQuery::new(3, qs, lab.world.full_interval());
        let scc = lab.evaluate(Method::Scc, &query);
        let ur = lab.evaluate(Method::Ur, &query);
        assert_eq!(scc.run.outcome.ranking.len(), 3);
        assert_eq!(ur.run.outcome.ranking.len(), 3);
    }
}
