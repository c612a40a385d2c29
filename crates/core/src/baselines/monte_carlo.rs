//! The Monte Carlo baseline MC (§5.1): repeatedly instantiate a *certain*
//! IUPT by sampling one P-location per record according to the sample
//! probabilities, compute each query location's flow on the certain paths,
//! and rank by the average flow across rounds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use indoor_iupt::{Iupt, SampleSet};
use indoor_model::{IndoorSpace, PLocId, SLocId};

use crate::presence::pair_pass_probability;
use crate::query::{rank_topk, QueryOutcome, SearchStats, TkPlQuery};

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloConfig {
    /// Simulation rounds. The paper tunes 900 rounds on the real data and
    /// 25 000 on the synthetic data "for which the Kendall coefficient
    /// almost increases to a standstill".
    pub rounds: usize,
    /// RNG seed (the method is randomized; experiments fix it for
    /// reproducibility).
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            rounds: 900,
            seed: 0x4d43,
        }
    }
}

/// Evaluates a TkPLQ with the MC baseline. No data reduction is applied —
/// the paper groups MC with the no-reduction methods in Table 4.
pub fn monte_carlo(
    space: &IndoorSpace,
    iupt: &Iupt,
    query: &TkPlQuery,
    cfg: &MonteCarloConfig,
) -> QueryOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sequences = iupt.sequences_in(query.interval);
    let objects_total = sequences.len();

    // Materialize per-object sample-set sequences once.
    let object_sets: Vec<Vec<&SampleSet>> = sequences
        .iter()
        .map(|seq| seq.records.iter().map(|r| r.samples).collect())
        .collect();

    let slocs = query.query_set.slocs();
    let mut sums = vec![0.0; slocs.len()];
    let mut certain: Vec<PLocId> = Vec::new();

    for _ in 0..cfg.rounds {
        for sets in &object_sets {
            certain.clear();
            certain.extend(sets.iter().map(|s| draw(&mut rng, s)));
            for (qi, &q) in slocs.iter().enumerate() {
                sums[qi] += certain_path_presence(space, &certain, q);
            }
        }
    }

    let scores: Vec<(SLocId, f64)> = slocs
        .iter()
        .zip(sums.iter())
        .map(|(&s, &sum)| (s, sum / cfg.rounds as f64))
        .collect();

    QueryOutcome {
        ranking: rank_topk(scores, query.k),
        stats: SearchStats {
            objects_total,
            objects_computed: objects_total,
            dp_fallback_objects: 0,
        },
    }
}

/// Samples one P-location from a sample set according to its
/// probabilities.
fn draw(rng: &mut StdRng, set: &SampleSet) -> PLocId {
    let samples = set.samples();
    if samples.len() == 1 {
        return samples[0].loc;
    }
    let mut u: f64 = rng.gen_range(0.0..1.0);
    for s in samples {
        if u < s.prob {
            return s.loc;
        }
        u -= s.prob;
    }
    samples.last().expect("sample sets are non-empty").loc
}

/// The presence of one certain path with respect to `q`: Eq. 2 over the
/// pairs that satisfy the indoor topology ("constructing valid object
/// paths on the certain records" — disconnected pairs, which arise because
/// independent per-record draws need not be consistent, contribute no pass
/// chance).
fn certain_path_presence(space: &IndoorSpace, locs: &[PLocId], q: SLocId) -> f64 {
    let mut miss = 1.0;
    for w in locs.windows(2) {
        if !space.matrix().connected(w[0], w[1]) {
            continue;
        }
        miss *= 1.0 - pair_pass_probability(space, w[0], w[1], q);
        if miss == 0.0 {
            break;
        }
    }
    1.0 - miss
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConfig;
    use crate::query::naive;
    use crate::query_set::QuerySet;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    #[test]
    fn converges_toward_uncertainty_aware_ranking() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(2, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval());
        let i1 = paper_table2();
        let mc = monte_carlo(
            &fig.space,
            &i1,
            &query,
            &MonteCarloConfig {
                rounds: 2000,
                seed: 42,
            },
        );
        // r6 clearly dominates r1 in the exact flows (1.97 vs 0.5); MC
        // must find the same order.
        assert_eq!(mc.ranking[0].sloc, fig.r[5]);
        assert!(mc.ranking[0].flow > mc.ranking[1].flow);
        // And the MC estimate of Θ(r6) is near the exact value.
        let i2 = paper_table2();
        let exact = naive(
            &fig.space,
            &i2,
            &query,
            &FlowConfig::default().without_reduction(),
        )
        .unwrap();
        let exact_r6 = exact.ranking[0].flow;
        assert!(
            (mc.ranking[0].flow - exact_r6).abs() < 0.25,
            "MC {} vs exact {exact_r6}",
            mc.ranking[0].flow
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let cfg = MonteCarloConfig {
            rounds: 50,
            seed: 7,
        };
        let i1 = paper_table2();
        let a = monte_carlo(&fig.space, &i1, &query, &cfg);
        let i2 = paper_table2();
        let b = monte_carlo(&fig.space, &i2, &query, &cfg);
        assert_eq!(a.topk_slocs(), b.topk_slocs());
        for (x, y) in a.ranking.iter().zip(b.ranking.iter()) {
            assert_eq!(x.flow, y.flow);
        }
    }

    #[test]
    fn flows_bounded_by_object_count() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        let out = monte_carlo(
            &fig.space,
            &iupt,
            &query,
            &MonteCarloConfig {
                rounds: 100,
                seed: 1,
            },
        );
        for r in &out.ranking {
            assert!(r.flow <= 3.0 + 1e-9);
            assert!(r.flow >= 0.0);
        }
    }
}
