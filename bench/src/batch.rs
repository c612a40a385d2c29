//! `batch_adhoc`, untraced: one caller asks seeded ad hoc queries, each
//! answered by `nested_loop` and by `best_first`, for `--seconds`.

use std::time::Instant;

use popflow_core::{best_first, nested_loop, FlowConfig, QueryOutcome};

use crate::spec::{Dataset, Spec};

/// Distinct queries of a run: p90 over them has ten samples beyond it.
pub const QUERIES: u64 = 100;

/// The flow configuration of every ad hoc query: the transition DP,
/// because path enumeration does not finish at these window lengths.
pub fn flow_config() -> FlowConfig {
    FlowConfig::default().with_dp_engine()
}

/// Whether two outcomes rank the same locations with the same flows,
/// bit for bit.
pub fn same_ranking(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.ranking.len() == b.ranking.len()
        && a.ranking
            .iter()
            .zip(&b.ranking)
            .all(|(x, y)| x.sloc == y.sloc && x.flow.to_bits() == y.flow.to_bits())
}

#[derive(Debug, Default)]
pub struct BatchRun {
    /// Per query, its fastest `nested_loop` / `best_first` call over the
    /// passes, ms.
    pub nl_ms: Vec<f64>,
    pub bf_ms: Vec<f64>,
    /// Records inside the queried windows, counted once per algorithm.
    pub window_records: u64,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl BatchRun {
    /// Records inside the queried windows per second of query time.
    pub fn records_per_sec(&self) -> f64 {
        let secs = (self.nl_ms.iter().sum::<f64>() + self.bf_ms.iter().sum::<f64>()) / 1000.0;
        self.window_records as f64 / secs
    }
}

/// Answers queries `0..queries` of the seeded sequence, pass after
/// pass, for about `seconds`, and keeps each query's fastest time.
///
/// The reference box is a shared VM whose speed drifts by ±15 % over
/// seconds. A query's fastest call over passes that are seconds apart
/// is its time on the undisturbed machine, which is what two commits
/// can be compared on; the median over back-to-back calls is not.
///
/// A query that errors, or whose two rankings differ, counts as failed
/// (every pass checks it).
pub fn run(spec: &Spec, data: &mut Dataset, seed: u64, seconds: f64, queries: u64) -> BatchRun {
    let cfg = flow_config();
    let n = queries as usize;
    let mut out = BatchRun {
        nl_ms: vec![f64::INFINITY; n],
        bf_ms: vec![f64::INFINITY; n],
        ..BatchRun::default()
    };
    let plan: Vec<_> = (0..queries)
        .map(|i| spec.adhoc_query(data, seed, i))
        .collect();
    let mut bad = vec![false; n];
    // Two untimed queries first: page in the index and the arena.
    for q in plan.iter().take(2) {
        let _ = nested_loop(&data.space, &mut data.world.iupt, q, &cfg);
        let _ = best_first(&data.space, &mut data.world.iupt, q, &cfg);
    }
    let started = Instant::now();
    loop {
        let pass_started = Instant::now();
        for (i, q) in plan.iter().enumerate() {
            let t0 = Instant::now();
            let nl = nested_loop(&data.space, &mut data.world.iupt, q, &cfg);
            let t1 = Instant::now();
            let bf = best_first(&data.space, &mut data.world.iupt, q, &cfg);
            let t2 = Instant::now();
            match (nl, bf) {
                (Ok(nl), Ok(bf)) if same_ranking(&nl, &bf) => {
                    out.nl_ms[i] = out.nl_ms[i].min((t1 - t0).as_secs_f64() * 1e3);
                    out.bf_ms[i] = out.bf_ms[i].min((t2 - t1).as_secs_f64() * 1e3);
                }
                _ => bad[i] = true,
            }
        }
        out.passes += 1;
        // Another pass only if it should end within the run's seconds.
        let pass_secs = pass_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + pass_secs > seconds {
            break;
        }
    }
    out.attempted = queries;
    out.failed = bad.iter().filter(|&&b| b).count() as u64;
    for q in &plan {
        out.window_records += 2 * data.world.iupt.range_query(q.interval).len() as u64;
    }
    // A query that never succeeded has no time.
    out.nl_ms.retain(|t| t.is_finite());
    out.bf_ms.retain(|t| t.is_finite());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    #[test]
    fn rankings_are_compared_bit_for_bit() {
        let spec = find("batch_adhoc").unwrap().quick();
        let mut data = spec.generate(5);
        let q = spec.adhoc_query(&data, 5, 0);
        let cfg = flow_config();
        let nl = nested_loop(&data.space, &mut data.world.iupt, &q, &cfg).unwrap();
        let mut bf = best_first(&data.space, &mut data.world.iupt, &q, &cfg).unwrap();
        assert!(!nl.ranking.is_empty());
        assert!(same_ranking(&nl, &bf));
        let flow = &mut bf.ranking[0].flow;
        *flow = f64::from_bits(flow.to_bits() ^ 1);
        assert!(
            !same_ranking(&nl, &bf),
            "a one-bit flow difference must count"
        );
        bf.ranking.pop();
        assert!(!same_ranking(&nl, &bf));
    }

    #[test]
    fn a_run_times_every_query_in_every_pass() {
        let spec = find("batch_adhoc").unwrap().quick();
        let mut data = spec.generate(5);
        let run = run(&spec, &mut data, 5, 0.2, 12);
        assert_eq!((run.attempted, run.failed), (12, 0));
        assert_eq!((run.nl_ms.len(), run.bf_ms.len()), (12, 12));
        assert!(run.passes >= 1);
        assert!(run.nl_ms.iter().chain(&run.bf_ms).all(|t| *t > 0.0));
        assert!(run.window_records > 0 && run.records_per_sec() > 0.0);
    }
}
