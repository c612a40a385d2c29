//! Batch scaling experiment: the two TkPLQ drivers (`nested_loop`,
//! `best_first`) on one batch window, swept over `FlowConfig::exec`
//! thread counts with `threads = 1` as the baseline point.
//!
//! The quantities reported are records/s (window records divided by
//! evaluation wall-clock) and the speedup over the one-thread point,
//! plus a per-point equality audit: every outcome must match the
//! one-thread ranking **bit for bit** (`f64::to_bits` on every flow), at
//! every thread count — the `popflow-exec` determinism contract made
//! observable. The machine-readable report (`BENCH_batch.json`) is
//! archived by CI per commit, giving the batch path a scaling
//! trajectory alongside the serving path's `BENCH_streaming.json`.

use std::time::Instant;

use indoor_iupt::Iupt;
use indoor_model::IndoorSpace;
use popflow_core::{best_first, nested_loop, FlowConfig, FlowError, QueryOutcome, TkPlQuery};

use crate::lab::Lab;
use crate::report::Row;

use super::ExpOpts;

/// Thread counts the experiment sweeps; the first is the baseline every
/// other point is compared against.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Configuration of one batch scaling run.
#[derive(Debug, Clone)]
pub struct BatchScaleConfig {
    /// Synthetic scenario scale (1.0 = the paper's 5K objects / 2 h).
    pub scale: f64,
    /// Top-k size.
    pub k: usize,
    /// Timed repetitions per point (the minimum is reported).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
}

impl BatchScaleConfig {
    /// The default comparison shape at a given scale.
    pub fn scaled(scale: f64, repeats: usize, seed: u64) -> Self {
        BatchScaleConfig {
            scale,
            k: 5,
            repeats: repeats.max(1),
            seed,
        }
    }
}

/// One measured (driver, thread-count) point.
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Driver display name.
    pub name: String,
    /// Worker threads the driver was allowed to fork.
    pub threads: usize,
    /// Best-of-repeats evaluation wall-clock, seconds.
    pub secs: f64,
    /// Window records divided by `secs`.
    pub records_per_sec: f64,
    /// One-thread wall-clock of the same driver divided by `secs`.
    pub speedup: f64,
    /// Whether the outcome matched the one-thread outcome bit for bit.
    pub matches_serial: bool,
}

/// The outcome of one batch scaling run.
#[derive(Debug, Clone)]
pub struct BatchScaleReport {
    /// Records in the evaluated window.
    pub records: usize,
    /// Objects in the evaluated window.
    pub objects: usize,
    /// Query set size.
    pub query_locations: usize,
    /// One point per (driver, thread count).
    pub points: Vec<ThreadPoint>,
    /// Points whose outcome diverged from the one-thread point (must be
    /// 0).
    pub mismatched_points: usize,
}

impl BatchScaleReport {
    /// The `nested_loop` speedup at `threads`, if that point exists.
    pub fn nl_speedup_at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.name == "nested_loop" && p.threads == threads)
            .map(|p| p.speedup)
    }
}

/// Bit-exact outcome comparison: same slocs at every rank, same flow
/// bits.
fn outcomes_identical(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.ranking.len() == b.ranking.len()
        && a.ranking
            .iter()
            .zip(b.ranking.iter())
            .all(|(x, y)| x.sloc == y.sloc && x.flow.to_bits() == y.flow.to_bits())
}

/// Times `run` `repeats` times, returning the fastest wall-clock and the
/// (identical) outcome.
fn best_of<F: FnMut() -> QueryOutcome>(repeats: usize, mut run: F) -> (f64, QueryOutcome) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let out = run();
        best = best.min(t0.elapsed().as_secs_f64());
        outcome = Some(out);
    }
    (best, outcome.expect("at least one repetition"))
}

/// The signature both batch drivers share.
type Driver =
    fn(&IndoorSpace, &mut Iupt, &TkPlQuery, &FlowConfig) -> Result<QueryOutcome, FlowError>;

/// Runs the full comparison: generate the workload once, then evaluate
/// each driver at every thread count of [`THREAD_SWEEP`].
pub fn run_batch_scale(cfg: &BatchScaleConfig) -> BatchScaleReport {
    let mut lab = Lab::new(indoor_sim::Scenario::synthetic_scaled(cfg.scale).with_seed(cfg.seed));
    let query = TkPlQuery::new(
        cfg.k,
        popflow_core::QuerySet::new(lab.all_slocs()),
        lab.world.full_interval(),
    );
    // The DP engine: exact, per-object cost bounded by O(n · m²), so the
    // measurement reflects parallel scaling rather than path-count
    // variance across objects.
    let flow = FlowConfig::default().with_dp_engine();

    let (records, objects) = {
        let (_, iupt) = lab.space_and_iupt();
        let records = iupt.range_query(query.interval).len();
        let objects = iupt.sequences_in(query.interval).len();
        (records, objects)
    };

    let drivers: [(&str, Driver); 2] = [("nested_loop", nested_loop), ("best_first", best_first)];
    let mut points = Vec::new();
    for (name, driver) in drivers {
        let mut baseline: Option<(f64, QueryOutcome)> = None;
        for &threads in &THREAD_SWEEP {
            let swept = FlowConfig {
                exec: popflow_core::ExecConfig::with_threads(threads),
                ..flow
            };
            let (secs, outcome) = best_of(cfg.repeats, || {
                let (space, iupt) = lab.space_and_iupt();
                driver(space, iupt, &query, &swept).expect("batch driver")
            });
            let (base_secs, base_outcome) = baseline.get_or_insert_with(|| (secs, outcome.clone()));
            points.push(ThreadPoint {
                name: name.into(),
                threads,
                secs,
                records_per_sec: records as f64 / secs.max(f64::MIN_POSITIVE),
                speedup: *base_secs / secs.max(f64::MIN_POSITIVE),
                matches_serial: outcomes_identical(&outcome, base_outcome),
            });
        }
    }

    let mismatched_points = points.iter().filter(|p| !p.matches_serial).count();
    BatchScaleReport {
        records,
        objects,
        query_locations: query.query_set.len(),
        points,
        mismatched_points,
    }
}

/// Renders a report as experiment rows.
pub fn report_rows(cfg: &BatchScaleConfig, report: &BatchScaleReport) -> Vec<Row> {
    let x = format!("objs={} recs={}", report.objects, report.records);
    let mut rows = Vec::new();
    for p in &report.points {
        let mut row = Row::new("batch_scale", &x, format!("{}@{}t", p.name, p.threads));
        row.time_secs = Some(p.secs);
        row.note = format!(
            "{:.0} rec/s speedup×{:.2}{}",
            p.records_per_sec,
            p.speedup,
            if p.matches_serial { "" } else { " MISMATCH" },
        );
        rows.push(row);
    }
    let mut summary = Row::new("batch_scale", &x, "audit");
    summary.note = format!(
        "mismatches={} (every point must equal its 1-thread point bit-for-bit) k={} scale={}",
        report.mismatched_points, cfg.k, cfg.scale
    );
    rows.push(summary);
    rows
}

/// Serializes a report as the machine-readable `BENCH_batch.json`
/// payload CI archives per commit. Hand-rolled JSON: the workspace
/// deliberately carries no serialization dependency.
pub fn bench_json(cfg: &BatchScaleConfig, report: &BatchScaleReport) -> String {
    use crate::bench_json::{Json, Obj};
    let points: Vec<Json> = report
        .points
        .iter()
        .map(|p| {
            Obj::new()
                .field("name", p.name.clone())
                .field("threads", p.threads)
                .num("secs", p.secs, 6)
                .num("records_per_sec", p.records_per_sec, 1)
                .num("speedup", p.speedup, 3)
                .field("matches_serial", p.matches_serial)
                .into()
        })
        .collect();
    Json::from(
        Obj::new()
            .field("experiment", "batch_scale")
            .field(
                "config",
                Obj::new()
                    .num("scale", cfg.scale, 4)
                    .field("k", cfg.k)
                    .field("repeats", cfg.repeats)
                    .field("seed", cfg.seed),
            )
            .field("records", report.records)
            .field("objects", report.objects)
            .field("query_locations", report.query_locations)
            .field(
                "speedup_4t",
                Json::opt(report.nl_speedup_at(4).map(|s| Json::num(s, 3))),
            )
            .field("mismatched_points", report.mismatched_points)
            .field("points", points),
    )
    .to_artifact()
}

/// The `batch_scale` experiment id. When `json_path` is given, the
/// machine-readable report is written there as well — success or failure
/// of the write is reported truthfully on stdout/stderr. Panics when any
/// point diverged from its one-thread point — so a CI run is a live
/// determinism gate, not just a measurement. The JSON is written before
/// the gate fires: a failing run still leaves the evidence on disk.
pub fn batch_scale_with_json(opts: &ExpOpts, json_path: Option<&str>) -> Vec<Row> {
    let cfg = BatchScaleConfig::scaled(opts.scale, opts.repeats, opts.seed);
    let report = run_batch_scale(&cfg);
    if let Some(path) = json_path {
        crate::bench_json::write_report(
            path,
            "machine-readable batch report",
            &bench_json(&cfg, &report),
        );
    }
    assert_eq!(
        report.mismatched_points, 0,
        "a driver's outcome changed with the thread count"
    );
    report_rows(&cfg, &report)
}

/// The `batch_scale` experiment id without a JSON artifact.
pub fn batch_scale(opts: &ExpOpts) -> Vec<Row> {
    batch_scale_with_json(opts, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: every point bit-matches its
    /// one-thread point and the JSON artifact is structurally sound.
    #[test]
    fn small_batch_scale_is_consistent() {
        let cfg = BatchScaleConfig {
            scale: 0.01,
            k: 3,
            repeats: 1,
            seed: 7,
        };
        let report = run_batch_scale(&cfg);
        assert!(report.records > 0);
        assert!(report.objects > 0);
        assert_eq!(report.points.len(), 2 * THREAD_SWEEP.len());
        assert_eq!(
            report.mismatched_points, 0,
            "thread count changed an outcome: {:?}",
            report.points
        );
        assert!(report.nl_speedup_at(4).is_some());

        let json = bench_json(&cfg, &report);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        for key in [
            "\"speedup_4t\"",
            "\"mismatched_points\": 0",
            "\"nested_loop\"",
            "\"best_first\"",
            "\"matches_serial\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        for bad in ["inf", "NaN"] {
            assert!(!json.contains(bad), "invalid JSON token {bad} in:\n{json}");
        }
    }
}
