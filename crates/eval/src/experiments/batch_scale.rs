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

use std::sync::Arc;
use std::time::Instant;

use indoor_iupt::Iupt;
use indoor_model::IndoorSpace;
use indoor_sim::StreamScenario;
use popflow_core::query::request::NestedLoop;
use popflow_core::{
    best_first, nested_loop, BatchEngine, FlowConfig, FlowError, FlowMemo, QueryOutcome, QuerySet,
    TkPlQuery, TkplqRequest,
};

use crate::lab::Lab;
use crate::report::Row;

use super::ExpOpts;

/// Thread counts the experiment sweeps; the first is the baseline every
/// other point is compared against.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Identical query rounds the memoization phase replays per side — the
/// repeated-analytics workload a shared kernel memo accelerates.
pub const MEMO_ROUNDS: usize = 5;

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
    /// The kernel-memoization phase on the skewed dwell stream.
    pub memo: MemoPhase,
}

/// The kernel-memoization measurement: [`MEMO_ROUNDS`] identical
/// Nested-Loop queries over a skewed (destination Zipf 0.9),
/// dwell-cached visitor stream — the redundancy profile per-`SetRef`
/// memoization exploits — evaluated once with a shared [`FlowMemo`]
/// attached to every request and once with memoization off. Flows must
/// match bit for bit; the speedup and hit rate are the CI gate.
#[derive(Debug, Clone)]
pub struct MemoPhase {
    /// Records in the skewed stream the rounds query.
    pub records: usize,
    /// Objects in the skewed stream.
    pub objects: usize,
    /// Query rounds replayed per side.
    pub rounds: usize,
    /// Total wall-clock of the memo-off rounds, seconds (best of
    /// repeats).
    pub memo_off_secs: f64,
    /// Total wall-clock of the memo-on rounds, seconds (best of
    /// repeats; each repeat starts from a cold memo).
    pub memo_on_secs: f64,
    /// `memo_off_secs / memo_on_secs` — memo-off wall-clock over
    /// memo-on wall-clock for the identical rounds.
    pub memo_speedup: f64,
    /// Memo hits over (hits + misses) across the memo-on rounds.
    pub memo_hit_rate: f64,
    /// Resident bytes of the memo table after the memo-on rounds.
    pub memo_bytes: u64,
    /// Whether every memo-on round matched its memo-off round bit for
    /// bit (must be true).
    pub matches_memo_off: bool,
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

/// Runs the memoization phase: build the skewed dwell stream, replay
/// [`MEMO_ROUNDS`] identical Nested-Loop queries per side (memo-off
/// first, then memo-on from a cold shared [`FlowMemo`]), repeated
/// `cfg.repeats` times keeping each side's fastest total.
fn run_memo_phase(cfg: &BatchScaleConfig) -> MemoPhase {
    let scenario = StreamScenario {
        num_objects: ((1600.0 * cfg.scale) as usize).max(40),
        duration_secs: 1800,
        visit_secs: (60, 120),
        destination_skew: 0.9,
        dwell_cache: true,
        seed: cfg.seed ^ 0x6d65_6d6f, // "memo"
    };
    let (world, _stream) = scenario.build();
    let space = world.space;
    let mut iupt = world.iupt;
    let interval = iupt.time_bounds().expect("generated stream is nonempty");
    let records = iupt.len();
    let objects = iupt.sequences_in(interval).len();
    let slocs: Vec<_> = space.slocs().iter().map(|s| s.id).collect();
    let flow = FlowConfig::default().with_dp_engine();
    let base = TkplqRequest::new(cfg.k, QuerySet::new(slocs)).with_flow(flow);
    let off_request = base.clone().with_flow(flow.with_memo(false));

    let mut memo_off_secs = f64::INFINITY;
    let mut memo_on_secs = f64::INFINITY;
    let mut off_outcomes: Vec<QueryOutcome> = Vec::new();
    let mut on_outcomes: Vec<QueryOutcome> = Vec::new();
    let mut memo_hit_rate = 0.0;
    let mut memo_bytes = 0u64;
    for _ in 0..cfg.repeats.max(1) {
        let t0 = Instant::now();
        let outs: Vec<QueryOutcome> = (0..MEMO_ROUNDS)
            .map(|_| {
                NestedLoop
                    .evaluate(&space, &mut iupt, &off_request, interval)
                    .expect("memo-off nested_loop")
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        if secs < memo_off_secs {
            memo_off_secs = secs;
            off_outcomes = outs;
        }

        // A fresh memo per repeat: every repeat pays the same cold
        // first round, so the comparison measures steady reuse, not
        // accumulated warm-up.
        let memo = Arc::new(FlowMemo::new());
        let on_request = base.clone().with_memo(Arc::clone(&memo));
        let t0 = Instant::now();
        let outs: Vec<QueryOutcome> = (0..MEMO_ROUNDS)
            .map(|_| {
                NestedLoop
                    .evaluate(&space, &mut iupt, &on_request, interval)
                    .expect("memoized nested_loop")
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        if secs < memo_on_secs {
            memo_on_secs = secs;
            on_outcomes = outs;
        }
        let stats = memo.stats();
        let touches = stats.hits + stats.misses;
        memo_hit_rate = if touches > 0 {
            stats.hits as f64 / touches as f64
        } else {
            0.0
        };
        memo_bytes = stats.bytes as u64;
    }
    let matches_memo_off = off_outcomes.len() == on_outcomes.len()
        && off_outcomes
            .iter()
            .zip(on_outcomes.iter())
            .all(|(a, b)| outcomes_identical(a, b));
    MemoPhase {
        records,
        objects,
        rounds: MEMO_ROUNDS,
        memo_off_secs,
        memo_on_secs,
        memo_speedup: memo_off_secs / memo_on_secs.max(f64::MIN_POSITIVE),
        memo_hit_rate,
        memo_bytes,
        matches_memo_off,
    }
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
        memo: run_memo_phase(cfg),
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
    let m = &report.memo;
    let mut memo_row = Row::new(
        "batch_scale",
        format!("objs={} recs={}", m.objects, m.records),
        "memo (skewed dwell)",
    );
    memo_row.time_secs = Some(m.memo_on_secs);
    memo_row.note = format!(
        "{} rounds speedup×{:.2} hit-rate={:.2} bytes={}{}",
        m.rounds,
        m.memo_speedup,
        m.memo_hit_rate,
        m.memo_bytes,
        if m.matches_memo_off { "" } else { " MISMATCH" },
    );
    rows.push(memo_row);
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
            .num("memo_speedup", report.memo.memo_speedup, 3)
            .num("memo_hit_rate", report.memo.memo_hit_rate, 4)
            .field("memo_bytes", report.memo.memo_bytes)
            .field(
                "memo",
                Obj::new()
                    .field("records", report.memo.records)
                    .field("objects", report.memo.objects)
                    .field("rounds", report.memo.rounds)
                    .num("memo_off_secs", report.memo.memo_off_secs, 6)
                    .num("memo_on_secs", report.memo.memo_on_secs, 6)
                    .field("matches_memo_off", report.memo.matches_memo_off),
            )
            .field("points", points),
    )
    .to_artifact()
}

/// The `batch_scale` experiment id. When `json_path` is given, the
/// machine-readable report is written there as well — success or failure
/// of the write is reported truthfully on stdout/stderr. Panics when any
/// point diverged from its one-thread point, when a memoized round diverged
/// from its memo-off round, or when the memo phase's skewed dwell
/// stream failed its speedup (≥ 1.3×) or hit-rate (> 0.5) floor — so a
/// CI run is a live determinism *and* memoization gate, not just a
/// measurement. The JSON is written before the gates fire: a failing
/// run still leaves the evidence on disk.
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
    let m = &report.memo;
    assert!(
        m.matches_memo_off,
        "memoized rounds diverged bit-wise from memo-off rounds"
    );
    assert!(
        m.memo_speedup >= 1.3,
        "memo speedup {:.3} under the 1.3x floor on the skewed dwell stream \
         (off {:.4}s vs on {:.4}s over {} rounds)",
        m.memo_speedup,
        m.memo_off_secs,
        m.memo_on_secs,
        m.rounds,
    );
    assert!(
        m.memo_hit_rate > 0.5,
        "memo hit rate {:.3} not above 0.5 on the skewed dwell stream",
        m.memo_hit_rate,
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

        // The memoization phase: bit-identity is unconditional; the
        // skewed dwell stream must hand the shared memo a majority hit
        // rate (the wall-clock speedup floor is asserted at CI scale by
        // `batch_scale_with_json`, not at this miniature scale).
        let m = &report.memo;
        assert!(m.records > 0 && m.objects > 0);
        assert_eq!(m.rounds, MEMO_ROUNDS);
        assert!(m.matches_memo_off, "memoized rounds diverged: {m:?}");
        assert!(m.memo_hit_rate > 0.5, "hit rate too low: {m:?}");
        assert!(m.memo_bytes > 0, "no resident memo entries: {m:?}");
        assert!(m.memo_speedup > 0.0, "{m:?}");

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
            "\"memo_speedup\"",
            "\"memo_hit_rate\"",
            "\"memo_bytes\"",
            "\"matches_memo_off\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        for bad in ["inf", "NaN"] {
            assert!(!json.contains(bad), "invalid JSON token {bad} in:\n{json}");
        }
    }
}
