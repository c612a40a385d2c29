//! Bucket-by-bucket replay of a recorded stream, shared by the
//! `serve_demo` example and the serving equivalence tests.
//!
//! A replay cuts the stream at its bucket boundaries and advances once
//! per complete bucket, at the instant the bucket completes
//! (`bucket end + 1 ms`, the earliest moment it may legally seal). A
//! serving engine takes each slide's records through
//! [`ServeEngine::ingest_all`] and advances with one
//! [`ServeEngine::advance_all`]; the recompute baseline, which has no
//! batch path, takes them record by record.
//!
//! On top of the loop sit the paired-lockstep driver ([`replay_paired`])
//! and the observability gate it feeds ([`run_paired`],
//! [`validate_obs`]): every advance phase recorded, the phases tiling
//! ≥ 90 % of the externally measured advance wall-clock, and
//! instrumentation costing < 5 %.

use std::sync::Arc;
use std::time::Instant;

use indoor_iupt::{Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{RecordStream, StreamScenario};
use popflow_core::{ContinuousEngine, ContinuousUpdate, RecomputeEngine, WindowSpec};
use popflow_obs::Snapshot;
use popflow_serve::{metric_names, AdvanceTrace, ServeConfig, ServeEngine, ServeStats};

/// The shape of one replayed comparison.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// The replayed workload.
    pub scenario: StreamScenario,
    /// Bucket width in seconds.
    pub bucket_secs: i64,
    /// Window length in buckets (the window/bucket ratio).
    pub window_buckets: usize,
    /// Top-k size.
    pub k: usize,
    /// Serve-engine shard count.
    pub num_shards: usize,
}

impl StreamingConfig {
    /// The default comparison shape: a half-day visitor stream, 36-minute
    /// buckets, a 16-bucket window (ratio 16 ≥ 8), visits short relative
    /// to a bucket so most objects' records sit inside one bucket.
    /// `scale` multiplies the population (1.0 ≈ 3000 visitors).
    pub fn scaled(scale: f64, seed: u64) -> Self {
        StreamingConfig {
            scenario: StreamScenario {
                num_objects: ((3000.0 * scale) as usize).max(150),
                duration_secs: 12 * 3600,
                visit_secs: (60, 120),
                destination_skew: 0.9,
                dwell_cache: true,
                seed,
            },
            bucket_secs: 2160,
            window_buckets: 16,
            k: 5,
            num_shards: 4,
        }
    }

    /// The sliding window every query of the comparison uses.
    pub fn spec(&self) -> WindowSpec {
        WindowSpec::new(self.bucket_secs * 1000, self.window_buckets)
    }
}

/// One advance of a replay: its wall-clock in milliseconds and the
/// updates it returned, one per registered query in registration order.
pub type Slide = (f64, Vec<ContinuousUpdate>);

/// The top-k lists of a replay, per slide and query — what the
/// per-slide equality audits compare.
pub fn topks(replay: &[Slide]) -> Vec<Vec<Vec<SLocId>>> {
    replay
        .iter()
        .map(|(_, updates)| updates.iter().map(|u| u.outcome.topk_slocs()).collect())
        .collect()
}

/// The stream cut at its bucket boundaries: one `(now, records)` per
/// complete bucket of a `duration_secs`-long stream, where `now` is the
/// instant the bucket completes and `records` are the ones that arrived
/// since the previous slide, through `now`.
pub fn slides(
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> impl Iterator<Item = (Timestamp, Vec<Record>)> + '_ {
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration_secs));
    let mut next = 0usize;
    (0..=last_bucket).map(move |b| {
        let now = Timestamp(spec.bucket_interval(b).end.millis() + 1);
        let from = next;
        while next < stream.len() && stream.get(next).t <= now {
            next += 1;
        }
        (
            now,
            (from..next).map(|i| stream.get(i).to_record()).collect(),
        )
    })
}

/// One timed `advance_all`, its query ids dropped.
fn advance(engine: &mut ServeEngine, now: Timestamp) -> Slide {
    let t0 = Instant::now();
    let updates = engine.advance_all(now).expect("advance on a valid stream");
    let ms = t0.elapsed().as_secs_f64() * 1000.0;
    (ms, updates.into_iter().map(|(_, u)| u).collect())
}

/// Replays the stream through a serving engine: per slide one
/// `ingest_all`, then one timed `advance_all`.
pub fn replay(
    engine: &mut ServeEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> Vec<Slide> {
    slides(stream, spec, duration_secs)
        .map(|(now, records)| {
            engine
                .ingest_all(records)
                .expect("replayed records are time-ordered");
            advance(engine, now)
        })
        .collect()
}

/// Replays the stream through the recompute-per-slide baseline: per
/// slide its records one by one, then one timed advance.
pub fn replay_recompute(
    engine: &mut RecomputeEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> Vec<Slide> {
    slides(stream, spec, duration_secs)
        .map(|(now, records)| {
            for record in records {
                engine
                    .ingest(record)
                    .expect("replayed records are time-ordered");
            }
            let t0 = Instant::now();
            let update = engine.advance(now).expect("advance on a valid stream");
            (t0.elapsed().as_secs_f64() * 1000.0, vec![update])
        })
        .collect()
}

/// Drives two engines through the identical stream in lockstep: per
/// slide, both ingest the slide's records, then both advance
/// back-to-back — alternating which goes first per slide — so every
/// slide yields a latency pair measured under near-identical machine
/// conditions. This is the measurement backbone of the
/// instrumentation-overhead gate: comparing two whole sequential
/// replays instead charges allocator warm-up and machine drift to
/// whichever replay ran at the wrong moment, and at sub-millisecond
/// advance latencies those effects are the same order as the quantity
/// being measured.
///
/// Records are handed over one `ingest_all` each, alternating between
/// the engines as a live feed would deliver them, so the shards fold
/// each record while the next is fed. A whole slide in one hand-off
/// would leave that folding to the advance's wait, where both engines'
/// shard threads compete for the cores and bury the instrumentation
/// cost in scheduling noise.
pub fn replay_paired(
    a: &mut ServeEngine,
    b: &mut ServeEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> (Vec<Slide>, Vec<Slide>) {
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    for (i, (now, records)) in slides(stream, spec, duration_secs).enumerate() {
        for record in records {
            a.ingest_all([record.clone()])
                .expect("replayed records are time-ordered");
            b.ingest_all([record])
                .expect("replayed records are time-ordered");
        }
        if i % 2 == 0 {
            out_a.push(advance(a, now));
            out_b.push(advance(b, now));
        } else {
            out_b.push(advance(b, now));
            out_a.push(advance(a, now));
        }
    }
    (out_a, out_b)
}

/// Paired replays per instrumentation-overhead measurement.
const OVERHEAD_REPEATS: usize = 6;

/// What [`run_paired`] measured: an instrumented engine against its
/// metrics-off control over six paired replays.
#[derive(Debug, Clone)]
pub struct PairedRun {
    /// The first repeat's instrumented replay.
    pub on: Vec<Slide>,
    /// The first repeat's metrics-off replay.
    pub off: Vec<Slide>,
    /// Per slide, the instrumented engine's minimum advance latency
    /// across the repeats, milliseconds.
    pub min_on_ms: Vec<f64>,
    /// The same for the metrics-off control.
    pub min_off_ms: Vec<f64>,
    /// The first instrumented engine's counters at the end of its
    /// replay.
    pub stats: ServeStats,
    /// The first instrumented engine's registry at the end of its
    /// replay.
    pub snapshot: Snapshot,
    /// Internally attributed share of the externally measured advance
    /// wall-clock in the first instrumented replay: the summed
    /// [`metric_names::EAGER_PHASES`] histograms over the summed
    /// advance latencies. `None` when nothing was measured.
    pub phase_coverage: Option<f64>,
    /// The first instrumented engine's most recent [`AdvanceTrace`]s.
    pub traces: Vec<AdvanceTrace>,
}

impl PairedRun {
    /// The cost of instrumentation itself: the summed per-slide minimum
    /// advance latency with metrics on, over the same with metrics off
    /// (the gate requires < 1.05). Both latencies are deterministic work
    /// plus non-negative scheduling noise, so the minimum converges on
    /// the deterministic part — which is exactly where a real hot-path
    /// regression would live, so it still shows.
    pub fn metrics_overhead(&self) -> f64 {
        let on: f64 = self.min_on_ms.iter().sum();
        let off: f64 = self.min_off_ms.iter().sum();
        if off > 0.0 {
            on / off
        } else {
            f64::INFINITY
        }
    }
}

/// Measures instrumentation: six paired replays ([`replay_paired`]) of
/// a fresh engine built from `config` with metrics on against a fresh
/// one with metrics off, the two roles swapping lockstep position
/// each repeat — a null experiment (identical engines on both sides)
/// shows the first position consistently measures a few percent slower,
/// so a fixed assignment would charge that structural bias to one side.
/// Per slide, each side keeps its *minimum* latency across the repeats,
/// drawn from its favoured-position runs, which cancels the bias. The
/// first repeat's instrumented engine supplies the registry export,
/// phase coverage and traces.
pub fn run_paired(
    space: &Arc<IndoorSpace>,
    config: &ServeConfig,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> PairedRun {
    let mut first: Option<PairedRun> = None;
    for rep in 0..OVERHEAD_REPEATS {
        let mut on = ServeEngine::new(Arc::clone(space), config.clone().with_metrics(true));
        let mut off = ServeEngine::new(Arc::clone(space), config.clone().with_metrics(false));
        let (driven_on, driven_off) = if rep % 2 == 0 {
            replay_paired(&mut on, &mut off, stream, spec, duration_secs)
        } else {
            let (off_, on_) = replay_paired(&mut off, &mut on, stream, spec, duration_secs);
            (on_, off_)
        };
        match &mut first {
            None => {
                // `stats()` first: it refreshes the store gauges and
                // mirrors them into the registry the snapshot exports.
                let stats = on.stats();
                let snapshot = on.metrics().snapshot();
                let external_ns = driven_on.iter().map(|s| s.0).sum::<f64>() * 1e6;
                let internal_ns: u64 = metric_names::EAGER_PHASES
                    .iter()
                    .filter_map(|p| snapshot.histograms.get(*p))
                    .map(|h| h.sum)
                    .sum();
                first = Some(PairedRun {
                    min_on_ms: driven_on.iter().map(|s| s.0).collect(),
                    min_off_ms: driven_off.iter().map(|s| s.0).collect(),
                    phase_coverage: (external_ns > 0.0 && !snapshot.histograms.is_empty())
                        .then(|| internal_ns as f64 / external_ns),
                    traces: on.recent_traces().cloned().collect(),
                    on: driven_on,
                    off: driven_off,
                    stats,
                    snapshot,
                });
            }
            Some(run) => {
                for (best, s) in run.min_on_ms.iter_mut().zip(&driven_on) {
                    *best = best.min(s.0);
                }
                for (best, s) in run.min_off_ms.iter_mut().zip(&driven_off) {
                    *best = best.min(s.0);
                }
            }
        }
    }
    first.expect("at least one paired replay")
}

/// The observability gate: every advance phase
/// ([`metric_names::EAGER_PHASES`], plus the advance and ingest
/// histograms) must be present in the instrumented engine's snapshot
/// with nonzero recorded time, the per-phase breakdown must account for
/// ≥ 90 % of the externally measured advance wall-clock, and
/// instrumentation must cost < 5 % ([`PairedRun::metrics_overhead`]).
pub fn validate_obs(run: &PairedRun) -> Result<(), String> {
    let required = metric_names::EAGER_PHASES
        .iter()
        .chain([&metric_names::ADVANCE_NS, &metric_names::INGEST_NS]);
    for metric in required {
        let h = run
            .snapshot
            .histograms
            .get(*metric)
            .ok_or_else(|| format!("required metric {metric} missing from the snapshot"))?;
        if h.sum == 0 {
            return Err(format!(
                "required metric {metric} recorded zero time over {} samples",
                h.count
            ));
        }
    }
    match run.phase_coverage {
        Some(c) if c >= 0.9 => {}
        other => {
            return Err(format!(
                "phase coverage {other:?} under 0.9 — the per-phase histograms fail to account \
                 for the externally measured advance wall-clock"
            ))
        }
    }
    let overhead = run.metrics_overhead();
    if overhead.is_nan() || overhead >= 1.05 {
        return Err(format!(
            "instrumentation overhead {overhead} (paired best-case metrics-on / metrics-off \
             advance latency) is not under 1.05"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use popflow_core::{FlowConfig, QuerySet, QuerySpec};

    /// A miniature paired run: both sides agree with the recompute
    /// baseline on every slide, the incremental engine does strictly
    /// less presence work, every advance phase is recorded once per
    /// slide, and the phase gate passes with the ratio gates satisfied
    /// by hand but fails once any phase is missing or recorded zero
    /// time. The ratios themselves are not asserted: at this scale
    /// advances take microseconds and the ratios are noise; the
    /// release-mode run in `serve_demo` gates on them.
    #[test]
    fn paired_replay_records_every_phase_and_feeds_the_gate() {
        let cfg = StreamingConfig {
            scenario: StreamScenario {
                num_objects: 40,
                duration_secs: 1800,
                visit_secs: (30, 80),
                destination_skew: 0.9,
                dwell_cache: true,
                seed: 11,
            },
            bucket_secs: 150,
            window_buckets: 8,
            k: 3,
            num_shards: 2,
        };
        let (world, stream) = cfg.scenario.build();
        let space = Arc::new(world.space.clone());
        let slocs = QuerySet::new(world.space.slocs().iter().map(|s| s.id).collect());
        let flow = FlowConfig::default().with_dp_engine();
        let spec = cfg.spec();
        let duration = cfg.scenario.duration_secs;

        let mut recompute =
            RecomputeEngine::new(Arc::clone(&space), cfg.k, slocs.clone(), spec, flow);
        let baseline = replay_recompute(&mut recompute, &stream, spec, duration);
        let serve = ServeConfig::with_buckets(spec.bucket_millis)
            .with_query(QuerySpec::new(cfg.k, slocs, spec))
            .with_shards(cfg.num_shards)
            .with_flow(flow);
        let run = run_paired(&space, &serve, &stream, spec, duration);

        let slides = baseline.len();
        assert_eq!(slides, 12);
        assert_eq!(topks(&run.on), topks(&baseline), "engines diverged");
        assert_eq!(topks(&run.off), topks(&baseline), "the control diverged");
        assert_eq!(run.min_on_ms.len(), slides);
        let baseline_work: u64 = baseline
            .iter()
            .map(|(_, u)| u[0].outcome.stats.objects_computed as u64)
            .sum();
        assert!(
            run.stats.fresh_presence < baseline_work,
            "incremental did no less work: {} vs {baseline_work}",
            run.stats.fresh_presence,
        );
        assert!(run.stats.presence_cells > 0);

        assert_eq!(
            run.snapshot.histograms[metric_names::ADVANCE_NS].count,
            slides as u64
        );
        for phase in metric_names::EAGER_PHASES {
            assert_eq!(
                run.snapshot.histograms[phase].count, slides as u64,
                "{phase}"
            );
        }
        assert!(run.phase_coverage.is_some());
        assert!(!run.traces.is_empty(), "no traces retained");
        assert!(run.metrics_overhead() > 0.0, "{}", run.metrics_overhead());

        let mut gated = run.clone();
        gated.phase_coverage = Some(1.0);
        gated.min_on_ms.clone_from(&gated.min_off_ms);
        assert_eq!(validate_obs(&gated), Ok(()));
        for phase in metric_names::EAGER_PHASES {
            let mut missing = gated.clone();
            missing.snapshot.histograms.remove(phase);
            let err = validate_obs(&missing).expect_err(phase);
            assert!(err.contains("missing"), "{phase}: {err}");
            let mut zero = gated.clone();
            zero.snapshot
                .histograms
                .get_mut(phase)
                .expect("recorded")
                .sum = 0;
            let err = validate_obs(&zero).expect_err(phase);
            assert!(err.contains("zero time"), "{phase}: {err}");
        }
        let mut slow = gated.clone();
        slow.min_on_ms.iter_mut().for_each(|ms| *ms *= 1.06);
        assert!(validate_obs(&slow).is_err(), "6 % overhead must fail");
        let mut uncovered = gated;
        uncovered.phase_coverage = Some(0.89);
        assert!(validate_obs(&uncovered).is_err(), "89 % coverage must fail");
    }

    /// A run that measured nothing fails the gate instead of passing
    /// vacuously.
    #[test]
    fn an_empty_run_fails_the_gate() {
        let empty = PairedRun {
            on: Vec::new(),
            off: Vec::new(),
            min_on_ms: Vec::new(),
            min_off_ms: Vec::new(),
            stats: ServeStats::default(),
            snapshot: Snapshot::default(),
            phase_coverage: None,
            traces: Vec::new(),
        };
        assert!(empty.metrics_overhead().is_infinite());
        assert!(validate_obs(&empty).is_err());
    }
}
