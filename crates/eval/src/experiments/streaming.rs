//! Streaming throughput experiment: the incremental `popflow-serve`
//! engine vs. the recompute-per-slide baseline on an identical replayed
//! record stream — ingest throughput, advance latency (mean/p50/p99),
//! presence-work accounting, and a per-slide top-k equality audit
//! across the engines.
//!
//! The workload is a visitor-turnover venue (see
//! [`indoor_sim::StreamScenario`]): tagged visitors pass through a
//! building all day, the standing query ranks the k most popular
//! S-locations over a sliding window of whole buckets, and the window
//! advances once per bucket — at the instant the bucket completes
//! (`bucket end + 1 ms`), the earliest moment it may legally seal.

use std::sync::Arc;
use std::time::Instant;

use indoor_iupt::Timestamp;
use indoor_model::SLocId;
use indoor_sim::{RecordStream, StreamScenario, World};
use popflow_core::{ContinuousEngine, FlowConfig, QuerySet, RecomputeEngine, WindowSpec};
use popflow_obs::Snapshot;
use popflow_serve::{metric_names, AdvanceTrace, QueryId, QuerySpec, ServeConfig, ServeEngine};

use crate::report::Row;

use super::ExpOpts;

/// Full configuration of one streaming comparison.
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
    /// Concurrent registered queries for the multi-query sharing audit
    /// (≥ 2 enables it; 1 runs the classic single-query comparison
    /// only). The queries are overlapping rotations of ~¾ of the
    /// venue's locations, all registered with one registry engine and
    /// cross-checked against dedicated single-query engines.
    pub queries: usize,
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
            queries: 1,
        }
    }
}

/// Measured behaviour of one engine over the replay.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Engine display name.
    pub name: String,
    /// Records ingested.
    pub records: usize,
    /// Total wall-clock spent in `ingest` calls, seconds.
    pub ingest_secs: f64,
    /// Per-advance wall-clock latencies, milliseconds, in slide order.
    pub advance_ms: Vec<f64>,
    /// Per-slide top-k lists (for the equality audit).
    pub topks: Vec<Vec<SLocId>>,
    /// Presence computations performed across all slides, counted per
    /// object (the work the bucketing scheme saves).
    pub presence_computations: u64,
    /// Presence computations counted per (object, location) cell (0 for
    /// the recompute baseline, which does not count them).
    pub presence_cells: u64,
    /// Resident bytes of the engine's record log (columnar + interned;
    /// summed across shards) at end of replay.
    pub log_bytes: u64,
    /// Ingested sample sets the log's interner deduplicated.
    pub intern_hits: u64,
    /// End-of-replay export of the engine's internal
    /// [`MetricsRegistry`](popflow_obs::MetricsRegistry) (`None` for
    /// engines without one, e.g. the recompute baseline).
    pub snapshot: Option<Snapshot>,
    /// Internally attributed share of the externally measured advance
    /// wall-clock: the summed per-phase histograms divided by the sum of
    /// [`EngineMetrics::advance_ms`]. Near 1.0 means the phase
    /// breakdown accounts for essentially all advance time (the
    /// experiment gate requires ≥ 0.9).
    pub phase_coverage: Option<f64>,
    /// The engine's most recent [`AdvanceTrace`]s at end of replay.
    pub traces: Vec<AdvanceTrace>,
}

impl EngineMetrics {
    /// Ingest throughput, records per second.
    pub fn records_per_sec(&self) -> f64 {
        if self.ingest_secs > 0.0 {
            self.records as f64 / self.ingest_secs
        } else {
            f64::INFINITY
        }
    }

    /// Mean advance latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.advance_ms.is_empty() {
            return 0.0;
        }
        self.advance_ms.iter().sum::<f64>() / self.advance_ms.len() as f64
    }

    /// The `q` ∈ [0, 1] latency quantile in milliseconds (nearest-rank).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile_of(&self.advance_ms, q)
    }

    /// Sustained query throughput: advances per second of advance time.
    pub fn advances_per_sec(&self) -> f64 {
        let total_secs = self.advance_ms.iter().sum::<f64>() / 1000.0;
        if total_secs > 0.0 {
            self.advance_ms.len() as f64 / total_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Nearest-rank quantile over raw latency samples.
fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The outcome of one streaming comparison.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// The incremental sharded engine.
    pub incremental: EngineMetrics,
    /// The recompute-per-slide baseline's measurements.
    pub baseline: EngineMetrics,
    /// Window slides driven.
    pub slides: usize,
    /// Slides where any engine's top-k differed from the baseline's
    /// (must be 0).
    pub mismatched_slides: usize,
    /// Baseline mean advance latency / incremental mean advance latency.
    pub speedup: f64,
    /// Baseline presence computations / incremental presence
    /// computations — the machine-independent version of the speedup
    /// (per-object units).
    pub work_ratio: f64,
    /// The cost of instrumentation itself: summed per-slide best-case
    /// advance latency with metrics on, divided by the same with
    /// metrics off (the experiment gate requires < 1.05). The two
    /// engines are driven in lockstep through the identical stream
    /// ([`drive_stream_paired`]) so each slide's pair is timed
    /// back-to-back — two whole sequential replays would instead charge
    /// allocator warm-up and machine drift to whichever replay ran at
    /// the wrong moment, which at sub-millisecond advance latencies is
    /// the same order as the instrumentation cost being measured. The
    /// paired replay is repeated a few times — the two roles swapping
    /// lockstep position each repeat, since the position itself carries
    /// a structural bias — and each side keeps its per-slide *minimum*:
    /// both latencies are deterministic work plus non-negative
    /// scheduling noise, so the minimum converges on the deterministic
    /// part — which is exactly where a real hot-path regression would
    /// live, so it still shows.
    pub metrics_overhead: f64,
    /// The multi-query sharing audit, when [`StreamingConfig::queries`]
    /// ≥ 2.
    pub multi: Option<MultiQueryReport>,
}

/// The multi-query sharing audit: N overlapping queries registered with
/// ONE registry engine vs. N dedicated single-query engines over the
/// identical stream.
#[derive(Debug, Clone)]
pub struct MultiQueryReport {
    /// Queries registered concurrently.
    pub queries: usize,
    /// Presence cells the registry engine paid serving all N queries.
    pub registry_cells: u64,
    /// Presence cells the N dedicated engines paid in total.
    pub dedicated_cells: u64,
    /// `registry_cells / dedicated_cells` — below 1.0 means registered
    /// queries genuinely share sealing work instead of multiplying it
    /// (the CI gate requires < 0.9 at 4 queries).
    pub shared_work_ratio: f64,
    /// (query, slide) pairs where the registry ranking was not
    /// bit-identical to the dedicated engine's (must be 0).
    pub mismatched_slides: usize,
}

/// What [`drive_stream`] measured over one replay.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// Total wall-clock spent in `ingest` calls, seconds.
    pub ingest_secs: f64,
    /// Per-advance wall-clock latencies, milliseconds, in slide order.
    pub advance_ms: Vec<f64>,
    /// Per-slide top-k lists.
    pub topks: Vec<Vec<SLocId>>,
    /// Sum of per-slide `objects_computed` statistics.
    pub objects_computed: u64,
}

/// Drives one engine through the whole stream: per bucket, feed the
/// records through its end, then advance at the instant the bucket
/// completes (its end + 1 ms — one millisecond earlier the bucket would
/// still be open). Shared by the experiment, the `serve_demo` example,
/// and `bench_serve`.
pub fn drive_stream(
    engine: &mut dyn ContinuousEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> DriveOutcome {
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration_secs));
    let mut outcome = DriveOutcome {
        ingest_secs: 0.0,
        advance_ms: Vec::new(),
        topks: Vec::new(),
        objects_computed: 0,
    };
    let mut next = 0usize;
    for b in 0..=last_bucket {
        let now = Timestamp(spec.bucket_interval(b).end.millis() + 1);
        let t0 = Instant::now();
        while next < stream.len() && stream.get(next).t <= now {
            // Materialize per record: ownership must cross into the
            // engine (for the serve engine, across a thread boundary);
            // its interned shard log deduplicates the clone right back.
            engine
                .ingest(stream.get(next).to_record())
                .expect("replayed records are time-ordered");
            next += 1;
        }
        outcome.ingest_secs += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let update = engine.advance(now).expect("advance on a valid stream");
        outcome.advance_ms.push(t1.elapsed().as_secs_f64() * 1000.0);
        outcome.objects_computed += update.outcome.stats.objects_computed as u64;
        outcome.topks.push(update.outcome.topk_slocs());
    }
    outcome
}

/// Drives two engines through the identical stream in lockstep: per
/// bucket, both ingest the bucket's records, then both advance
/// back-to-back — alternating which goes first per slide — so every
/// slide yields a latency pair measured under near-identical machine
/// conditions. This is the measurement backbone of the
/// instrumentation-overhead gate: comparing two whole sequential
/// replays instead charges allocator warm-up and machine drift to
/// whichever replay ran at the wrong moment, and at sub-millisecond
/// advance latencies those effects are the same order as the quantity
/// being measured.
pub fn drive_stream_paired(
    a: &mut dyn ContinuousEngine,
    b: &mut dyn ContinuousEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> (DriveOutcome, DriveOutcome) {
    let empty = || DriveOutcome {
        ingest_secs: 0.0,
        advance_ms: Vec::new(),
        topks: Vec::new(),
        objects_computed: 0,
    };
    let (mut out_a, mut out_b) = (empty(), empty());
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration_secs));
    let mut next = 0usize;
    for bkt in 0..=last_bucket {
        let now = Timestamp(spec.bucket_interval(bkt).end.millis() + 1);
        while next < stream.len() && stream.get(next).t <= now {
            let t0 = Instant::now();
            a.ingest(stream.get(next).to_record())
                .expect("replayed records are time-ordered");
            out_a.ingest_secs += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            b.ingest(stream.get(next).to_record())
                .expect("replayed records are time-ordered");
            out_b.ingest_secs += t0.elapsed().as_secs_f64();
            next += 1;
        }
        let step = |engine: &mut dyn ContinuousEngine, out: &mut DriveOutcome| {
            let t1 = Instant::now();
            let update = engine.advance(now).expect("advance on a valid stream");
            out.advance_ms.push(t1.elapsed().as_secs_f64() * 1000.0);
            out.objects_computed += update.outcome.stats.objects_computed as u64;
            out.topks.push(update.outcome.topk_slocs());
        };
        if bkt % 2 == 0 {
            step(a, &mut out_a);
            step(b, &mut out_b);
        } else {
            step(b, &mut out_b);
            step(a, &mut out_a);
        }
    }
    (out_a, out_b)
}

/// One query's ranking history: per slide, the ranking as `(sloc, flow
/// bits)` pairs — the representation the bit-identity audit compares.
type RankHistory = Vec<Vec<(SLocId, u64)>>;

/// Drives a registry engine through the stream with
/// [`ServeEngine::advance_all`], collecting every registered query's
/// per-slide ranking.
fn drive_registry(
    engine: &mut ServeEngine,
    stream: &RecordStream,
    spec: WindowSpec,
    duration_secs: i64,
) -> Vec<(QueryId, RankHistory)> {
    let mut histories: Vec<(QueryId, RankHistory)> = engine
        .query_ids()
        .into_iter()
        .map(|id| (id, Vec::new()))
        .collect();
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration_secs));
    let mut next = 0usize;
    for b in 0..=last_bucket {
        let now = Timestamp(spec.bucket_interval(b).end.millis() + 1);
        while next < stream.len() && stream.get(next).t <= now {
            engine
                .ingest(stream.get(next).to_record())
                .expect("replayed records are time-ordered");
            next += 1;
        }
        let updates = engine.advance_all(now).expect("advance on a valid stream");
        for (id, update) in updates {
            let hist = histories
                .iter_mut()
                .find(|(hid, _)| *hid == id)
                .expect("an update per registered query");
            hist.1.push(
                update
                    .outcome
                    .ranking
                    .iter()
                    .map(|r| (r.sloc, r.flow.to_bits()))
                    .collect(),
            );
        }
    }
    histories
}

/// The multi-query sharing audit: register `cfg.queries` overlapping
/// location subsets (rotations of ~¾ of the venue) with one registry
/// engine, replay the stream, and cross-check every query's every slide
/// bit-for-bit against a dedicated single-query engine while comparing
/// presence-cell totals.
fn run_multi_query(
    cfg: &StreamingConfig,
    world: &World,
    stream: &RecordStream,
) -> MultiQueryReport {
    let space = Arc::new(world.space.clone());
    let slocs: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
    let spec = WindowSpec::new(cfg.bucket_secs * 1000, cfg.window_buckets);
    let flow = FlowConfig::default().with_dp_engine();
    let duration = cfg.scenario.duration_secs;
    let n = cfg.queries;
    let take = (slocs.len() * 3 / 4).max(1);
    let subsets: Vec<QuerySet> = (0..n)
        .map(|i| {
            let offset = i * slocs.len() / n;
            (0..take)
                .map(|j| slocs[(offset + j) % slocs.len()])
                .collect()
        })
        .collect();
    let base = || {
        ServeConfig::with_buckets(cfg.bucket_secs * 1000)
            .with_shards(cfg.num_shards)
            .with_flow(flow)
    };

    let mut registry_cfg = base();
    for qs in &subsets {
        registry_cfg = registry_cfg.with_query(QuerySpec::new(cfg.k, qs.clone(), spec));
    }
    let mut registry = ServeEngine::new(Arc::clone(&space), registry_cfg);
    let histories = drive_registry(&mut registry, stream, spec, duration);
    let registry_cells = registry.stats().presence_cells;
    drop(registry);

    let mut dedicated_cells = 0u64;
    let mut mismatched_slides = 0usize;
    for (qi, qs) in subsets.iter().enumerate() {
        let mut single = ServeEngine::new(
            Arc::clone(&space),
            base().with_query(QuerySpec::new(cfg.k, qs.clone(), spec)),
        );
        let solo = drive_registry(&mut single, stream, spec, duration);
        dedicated_cells += single.stats().presence_cells;
        mismatched_slides += histories[qi]
            .1
            .iter()
            .zip(&solo[0].1)
            .filter(|(registry_rank, solo_rank)| registry_rank != solo_rank)
            .count();
    }
    MultiQueryReport {
        queries: n,
        registry_cells,
        dedicated_cells,
        shared_work_ratio: if dedicated_cells > 0 {
            registry_cells as f64 / dedicated_cells as f64
        } else {
            f64::INFINITY
        },
        mismatched_slides,
    }
}

/// Collects an [`EngineMetrics`] off a driven [`ServeEngine`]: external
/// measurements from the drive outcome, internal ones — registry
/// snapshot, phase coverage, retained traces — from the engine itself.
/// Coverage is the summed internal time of the phases that tile an
/// advance ([`metric_names::EAGER_PHASES`]) over the externally measured
/// advance wall-clock.
fn serve_metrics(engine: &ServeEngine, records: usize, driven: DriveOutcome) -> EngineMetrics {
    // `stats()` first: it refreshes the store gauges and mirrors them
    // into the registry the snapshot is about to export.
    let stats = engine.stats();
    let snapshot = engine.metrics().snapshot();
    let external_ns = driven.advance_ms.iter().sum::<f64>() * 1e6;
    let internal_ns: u64 = metric_names::EAGER_PHASES
        .iter()
        .filter_map(|p| snapshot.histograms.get(*p))
        .map(|h| h.sum)
        .sum();
    let phase_coverage = (external_ns > 0.0 && !snapshot.histograms.is_empty())
        .then(|| internal_ns as f64 / external_ns);
    EngineMetrics {
        name: engine.name().to_string(),
        records,
        ingest_secs: driven.ingest_secs,
        advance_ms: driven.advance_ms,
        topks: driven.topks,
        presence_computations: stats.fresh_presence,
        presence_cells: stats.presence_cells,
        log_bytes: stats.log_bytes,
        intern_hits: stats.intern_hits,
        snapshot: Some(snapshot),
        phase_coverage,
        traces: engine.recent_traces().cloned().collect(),
    }
}

/// Runs the full comparison: generate the stream once, replay it through
/// every engine over identical bucket-aligned windows, audit every
/// slide.
pub fn run_streaming(cfg: &StreamingConfig) -> StreamingReport {
    let (world, stream) = cfg.scenario.build();
    run_streaming_on(cfg, &world, &stream)
}

/// [`run_streaming`] over an already-generated world and record stream.
pub fn run_streaming_on(
    cfg: &StreamingConfig,
    world: &World,
    stream: &RecordStream,
) -> StreamingReport {
    let space = Arc::new(world.space.clone());
    let slocs: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
    let spec = WindowSpec::new(cfg.bucket_secs * 1000, cfg.window_buckets);
    let flow = FlowConfig::default().with_dp_engine();
    let duration = cfg.scenario.duration_secs;

    let serve_cfg = ServeConfig::with_buckets(spec.bucket_millis)
        .with_query(QuerySpec::new(cfg.k, QuerySet::new(slocs.clone()), spec))
        .with_shards(cfg.num_shards)
        .with_flow(flow);

    // The recompute baseline runs *first*: besides producing the ground
    // truth for the equality audit, it warms the process (allocator,
    // page cache, branch predictors) before the paired metrics-on/off
    // replay measures the instrumentation-overhead ratio.
    let mut recompute =
        RecomputeEngine::new(Arc::clone(&space), cfg.k, QuerySet::new(slocs), spec, flow);
    let baseline_driven = drive_stream(&mut recompute, stream, spec, duration);

    // The metrics-off control: identical configuration, identical
    // stream — it cross-checks that instrumentation never perturbs
    // results. The instrumented engine and the control are driven in
    // lockstep ([`drive_stream_paired`]), repeated a few times with
    // fresh engines and the two roles swapping position each repeat —
    // a null experiment (identical engines on both sides) shows the
    // first position consistently measures a few percent slower, so a
    // fixed assignment would charge that structural bias to one side.
    // Per slide, each side keeps its *minimum* latency across the
    // repeats — drawn from its favored-position runs, cancelling the
    // bias — and the overhead estimate compares the summed minima (see
    // [`StreamingReport::metrics_overhead`]). The first repeat's
    // instrumented side supplies the engine's report metrics; its
    // control side joins the equality audit.
    const OVERHEAD_REPEATS: usize = 6;
    let mut incremental = None;
    let mut control_topks = None;
    let mut min_on: Vec<f64> = Vec::new();
    let mut min_off: Vec<f64> = Vec::new();
    for rep in 0..OVERHEAD_REPEATS {
        let mut serve = ServeEngine::new(Arc::clone(&space), serve_cfg.clone());
        let mut control =
            ServeEngine::new(Arc::clone(&space), serve_cfg.clone().with_metrics(false));
        let (driven_on, driven_off) = if rep % 2 == 0 {
            drive_stream_paired(&mut serve, &mut control, stream, spec, duration)
        } else {
            let (off, on) = drive_stream_paired(&mut control, &mut serve, stream, spec, duration);
            (on, off)
        };
        if min_on.is_empty() {
            min_on = driven_on.advance_ms.clone();
            min_off = driven_off.advance_ms.clone();
        } else {
            for (best, &ms) in min_on.iter_mut().zip(&driven_on.advance_ms) {
                *best = best.min(ms);
            }
            for (best, &ms) in min_off.iter_mut().zip(&driven_off.advance_ms) {
                *best = best.min(ms);
            }
        }
        if control_topks.is_none() {
            control_topks = Some(driven_off.topks);
        }
        if incremental.is_none() {
            incremental = Some(serve_metrics(&serve, stream.len(), driven_on));
        }
    }
    let metrics_overhead = {
        let on: f64 = min_on.iter().sum();
        let off: f64 = min_off.iter().sum();
        if off > 0.0 {
            on / off
        } else {
            f64::INFINITY
        }
    };
    let incremental = incremental.expect("at least one paired replay");
    let control_topks = control_topks.expect("at least one paired replay");

    let driven = baseline_driven;
    let baseline = EngineMetrics {
        name: recompute.name().to_string(),
        records: stream.len(),
        ingest_secs: driven.ingest_secs,
        advance_ms: driven.advance_ms,
        topks: driven.topks,
        presence_computations: driven.objects_computed,
        presence_cells: 0,
        log_bytes: recompute.store_stats().bytes as u64,
        intern_hits: recompute.store_stats().intern_hits,
        snapshot: None,
        phase_coverage: None,
        traces: Vec::new(),
    };

    let slides = baseline.topks.len();
    // The metrics-off control participates in the equality audit: a
    // divergence would mean instrumentation perturbed results.
    let mismatched_slides = (0..slides)
        .filter(|&i| {
            incremental.topks[i] != baseline.topks[i] || control_topks[i] != baseline.topks[i]
        })
        .count();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::INFINITY };
    let multi = (cfg.queries >= 2).then(|| run_multi_query(cfg, world, stream));
    StreamingReport {
        speedup: ratio(baseline.mean_ms(), incremental.mean_ms()),
        work_ratio: ratio(
            baseline.presence_computations as f64,
            incremental.presence_computations as f64,
        ),
        metrics_overhead,
        incremental,
        baseline,
        slides,
        mismatched_slides,
        multi,
    }
}

fn metrics_row(exp: &str, x: &str, m: &EngineMetrics) -> Row {
    let mut row = Row::new(exp, x, m.name.clone());
    row.time_secs = Some(m.mean_ms() / 1000.0);
    row.note = format!(
        "p50={:.2}ms p99={:.2}ms qps={:.0} ingest={:.0}rec/s presence×{} cells×{} log={}B \
         hits×{}",
        m.quantile_ms(0.50),
        m.quantile_ms(0.99),
        m.advances_per_sec(),
        m.records_per_sec(),
        m.presence_computations,
        m.presence_cells,
        m.log_bytes,
        m.intern_hits,
    );
    row
}

/// Renders a report as experiment rows.
pub fn report_rows(cfg: &StreamingConfig, report: &StreamingReport) -> Vec<Row> {
    let x = format!(
        "w/b={} objs={}",
        cfg.window_buckets, cfg.scenario.num_objects
    );
    let mut rows = vec![
        metrics_row("streaming", &x, &report.incremental),
        metrics_row("streaming", &x, &report.baseline),
    ];
    let mut summary = Row::new("streaming", &x, "speedup");
    summary.note = format!(
        "advance×{:.1} work×{:.1} slides={} mismatches={} obs-overhead×{:.3} coverage={:.0}%",
        report.speedup,
        report.work_ratio,
        report.slides,
        report.mismatched_slides,
        report.metrics_overhead,
        report.incremental.phase_coverage.unwrap_or(f64::NAN) * 100.0,
    );
    rows.push(summary);
    if let Some(m) = &report.multi {
        let mut row = Row::new("streaming", &x, "multi-query");
        row.note = format!(
            "queries={} registry-cells×{} dedicated-cells×{} shared-work-ratio={:.3} \
             mismatches={}",
            m.queries,
            m.registry_cells,
            m.dedicated_cells,
            m.shared_work_ratio,
            m.mismatched_slides
        );
        rows.push(row);
    }
    rows
}

/// Serializes a report as the machine-readable `BENCH_streaming.json`
/// payload CI archives per commit — records/s, latency percentiles,
/// work ratios, and presence counters for each engine. Hand-rolled JSON:
/// the workspace deliberately carries no serialization dependency.
pub fn bench_json(cfg: &StreamingConfig, report: &StreamingReport) -> String {
    // Ratios and throughputs divide by measured quantities that can be
    // zero (→ ∞); Json::num serializes those as null instead of
    // corrupting the artifact.
    use crate::bench_json::{Json, Obj};
    fn engine_json(m: &EngineMetrics) -> Json {
        // The internal phase breakdown: every `serve.advance*` histogram
        // of the engine's own registry (total advance plus each phase),
        // with its internally measured totals and percentiles.
        let phases = match &m.snapshot {
            Some(snap) => Json::from(
                snap.histograms
                    .iter()
                    .filter(|(name, _)| name.starts_with("serve.advance"))
                    .fold(Obj::new(), |obj, (name, h)| {
                        obj.field(
                            name.clone(),
                            Obj::new()
                                .field("total_ns", h.sum)
                                .field("count", h.count)
                                .field("p50_ns", h.quantile(0.50))
                                .field("p99_ns", h.quantile(0.99)),
                        )
                    }),
            ),
            None => Json::Null,
        };
        Obj::new()
            .field("name", m.name.clone())
            .field("records", m.records)
            .num("records_per_sec", m.records_per_sec(), 1)
            .num("advance_mean_ms", m.mean_ms(), 4)
            .num("advance_p50_ms", m.quantile_ms(0.50), 4)
            .num("advance_p99_ms", m.quantile_ms(0.99), 4)
            .num("advances_per_sec", m.advances_per_sec(), 1)
            .field("presence_computations", m.presence_computations)
            .field("presence_cells", m.presence_cells)
            .field("log_bytes", m.log_bytes)
            .field("intern_hits", m.intern_hits)
            .num("phase_coverage", m.phase_coverage.unwrap_or(f64::NAN), 4)
            .field("phases", phases)
            .into()
    }
    let (queries, shared_work_ratio, multi_mismatches) = match &report.multi {
        Some(m) => (
            m.queries,
            Json::num(m.shared_work_ratio, 3),
            Json::from(m.mismatched_slides),
        ),
        None => (cfg.queries, Json::Null, Json::Null),
    };
    Json::from(
        Obj::new()
            .field("experiment", "streaming")
            .field(
                "config",
                Obj::new()
                    .field("objects", cfg.scenario.num_objects)
                    .field("duration_secs", cfg.scenario.duration_secs)
                    .field("bucket_secs", cfg.bucket_secs)
                    .field("window_buckets", cfg.window_buckets)
                    .field("k", cfg.k)
                    .field("num_shards", cfg.num_shards)
                    .field("queries", queries)
                    .field("seed", cfg.scenario.seed),
            )
            .field("slides", report.slides)
            .field("mismatched_slides", report.mismatched_slides)
            .num("speedup", report.speedup, 3)
            .num("work_ratio", report.work_ratio, 3)
            .num("metrics_overhead", report.metrics_overhead, 4)
            .field("shared_work_ratio", shared_work_ratio)
            .field("multi_query_mismatched_slides", multi_mismatches)
            .field(
                "engines",
                vec![
                    engine_json(&report.incremental),
                    engine_json(&report.baseline),
                ],
            ),
    )
    .to_artifact()
}

/// Serializes the end-of-run telemetry export CI archives as
/// `BENCH_obs.json`: the instrumentation overhead ratio, the serve
/// engine's phase coverage, and its full registry snapshot (every
/// counter, gauge, and histogram, via [`Snapshot::to_json`]).
pub fn obs_json(report: &StreamingReport) -> String {
    use crate::bench_json::{Json, Obj};
    fn engine_snapshot(m: &EngineMetrics) -> Json {
        m.snapshot
            .as_ref()
            .map_or(Json::Null, |s| Json::raw(s.to_json()))
    }
    Json::from(
        Obj::new()
            .field("experiment", "obs")
            .num("metrics_overhead", report.metrics_overhead, 4)
            .field(
                "phase_coverage",
                Obj::new().num(
                    report.incremental.name.clone(),
                    report.incremental.phase_coverage.unwrap_or(f64::NAN),
                    4,
                ),
            )
            .field(
                "engines",
                Obj::new().field(
                    report.incremental.name.clone(),
                    engine_snapshot(&report.incremental),
                ),
            ),
    )
    .to_artifact()
}

/// The observability acceptance gates: every advance phase
/// ([`metric_names::EAGER_PHASES`], plus the advance and ingest
/// histograms) must be present in the serve engine's exported snapshot
/// with nonzero recorded time, the per-phase breakdown must account for
/// ≥ 90% of the externally measured advance wall-clock, and
/// instrumentation must cost < 5% (paired best-case metrics-on vs.
/// metrics-off advance latency).
pub fn validate_obs(report: &StreamingReport) -> Result<(), String> {
    let m = &report.incremental;
    let snap = m
        .snapshot
        .as_ref()
        .ok_or_else(|| format!("{}: no metrics snapshot exported", m.name))?;
    let required = metric_names::EAGER_PHASES
        .iter()
        .chain([&metric_names::ADVANCE_NS, &metric_names::INGEST_NS]);
    for metric in required {
        let h = snap.histograms.get(*metric).ok_or_else(|| {
            format!(
                "{}: required metric {metric} missing from the snapshot",
                m.name
            )
        })?;
        if h.sum == 0 {
            return Err(format!(
                "{}: required metric {metric} recorded zero time over {} samples",
                m.name, h.count
            ));
        }
    }
    match m.phase_coverage {
        Some(c) if c >= 0.9 => {}
        other => {
            return Err(format!(
                "{}: phase coverage {other:?} under 0.9 — the per-phase histograms fail to \
                 account for the externally measured advance wall-clock",
                m.name
            ))
        }
    }
    if report.metrics_overhead.is_nan() || report.metrics_overhead >= 1.05 {
        return Err(format!(
            "instrumentation overhead {} (paired best-case metrics-on / metrics-off \
             advance latency) is not under 1.05",
            report.metrics_overhead
        ));
    }
    Ok(())
}

/// The `streaming` experiment id: one comparison at the harness scale.
/// When `json_path` / `obs_path` are given, the machine-readable
/// benchmark report and the telemetry export are written there as well —
/// success or failure of each write is reported truthfully on
/// stdout/stderr. Exits non-zero when the multi-query sharing audit or
/// the observability gates ([`validate_obs`]) fail.
pub fn streaming_with_json(
    opts: &ExpOpts,
    json_path: Option<&str>,
    obs_path: Option<&str>,
) -> Vec<Row> {
    let mut cfg = StreamingConfig::scaled(opts.scale, opts.seed);
    cfg.queries = opts.queries.max(1);
    let report = run_streaming(&cfg);
    if let Some(path) = json_path {
        crate::bench_json::write_report(
            path,
            "machine-readable streaming report",
            &bench_json(&cfg, &report),
        );
    }
    if let Some(path) = obs_path {
        crate::bench_json::write_report(path, "telemetry export", &obs_json(&report));
    }
    // The observability gates: phase metrics present and nonzero, phase
    // coverage ≥ 0.9, instrumentation overhead < 5%.
    if let Err(why) = validate_obs(&report) {
        eprintln!("observability gates failed: {why}");
        std::process::exit(1);
    }
    // The multi-query sharing gate: concurrent registered queries must
    // genuinely share sealing work (well under 1× the dedicated cost
    // per query) and stay bit-identical to dedicated engines. The
    // comparison is written so NaN/∞ ratios fail too.
    if let Some(m) = &report.multi {
        let shares_work = m.shared_work_ratio < 0.9; // false for NaN/∞ too
        if m.mismatched_slides > 0 || !shares_work {
            eprintln!(
                "multi-query serving failed the sharing audit: {} queries, \
                 shared_work_ratio={} (require < 0.9), mismatched (query, slide) pairs={}",
                m.queries, m.shared_work_ratio, m.mismatched_slides
            );
            std::process::exit(1);
        }
    }
    report_rows(&cfg, &report)
}

/// The `streaming` experiment id without JSON artifacts.
pub fn streaming(opts: &ExpOpts) -> Vec<Row> {
    streaming_with_json(opts, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end comparison: the engines agree on every
    /// slide and the incremental engine does strictly less presence
    /// work than the baseline.
    #[test]
    fn small_streaming_report_is_consistent() {
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
            queries: 1,
        };
        let report = run_streaming(&cfg);
        assert_eq!(report.slides, 12);
        assert!(report.multi.is_none(), "one query runs no sharing audit");
        assert_eq!(report.mismatched_slides, 0, "engines diverged");
        assert!(
            report.incremental.presence_computations < report.baseline.presence_computations,
            "incremental did no less work: {} vs {}",
            report.incremental.presence_computations,
            report.baseline.presence_computations,
        );
        assert!(report.incremental.presence_cells > 0);
        assert_eq!(report.incremental.records, report.baseline.records);
        assert!(report.incremental.records > 0);

        // The internal telemetry came along: every advance phase was
        // recorded once per slide, the traces ring retained the tail of
        // the replay, and the baseline (which has no registry) exported
        // nothing. The coverage/overhead *ratio* gates are deliberately
        // not asserted here — at this miniature scale advances are
        // microseconds and the ratios are noise; the CI-scale run in
        // `streaming_with_json` asserts them.
        let m = &report.incremental;
        let snap = m
            .snapshot
            .as_ref()
            .expect("the serve engine exports a snapshot");
        assert_eq!(
            snap.histograms[metric_names::ADVANCE_NS].count,
            report.slides as u64
        );
        for phase in metric_names::EAGER_PHASES {
            assert_eq!(
                snap.histograms[phase].count, report.slides as u64,
                "{phase}"
            );
        }
        assert!(m.phase_coverage.is_some());
        assert!(!m.traces.is_empty(), "no traces retained");
        assert!(report.baseline.snapshot.is_none());
        assert!(report.metrics_overhead > 0.0, "{}", report.metrics_overhead);

        // The telemetry export is well-formed, balanced JSON.
        let obs = obs_json(&report);
        assert_eq!(
            obs.matches('{').count(),
            obs.matches('}').count(),
            "unbalanced braces:\n{obs}"
        );
        for key in [
            "\"experiment\": \"obs\"",
            "\"metrics_overhead\"",
            "\"phase_coverage\"",
            metric_names::PHASE_EVAL_RPC_NS,
            metric_names::SHARD_SEAL_NS,
        ] {
            assert!(obs.contains(key), "missing {key} in:\n{obs}");
        }

        // The phase gate: with the ratio gates satisfied by hand, the
        // report passes, and it fails once any advance phase is missing
        // from the snapshot or recorded zero time.
        let mut gated = report.clone();
        gated.incremental.phase_coverage = Some(1.0);
        gated.metrics_overhead = 1.0;
        assert_eq!(validate_obs(&gated), Ok(()));
        for phase in metric_names::EAGER_PHASES {
            let mut missing = gated.clone();
            let snap = missing.incremental.snapshot.as_mut().expect("snapshot");
            snap.histograms.remove(phase);
            let err = validate_obs(&missing).expect_err(phase);
            assert!(err.contains("missing"), "{phase}: {err}");
            let mut zero = gated.clone();
            let snap = zero.incremental.snapshot.as_mut().expect("snapshot");
            snap.histograms.get_mut(phase).expect("recorded").sum = 0;
            let err = validate_obs(&zero).expect_err(phase);
            assert!(err.contains("zero time"), "{phase}: {err}");
        }
    }

    /// The JSON artifact parses structurally: balanced braces, the four
    /// headline numbers present.
    #[test]
    fn bench_json_is_well_formed() {
        let cfg = StreamingConfig {
            scenario: StreamScenario {
                num_objects: 25,
                duration_secs: 900,
                visit_secs: (30, 60),
                destination_skew: 1.2,
                dwell_cache: true,
                seed: 3,
            },
            bucket_secs: 150,
            window_buckets: 4,
            k: 2,
            num_shards: 2,
            queries: 2,
        };
        let report = run_streaming(&cfg);
        let json = bench_json(&cfg, &report);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        for key in [
            "\"records_per_sec\"",
            "\"advance_p50_ms\"",
            "\"advance_p99_ms\"",
            "\"work_ratio\"",
            "\"shared_work_ratio\"",
            "\"queries\": 2",
            "\"multi_query_mismatched_slides\": 0",
            "\"presence_cells\"",
            "\"log_bytes\"",
            "\"intern_hits\"",
            "\"mismatched_slides\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Non-finite numbers must serialize as null, never as the
        // JSON-invalid tokens Rust's formatter would produce.
        for bad in ["inf", "NaN"] {
            assert!(!json.contains(bad), "invalid JSON token {bad} in:\n{json}");
        }
        // And a report with all-zero denominators must stay valid too.
        let empty = EngineMetrics {
            name: "empty".into(),
            records: 0,
            ingest_secs: 0.0,
            advance_ms: Vec::new(),
            topks: Vec::new(),
            presence_computations: 0,
            presence_cells: 0,
            log_bytes: 0,
            intern_hits: 0,
            snapshot: None,
            phase_coverage: None,
            traces: Vec::new(),
        };
        let degenerate = StreamingReport {
            incremental: empty.clone(),
            baseline: empty,
            slides: 0,
            mismatched_slides: 0,
            speedup: f64::INFINITY,
            work_ratio: f64::INFINITY,
            metrics_overhead: f64::NAN,
            multi: None,
        };
        let json = bench_json(&cfg, &degenerate);
        assert!(json.contains("\"speedup\": null"), "{json}");
        assert!(json.contains("\"records_per_sec\": null"), "{json}");
        assert!(json.contains("\"shared_work_ratio\": null"), "{json}");
        assert!(json.contains("\"metrics_overhead\": null"), "{json}");
        assert!(json.contains("\"phase_coverage\": null"), "{json}");
        assert!(json.contains("\"phases\": null"), "{json}");
        for bad in ["inf", "NaN"] {
            assert!(!json.contains(bad), "invalid JSON token {bad} in:\n{json}");
        }
        assert!(
            validate_obs(&degenerate).is_err(),
            "a snapshot-free report must fail the observability gates"
        );
    }

    /// The sharing audit itself: overlapping registered queries must be
    /// bit-identical to dedicated engines while paying well under 1× the
    /// dedicated presence-cell cost per query.
    #[test]
    fn multi_query_audit_shares_work_without_divergence() {
        let cfg = StreamingConfig {
            scenario: StreamScenario {
                num_objects: 40,
                duration_secs: 1800,
                visit_secs: (30, 80),
                destination_skew: 0.9,
                dwell_cache: true,
                seed: 17,
            },
            bucket_secs: 150,
            window_buckets: 6,
            k: 3,
            num_shards: 2,
            queries: 3,
        };
        let (world, stream) = cfg.scenario.build();
        let m = run_multi_query(&cfg, &world, &stream);
        assert_eq!(m.queries, 3);
        assert_eq!(m.mismatched_slides, 0, "registry diverged: {m:?}");
        assert!(m.registry_cells > 0, "audit did no work: {m:?}");
        assert!(
            m.shared_work_ratio < 0.9,
            "queries did not share sealing work: {m:?}"
        );
    }
}
