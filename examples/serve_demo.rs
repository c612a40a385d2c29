//! Serving demo: a simulated day of visitor tracking replayed through
//! the sharded incremental `popflow-serve` engine, head-to-head against
//! the recompute-per-slide baseline.
//!
//! Once per bucket the standing top-k query advances its sliding
//! window. Both engines evaluate identical windows and must report
//! identical rankings — the demo audits that on every slide while
//! reporting advance latency and presence work. The serve side runs as
//! the observability gate's paired replay: an instrumented engine in
//! lockstep with a metrics-off control, six times, roles swapped each
//! time. The demo exits non-zero if any slide diverges (the control
//! included) or the gate fails: an advance phase missing or recording
//! zero time, phase coverage under 90 %, or instrumentation costing
//! 5 % or more.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example serve_demo
//! ```
//! Optionally pass a population scale factor (default 0.05, the gate's
//! stream: 150 visitors, seed 42): `... --example serve_demo -- 0.5`

use std::sync::Arc;

use popflow_core::{FlowConfig, QuerySet, QuerySpec, RecomputeEngine};
use popflow_eval::replay::{
    replay_recompute, run_paired, topks, validate_obs, PairedRun, StreamingConfig,
};
use popflow_serve::{metric_names, ServeConfig};

/// Nearest-rank quantile of a latency series, ms.
fn quantile(ms: &[f64], q: f64) -> f64 {
    let mut sorted = ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

fn print_latency(name: &str, ms: &[f64], work: u64) {
    println!(
        "  {:<28} mean {:>8.3} ms   p50 {:>8.3} ms   p99 {:>8.3} ms   {:>7} presence computations",
        name,
        ms.iter().sum::<f64>() / ms.len().max(1) as f64,
        quantile(ms, 0.50),
        quantile(ms, 0.99),
        work,
    );
}

/// The engine's own per-phase advance breakdown, from its internal
/// metric registry (the latencies above are measured externally — the
/// two views cross-check each other through the phase coverage).
fn print_phases(run: &PairedRun) {
    let phases = metric_names::EAGER_PHASES;
    let total: u64 = phases
        .iter()
        .filter_map(|p| run.snapshot.histograms.get(*p))
        .map(|h| h.sum)
        .sum();
    println!(
        "  phase breakdown (internal, {:.0}% of external advance wall-clock):",
        run.phase_coverage.unwrap_or(f64::NAN) * 100.0,
    );
    for phase in phases {
        let Some(h) = run.snapshot.histograms.get(phase) else {
            continue;
        };
        println!(
            "    {:<32} {:>5.1}%   total {:>9.3} ms   p99 {:>9.3} ms",
            phase,
            100.0 * h.sum as f64 / total.max(1) as f64,
            h.sum as f64 / 1e6,
            h.quantile(0.99) as f64 / 1e6,
        );
    }
    // The most recent advance, attributed: which shard computed most.
    if let Some(trace) = run.traces.last() {
        let busiest = trace
            .shards
            .iter()
            .max_by_key(|s| s.presence_cells)
            .map(|s| format!("shard {} ({} fresh cells)", s.shard, s.presence_cells))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "    last advance (#{}): {:.3} ms total, busiest {}",
            trace.seq,
            trace.total_ns as f64 / 1e6,
            busiest,
        );
    }
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.05);
    let cfg = StreamingConfig::scaled(scale, 42);
    println!(
        "streaming a simulated day: {} visitors over {} h, visits {}–{} s",
        cfg.scenario.num_objects,
        cfg.scenario.duration_secs / 3600,
        cfg.scenario.visit_secs.0,
        cfg.scenario.visit_secs.1,
    );
    println!(
        "standing query: top-{} over a {}-bucket window of {} s buckets ({} shards)\n",
        cfg.k, cfg.window_buckets, cfg.bucket_secs, cfg.num_shards,
    );

    let (world, stream) = cfg.scenario.build();
    let space = Arc::new(world.space.clone());
    let slocs = QuerySet::new(world.space.slocs().iter().map(|s| s.id).collect());
    let spec = cfg.spec();
    let flow = FlowConfig::default().with_dp_engine();
    let duration = cfg.scenario.duration_secs;

    // The recompute baseline runs first: besides producing the ground
    // truth for the audit, it warms the process (allocator, page cache,
    // branch predictors) before the paired replays time anything.
    let mut recompute = RecomputeEngine::new(Arc::clone(&space), cfg.k, slocs.clone(), spec, flow);
    let baseline = replay_recompute(&mut recompute, &stream, spec, duration);
    let serve = ServeConfig::with_buckets(spec.bucket_millis).with_shards(cfg.num_shards);
    let query = QuerySpec::new(cfg.k, slocs, spec);
    let run = run_paired(&space, &serve, &query, &stream, duration);

    let base_ms: Vec<f64> = baseline.iter().map(|s| s.0).collect();
    let base_work: u64 = baseline
        .iter()
        .flat_map(|(_, updates)| updates)
        .map(|u| u.outcome.stats.objects_computed as u64)
        .sum();
    println!(
        "replayed {} records through both engines, {} window slides:",
        stream.len(),
        baseline.len()
    );
    print_latency(
        "popflow-serve (best of 6)",
        &run.min_on_ms,
        run.stats.fresh_presence,
    );
    print_latency("recompute-nl", &base_ms, base_work);
    println!();
    print_phases(&run);
    println!(
        "  instrumentation overhead: {:.3}x (paired best-case metrics-on vs metrics-off latency)",
        run.metrics_overhead(),
    );
    println!(
        "\nadvance speedup: {:.1}x wall-clock, {:.1}x presence work",
        base_ms.iter().sum::<f64>() / run.min_on_ms.iter().sum::<f64>(),
        base_work as f64 / run.stats.fresh_presence as f64,
    );

    // The metrics-off control joins the audit: a divergence would mean
    // instrumentation perturbed results.
    let want = topks(&baseline);
    let diverged = want
        .iter()
        .zip(topks(&run.on))
        .zip(topks(&run.off))
        .filter(|((want, on), off)| on != *want || off != *want)
        .count();
    let mut failed = false;
    if diverged == 0 {
        println!(
            "per-slide audit: all {} top-k lists identical across engines ✓",
            want.len()
        );
    } else {
        println!(
            "per-slide audit: {diverged} of {} slides DIVERGED ✗",
            want.len()
        );
        failed = true;
    }
    match validate_obs(&run) {
        Ok(()) => println!("observability gate: passed ✓"),
        Err(why) => {
            println!("observability gate: FAILED ✗ — {why}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
