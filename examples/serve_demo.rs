//! Serving demo: a simulated day of visitor tracking replayed through
//! the sharded incremental `popflow-serve` engine, head-to-head against
//! the recompute-per-slide baseline.
//!
//! The stream is ingested in timestamp order across shard worker
//! threads; once per bucket the standing top-k query advances its
//! sliding window. Both engines evaluate identical windows and must
//! report identical rankings — the demo audits that on every slide while
//! reporting throughput and advance-latency percentiles. It also
//! registers four overlapping queries on one engine and reports how much
//! sealed-bucket work they share versus four dedicated engines.
//!
//! Run with:
//! ```text
//! cargo run --release -p popflow-eval --example serve_demo
//! ```
//! Optionally pass a population scale factor (default 0.1 ≈ 300
//! visitors): `... --example serve_demo -- 0.5`

use popflow_eval::experiments::streaming::{run_streaming, EngineMetrics, StreamingConfig};
use popflow_serve::metric_names;

fn print_engine(m: &EngineMetrics) {
    println!(
        "  {:<20} mean {:>8.3} ms   p50 {:>8.3} ms   p99 {:>8.3} ms   {:>9.0} rec/s ingest   {:>7} presence computations ({} cells)",
        m.name,
        m.mean_ms(),
        m.quantile_ms(0.50),
        m.quantile_ms(0.99),
        m.records_per_sec(),
        m.presence_computations,
        m.presence_cells,
    );
}

/// The engine's own per-phase advance breakdown, from its internal
/// metric registry (wall-clock timings above are measured externally —
/// the two views cross-check each other through `phase_coverage`).
fn print_phases(m: &EngineMetrics) {
    let Some(snap) = &m.snapshot else { return };
    let phases = metric_names::EAGER_PHASES;
    let total: u64 = phases
        .iter()
        .filter_map(|p| snap.histograms.get(*p))
        .map(|h| h.sum)
        .sum();
    println!(
        "  {} phase breakdown (internal, {:.0}% of external advance wall-clock):",
        m.name,
        m.phase_coverage.unwrap_or(f64::NAN) * 100.0,
    );
    for phase in phases {
        let Some(h) = snap.histograms.get(phase) else {
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
    // The most recent advance, attributed: which shard computed, which
    // query paid.
    if let Some(trace) = m.traces.last() {
        let busiest = trace
            .shards
            .iter()
            .max_by_key(|s| s.presence_cells)
            .map(|s| format!("shard {} ({} fresh cells)", s.shard, s.presence_cells))
            .unwrap_or_else(|| "n/a".to_string());
        let slowest = trace
            .queries
            .iter()
            .max_by_key(|q| q.ns)
            .map(|q| format!("{:.3} ms", q.ns as f64 / 1e6))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "    last advance (#{}): {:.3} ms total, busiest {}, slowest query slice {}",
            trace.seq,
            trace.total_ns as f64 / 1e6,
            busiest,
            slowest,
        );
    }
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.1);
    let mut cfg = StreamingConfig::scaled(scale, 0x5e2e);
    // Also exercise the query registry: four overlapping standing
    // queries sharing one engine, audited against dedicated engines.
    cfg.queries = 4;
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

    let report = run_streaming(&cfg);
    println!(
        "replayed {} records through both engines, {} window slides:",
        report.incremental.records, report.slides
    );
    print_engine(&report.incremental);
    print_engine(&report.baseline);
    println!();
    print_phases(&report.incremental);
    println!(
        "  instrumentation overhead: {:.3}x (paired best-case metrics-on vs metrics-off latency)",
        report.metrics_overhead,
    );
    println!(
        "\nadvance speedup: {:.1}x wall-clock, {:.1}x presence work",
        report.speedup, report.work_ratio,
    );

    if report.mismatched_slides == 0 {
        println!(
            "per-slide audit: all {} top-k lists identical across engines ✓",
            report.slides
        );
    } else {
        println!(
            "per-slide audit: {} of {} slides DIVERGED ✗",
            report.mismatched_slides, report.slides
        );
        std::process::exit(1);
    }

    if let Some(multi) = &report.multi {
        println!(
            "\nquery registry: {} overlapping queries on one engine computed {} presence \
             cells vs {} across dedicated engines ({:.2}x, lower is better)",
            multi.queries, multi.registry_cells, multi.dedicated_cells, multi.shared_work_ratio,
        );
        if multi.mismatched_slides == 0 {
            println!("multi-query audit: every registered query matched its dedicated engine ✓");
        } else {
            println!(
                "multi-query audit: {} (query, slide) pairs DIVERGED ✗",
                multi.mismatched_slides
            );
            std::process::exit(1);
        }
    }

    // The demo doubles as a smoke test: a collapsed speedup or any
    // divergence is a regression worth failing loudly on.
    if report.speedup < 2.0 {
        eprintln!(
            "warning: incremental speedup {:.2}x below the expected envelope",
            report.speedup
        );
    }
}
