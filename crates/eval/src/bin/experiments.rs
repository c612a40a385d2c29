//! Experiment driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [EXP-ID ...] [--scale S] [--repeats N] [--seed S] [--tsv PATH]
//!             [--bench-json PATH] [--obs-json PATH] [--batch-json PATH]
//!             [--memory-json PATH]
//! ```
//!
//! The `streaming` experiment additionally writes a machine-readable
//! benchmark report (records/s, p50/p99 advance latency, work ratios,
//! presence cells, and — with `--queries N` ≥ 2 — the multi-query
//! `shared_work_ratio` sharing audit, which exits non-zero if concurrent
//! registered queries fail to share sealing work or diverge from
//! dedicated engines) to `--bench-json` (default `BENCH_streaming.json`),
//! and its end-of-run telemetry export (the serve engine's full metric
//! snapshot, phase coverage, and the instrumentation overhead ratio;
//! the run exits non-zero if a required phase metric is missing/zero,
//! phase coverage drops under 90%, or instrumentation costs ≥ 5%) to
//! `--obs-json` (default `BENCH_obs.json`),
//! and the `batch_scale` experiment writes its thread-scaling report
//! (records/s and speedup at 1/2/4/8 threads, one-thread-equality audit) to
//! `--batch-json` (default `BENCH_batch.json`), and the `store_footprint`
//! experiment writes the columnar store's ingest/footprint sweep
//! (records/s, bytes/record vs the row baseline, intern hit rate per
//! destination skew) to `--memory-json` (default `BENCH_memory.json`);
//! CI archives all four as per-commit artifacts.
//!
//! The `server_load` experiment (not part of `all`: it binds loopback
//! TCP listeners) drives the `popflow-server` network front-end with a
//! closed-loop multi-connection load generator — `--connections N`
//! producers, paced and saturating pipelined points — and writes
//! end-to-end batch latency quantiles, records/s, and throttle counts
//! to `--server-json` (default `BENCH_server.json`); it exits non-zero
//! unless the server's pushed top-k deltas are bit-identical to an
//! in-process `ServeEngine` on the same stream, no protocol errors
//! occurred, pipelined points saw backpressure, and queue depth stayed
//! bounded. With `--server-addr ADDR` it targets an already-running
//! `popflow-server` (started with the same `--scale`/`--seed`) instead
//! of in-process servers — the CI smoke path.
//!
//! Experiment ids: table4 table5 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 table7 ablation-dp
//! ablation-norm streaming batch_scale store_footprint server_load, or
//! `all` / `real` / `synthetic` / `ablations`. An unknown id or flag is a
//! usage error (exit code 2) reported before any experiment runs.

use std::time::Instant;

use popflow_eval::experiments::server_load::{ServerLoadOpts, ServerTarget};
use popflow_eval::experiments::{
    ablation, batch_scale, real, server_load, store_footprint, streaming, synthetic, ExpOpts,
};
use popflow_eval::report::{render_table, render_tsv, Row};

const REAL_EXPS: &[&str] = &[
    "table4", "table5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
];
const SYNTH_EXPS: &[&str] = &[
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "table7",
];
const ABLATIONS: &[&str] = &["ablation-dp", "ablation-norm"];
// `server_load` is dispatchable but deliberately not part of `all` /
// STREAMING: it binds real loopback TCP listeners and runs a
// closed-loop latency sweep, so it only runs when asked for by id
// (locally or in CI's dedicated server-smoke job).
const STREAMING: &[&str] = &["streaming", "batch_scale", "store_footprint"];
const SERVER_LOAD: &str = "server_load";

/// Whether `id` names an experiment [`run_exp`] dispatches.
fn is_known(id: &str) -> bool {
    id == SERVER_LOAD
        || [REAL_EXPS, SYNTH_EXPS, ABLATIONS, STREAMING]
            .iter()
            .any(|list| list.contains(&id))
}

/// Output paths for the machine-readable per-experiment reports.
struct ReportPaths {
    bench_json: String,
    obs_json: String,
    batch_json: String,
    memory_json: String,
    server_json: String,
}

impl Default for ReportPaths {
    fn default() -> Self {
        ReportPaths {
            bench_json: String::from("BENCH_streaming.json"),
            obs_json: String::from("BENCH_obs.json"),
            batch_json: String::from("BENCH_batch.json"),
            memory_json: String::from("BENCH_memory.json"),
            server_json: String::from("BENCH_server.json"),
        }
    }
}

fn run_exp(id: &str, opts: &ExpOpts, load: &ServerLoadOpts, paths: &ReportPaths) -> Vec<Row> {
    match id {
        "table4" => real::table4(opts),
        "table5" => real::table5(opts),
        "fig7" => real::fig7(opts),
        "fig8" => real::fig8(opts),
        "fig9" => real::fig9(opts),
        "fig10" => real::fig10(opts),
        "fig11" => real::fig11(opts),
        "fig12" => real::fig12(opts),
        "fig13" => real::fig13(opts),
        "fig14" => synthetic::fig14(opts),
        "fig15" => synthetic::fig15(opts),
        "fig16" => synthetic::fig16(opts),
        "fig17" => synthetic::fig17(opts),
        "fig18" => synthetic::fig18(opts),
        "fig19" => synthetic::fig19(opts),
        "fig20" => synthetic::fig20(opts),
        "fig21" => synthetic::fig21(opts),
        "table7" => synthetic::table7(opts),
        "ablation-dp" => ablation::ablation_dp(opts),
        "ablation-norm" => ablation::ablation_norm(opts),
        "streaming" => {
            streaming::streaming_with_json(opts, Some(&paths.bench_json), Some(&paths.obs_json))
        }
        "batch_scale" => batch_scale::batch_scale_with_json(opts, Some(&paths.batch_json)),
        "store_footprint" => {
            store_footprint::store_footprint_with_json(opts, Some(&paths.memory_json))
        }
        SERVER_LOAD => server_load::server_load_with_json(opts, load, Some(&paths.server_json)),
        _ => unreachable!("main validates every id with is_known before running"),
    }
}

/// The value following a `--flag`, or a usage error (instead of an
/// index-out-of-bounds panic when the value was forgotten).
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOpts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut tsv_path: Option<String> = None;
    let mut paths = ReportPaths::default();
    let mut load = ServerLoadOpts::default();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.scale = flag_value(&args, &mut i, "--scale")
                    .parse()
                    .expect("--scale takes a float");
            }
            "--repeats" => {
                opts.repeats = flag_value(&args, &mut i, "--repeats")
                    .parse()
                    .expect("--repeats takes an integer");
            }
            "--seed" => {
                opts.seed = flag_value(&args, &mut i, "--seed")
                    .parse()
                    .expect("--seed takes an integer");
            }
            "--mc-rounds" => {
                let r: usize = flag_value(&args, &mut i, "--mc-rounds")
                    .parse()
                    .expect("--mc-rounds takes an integer");
                opts.mc_rounds_real = r;
                opts.mc_rounds_synthetic = r;
            }
            "--queries" => {
                opts.queries = flag_value(&args, &mut i, "--queries")
                    .parse()
                    .expect("--queries takes an integer");
            }
            "--tsv" => {
                tsv_path = Some(flag_value(&args, &mut i, "--tsv").to_string());
            }
            "--bench-json" => {
                paths.bench_json = flag_value(&args, &mut i, "--bench-json").to_string();
            }
            "--obs-json" => {
                paths.obs_json = flag_value(&args, &mut i, "--obs-json").to_string();
            }
            "--batch-json" => {
                paths.batch_json = flag_value(&args, &mut i, "--batch-json").to_string();
            }
            "--memory-json" => {
                paths.memory_json = flag_value(&args, &mut i, "--memory-json").to_string();
            }
            "--server-json" => {
                paths.server_json = flag_value(&args, &mut i, "--server-json").to_string();
            }
            "--connections" => {
                load.connections = flag_value(&args, &mut i, "--connections")
                    .parse()
                    .expect("--connections takes an integer");
            }
            "--server-addr" => {
                load.target =
                    ServerTarget::External(flag_value(&args, &mut i, "--server-addr").to_string());
            }
            "all" => {
                ids.extend(REAL_EXPS.iter().map(|s| s.to_string()));
                ids.extend(SYNTH_EXPS.iter().map(|s| s.to_string()));
                ids.extend(ABLATIONS.iter().map(|s| s.to_string()));
                ids.extend(STREAMING.iter().map(|s| s.to_string()));
            }
            "real" => ids.extend(REAL_EXPS.iter().map(|s| s.to_string())),
            "synthetic" => ids.extend(SYNTH_EXPS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(ABLATIONS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    // Validate before running anything: a typo after an hour of
    // experiments must not surface as a stderr line and exit code 0.
    let unknown: Vec<&String> = ids.iter().filter(|id| !is_known(id)).collect();
    for arg in &unknown {
        if arg.starts_with('-') {
            eprintln!("unknown flag: {arg}");
        } else {
            eprintln!("unknown experiment id: {arg}");
        }
    }
    if ids.is_empty() || !unknown.is_empty() {
        eprintln!(
            "usage: experiments [EXP-ID|all|real|synthetic|ablations ...] \
             [--scale S] [--repeats N] [--seed S] [--mc-rounds N] [--queries N] \
             [--tsv PATH] [--bench-json PATH] [--obs-json PATH] [--batch-json PATH] \
             [--memory-json PATH] [--server-json PATH] [--connections N] \
             [--server-addr ADDR]"
        );
        eprintln!(
            "experiment ids: {REAL_EXPS:?} {SYNTH_EXPS:?} {ABLATIONS:?} {STREAMING:?} \
             [{SERVER_LOAD:?}]"
        );
        std::process::exit(2);
    }

    println!(
        "# popflow experiments — scale {}, repeats {}, seed {}",
        opts.scale, opts.repeats, opts.seed
    );
    let mut all_rows: Vec<Row> = Vec::new();
    for id in &ids {
        let start = Instant::now();
        let rows = run_exp(id, &opts, &load, &paths);
        println!("\n== {id} ({:.1}s) ==", start.elapsed().as_secs_f64());
        println!("{}", render_table(&rows));
        all_rows.extend(rows);
    }
    if let Some(path) = tsv_path {
        std::fs::write(&path, render_tsv(&all_rows)).expect("failed to write TSV");
        println!("\nwrote {} rows to {path}", all_rows.len());
    }
}
