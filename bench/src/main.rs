//! `popbench`: popflow's benchmark. See `bench/README.md`.
//!
//! ```text
//! popbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! popbench [--seed <n>] [--seconds <s>] [--quick]    the whole suite
//! popbench --null <N> [--workload <name>] [--seed <n>]   N untraced suites: noise
//! popbench --manifest                                BENCHMARK.json, from the tables
//! ```
//!
//! A single run prints one line per metric and, last, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. The
//! suite runs each workload in a process of its own (so that peak RSS
//! is the workload's), untraced and then traced, and writes
//! `bench/out/report.json`.

mod batch;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use report::{Metrics, END_TO_END, PER_LAYER};
use spec::{Load, Spec};

/// Times set-up is repeated in an untraced run; `setup_s` is the fastest,
/// as every other timing is its operation's fastest of several.
const SETUP_REPEATS: usize = 3;
/// Fewest closed-loop replays, so that throughput is the best of
/// several and the pooled delta p90 has its ten samples beyond it.
const MIN_SATURATE_REPLAYS: usize = 6;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    null_runs: Option<usize>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        quick: false,
        null_runs: None,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--null" => {
                args.null_runs = Some(value()?.parse().map_err(|e| format!("--null: {e}"))?)
            }
            "--quick" => args.quick = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.workload, args.null_runs) {
        _ if args.manifest => {
            print!("{}", report::manifest());
            Ok(true)
        }
        (only, Some(runs)) => null(&args, runs, only.as_deref()),
        (Some(name), None) => {
            let spec = spec::find(name).ok_or(format!(
                "unknown workload {name}; known: {}",
                spec::WORKLOADS.map(|w| w.name).join(", ")
            ))?;
            single(if args.quick { spec.quick() } else { spec }, &args)
        }
        (None, None) => suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("popbench: {why}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("POPBENCH_OUT").map_or_else(|| PathBuf::from("bench/out"), PathBuf::from)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// What the role-named end-to-end metrics are on this workload.
fn alias(spec: &Spec, name: &str) -> Option<&'static str> {
    Some(match (spec.load, name) {
        (Load::Batch, "primary_ms_p50") => "bf_query_ms_p50",
        (Load::Batch, "primary_ms_p90") => "bf_query_ms_p90",
        (Load::Batch, "secondary_ms_p50") => "nl_query_ms_p50",
        (Load::Batch, "secondary_ms_p90") => "nl_query_ms_p90",
        (Load::Batch, "records_per_s") => "batch_records_per_s",
        (_, "primary_ms_p50") => "delta_latency_ms_p50",
        (_, "primary_ms_p90") => "delta_latency_ms_p90",
        (_, "secondary_ms_p50") => "admit_latency_ms_p50",
        (_, "secondary_ms_p90") => "admit_latency_ms_p90",
        (_, "records_per_s") => "wire_records_per_s",
        _ => return None,
    })
}

/// One workload, one process: the run the driver starts.
fn single(spec: Spec, args: &Args) -> Result<bool, String> {
    let (run, defs) = if args.trace {
        (traced(&spec, args)?, &PER_LAYER[..])
    } else {
        (untraced(&spec, args)?, &END_TO_END[..])
    };
    let Outcome {
        metrics,
        attempted,
        failed,
        problems,
        sizes,
    } = run;
    for p in &problems {
        eprintln!("popbench: {}: {p}", spec.name);
    }
    let missing = metrics.missing(defs);
    if !missing.is_empty() {
        return Err(format!(
            "{}: no value for {}",
            spec.name,
            missing.join(", ")
        ));
    }
    println!(
        "# {} seed {} seconds {} trace {}{}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            " (quick: not for reporting)"
        } else {
            ""
        }
    );
    metrics.print(defs, |name| alias(&spec, name));
    let correct = failed == 0 && attempted > 0;
    // Sizes and sample counts for the suite's report, then the result.
    let samples = Json::obj(
        metrics
            .0
            .iter()
            .filter_map(|m| Some((m.name, Json::from(m.n?)))),
    );
    println!(
        "{}",
        Json::obj([
            ("workload", Json::str(spec.name)),
            ("sizes", sizes),
            ("samples", samples)
        ])
    );
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics.to_json(defs))
    );
    Ok(correct)
}

/// What one run measured and found.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Why operations failed, for stderr.
    problems: Vec<String>,
    /// Workload sizes, for the suite's report.
    sizes: Json,
}

fn untraced(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    // Set-up, several times over; the last one is kept and used.
    let everything = indoor_iupt::Timestamp(i64::MAX);
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up goes first, or peak RSS would hold two.
        drop(kept.take());
        let t = Instant::now();
        let data = spec.generate(args.seed);
        let conns = match spec.load {
            Load::Batch => None,
            _ => Some(wire::prepare(spec, &data, everything)?),
        };
        setup_secs.push(t.elapsed().as_secs_f64());
        kept = Some((data, conns));
    }
    let (data, conns) = kept.ok_or("no set-up ran")?;
    let setup_s = setup_secs.iter().copied().fold(f64::INFINITY, f64::min);

    let (mut run, extra_setup_s) = match conns {
        None => (untraced_batch(spec, args, data), 0.0),
        Some(conns) => {
            let plan = wire::Plan::new(spec, &data, everything, conns)?;
            let space = std::sync::Arc::clone(&data.space);
            drop(data);
            untraced_wire(spec, args, &space, &plan)?
        }
    };
    run.metrics.put("peak_rss_mb", peak_rss_mb()?);
    run.metrics
        .put_n("setup_s", setup_s + extra_setup_s, SETUP_REPEATS);
    Ok(run)
}

fn untraced_batch(spec: &Spec, args: &Args, mut data: spec::Dataset) -> Outcome {
    let queries = if args.quick { 20 } else { batch::QUERIES };
    let run = batch::run(spec, &mut data, args.seed, args.seconds, queries);
    let mut m = Metrics::default();
    m.put_pct("primary_ms_p50", stats::percentile(&run.bf_ms, 0.5));
    m.put_pct("primary_ms_p90", stats::percentile(&run.bf_ms, 0.9));
    m.put_pct("secondary_ms_p50", stats::percentile(&run.nl_ms, 0.5));
    m.put_pct("secondary_ms_p90", stats::percentile(&run.nl_ms, 0.9));
    m.put_n("records_per_s", run.records_per_sec(), run.nl_ms.len());
    Outcome {
        metrics: m,
        attempted: run.attempted,
        failed: run.failed,
        problems: (run.failed > 0)
            .then(|| {
                format!(
                    "{} queries errored or ranked differently under NL and BF",
                    run.failed
                )
            })
            .into_iter()
            .collect(),
        sizes: Json::obj([
            ("records", Json::from(data.world.iupt.len())),
            ("slocations", Json::from(data.space.slocs().len())),
            ("queries", Json::from(run.attempted)),
            ("passes", Json::from(run.passes)),
            ("window_secs", Json::from(spec.adhoc_window_secs as u64)),
        ]),
    }
}

/// Replays `plan` for about `--seconds`; also returns the first
/// replay's server start, connect and registration time, which is
/// part of set-up.
fn untraced_wire(
    spec: &Spec,
    args: &Args,
    space: &std::sync::Arc<indoor_model::IndoorSpace>,
    plan: &wire::Plan,
) -> Result<(Outcome, f64), String> {
    // Open loop: as many whole replays as fit. Closed loop: until the
    // time is up, and never fewer than the minimum.
    let paced_replays = match spec.load {
        Load::Paced { records_per_sec } => {
            let each = plan.records as f64 / records_per_sec;
            Some(((args.seconds / each) as usize).max(1))
        }
        _ => None,
    };
    let min_closed = if args.quick { 2 } else { MIN_SATURATE_REPLAYS };
    let started = Instant::now();
    let mut replays = Vec::new();
    while match paced_replays {
        Some(n) => replays.len() < n,
        None => replays.len() < min_closed || started.elapsed().as_secs_f64() < args.seconds,
    } {
        replays.push(wire::replay(spec, space, plan)?);
    }

    let mut delta = wire::fastest(&replays, |r| &r.delta_ms);
    if delta.len() < 10 * stats::MIN_BEYOND {
        // Too few boundaries in one replay (`wire_saturate` has 19) for
        // a p90 with ten samples beyond it: take every replay's samples
        // instead of each boundary's fastest.
        delta = replays
            .iter()
            .flat_map(|r| r.delta_ms.iter().copied())
            .filter(|t| t.is_finite())
            .collect();
    }
    let admit = wire::fastest(&replays, |r| &r.admit_ms);
    let mut m = Metrics::default();
    m.put_pct("primary_ms_p50", stats::percentile(&delta, 0.5));
    m.put_pct("primary_ms_p90", stats::percentile(&delta, 0.9));
    m.put_pct("secondary_ms_p50", stats::percentile(&admit, 0.5));
    m.put_pct("secondary_ms_p90", stats::percentile(&admit, 0.9));
    let fastest_rate = replays
        .iter()
        .map(|r| r.records_per_sec)
        .fold(f64::NAN, f64::max);
    m.put_n("records_per_s", fastest_rate, replays.len());

    let mut failed: u64 = replays.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = replays.iter().flat_map(|r| r.problems.clone()).collect();
    // The latency limit of the paced workloads is on the gated tail,
    // not on every delta: the box itself stalls sometimes.
    let p90 = m.get("primary_ms_p90").unwrap_or(f64::NAN);
    if paced_replays.is_some() && (p90.is_nan() || p90 > spec::DELTA_LIMIT_MS) {
        failed += 1;
        problems.push(format!(
            "delta p90 {p90} ms misses the {} ms limit",
            spec::DELTA_LIMIT_MS
        ));
    }
    let late = replays
        .iter()
        .map(|r| r.gen_late_ms_max)
        .fold(0.0, f64::max);
    let outcome = Outcome {
        metrics: m,
        attempted: replays.iter().map(|r| r.attempted).sum(),
        failed,
        problems,
        sizes: Json::obj([
            ("records", Json::from(plan.records)),
            ("batches", Json::from(plan.batches())),
            ("boundaries", Json::from(plan.boundaries.len())),
            ("reference_deltas", Json::from(plan.want.len())),
            ("replays", Json::from(replays.len())),
            ("gen_late_ms_max", Json::Num(late)),
        ]),
    };
    Ok((outcome, replays[0].setup_secs))
}

fn traced(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut data = spec.generate(args.seed);
    let mut tracer = trace::Tracer::new();
    let (m, checks) = layers::run(spec, &mut data, args.seed, args.seconds, &mut tracer)?;
    let path = out_dir().join(format!("trace-{}.json", spec.name));
    tracer
        .write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans: {} in {}", tracer.spans().len(), path.display());
    for (name, self_ns, count) in trace::self_time_by_name(tracer.spans()) {
        println!(
            "#   self {:>10.3} ms  {count:>7} × {name}",
            self_ns as f64 / 1e6
        );
    }
    let sizes = Json::obj([
        ("records", Json::from(data.world.iupt.len())),
        ("spans", Json::from(tracer.spans().len())),
    ]);
    Ok(Outcome {
        metrics: m,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        sizes,
    })
}

/// What a child run printed: its detail line and its result line.
struct ChildRun {
    detail: Json,
    result: Json,
    ok: bool,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    // Exit 1 is a run whose checks failed: it still printed a result.
    let printed = out.status.success() || out.status.code() == Some(1);
    let (true, Some(result), Some(detail)) = (printed, lines.pop(), lines.pop()) else {
        return Err(format!(
            "{workload} printed no result (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    for line in lines {
        println!("{line}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    Ok(ChildRun {
        detail: Json::parse(detail)?,
        result: Json::parse(result)?,
        ok: out.status.success(),
    })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn envelope(args: &Args) -> Vec<(&'static str, Json)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut commit = tool_line("git", &["rev-parse", "HEAD"]);
    let changes = tool_line("git", &["status", "--porcelain"]);
    if !matches!(changes.as_str(), "" | "unknown") {
        commit.push_str("+dirty");
    }
    vec![
        ("commit", Json::str(commit)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("cores", Json::from(cores)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ]
}

/// Every workload untraced, then traced; one report.
fn suite(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut runs = Vec::new();
    for spec in &spec::WORKLOADS {
        for trace in [false, true] {
            let child = run_child(spec.name, args, trace)?;
            all_ok &= child.ok && child.result.get("correct") == Some(&Json::Bool(true));
            runs.push(Json::obj([
                ("workload", Json::str(spec.name)),
                ("trace", Json::Bool(trace)),
                ("detail", child.detail),
                ("result", child.result),
            ]));
        }
    }
    let mut doc = envelope(args);
    doc.push(("runs", Json::Arr(runs)));
    let path = out_dir().join("report.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{}\n", Json::obj(doc))).map_err(|e| e.to_string())?;
    println!("# report: {}", path.display());
    if !all_ok {
        eprintln!("popbench: at least one workload failed its checks");
    }
    Ok(all_ok)
}

/// The re-baseline step: `runs` untraced suites on this commit, then
/// each metric's median, quartiles and spread beside its bound.
fn null(args: &Args, runs: usize, only: Option<&str>) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for spec in spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|name| name == w.name))
    {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs {
            // A different seed each time, as the acceptance procedure.
            let args = Args {
                seed: args.seed + i as u64,
                workload: None,
                null_runs: None,
                ..*args
            };
            let child = run_child(spec.name, &args, false)?;
            all_ok &= child.ok;
            for (slot, def) in values.iter_mut().zip(&END_TO_END) {
                let v = child
                    .result
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{}: no {}", spec.name, def.name))?;
                slot.push(v);
            }
        }
        for (vals, def) in values.iter().zip(&END_TO_END) {
            let [q1, q2, q3] = stats::quartiles(vals).ok_or("--null needs at least 2 runs")?;
            let spread = stats::iqr_spread(vals).unwrap_or(f64::NAN);
            let bound = def.bound.unwrap_or(f64::NAN);
            rows.push(format!(
                "{:<20} {:<18} {:>12.4} {:>12.4} {:>12.4} {:<10} spread {:>6.3}  bound {:>5.2}  {}",
                spec.name,
                def.name,
                q1,
                q2,
                q3,
                def.unit,
                spread,
                bound,
                if def.name == "setup_s" {
                    "(spread not gated)"
                } else if spread <= bound / 3.0 {
                    "ok"
                } else if spread <= bound {
                    "within bound, above a third of it"
                } else {
                    "ABOVE BOUND"
                }
            ));
        }
    }
    println!(
        "# null run: {runs} runs per workload, seeds {}..{}",
        args.seed,
        args.seed + runs as u64 - 1
    );
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>12}",
        "workload", "metric", "q1", "median", "q3"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(all_ok)
}
