//! Experiment driver: regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments [EXP-ID ...] [--scale S] [--repeats N] [--seed S]
//!             [--mc-rounds N] [--tsv PATH]
//! ```
//!
//! Experiment ids: table4 table5 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21 table7 ablation-dp
//! ablation-norm, or `all` / `real` / `synthetic` / `ablations`. An
//! unknown id or flag, or a flag value that does not parse, is a usage
//! error (exit code 2) reported before any experiment runs.
//!
//! The reported times reproduce the paper's relative comparisons;
//! performance is measured by the `bench/` harness (see its README).

use std::time::Instant;

use popflow_eval::experiments::{ablation, real, synthetic, ExpOpts};
use popflow_eval::report::{render_table, render_tsv, Row};

const REAL_EXPS: &[&str] = &[
    "table4", "table5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
];
const SYNTH_EXPS: &[&str] = &[
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "table7",
];
const ABLATIONS: &[&str] = &["ablation-dp", "ablation-norm"];

/// Whether `id` names an experiment [`run_exp`] dispatches.
fn is_known(id: &str) -> bool {
    [REAL_EXPS, SYNTH_EXPS, ABLATIONS]
        .iter()
        .any(|list| list.contains(&id))
}

fn run_exp(id: &str, opts: &ExpOpts) -> Vec<Row> {
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
        _ => unreachable!("main validates every id with is_known before running"),
    }
}

/// Reports a usage error and exits 2, before anything has run.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following a `--flag`, parsed, or a usage error (instead of
/// an index-out-of-bounds panic when the value was forgotten, or a
/// panic when it does not parse).
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    let raw = args
        .get(*i)
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")));
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse {raw:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOpts::default();
    let mut ids: Vec<String> = Vec::new();
    let mut tsv_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.scale = flag_value(&args, &mut i, "--scale");
                // NaN must fail too, so test for the accepted range.
                if !(opts.scale > 0.0 && opts.scale.is_finite()) {
                    usage_error("--scale must be a positive number");
                }
            }
            "--repeats" => opts.repeats = flag_value(&args, &mut i, "--repeats"),
            "--seed" => opts.seed = flag_value(&args, &mut i, "--seed"),
            "--mc-rounds" => {
                let r: usize = flag_value(&args, &mut i, "--mc-rounds");
                opts.mc_rounds_real = r;
                opts.mc_rounds_synthetic = r;
            }
            "--tsv" => tsv_path = Some(flag_value(&args, &mut i, "--tsv")),
            "all" => {
                ids.extend(REAL_EXPS.iter().map(|s| s.to_string()));
                ids.extend(SYNTH_EXPS.iter().map(|s| s.to_string()));
                ids.extend(ABLATIONS.iter().map(|s| s.to_string()));
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
             [--scale S] [--repeats N] [--seed S] [--mc-rounds N] [--tsv PATH]"
        );
        eprintln!("experiment ids: {REAL_EXPS:?} {SYNTH_EXPS:?} {ABLATIONS:?}");
        std::process::exit(2);
    }

    println!(
        "# popflow experiments — scale {}, repeats {}, seed {}",
        opts.scale, opts.repeats, opts.seed
    );
    let mut all_rows: Vec<Row> = Vec::new();
    for id in &ids {
        let start = Instant::now();
        let rows = run_exp(id, &opts);
        println!("\n== {id} ({:.1}s) ==", start.elapsed().as_secs_f64());
        println!("{}", render_table(&rows));
        all_rows.extend(rows);
    }
    if let Some(path) = tsv_path {
        std::fs::write(&path, render_tsv(&all_rows)).expect("failed to write TSV");
        println!("\nwrote {} rows to {path}", all_rows.len());
    }
}
