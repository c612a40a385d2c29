//! The `popflow-server` binary: serves the canonical load-profile
//! venue over TCP until killed.
//!
//! The venue (and therefore the engine's `IndoorSpace`) is derived
//! from `--scale`/`--seed` exactly as the `server_load` experiment's
//! reference engine derives it, so a client driving the matching
//! profile gets bit-identical deltas.

use std::sync::Arc;

use popflow_server::scenario::LoadProfile;
use popflow_server::Server;

const USAGE: &str = "\
popflow-server: TCP front-end over the popflow serving engine

USAGE: popflow-server [OPTIONS]

OPTIONS:
  --bind ADDR            listen address (default 127.0.0.1:0)
  --scale F              load-profile population scale (default 0.1)
  --seed N               load-profile seed (default 7)
  --streams N            ingest connections to wait for before
                         releasing any record (default 0)
  --budget-records N     per-pass ingest drain budget (default from
                         profile)
  --queue-records N      global ingest queue capacity (default from
                         profile)
  --help                 print this help
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run(&args) {
        eprintln!("popflow-server: {msg}");
        std::process::exit(2);
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut bind = "127.0.0.1:0".to_string();
    let mut scale = 0.1f64;
    let mut seed = 7u64;
    let mut streams = 0u32;
    let mut budget_records: Option<usize> = None;
    let mut queue_records: Option<usize> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--bind" => bind = parse(flag, it.next())?,
            "--scale" => scale = parse(flag, it.next())?,
            "--seed" => seed = parse(flag, it.next())?,
            "--streams" => streams = parse(flag, it.next())?,
            "--budget-records" => budget_records = Some(parse(flag, it.next())?),
            "--queue-records" => queue_records = Some(parse(flag, it.next())?),
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    // NaN must fail too, so compare for the accepted range directly.
    if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("--scale must be positive".to_string());
    }

    let profile = LoadProfile::new(scale, seed);
    eprintln!("popflow-server: generating load-profile venue (scale {scale}, seed {seed})...");
    let (world, _stream) = profile.build();
    let space = Arc::new(world.space);

    let mut config = profile.server_config().with_min_ingest_streams(streams);
    if let Some(r) = budget_records {
        let bytes = config.drain_budget_bytes;
        config = config.with_ingest_budget(r, bytes);
    }
    if let Some(q) = queue_records {
        config = config.with_queue_capacity(q);
    }

    let server = Server::start(space, config, &bind).map_err(|e| format!("bind {bind}: {e}"))?;
    // The address line is the readiness signal scripts wait for; keep
    // it on stdout and flushed.
    println!("popflow-server listening on {}", server.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
