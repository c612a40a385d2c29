//! The server across a real process boundary: the `popflow-server`
//! binary serves the load profile (scale 0.1, seed 42), and four
//! pipelined ingest connections drive the profile's stream into it over
//! loopback TCP. The deltas it pushes must equal an in-process engine's
//! frame for frame and bit for bit, with no protocol error,
//! backpressure exercised, and the ingest queue bounded.
//!
//! Both sides build the same venue, stream and query specs from
//! `LoadProfile::new(0.1, 42)`; that shared profile is what makes the
//! bit-identity check meaningful across the boundary.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_iupt::Record;
use popflow_server::protocol::{role, Frame};
use popflow_server::scenario::{partition_stream, reference_deltas, LoadProfile};
use popflow_server::Client;

/// Ingest connections, and the `--streams` count the server waits for.
const CONNECTIONS: usize = 4;
/// Records per ingest batch.
const BATCH_RECORDS: usize = 256;
/// Batches in flight per connection: 12 × 256 = 3,072 records, more
/// than the profile's 2,048-record queue even from one connection.
const PIPELINE: usize = 12;
/// Read timeout on every connection, so a lost frame fails the test
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The server process, killed and reaped when dropped — on every path
/// out of the test, a failed assertion included.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts the binary and waits for its readiness line
/// (`popflow-server listening on ADDR`).
fn start_server() -> (ServerProcess, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_popflow-server"))
        .args(["--bind", "127.0.0.1:0", "--scale", "0.1", "--seed", "42"])
        .args(["--streams", &CONNECTIONS.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the popflow-server binary starts");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = ServerProcess(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the readiness line");
    let addr = line
        .trim()
        .strip_prefix("popflow-server listening on ")
        .unwrap_or_else(|| panic!("no readiness line, got {line:?}"))
        .parse()
        .expect("the readiness line names a socket address");
    (server, addr)
}

fn connect(addr: SocketAddr, role: u8) -> Client {
    let client = Client::connect(addr, role).expect("connect");
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    client
}

/// One value off a Prometheus text scrape (0 when absent).
fn scraped(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (metric, value) = line.split_once(' ')?;
            (metric == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

/// Sends `records` in pipelined batches, at most [`PIPELINE`] in
/// flight, re-sending each throttled batch until it is acked (the
/// server's throttle gate admits no later batch past a refused one).
/// Returns the throttles seen.
fn drive(mut client: Client, records: &[Record]) -> usize {
    let mut throttles = 0;
    let mut outstanding: VecDeque<(u64, &[Record])> = VecDeque::new();
    let mut settle = |client: &mut Client, (seq, chunk): (u64, &[Record])| {
        while !client.wait_batch_outcome(seq).expect("batch outcome") {
            throttles += 1;
            std::thread::sleep(Duration::from_micros(500));
            client.send_batch(seq, chunk.to_vec()).expect("re-send");
        }
    };
    for (seq, chunk) in records.chunks(BATCH_RECORDS).enumerate() {
        if outstanding.len() == PIPELINE {
            let front = outstanding.pop_front().expect("a full window");
            settle(&mut client, front);
        }
        client.send_batch(seq as u64, chunk.to_vec()).expect("send");
        outstanding.push_back((seq as u64, chunk));
    }
    while let Some(front) = outstanding.pop_front() {
        settle(&mut client, front);
    }
    client.stream_end().expect("stream end");
    throttles
}

#[test]
fn server_process_pushes_bit_identical_deltas_under_backpressure() {
    let (_server, addr) = start_server();

    let profile = LoadProfile::new(0.1, 42);
    let (world, stream) = profile.build();
    let query_slocs = profile.query_slocs(&world);
    let want = reference_deltas(
        Arc::new(world.space.clone()),
        profile.serve_config(),
        &profile.query_specs(&world),
        &stream.to_records(),
    )
    .expect("reference run");
    assert!(!want.is_empty(), "the stream must produce window advances");

    let mut control = connect(addr, role::CONTROL);
    for slocs in &query_slocs {
        control
            .register(
                profile.k(),
                profile.bucket_millis(),
                profile.window_buckets() as u32,
                slocs,
            )
            .expect("register");
    }

    // Every connection says Hello before any record is sent, so the
    // merge sees all of them from the start. The first stays silent
    // until the server has refused a batch: while it is open and empty
    // it is the merge's floor, every other batch stays queued, and the
    // queue fills by construction — backpressure is reached without a
    // race against the scheduler.
    let mut holder = connect(addr, role::INGEST);
    let drivers: Vec<Client> = (0..CONNECTIONS)
        .map(|_| connect(addr, role::INGEST))
        .collect();
    let holder = std::thread::spawn(move || {
        let deadline = Instant::now() + READ_TIMEOUT;
        while scraped(&holder.metrics_text().expect("scrape"), "server_throttles") == 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        holder.stream_end().expect("holder stream end");
    });
    let parts = partition_stream(&stream, CONNECTIONS);
    let handles: Vec<_> = drivers
        .into_iter()
        .zip(parts)
        .map(|(client, part)| std::thread::spawn(move || drive(client, &part)))
        .collect();
    let throttles: usize = handles
        .into_iter()
        .map(|h| h.join().expect("ingest thread"))
        .sum();
    holder.join().expect("holder thread");

    let mut got = Vec::with_capacity(want.len());
    while got.len() < want.len() {
        got.push(
            control
                .wait_for(|f| matches!(f, Frame::TopkDelta { .. }))
                .expect("delta frame"),
        );
    }
    assert_eq!(got, want, "the server's deltas must be bit-identical");

    let scrape = control.metrics_text().expect("scrape");
    assert_eq!(scraped(&scrape, "server_protocol_errors"), 0, "{scrape}");
    assert!(throttles > 0, "a pipelined overrun never saw a Throttle");
    assert!(scraped(&scrape, "server_throttles") > 0, "{scrape}");
    let bound = profile.queue_records + CONNECTIONS * BATCH_RECORDS;
    let peak = scraped(&scrape, "server_queue_peak");
    assert!(
        peak as usize <= bound,
        "queue peak {peak} exceeds capacity {} + {CONNECTIONS} × {BATCH_RECORDS}",
        profile.queue_records
    );
}
