//! End-to-end tests over a real loopback socket: bit-identity against
//! an in-process engine, the backpressure contract, protocol-error
//! recovery, and both metrics surfaces (binary frame and HTTP scrape).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use indoor_iupt::Record;
use indoor_model::IndoorSpace;
use indoor_sim::{RecordStream, StreamScenario};
use popflow_serve::ServeConfig;
use popflow_server::protocol::{error_code, role, Frame, FrameReader, PROTOCOL_VERSION};
use popflow_server::scenario::{partition_stream, reference_deltas};
use popflow_server::{Client, Server, ServerConfig};

/// One small shared world: 40 visitors over an hour — a few thousand
/// records, enough for several window advances.
fn world() -> &'static (Arc<IndoorSpace>, RecordStream) {
    static WORLD: OnceLock<(Arc<IndoorSpace>, RecordStream)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let scenario = StreamScenario {
            num_objects: 40,
            duration_secs: 3600,
            visit_secs: (60, 120),
            destination_skew: 0.9,
            dwell_cache: true,
            seed: 11,
        };
        let (world, stream) = scenario.build();
        (Arc::new(world.space), stream)
    })
}

const BUCKET_MILLIS: i64 = 300_000; // 5-minute buckets, 12 per stream
const WINDOW_BUCKETS: u32 = 4;

fn serve_config() -> ServeConfig {
    ServeConfig::with_buckets(BUCKET_MILLIS)
        .with_shards(2)
        .with_metrics(true)
}

fn query_slocs(space: &IndoorSpace, queries: usize) -> Vec<Vec<u32>> {
    let slocs: Vec<u32> = space.slocs().iter().map(|s| s.id.0).collect();
    let take = (slocs.len() * 3 / 4).max(1);
    (0..queries)
        .map(|i| {
            let offset = i * slocs.len() / queries;
            (0..take)
                .map(|j| slocs[(offset + j) % slocs.len()])
                .collect()
        })
        .collect()
}

/// Drives `records` through an ingest connection in `batch`-sized
/// closed-loop batches, retrying throttled batches after a short
/// pause. Returns the number of throttle frames seen.
fn drive_ingest(client: &mut Client, records: &[Record], batch: usize) -> usize {
    let mut throttles = 0usize;
    for (seq, chunk) in records.chunks(batch).enumerate() {
        let seq = seq as u64;
        loop {
            client.send_batch(seq, chunk.to_vec()).expect("send batch");
            if client.wait_batch_outcome(seq).expect("batch outcome") {
                break;
            }
            throttles += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    client.stream_end().expect("stream end");
    throttles
}

#[test]
fn server_deltas_match_in_process_engine_bit_for_bit() {
    let (space, stream) = world();
    let config = ServerConfig::new(serve_config()).with_min_ingest_streams(2);
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");
    let addr = server.local_addr();

    // Control connection registers two overlapping queries.
    let mut control = Client::connect(addr, role::CONTROL).expect("control connect");
    control
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let queries = query_slocs(space, 2);
    let mut expected_specs = Vec::new();
    for slocs in &queries {
        let qid = control
            .register(3, BUCKET_MILLIS, WINDOW_BUCKETS, slocs)
            .expect("register");
        expected_specs.push((qid, slocs.clone()));
    }

    // Two ingest connections partition the stream by object id.
    let parts = partition_stream(stream, 2);
    let handles: Vec<_> = parts
        .into_iter()
        .map(|records| {
            std::thread::spawn(move || {
                let mut ingest = Client::connect(addr, role::INGEST).expect("ingest connect");
                ingest
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("timeout");
                drive_ingest(&mut ingest, &records, 64)
            })
        })
        .collect();
    for h in handles {
        h.join().expect("ingest thread");
    }

    // The reference: same space, config, specs, and records, driven
    // in-process.
    let specs = {
        use indoor_model::SLocId;
        use popflow_core::{QuerySet, QuerySpec, WindowSpec};
        expected_specs
            .iter()
            .map(|(_, slocs)| {
                QuerySpec::new(
                    3,
                    QuerySet::new(slocs.iter().copied().map(SLocId).collect()),
                    WindowSpec::new(BUCKET_MILLIS, WINDOW_BUCKETS as usize),
                )
            })
            .collect::<Vec<_>>()
    };
    let want = reference_deltas(
        Arc::clone(space),
        serve_config(),
        &specs,
        &stream.to_records(),
    )
    .expect("reference run");
    assert!(!want.is_empty(), "the stream must produce window advances");

    // Collect exactly that many deltas off the control connection.
    let mut got = Vec::new();
    while got.len() < want.len() {
        let frame = control
            .wait_for(|f| matches!(f, Frame::TopkDelta { .. }))
            .expect("delta frame");
        got.push(frame);
    }
    assert_eq!(got, want, "server deltas must be bit-identical");
    server.shutdown();
}

/// The scrape's `server_throttles` counter.
fn scraped_throttles(text: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix("server_throttles "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Connects an ingest stream that sends no record until the server has
/// refused a batch, and then ends. While it is open and empty it is the
/// merge's floor, so every other connection's batches stay queued: the
/// queue fills by construction, however fast the scheduler drains, and
/// the throttle path is reached without a race. Join the handle before
/// reading the server's counters.
fn hold_merge_until_throttled(addr: SocketAddr) -> std::thread::JoinHandle<()> {
    let mut holder = Client::connect(addr, role::INGEST).expect("holder connect");
    holder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    std::thread::spawn(move || {
        while scraped_throttles(&holder.metrics_text().expect("scrape")) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        holder.stream_end().expect("holder stream end");
    })
}

#[test]
fn full_queue_throttles_then_recovers() {
    let (space, stream) = world();
    // A tiny queue behind a held merge: batches pile up until one is
    // refused.
    let config = ServerConfig::new(serve_config())
        .with_queue_capacity(8)
        .with_min_ingest_streams(1);
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");
    let holder = hold_merge_until_throttled(server.local_addr());

    let mut ingest = Client::connect(server.local_addr(), role::INGEST).expect("connect");
    ingest
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let records: Vec<Record> = stream.to_records().into_iter().take(64).collect();
    // Fire the whole burst without waiting — two batches fit (the
    // second through the empty-queue reserve), the rest bounce.
    let chunks: Vec<Vec<Record>> = records.chunks(4).map(<[Record]>::to_vec).collect();
    for (seq, chunk) in chunks.iter().enumerate() {
        ingest
            .send_batch(seq as u64, chunk.clone())
            .expect("send batch");
    }
    // Collect outcomes in order, re-sending throttled batches until
    // they land (per-connection time order allows it: a throttled
    // batch was never enqueued, so the watermark never passed it).
    let mut throttles = 0usize;
    for (seq, chunk) in chunks.iter().enumerate() {
        while !ingest.wait_batch_outcome(seq as u64).expect("outcome") {
            throttles += 1;
            std::thread::sleep(Duration::from_millis(5));
            ingest
                .send_batch(seq as u64, chunk.clone())
                .expect("re-send batch");
        }
    }
    ingest.stream_end().expect("stream end");
    holder.join().expect("holder thread");
    assert!(
        throttles > 0,
        "a 64-record burst into an 8-record queue must throttle"
    );

    // Every batch was eventually acked, so every record made it in:
    // the server-side counters agree.
    let snap = server.server_snapshot();
    assert_eq!(
        snap.counters.get("server.records_ingested").copied(),
        Some(records.len() as u64)
    );
    assert!(snap.counters.get("server.throttles").copied() >= Some(throttles as u64));
    let peak = snap.gauges.get("server.queue_peak").copied().unwrap_or(0);
    assert!(
        peak <= 8 + 4,
        "queue peak {peak} exceeds capacity + one in-flight batch"
    );
    server.shutdown();
}

/// Regression for the throttle-gate hole: a pipelining producer with
/// more batches than its window interleaves fresh sends with re-sends
/// of gate-refused batches. The gate must stay up until every refused
/// seq has been re-admitted in order — clearing it after the first
/// re-admission let a fresh batch slip in via the empty-queue reserve,
/// advance the watermark, and turn the remaining re-sends into
/// unrecoverable time-order rejections.
#[test]
fn pipelined_overrun_recovers_across_the_throttle_gate() {
    use std::collections::VecDeque;

    let (space, stream) = world();
    let config = ServerConfig::new(serve_config())
        .with_queue_capacity(8)
        .with_min_ingest_streams(1);
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");
    // The first window overruns the held queue, so the gate goes up
    // before anything drains; the interleaved fresh sends and re-sends
    // below keep it exercised after the hold ends.
    let holder = hold_merge_until_throttled(server.local_addr());

    let mut ingest = Client::connect(server.local_addr(), role::INGEST).expect("connect");
    ingest
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let records: Vec<Record> = stream.to_records().into_iter().take(240).collect();
    let chunks: Vec<Vec<Record>> = records.chunks(4).map(<[Record]>::to_vec).collect();
    const WINDOW: usize = 6;
    assert!(
        chunks.len() > 2 * WINDOW,
        "the stream must outlast the pipeline window"
    );

    // wait_batch_outcome now surfaces a server rejection as an Err, so
    // with the gate hole this settle loop fails fast on the time-order
    // rejection instead of hanging out the read timeout.
    let mut throttles = 0usize;
    let mut acked = 0usize;
    let mut outstanding: VecDeque<(u64, Vec<Record>)> = VecDeque::new();
    let mut settle_front = |outstanding: &mut VecDeque<(u64, Vec<Record>)>, ingest: &mut Client| {
        let Some((seq, chunk)) = outstanding.pop_front() else {
            return;
        };
        while !ingest.wait_batch_outcome(seq).expect("batch outcome") {
            throttles += 1;
            std::thread::sleep(Duration::from_millis(1));
            ingest.send_batch(seq, chunk.clone()).expect("re-send");
        }
        acked += 1;
    };
    for (seq, chunk) in chunks.iter().enumerate() {
        if outstanding.len() >= WINDOW {
            settle_front(&mut outstanding, &mut ingest);
        }
        let seq = seq as u64;
        ingest.send_batch(seq, chunk.clone()).expect("send");
        outstanding.push_back((seq, chunk.clone()));
    }
    while !outstanding.is_empty() {
        settle_front(&mut outstanding, &mut ingest);
    }
    ingest.stream_end().expect("stream end");
    holder.join().expect("holder thread");
    assert_eq!(acked, chunks.len(), "every batch must eventually ack");
    assert!(
        throttles > 0,
        "a pipelined overrun of an 8-record queue must throttle"
    );

    // Every record landed exactly once despite the re-send storm.
    let snap = server.server_snapshot();
    assert_eq!(
        snap.counters.get("server.records_ingested").copied(),
        Some(records.len() as u64)
    );
    assert_eq!(
        snap.counters
            .get("server.records_rejected")
            .copied()
            .unwrap_or(0),
        0
    );
    server.shutdown();
}

#[test]
fn malformed_frame_reports_error_and_connection_survives() {
    let (space, _) = world();
    let config = ServerConfig::new(serve_config());
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    Frame::Hello {
        version: PROTOCOL_VERSION,
        role: role::CONTROL,
    }
    .write_to(&mut stream)
    .expect("hello");
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
    assert!(matches!(
        reader.next_frame().expect("welcome").expect("frame"),
        Frame::Welcome { .. }
    ));

    // An unknown frame kind: the server answers with a protocol error
    // and keeps the connection.
    stream.write_all(&[1, 0, 0, 0, 0x7f]).expect("garbage");
    match reader.next_frame().expect("error frame").expect("frame") {
        Frame::Error { code, .. } => assert_eq!(code, error_code::PROTOCOL),
        other => panic!("expected Error, got {other:?}"),
    }

    // The same connection still serves a metrics request, and the
    // exposition carries both registries.
    Frame::MetricsRequest.write_to(&mut stream).expect("req");
    match reader.next_frame().expect("metrics").expect("frame") {
        Frame::MetricsText { text } => {
            assert!(text.contains("# TYPE server_protocol_errors counter"));
            assert!(text.contains("server_protocol_errors 1"));
            assert!(
                text.contains("serve_"),
                "scrape must include the engine registry"
            );
        }
        other => panic!("expected MetricsText, got {other:?}"),
    }
    server.shutdown();
}

/// A Register naming an S-location the venue does not have is refused
/// with REJECTED, naming the id, and the engine is not poisoned: the
/// next, valid Register on the same connection gets its handle.
#[test]
fn register_with_an_unknown_location_is_rejected_and_the_connection_survives() {
    let (space, _) = world();
    let config = ServerConfig::new(serve_config());
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");
    let mut control = Client::connect(server.local_addr(), role::CONTROL).expect("connect");
    control
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let valid = query_slocs(space, 1).remove(0);
    let unknown = space.slocs().len() as u32 + 1_000;
    let mut bad = valid.clone();
    bad.push(unknown);
    control
        .send(&Frame::Register {
            k: 3,
            bucket_millis: BUCKET_MILLIS,
            window_buckets: WINDOW_BUCKETS,
            slocs: bad,
        })
        .expect("send register");
    match control
        .wait_for(|f| matches!(f, Frame::Registered { .. } | Frame::Error { .. }))
        .expect("reply")
    {
        Frame::Error { code, detail } => {
            assert_eq!(code, error_code::REJECTED);
            assert!(detail.contains(&unknown.to_string()), "{detail}");
        }
        other => panic!("expected REJECTED, got {other:?}"),
    }
    control
        .send(&Frame::Register {
            k: 3,
            bucket_millis: BUCKET_MILLIS,
            window_buckets: WINDOW_BUCKETS,
            slocs: valid,
        })
        .expect("send register");
    assert!(matches!(
        control
            .wait_for(|f| matches!(f, Frame::Registered { .. } | Frame::Error { .. }))
            .expect("reply"),
        Frame::Registered { .. }
    ));
    server.shutdown();
}

#[test]
fn http_get_scrapes_prometheus_text() {
    let (space, _) = world();
    let config = ServerConfig::new(serve_config());
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain"));
    assert!(response.contains("# TYPE server_frames_in counter"));
    assert!(
        response.contains("# TYPE serve_records_ingested counter"),
        "scrape must include the engine registry: {response}"
    );
    server.shutdown();
}

/// The scheduler has no clock. An idle server runs no pass at all; a
/// batch is served by the pass its own arrival starts; and once it is
/// served the server is idle again.
#[test]
fn the_scheduler_sleeps_until_work_is_posted() {
    let (space, stream) = world();
    let mut server = Server::start(
        Arc::clone(space),
        ServerConfig::new(serve_config()),
        "127.0.0.1:0",
    )
    .expect("start");
    let passes = |server: &Server| server.server_snapshot().histograms["server.tick_ns"].count;

    // A control connection's Hello gives the scheduler nothing to do.
    let _control = Client::connect(server.local_addr(), role::CONTROL).expect("control connect");
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(passes(&server), 0, "an idle server ran scheduler passes");

    let mut ingest = Client::connect(server.local_addr(), role::INGEST).expect("ingest connect");
    ingest
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let records: Vec<Record> = stream.to_records().into_iter().take(16).collect();
    ingest.send_batch(0, records).expect("send batch");
    assert!(ingest.wait_batch_outcome(0).expect("outcome"), "not acked");
    // The pass that sent the ack may still be finishing.
    std::thread::sleep(Duration::from_millis(20));
    let served = passes(&server);
    assert!(served >= 1, "the batch was acked without a pass");
    let snap = server.server_snapshot();
    assert!(snap.histograms["server.tick_lag_ns"].count >= 1);

    std::thread::sleep(Duration::from_millis(100));
    assert!(
        passes(&server) <= served + 1,
        "passes ran with nothing posted: {served} → {}",
        passes(&server)
    );
    server.shutdown();
}

/// Ack accounting on the run-shaped drain. A 50-record drain budget
/// splits every 128-record batch across passes; two connections carry
/// the same timestamps, so the merge alternates between them on ties;
/// a third joins after the stream has been sealed and sends one batch
/// whose head is late. Every `BatchAck` must carry exactly the counts
/// one `ingest_all` per record gives an in-process engine, the server's
/// counters must add up, and the deltas must stay bit-identical.
///
/// (Over the wire a late record can only sit at the *head* of a
/// connection's stream: a batch that breaks its own connection's time
/// order is refused whole, and the merge never reorders. A late record
/// behind accepted ones in the same engine call is
/// `tests/ingest_equivalence.rs`'s case.)
#[test]
fn acks_count_what_the_engine_took_across_ticks_ties_and_late_records() {
    use indoor_iupt::{ObjectId, Timestamp};
    use indoor_model::SLocId;
    use popflow_core::{QuerySet, QuerySpec, WindowSpec};
    use popflow_serve::ServeEngine;
    use popflow_server::scenario::delta_frame;

    const BATCH: usize = 128;
    let (space, stream) = world();
    let config = ServerConfig::new(serve_config())
        .with_ingest_budget(50, 1 << 20)
        .with_min_ingest_streams(2);
    let mut server = Server::start(Arc::clone(space), config, "127.0.0.1:0").expect("start");
    let addr = server.local_addr();
    let timeout = Some(Duration::from_secs(10));

    let mut control = Client::connect(addr, role::CONTROL).expect("control connect");
    control.set_read_timeout(timeout).expect("timeout");
    let queries = query_slocs(space, 2);
    for slocs in &queries {
        control
            .register(3, BUCKET_MILLIS, WINDOW_BUCKETS, slocs)
            .expect("register");
    }
    let specs: Vec<QuerySpec> = queries
        .iter()
        .map(|slocs| {
            QuerySpec::new(
                3,
                QuerySet::new(slocs.iter().copied().map(SLocId).collect()),
                WindowSpec::new(BUCKET_MILLIS, WINDOW_BUCKETS as usize),
            )
        })
        .collect();

    // Connection A carries the stream, connection B a copy under other
    // object ids: every timestamp is tied across the two.
    let first = stream.to_records();
    let second: Vec<Record> = first
        .iter()
        .map(|r| Record {
            oid: ObjectId(r.oid.0 + 10_000),
            ..r.clone()
        })
        .collect();
    // The merge's order: by time, the lower connection id on ties,
    // arrival order within a connection — a stable sort of A then B.
    let mut merged: Vec<Record> = first.iter().chain(&second).cloned().collect();
    merged.sort_by_key(|r| r.t);

    // The reference: one `ingest_all` per record on an in-process engine.
    let mut reference = ServeEngine::new(Arc::clone(space), serve_config());
    for spec in &specs {
        reference.register(spec.clone()).expect("register");
    }
    for r in &merged {
        reference.ingest_all([r.clone()]).expect("merged order");
    }
    let deltas_of = |engine: &mut ServeEngine| -> Vec<Frame> {
        let (runs, _) = engine
            .advance_due(Timestamp(i64::MAX), None, usize::MAX)
            .expect("advances");
        runs.into_iter()
            .flat_map(|(t, updates)| {
                updates
                    .into_iter()
                    .map(move |(qid, update)| delta_frame(qid, t, &update))
            })
            .collect()
    };
    let want_stream = deltas_of(&mut reference);
    assert!(!want_stream.is_empty(), "the stream must produce advances");

    // A connects (and is welcomed) before B, so it holds the lower id.
    let connect = || {
        let client = Client::connect(addr, role::INGEST).expect("ingest connect");
        client.set_read_timeout(timeout).expect("timeout");
        client
    };
    /// Sends `records` in closed-loop batches; returns each ack's
    /// `(accepted, rejected)`.
    fn send_all(client: &mut Client, records: &[Record]) -> Vec<(u32, u32)> {
        let acks = records
            .chunks(BATCH)
            .enumerate()
            .map(|(seq, chunk)| {
                let seq = seq as u64;
                client.send_batch(seq, chunk.to_vec()).expect("send batch");
                match client
                    .wait_for(|f| matches!(f, Frame::BatchAck { seq: s, .. } if *s == seq))
                    .expect("ack")
                {
                    Frame::BatchAck {
                        accepted, rejected, ..
                    } => (accepted, rejected),
                    other => panic!("expected BatchAck, got {other:?}"),
                }
            })
            .collect();
        client.stream_end().expect("stream end");
        acks
    }
    let a = connect();
    let b = connect();
    assert!(a.conn_id() < b.conn_id());
    let handles: Vec<_> = [(a, first.clone()), (b, second)]
        .into_iter()
        .map(|(mut client, records)| std::thread::spawn(move || send_all(&mut client, &records)))
        .collect();
    for h in handles {
        let acks = h.join().expect("ingest thread");
        let want: Vec<(u32, u32)> = first.chunks(BATCH).map(|c| (c.len() as u32, 0)).collect();
        assert_eq!(acks, want, "an ordered stream is accepted whole");
    }
    let next_delta = |control: &mut Client| {
        control
            .wait_for(|f| matches!(f, Frame::TopkDelta { .. }))
            .expect("delta frame")
    };
    let got: Vec<Frame> = want_stream
        .iter()
        .map(|_| next_delta(&mut control))
        .collect();
    assert_eq!(got, want_stream, "stream deltas must be bit-identical");

    // Both streams ended, so the last delta above sealed the bucket
    // holding the stream's last record. C's first 40 records fall
    // before that frontier.
    let t_last = merged.last().expect("records").t.millis();
    let frontier = (t_last.div_euclid(BUCKET_MILLIS) + 1) * BUCKET_MILLIS;
    let tail: Vec<Record> = (0..BATCH as i64)
        .map(|i| Record {
            oid: ObjectId(20_000 + i as u32),
            t: Timestamp(frontier - 40 + i),
            samples: first[i as usize].samples.clone(),
        })
        .collect();
    let rejected = tail
        .iter()
        .filter(|r| reference.ingest_all([(*r).clone()]).is_err())
        .count() as u32;
    assert_eq!(rejected, 40);
    let want_tail = deltas_of(&mut reference);
    assert!(!want_tail.is_empty(), "the tail must open a new bucket");

    let mut c = connect();
    let acks = send_all(&mut c, &tail);
    assert_eq!(acks, vec![(BATCH as u32 - rejected, rejected)]);
    let got: Vec<Frame> = want_tail.iter().map(|_| next_delta(&mut control)).collect();
    assert_eq!(got, want_tail, "tail deltas must be bit-identical");

    let snap = server.server_snapshot();
    assert_eq!(
        snap.counters.get("server.records_ingested").copied(),
        Some((merged.len() + BATCH) as u64 - u64::from(rejected))
    );
    assert_eq!(
        snap.counters.get("server.records_rejected").copied(),
        Some(u64::from(rejected))
    );
    // One `server.ingest_ns` sample per hand-off: with a 50-record
    // budget there are at least records / 50 of them, and far fewer
    // than one per record.
    let handoffs = snap.histograms["server.ingest_ns"].count;
    let records = (merged.len() + BATCH) as u64;
    assert!(
        handoffs >= records / 50 && handoffs < records / 4,
        "{handoffs} hand-offs for {records} records"
    );
    server.shutdown();
}
