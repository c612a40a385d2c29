//! The wire workloads: a stream replayed over TCP into an in-process
//! `popflow-server`, timed from the client side of the socket.
//!
//! Per replay there are two ingest connections (a sender and an ack
//! reader thread each) and one control connection that registers the
//! standing queries and then only reads `TopkDelta` frames, stamping
//! each on arrival.
//!
//! **Open loop** (`Load::Paced`): the stream's own clock is replayed
//! sped up by a constant factor chosen so that the mean rate is the
//! workload's records per second. A batch is *due* when its last record
//! is created under that clock. Every latency is taken from the due
//! time, never from the actual send, so a stall is charged to every
//! batch it delays; how late the generator ran is reported.
//!
//! **Closed loop** (`Load::Saturate`): each connection sends as fast as
//! its window of unacknowledged batches allows, and latencies are taken
//! from the actual send.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use indoor_iupt::{Record, Timestamp};
use indoor_model::IndoorSpace;
use popflow_serve::ServeConfig;
use popflow_server::protocol::{role, Frame, FrameReader, PROTOCOL_VERSION};
use popflow_server::scenario::{partition_stream, reference_deltas};
use popflow_server::{Client, Server, ServerConfig};

use crate::spec::{
    Dataset, Load, Spec, BATCH_RECORDS, INFLIGHT_BATCHES, INGEST_CONNS, K, NUM_SHARDS,
    WARMUP_BOUNDARIES,
};

/// The engine configuration behind every server and reference run.
pub fn serve_config(spec: &Spec) -> ServeConfig {
    ServeConfig::with_buckets(spec.bucket_millis).with_shards(NUM_SHARDS)
}

/// Library defaults, plus the gate that holds the merge until both
/// ingest connections have said hello.
pub fn server_config(spec: &Spec) -> ServerConfig {
    ServerConfig::new(serve_config(spec)).with_min_ingest_streams(INGEST_CONNS as u32)
}

/// One ingest connection's share of the stream, ready to send.
pub struct ConnPlan {
    /// Length-prefixed `IngestBatch` frames, sequence numbers `0..`.
    pub frames: Vec<Vec<u8>>,
    /// Event time of each batch's last record.
    pub last_t: Vec<i64>,
    /// Seconds after replay start at which each batch is due (open
    /// loop only).
    pub due_secs: Option<Vec<f64>>,
    pub records: usize,
}

/// A stream partitioned, batched and encoded once, replayed many times.
pub struct Plan {
    pub conns: Vec<ConnPlan>,
    pub records: usize,
    /// The deltas an in-process engine pushes for this stream.
    pub want: Vec<Frame>,
    /// Distinct advance instants of `want`, ascending.
    pub boundaries: Vec<i64>,
    /// Per boundary, per connection, the batch whose admission lets the
    /// server's watermark pass the boundary; `None` where a connection
    /// has no record at or after it (only `StreamEnd` releases those,
    /// and they are not timed).
    pub triggers: Vec<Option<Vec<usize>>>,
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame
        .write_to(&mut out)
        .expect("a 128-record batch is far below the frame cap");
    out
}

/// For each boundary, per connection, the index of the batch holding
/// that connection's first record with `t ≥ boundary`: the first batch
/// whose last record is at or after the boundary, since a connection's
/// records are in time order.
pub fn trigger_batches(last_t: &[&[i64]], boundaries: &[i64]) -> Vec<Option<Vec<usize>>> {
    boundaries
        .iter()
        .map(|&b| {
            last_t
                .iter()
                .map(|conn| {
                    let i = conn.partition_point(|&t| t < b);
                    (i < conn.len()).then_some(i)
                })
                .collect()
        })
        .collect()
}

/// When the server can first release a boundary: the latest, over the
/// connections, of the time stamped on each connection's trigger batch.
pub fn trigger_time(trigger: &[usize], stamps: &[&[f64]]) -> f64 {
    trigger
        .iter()
        .zip(stamps)
        .map(|(&i, conn)| conn[i])
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Partitions the stream over the ingest connections, cuts it into
/// batches, encodes them and, open loop, fixes their due times. Records
/// at or after `cut` are left out. This is the generator's share of
/// set-up.
pub fn prepare(spec: &Spec, data: &Dataset, cut: Timestamp) -> Result<Vec<ConnPlan>, String> {
    let stream = data.stream();
    let mut parts = partition_stream(&stream, INGEST_CONNS);
    drop(stream);
    for part in &mut parts {
        let keep = part.partition_point(|r| r.t < cut);
        part.truncate(keep);
    }
    let records: usize = parts.iter().map(Vec::len).sum();
    let first = parts.iter().filter_map(|p| p.first());
    let t0 = first
        .map(|r| r.t.millis())
        .min()
        .ok_or("the stream is empty")?;
    let last = parts.iter().filter_map(|p| p.last());
    let t1 = last.map(|r| r.t.millis()).max().unwrap_or(t0);
    // Sped-up stream clock: event millis per wall second.
    let speed = match spec.load {
        Load::Paced { records_per_sec } => {
            Some((t1 - t0).max(1) as f64 / (records as f64 / records_per_sec))
        }
        _ => None,
    };
    Ok(parts
        .into_iter()
        .map(|part| {
            let batches = part.len().div_ceil(BATCH_RECORDS);
            let mut frames = Vec::with_capacity(batches);
            let mut last_t = Vec::with_capacity(batches);
            for (seq, chunk) in part.chunks(BATCH_RECORDS).enumerate() {
                last_t.push(chunk[chunk.len() - 1].t.millis());
                frames.push(frame_bytes(&Frame::IngestBatch {
                    seq: seq as u64,
                    records: chunk.to_vec(),
                }));
            }
            let due_secs = speed.map(|s| last_t.iter().map(|&t| (t - t0) as f64 / s).collect());
            ConnPlan {
                frames,
                last_t,
                due_secs,
                records: part.len(),
            }
        })
        .collect())
}

/// The timestamp at which a stream capped to about `prefix_records`
/// ends: a whole timestamp, so that the partitions and the reference
/// see the same records. `Timestamp(i64::MAX)` when nothing is cut.
pub fn cut_after(data: &Dataset, prefix_records: usize) -> Timestamp {
    let table = &data.world.iupt;
    if prefix_records < table.len() {
        table.view(prefix_records as u32).t
    } else {
        Timestamp(i64::MAX)
    }
}

impl Plan {
    /// Pairs prepared connections with the reference deltas of the same
    /// records (those before `cut`).
    pub fn new(
        spec: &Spec,
        data: &Dataset,
        cut: Timestamp,
        conns: Vec<ConnPlan>,
    ) -> Result<Plan, String> {
        let records: Vec<Record> = data
            .world
            .iupt
            .iter()
            .take_while(|r| r.t < cut)
            .map(|r| r.to_record())
            .collect();
        let want = reference_deltas(
            Arc::clone(&data.space),
            serve_config(spec),
            &spec.standing_specs(&data.space),
            &records,
        )
        .map_err(|e| format!("reference run: {e}"))?;
        drop(records);
        let mut boundaries: Vec<i64> = want
            .iter()
            .filter_map(|f| match f {
                Frame::TopkDelta { advance_millis, .. } => Some(*advance_millis),
                _ => None,
            })
            .collect();
        boundaries.dedup();
        if boundaries.is_empty() {
            return Err("the reference stream produced no window advances".to_string());
        }
        let last_t: Vec<&[i64]> = conns.iter().map(|c| c.last_t.as_slice()).collect();
        let triggers = trigger_batches(&last_t, &boundaries);
        Ok(Plan {
            records: conns.iter().map(|c| c.records).sum(),
            conns,
            want,
            boundaries,
            triggers,
        })
    }

    pub fn batches(&self) -> usize {
        self.conns.iter().map(|c| c.frames.len()).sum()
    }
}

/// Sends batches `0..n` through `send`, each no earlier than its due
/// time (when there are due times), and returns the second each send
/// started, measured from `start`. A send that blocks delays every
/// later batch; nothing is skipped to catch up.
pub fn pace(
    start: Instant,
    n: usize,
    due_secs: Option<&[f64]>,
    mut send: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut sent_at = Vec::with_capacity(n);
    for i in 0..n {
        if let Some(due) = due_secs {
            let wait = due[i] - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        }
        sent_at.push(start.elapsed().as_secs_f64());
        send(i)?;
    }
    Ok(sent_at)
}

/// What one ingest connection observed.
struct ConnOutcome {
    sent_at: Vec<f64>,
    /// Second each batch's `BatchAck` arrived; NaN if it never did.
    acked_at: Vec<f64>,
    throttled: u64,
    rejected_records: u64,
}

fn drive_connection(addr: &str, plan: &ConnPlan, start: Instant) -> Result<ConnOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("ingest connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = FrameReader::new(stream);
    Frame::Hello {
        version: PROTOCOL_VERSION,
        role: role::INGEST,
    }
    .write_to(&mut writer)
    .map_err(|e| format!("hello: {e}"))?;
    match reader.next_frame() {
        Ok(Some(Frame::Welcome { .. })) => {}
        other => return Err(format!("expected Welcome, got {other:?}")),
    }

    let n = plan.frames.len();
    // One permit per batch that may be in flight.
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    for _ in 0..INFLIGHT_BATCHES {
        let _ = permit_tx.send(());
    }
    std::thread::scope(|scope| {
        let acks = scope.spawn(move || {
            let mut acked_at = vec![f64::NAN; n];
            let (mut throttled, mut rejected_records) = (0u64, 0u64);
            let mut settled = 0;
            while settled < n {
                match reader.next_frame() {
                    Ok(Some(Frame::BatchAck { seq, rejected, .. })) => {
                        if let Some(slot) = acked_at.get_mut(seq as usize) {
                            *slot = start.elapsed().as_secs_f64();
                        }
                        rejected_records += u64::from(rejected);
                        settled += 1;
                        let _ = permit_tx.send(());
                    }
                    // A refused batch is a failed operation; it is not
                    // re-sent, so what follows it fails too and the run
                    // reports it instead of hiding it in a retry loop.
                    Ok(Some(Frame::Throttle { .. })) => {
                        throttled += 1;
                        settled += 1;
                        let _ = permit_tx.send(());
                    }
                    // An Error frame (say, a time-order rejection)
                    // carries no seq; nothing after it can be trusted.
                    Ok(Some(Frame::Error { .. })) | Ok(None) | Err(_) => break,
                    Ok(Some(_)) => {}
                }
            }
            (acked_at, throttled, rejected_records)
        });
        let sent = pace(start, n, plan.due_secs.as_deref(), |i| {
            permit_rx
                .recv()
                .map_err(|_| "ack reader ended early".to_string())?;
            writer
                .write_all(&plan.frames[i])
                .map_err(|e| format!("send batch {i}: {e}"))
        });
        let ended = Frame::StreamEnd
            .write_to(&mut writer)
            .map_err(|e| format!("stream end: {e}"));
        if sent.is_err() || ended.is_err() {
            // Unblock the ack reader, which still waits for the rest.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let (acked_at, throttled, rejected_records) =
            acks.join().map_err(|_| "ack reader panicked".to_string())?;
        let sent_at = sent?;
        ended?;
        Ok(ConnOutcome {
            sent_at,
            acked_at,
            throttled,
            rejected_records,
        })
    })
}

/// Client-side measurements of one replay. The latency vectors have
/// one slot per operation, the same slots in every replay of a plan,
/// so that replays can be combined operation by operation.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// Per boundary: trigger → last delta of the boundary, ms. NaN for
    /// warm-up and `StreamEnd`-released boundaries and missing deltas.
    pub delta_ms: Vec<f64>,
    /// Per batch, connection after connection: due (open loop) or send
    /// (closed loop) → `BatchAck`, ms. NaN if never acknowledged.
    pub admit_ms: Vec<f64>,
    /// Records acknowledged per second, first batch → last ack.
    pub records_per_sec: f64,
    /// How late the open-loop generator sent a batch, at worst.
    pub gen_late_ms_max: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the report.
    pub problems: Vec<String>,
    pub setup_secs: f64,
    /// End-of-replay scrape, Prometheus names → values.
    pub scrape: Vec<(String, f64)>,
}

/// Each operation's fastest time over the replays, operations that
/// were never timed left out.
///
/// The reference box is a shared VM: its speed shifts by 10–15 % for
/// seconds at a time and it stalls outright now and then. Interference
/// only ever adds time, so an operation's fastest time over replays
/// that are seconds apart is the best estimate of its time on the
/// undisturbed machine, and that is what two commits can be compared
/// on. Pooling every replay's samples instead would put the box's
/// hiccups into the percentiles.
pub fn fastest(replays: &[Replay], pick: fn(&Replay) -> &Vec<f64>) -> Vec<f64> {
    let ops = replays.iter().map(|r| pick(r).len()).max().unwrap_or(0);
    (0..ops)
        .map(|i| {
            replays
                .iter()
                .filter_map(|r| pick(r).get(i).copied())
                .fold(f64::NAN, f64::min)
        })
        .filter(|t| t.is_finite())
        .collect()
}

impl Replay {
    pub fn scraped(&self, name: &str) -> f64 {
        self.scrape
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Replays `plan` once against a fresh in-process server.
pub fn replay(spec: &Spec, space: &Arc<IndoorSpace>, plan: &Plan) -> Result<Replay, String> {
    let setup = Instant::now();
    let mut server = Server::start(Arc::clone(space), server_config(spec), "127.0.0.1:0")
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut control =
        Client::connect(&addr, role::CONTROL).map_err(|e| format!("control connect: {e}"))?;
    control
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| format!("read timeout: {e}"))?;
    for slocs in spec.standing_slocs(space) {
        control
            .register(
                K as u32,
                spec.bucket_millis,
                spec.window_buckets as u32,
                &slocs,
            )
            .map_err(|e| format!("register: {e}"))?;
    }
    let setup_secs = setup.elapsed().as_secs_f64();

    let ingest_done = AtomicBool::new(false);
    let start = Instant::now();
    let expected = plan.want.len();
    let (conns, mut control, got) = std::thread::scope(|scope| {
        let deltas = scope.spawn(|| {
            let mut got: Vec<(f64, Frame)> = Vec::with_capacity(expected);
            let mut idle_since: Option<Instant> = None;
            while got.len() < expected {
                match control.recv() {
                    Ok(Some(frame @ Frame::TopkDelta { .. })) => {
                        got.push((start.elapsed().as_secs_f64(), frame));
                        idle_since = None;
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) if e.is_interrupted() => {
                        // Give up two seconds after ingest ended with
                        // nothing more arriving.
                        if ingest_done.load(Ordering::Acquire) {
                            let since = *idle_since.get_or_insert_with(Instant::now);
                            if since.elapsed() > Duration::from_secs(2) {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            (control, got)
        });
        let senders: Vec<_> = plan
            .conns
            .iter()
            .map(|conn| {
                let addr = addr.clone();
                scope.spawn(move || drive_connection(&addr, conn, start))
            })
            .collect();
        let conns: Vec<Result<ConnOutcome, String>> = senders
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("sender panicked".to_string()))
            })
            .collect();
        ingest_done.store(true, Ordering::Release);
        let (control, got) = deltas.join().expect("delta reader does not panic");
        (conns, control, got)
    });
    let conns: Vec<ConnOutcome> = conns.into_iter().collect::<Result<_, _>>()?;
    let scrape = parse_prometheus(
        &control
            .metrics_text()
            .map_err(|e| format!("metrics scrape: {e}"))?,
    );
    server.shutdown();

    let mut out = Replay {
        setup_secs,
        scrape,
        ..Replay::default()
    };
    // Batches: refused, rejected or never acknowledged ones fail.
    let paced = matches!(spec.load, Load::Paced { .. });
    let mut first = f64::INFINITY;
    let mut last_ack = 0.0f64;
    let mut acked_records = 0usize;
    // Where each batch's clock starts: its due time, open loop; its
    // send, closed loop.
    let stamps: Vec<&[f64]> = conns
        .iter()
        .zip(&plan.conns)
        .map(|(c, p)| p.due_secs.as_deref().unwrap_or(&c.sent_at))
        .collect();
    for ((conn, plan), from) in conns.iter().zip(&plan.conns).zip(&stamps) {
        out.attempted += conn.sent_at.len() as u64;
        out.failed += conn.throttled + conn.rejected_records;
        for (i, &ack) in conn.acked_at.iter().enumerate() {
            out.admit_ms.push((ack - from[i]) * 1e3);
            if ack.is_nan() {
                continue;
            }
            last_ack = last_ack.max(ack);
            acked_records += BATCH_RECORDS.min(plan.records - i * BATCH_RECORDS);
        }
        first = first.min(from.first().copied().unwrap_or(f64::INFINITY));
        if let Some(due) = &plan.due_secs {
            for (s, d) in conn.sent_at.iter().zip(due) {
                out.gen_late_ms_max = out.gen_late_ms_max.max((s - d) * 1e3);
            }
        }
        if conn.throttled + conn.rejected_records > 0 {
            out.problems.push(format!(
                "{} batches throttled, {} records rejected",
                conn.throttled, conn.rejected_records
            ));
        }
    }
    out.records_per_sec = acked_records as f64 / (last_ack - first);

    // Deltas: frame for frame against the reference.
    out.attempted += expected as u64;
    let mut bad = expected.saturating_sub(got.len()) as u64;
    bad += got
        .iter()
        .zip(&plan.want)
        .filter(|((_, g), w)| g != *w)
        .count() as u64;
    if bad > 0 {
        out.problems.push(format!(
            "{bad} of {expected} deltas missing or different from reference_deltas"
        ));
    }
    let errors = out.scraped("server_protocol_errors");
    if errors > 0.0 {
        out.problems
            .push(format!("server_protocol_errors = {errors}"));
        bad += errors as u64;
    }
    // Latency per boundary: trigger → last delta carrying it.
    // Short streams (the traced pass of `batch_adhoc`, `--quick`) give
    // up at most a quarter of their boundaries to warm-up.
    let skip = if paced {
        WARMUP_BOUNDARIES.min(plan.boundaries.len() / 4)
    } else {
        0
    };
    for (b, (boundary, trigger)) in plan.boundaries.iter().zip(&plan.triggers).enumerate() {
        let arrived = got
            .iter()
            .filter(|(_, f)| matches!(f, Frame::TopkDelta { advance_millis, .. } if advance_millis == boundary))
            .map(|(at, _)| *at)
            .fold(f64::NEG_INFINITY, f64::max);
        let ms = match trigger {
            Some(trigger) if arrived.is_finite() && b >= skip => {
                (arrived - trigger_time(trigger, &stamps)) * 1e3
            }
            _ => f64::NAN,
        };
        out.delta_ms.push(ms);
    }
    out.failed += bad;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_send_is_inherited_by_the_batches_behind_it() {
        // Ten batches due 2 ms apart; sending batch 3 blocks for 40 ms.
        let due: Vec<f64> = (0..10).map(|i| i as f64 * 0.002).collect();
        let start = Instant::now();
        let sent = pace(start, due.len(), Some(&due), |i| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Ok(())
        })
        .unwrap();
        // No batch leaves before it is due.
        assert!(sent.iter().zip(&due).all(|(s, d)| s >= d));
        // Batches 4.. were due during the stall: each leaves ≥ 40 ms
        // after batch 3 did, so measured from its own due time it has
        // waited for the stall, less only the schedule it had in hand.
        for i in 4..10 {
            let waited = sent[i] - due[i];
            let in_hand = due[i] - due[3];
            assert!(
                waited >= 0.040 - in_hand - 1e-9,
                "batch {i} waited {waited}, expected ≥ {}",
                0.040 - in_hand
            );
        }
        assert!(sent[4] - due[4] > 0.030);
        // Closed loop: no due times, sends go back to back.
        let sent = pace(Instant::now(), 3, None, |_| Ok(())).unwrap();
        assert!(sent[2] < 0.010);
        // A failed send stops the connection.
        assert!(pace(Instant::now(), 3, None, |i| if i == 1 {
            Err("boom".to_string())
        } else {
            Ok(())
        })
        .is_err());
    }

    #[test]
    fn triggers_follow_whichever_connection_crosses_the_boundary_last() {
        // Batch-end event times per connection; boundary at t = 100.
        let a = [40, 90, 130, 170];
        let b = [60, 99, 100, 180];
        let triggers = trigger_batches(&[&a, &b], &[100, 165, 200]);
        // Connection a first reaches 100 inside batch 2 (ends 130),
        // connection b inside batch 2 as well (ends exactly at 100).
        assert_eq!(triggers[0], Some(vec![2, 2]));
        assert_eq!(triggers[1], Some(vec![3, 3]));
        // Nothing at or after 200 on either: released by StreamEnd.
        assert_eq!(triggers[2], None);
        // One connection short is enough to leave it untimed.
        assert_eq!(trigger_batches(&[&a, &[60]], &[100])[0], None);

        // a crosses first, b later: b's stamp is the trigger …
        let stamps_a_first: [&[f64]; 2] = [&[0.0, 1.0, 2.0, 3.0], &[0.5, 1.5, 2.5, 3.5]];
        assert_eq!(trigger_time(&[2, 2], &stamps_a_first), 2.5);
        // … and the other way round it is a's.
        let stamps_b_first: [&[f64]; 2] = [&[0.0, 1.0, 4.0, 5.0], &[0.5, 1.5, 2.5, 3.5]];
        assert_eq!(trigger_time(&[2, 2], &stamps_b_first), 4.0);
    }

    #[test]
    fn fastest_takes_each_operations_minimum_and_drops_the_untimed() {
        let nan = f64::NAN;
        let a = Replay {
            delta_ms: vec![nan, 5.0, 9.0, nan],
            ..Replay::default()
        };
        let b = Replay {
            delta_ms: vec![nan, 7.0, 3.0, 4.0],
            ..Replay::default()
        };
        assert_eq!(fastest(&[a, b], |r| &r.delta_ms), [5.0, 3.0, 4.0]);
        assert!(fastest(&[], |r| &r.delta_ms).is_empty());
    }

    /// A whole replay over the socket at miniature size: it matches the
    /// reference, and one flipped flow bit in the reference fails it.
    #[test]
    fn a_replay_matches_the_reference_and_a_flipped_flow_bit_fails_it() {
        let mut spec = crate::spec::find("wire_paced_dwell").unwrap().quick();
        spec.source = crate::spec::Source::Venue {
            num_objects: 300,
            duration_secs: 1200,
            destination_skew: 0.9,
            dwell_cache: true,
        };
        let data = spec.generate(11);
        let cut = Timestamp(i64::MAX);
        let conns = prepare(&spec, &data, cut).unwrap();
        assert_eq!(conns.len(), INGEST_CONNS);
        let mut plan = Plan::new(&spec, &data, cut, conns).unwrap();
        assert_eq!(plan.records, data.world.iupt.len());

        let good = replay(&spec, &data.space, &plan).unwrap();
        assert_eq!(good.failed, 0, "{:?}", good.problems);
        assert_eq!(good.attempted as usize, plan.batches() + plan.want.len());
        assert_eq!(good.delta_ms.len(), plan.boundaries.len());
        assert!(good.delta_ms.iter().any(|t| t.is_finite()));
        assert!(good.admit_ms.iter().all(|t| t.is_finite()));
        assert_eq!(good.scraped("server_protocol_errors"), 0.0);
        assert_eq!(good.scraped("server_records_ingested"), plan.records as f64);

        let flow_bits = plan
            .want
            .iter_mut()
            .find_map(|f| match f {
                Frame::TopkDelta { ranking, .. } => ranking.first_mut(),
                _ => None,
            })
            .expect("a delta with a ranking");
        flow_bits.1 ^= 1;
        let bad = replay(&spec, &data.space, &plan).unwrap();
        assert_eq!(bad.failed, 1, "{:?}", bad.problems);
    }

    #[test]
    fn prometheus_lines_parse_with_and_without_labels() {
        let got = parse_prometheus(
            "# TYPE server_throttles counter\nserver_throttles 3\n\
             server_tick_ns{quantile=\"0.5\"} 1200\n",
        );
        assert_eq!(got[0], ("server_throttles".to_string(), 3.0));
        assert_eq!(
            got[1],
            ("server_tick_ns{quantile=\"0.5\"}".to_string(), 1200.0)
        );
    }
}
