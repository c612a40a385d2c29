//! The traced pass: every layer timed from outside, on the workload's
//! own records and queries, by calling the crates' public functions.
//!
//! Two ladders record spans. The **query ladder** re-walks an ad hoc
//! query the way `nested_loop` does — `indoor-iupt.sequences_in`, then
//! per object `popflow-core.contrib` = `popflow-core.reduce`
//! (`scan_sequence`) + `popflow-core.dp` (`presence_dp_multi`) — and its
//! summed flows must agree with `nested_loop`'s. The **boundary
//! ladder** replays the stream in process through the calls the
//! server's scheduler makes — `popflow-server.decode`,
//! `popflow-serve.ingest_all` (+ `popflow-serve.ingest_drain`, the wait
//! for the shards to catch up), `popflow-serve.advance_due`,
//! `popflow-server.encode_delta` — one operation per window boundary.
//! Every other operation alternates between a recording and a disabled
//! tracer, which gives the tracing overhead from within one run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use indoor_iupt::{Iupt, Record, SampleSet, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use popflow_core::dp::presence_dp_multi;
use popflow_core::{
    best_first, nested_loop, object_flow_contributions, scan_sequence, ContinuousUpdate,
    FlowConfig, QueryId, QuerySpec, TkPlQuery,
};
use popflow_exec::ShardPool;
use popflow_obs::Histogram;
use popflow_serve::{AdvanceStrategy, ServeConfig, ServeEngine};
use popflow_server::protocol::Frame;
use popflow_server::scenario::{delta_frame, reference_deltas};

use crate::batch::flow_config;
use crate::report::Metrics;
use crate::spec::{Dataset, Load, Spec, BATCH_RECORDS, NUM_SHARDS};
use crate::stats::{median, percentile};
use crate::trace::{coverage_ratio, Tracer};
use crate::wire;

/// Ad hoc queries the traced pass walks.
const ADHOC_QUERIES: u64 = 20;
/// Relative tolerance between the ladder's summed flows and
/// `nested_loop`'s (the ladder composes the kernels itself, so the
/// additions are the same but this is a check, not an identity).
const FLOW_TOLERANCE: f64 = 1e-9;

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// What the traced pass found wrong, if anything.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Runs every layer measurement for `spec` on `data`.
pub fn run(
    spec: &Spec,
    data: &mut Dataset,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Metrics, Checks), String> {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let records = data.world.iupt.to_records();

    store_layers(&records, &mut m);
    let query_ladder = query_layers(spec, data, seed, tracer, &mut m, &mut checks)?;
    exec_layers(&mut m);
    obs_layers(&mut m);
    let (boundary_ladder, advance_p50) =
        serve_layers(spec, &data.space, &records, tracer, &mut m, &mut checks)?;
    drop(records);
    server_layers(spec, data, seconds, advance_p50, &mut m, &mut checks)?;

    let main = if spec.load == Load::Batch {
        query_ladder
    } else {
        boundary_ladder
    };
    m.put("trace.coverage_ratio", main.coverage);
    m.put("trace.overhead_ratio", main.overhead);
    Ok((m, checks))
}

/// `Iupt::push` over the whole stream, and what the store made of it.
fn store_layers(records: &[Record], m: &mut Metrics) {
    let mut table = Iupt::new();
    let owned = records.to_vec();
    let t = Instant::now();
    for r in owned {
        table.push(r);
    }
    let push_ns = t.elapsed().as_nanos() as f64;
    let stats = table.store_stats();
    m.put_n(
        "indoor-iupt.push_ns_per_record",
        push_ns / records.len() as f64,
        records.len(),
    );
    m.put("popflow-store.intern_hit_ratio", stats.intern_hit_rate());
    m.put("popflow-store.bytes_per_record", stats.bytes_per_record());
}

/// How a ladder tiled its operations and what recording cost.
struct Ladder {
    coverage: f64,
    overhead: f64,
}

fn ladder_summary(tracer: &Tracer, root: &str, on_ms: &[f64], off_ms: &[f64]) -> Ladder {
    Ladder {
        coverage: coverage_ratio(tracer.spans(), root),
        overhead: match (median(on_ms), median(off_ms)) {
            (Some(on), Some(off)) if off > 0.0 => on / off,
            _ => f64::NAN,
        },
    }
}

/// One re-walk of `query` from outside; returns the summed flows.
fn walk_query(
    space: &IndoorSpace,
    iupt: &mut Iupt,
    query: &TkPlQuery,
    cfg: &FlowConfig,
    op: u64,
    tracer: &mut Tracer,
    kernel: &mut KernelTotals,
) -> Result<HashMap<SLocId, f64>, String> {
    tracer.span("query", op, |tr| -> Result<HashMap<SLocId, f64>, String> {
        let seqs = tr.span("indoor-iupt.sequences_in", op, |_| {
            iupt.sequences_in(query.interval)
        });
        let mut flows: HashMap<SLocId, f64> =
            query.query_set.slocs().iter().map(|&s| (s, 0.0)).collect();
        for seq in &seqs {
            tr.span("popflow-core.contrib", op, |tr| -> Result<(), String> {
                let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
                let t = Instant::now();
                let scanned = tr
                    .span("popflow-core.reduce", op, |_| {
                        scan_sequence(space, sets.iter().copied(), cfg.use_reduction)
                    })
                    .map_err(|e| format!("scan_sequence: {e}"))?;
                kernel.reduce_ns += t.elapsed().as_nanos() as f64;
                kernel.reduce_records += sets.len();
                let relevant = query.query_set.intersection_sorted(&scanned.psls);
                if relevant.is_empty() {
                    return Ok(());
                }
                let t = Instant::now();
                let scores = tr.span("popflow-core.dp", op, |_| {
                    presence_dp_multi(space, &scanned.sets, &relevant, cfg.normalization)
                });
                kernel.dp_ns += t.elapsed().as_nanos() as f64;
                kernel.dp_cells += scanned.sets.len() * relevant.len();
                for (q, score) in relevant.iter().zip(scores) {
                    if score > 0.0 {
                        if let Some(slot) = flows.get_mut(q) {
                            *slot += score;
                        }
                    }
                }
                Ok(())
            })?;
        }
        Ok(flows)
    })
}

#[derive(Default)]
struct KernelTotals {
    reduce_ns: f64,
    reduce_records: usize,
    dp_ns: f64,
    dp_cells: usize,
}

/// Window lookups, kernels and the two search drivers on the seeded ad
/// hoc queries.
fn query_layers(
    spec: &Spec,
    data: &mut Dataset,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<Ladder, String> {
    let cfg = flow_config();
    let space = Arc::clone(&data.space);
    let (mut range_us, mut seq_us) = (Vec::new(), Vec::new());
    let (mut nl_self, mut bf_self) = (Vec::new(), Vec::new());
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let mut kernel = KernelTotals::default();
    let (mut contrib_ns, mut objects, mut pruned) = (0f64, 0usize, 0usize);
    let (mut nl_computed, mut bf_computed, mut total) = (0usize, 0usize, 0usize);

    for index in 0..ADHOC_QUERIES {
        let query = spec.adhoc_query(data, seed, index);
        let iupt = &mut data.world.iupt;

        let t = Instant::now();
        let hits = iupt.range_query(query.interval).len();
        range_us.push(ms(t) * 1e3);
        let t = Instant::now();
        let seqs = iupt.sequences_in(query.interval);
        let this_seq_ms = ms(t);
        seq_us.push(this_seq_ms * 1e3);
        checks.expect(hits == seqs.iter().map(|s| s.len()).sum::<usize>(), || {
            format!("query {index}: range_query and sequences_in disagree on the window")
        });

        // The contribution kernel as the drivers call it, per object.
        let mut this_contrib_ms = 0.0;
        for seq in &seqs {
            let t = Instant::now();
            let got = object_flow_contributions(
                &space,
                seq.records.iter().map(|r| r.samples),
                &query.query_set,
                &cfg,
            )
            .map_err(|e| format!("object_flow_contributions: {e}"))?;
            this_contrib_ms += ms(t);
            pruned += usize::from(got.is_none());
        }
        objects += seqs.len();
        contrib_ns += this_contrib_ms * 1e6;
        drop(seqs);

        let t = Instant::now();
        let nl =
            nested_loop(&space, iupt, &query, &cfg).map_err(|e| format!("nested_loop: {e}"))?;
        let nl_ms = ms(t);
        let t = Instant::now();
        let bf = best_first(&space, iupt, &query, &cfg).map_err(|e| format!("best_first: {e}"))?;
        let bf_ms = ms(t);
        checks.expect(crate::batch::same_ranking(&nl, &bf), || {
            format!("query {index}: nested_loop and best_first rank differently")
        });
        total += nl.stats.objects_total;
        nl_computed += nl.stats.objects_computed;
        bf_computed += bf.stats.objects_computed;
        // What is left of a query once the window lookup and the
        // contributions of the objects it computed are taken out.
        nl_self.push(nl_ms - this_seq_ms - this_contrib_ms);
        let bf_share = bf.stats.objects_computed as f64 / nl.stats.objects_computed.max(1) as f64;
        bf_self.push(bf_ms - this_seq_ms - this_contrib_ms * bf_share);

        // The ladder, once recording and once not, order alternating.
        let mut flows = HashMap::new();
        for pass in 0..2 {
            let recording = (pass == 0) == index.is_multiple_of(2);
            tracer.set_enabled(recording);
            let t = Instant::now();
            flows = walk_query(&space, iupt, &query, &cfg, index, tracer, &mut kernel)?;
            if recording { &mut on_ms } else { &mut off_ms }.push(ms(t));
        }
        tracer.set_enabled(true);
        let agree = nl.ranking.iter().all(|r| {
            let mine = flows.get(&r.sloc).copied().unwrap_or(f64::NAN);
            (mine - r.flow).abs() <= FLOW_TOLERANCE * r.flow.abs().max(f64::MIN_POSITIVE)
        });
        checks.expect(agree, || {
            format!("query {index}: the ladder's flows differ from nested_loop's")
        });
    }

    m.put_pct("indoor-rtree.range_query_us", percentile(&range_us, 0.5));
    m.put_pct("indoor-iupt.sequences_in_us", percentile(&seq_us, 0.5));
    m.put_n(
        "popflow-core.dp_ns_per_cell",
        kernel.dp_ns / kernel.dp_cells as f64,
        kernel.dp_cells,
    );
    m.put_n(
        "popflow-core.reduce_ns_per_record",
        kernel.reduce_ns / kernel.reduce_records as f64,
        kernel.reduce_records,
    );
    m.put_n(
        "popflow-core.contrib_us_per_object",
        contrib_ns / 1e3 / objects as f64,
        objects,
    );
    m.put_n(
        "popflow-core.contrib_pruned_ratio",
        pruned as f64 / objects as f64,
        objects,
    );
    m.put_n(
        "popflow-core.nl_objects_computed_ratio",
        nl_computed as f64 / total as f64,
        total,
    );
    m.put_n(
        "popflow-core.bf_objects_computed_ratio",
        bf_computed as f64 / total as f64,
        total,
    );
    m.put_pct("popflow-core.nl_self_ms_p50", percentile(&nl_self, 0.5));
    m.put_pct("popflow-core.bf_self_ms_p50", percentile(&bf_self, 0.5));
    Ok(ladder_summary(tracer, "query", &on_ms, &off_ms))
}

/// A two-shard pool over unit state: what one hand-off and one round
/// trip cost with no work attached.
fn exec_layers(m: &mut Metrics) {
    const TELLS: usize = 200_000;
    const ASKS: usize = 2_000;
    let pool: ShardPool<u64> = ShardPool::new("popbench", NUM_SHARDS, |_| 0);
    let t = Instant::now();
    for i in 0..TELLS {
        let _ = pool.tell(i % NUM_SHARDS, |n| *n += 1);
    }
    let tell_ns = t.elapsed().as_nanos() as f64;
    let mut trips = Vec::with_capacity(ASKS);
    for _ in 0..ASKS {
        let t = Instant::now();
        let seen = pool.ask_all(|_, n| *n).unwrap_or_default();
        trips.push(ms(t) * 1e3);
        std::hint::black_box(seen);
    }
    m.put_n(
        "popflow-exec.tell_ns_per_job",
        tell_ns / TELLS as f64,
        TELLS,
    );
    m.put_pct("popflow-exec.ask_all_roundtrip_us", percentile(&trips, 0.5));
}

fn obs_layers(m: &mut Metrics) {
    const RECORDS: u64 = 2_000_000;
    let h = Histogram::new();
    let t = Instant::now();
    for i in 0..RECORDS {
        h.record(std::hint::black_box(i * 37));
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(h.count());
    m.put_n(
        "popflow-obs.histogram_record_ns",
        ns / RECORDS as f64,
        RECORDS as usize,
    );
}

/// A serving engine with the workload's standing queries registered.
fn engine_with(
    space: &Arc<IndoorSpace>,
    config: ServeConfig,
    queries: &[QuerySpec],
) -> Result<ServeEngine, String> {
    let mut engine = ServeEngine::new(Arc::clone(space), config);
    for q in queries {
        engine
            .register(q.clone())
            .map_err(|e| format!("register: {e}"))?;
    }
    Ok(engine)
}

/// The frames the server would push for these advances.
fn delta_frames(runs: Vec<(Timestamp, Vec<(QueryId, ContinuousUpdate)>)>) -> Vec<Frame> {
    runs.into_iter()
        .flat_map(|(at, updates)| {
            updates
                .into_iter()
                .map(move |(qid, update)| delta_frame(qid, at, &update))
        })
        .collect()
}

/// The stream replayed in process through the serving engine: once
/// eager with the boundary ladder and the frame codec around it, once
/// bound-pruned. Returns the ladder summary and the eager advance p50.
fn serve_layers(
    spec: &Spec,
    space: &Arc<IndoorSpace>,
    records: &[Record],
    tracer: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(Ladder, f64), String> {
    let n = records.len();
    // Batches in global time order (the order the server's merge
    // restores), encoded as the client would.
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = records
        .chunks(BATCH_RECORDS)
        .enumerate()
        .map(|(seq, chunk)| {
            Frame::IngestBatch {
                seq: seq as u64,
                records: chunk.to_vec(),
            }
            .encode()
            .map_err(|e| format!("encode: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let encode_ns = t.elapsed().as_nanos() as f64;
    let wire_bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
    m.put_n(
        "popflow-server.encode_ns_per_record",
        encode_ns / n as f64,
        n,
    );
    m.put(
        "popflow-server.wire_bytes_per_record",
        wire_bytes as f64 / n as f64,
    );

    let queries = spec.standing_specs(space);
    let mut engine = engine_with(space, wire::serve_config(spec), &queries)?;
    let (mut decode_ns, mut ingest_ns) = (0f64, 0f64);
    let mut advance_ms = Vec::new();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let mut deltas: Vec<Frame> = Vec::new();
    let mut op = 0u64;
    let mut cursor = 0;
    // One operation per boundary: the batches up to and including the
    // one that lets the boundary go, then the advance and its deltas.
    while cursor < frames.len() {
        let recording = op.is_multiple_of(2);
        tracer.set_enabled(recording);
        let t_op = Instant::now();
        tracer.span("boundary", op, |tr| -> Result<(), String> {
            loop {
                let Some(payload) = frames.get(cursor) else {
                    return Ok(());
                };
                cursor += 1;
                let t = Instant::now();
                let frame = tr
                    .span("popflow-server.decode", op, |_| Frame::decode(payload))
                    .map_err(|e| format!("decode: {e}"))?;
                decode_ns += t.elapsed().as_nanos() as f64;
                let Frame::IngestBatch { records, .. } = frame else {
                    return Err("decoded something other than a batch".to_string());
                };
                let Some(watermark) = records.last().map(|r| r.t) else {
                    continue;
                };
                let t = Instant::now();
                tr.span("popflow-serve.ingest_all", op, |_| {
                    engine.ingest_all(records)
                })
                .map_err(|e| format!("ingest_all: {e}"))?;
                ingest_ns += t.elapsed().as_nanos() as f64;
                if engine.due_advances(watermark).is_empty() {
                    continue;
                }
                // `ingest_all` only hands records to the shards. A
                // stats round trip queues behind them, so waiting for
                // it charges the shards' share of ingest to ingest
                // instead of to the advance that would wait for it.
                let t = Instant::now();
                tr.span("popflow-serve.ingest_drain", op, |_| {
                    std::hint::black_box(engine.stats());
                });
                ingest_ns += t.elapsed().as_nanos() as f64;
                let t = Instant::now();
                let (runs, _) = tr
                    .span("popflow-serve.advance_due", op, |_| {
                        engine.advance_due(watermark, None, usize::MAX)
                    })
                    .map_err(|e| format!("advance_due: {e}"))?;
                advance_ms.push(ms(t));
                tr.span("popflow-server.encode_delta", op, |_| {
                    let frames = delta_frames(runs);
                    for frame in &frames {
                        std::hint::black_box(frame.encode().map(|b| b.len()).unwrap_or(0));
                    }
                    deltas.extend(frames);
                });
                return Ok(());
            }
        })?;
        if recording { &mut on_ms } else { &mut off_ms }.push(ms(t_op));
        op += 1;
    }
    tracer.set_enabled(true);
    // The boundaries past the last record, which StreamEnd releases.
    let (runs, _) = engine
        .advance_due(Timestamp(i64::MAX), None, usize::MAX)
        .map_err(|e| format!("advance_due: {e}"))?;
    deltas.extend(delta_frames(runs));
    let want = reference_deltas(
        Arc::clone(space),
        wire::serve_config(spec),
        &queries,
        records,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    checks.expect(deltas == want, || {
        "the boundary ladder's deltas differ from reference_deltas".to_string()
    });

    let stats = engine.stats();
    let advance_total_ns: f64 = advance_ms.iter().sum::<f64>() * 1e6;
    let ratio = |hit: u64, miss: u64| {
        if hit + miss == 0 {
            0.0
        } else {
            hit as f64 / (hit + miss) as f64
        }
    };
    m.put_n(
        "popflow-server.decode_ns_per_record",
        decode_ns / n as f64,
        n,
    );
    m.put_n(
        "popflow-serve.ingest_ns_per_record",
        ingest_ns / n as f64,
        n,
    );
    m.put(
        "popflow-serve.replay_records_per_s",
        n as f64 / ((ingest_ns + advance_total_ns) / 1e9),
    );
    let advance_p50 = percentile(&advance_ms, 0.5);
    m.put_pct("popflow-serve.advance_ms_p50", advance_p50);
    m.put_pct(
        "popflow-serve.advance_ms_p99",
        percentile(&advance_ms, 0.99),
    );
    m.put(
        "popflow-serve.advance_busy_share",
        advance_total_ns / (ingest_ns + advance_total_ns),
    );
    m.put("popflow-serve.fresh_presence", stats.fresh_presence as f64);
    m.put("popflow-serve.presence_cells", stats.presence_cells as f64);
    m.put(
        "popflow-serve.cache_hit_ratio",
        ratio(stats.cache_hits, stats.fresh_presence),
    );
    m.put(
        "popflow-serve.memo_hit_ratio",
        ratio(stats.memo_hits, stats.memo_misses),
    );
    m.put(
        "popflow-serve.log_bytes_per_record",
        stats.log_bytes as f64 / stats.records_ingested.max(1) as f64,
    );
    let ladder = ladder_summary(tracer, "boundary", &on_ms, &off_ms);
    drop(engine);

    // The same replay under bound-pruned advances: no spans, no codec.
    let pruned = wire::serve_config(spec).with_strategy(AdvanceStrategy::BoundPruned);
    let mut engine = engine_with(space, pruned, &queries)?;
    let mut pruned_ms = Vec::new();
    let mut pruned_deltas = 0;
    for chunk in records.chunks(BATCH_RECORDS) {
        let watermark = chunk[chunk.len() - 1].t;
        engine
            .ingest_all(chunk.iter().cloned())
            .map_err(|e| format!("ingest_all: {e}"))?;
        if engine.due_advances(watermark).is_empty() {
            continue;
        }
        std::hint::black_box(engine.stats());
        let t = Instant::now();
        let (runs, _) = engine
            .advance_due(watermark, None, usize::MAX)
            .map_err(|e| format!("advance_due (pruned): {e}"))?;
        pruned_ms.push(ms(t));
        pruned_deltas += runs.iter().map(|(_, u)| u.len()).sum::<usize>();
    }
    checks.expect(pruned_deltas > 0, || {
        "the bound-pruned replay produced no deltas".to_string()
    });
    m.put_pct(
        "popflow-serve.pruned_advance_ms_p50",
        percentile(&pruned_ms, 0.5),
    );
    m.put(
        "popflow-serve.pruned_presence_cells",
        engine.stats().presence_cells as f64,
    );
    Ok((ladder, advance_p50.map_or(f64::NAN, |p| p.value)))
}

/// One replay over the real socket, for what only the socket shows:
/// admission latency, the scheduler's own tick numbers, the tail.
fn server_layers(
    spec: &Spec,
    data: &Dataset,
    seconds: f64,
    advance_p50: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    // `batch_adhoc` has no wire load of its own; its records are sent
    // at the paced workloads' rate.
    let spec = Spec {
        load: match spec.load {
            Load::Batch => Load::Paced {
                records_per_sec: crate::spec::PACED_RATE,
            },
            load => load,
        },
        ..*spec
    };
    // At most half the run's seconds of paced sending.
    let prefix = match spec.load {
        Load::Paced { records_per_sec } => (records_per_sec * seconds / 2.0) as usize,
        _ => usize::MAX,
    };
    let cut = wire::cut_after(data, prefix);
    let plan = wire::Plan::new(&spec, data, cut, wire::prepare(&spec, data, cut)?)?;
    let replay = wire::replay(&spec, &data.space, &plan)?;
    checks.attempted += replay.attempted;
    checks.failed += replay.failed;
    checks.problems.extend(replay.problems.iter().cloned());

    let replay = std::slice::from_ref(&replay);
    let admit_ms = wire::fastest(replay, |r| &r.admit_ms);
    let delta_ms = wire::fastest(replay, |r| &r.delta_ms);
    let replay = &replay[0];
    let delta50 = percentile(&delta_ms, 0.5);
    m.put_pct("popflow-server.admit_ms_p50", percentile(&admit_ms, 0.5));
    m.put_pct("popflow-server.admit_ms_p90", percentile(&admit_ms, 0.9));
    m.put(
        "popflow-server.tick_us_p50",
        replay.scraped("server_tick_ns{quantile=\"0.5\"}") / 1e3,
    );
    m.put(
        "popflow-server.tick_lag_us_p90",
        replay.scraped("server_tick_lag_ns{quantile=\"0.9\"}") / 1e3,
    );
    m.put(
        "popflow-server.queue_peak_records",
        replay.scraped("server_queue_peak"),
    );
    m.put(
        "popflow-server.throttle_ratio",
        replay.scraped("server_throttles") / plan.batches().max(1) as f64,
    );
    m.put(
        "popflow-server.advances_deferred",
        replay.scraped("server_advances_deferred"),
    );
    m.put_pct("popflow-server.delta_ms_p99", percentile(&delta_ms, 0.99));
    m.put("popflow-server.gen_late_ms_max", replay.gen_late_ms_max);
    if let Some(d) = delta50 {
        m.put_n(
            "popflow-server.wire_overhead_ms_p50",
            d.value - advance_p50,
            d.n,
        );
    }
    Ok(())
}
