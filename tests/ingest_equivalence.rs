//! Run-shaped ingest ≡ record-at-a-time ingest.
//!
//! `ServeEngine` hands records to its shards in runs — one `tell` per
//! non-empty shard per `ingest_all` / `ingest_run` call — and the shard
//! appends a run through `Iupt::extend`. Everything downstream (bucket
//! caches hold log *positions*, records keep their pool's `SetRef`)
//! rests on the shard logs being exactly what one `ingest` per record
//! builds, so that is what is checked here, position by position, for
//! run lengths from 1 to 4,096 and 1, 2 and 4 shards — together with
//! the counters, every advance's updates, the late-record contracts of
//! the two callers, and the job count.
//!
//! Run with: `cargo test -p popflow-eval --test ingest_equivalence`

use std::sync::{Arc, OnceLock};

use indoor_iupt::{Iupt, ObjectId, Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::StreamScenario;
use popflow_core::{ContinuousEngine, ContinuousUpdate, FlowError, QueryId, QuerySet, WindowSpec};
use popflow_serve::{LateRecord, QuerySpec, ServeConfig, ServeEngine};

const BUCKET_MILLIS: i64 = 1_800_000;
const RUN_LENGTHS: [usize; 4] = [1, 7, 128, 4_096];

/// One seeded dwelling venue: devices re-report identical candidate
/// sets while they dwell, so interning hits, misses and first
/// occurrences are all on the path.
fn world() -> &'static (Arc<IndoorSpace>, Vec<Record>) {
    static WORLD: OnceLock<(Arc<IndoorSpace>, Vec<Record>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let scenario = StreamScenario {
            num_objects: 700,
            duration_secs: 7_200,
            visit_secs: (60, 120),
            destination_skew: 0.9,
            dwell_cache: true,
            seed: 29,
        };
        let (world, stream) = scenario.build();
        (Arc::new(world.space), stream.to_records())
    })
}

fn engine(space: &Arc<IndoorSpace>, shards: usize) -> ServeEngine {
    let slocs: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
    let narrow = slocs[..slocs.len() / 2].to_vec();
    let config = ServeConfig::with_buckets(BUCKET_MILLIS)
        .with_query(QuerySpec::new(
            3,
            QuerySet::new(slocs),
            WindowSpec::new(BUCKET_MILLIS, 3),
        ))
        .with_query(QuerySpec::new(
            2,
            QuerySet::new(narrow),
            WindowSpec::new(BUCKET_MILLIS, 2),
        ))
        .with_shards(shards);
    ServeEngine::new(Arc::clone(space), config)
}

/// Everything a log position holds: `(oid, t, SetRef index, sample
/// (location, probability bits))`.
type Position = (u32, i64, usize, Vec<(u32, u64)>);

fn fingerprint(log: &Iupt) -> Vec<Position> {
    (0..log.len() as u32)
        .map(|pos| {
            let r = log.view(pos);
            let samples = r
                .samples
                .samples()
                .iter()
                .map(|s| (s.loc.0, s.prob.to_bits()))
                .collect();
            (r.oid.0, r.t.millis(), r.set_ref.index(), samples)
        })
        .collect()
}

fn logs(engine: &ServeEngine) -> Vec<Vec<Position>> {
    engine
        .shard_logs()
        .expect("shard logs")
        .iter()
        .map(fingerprint)
        .collect()
}

/// An update with its flows as bit patterns.
type UpdateBits = (
    QueryId,
    Vec<(SLocId, u64)>,
    bool,
    Vec<SLocId>,
    Vec<SLocId>,
    i64,
    i64,
);

fn bits(updates: Vec<(QueryId, ContinuousUpdate)>) -> Vec<UpdateBits> {
    updates
        .into_iter()
        .map(|(id, u)| {
            let ranking = u
                .outcome
                .ranking
                .iter()
                .map(|r| (r.sloc, r.flow.to_bits()))
                .collect();
            (
                id,
                ranking,
                u.changed,
                u.entered,
                u.left,
                u.window.start.millis(),
                u.window.end.millis(),
            )
        })
        .collect()
}

/// Replays `records` bucket by bucket — the records before each
/// boundary through `feed`, then `advance_all` at the boundary — and
/// returns every advance's updates.
fn replay(
    engine: &mut ServeEngine,
    records: &[Record],
    mut feed: impl FnMut(&mut ServeEngine, &[Record]),
) -> Vec<Vec<UpdateBits>> {
    let last = records.last().expect("non-empty stream").t.millis();
    let mut next = 0;
    let mut advances = Vec::new();
    let mut boundary = BUCKET_MILLIS;
    while boundary <= last + BUCKET_MILLIS {
        let upto = next + records[next..].partition_point(|r| r.t.millis() < boundary);
        feed(engine, &records[next..upto]);
        next = upto;
        advances.push(bits(
            engine.advance_all(Timestamp(boundary)).expect("advance"),
        ));
        boundary += BUCKET_MILLIS;
    }
    assert_eq!(next, records.len(), "the replay must feed every record");
    advances
}

#[test]
fn runs_build_the_logs_single_records_build() {
    let (space, records) = world();
    let first_bucket = records.partition_point(|r| r.t.millis() < BUCKET_MILLIS);
    assert!(
        first_bucket > 4_096,
        "a bucket must fill a 4,096-record run ({first_bucket} records)"
    );
    for shards in [1, 2, 4] {
        let mut single = engine(space, shards);
        let want_updates = replay(&mut single, records, |engine, part| {
            for r in part {
                engine.ingest(r.clone()).expect("ordered stream");
            }
        });
        let want_logs = logs(&single);
        let want_stats = single.stats();
        assert_eq!(want_logs.iter().map(Vec::len).sum::<usize>(), records.len());
        assert!(want_updates.iter().flatten().any(|u| !u.1.is_empty()));

        for len in RUN_LENGTHS {
            let what = format!("{shards} shards, runs of {len}");
            let mut runs = engine(space, shards);
            let updates = replay(&mut runs, records, |engine, part| {
                for run in part.chunks(len) {
                    engine.ingest_all(run.to_vec()).expect("ordered stream");
                }
            });
            assert_eq!(logs(&runs), want_logs, "{what}: shard logs");
            assert_eq!(runs.stats(), want_stats, "{what}: stats");
            assert_eq!(updates, want_updates, "{what}: advance updates");
        }
    }
}

/// A late record in the middle of a run: `ingest_all` stops there with
/// the records before it in the log, the skipping entry (the server's)
/// leaves it out and carries on — and both count it once, exactly as
/// one `ingest` per record does.
#[test]
fn a_late_record_stops_ingest_all_and_is_skipped_by_the_server_entry() {
    let (space, records) = world();
    let (head, rest) = records.split_at(500);
    let mut run: Vec<Record> = rest[..6].to_vec();
    let late = Record {
        oid: ObjectId(9_999),
        t: Timestamp(head[100].t.millis()),
        samples: head[100].samples.clone(),
    };
    assert!(late.t < head[499].t, "the planted record must be late");
    run.insert(3, late.clone());

    for shards in [1, 4] {
        let fresh = || {
            let mut e = engine(space, shards);
            e.ingest_all(head.to_vec()).expect("ordered head");
            e
        };
        let logged = |e: &ServeEngine| -> usize {
            e.shard_logs().expect("logs").iter().map(Iupt::len).sum()
        };

        // Today's contract of `ingest_all`: stop at the late record.
        let mut stopping = fresh();
        let before = stopping.stats();
        let err = stopping.ingest_all(run.clone()).expect_err("late record");
        assert_eq!(
            err,
            FlowError::TimeRegression {
                last_millis: run[2].t.millis(),
                offending_millis: late.t.millis(),
            }
        );
        let after = stopping.stats();
        assert_eq!(after.records_rejected, before.records_rejected + 1);
        assert_eq!(after.records_ingested, before.records_ingested + 3);
        assert_eq!(logged(&stopping), head.len() + 3);
        assert_eq!(stopping.last_ingest(), Some(run[2].t));
        let mut by_hand = fresh();
        by_hand.ingest_all(run[..3].to_vec()).expect("the prefix");
        assert_eq!(logs(&stopping), logs(&by_hand), "{shards} shards: prefix");

        // The server's entry: skip it, report where it was, carry on.
        let mut skipping = fresh();
        let skipped = skipping
            .ingest_run(run.clone(), LateRecord::Skip)
            .expect("skipping never fails on a late record");
        assert_eq!(skipped, vec![3]);
        let after = skipping.stats();
        assert_eq!(after.records_rejected, before.records_rejected + 1);
        assert_eq!(after.records_ingested, before.records_ingested + 6);

        // One `ingest` per record, errors ignored — what the server's
        // scheduler used to do.
        let mut single = fresh();
        let rejected = run
            .iter()
            .filter(|r| single.ingest((*r).clone()).is_err())
            .count();
        assert_eq!(rejected, 1);
        assert_eq!(logs(&skipping), logs(&single), "{shards} shards: skip");
        assert_eq!(skipping.stats(), single.stats());
        assert_eq!(logged(&skipping), head.len() + 6);
    }
}

/// Jobs scale with runs, not records: after B batches over S shards
/// the pool has run at most B·S ingest jobs plus the registration
/// tells and the asks this test makes itself.
#[test]
fn shard_jobs_scale_with_runs_not_records() {
    let (space, records) = world();
    for shards in [1usize, 2, 4] {
        let mut engine = engine(space, shards);
        let batches = records.chunks(128).count();
        for run in records.chunks(128) {
            engine.ingest_all(run.to_vec()).expect("ordered stream");
        }
        // One ask per shard; it queues behind every ingest job, so when
        // it returns their `run_ns` samples are all recorded.
        assert_eq!(engine.stats().records_ingested, records.len() as u64);
        let snap = engine.metrics().snapshot();
        let jobs: u64 = (0..shards)
            .map(|s| snap.histograms[&format!("serve.pool.shard{s}.run_ns")].count)
            .sum();
        // Two registrations (a `set_union` tell per shard each, at
        // most) and the `stats` ask above.
        let other = 3 * shards;
        assert!(
            jobs <= (batches * shards + other) as u64,
            "{shards} shards: {jobs} jobs for {batches} batches"
        );
        assert!(jobs >= batches as u64, "{shards} shards: {jobs} jobs");
        assert!(
            (jobs as usize) < records.len() / 10,
            "{shards} shards: {jobs} jobs for {} records",
            records.len()
        );
    }
}
