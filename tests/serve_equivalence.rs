//! Engine-equivalence and throughput gates for the `popflow-serve`
//! incremental engine.
//!
//! The incremental engine's whole value rests on these claims, all
//! checked here mechanically rather than by eye:
//!
//! 1. **Exactness** — on every slide, over random scenarios and random
//!    window/bucket/shard configurations, the incremental top-k equals
//!    the batch Nested-Loop result on the identical window, flow-bit for
//!    flow-bit (property test).
//! 2. **Work** — at window/bucket ratio ≥ 8 the incremental engine
//!    performs ≥ 5× fewer presence computations than the
//!    recompute-per-slide baseline, with identical top-k lists on every
//!    slide (counts, not a clock).
//! 3. **Sharing** — queries registered together on one engine are each
//!    flow-bit-identical to a dedicated single-query engine on every
//!    slide (property test over random overlapping subsets and window
//!    widths), and four concurrent overlapping queries cost < 2× the
//!    presence work of one (shared-work gate).
//! 4. **Spans** — on a visitor-turnover stream the engine's span
//!    cache stays exact while spans are born, go interior, are truncated
//!    and leave — four widths on one engine, through a union-growing
//!    registration and an unregistration — and its work is bounded by
//!    what each slide changed, not by what the window holds (counts
//!    only, no clock).
//! 5. **Lateness** — fed one stream laced with time regressions and
//!    records behind the sealed frontier, the serving engine and the
//!    recompute baseline reject the same records and report the same
//!    slides.
//!
//! Run with: `cargo test -p popflow-eval --test serve_equivalence`

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, TimeInterval, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::StreamScenario;
use popflow_core::{
    nested_loop, ContinuousUpdate, FlowConfig, QuerySet, RecomputeEngine, TkPlQuery, WindowSpec,
};
use popflow_eval::replay::{replay, replay_recompute, topks, Slide, StreamingConfig};
use popflow_serve::{QueryId, QuerySpec, ServeConfig, ServeEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A serving engine built from `config` with `specs` registered in
/// order, and their handles.
fn registered(
    space: &Arc<IndoorSpace>,
    config: ServeConfig,
    specs: &[QuerySpec],
) -> (ServeEngine, Vec<QueryId>) {
    let mut engine = ServeEngine::new(Arc::clone(space), config);
    let ids = specs
        .iter()
        .map(|spec| engine.register(spec.clone()).expect("register"))
        .collect();
    (engine, ids)
}

/// The update of the one query an `advance_all` evaluated.
fn only(mut updates: Vec<(QueryId, ContinuousUpdate)>) -> ContinuousUpdate {
    assert_eq!(updates.len(), 1, "one registered query, one update");
    updates.remove(0).1
}

/// Drives the serve engine and the recompute baseline over one
/// generated world with the given geometry, asserting equal top-k lists,
/// bit-identical flows, and equal deltas on every bucket-aligned slide;
/// spot-checks one slide against a direct one-shot Nested-Loop query.
fn assert_equivalent(
    seed: u64,
    bucket_secs: i64,
    window_buckets: usize,
    num_shards: usize,
    k: usize,
) -> Result<(), TestCaseError> {
    let world = indoor_sim::World::generate(indoor_sim::Scenario::tiny().with_seed(seed));
    let space = Arc::new(world.space.clone());
    let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
    let spec = WindowSpec::new(bucket_secs * 1000, window_buckets);
    // Alternate the normalization for extra coverage; DP engine keeps the
    // exponential path construction out of the hot loop.
    let flow = if seed % 2 == 0 {
        FlowConfig::default().with_dp_engine()
    } else {
        FlowConfig::default()
            .with_dp_engine()
            .with_full_product_normalization()
    };

    let serve_cfg = ServeConfig::with_buckets(spec.bucket_millis)
        .with_shards(num_shards)
        .with_flow(flow);
    let (mut serve, _) = registered(
        &space,
        serve_cfg,
        &[QuerySpec::new(k, QuerySet::new(slocs.clone()), spec)],
    );
    let mut batch = RecomputeEngine::new(
        Arc::clone(&space),
        k,
        QuerySet::new(slocs.clone()),
        spec,
        flow,
    );

    let records: Vec<Record> = world.iupt.to_records();
    let duration = world.scenario.mobility.duration_secs;
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration));
    let mut next = 0usize;
    let mut checked_one_shot = false;
    for b in 0..=last_bucket {
        // Advance at the instant bucket `b` completes (end + 1 ms).
        let now = Timestamp(spec.bucket_interval(b).end.millis() + 1);
        while next < records.len() && records[next].t <= now {
            serve
                .ingest_all([records[next].clone()])
                .expect("ordered stream");
            batch.ingest(records[next].clone()).expect("ordered stream");
            next += 1;
        }
        let a = only(serve.advance_all(now).expect("serve advance"));
        let c = batch.advance(now).expect("batch advance");
        prop_assert_eq!(&a.window, &c.window);
        prop_assert_eq!(a.outcome.topk_slocs(), c.outcome.topk_slocs());
        for (x, y) in a.outcome.ranking.iter().zip(c.outcome.ranking.iter()) {
            prop_assert_eq!(x.flow.to_bits(), y.flow.to_bits());
        }
        prop_assert_eq!(&a.entered, &c.entered);
        prop_assert_eq!(&a.left, &c.left);

        // Mid-replay, pin one slide against a literal one-shot batch
        // query over the same records — guarding the baseline itself.
        if !checked_one_shot && b >= window_buckets as i64 {
            let iupt = Iupt::from_records(records[..next].to_vec());
            let one_shot = nested_loop(
                &world.space,
                &iupt,
                &TkPlQuery::new(k, QuerySet::new(slocs.clone()), a.window),
                &flow,
            )
            .expect("one-shot query");
            prop_assert_eq!(a.outcome.topk_slocs(), one_shot.topk_slocs());
            checked_one_shot = true;
        }
    }
    // Records in the final partial bucket are legitimately left unfed —
    // the window only ever covers complete buckets.
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random worlds × random window geometry × random sharding: the
    /// incremental engine must match batch evaluation on every slide.
    #[test]
    fn incremental_topk_equals_batch_on_random_configs(
        seed in 0u64..10_000,
        bucket_secs in 20i64..150,
        window_buckets in 1usize..7,
        num_shards in 1usize..5,
        k in 1usize..6,
    ) {
        assert_equivalent(seed, bucket_secs, window_buckets, num_shards, k)?;
    }
}

/// Registers several overlapping queries — rotated ~¾-of-the-venue
/// location subsets with per-query window widths over one shared bucket
/// width — on a single registry engine, and replays the same stream into
/// one dedicated single-query engine per spec. On every slide, each
/// registered query's update must equal
/// its dedicated engine's: same window, same top-k, bit-identical flows,
/// same deltas. This is the registry's core contract — sharing sealed
/// bucket caches across queries must be invisible in the results.
fn assert_registry_matches_dedicated(
    seed: u64,
    bucket_secs: i64,
    widths: &[usize],
    num_shards: usize,
    k: usize,
) -> Result<(), TestCaseError> {
    let world = indoor_sim::World::generate(indoor_sim::Scenario::tiny().with_seed(seed));
    let space = Arc::new(world.space.clone());
    let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
    let n = widths.len();
    let take = (slocs.len() * 3 / 4).max(1);
    let subsets: Vec<QuerySet> = (0..n)
        .map(|i| {
            let offset = i * slocs.len() / n;
            QuerySet::new(
                (0..take)
                    .map(|j| slocs[(offset + j) % slocs.len()])
                    .collect(),
            )
        })
        .collect();
    let flow = FlowConfig::default().with_dp_engine();
    let records: Vec<Record> = world.iupt.to_records();
    let duration = world.scenario.mobility.duration_secs;
    // Slide once per bucket; every registered window shares this width.
    let step = WindowSpec::new(bucket_secs * 1000, 1);
    let last_bucket = step.last_complete_bucket(Timestamp::from_secs(duration));

    let base = ServeConfig::with_buckets(bucket_secs * 1000)
        .with_shards(num_shards)
        .with_flow(flow);
    let specs: Vec<QuerySpec> = subsets
        .iter()
        .zip(widths)
        .map(|(qs, &w)| QuerySpec::new(k, qs.clone(), WindowSpec::new(bucket_secs * 1000, w)))
        .collect();
    let (mut registry, ids) = registered(&space, base.clone(), &specs);
    let mut dedicated: Vec<ServeEngine> = specs
        .iter()
        .map(|spec| registered(&space, base.clone(), std::slice::from_ref(spec)).0)
        .collect();

    let mut next = 0usize;
    for b in 0..=last_bucket {
        let now = Timestamp(step.bucket_interval(b).end.millis() + 1);
        while next < records.len() && records[next].t <= now {
            registry
                .ingest_all([records[next].clone()])
                .expect("ordered stream");
            for engine in dedicated.iter_mut() {
                engine
                    .ingest_all([records[next].clone()])
                    .expect("ordered stream");
            }
            next += 1;
        }
        let updates = registry.advance_all(now).expect("registry advance");
        prop_assert_eq!(updates.len(), ids.len());
        for (qi, engine) in dedicated.iter_mut().enumerate() {
            let reference = only(engine.advance_all(now).expect("dedicated advance"));
            let (_, got) = updates
                .iter()
                .find(|(id, _)| *id == ids[qi])
                .expect("an update per registered query");
            prop_assert_eq!(&got.window, &reference.window);
            prop_assert_eq!(got.outcome.topk_slocs(), reference.outcome.topk_slocs());
            for (x, y) in got
                .outcome
                .ranking
                .iter()
                .zip(reference.outcome.ranking.iter())
            {
                prop_assert_eq!(x.sloc, y.sloc);
                prop_assert_eq!(x.flow.to_bits(), y.flow.to_bits());
            }
            prop_assert_eq!(&got.entered, &reference.entered);
            prop_assert_eq!(&got.left, &reference.left);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random overlapping subsets × random per-query window widths ×
    /// random sharding: every query registered on one engine must be
    /// flow-bit-identical to a dedicated single-query engine on every
    /// slide.
    #[test]
    fn registered_queries_match_dedicated_engines(
        seed in 0u64..10_000,
        bucket_secs in 30i64..120,
        widths in proptest::collection::vec(1usize..6, 2..4),
        num_shards in 1usize..4,
        k in 1usize..5,
    ) {
        assert_registry_matches_dedicated(seed, bucket_secs, &widths, num_shards, k)?;
    }
}

/// One replay's rankings as `(sloc, flow bits)`, per slide and query —
/// the representation the bit-identity audits compare.
fn ranking_bits(replay: &[Slide]) -> Vec<Vec<Vec<(SLocId, u64)>>> {
    replay
        .iter()
        .map(|(_, updates)| {
            updates
                .iter()
                .map(|u| {
                    u.outcome
                        .ranking
                        .iter()
                        .map(|r| (r.sloc, r.flow.to_bits()))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The multi-query acceptance gate: four concurrent registered queries
/// with overlapping location sets over the same window geometry must
/// cost less than 2× the presence work of ONE dedicated query
/// (shared_work_ratio = registry cells / Σ dedicated cells < 2/4 = 0.5),
/// while every query's per-slide ranking stays bit-identical to its
/// dedicated engine. One replay per engine; deterministic — the
/// scenario is seeded and the counters are exact.
#[test]
fn four_overlapping_queries_share_work() {
    let cfg = StreamingConfig {
        scenario: StreamScenario {
            num_objects: 120,
            duration_secs: 2 * 3600,
            visit_secs: (60, 120),
            destination_skew: 1.2,
            dwell_cache: true,
            seed: 0x4eed,
        },
        bucket_secs: 600,
        window_buckets: 6,
        k: 3,
        num_shards: 3,
    };
    let (world, stream) = cfg.scenario.build();
    let space = Arc::new(world.space.clone());
    let slocs: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
    let spec = cfg.spec();
    let duration = cfg.scenario.duration_secs;
    // Overlapping rotations of ~¾ of the venue's locations.
    let take = (slocs.len() * 3 / 4).max(1);
    let specs: Vec<QuerySpec> = (0..4)
        .map(|i| {
            let offset = i * slocs.len() / 4;
            let subset = (0..take).map(|j| slocs[(offset + j) % slocs.len()]);
            QuerySpec::new(cfg.k, subset.collect(), spec)
        })
        .collect();
    let base = ServeConfig::with_buckets(spec.bucket_millis)
        .with_shards(cfg.num_shards)
        .with_flow(FlowConfig::default().with_dp_engine());

    let (mut registry, _) = registered(&space, base.clone(), &specs);
    let shared = ranking_bits(&replay(&mut registry, &stream, spec, duration));
    let registry_cells = registry.stats().presence_cells;
    assert!(!shared.is_empty(), "the stream produced no slides");

    let mut dedicated_cells = 0u64;
    for (qi, query) in specs.iter().enumerate() {
        let (mut single, _) = registered(&space, base.clone(), std::slice::from_ref(query));
        let solo = ranking_bits(&replay(&mut single, &stream, spec, duration));
        dedicated_cells += single.stats().presence_cells;
        let mismatched = shared
            .iter()
            .zip(&solo)
            .filter(|(registry_rank, solo_rank)| registry_rank[qi] != solo_rank[0])
            .count();
        assert_eq!(
            (mismatched, solo.len()),
            (0, shared.len()),
            "query {qi} diverged from its dedicated engine on {mismatched} slides"
        );
    }
    assert!(
        registry_cells > 0,
        "the registry never computed a presence cell"
    );
    let shared_work_ratio = registry_cells as f64 / dedicated_cells as f64;
    assert!(
        shared_work_ratio < 0.5,
        "4 overlapping queries cost {shared_work_ratio:.3}× the dedicated total \
         ({registry_cells} registry vs {dedicated_cells} dedicated cells) — the acceptance \
         bound is < 0.5 (i.e. < 2× one query's work)",
    );
}

/// The headline acceptance gate: ≥ 5× less presence work at
/// window/bucket ratio 16 (≥ 8), identical rankings throughout. One
/// replay per engine. The counts are deterministic (measured ≈ 9.6×);
/// there is no wall-clock assertion — the advance latency is the
/// benchmark's to judge, and a host that switches between two speeds
/// could fail a correct build.
#[test]
fn incremental_advances_beat_recompute_5x_with_identical_topk() {
    let cfg = StreamingConfig::scaled(0.5, 0xbef0);
    assert!(
        cfg.window_buckets >= 8,
        "the gate is defined at window/bucket ratio ≥ 8"
    );
    let (world, stream) = cfg.scenario.build();
    let space = Arc::new(world.space.clone());
    let slocs = QuerySet::new(world.space.slocs().iter().map(|s| s.id).collect());
    let spec = cfg.spec();
    let duration = cfg.scenario.duration_secs;
    let flow = FlowConfig::default().with_dp_engine();

    let mut recompute = RecomputeEngine::new(Arc::clone(&space), cfg.k, slocs.clone(), spec, flow);
    let baseline = replay_recompute(&mut recompute, &stream, spec, duration);
    let (mut serve, _) = registered(
        &space,
        ServeConfig::with_buckets(spec.bucket_millis)
            .with_shards(cfg.num_shards)
            .with_flow(flow),
        &[QuerySpec::new(cfg.k, slocs, spec)],
    );
    let incremental = replay(&mut serve, &stream, spec, duration);

    let slides = baseline.len();
    assert!(slides >= 16, "too few slides: {slides}");
    let (want, got) = (topks(&baseline), topks(&incremental));
    let mismatched = want.iter().zip(&got).filter(|(w, g)| w != g).count();
    assert_eq!(
        (mismatched, got.len()),
        (0, slides),
        "engines diverged on {mismatched} of {slides} slides"
    );
    let baseline_work: u64 = baseline
        .iter()
        .map(|(_, u)| u[0].outcome.stats.objects_computed as u64)
        .sum();
    let incremental_work = serve.stats().fresh_presence;
    let work_ratio = baseline_work as f64 / incremental_work as f64;
    assert!(
        work_ratio >= 5.0,
        "presence-work ratio {work_ratio:.2} below 5x (incremental {incremental_work} vs \
         baseline {baseline_work})"
    );
}

/// A seeded visitor-turnover venue with its records in delivery order
/// and its complete buckets (one slide each).
fn turnover_stream(
    seed: u64,
    num_objects: usize,
    duration_secs: i64,
    visit_secs: (i64, i64),
    bucket_millis: i64,
) -> (Arc<IndoorSpace>, Vec<Record>, RangeInclusive<i64>) {
    let scenario = StreamScenario {
        num_objects,
        duration_secs,
        visit_secs,
        destination_skew: 0.9,
        dwell_cache: true,
        seed,
    };
    let (world, stream) = scenario.build();
    let records = stream.to_records();
    let bucket_of = |r: &Record| r.t.millis().div_euclid(bucket_millis);
    let first = bucket_of(records.first().expect("a non-empty stream"));
    let last = bucket_of(records.last().expect("a non-empty stream")) - 1;
    (Arc::new(world.space), records, first..=last)
}

/// The records from `*next` on that precede `now`; moves `*next` past
/// them.
fn take_before<'a>(records: &'a [Record], next: &mut usize, now: Timestamp) -> &'a [Record] {
    let from = *next;
    *next += records[from..].partition_point(|r| r.t < now);
    &records[from..*next]
}

/// What a slide's comparison looks at: the window, the ranking with
/// its flow bits, and the deltas.
type UpdateKey = (TimeInterval, Vec<(SLocId, u64)>, Vec<SLocId>, Vec<SLocId>);

fn update_key(u: &ContinuousUpdate) -> UpdateKey {
    let ranking = u
        .outcome
        .ranking
        .iter()
        .map(|r| (r.sloc, r.flow.to_bits()))
        .collect();
    (u.window, ranking, u.entered.clone(), u.left.clone())
}

/// Four standing queries of widths 1, 3, 8 and 16 buckets on one
/// engine at 1, 2 and 4 shards, a fifth registered a third of
/// the way in whose locations grow the union (the shards drop their
/// caches) and unregistered at two thirds (the union shrinks, the caches
/// stay): every query's update on every slide equals a dedicated
/// [`RecomputeEngine`]'s — an implementation that shares nothing with
/// the serving engine but the per-object kernel. Visits last ¾ to 6 buckets, so in the 16-bucket
/// window a span is born at the leading edge, sits in the interior for
/// a dozen slides, is truncated bucket by bucket at the trailing edge
/// and leaves.
fn assert_turnover_registry_matches_recompute(seed: u64) {
    const BUCKET: i64 = 60_000;
    let (space, records, buckets) = turnover_stream(seed, 900, 50 * 60, (45, 360), BUCKET);
    let slides = buckets.clone().count();
    assert!(slides >= 40, "seed {seed}: only {slides} slides");
    let slocs: Vec<_> = space.slocs().iter().map(|s| s.id).collect();
    let flow = if seed % 2 == 0 {
        FlowConfig::default().with_dp_engine()
    } else {
        FlowConfig::default()
            .with_dp_engine()
            .with_full_product_normalization()
    };
    // The standing queries rotate over the lower two thirds of the
    // venue; the late one reaches into the rest.
    let lower = &slocs[..slocs.len() * 2 / 3];
    let mut specs: Vec<QuerySpec> = [1usize, 3, 8, 16]
        .iter()
        .enumerate()
        .map(|(i, &width)| {
            let rotated = (0..lower.len() * 3 / 4)
                .map(|j| lower[(i * lower.len() / 4 + j) % lower.len()])
                .collect();
            QuerySpec::new(3, QuerySet::new(rotated), WindowSpec::new(BUCKET, width))
        })
        .collect();
    specs.push(QuerySpec::new(
        4,
        QuerySet::new(slocs[slocs.len() / 3..].to_vec()),
        WindowSpec::new(BUCKET, 5),
    ));
    let late = specs.len() - 1;
    let register_at = buckets.start() + slides as i64 / 3;
    let unregister_at = buckets.start() + slides as i64 * 2 / 3;
    let recompute_engine = |spec: &QuerySpec| {
        RecomputeEngine::new(
            Arc::clone(&space),
            spec.k,
            spec.query_set.clone(),
            spec.window,
            flow,
        )
    };

    // The reference updates, once: `reference[slide][query]`. The late
    // query's engine is handed the stream so far when it is registered,
    // so its first delta is against nothing, as the registry's is.
    let mut recompute: Vec<Option<RecomputeEngine>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (i != late).then(|| recompute_engine(spec)))
        .collect();
    let mut reference = Vec::with_capacity(slides);
    let mut next = 0;
    for b in buckets.clone() {
        let now = Timestamp((b + 1) * BUCKET);
        if b == register_at {
            let mut engine = recompute_engine(&specs[late]);
            for record in &records[..next] {
                engine.ingest(record.clone()).expect("ordered stream");
            }
            recompute[late] = Some(engine);
        }
        if b == unregister_at {
            recompute[late] = None;
        }
        for record in take_before(&records, &mut next, now) {
            for engine in recompute.iter_mut().flatten() {
                engine.ingest(record.clone()).expect("ordered stream");
            }
        }
        let updates: Vec<Option<UpdateKey>> = recompute
            .iter_mut()
            .map(|engine| {
                engine
                    .as_mut()
                    .map(|e| update_key(&e.advance(now).expect("recompute advance")))
            })
            .collect();
        reference.push(updates);
    }

    for num_shards in [1, 2, 4] {
        let config = ServeConfig::with_buckets(BUCKET)
            .with_shards(num_shards)
            .with_flow(flow);
        let (mut engine, mut ids) = registered(&space, config, &specs[..late]);
        let mut next = 0;
        for (b, want) in buckets.clone().zip(&reference) {
            let now = Timestamp((b + 1) * BUCKET);
            let resets = engine.stats().cache_resets;
            if b == register_at {
                ids.push(engine.register(specs[late].clone()).expect("register"));
                let grown = engine.stats().cache_resets;
                assert_eq!(grown, resets + 1, "seed {seed}: union did not grow");
            }
            if b == unregister_at {
                engine
                    .unregister(ids.pop().expect("the late query"))
                    .expect("unregister");
                let shrunk = engine.stats().cache_resets;
                assert_eq!(
                    shrunk, resets,
                    "seed {seed}: a shrunk union reset the caches"
                );
            }
            engine
                .ingest_all(take_before(&records, &mut next, now).iter().cloned())
                .expect("ordered stream");
            let updates = engine.advance_all(now).expect("advance");
            assert_eq!(
                updates.len(),
                want.iter().flatten().count(),
                "seed {seed}, {num_shards} shards, bucket {b}"
            );
            for (qi, id) in ids.iter().enumerate() {
                let (_, got) = updates
                    .iter()
                    .find(|(uid, _)| uid == id)
                    .expect("an update per registered query");
                assert_eq!(
                    Some(update_key(got)),
                    want[qi],
                    "seed {seed}, {num_shards} shards, bucket {b}, query {qi} (width {})",
                    specs[qi].window.window_buckets
                );
            }
        }
        let stats = engine.stats();
        assert!(
            stats.cache_hits > stats.fresh_presence,
            "seed {seed}, {num_shards} shards: spans were not reused: {stats:?}"
        );
    }
}

/// Spans born, interior, truncated and gone, at four widths, across a
/// cache reset and a kept cache — against an independent engine.
#[test]
fn turnover_registry_matches_recompute_through_register_and_unregister() {
    for seed in [17, 42] {
        assert_turnover_registry_matches_recompute(seed);
    }
}

/// Window width of the work gates, in buckets.
const GATE_WIDTH: i64 = 16;

/// A one-query engine over the whole venue with w/b = 16.
fn work_gate_engine(space: &Arc<IndoorSpace>, bucket_millis: i64) -> ServeEngine {
    let slocs: Vec<_> = space.slocs().iter().map(|s| s.id).collect();
    let window = WindowSpec::new(bucket_millis, GATE_WIDTH as usize);
    let config = ServeConfig::with_buckets(bucket_millis)
        .with_shards(2)
        .with_flow(FlowConfig::default().with_dp_engine());
    registered(
        space,
        config,
        &[QuerySpec::new(3, QuerySet::new(slocs), window)],
    )
    .0
}

/// Replays a turnover stream through a w/b = 16 engine and holds
/// every advance to the work its slide justifies, in counts only:
///
/// * per advance, at most one presence computation per object that
///   reported in the newly sealed bucket plus one per object whose
///   first in-window bucket moved (the second kind is evaluated by the
///   shards ahead of time and reported with the advance that uses it);
/// * over the replay, every distinct `(object, first, last)` span asked
///   for is evaluated exactly once, and the only other evaluations are
///   spans computed ahead for a slide that then did not ask for them
///   (the object reported again).
///
/// Returns the total and how many of it were never asked for.
fn assert_work_follows_the_slide(
    seed: u64,
    num_objects: usize,
    duration_secs: i64,
    visit_secs: (i64, i64),
    bucket_millis: i64,
) -> (u64, u64) {
    let (space, records, buckets) =
        turnover_stream(seed, num_objects, duration_secs, visit_secs, bucket_millis);
    assert!(buckets.clone().count() >= 40);
    let mut engine = work_gate_engine(&space, bucket_millis);
    // The buckets each object reports in, recounted from the raw
    // records.
    let mut reported: BTreeMap<ObjectId, BTreeSet<i64>> = BTreeMap::new();
    for r in &records {
        let bucket = r.t.millis().div_euclid(bucket_millis);
        reported.entry(r.oid).or_default().insert(bucket);
    }

    // An object's span within buckets `start..=end`, and in the window
    // ending at `end`.
    let span_in = |oid: &ObjectId, start: i64, end: i64| {
        let mut inside = reported[oid].range(start..=end);
        let first = *inside.next()?;
        Some((*oid, first, *inside.next_back().unwrap_or(&first)))
    };
    let span = |oid: &ObjectId, end: i64| span_in(oid, end - GATE_WIDTH + 1, end);
    let mut asked = BTreeSet::new();
    let mut ahead = BTreeSet::new();
    let mut next = 0;
    for end in buckets.clone() {
        let now = Timestamp((end + 1) * bucket_millis);
        engine
            .ingest_all(take_before(&records, &mut next, now).iter().cloned())
            .expect("ordered stream");
        let before = engine.stats().fresh_presence;
        let updates = engine.advance_all(now).expect("advance");
        let paid = engine.stats().fresh_presence - before;

        // Nothing on these streams is PSL-pruned (the query covers the
        // venue), so every span evaluated is a presence computation.
        let stats = &updates[0].1.outcome.stats;
        assert_eq!(stats.objects_computed, stats.objects_total);

        let mut reported_now = 0;
        let mut first_moved = 0;
        for oid in reported.keys() {
            let Some(key) = span(oid, end) else { continue };
            asked.insert(key);
            reported_now += u64::from(key.2 == end);
            first_moved += u64::from(span(oid, end - 1).is_some_and(|was| was.1 != key.1));
        }
        assert!(
            paid <= reported_now + first_moved,
            "seed {seed}, bucket {end}: {paid} presence computations for {reported_now} objects \
             that reported and {first_moved} whose first bucket moved"
        );

        // What the shards evaluate once this advance has replied: what
        // a one-bucket slide leaves of every object in the oldest
        // bucket. It is reported with the next advance, so the last
        // advance's is not in the total.
        if end != *buckets.end() {
            let oldest = end - GATE_WIDTH + 1;
            for oid in reported.keys() {
                if span(oid, end).is_some_and(|key| key.1 == oldest) {
                    ahead.extend(span_in(oid, oldest + 1, end));
                }
            }
        }
    }
    let total = engine.stats().fresh_presence;
    let never_asked = ahead.difference(&asked).count() as u64;
    assert_eq!(
        total,
        asked.len() as u64 + never_asked,
        "seed {seed}: {} distinct spans asked for, {never_asked} evaluated ahead and never asked for",
        asked.len()
    );
    (total, never_asked)
}

/// The work gate on the shape the span cache is for — visits of half a
/// bucket to one bucket, so an object is new for a slide or two, then
/// sits in the window's interior for fourteen: an eager replay pays
/// under a third of what it paid when sealing computed bucket-local
/// contributions and every straddler was recomputed on every slide. The
/// parent of the change that introduced the span cache performed
/// 26,838 presence computations on this stream; the replay now performs
/// 5,465.
#[test]
fn eager_work_is_bounded_by_what_each_slide_changed() {
    const PARENT_FRESH_PRESENCE: u64 = 26_838;
    let (total, _) = assert_work_follows_the_slide(23, 2_500, 100 * 60, (60, 120), 120_000);
    assert!(
        total * 3 < PARENT_FRESH_PRESENCE,
        "{total} presence computations, not under a third of {PARENT_FRESH_PRESENCE}"
    );
}

/// The same gate where visits last 2 to 18 buckets: nothing sits still
/// for long (no ratio is claimed), but a 16-bucket window then holds
/// objects that are in its oldest and its newest bucket at once — the
/// spans evaluated ahead for them are the ones never asked for, and
/// the accounting must still be exact. (The parent performed 31,304
/// presence computations on this stream against 18,774 now.)
#[test]
fn spans_evaluated_ahead_and_never_asked_for_are_counted_once() {
    let (total, never_asked) = assert_work_follows_the_slide(23, 900, 50 * 60, (45, 360), 20_000);
    assert!(
        never_asked > 0 && never_asked * 20 < total,
        "{never_asked} of {total} spans were never asked for"
    );
}

/// An advance repeated at the same instant evaluates nothing: its reply
/// is assembled from spans the first call left in the cache. The
/// *first* repeat still reports the spans the shards evaluated ahead of
/// time after the original call (they are the next slide's work,
/// reported once, with whichever advance comes next); the second repeat
/// reports nothing at all, and when the window does slide, what was
/// evaluated ahead is served, not evaluated again.
#[test]
fn repeated_advance_computes_nothing() {
    const BUCKET: i64 = 120_000;
    let (space, records, buckets) = turnover_stream(23, 2_500, 100 * 60, (60, 120), BUCKET);
    let mut engine = work_gate_engine(&space, BUCKET);
    // Far enough in that the window is full and its trailing edge cuts
    // through visits.
    let end = buckets.start() + 24;
    let mut next = 0;
    let mut ingest_until = |engine: &mut ServeEngine, now: Timestamp| {
        let run = take_before(&records, &mut next, now);
        engine
            .ingest_all(run.iter().cloned())
            .expect("ordered stream");
        run.iter()
            .map(|r| r.oid)
            .collect::<BTreeSet<ObjectId>>()
            .len() as u64
    };
    for b in *buckets.start()..end {
        let now = Timestamp((b + 1) * BUCKET);
        ingest_until(&mut engine, now);
        engine.advance_all(now).expect("advance");
    }
    let now = Timestamp((end + 1) * BUCKET);
    ingest_until(&mut engine, now);
    let advance = |engine: &mut ServeEngine, now: Timestamp| {
        let updates = engine.advance_all(now).expect("advance");
        let (_, update) = &updates[0];
        let stats = engine.stats();
        (
            (update_key(update).1, update.outcome.stats.objects_total),
            (stats.fresh_presence, stats.presence_cells),
        )
    };
    let (first, work_first) = advance(&mut engine, now);
    let (second, work_second) = advance(&mut engine, now);
    let (third, work_third) = advance(&mut engine, now);
    assert_eq!(second, first);
    assert_eq!(third, first);
    assert!(
        work_second.0 > work_first.0,
        "no span was evaluated ahead of a full window's next slide"
    );
    assert_eq!(work_third, work_second);

    let now = Timestamp((end + 2) * BUCKET);
    let arrivals = ingest_until(&mut engine, now);
    let (_, work_slid) = advance(&mut engine, now);
    assert_eq!(
        work_slid.0 - work_third.0,
        arrivals,
        "the slide paid for more than the objects that reported in its new bucket"
    );
}

/// One feed item of the lateness test.
enum Feed {
    Record(Record),
    Advance(Timestamp),
}

/// A stream laced with rejections: per complete bucket, the bucket's
/// records in time order with a time regression (a copy of an earlier
/// record, stamped before the latest one) after roughly one record in
/// eight, then the advance that seals the bucket, then records stamped
/// inside the bucket just sealed — one at or after the latest record,
/// late only by the frontier, and a few anywhere in the bucket — and one
/// stamped exactly at the frontier, which is on time.
fn laced_feed(records: &[Record], spec: WindowSpec, seed: u64) -> Vec<Feed> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = spec.bucket_millis;
    let last = spec.last_complete_bucket(records.last().expect("a non-empty stream").t);
    let mut feed = Vec::new();
    let mut next = 0;
    let mut latest = records[0].t.millis();
    for b in spec.bucket_of(records[0].t)..=last {
        let now = Timestamp((b + 1) * width);
        for r in take_before(records, &mut next, now) {
            latest = r.t.millis();
            feed.push(Feed::Record(r.clone()));
            if rng.gen_range(0..8) == 0 {
                let t = Timestamp(r.t.millis() - rng.gen_range(1..2 * width));
                feed.push(Feed::Record(Record { t, ..r.clone() }));
            }
        }
        feed.push(Feed::Advance(now));
        let template = records[next.min(records.len() - 1)].clone();
        let behind_only = rng.gen_range(latest..now.millis());
        let anywhere = (0..rng.gen_range(1..4)).map(|_| now.millis() - rng.gen_range(1..width));
        for t in std::iter::once(behind_only).chain(anywhere) {
            feed.push(Feed::Record(Record {
                t: Timestamp(t),
                ..template.clone()
            }));
        }
        feed.push(Feed::Record(Record { t: now, ..template }));
        latest = now.millis();
    }
    feed
}

/// The lateness contract both continuous engines document: fed the same
/// record at a time — time regressions and records behind the sealed
/// frontier mixed in between advances — the serving engine and the
/// recompute baseline accept and reject exactly the same records, with
/// the same error, and report the same window, top-k, flow bits and
/// deltas on every slide.
#[test]
fn both_continuous_engines_reject_the_same_records() {
    let world = indoor_sim::World::generate(indoor_sim::Scenario::tiny().with_seed(29));
    let space = Arc::new(world.space.clone());
    let slocs = QuerySet::new(world.space.slocs().iter().map(|s| s.id).collect());
    let spec = WindowSpec::new(30_000, 4);
    let flow = FlowConfig::default().with_dp_engine();
    let feed = laced_feed(&world.iupt.to_records(), spec, 29);

    let mut recompute = RecomputeEngine::new(Arc::clone(&space), 3, slocs.clone(), spec, flow);
    let (mut serve, _) = registered(
        &space,
        ServeConfig::with_buckets(spec.bucket_millis)
            .with_shards(3)
            .with_flow(flow),
        &[QuerySpec::new(3, slocs, spec)],
    );
    let (mut rejected, mut behind_frontier, mut slides) = (Vec::new(), 0, 0);
    let mut latest = None;
    for (i, item) in feed.into_iter().enumerate() {
        match item {
            Feed::Record(r) => {
                let t = r.t;
                let want = recompute.ingest(r.clone());
                let got = serve.ingest_all([r]);
                assert_eq!(got, want, "feed item {i}");
                if want.is_err() {
                    rejected.push(i);
                    behind_frontier += usize::from(latest.is_some_and(|l| t >= l));
                } else {
                    latest = Some(t);
                }
            }
            Feed::Advance(now) => {
                let want = recompute.advance(now).expect("recompute advance");
                let got = only(serve.advance_all(now).expect("serve advance"));
                assert_eq!(update_key(&got), update_key(&want), "slide at {now:?}");
                slides += 1;
            }
        }
    }
    assert!(slides >= 10, "only {slides} slides");
    assert_eq!(
        serve.stats().records_rejected,
        rejected.len() as u64,
        "the serving engine counted other rejections than the ones it returned"
    );
    assert!(
        behind_frontier > 0 && behind_frontier < rejected.len(),
        "{behind_frontier} of {} rejections were late only by the frontier: the feed must \
         exercise both the regression and the frontier check",
        rejected.len()
    );
}
