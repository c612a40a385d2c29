//! Store-equivalence gates for the columnar, interned `Iupt` record
//! log.
//!
//! The refactor's contract is that swapping the row-oriented
//! `Vec<Record>` log for the interned struct-of-arrays store changes
//! **nothing** about query results — not approximately, but bit for
//! bit. Checked here mechanically:
//!
//! 1. **Kernel-level row baseline** — a hand-rolled row store (a plain
//!    `Vec<Record>`, grouped per object with no `Iupt`, no time index,
//!    no interner) fed through the same `object_flow_contributions`
//!    kernel in ascending object-id order must produce the *identical
//!    flow bits* as `nested_loop` over the columnar table, at thread
//!    counts 1 and 4 (property test over random worlds/streams, and a
//!    deterministic skewed-stream gate) and 1, 2, 4 and 8 (a
//!    deterministic synthetic-scenario gate).
//! 2. **Round-trip invariance** — `naive` and `best_first` (the latter
//!    at the same thread counts) over the columnar table equal, flow-bit
//!    for flow-bit,
//!    the same engine over a table rebuilt from the row copy: interning
//!    is value-preserving, so a store round-trip cannot move a single
//!    bit.
//! 3. **Serving parity** — the serve engine, at shard counts 1 and 4,
//!    replayed over the stream, must equal the row baseline's ranking on
//!    the final window, flow-bit for flow-bit — while its interned shard
//!    logs actually deduplicate (`intern_hits > 0`) and undercut the row
//!    layout.
//!
//! Run with: `cargo test -p popflow-eval --test store_equivalence`

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, SampleSet, TimeInterval, Timestamp};
use indoor_model::SLocId;
use indoor_sim::{Scenario, StreamScenario, World};
use popflow_core::{
    best_first, naive, nested_loop, object_flow_contributions, rank_topk, ExecConfig, FlowConfig,
    QueryOutcome, QuerySet, RankedLocation, TkPlQuery, WindowSpec,
};
use popflow_serve::{QuerySpec, ServeConfig, ServeEngine};
use proptest::prelude::*;

/// The pre-refactor row store, reduced to its essence: owned records in
/// a `Vec`, grouped per object by a scan. Evaluates a query through the
/// same per-object kernel the engines use, accumulating in ascending
/// object-id order — exactly the Nested-Loop semantics, with no `Iupt`,
/// no time index, and no interner anywhere near the data.
fn row_store_flows(
    space: &indoor_model::IndoorSpace,
    rows: &[Record],
    query_set: &QuerySet,
    interval: TimeInterval,
    k: usize,
    cfg: &FlowConfig,
) -> Vec<RankedLocation> {
    let mut by_oid: BTreeMap<ObjectId, Vec<&SampleSet>> = BTreeMap::new();
    for r in rows {
        if interval.contains(r.t) {
            by_oid.entry(r.oid).or_default().push(&r.samples);
        }
    }
    let mut global: HashMap<SLocId, f64> = query_set.slocs().iter().map(|&s| (s, 0.0)).collect();
    for sets in by_oid.values() {
        if let Some(contribution) =
            object_flow_contributions(space, sets.iter().copied(), query_set, cfg)
                .expect("row baseline evaluation")
        {
            contribution.add_to(&mut global);
        }
    }
    rank_topk(global.into_iter().collect(), k)
}

fn assert_flow_bits_equal(tag: &str, got: &QueryOutcome, want: &[RankedLocation]) {
    assert_eq!(got.ranking.len(), want.len(), "{tag}: ranking length");
    for (g, w) in got.ranking.iter().zip(want) {
        assert_eq!(g.sloc, w.sloc, "{tag}: rank order diverged");
        assert_eq!(
            g.flow.to_bits(),
            w.flow.to_bits(),
            "{tag}: flow bits diverged at {} ({} vs {})",
            g.sloc,
            g.flow,
            w.flow
        );
    }
}

/// Batch gates 1 and 2 over one world: columnar NL at every thread
/// count in `threads` equals the row baseline bitwise; naive/BF equal
/// themselves over the row-rebuilt table bitwise, and BF at every
/// thread count equals BF at one.
fn assert_batch_equivalence(
    world: &World,
    interval: TimeInterval,
    cfg: &FlowConfig,
    threads: &[usize],
) {
    let space = &world.space;
    let slocs: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
    let k = slocs.len();
    let query_set = QuerySet::new(slocs);
    let query = TkPlQuery::new(k, query_set.clone(), interval);

    let rows: Vec<Record> = world.iupt.to_records();
    let want = row_store_flows(space, &rows, &query_set, interval, k, cfg);

    // Gate 1: the shared kernel over columnar storage, forked or not,
    // against the kernel over bare rows.
    let columnar = world.iupt.clone();
    for &threads in threads {
        let swept = FlowConfig {
            exec: ExecConfig::with_threads(threads),
            ..*cfg
        };
        let nl = nested_loop(space, &columnar, &query, &swept).expect("nested_loop");
        assert_flow_bits_equal(&format!("nested_loop@{threads}t vs rows"), &nl, &want);
    }

    // Gate 2: the other engines, columnar vs a table round-tripped
    // through the owned row copy (fresh store, fresh interner).
    let rebuilt = Iupt::from_records(rows);
    let nv_col = naive(space, &columnar, &query, cfg).expect("naive columnar");
    let nv_row = naive(space, &rebuilt, &query, cfg).expect("naive rebuilt");
    assert_flow_bits_equal("naive columnar vs rebuilt", &nv_col, &nv_row.ranking);
    let bf_col = best_first(space, &columnar, &query, cfg).expect("bf columnar");
    let bf_row = best_first(space, &rebuilt, &query, cfg).expect("bf rebuilt");
    assert_flow_bits_equal("best_first columnar vs rebuilt", &bf_col, &bf_row.ranking);
    for &threads in threads {
        let forked = FlowConfig {
            exec: ExecConfig::with_threads(threads),
            ..*cfg
        };
        let bf_par = best_first(space, &columnar, &query, &forked).expect("bf");
        assert_flow_bits_equal(
            &format!("best_first@{threads}t vs @1t"),
            &bf_par,
            &bf_col.ranking,
        );
    }
}

/// Gate 3 over one generated stream: the serve engine at shard
/// counts {1, 4} equals the row baseline on the final bucket-aligned
/// window, and the interned shard logs dedup and undercut rows.
fn assert_serve_equivalence(
    world: &World,
    stream: &indoor_sim::RecordStream,
    spec: WindowSpec,
    k: usize,
    cfg: &FlowConfig,
    expect_dedup: bool,
) {
    let space = Arc::new(world.space.clone());
    let slocs: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
    let query_set = QuerySet::new(slocs);
    let duration = world.scenario.mobility.duration_secs;
    let last_bucket = spec.last_complete_bucket(Timestamp::from_secs(duration));
    if last_bucket < 0 {
        return; // stream shorter than one bucket: nothing to advance over
    }
    let now = Timestamp(spec.bucket_interval(last_bucket).end.millis() + 1);
    let (_, window) = spec.window_at(now);

    let rows: Vec<Record> = stream.to_records();
    let want = row_store_flows(&world.space, &rows, &query_set, window, k, cfg);

    for shards in [1usize, 4] {
        let serve_cfg = ServeConfig::with_buckets(spec.bucket_millis)
            .with_shards(shards)
            .with_normalization(cfg.normalization);
        let mut engine = ServeEngine::new(Arc::clone(&space), serve_cfg);
        engine
            .register(QuerySpec::new(k, query_set.clone(), spec))
            .expect("register");
        for r in &rows {
            engine.ingest_all([r.clone()]).expect("ordered stream");
        }
        let mut updates = engine.advance_all(now).expect("final advance");
        assert_eq!(updates.len(), 1);
        let (_, update) = updates.remove(0);
        let tag = format!("serve {shards} shards vs rows");
        assert_flow_bits_equal(&tag, &update.outcome, &want);

        let stats = engine.stats();
        assert!(stats.log_bytes > 0, "{tag}: no log footprint");
        if expect_dedup {
            assert!(stats.intern_hits > 0, "{tag}: interner never deduplicated");
            assert!(
                (stats.log_bytes as usize) < stream.row_bytes(),
                "{tag}: interned shard logs ({}) not below row layout ({})",
                stats.log_bytes,
                stream.row_bytes(),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random worlds and streams: the interned columnar store yields
    /// bit-identical flows vs the row-store baseline across
    /// naive/NL/BF (serial and parallel, threads {1, 4}) and the serve
    /// engine (shards {1, 4}).
    #[test]
    fn columnar_store_is_bit_identical_to_rows(
        seed in 0u64..10_000,
        num_objects in 8usize..20,
        duration_secs in 600i64..1200,
        skewed in 0u32..2,
        full_product in 0u32..2,
    ) {
        let (skewed, full_product) = (skewed == 1, full_product == 1);
        let scenario = StreamScenario {
            num_objects,
            duration_secs,
            visit_secs: (45, 110),
            destination_skew: if skewed { 1.2 } else { 0.0 },
            dwell_cache: true,
            seed,
        };
        let (world, stream) = scenario.build();
        let cfg = if full_product {
            FlowConfig::default().with_dp_engine().with_full_product_normalization()
        } else {
            FlowConfig::default().with_dp_engine()
        };

        let interval = world.full_interval();
        assert_batch_equivalence(&world, interval, &cfg, &[1, 4]);

        let spec = WindowSpec::new((duration_secs / 6).max(1) * 1000, 4);
        assert_serve_equivalence(&world, &stream, spec, 3, &cfg, true);
    }
}

/// The deterministic acceptance gate on the synthetic scenario the
/// batch drivers scale over: every engine's flows over the columnar
/// store are bit-identical to the row-store baseline, and NL and BF are
/// bit-identical to themselves at 1, 2, 4 and 8 threads.
#[test]
fn batch_scale_fixture_flows_match_row_store_bitwise() {
    let world = World::generate(Scenario::synthetic_scaled(0.02).with_seed(0xf00d));
    let cfg = FlowConfig::default().with_dp_engine();
    assert_batch_equivalence(&world, world.full_interval(), &cfg, &[1, 2, 4, 8]);
}

/// The deterministic acceptance gate on a `destination_skew = 0.9`
/// visitor stream: the serve engine bit-matches the row baseline, the
/// interner actually deduplicates (hit rate > 0), and the interned
/// stream undercuts the row layout it replaced — as it must at skews
/// 0.0 and 0.5 too, where there is less to deduplicate.
#[test]
fn skewed_stream_serves_row_identical_flows_with_dedup() {
    let scenario = |destination_skew| StreamScenario {
        num_objects: 60,
        duration_secs: 2400,
        visit_secs: (60, 120),
        destination_skew,
        dwell_cache: true,
        seed: 0xabcd,
    };
    for skew in [0.0, 0.5] {
        let (_, stream) = scenario(skew).build();
        let stats = stream.store_stats();
        assert!(
            stats.bytes < stream.row_bytes(),
            "skew {skew}: interned stream ({}) not below row layout ({})",
            stats.bytes,
            stream.row_bytes()
        );
    }
    let (world, stream) = scenario(0.9).build();
    let stats = stream.store_stats();
    assert!(
        stats.intern_hits > 0,
        "skewed stream interned no duplicates: {stats:?}"
    );
    assert!(
        stats.intern_hit_rate() > 0.05,
        "hit rate implausibly low: {stats:?}"
    );
    assert!(
        stats.bytes < stream.row_bytes(),
        "interned stream ({}) not below row layout ({})",
        stats.bytes,
        stream.row_bytes()
    );

    let cfg = FlowConfig::default().with_dp_engine();
    assert_batch_equivalence(&world, world.full_interval(), &cfg, &[1, 4]);
    let spec = WindowSpec::new(300_000, 4);
    assert_serve_equivalence(&world, &stream, spec, 3, &cfg, true);
}
