//! The kernel memo ([`popflow_core::FlowMemo`]) is a pure compute
//! cache: attaching one — to batch requests or to the serving engine —
//! must never change a single flow bit, on any generated world, under
//! any engine, thread count, strategy, or capacity. These are the
//! cross-crate properties that make "memo on by default" safe.

use std::sync::Arc;

use indoor_iupt::Timestamp;
use indoor_sim::StreamScenario;
use popflow_core::query::request::{BestFirst, NestedLoop};
use popflow_core::{
    BatchEngine, ContinuousEngine, ExecConfig, FlowConfig, FlowMemo, QueryOutcome, QuerySet,
    WindowSpec,
};
use popflow_serve::{AdvanceStrategy, QuerySpec, ServeConfig, ServeEngine};
use proptest::prelude::*;

/// Bit-exact outcome comparison: same slocs at every rank, same flow
/// bits.
fn identical(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.ranking.len() == b.ranking.len()
        && a.ranking
            .iter()
            .zip(b.ranking.iter())
            .all(|(x, y)| x.sloc == y.sloc && x.flow.to_bits() == y.flow.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both memo-aware batch engines — Nested-Loop and Best-First, at 1
    /// and 4 threads — return bit-identical outcomes with a shared memo
    /// attached and with memoization off, over two rounds against the
    /// same store (round two reads round one's entries: NL writes, BF
    /// reads).
    #[test]
    fn batch_engines_bit_identical_memo_on_off(
        seed in 1u64..400,
        objects in 8usize..20,
        threads_sel in 0usize..2,
        skew in 0.0..1.2f64,
    ) {
        let threads = [1usize, 4][threads_sel];
        let (world, _stream) = StreamScenario {
            num_objects: objects,
            duration_secs: 600,
            visit_secs: (40, 90),
            destination_skew: skew,
            dwell_cache: true,
            seed,
        }
        .build();
        let space = world.space;
        let mut iupt = world.iupt;
        let interval = iupt.time_bounds().expect("generated stream is nonempty");
        let slocs: Vec<_> = space.slocs().iter().map(|s| s.id).collect();
        let flow = FlowConfig {
            exec: ExecConfig::with_threads(threads),
            ..FlowConfig::default().with_dp_engine()
        };
        let base = popflow_core::TkplqRequest::new(4, QuerySet::new(slocs)).with_flow(flow);
        let memo = Arc::new(FlowMemo::new());
        let memoized = base.clone().with_memo(Arc::clone(&memo));
        let off = base.with_flow(flow.with_memo(false));
        for round in 0..2 {
            for (name, engine) in [
                ("nested_loop", &NestedLoop as &dyn BatchEngine),
                ("best_first", &BestFirst),
            ] {
                let on = engine
                    .evaluate(&space, &mut iupt, &memoized, interval)
                    .expect("memoized evaluation");
                let plain = engine
                    .evaluate(&space, &mut iupt, &off, interval)
                    .expect("memo-off evaluation");
                prop_assert!(
                    identical(&on, &plain),
                    "{name} diverged memo on/off (seed {seed}, round {round}, \
                     {threads} threads)"
                );
            }
        }
        // The rounds genuinely exercised the cache, not just bypassed it.
        let stats = memo.stats();
        prop_assert!(stats.hits > 0, "no memo hits over two rounds: {stats:?}");
        prop_assert!(stats.bytes > 0, "no resident entries: {stats:?}");
    }

    /// Both serving strategies stay bit-identical with the shard memos
    /// on and off across a replayed stream that registers a
    /// union-growing query mid-stream (invalidating every shard memo)
    /// and unregisters it again two slides later.
    #[test]
    fn serve_strategies_bit_identical_memo_on_off(
        seed in 1u64..300,
        shards in 1usize..4,
    ) {
        let (world, stream) = StreamScenario {
            num_objects: 14,
            duration_secs: 900,
            visit_secs: (30, 80),
            destination_skew: 0.9,
            dwell_cache: true,
            seed,
        }
        .build();
        let space = Arc::new(world.space.clone());
        let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
        let split = (slocs.len() * 2 / 3).max(1);
        let narrow = QuerySet::new(slocs[..split].to_vec());
        let full = QuerySet::new(slocs);
        let spec = WindowSpec::new(150_000, 3);
        for strategy in [AdvanceStrategy::Eager, AdvanceStrategy::BoundPruned] {
            let base = ServeConfig::with_buckets(150_000)
                .with_shards(shards)
                .with_strategy(strategy)
                .with_query(QuerySpec::new(3, narrow.clone(), spec));
            let mut on = ServeEngine::new(Arc::clone(&space), base.clone());
            let mut off = ServeEngine::new(Arc::clone(&space), base.with_memo(false));
            let mut next = 0usize;
            let mut registered = None;
            for slide in 1..=6i64 {
                let now = Timestamp::from_secs(slide * 150);
                while next < stream.len() && stream.get(next).t <= now {
                    let record = stream.get(next).to_record();
                    on.ingest(record.clone()).expect("time-ordered replay");
                    off.ingest(record).expect("time-ordered replay");
                    next += 1;
                }
                if slide == 3 {
                    let spec_full = QuerySpec::new(3, full.clone(), spec);
                    let a = on.register(spec_full.clone()).expect("register");
                    let b = off.register(spec_full).expect("register");
                    prop_assert_eq!(a, b);
                    registered = Some(a);
                }
                if slide == 5 {
                    let id = registered.take().expect("registered at slide 3");
                    on.unregister(id).expect("unregister");
                    off.unregister(id).expect("unregister");
                }
                let mut a = on.advance_all(now).expect("advance");
                let mut b = off.advance_all(now).expect("advance");
                a.sort_by_key(|(id, _)| *id);
                b.sort_by_key(|(id, _)| *id);
                prop_assert_eq!(a.len(), b.len(), "{:?} slide {}", strategy, slide);
                for ((ia, ua), (ib, ub)) in a.iter().zip(b.iter()) {
                    prop_assert_eq!(ia, ib, "{:?} slide {}", strategy, slide);
                    prop_assert_eq!(
                        ua.outcome.ranking.len(),
                        ub.outcome.ranking.len(),
                        "{:?} slide {}", strategy, slide
                    );
                    for (x, y) in ua.outcome.ranking.iter().zip(ub.outcome.ranking.iter()) {
                        prop_assert_eq!(x.sloc, y.sloc, "{:?} slide {}", strategy, slide);
                        prop_assert_eq!(
                            x.flow.to_bits(),
                            y.flow.to_bits(),
                            "{:?} slide {} sloc {:?}", strategy, slide, x.sloc
                        );
                    }
                }
            }
        }
    }
}

/// Eviction under a starved capacity is deterministic and lossless: a
/// few-KiB memo stays within its budget, serves strictly fewer hits
/// than an unbounded one over the identical rounds, and still returns
/// bit-identical flows — eviction only ever costs recomputation.
#[test]
fn tiny_capacity_evicts_without_changing_flows() {
    const TINY_BYTES: usize = 4096;
    const ROUNDS: usize = 3;
    let (world, _stream) = StreamScenario {
        num_objects: 24,
        duration_secs: 900,
        visit_secs: (40, 90),
        destination_skew: 0.9,
        dwell_cache: true,
        seed: 77,
    }
    .build();
    let space = world.space;
    let mut iupt = world.iupt;
    let interval = iupt.time_bounds().expect("generated stream is nonempty");
    let slocs: Vec<_> = space.slocs().iter().map(|s| s.id).collect();
    let flow = FlowConfig::default().with_dp_engine();
    let base = popflow_core::TkplqRequest::new(4, QuerySet::new(slocs)).with_flow(flow);
    let off = base.clone().with_flow(flow.with_memo(false));

    let rate = |memo: &FlowMemo| {
        let s = memo.stats();
        s.hits as f64 / (s.hits + s.misses).max(1) as f64
    };
    let unbounded = Arc::new(FlowMemo::new());
    let starved = Arc::new(FlowMemo::with_capacity(TINY_BYTES));
    for (memo, label) in [(&unbounded, "unbounded"), (&starved, "starved")] {
        let request = base.clone().with_memo(Arc::clone(memo));
        for round in 0..ROUNDS {
            let on = NestedLoop
                .evaluate(&space, &mut iupt, &request, interval)
                .expect("memoized evaluation");
            let plain = NestedLoop
                .evaluate(&space, &mut iupt, &off, interval)
                .expect("memo-off evaluation");
            assert!(
                identical(&on, &plain),
                "{label} memo diverged from memo-off on round {round}"
            );
        }
    }
    let starved_stats = starved.stats();
    assert!(
        starved_stats.bytes <= TINY_BYTES,
        "eviction failed to hold the byte budget: {starved_stats:?}"
    );
    assert!(
        rate(&starved) < 1.0,
        "a starved memo cannot serve every lookup: {starved_stats:?}"
    );
    assert!(
        rate(&starved) < rate(&unbounded),
        "eviction should cost hits: starved {:?} vs unbounded {:?}",
        starved_stats,
        unbounded.stats()
    );
    assert!(
        rate(&unbounded) > 0.5,
        "repeated identical rounds should mostly hit an unbounded memo: {:?}",
        unbounded.stats()
    );
}
