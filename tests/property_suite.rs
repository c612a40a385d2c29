//! Cross-crate property tests on randomly generated buildings and data:
//! structural invariants that must hold for *any* world, not just the
//! fixtures.

use indoor_geom::Point;
use indoor_iupt::{TimeInterval, Timestamp};
use indoor_model::{CellId, PartitionId};
use indoor_sim::{
    generate_building, simulate_mobility, BuildingGenConfig, MobilityConfig, Scenario, World,
};
use popflow_core::{
    best_first, nested_loop, reduction, ExecConfig, FlowConfig, QuerySet, TkPlQuery,
};
use proptest::prelude::*;

fn arb_building_config() -> impl Strategy<Value = BuildingGenConfig> {
    (
        1u16..3,     // floors
        2usize..4,   // room rows
        2usize..5,   // rooms per row
        0.0..1.0f64, // interconnect fraction
        0.3..1.0f64, // corridor opening ploc fraction
        1u64..500,   // seed
    )
        .prop_map(
            |(floors, rows, cols, inter, opening, seed)| BuildingGenConfig {
                floors,
                width: 12.0 + cols as f64 * 7.0,
                corridor_width: 2.0,
                room_rows: rows,
                rooms_per_row: cols,
                room_depth: 5.0,
                corridor_segment_len: 11.0,
                ploc_spacing: 3.0,
                room_door_ploc_fraction: 1.0,
                corridor_opening_ploc_fraction: opening,
                room_interconnect_fraction: inter,
                staircases: floors > 1,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cells partition the partition set: every partition belongs to
    /// exactly one cell, and cell membership round-trips.
    #[test]
    fn cells_partition_the_building(cfg in arb_building_config()) {
        let space = generate_building(&cfg);
        let n = space.building().partition_count();
        let mut seen = vec![false; n];
        for cell in space.cells() {
            prop_assert!(!cell.partitions.is_empty());
            for &p in &cell.partitions {
                prop_assert!(!seen[p.index()], "partition in two cells");
                seen[p.index()] = true;
                prop_assert_eq!(space.cell_of_partition(p), cell.id);
            }
        }
        prop_assert!(seen.into_iter().all(|s| s), "partition missing from cells");
    }

    /// Every P-location's cell set is consistent with the GISL edge that
    /// carries it, and equivalence classes tile the P-location set.
    #[test]
    fn matrix_classes_are_consistent(cfg in arb_building_config()) {
        let space = generate_building(&cfg);
        let m = space.matrix();
        let mut members = 0usize;
        for class in m.classes() {
            members += class.members.len();
            for &p in &class.members {
                prop_assert_eq!(m.cells_of(p), class.cells);
                prop_assert_eq!(m.class_of(p), class.id);
            }
        }
        prop_assert_eq!(members, m.ploc_count());
        // MIL symmetry on a sample of pairs.
        let count = m.ploc_count().min(12);
        for i in 0..count {
            for j in 0..count {
                let pi = indoor_model::PLocId(i as u32);
                let pj = indoor_model::PLocId(j as u32);
                let forward = m.cells_between(pi, pj);
                let backward = m.cells_between(pj, pi);
                prop_assert_eq!(forward.as_slice(), backward.as_slice());
            }
        }
    }

    /// Shortest routes are at least the straight-line distance and their
    /// legs are temporally contiguous walks within single partitions.
    #[test]
    fn shortest_routes_are_sane(cfg in arb_building_config(), seed in 0u64..100) {
        let space = generate_building(&cfg);
        let graph = space.door_graph();
        let building = space.building();
        let rooms: Vec<PartitionId> = building
            .partitions_of_kind(indoor_model::PartitionKind::Room)
            .map(|p| p.id)
            .collect();
        prop_assume!(rooms.len() >= 2);
        let a = rooms[seed as usize % rooms.len()];
        let b = rooms[(seed as usize + 1) % rooms.len()];
        let pa = building.partition(a).rect.center();
        let pb = building.partition(b).rect.center();
        let Some(route) = graph.shortest_route(building, (a, pa), (b, pb)) else {
            // Disconnected layouts are possible only without staircases on
            // multi-floor configs — not generated here.
            return Err(TestCaseError::fail("generated building disconnected"));
        };
        if building.partition(a).floor == building.partition(b).floor {
            prop_assert!(route.length + 1e-9 >= pa.distance(pb));
        }
        let sum: f64 = route.legs.iter().map(|l| l.cost()).sum();
        prop_assert!((sum - route.length).abs() < 1e-6);
    }

    /// Data reduction never increases the possible-path bound, preserves
    /// per-set probability mass, and leaves PSLs unchanged.
    #[test]
    fn reduction_invariants_on_simulated_data(cfg in arb_building_config()) {
        let space = generate_building(&cfg);
        let mobility = MobilityConfig {
            num_objects: 3,
            duration_secs: 240,
            vmax: 1.0,
            dwell_secs: (15, 45),
            lifespan_secs: (120, 240),
            destination_skew: 0.5,
            seed: cfg.seed,
        };
        let trajectories = simulate_mobility(&space, &mobility);
        let iupt = indoor_sim::generate_iupt(
            &space,
            &trajectories,
            &indoor_sim::PositioningConfig::paper_synthetic(),
        );
        let mut by_oid: std::collections::HashMap<_, Vec<_>> = Default::default();
        for r in iupt.iter() {
            by_oid.entry(r.oid).or_default().push(r.samples.clone());
        }
        for sets in by_oid.values() {
            let with = reduction::scan_sequence(&space, sets.iter(), true).unwrap();
            let without = reduction::scan_sequence(&space, sets.iter(), false).unwrap();
            prop_assert!(with.sets.len() <= without.sets.len());
            prop_assert!(with.max_paths() <= without.max_paths());
            prop_assert_eq!(&with.psls, &without.psls);
            for s in &with.sets {
                prop_assert!((s.prob_sum() - 1.0).abs() < 1e-6);
            }
            // Query pruning is consistent with PSL overlap.
            if let Some(&first) = with.psls.first() {
                let hit = QuerySet::new(vec![first]);
                prop_assert!(
                    reduction::reduce_for_query(&space, sets.iter(), &hit, true)
                        .unwrap()
                        .is_some()
                );
            }
        }
    }
}

#[test]
fn point_partition_lookup_agrees_with_geometry() {
    // Deterministic sweep: partition_at must agree with direct rect
    // containment on a lattice of probe points.
    let space = generate_building(&BuildingGenConfig::tiny());
    let building = space.building();
    let floor = building.floors()[0];
    let bounds = building.floor_bounds(floor).unwrap();
    let mut probes = 0;
    for i in 0..30 {
        for j in 0..30 {
            let p = Point::new(
                bounds.min.x + bounds.width() * (i as f64 + 0.5) / 30.0,
                bounds.min.y + bounds.height() * (j as f64 + 0.5) / 30.0,
            );
            let via_index = building.partitions_at(floor, p);
            let via_scan: Vec<PartitionId> = building
                .partitions()
                .iter()
                .filter(|part| part.floor == floor && part.rect.contains_point(p))
                .map(|part| part.id)
                .collect();
            let mut a = via_index.clone();
            let mut b = via_scan.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "lookup mismatch at {p}");
            probes += 1;
        }
    }
    assert_eq!(probes, 900);
    let _ = CellId(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Both batch drivers return, at thread counts {2, 4, 7}, exactly
    /// their one-thread outcome — same slocs at every rank, same flow
    /// bits, same work accounting — and agree with each other bit for
    /// bit, across random worlds, random query subsets, random windows,
    /// and both presence-engine families. This is the `popflow-exec`
    /// determinism contract observed end to end.
    #[test]
    fn parallel_drivers_bit_identical_to_serial(
        seed in 0u64..500,
        k in 1usize..5,
        stride in 1usize..4,
        start_frac in 0.0f64..0.5,
        len_frac in 0.3f64..1.0,
        engine_pick in 0u8..2,
    ) {
        let world = World::generate(Scenario::tiny().with_seed(seed));
        let slocs: Vec<_> = world
            .space
            .slocs()
            .iter()
            .map(|s| s.id)
            .enumerate()
            .filter(|(i, _)| i % stride == 0)
            .map(|(_, s)| s)
            .collect();
        prop_assume!(!slocs.is_empty());

        let dur_millis = world.scenario.mobility.duration_secs * 1000;
        let start = (dur_millis as f64 * start_frac) as i64;
        let end = start + ((dur_millis - start) as f64 * len_frac) as i64;
        let query = TkPlQuery::new(
            k,
            QuerySet::new(slocs),
            TimeInterval::new(Timestamp(start), Timestamp(end.max(start + 1))),
        );
        let base = if engine_pick == 0 {
            FlowConfig::default().with_dp_engine()
        } else {
            // The hybrid engine: enumeration with DP fallback — both
            // fallback paths must stay deterministic under threading.
            FlowConfig {
                engine: popflow_core::PresenceEngine::Hybrid,
                path_budget: 20_000,
                ..FlowConfig::default()
            }
        };

        let nl = nested_loop(&world.space, &world.iupt, &query, &base).unwrap();
        let bf = best_first(&world.space, &world.iupt, &query, &base).unwrap();
        prop_assert_eq!(nl.topk_slocs(), bf.topk_slocs(), "NL vs BF slocs (seed {})", seed);
        for (a, b) in nl.ranking.iter().zip(bf.ranking.iter()) {
            prop_assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "NL vs BF bits (seed {})", seed);
        }
        prop_assert!(bf.stats.objects_computed <= nl.stats.objects_computed);
        for threads in [2usize, 4, 7] {
            let cfg = FlowConfig {
                exec: ExecConfig::with_threads(threads),
                ..base
            };
            for (name, serial, par) in [
                ("nested_loop", &nl, nested_loop(&world.space, &world.iupt, &query, &cfg).unwrap()),
                ("best_first", &bf, best_first(&world.space, &world.iupt, &query, &cfg).unwrap()),
            ] {
                prop_assert_eq!(
                    serial.topk_slocs(),
                    par.topk_slocs(),
                    "{} slocs diverged at {} threads (seed {})",
                    name,
                    threads,
                    seed
                );
                for (a, b) in serial.ranking.iter().zip(par.ranking.iter()) {
                    prop_assert_eq!(
                        a.flow.to_bits(),
                        b.flow.to_bits(),
                        "{} flow bits diverged at {} threads (seed {}): {} vs {}",
                        name,
                        threads,
                        seed,
                        a.flow,
                        b.flow
                    );
                }
                prop_assert_eq!(serial.stats.objects_computed, par.stats.objects_computed);
                prop_assert_eq!(serial.stats.dp_fallback_objects, par.stats.dp_fallback_objects);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `WindowSpec` arithmetic invariants, including negative timestamps:
    /// buckets tile the time axis, a bucket is complete only once its
    /// final millisecond has elapsed, and every instant of the window at
    /// `now` maps into the window's bucket range.
    #[test]
    fn window_spec_invariants(
        bucket_millis in 1i64..5_000,
        window_buckets in 1usize..10,
        now_millis in -1_000_000i64..1_000_000,
        probe in 0u64..u64::MAX,
    ) {
        use indoor_iupt::Timestamp;
        use popflow_core::WindowSpec;

        let spec = WindowSpec::new(bucket_millis, window_buckets);
        let now = Timestamp(now_millis);

        // bucket_of / bucket_interval consistency: every t lies in
        // exactly the bucket that claims it, and buckets abut.
        let b = spec.bucket_of(now);
        let iv = spec.bucket_interval(b);
        prop_assert!(iv.contains(now), "t {now_millis} outside its bucket {b}");
        prop_assert_eq!(iv.end.millis() - iv.start.millis() + 1, bucket_millis);
        prop_assert_eq!(spec.bucket_interval(b + 1).start.millis(), iv.end.millis() + 1);

        // last_complete_bucket: bucket `c` has fully elapsed
        // (end < now), bucket `c + 1` has not.
        let c = spec.last_complete_bucket(now);
        prop_assert!(
            spec.bucket_interval(c).end < now,
            "bucket {c} claimed complete at {now_millis} but its end has not elapsed"
        );
        prop_assert!(
            spec.bucket_interval(c + 1).end >= now,
            "bucket {} should also count as complete at {now_millis}", c + 1
        );

        // window_at: ends at the last complete bucket, spans exactly
        // window_buckets buckets, and every contained instant maps into
        // [start bucket, end bucket].
        let (end_bucket, window) = spec.window_at(now);
        prop_assert_eq!(end_bucket, c);
        let start_bucket = end_bucket - window_buckets as i64 + 1;
        prop_assert_eq!(
            window.end.millis() - window.start.millis() + 1,
            spec.window_millis()
        );
        prop_assert_eq!(window.start.millis(), start_bucket * bucket_millis);
        prop_assert_eq!(window.end.millis(), (end_bucket + 1) * bucket_millis - 1);
        // A pseudo-random probe inside the window, sampling the whole
        // span across cases.
        let span = spec.window_millis();
        let offset = (probe % span as u64) as i64;
        let t = Timestamp(window.start.millis() + offset);
        prop_assert!(window.contains(t));
        let tb = spec.bucket_of(t);
        prop_assert!(
            start_bucket <= tb && tb <= end_bucket,
            "window instant {} fell in bucket {tb}, outside [{start_bucket}, {end_bucket}]",
            t.millis()
        );
        // Window boundaries land exactly on bucket boundaries.
        prop_assert_eq!(spec.bucket_of(window.start), start_bucket);
        prop_assert_eq!(spec.bucket_of(window.end), end_bucket);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram recording is order- and partition-independent: any
    /// split of a value stream across two histograms — with one part
    /// recorded in reverse — merges to exactly the snapshot of
    /// recording everything into one histogram in order. This is what
    /// makes the per-shard and per-engine histograms safe to aggregate.
    #[test]
    fn histogram_merge_is_order_independent(
        values in proptest::collection::vec(0u64..(1u64 << 44), 1..120),
        split in 0usize..1_000,
    ) {
        use popflow_obs::Histogram;

        let split = split % values.len();
        let whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let left = Histogram::new();
        for &v in &values[..split] {
            left.record(v);
        }
        let right = Histogram::new();
        for &v in values[split..].iter().rev() {
            right.record(v);
        }
        let mut merged = left.snapshot();
        merged.merge_from(&right.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }

    /// Quantiles are monotone in `q`, never exceed the exact maximum,
    /// and the log-bucketed p999 stays within the scheme's 1/16
    /// relative-error bound of it.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(0u64..(1u64 << 44), 1..120),
    ) {
        use popflow_obs::Histogram;

        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        let exact_max = values.iter().copied().max().unwrap();
        prop_assert_eq!(snap.max, exact_max);
        let qs = [
            snap.quantile(0.50),
            snap.quantile(0.90),
            snap.quantile(0.99),
            snap.quantile(0.999),
        ];
        for pair in qs.windows(2) {
            prop_assert!(pair[0] <= pair[1], "quantiles not monotone: {qs:?}");
        }
        prop_assert!(qs[3] <= exact_max);
        // p999 is the top rank here (< 1000 samples): it lands in the
        // maximum's bucket, whose upper bound overshoots the exact max
        // by at most a sub-bucket width (1/16 relative).
        prop_assert!(
            qs[3] >= exact_max - exact_max / 16,
            "p999 {} under the error bound of max {exact_max}",
            qs[3]
        );
    }
}

/// A populated snapshot survives the JSON round-trip bit for bit — the
/// `BENCH_obs.json` artifact is a faithful export.
#[test]
fn obs_snapshot_json_round_trips() {
    use popflow_obs::{MetricsRegistry, Snapshot};

    let registry = MetricsRegistry::new();
    registry.counter("serve.records_ingested").add(12_345);
    registry.gauge("serve.log_bytes").set(987_654_321);
    let h = registry.histogram("serve.advance_ns");
    for v in [0, 1, 15, 16, 17, 1_000, 1_000_000, u64::MAX] {
        h.record(v);
    }
    let snap = registry.snapshot();
    let parsed = Snapshot::from_json(&snap.to_json()).expect("export parses");
    assert_eq!(parsed, snap);
}

/// The diff of a snapshot with itself is all-zero — per-interval deltas
/// of an idle engine report no activity.
#[test]
fn obs_snapshot_self_diff_is_zero() {
    use popflow_obs::MetricsRegistry;

    let registry = MetricsRegistry::new();
    registry.counter("c").add(7);
    registry.gauge("g").set(3);
    let h = registry.histogram("h");
    h.record(42);
    h.record(42_000_000);
    let snap = registry.snapshot();
    let diff = snap.diff(&snap);
    assert!(diff.is_all_zero(), "self-diff not zero: {diff:?}");
    assert_eq!(diff.counters["c"], 0);
    assert!(diff.histograms["h"].is_empty());
}
