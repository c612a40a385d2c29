//! Microbenchmarks of the substrates: R-tree construction and queries,
//! the 1D time index, data reduction, and possible-path construction.
//! Not a paper artifact — regressions here would silently distort the
//! table/figure benches, so they are pinned.

use criterion::{criterion_group, criterion_main, Criterion};
use indoor_geom::{Point, Rect};
use indoor_iupt::TimeInterval;
use indoor_iupt::Timestamp;
use indoor_rtree::{RTree, TimeIndex};
use popflow_bench::real_lab;
use popflow_core::paths::build_paths;
use popflow_core::scan_sequence;

fn bench_rtree(c: &mut Criterion) {
    let entries: Vec<(Rect, usize)> = (0..2000)
        .map(|i| {
            let x = (i % 50) as f64 * 2.0;
            let y = (i / 50) as f64 * 2.0;
            (Rect::from_coords(x, y, x + 1.5, y + 1.5), i)
        })
        .collect();
    let query = Rect::from_coords(10.0, 10.0, 40.0, 40.0);
    c.bench_function("substrate/rtree_bulk_query", |b| {
        let rt = RTree::bulk_load(
            entries
                .iter()
                .map(|&(mbr, data)| indoor_rtree::Entry { mbr, data })
                .collect(),
        );
        b.iter(|| rt.query(&query).len())
    });
    let _ = Point::new(0.0, 0.0);
}

fn bench_time_index(c: &mut Criterion) {
    let idx = TimeIndex::from_sorted((0..200_000i64).map(|t| (t, t)).collect());
    c.bench_function("substrate/time_index_range", |b| {
        b.iter(|| idx.range_query_built(50_000, 51_000).len())
    });
}

fn bench_reduction_and_paths(c: &mut Criterion) {
    let mut lab = real_lab();
    let iv = lab.random_window(30, 1);
    let (space, iupt) = lab.space_and_iupt();
    let seqs = iupt.sequences_in(iv);
    let sets: Vec<Vec<indoor_iupt::SampleSet>> = seqs
        .iter()
        .map(|s| s.records.iter().map(|r| r.samples.clone()).collect())
        .collect();
    c.bench_function("substrate/reduce_30min_window", |b| {
        b.iter(|| {
            sets.iter()
                .map(|s| scan_sequence(space, s.iter(), true).unwrap().sets.len())
                .sum::<usize>()
        })
    });
    let reduced: Vec<_> = sets
        .iter()
        .map(|s| scan_sequence(space, s.iter(), true).unwrap().sets)
        .collect();
    c.bench_function("substrate/build_paths_30min_window", |b| {
        b.iter(|| {
            reduced
                .iter()
                .map(|s| {
                    build_paths(space.matrix(), s, 200_000)
                        .map(|p| p.len())
                        .unwrap_or(0)
                })
                .sum::<usize>()
        })
    });
    let _ = TimeInterval::new(Timestamp(0), Timestamp(1));
}

criterion_group!(
    benches,
    bench_rtree,
    bench_time_index,
    bench_reduction_and_paths
);
criterion_main!(benches);
