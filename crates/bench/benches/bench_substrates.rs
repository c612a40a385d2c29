//! Microbenchmarks of the substrates: the 1D time index, data
//! reduction, and possible-path construction.
//! Not a paper artifact — regressions here would silently distort the
//! table/figure benches, so they are pinned.

use criterion::{criterion_group, criterion_main, Criterion};
use indoor_iupt::{SampleSet, TimeIndex, TimeInterval, Timestamp};
use popflow_bench::real_lab;
use popflow_core::paths::build_paths;
use popflow_core::scan_sequence;

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
    let sets: Vec<Vec<SampleSet>> = seqs
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
    // The two branches of the reduction fold, timed apart. A record
    // that repeats its predecessor's support (a dwelling device, the
    // bulk of an indoor feed) is added into the open run's sums; one
    // that changes it is intra-merged into a set of its own. The gain of
    // the fold over a set per record depends on the share of the former.
    let all_sets = || sets.iter().flatten();
    let a = all_sets()
        .max_by_key(|s| s.len())
        .expect("window has records");
    let b = all_sets()
        .find(|s| !s.same_plocs(a))
        .expect("window has two supports");
    let reweighted = |set: &SampleSet, i: usize| {
        let weights = set.samples().iter().enumerate();
        SampleSet::normalized(
            weights
                .map(|(j, s)| (s.loc, s.prob + 0.01 * ((i + j) % 7) as f64))
                .collect(),
        )
        .expect("positive weights")
    };
    let dwelling: Vec<SampleSet> = (0..1000).map(|i| reweighted(a, i)).collect();
    let changing: Vec<SampleSet> = (0..1000)
        .map(|i| reweighted(if i % 2 == 0 { a } else { b }, i))
        .collect();
    for (name, input) in [
        ("substrate/reduce_1000_repeated_supports", &dwelling),
        ("substrate/reduce_1000_changing_supports", &changing),
    ] {
        c.bench_function(name, |bch| {
            bch.iter(|| scan_sequence(space, input.iter(), true).unwrap().sets.len())
        });
    }
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

criterion_group!(benches, bench_time_index, bench_reduction_and_paths);
criterion_main!(benches);
