//! Batch query drivers on the `popflow-exec` substrate: `nested_loop`
//! and `best_first` across `FlowConfig::exec` thread counts, on one
//! synthetic batch window. Single-core machines should see ≈1× (the
//! determinism contract costs nothing when there is nothing to win);
//! multi-core machines should see records/s scale with the thread count
//! for `nested_loop`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popflow_bench::{query, synthetic_lab};
use popflow_core::{best_first, nested_loop, FlowConfig};

fn bench(c: &mut Criterion) {
    let mut lab = synthetic_lab();
    let q = query(&lab, 5, 1.0, 30, 17);
    // The DP engine keeps per-object cost predictable, so the sweep
    // measures parallel scaling rather than path-count variance.
    let flow = FlowConfig::default().with_dp_engine();

    let mut group = c.benchmark_group("query_exec");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    for threads in [1usize, 2, 4, 8] {
        let swept = FlowConfig {
            exec: popflow_core::ExecConfig::with_threads(threads),
            ..flow
        };
        group.bench_with_input(
            BenchmarkId::new("nested_loop", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let (space, iupt) = lab.space_and_iupt();
                    nested_loop(space, iupt, &q, &swept).unwrap().ranking.len()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("best_first", threads), &threads, |b, _| {
            b.iter(|| {
                let (space, iupt) = lab.space_and_iupt();
                best_first(space, iupt, &q, &swept).unwrap().ranking.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
