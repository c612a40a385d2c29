//! Serving-path benchmark (ours): the incremental sharded
//! `popflow-serve` engine vs. the recompute-per-slide baseline on one
//! replayed visitor stream — the whole ingest-and-advance loop, at two
//! window/bucket ratios.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popflow_core::{FlowConfig, QuerySet, QuerySpec, RecomputeEngine, WindowSpec};
use popflow_eval::experiments::streaming::{drive_stream, StreamingConfig};
use popflow_serve::{ServeConfig, ServeEngine};

fn bench(c: &mut Criterion) {
    let cfg = StreamingConfig::scaled(0.05, 0xcafe);
    let (world, stream) = cfg.scenario.build();
    let records = &stream;
    let space = Arc::new(world.space.clone());
    let slocs: Vec<_> = world.space.slocs().iter().map(|s| s.id).collect();
    let flow = FlowConfig::default().with_dp_engine();
    let duration = cfg.scenario.duration_secs;

    let mut group = c.benchmark_group("serve_stream");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for ratio in [8usize, 16] {
        let spec = WindowSpec::new(cfg.bucket_secs * 1000, ratio);
        group.bench_with_input(
            BenchmarkId::new("incremental", format!("w/b={ratio}")),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let mut engine = ServeEngine::new(
                        Arc::clone(&space),
                        ServeConfig::with_buckets(spec.bucket_millis)
                            .with_query(QuerySpec::new(cfg.k, QuerySet::new(slocs.clone()), spec))
                            .with_shards(cfg.num_shards)
                            .with_flow(flow),
                    );
                    drive_stream(&mut engine, records, spec, duration)
                        .topks
                        .len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("recompute", format!("w/b={ratio}")),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let mut engine = RecomputeEngine::new(
                        Arc::clone(&space),
                        cfg.k,
                        QuerySet::new(slocs.clone()),
                        spec,
                        flow,
                    );
                    drive_stream(&mut engine, records, spec, duration)
                        .topks
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
