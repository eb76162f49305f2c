//! End-to-end throughput of the trace-driven CMP simulator (references
//! simulated per second), PDF vs WS on a small Mergesort.

use ccs_sim::{simulate, CmpConfig};
use ccs_workloads::{mergesort, MergesortParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_simulator(c: &mut Criterion) {
    let comp = mergesort::build(&MergesortParams::new(1 << 17).with_task_working_set(32 * 1024));
    let cfg = CmpConfig::default_with_cores(8).unwrap().scaled(128);

    let mut group = c.benchmark_group("cmp_simulator");
    group.throughput(Throughput::Elements(comp.total_refs()));
    group.sample_size(10);

    for kind in ["pdf", "ws"] {
        group.bench_with_input(
            BenchmarkId::new("mergesort_128k", kind),
            &kind,
            |b, &kind| b.iter(|| simulate(&comp, &cfg, kind).cycles),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
