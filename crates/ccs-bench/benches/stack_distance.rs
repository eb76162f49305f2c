//! Micro-benchmarks of the LRU stack-distance structures (the data structure
//! behind the Section 6.1 LruTree profiler).

use ccs_cache::{NaiveLruStack, OrderStatStack, StackDistanceModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn make_trace(len: usize, distinct: u64) -> Vec<u64> {
    let mut x: u64 = 0x1234_5678;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % distinct
        })
        .collect()
}

fn bench_stack_distance(c: &mut Criterion) {
    let trace = make_trace(100_000, 4096);
    let mut group = c.benchmark_group("stack_distance");
    group.throughput(Throughput::Elements(trace.len() as u64));

    group.bench_function(BenchmarkId::new("order_stat_treap", trace.len()), |b| {
        b.iter(|| {
            let mut s = OrderStatStack::new();
            let mut sum = 0u64;
            for &l in &trace {
                sum = sum.wrapping_add(s.access(l).unwrap_or(0));
            }
            sum
        })
    });

    // The naive stack is O(n) per access; use a shorter trace so the bench
    // stays bounded while still showing the asymptotic gap.
    let short = &trace[..10_000];
    group.bench_function(BenchmarkId::new("naive", short.len()), |b| {
        b.iter(|| {
            let mut s = NaiveLruStack::new();
            let mut sum = 0u64;
            for &l in short {
                sum = sum.wrapping_add(s.access(l).unwrap_or(0));
            }
            sum
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stack_distance
}
criterion_main!(benches);
