//! Throughput of the cache models used by the CMP simulator.

use ccs_cache::{line_tag, CacheConfig, CompiledCache, IdealCache};
use ccs_dag::AccessKind;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Distinct lines in the trace (line ids `0..DISTINCT`).
const DISTINCT: u64 = 64 * 1024;

fn make_lines(len: usize, distinct: u64) -> Vec<u64> {
    let mut x: u64 = 0xBEEF;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % distinct) * 128
        })
        .collect()
}

/// The `(set, line_tag)` pairs the simulator would precompile for `lines`
/// (128 B line addresses, line id = address / 128) under `config`.
fn compile(lines: &[u64], config: &CacheConfig) -> Vec<(u32, u32)> {
    lines
        .iter()
        .map(|&l| (config.set_of(l) as u32, line_tag((l / 128) as u32)))
        .collect()
}

/// Read-probe a cold compiled cache of `config`'s geometry with every
/// pair; returns the miss count.
fn run_compiled(config: &CacheConfig, probes: &[(u32, u32)]) -> u64 {
    let mut cache = CompiledCache::new(config.num_sets(), config.associativity, DISTINCT as usize);
    let mut misses = 0u64;
    for &(set, tag) in probes {
        if !cache.access_compiled(set, tag, false) {
            misses += 1;
        }
    }
    misses
}

fn bench_cache_models(c: &mut Criterion) {
    let lines = make_lines(200_000, DISTINCT);
    let l2 = CacheConfig::new(8 << 20, 128, 16, 13);
    let l1 = CacheConfig::paper_l1();
    let (l2_probes, l1_probes) = (compile(&lines, &l2), compile(&lines, &l1));
    let mut group = c.benchmark_group("cache_models");
    group.throughput(Throughput::Elements(lines.len() as u64));

    group.bench_function("compiled_l2_8mb_16way", |b| {
        b.iter(|| run_compiled(&l2, &l2_probes))
    });

    group.bench_function("compiled_l1_64kb_4way", |b| {
        b.iter(|| run_compiled(&l1, &l1_probes))
    });

    group.bench_function("ideal_lru_8mb", |b| {
        b.iter(|| {
            let mut cache = IdealCache::with_bytes(8 << 20, 128);
            let mut misses = 0u64;
            for &l in &lines {
                if !cache.access_line(l, AccessKind::Read) {
                    misses += 1;
                }
            }
            misses
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache_models
}
criterion_main!(benches);
