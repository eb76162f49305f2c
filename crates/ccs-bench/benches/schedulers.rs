//! Scheduling overhead of PDF vs WS vs the central queue on the pure
//! (cache-less) DAG executor.

use ccs_dag::synth::{random_computation, SynthParams};
use ccs_dag::Dag;
use ccs_sched::execute;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_schedulers(c: &mut Criterion) {
    let params = SynthParams {
        max_depth: 8,
        max_par_width: 4,
        max_seq_len: 3,
        max_strand_work: 100,
        max_strand_refs: 0,
        ..SynthParams::default()
    };
    // Pick a seed whose random SP tree is large enough to actually exercise
    // the schedulers (some seeds collapse to a single strand).
    let comp = (0..)
        .map(|seed| random_computation(seed, &params))
        .find(|c| c.num_tasks() >= 500)
        .expect("a seed with a large computation exists");
    let dag = Dag::from_computation(&comp);
    let mut group = c.benchmark_group("scheduler_overhead");
    group.throughput(Throughput::Elements(dag.num_tasks() as u64));

    for kind in ["pdf", "ws", "central"] {
        for cores in [4usize, 16] {
            group.bench_with_input(
                BenchmarkId::new(kind, format!("{}tasks_{}cores", dag.num_tasks(), cores)),
                &cores,
                |b, &cores| b.iter(|| execute(&dag, cores, kind).makespan),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_schedulers
}
criterion_main!(benches);
