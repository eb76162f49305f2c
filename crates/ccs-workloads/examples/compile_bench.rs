//! Cold-path layer probe: for each registry workload, the median host time
//! of every stage that runs before a sweep group can simulate — workload
//! build (trace generation into the pool), CSR DAG, line-stream compile and
//! set-lane compile.  Run it as the A/B probe for changes to the trace
//! arena, the builders or the stream compiler (`cargo run --release -p
//! ccs-workloads --example compile_bench`); compare times only as
//! alternating runs of two builds on one host.
//!
//! Every round starts from nothing: a fresh build, a fresh DAG, a stream
//! compiled with [`LineStream::compile`] (not the memoised
//! `Computation::line_stream`) and lanes compiled against that new stream.
//! Each workload is built at `1/scale` for the default configuration of
//! `--cores` with its caches scaled by the same divisor, as a sweep does.
//!
//! Columns: ops in the pool and steps in the stream (deterministic), then
//! build ms and ns per pooled op, CSR ms, stream ms and ns per step, and
//! lanes ms.
//!
//! Flags: `--scale N` (default 64), `--rounds N` (default 7, median of),
//! `--cores N` (default 1; a default configuration's count), `--apps
//! a,b,..` (default: every registry workload).

use std::time::Instant;

use ccs_dag::{CacheGeometry, Dag, LineStream};
use ccs_sim::CmpConfig;
use ccs_workloads::{BuildCtx, WorkloadRegistry};

struct Args {
    scale: u64,
    rounds: usize,
    cores: usize,
    apps: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 64,
        rounds: 7,
        cores: 1,
        apps: WorkloadRegistry::global().names(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => args.scale = value.parse().expect("--scale N"),
            "--rounds" => args.rounds = value.parse::<usize>().expect("--rounds N").max(1),
            "--cores" => args.cores = value.parse().expect("--cores N"),
            "--apps" => args.apps = value.split(',').map(str::to_string).collect(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Wall milliseconds of `f`, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64() * 1e3, result)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = parse_args();
    let config = CmpConfig::default_with_cores(args.cores)
        .unwrap_or_else(|| panic!("no default configuration has {} cores", args.cores))
        .scaled(args.scale);
    let ctx = BuildCtx::new(args.scale, config.l2.capacity, args.cores);
    let l1 = CacheGeometry::new(config.l1.line_size, config.l1.num_sets());
    let l2 = CacheGeometry::new(config.l2.line_size, config.l2.num_sets());
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8} {:>8}",
        "app", "ops", "steps", "build_ms", "ns/op", "csr_ms", "stream_ms", "ns/step", "lanes_ms"
    );
    for app in &args.apps {
        let (mut build, mut csr, mut stream, mut lanes) = (vec![], vec![], vec![], vec![]);
        let (mut ops, mut steps) = (0, 0);
        for _ in 0..args.rounds {
            let (ms, comp) = timed(|| {
                WorkloadRegistry::global()
                    .build(app, &ctx)
                    .unwrap_or_else(|e| panic!("{e}"))
            });
            build.push(ms);
            csr.push(timed(|| Dag::from_computation(&comp)).0);
            let (ms, compiled) = timed(|| LineStream::compile(&comp, config.l2.line_size));
            stream.push(ms);
            lanes.push(timed(|| compiled.geometry_pair(l1, l2)).0);
            ops = comp.trace_pool().len();
            steps = compiled.num_steps();
        }
        let per = |ms: f64, n: usize| ms * 1e6 / n.max(1) as f64;
        let (build, stream) = (median(build), median(stream));
        println!(
            "{:<10} {:>9} {:>9} {:>9.3} {:>8.2} {:>8.3} {:>9.3} {:>8.2} {:>8.3}",
            app,
            ops,
            steps,
            build,
            per(build, ops),
            median(csr),
            stream,
            per(stream, steps),
            median(lanes),
        );
    }
}
