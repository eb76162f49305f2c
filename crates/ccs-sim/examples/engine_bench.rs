//! Multi-core event-engine probe: for each paper workload and core count,
//! the median host nanoseconds per simulated reference (an L1 access) of a
//! plain `simulate_with` run, next to the engine's deterministic host work
//! from `simulate_counted` — core switches per reference, split by the site
//! where the running core yielded.  Run it as the A/B probe for changes to
//! the event loop (`cargo run --release -p ccs-sim --example engine_bench`):
//! the switch counts are host-independent, the times are not, so compare
//! times only as alternating runs on one host.
//!
//! Each workload is built at `1/scale` on the default configuration of
//! each core count (caches scaled by the same divisor, as a sweep does) and
//! run under `pdf`; the line stream and set lanes are compiled before the
//! timed rounds.
//!
//! Flags: `--scale N` (default 1024), `--rounds N` (default 7, median of),
//! `--cores 1,2,4,8,32` (default; the default configurations' counts),
//! `--apps hashjoin,mergesort,lu` (default; any registry workload).

use std::time::Instant;

use ccs_dag::Dag;
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_counted, simulate_with, CmpConfig};
use ccs_workloads::{BuildCtx, WorkloadRegistry};

struct Args {
    scale: u64,
    rounds: usize,
    cores: Vec<usize>,
    apps: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1024,
        rounds: 7,
        cores: vec![1, 2, 4, 8, 32],
        apps: ["hashjoin", "mergesort", "lu"].map(String::from).to_vec(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let list = || value.split(',').map(str::to_string);
        match flag.as_str() {
            "--scale" => args.scale = value.parse().expect("--scale N"),
            "--rounds" => args.rounds = value.parse::<usize>().expect("--rounds N").max(1),
            "--cores" => args.cores = list().map(|c| c.parse().expect("--cores N,N,..")).collect(),
            "--apps" => args.apps = list().collect(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let pdf = SchedulerSpec::new("pdf");
    println!(
        "{:<10} {:>5} {:>10} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "app", "cores", "refs", "ns/ref", "switch/ref", "l2probe", "l3probe", "memory", "step"
    );
    for app in &args.apps {
        for &cores in &args.cores {
            let config = CmpConfig::default_with_cores(cores)
                .unwrap_or_else(|| panic!("no default configuration has {cores} cores"))
                .scaled(args.scale);
            let ctx = BuildCtx::new(args.scale, config.l2.capacity, cores);
            let comp = WorkloadRegistry::global()
                .build(app, &ctx)
                .unwrap_or_else(|e| panic!("{e}"));
            let dag = Dag::from_computation(&comp);
            // The counted run also compiles the stream and the lanes.
            let (result, counts) = simulate_counted(&comp, &dag, &config, pdf.build().as_mut());
            let refs = result.l1.accesses;
            let mut ns: Vec<f64> = (0..args.rounds)
                .map(|_| {
                    let mut sched = pdf.build();
                    let start = Instant::now();
                    let timed = simulate_with(&comp, &dag, &config, sched.as_mut());
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(timed, result, "the counted run reports the plain result");
                    elapsed * 1e9 / refs.max(1) as f64
                })
                .collect();
            ns.sort_by(f64::total_cmp);
            let per_ref = |n: u64| n as f64 / refs.max(1) as f64;
            println!(
                "{:<10} {:>5} {:>10} {:>8.1} {:>10.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                app,
                cores,
                refs,
                ns[ns.len() / 2],
                per_ref(counts.switches()),
                per_ref(counts.switches_l2_probe),
                per_ref(counts.switches_l3_probe),
                per_ref(counts.switches_memory),
                per_ref(counts.switches_step),
            );
        }
    }
}
