//! Raw-runtime scaling probe: recursive fork-join `fib` and a spawn-heavy
//! fan-out on a [`ccs_runtime::ThreadPool`] at every thread count from 1
//! up to the host's available parallelism, printed as tasks/sec with the
//! self-relative speedup over 1 thread.  The bench harness (`run_all
//! --bench`) embeds the same kernels as gated `runtime/*` records; this
//! example is the standalone A/B probe
//! (`cargo run --release -p ccs-runtime --example pool_bench`).
//!
//! Flags: `--threads N` (the top of the curve; default: available
//! parallelism), `--rounds N` (default 5, best-of), `--fib N` (default 24),
//! `--spawns N` (default 50000), `--policy ws|pdf` (default ws),
//! `--pinned`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ccs_runtime::{join, Policy, ThreadPool};

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Number of `fib` call nodes the recursion visits (each is one task).
fn fib_nodes(n: u64) -> u64 {
    if n < 2 {
        1
    } else {
        1 + fib_nodes(n - 1) + fib_nodes(n - 2)
    }
}

/// Best-of-`rounds` wall time of `op`, in seconds.
fn best_secs(rounds: u32, mut op: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rounds = 5u32;
    let mut fib_n = 24u64;
    let mut spawns = 50_000u64;
    let mut policy = Policy::WorkStealing;
    let mut pinned = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--threads" => threads = value("--threads").parse().expect("--threads"),
            "--rounds" => rounds = value("--rounds").parse().expect("--rounds"),
            "--fib" => fib_n = value("--fib").parse().expect("--fib"),
            "--spawns" => spawns = value("--spawns").parse().expect("--spawns"),
            "--pinned" => pinned = true,
            "--policy" => {
                policy = match value("--policy").as_str() {
                    "ws" => Policy::WorkStealing,
                    "pdf" => Policy::Pdf,
                    other => panic!("unknown policy {other:?}"),
                }
            }
            other => panic!("unknown flag {other:?}"),
        }
    }

    let nodes = fib_nodes(fib_n) as f64;
    let expected = naive_fib(fib_n);
    println!("threads  fib({fib_n}) tasks/s  speedup  spawn jobs/s  speedup");
    let mut base: Option<(f64, f64)> = None;
    for t in 1..=threads.max(1) {
        let pool = ThreadPool::new(t, policy).pinned(pinned);
        // Fork-join: recursive binary join, one task per fib node.
        let fib_rate = nodes
            / best_secs(rounds, || {
                assert_eq!(pool.install(|| fib(fib_n)), expected);
            });
        // Spawn-heavy fan-out: detached jobs racing the sleep/wake path.
        let spawn_rate = spawns as f64
            / best_secs(rounds, || {
                let counter = Arc::new(AtomicU64::new(0));
                for _ in 0..spawns {
                    let c = Arc::clone(&counter);
                    pool.spawn_detached(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
                while counter.load(Ordering::Relaxed) != spawns {
                    std::hint::spin_loop();
                }
            });
        let (fib_1, spawn_1) = *base.get_or_insert((fib_rate, spawn_rate));
        println!(
            "{t:>7}  {fib_rate:>15.0}  {:>7.2}  {spawn_rate:>12.0}  {:>7.2}",
            fib_rate / fib_1,
            spawn_rate / spawn_1
        );
    }
}

fn naive_fib(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let next = a + b;
        a = b;
        b = next;
    }
    a
}
