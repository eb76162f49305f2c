//! Raw-runtime scaling probe: recursive fork-join `fib` and a spawn-heavy
//! fan-out on a [`ccs_runtime::ThreadPool`] at every thread count from 1
//! up to the host's available parallelism, printed as tasks/sec with the
//! self-relative speedup over 1 thread.  The fan-out is also split into
//! its halves: with every worker held in a blocker job, the time per
//! `spawn_detached` push (push only), then, with the blockers released,
//! the time per job to drain the queue (drain only).  The bench harness
//! (`run_all --bench`) embeds the same kernels as gated `runtime/*`
//! records; this example is the standalone A/B probe
//! (`cargo run --release -p ccs-runtime --example pool_bench`).  Each
//! fan-out job counts itself on its own worker's padded counter, so the
//! probe adds no shared cache line to the drain it times.
//!
//! Flags: `--threads N` (the top of the curve; default: available
//! parallelism), `--rounds N` (default 5, best-of), `--fib N` (default 24),
//! `--spawns N` (default 50000), `--policy ws|pdf` (default ws),
//! `--pinned`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use ccs_runtime::{current_thread_index, join, Policy, ThreadPool};

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

/// A job counter alone on its 128-byte line (two 64-byte lines: adjacent
/// lines are prefetched in pairs).
#[repr(align(128))]
struct PaddedCounter(AtomicU64);

/// Completed fan-out jobs, one counter per worker, sized in `main`.  A
/// fan-out job is [`count_job`]: it captures nothing (not even an `Arc`,
/// whose count every worker would bump) and adds one to its own worker's
/// counter, so the only line a job shares is the one the polling thread
/// sums.
static TALLY: OnceLock<Vec<PaddedCounter>> = OnceLock::new();

fn tally() -> &'static [PaddedCounter] {
    TALLY.get().expect("the tally is sized before any fan-out")
}

fn count_job() {
    let worker = current_thread_index().expect("fan-out jobs run on pool workers");
    tally()[worker].0.fetch_add(1, Ordering::Relaxed);
}

fn jobs_counted() -> u64 {
    tally().iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
}

fn reset_tally() {
    for c in tally() {
        c.0.store(0, Ordering::Relaxed);
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

/// The spawn fan-out split in two: hold all `threads` workers in blocker
/// jobs, time `spawns` detached pushes (nothing can run them), then release
/// the blockers and time the drain.  Best-of-`rounds` nanoseconds per job,
/// as (push, drain).
fn push_drain_split(pool: &ThreadPool, threads: usize, spawns: u64, rounds: u32) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let held = Arc::new(AtomicUsize::new(0));
        for _ in 0..threads {
            let (gate, held) = (Arc::clone(&gate), Arc::clone(&held));
            pool.spawn_detached(move || {
                held.fetch_add(1, Ordering::SeqCst);
                let (open, cv) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        while held.load(Ordering::SeqCst) != threads {
            std::thread::yield_now();
        }
        reset_tally();
        let start = Instant::now();
        for _ in 0..spawns {
            pool.spawn_detached(count_job);
        }
        let push = start.elapsed().as_secs_f64();
        let start = Instant::now();
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        // Yield, not spin: on a host with `threads` cores this thread must
        // not take a core from the drain it is timing.
        while jobs_counted() != spawns {
            std::thread::yield_now();
        }
        let drain = start.elapsed().as_secs_f64();
        best = (best.0.min(push), best.1.min(drain));
    }
    let per_job = 1e9 / spawns as f64;
    (best.0 * per_job, best.1 * per_job)
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

    let threads = threads.max(1);
    let counters = (0..threads).map(|_| PaddedCounter(AtomicU64::new(0)));
    assert!(
        TALLY.set(counters.collect()).is_ok(),
        "the tally is sized once"
    );
    let nodes = fib_nodes(fib_n) as f64;
    let expected = naive_fib(fib_n);
    println!(
        "threads  fib({fib_n}) tasks/s  speedup  spawn jobs/s  speedup  push ns/job  drain ns/job"
    );
    let mut base: Option<(f64, f64)> = None;
    for t in 1..=threads {
        let pool = ThreadPool::new(t, policy).pinned(pinned);
        // Fork-join: recursive binary join, one task per fib node.
        let fib_rate = nodes
            / best_secs(rounds, || {
                assert_eq!(pool.install(|| fib(fib_n)), expected);
            });
        // Spawn-heavy fan-out: detached jobs racing the sleep/wake path.
        let spawn_rate = spawns as f64
            / best_secs(rounds, || {
                reset_tally();
                for _ in 0..spawns {
                    pool.spawn_detached(count_job);
                }
                while jobs_counted() != spawns {
                    std::hint::spin_loop();
                }
            });
        let (push_ns, drain_ns) = push_drain_split(&pool, t, spawns, rounds);
        let (fib_1, spawn_1) = *base.get_or_insert((fib_rate, spawn_rate));
        println!(
            "{t:>7}  {fib_rate:>15.0}  {:>7.2}  {spawn_rate:>12.0}  {:>7.2}  {push_ns:>11.1}  {drain_ns:>12.1}",
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
