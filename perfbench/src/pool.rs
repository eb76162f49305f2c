//! `pool_scaling`: the native `ThreadPool` at every thread count from 1 to
//! `nproc`, on a `join` fork-join fib and a detached spawn fan-out.
//!
//! One pool per thread count lives for the whole run, and the counts are
//! visited round-robin, so drift on a shared host hits every count alike
//! and the self-relative speedup (`nproc` threads over 1) stays fair.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccs_runtime::{join, Policy, ThreadPool};

use crate::setup::{self, SetupClock};
use crate::spans::Trace;
use crate::stats::{median, summarize};
use crate::{host, Args, Outcome};

/// `fib(FIB_N)` is one fork-join operation.
pub const FIB_N: u64 = 23;
/// Detached jobs in one spawn fan-out.
pub const SPAWNS: u64 = 20_000;

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// Tasks (call nodes) of the `fib(n)` recursion.
pub fn fib_nodes(n: u64) -> u64 {
    if n < 2 {
        1
    } else {
        1 + fib_nodes(n - 1) + fib_nodes(n - 2)
    }
}

fn fib_iterative(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Spawn `SPAWNS` detached jobs and wait until all have run; returns how
/// many ran.
fn fan_out(pool: &ThreadPool) -> u64 {
    let counter = Arc::new(AtomicU64::new(0));
    for _ in 0..SPAWNS {
        let c = Arc::clone(&counter);
        pool.spawn_detached(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter.load(Ordering::Acquire) < SPAWNS && Instant::now() < deadline {
        std::thread::yield_now();
    }
    counter.load(Ordering::Acquire)
}

/// Per-thread-count samples.
struct Curve {
    threads: usize,
    fib_ms: Vec<f64>,
    spawn_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// A run's set-up: one pool per thread count 1..=`nproc`, each creation
/// inside a `pool.new` span when traced.
fn set_up(trace: Option<&mut Trace>) -> Vec<ThreadPool> {
    let new = |threads| ThreadPool::new(threads, Policy::WorkStealing);
    match trace {
        Some(trace) => (1..=host::nproc())
            .map(|threads| trace.time("pool.new", || new(threads)))
            .collect(),
        None => (1..=host::nproc()).map(new).collect(),
    }
}

/// The `--setup-probe` side of `setup_s` (see `setup.rs`).
pub fn probe() -> Result<Outcome, String> {
    let pools = set_up(None);
    setup::ready();
    drop(pools);
    Ok(Outcome::default())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let origin = Instant::now();
    let mut trace = Trace::new(origin);
    let pools = set_up(args.trace.then_some(&mut trace));
    let mut curves: Vec<Curve> = (1..=nproc)
        .map(|threads| Curve {
            threads,
            fib_ms: Vec::new(),
            spawn_ms: Vec::new(),
        })
        .collect();
    let expected = fib_iterative(FIB_N);
    let nodes = fib_nodes(FIB_N) as f64;
    let mut out = Outcome::default();
    let mut op_ms = Vec::new();
    let mut setup = SetupClock::new(args);
    let started = Instant::now();
    while curves[0].fib_ms.len() < 5 || started.elapsed() < args.seconds {
        setup.tick()?;
        for (pool, curve) in pools.iter().zip(curves.iter_mut()) {
            let root = args.trace.then(|| trace.enter("pool.round"));
            let start = Instant::now();
            let value = black_box(pool.install(|| fib(black_box(FIB_N))));
            let mid = Instant::now();
            let ran = fan_out(pool);
            let end = Instant::now();
            if let Some(root) = root {
                trace.record("pool.fib", None, start, mid);
                trace.record("pool.spawn", None, mid, end);
                trace.exit(root);
            }
            out.attempted += 2;
            out.failed += u64::from(value != expected) + u64::from(ran != SPAWNS);
            curve.fib_ms.push(ms(mid - start));
            curve.spawn_ms.push(ms(end - mid));
            if curve.threads == nproc {
                op_ms.push(ms(end - start));
            }
        }
    }

    let fib_rate = |c: &Curve| nodes / (median(&c.fib_ms) / 1000.0);
    let spawn_rate = |c: &Curve| SPAWNS as f64 / (median(&c.spawn_ms) / 1000.0);
    let curve_text: Vec<String> = curves
        .iter()
        .map(|c| {
            format!(
                "t{}: fib {:.0}/s spawn {:.0}/s",
                c.threads,
                fib_rate(c),
                spawn_rate(c)
            )
        })
        .collect();
    let (first, top) = (&curves[0], &curves[nproc - 1]);
    out.detail("curve", curve_text.join("; "));
    out.detail("rounds_per_thread_count", first.fib_ms.len());
    out.detail("fib_n", FIB_N);
    out.detail("spawns", SPAWNS);
    out.detail("threads", nproc);
    out.detail("connections", 0);
    out.detail("caches", "no caches; one pool per thread count");

    if !args.trace {
        let op = summarize(&op_ms);
        out.set("setup_s", setup.finish()?);
        out.set("op_ms_p50", op.p50);
        out.set("op_ms_p90", op.p90);
        // Total work over total time at `nproc` threads (the mean rate).
        let work = (nodes + SPAWNS as f64) * op_ms.len() as f64;
        out.set("work_per_s", work / (op_ms.iter().sum::<f64>() / 1000.0));
        // Over the whole run, unlike the sweeps and the daemon: the peak is
        // the spawn queue at its deepest, which one round rarely reaches.
        out.set("peak_rss_mb", host::peak_rss_mb());
        return Ok(out);
    }
    let totals = trace.self_times();
    let rounds = (top.fib_ms.len() * nproc) as f64;
    let (wall, unattributed) = trace.root_accounting();
    out.set("pool.fib_tasks_per_s.t1", fib_rate(first));
    out.set("pool.fib_tasks_per_s.tmax", fib_rate(top));
    out.set("pool.spawn_jobs_per_s.t1", spawn_rate(first));
    out.set("pool.spawn_jobs_per_s.tmax", spawn_rate(top));
    out.set("pool.speedup", fib_rate(top) / fib_rate(first));
    out.set("pool.spawn_speedup", spawn_rate(top) / spawn_rate(first));
    out.set(
        "pool.slow_wakes",
        top_pool_per_round(&pools[nproc - 1], top.fib_ms.len()),
    );
    out.set(
        "pool.panics_caught",
        pools.iter().map(|p| p.panics_caught() as f64).sum(),
    );
    if let Some((d, count)) = totals.get("pool.new") {
        out.set("pool.new_us", d.as_secs_f64() * 1e6 / *count as f64);
    }
    out.set("pool.fib_ms", median(&top.fib_ms));
    out.set("pool.spawn_ms", median(&top.spawn_ms));
    out.set("trace.wall_ms", ms(wall) / rounds);
    out.set("trace.unattributed_ms", ms(unattributed) / rounds);
    out.set(
        "trace.unattributed_frac",
        unattributed.as_secs_f64() / wall.as_secs_f64(),
    );
    // The spans sit outside the timed calls: the recorder's cost is the
    // round's wall time beyond what its two timed calls measured.
    let timed: f64 = curves
        .iter()
        .map(|c| c.fib_ms.iter().chain(&c.spawn_ms).sum::<f64>())
        .sum();
    out.set("trace.overhead_frac", ms(wall) / timed - 1.0);
    out.set("trace.ops", rounds);
    Ok(out)
}

/// Slow-path wakes of the `nproc`-thread pool per round it ran.
fn top_pool_per_round(pool: &ThreadPool, rounds: usize) -> f64 {
    pool.slow_wakes() as f64 / rounds.max(1) as f64
}
