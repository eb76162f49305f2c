//! Raw-runtime microbenches: the native `ccs-runtime` pool with no
//! simulator in the loop (DESIGN.md §14).
//!
//! Three records ride in `BENCH_sim.json` next to the simulator benches:
//!
//! * `runtime/forkjoin_fib` — recursive binary [`join`] over `fib(N)`, one
//!   task per call node; the classic fork-join latency probe.  Exercises
//!   the local LIFO pop fast path and the stack-latch join.
//! * `runtime/spawn_fanout` — a burst of detached jobs pushed from outside
//!   the pool; exercises the lock-free injector, the inline (unboxed) job
//!   storage, batch stealing, and the publish-side wake fast path.
//! * `runtime/sweep_parallel` — a real quick figure sweep executed with
//!   `Experiment::parallelism(8)` on the pool, after asserting the report
//!   is byte-identical to the sequential run.  Its simulated metrics are
//!   deterministic and exact-gated like every macro record.
//!
//! The two synthetic records carry zero simulated metrics (misses, cycles,
//! footprints): the gate exact-matches the zeros and skips the footprint
//! ratio checks, leaving `tasks_per_sec` — real tasks over wall-clock — as
//! the gated throughput signal.

use ccs_experiment::Options;
use ccs_runtime::{join, Policy, ThreadPool};

use super::{per_second, record_from_report, timed, BenchRecord};
use crate::figs;

/// Worker count for the synthetic runtime records: fixed (not
/// `available_parallelism`) so trajectories compare across machines.
const RUNTIME_THREADS: usize = 4;
/// Fork-join depth: `fib(22)` visits 57 313 call nodes, ~5 ms a round on a
/// developer box — big enough to time, small enough for best-of trials.
const FIB_N: u64 = 22;
/// Fan-out burst size for the spawn-heavy record.
const SPAWNS: u64 = 20_000;
/// The quick sweep re-run under pool parallelism for `runtime/sweep_parallel`.
const PARALLEL_SWEEP: &str = "fig4_l2_hit_time";

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

fn iterative_fib(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let next = a + b;
        a = b;
        b = next;
    }
    a
}

/// A synthetic runtime record: real tasks over wall-clock, zero simulated
/// metrics (exact-gated as zeros; footprint ratio checks skip on 0 bytes).
fn runtime_record(name: &str, tasks: u64, wall_ms: f64) -> BenchRecord {
    BenchRecord {
        name: name.into(),
        wall_ms,
        tasks_per_sec: per_second(tasks, wall_ms),
        total_misses: 0,
        l3_misses: 0,
        tasks,
        cycles: 0,
        clusters: 0,
        trace_bytes: 0,
        peak_alloc_estimate: 0,
        compile_ms: 0.0,
        batch_width: 0,
        speedup_vs_reference: None,
    }
}

/// Run the raw-runtime microbenches and append their records.
///
/// `quick_opts` must be the quick event-engine options (the sweep record
/// has to stay comparable across PRs regardless of `--scale`).  Timings
/// are best-of-`trials` like every other timed record.
pub(super) fn runtime_benches(records: &mut Vec<BenchRecord>, quick_opts: &Options, trials: u32) {
    let trials = trials.max(1);
    let pool = ThreadPool::new(RUNTIME_THREADS, Policy::WorkStealing);

    // Fork-join: one task per fib call node.
    let nodes = fib_nodes(FIB_N);
    let expect = iterative_fib(FIB_N);
    let mut best_ms = f64::INFINITY;
    for _ in 0..trials {
        let (value, ms) = timed(|| pool.install(|| fib(FIB_N)));
        assert_eq!(value, expect, "fork-join fib miscomputed");
        best_ms = best_ms.min(ms);
    }
    records.push(runtime_record("runtime/forkjoin_fib", nodes, best_ms));

    // Spawn-heavy fan-out: detached jobs racing the publish/wake path.
    let mut best_ms = f64::INFINITY;
    for _ in 0..trials {
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (_, ms) = timed(|| {
            for _ in 0..SPAWNS {
                let c = std::sync::Arc::clone(&counter);
                pool.spawn_detached(move || {
                    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
            while counter.load(std::sync::atomic::Ordering::Relaxed) != SPAWNS {
                std::thread::yield_now();
            }
        });
        best_ms = best_ms.min(ms);
    }
    records.push(runtime_record("runtime/spawn_fanout", SPAWNS, best_ms));
    drop(pool);

    // A real sweep on the pool: quick options, experiment parallelism 8,
    // asserted byte-identical to the sequential run of the same sweep.
    let (_, run) = figs::figure_sweeps()
        .into_iter()
        .find(|(name, _)| *name == PARALLEL_SWEEP)
        .expect("parallel-sweep bench target exists");
    let mut sequential = quick_opts.clone();
    sequential.quick = true;
    sequential.parallel = 1;
    let mut parallel = sequential.clone();
    parallel.parallel = 8;
    let sequential_report = run(&sequential);
    let (parallel_report, mut best_ms) = timed(|| run(&parallel));
    for _ in 1..trials {
        let (_, ms) = timed(|| run(&parallel));
        best_ms = best_ms.min(ms);
    }
    assert_eq!(
        parallel_report.to_json(),
        sequential_report.to_json(),
        "parallel sweep diverged from the sequential run on {PARALLEL_SWEEP}"
    );
    records.push(record_from_report(
        "runtime/sweep_parallel",
        &parallel_report,
        best_ms,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_node_count_matches_record_docs() {
        assert_eq!(fib_nodes(FIB_N), 57_313);
        assert_eq!(iterative_fib(FIB_N), 17_711);
    }

    #[test]
    fn runtime_records_carry_zero_simulated_metrics() {
        let r = runtime_record("runtime/forkjoin_fib", 100, 50.0);
        assert_eq!(r.total_misses, 0);
        assert_eq!(r.trace_bytes, 0);
        assert_eq!(r.peak_alloc_estimate, 0);
        assert!((r.tasks_per_sec - 2000.0).abs() < 1e-9);
    }
}
