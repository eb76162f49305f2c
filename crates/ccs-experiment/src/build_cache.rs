//! Process-global cache of built workload computations.
//!
//! Registry workloads are **deterministic** functions of `(spec label,
//! scale, scaled L2 capacity, cores)` — PR 4 exploited that *within* one
//! sweep by building each distinct computation once per
//! [`Experiment::run`](crate::Experiment::run).  But a session rarely runs
//! one sweep: the figure binaries share workloads across sweeps (fig 2 and
//! fig 4 both build the default-point mergesort), and the bench harness
//! re-runs whole sweep passes back-to-back for noise-resistant minima —
//! each pass paying the full trace-generation, DAG-flattening and
//! stream/geometry-compilation cost again for byte-identical results.
//!
//! This module hoists the reuse to the process level: one bounded,
//! least-recently-used map from build key to the shared
//! `(computation, DAG)` pair.  Because the line streams and geometry lanes
//! are memoised *on* the computation, a cache hit also reuses every
//! compiled stream and set-index table — the whole "compile once per sweep
//! configuration" artifact chain survives across sweeps and trials.
//!
//! Correctness is untouched: builders are pure, so a cached computation is
//! byte-identical to a rebuilt one (the `bench_gate` determinism columns
//! and the parallel-vs-sequential CI `cmp` would catch any drift), and
//! only *registry* specs are cached — `Fixed` specs stay keyed by `Arc`
//! identity inside each run.  The cache is bounded by the estimated heap
//! footprint of its entries ([`BUDGET_BYTES`]); full-scale sweeps evict
//! oldest-used entries instead of accumulating gigabytes.
//!
//! Lookups are single-flight: when concurrent sweep groups or daemon
//! requests ask for the same key, one of them builds it and the others
//! wait for that build rather than building duplicates.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use ccs_dag::{Computation, Dag};

/// Eviction budget: the summed footprint estimate of cached builds is kept
/// at or below this.  Quick-mode builds are a few MB each, so the whole
/// quick sweep fits; a full-scale (scale 1) build can exceed the budget on
/// its own, in which case it is cached alone and evicted by the next
/// insertion — exactly the old build-per-sweep behaviour.
pub const BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// One cached build: the shared pair every sweep point of a matching key
/// clones, plus bookkeeping for the LRU budget.
struct Entry {
    built: Arc<(Arc<Computation>, Arc<Dag>)>,
    /// Footprint estimate: trace arena + CSR DAG (compiled streams/lanes
    /// grow this lazily, but they are proportional to the arena).
    bytes: u64,
    last_used: u64,
}

/// Key: `(spec label, scale, scaled L2 bytes, cores)` — the same
/// determinism contract the per-run map of PR 4 relied on.
type Key = (String, u64, u64, usize);

#[derive(Default)]
struct BuildCache {
    entries: HashMap<Key, Entry>,
    /// Keys some thread is building right now: a later caller of one of
    /// them waits on [`BUILD_DONE`] instead of building a duplicate.
    in_flight: HashSet<Key>,
    tick: u64,
}

/// Signalled whenever an in-flight build ends, however it ends.
static BUILD_DONE: Condvar = Condvar::new();

fn lock() -> MutexGuard<'static, BuildCache> {
    static CACHE: OnceLock<Mutex<BuildCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(BuildCache::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A thread's claim on building one key.  Dropping it — after the entry is
/// inserted, or while a panicking builder unwinds — releases the key and
/// wakes its waiters; after a panic one of them finds the key unclaimed
/// and retries the build.
struct Claim<'a>(&'a Key);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock().in_flight.remove(self.0);
        BUILD_DONE.notify_all();
    }
}

/// Fetch the shared build for `key`, building it with `build` on a miss.
///
/// Builds are single-flight: the builder runs *outside* the cache lock, so
/// concurrent sweep groups never serialise on each other's builds, but a
/// caller whose key is already being built waits for that build instead
/// of running a duplicate.  If the builder panics, its waiters wake and
/// one of them builds again.  A builder must therefore not itself wait on
/// sweep work that may be blocked in this function (registry builders are
/// plain sequential functions).
pub(crate) fn get_or_build(
    key: Key,
    build: impl FnOnce() -> (Arc<Computation>, Arc<Dag>),
) -> Arc<(Arc<Computation>, Arc<Dag>)> {
    let mut cache = lock();
    loop {
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.built);
        }
        if cache.in_flight.insert(key.clone()) {
            break;
        }
        cache = BUILD_DONE.wait(cache).unwrap_or_else(|e| e.into_inner());
    }
    drop(cache);
    let _claim = Claim(&key);
    let (comp, dag) = build();
    let bytes = comp.trace_arena_bytes() + dag.heap_bytes();
    let built = Arc::new((comp, dag));
    let mut cache = lock();
    cache.tick += 1;
    let tick = cache.tick;
    cache.entries.insert(
        key.clone(),
        Entry {
            built: Arc::clone(&built),
            bytes,
            last_used: tick,
        },
    );
    // Enforce the budget, never evicting the entry just inserted.
    let mut total: u64 = cache.entries.values().map(|e| e.bytes).sum();
    while total > BUDGET_BYTES && cache.entries.len() > 1 {
        let oldest = cache
            .entries
            .iter()
            .filter(|(_, e)| e.last_used != tick)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        match oldest {
            Some(k) => {
                if let Some(evicted) = cache.entries.remove(&k) {
                    total -= evicted.bytes;
                }
            }
            None => break,
        }
    }
    // Unlock before `_claim` drops: releasing the claim takes the lock.
    drop(cache);
    built
}

/// Number of builds currently cached (diagnostics/tests).
pub fn cached_builds() -> usize {
    lock().entries.len()
}

/// Drop every cached build (tests, or to release memory mid-process).
pub fn clear() {
    lock().entries.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny(comp_work: u64) -> (Arc<Computation>, Arc<Dag>) {
        let mut b = ccs_dag::ComputationBuilder::new(128);
        let leaf = b.strand_with(|t| {
            t.compute(comp_work).read(0x1000, 64);
        });
        let comp = Arc::new(b.finish(leaf));
        let dag = Arc::new(Dag::from_computation(&comp));
        (comp, dag)
    }

    // The cache is process-global and other lib tests fill it concurrently,
    // so these tests use keys no other test uses, never `clear()` it, and
    // assert nothing about its total size.

    #[test]
    fn second_lookup_shares_the_first_build() {
        let calls = AtomicUsize::new(0);
        let key = ("bc-test-a".to_string(), 1, 1024, 2);
        let a = get_or_build(key.clone(), || {
            calls.fetch_add(1, Ordering::SeqCst);
            tiny(5)
        });
        let b = get_or_build(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            tiny(5)
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "second lookup is a hit");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn racing_callers_share_one_build() {
        let calls = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        let key = ("bc-test-race".to_string(), 1, 1024, 2);
        let built: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        get_or_build(key.clone(), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Long enough that the others arrive mid-build.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            tiny(5)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one build, no duplicates");
        assert!(built.iter().all(|b| Arc::ptr_eq(b, &built[0])));
    }

    #[test]
    fn a_panicking_build_wakes_its_waiters_and_one_retries() {
        use std::sync::mpsc;
        use std::time::Duration;
        let key = ("bc-test-panic".to_string(), 1, 1024, 2);
        let retries = Arc::new(AtomicUsize::new(0));
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let doomed = {
            let key = key.clone();
            std::thread::spawn(move || {
                get_or_build(key, || {
                    claimed_tx.send(()).unwrap();
                    // Let the waiters queue up behind this build.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("builder fails");
                })
            })
        };
        claimed_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..4 {
            let (key, retries, done_tx) = (key.clone(), Arc::clone(&retries), done_tx.clone());
            std::thread::spawn(move || {
                let built = get_or_build(key, || {
                    retries.fetch_add(1, Ordering::SeqCst);
                    tiny(5)
                });
                done_tx.send(built).unwrap();
            });
        }
        assert!(
            doomed.join().is_err(),
            "the builder's panic reaches its caller"
        );
        let built: Vec<_> = (0..4)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a waiter stayed blocked after the builder panicked")
            })
            .collect();
        assert_eq!(
            retries.load(Ordering::SeqCst),
            1,
            "exactly one retry builds"
        );
        assert!(built.iter().all(|b| Arc::ptr_eq(b, &built[0])));
    }

    #[test]
    fn distinct_keys_build_separately() {
        let a = get_or_build(("bc-test-b".into(), 1, 1024, 2), || tiny(5));
        let b = get_or_build(("bc-test-b".into(), 1, 2048, 2), || tiny(5));
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different L2 capacity, different build"
        );
    }
}
