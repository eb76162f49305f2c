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

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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
    tick: u64,
}

fn cache() -> &'static Mutex<BuildCache> {
    static CACHE: OnceLock<Mutex<BuildCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BuildCache::default()))
}

/// Fetch the shared build for `key`, building it with `build` on a miss.
///
/// The builder runs *outside* the cache lock, so concurrent sweep points
/// (`Experiment::parallelism`) never serialise on each other's builds; if
/// two threads race on the same key the first inserted entry wins and the
/// loser's duplicate is dropped (builders are pure, so both are
/// identical).
pub(crate) fn get_or_build(
    key: Key,
    build: impl FnOnce() -> (Arc<Computation>, Arc<Dag>),
) -> Arc<(Arc<Computation>, Arc<Dag>)> {
    {
        let mut cache = cache().lock().unwrap_or_else(|e| e.into_inner());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(entry) = cache.entries.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.built);
        }
    }
    let (comp, dag) = build();
    let bytes = comp.trace_arena_bytes() + dag.heap_bytes();
    let built = Arc::new((comp, dag));
    let mut cache = cache().lock().unwrap_or_else(|e| e.into_inner());
    cache.tick += 1;
    let tick = cache.tick;
    if let Some(entry) = cache.entries.get_mut(&key) {
        // Lost a build race: share the winner.
        entry.last_used = tick;
        return Arc::clone(&entry.built);
    }
    cache.entries.insert(
        key,
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
    built
}

/// Number of builds currently cached (diagnostics/tests).
pub fn cached_builds() -> usize {
    cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entries
        .len()
}

/// Drop every cached build (tests, or to release memory mid-process).
pub fn clear() {
    cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entries
        .clear();
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
    fn distinct_keys_build_separately() {
        let a = get_or_build(("bc-test-b".into(), 1, 1024, 2), || tiny(5));
        let b = get_or_build(("bc-test-b".into(), 1, 2048, 2), || tiny(5));
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different L2 capacity, different build"
        );
    }
}
