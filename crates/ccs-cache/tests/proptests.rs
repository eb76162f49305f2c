//! Property-based tests for the cache substrate.

use ccs_cache::{
    line_tag, CompiledCache, IdealCache, NaiveLruStack, OrderStatStack, StackDistanceModel,
};
use ccs_dag::AccessKind;
use proptest::prelude::*;

/// Generate a reference trace with a bounded number of distinct lines so that
/// reuse actually occurs.
fn trace_strategy(max_len: usize, distinct: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..distinct, 1..max_len)
}

/// Read-probe a [`CompiledCache`] of `sets` sets with trace value `id` as
/// the line id, in set `id % sets`; returns whether it hit.
fn probe(cache: &mut CompiledCache, sets: u64, id: u64) -> bool {
    cache.access_compiled((id % sets) as u32, line_tag(id as u32), false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(log n) LruTree agrees with the naive stack on arbitrary
    /// traces.
    #[test]
    fn stack_models_agree(trace in trace_strategy(400, 64)) {
        let mut naive = NaiveLruStack::new();
        let mut treap = OrderStatStack::new();
        for &line in &trace {
            prop_assert_eq!(naive.access(line), treap.access(line));
        }
        prop_assert_eq!(naive.num_lines(), treap.num_lines());
    }

    /// An ideal cache of capacity K hits exactly when the naive stack distance
    /// is < K (the stack-distance characterisation of LRU).
    #[test]
    fn ideal_cache_matches_stack_distance(
        trace in trace_strategy(300, 48),
        capacity in 1u64..64,
    ) {
        let mut stack = NaiveLruStack::new();
        let mut cache = IdealCache::new(capacity, 64);
        for &line in &trace {
            let d = stack.access(line * 64);
            let hit = cache.access_line(line * 64, AccessKind::Read);
            let expect = matches!(d, Some(d) if d < capacity);
            prop_assert_eq!(hit, expect);
        }
    }

    /// LRU inclusion: for the same trace a larger ideal cache never misses
    /// more than a smaller one.
    #[test]
    fn ideal_cache_inclusion(trace in trace_strategy(300, 100)) {
        let mut c8 = IdealCache::new(8, 64);
        let mut c32 = IdealCache::new(32, 64);
        for &line in &trace {
            c8.access_line(line * 64, AccessKind::Read);
            c32.access_line(line * 64, AccessKind::Read);
        }
        prop_assert!(c32.stats().misses <= c8.stats().misses);
    }

    /// A fully-associative compiled cache (one set of `lines` ways) is
    /// equivalent to the ideal LRU cache of the same capacity.
    #[test]
    fn fully_assoc_setassoc_equals_ideal(trace in trace_strategy(300, 80)) {
        let lines = 16u64;
        let mut compiled = CompiledCache::new(1, lines as u32, 80);
        let mut ideal = IdealCache::new(lines, 64);
        for &id in &trace {
            let h1 = probe(&mut compiled, 1, id);
            let h2 = ideal.access_line(id * 64, AccessKind::Read);
            prop_assert_eq!(h1, h2);
        }
    }

    /// Set-associative cache invariants: hits + misses = accesses, the number
    /// of resident lines never exceeds the capacity, and every miss either
    /// fills an empty way or evicts exactly one line.
    #[test]
    fn setassoc_counters_consistent(
        trace in trace_strategy(400, 200),
        assoc_pow in 0u32..3,
        sets_pow in 0u32..3,
    ) {
        let assoc = 1 << assoc_pow;
        let sets = 1u64 << sets_pow;
        let mut c = CompiledCache::new(sets, assoc, 200);
        for &id in &trace {
            probe(&mut c, sets, id);
            prop_assert!(c.resident_lines() as u64 <= sets * assoc as u64);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, trace.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert_eq!(s.misses, s.evictions + c.resident_lines() as u64);
    }

    /// Doubling associativity at fixed capacity never increases misses for
    /// these LRU caches when the trace has no conflict-free structure --
    /// weaker check: the fully associative cache never misses more than any
    /// set-associative cache of the same capacity.
    #[test]
    fn full_assoc_no_worse_than_set_assoc(trace in trace_strategy(300, 60)) {
        // 16 lines: 8 sets × 2 ways against one set of 16 ways.
        let mut sa = CompiledCache::new(8, 2, 60);
        let mut fa = CompiledCache::new(1, 16, 60);
        for &id in &trace {
            probe(&mut sa, 8, id);
            probe(&mut fa, 1, id);
        }
        // Belady anomaly does not apply to LRU with full associativity vs
        // set-partitioned LRU *in general*, but for uniformly random traces
        // of this size it holds with overwhelming probability; treat a
        // violation larger than a small slack as a bug.
        prop_assert!(fa.stats().misses <= sa.stats().misses + trace.len() as u64 / 10);
    }
}

#[test]
fn treap_handles_large_footprints() {
    // One deterministic large-footprint run to exercise arena growth.
    let mut treap = OrderStatStack::with_capacity(1 << 16);
    let mut naive_misses = 0u64;
    for i in 0..200_000u64 {
        let line = (i * 2654435761) % 50_000;
        if treap.access(line).is_none() {
            naive_misses += 1;
        }
    }
    assert_eq!(naive_misses, treap.num_lines() as u64);
    assert_eq!(treap.num_lines(), 50_000);
}
