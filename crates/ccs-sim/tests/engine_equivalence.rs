//! Property: the event-driven production engine reports **byte-identical**
//! metrics to the retained reference cycle-stepper.
//!
//! Random small series-parallel DAGs (mixed reads/writes over shared and
//! private regions), both scheduler kinds, 1/2/4 cores: every field of
//! [`SimResult`] — cycles, every cache counter, memory-controller stats,
//! per-core busy times, bandwidth utilisation — must match exactly.  This is
//! the executable form of the DESIGN.md §7 argument that the inline
//! micro-step batching and the ownership directory are pure reorderings of
//! unobservable work.

use ccs_dag::synth::{random_computation, SynthParams};
use ccs_sim::{simulate_engine, CmpConfig, SimEngine};
use proptest::prelude::*;

/// A small CMP so random working sets actually contend: 4 KB L1s, 64 KB L2.
fn tiny_config(cores: usize) -> CmpConfig {
    let mut cfg = CmpConfig::default_with_cores(if cores <= 1 { 1 } else { 16 })
        .expect("default config exists");
    cfg.num_cores = cores;
    cfg.name = format!("equiv-{cores}");
    cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, 1);
    cfg.l2 = ccs_cache::CacheConfig::new(64 * 1024, 128, 16, 13);
    cfg
}

/// DAGs stay small (depth ≤ 3, ≤ 16 refs per strand) so the reference
/// engine's per-step heap traffic doesn't dominate the test run.
fn synth_params() -> SynthParams {
    SynthParams {
        max_depth: 3,
        max_par_width: 4,
        max_seq_len: 3,
        max_strand_work: 64,
        max_strand_refs: 16,
        num_regions: 3,
        region_bytes: 4 * 1024,
        shared_ref_prob: 0.6,
        line_size: 128,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn event_driven_equals_reference(
        seed in 0u64..u64::MAX,
        cores_idx in 0usize..3,
        pdf in 0u32..2,
    ) {
        let cores = [1usize, 2, 4][cores_idx];
        let comp = random_computation(seed, &synth_params());
        let kind = if pdf == 0 { "pdf" } else { "ws" };
        let cfg = tiny_config(cores);
        let fast = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
        let slow = simulate_engine(&comp, &cfg, kind, SimEngine::Reference);
        prop_assert_eq!(fast, slow);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random three-level hierarchies (DESIGN.md §12): a random core count,
    /// a random equal-cluster partition of it (per-cluster L2 slices), and
    /// a shared L3 behind them.  Core counts past 64 route stores through
    /// the hierarchical sharer masks; every shape must stay byte-identical
    /// to the reference cycle-stepper.
    #[test]
    fn event_driven_equals_reference_on_clustered_l3_hierarchies(
        seed in 0u64..u64::MAX,
        cores in 2usize..=128,
        cluster_pick in 0usize..8,
        pdf in 0u32..2,
    ) {
        let divisors: Vec<usize> = (1..=cores).filter(|&d| cores.is_multiple_of(d)).collect();
        let clusters = divisors[cluster_pick % divisors.len()];
        let comp = random_computation(seed, &synth_params());
        let kind = if pdf == 0 { "pdf" } else { "ws" };
        let cfg = tiny_config(cores).clustered(clusters).with_l3_mb(1);
        let fast = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
        let slow = simulate_engine(&comp, &cfg, kind, SimEngine::Reference);
        prop_assert_eq!(fast, slow);
    }
}

/// A deterministic sweep over the same cross-product, so failures reproduce
/// without proptest shrinking and CI always covers every (scheduler, cores)
/// cell even if the random sampler doesn't.  The core counts hit two
/// coherence paths of the event engine: `p == 1` (no directory, fills
/// skipped unconditionally) and `1 < p ≤ 64` (flat sharer-mask directory);
/// `tests/engine_ab.rs` covers the hierarchical masks past 64 cores.
#[test]
fn engines_agree_across_seeds_schedulers_and_cores() {
    let params = synth_params();
    for seed in 0..12u64 {
        let comp = random_computation(seed, &params);
        for cores in [1usize, 2, 4] {
            let cfg = tiny_config(cores);
            for kind in ["pdf", "ws"] {
                let fast = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
                let slow = simulate_engine(&comp, &cfg, kind, SimEngine::Reference);
                assert_eq!(fast, slow, "seed {seed} / {kind} / {cores} cores");
            }
        }
    }
}

/// Set lanes are compiled once per sweep point and shared across every
/// scheduler × core-count simulation of it: the computation's memoised
/// line stream hands out the same `Arc`s, and only one packed lane table
/// exists no matter how many simulations ran.
#[test]
fn geometry_lanes_compile_once_and_are_shared_across_runs() {
    use ccs_dag::CacheGeometry;
    use std::sync::Arc;

    let comp = random_computation(7, &synth_params());
    let stream = comp.line_stream(128);
    assert_eq!(stream.compiled_set_lanes(), 0, "nothing compiled yet");

    // tiny_config uses the same L1/L2 geometry at every core count, so the
    // whole schedulers × cores matrix of a sweep point shares one table.
    for cores in [1usize, 2, 4] {
        let cfg = tiny_config(cores);
        for kind in ["pdf", "ws"] {
            let _ = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
        }
    }
    assert!(
        Arc::ptr_eq(&comp.line_stream(128), &stream),
        "all runs reused the memoised stream"
    );
    assert_eq!(
        stream.compiled_set_lanes(),
        1,
        "six simulations share one packed lane table"
    );

    let cfg = tiny_config(2);
    let l1 = CacheGeometry::new(128, cfg.l1.num_sets());
    let l2 = CacheGeometry::new(128, cfg.l2.num_sets());
    let a = stream.geometry_pair(l1, l2);
    let b = stream.geometry_pair(l1, l2);
    assert!(Arc::ptr_eq(&a, &b), "lookups share one compiled table");
    assert_eq!(a.l1_geometry(), l1);
    assert_eq!(a.l2_geometry(), l2);
    assert_eq!(a.l3_geometry(), None);
    assert_eq!(a.packed().len(), stream.num_lines());
    assert_eq!(stream.compiled_set_lanes(), 1);
}

/// The pooled path's remaining special cases, hand-built because the synth
/// generator only emits aligned line-sized refs:
///
/// * byte-granular references that straddle line boundaries (one stream
///   step per touched line, `pre_compute` charged once);
/// * tight same-line re-reads — the event engine's one-entry MRU filter
///   must short-circuit them without moving any metric;
/// * interleaved remote stores to the hammered line, which must drop the
///   victims' filter entries (a stale filter entry would turn a post-
///   invalidation miss into a phantom hit).
#[test]
fn engines_agree_on_straddling_refs_and_mru_hammering() {
    use ccs_dag::{AddressSpace, ComputationBuilder, GroupMeta};

    let mut b = ComputationBuilder::new(128);
    let mut space = AddressSpace::new();
    let shared = space.alloc(4 * 1024);
    let leaves: Vec<_> = (0..6)
        .map(|i| {
            let private = space.alloc(2 * 1024);
            b.strand_with(|t| {
                // Same-line hammering (MRU-filter territory).
                for _ in 0..32 {
                    t.compute(1).read(shared.base, 8);
                }
                // Straddling, byte-granular references.
                t.read(private.base + 120, 16); // crosses a line boundary
                t.write(private.base + 250, 300); // spans three lines
                t.read(shared.base + 64, 1);
                // Stores to the hammered line from every other strand.
                if i % 2 == 0 {
                    t.write(shared.base, 8);
                }
                // Re-read after the (possibly remote) stores.
                for _ in 0..8 {
                    t.compute(1).read(shared.base, 8);
                }
            })
        })
        .collect();
    let par = b.par(leaves, GroupMeta::labeled("hammer"));
    let comp = b.finish(par);

    for cores in [1usize, 2, 4] {
        let cfg = tiny_config(cores);
        for kind in ["pdf", "ws"] {
            let fast = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
            let slow = simulate_engine(&comp, &cfg, kind, SimEngine::Reference);
            assert_eq!(fast, slow, "{kind} / {cores} cores");
        }
    }
}
