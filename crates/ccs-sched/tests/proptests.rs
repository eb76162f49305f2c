//! Property-based tests for the schedulers and the greedy executor.

use ccs_dag::synth::{random_computation, SynthParams};
use ccs_dag::Dag;
use ccs_sched::execute;
use ccs_sched::theory::{pdf_ideal_misses, sequential_misses, theorem31_capacity};
use proptest::prelude::*;

fn small_params() -> SynthParams {
    SynthParams {
        max_depth: 4,
        max_par_width: 4,
        max_seq_len: 3,
        max_strand_work: 60,
        max_strand_refs: 12,
        num_regions: 3,
        region_bytes: 8 * 1024,
        shared_ref_prob: 0.5,
        line_size: 128,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every scheduler produces a legal schedule on random DAGs, obeys the
    /// greedy (Brent) bound, and never beats the trivial lower bounds.
    #[test]
    fn schedules_are_legal_and_within_brent_bound(
        seed in 0u64..10_000,
        cores in 1usize..9,
    ) {
        let comp = random_computation(seed, &small_params());
        let dag = Dag::from_computation(&comp);
        let w = dag.total_work();
        let d = dag.depth();
        for kind in ["pdf", "ws", "central"] {
            let s = execute(&dag, cores, kind);
            prop_assert!(s.validate(&dag).is_ok());
            prop_assert!(s.makespan >= d);
            prop_assert!(s.makespan >= w / cores as u64);
            prop_assert!(s.makespan <= w / cores as u64 + d + 1);
        }
    }

    /// PDF and WS are both greedy, so their makespans on the same DAG can
    /// differ by at most the Brent slack; and all schedulers agree exactly on
    /// one core.
    #[test]
    fn one_core_makespan_equals_total_work(seed in 0u64..10_000) {
        let comp = random_computation(seed, &small_params());
        let dag = Dag::from_computation(&comp);
        for kind in ["pdf", "ws", "central"] {
            let s = execute(&dag, 1, kind);
            prop_assert_eq!(s.makespan, dag.total_work());
        }
    }

    /// Theorem 3.1: PDF on P cores with a shared ideal cache of capacity
    /// C + P·D incurs at most as many misses as the sequential execution with
    /// capacity C.
    #[test]
    fn theorem_31_miss_bound(seed in 0u64..5_000, cores in 2usize..6, c_lines in 4u64..64) {
        let comp = random_computation(seed, &small_params());
        let m1 = sequential_misses(&comp, c_lines);
        let cp = theorem31_capacity(&comp, c_lines, cores);
        let mp = pdf_ideal_misses(&comp, cores, cp);
        prop_assert!(
            mp <= m1,
            "PDF misses {} exceed sequential misses {} (P={}, C={})",
            mp, m1, cores, c_lines
        );
    }

    /// More shared cache never hurts the instruction-level PDF execution
    /// (LRU inclusion carries over to the parallel interleaving because the
    /// schedule itself does not depend on hits/misses).
    #[test]
    fn pdf_misses_monotone_in_cache_size(seed in 0u64..5_000, cores in 1usize..5) {
        let comp = random_computation(seed, &small_params());
        let small = pdf_ideal_misses(&comp, cores, 16);
        let large = pdf_ideal_misses(&comp, cores, 256);
        prop_assert!(large <= small);
    }
}
