//! Integration of the Section 6 pipeline: fine-grained program → one-pass
//! working-set profile → automatic coarsening → parallelization table →
//! re-grouped DAG → re-simulation.

use ccs::prelude::*;
use ccs::profile::{apply_coarsening, ParallelizationTable};

fn fine_mergesort() -> ccs::dag::Computation {
    ccs::workloads::mergesort::build(&MergesortParams::new(1 << 15).with_task_working_set(4 * 1024))
}

#[test]
fn coarsening_pipeline_end_to_end() {
    let fine = fine_mergesort();
    let tree = TaskGroupTree::from_computation(&fine);
    let sizes: Vec<u64> = (12..=22).map(|p| 1u64 << p).collect();
    let profile = WorkingSetProfile::collect(&fine, &sizes);

    let cfg = CmpConfig::default_with_cores(8).unwrap().scaled(256);
    let target = CoarsenTarget {
        cache_bytes: cfg.l2.capacity,
        num_cores: 8,
    };
    let plan = coarsen(&profile, &tree, target);
    assert!(
        plan.num_coarse_tasks() >= 8,
        "need enough tasks to keep 8 cores busy"
    );
    assert!(plan.num_coarse_tasks() <= fine.num_tasks());

    // The table records thresholds for the mergesort spawn sites.
    let mut table = ParallelizationTable::new();
    table.add(&plan);
    assert!(!table.is_empty());

    // Re-grouping preserves the work and the sequential trace, and the
    // coarsened program still runs correctly on the simulator.
    let coarse = apply_coarsening(&fine, &tree, &plan);
    assert_eq!(coarse.total_work(), fine.total_work());
    assert_eq!(coarse.total_refs(), fine.total_refs());

    let fine_run = simulate(&fine, &cfg, "pdf");
    let coarse_run = simulate(&coarse, &cfg, "pdf");
    assert_eq!(fine_run.instructions, coarse_run.instructions);
    // The automatic selection must not be a disaster: within 2x of the
    // fine-grained run (the paper's point is that it lands within 5% of the
    // *best manual* selection; the exact relation to the finest grain depends
    // on scheduling overheads, which the simulator does not charge).
    assert!(coarse_run.cycles < fine_run.cycles * 2);
}

#[test]
fn working_set_profile_consistent_with_coarse_groups() {
    let fine = fine_mergesort();
    let tree = TaskGroupTree::from_computation(&fine);
    let sizes: Vec<u64> = vec![16 * 1024, 256 * 1024, 4 << 20];
    let profile = WorkingSetProfile::collect(&fine, &sizes);
    let target = CoarsenTarget {
        cache_bytes: 256 * 1024,
        num_cores: 4,
    };
    let plan = coarsen(&profile, &tree, target);

    // Every selected coarse group obeys (or is a leaf below) the working-set
    // budget criterion applied at its parent.
    for &g in &plan.coarse_groups {
        let group = tree.group(g);
        if let Some(parent) = group.parent {
            let p = tree.group(parent);
            let sets = tree.independent_child_sets(parent);
            let w = profile.working_set_bytes(p.rank_range());
            // The set containing g either satisfied the criterion, or g is a
            // leaf that could not be subdivided further.
            let in_set = sets.iter().find(|s| s.contains(&g)).unwrap();
            let k = in_set.len() as u64;
            assert!(
                w <= k * target.budget_bytes() || group.is_leaf(),
                "group {g:?} selected without satisfying the criterion"
            );
        }
    }
}

#[test]
fn profile_answers_match_direct_replay_on_workload() {
    use ccs::profile::profile_group;
    let fine = ccs::workloads::mergesort::build(
        &MergesortParams::new(1 << 12).with_task_working_set(2 * 1024),
    );
    let tree = TaskGroupTree::from_computation(&fine);
    let sizes = [8 * 1024u64, 64 * 1024];
    let profile = WorkingSetProfile::collect(&fine, &sizes);
    // Spot-check a handful of groups against the multi-pass baseline.
    for (gid, g) in tree.iter().step_by(7) {
        let direct = profile_group(&fine, &tree, gid, &sizes);
        for d in direct {
            assert_eq!(profile.hits_in(g.rank_range(), d.cache_bytes), d.hits);
        }
    }
}
