//! Automatic task-granularity selection (Section 6): profile a fine-grained
//! Mergesort once, run the coarsening analysis for several CMP
//! configurations, print the Fig. 7(b) parallelization table, and verify the
//! chosen granularity by re-simulation.
//!
//! ```text
//! cargo run --release --example granularity_tuning
//! ```

use ccs::prelude::*;
use ccs::profile::apply_coarsening;

fn main() {
    let scale = 64u64;
    let n_items = (32u64 << 20) / scale;

    // Start from a very fine-grained program, as Section 6 prescribes.
    let fine = ccs::workloads::mergesort::build(
        &MergesortParams::new(n_items).with_task_working_set(8 * 1024),
    );
    let tree = TaskGroupTree::from_computation(&fine);
    println!(
        "fine-grained mergesort: {} tasks, {} task groups",
        fine.num_tasks(),
        tree.num_groups()
    );

    // One profiling pass answers working-set queries for every candidate
    // cache size at once.
    let sizes: Vec<u64> = (12..=26).map(|p| 1u64 << p).collect();
    let profile = WorkingSetProfile::collect(&fine, &sizes);
    println!(
        "root working set: {} KB\n",
        profile.working_set_bytes(0..fine.num_tasks() as u32) / 1024
    );

    // Coarsen for three scaled default configurations and build Fig. 7(b).
    let mut table = ccs::profile::ParallelizationTable::new();
    let mut plans = Vec::new();
    for cores in [8usize, 16, 32] {
        let cfg = CmpConfig::default_with_cores(cores).unwrap().scaled(scale);
        let target = CoarsenTarget {
            cache_bytes: cfg.l2.capacity,
            num_cores: cores,
        };
        let plan = coarsen(&profile, &tree, target);
        println!(
            "{} cores / {} KB L2: coarsen {} fine tasks into {} tasks (budget {} KB/child)",
            cores,
            cfg.l2.capacity / 1024,
            fine.num_tasks(),
            plan.num_coarse_tasks(),
            target.budget_bytes() / 1024
        );
        table.add(&plan);
        plans.push((cfg, plan));
    }

    println!("\nParallelization table (Fig. 7b):\n{}", table.render());

    // Verify the selection for the 16-core configuration by re-simulating the
    // re-grouped DAG (the Fig. 8 "dag" scheme).
    let (cfg, plan) = &plans[1];
    let coarse = apply_coarsening(&fine, &tree, plan);
    let fine_run = simulate(&fine, cfg, "pdf");
    let coarse_run = simulate(&coarse, cfg, "pdf");
    println!(
        "16-core PDF execution: fine-grained {} cycles vs auto-coarsened {} cycles ({:+.1}%)",
        fine_run.cycles,
        coarse_run.cycles,
        (coarse_run.cycles as f64 / fine_run.cycles as f64 - 1.0) * 100.0
    );
}
