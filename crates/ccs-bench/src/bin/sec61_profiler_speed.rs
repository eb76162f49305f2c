//! Section 6.1: performance of the one-pass `LruTree` working-set profiler
//! versus the multi-pass `SetAssoc` baseline.
//!
//! The paper profiles a Mergesort trace of 2.85 billion references with over
//! 190,000 task groups and measures 253 minutes for SetAssoc vs 13.4 minutes
//! for LruTree (an 18× improvement), the gap coming from SetAssoc re-visiting
//! every record once per task-group-tree level (22× on average).  This binary
//! measures the same two algorithms on a scaled-down Mergesort trace and also
//! reports the average number of times SetAssoc re-visits each record.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin sec61_profiler_speed -- [--scale N]
//! ```

use std::time::Instant;

use ccs_dag::TaskGroupTree;
use ccs_experiment::Options;
use ccs_profile::{profile_all_groups, WorkingSetProfile};
use ccs_workloads::{mergesort, MergesortParams};

fn main() {
    let opts = Options::from_env();
    let scale = opts.effective_scale();
    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    let params = MergesortParams::new(n_items)
        .with_task_working_set(((1u64 << 20) / scale.max(1)).max(8 * 1024));
    let comp = mergesort::build(&params);
    let tree = TaskGroupTree::from_computation(&comp);
    let total_refs = comp.total_refs();
    eprintln!(
        "# Section 6.1 — profiling a Mergesort of {n_items} items: {} references, {} tasks, {} task groups",
        total_refs,
        comp.num_tasks(),
        tree.num_groups()
    );

    let sizes: Vec<u64> = (12..=26).map(|p| 1u64 << p).collect();

    let t0 = Instant::now();
    let profile = WorkingSetProfile::collect(&comp, &sizes);
    let lrutree = t0.elapsed();

    let t1 = Instant::now();
    let all = profile_all_groups(&comp, &tree, &sizes);
    let setassoc = t1.elapsed();

    // Cross-check one number so the comparison is apples-to-apples.
    let root = tree.group(tree.root());
    let direct_root_hits = all[tree.root().index()]
        .iter()
        .find(|s| s.cache_bytes == *sizes.last().unwrap())
        .map(|s| s.hits)
        .unwrap_or(0);
    let onepass_root_hits = profile.hits_in(root.rank_range(), *sizes.last().unwrap());
    assert_eq!(direct_root_hits, onepass_root_hits, "profilers disagree");

    // How many times does the multi-pass approach touch each record?
    let revisits: u64 = tree
        .iter()
        .map(|(_, g)| profile.refs_in(g.rank_range()))
        .sum();
    let revisit_factor = revisits as f64 / profile.refs_in(root.rank_range()).max(1) as f64;

    println!("algorithm\tseconds\trefs_processed\trevisit_factor");
    println!(
        "LruTree (one pass)\t{:.3}\t{}\t1.0",
        lrutree.as_secs_f64(),
        total_refs
    );
    println!(
        "SetAssoc (per group)\t{:.3}\t{}\t{:.1}",
        setassoc.as_secs_f64(),
        revisits,
        revisit_factor
    );
    println!(
        "speedup\t{:.1}x\t\t",
        setassoc.as_secs_f64() / lrutree.as_secs_f64().max(1e-9)
    );
}
