//! Figure 1 in miniature: how PDF and WS schedule a parallel Mergesort whose
//! input is about the size of the shared L2 cache, and where the misses come
//! from.
//!
//! The paper's picture: with 8 cores, WS has each core mergesorting its own
//! n/8-sized sub-array, so the aggregate working set (2·C_P) blows the cache
//! and the top log P levels of the recursion miss; PDF has all cores
//! cooperating on one parallel merge at a time, so those levels hit.
//!
//! ```text
//! cargo run --release --example mergesort_sim
//! ```

use ccs::prelude::*;
use ccs::sched::theory::MergesortModel;

fn main() {
    let cores = 8;
    // Scaled-down "default-8" configuration: 8 MB L2 becomes 256 KB.
    let scale = 32;
    let config = CmpConfig::default_with_cores(cores).unwrap().scaled(scale);
    let cache_bytes = config.l2.capacity;

    // Sort an array of exactly C_P bytes, as in Figure 1.
    let n_items = cache_bytes / 4;
    let comp = ccs::workloads::mergesort::build(
        &MergesortParams::new(n_items).with_task_working_set(cache_bytes / (2 * cores as u64)),
    );

    println!(
        "Sorting {} integers ({} KB) on {config}",
        n_items,
        n_items * 4 / 1024
    );
    println!(
        "{} tasks, parallelism {:.1}",
        comp.num_tasks(),
        Dag::from_computation(&comp).parallelism()
    );

    let mut seq_cfg = config.clone();
    seq_cfg.num_cores = 1;
    let seq = simulate(&comp, &seq_cfg, "pdf");

    println!("\nscheduler   cycles      speedup  L2 misses  misses/1000instr");
    let mut results = Vec::new();
    for kind in ["pdf", "ws"] {
        let r = simulate(&comp, &config, kind);
        println!(
            "{:<10} {:>10}  {:>7.2}  {:>9}  {:>10.3}",
            r.scheduler,
            r.cycles,
            r.speedup_over(&seq),
            r.l2.misses,
            r.l2_mpki()
        );
        results.push(r);
    }

    // Compare against the closed-form model of Section 3.
    let model = MergesortModel {
        n_items,
        item_bytes: 4,
        line_bytes: 128,
    };
    println!("\nSection 3 model:");
    println!(
        "  M_pdf ~ (N/B)*log2(N/C_P) = {:.0} lines",
        model.misses_with_cache(cache_bytes)
    );
    println!(
        "  M_ws  ~ M_pdf + (N/B)*log2(P) = {:.0} lines",
        model.ws_misses(cache_bytes, cores)
    );
    let reduction = results[0].mpki_reduction_vs(&results[1]);
    println!(
        "\nPDF reduces L2 misses per instruction by {reduction:.1}% relative to WS \
         (the paper reports 13.8%-40.6% for Mergesort)."
    );
}
