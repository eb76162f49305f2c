//! Design-space exploration with Hash Join: how many cores should a 45 nm die
//! devote to compute versus cache?  (The Figure 3 / Section 5.2 question.)
//!
//! Sweeps a few of the Table 3 single-technology design points through one
//! `Experiment`, showing that with PDF a wide range of core counts reaches
//! near-best performance — the "larger freedom in the choice of design
//! points" argument — while Hash Join eventually becomes bandwidth-bound.
//!
//! ```text
//! cargo run --release --example hashjoin_design_space
//! ```

use ccs::prelude::*;

fn main() {
    let scale = 64u64;
    println!("Hash Join on 45nm design points (inputs and caches scaled by 1/{scale})\n");

    let report = Experiment::new("hashjoin")
        .configs(
            CmpConfig::single_tech_45nm()
                .into_iter()
                .filter(|cfg| [2usize, 8, 14, 18, 22, 26].contains(&cfg.num_cores)),
        )
        .schedulers(["pdf", "ws"])
        .scale(scale)
        .sequential_baseline(false)
        .run();

    println!("cores  sched  cycles        bw_util  L2 mpki");
    for r in &report.records {
        println!(
            "{:>5}  {:<5}  {:>12}  {:>6.1}%  {:>7.3}",
            r.cores,
            r.scheduler,
            r.cycles,
            r.bandwidth_utilization * 100.0,
            r.l2_mpki
        );
    }

    if let Some(best) = report.for_scheduler("pdf").min_by_key(|r| r.cycles) {
        println!(
            "\nBest PDF design point in this sweep: {} cores ({} cycles).  \
             The paper finds Hash Join bottoms out around ~18 cores as it saturates \
             memory bandwidth; check the bw_util column for the same effect.",
            best.cores, best.cycles
        );
    }
}
