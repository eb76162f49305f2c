//! Figure 6: impact of task granularity on Mergesort — L2 misses per 1000
//! instructions and execution time as a function of the task working-set
//! size (8 MB down to 32 KB in the paper), on the 32-core and 16-core default
//! configurations, PDF vs WS.  The working-set size of each point is encoded
//! in the workload name (`mergesort/ws=32768`).
//!
//! With `--coarse-vs-fine` it also reports the Section 5.4 comparison between
//! the original coarse-grained codes (serial merge / one probe task per
//! sub-partition) and the fine-grained versions (the paper measured up to a
//! 2.85× gap).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig6_granularity -- \
//!     [--scale N] [--coarse-vs-fine] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let mut report = figs::fig6(&opts);

    if opts.rest.iter().any(|a| a == "--coarse-vs-fine") {
        eprintln!("# Section 5.4 — coarse-grained originals vs fine-grained (16-core default)");
        report.merge(figs::coarse_vs_fine(&opts));
    }

    print_report(
        "Figure 6 — Mergesort task-granularity sweep",
        &report,
        &opts,
    );
}
