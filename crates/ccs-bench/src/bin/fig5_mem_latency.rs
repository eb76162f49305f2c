//! Figure 5: sensitivity to the main-memory latency (100–1100 cycles) on the
//! 16-core default configuration, Hash Join and Mergesort, PDF vs WS.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig5_mem_latency -- [--scale N] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let report = figs::fig5(&opts);
    print_report(
        "Figure 5 — memory-latency sensitivity (16-core default)",
        &report,
        &opts,
    );
}
