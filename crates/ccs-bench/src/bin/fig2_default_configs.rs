//! Figure 2: PDF vs WS on the default (Table 2) CMP configurations.
//!
//! Reproduces all six panels: speedup over sequential execution (left column)
//! and L2 misses per 1000 instructions (right column) for LU (1–16 cores),
//! Hash Join and Mergesort (1–32 cores).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig2_default_configs -- \
//!     [--scale N] [--app lu|hashjoin|mergesort] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let report = figs::fig2(&opts);
    print_report("Figure 2 — default configurations", &report, &opts);

    // Section 5.1 headline: PDF's L2 miss reduction relative to WS.
    for workload in report.workloads() {
        for pdf in report
            .for_workload(&workload)
            .filter(|r| r.scheduler == "pdf")
        {
            if let Some(ws) = report
                .for_workload(&workload)
                .find(|r| r.scheduler == "ws" && r.config == pdf.config)
            {
                let reduction = pdf.mpki_reduction_vs(ws);
                eprintln!(
                    "#   {workload} on {}: PDF reduces L2 MPKI by {reduction:.1}%",
                    pdf.config
                );
            }
        }
    }
}
