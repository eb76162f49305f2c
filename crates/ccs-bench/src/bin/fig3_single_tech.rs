//! Figure 3: execution time of Hash Join and Mergesort across the 45 nm
//! single-technology design points (Table 3, 1–26 cores), PDF vs WS.
//!
//! The paper's qualitative features (Section 5.2): PDF wins at every design
//! point; Hash Join bottoms out around ~18 cores (it becomes
//! memory-bandwidth-bound and the shrinking cache then hurts), while
//! Mergesort keeps improving to 24–26 cores.
//!
//! What this model measures at the default scale (1/32): PDF is ahead at 25
//! of the 26 multi-core points, but not on Hash Join at 2 cores
//! (`pdf_over_ws` = 0.996, 0.4% more cycles).  PDF Hash Join bottoms out at
//! 16 cores (16.6M cycles) and stays within 16.6–17.1M from 14 to 26.  PDF
//! Mergesort is fastest at 14 cores (17.5M cycles) and 33% slower at 26
//! (23.3M), so it does not keep improving to 24–26 cores.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig3_single_tech -- [--scale N] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let report = figs::fig3(&opts);
    print_report("Figure 3 — 45nm single technology", &report, &opts);

    // PDF-over-WS relative speedup per design point.
    for pdf in report.for_scheduler("pdf") {
        if let Some(ws) = report
            .for_scheduler("ws")
            .find(|r| r.workload == pdf.workload && r.config == pdf.config)
        {
            let rel = if pdf.cycles > 0 {
                ws.cycles as f64 / pdf.cycles as f64
            } else {
                0.0
            };
            eprintln!(
                "#   {} on {}: pdf_over_ws = {rel:.3}",
                pdf.workload, pdf.config
            );
        }
    }
}
