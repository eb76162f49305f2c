//! Figure 4: sensitivity to the L2 hit time on the 16-core default
//! configuration (7 cycles ≈ a fast distributed L2 bank, 19 cycles = the
//! default monolithic shared L2).
//!
//! The headline comparison (Section 5.3): PDF with the *slow* 19-cycle L2
//! still beats WS with the *fast* 7-cycle L2, because for Hash Join and
//! Mergesort the number of L2 hits is on par with the number of L2 misses,
//! so the miss penalty dominates any hit-time difference.  The binary prints
//! that check per workload and exits 1 when it fails.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig4_l2_hit_time -- [--scale N] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let report = figs::fig4(&opts);
    print_report(
        "Figure 4 — L2 hit-time sensitivity (16-core default)",
        &report,
        &opts,
    );

    let mut holds = true;
    for (workload, ratio, pdf_wins) in figs::pdf_slow_beats_ws_fast(&report) {
        eprintln!("# §5.3 check: {workload}: pdf@19/ws@7 cycles={ratio:.3} pdf_wins={pdf_wins}");
        holds &= pdf_wins;
    }
    if !holds {
        std::process::exit(1);
    }
}
