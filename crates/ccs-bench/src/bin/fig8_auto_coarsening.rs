//! Figure 8: effectiveness of the automatic task-selection (coarsening)
//! scheme on Mergesort, for the 32-, 16- and 8-core default configurations
//! (8 only with `--quick`), under PDF.
//!
//! Three schemes are compared per core count (see [`ccs_bench::figs::fig8`]):
//!
//! * `mergesort/previous` — the manually selected task sizes of Section 5;
//! * `mergesort/dag` — the automatic selection applied by re-grouping the
//!   finest-grain trace into coarse tasks (the coarse task still contains
//!   the parallel-code instruction overheads);
//! * `mergesort/actual` — the automatic selection applied by regenerating
//!   the workload at the recommended granularity.
//!
//! The paper finds `actual` within 5% of the best in all cases; the binary
//! prints that check per core count and exits 1 when it fails.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig8_auto_coarsening -- [--scale N] [--json PATH]
//! ```

use ccs_bench::{figs, print_report};
use ccs_experiment::Options;

fn main() {
    let opts = Options::from_env();
    let (report, analyses) = figs::fig8_coarsened(&opts);
    print_report(
        "Figure 8 — automatic task coarsening (Mergesort)",
        &report,
        &opts,
    );

    let mut holds = true;
    for ((cores, ratio, within), analysis) in figs::coarsening_within_best(&report)
        .into_iter()
        .zip(&analyses)
    {
        assert_eq!(cores, analysis.cores, "one analysis per core count");
        eprintln!(
            "# §6 check: {cores} cores: actual/best={ratio:.3} within_5%={within} merged={}",
            analysis.merged()
        );
        eprintln!(
            "#   {} fine tasks coarsened into {} tasks (budget {} KB)",
            analysis.fine_tasks,
            analysis.coarse_tasks,
            analysis.budget_bytes / 1024
        );
        holds &= within;
    }
    if !holds {
        std::process::exit(1);
    }
}
