//! Quickstart: run a Mergesort experiment on a paper CMP configuration under
//! both schedulers through the unified `Experiment` API, print the metrics
//! the paper reports, and emit the machine-readable report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ccs::prelude::*;

fn main() {
    // A Mergesort at 1/64 of the paper's input size on the paper's 8-core
    // default configuration (Table 2), caches scaled to match.
    let report = Experiment::new("mergesort")
        .cores(8)
        .scale(64)
        .schedulers(["pdf", "ws"])
        .run();

    println!("experiment: {} (scale 1/{})\n", report.name, report.scale);
    for r in &report.records {
        println!(
            "{:>4}: {:>12} cycles | speedup {:>5.2}x | L2 misses/1000 instr {:>6.3} | bandwidth {:>5.1}%",
            r.scheduler_label(),
            r.cycles,
            r.speedup_over_seq.unwrap_or(0.0),
            r.l2_mpki,
            r.bandwidth_utilization * 100.0
        );
    }

    let pdf = report.for_scheduler("pdf").next().expect("pdf record");
    let ws = report.for_scheduler("ws").next().expect("ws record");
    let reduction = pdf.mpki_reduction_vs(ws);
    println!(
        "\nPDF reduces L2 misses per instruction by {reduction:.1}% vs WS \
         (the paper reports 13.2%–38.5% across benchmarks)."
    );

    // The report is serialisable — this is what `run_all` writes with
    // --json.
    println!("\nJSON report:\n{}", report.to_json());
}
