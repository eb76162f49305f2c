//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of Chen et al., SPAA 2007.
//!
//! Each binary in `src/bin/` reproduces one figure/table (see DESIGN.md's
//! experiment index).  The sweeps themselves are described with the
//! [`Experiment`](ccs_experiment::Experiment) builder from `ccs-experiment`
//! — the per-figure functions in [`figs`] return a serialisable [`Report`],
//! and the binaries are thin wrappers that print it as TSV and optionally
//! emit JSON (`--json PATH`).  The two outputs that are not sweeps (the
//! configuration tables and the Section 6.1 profiler timing) are text
//! writers in [`sections`].
//!
//! All binaries accept the shared [`Options`] flags (`--scale`, `--quick`,
//! `--app`, `--json`, `--engine`) plus binary-specific extras.  `run_all`
//! runs every figure and section in one process; `run_all --bench`
//! additionally runs the timed [`harness`] and emits the `BENCH_sim.json`
//! perf trajectory that CI gates on (see the `bench_gate` binary).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::{self, Write};

use ccs_experiment::{Options, Report};

pub mod figs;
pub mod harness;
pub mod sections;

/// Where human-readable text goes: stdout, or stderr when `--json -`
/// claims stdout for the JSON document.
pub fn text_out(opts: &Options) -> Box<dyn Write> {
    if opts.json_to_stdout() {
        Box::new(io::stderr())
    } else {
        Box::new(io::stdout())
    }
}

/// Print a report as the standard tab-separated table, preceded by a
/// commented title line on stderr.  With `--json -` the table moves to
/// stderr so stdout carries nothing but the JSON document.  Empty sweeps
/// (the workload selection has no panel in this figure) get an explanatory
/// note instead of silent blankness.
pub fn print_report(title: &str, report: &Report, opts: &Options) {
    eprintln!("# {title}, scale 1/{}", report.scale);
    if report.is_empty() {
        eprintln!(
            "# (empty sweep: the selected workloads have no panel in this figure; \
             parameterised or non-paper specs only run through `run_all --workloads`)"
        );
    }
    let mut out = text_out(opts);
    out.write_all(report.to_tsv().as_bytes())
        .and_then(|()| out.flush())
        .expect("write the report table");
    if let Err(e) = opts.emit_json(report) {
        eprintln!("# failed to write JSON report: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_experiment::Experiment;

    #[test]
    fn quick_pdf_ws_run_is_consistent() {
        let report = Experiment::new("mergesort")
            .cores(4)
            .scale(512)
            .quick(true)
            .schedulers(["pdf", "ws"])
            .run();
        let pdf = report.for_scheduler("pdf").next().unwrap();
        let ws = report.for_scheduler("ws").next().unwrap();
        assert_eq!(pdf.instructions, ws.instructions);
        assert!(pdf.cycles > 0 && ws.cycles > 0);
        assert!(pdf.speedup_over_seq.unwrap() >= 1.0);
    }

    #[test]
    fn fig_reports_cover_their_sweeps_in_quick_mode() {
        let opts = Options {
            quick: true,
            scale: 512,
            app: Some("mergesort"),
            ..Options::default()
        };
        let fig2 = figs::fig2(&opts);
        // Quick mode: 1–8 cores in powers of two, PDF + WS per point.
        assert_eq!(fig2.len(), 4 * 2);
        assert!(fig2.records.iter().all(|r| r.cores <= 8));
        assert!(fig2.records.iter().all(|r| r.speedup_over_seq.is_some()));

        let fig6 = figs::fig6(&opts);
        assert!(!fig6.is_empty());
        // The granularity sweep encodes the task working set in the name.
        assert!(fig6
            .records
            .iter()
            .all(|r| r.workload.starts_with("mergesort/ws=")));
    }
}
