//! The entry points that regenerate every table and figure of Chen et al.,
//! SPAA 2007, and the code they share.
//!
//! `run_all` runs the paper's figures and tables as named [`parts`] (see
//! DESIGN.md's experiment index; `run_all --fig <part>` runs one).  The
//! sweeps themselves are described with the
//! [`Experiment`](ccs_experiment::Experiment) builder from `ccs-experiment`
//! — the per-figure functions in [`figs`] return a serialisable
//! [`Report`](ccs_experiment::Report) that `run_all` prints as TSV and
//! merges into one JSON trajectory (`--json PATH`).  The two outputs that
//! are not sweeps (the configuration tables and the Section 6.1 profiler
//! timing) are text writers in [`sections`].  The paper's claims that
//! `run_all` checks on those reports are data in [`claims`].
//!
//! `run_all`, `serve` and `serve_client` accept the shared [`Options`]
//! flags (`--scale`, `--quick`, `--app`, `--json`, `--engine`) plus
//! binary-specific extras; `run_all --bench` runs the timed [`harness`] instead and emits the
//! `BENCH_sim.json` perf trajectory that CI gates on (see the `bench_gate`
//! binary).  The `serve` and `serve_client` binaries drive the sweep
//! daemon.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::{self, Write};

use ccs_experiment::Options;

pub mod claims;
pub mod figs;
pub mod harness;
pub mod parts;
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
