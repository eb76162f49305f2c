//! Run the paper's figures and tables in one process and emit one merged
//! machine-readable report.
//!
//! `run_all` walks the named parts of [`ccs_bench::parts`] in order: the
//! figure sweeps (Figs. 2–6, the Section 5.4 comparison, the latency and
//! scaling profiles), Figure 8, the Section 5.5 extras, then the two text
//! sections that are not sweeps (the configuration tables and the Section
//! 6.1 profiler timing, see [`ccs_bench::sections`]).  Each sweep prints
//! its TSV table and is merged into one JSON trajectory.  A plain run
//! walks every sweep; the full (non-quick) suite adds the text sections
//! and, with no `--app` filter, the Section 5.5 extras.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin run_all -- \
//!     [--fig NAME[,NAME...]] [--scale N] [--quick] [--json PATH] [--parallel N]
//!     [--app NAME] [--workloads spec,...] [--cores N,...] [--bench]
//!     [--engine event|reference|batch]
//! ```
//!
//! `--fig NAME[,NAME...]` walks only the named parts (`--fig
//! fig4_l2_hit_time`), always in list order; an unknown name is an error
//! that lists the parts.  Every [`ccs_bench::claims`] entry whose part ran
//! prints one `# claim` line per outcome on stderr, and after writing its
//! JSON `run_all` exits 1 if any claim failed.  Unknown flags, `--fig` with
//! `--workloads` (use `--app`) and `--bench` with either exit 2 with a
//! one-line `error:`.
//!
//! `--bench` substitutes the timed [`ccs_bench::harness`] for the plain
//! sweeps: the figure sweeps run under the wall clock (plus an
//! event-driven-vs-reference engine comparison and raw-simulator
//! microbenches) and the perf trajectory is written to `BENCH_sim.json` —
//! the file CI uploads and gates against `bench/baseline.json` (see the
//! `bench_gate` binary).  The merged sweep report is still emitted through
//! `--json` as usual; no claim is evaluated.
//!
//! With `--quick` the merged report is always written (default path
//! `BENCH_run_all.json` when `--json` is not given), so smoke tests get a
//! machine-readable trajectory.
//!
//! `--app NAME` restricts the figure sweeps to one paper workload.
//! `--workloads <spec,...>` replaces every part with exactly the
//! requested registry workloads (`--workloads quicksort,matmul:n=512`) on
//! the `--cores` default configurations (8 cores when none are given).
//! Every sweep fans across one `ccs-runtime` pool thread per host core by
//! default; `--parallel N` picks `N` threads and `--parallel 1` runs
//! sequentially — the merged JSON is byte-identical either way.  The
//! `--bench` harness times its sweep records sequentially.

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::exit;

use ccs_bench::claims::{self, CLAIMS};
use ccs_bench::parts::{self, Run};
use ccs_bench::{harness, text_out};
use ccs_experiment::{Options, Report};

fn main() {
    let mut opts = Options::from_env();
    let parts = parts::select(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });
    if opts.bench {
        run_bench(opts);
        return;
    }

    // With `--json -` the tables move to stderr so stdout carries nothing
    // but the merged JSON document.
    let mut out = text_out(&opts);
    let mut merged = Report::new("run_all", opts.effective_scale());
    let mut outcomes = Vec::new();
    for part in parts {
        written(
            writeln!(out, "\n===== {} =====", part.name),
            "the part header",
        );
        match part.run {
            Run::Sweep(run) => {
                let report = run(&opts);
                written(write!(out, "{}", report.to_tsv()), "the sweep table");
                for claim in CLAIMS.iter().filter(|c| c.part == part.name) {
                    for outcome in (claim.check)(&report) {
                        eprintln!(
                            "# claim {} {}: {} = {:.3} holds={}",
                            claim.section,
                            claim.name,
                            outcome.subject,
                            outcome.value,
                            outcome.holds
                        );
                        outcomes.push(outcome);
                    }
                }
                merged.merge(report);
            }
            Run::Text(section) => written(section(&opts, &mut out), part.name),
        }
    }
    written(out.flush(), "the tables");

    // Quick runs always leave a machine-readable trajectory behind.
    if opts.quick && opts.json.is_none() {
        opts.json = Some(PathBuf::from("BENCH_run_all.json"));
    }
    written(opts.emit_json(&merged).map(drop), "the JSON report");
    exit(claims::exit_code(&outcomes));
}

/// `--bench`: run the timed harness, print its table, and leave both the
/// `BENCH_sim.json` perf trajectory and the usual merged sweep report
/// behind.
fn run_bench(mut opts: Options) {
    let (bench, merged) = harness::run(&opts);
    written(
        write!(text_out(&opts), "{}", bench.to_tsv()),
        "the bench table",
    );
    match bench.write_json(harness::BENCH_SIM_PATH) {
        Ok(()) => eprintln!("# wrote {}", harness::BENCH_SIM_PATH),
        Err(e) => {
            eprintln!("failed to write {}: {e}", harness::BENCH_SIM_PATH);
            exit(1);
        }
    }
    // Quick runs always leave the sweep trajectory behind too.
    if opts.quick && opts.json.is_none() {
        opts.json = Some(PathBuf::from("BENCH_run_all.json"));
    }
    written(opts.emit_json(&merged).map(drop), "the JSON report");
}

/// Check one write of the tables or the report.  A reader that went away
/// (`run_all | head`) ends the run quietly with status 0: nobody is left to
/// read the rest.  Any other write error is fatal.
fn written(result: io::Result<()>, what: &str) {
    match result {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("error: write {what}: {e}");
            exit(1);
        }
    }
}
