//! Run the full experiment suite in one process and emit one merged
//! machine-readable report.
//!
//! The figure sweeps (Figs. 2–6, the Section 5.4 comparison, the latency
//! and scaling profiles, then Figure 8) run through the `Experiment` API
//! and are merged into a single JSON trajectory.  The full (non-quick)
//! suite then prints the two text sections that are not sweeps (the
//! configuration tables and the Section 6.1 profiler timing, see
//! [`ccs_bench::sections`]).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin run_all -- \
//!     [--scale N] [--quick] [--json PATH] [--parallel N] [--app NAME]
//!     [--workloads spec,...] [--cores N,...] [--bench] [--engine event|reference|batch]
//! ```
//!
//! `--bench` substitutes the timed [`ccs_bench::harness`] for the plain
//! sweeps: the figure sweeps run under the wall clock (plus an
//! event-driven-vs-reference engine comparison and raw-simulator
//! microbenches) and the perf trajectory is written to `BENCH_sim.json` —
//! the file CI uploads and gates against `bench/baseline.json` (see the
//! `bench_gate` binary).  The merged sweep report is still emitted through
//! `--json` as usual.
//!
//! With `--quick` the merged report is always written (default path
//! `BENCH_run_all.json` when `--json` is not given), so smoke tests get a
//! machine-readable trajectory.  The full (non-quick) suite also runs the
//! Section 5.5 secondary benchmarks through the open workload registry.
//!
//! `--app NAME` restricts the figure sweeps to one paper workload.
//! `--workloads <spec,...>` replaces the figure sweeps with exactly the
//! requested registry workloads (`--workloads quicksort,matmul:n=512`) on
//! the `--cores` default configurations (8 cores when none are given).
//! Every sweep fans across one `ccs-runtime` pool thread per host core by
//! default; `--parallel N` picks `N` threads and `--parallel 1` runs
//! sequentially — the merged JSON is byte-identical either way.  The
//! `--bench` harness times its sweep records sequentially.

use std::io::Write;
use std::path::PathBuf;

use ccs_bench::figs::Sweep;
use ccs_bench::sections::SECTIONS;
use ccs_bench::{figs, harness, text_out};
use ccs_experiment::{Options, Report};

fn main() {
    let mut opts = Options::from_env();
    if opts.bench {
        run_bench(opts);
        return;
    }
    let sweeps: Vec<Sweep> = if !opts.workloads.is_empty() {
        // An explicit `--workloads` selection replaces the figure sweeps:
        // run exactly the requested registry specs.
        vec![("workloads", figs::workload_sweep)]
    } else {
        // Figure 8 stays out of `figure_sweeps()`, which the bench harness
        // also times.
        let mut sweeps = figs::figure_sweeps();
        sweeps.push(("fig8_auto_coarsening", figs::fig8));
        // The full suite also covers the Section 5.5 secondary benchmarks
        // (skipped by `--quick` and by an `--app` paper-benchmark filter).
        if !opts.quick && opts.app.is_none() {
            sweeps.push(("sec55_extras", figs::extras));
        }
        sweeps
    };

    // With `--json -` the tables move to stderr so stdout carries nothing
    // but the merged JSON document.
    let mut out = text_out(&opts);
    let mut merged = Report::new("run_all", opts.effective_scale());
    for (name, run) in sweeps {
        let report = run(&opts);
        write!(out, "\n===== {name} =====\n{}", report.to_tsv()).expect("write the sweep table");
        merged.merge(report);
    }

    if !opts.quick && opts.workloads.is_empty() {
        for (name, section) in SECTIONS {
            writeln!(out, "\n===== {name} =====").expect("write the section header");
            section(&opts, &mut out).unwrap_or_else(|e| panic!("write {name}: {e}"));
        }
    }
    out.flush().expect("flush the tables");

    // Quick runs always leave a machine-readable trajectory behind.
    if opts.quick && opts.json.is_none() {
        opts.json = Some(PathBuf::from("BENCH_run_all.json"));
    }
    if let Err(e) = opts.emit_json(&merged) {
        eprintln!("failed to write JSON report: {e}");
    }
}

/// `--bench`: run the timed harness, print its table, and leave both the
/// `BENCH_sim.json` perf trajectory and the usual merged sweep report
/// behind.
fn run_bench(mut opts: Options) {
    if !opts.workloads.is_empty() {
        // In sweep mode `--workloads` replaces the figure sweeps, but the
        // bench trajectory must stay comparable across runs, so the harness
        // always times the canonical sweeps — reject rather than silently
        // ignoring the selection.
        eprintln!(
            "--bench times the canonical figure sweeps and cannot be combined with --workloads"
        );
        std::process::exit(2);
    }
    let (bench, merged) = harness::run(&opts);
    if opts.json_to_stdout() {
        eprint!("{}", bench.to_tsv());
    } else {
        print!("{}", bench.to_tsv());
    }
    match bench.write_json(harness::BENCH_SIM_PATH) {
        Ok(()) => eprintln!("# wrote {}", harness::BENCH_SIM_PATH),
        Err(e) => {
            eprintln!("failed to write {}: {e}", harness::BENCH_SIM_PATH);
            std::process::exit(1);
        }
    }
    // Quick runs always leave the sweep trajectory behind too.
    if opts.quick && opts.json.is_none() {
        opts.json = Some(PathBuf::from("BENCH_run_all.json"));
    }
    if let Err(e) = opts.emit_json(&merged) {
        eprintln!("failed to write JSON report: {e}");
    }
}
