//! Run the full experiment suite and emit one merged machine-readable
//! report.
//!
//! The figure sweeps (Figs. 2–6 and the Section 5.4 comparison) run
//! *in-process* through the `Experiment` API and are merged into a single
//! JSON trajectory; the non-sweep binaries (`tables_2_3`,
//! `fig8_auto_coarsening`, `sec61_profiler_speed`) are invoked as
//! subprocesses unless `--quick` is given.
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

use std::path::PathBuf;
use std::process::Command;

use ccs_bench::figs::Sweep;
use ccs_bench::{figs, harness};
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
        let mut sweeps = figs::figure_sweeps();
        // The full suite also covers the Section 5.5 secondary benchmarks
        // (skipped by `--quick` and by an `--app` paper-benchmark filter).
        if !opts.quick && opts.app.is_none() {
            sweeps.push(("sec55_extras", figs::extras));
        }
        sweeps
    };

    // With `--json -` the tables move to stderr so stdout carries nothing
    // but the merged JSON document.
    let mut merged = Report::new("run_all", opts.effective_scale());
    for (name, run) in sweeps {
        let report = run(&opts);
        if opts.json_to_stdout() {
            eprintln!("\n===== {name} =====");
            eprint!("{}", report.to_tsv());
        } else {
            println!("\n===== {name} =====");
            print!("{}", report.to_tsv());
        }
        merged.merge(report);
    }

    if !opts.quick && opts.workloads.is_empty() {
        // The remaining binaries are not sweep-shaped (table regeneration,
        // profiler timing); run them as subprocesses as before.
        let args: Vec<String> = std::env::args().skip(1).collect();
        let exe_dir = std::env::current_exe()
            .expect("current exe")
            .parent()
            .expect("exe dir")
            .to_path_buf();
        for bin in ["tables_2_3", "fig8_auto_coarsening", "sec61_profiler_speed"] {
            if opts.json_to_stdout() {
                eprintln!("\n===== {bin} =====");
            } else {
                println!("\n===== {bin} =====");
            }
            let path = exe_dir.join(bin);
            let mut command = if path.exists() {
                Command::new(&path)
            } else {
                // Fall back to cargo run (slower, but works from any directory).
                let mut c = Command::new("cargo");
                c.args(["run", "--release", "-p", "ccs-bench", "--bin", bin, "--"]);
                c
            };
            command.args(&args);
            if opts.json_to_stdout() {
                // Children inherit our stdout by default; with `--json -`
                // that would interleave their tables with the JSON document,
                // so forward their output to stderr instead.
                let status = command.output().map(|out| {
                    eprint!("{}", String::from_utf8_lossy(&out.stdout));
                    eprint!("{}", String::from_utf8_lossy(&out.stderr));
                    out.status
                });
                report_status(bin, status);
            } else {
                report_status(bin, command.status());
            }
        }
    }

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

fn report_status(bin: &str, status: std::io::Result<std::process::ExitStatus>) {
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => eprintln!("{bin} exited with {s}"),
        Err(e) => eprintln!("failed to run {bin}: {e}"),
    }
}
