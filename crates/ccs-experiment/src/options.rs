//! Command-line options shared by every `ccs-bench` binary.
//!
//! They live next to the [`Experiment`] layer so the flags and the sweeps
//! they configure stay in one place.

use std::path::PathBuf;

use ccs_sched::spec::split_spec_list;
use ccs_sim::{CmpConfig, SimEngine};
use ccs_workloads::PAPER_WORKLOADS;

use crate::{Experiment, WorkloadSpec};

/// Options every `ccs-bench` binary (`run_all`, `serve`, `serve_client`)
/// accepts:
///
/// * `--scale N` — divide the paper's input sizes *and* all cache capacities
///   by `N` (default 32) so the full sweep runs on a laptop while preserving
///   every capacity ratio;
/// * `--quick` — run a reduced sweep (used by the integration smoke tests);
/// * `--workloads <spec,...>` — select workloads from the open
///   [`WorkloadRegistry`](ccs_workloads::WorkloadRegistry) by spec string
///   (`--workloads mergesort,heat:rows=256,cols=256`; a comma-segment
///   containing `=` continues the previous spec's parameters).  Unknown
///   names are rejected up front with a did-you-mean listing of the
///   registered workloads.  May be repeated;
/// * `--app lu|hashjoin|mergesort` — restrict the figure sweeps to one of
///   the [`PAPER_WORKLOADS`] (ignored whenever `--workloads` is given);
/// * `--cores N,...` — simulated core counts (design points) for binaries
///   that take them (`serve_client`, `run_all --workloads`); each count
///   must name one of the paper's default configurations
///   ([`CmpConfig::default_with_cores`]: 1, 2, 4, 8, 16 or 32 cores) and is
///   rejected up front otherwise;
/// * `--parallel N` — fan experiment sweeps across `N` threads of the
///   `ccs-runtime` pool ([`Experiment::parallelism`]); the default, and
///   `0`, mean one thread per host core, and `1` runs sequentially;
/// * `--json PATH` — additionally write the run's [`Report`](crate::Report)
///   as JSON to `PATH` (`-` for stdout);
/// * `--store PATH` — root directory of the persistent result store (the
///   `serve` daemon's memo layer; `run_all` ignores it);
/// * `--engine event|reference|batch` — select the simulator engine
///   (default: the event-driven production engine; `reference` runs the
///   retained cycle-stepper, metrics-identical but much slower; `batch`
///   groups latency-only sweep points so they share one recorded pass,
///   metrics-identical and much faster on latency sweeps);
/// * `--bench` — benchmark mode: `run_all` substitutes the timed
///   `ccs-bench` harness for its normal sweeps and emits `BENCH_sim.json`
///   (`serve` and `serve_client` ignore the flag);
/// * `--trials N` — in benchmark mode, repeat every timed pass `N` times
///   and keep the fastest wall time (the default is harness-chosen: 3 for
///   quick sweeps, 1 for full sweeps, 5 for the raw-simulator
///   microbenches);
/// * binary-specific flags (`run_all --fig`, the daemon's and the
///   client's) are collected in [`Options::rest`]; each binary rejects
///   the ones it does not read.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input/cache scale divisor (1 = the paper's sizes).
    pub scale: u64,
    /// Reduced sweep for smoke tests.
    pub quick: bool,
    /// Optional paper-benchmark filter (`--app lu|hashjoin|mergesort`): one
    /// of the [`PAPER_WORKLOADS`] registry names.  Superseded by the open
    /// `--workloads` list.
    pub app: Option<&'static str>,
    /// Registry-backed workload selection (`--workloads <spec,...>`); empty
    /// means "the default selection" (see [`Options::workload_specs`]).
    pub workloads: Vec<WorkloadSpec>,
    /// Simulated core counts (`--cores N,...`, each 1, 2, 4, 8, 16 or 32);
    /// empty means the binary's default design points.
    pub cores: Vec<usize>,
    /// Worker threads for sweep execution (`--parallel N`; default: one per
    /// host core; 1 = sequential).
    pub parallel: usize,
    /// Where to write the JSON report, if requested (`--json PATH`, `-` for
    /// stdout).
    pub json: Option<PathBuf>,
    /// Directory of the persistent [`ResultStore`](crate::ResultStore)
    /// (`--store PATH`); used by the `serve` daemon and client binaries,
    /// ignored by `run_all`.
    pub store: Option<PathBuf>,
    /// Simulator engine selection (`--engine event|reference|batch`).
    pub engine: SimEngine,
    /// Benchmark mode (`--bench`): `run_all` runs the timed harness and
    /// emits `BENCH_sim.json` instead of the plain sweeps.
    pub bench: bool,
    /// Benchmark trial count override (`--trials N`, min 1); `None` uses
    /// the harness defaults.
    pub trials: Option<u32>,
    /// Remaining unrecognised flags (binary-specific).
    pub rest: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 32,
            quick: false,
            app: None,
            workloads: Vec::new(),
            cores: Vec::new(),
            parallel: crate::experiment::host_cores(),
            json: None,
            store: None,
            engine: SimEngine::default(),
            bench: false,
            trials: None,
            rest: Vec::new(),
        }
    }
}

impl Options {
    /// Parse options from `std::env::args`, exiting the process with a
    /// clean one-line message (status 2, no panic backtrace) when the
    /// command line is malformed — the CLI boundary of
    /// [`Options::try_parse`].
    pub fn from_env() -> Options {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            if e == OptionsError::Help {
                println!("{}", Self::help_text());
                std::process::exit(0);
            }
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The `--help` text ([`Options::from_env`] prints it and exits 0).
    /// Binary-specific flags are documented in each binary's module docs;
    /// this covers the shared set and the simulation limits behind it.
    pub fn help_text() -> &'static str {
        "Shared experiment flags:\n\
         \x20 --scale N          divide input sizes and cache capacities by N (default 32)\n\
         \x20 --quick            reduced smoke-test sweep\n\
         \x20 --workloads SPECS  registry workloads (e.g. mergesort,heat:rows=256,cols=256)\n\
         \x20 --app NAME         paper benchmark filter (lu|hashjoin|mergesort)\n\
         \x20 --cores N,...      simulated core counts, each 1, 2, 4, 8, 16 or 32 (the\n\
         \x20                    paper's default configurations; e.g. 2,4,16).\n\
         \x20                    Larger machines are built in the library\n\
         \x20                    (CmpConfig::many_core), up to 4096 cores: the\n\
         \x20                    width of the hierarchical sharer-mask directory.\n\
         \x20 --parallel N       sweep worker threads, and the serve daemon's pool size\n\
         \x20                    (default and 0: one per host core; 1 = sequential)\n\
         \x20 --json PATH        write the JSON report to PATH ('-' = stdout)\n\
         \x20 --store PATH       persistent result-store directory\n\
         \x20 --engine E         event|reference|batch (default event)\n\
         \x20 --fig NAME,...     run_all: only the named parts (figures, tables)\n\
         \x20 --bench            benchmark mode (run_all emits BENCH_sim.json)\n\
         \x20 --trials N         benchmark trial count (>= 1)\n\
         \x20 --help             this text"
    }

    /// Parse options from an explicit iterator.
    ///
    /// # Panics
    /// Panics with the [`OptionsError`] message on malformed values; use
    /// [`Options::try_parse`] to handle the error (binaries go through
    /// [`Options::from_env`], which exits cleanly instead).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Options {
        Self::try_parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parse options from an explicit iterator, reporting malformed values
    /// as a typed [`OptionsError`] — including `--workloads` specs whose
    /// name is not in the global registry, which carry the registry's
    /// did-you-mean listing.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Options, OptionsError> {
        let mut opts = Options::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = value(&mut iter, "--scale", "a value")?;
                    opts.scale = parse_int(&v, "--scale")?;
                }
                "--quick" => opts.quick = true,
                "--app" => {
                    let v = value(&mut iter, "--app", "a value")?;
                    let app = PAPER_WORKLOADS.into_iter().find(|name| *name == v);
                    opts.app = Some(app.ok_or_else(|| {
                        OptionsError::invalid(
                            "--app",
                            format!(
                                "unknown app {v:?} (lu|hashjoin|mergesort; \
                                 use --workloads for the open registry)"
                            ),
                        )
                    })?);
                }
                "--workloads" => {
                    let v = value(&mut iter, "--workloads", "a value")?;
                    for part in split_spec_list(&v) {
                        let spec = WorkloadSpec::resolve(&part)
                            .map_err(|e| OptionsError::invalid("--workloads", e.to_string()))?;
                        opts.workloads.push(spec);
                    }
                }
                "--cores" => {
                    let v = value(&mut iter, "--cores", "a list of core counts (e.g. 2,4)")?;
                    for part in v.split(',') {
                        let n: usize = parse_int(part.trim(), "--cores")?;
                        if n == 0 {
                            return Err(OptionsError::invalid(
                                "--cores",
                                "0 cores would simulate nothing; counts must be at least 1",
                            ));
                        }
                        if CmpConfig::default_with_cores(n).is_none() {
                            return Err(OptionsError::invalid(
                                "--cores",
                                format!(
                                    "no default CMP configuration with {n} cores \
                                     (1, 2, 4, 8, 16 or 32)"
                                ),
                            ));
                        }
                        opts.cores.push(n);
                    }
                }
                "--help" | "-h" => return Err(OptionsError::Help),
                "--parallel" => {
                    let v = value(&mut iter, "--parallel", "a value")?;
                    let n: usize = parse_int(&v, "--parallel")?;
                    opts.parallel = if n == 0 {
                        crate::experiment::host_cores()
                    } else {
                        n
                    };
                }
                "--json" => {
                    let v = value(&mut iter, "--json", "a path (or '-')")?;
                    opts.json = Some(PathBuf::from(v));
                }
                "--store" => {
                    let v = value(&mut iter, "--store", "a directory path")?;
                    opts.store = Some(PathBuf::from(v));
                }
                "--engine" => {
                    let v = value(&mut iter, "--engine", "a value (event|reference|batch)")?;
                    opts.engine = v
                        .parse()
                        .map_err(|e: String| OptionsError::invalid("--engine", e))?;
                }
                "--bench" => opts.bench = true,
                "--trials" => {
                    let v = value(&mut iter, "--trials", "a count")?;
                    let n: u32 = parse_int(&v, "--trials")?;
                    if n < 1 {
                        return Err(OptionsError::invalid("--trials", "must be at least 1"));
                    }
                    opts.trials = Some(n);
                }
                other => opts.rest.push(other.to_string()),
            }
        }
        Ok(opts)
    }

    /// The *paper* benchmarks selected by the options: the paper benchmarks
    /// named in `--workloads` (which supersedes `--app` everywhere), else
    /// the `--app` filter, else all three.  The figure sweeps use this — the
    /// paper's figures only cover LU, Hash Join and Mergesort.
    ///
    /// Only *bare* specs match: a parameterised spec like `mergesort:ws=8192`
    /// is not the paper's benchmark, and treating it as one would silently
    /// drop its parameters, so it selects no figure panel (the figure's
    /// report is then empty, the same as `--app lu` on a figure without an
    /// LU panel).
    ///
    /// The result keeps [`PAPER_WORKLOADS`] order whatever order the flags
    /// named them in.
    pub fn benchmarks(&self) -> Vec<&'static str> {
        if !self.workloads.is_empty() {
            return PAPER_WORKLOADS
                .into_iter()
                .filter(|b| {
                    self.workloads.iter().any(|w| {
                        matches!(w, WorkloadSpec::Registry { name, params }
                            if name == b && params.is_empty())
                    })
                })
                .collect();
        }
        match self.app {
            Some(app) => vec![app],
            None => PAPER_WORKLOADS.to_vec(),
        }
    }

    /// The full workload selection: the `--workloads` specs verbatim, or the
    /// [`Options::benchmarks`] fallback when none were given.
    pub fn workload_specs(&self) -> Vec<WorkloadSpec> {
        if self.workloads.is_empty() {
            self.benchmarks()
                .into_iter()
                .map(WorkloadSpec::registry)
                .collect()
        } else {
            self.workloads.clone()
        }
    }

    /// In quick mode shrink the workloads further so smoke tests stay fast
    /// (same clamp as [`crate::experiment::effective_scale`]).
    pub fn effective_scale(&self) -> u64 {
        crate::experiment::effective_scale(self.scale, self.quick)
    }

    /// Start an [`Experiment`] named `name` with this scale/quick/parallel
    /// setting and the selected workloads.
    pub fn experiment(&self, name: impl Into<String>) -> Experiment {
        Experiment::named(name)
            .workloads(self.workload_specs())
            .scale(self.scale)
            .quick(self.quick)
            .parallelism(self.parallel)
            .engine(self.engine)
    }

    /// Whether `--json -` directed the JSON report to stdout (in which case
    /// binaries route their human-readable tables to stderr, keeping stdout
    /// machine-parseable).
    pub fn json_to_stdout(&self) -> bool {
        self.json.as_deref().is_some_and(|p| p.as_os_str() == "-")
    }

    /// Emit `report` as requested by `--json` (writes the file, or prints to
    /// stdout for `-`).  Returns whether anything was emitted.
    pub fn emit_json(&self, report: &crate::Report) -> std::io::Result<bool> {
        match &self.json {
            None => Ok(false),
            Some(path) if path.as_os_str() == "-" => {
                print!("{}", report.to_json());
                Ok(true)
            }
            Some(path) => {
                report.write_json(path)?;
                eprintln!("# wrote {}", path.display());
                Ok(true)
            }
        }
    }
}

/// A malformed command line, as reported by [`Options::try_parse`] — the
/// typed counterpart of the `SpecError` family, so binaries can print one
/// clean line and exit instead of unwinding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptionsError {
    /// A flag was given without its required value.
    MissingValue {
        /// The flag (e.g. `"--scale"`).
        flag: &'static str,
        /// What the flag expects (e.g. `"a value"`, `"a path (or '-')"`).
        expects: &'static str,
    },
    /// A flag's value failed to parse or validate.
    Invalid {
        /// The flag (e.g. `"--engine"`).
        flag: &'static str,
        /// Why the value was rejected (may embed a nested spec error, e.g.
        /// the workload registry's did-you-mean listing).
        message: String,
    },
    /// `--help` was given: not an error, but it short-circuits parsing the
    /// same way ([`Options::from_env`] prints [`Options::help_text`] and
    /// exits 0).
    Help,
}

impl OptionsError {
    fn invalid(flag: &'static str, message: impl Into<String>) -> OptionsError {
        OptionsError::Invalid {
            flag,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptionsError::MissingValue { flag, expects } => {
                write!(f, "{flag} requires {expects}")
            }
            OptionsError::Invalid { flag, message } => write!(f, "{flag}: {message}"),
            OptionsError::Help => f.write_str(Options::help_text()),
        }
    }
}

impl std::error::Error for OptionsError {}

/// Pull the next argument as `flag`'s value.
fn value(
    iter: &mut impl Iterator<Item = String>,
    flag: &'static str,
    expects: &'static str,
) -> Result<String, OptionsError> {
    iter.next()
        .ok_or(OptionsError::MissingValue { flag, expects })
}

/// Parse an integer-valued flag.
fn parse_int<T: std::str::FromStr>(v: &str, flag: &'static str) -> Result<T, OptionsError> {
    v.parse()
        .map_err(|_| OptionsError::invalid(flag, format!("{v:?} is not an integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parsing() {
        let o = Options::parse(
            [
                "--scale",
                "64",
                "--quick",
                "--app",
                "mergesort",
                "--parallel",
                "4",
                "--json",
                "out.json",
                "--foo",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(o.scale, 64);
        assert!(o.quick);
        assert_eq!(o.app, Some("mergesort"));
        assert_eq!(o.parallel, 4);
        assert_eq!(o.json, Some(PathBuf::from("out.json")));
        assert_eq!(o.rest, vec!["--foo".to_string()]);
        assert_eq!(o.benchmarks(), vec!["mergesort"]);
        assert_eq!(o.effective_scale(), 256);
    }

    #[test]
    fn defaults() {
        let o = Options::default();
        assert_eq!(o.scale, 32);
        assert_eq!(o.benchmarks().len(), 3);
        assert_eq!(o.workload_specs().len(), 3);
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(o.parallel, host, "sweeps use every host core by default");
        let zero = Options::parse(["--parallel", "0"].into_iter().map(String::from));
        assert_eq!(zero.parallel, host);
        let one = Options::parse(["--parallel", "1"].into_iter().map(String::from));
        assert_eq!(one.parallel, 1);
        assert_eq!(o.effective_scale(), 32);
        assert_eq!(o.json, None);
        assert_eq!(o.engine, SimEngine::EventDriven);
        assert!(!o.bench);
        assert_eq!(o.trials, None);
    }

    #[test]
    fn engine_and_bench_flags() {
        let o = Options::parse(
            ["--engine", "reference", "--bench", "--trials", "7"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(o.engine, SimEngine::Reference);
        assert!(o.bench);
        assert_eq!(o.trials, Some(7));
        assert!(o.rest.is_empty());

        let o = Options::parse(["--engine", "batch"].into_iter().map(String::from));
        assert_eq!(o.engine, SimEngine::Batch);

        let bad = Options::try_parse(["--trials", "0"].into_iter().map(String::from));
        assert_eq!(
            bad.unwrap_err(),
            OptionsError::invalid("--trials", "must be at least 1")
        );

        let bad = Options::try_parse(["--engine", "quantum"].into_iter().map(String::from));
        let err = bad.unwrap_err();
        assert!(matches!(
            err,
            OptionsError::Invalid {
                flag: "--engine",
                ..
            }
        ));
        assert_eq!(
            err.to_string(),
            "--engine: unknown engine \"quantum\" (event|reference|batch)"
        );
    }

    #[test]
    fn cores_flag_rejects_zero_and_parses_lists() {
        let o = Options::parse(["--cores", "2,4, 16"].into_iter().map(String::from));
        assert_eq!(o.cores, vec![2, 4, 16]);
        assert!(o.rest.is_empty());

        // Counts without a default configuration are rejected up front,
        // with the same lookup every consumer resolves them through.
        let err = Options::try_parse(["--cores".into(), "2,256".into()]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--cores: no default CMP configuration with 256 cores (1, 2, 4, 8, 16 or 32)"
        );

        // `--cores 0` used to be accepted and silently simulated nothing.
        let err = Options::try_parse(["--cores".into(), "0".into()]).unwrap_err();
        assert_eq!(
            err,
            OptionsError::invalid(
                "--cores",
                "0 cores would simulate nothing; counts must be at least 1"
            )
        );
        let err = Options::try_parse(["--cores".into(), "2,0,4".into()]).unwrap_err();
        assert!(matches!(
            err,
            OptionsError::Invalid {
                flag: "--cores",
                ..
            }
        ));
        let err = Options::try_parse(["--cores".into(), "many".into()]).unwrap_err();
        assert_eq!(err.to_string(), "--cores: \"many\" is not an integer");
    }

    #[test]
    fn help_flag_short_circuits_and_names_the_core_limit() {
        for flag in ["--help", "-h"] {
            let err = Options::try_parse([flag.to_string()]).unwrap_err();
            assert_eq!(err, OptionsError::Help);
        }
        // The help text states the widest machine the simulator accepts
        // (`CmpConfig::validate` rejects wider ones).
        let help = Options::help_text();
        assert!(help.contains("--cores"), "{help}");
        let limit = format!("up to {} cores", ccs_sim::MAX_DIRECTORY_CORES);
        assert!(help.contains(&limit), "{help}");
        assert!(!help.contains("broadcast"), "{help}");
        assert_eq!(OptionsError::Help.to_string(), help);
    }

    #[test]
    fn malformed_flags_are_typed_errors_not_panics() {
        // Every flag that takes a value reports a MissingValue when the
        // command line ends early...
        for flag in [
            "--scale",
            "--app",
            "--workloads",
            "--cores",
            "--parallel",
            "--json",
            "--store",
            "--engine",
            "--trials",
        ] {
            let err = Options::try_parse([flag.to_string()]).unwrap_err();
            assert!(
                matches!(err, OptionsError::MissingValue { flag: f, .. } if f == flag),
                "{flag}: {err}"
            );
            assert!(err.to_string().starts_with(flag), "{err}");
        }
        // ...and a typed Invalid on bad values, with the flag named in the
        // rendered message (what `from_env` prints before exiting).
        let err = Options::try_parse(["--scale".into(), "huge".into()]).unwrap_err();
        assert_eq!(err.to_string(), "--scale: \"huge\" is not an integer");
        let err = Options::try_parse(["--app".into(), "doom".into()]).unwrap_err();
        assert!(err.to_string().starts_with("--app: unknown app"), "{err}");
        // `parse` keeps its panicking contract, with the same message.
        let payload =
            std::panic::catch_unwind(|| Options::parse(["--parallel".into(), "many".into()]))
                .unwrap_err();
        let message = *payload.downcast::<String>().expect("string panic payload");
        assert_eq!(message, "--parallel: \"many\" is not an integer");
    }

    #[test]
    fn workloads_flag_selects_registry_specs() {
        let o = Options::parse(
            [
                "--workloads",
                "heat:rows=64,cols=64,matmul:n=128",
                "--workloads",
                "lu",
            ]
            .into_iter()
            .map(String::from),
        );
        let labels: Vec<String> = o.workload_specs().iter().map(|w| w.label()).collect();
        assert_eq!(labels, vec!["heat:cols=64,rows=64", "matmul:n=128", "lu"]);
        // Only the paper benchmarks among them reach the figure sweeps.
        assert_eq!(o.benchmarks(), vec!["lu"]);
    }

    #[test]
    fn workloads_supersede_app_and_parameterised_specs_skip_figure_panels() {
        // --workloads wins over --app, in every binary.
        let o = Options::parse(
            ["--app", "lu", "--workloads", "mergesort"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(o.benchmarks(), vec!["mergesort"]);
        assert_eq!(
            o.workload_specs(),
            vec![WorkloadSpec::registry("mergesort")]
        );

        // A parameterised paper spec is not the paper benchmark: it must not
        // reach the figure sweeps with its parameters silently stripped.
        let o = Options::parse(
            ["--workloads", "mergesort:ws=8192"]
                .into_iter()
                .map(String::from),
        );
        assert!(o.benchmarks().is_empty());
        assert_eq!(o.workload_specs()[0].label(), "mergesort:ws=8192");
    }

    #[test]
    fn unknown_workload_is_rejected_with_suggestion() {
        let result = std::panic::catch_unwind(|| {
            Options::parse(["--workloads", "mergsort"].into_iter().map(String::from))
        });
        let message = match result {
            Ok(_) => panic!("unknown workload must be rejected"),
            Err(payload) => *payload.downcast::<String>().expect("string panic payload"),
        };
        assert!(message.contains("did you mean \"mergesort\""), "{message}");
        assert!(message.contains("registered:"), "{message}");
        assert!(message.contains("quicksort"), "{message}");
    }

    #[test]
    fn experiment_inherits_scale_and_workloads() {
        let o = Options::parse(
            ["--scale", "128", "--app", "lu"]
                .into_iter()
                .map(String::from),
        );
        let report = o.experiment("probe").cores(2).schedulers(["pdf"]).run();
        assert_eq!(report.scale, 128);
        assert_eq!(report.workloads(), vec!["lu".to_string()]);
    }
}
