//! The CCS workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists and which
//! layers it loads): `sweep_multicore`, `latency_batch`, `serve_mixed`,
//! `pool_scaling`.  With `--trace 0` the run measures the end-to-end
//! metrics with no spans anywhere; with `--trace 1` it walks the same work
//! through the layers' public functions inside spans and reports the
//! per-layer split instead.  Every output is checked (pinned report
//! digests, fib values, spawn counts); the last stdout line is the result
//! object, the line before it the host-shape stamp.

mod calib;
mod host;
mod pins;
mod pool;
mod serve;
mod setup;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use ccs_experiment::json::{self, Json};

/// `BENCHMARK.json`, the one place the metrics are named: an untraced run
/// prints its `end_to_end` list, a traced run its `per_layer` list.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of metric list `list` in `BENCHMARK.json`.
fn metric_specs(list: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let entries = doc
        .get(list)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {list} list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: {list} entry without name/unit"))
        })
        .collect()
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Print each workload's report digests instead of benchmarking.
    pub print_pins: bool,
    /// Do the workload's set-up only, for a parent timing it (`setup.rs`).
    pub setup_probe: bool,
}

/// What a workload run hands back: counts for the result line, the
/// metrics, and free-form details for the stamp line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub details: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        print_pins: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--print-pins" => args.print_pins = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() && !args.print_pins {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite metric value as JSON, with every digit it was measured with.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A metric the run set but `BENCHMARK.json` does not list is a rename on
/// one side only: refuse it rather than print 0 for the listed name.  An
/// untraced run must also set every listed metric; a traced run leaves the
/// layers its workload does not load at 0.
fn check_names(
    outcome: &Outcome,
    wanted: &[(String, String)],
    all_required: bool,
) -> Result<(), String> {
    let listed = |name: &str| wanted.iter().any(|(n, _)| n == name);
    if let Some(name) = outcome.metrics.keys().find(|name| !listed(name)) {
        return Err(format!("metric {name:?} is not listed in BENCHMARK.json"));
    }
    match wanted
        .iter()
        .find(|(name, _)| all_required && !outcome.metrics.contains_key(name.as_str()))
    {
        Some((name, _)) => Err(format!("the run did not measure {name:?}")),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let allocator = host::retain_freed_memory();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Injected faults would turn the benchmark into a fault drill: refuse.
    if std::env::var_os(ccs_runtime::fault::ENV_VAR).is_some() {
        eprintln!(
            "error: {} is set; unset it to benchmark",
            ccs_runtime::fault::ENV_VAR
        );
        return ExitCode::from(2);
    }
    if args.print_pins {
        pins::print_current();
        return ExitCode::SUCCESS;
    }
    let workload = args.workload.as_str();
    let outcome = match workload {
        "sweep_multicore" | "latency_batch" => {
            let define = if workload == "sweep_multicore" {
                sweep::SweepPlan::multicore
            } else {
                sweep::SweepPlan::latency_grid
            };
            if args.setup_probe {
                sweep::probe(define)
            } else {
                sweep::run(define, &args)
            }
        }
        "serve_mixed" if args.setup_probe => serve::probe(),
        "serve_mixed" => serve::run(&args),
        "pool_scaling" if args.setup_probe => pool::probe(),
        "pool_scaling" => pool::run(&args),
        other => {
            eprintln!(
                "error: unknown workload {other:?} (sweep_multicore, latency_batch, serve_mixed, pool_scaling)"
            );
            return ExitCode::from(2);
        }
    };
    let measured = outcome.and_then(|outcome| {
        if args.setup_probe {
            return Ok(None);
        }
        let wanted = metric_specs(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        })?;
        check_names(&outcome, &wanted, !args.trace)?;
        Ok(Some((outcome, wanted)))
    });
    let (outcome, wanted) = match measured {
        Ok(Some(measured)) => measured,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut stamp: Vec<(String, String)> = vec![
        ("workload".into(), json_string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("allocator".into(), json_string(allocator)),
    ];
    stamp.extend(host::stamp().into_iter().map(|(k, v)| (k, json_string(&v))));
    stamp.extend(
        outcome
            .details
            .iter()
            .map(|(k, v)| (k.clone(), json_string(v))),
    );
    let stamp: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", stamp.join(", "));

    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in &wanted {
        let value = outcome.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        eprintln!("  {name:<32} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_parse_with_unique_names() {
        let end_to_end = metric_specs("end_to_end").unwrap();
        let per_layer = metric_specs("per_layer").unwrap();
        assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
        assert!(!per_layer.is_empty());
        let mut names: Vec<&str> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is listed twice");
    }

    #[test]
    fn unlisted_and_missing_metrics_are_refused() {
        let wanted = vec![("a".to_string(), "s".to_string())];
        let mut outcome = Outcome::default();
        assert!(check_names(&outcome, &wanted, false).is_ok());
        assert!(check_names(&outcome, &wanted, true).is_err());
        outcome.set("a", 1.0);
        assert!(check_names(&outcome, &wanted, true).is_ok());
        outcome.set("b", 1.0);
        assert!(check_names(&outcome, &wanted, false).is_err());
    }
}
