//! The performance-benchmark harness: timed macro-runs of the figure
//! sweeps and raw-simulator microbenches, emitted as a stable-schema
//! `BENCH_sim.json` so every PR extends one perf trajectory.
//!
//! It is invoked by `run_all --bench` (usually together with `--quick`)
//! and produces a [`BenchReport`] with three kinds of records:
//!
//! * `macro/<sweep>` — one per figure sweep (fig2–fig6, the §5.4
//!   comparison and the latency profile), timing the production
//!   (event-driven) engine on the selected options.  The sweep records
//!   (`macro/*`) are timed sequentially (`parallel = 1`) whatever the
//!   host's core count, so they compare with `bench/baseline.json`;
//! * `macro/<sweep>_batch` — the latency-style sweeps (fig4, fig5 and the
//!   latency profile) re-timed on the *batch* engine (quick options), after
//!   asserting the batched report is byte-identical to an event-engine run;
//! * `macro/quick_sweep` and `macro/quick_sweep_reference` — the whole
//!   quick sweep timed on the event-driven engine and on the retained
//!   reference cycle-stepper.  `speedup_vs_reference` on the former is the
//!   headline number: how much faster the event-driven core runs the exact
//!   same (metrics-identical) simulations;
//! * `micro/sim_<scheduler>` — the raw simulator on a fixed synthetic DAG,
//!   bypassing the experiment layer, with its own reference comparison;
//! * `runtime/*` — the native thread pool with no simulator in the loop:
//!   fork-join `fib`, a detached-spawn fan-out, and a quick sweep run at
//!   `Experiment::parallelism(8)` (byte-identity-asserted against the
//!   sequential run) — see DESIGN.md §14.
//!
//! # `BENCH_sim.json` schema (stable)
//!
//! ```json
//! {
//!   "schema": "ccs-bench/6",
//!   "scale": 256,
//!   "quick": true,
//!   "records": [
//!     {
//!       "name": "macro/quick_sweep",
//!       "wall_ms": 812.4,
//!       "tasks_per_sec": 161234.0,
//!       "total_misses": 93511,
//!       "l3_misses": 0,
//!       "tasks": 130934,
//!       "cycles": 55173921,
//!       "clusters": 1,
//!       "trace_bytes": 1224736,
//!       "peak_alloc_estimate": 2449472,
//!       "compile_ms": 8.4,
//!       "batch_width": 0,
//!       "speedup_vs_reference": 2.9
//!     }
//!   ]
//! }
//! ```
//!
//! `name`, `wall_ms`, `tasks_per_sec` (simulated tasks per wall-clock
//! second) and `total_misses` (summed simulated L2 misses) are guaranteed;
//! `tasks`/`cycles` are the matching simulated totals,
//! `trace_bytes`/`peak_alloc_estimate` are the *peak* per-computation
//! memory footprints over the runs the record covers (flat trace arena,
//! and arena + compiled line stream + geometry lanes + CSR DAG
//! respectively), `compile_ms` is the wall-clock the record's runs spent
//! compiling line streams and geometry set lanes (the split of `wall_ms`
//! that is *not* simulation; near zero when the process-global build
//! cache already held the artifacts — see DESIGN.md §9), `batch_width` is
//! the largest latency-batch the record's runs simulated in one grouped
//! pass (0 for non-batched engines — see DESIGN.md §11), and
//! `speedup_vs_reference` is present only on records with a reference
//! counterpart.  `l3_misses` sums the simulated shared-L3 misses over the
//! record's runs (0 unless a sweep simulates three-level hierarchies —
//! see DESIGN.md §12) and `clusters` is the largest L2-cluster count among
//! those runs (1 = every core shares one L2).  `total_misses`,
//! `l3_misses`, `tasks`, `cycles`, `clusters`, `batch_width`,
//! `trace_bytes` and `peak_alloc_estimate` are *deterministic* for a given
//! scale/quick setting — the CI gate ([`gate`]) checks the simulated
//! metrics for exact equality against the committed baseline,
//! `tasks_per_sec` within a relative tolerance, and fails memory-footprint
//! growth beyond the same tolerance; `compile_ms` is reported but not
//! gated (it is wall-clock noise at the millisecond scale) and is surfaced
//! by the gate's `summary:` line (schema `ccs-bench/6`; `--trials N`
//! overrides the noise-averaging trial counts).  The synthetic `runtime/*`
//! records carry zero for every simulated metric: the zeros are
//! exact-gated and the footprint ratio checks skip zero-byte baselines,
//! so their gated signal is `tasks_per_sec` alone.

use std::io;
use std::path::Path;
use std::time::Instant;

use ccs_dag::synth::{random_computation, SynthParams};
use ccs_experiment::json::{self, Json, JsonError};
use ccs_experiment::{Options, Report};
use ccs_sim::{simulate_engine, CmpConfig, SimEngine};

use crate::figs;

pub mod gate;
mod runtime;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "ccs-bench/6";

/// Default output path (written into the invoking directory, gitignored at
/// the repo root).
pub const BENCH_SIM_PATH: &str = "BENCH_sim.json";

/// One timed benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Stable record name (`"macro/fig2"`, `"micro/sim_pdf"`, …).
    pub name: String,
    /// Wall-clock time of the bench in milliseconds.
    pub wall_ms: f64,
    /// Simulated tasks completed per wall-clock second.
    pub tasks_per_sec: f64,
    /// Total simulated L2 misses (deterministic per scale/quick setting).
    pub total_misses: u64,
    /// Total simulated shared-L3 misses over the record's runs; 0 unless
    /// the sweep simulates three-level hierarchies (deterministic).
    pub l3_misses: u64,
    /// Total simulated tasks (deterministic).
    pub tasks: u64,
    /// Total simulated cycles (deterministic).
    pub cycles: u64,
    /// Largest L2-cluster count among the record's runs (1 = every core
    /// shares one L2; deterministic).
    pub clusters: u64,
    /// Peak trace-arena footprint in bytes over the computations this
    /// record simulated (deterministic).
    pub trace_bytes: u64,
    /// Peak per-computation allocation estimate in bytes: trace arena +
    /// compiled line stream + geometry lanes + CSR DAG (deterministic).
    pub peak_alloc_estimate: u64,
    /// Wall-clock milliseconds spent compiling line streams and geometry
    /// lanes across the runs this record covers (not gated; the non-
    /// simulation split of `wall_ms`).
    pub compile_ms: f64,
    /// Largest latency-batch the record's runs simulated in one grouped
    /// pass (0 when the batch engine was not in play; deterministic).
    pub batch_width: u64,
    /// Wall-clock speedup over the reference cycle-stepper on the identical
    /// work, where measured.
    pub speedup_vs_reference: Option<f64>,
}

impl BenchRecord {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.as_str().into()),
            ("wall_ms", self.wall_ms.into()),
            ("tasks_per_sec", self.tasks_per_sec.into()),
            ("total_misses", self.total_misses.into()),
            ("l3_misses", self.l3_misses.into()),
            ("tasks", self.tasks.into()),
            ("cycles", self.cycles.into()),
            ("clusters", self.clusters.into()),
            ("trace_bytes", self.trace_bytes.into()),
            ("peak_alloc_estimate", self.peak_alloc_estimate.into()),
            ("compile_ms", self.compile_ms.into()),
            ("batch_width", self.batch_width.into()),
            ("speedup_vs_reference", self.speedup_vs_reference.into()),
        ])
    }

    fn from_json(value: &Json) -> Result<BenchRecord, JsonError> {
        let field = |key: &str| {
            value.get(key).ok_or_else(|| JsonError {
                message: format!("bench record missing {key:?}"),
                offset: 0,
            })
        };
        let num = |key: &str| -> Result<f64, JsonError> {
            field(key)?.as_f64().ok_or_else(|| JsonError {
                message: format!("bench record field {key:?} is not a number"),
                offset: 0,
            })
        };
        let uint = |key: &str| -> Result<u64, JsonError> {
            field(key)?.as_u64().ok_or_else(|| JsonError {
                message: format!("bench record field {key:?} is not an unsigned integer"),
                offset: 0,
            })
        };
        Ok(BenchRecord {
            name: field("name")?
                .as_str()
                .ok_or_else(|| JsonError {
                    message: "bench record name is not a string".into(),
                    offset: 0,
                })?
                .to_string(),
            wall_ms: num("wall_ms")?,
            tasks_per_sec: num("tasks_per_sec")?,
            total_misses: uint("total_misses")?,
            l3_misses: uint("l3_misses")?,
            tasks: uint("tasks")?,
            cycles: uint("cycles")?,
            clusters: uint("clusters")?,
            trace_bytes: uint("trace_bytes")?,
            peak_alloc_estimate: uint("peak_alloc_estimate")?,
            compile_ms: num("compile_ms")?,
            batch_width: uint("batch_width")?,
            speedup_vs_reference: match field("speedup_vs_reference") {
                Ok(v) if !v.is_null() => Some(v.as_f64().ok_or_else(|| JsonError {
                    message: "speedup_vs_reference is not a number".into(),
                    offset: 0,
                })?),
                _ => None,
            },
        })
    }
}

/// A full harness run: the perf trajectory one `run_all --bench` leaves
/// behind.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Effective scale divisor the simulations ran at.
    pub scale: u64,
    /// Whether quick mode was on (the gate only compares like with like).
    pub quick: bool,
    /// The timed benchmarks.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Look up a record by name.
    pub fn find(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Serialise to the stable `BENCH_sim.json` document.
    pub fn to_json(&self) -> String {
        Json::object([
            ("schema", SCHEMA.into()),
            ("scale", self.scale.into()),
            ("quick", self.quick.into()),
            (
                "records",
                Json::Array(self.records.iter().map(BenchRecord::to_json).collect()),
            ),
        ])
        .to_string_pretty()
    }

    /// Parse a `BENCH_sim.json` document (used by the CI gate).
    pub fn from_json(text: &str) -> Result<BenchReport, JsonError> {
        let doc = json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(JsonError {
                message: format!("unsupported bench schema {schema:?} (expected {SCHEMA:?})"),
                offset: 0,
            });
        }
        let missing = |key: &str| JsonError {
            message: format!("bench report missing {key:?}"),
            offset: 0,
        };
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("records"))?
            .iter()
            .map(BenchRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            scale: doc
                .get("scale")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("scale"))?,
            quick: doc
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or_else(|| missing("quick"))?,
            records,
        })
    }

    /// Write the JSON document to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read and parse a report from `path`.
    pub fn read_json(path: impl AsRef<Path>) -> io::Result<BenchReport> {
        let text = std::fs::read_to_string(path)?;
        BenchReport::from_json(&text).map_err(io::Error::other)
    }

    /// Human-readable table (TSV, one line per record).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\twall_ms\ttasks/s\tl2_misses\ttrace_kb\tspeedup_vs_ref\n");
        for r in &self.records {
            let speedup = r
                .speedup_vs_reference
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{}\t{:.1}\t{:.0}\t{}\t{}\t{}\n",
                r.name,
                r.wall_ms,
                r.tasks_per_sec,
                r.total_misses,
                r.trace_bytes / 1024,
                speedup
            ));
        }
        out
    }
}

/// Wall-clock a closure, returning its result and the elapsed milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1000.0)
}

/// Aggregate a sweep [`Report`] plus its wall time into a bench record.
/// The memory footprints are the *maximum* over the sweep's runs — the
/// largest single computation's footprint, which is the quantity the gate
/// watches for layout regressions.  (It is deliberately not a process-RSS
/// estimate: a sweep holds its distinct prebuilt computations concurrently,
/// so resident memory is closer to the sum over distinct builds.)
fn record_from_report(name: impl Into<String>, report: &Report, wall_ms: f64) -> BenchRecord {
    let tasks: u64 = report.records.iter().map(|r| r.tasks as u64).sum();
    let misses: u64 = report.records.iter().map(|r| r.l2_misses).sum();
    let l3_misses: u64 = report.records.iter().map(|r| r.l3_misses).sum();
    let cycles: u64 = report.records.iter().map(|r| r.cycles).sum();
    BenchRecord {
        name: name.into(),
        wall_ms,
        tasks_per_sec: per_second(tasks, wall_ms),
        total_misses: misses,
        l3_misses,
        tasks,
        cycles,
        clusters: report
            .records
            .iter()
            .map(|r| r.clusters as u64)
            .max()
            .unwrap_or(1),
        trace_bytes: report
            .records
            .iter()
            .map(|r| r.trace_bytes)
            .max()
            .unwrap_or(0),
        peak_alloc_estimate: report
            .records
            .iter()
            .map(|r| r.peak_alloc_estimate)
            .max()
            .unwrap_or(0),
        compile_ms: report.records.iter().map(|r| r.compile_ms).sum(),
        batch_width: report
            .records
            .iter()
            .map(|r| r.batch_width)
            .max()
            .unwrap_or(0),
        speedup_vs_reference: None,
    }
}

fn per_second(count: u64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        0.0
    } else {
        count as f64 / (wall_ms / 1000.0)
    }
}

/// Run one full pass of the figure sweeps ([`figs::figure_sweeps`], the
/// same canonical list `run_all` executes) under `opts`, returning the
/// merged report, the per-sweep records, and the total wall time.
fn sweep_pass(opts: &Options, prefix: &str) -> (Report, Vec<BenchRecord>, f64) {
    let mut merged = Report::new("run_all", opts.effective_scale());
    let mut records = Vec::new();
    let mut total_ms = 0.0;
    for (name, run) in figs::figure_sweeps() {
        let (report, wall_ms) = timed(|| run(opts));
        records.push(record_from_report(
            format!("{prefix}/{name}"),
            &report,
            wall_ms,
        ));
        total_ms += wall_ms;
        merged.merge(report);
    }
    (merged, records, total_ms)
}

/// [`sweep_pass`], repeated `trials` times keeping the fastest wall time
/// per sweep (and the fastest pass total).  Same rationale as the
/// microbench trials: single samples on shared CI boxes swing well past
/// the gate tolerance, the minimum converges on the machine's true floor.
/// The simulated metrics are identical across trials (simulations are
/// deterministic), so only the timings are folded.
fn best_sweep_pass(opts: &Options, prefix: &str, trials: u32) -> (Report, Vec<BenchRecord>, f64) {
    let (merged, mut records, mut total_ms) = sweep_pass(opts, prefix);
    for _ in 1..trials {
        let (_, again, again_total) = sweep_pass(opts, prefix);
        for (best, candidate) in records.iter_mut().zip(again) {
            debug_assert_eq!(best.total_misses, candidate.total_misses);
            if candidate.wall_ms < best.wall_ms {
                // `compile_ms` rides with the winning pass so the pair
                // stays a consistent wall/compile split (warm passes reuse
                // the build cache and compile ~nothing).
                best.wall_ms = candidate.wall_ms;
                best.tasks_per_sec = candidate.tasks_per_sec;
                best.compile_ms = candidate.compile_ms;
            }
        }
        total_ms = total_ms.min(again_total);
    }
    (merged, records, total_ms)
}

/// The latency-style sweeps re-timed on the batch engine (`macro/<name>_batch`
/// records).  Runs on the quick options (bounded even when the macro phase
/// ran full-scale), best-of-`trials` like every other timed record, and
/// asserts — not just measures — that the batched report is byte-identical
/// to a fresh event-engine run of the same sweep.
fn batch_benches(records: &mut Vec<BenchRecord>, quick_event: &Options, trials: u32) {
    const LATENCY_SWEEPS: [&str; 3] = ["fig4_l2_hit_time", "fig5_mem_latency", "latency_profile"];
    let mut batch_opts = quick_event.clone();
    batch_opts.engine = SimEngine::Batch;
    for (name, run) in figs::figure_sweeps() {
        if !LATENCY_SWEEPS.contains(&name) {
            continue;
        }
        let event_report = run(quick_event);
        let (batch_report, mut best_ms) = timed(|| run(&batch_opts));
        for _ in 1..trials {
            let (_, ms) = timed(|| run(&batch_opts));
            best_ms = best_ms.min(ms);
        }
        assert_eq!(
            batch_report.to_json(),
            event_report.to_json(),
            "batch engine diverged from the event engine on {name}"
        );
        records.push(record_from_report(
            format!("macro/{name}_batch"),
            &batch_report,
            best_ms,
        ));
    }
}

/// Fixed synthetic DAG for the raw-simulator microbench: large enough to
/// time, independent of `--scale` so trajectories stay comparable.
fn micro_computation() -> ccs_dag::Computation {
    let params = SynthParams {
        max_depth: 7,
        max_par_width: 4,
        max_seq_len: 3,
        max_strand_work: 200,
        max_strand_refs: 48,
        num_regions: 8,
        region_bytes: 32 * 1024,
        shared_ref_prob: 0.4,
        line_size: 128,
    };
    random_computation(12, &params)
}

/// The raw-simulator microbenches: both schedulers on a fixed synthetic
/// DAG and an 8-core default configuration, event-driven vs reference.
///
/// Each side is timed as the *fastest* of several trials — the individual
/// runs are only a few milliseconds, so a single sample would be at the
/// mercy of scheduler noise on shared CI boxes and make the ±20% gate
/// flaky.
fn micro_benches(records: &mut Vec<BenchRecord>, trials: u32) {
    let comp = micro_computation();
    let config = CmpConfig::default_with_cores(8)
        .expect("8-core default config")
        .scaled(64);
    let trace_bytes = comp.trace_arena_bytes();
    // Pay (and time) the stream/geometry compilation up front, so the
    // timed simulations below measure the engine alone.
    let ((stream, lanes), compile_ms) = timed(|| {
        let stream = comp.line_stream(config.l2.line_size);
        let lanes = stream.geometry_pair(
            ccs_dag::CacheGeometry::new(config.l1.line_size, config.l1.num_sets()),
            ccs_dag::CacheGeometry::new(config.l2.line_size, config.l2.num_sets()),
        );
        (stream, lanes)
    });
    let peak_alloc_estimate = trace_bytes
        + stream.heap_bytes()
        + lanes.heap_bytes()
        + ccs_dag::Dag::from_computation(&comp).heap_bytes();
    const ITERS: u32 = 3;
    let mut compile_ms = compile_ms;
    for sched in ["pdf", "ws"] {
        let best_of = |engine: SimEngine| {
            let mut best_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..trials {
                let (result, ms) = timed(|| {
                    let mut result = None;
                    for _ in 0..ITERS {
                        result = Some(simulate_engine(&comp, &config, sched, engine));
                    }
                    result.expect("at least one iteration")
                });
                best_ms = best_ms.min(ms);
                last = Some(result);
            }
            (last.expect("at least one trial"), best_ms)
        };
        let (result, event_ms) = best_of(SimEngine::EventDriven);
        let (_, reference_ms) = best_of(SimEngine::Reference);
        // Report per-iteration wall time so the schema invariant
        // `tasks_per_sec == tasks / (wall_ms / 1000)` holds for micro
        // records exactly as it does for macro records.
        let per_iter_ms = event_ms / ITERS as f64;
        records.push(BenchRecord {
            name: format!("micro/sim_{sched}"),
            wall_ms: per_iter_ms,
            tasks_per_sec: per_second(result.tasks as u64, per_iter_ms),
            total_misses: result.l2.misses,
            l3_misses: result.l3.misses,
            tasks: result.tasks as u64,
            cycles: result.cycles,
            clusters: result.clusters as u64,
            trace_bytes,
            peak_alloc_estimate,
            // The one-time compile cost is charged to the first record only
            // (summing compile_ms across records must not double-count it).
            compile_ms: std::mem::take(&mut compile_ms),
            batch_width: 0,
            speedup_vs_reference: Some(reference_ms / event_ms.max(f64::MIN_POSITIVE)),
        });
    }
}

/// Run the full harness: timed macro sweeps (event-driven), the
/// quick-sweep engine comparison, the batched latency sweeps, and the
/// raw-simulator microbenches.
///
/// Returns the bench report plus the merged sweep [`Report`], so `run_all
/// --bench` still leaves the usual `BENCH_run_all.json` trajectory behind.
pub fn run(opts: &Options) -> (BenchReport, Report) {
    // Quick sweeps are fast enough to repeat for noise-resistant minima;
    // full-scale sweeps take minutes and run once.  `--trials N`
    // overrides every trial count.
    let trials = opts.trials.unwrap_or(if opts.quick { 3 } else { 1 });

    // Phase 1: the figure sweeps as selected (quick or full), production
    // engine — the trajectory every future PR extends.  Sequential, so the
    // sweep records compare with `bench/baseline.json` on any host.
    let mut event_opts = opts.clone();
    event_opts.engine = SimEngine::EventDriven;
    event_opts.parallel = 1;
    let (merged, mut records, macro_ms) = best_sweep_pass(&event_opts, "macro", trials);

    // Phase 2: engine comparison on the *quick* sweep (bounded even when
    // the macro phase ran full-scale; the reference engine is too slow for
    // full sweeps).  When the macro phase already was the quick sweep its
    // timing is reused as the event-driven side.
    let mut quick_event = event_opts.clone();
    quick_event.quick = true;
    let (quick_report, quick_records, event_ms) = if opts.quick {
        (merged.clone(), records.clone(), macro_ms)
    } else {
        let (report, per_sweep, total) =
            best_sweep_pass(&quick_event, "quick", opts.trials.unwrap_or(3));
        // The per-sweep quick records are only needed for the aggregate.
        (report, per_sweep, total)
    };
    let mut quick_reference = quick_event.clone();
    quick_reference.engine = SimEngine::Reference;
    let (reference_report, reference_records, reference_ms) =
        best_sweep_pass(&quick_reference, "reference", opts.trials.unwrap_or(2));
    let mut event_side = record_from_report("macro/quick_sweep", &quick_report, event_ms);
    // `wall_ms` is the fastest pass total, so the compile split must also
    // come from the fastest per-sweep passes (a warm pass reuses the build
    // cache and compiles ~nothing), not from the merged first-pass report.
    event_side.compile_ms = quick_records.iter().map(|r| r.compile_ms).sum();
    event_side.speedup_vs_reference = Some(reference_ms / event_ms.max(f64::MIN_POSITIVE));
    records.push(event_side);
    let mut reference_side = record_from_report(
        "macro/quick_sweep_reference",
        &reference_report,
        reference_ms,
    );
    reference_side.compile_ms = reference_records.iter().map(|r| r.compile_ms).sum();
    records.push(reference_side);

    // Phase 3: the batch engine on the latency-style sweeps, quick options
    // — timed *and* equivalence-asserted against the event engine.
    batch_benches(&mut records, &quick_event, opts.trials.unwrap_or(3));

    // Phase 4: raw simulator, no experiment layer in the way.
    micro_benches(&mut records, opts.trials.unwrap_or(5));

    // Phase 5: raw runtime — the native pool with no simulator in the
    // loop (fork-join, spawn fan-out, and a pool-parallel quick sweep).
    runtime::runtime_benches(&mut records, &quick_event, opts.trials.unwrap_or(5));

    let bench = BenchReport {
        scale: opts.effective_scale(),
        quick: opts.quick,
        records,
    };
    (bench, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            scale: 256,
            quick: true,
            records: vec![
                BenchRecord {
                    name: "macro/quick_sweep".into(),
                    wall_ms: 812.5,
                    tasks_per_sec: 161234.5,
                    total_misses: 93511,
                    l3_misses: 4021,
                    tasks: 130934,
                    cycles: 55173921,
                    clusters: 8,
                    trace_bytes: 1_224_736,
                    peak_alloc_estimate: 2_449_472,
                    compile_ms: 8.25,
                    batch_width: 0,
                    speedup_vs_reference: Some(2.9),
                },
                BenchRecord {
                    name: "micro/sim_pdf".into(),
                    wall_ms: 45.0,
                    tasks_per_sec: 9000.0,
                    total_misses: 1200,
                    l3_misses: 0,
                    tasks: 405,
                    cycles: 99000,
                    clusters: 1,
                    trace_bytes: 64_000,
                    peak_alloc_estimate: 130_000,
                    compile_ms: 0.5,
                    batch_width: 6,
                    speedup_vs_reference: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).expect("round trip");
        assert_eq!(parsed, report);
        assert!(text.contains("\"schema\": \"ccs-bench/6\""), "{text}");
        assert!(text.contains("\"trace_bytes\": 1224736"), "{text}");
        assert!(text.contains("\"compile_ms\": 8.25"), "{text}");
        assert!(text.contains("\"batch_width\": 6"), "{text}");
        assert!(text.contains("\"l3_misses\": 4021"), "{text}");
        assert!(text.contains("\"clusters\": 8"), "{text}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = sample_report().to_json().replace("ccs-bench/6", "other/9");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.message.contains("unsupported bench schema"), "{err}");
    }

    #[test]
    fn find_and_tsv() {
        let report = sample_report();
        assert_eq!(report.find("micro/sim_pdf").unwrap().total_misses, 1200);
        assert!(report.find("missing").is_none());
        let tsv = report.to_tsv();
        assert!(tsv.contains("macro/quick_sweep\t812.5"), "{tsv}");
        assert!(tsv.contains("2.90x"), "{tsv}");
        assert!(tsv.contains("\t-\n"), "no-reference records print a dash");
    }

    #[test]
    fn per_second_handles_zero_wall() {
        assert_eq!(per_second(100, 0.0), 0.0);
        assert!((per_second(500, 250.0) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn micro_computation_is_nontrivial_and_stable() {
        let a = micro_computation();
        let b = micro_computation();
        assert_eq!(a.num_tasks(), b.num_tasks());
        assert!(a.num_tasks() > 50, "got {}", a.num_tasks());
    }
}
