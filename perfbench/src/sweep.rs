//! The in-process sweep workloads: `sweep_multicore` (event engine) and
//! `latency_batch` (batch engine).
//!
//! Untraced, a pass is one cold [`Experiment::run`] per part of the plan
//! (the process-global build cache is cleared before every pass, as a
//! fresh `run_all` starts).  Traced, the same points are walked through the
//! public stage functions — build, CSR DAG, line stream, set lanes, engine
//! or batch replay, record assembly, report encode — each inside a span,
//! and the resulting report must be byte-identical to the untraced one.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccs_dag::{CacheGeometry, Computation, Dag, LineStream};
use ccs_experiment::{build_cache, canon, Experiment, Report, RunRecord};
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_batch, simulate_with_engine, CmpConfig, SimEngine, SimResult};

use crate::calib::HostSpeed;
use crate::setup::{self, SetupClock};
use crate::spans::Trace;
use crate::stats::{median, summarize};
use crate::{host, pins, Args, Outcome};

/// Scale divisor of `sweep_multicore` (inputs and caches ÷ this).
pub const MULTICORE_SCALE: u64 = 512;
/// Scale divisor of `latency_batch`.
pub const LATENCY_SCALE: u64 = 64;
/// The schedulers every sweep compares.
const SCHEDULERS: [&str; 2] = ["pdf", "ws"];
/// Fewest measured passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Workloads × design points sharing one baseline setting: one
/// [`Experiment`] per part.
pub struct Part {
    workloads: Vec<&'static str>,
    configs: Vec<CmpConfig>,
    baseline: bool,
}

/// A sweep: its parts, engine and scale.
pub struct SweepPlan {
    pub name: &'static str,
    scale: u64,
    engine: SimEngine,
    parts: Vec<Part>,
    /// The report digest every pass must reproduce.
    pinned: u64,
}

impl SweepPlan {
    /// Fig. 2's sweep — mergesort and hashjoin on the Table 2 defaults for
    /// 1–32 cores, lu up to 16, all with sequential baselines — plus the
    /// 64- and 256-core points, flat and 32-core-clustered over a 2× L3.
    pub fn multicore() -> SweepPlan {
        let defaults = CmpConfig::default_configs();
        let mut many_core = Vec::new();
        for cores in [64, 256] {
            let flat = CmpConfig::many_core(cores);
            let l3_mb = (flat.l2.capacity >> 20) * 2;
            many_core.push(flat.clone().clustered(cores / 32).with_l3_mb(l3_mb));
            many_core.push(flat);
        }
        SweepPlan {
            name: "sweep_multicore",
            scale: MULTICORE_SCALE,
            engine: SimEngine::EventDriven,
            parts: vec![
                Part {
                    workloads: vec!["mergesort", "hashjoin"],
                    configs: defaults.clone(),
                    baseline: true,
                },
                Part {
                    workloads: vec!["lu"],
                    configs: defaults.into_iter().filter(|c| c.num_cores <= 16).collect(),
                    baseline: true,
                },
                Part {
                    workloads: vec!["mergesort", "hashjoin"],
                    configs: many_core,
                    baseline: false,
                },
            ],
            pinned: pins::SWEEP_MULTICORE,
        }
    }

    /// The single-core latency grid — L2 hit time {7, 19} × memory latency
    /// 100–1100 step 100 — for mergesort and hashjoin on the batch engine:
    /// one machine shape, so each workload is one replayed group.
    pub fn latency_grid() -> SweepPlan {
        let base = CmpConfig::default_with_cores(1).expect("1-core default config");
        let mut configs = Vec::new();
        for hit in [7, 19] {
            for latency in (100..=1100).step_by(100) {
                configs.push(
                    base.clone()
                        .with_l2_hit_latency(hit)
                        .with_memory_latency(latency),
                );
            }
        }
        SweepPlan {
            name: "latency_batch",
            scale: LATENCY_SCALE,
            engine: SimEngine::Batch,
            parts: vec![Part {
                workloads: vec!["mergesort", "hashjoin"],
                configs,
                baseline: false,
            }],
            pinned: pins::LATENCY_BATCH,
        }
    }

    fn experiment(&self, part: &Part) -> Experiment {
        Experiment::named(self.name)
            .workloads(part.workloads.iter().copied())
            .configs(part.configs.iter().cloned())
            .schedulers(SCHEDULERS)
            .scale(self.scale)
            .sequential_baseline(part.baseline)
            .engine(self.engine)
    }

    /// How many build-cache lookups one pass makes: one per point on the
    /// event engine, one per group on the batch engine.
    fn build_lookups(&self) -> usize {
        self.parts
            .iter()
            .map(|part| {
                let exp = self.experiment(part);
                match self.engine {
                    SimEngine::Batch => exp.batch_groups().len(),
                    _ => exp.sweep_points().len(),
                }
            })
            .sum()
    }

    /// One untraced pass: `Experiment::run` per part, merged.
    pub fn run(&self) -> Report {
        let mut report = Report::new(self.name, self.scale);
        for part in &self.parts {
            report.merge(self.experiment(part).run());
        }
        report
    }

    /// One traced pass over the same points, stage by stage.
    pub fn run_traced(&self, t: &mut Trace, c: &mut LayerCounts) -> Report {
        let mut report = Report::new(self.name, self.scale);
        for part in &self.parts {
            let exp = self.experiment(part);
            let records = match self.engine {
                SimEngine::Batch => self.walk_batched(&exp, part, t, c),
                _ => self.walk_points(&exp, part, t, c),
            };
            let mut part_report = Report::new(self.name, exp.effective_scale());
            part_report.records = records;
            report.merge(part_report);
        }
        let root = t.enter("sweep.report");
        let json = t.time("report.encode", || report.to_json());
        t.exit(root);
        c.report_bytes += json.len() as u64;
        report
    }

    fn walk_points(
        &self,
        exp: &Experiment,
        part: &Part,
        t: &mut Trace,
        c: &mut LayerCounts,
    ) -> Vec<RunRecord> {
        let scale = exp.effective_scale();
        let schedulers = exp.resolved_schedulers();
        let mut builds = Builds::default();
        let mut records = Vec::new();
        for point in exp.sweep_points() {
            let root = t.enter("sweep.point");
            let scaled = point.config.scaled(scale);
            let cores = point.config.num_cores;
            let label = point.workload.label();
            let (comp, dag) = builds.get(
                t,
                c,
                (label.clone(), scale, scaled.l2.capacity, cores),
                || point.workload.build(scale, scaled.l2.capacity, cores),
            );
            let stream = t.time("dag.stream", || comp.line_stream(scaled.l2.line_size));
            let lanes_bytes = t.time("dag.lanes", || prebuild_lanes(&stream, &scaled));
            let trace_bytes = comp.trace_arena_bytes();
            let peak = trace_bytes + stream.heap_bytes() + lanes_bytes + dag.heap_bytes();
            let sequential = part.baseline.then(|| {
                let seq_cfg = sequential_config(&scaled);
                t.time("sim.seq", || {
                    let mut sched = SchedulerSpec::new("pdf").build();
                    simulate_with_engine(&comp, &dag, &seq_cfg, sched.as_mut(), self.engine)
                })
            });
            for spec in &schedulers {
                let start = Instant::now();
                let mut sched = spec.build();
                let result =
                    simulate_with_engine(&comp, &dag, &scaled, sched.as_mut(), self.engine);
                let end = Instant::now();
                t.record("sim.engine", None, start, end);
                c.engine_by_width(cores, end - start, result.l1.accesses);
                let record = t.time("record.assemble", || {
                    RunRecord::from_sim(label.clone(), spec, &result, sequential.as_ref())
                        .with_footprint(trace_bytes, peak)
                });
                records.push(record);
            }
            t.exit(root);
            // The scheduler alone on the same DAG, no cache model: outside
            // the point's span, since `Experiment::run` never calls it.
            for spec in &schedulers {
                let start = Instant::now();
                black_box(ccs_sched::execute(&dag, cores, spec.clone()));
                c.execute += start.elapsed();
            }
        }
        records
    }

    fn walk_batched(
        &self,
        exp: &Experiment,
        part: &Part,
        t: &mut Trace,
        c: &mut LayerCounts,
    ) -> Vec<RunRecord> {
        let scale = exp.effective_scale();
        let schedulers = exp.resolved_schedulers();
        let mut builds = Builds::default();
        let groups = exp.batch_groups();
        let total_points: usize = groups.iter().map(Vec::len).sum();
        let mut slots: Vec<Vec<RunRecord>> = vec![Vec::new(); total_points];
        for group in &groups {
            let root = t.enter("sweep.group");
            let head = &group[0];
            let configs: Vec<CmpConfig> = group.iter().map(|p| p.config.scaled(scale)).collect();
            let shape = &configs[0];
            let cores = head.config.num_cores;
            let label = head.workload.label();
            let (comp, dag) = builds.get(
                t,
                c,
                (label.clone(), scale, shape.l2.capacity, cores),
                || head.workload.build(scale, shape.l2.capacity, cores),
            );
            let stream = t.time("dag.stream", || comp.line_stream(shape.l2.line_size));
            let lanes_bytes = t.time("dag.lanes", || prebuild_lanes(&stream, shape));
            let trace_bytes = comp.trace_arena_bytes();
            let peak = trace_bytes + stream.heap_bytes() + lanes_bytes + dag.heap_bytes();
            let sequentials: Option<Vec<SimResult>> = part.baseline.then(|| {
                let seq_configs: Vec<CmpConfig> = configs.iter().map(sequential_config).collect();
                t.time("sim.seq", || {
                    simulate_batch(&comp, &dag, &seq_configs, &SchedulerSpec::new("pdf")).results
                })
            });
            let mut per_sched = Vec::with_capacity(schedulers.len());
            for spec in &schedulers {
                let start = Instant::now();
                let run = simulate_batch(&comp, &dag, &configs, spec);
                let end = Instant::now();
                t.record("batch.run", None, start, end);
                c.batch_time += end - start;
                c.batch_refs += run.results.iter().map(|r| r.l1.accesses).sum::<u64>();
                c.replayed += run.replayed as u64;
                c.full_runs += run.full_runs as u64;
                per_sched.push(run.results);
            }
            c.groups += 1;
            c.group_points += group.len() as u64;
            let width = group.len() as u64;
            for (j, point) in group.iter().enumerate() {
                for (i, spec) in schedulers.iter().enumerate() {
                    let sequential = sequentials.as_ref().map(|seqs| &seqs[j]);
                    let record = t.time("record.assemble", || {
                        RunRecord::from_sim(label.clone(), spec, &per_sched[i][j], sequential)
                            .with_footprint(trace_bytes, peak)
                            .with_batch_width(width)
                    });
                    slots[point.index].push(record);
                }
            }
            t.exit(root);
            // As in `walk_points`: the scheduler alone, outside the spans.
            for spec in &schedulers {
                let start = Instant::now();
                black_box(ccs_sched::execute(&dag, cores, spec.clone()));
                c.execute += start.elapsed();
            }
        }
        slots.into_iter().flatten().collect()
    }
}

/// The build cache's key: spec label, scale, scaled L2 bytes, cores.
type BuildKey = (String, u64, u64, usize);

/// Builds of one traced part, shared by its points as the build cache
/// shares them in `Experiment::run`.
#[derive(Default)]
struct Builds {
    map: HashMap<BuildKey, (Arc<Computation>, Arc<Dag>)>,
}

impl Builds {
    fn get(
        &mut self,
        t: &mut Trace,
        c: &mut LayerCounts,
        key: BuildKey,
        build: impl FnOnce() -> Arc<Computation>,
    ) -> (Arc<Computation>, Arc<Dag>) {
        if let Some((comp, dag)) = self.map.get(&key) {
            return (Arc::clone(comp), Arc::clone(dag));
        }
        let comp = t.time("workloads.build", build);
        let dag = Arc::new(t.time("dag.csr", || Dag::from_computation(&comp)));
        c.builds += 1;
        c.trace_bytes += comp.trace_arena_bytes();
        c.dag_heap_bytes += dag.heap_bytes();
        self.map.insert(key, (Arc::clone(&comp), Arc::clone(&dag)));
        (comp, dag)
    }
}

/// The 1-core baseline of a design point, as `Experiment` derives it.
fn sequential_config(scaled: &CmpConfig) -> CmpConfig {
    let mut seq = scaled.clone();
    seq.num_cores = 1;
    seq.clusters = 1;
    seq.name = format!("{}-seq", scaled.name);
    seq
}

/// Compile the set lanes the engine will use for `config` and return their
/// heap footprint: the (L1, L2) pair, or the triple with an L3.
fn prebuild_lanes(stream: &LineStream, config: &CmpConfig) -> u64 {
    let l1 = CacheGeometry::new(config.l1.line_size, config.l1.num_sets());
    let l2 = CacheGeometry::new(config.l2.line_size, config.l2.num_sets());
    match &config.l3 {
        Some(l3) => stream
            .geometry_triple(l1, l2, CacheGeometry::new(l3.line_size, l3.num_sets()))
            .heap_bytes(),
        None => stream.geometry_pair(l1, l2).heap_bytes(),
    }
}

/// Counters the traced walk accumulates next to its spans.
#[derive(Default)]
pub struct LayerCounts {
    builds: u64,
    trace_bytes: u64,
    dag_heap_bytes: u64,
    engine_le32: (Duration, u64),
    engine_gt64: (Duration, u64),
    execute: Duration,
    batch_time: Duration,
    batch_refs: u64,
    replayed: u64,
    full_runs: u64,
    groups: u64,
    group_points: u64,
    report_bytes: u64,
}

impl LayerCounts {
    fn engine_by_width(&mut self, cores: usize, time: Duration, refs: u64) {
        let slot = if cores <= 32 {
            &mut self.engine_le32
        } else if cores > 64 {
            &mut self.engine_gt64
        } else {
            return;
        };
        slot.0 += time;
        slot.1 += refs;
    }
}

/// FNV-1a of the report's JSON: what the pins hold.
pub fn digest(report: &Report) -> u64 {
    canon::fnv1a64(report.to_json().as_bytes())
}

fn refs(report: &Report) -> u64 {
    report.records.iter().map(|r| r.l1_accesses).sum()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// A sweep run's set-up: define the sweep, plan its points (or groups)
/// and start from an empty build cache, as a sweep binary does before its
/// first simulation.
fn set_up(define: fn() -> SweepPlan) -> (SweepPlan, usize) {
    let plan = define();
    let lookups = plan.build_lookups();
    build_cache::clear();
    (plan, lookups)
}

/// The `--setup-probe` side of `setup_s` (see `setup.rs`).
pub fn probe(define: fn() -> SweepPlan) -> Result<Outcome, String> {
    black_box(set_up(define));
    setup::ready();
    Ok(Outcome::default())
}

/// Run one sweep workload, defined by `define`, for `args.seconds`.
pub fn run(define: fn() -> SweepPlan, args: &Args) -> Result<Outcome, String> {
    let (plan, lookups) = set_up(define);
    let lookups = lookups as f64;

    let mut out = Outcome::default();
    let check = |report: &Report, out: &mut Outcome| {
        out.attempted += 1;
        let got = digest(report);
        if got != plan.pinned {
            out.failed += 1;
            eprintln!(
                "{}: report digest {got:016x}, pinned {:016x}",
                plan.name, plan.pinned
            );
        }
    };

    let started = Instant::now();
    let mut pass_ms = Vec::new();
    let mut refs_total = 0u64;
    let mut traced_ms = Vec::new();
    let mut trace = Trace::new(Instant::now());
    let mut counts = LayerCounts::default();
    let mut misses = Vec::new();
    let mut records = 0;
    let mut pass_refs = 0;
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let mut setup = SetupClock::new(args);
    let mut first_rss = f64::NAN;
    let mut speed = HostSpeed::new();
    let mut pass_at = Vec::new();
    while pass_ms.len() < min_passes || started.elapsed() < args.seconds {
        setup.tick()?;
        build_cache::clear();
        speed.sample();
        let start = Instant::now();
        pass_at.push(start);
        let report = plan.run();
        let elapsed = start.elapsed();
        if pass_ms.is_empty() {
            first_rss = host::peak_rss_mb();
        }
        misses.push(build_cache::cached_builds() as f64);
        check(&report, &mut out);
        pass_refs = refs(&report);
        records = report.len();
        pass_ms.push(ms(elapsed));
        refs_total += pass_refs;
        if !args.trace {
            continue;
        }
        let report_json = report.to_json();
        drop(report);
        build_cache::clear();
        let execute_before = counts.execute;
        let start = Instant::now();
        let traced = plan.run_traced(&mut trace, &mut counts);
        let elapsed = start.elapsed() - (counts.execute - execute_before);
        out.attempted += 1;
        if traced.to_json() != report_json {
            out.failed += 1;
            eprintln!("{}: traced report differs from Experiment::run", plan.name);
        }
        traced_ms.push(ms(elapsed));
    }
    build_cache::clear();
    speed.sample();

    let pass = summarize(&pass_ms);
    let scaled: Vec<f64> = pass_at
        .iter()
        .zip(&pass_ms)
        .map(|(&at, &ms)| speed.scale(at, ms))
        .collect();
    let op = summarize(&scaled);
    out.detail("passes", pass.n);
    out.detail(
        "raw_pass_ms_p50_p90",
        format!("{:.3} {:.3}", pass.p50, pass.p90),
    );
    out.detail("host_speed", format!("{:.4}", speed.relative()));
    out.detail("reference_kernel_ms", format!("{:.4}", speed.median_ms()));
    out.detail("records_per_pass", records);
    out.detail("refs_per_pass", pass_refs);
    out.detail("scale", plan.scale);
    out.detail("engine", plan.engine.name());
    out.detail("threads", 1);
    out.detail("connections", 0);
    out.detail("caches", "build cache cleared before every pass");
    if !args.trace {
        out.set("setup_s", setup.finish()?);
        out.set("op_ms_p50", op.p50);
        out.set("op_ms_p90", op.p90);
        // Total work over total time: the run's mean rate.
        out.set(
            "work_per_s",
            refs_total as f64 / (scaled.iter().sum::<f64>() / 1000.0),
        );
        out.set("peak_rss_mb", first_rss);
        return Ok(out);
    }

    let n = traced_ms.len() as f64;
    let totals = trace.self_times();
    let per_pass_ms = |name: &str| totals.get(name).map_or(0.0, |(d, _)| ms(*d) / n);
    let (wall, unattributed) = trace.root_accounting();
    let misses = median(&misses);
    out.set("workloads.build_ms", per_pass_ms("workloads.build"));
    out.set("workloads.builds", counts.builds as f64 / n);
    out.set("workloads.trace_bytes", counts.trace_bytes as f64 / n);
    out.set("dag.csr_ms", per_pass_ms("dag.csr"));
    out.set("dag.stream_ms", per_pass_ms("dag.stream"));
    out.set("dag.lanes_ms", per_pass_ms("dag.lanes"));
    out.set("dag.heap_bytes", counts.dag_heap_bytes as f64 / n);
    out.set("sim.engine_ms", per_pass_ms("sim.engine"));
    out.set("sim.seq_ms", per_pass_ms("sim.seq"));
    out.set("sim.refs", pass_refs as f64);
    let ns_per_ref = |(d, refs): (Duration, u64)| {
        if refs == 0 {
            0.0
        } else {
            d.as_nanos() as f64 / refs as f64
        }
    };
    out.set("sim.ns_per_ref.le32", ns_per_ref(counts.engine_le32));
    out.set("sim.ns_per_ref.gt64", ns_per_ref(counts.engine_gt64));
    out.set("sched.execute_ms", ms(counts.execute) / n);
    out.set("batch.ms", per_pass_ms("batch.run"));
    out.set(
        "batch.ns_per_ref",
        ns_per_ref((counts.batch_time, counts.batch_refs)),
    );
    out.set("batch.groups", counts.groups as f64 / n);
    if counts.groups > 0 {
        out.set(
            "batch.width_mean",
            counts.group_points as f64 / counts.groups as f64,
        );
        out.set(
            "batch.replayed_frac",
            counts.replayed as f64 / (counts.replayed + counts.full_runs) as f64,
        );
    }
    if let Some((d, count)) = totals.get("record.assemble") {
        out.set("record.assemble_us", d.as_secs_f64() * 1e6 / *count as f64);
    }
    out.set("report.encode_ms", per_pass_ms("report.encode"));
    out.set("report.bytes", counts.report_bytes as f64 / n);
    out.set("build_cache.misses", misses);
    out.set("build_cache.hits", lookups - misses);
    out.set("sweep.pass_ms", pass.p50);
    out.set("trace.wall_ms", ms(wall) / n);
    out.set("trace.unattributed_ms", ms(unattributed) / n);
    out.set(
        "trace.unattributed_frac",
        unattributed.as_secs_f64() / wall.as_secs_f64(),
    );
    out.set("trace.overhead_frac", median(&traced_ms) / pass.p50 - 1.0);
    out.set("trace.ops", n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny plan exercising both walks: a baseline point, a many-core
    /// point with an L3, and (for the batch engine) a latency group.
    fn tiny(engine: SimEngine) -> SweepPlan {
        let one = CmpConfig::default_with_cores(1).unwrap();
        let configs = match engine {
            SimEngine::Batch => vec![
                one.clone().with_memory_latency(300),
                one.clone().with_l2_hit_latency(7),
                CmpConfig::default_with_cores(2).unwrap(),
            ],
            _ => vec![
                CmpConfig::default_with_cores(2).unwrap(),
                CmpConfig::many_core(64).clustered(2).with_l3_mb(32),
            ],
        };
        SweepPlan {
            name: "tiny",
            scale: 4096,
            engine,
            parts: vec![Part {
                workloads: vec!["mergesort", "hashjoin"],
                configs,
                baseline: true,
            }],
            pinned: 0,
        }
    }

    #[test]
    fn traced_walk_reproduces_experiment_run_bytes_on_both_engines() {
        for engine in [SimEngine::EventDriven, SimEngine::Batch] {
            let plan = tiny(engine);
            let untraced = plan.run();
            let mut trace = Trace::new(Instant::now());
            let mut counts = LayerCounts::default();
            let traced = plan.run_traced(&mut trace, &mut counts);
            assert_eq!(traced.to_json(), untraced.to_json(), "{engine:?}");
            assert!(counts.builds > 0);
            let totals = trace.self_times();
            assert!(totals.contains_key("workloads.build"));
            let (wall, unattributed) = trace.root_accounting();
            assert!(unattributed < wall);
            if engine == SimEngine::Batch {
                assert!(counts.replayed > 0, "the latency group replays");
            }
        }
    }
}
