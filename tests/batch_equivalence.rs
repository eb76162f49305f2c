//! Batched-vs-sequential equivalence: for **every registered workload**,
//! the lockstep schedulers and the seeded randomised work stealer, and
//! arbitrary latency grids over one machine shape, `simulate_batch` must
//! return `SimResult`s **byte-identical** to running each configuration
//! through the event engine on its own.
//!
//! This is the property the whole batch subsystem stands on (DESIGN.md
//! §11): the record/replay fast path may re-time a recorded pass only
//! where the schedule is provably latency-independent, and the planner's
//! fallback must make every other group indistinguishable from the
//! sequential path.  The grids here deliberately vary every timing axis
//! the grouping key leaves free — L1 hit, L2 hit, main-memory latency and
//! the memory service interval — so a replay formula that dropped any term
//! would be caught.  The service interval straddles the queue-free bound
//! `latency + l1_hit + l2_hit`, so grids mix configs re-timed in closed
//! form with configs whose memory requests queue at the controller.

use std::collections::BTreeSet;

use ccs_dag::{Dag, TaskId};
use ccs_experiment::{Experiment, RunRecord};
use ccs_sched::{Scheduler, SchedulerRegistry, SchedulerSpec};
use ccs_sim::batch::replayable;
use ccs_sim::{simulate_batch, simulate_with_engine, CmpConfig, SimEngine};
use ccs_workloads::{BuildCtx, WorkloadRegistry};
use proptest::prelude::*;

/// One latency design point over the fixed A/B machine shape: small caches
/// (so deeply scaled-down inputs still miss) with every latency axis free.
fn latency_config(cores: usize, l1_hit: u64, l2_hit: u64, mem: u64) -> CmpConfig {
    let mut cfg = CmpConfig::default_with_cores(16).expect("default config exists");
    cfg.num_cores = cores;
    cfg.name = format!("grid-{cores}c-l1h{l1_hit}-l2h{l2_hit}-m{mem}");
    cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, l1_hit);
    cfg.l2 = ccs_cache::CacheConfig::new(64 * 1024, 128, 16, l2_hit);
    cfg.memory.latency = mem;
    cfg
}

/// [`latency_config`] with its memory service interval picked by `pace`
/// around the queue-free bound `b = mem + l1_hit + l2_hit`: 0 keeps the
/// default interval, 1 sets it to `b` (the last interval that cannot
/// queue), 2 to `b + 1` and 3 to `2b` (back-to-back misses queue).
fn paced_config(l1_hit: u64, l2_hit: u64, mem: u64, pace: u64) -> CmpConfig {
    let mut cfg = latency_config(1, l1_hit, l2_hit, mem);
    let bound = mem + l1_hit + l2_hit;
    cfg.memory.service_interval = match pace {
        0 => cfg.memory.service_interval,
        1 => bound,
        2 => bound + 1,
        _ => 2 * bound,
    };
    cfg.name = format!("{}-si{}", cfg.name, cfg.memory.service_interval);
    cfg
}

/// The sequential baseline the batch must reproduce: each configuration
/// through the event engine with a freshly built scheduler.
fn event_results(
    comp: &ccs_dag::Computation,
    dag: &Dag,
    configs: &[CmpConfig],
    sched: &SchedulerSpec,
) -> Vec<ccs_sim::SimResult> {
    configs
        .iter()
        .map(|cfg| {
            let mut s = sched.build();
            simulate_with_engine(comp, dag, cfg, s.as_mut(), SimEngine::EventDriven)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: every registered workload, three scheduler
    /// families, a random single-core latency grid (service intervals on
    /// both sides of the queue-free bound) — full `SimResult` equality per
    /// configuration, and the planner must actually have taken the replay
    /// fast path (one full run, the rest replayed).
    #[test]
    fn batched_single_core_grids_match_the_event_engine(
        grid in prop::collection::vec((1u64..4, 4u64..40, 100u64..1200, 0u64..4), 2..5),
        seed in 1u64..1000,
    ) {
        let registry = WorkloadRegistry::global();
        let names = registry.names();
        prop_assert!(names.len() >= 6, "expected the six built-in workloads, got {names:?}");
        let configs: Vec<CmpConfig> = grid
            .iter()
            .map(|&(l1_hit, l2_hit, mem, pace)| paced_config(l1_hit, l2_hit, mem, pace))
            .collect();
        prop_assert!(replayable(&configs));
        let scheds = [
            SchedulerSpec::new("pdf"),
            SchedulerSpec::new("ws"),
            SchedulerSpec::new("ws-rand").with_seed(seed),
        ];
        for name in &names {
            let ctx = BuildCtx::new(4096, 64 * 1024, 4);
            let comp = registry.build(name, &ctx).unwrap_or_else(|e| panic!("{e}"));
            let dag = Dag::from_computation(&comp);
            for sched in &scheds {
                let batch = simulate_batch(&comp, &dag, &configs, sched);
                prop_assert!(batch.full_runs == 1, "{name} / {sched}: not replayed");
                prop_assert_eq!(batch.replayed, configs.len() - 1);
                let expected = event_results(&comp, &dag, &configs, sched);
                for (got, want) in batch.results.iter().zip(&expected) {
                    prop_assert!(
                        got == want,
                        "{name} / {sched} / {}: batched result diverged",
                        want.config_name
                    );
                }
            }
        }
    }

    /// Multi-core groups are not latency-independent: the planner must fall
    /// back to full per-configuration event runs — and still match.
    #[test]
    fn multicore_grids_fall_back_and_still_match(
        grid in prop::collection::vec((1u64..4, 4u64..40, 100u64..1200), 2..4),
        seed in 1u64..1000,
    ) {
        let configs: Vec<CmpConfig> = grid
            .iter()
            .map(|&(l1_hit, l2_hit, mem)| latency_config(4, l1_hit, l2_hit, mem))
            .collect();
        prop_assert!(!replayable(&configs));
        let registry = WorkloadRegistry::global();
        let ctx = BuildCtx::new(4096, 64 * 1024, 4);
        let comp = registry.build("mergesort", &ctx).unwrap_or_else(|e| panic!("{e}"));
        let dag = Dag::from_computation(&comp);
        let sched = SchedulerSpec::new("ws-rand").with_seed(seed);
        let batch = simulate_batch(&comp, &dag, &configs, &sched);
        prop_assert_eq!(batch.full_runs, configs.len());
        prop_assert_eq!(batch.replayed, 0);
        let expected = event_results(&comp, &dag, &configs, &sched);
        prop_assert_eq!(batch.results, expected);
    }
}

/// A greedy scheduler that always runs the ready task with the largest id:
/// on one core its order is not 1DF, so it forms its own class.
#[derive(Default)]
struct LifoById(BTreeSet<TaskId>);

impl Scheduler for LifoById {
    fn init(&mut self, _dag: &Dag, _num_cores: usize) {
        self.0.clear();
    }
    fn task_enabled(&mut self, task: TaskId, _enabling_core: Option<usize>) {
        self.0.insert(task);
    }
    fn next_task(&mut self, _core: usize) -> Option<TaskId> {
        self.0.pop_last()
    }
    fn ready_count(&self) -> usize {
        self.0.len()
    }
    fn name(&self) -> &'static str {
        "oracle-lifo"
    }
}

/// The experiment-level oracle for one-core sharing.  `run_group` runs
/// schedulers whose one-core dispatch orders coincide, and the sequential
/// baseline, as one simulation.  Its records must equal records built from
/// one direct `simulate_with_engine` call per scheduler and point plus a
/// direct one-core `pdf` baseline, on every engine.  Comparing the event
/// and batch reports cannot catch a wrong share, because both go through
/// `run_group`; this oracle does not.  The 2-core point checks that a
/// multi-core group is untouched.
#[test]
fn one_core_sharing_matches_per_scheduler_simulations() {
    SchedulerRegistry::global().register_fn("oracle-lifo", |_| Box::<LifoById>::default());
    let one_core = CmpConfig::default_with_cores(1).expect("1-core default exists");
    let mut configs: Vec<CmpConfig> = [(7, 100), (19, 400), (19, 1100)]
        .into_iter()
        .map(|(l2_hit, mem)| {
            one_core
                .clone()
                .with_l2_hit_latency(l2_hit)
                .with_memory_latency(mem)
        })
        .collect();
    configs.push(CmpConfig::default_with_cores(2).expect("2-core default exists"));
    let schedulers = [
        SchedulerSpec::new("pdf"),
        SchedulerSpec::new("ws"),
        SchedulerSpec::new("ws-rand").with_seed(7),
        SchedulerSpec::new("central"),
        SchedulerSpec::new("oracle-lifo"),
    ];
    for engine in [
        SimEngine::EventDriven,
        SimEngine::Reference,
        SimEngine::Batch,
    ] {
        let experiment = Experiment::new("mergesort")
            .configs(configs.clone())
            .schedulers(schedulers.clone())
            .scale(1024)
            .sequential_baseline(true)
            .engine(engine);
        let scale = experiment.effective_scale();
        let report = experiment.run();
        assert_eq!(report.len(), configs.len() * schedulers.len());
        let mut got = report.records.iter();
        for point in experiment.sweep_points() {
            let scaled = point.config.scaled(scale);
            let comp = point
                .workload
                .build(scale, scaled.l2.capacity, scaled.num_cores);
            let dag = Dag::from_computation(&comp);
            let mut seq_config = scaled.clone();
            seq_config.num_cores = 1;
            seq_config.clusters = 1;
            let mut pdf = SchedulerSpec::new("pdf").build();
            let sequential = simulate_with_engine(&comp, &dag, &seq_config, pdf.as_mut(), engine);
            for spec in &schedulers {
                let got = got.next().expect("one record per point and scheduler");
                let mut sched = spec.build();
                let result = simulate_with_engine(&comp, &dag, &scaled, sched.as_mut(), engine);
                // The footprint fields are not simulated; take them as given.
                let want =
                    RunRecord::from_sim(point.workload.label(), spec, &result, Some(&sequential))
                        .with_footprint(got.trace_bytes, got.peak_alloc_estimate);
                assert_eq!(*got, want, "{engine} / {} / {spec}", scaled.name);
            }
        }
    }
}
