//! Integration tests for the unified `Experiment` API: report round-trips,
//! registry names building the paper's parameters, user-defined schedulers
//! and workloads through every driver, parallel sweep determinism, and the
//! paper's PDF-≤-WS L2-miss invariant as a standing check.

use std::collections::VecDeque;

use ccs::dag::TaskId;
use ccs::prelude::*;

/// A small fixed DAG with real memory traffic: 8 strands scanning one shared
/// region, then a join.
fn fixed_computation() -> Computation {
    let mut b = ComputationBuilder::new(128);
    let mut space = ccs::dag::AddressSpace::new();
    let region = space.alloc(64 * 1024);
    let leaves: Vec<_> = (0..8)
        .map(|i| {
            b.strand_with(|t| {
                t.compute(500 + i * 7);
                t.read_range(region.base, region.bytes / 2, 2);
            })
        })
        .collect();
    let par = b.par(leaves, GroupMeta::labeled("scan"));
    let join = b.strand_with(|t| {
        t.compute(100);
    });
    let root = b.seq(vec![par, join], GroupMeta::labeled("root"));
    b.finish(root)
}

#[test]
fn report_round_trips_through_json() {
    let report = Experiment::new("mergesort")
        .cores([2, 4])
        .scale(512)
        .schedulers(["pdf", "ws", "ws-rand@7"])
        .run();
    assert_eq!(report.len(), 2 * 3);

    let json = report.to_json();
    let parsed = Report::from_json(&json).expect("well-formed JSON");
    assert_eq!(parsed, report, "every field survives the round-trip");

    // The seeded record keeps its seed and distinguishable name.
    let rand = parsed
        .for_scheduler("ws-rand")
        .next()
        .expect("ws-rand record");
    assert_eq!(rand.seed, Some(7));
    assert_eq!(rand.scheduler_label(), "ws-rand@7");

    // CSV has one line per record plus the header.
    assert_eq!(report.to_csv().lines().count(), report.len() + 1);
}

/// A user-defined scheduler: plain FIFO over enabling order, tracked per
/// core for no particular reason other than exercising the interface.
struct UserFifo {
    queue: VecDeque<TaskId>,
}

impl Scheduler for UserFifo {
    fn init(&mut self, _dag: &Dag, _num_cores: usize) {
        self.queue.clear();
    }
    fn task_enabled(&mut self, task: TaskId, _enabling_core: Option<usize>) {
        self.queue.push_back(task);
    }
    fn next_task(&mut self, _core: usize) -> Option<TaskId> {
        self.queue.pop_front()
    }
    fn ready_count(&self) -> usize {
        self.queue.len()
    }
    fn name(&self) -> &'static str {
        "user-fifo"
    }
}

#[test]
fn user_defined_scheduler_runs_through_executor_simulator_and_experiment() {
    SchedulerRegistry::global().register_fn("user-fifo", |_| {
        Box::new(UserFifo {
            queue: VecDeque::new(),
        })
    });

    let comp = fixed_computation();

    // Through the abstract executor…
    let dag = Dag::from_computation(&comp);
    let schedule = execute(&dag, 4, "user-fifo");
    schedule
        .validate(&dag)
        .expect("user scheduler produces a legal schedule");
    assert_eq!(schedule.scheduler, "user-fifo");

    // …through the cycle-level simulator…
    let config = CmpConfig::default_with_cores(4).unwrap().scaled(256);
    let result = simulate(&comp, &config, "user-fifo");
    assert_eq!(result.scheduler, "user-fifo");
    assert_eq!(result.instructions, comp.total_work());
    assert!(result.cycles > 0);

    // …and through an experiment sweep next to a built-in.
    let report = Experiment::new(WorkloadSpec::fixed("fixed-scan", fixed_computation()))
        .cores(4)
        .scale(256)
        .schedulers(["pdf", "user-fifo"])
        .run();
    assert_eq!(report.len(), 2);
    let user = report
        .for_scheduler("user-fifo")
        .next()
        .expect("user record");
    let pdf = report.for_scheduler("pdf").next().expect("pdf record");
    assert_eq!(
        user.instructions, pdf.instructions,
        "same work, different policy"
    );
}

#[test]
fn paper_workload_specs_build_the_paper_parameters() {
    // What an experiment simulates for a bare paper-benchmark name is the
    // kernel built from its `Params::scaled` constructor, trace for trace.
    let (scale, l2, cores) = (512u64, 256 * 1024u64, 8usize);
    let direct = [
        ccs::workloads::lu::build(&LuParams::scaled(scale, l2)),
        ccs::workloads::hashjoin::build(&HashJoinParams::scaled(scale, l2)),
        ccs::workloads::mergesort::build(&MergesortParams::scaled(scale, l2, cores)),
    ];
    for (name, direct) in PAPER_WORKLOADS.into_iter().zip(direct) {
        let by_spec = WorkloadSpec::from(name).build(scale, l2, cores);
        assert_eq!(direct.num_tasks(), by_spec.num_tasks(), "{name}");
        assert_eq!(direct.total_work(), by_spec.total_work(), "{name}");
        let refs_direct: Vec<_> = direct.sequential_refs().collect();
        let refs_spec: Vec<_> = by_spec.sequential_refs().collect();
        assert_eq!(refs_direct, refs_spec, "{name}: traces must be identical");
    }
}

#[test]
fn all_six_builtin_workloads_run_by_name_through_experiment() {
    let report = Experiment::named("all-six")
        .workloads(["lu", "hashjoin", "mergesort", "quicksort", "matmul", "heat"])
        .cores(4)
        .scale(1024)
        .schedulers(["pdf", "ws"])
        .sequential_baseline(false)
        .parallelism(4)
        .run();
    assert_eq!(report.len(), 6 * 2);
    assert_eq!(report.workloads().len(), 6);
    for r in &report.records {
        assert!(r.cycles > 0, "{} produced no cycles", r.workload);
        assert!(r.instructions > 0, "{} produced no work", r.workload);
    }
}

#[test]
fn user_defined_workload_runs_through_experiment_end_to_end() {
    // Register a workload whose size tracks the BuildCtx — the same contract
    // the built-ins follow — plus a user parameter.
    WorkloadRegistry::global().register_fn(
        "test-scan",
        "n parallel strands scanning a shared region (test)",
        |ctx: &BuildCtx| {
            let n = ctx.u64_param("n").unwrap_or(4);
            let mut b = ComputationBuilder::new(128);
            let mut space = ccs::dag::AddressSpace::new();
            let region = space.alloc(ctx.l2_bytes.max(4096));
            let leaves: Vec<_> = (0..n)
                .map(|_| {
                    b.strand_with(|t| {
                        t.read_range(region.base, region.bytes / 2, 2);
                    })
                })
                .collect();
            let par = b.par(leaves, GroupMeta::labeled("scan"));
            let root = b.seq(vec![par], GroupMeta::labeled("root"));
            b.finish(root)
        },
    );

    let report = Experiment::new("test-scan:n=6")
        .cores(2)
        .scale(256)
        .schedulers(["pdf", "ws"])
        .run();
    assert_eq!(report.len(), 2);
    for r in &report.records {
        assert_eq!(r.workload, "test-scan:n=6");
        // The 6 scan strands.
        assert_eq!(r.tasks, 6);
        assert!(r.speedup_over_seq.is_some());
    }

    // The record label round-trips back into a spec that rebuilds the same
    // computation.
    let spec = WorkloadSpec::parse(&report.records[0].workload).unwrap();
    let comp = spec.build(256, 64 * 1024, 2);
    assert_eq!(comp.num_tasks(), 6);
}

#[test]
fn parallel_sweep_report_is_byte_identical_to_sequential() {
    let base = Experiment::named("det-check")
        .workloads([
            WorkloadSpec::from("mergesort"),
            WorkloadSpec::from("matmul:n=64"),
            WorkloadSpec::from("heat:rows=64,cols=64,steps=2"),
        ])
        .cores([2, 4])
        .scale(1024)
        .schedulers([
            SchedulerSpec::new("pdf"),
            SchedulerSpec::new("ws"),
            SchedulerSpec::new("ws-rand").with_seed(7),
        ]);
    let sequential = base.clone().parallelism(1).run();
    let parallel = base.clone().parallelism(8).run();
    assert_eq!(sequential.len(), 3 * 2 * 3);
    assert_eq!(parallel, sequential, "records and order must match");
    assert_eq!(
        parallel.to_json(),
        sequential.to_json(),
        "JSON trajectories must be byte-identical"
    );
}

#[test]
fn unknown_scheduler_name_fails_with_clear_error() {
    let spec = SchedulerSpec::new("definitely-not-registered");
    let err = match spec.try_build() {
        Ok(_) => panic!("unknown scheduler must not build"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("definitely-not-registered"));
    assert!(err.known.iter().any(|n| n == "pdf"));
}

#[test]
fn pdf_l2_misses_at_most_ws_on_mergesort() {
    // The doctest invariant from the crate root, kept as an integration test:
    // PDF shares the shared L2 constructively, WS fragments it.
    let report = Experiment::new("mergesort")
        .cores(16)
        .scale(64)
        .schedulers(["pdf", "ws"])
        .run();
    let pdf = report.for_scheduler("pdf").next().unwrap();
    let ws = report.for_scheduler("ws").next().unwrap();
    assert_eq!(
        pdf.instructions, ws.instructions,
        "same work under both schedulers"
    );
    assert!(
        pdf.l2_misses <= ws.l2_misses,
        "PDF must not miss more than WS: pdf {} vs ws {}",
        pdf.l2_misses,
        ws.l2_misses
    );
    assert!(
        pdf.speedup_over_seq.unwrap() > 1.0,
        "16 cores must beat 1 core"
    );
}
