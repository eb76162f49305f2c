//! Greedy DAG execution (no cache model).
//!
//! This executor runs a computation DAG on `P` abstract cores under any
//! [`Scheduler`], charging each task its instruction count as its duration.
//! It is the "pure scheduling" view used for schedule analysis (makespan,
//! utilisation, greedy bounds) and for property tests; the cycle-level CMP
//! simulator in `ccs-sim` adds the cache hierarchy and memory bandwidth on
//! top of the same [`Scheduler`] interface.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use ccs_dag::{Dag, TaskId};

use crate::registry::SchedulerSpec;
use crate::scheduler::Scheduler;

/// The outcome of executing a DAG: per-task placement and timing.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Name of the scheduler that produced the schedule.
    pub scheduler: String,
    /// Number of cores used.
    pub num_cores: usize,
    /// Completion time of the last task.
    pub makespan: u64,
    /// Start time of each task.
    pub task_start: Vec<u64>,
    /// Finish time of each task.
    pub task_finish: Vec<u64>,
    /// Core each task ran on.
    pub task_core: Vec<usize>,
    /// Busy cycles per core.
    pub core_busy: Vec<u64>,
}

impl Schedule {
    /// Average core utilisation (busy cycles / (makespan × cores)).
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.num_cores == 0 {
            return 0.0;
        }
        let busy: u64 = self.core_busy.iter().sum();
        busy as f64 / (self.makespan as f64 * self.num_cores as f64)
    }

    /// Speedup over a given sequential execution time.
    pub fn speedup_over(&self, sequential_time: u64) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        sequential_time as f64 / self.makespan as f64
    }

    /// The order in which tasks started (ties broken by core id), useful for
    /// comparing schedules qualitatively.
    pub fn start_order(&self) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = (0..self.task_start.len() as u32).map(TaskId).collect();
        tasks.sort_by_key(|t| (self.task_start[t.index()], self.task_core[t.index()]));
        tasks
    }

    /// Check that the schedule is a legal execution of `dag`:
    /// every task runs exactly once, no task starts before its predecessors
    /// finish, and no core runs two tasks at once.
    pub fn validate(&self, dag: &Dag) -> Result<(), String> {
        let n = dag.num_tasks();
        if self.task_start.len() != n {
            return Err("schedule covers a different number of tasks".into());
        }
        for t in (0..n as u32).map(TaskId) {
            if self.task_finish[t.index()] < self.task_start[t.index()] {
                return Err(format!("{t:?} finishes before it starts"));
            }
            for &p in dag.predecessors(t) {
                if self.task_start[t.index()] < self.task_finish[p.index()] {
                    return Err(format!(
                        "{t:?} starts before its predecessor {p:?} finishes"
                    ));
                }
            }
        }
        // Per-core non-overlap.
        let mut per_core: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.num_cores];
        for t in 0..n {
            per_core[self.task_core[t]].push((self.task_start[t], self.task_finish[t]));
        }
        for (core, intervals) in per_core.iter_mut().enumerate() {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(format!("core {core} runs two tasks at once"));
                }
            }
        }
        Ok(())
    }
}

/// Execute `dag` on `num_cores` cores under `sched`, with task durations given
/// by `duration`.
///
/// The executor is a discrete-event loop.  Whenever several tasks become
/// ready at once it enables them in *reverse* sequential (1DF) order, so a
/// deque-based scheduler that pushes each enabled task on top ends up with
/// the earliest-sequential one on top — the order a work-first fork-join
/// program reaches them.  It offers work to the core that just completed a
/// task before other idle cores, matching the description of both
/// schedulers in Section 3.  The simulator engines in `ccs-sim` make the
/// same scheduler calls in the same order, which [`one_core_order`] relies
/// on.
///
/// # Panics
/// Panics if the scheduler is not greedy (returns `None` while tasks are
/// ready) or if it returns a task that is not ready.
pub fn execute_with(
    dag: &Dag,
    num_cores: usize,
    sched: &mut dyn Scheduler,
    mut duration: impl FnMut(TaskId) -> u64,
) -> Schedule {
    assert!(num_cores > 0, "need at least one core");
    let n = dag.num_tasks();
    let mut in_deg: Vec<u32> = (0..n as u32)
        .map(|t| dag.in_degree(TaskId(t)) as u32)
        .collect();
    let mut task_start = vec![0u64; n];
    let mut task_finish = vec![0u64; n];
    let mut task_core = vec![usize::MAX; n];
    let mut core_busy = vec![0u64; num_cores];
    let mut completed = vec![false; n];
    let mut scheduled = vec![false; n];

    sched.init(dag, num_cores);

    // Enable roots in *reverse* sequential order so that deque-based
    // schedulers (which push each enabled task on top) end up with the
    // earliest-sequential task on top — the order a work-first fork-join
    // runtime would reach them.
    let mut roots: Vec<TaskId> = dag.sources();
    roots.sort_by_key(|t| std::cmp::Reverse(dag.seq_rank(*t)));
    for r in roots {
        sched.task_enabled(r, None);
    }

    let mut idle: BTreeSet<usize> = (0..num_cores).collect();
    // Completion events: (finish time, core, task id) as a min-heap.
    let mut events: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();
    let mut num_completed = 0usize;

    // Assign work to idle cores at time `now`; `first` is offered work first.
    let assign = |now: u64,
                  first: Option<usize>,
                  sched: &mut dyn Scheduler,
                  idle: &mut BTreeSet<usize>,
                  events: &mut BinaryHeap<Reverse<(u64, usize, u32)>>,
                  duration: &mut dyn FnMut(TaskId) -> u64,
                  task_start: &mut [u64],
                  task_finish: &mut [u64],
                  task_core: &mut [usize],
                  core_busy: &mut [u64],
                  scheduled: &mut [bool],
                  in_deg: &[u32]| {
        let mut order: Vec<usize> = Vec::with_capacity(idle.len());
        if let Some(c) = first {
            if idle.contains(&c) {
                order.push(c);
            }
        }
        order.extend(idle.iter().copied().filter(|c| Some(*c) != first));
        for core in order {
            if sched.ready_count() == 0 {
                break;
            }
            let task = sched
                .next_task(core)
                .expect("greedy scheduler returned None while tasks are ready");
            assert_eq!(
                in_deg[task.index()],
                0,
                "scheduler returned a non-ready task"
            );
            assert!(
                !scheduled[task.index()],
                "scheduler returned {task:?} twice"
            );
            scheduled[task.index()] = true;
            let d = duration(task);
            task_start[task.index()] = now;
            task_finish[task.index()] = now + d;
            task_core[task.index()] = core;
            core_busy[core] += d;
            idle.remove(&core);
            events.push(Reverse((now + d, core, task.0)));
        }
    };

    assign(
        0,
        None,
        sched,
        &mut idle,
        &mut events,
        &mut duration,
        &mut task_start,
        &mut task_finish,
        &mut task_core,
        &mut core_busy,
        &mut scheduled,
        &in_deg,
    );

    let mut makespan = 0u64;
    while num_completed < n {
        let Reverse((now, _core, _)) =
            *events.peek().expect("deadlock: no events but tasks remain");
        // Drain every completion at this timestamp before assigning new work,
        // so simultaneous completions all contribute their newly-enabled
        // successors.
        let mut completing_cores: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, core, task))) = events.peek() {
            if t != now {
                break;
            }
            events.pop();
            let task = TaskId(task);
            completed[task.index()] = true;
            num_completed += 1;
            makespan = makespan.max(t);
            idle.insert(core);
            completing_cores.push(core);
            // Enable newly-ready successors in reverse sequential order (see
            // the root-enabling comment above: the earliest-sequential child
            // must end up on top of a deque-based scheduler's local deque).
            let mut newly_ready: Vec<TaskId> = Vec::new();
            for &s in dag.successors(task) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    newly_ready.push(s);
                }
            }
            newly_ready.sort_by_key(|t| std::cmp::Reverse(dag.seq_rank(*t)));
            for s in newly_ready {
                sched.task_enabled(s, Some(core));
            }
        }
        let first = completing_cores.first().copied();
        assign(
            now,
            first,
            sched,
            &mut idle,
            &mut events,
            &mut duration,
            &mut task_start,
            &mut task_finish,
            &mut task_core,
            &mut core_busy,
            &mut scheduled,
            &in_deg,
        );
        // Greediness check: if there are still ready tasks, every core must be
        // busy.
        debug_assert!(
            sched.ready_count() == 0 || idle.is_empty(),
            "greedy violation: ready tasks with idle cores"
        );
    }

    Schedule {
        scheduler: sched.name().to_string(),
        num_cores,
        makespan,
        task_start,
        task_finish,
        task_core,
        core_busy,
    }
}

/// The exact order in which `sched` dispatches the tasks of `dag` on one
/// core.
///
/// On one core this executor and the simulator engines in `ccs-sim` make
/// the same scheduler calls: `init`, the roots and every batch of newly
/// ready successors enabled in reverse 1DF order, and `next_task(0)` only
/// while `ready_count() > 0`.  A deterministic scheduler's answers depend
/// only on those calls, so two schedulers with equal orders drive every
/// engine through identical one-core runs.  The experiment layer keys its
/// one-core simulations by this order (DESIGN.md §11).
///
/// Runs [`execute_with`] with unit durations, so the tasks start at the
/// distinct times `0..n` and each start time is the task's dispatch
/// position.
///
/// # Panics
/// As [`execute_with`]: if the scheduler is not greedy or returns a task
/// that is not ready.
pub fn one_core_order(dag: &Dag, sched: &mut dyn Scheduler) -> Vec<TaskId> {
    let schedule = execute_with(dag, 1, sched, |_| 1);
    let mut order = vec![TaskId(0); dag.num_tasks()];
    for (task, &start) in schedule.task_start.iter().enumerate() {
        order[start as usize] = TaskId(task as u32);
    }
    order
}

/// Execute `dag` with the selected scheduler, charging each task its
/// instruction count ([`Dag::work_of`]) as its duration.
///
/// The scheduler is resolved through the [global
/// registry](crate::registry::SchedulerRegistry::global): pass a
/// [`SchedulerKind`](crate::SchedulerKind), a registered name (`"pdf"`), or a
/// full [`SchedulerSpec`] — user-registered schedulers work unmodified.
pub fn execute(dag: &Dag, num_cores: usize, sched: impl Into<SchedulerSpec>) -> Schedule {
    let mut sched = sched.into().build();
    execute_with(dag, num_cores, sched.as_mut(), |t| dag.work_of(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerKind;
    use ccs_dag::synth::{random_computation, SynthParams};
    use ccs_dag::{ComputationBuilder, Dag, GroupMeta, TaskTrace};

    fn balanced_tree(depth: u32, leaf_work: u64) -> Dag {
        fn build(b: &mut ComputationBuilder, depth: u32, leaf_work: u64) -> ccs_dag::SpNodeId {
            if depth == 0 {
                return b.strand(TaskTrace::compute_only(leaf_work));
            }
            let l = build(b, depth - 1, leaf_work);
            let r = build(b, depth - 1, leaf_work);
            let p = b.par(vec![l, r], GroupMeta::default());
            let join = b.strand(TaskTrace::compute_only(1));
            b.seq(vec![p, join], GroupMeta::default())
        }
        let mut b = ComputationBuilder::new(128);
        let root = build(&mut b, depth, leaf_work);
        let comp = b.finish(root);
        Dag::from_computation(&comp)
    }

    #[test]
    fn single_core_makespan_is_total_work() {
        let dag = balanced_tree(4, 100);
        for kind in [
            SchedulerKind::Pdf,
            SchedulerKind::WorkStealing,
            SchedulerKind::CentralQueue,
        ] {
            let s = execute(&dag, 1, kind);
            assert_eq!(s.makespan, dag.total_work(), "{kind}");
            s.validate(&dag).unwrap();
        }
    }

    #[test]
    fn schedules_are_legal_and_respect_greedy_bound() {
        let dag = balanced_tree(6, 50);
        let w = dag.total_work();
        let d = dag.depth();
        for p in [2usize, 4, 8] {
            for kind in [SchedulerKind::Pdf, SchedulerKind::WorkStealing] {
                let s = execute(&dag, p, kind);
                s.validate(&dag).unwrap();
                // Greedy (Brent) bound: T_P <= W/P + D.
                assert!(
                    s.makespan <= w / p as u64 + d + 1,
                    "{kind} on {p} cores: {} > {}",
                    s.makespan,
                    w / p as u64 + d
                );
                // And never better than the trivial lower bounds.
                assert!(s.makespan >= w / p as u64);
                assert!(s.makespan >= d);
            }
        }
    }

    #[test]
    fn parallel_execution_speeds_up_balanced_trees() {
        let dag = balanced_tree(6, 200);
        let seq = execute(&dag, 1, SchedulerKind::Pdf).makespan;
        for kind in [SchedulerKind::Pdf, SchedulerKind::WorkStealing] {
            let s = execute(&dag, 8, kind);
            assert!(
                s.speedup_over(seq) > 4.0,
                "{kind} speedup too small: {}",
                s.speedup_over(seq)
            );
        }
    }

    #[test]
    fn pdf_sequential_prefix_property_on_one_core() {
        // On one core PDF reproduces the sequential order exactly.
        let dag = balanced_tree(4, 10);
        let s = execute(&dag, 1, SchedulerKind::Pdf);
        let order = s.start_order();
        assert_eq!(order, dag.seq_order().to_vec());
    }

    #[test]
    fn random_dags_execute_correctly_under_all_schedulers() {
        let params = SynthParams::default();
        for seed in 0..10 {
            let comp = random_computation(seed, &params);
            let dag = Dag::from_computation(&comp);
            for kind in [
                SchedulerKind::Pdf,
                SchedulerKind::WorkStealing,
                SchedulerKind::WorkStealingRandom(seed),
                SchedulerKind::CentralQueue,
            ] {
                let s = execute(&dag, 4, kind);
                s.validate(&dag)
                    .unwrap_or_else(|e| panic!("seed {seed} {kind}: {e}"));
            }
        }
    }

    #[test]
    fn deterministic_schedules() {
        let comp = random_computation(3, &SynthParams::default());
        let dag = Dag::from_computation(&comp);
        for kind in [SchedulerKind::Pdf, SchedulerKind::WorkStealing] {
            let a = execute(&dag, 4, kind);
            let b = execute(&dag, 4, kind);
            assert_eq!(a.task_start, b.task_start, "{kind}");
            assert_eq!(a.task_core, b.task_core, "{kind}");
        }
    }

    #[test]
    fn utilization_bounded_by_one() {
        let dag = balanced_tree(5, 30);
        let s = execute(&dag, 4, SchedulerKind::Pdf);
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
    }

    #[test]
    fn zero_work_tasks_complete() {
        let mut b = ComputationBuilder::new(128);
        let l = b.nop();
        let r = b.nop();
        let p = b.par(vec![l, r], GroupMeta::default());
        let comp = b.finish(p);
        let dag = Dag::from_computation(&comp);
        let s = execute(&dag, 2, SchedulerKind::WorkStealing);
        assert_eq!(s.makespan, 0);
        s.validate(&dag).unwrap();
    }
}
