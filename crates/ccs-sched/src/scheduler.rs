//! The greedy-scheduler interface shared by PDF, WS and the baselines.
//!
//! Both the standalone executor ([`crate::exec`]) and the cycle-level CMP
//! simulator (`ccs-sim`) drive schedulers through this trait: the driver tells
//! the scheduler which tasks have become *ready* (all predecessors completed)
//! and which core enabled them, and asks for work on behalf of idle cores.
//! A scheduler is *greedy* when [`Scheduler::next_task`] returns a task
//! whenever any ready task exists — all the schedulers in this crate are
//! greedy, which the executor asserts.

use ccs_dag::{Dag, TaskId};

/// A greedy task scheduler for computation DAGs.
pub trait Scheduler {
    /// Called once before execution starts.  `dag` describes the computation,
    /// `num_cores` the number of cores work will be requested for.
    fn init(&mut self, dag: &Dag, num_cores: usize);

    /// Inform the scheduler that `task` has become ready.
    ///
    /// `enabling_core` is the core that completed the task's last outstanding
    /// predecessor (the "forking" core in fork-join terms), or `None` for
    /// tasks that are ready at the start of the computation (DAG roots).
    fn task_enabled(&mut self, task: TaskId, enabling_core: Option<usize>);

    /// Ask for a task to run on `core`.  Must return `Some` whenever any task
    /// is ready (greediness); the executor treats a `None` returned while
    /// ready tasks exist as a scheduler bug.
    fn next_task(&mut self, core: usize) -> Option<TaskId>;

    /// Number of ready tasks currently queued.
    fn ready_count(&self) -> usize;

    /// Short human-readable name ("pdf", "ws", ...), used in experiment
    /// output.
    fn name(&self) -> &'static str;
}
