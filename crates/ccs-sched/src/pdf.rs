//! Parallel Depth First (PDF) scheduling (Section 3, [5, 6]).
//!
//! PDF is a greedy scheduler designed for constructive cache sharing: when a
//! core completes a task, it is assigned the ready task that the *sequential*
//! program would have executed the earliest.  Because important sequential
//! programs are tuned for good (single-core) cache behaviour, co-scheduling
//! tasks in an order that tracks the sequential execution gives the parallel
//! execution a largely overlapping working set across cores, and hence good
//! shared-cache behaviour (Theorem 3.1).
//!
//! Since the trace-driven experiments materialise the whole computation DAG
//! before execution, the sequential priority of every task is known exactly:
//! it is the task's rank in the 1DF order ([`Dag::seq_order`]).  (The online
//! variants of [6, 7, 28] maintain these priorities without executing the
//! sequential program.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ccs_dag::{Dag, TaskId};

use crate::scheduler::Scheduler;

/// The Parallel Depth First scheduler.
#[derive(Debug, Default)]
pub struct Pdf {
    /// `seq_rank[task]` = position of the task in the sequential execution.
    seq_rank: Vec<u32>,
    /// Ready tasks, ordered by sequential rank (min-heap).
    ready: BinaryHeap<Reverse<(u32, u32)>>,
}

impl Pdf {
    /// Create a PDF scheduler.
    pub fn new() -> Self {
        Pdf::default()
    }
}

impl Scheduler for Pdf {
    fn init(&mut self, dag: &Dag, _num_cores: usize) {
        self.seq_rank = (0..dag.num_tasks() as u32)
            .map(|t| dag.seq_rank(TaskId(t)))
            .collect();
        self.ready.clear();
    }

    fn task_enabled(&mut self, task: TaskId, _enabling_core: Option<usize>) {
        let rank = self.seq_rank[task.index()];
        self.ready.push(Reverse((rank, task.0)));
    }

    fn next_task(&mut self, _core: usize) -> Option<TaskId> {
        self.ready.pop().map(|Reverse((_, t))| TaskId(t))
    }

    fn ready_count(&self) -> usize {
        self.ready.len()
    }

    fn name(&self) -> &'static str {
        "pdf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{ComputationBuilder, GroupMeta, TaskTrace};

    fn fan_out(width: u32) -> Dag {
        let mut b = ComputationBuilder::new(128);
        let leaves: Vec<_> = (0..width)
            .map(|_| b.strand(TaskTrace::compute_only(1)))
            .collect();
        let root = b.par(leaves, GroupMeta::default());
        let comp = b.finish(root);
        Dag::from_computation(&comp)
    }

    #[test]
    fn pdf_returns_tasks_in_sequential_order() {
        let dag = fan_out(8);
        let mut pdf = Pdf::new();
        pdf.init(&dag, 4);
        // Enable in scrambled order.
        for &t in &[3u32, 7, 1, 0, 5, 2, 6, 4] {
            pdf.task_enabled(TaskId(t), None);
        }
        let order: Vec<u32> = (0..8).map(|_| pdf.next_task(0).unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(pdf.next_task(0).is_none());
    }

    #[test]
    fn pdf_ready_count_tracks_queue() {
        let dag = fan_out(3);
        let mut pdf = Pdf::new();
        pdf.init(&dag, 2);
        assert_eq!(pdf.ready_count(), 0);
        pdf.task_enabled(TaskId(2), Some(0));
        pdf.task_enabled(TaskId(0), Some(1));
        assert_eq!(pdf.ready_count(), 2);
        assert_eq!(pdf.next_task(1), Some(TaskId(0)));
        assert_eq!(pdf.ready_count(), 1);
    }

    #[test]
    fn pdf_priority_follows_seq_rank_not_task_id() {
        // Build a DAG where creation order differs from sequential order:
        // the join strand (task 2) is created before the second child (task 3)
        // in some constructions; here we force it by nesting.
        let mut b = ComputationBuilder::new(128);
        let a = b.strand(TaskTrace::compute_only(1)); // T0
        let join = b.strand(TaskTrace::compute_only(1)); // T1 (created early)
        let c = b.strand(TaskTrace::compute_only(1)); // T2
        let p = b.par(vec![a, c], GroupMeta::default());
        let root = b.seq(vec![p, join], GroupMeta::default());
        let comp = b.finish(root);
        let dag = Dag::from_computation(&comp);
        // Sequential order is T0, T2, T1.
        let mut pdf = Pdf::new();
        pdf.init(&dag, 2);
        pdf.task_enabled(TaskId(1), None);
        pdf.task_enabled(TaskId(2), None);
        assert_eq!(
            pdf.next_task(0),
            Some(TaskId(2)),
            "T2 precedes T1 sequentially"
        );
    }
}
