//! Plugging a user-defined scheduler into the harness through the open
//! registry — no crate internals touched.
//!
//! Defines a work-stealing variant with a ring-ordered victim scan (a thief
//! walks the cores starting at its right-hand neighbour and steals from the
//! first non-empty deque), registers it under `"ws-ring"`, and runs it
//! through *both* drivers — the abstract executor and the cycle-level CMP
//! simulator — and through an `Experiment` sweep next to the built-ins.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use std::collections::VecDeque;

use ccs::dag::TaskId;
use ccs::prelude::*;

/// WS with a ring-ordered victim scan: a thief starts at its right-hand
/// neighbour and takes from the first non-empty deque it meets.  (A truly
/// *confined* scheduler that refuses to steal beyond its neighbour would not
/// be greedy, which the harness requires.)
struct RingStealing {
    deques: Vec<VecDeque<TaskId>>,
    ready: usize,
}

impl RingStealing {
    fn new() -> Self {
        RingStealing {
            deques: Vec::new(),
            ready: 0,
        }
    }
}

impl Scheduler for RingStealing {
    fn init(&mut self, _dag: &Dag, num_cores: usize) {
        self.deques = vec![VecDeque::new(); num_cores.max(1)];
        self.ready = 0;
    }

    fn task_enabled(&mut self, task: TaskId, enabling_core: Option<usize>) {
        let core = enabling_core.unwrap_or(0).min(self.deques.len() - 1);
        self.deques[core].push_front(task);
        self.ready += 1;
    }

    fn next_task(&mut self, core: usize) -> Option<TaskId> {
        let p = self.deques.len();
        let core = core.min(p - 1);
        // Local pop first; then walk the ring so greediness is preserved
        // (the harness requires work to be found whenever any task is ready).
        let task = (0..p).map(|i| (core + i) % p).find_map(|victim| {
            if victim == core {
                self.deques[victim].pop_front()
            } else {
                self.deques[victim].pop_back()
            }
        });
        if task.is_some() {
            self.ready -= 1;
        }
        task
    }

    fn ready_count(&self) -> usize {
        self.ready
    }

    fn name(&self) -> &'static str {
        "ws-ring"
    }
}

fn main() {
    // One registration makes the scheduler addressable by name everywhere.
    SchedulerRegistry::global().register_fn("ws-ring", |_params| Box::new(RingStealing::new()));

    let comp = ccs::workloads::mergesort::build(
        &MergesortParams::new(1 << 15).with_task_working_set(32 * 1024),
    );

    // 1. The abstract executor (no cache model).
    let dag = Dag::from_computation(&comp);
    let schedule = execute(&dag, 8, "ws-ring");
    schedule.validate(&dag).expect("legal schedule");
    println!(
        "executor : {} on 8 cores, makespan {} ({}% utilisation)",
        schedule.scheduler,
        schedule.makespan,
        (schedule.utilization() * 100.0).round()
    );

    // 2. The cycle-level CMP simulator.
    let config = CmpConfig::default_with_cores(8).unwrap().scaled(64);
    let result = simulate(&comp, &config, "ws-ring");
    println!(
        "simulator: {} on {}, {} cycles, {:.3} L2 MPKI",
        result.scheduler,
        result.config_name,
        result.cycles,
        result.l2_mpki()
    );

    // 3. An experiment sweep, side by side with the built-ins.
    let report = Experiment::new("mergesort")
        .cores(8)
        .scale(256)
        .schedulers(["pdf", "ws", "ws-ring"])
        .run();
    println!("\nexperiment sweep:");
    print!("{}", report.to_tsv());
}
