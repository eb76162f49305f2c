//! Thread schedulers for constructive cache sharing — the primary
//! contribution of Chen et al., *"Scheduling Threads for Constructive Cache
//! Sharing on CMPs"*, SPAA 2007.
//!
//! Two state-of-the-art greedy schedulers for fine-grained multithreaded
//! programs are provided, plus a baseline:
//!
//! * [`Pdf`] — **Parallel Depth First**: an idle core receives the ready task
//!   the *sequential* program would have executed earliest, so concurrently
//!   scheduled tasks track the sequential execution and share a largely
//!   overlapping working set (constructive cache sharing);
//! * [`WorkStealing`] — per-core deques; forks push onto the top of the local
//!   deque, idle cores pop locally and steal from the bottom of other cores'
//!   deques, so cores tend to work on disjoint sub-DAGs with disjoint working
//!   sets;
//! * [`CentralQueue`] — a global FIFO baseline.
//!
//! All schedulers implement the [`Scheduler`] trait and can be driven either
//! by the pure [`exec`] executor (no memory system) or by the cycle-level CMP
//! simulator in `ccs-sim`.  Module [`theory`] contains the analytical results
//! of Section 3 (Theorem 3.1, the Mergesort miss model) and the machinery the
//! property tests use to validate them.
//!
//! # Example
//!
//! ```
//! use ccs_dag::{ComputationBuilder, Dag, GroupMeta};
//! use ccs_sched::{execute, SchedulerKind};
//!
//! // par(8 strands) followed by a join strand.
//! let mut b = ComputationBuilder::new(128);
//! let leaves: Vec<_> = (0..8).map(|i| {
//!     b.strand_with(|t| { t.compute(1000).read_range(i * 8192, 8192, 2); })
//! }).collect();
//! let par = b.par(leaves, GroupMeta::labeled("leaves"));
//! let join = b.strand_with(|t| { t.compute(100); });
//! let root = b.seq(vec![par, join], GroupMeta::labeled("root"));
//! let comp = b.finish(root);
//! let dag = Dag::from_computation(&comp);
//!
//! let pdf = execute(&dag, 4, SchedulerKind::Pdf);
//! let ws = execute(&dag, 4, SchedulerKind::WorkStealing);
//! assert_eq!(pdf.makespan, ws.makespan); // same work, both greedy
//! pdf.validate(&dag).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod central;
pub mod exec;
pub mod pdf;
pub mod registry;
pub mod scheduler;
pub mod spec;
pub mod theory;
pub mod ws;

pub use central::CentralQueue;
pub use exec::{execute, execute_with, one_core_order, Schedule};
pub use pdf::Pdf;
pub use registry::{SchedulerFactory, SchedulerParams, SchedulerRegistry, SchedulerSpec};
pub use scheduler::{Scheduler, SchedulerKind};
pub use spec::{SpecError, SpecParseError};
pub use ws::WorkStealing;
