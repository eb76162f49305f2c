//! Computation DAG, task, trace and task-group model for the CCS
//! (constructive cache sharing) reproduction of Chen et al., *"Scheduling
//! Threads for Constructive Cache Sharing on CMPs"*, SPAA 2007.
//!
//! The paper models fine-grained multithreaded programs as computation DAGs
//! whose nodes are *tasks* (threads or thread portions with no internal
//! dependences), each carrying an instruction weight and — for trace-driven
//! simulation — a memory-reference trace.  This crate provides:
//!
//! * [`Task`], [`MemRef`], [`TaskTrace`], [`TraceBuilder`] — the per-task
//!   model (module [`task`]);
//! * [`TracePool`] / [`TraceView`] — the flat one-lane trace arena every
//!   computation stores its ops in (module [`pool`]);
//! * [`LineStream`] — precompiled line-granular access streams, one per
//!   `(computation, line size)`, consumed by the simulator's event engine,
//!   plus the [`CacheGeometry`]-keyed [`SetLanes`] mapping line ids
//!   straight to every cache level's set index (module [`stream`]);
//! * [`Computation`] and [`ComputationBuilder`] — fork-join programs as
//!   series-parallel trees (module [`sp`]);
//! * [`Dag`] — the flattened dependency DAG with 1DF (sequential depth-first)
//!   ordering, work/depth analysis and validation (module [`dag`]);
//! * [`TaskGroupTree`] — the hierarchical task groups of Section 6 used by the
//!   working-set profiler and automatic task coarsening (module [`group`]);
//! * [`AddressSpace`] — a synthetic virtual address space for workload trace
//!   generation (module [`addr`]);
//! * [`synth`] — seeded random computations for property tests.
//!
//! # Example
//!
//! ```
//! use ccs_dag::{ComputationBuilder, Dag, GroupMeta, TaskGroupTree};
//!
//! // A two-way fork-join: two strands stream over disjoint arrays, then a
//! // third strand combines them.
//! let mut b = ComputationBuilder::new(128);
//! let left = b.strand_with(|t| { t.read_range(0x10000, 8192, 2); });
//! let right = b.strand_with(|t| { t.read_range(0x20000, 8192, 2); });
//! let halves = b.par(vec![left, right], GroupMeta::labeled("halves"));
//! let combine = b.strand_with(|t| { t.compute(100); });
//! let root = b.seq(vec![halves, combine], GroupMeta::labeled("root"));
//! let comp = b.finish(root);
//!
//! let dag = Dag::from_computation(&comp);
//! assert_eq!(dag.num_tasks(), 3);
//! assert!(dag.parallelism() > 1.0);
//!
//! let groups = TaskGroupTree::from_computation(&comp);
//! assert_eq!(groups.tasks_in(groups.root()).len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod dag;
pub mod group;
pub mod pool;
pub mod sp;
pub mod stream;
pub mod synth;
pub mod task;

pub use addr::{AddressSpace, Region};
pub use dag::Dag;
pub use group::{GroupId, GroupKind, TaskGroup, TaskGroupTree};
pub use pool::{TracePool, TraceRange, TraceView};
pub use sp::{CallSite, Computation, ComputationBuilder, GroupMeta, SpKind, SpNode, SpNodeId};
pub use stream::{CacheGeometry, LineStream, SetLanes, STEP_ID_MASK, STEP_WRITE_BIT};
pub use task::{AccessKind, MemRef, Task, TaskId, TaskTrace, TraceBuilder, TraceOp};
