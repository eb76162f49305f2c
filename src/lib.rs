//! # ccs — Constructive Cache Sharing on CMPs
//!
//! An open-source Rust reproduction of **Chen et al., "Scheduling Threads for
//! Constructive Cache Sharing on CMPs", SPAA 2007**: the Parallel Depth First
//! (PDF) and Work Stealing (WS) schedulers, the trace-driven CMP simulator
//! used for the paper's evaluation, the benchmark workloads, the one-pass
//! working-set profiler, the automatic task-coarsening algorithm, and a
//! native work-stealing fork-join runtime that runs the sweeps.
//!
//! This meta-crate re-exports the individual crates:
//!
//! * [`dag`] (ccs-dag) — computation DAGs, tasks, memory traces, task groups;
//! * [`cache`] (ccs-cache) — cache models, LRU stack distances, memory model;
//! * [`sched`] (ccs-sched) — the PDF and WS schedulers and the greedy executor;
//! * [`sim`] (ccs-sim) — CMP configurations (Tables 1–3), area model, and the
//!   cycle-level trace-driven simulator;
//! * [`workloads`] (ccs-workloads) — LU, Hash Join, Mergesort and the
//!   secondary benchmarks, as trace generators;
//! * [`profile`] (ccs-profile) — the LruTree working-set profiler and
//!   automatic task coarsening;
//! * [`runtime`] (ccs-runtime) — the native work-stealing thread pool;
//! * [`experiment`] (ccs-experiment) — the unified experiment layer:
//!   builder-style run sessions, the open scheduler registry's
//!   [`SchedulerSpec`](ccs_sched::SchedulerSpec) selectors, and serialisable
//!   JSON/CSV reports.
//!
//! ## Quick start
//!
//! The [`Experiment`](ccs_experiment::Experiment) builder is the canonical
//! entry point — it fans a workload × scheduler × configuration
//! cross-product into a serialisable report:
//!
//! ```
//! use ccs::prelude::*;
//!
//! let report = Experiment::new("mergesort")
//!     .cores(8)
//!     .scale(512)
//!     .schedulers(["pdf", "ws"])
//!     .run();
//! let pdf = report.for_scheduler("pdf").next().unwrap();
//! let ws = report.for_scheduler("ws").next().unwrap();
//! assert!(pdf.l2_misses <= ws.l2_misses, "PDF shares the cache constructively");
//! assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
//! ```
//!
//! The lower-level entry points remain available, and accept anything that
//! converts into a [`SchedulerSpec`](ccs_sched::SchedulerSpec) — a registry
//! name like `"pdf"` or `"ws-rand@7"`, or a full spec:
//!
//! ```
//! use ccs::prelude::*;
//!
//! let comp = ccs::workloads::mergesort::build(
//!     &MergesortParams::new(1 << 15).with_task_working_set(32 * 1024),
//! );
//! let config = CmpConfig::default_with_cores(8).unwrap().scaled(64);
//! let pdf = simulate(&comp, &config, "pdf");
//! let ws = simulate(&comp, &config, "ws");
//! assert!(pdf.l2.misses <= ws.l2.misses, "PDF shares the cache constructively");
//! ```
//!
//! Workloads are just as open as schedulers: every workload-accepting entry
//! point takes a parseable [`WorkloadSpec`](ccs_experiment::WorkloadSpec)
//! (`"mergesort"`, `"matmul:n=512"`, `"heat:rows=1024,cols=1024,steps=8"`)
//! resolved through
//! [`WorkloadRegistry::global`](ccs_workloads::WorkloadRegistry::global),
//! which pre-registers all six built-in kernels:
//!
//! ```
//! use ccs::prelude::*;
//!
//! let report = Experiment::named("extras")
//!     .workloads(["quicksort", "matmul:n=128", "heat:rows=64,cols=64"])
//!     .cores(4)
//!     .scale(1024)
//!     .schedulers(["pdf", "ws"])
//!     .parallelism(4) // fan the sweep across our own fork-join pool
//!     .run();
//! assert_eq!(report.len(), 3 * 2);
//! ```
//!
//! User-defined schedulers registered with
//! [`SchedulerRegistry::global`](ccs_sched::SchedulerRegistry::global) and
//! user-defined workloads registered with
//! [`WorkloadRegistry::global`](ccs_workloads::WorkloadRegistry::global) run
//! through both [`execute`](ccs_sched::execute) and
//! [`simulate`](ccs_sim::simulate) — and therefore through experiments —
//! without touching crate internals; see `examples/custom_scheduler.rs` and
//! `examples/custom_workload.rs`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ccs_cache as cache;
pub use ccs_dag as dag;
pub use ccs_experiment as experiment;
pub use ccs_profile as profile;
pub use ccs_runtime as runtime;
pub use ccs_sched as sched;
pub use ccs_sim as sim;
pub use ccs_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use ccs_cache::{CacheConfig, MemoryConfig};
    pub use ccs_dag::{Computation, ComputationBuilder, Dag, GroupMeta, TaskGroupTree, TaskId};
    pub use ccs_experiment::{Experiment, Options, Report, RunRecord, WorkloadSpec};
    pub use ccs_profile::{coarsen, CoarsenTarget, WorkingSetProfile};
    pub use ccs_runtime::{join, Policy, ThreadPool};
    pub use ccs_sched::{
        execute, Scheduler, SchedulerFactory, SchedulerParams, SchedulerRegistry, SchedulerSpec,
    };
    pub use ccs_sim::{simulate, CmpConfig, SimResult, Technology};
    pub use ccs_workloads::{
        BuildCtx, HashJoinParams, LuParams, MergesortParams, WorkloadFactory, WorkloadRegistry,
        PAPER_WORKLOADS,
    };
}
