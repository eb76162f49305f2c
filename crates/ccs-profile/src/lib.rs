//! Working-set profiling and automatic task coarsening (Section 6 of Chen et
//! al., SPAA 2007).
//!
//! Task granularity has a first-order effect on constructive cache sharing:
//! too coarse and concurrently scheduled tasks have large disjoint working
//! sets; too fine and scheduling overheads dominate.  This crate implements
//! the paper's profile-driven answer:
//!
//! * [`WorkingSetProfile`] — the **one-pass** `LruTree` profiler: a single
//!   scan of the sequential reference trace collects per-task
//!   (stack-distance × previous-task) histograms from which the working set
//!   and hit counts of *any* group of consecutive tasks at *any* candidate
//!   cache size can be computed (Section 6.1);
//! * [`setassoc_profiler`] — the multi-pass `SetAssoc` baseline it replaces
//!   (an order of magnitude slower; see `run_all --fig sec61_profiler_speed`);
//! * [`mod@coarsen`] — the automatic task-coarsening algorithm with the
//!   `W ≤ K·(cache/(2·cores))` stop criterion, the Fig. 7(b)
//!   [`ParallelizationTable`], and [`apply_coarsening`] to re-group the DAG
//!   for re-simulation (the Fig. 8 evaluation).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coarsen;
pub mod profile;
pub mod setassoc_profiler;

pub use coarsen::{apply_coarsening, coarsen, CoarsenTarget, Coarsening, ParallelizationTable};
pub use profile::{TaskHistogram, WorkingSetProfile};
pub use setassoc_profiler::{
    group_working_set_lines, profile_all_groups, profile_group, GroupCacheStats,
};
