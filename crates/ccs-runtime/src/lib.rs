//! Native work-stealing fork-join runtime.
//!
//! The trace-driven experiments of the paper run on a simulated CMP
//! (`ccs-sim`), where the `pdf` and `ws` schedulers of `ccs-sched` are
//! compared; this crate is the *runnable* side of the library: a small
//! rayon-style work-stealing thread pool that runs the sweeps themselves
//! (parallel `Experiment` runs and the `ccs-serve` daemon's points).
//!
//! * [`ThreadPool::new(n, Policy::WorkStealing)`](ThreadPool::new) — per-worker
//!   crossbeam deques, local LIFO pops, FIFO steals, plus a global injector
//!   for jobs from outside the pool.
//!
//! ```
//! use ccs_runtime::{join, Policy, ThreadPool};
//!
//! let pool = ThreadPool::new(2, Policy::WorkStealing);
//! let (a, b) = pool.install(|| join(|| (1..=10).sum::<u32>(), || 6 * 7));
//! assert_eq!((a, b), (55, 42));
//! ```
//!
//! Detached work can be tied to a [`CancelToken`] — the sweep-service
//! daemon uses this to drop queued simulation points unrun when a
//! request is cancelled (tokens form a tree; cancelling a parent
//! cancels every child):
//!
//! ```
//! use ccs_runtime::CancelToken;
//!
//! let root = CancelToken::new();
//! let child = root.child();
//! assert!(!child.is_cancelled());
//! root.cancel();
//! assert!(child.is_cancelled()); // spawn_cancellable would skip the job
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cancel;
pub mod fault;
mod job;
pub mod pool;
pub mod sleep;

pub use cancel::CancelToken;
pub use fault::{FaultKind, FaultPlan};
pub use pool::{current_thread_index, join, spawn, Policy, ThreadPool};
