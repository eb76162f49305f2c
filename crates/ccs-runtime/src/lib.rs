//! Native fork-join runtime with pluggable Work-Stealing and Parallel-Depth-
//! First scheduling policies.
//!
//! The trace-driven experiments of the paper run on a simulated CMP
//! (`ccs-sim`); this crate is the *runnable* counterpart: a small rayon-style
//! thread pool whose scheduling discipline can be switched between the two
//! policies the paper compares, so the library is usable as an actual
//! runtime and the policies can be exercised on real hardware.
//!
//! * [`ThreadPool::new(n, Policy::WorkStealing)`](ThreadPool::new) — per-worker
//!   crossbeam deques, local LIFO pops, FIFO steals;
//! * [`ThreadPool::new(n, Policy::Pdf)`](ThreadPool::new) — a global priority
//!   pool ordered by online sequential-priority labels ([`PdfLabel`]), so idle
//!   workers always take the task a sequential execution would reach first.
//!
//! ```
//! use ccs_runtime::{join, Policy, ThreadPool};
//!
//! let pool = ThreadPool::new(2, Policy::Pdf);
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
pub mod label;
pub mod pool;
pub mod sleep;

pub use cancel::CancelToken;
pub use fault::{FaultKind, FaultPlan};
pub use label::PdfLabel;
pub use pool::{join, spawn, Policy, ThreadPool};
