//! Trace-driven CMP simulator for the CCS (constructive cache sharing)
//! reproduction of Chen et al., SPAA 2007.
//!
//! The crate provides:
//!
//! * [`CmpConfig`] — complete CMP design points, with constructors for the
//!   paper's default (Table 2) and single-technology 45 nm (Table 3)
//!   configurations plus the Fig. 4 / Fig. 5 sensitivity overrides;
//! * [`area`] — the ITRS-style area/latency model that derives those design
//!   points from a 240 mm² die budget;
//! * [`simulate`] / [`simulate_with`] — the event-driven, trace-based CMP
//!   simulator (in-order cores, private L1s, shared L2, bounded off-chip
//!   bandwidth) driven by any [`ccs_sched::Scheduler`];
//! * [`SimEngine`] / [`simulate_engine`] — engine selection: the fast
//!   event-driven core (default), the retained reference cycle-stepper, or
//!   the batched multi-config engine — all metrics-identical by
//!   construction;
//! * [`simulate_batch`] / [`BatchRun`] — the batched engine's group entry
//!   point: configurations differing only in latencies share one recorded
//!   pass and are re-timed per config ([`batch`] has the correctness
//!   argument);
//! * [`SimResult`] — execution time, L2 misses per 1000 instructions,
//!   bandwidth utilisation and the other metrics the paper reports;
//! * many-core, three-level hierarchies (DESIGN.md §12):
//!   [`CmpConfig::many_core`] scale points, [`CmpConfig::clustered`]
//!   per-cluster L2 slices and [`CmpConfig::with_l3_mb`] for a shared L3,
//!   with hierarchical sharer masks keeping store invalidation
//!   `O(sharers)` up to [`MAX_DIRECTORY_CORES`] = 4096 cores, the widest
//!   machine [`CmpConfig::validate`] accepts.
//!
//! # Example
//!
//! ```
//! use ccs_dag::{AddressSpace, ComputationBuilder, GroupMeta};
//! use ccs_sim::{simulate, CmpConfig};
//!
//! // Two tasks streaming over the same 64 KB array, then a join.
//! let mut space = AddressSpace::new();
//! let data = space.alloc(64 * 1024);
//! let mut b = ComputationBuilder::new(128);
//! let t1 = b.strand_with(|t| { t.read_range(data.base, data.bytes, 2); });
//! let t2 = b.strand_with(|t| { t.read_range(data.base, data.bytes, 2); });
//! let par = b.par(vec![t1, t2], GroupMeta::labeled("scan"));
//! let join = b.strand_with(|t| { t.compute(10); });
//! let root = b.seq(vec![par, join], GroupMeta::labeled("root"));
//! let comp = b.finish(root);
//!
//! let config = CmpConfig::default_with_cores(2).unwrap();
//! let pdf = simulate(&comp, &config, "pdf");
//! let ws = simulate(&comp, &config, "ws");
//! assert_eq!(pdf.instructions, ws.instructions);
//! assert!(pdf.l2.misses <= ws.l2.misses);
//! ```
//!
//! A three-level machine is one builder chain away, and every engine
//! reports byte-identical metrics for it:
//!
//! ```
//! use ccs_sim::{simulate_engine, CmpConfig, SimEngine};
//! # use ccs_dag::{AddressSpace, ComputationBuilder, GroupMeta};
//! # let mut space = AddressSpace::new();
//! # let data = space.alloc(16 * 1024);
//! # let mut b = ComputationBuilder::new(128);
//! # let t1 = b.strand_with(|t| { t.read_range(data.base, data.bytes, 1); });
//! # let t2 = b.strand_with(|t| { t.write(data.base, 64); });
//! # let par = b.par(vec![t1, t2], GroupMeta::labeled("scan"));
//! # let comp = b.finish(par);
//! // 64 cores in four 16-core clusters (a quarter of the L2 each),
//! // backed by a 32 MB shared L3.
//! let config = CmpConfig::many_core(64).clustered(4).with_l3_mb(32);
//! let fast = simulate_engine(&comp, &config, "pdf", SimEngine::EventDriven);
//! let slow = simulate_engine(&comp, &config, "pdf", SimEngine::Reference);
//! assert_eq!(fast, slow);
//! assert_eq!(fast.l3.accesses, fast.l2.misses); // the L3 sits below the L2s
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod batch;
pub mod config;
pub mod machine;
pub mod metrics;
mod reference;

pub use area::Technology;
pub use batch::{simulate_batch, BatchRun};
pub use config::CmpConfig;
pub use machine::{
    simulate, simulate_engine, simulate_with, simulate_with_engine, SimEngine, MAX_DIRECTORY_CORES,
};
pub use metrics::SimResult;
