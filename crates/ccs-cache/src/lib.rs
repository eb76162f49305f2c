//! Cache and memory models for the CCS (constructive cache sharing)
//! reproduction of Chen et al., SPAA 2007.
//!
//! This crate provides the storage-hierarchy substrate used by the CMP
//! simulator ([`ccs-sim`](../ccs_sim/index.html)) and by the working-set
//! profiler ([`ccs-profile`](../ccs_profile/index.html)):
//!
//! * [`CacheConfig`] / [`MemoryConfig`] — geometry and timing (Table 1);
//! * [`CompiledCache`] — the set-associative, true-LRU, write-back cache
//!   of the private L1s and the shared L2, probed by `(set, u32 tag)`
//!   pairs precompiled from dense line ids in `O(1)` per probe (per-line
//!   way hints, per-set recency lists), so the simulator's hot loop never
//!   touches an address;
//! * [`IdealCache`] — fully-associative LRU cache used by the analytical
//!   results (Theorem 3.1) and the profiler;
//! * [`OrderStatStack`], [`NaiveLruStack`] — LRU stack-distance models;
//!   `OrderStatStack` is the paper's *LruTree* structure with `O(log n)`
//!   per-reference cost, `NaiveLruStack` its `O(n)` test oracle;
//! * [`MainMemory`] — off-chip latency + bounded-bandwidth model.
//!
//! # Example
//!
//! A conflict in one set of a 2-way compiled cache, and the same line
//! sequence on a fully-associative ideal cache of the same capacity:
//!
//! ```
//! use ccs_cache::{line_tag, CacheConfig, CompiledCache, IdealCache};
//! use ccs_dag::AccessKind;
//!
//! // 4 KB, 2-way, 64 B lines: 32 sets.  Line id `i` lives in set `i % 32`.
//! let config = CacheConfig::new(4 * 1024, 64, 2, 1);
//! let mut l1 = CompiledCache::new(config.num_sets(), config.associativity, 128);
//! let ids = [0u32, 0, 32, 64, 0];
//! let hits: Vec<bool> = ids
//!     .iter()
//!     .map(|&id| l1.access_compiled(id % 32, line_tag(id), false))
//!     .collect();
//! // Ids 0, 32 and 64 share set 0: the third evicts the LRU line 0.
//! assert_eq!(hits, [false, true, false, false, false]);
//! assert_eq!((l1.stats().misses, l1.stats().evictions), (4, 2));
//!
//! // The ideal cache holds all 64 lines, so only cold misses remain.
//! let mut ideal = IdealCache::with_bytes(4 * 1024, 64);
//! for id in ids {
//!     ideal.access_line(id as u64 * 64, AccessKind::Read);
//! }
//! assert_eq!(ideal.stats().misses, 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiled;
pub mod config;
pub mod ideal;
pub mod memory;
pub mod stack;
pub mod stats;

pub use compiled::{line_tag, CompiledCache};
pub use config::{CacheConfig, MemoryConfig};
pub use ideal::IdealCache;
pub use memory::{MainMemory, MemoryStats};
pub use stack::{NaiveLruStack, OrderStatStack, StackDistanceModel};
pub use stats::CacheStats;
