//! Cache and memory models for the CCS (constructive cache sharing)
//! reproduction of Chen et al., SPAA 2007.
//!
//! This crate provides the storage-hierarchy substrate used by the CMP
//! simulator ([`ccs-sim`](../ccs_sim/index.html)) and by the working-set
//! profiler ([`ccs-profile`](../ccs_profile/index.html)):
//!
//! * [`CacheConfig`] / [`MemoryConfig`] — geometry and timing (Table 1);
//! * [`SetAssocCache`] — set-associative, true-LRU, write-back cache used for
//!   private L1s and the shared L2;
//! * [`CompiledCache`] — the id-native twin of `SetAssocCache`, probed by
//!   `(set, u32 tag)` pairs precompiled from dense line ids in `O(1)` per
//!   probe (per-line way hints, per-set recency lists) — the form the
//!   simulator's hot loop uses so it never touches an address;
//! * [`IdealCache`] — fully-associative LRU cache used by the analytical
//!   results (Theorem 3.1) and the profiler;
//! * [`OrderStatStack`], [`FenwickStack`], [`NaiveLruStack`] — LRU
//!   stack-distance models; `OrderStatStack` is the paper's *LruTree*
//!   structure with `O(log n)` per-reference cost;
//! * [`MainMemory`] — off-chip latency + bounded-bandwidth model;
//! * [`LineDirectory`] — per-line sharer tracking so the simulator's
//!   write-invalidation costs `O(sharers)` instead of a broadcast over all
//!   cores; one mask word up to 64 cores, hierarchical summary-plus-core
//!   words up to 4096 (DESIGN.md §12).
//!
//! # Example
//!
//! A direct-mapped-style probe sequence on the set-associative model, and
//! sharer tracking on a machine wider than one mask word:
//!
//! ```
//! use ccs_cache::{CacheConfig, LineDirectory, SetAssocCache};
//! use ccs_dag::AccessKind;
//!
//! // 4 KB, 2-way, 64 B lines: 32 sets.
//! let mut l1 = SetAssocCache::new(CacheConfig::new(4 * 1024, 64, 2, 1));
//! assert!(!l1.access_addr(0x0000, AccessKind::Read).hit); // cold miss
//! assert!(l1.access_addr(0x0000, AccessKind::Read).hit);
//! assert!(!l1.access_addr(0x1000, AccessKind::Write).hit); // same set, new tag
//! assert_eq!(l1.stats().misses, 2);
//!
//! // 96 cores: past the 64-bit mask, the directory switches to
//! // hierarchical masks and stays O(sharers) per store.
//! let mut dir = LineDirectory::new(96);
//! dir.insert(7, 3);
//! dir.insert(7, 90);
//! let sharers: Vec<usize> = dir.sharers_except(7, 3).collect();
//! assert_eq!(sharers, vec![90]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compiled;
pub mod config;
pub mod directory;
pub mod ideal;
pub mod memory;
pub mod setassoc;
pub mod stack;
pub mod stats;

pub use compiled::{line_tag, CompiledCache};
pub use config::{CacheConfig, MemoryConfig};
pub use directory::LineDirectory;
pub use ideal::IdealCache;
pub use memory::{MainMemory, MemoryStats};
pub use setassoc::{AccessOutcome, SetAssocCache};
pub use stack::{FenwickStack, NaiveLruStack, OrderStatStack, StackDistanceModel};
pub use stats::CacheStats;
