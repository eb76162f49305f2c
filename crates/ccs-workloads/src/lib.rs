//! Benchmark workloads for the CCS (constructive cache sharing) reproduction
//! of Chen et al., SPAA 2007.
//!
//! Each workload is a **trace generator** that builds the workload's
//! computation DAG with cache-line-level memory traces ([`mergesort::build`],
//! [`hashjoin::build`], [`lu::build`], and the secondary benchmarks in
//! [`extras`]) — these drive the CMP simulator to reproduce the paper's
//! figures.  Each is registered by name with [`WorkloadRegistry::global`],
//! and [`PAPER_WORKLOADS`] names the paper's three.
//!
//! Granularity knobs mirror the paper's Section 5.4 / Section 6: every
//! workload exposes the parameter the "Parallelize" decision of Fig. 7(a)
//! would compare against a threshold, and the coarse-grained originals are
//! available for the fine-vs-coarse comparison.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod extras;
pub mod hashjoin;
pub mod lu;
pub mod mergesort;
pub mod registry;

pub use hashjoin::HashJoinParams;
pub use lu::LuParams;
pub use mergesort::MergesortParams;
pub use registry::{BuildCtx, UnknownWorkload, WorkloadFactory, WorkloadRegistry};

/// The paper's three primary benchmarks (Section 4.2) by registry name, in
/// the order its figures report them: recursive dense LU factorization
/// (scientific, small working set), database hash join (irregular, large
/// working set, bandwidth hungry) and parallel mergesort (divide and
/// conquer).  [`WorkloadRegistry::global`] builds each at paper-proportional
/// input sizes through its `Params::scaled` constructor.
pub const PAPER_WORKLOADS: [&str; 3] = ["lu", "hashjoin", "mergesort"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names() {
        // Figure reports list the paper benchmarks in this order.
        assert_eq!(PAPER_WORKLOADS, ["lu", "hashjoin", "mergesort"]);
        for name in PAPER_WORKLOADS {
            assert!(
                WorkloadRegistry::global().describe(name).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn scaled_builds_are_nontrivial_and_valid() {
        // Use a large scale divisor so this stays fast in debug builds.
        let ctx = BuildCtx::new(256, 256 * 1024, 8);
        for name in PAPER_WORKLOADS {
            let comp = WorkloadRegistry::global().build(name, &ctx).unwrap();
            assert!(comp.num_tasks() > 1, "{name}: {}", comp.num_tasks());
            ccs_dag::Dag::from_computation(&comp).validate().unwrap();
        }
    }
}
