//! The PR-level A/B acceptance property: for **every registered workload**,
//! both schedulers, and core counts covering all three coherence paths of
//! the event engine (`p == 1` no-directory, the single-word directory and
//! the hierarchical sharer masks past 64 cores), the id-native event-driven
//! engine and the retained reference cycle-stepper must report
//! **byte-identical** `SimResult`s.  A 256-core clustered-L2 + shared-L3
//! topology (DESIGN.md §12) rides the same cross-product.
//!
//! This is the cross-product the bench harness's A/B throughput numbers
//! stand on: a faster engine only counts if the metrics cannot move.  The
//! batch engine rides the same cross-product: at each point it simulates a
//! four-way latency group containing the point's exact configuration (one
//! member past the queue-free bound, so its memory requests queue), and
//! that member must again be byte-identical — replayed at one core, via
//! the fallback everywhere else.
//!
//! Each workload × coherence path is its own test, so the harness spreads
//! the cells across its threads; [`BUILT_IN`] lists the workloads and a
//! test pins it to the registry, so a new workload cannot go uncovered.

use ccs_dag::{Computation, Dag};
use ccs_sched::SchedulerSpec;
use ccs_sim::{simulate_batch, simulate_engine, CmpConfig, SimEngine};
use ccs_workloads::{BuildCtx, WorkloadRegistry};

/// The registered workloads, each with its own tests below.
const BUILT_IN: [&str; 6] = ["hashjoin", "heat", "lu", "matmul", "mergesort", "quicksort"];

/// A small CMP whose caches stay fixed while the core count sweeps the
/// coherence paths; 256 cores exercises the hierarchical sharer masks.
fn config(cores: usize) -> CmpConfig {
    let mut cfg = CmpConfig::default_with_cores(16).expect("default config exists");
    cfg.num_cores = cores;
    cfg.name = format!("ab-{cores}");
    cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, 1);
    cfg.l2 = ccs_cache::CacheConfig::new(64 * 1024, 128, 16, 13);
    cfg
}

/// `name` built at the A/B scale.  Deeply scaled-down inputs: the
/// reference engine pays one heap round-trip per micro-step, so the cells
/// must stay small to keep the tests quick while still covering every
/// workload's access pattern.
fn build(name: &str) -> (Computation, Dag) {
    let ctx = BuildCtx::new(2048, 64 * 1024, 4);
    let comp = WorkloadRegistry::global()
        .build(name, &ctx)
        .unwrap_or_else(|e| panic!("{e}"));
    let dag = Dag::from_computation(&comp);
    (comp, dag)
}

/// Event vs reference vs batch for `name` at each core count.
fn core_cells(name: &str, core_counts: &[usize]) {
    let (comp, dag) = build(name);
    for &cores in core_counts {
        let cfg = config(cores);
        // A latency group around the A/B point: the batch engine must
        // reproduce the event result for the point itself while also
        // serving the neighbouring latencies and a service interval past
        // the queue-free bound (memory latency 300 + L1 1 + L2 13).
        let mut queueing = cfg.clone();
        queueing.memory.service_interval = 400;
        queueing.name = format!("{}-si400", cfg.name);
        let group = [
            cfg.clone(),
            cfg.clone().with_l2_hit_latency(7),
            cfg.clone().with_memory_latency(900),
            queueing,
        ];
        for sched in ["pdf", "ws"] {
            let fast = simulate_engine(&comp, &cfg, sched, SimEngine::EventDriven);
            let slow = simulate_engine(&comp, &cfg, sched, SimEngine::Reference);
            assert_eq!(fast, slow, "{name} / {sched} / {cores} cores");
            let batch = simulate_batch(&comp, &dag, &group, &SchedulerSpec::new(sched));
            assert_eq!(batch.replayed, if cores == 1 { 3 } else { 0 });
            assert_eq!(
                batch.results[0], fast,
                "{name} / {sched} / {cores} cores (batch)"
            );
            if cores == 1 {
                // The replayed members, the queueing one included.
                for (cfg, got) in group.iter().zip(&batch.results).skip(1) {
                    let want = simulate_engine(&comp, cfg, sched, SimEngine::EventDriven);
                    assert_eq!(got, &want, "{name} / {sched} / {} (replay)", cfg.name);
                }
            }
        }
    }
}

/// The three-level topology (DESIGN.md §12): 256 cores in eight 32-core
/// L2 clusters behind a shared L3.  Still byte-identical across engines;
/// never replayed by the batch engine (the closed form charges L2 outcomes
/// only), but the fallback path must agree too.
fn clustered_l3_cell(name: &str) {
    let (comp, dag) = build(name);
    let clustered = config(256).clustered(8).with_l3_mb(1);
    for sched in ["pdf", "ws"] {
        let fast = simulate_engine(&comp, &clustered, sched, SimEngine::EventDriven);
        let slow = simulate_engine(&comp, &clustered, sched, SimEngine::Reference);
        assert_eq!(fast, slow, "{name} / {sched} / 256 cores clustered+L3");
        assert_eq!(fast.clusters, 8);
        assert_eq!(fast.l3.accesses, fast.l2.misses, "L3 sits below the L2s");
        let group = [
            clustered.clone(),
            clustered.clone().with_memory_latency(900),
        ];
        let batch = simulate_batch(&comp, &dag, &group, &SchedulerSpec::new(sched));
        assert_eq!(batch.replayed, 0, "clustered+L3 groups never replay");
        assert_eq!(
            batch.results[0], fast,
            "{name} / {sched} / clustered+L3 (batch)"
        );
    }
}

#[test]
fn built_in_list_is_every_registered_workload() {
    let mut registered = WorkloadRegistry::global().names();
    registered.sort();
    assert_eq!(
        registered, BUILT_IN,
        "every registered workload needs its own engine A/B module below"
    );
}

/// One module per workload, one test per coherence path.
macro_rules! workload_cells {
    ($($workload:ident),+ $(,)?) => {$(
        mod $workload {
            /// `p == 1` (no directory, batch replay) and the single-word
            /// directory.
            #[test]
            fn one_to_four_cores() {
                super::core_cells(stringify!($workload), &[1, 2, 4]);
            }

            /// The hierarchical sharer masks.
            #[test]
            fn hierarchical_256_cores() {
                super::core_cells(stringify!($workload), &[256]);
            }

            #[test]
            fn clustered_256_cores_with_l3() {
                super::clustered_l3_cell(stringify!($workload));
            }
        }
    )+};
}

workload_cells!(hashjoin, heat, lu, matmul, mergesort, quicksort);
