//! The paper's figure sweeps, described with the [`Experiment`] builder.
//!
//! Each function returns a serialisable [`Report`]; the binaries in
//! `src/bin/` print it as TSV and optionally emit JSON.  `run_all` merges
//! all of them into one machine-readable trajectory.

use ccs_experiment::{Experiment, Options, Report, WorkloadSpec};
use ccs_sched::SchedulerKind;
use ccs_sim::CmpConfig;
use ccs_workloads::{hashjoin, mergesort, Benchmark, HashJoinParams, MergesortParams};

/// The PDF-vs-WS scheduler pair every figure compares.
fn pdf_ws() -> [SchedulerKind; 2] {
    [SchedulerKind::Pdf, SchedulerKind::WorkStealing]
}

/// A named figure sweep.
pub type Sweep = (&'static str, fn(&Options) -> Report);

/// The canonical figure-sweep list: what `run_all` executes and what the
/// bench harness times (`macro/<name>` records).  Extend figures here so
/// both stay in lockstep; the §5.5 extras sweep is appended separately by
/// `run_all` in full mode.
pub fn figure_sweeps() -> Vec<Sweep> {
    vec![
        ("fig2_default_configs", fig2),
        ("fig3_single_tech", fig3),
        ("fig4_l2_hit_time", fig4),
        ("fig5_mem_latency", fig5),
        ("fig6_granularity", fig6),
        ("sec54_coarse_vs_fine", coarse_vs_fine),
        ("latency_profile", latency_profile),
        ("scaling_profile", scaling_profile),
    ]
}

/// Figure 2: PDF vs WS on the default (Table 2) CMP configurations —
/// speedup over sequential execution and L2 misses per 1000 instructions for
/// LU (1–16 cores), Hash Join and Mergesort (1–32 cores).
pub fn fig2(opts: &Options) -> Report {
    let mut report = Report::new("fig2", opts.effective_scale());
    for bench in opts.benchmarks() {
        let configs = CmpConfig::default_configs().into_iter().filter(|cfg| {
            // The paper reports LU only up to 16 cores (the 2Kx2K input is
            // smaller than the 32-core L2).
            let lu_cap = bench != Benchmark::Lu || cfg.num_cores <= 16;
            let quick_cap = !opts.quick || cfg.num_cores <= 8;
            lu_cap && quick_cap
        });
        report.merge(
            Experiment::new(bench)
                .name("fig2")
                .configs(configs)
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// Figure 3: Hash Join and Mergesort across the 45 nm single-technology
/// design points (Table 3, 1–26 cores), PDF vs WS.
///
/// Qualitative features to look for (Section 5.2): PDF wins at every design
/// point; Hash Join bottoms out around ~18 cores (it becomes bandwidth-bound
/// and the shrinking cache then hurts), while Mergesort keeps improving to
/// 24–26 cores.
pub fn fig3(opts: &Options) -> Report {
    let configs: Vec<CmpConfig> = CmpConfig::single_tech_45nm()
        .into_iter()
        .filter(|cfg| !opts.quick || cfg.num_cores % 8 == 0 || cfg.num_cores == 1)
        .collect();
    let mut report = Report::new("fig3", opts.effective_scale());
    for bench in opts
        .benchmarks()
        .into_iter()
        .filter(|b| *b != Benchmark::Lu)
    {
        report.merge(
            Experiment::new(bench)
                .name("fig3")
                .configs(configs.iter().cloned())
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// Figure 4: sensitivity to the L2 hit time on the 16-core default
/// configuration (7 cycles ≈ a fast distributed L2 bank, 19 cycles = the
/// default monolithic shared L2).
///
/// The headline comparison (Section 5.3): PDF with the *slow* 19-cycle L2
/// still beats WS with the *fast* 7-cycle L2 — use
/// [`pdf_slow_beats_ws_fast`] on the returned report to check it.
pub fn fig4(opts: &Options) -> Report {
    let base = CmpConfig::default_with_cores(16).expect("16-core default config");
    let configs = [7u64, 19].map(|hit| base.clone().with_l2_hit_latency(hit));
    let mut report = Report::new("fig4", opts.effective_scale());
    for bench in opts
        .benchmarks()
        .into_iter()
        .filter(|b| *b != Benchmark::Lu)
    {
        report.merge(
            Experiment::new(bench)
                .name("fig4")
                .configs(configs.iter().cloned())
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// The Section 5.3 check on a [`fig4`] report: for each workload, does PDF on
/// the slow (19-cycle) L2 still beat WS on the fast (7-cycle) L2?
pub fn pdf_slow_beats_ws_fast(report: &Report) -> Vec<(String, bool)> {
    report
        .workloads()
        .into_iter()
        .filter_map(|workload| {
            let pdf_slow = report
                .for_workload(&workload)
                .find(|r| r.scheduler == "pdf" && r.config.contains("l2hit19"))?;
            let ws_fast = report
                .for_workload(&workload)
                .find(|r| r.scheduler == "ws" && r.config.contains("l2hit7"))?;
            Some((workload.clone(), pdf_slow.cycles <= ws_fast.cycles))
        })
        .collect()
}

/// Figure 5: sensitivity to the main-memory latency (100–1100 cycles) on the
/// 16-core default configuration, Hash Join and Mergesort, PDF vs WS.
pub fn fig5(opts: &Options) -> Report {
    let base = CmpConfig::default_with_cores(16).expect("16-core default config");
    let latencies: &[u64] = if opts.quick {
        &[100, 700]
    } else {
        &[100, 300, 500, 700, 900, 1100]
    };
    let configs: Vec<CmpConfig> = latencies
        .iter()
        .map(|&lat| base.clone().with_memory_latency(lat))
        .collect();
    let mut report = Report::new("fig5", opts.effective_scale());
    for bench in opts
        .benchmarks()
        .into_iter()
        .filter(|b| *b != Benchmark::Lu)
    {
        report.merge(
            Experiment::new(bench)
                .name("fig5")
                .configs(configs.iter().cloned())
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// Figure 6: impact of task granularity on Mergesort — L2 misses per 1000
/// instructions and execution time as a function of the task working-set
/// size (8 MB down to 32 KB in the paper), on the 32-core and 16-core
/// default configurations, PDF vs WS.
///
/// The task working set of each point is encoded in the workload name
/// (`"mergesort/ws=32768"`).
pub fn fig6(opts: &Options) -> Report {
    let scale = opts.effective_scale();
    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    // Paper sweep: 8M, 4M, ..., 32K bytes of task working set; scaled down.
    let mut sizes: Vec<u64> = (0..9)
        .map(|i| ((8u64 << 20) >> i) / scale)
        .map(|b| b.max(4 * 1024))
        .collect();
    sizes.dedup();
    let core_counts: &[usize] = if opts.quick { &[16] } else { &[32, 16] };

    let workloads = sizes.into_iter().map(|ws| {
        let params = MergesortParams::new(n_items).with_task_working_set(ws);
        WorkloadSpec::fixed(format!("mergesort/ws={ws}"), mergesort::build(&params))
    });
    Experiment::named("fig6")
        .workloads(workloads)
        .cores(core_counts.to_vec())
        .schedulers(pdf_ws())
        .scale(opts.scale)
        .quick(opts.quick)
        .sequential_baseline(false)
        .parallelism(opts.parallel)
        .engine(opts.engine)
        .run()
}

/// Section 5.4: the original coarse-grained codes (serial merge / one probe
/// task per sub-partition) versus the fine-grained versions, on the 16-core
/// default configuration (the paper measured up to a 2.85× gap).
pub fn coarse_vs_fine(opts: &Options) -> Report {
    let scale = opts.effective_scale();
    let cfg = CmpConfig::default_with_cores(16).expect("default config");
    let scaled_l2 = (cfg.l2.capacity / scale).max(16 * 1024);
    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    let build_bytes = ((341u64 << 20) / scale).max(1 << 20);

    let ms_fine = mergesort::build(
        &MergesortParams::new(n_items).with_task_working_set((scaled_l2 / 32).max(16 * 1024)),
    );
    let ms_coarse = mergesort::build(&MergesortParams::new(n_items).coarse_grained());
    let hj_fine = hashjoin::build(&HashJoinParams::new(build_bytes).with_l2_bytes(scaled_l2));
    let hj_coarse = hashjoin::build(
        &HashJoinParams::new(build_bytes)
            .with_l2_bytes(scaled_l2)
            .coarse_grained(),
    );

    Experiment::named("sec54-coarse-vs-fine")
        .workload(WorkloadSpec::fixed("mergesort/fine", ms_fine))
        .workload(WorkloadSpec::fixed("mergesort/coarse", ms_coarse))
        .workload(WorkloadSpec::fixed("hashjoin/fine", hj_fine))
        .workload(WorkloadSpec::fixed("hashjoin/coarse", hj_coarse))
        .config(cfg)
        .schedulers(pdf_ws())
        .scale(opts.scale)
        .quick(opts.quick)
        .sequential_baseline(false)
        .parallelism(opts.parallel)
        .engine(opts.engine)
        .run()
}

/// A dense single-core memory-latency profile (100–1100 cycles on the
/// 1-core default configuration).  Every point shares one machine shape, so
/// under `--engine batch` each workload runs a single event-driven pass and
/// re-times it in closed form for the remaining latencies — this sweep is
/// the batch engine's honest showcase (and the harness times it both ways).
pub fn latency_profile(opts: &Options) -> Report {
    let base = CmpConfig::default_with_cores(1).expect("single-core default config");
    // The grid stays dense even in quick mode: batching makes the extra
    // latency points nearly free (each is an O(1) closed-form re-timing of
    // the recorded pass), and the single-core event side is cheap enough
    // for CI.
    let configs: Vec<CmpConfig> = (100..=1100)
        .step_by(100)
        .map(|lat| base.clone().with_memory_latency(lat))
        .collect();
    let mut report = Report::new("latency_profile", opts.effective_scale());
    for bench in opts
        .benchmarks()
        .into_iter()
        .filter(|b| *b != Benchmark::Lu)
    {
        report.merge(
            Experiment::new(bench)
                .name("latency_profile")
                .configs(configs.iter().cloned())
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .sequential_baseline(false)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// The many-core scaling profile (DESIGN.md §12): an extrapolation sweep
/// past the paper's 32-core design space.  Each core count is simulated
/// twice — a flat machine (every core sharing one L2) and a clustered one
/// (32-core clusters with private L2 slices, backed by a shared L3 twice
/// the aggregate L2 capacity) — so the constructive-sharing question of
/// the paper can be asked of both topologies at scale.  Quick mode keeps
/// 64- and 256-core points (CI tracks the 256-core clustered record);
/// the full sweep goes to 1024 cores.
pub fn scaling_profile(opts: &Options) -> Report {
    let core_counts: &[usize] = if opts.quick {
        &[64, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let mut configs: Vec<CmpConfig> = Vec::new();
    for &cores in core_counts {
        let flat = CmpConfig::many_core(cores);
        let l3_mb = (flat.l2.capacity >> 20) * 2;
        configs.push(flat.clone().clustered(cores / 32).with_l3_mb(l3_mb));
        configs.push(flat);
    }
    let mut report = Report::new("scaling_profile", opts.effective_scale());
    for bench in opts
        .benchmarks()
        .into_iter()
        .filter(|b| *b != Benchmark::Lu)
    {
        report.merge(
            Experiment::new(bench)
                .name("scaling_profile")
                .configs(configs.iter().cloned())
                .schedulers(pdf_ws())
                .scale(opts.scale)
                .quick(opts.quick)
                .sequential_baseline(false)
                .parallelism(opts.parallel)
                .engine(opts.engine)
                .run(),
        );
    }
    report
}

/// Section 5.5: the secondary benchmarks through the open workload registry
/// — Quicksort (unbalanced divide), Matmul (small working set) and Heat
/// (bandwidth-bound stencil) on the 8-core default configuration, PDF vs WS.
pub fn extras(opts: &Options) -> Report {
    Experiment::named("sec55-extras")
        .workloads(["quicksort", "matmul", "heat"])
        .cores(8)
        .schedulers(pdf_ws())
        .scale(opts.scale)
        .quick(opts.quick)
        .parallelism(opts.parallel)
        .engine(opts.engine)
        .run()
}

/// The `--workloads` sweep: whatever registry specs the command line
/// selected, on the 8-core default configuration, PDF vs WS.  `run_all`
/// substitutes this for the figure sweeps when `--workloads` is given.
pub fn workload_sweep(opts: &Options) -> Report {
    opts.experiment("workloads")
        .cores(8)
        .schedulers(pdf_ws())
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(app: Benchmark) -> Options {
        Options {
            quick: true,
            scale: 1024,
            app: Some(app),
            ..Options::default()
        }
    }

    #[test]
    fn fig3_skips_lu_and_respects_quick_filter() {
        let report = fig3(&quick_opts(Benchmark::Lu));
        assert!(report.is_empty(), "fig3 has no LU panel");
        let report = fig3(&quick_opts(Benchmark::Mergesort));
        assert!(!report.is_empty());
        assert!(report
            .records
            .iter()
            .all(|r| r.cores == 1 || r.cores % 8 == 0));
        assert!(report.records.iter().all(|r| r.config.starts_with("45nm-")));
    }

    #[test]
    fn fig4_configs_are_distinguishable_and_checkable() {
        let report = fig4(&quick_opts(Benchmark::Mergesort));
        assert!(report.records.iter().any(|r| r.config.contains("l2hit7")));
        assert!(report.records.iter().any(|r| r.config.contains("l2hit19")));
        let checks = pdf_slow_beats_ws_fast(&report);
        assert_eq!(checks.len(), 1, "one workload selected");
    }

    #[test]
    fn extras_cover_the_three_secondary_benchmarks() {
        let opts = Options {
            quick: true,
            scale: 1024,
            parallel: 4,
            ..Options::default()
        };
        let report = extras(&opts);
        assert_eq!(
            report.workloads(),
            vec![
                "heat".to_string(),
                "matmul".to_string(),
                "quicksort".to_string()
            ]
        );
        assert_eq!(report.len(), 3 * 2, "PDF and WS per workload");
        assert!(report.records.iter().all(|r| r.speedup_over_seq.is_some()));
    }

    #[test]
    fn workload_sweep_honors_registry_specs() {
        let opts = Options::parse(
            [
                "--workloads",
                "matmul:n=64,heat:rows=64,cols=64",
                "--scale",
                "1024",
                "--quick",
            ]
            .into_iter()
            .map(String::from),
        );
        let report = workload_sweep(&opts);
        assert_eq!(
            report.workloads(),
            vec![
                "heat:cols=64,rows=64".to_string(),
                "matmul:n=64".to_string()
            ]
        );
    }

    #[test]
    fn latency_profile_batch_engine_is_byte_identical_and_replayed() {
        let mut opts = quick_opts(Benchmark::Mergesort);
        let event = latency_profile(&opts);
        opts.engine = ccs_sim::SimEngine::Batch;
        let batched = latency_profile(&opts);
        assert_eq!(event.to_json(), batched.to_json());
        // One 1-core machine shape: the whole grid is one batch group.
        assert!(batched
            .records
            .iter()
            .all(|r| r.cores == 1 && r.batch_width == 11));
        assert!(event.records.iter().all(|r| r.batch_width == 0));
    }

    #[test]
    fn scaling_profile_pairs_flat_and_clustered_topologies() {
        let report = scaling_profile(&quick_opts(Benchmark::Mergesort));
        // Quick mode keeps the CI-tracked 256-core clustered+L3 point...
        assert!(report
            .records
            .iter()
            .any(|r| r.cores == 256 && r.clusters == 8 && r.l3_accesses > 0));
        // ...and its flat twin, which never touches an L3.
        assert!(report
            .records
            .iter()
            .any(|r| r.cores == 256 && r.clusters == 1 && r.l3_misses == 0));
        // No sequential baseline at these core counts.
        assert!(report.records.iter().all(|r| r.speedup_over_seq.is_none()));
    }

    #[test]
    fn fig5_sweeps_memory_latency() {
        let report = fig5(&quick_opts(Benchmark::Mergesort));
        let configs: std::collections::BTreeSet<_> =
            report.records.iter().map(|r| r.config.clone()).collect();
        assert_eq!(
            configs.len(),
            2,
            "quick mode sweeps two latencies: {configs:?}"
        );
    }
}
