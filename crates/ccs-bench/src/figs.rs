//! The paper's figure sweeps, described with the [`Experiment`] builder.
//!
//! Each function returns a serialisable [`Report`]; the binaries in
//! `src/bin/` print it as TSV and optionally emit JSON.  `run_all` runs
//! all of them in one process and merges them into one machine-readable
//! trajectory.  Figures 2–6 and the Section 5.x sweeps compare PDF with
//! WS; Figure 8 ([`fig8`]) compares three task granularities under PDF.

use std::collections::BTreeMap;

use ccs_dag::TaskGroupTree;
use ccs_experiment::{Experiment, Options, Report, WorkloadSpec};
use ccs_profile::{apply_coarsening, coarsen, CoarsenTarget, WorkingSetProfile};
use ccs_sim::CmpConfig;
use ccs_workloads::{hashjoin, mergesort, HashJoinParams, MergesortParams};

/// The experiment every sweep here starts from: `opts`' scale, quick mode,
/// parallelism and engine, with the [`Experiment`] default schedulers —
/// the PDF-vs-WS pair every figure but Figure 8 compares.
fn sweep(name: &str, opts: &Options) -> Experiment {
    Experiment::named(name)
        .scale(opts.scale)
        .quick(opts.quick)
        .parallelism(opts.parallel)
        .engine(opts.engine)
}

/// Run `exp` over `workloads` — an empty report when the selection has no
/// panel in this figure (`--app lu` on a figure without LU).
fn run_over(exp: Experiment, workloads: Vec<&str>) -> Report {
    if workloads.is_empty() {
        return Report::new(exp.report_name(), exp.effective_scale());
    }
    exp.workloads(workloads).run()
}

/// The selected paper workloads except LU, which the paper reports only in
/// Figure 2.
fn without_lu(opts: &Options) -> Vec<&'static str> {
    opts.benchmarks()
        .into_iter()
        .filter(|name| *name != "lu")
        .collect()
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
    let configs = |max_cores: usize| {
        CmpConfig::default_configs()
            .into_iter()
            .filter(move |cfg| cfg.num_cores <= max_cores && (!opts.quick || cfg.num_cores <= 8))
    };
    // The paper reports LU only up to 16 cores (the 2Kx2K input is smaller
    // than the 32-core L2), so LU runs on its own, ahead of the others.
    let (lu, others): (Vec<&str>, Vec<&str>) = opts
        .benchmarks()
        .into_iter()
        .partition(|name| *name == "lu");
    let mut report = run_over(sweep("fig2", opts).configs(configs(16)), lu);
    report.merge(run_over(sweep("fig2", opts).configs(configs(32)), others));
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
    let configs = CmpConfig::single_tech_45nm()
        .into_iter()
        .filter(|cfg| !opts.quick || cfg.num_cores % 8 == 0 || cfg.num_cores == 1);
    run_over(sweep("fig3", opts).configs(configs), without_lu(opts))
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
    run_over(sweep("fig4", opts).configs(configs), without_lu(opts))
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
    let configs = latencies
        .iter()
        .map(|&lat| base.clone().with_memory_latency(lat));
    run_over(sweep("fig5", opts).configs(configs), without_lu(opts))
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
    sweep("fig6", opts)
        .workloads(workloads)
        .cores(core_counts.to_vec())
        .sequential_baseline(false)
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

    sweep("sec54-coarse-vs-fine", opts)
        .workload(WorkloadSpec::fixed("mergesort/fine", ms_fine))
        .workload(WorkloadSpec::fixed("mergesort/coarse", ms_coarse))
        .workload(WorkloadSpec::fixed("hashjoin/fine", hj_fine))
        .workload(WorkloadSpec::fixed("hashjoin/coarse", hj_coarse))
        .config(cfg)
        .sequential_baseline(false)
        .run()
}

/// What the Section 6 coarsening analysis chose for one [`fig8`] core
/// count.
#[derive(Clone, Copy, Debug)]
pub struct Coarsened {
    /// Cores of the default configuration the analysis targeted.
    pub cores: usize,
    /// Tasks of the finest-grained Mergesort the analysis starts from.
    pub fine_tasks: usize,
    /// Tasks after coarsening: the `mergesort/dag` workload's task count.
    pub coarse_tasks: usize,
    /// The per-child working-set budget `cache / (2 * cores)`, in bytes.
    pub budget_bytes: u64,
}

impl Coarsened {
    /// Whether the analysis merged any fine-grained tasks.
    pub fn merged(&self) -> bool {
        self.coarse_tasks < self.fine_tasks
    }
}

/// Figure 8: the automatic task-selection (coarsening) scheme of Section 6
/// on Mergesort, on the 32-, 16- and 8-core default configurations (8 only
/// in quick mode), PDF only.  Three workloads per core count:
///
/// * `mergesort/previous` — the manually selected task size of Section 5;
/// * `mergesort/dag` — the finest-grained trace profiled, coarsened to the
///   `cache / (2 * cores)` budget and re-grouped (each coarse task still
///   carries the fine tasks' parallel-code overheads);
/// * `mergesort/actual` — the workload regenerated at the budget
///   granularity.
///
/// The paper finds `actual` within 5% of the best of the three — check it
/// with [`coarsening_within_best`].  Empty when the selection has no
/// Mergesort.
pub fn fig8(opts: &Options) -> Report {
    fig8_coarsened(opts).0
}

/// [`fig8`] together with what the coarsening analysis chose at each core
/// count.
pub fn fig8_coarsened(opts: &Options) -> (Report, Vec<Coarsened>) {
    let scale = opts.effective_scale();
    let mut report = Report::new("fig8", scale);
    let mut analyses = Vec::new();
    if !opts.benchmarks().contains(&"mergesort") {
        return (report, analyses);
    }
    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    let build =
        |ws: u64| mergesort::build(&MergesortParams::new(n_items).with_task_working_set(ws));
    let core_counts: &[usize] = if opts.quick { &[8] } else { &[32, 16, 8] };
    // The finest-grained version, its group tree and its working-set
    // profile, per finest task working set: when the 8 KB floor binds,
    // every core count shares one.
    let mut finest_by_ws = BTreeMap::new();
    for &cores in core_counts {
        let cfg = CmpConfig::default_with_cores(cores).expect("default config");
        let scaled_l2 = (cfg.l2.capacity / scale).max(16 * 1024);
        // The manual selection used in Section 5.
        let previous = build((scaled_l2 / 8).max(16 * 1024));
        // The finest-grained version is the input to the automatic scheme.
        let (finest, tree, profile) = finest_by_ws
            .entry((scaled_l2 / 256).max(8 * 1024))
            .or_insert_with_key(|&ws| {
                let finest = build(ws);
                let tree = TaskGroupTree::from_computation(&finest);
                let sizes: Vec<u64> = (12..=27).map(|p| 1u64 << p).collect();
                let profile = WorkingSetProfile::collect(&finest, &sizes);
                (finest, tree, profile)
            });
        let target = CoarsenTarget {
            cache_bytes: scaled_l2,
            num_cores: cores,
        };
        let selection = coarsen(profile, tree, target);
        let dag = apply_coarsening(finest, tree, &selection);
        // The budget is the stop criterion's per-child working set.
        let actual = build(target.budget_bytes().max(8 * 1024));
        analyses.push(Coarsened {
            cores,
            fine_tasks: finest.num_tasks(),
            coarse_tasks: selection.num_coarse_tasks(),
            budget_bytes: target.budget_bytes(),
        });
        let exp = sweep("fig8", opts)
            .scheduler("pdf")
            .workload(WorkloadSpec::fixed("mergesort/previous", previous))
            .workload(WorkloadSpec::fixed("mergesort/dag", dag))
            .workload(WorkloadSpec::fixed("mergesort/actual", actual))
            .cores(cores)
            .sequential_baseline(false);
        report.merge(exp.run());
    }
    (report, analyses)
}

/// The Section 6 check on a [`fig8`] report: for each core count (in
/// report order), the `mergesort/actual` cycles over the best of the three
/// schemes, and whether that ratio is within the paper's 5%.
pub fn coarsening_within_best(report: &Report) -> Vec<(usize, f64, bool)> {
    let mut cores: Vec<usize> = Vec::new();
    for r in &report.records {
        if !cores.contains(&r.cores) {
            cores.push(r.cores);
        }
    }
    cores
        .into_iter()
        .filter_map(|c| {
            let at = || report.records.iter().filter(move |r| r.cores == c);
            let actual = at().find(|r| r.workload == "mergesort/actual")?;
            let best = at().map(|r| r.cycles).min()?.max(1);
            let ratio = actual.cycles as f64 / best as f64;
            Some((c, ratio, ratio <= 1.05))
        })
        .collect()
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
    let configs = (100..=1100)
        .step_by(100)
        .map(|lat| base.clone().with_memory_latency(lat));
    let exp = sweep("latency_profile", opts)
        .configs(configs)
        .sequential_baseline(false);
    run_over(exp, without_lu(opts))
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
    let exp = sweep("scaling_profile", opts)
        .configs(configs)
        .sequential_baseline(false);
    run_over(exp, without_lu(opts))
}

/// Section 5.5: the secondary benchmarks through the open workload registry
/// — Quicksort (unbalanced divide), Matmul (small working set) and Heat
/// (bandwidth-bound stencil) on the 8-core default configuration, PDF vs WS.
pub fn extras(opts: &Options) -> Report {
    sweep("sec55-extras", opts)
        .workloads(["quicksort", "matmul", "heat"])
        .cores(8)
        .run()
}

/// The `--workloads` sweep: whatever registry specs the command line
/// selected, on the `--cores` default configurations (8 cores when none
/// are given), PDF vs WS.  `run_all` substitutes this for the figure sweeps
/// when `--workloads` is given.
pub fn workload_sweep(opts: &Options) -> Report {
    let cores = if opts.cores.is_empty() {
        vec![8]
    } else {
        opts.cores.clone()
    };
    opts.experiment("workloads")
        .cores(cores)
        .schedulers(["pdf", "ws"])
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_experiment::RunRecord;

    fn quick_opts(app: &'static str) -> Options {
        Options {
            quick: true,
            scale: 1024,
            app: Some(app),
            ..Options::default()
        }
    }

    #[test]
    fn fig3_skips_lu_and_respects_quick_filter() {
        let report = fig3(&quick_opts("lu"));
        assert!(report.is_empty(), "fig3 has no LU panel");
        let report = fig3(&quick_opts("mergesort"));
        assert!(!report.is_empty());
        assert!(report
            .records
            .iter()
            .all(|r| r.cores == 1 || r.cores % 8 == 0));
        assert!(report.records.iter().all(|r| r.config.starts_with("45nm-")));
    }

    #[test]
    fn fig4_configs_are_distinguishable_and_checkable() {
        let report = fig4(&quick_opts("mergesort"));
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
        assert!(report.records.iter().all(|r| r.cores == 8));

        // `--cores` replaces the 8-core default.
        let opts = Options::parse(
            ["--workloads", "mergesort", "--cores", "2", "--quick"]
                .into_iter()
                .map(String::from),
        );
        let report = workload_sweep(&opts);
        assert!(!report.is_empty());
        assert!(report.records.iter().all(|r| r.cores == 2));
    }

    #[test]
    fn app_and_workloads_select_identical_figure_sweeps() {
        for name in ccs_workloads::PAPER_WORKLOADS {
            let by_app = quick_opts(name);
            let by_workloads = Options::parse(
                ["--workloads", name, "--scale", "1024", "--quick"]
                    .into_iter()
                    .map(String::from),
            );
            for (sweep, run) in figure_sweeps() {
                assert_eq!(
                    run(&by_app).to_json(),
                    run(&by_workloads).to_json(),
                    "{sweep} on {name}"
                );
            }
        }
    }

    #[test]
    fn latency_profile_batch_engine_is_byte_identical_and_replayed() {
        let mut opts = quick_opts("mergesort");
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
        let report = scaling_profile(&quick_opts("mergesort"));
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

    /// A hand-built Figure 8 report: one `mergesort/<scheme>` record per
    /// `(cores, scheme, cycles)`.
    fn fig8_report(points: &[(usize, &str, u64)]) -> Report {
        let mut report = Report::new("fig8", 32);
        for &(cores, scheme, cycles) in points {
            report.records.push(RunRecord {
                workload: format!("mergesort/{scheme}"),
                config: format!("default-{cores}/32"),
                cores,
                clusters: 1,
                scheduler: "pdf".into(),
                seed: None,
                cycles,
                instructions: 1,
                tasks: 1,
                l1_accesses: 0,
                l1_misses: 0,
                l2_accesses: 0,
                l2_misses: 0,
                l2_mpki: 0.0,
                l3_accesses: 0,
                l3_misses: 0,
                bandwidth_utilization: 0.0,
                off_chip_bytes: 0,
                trace_bytes: 0,
                peak_alloc_estimate: 0,
                compile_ms: 0.0,
                batch_width: 0,
                speedup_over_seq: None,
            });
        }
        report
    }

    #[test]
    fn coarsening_check_holds_within_five_percent_of_the_best() {
        let report = fig8_report(&[
            (32, "previous", 110),
            (32, "dag", 120),
            (32, "actual", 100),
            (16, "previous", 100),
            (16, "dag", 130),
            (16, "actual", 105),
        ]);
        assert_eq!(
            coarsening_within_best(&report),
            vec![(32, 1.0, true), (16, 1.05, true)]
        );

        let report = fig8_report(&[(8, "previous", 100), (8, "dag", 90), (8, "actual", 106)]);
        let checks = coarsening_within_best(&report);
        assert_eq!(checks.len(), 1);
        let (cores, ratio, within) = checks[0];
        assert_eq!(cores, 8);
        assert!((ratio - 106.0 / 90.0).abs() < 1e-12 && !within);

        assert!(coarsening_within_best(&fig8_report(&[])).is_empty());
        let report = fig8_report(&[(8, "previous", 100), (8, "actual", 106)]);
        assert!(!coarsening_within_best(&report)[0].2, "1.06 × best fails");
    }

    #[test]
    fn quick_fig8_runs_three_granularities_under_pdf_in_any_parallelism() {
        let opts = Options {
            quick: true,
            ..Options::default()
        };
        let (report, analyses) = fig8_coarsened(&opts);
        assert_eq!(
            report.workloads(),
            vec!["mergesort/actual", "mergesort/dag", "mergesort/previous"]
        );
        assert_eq!(report.len(), 3, "one 8-core point per scheme");
        assert!(report
            .records
            .iter()
            .all(|r| r.scheduler == "pdf" && r.cores == 8));
        assert_eq!(analyses.len(), 1);
        assert_eq!(coarsening_within_best(&report).len(), 1);

        let sequential = fig8(&Options {
            parallel: 1,
            ..opts.clone()
        });
        assert_eq!(report.to_json(), sequential.to_json());
    }

    #[test]
    fn fig8_is_empty_without_mergesort() {
        let report = fig8(&quick_opts("hashjoin"));
        assert!(report.is_empty());
        assert_eq!(report.name, "fig8");
    }

    #[test]
    fn fig5_sweeps_memory_latency() {
        let report = fig5(&quick_opts("mergesort"));
        let configs: std::collections::BTreeSet<_> =
            report.records.iter().map(|r| r.config.clone()).collect();
        assert_eq!(
            configs.len(),
            2,
            "quick mode sweeps two latencies: {configs:?}"
        );
    }
}
