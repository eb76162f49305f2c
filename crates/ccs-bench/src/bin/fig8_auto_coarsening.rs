//! Figure 8: effectiveness of the automatic task-selection (coarsening)
//! scheme on Mergesort, for the 32-, 16- and 8-core default configurations.
//!
//! Three schemes are compared, each normalised to the best of the three:
//!
//! * `previous` — the manually selected task sizes used in Section 5;
//! * `cache/(2*cores) dag` — the automatic selection applied by re-grouping
//!   the finest-grain trace into coarse tasks (the coarse task still contains
//!   the parallel-code instruction overheads);
//! * `cache/(2*cores) actual` — the automatic selection applied by
//!   regenerating the workload at the recommended granularity.
//!
//! The paper finds the "actual" bars within 5% of the best in all cases.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin fig8_auto_coarsening -- [--scale N]
//! ```

use ccs_bench::run_sim;
use ccs_dag::TaskGroupTree;
use ccs_experiment::Options;
use ccs_profile::{apply_coarsening, coarsen, CoarsenTarget, WorkingSetProfile};
use ccs_sim::CmpConfig;
use ccs_workloads::{mergesort, MergesortParams};

fn main() {
    let opts = Options::from_env();
    let scale = opts.effective_scale();
    eprintln!("# Figure 8 — automatic task coarsening (Mergesort), scale 1/{scale}");
    println!("cores\tscheme\tcycles\tnormalized_to_best");

    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    let core_counts: &[usize] = if opts.quick { &[8] } else { &[32, 16, 8] };

    for &cores in core_counts {
        let cfg = CmpConfig::default_with_cores(cores).expect("default config");
        let scaled_l2 = (cfg.l2.capacity / scale).max(16 * 1024);

        // Scheme 1: "previous" — the manual selection used in Section 5
        // (task working set = cache / (2 * cores) chosen by hand there too,
        // but based on the unscaled cache and a fixed 64-task merge fan-out).
        let manual = mergesort::build(
            &MergesortParams::new(n_items).with_task_working_set((scaled_l2 / 8).max(16 * 1024)),
        );

        // The finest-grained version is the input to the automatic scheme.
        let finest_ws = (scaled_l2 / 256).max(8 * 1024);
        let finest =
            mergesort::build(&MergesortParams::new(n_items).with_task_working_set(finest_ws));
        let tree = TaskGroupTree::from_computation(&finest);
        let sizes: Vec<u64> = (12..=27).map(|p| 1u64 << p).collect();
        let profile = WorkingSetProfile::collect(&finest, &sizes);
        let target = CoarsenTarget {
            cache_bytes: scaled_l2,
            num_cores: cores,
        };
        let selection = coarsen(&profile, &tree, target);

        // Scheme 2: "dag" — the same finest-grain trace re-grouped.
        let dag_comp = apply_coarsening(&finest, &tree, &selection);

        // Scheme 3: "actual" — regenerate the workload at the recommended
        // granularity (working set = cache/(2*cores), the stop criterion's
        // per-child budget).
        let actual = mergesort::build(
            &MergesortParams::new(n_items)
                .with_task_working_set(target.budget_bytes().max(8 * 1024)),
        );

        let mut rows = Vec::new();
        for (scheme, comp) in [
            ("previous", &manual),
            ("cache/(2*cores) dag", &dag_comp),
            ("cache/(2*cores) actual", &actual),
        ] {
            let r = run_sim(comp, &cfg, &opts, "pdf");
            rows.push((scheme.to_string(), r.cycles));
        }
        let best = rows.iter().map(|(_, c)| *c).min().unwrap().max(1);
        for (scheme, cycles) in rows {
            println!(
                "{}\t{}\t{}\t{:.3}",
                cores,
                scheme,
                cycles,
                cycles as f64 / best as f64
            );
        }
        eprintln!(
            "#  {cores} cores: {} fine tasks coarsened into {} tasks (budget {} KB)",
            finest.num_tasks(),
            selection.num_coarse_tasks(),
            target.budget_bytes() / 1024
        );
    }
}
