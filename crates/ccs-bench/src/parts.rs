//! The named parts `run_all` runs, in order, and the `--fig` selection
//! over them.
//!
//! A part is one of the paper's figures or tables: a sweep whose
//! [`Report`] `run_all` prints as TSV and merges into its JSON trajectory,
//! or a text section.  A plain run walks every part its options enable by
//! default; `--fig NAME[,NAME…]` walks exactly the named ones, always in
//! list order.

use std::io::{self, Write};

use ccs_experiment::{Options, Report};

use crate::figs;
use crate::sections::SECTIONS;

/// What a part runs.
#[derive(Clone, Copy, Debug)]
pub enum Run {
    /// A sweep: its report is printed as TSV and merged into the run's
    /// JSON.
    Sweep(fn(&Options) -> Report),
    /// A text section, written to the text output.
    Text(fn(&Options, &mut dyn Write) -> io::Result<()>),
}

/// One named part of `run_all`.
#[derive(Clone, Copy, Debug)]
pub struct Part {
    /// The part's name: its `===== name =====` header and `--fig` name.
    pub name: &'static str,
    /// What the part runs.
    pub run: Run,
    /// Whether a plain run (no `--fig`) walks this part under the options.
    pub by_default: fn(&Options) -> bool,
}

/// Every part, in the order `run_all` walks them: the figure sweeps the
/// bench harness also times ([`figs::figure_sweeps`]), Figure 8, the
/// Section 5.5 extras, then the text sections.  The full suite alone (no
/// `--quick`) runs the extras, and only with no `--app` filter, and the
/// text sections.
pub fn parts() -> Vec<Part> {
    let sweeps = figs::figure_sweeps().into_iter().map(|(name, run)| Part {
        name,
        run: Run::Sweep(run),
        by_default: |_| true,
    });
    let extra = [
        Part {
            name: "fig8_auto_coarsening",
            run: Run::Sweep(fig8),
            by_default: |_| true,
        },
        Part {
            name: "sec55_extras",
            run: Run::Sweep(figs::extras),
            by_default: |opts| !opts.quick && opts.app.is_none(),
        },
    ];
    let sections = SECTIONS.map(|(name, run)| Part {
        name,
        run: Run::Text(run),
        by_default: |opts| !opts.quick,
    });
    sweeps.chain(extra).chain(sections).collect()
}

/// Figure 8, with the coarsening analysis of each core count on stderr:
/// the report alone cannot show whether the §6 claim is vacuous (no task
/// merged).
fn fig8(opts: &Options) -> Report {
    let (report, analyses) = figs::fig8(opts);
    for a in analyses {
        eprintln!(
            "# fig8 {} cores: {} fine tasks coarsened into {} tasks (budget {:.1} KB) merged={}",
            a.cores,
            a.fine_tasks,
            a.coarse_tasks,
            a.budget_bytes as f64 / 1024.0,
            a.merged()
        );
    }
    report
}

/// The parts a `run_all` command line asks for, from the flags the shared
/// [`Options`] leave in [`Options::rest`] — `--fig` is the only one.
/// `--workloads` replaces every part with the one `workloads` sweep.
///
/// # Errors
/// A one-line message for an unknown flag, an unknown part name (listing
/// the parts), `--fig` with `--workloads`, or `--bench` with either.
pub fn select(opts: &Options) -> Result<Vec<Part>, String> {
    let mut names: Option<Vec<&str>> = None;
    let mut rest = opts.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--fig" => {
                let list = rest.next().ok_or("--fig expects NAME[,NAME…]")?;
                names.get_or_insert_with(Vec::new).extend(list.split(','));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.bench && (names.is_some() || !opts.workloads.is_empty()) {
        return Err(
            "--bench times the canonical figure sweeps and takes neither --fig nor --workloads"
                .into(),
        );
    }
    let all = parts();
    let Some(names) = names else {
        if !opts.workloads.is_empty() {
            return Ok(vec![Part {
                name: "workloads",
                run: Run::Sweep(figs::workload_sweep),
                by_default: |_| true,
            }]);
        }
        return Ok(all.into_iter().filter(|p| (p.by_default)(opts)).collect());
    };
    if !opts.workloads.is_empty() {
        return Err(
            "--fig runs the paper's parts: select a workload with --app, not --workloads".into(),
        );
    }
    if let Some(unknown) = names.iter().find(|n| !all.iter().any(|p| p.name == **n)) {
        let known: Vec<&str> = all.iter().map(|p| p.name).collect();
        return Err(format!(
            "--fig: unknown part {unknown:?}; the parts are {}",
            known.join(", ")
        ));
    }
    Ok(all
        .into_iter()
        .filter(|p| names.contains(&p.name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_args(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let opts = Options::parse(args.iter().map(|a| a.to_string()));
        select(&opts).map(|parts| parts.iter().map(|p| p.name).collect())
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = select_args(&["--quik"]).unwrap_err();
        assert_eq!(err, "unknown flag \"--quik\"");
        assert!(select_args(&["--fig"]).is_err(), "--fig needs a value");
        assert!(select_args(&["--fig", "tables_2_3", "--workloads", "lu"]).is_err());
        assert!(select_args(&["--fig", "tables_2_3", "--bench"]).is_err());
    }

    #[test]
    fn unknown_part_names_list_the_parts() {
        let err = select_args(&["--fig", "fig4_l2_hit_time,fig7"]).unwrap_err();
        assert!(err.contains("\"fig7\""), "{err}");
        for part in parts() {
            assert!(err.contains(part.name), "{err} lists {}", part.name);
        }
    }

    #[test]
    fn a_selection_runs_in_list_order() {
        assert_eq!(
            select_args(&[
                "--fig",
                "tables_2_3,fig8_auto_coarsening",
                "--fig",
                "fig2_default_configs"
            ]),
            Ok(vec![
                "fig2_default_configs",
                "fig8_auto_coarsening",
                "tables_2_3"
            ])
        );
    }

    #[test]
    fn a_plain_run_walks_the_default_parts() {
        let names = |args: &[&str]| select_args(args).unwrap();
        let quick = names(&["--quick"]);
        assert_eq!(quick.len(), figs::figure_sweeps().len() + 1);
        assert_eq!(quick.last(), Some(&"fig8_auto_coarsening"));
        assert_eq!(names(&[]).len(), parts().len());
        assert!(!names(&["--app", "lu"]).contains(&"sec55_extras"));
        assert_eq!(names(&["--workloads", "matmul"]), vec!["workloads"]);
    }
}
