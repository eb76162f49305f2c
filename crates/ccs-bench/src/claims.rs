//! The paper's claims this repo checks, as data.
//!
//! A [`Claim`] names the paper section it comes from and the `run_all`
//! part whose [`Report`] it reads; its predicate returns one [`Outcome`]
//! per subject (a workload, a core count).  `run_all` evaluates every
//! claim on the parts it ran, prints one `# claim` line per outcome and
//! exits with [`exit_code`] of them all.

use ccs_experiment::Report;

/// One measured subject of a [`Claim`].
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// What was measured, with the quantity (`"hashjoin pdf@19/ws@7
    /// cycles"`).
    pub subject: String,
    /// The measured value.
    pub value: f64,
    /// Whether the claim holds for this subject.
    pub holds: bool,
}

/// A claim of the paper, checked on one part's report.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// The claim's name, as its `# claim` lines print it.
    pub name: &'static str,
    /// The paper section the claim comes from.
    pub section: &'static str,
    /// The `run_all` part whose report the claim reads.
    pub part: &'static str,
    /// The predicate: one outcome per subject the report covers (none when
    /// the workload selection has no panel in the part).
    pub check: fn(&Report) -> Vec<Outcome>,
}

/// Every claim `run_all` gates on.
pub const CLAIMS: [Claim; 2] = [
    Claim {
        name: "pdf_slow_beats_ws_fast",
        section: "§5.3",
        part: "fig4_l2_hit_time",
        check: pdf_slow_beats_ws_fast,
    },
    Claim {
        name: "coarsening_within_best",
        section: "§6",
        part: "fig8_auto_coarsening",
        check: coarsening_within_best,
    },
];

/// The process exit status for a run's outcomes: 1 when any claim failed,
/// else 0.
pub fn exit_code(outcomes: &[Outcome]) -> i32 {
    if outcomes.iter().all(|o| o.holds) {
        0
    } else {
        1
    }
}

/// Section 5.3, on a Figure 4 report: PDF with the *slow* 19-cycle L2
/// still beats WS with the *fast* 7-cycle L2, because for Hash Join and
/// Mergesort the L2 hits are on par with the L2 misses, so the miss
/// penalty dominates any hit-time difference.  Per workload: the cycles of
/// PDF on the slow L2 over those of WS on the fast one, holding at most 1.
pub fn pdf_slow_beats_ws_fast(report: &Report) -> Vec<Outcome> {
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
            Some(Outcome {
                subject: format!("{workload} pdf@19/ws@7 cycles"),
                value: pdf_slow.cycles as f64 / ws_fast.cycles.max(1) as f64,
                holds: pdf_slow.cycles <= ws_fast.cycles,
            })
        })
        .collect()
}

/// Section 6, on a Figure 8 report: the automatically coarsened
/// `mergesort/actual` is within 5% of the best of the three schemes.  Per
/// core count, in report order: `actual` cycles over the best.
pub fn coarsening_within_best(report: &Report) -> Vec<Outcome> {
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
            Some(Outcome {
                subject: format!("{c} cores actual/best cycles"),
                value: ratio,
                holds: ratio <= 1.05,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_experiment::RunRecord;

    /// A hand-built record with every metric but `cycles` zeroed.
    fn record(
        workload: String,
        config: String,
        cores: usize,
        scheduler: &str,
        cycles: u64,
    ) -> RunRecord {
        RunRecord {
            workload,
            config,
            cores,
            clusters: 1,
            scheduler: scheduler.into(),
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
        }
    }

    /// A hand-built Figure 8 report: one `mergesort/<scheme>` record per
    /// `(cores, scheme, cycles)`.
    fn fig8_report(points: &[(usize, &str, u64)]) -> Report {
        let mut report = Report::new("fig8", 32);
        for &(cores, scheme, cycles) in points {
            report.records.push(record(
                format!("mergesort/{scheme}"),
                format!("default-{cores}/32"),
                cores,
                "pdf",
                cycles,
            ));
        }
        report
    }

    /// The `(value, holds)` pairs of `outcomes`.
    fn values(outcomes: Vec<Outcome>) -> Vec<(f64, bool)> {
        outcomes.into_iter().map(|o| (o.value, o.holds)).collect()
    }

    #[test]
    fn section_53_check_fails_when_pdf_on_the_slow_l2_is_slower() {
        let fig4_report = |pdf_slow: u64, ws_fast: u64| {
            let mut report = Report::new("fig4", 32);
            for (scheduler, hit, cycles) in [
                ("pdf", 7, 1),
                ("ws", 19, 1),
                ("pdf", 19, pdf_slow),
                ("ws", 7, ws_fast),
            ] {
                let config = format!("default-16/32-l2hit{hit}");
                report
                    .records
                    .push(record("hashjoin".into(), config, 16, scheduler, cycles));
            }
            report
        };
        let outcomes = pdf_slow_beats_ws_fast(&fig4_report(90, 100));
        assert_eq!(outcomes[0].subject, "hashjoin pdf@19/ws@7 cycles");
        assert_eq!(values(outcomes), vec![(0.9, true)]);
        assert_eq!(
            values(pdf_slow_beats_ws_fast(&fig4_report(125, 100))),
            vec![(1.25, false)]
        );
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
        let outcomes = coarsening_within_best(&report);
        assert_eq!(outcomes[1].subject, "16 cores actual/best cycles");
        assert_eq!(values(outcomes), vec![(1.0, true), (1.05, true)]);

        let report = fig8_report(&[(8, "previous", 100), (8, "dag", 90), (8, "actual", 106)]);
        let checks = values(coarsening_within_best(&report));
        assert_eq!(checks.len(), 1);
        let (ratio, within) = checks[0];
        assert!((ratio - 106.0 / 90.0).abs() < 1e-12 && !within);

        assert!(coarsening_within_best(&fig8_report(&[])).is_empty());
        let report = fig8_report(&[(8, "previous", 100), (8, "actual", 106)]);
        assert!(
            !coarsening_within_best(&report)[0].holds,
            "1.06 × best fails"
        );
    }

    #[test]
    fn every_claim_reads_a_part_run_all_runs() {
        let parts: Vec<&str> = crate::parts::parts().iter().map(|p| p.name).collect();
        for claim in CLAIMS {
            assert!(
                parts.contains(&claim.part),
                "claim {} reads unknown part {}",
                claim.name,
                claim.part
            );
        }
    }

    #[test]
    fn a_failing_outcome_makes_the_exit_status_non_zero() {
        let outcome = |holds| Outcome {
            subject: "x".into(),
            value: 1.0,
            holds,
        };
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(exit_code(&[outcome(true), outcome(true)]), 0);
        assert_ne!(exit_code(&[outcome(true), outcome(false)]), 0);
    }
}
