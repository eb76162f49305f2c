//! Run records and serialisable experiment reports.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use ccs_sched::SchedulerSpec;
use ccs_sim::SimResult;

use crate::json::{self, Json, JsonError};

/// One measured point: a workload simulated on one configuration under one
/// scheduler.
///
/// Every field is a deterministic function of the simulated configuration
/// *except* the execution annotations [`compile_ms`](RunRecord::compile_ms)
/// (wall-clock timing) and [`batch_width`](RunRecord::batch_width) (how the
/// batch engine grouped the point): they are carried in memory and in the
/// CSV emission, but excluded from equality and from the JSON trajectory so
/// reports stay byte-identical across repeat, parallel and cross-engine
/// runs (a guarantee CI and the test suite compare literally).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Workload name (`"mergesort"`, `"lu"`, a custom name, …).
    pub workload: String,
    /// Configuration name (after scaling, e.g. `"default-16/64"`).
    pub config: String,
    /// Number of cores in the configuration.
    pub cores: usize,
    /// Number of L2 clusters (1 = one L2 shared by every core).
    pub clusters: usize,
    /// Scheduler registry name (`"pdf"`, `"ws"`, `"ws-rand"`, custom).
    pub scheduler: String,
    /// RNG seed the scheduler was instantiated with, if any.
    pub seed: Option<u64>,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Total instructions executed.
    pub instructions: u64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Aggregate L1 accesses (all cores).
    pub l1_accesses: u64,
    /// Aggregate L1 misses (all cores).
    pub l1_misses: u64,
    /// Shared-L2 accesses.
    pub l2_accesses: u64,
    /// Shared-L2 misses.
    pub l2_misses: u64,
    /// L2 misses per 1000 instructions — the paper's main cache metric.
    pub l2_mpki: f64,
    /// Shared-L3 accesses (0 when the configuration has no L3).
    pub l3_accesses: u64,
    /// Shared-L3 misses (0 when the configuration has no L3).
    pub l3_misses: u64,
    /// Fraction of cycles the memory controller was busy.
    pub bandwidth_utilization: f64,
    /// Off-chip traffic in bytes (fills + write-backs).
    pub off_chip_bytes: u64,
    /// Heap footprint of the simulated computation's trace arena
    /// (structure-of-arrays op lanes) in bytes.  Deterministic per build.
    pub trace_bytes: u64,
    /// Estimated peak host allocation for this run: trace arena + compiled
    /// line stream + geometry lanes + CSR DAG.  Deterministic per build
    /// and engine-independent (both engines share the same inputs).
    pub peak_alloc_estimate: u64,
    /// Milliseconds this record spent compiling the line stream and the
    /// geometry set lanes before simulating — the *incremental* cost
    /// (≈ 0 when an earlier record of the same build already compiled
    /// them; see DESIGN.md §9).  Wall-clock: excluded from equality and
    /// JSON (see the type docs), emitted in the CSV.
    pub compile_ms: f64,
    /// How many sweep points shared this record's batched group under the
    /// batch engine (0 = not batched, 1 = a singleton group).  An execution
    /// annotation like `compile_ms`: the simulated metrics are engine-
    /// independent, so this is excluded from equality and JSON and emitted
    /// in the CSV only (see DESIGN.md §11).
    pub batch_width: u64,
    /// Speedup over the matching sequential baseline, when one was run.
    pub speedup_over_seq: Option<f64>,
}

impl RunRecord {
    /// Build a record from a simulation result.
    pub fn from_sim(
        workload: impl Into<String>,
        spec: &SchedulerSpec,
        result: &SimResult,
        sequential: Option<&SimResult>,
    ) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            config: result.config_name.clone(),
            cores: result.num_cores,
            clusters: result.clusters,
            scheduler: spec.name.clone(),
            seed: spec.params.seed,
            cycles: result.cycles,
            instructions: result.instructions,
            tasks: result.tasks,
            l1_accesses: result.l1.accesses,
            l1_misses: result.l1.misses,
            l2_accesses: result.l2.accesses,
            l2_misses: result.l2.misses,
            l2_mpki: result.l2_mpki(),
            l3_accesses: result.l3.accesses,
            l3_misses: result.l3.misses,
            bandwidth_utilization: result.bandwidth_utilization,
            off_chip_bytes: result.off_chip_bytes(),
            trace_bytes: 0,
            peak_alloc_estimate: 0,
            compile_ms: 0.0,
            batch_width: 0,
            speedup_over_seq: sequential.map(|seq| result.speedup_over(seq)),
        }
    }

    /// Attach the memory-footprint metrics (filled in by the experiment
    /// layer, which owns the built computation).
    pub fn with_footprint(mut self, trace_bytes: u64, peak_alloc_estimate: u64) -> RunRecord {
        self.trace_bytes = trace_bytes;
        self.peak_alloc_estimate = peak_alloc_estimate;
        self
    }

    /// Attach the stream/geometry compilation time (filled in by the
    /// experiment layer, which performs the prebuild).
    pub fn with_compile_ms(mut self, compile_ms: f64) -> RunRecord {
        self.compile_ms = compile_ms;
        self
    }

    /// Attach the batched-group width (filled in by the experiment layer's
    /// sweep planner when the batch engine grouped this record's point).
    pub fn with_batch_width(mut self, batch_width: u64) -> RunRecord {
        self.batch_width = batch_width;
        self
    }

    /// Display label for tables: the scheduler name, with the seed attached
    /// when there is one (`"ws-rand@7"`).
    pub fn scheduler_label(&self) -> String {
        match self.seed {
            Some(seed) => format!("{}@{}", self.scheduler, seed),
            None => self.scheduler.clone(),
        }
    }

    /// Percentage reduction of L2 MPKI relative to another record (positive =
    /// this record misses less), the Section 5.1 headline metric.  Returns
    /// 0.0 when `other` has no misses at all.
    pub fn mpki_reduction_vs(&self, other: &RunRecord) -> f64 {
        if other.l2_mpki == 0.0 {
            0.0
        } else {
            (other.l2_mpki - self.l2_mpki) / other.l2_mpki * 100.0
        }
    }

    /// The record as a JSON value — the element shape of
    /// [`Report::to_json`]'s `records` array.  `compile_ms` is excluded
    /// (see the type docs), so serialisation is deterministic per
    /// simulated point.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("workload", self.workload.as_str().into()),
            ("config", self.config.as_str().into()),
            ("cores", self.cores.into()),
            ("clusters", self.clusters.into()),
            ("scheduler", self.scheduler.as_str().into()),
            ("seed", self.seed.into()),
            ("cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
            ("tasks", self.tasks.into()),
            ("l1_accesses", self.l1_accesses.into()),
            ("l1_misses", self.l1_misses.into()),
            ("l2_accesses", self.l2_accesses.into()),
            ("l2_misses", self.l2_misses.into()),
            ("l2_mpki", self.l2_mpki.into()),
            ("l3_accesses", self.l3_accesses.into()),
            ("l3_misses", self.l3_misses.into()),
            ("bandwidth_utilization", self.bandwidth_utilization.into()),
            ("off_chip_bytes", self.off_chip_bytes.into()),
            ("trace_bytes", self.trace_bytes.into()),
            ("peak_alloc_estimate", self.peak_alloc_estimate.into()),
            ("speedup_over_seq", self.speedup_over_seq.into()),
        ])
    }

    /// Parse a record back from [`RunRecord::to_json`] output
    /// (`to_json(from_json(v)) == v` — the round-trip is lossless for every
    /// serialised field; `compile_ms` comes back as 0.0).
    pub fn from_json(value: &Json) -> Result<RunRecord, JsonError> {
        let str_field = |key: &str| -> Result<String, JsonError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| field_error(key, "string"))
        };
        let u64_field = |key: &str| -> Result<u64, JsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| field_error(key, "u64"))
        };
        let f64_field = |key: &str| -> Result<f64, JsonError> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| field_error(key, "number"))
        };
        let opt = |key: &str, of: fn(&Json) -> Option<f64>| -> Option<f64> {
            value.get(key).filter(|v| !v.is_null()).and_then(of)
        };
        Ok(RunRecord {
            workload: str_field("workload")?,
            config: str_field("config")?,
            cores: u64_field("cores")? as usize,
            clusters: u64_field("clusters")? as usize,
            scheduler: str_field("scheduler")?,
            seed: value
                .get("seed")
                .filter(|v| !v.is_null())
                .and_then(Json::as_u64),
            cycles: u64_field("cycles")?,
            instructions: u64_field("instructions")?,
            tasks: u64_field("tasks")? as usize,
            l1_accesses: u64_field("l1_accesses")?,
            l1_misses: u64_field("l1_misses")?,
            l2_accesses: u64_field("l2_accesses")?,
            l2_misses: u64_field("l2_misses")?,
            l2_mpki: f64_field("l2_mpki")?,
            l3_accesses: u64_field("l3_accesses")?,
            l3_misses: u64_field("l3_misses")?,
            bandwidth_utilization: f64_field("bandwidth_utilization")?,
            off_chip_bytes: u64_field("off_chip_bytes")?,
            trace_bytes: u64_field("trace_bytes")?,
            peak_alloc_estimate: u64_field("peak_alloc_estimate")?,
            // Not serialised (see the type docs): a parsed record carries
            // no execution annotations.
            compile_ms: 0.0,
            batch_width: 0,
            speedup_over_seq: opt("speedup_over_seq", Json::as_f64),
        })
    }
}

impl PartialEq for RunRecord {
    /// Equality over the *deterministic* fields only: `compile_ms` is a
    /// wall-clock annotation (see the type docs) and must not make two
    /// records of the same simulated point compare unequal.
    fn eq(&self, other: &RunRecord) -> bool {
        self.workload == other.workload
            && self.config == other.config
            && self.cores == other.cores
            && self.clusters == other.clusters
            && self.scheduler == other.scheduler
            && self.seed == other.seed
            && self.cycles == other.cycles
            && self.instructions == other.instructions
            && self.tasks == other.tasks
            && self.l1_accesses == other.l1_accesses
            && self.l1_misses == other.l1_misses
            && self.l2_accesses == other.l2_accesses
            && self.l2_misses == other.l2_misses
            && self.l2_mpki == other.l2_mpki
            && self.l3_accesses == other.l3_accesses
            && self.l3_misses == other.l3_misses
            && self.bandwidth_utilization == other.bandwidth_utilization
            && self.off_chip_bytes == other.off_chip_bytes
            && self.trace_bytes == other.trace_bytes
            && self.peak_alloc_estimate == other.peak_alloc_estimate
            && self.speedup_over_seq == other.speedup_over_seq
    }
}

fn field_error(key: &str, expected: &str) -> JsonError {
    JsonError {
        message: format!("record field {key:?} missing or not a {expected}"),
        offset: 0,
    }
}

/// The aggregated outcome of an [`Experiment`](crate::Experiment) run:
/// experiment metadata plus one [`RunRecord`] per measured point, with
/// JSON/CSV emission for machine-readable trajectories.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Experiment name (e.g. `"fig2"`).
    pub name: String,
    /// The input/cache scale divisor the runs used (1 = paper sizes).
    pub scale: u64,
    /// The measured points, in run order.
    pub records: Vec<RunRecord>,
}

impl Report {
    /// An empty report.
    pub fn new(name: impl Into<String>, scale: u64) -> Report {
        Report {
            name: name.into(),
            scale,
            records: Vec::new(),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the report has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append another report's records (metadata keeps `self`'s name).
    ///
    /// # Panics
    /// Panics if both reports carry records and their scales disagree —
    /// records from different scales describe different input/cache sizes
    /// and must not be silently pooled under one `scale` field.
    pub fn merge(&mut self, other: Report) {
        if self.records.is_empty() && self.scale == 0 {
            self.scale = other.scale;
        }
        assert!(
            other.records.is_empty() || self.scale == other.scale,
            "merging reports with different scales ({} vs {})",
            self.scale,
            other.scale
        );
        self.records.extend(other.records);
    }

    /// Records for one workload.
    pub fn for_workload<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a RunRecord> {
        self.records.iter().filter(move |r| r.workload == workload)
    }

    /// Records for one scheduler (registry name).
    pub fn for_scheduler<'a>(&'a self, scheduler: &'a str) -> impl Iterator<Item = &'a RunRecord> {
        self.records
            .iter()
            .filter(move |r| r.scheduler == scheduler)
    }

    /// The distinct workload names, sorted.
    pub fn workloads(&self) -> Vec<String> {
        let set: BTreeSet<_> = self.records.iter().map(|r| r.workload.clone()).collect();
        set.into_iter().collect()
    }

    /// The distinct scheduler names, sorted.
    pub fn schedulers(&self) -> Vec<String> {
        let set: BTreeSet<_> = self.records.iter().map(|r| r.scheduler.clone()).collect();
        set.into_iter().collect()
    }

    /// Serialise to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Json::object([
            ("name", self.name.as_str().into()),
            ("scale", self.scale.into()),
            (
                "records",
                Json::Array(self.records.iter().map(RunRecord::to_json).collect()),
            ),
        ])
        .to_string_pretty()
    }

    /// Parse a report back from [`Report::to_json`] output.
    pub fn from_json(text: &str) -> Result<Report, JsonError> {
        let doc = json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| field_error("name", "string"))?
            .to_string();
        let scale = doc
            .get("scale")
            .and_then(Json::as_u64)
            .ok_or_else(|| field_error("scale", "u64"))?;
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| field_error("records", "array"))?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            name,
            scale,
            records,
        })
    }

    /// Write [`Report::to_json`] to a file.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Serialise all fields as CSV (header + one line per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "workload,config,cores,clusters,scheduler,seed,cycles,instructions,tasks,\
             l1_accesses,l1_misses,l2_accesses,l2_misses,l2_mpki,\
             l3_accesses,l3_misses,\
             bandwidth_utilization,off_chip_bytes,trace_bytes,\
             peak_alloc_estimate,compile_ms,batch_width,speedup_over_seq\n",
        );
        for r in &self.records {
            let seed = r.seed.map(|s| s.to_string()).unwrap_or_default();
            let speedup = r
                .speedup_over_seq
                .map(|s| format!("{s:.6}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{:.6},{},{},{},{:.3},{},{}\n",
                csv_escape(&r.workload),
                csv_escape(&r.config),
                r.cores,
                r.clusters,
                csv_escape(&r.scheduler),
                seed,
                r.cycles,
                r.instructions,
                r.tasks,
                r.l1_accesses,
                r.l1_misses,
                r.l2_accesses,
                r.l2_misses,
                r.l2_mpki,
                r.l3_accesses,
                r.l3_misses,
                r.bandwidth_utilization,
                r.off_chip_bytes,
                r.trace_bytes,
                r.peak_alloc_estimate,
                r.compile_ms,
                r.batch_width,
                speedup,
            ));
        }
        out
    }

    /// The standard tab-separated table `run_all` prints per sweep — the
    /// same columns the seed harness used, one row per record.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("workload\tconfig\tcores\tsched\tcycles\tspeedup\tl2_mpki\tbw_util\n");
        for r in &self.records {
            let speedup = r
                .speedup_over_seq
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.3}\n",
                r.workload,
                r.config,
                r.cores,
                r.scheduler_label(),
                r.cycles,
                speedup,
                r.l2_mpki,
                r.bandwidth_utilization,
            ));
        }
        out
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(scheduler: &str, seed: Option<u64>) -> RunRecord {
        RunRecord {
            workload: "mergesort".into(),
            config: "default-8/64".into(),
            cores: 8,
            clusters: 1,
            scheduler: scheduler.into(),
            seed,
            cycles: 123_456_789,
            instructions: 987_654,
            tasks: 321,
            l1_accesses: 1_000_000,
            l1_misses: 50_000,
            l2_accesses: 50_000,
            l2_misses: 7_500,
            l2_mpki: 7.593,
            l3_accesses: 0,
            l3_misses: 0,
            bandwidth_utilization: 0.25,
            off_chip_bytes: 960_000,
            trace_bytes: 48_000,
            peak_alloc_estimate: 96_000,
            compile_ms: 0.0,
            batch_width: 0,
            speedup_over_seq: Some(5.5),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut report = Report::new("fig2", 32);
        report.records.push(sample_record("pdf", None));
        report.records.push(sample_record("ws-rand", Some(7)));
        let mut no_baseline = sample_record("ws", None);
        no_baseline.speedup_over_seq = None;
        report.records.push(no_baseline);

        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn compile_ms_is_an_annotation_not_an_identity() {
        // Two records of the same simulated point must compare equal and
        // serialise identically even when their wall-clock compile costs
        // differ (one paid the compile, the other reused the memo) — the
        // byte-identity of reports across repeat/parallel/engine runs
        // depends on it.  The CSV, which carries no identity guarantee,
        // does include the column.
        let cold = sample_record("pdf", None)
            .with_compile_ms(12.5)
            .with_batch_width(9);
        let warm = sample_record("pdf", None).with_compile_ms(0.001);
        assert_eq!(cold, warm);
        let mut a = Report::new("x", 1);
        a.records.push(cold);
        let mut b = Report::new("x", 1);
        b.records.push(warm);
        assert_eq!(a.to_json(), b.to_json());
        assert!(!a.to_json().contains("compile_ms"));
        assert!(!a.to_json().contains("batch_width"));
        assert!(a.to_csv().starts_with("workload,"));
        assert!(a.to_csv().contains(",12.500,9,"));
        // Parsed records carry no annotations.
        let parsed = Report::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed.records[0].compile_ms, 0.0);
        assert_eq!(parsed.records[0].batch_width, 0);
    }

    #[test]
    fn csv_and_tsv_have_one_line_per_record_plus_header() {
        let mut report = Report::new("x", 1);
        report.records.push(sample_record("pdf", None));
        report.records.push(sample_record("ws-rand", Some(3)));
        assert_eq!(report.to_csv().lines().count(), 3);
        assert_eq!(report.to_tsv().lines().count(), 3);
        assert!(report.to_tsv().contains("ws-rand@3"));
        assert!(report.to_csv().starts_with("workload,"));
    }

    #[test]
    fn merge_concatenates_records() {
        let mut a = Report::new("all", 32);
        a.records.push(sample_record("pdf", None));
        let mut b = Report::new("other", 32);
        b.records.push(sample_record("ws", None));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name, "all");
        assert_eq!(a.schedulers(), vec!["pdf".to_string(), "ws".to_string()]);
    }

    #[test]
    fn filters_and_label() {
        let mut report = Report::new("x", 1);
        report.records.push(sample_record("pdf", None));
        report.records.push(sample_record("ws-rand", Some(9)));
        assert_eq!(report.for_scheduler("pdf").count(), 1);
        assert_eq!(report.for_workload("mergesort").count(), 2);
        assert_eq!(report.for_workload("lu").count(), 0);
        assert_eq!(report.records[1].scheduler_label(), "ws-rand@9");
        assert_eq!(report.workloads(), vec!["mergesort".to_string()]);
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json(r#"{"name": "x", "scale": 1, "records": [{}]}"#).is_err());
    }
}
