//! The suite's two outputs that are not sweeps: the configuration tables
//! (Tables 1–3 plus the workload roster) and the Section 6.1 profiler
//! timing.  Each writes plain text to the writer it is given — stdout, or
//! stderr under `--json -` (see [`text_out`](crate::text_out)) — so
//! `run_all` runs them in-process next to the figure sweeps.

use std::io::{self, Write};
use std::time::Instant;

use ccs_dag::TaskGroupTree;
use ccs_experiment::Options;
use ccs_profile::{profile_all_groups, WorkingSetProfile};
use ccs_sim::area::{self, Technology};
use ccs_sim::CmpConfig;
use ccs_workloads::{mergesort, MergesortParams, WorkloadRegistry};

/// A named text section, as `run_all` runs them.
pub type Section = (&'static str, fn(&Options, &mut dyn Write) -> io::Result<()>);

/// The text sections `run_all` appends to the full suite.
pub const SECTIONS: [Section; 2] = [
    ("tables_2_3", tables_2_3),
    ("sec61_profiler_speed", sec61_profiler_speed),
];

/// Table 1 (common parameters), Table 2 (default configurations) and
/// Table 3 (45 nm single-technology configurations), both as published and
/// as derived by the area/latency model of `ccs_sim::area`, plus the
/// workload roster: every kernel registered in the open
/// [`WorkloadRegistry`] — the three paper benchmarks *and* the Section 5.5
/// extras — with its description.  The tables do not depend on `_opts`.
pub fn tables_2_3(_opts: &Options, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Table 1: common parameters ==")?;
    let l1 = ccs_cache::CacheConfig::paper_l1();
    let mem = ccs_cache::MemoryConfig::paper_default();
    writeln!(
        out,
        "Private L1 cache : {} KB, {}-byte line, {}-way, {}-cycle hit",
        l1.capacity / 1024,
        l1.line_size,
        l1.associativity,
        l1.hit_latency
    )?;
    writeln!(
        out,
        "Shared  L2 cache : 128-byte line, configuration-dependent"
    )?;
    writeln!(
        out,
        "Main memory      : latency {} cycles, service rate {} cycles",
        mem.latency, mem.service_interval
    )?;
    writeln!(out)?;

    writeln!(
        out,
        "== Table 2: default (scaling technology) configurations =="
    )?;
    writeln!(out, "cores\ttech\tL2_MB\tassoc\thit_cycles\tmodel_L2_MB")?;
    for cfg in CmpConfig::default_configs() {
        let model = area::l2_capacity_mb(cfg.technology, cfg.num_cores as u32)
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            cfg.num_cores,
            cfg.technology,
            cfg.l2.capacity >> 20,
            cfg.l2.associativity,
            cfg.l2.hit_latency,
            model
        )?;
    }
    writeln!(out)?;

    writeln!(
        out,
        "== Table 3: single technology (45 nm) configurations =="
    )?;
    writeln!(
        out,
        "cores\tL2_MB\tassoc\thit_cycles\tmodel_L2_MB\tmodel_hit"
    )?;
    for cfg in CmpConfig::single_tech_45nm() {
        let model_mb = area::l2_capacity_mb(Technology::Nm45, cfg.num_cores as u32).unwrap_or(0);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            cfg.num_cores,
            cfg.l2.capacity >> 20,
            cfg.l2.associativity,
            cfg.l2.hit_latency,
            model_mb,
            area::l2_hit_latency(cfg.l2.capacity >> 20)
        )?;
    }
    writeln!(out)?;

    writeln!(
        out,
        "== Registered workloads (select with --workloads name:key=value,...) =="
    )?;
    writeln!(out, "name\tdescription")?;
    let registry = WorkloadRegistry::global();
    for name in registry.names() {
        writeln!(
            out,
            "{}\t{}",
            name,
            registry.describe(&name).unwrap_or_default()
        )?;
    }
    Ok(())
}

/// Section 6.1: the one-pass `LruTree` working-set profiler versus the
/// multi-pass `SetAssoc` baseline on a scaled-down Mergesort trace, with
/// the average number of times `SetAssoc` re-visits each record.
///
/// The paper profiles a Mergesort trace of 2.85 billion references with
/// over 190,000 task groups and measures 253 minutes for SetAssoc vs 13.4
/// minutes for LruTree (an 18× improvement), the gap coming from SetAssoc
/// re-visiting every record once per task-group-tree level (22× on
/// average).
pub fn sec61_profiler_speed(opts: &Options, out: &mut dyn Write) -> io::Result<()> {
    let scale = opts.effective_scale();
    let n_items = ((32u64 << 20) / scale).max(1 << 14);
    let params = MergesortParams::new(n_items)
        .with_task_working_set(((1u64 << 20) / scale.max(1)).max(8 * 1024));
    let comp = mergesort::build(&params);
    let tree = TaskGroupTree::from_computation(&comp);
    let total_refs = comp.total_refs();
    writeln!(
        out,
        "# Section 6.1 — profiling a Mergesort of {n_items} items: {} references, {} tasks, {} task groups",
        total_refs,
        comp.num_tasks(),
        tree.num_groups()
    )?;

    let sizes: Vec<u64> = (12..=26).map(|p| 1u64 << p).collect();

    let t0 = Instant::now();
    let profile = WorkingSetProfile::collect(&comp, &sizes);
    let lrutree = t0.elapsed();

    let t1 = Instant::now();
    let all = profile_all_groups(&comp, &tree, &sizes);
    let setassoc = t1.elapsed();

    // Cross-check one number so the comparison is apples-to-apples.
    let root = tree.group(tree.root());
    let direct_root_hits = all[tree.root().index()]
        .iter()
        .find(|s| s.cache_bytes == *sizes.last().unwrap())
        .map(|s| s.hits)
        .unwrap_or(0);
    let onepass_root_hits = profile.hits_in(root.rank_range(), *sizes.last().unwrap());
    assert_eq!(direct_root_hits, onepass_root_hits, "profilers disagree");

    // How many times does the multi-pass approach touch each record?
    let revisits: u64 = tree
        .iter()
        .map(|(_, g)| profile.refs_in(g.rank_range()))
        .sum();
    let revisit_factor = revisits as f64 / profile.refs_in(root.rank_range()).max(1) as f64;

    writeln!(out, "algorithm\tseconds\trefs_processed\trevisit_factor")?;
    writeln!(
        out,
        "LruTree (one pass)\t{:.3}\t{}\t1.0",
        lrutree.as_secs_f64(),
        total_refs
    )?;
    writeln!(
        out,
        "SetAssoc (per group)\t{:.3}\t{}\t{:.1}",
        setassoc.as_secs_f64(),
        revisits,
        revisit_factor
    )?;
    writeln!(
        out,
        "speedup\t{:.1}x\t\t",
        setassoc.as_secs_f64() / lrutree.as_secs_f64().max(1e-9)
    )
}
