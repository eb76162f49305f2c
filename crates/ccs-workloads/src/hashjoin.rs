//! Hash Join workload (Section 4.2).
//!
//! Models the join phase of a state-of-the-art database hash join
//! (the paper's reference \[15\]):
//! a pair of build/probe partitions that together fit in the join's memory
//! buffer is divided into *sub-partitions* whose hash table fits in the L2
//! cache.  For each sub-partition the build records are inserted into a hash
//! table, which is then probed by the matching probe records; matching pairs
//! are concatenated into the output.
//!
//! The original code used **one thread per sub-partition**; the paper's
//! fine-grained version further splits the probe procedure of each
//! sub-partition into multiple parallel tasks — those tasks share the
//! sub-partition's hash table, which is exactly the constructive-sharing
//! opportunity PDF exploits.  Set [`HashJoinParams::probe_tasks_per_subpartition`]
//! to 1 (or call [`HashJoinParams::coarse_grained`]) to reproduce the original
//! coarse version.
//!
//! Record layout follows the paper: 100-byte records, 4-byte join keys, and
//! every build record matches exactly two probe records.

use ccs_dag::{AddressSpace, CallSite, Computation, ComputationBuilder, GroupMeta};

/// Instruction-cost constants per record.
const BUILD_INSTR_PER_RECORD: u64 = 40;
const PROBE_INSTR_PER_RECORD: u64 = 60;
const OUTPUT_INSTR_PER_RECORD: u64 = 10;

/// Parameters of the Hash Join workload.
#[derive(Clone, Debug)]
pub struct HashJoinParams {
    /// Total bytes of the build partition.
    pub build_bytes: u64,
    /// Bytes per record (build and probe) — 100 in the paper.
    pub record_bytes: u64,
    /// Probe records per build record — 2 in the paper.
    pub probe_per_build: u64,
    /// Bytes of build data per sub-partition (chosen to fit the hash table in
    /// the L2 cache).
    pub sub_partition_bytes: u64,
    /// Number of parallel probe tasks per sub-partition (the fine-grained
    /// threading of Section 4.2); 1 reproduces the original coarse version.
    pub probe_tasks_per_subpartition: u64,
    /// Hash-table space per byte of build data (keys + pointers + padding).
    pub hash_table_overhead_num: u64,
    /// Denominator of the overhead fraction.
    pub hash_table_overhead_den: u64,
    /// Cache-line size for trace generation.
    pub line_size: u64,
    /// Seed for the pseudo-random probe access pattern.
    pub seed: u64,
}

impl HashJoinParams {
    /// Defaults mirroring the paper: 100-byte records, 4-byte keys, 1:2
    /// build/probe matching, 16 probe tasks per sub-partition.
    pub fn new(build_bytes: u64) -> Self {
        HashJoinParams {
            build_bytes,
            record_bytes: 100,
            probe_per_build: 2,
            sub_partition_bytes: (build_bytes / 16).max(64 * 1024),
            probe_tasks_per_subpartition: 16,
            hash_table_overhead_num: 1,
            hash_table_overhead_den: 4,
            line_size: 128,
            seed: 0x5EED_1234,
        }
    }

    /// Paper-proportional parameters scaled down by `scale` (1 = the paper's
    /// ~341 MB build partition), with sub-partitions sized for an L2 of
    /// `l2_bytes`.  The single authority for how Hash Join scales — used by
    /// the workload registry.
    pub fn scaled(scale: u64, l2_bytes: u64) -> Self {
        let scale = scale.max(1);
        let build_bytes = ((341u64 << 20) / scale).max(1 << 20);
        HashJoinParams::new(build_bytes).with_l2_bytes(l2_bytes)
    }

    /// Size the sub-partitions so their hash table fits in a cache of
    /// `l2_bytes` (the paper divides each partition into cache-sized
    /// sub-partitions).
    pub fn with_l2_bytes(mut self, l2_bytes: u64) -> Self {
        // Hash table bytes = build bytes * overhead; aim for ~half the cache
        // so the probe stream and output still have room.
        let target = l2_bytes / 2;
        let build = target * self.hash_table_overhead_den
            / (self.hash_table_overhead_den + self.hash_table_overhead_num);
        self.sub_partition_bytes = build.clamp(32 * 1024, self.build_bytes.max(32 * 1024));
        self
    }

    /// One probe task per sub-partition — the original coarse-grained code.
    pub fn coarse_grained(mut self) -> Self {
        self.probe_tasks_per_subpartition = 1;
        self
    }

    /// Total probe bytes.
    pub fn probe_bytes(&self) -> u64 {
        self.build_bytes * self.probe_per_build
    }

    /// Number of build records.
    pub fn build_records(&self) -> u64 {
        self.build_bytes / self.record_bytes
    }

    /// Hash-table bytes for one sub-partition.
    pub fn hash_table_bytes(&self) -> u64 {
        self.sub_partition_bytes
            + self.sub_partition_bytes * self.hash_table_overhead_num / self.hash_table_overhead_den
    }
}

const BUILD_SITE: CallSite = CallSite::new("hashjoin.rs", 60);
const PROBE_SITE: CallSite = CallSite::new("hashjoin.rs", 61);

/// Build the Hash Join computation DAG and traces.
pub fn build(params: &HashJoinParams) -> Computation {
    let p = params;
    assert!(
        p.build_bytes >= p.record_bytes,
        "need at least one build record"
    );
    let mut space = AddressSpace::new();
    let build_table = space.alloc(p.build_bytes);
    let probe_table = space.alloc(p.probe_bytes());
    let output = space.alloc(p.probe_bytes() + p.build_bytes);

    let num_subs = p.build_bytes.div_ceil(p.sub_partition_bytes).max(1);
    let mut builder = ComputationBuilder::new(p.line_size);
    let mut rng_state = p.seed | 1;
    let mut rand = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let mut sub_nodes = Vec::with_capacity(num_subs as usize);
    for s in 0..num_subs {
        let build_start = s * p.sub_partition_bytes;
        let build_len = p.sub_partition_bytes.min(p.build_bytes - build_start);
        let probe_start = build_start * p.probe_per_build;
        let probe_len = build_len * p.probe_per_build;
        let ht = space.alloc(p.hash_table_bytes());
        let ht_lines = (ht.bytes / p.line_size).max(1);

        // Build task: stream the build records, scatter-write the hash table.
        let build_records = build_len / p.record_bytes;
        let mut build_rand = rand();
        let build_task = builder.strand_with_meta(
            GroupMeta::with_param("build", build_len).at(BUILD_SITE),
            |t| {
                let per_line = BUILD_INSTR_PER_RECORD * p.line_size / p.record_bytes.max(1);
                t.read_range(build_table.at(build_start), build_len, per_line);
                for _ in 0..build_records {
                    build_rand ^= build_rand << 13;
                    build_rand ^= build_rand >> 7;
                    build_rand ^= build_rand << 17;
                    let line = build_rand % ht_lines;
                    t.compute(4);
                    t.write(ht.at(line * p.line_size), 8);
                }
            },
        );

        // Probe tasks: each streams a disjoint chunk of the probe records but
        // probes the *same* hash table (the shared working set).
        let k = p.probe_tasks_per_subpartition.max(1);
        let chunk = probe_len.div_ceil(k);
        let mut probe_tasks = Vec::with_capacity(k as usize);
        for i in 0..k {
            let start = i * chunk;
            if start >= probe_len {
                break;
            }
            let len = chunk.min(probe_len - start);
            let records = (len / p.record_bytes).max(1);
            let mut task_rand = rand();
            let out_start = (probe_start + start) * 3 / 2;
            probe_tasks.push(builder.strand_with_meta(
                GroupMeta::with_param("probe", len).at(PROBE_SITE),
                |t| {
                    let stream_per_line =
                        PROBE_INSTR_PER_RECORD * p.line_size / p.record_bytes.max(1);
                    // Interleave: for each group of records, read the probe
                    // stream lines, do a dependent random read in the hash
                    // table, and write the output.
                    let lines = (len / p.line_size).max(1);
                    let records_per_line = (records / lines).max(1);
                    for l in 0..lines {
                        t.compute(stream_per_line);
                        t.read(
                            probe_table.at(probe_start + start + l * p.line_size),
                            p.line_size as u32,
                        );
                        for _ in 0..records_per_line {
                            task_rand ^= task_rand << 13;
                            task_rand ^= task_rand >> 7;
                            task_rand ^= task_rand << 17;
                            let ht_line = task_rand % ht_lines;
                            t.compute(8);
                            t.read(ht.at(ht_line * p.line_size), 8);
                        }
                        t.compute(OUTPUT_INSTR_PER_RECORD * records_per_line);
                        t.write(
                            output.at(((out_start + l * p.line_size * 3 / 2) % output.bytes)
                                & !(p.line_size - 1)),
                            p.line_size as u32,
                        );
                    }
                },
            ));
        }
        let probes = builder.par(
            probe_tasks,
            GroupMeta::with_param("probe-subpartition", probe_len).at(PROBE_SITE),
        );
        sub_nodes.push(builder.seq(
            vec![build_task, probes],
            GroupMeta::with_param("subpartition", build_len + probe_len).at(BUILD_SITE),
        ));
    }

    // The sub-partitions are independent: the original code runs one thread
    // per sub-partition, so they form a parallel composition, forked by the
    // join-phase driver task.
    let root = if sub_nodes.len() == 1 {
        sub_nodes.pop().unwrap()
    } else {
        builder.forked_par(
            sub_nodes,
            GroupMeta::with_param("join-phase", p.build_bytes + p.probe_bytes()).at(BUILD_SITE),
            64,
        )
    };
    builder.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{Dag, TaskGroupTree};

    fn small() -> HashJoinParams {
        HashJoinParams {
            build_bytes: 256 * 1024,
            sub_partition_bytes: 64 * 1024,
            probe_tasks_per_subpartition: 4,
            ..HashJoinParams::new(256 * 1024)
        }
    }

    #[test]
    fn builds_valid_dag() {
        let comp = build(&small());
        let dag = Dag::from_computation(&comp);
        dag.validate().unwrap();
        TaskGroupTree::from_computation(&comp).validate().unwrap();
        // 4 sub-partitions * (1 build + 4 probes) + 1 fork task = 21 tasks.
        assert_eq!(comp.num_tasks(), 21);
        assert_eq!(
            dag.sources().len(),
            1,
            "the join-phase driver is the only root"
        );
    }

    #[test]
    fn coarse_variant_has_one_probe_task_per_subpartition() {
        let coarse = build(&small().coarse_grained());
        assert_eq!(coarse.num_tasks(), 9);
        let fine = build(&small());
        let d_coarse = Dag::from_computation(&coarse).parallelism();
        let d_fine = Dag::from_computation(&fine).parallelism();
        assert!(
            d_fine > d_coarse,
            "fine-grained probe exposes more parallelism"
        );
    }

    #[test]
    fn probe_volume_is_twice_build_volume() {
        let p = small();
        assert_eq!(p.probe_bytes(), 2 * p.build_bytes);
        assert_eq!(p.build_records(), 256 * 1024 / 100);
    }

    #[test]
    fn l2_sizing_clamps_subpartitions() {
        let p = HashJoinParams::new(64 << 20).with_l2_bytes(4 << 20);
        assert!(p.sub_partition_bytes <= 2 << 20);
        assert!(p.sub_partition_bytes >= 32 * 1024);
        assert!(p.hash_table_bytes() > p.sub_partition_bytes);
    }

    #[test]
    fn traces_touch_build_probe_and_hash_table() {
        let comp = build(&small());
        let refs = comp.total_refs();
        // Streaming over build + probe alone would be ~(256K+512K)/128 = 6K
        // lines; hash-table probes add one reference per record.
        assert!(refs > 6_000, "got {refs}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = build(&small());
        let b = build(&small());
        assert_eq!(a.total_refs(), b.total_refs());
        assert_eq!(a.total_work(), b.total_work());
    }
}
