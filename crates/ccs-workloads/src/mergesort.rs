//! Parallel Mergesort workload (Section 4.2).
//!
//! Structured after `libpmsort` with the serial merge replaced by a *parallel
//! merge*: `k` splitting points are selected from the two sorted sub-arrays
//! (by binary search) so the merge proceeds as `k` independent chunk merges.
//!
//! The generator produces the computation DAG plus per-task cache-line-level
//! memory traces.  Sorting a sub-array of `n` bytes uses `2n` bytes of memory
//! — the input buffer and an auxiliary buffer that ping-pong between
//! recursion levels — exactly the layout Figure 1 illustrates.
//!
//! Granularity knobs (Figure 6 / Section 6.2):
//!
//! * [`MergesortParams::base_task_items`] — sub-arrays of at most this many
//!   items are sorted sequentially as a single task.  The *task working set*
//!   is twice the sub-array size (`2n` bytes);
//! * [`MergesortParams::merge_tasks_per_level`] — the aggregate number of
//!   merge tasks per recursion level (the paper's default is 64);
//! * [`MergesortParams::coarse`] — reproduce the original coarse-grained code
//!   (serial merge) used for the comparison in Section 5.4.

use ccs_dag::{
    AddressSpace, CallSite, Computation, ComputationBuilder, GroupMeta, Region, SpNodeId,
};

/// Instruction-cost constants (instructions per item) for the synthetic
/// traces.  These only affect absolute cycle counts, not the PDF/WS
/// comparison.
const SORT_INSTR_PER_ITEM_PER_LEVEL: u64 = 4;
const MERGE_INSTR_PER_ITEM: u64 = 6;
const BINARY_SEARCH_INSTR: u64 = 32;
/// Instructions charged to the strand that spawns a fork-join block.
const SPAWN_COST: u64 = 24;

/// Parameters of the Mergesort workload.
#[derive(Clone, Debug)]
pub struct MergesortParams {
    /// Number of 4-byte items to sort.
    pub n_items: u64,
    /// Bytes per item (the paper sorts 32-bit integers).
    pub item_bytes: u64,
    /// Cache-line size for trace generation.
    pub line_size: u64,
    /// Sub-arrays of at most this many items are sorted sequentially by one
    /// task.
    pub base_task_items: u64,
    /// Aggregate number of parallel-merge tasks per recursion level
    /// (the paper's footnote 5 uses 64).  Ignored when `coarse` is set.
    pub merge_tasks_per_level: u64,
    /// Use the original coarse-grained serial merge (Section 5.4's
    /// "coarse-grained original").
    pub coarse: bool,
}

impl MergesortParams {
    /// Defaults mirroring the paper's fine-grained Mergesort: 4-byte items,
    /// 128-byte lines, 64 merge tasks per level.
    pub fn new(n_items: u64) -> Self {
        MergesortParams {
            n_items,
            item_bytes: 4,
            line_size: 128,
            base_task_items: (n_items / 64).max(1024),
            merge_tasks_per_level: 64,
            coarse: false,
        }
    }

    /// Paper-proportional parameters scaled down by `scale` (1 = the paper's
    /// 32 M items), with task granularity sized for an L2 of `l2_bytes`
    /// shared by `cores` cores.  The single authority for how Mergesort
    /// scales — used by the workload registry.
    pub fn scaled(scale: u64, l2_bytes: u64, cores: usize) -> Self {
        let scale = scale.max(1);
        let n_items = ((32u64 << 20) / scale).max(1 << 14);
        let ws = (l2_bytes / (2 * cores.max(1) as u64)).max(16 * 1024);
        MergesortParams::new(n_items).with_task_working_set(ws)
    }

    /// Set the task working-set size in bytes (Figure 6's x-axis): the
    /// sequentially-sorted sub-array is half the working set, and merge tasks
    /// are sized to touch roughly the same amount of data.
    pub fn with_task_working_set(mut self, bytes: u64) -> Self {
        let items = (bytes / 2 / self.item_bytes).max(64);
        self.base_task_items = items;
        // Keep the aggregate merge-task count consistent with chunks of the
        // same size: chunks of `items` items at the top level.
        self.merge_tasks_per_level = (self.n_items / items).max(1);
        self
    }

    /// The task working-set size implied by the current granularity.
    pub fn task_working_set(&self) -> u64 {
        2 * self.base_task_items * self.item_bytes
    }

    /// Use the coarse-grained (serial merge) variant of Section 5.4.
    pub fn coarse_grained(mut self) -> Self {
        self.coarse = true;
        self
    }

    /// Total bytes of the array being sorted.
    pub fn total_bytes(&self) -> u64 {
        self.n_items * self.item_bytes
    }
}

/// Build the Mergesort computation DAG and traces.
pub fn build(params: &MergesortParams) -> Computation {
    assert!(params.n_items >= 2, "need at least two items");
    let mut space = AddressSpace::new();
    let bytes = params.total_bytes();
    // Input buffer A and auxiliary buffer B: sorting n bytes uses 2n bytes.
    let a = space.alloc(bytes);
    let b_buf = space.alloc(bytes);
    let mut builder = ComputationBuilder::new(params.line_size);
    let gen = Generator {
        params: params.clone(),
    };
    // The sorted result ends up back in the input buffer.
    let root = gen.sort(&mut builder, a, b_buf, params.n_items, false);
    builder.finish(root)
}

struct Generator {
    params: MergesortParams,
}

const SORT_SITE: CallSite = CallSite::new("mergesort.rs", 96);
const MERGE_SITE: CallSite = CallSite::new("mergesort.rs", 97);

impl Generator {
    /// Sort `n` items whose data currently lives in `src`.  If `to_other` is
    /// false the sorted result ends in `src`, otherwise in `other`.  Buffers
    /// ping-pong between levels: the recursive halves are sorted into the
    /// buffer opposite to this level's destination, and the parallel merge
    /// then merges them across into the destination.
    fn sort(
        &self,
        b: &mut ComputationBuilder,
        src: Region,
        other: Region,
        n: u64,
        to_other: bool,
    ) -> SpNodeId {
        let p = &self.params;
        let item = p.item_bytes;
        if n <= p.base_task_items {
            // Sequential mergesort of a small sub-array: O(n log n) work over
            // a 2n-byte working set (the sub-array plus its scratch half).
            let levels = (n.max(2) as f64).log2().ceil() as u64;
            let instr_per_line = SORT_INSTR_PER_ITEM_PER_LEVEL * levels * (p.line_size / item);
            return b.strand_with_meta(
                GroupMeta::with_param("seq-sort", n * item).at(SORT_SITE),
                |t| {
                    t.read_range(src.base, n * item, instr_per_line);
                    t.write_range(other.base, n * item, 1);
                    if !to_other {
                        t.read_range(other.base, n * item, 1);
                        t.write_range(src.base, n * item, 1);
                    }
                },
            );
        }

        let half = n / 2;
        let split = |r: Region| {
            (
                r.slice(0, half * item),
                r.slice(half * item, (n - half) * item),
            )
        };
        let (src_l, src_r) = split(src);
        let (oth_l, oth_r) = split(other);

        // The halves must end up in the buffer this level merges *from*,
        // which is the buffer opposite to this level's destination.
        let child_to_other = !to_other;
        let left = self.sort(b, src_l, oth_l, half, child_to_other);
        let right = self.sort(b, src_r, oth_r, n - half, child_to_other);
        let halves = b.forked_par(
            vec![left, right],
            GroupMeta::with_param("sort-halves", n * item).at(SORT_SITE),
            SPAWN_COST,
        );

        // Merge the sorted halves from `from` into `dst`.
        let (from, dst) = if to_other { (src, other) } else { (other, src) };
        let merge = self.merge(b, from, dst, n, half);
        b.seq(
            vec![halves, merge],
            GroupMeta::with_param("sort", n * item).at(SORT_SITE),
        )
    }

    /// Merge the sorted halves `[0, half)` and `[half, n)` of `from` into
    /// `dst`.
    fn merge(
        &self,
        b: &mut ComputationBuilder,
        from: Region,
        dst: Region,
        n: u64,
        half: u64,
    ) -> SpNodeId {
        let p = &self.params;
        let item = p.item_bytes;
        let merge_instr_per_line = MERGE_INSTR_PER_ITEM * (p.line_size / item);

        if p.coarse {
            // Original libpmsort behaviour: one serial merge task per level.
            return b.strand_with_meta(
                GroupMeta::with_param("serial-merge", n * item).at(MERGE_SITE),
                |t| {
                    t.read_range(from.base, n * item, merge_instr_per_line);
                    t.write_range(dst.base, n * item, 1);
                },
            );
        }

        // Number of parallel chunks for this merge: the aggregate number of
        // merge tasks per level is `merge_tasks_per_level`, and this level
        // contains `n_items / n` merges of size n.
        let merges_at_level = (p.n_items / n).max(1);
        let k = (p.merge_tasks_per_level / merges_at_level).clamp(1, (n / 2).max(1));
        let chunk = n.div_ceil(k);

        // Splitter task: k binary searches over the two halves.
        let split = b.strand_with_meta(
            GroupMeta::with_param("merge-split", n * item).at(MERGE_SITE),
            |t| {
                for i in 0..k {
                    // Binary search touches log2(half) lines of each half.
                    let steps = (half.max(2) as f64).log2().ceil() as u64;
                    let mut pos = half / 2;
                    let mut stride = half / 4;
                    for _ in 0..steps {
                        t.compute(BINARY_SEARCH_INSTR);
                        t.read(from.at((pos.min(half - 1)) * item), item as u32);
                        t.read(
                            from.at((half + (pos.min(n - half - 1))).min(n - 1) * item),
                            item as u32,
                        );
                        pos = (pos + stride + i) % half.max(1);
                        stride = (stride / 2).max(1);
                    }
                }
            },
        );

        // k parallel chunk merges: chunk i reads ~chunk items split across the
        // two halves and writes chunk items of the output.
        let mut chunks = Vec::with_capacity(k as usize);
        for i in 0..k {
            let out_start = i * chunk;
            if out_start >= n {
                break;
            }
            let out_len = chunk.min(n - out_start);
            // Approximate the input split: proportional share of each half.
            let left_start = ((out_start * half) / n).min(half - 1);
            let left_len = ((out_len * half) / n + 1).min(half - left_start).max(1);
            let right_start = (half + (out_start * (n - half)) / n).min(n - 1);
            let right_len = ((out_len * (n - half)) / n + 1).min(n - right_start).max(1);
            chunks.push(b.strand_with_meta(
                GroupMeta::with_param("merge-chunk", out_len * item).at(MERGE_SITE),
                |t| {
                    t.read_range(
                        from.at(left_start * item),
                        left_len * item,
                        merge_instr_per_line / 2,
                    );
                    t.read_range(
                        from.at(right_start * item),
                        right_len * item,
                        merge_instr_per_line / 2,
                    );
                    t.write_range(dst.at(out_start * item), out_len * item, 1);
                },
            ));
        }
        let merges = b.par(
            chunks,
            GroupMeta::with_param("merge", n * item).at(MERGE_SITE),
        );

        b.seq(
            vec![split, merges],
            GroupMeta::with_param("parallel-merge", n * item).at(MERGE_SITE),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{Dag, TaskGroupTree};

    #[test]
    fn small_mergesort_builds_valid_dag() {
        let params = MergesortParams {
            n_items: 4096,
            base_task_items: 512,
            ..MergesortParams::new(4096)
        };
        let comp = build(&params);
        let dag = Dag::from_computation(&comp);
        dag.validate().unwrap();
        let tree = TaskGroupTree::from_computation(&comp);
        tree.validate().unwrap();
        assert!(dag.parallelism() > 1.5, "parallelism {}", dag.parallelism());
        // With explicit fork strands the DAG has a single source.
        assert_eq!(dag.sources().len(), 1);
    }

    #[test]
    fn footprint_is_twice_the_input() {
        let params = MergesortParams::new(1 << 14);
        let comp = build(&params);
        // Count distinct lines touched: must be ~ 2N bytes / line.
        let mut lines = std::collections::HashSet::new();
        for (_, r) in comp.sequential_refs() {
            for l in r.lines(params.line_size) {
                lines.insert(l);
            }
        }
        let expect = 2 * params.total_bytes() / params.line_size;
        assert!((lines.len() as u64) >= expect * 95 / 100);
        assert!((lines.len() as u64) <= expect * 105 / 100 + 16);
    }

    #[test]
    fn result_lands_in_the_input_buffer() {
        // The last write of the sequential trace must target the input buffer
        // (region A starts at the lowest addresses).
        let params = MergesortParams::new(1 << 13).with_task_working_set(2 * 1024);
        let comp = build(&params);
        let writes: Vec<u64> = comp
            .sequential_refs()
            .filter(|(_, r)| r.kind.is_write())
            .map(|(_, r)| r.addr)
            .collect();
        let last_write = *writes.last().unwrap();
        assert!(
            last_write < ccs_dag::addr::DEFAULT_ALIGN + params.total_bytes(),
            "final merge must write the input buffer, wrote {last_write:#x}"
        );
    }

    #[test]
    fn finer_granularity_means_more_tasks() {
        let coarse = build(&MergesortParams::new(1 << 14).with_task_working_set(64 * 1024));
        let fine = build(&MergesortParams::new(1 << 14).with_task_working_set(8 * 1024));
        assert!(fine.num_tasks() > coarse.num_tasks());
    }

    #[test]
    fn coarse_variant_has_fewer_tasks_and_longer_critical_path() {
        let base = MergesortParams::new(1 << 14);
        let fine = build(&base);
        let coarse = build(&base.clone().coarse_grained());
        assert!(coarse.num_tasks() < fine.num_tasks());
        let d_fine = Dag::from_computation(&fine).depth();
        let d_coarse = Dag::from_computation(&coarse).depth();
        assert!(
            d_coarse > d_fine,
            "serial merges lengthen the critical path"
        );
    }

    #[test]
    fn task_working_set_knob() {
        let p = MergesortParams::new(1 << 20).with_task_working_set(256 * 1024);
        assert_eq!(p.task_working_set(), 256 * 1024);
        assert_eq!(p.base_task_items, 32 * 1024);
    }

    #[test]
    fn group_params_record_subarray_bytes() {
        let comp = build(&MergesortParams::new(8192));
        let tree = TaskGroupTree::from_computation(&comp);
        let root = tree.group(tree.root());
        assert_eq!(root.meta.label, "sort");
        assert_eq!(root.meta.param, 8192 * 4);
    }
}
