//! The `SetAssoc` baseline profiler (Section 6.1).
//!
//! The straightforward way to measure a task group's working set is to replay
//! its memory-reference trace through simulated caches of every candidate
//! size, starting cold.  Doing this for every group in the hierarchical
//! task-group tree re-processes each memory record once per tree level —
//! the paper measured 22 re-visits per record on average for Mergesort,
//! making this approach ~18× slower than the one-pass `LruTree` profiler.
//! It is retained as the correctness baseline and for the Section 6.1
//! performance comparison (`run_all --fig sec61_profiler_speed` in
//! `ccs-bench`).

use ccs_cache::{IdealCache, StackDistanceModel};
use ccs_dag::{Computation, GroupId, TaskGroupTree};

/// Hit/miss counts of one task group at one cache size, measured from a cold
/// cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCacheStats {
    /// Cache size in bytes.
    pub cache_bytes: u64,
    /// Line-granularity references issued by the group.
    pub refs: u64,
    /// Hits starting from a cold cache.
    pub hits: u64,
}

impl GroupCacheStats {
    /// Misses = references − hits.
    pub fn misses(&self) -> u64 {
        self.refs - self.hits
    }
}

/// Replay the references of the tasks covered by `group` (in sequential
/// order) through a cold fully-associative LRU cache of each candidate size,
/// returning one entry per size.
pub fn profile_group(
    comp: &Computation,
    tree: &TaskGroupTree,
    group: GroupId,
    cache_sizes_bytes: &[u64],
) -> Vec<GroupCacheStats> {
    cache_sizes_bytes
        .iter()
        .map(|&cache_bytes| {
            let mut cache = IdealCache::with_bytes(cache_bytes, comp.line_size());
            for &task in tree.tasks_in(group) {
                for mem in comp.trace(task).refs() {
                    cache.access_ref(&mem);
                }
            }
            GroupCacheStats {
                cache_bytes,
                refs: cache.stats().accesses,
                hits: cache.stats().hits,
            }
        })
        .collect()
}

/// The working set of a group in cache lines: distinct lines touched,
/// measured by a direct replay (cross-check for the one-pass profiler).
pub fn group_working_set_lines(comp: &Computation, tree: &TaskGroupTree, group: GroupId) -> u64 {
    let mut stack = ccs_cache::NaiveLruStack::new();
    for &task in tree.tasks_in(group) {
        for mem in comp.trace(task).refs() {
            for line in mem.lines(comp.line_size()) {
                stack.access(line);
            }
        }
    }
    stack.num_lines() as u64
}

/// Profile *every* group of the task-group tree (the multi-pass behaviour the
/// paper's `SetAssoc` column measures).  Returns, per group, the stats at
/// every candidate cache size.
pub fn profile_all_groups(
    comp: &Computation,
    tree: &TaskGroupTree,
    cache_sizes_bytes: &[u64],
) -> Vec<Vec<GroupCacheStats>> {
    tree.iter()
        .map(|(gid, _)| profile_group(comp, tree, gid, cache_sizes_bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkingSetProfile;
    use ccs_dag::synth::{random_computation, SynthParams};

    #[test]
    fn setassoc_and_lrutree_agree_on_every_group() {
        let params = SynthParams {
            max_depth: 4,
            max_strand_refs: 24,
            num_regions: 3,
            region_bytes: 4 * 1024,
            ..SynthParams::default()
        };
        let sizes = [1024u64, 8 * 1024, 64 * 1024];
        for seed in 0..5 {
            let comp = random_computation(seed, &params);
            let tree = TaskGroupTree::from_computation(&comp);
            let profile = WorkingSetProfile::collect(&comp, &sizes);
            for (gid, g) in tree.iter() {
                let direct = profile_group(&comp, &tree, gid, &sizes);
                for d in &direct {
                    let hits = profile.hits_in(g.rank_range(), d.cache_bytes);
                    assert_eq!(
                        hits, d.hits,
                        "seed {seed}, group {gid:?}, size {}",
                        d.cache_bytes
                    );
                    assert_eq!(profile.refs_in(g.rank_range()), d.refs);
                }
                let ws = group_working_set_lines(&comp, &tree, gid);
                assert_eq!(profile.working_set_lines(g.rank_range()), ws);
            }
        }
    }

    #[test]
    fn bigger_caches_never_hit_less() {
        let comp = random_computation(99, &SynthParams::default());
        let tree = TaskGroupTree::from_computation(&comp);
        let sizes = [512u64, 4096, 32 * 1024, 1 << 20];
        let stats = profile_group(&comp, &tree, tree.root(), &sizes);
        for w in stats.windows(2) {
            assert!(w[1].hits >= w[0].hits);
        }
    }

    #[test]
    fn profile_all_groups_covers_tree() {
        let comp = random_computation(7, &SynthParams::default());
        let tree = TaskGroupTree::from_computation(&comp);
        let all = profile_all_groups(&comp, &tree, &[8 * 1024]);
        assert_eq!(all.len(), tree.num_groups());
    }
}
