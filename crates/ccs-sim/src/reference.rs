//! The retained reference cycle-stepper.
//!
//! This is the seed implementation of the simulator, kept verbatim as the
//! executable specification of the machine model: every micro-step of
//! every core goes through the event heap (one push + one pop per step),
//! stores broadcast their invalidation to every other private L1, and the
//! caches use the seed's storage ([`RefCache`]: one `Vec` of ways per set,
//! division-based set indexing) rather than the optimised flat layout in
//! `ccs-cache`.
//!
//! Traces reach this module through a *thin adapter*: the computation's
//! pooled trace arena is materialised back into one owned
//! [`TaskTrace`](ccs_dag::TaskTrace) per task before the simulation starts
//! (see [`simulate_reference`]), so the loop below still reads the seed's
//! `Vec<TraceOp>` representation verbatim and stays independent of the
//! pooled layout it is checking.
//!
//! The production engine (`machine::event_driven`) must report *identical*
//! metrics — same cycles, same hit/miss/eviction counts, same bandwidth
//! utilisation — for every computation, configuration and scheduler.  That
//! equivalence is pinned by unit tests in `machine.rs` and by the property
//! tests in `tests/engine_equivalence.rs`; select this engine explicitly
//! with [`SimEngine::Reference`](crate::SimEngine) (CLI: `--engine
//! reference`).  Because the whole seed stack is retained, the
//! `speedup_vs_reference` the bench harness records measures the full
//! effect of the event-driven rework (inline batching + ownership
//! directory + cache layout) against the seed.
//!
//! Do not optimise this module: its value is being the simple, obviously-
//! correct implementation the fast engine is checked against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ccs_cache::{CacheConfig, CacheStats, MainMemory};
use ccs_dag::{AccessKind, Computation, Dag, TaskId};
use ccs_sched::Scheduler;

use crate::config::CmpConfig;
use crate::metrics::SimResult;

/// The seed's set-associative cache, retained verbatim: per-set `Vec`s of
/// ways, true-LRU via a monotonic clock, write-back/write-allocate.  Hit,
/// miss, eviction and write-back decisions are those of the production
/// [`ccs_cache::CompiledCache`] (pinned in random lockstep by
/// `tests::compiled_cache_matches_ref_cache_in_lockstep`).
struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<RefWay>>,
    stats: CacheStats,
    clock: u64,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: u64,
    dirty: bool,
    /// Monotonic timestamp of the last access; smallest = LRU victim.
    last_used: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets =
            vec![Vec::with_capacity(config.associativity as usize); config.num_sets() as usize];
        RefCache {
            config,
            sets,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Probe the cache with one line; returns whether it was resident.
    fn access_line(&mut self, line: u64, kind: AccessKind) -> bool {
        debug_assert_eq!(
            line % self.config.line_size,
            0,
            "address must be line-aligned"
        );
        self.clock += 1;
        let clock = self.clock;
        let is_write = kind.is_write();
        let set_idx = self.config.set_of(line) as usize;
        let assoc = self.config.associativity as usize;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.last_used = clock;
            way.dirty |= is_write;
            self.stats.record(true, is_write);
            return true;
        }

        // Miss: allocate, evicting the LRU way if the set is full.
        self.stats.record(false, is_write);
        if set.len() == assoc {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(victim_idx);
            self.stats.record_eviction(victim.dirty);
        }
        set.push(RefWay {
            line,
            dirty: is_write,
            last_used: clock,
        });
        false
    }

    fn fill_line(&mut self, line: u64, dirty: bool) {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.config.set_of(line) as usize;
        let assoc = self.config.associativity as usize;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.last_used = clock;
            way.dirty |= dirty;
            return;
        }
        if set.len() == assoc {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let victim = set.swap_remove(victim_idx);
            self.stats.record_eviction(victim.dirty);
        }
        set.push(RefWay {
            line,
            dirty,
            last_used: clock,
        });
    }

    fn invalidate_line(&mut self, line: u64) -> bool {
        let set_idx = self.config.set_of(line) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.line == line) {
            let way = set.swap_remove(pos);
            way.dirty
        } else {
            false
        }
    }
}

/// What a core is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Ready to start (or continue) the current op of the current task.
    NextOp,
    /// An L1 miss is probing the (cluster's) L2; resolves at the core's
    /// `time`.
    L2Probe { line: u64, is_write: bool },
    /// An L2 miss is probing the shared L3 (three-level hierarchies only);
    /// resolves at the core's `time`.
    L3Probe { line: u64, is_write: bool },
    /// A last-level miss is waiting for main memory; data arrives at the
    /// core's `time`.
    MemFill { line: u64, is_write: bool },
}

#[derive(Clone, Debug)]
struct Core {
    task: Option<TaskId>,
    /// Index of the current trace op.
    op_idx: usize,
    /// Index of the current line within the current op (for references that
    /// straddle cache lines).
    line_idx: u64,
    phase: Phase,
    /// The next simulation time this core needs attention.
    time: u64,
    /// When the current task was dispatched.
    task_started: u64,
    busy: u64,
}

impl Core {
    fn new() -> Self {
        Core {
            task: None,
            op_idx: 0,
            line_idx: 0,
            phase: Phase::NextOp,
            time: 0,
            task_started: 0,
            busy: 0,
        }
    }

    /// Advance past the line just serviced, moving to the next line of the
    /// same reference or to the next op.
    fn advance_line(&mut self, trace: &ccs_dag::TaskTrace, line_size: u64) {
        let op = &trace.ops()[self.op_idx];
        let first_line = op.mem.addr & !(line_size - 1);
        let last_line = (op.mem.addr + op.mem.size.max(1) as u64 - 1) & !(line_size - 1);
        let num_lines = (last_line - first_line) / line_size + 1;
        self.line_idx += 1;
        if self.line_idx >= num_lines {
            self.line_idx = 0;
            self.op_idx += 1;
        }
    }
}

/// Run `comp` (with its pre-built `dag`) through the reference cycle-stepper.
pub(crate) fn simulate_reference(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
) -> SimResult {
    config.assert_valid();
    let p = config.num_cores;
    let n = comp.num_tasks();
    let line_size = config.l2.line_size;

    let clusters = config.clusters;
    let cores_per_cluster = p / clusters;

    let mut l1s: Vec<RefCache> = (0..p).map(|_| RefCache::new(config.l1)).collect();
    // One L2 per cluster (`clusters == 1` is the paper's single shared L2);
    // a core probes the L2 of cluster `core_id / cores_per_cluster`.
    let mut l2s: Vec<RefCache> = (0..clusters).map(|_| RefCache::new(config.l2)).collect();
    // The optional chip-wide L3 sits between the L2s and memory.
    let mut l3 = config.l3.map(RefCache::new);
    let mut memory = MainMemory::new(config.memory);

    // Thin adapter over the pooled trace arena: materialise each task's
    // trace once, up front, so the cycle-stepper below keeps reading the
    // seed's per-task `TaskTrace` form unmodified.
    let traces: Vec<ccs_dag::TaskTrace> = (0..n as u32)
        .map(|t| comp.trace(TaskId(t)).to_task_trace())
        .collect();

    let mut cores: Vec<Core> = (0..p).map(|_| Core::new()).collect();
    let mut in_deg: Vec<u32> = (0..n as u32)
        .map(|t| dag.in_degree(TaskId(t)) as u32)
        .collect();
    let mut completed = 0usize;

    sched.init(dag, p);
    // Roots and newly-ready siblings are enabled in *reverse* sequential
    // order so deque-based schedulers, which push each enabled task on top,
    // end up with the earliest-sequential task on top (the order a work-first
    // fork-join runtime reaches them).
    let mut roots: Vec<TaskId> = dag.sources();
    roots.sort_by_key(|t| std::cmp::Reverse(dag.seq_rank(*t)));
    for r in roots {
        sched.task_enabled(r, None);
    }

    // Cores with work in flight, keyed by (time, core id) for deterministic
    // ordering.  Idle cores are tracked separately and woken on completions.
    let mut active: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut idle: Vec<usize> = Vec::new();

    // Dispatch as much ready work as possible at `now`, preferring `first`.
    fn dispatch(
        now: u64,
        first: Option<usize>,
        sched: &mut dyn Scheduler,
        cores: &mut [Core],
        idle: &mut Vec<usize>,
        active: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) {
        idle.sort_unstable();
        if let Some(f) = first {
            if let Some(pos) = idle.iter().position(|&c| c == f) {
                idle.remove(pos);
                idle.insert(0, f);
            }
        }
        let mut i = 0;
        while i < idle.len() {
            if sched.ready_count() == 0 {
                break;
            }
            let core_id = idle[i];
            match sched.next_task(core_id) {
                Some(task) => {
                    idle.remove(i);
                    let core = &mut cores[core_id];
                    core.task = Some(task);
                    core.op_idx = 0;
                    core.line_idx = 0;
                    core.phase = Phase::NextOp;
                    core.time = now;
                    core.task_started = now;
                    active.push(Reverse((now, core_id)));
                }
                None => {
                    i += 1;
                }
            }
        }
    }

    // Initial dispatch at time 0.
    idle.extend(0..p);
    dispatch(0, None, sched, &mut cores, &mut idle, &mut active);

    let mut makespan = 0u64;

    while completed < n {
        let Reverse((now, core_id)) = active
            .pop()
            .expect("simulator deadlock: tasks remain but no core is active");
        makespan = makespan.max(now);
        let core = &mut cores[core_id];
        debug_assert_eq!(core.time, now);
        let task_id = core.task.expect("active core without a task");
        let trace = &traces[task_id.index()];

        match core.phase {
            Phase::NextOp => {
                if core.op_idx < trace.ops().len() {
                    let op = &trace.ops()[core.op_idx];
                    if core.line_idx == 0 {
                        // Charge the compute preceding this reference once.
                        core.time += op.pre_compute as u64;
                    }
                    let first_line = op.mem.addr & !(line_size - 1);
                    let last_line =
                        (op.mem.addr + op.mem.size.max(1) as u64 - 1) & !(line_size - 1);
                    let num_lines = (last_line - first_line) / line_size + 1;
                    let line = first_line + core.line_idx * line_size;
                    let is_write = op.mem.kind.is_write();
                    // L1 probe (always pays the L1 hit latency).
                    core.time += config.l1.hit_latency;
                    let l1_hit = l1s[core_id].access_line(line, op.mem.kind);
                    if is_write {
                        // Write-invalidate the line in every other L1.
                        for (other, l1) in l1s.iter_mut().enumerate() {
                            if other != core_id {
                                l1.invalidate_line(line);
                            }
                        }
                    }
                    if l1_hit {
                        core.line_idx += 1;
                        if core.line_idx == num_lines {
                            core.line_idx = 0;
                            core.op_idx += 1;
                        }
                        // stay in NextOp
                    } else {
                        core.phase = Phase::L2Probe { line, is_write };
                        core.time += config.l2.hit_latency;
                    }
                    active.push(Reverse((core.time, core_id)));
                } else {
                    // Task body finished: trailing compute, then completion.
                    core.time += trace.post_compute();
                    let finish = core.time;
                    makespan = makespan.max(finish);
                    core.busy += finish - core.task_started;
                    core.task = None;
                    completed += 1;
                    // Enable newly ready successors in reverse sequential
                    // order (see the root-enabling comment above).
                    let mut newly: Vec<TaskId> = Vec::new();
                    for &s in dag.successors(task_id) {
                        in_deg[s.index()] -= 1;
                        if in_deg[s.index()] == 0 {
                            newly.push(s);
                        }
                    }
                    newly.sort_by_key(|t| std::cmp::Reverse(dag.seq_rank(*t)));
                    for s in newly {
                        sched.task_enabled(s, Some(core_id));
                    }
                    idle.push(core_id);
                    dispatch(
                        finish,
                        Some(core_id),
                        sched,
                        &mut cores,
                        &mut idle,
                        &mut active,
                    );
                }
            }
            Phase::L2Probe { line, is_write } => {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let hit = l2s[core_id / cores_per_cluster].access_line(line, kind);
                if hit {
                    l1s[core_id].fill_line(line, is_write);
                    core.advance_line(trace, line_size);
                    core.phase = Phase::NextOp;
                    active.push(Reverse((core.time, core_id)));
                } else if let Some(l3_cfg) = &config.l3 {
                    core.time += l3_cfg.hit_latency;
                    core.phase = Phase::L3Probe { line, is_write };
                    active.push(Reverse((core.time, core_id)));
                } else {
                    let done = memory.request(core.time);
                    core.time = done;
                    core.phase = Phase::MemFill { line, is_write };
                    active.push(Reverse((core.time, core_id)));
                }
            }
            Phase::L3Probe { line, is_write } => {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let hit = l3
                    .as_mut()
                    .expect("L3 probe without an L3")
                    .access_line(line, kind);
                if hit {
                    l1s[core_id].fill_line(line, is_write);
                    core.advance_line(trace, line_size);
                    core.phase = Phase::NextOp;
                    active.push(Reverse((core.time, core_id)));
                } else {
                    let done = memory.request(core.time);
                    core.time = done;
                    core.phase = Phase::MemFill { line, is_write };
                    active.push(Reverse((core.time, core_id)));
                }
            }
            Phase::MemFill { line, is_write } => {
                // Data returned: fill the private L1 (the shared L2 was
                // already allocated when the miss was detected).
                l1s[core_id].fill_line(line, is_write);
                core.advance_line(trace, line_size);
                core.phase = Phase::NextOp;
                active.push(Reverse((core.time, core_id)));
            }
        }
    }

    let mut l1_total = ccs_cache::CacheStats::default();
    for l1 in &l1s {
        l1_total.merge(l1.stats());
    }
    let mut l2_total = ccs_cache::CacheStats::default();
    for l2 in &l2s {
        l2_total.merge(l2.stats());
    }

    SimResult {
        config_name: config.name.clone(),
        scheduler: sched.name().to_string(),
        num_cores: p,
        clusters: config.clusters,
        cycles: makespan,
        instructions: comp.total_work(),
        l1: l1_total,
        l2: l2_total,
        l3: l3.map(|c| *c.stats()).unwrap_or_default(),
        memory: *memory.stats(),
        bandwidth_utilization: memory.utilization(makespan),
        core_busy: cores.iter().map(|c| c.busy).collect(),
        tasks: n,
        l2_line_size: line_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_cache::{line_tag, CompiledCache};

    /// xorshift64*: deterministic and dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() >> 33) as usize % n
        }
    }

    /// The production [`CompiledCache`] in random lockstep with the seed
    /// [`RefCache`]: probes, fills, invalidates and `contains` over every
    /// associativity the paper's configurations reach, a few past them
    /// and the widest set a hint can name
    /// ([`CompiledCache::MAX_ASSOCIATIVITY`]) × several set counts must
    /// agree on every answer and every counter.  Line id `i` stands for
    /// line address `i * 64`, so both models put it in set `i % sets`.
    ///
    /// The working set is about twice the capacity, so lines are evicted
    /// and invalidated and their ways reused by other lines: a re-probe of
    /// such a line reads a stale way hint, which must still miss.  Its ids
    /// are multiples of 3 that straddle the first 1 Ki-id hint-page
    /// boundary (up to twelve pages at the largest capacity).  Ids off the
    /// working set — `2 mod 3` ids in its pages, and ids in the top
    /// `UNTOUCHED` ids, whose pages are never touched — must never be
    /// resident.  A geometry whose working set would reach those top ids
    /// is skipped.
    #[test]
    fn compiled_cache_matches_ref_cache_in_lockstep() {
        const LINE: u64 = 64;
        const ID_BOUND: u32 = 16 * 1024;
        const UNTOUCHED: usize = 2048;
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut geometries = 0;
        for assoc in [1u32, 2, 4, 16, 20, 32, CompiledCache::MAX_ASSOCIATIVITY] {
            for sets in [1u64, 2, 8, 64] {
                let capacity = (sets * assoc as u64) as usize;
                let first = 1026u32.saturating_sub(3 * capacity as u32);
                let working: Vec<u32> = (0..2 * capacity as u32 + 3)
                    .map(|k| first + 3 * k)
                    .collect();
                if working[working.len() - 1] as usize >= ID_BOUND as usize - UNTOUCHED {
                    continue;
                }
                geometries += 1;
                let config = CacheConfig::new(capacity as u64 * LINE, LINE, assoc, 1);
                let mut oracle = RefCache::new(config);
                let mut compiled = CompiledCache::new(sets, assoc, ID_BOUND as usize);
                let hot = capacity / 2 + 1;
                // Ids ever installed: a miss on one is a stale-hint probe.
                let mut installed = vec![false; ID_BOUND as usize];
                let mut stale_probes = 0;
                for _ in 0..20_000 {
                    let r = rng.next();
                    let id = match r % 16 {
                        // Never in the working set: 2 mod 3 ids share its
                        // pages; the top pages are never allocated.
                        0 => 3 * rng.below(ID_BOUND as usize / 3) as u32 + 2,
                        1 => ID_BOUND - 1 - rng.below(UNTOUCHED) as u32,
                        2..=8 => working[rng.below(hot.min(working.len()))],
                        _ => working[rng.below(working.len())],
                    };
                    let (set, tag, line) =
                        ((id as u64 % sets) as u32, line_tag(id), id as u64 * LINE);
                    let resident = oracle.sets[set as usize].iter().any(|w| w.line == line);
                    assert_eq!(
                        compiled.contains_compiled(set, tag),
                        resident,
                        "{assoc}-way, {sets} sets, id {id}"
                    );
                    let write = r & (1 << 40) != 0;
                    match (r >> 41) % 8 {
                        0..=4 => {
                            let kind = if write {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            };
                            let hit = oracle.access_line(line, kind);
                            assert_eq!(compiled.access_compiled(set, tag, write), hit);
                            stale_probes += (installed[id as usize] && !hit) as usize;
                            installed[id as usize] = true;
                        }
                        5 | 6 => {
                            oracle.fill_line(line, write);
                            compiled.fill_compiled(set, tag, write);
                            installed[id as usize] = true;
                        }
                        _ => {
                            let dirty = oracle.invalidate_line(line);
                            assert_eq!(compiled.invalidate_compiled(set, tag), dirty);
                        }
                    }
                }
                assert_eq!(oracle.stats(), compiled.stats(), "{assoc}-way, {sets} sets");
                let resident: usize = oracle.sets.iter().map(Vec::len).sum();
                assert_eq!(compiled.resident_lines(), resident);
                assert!(stale_probes > 100, "only {stale_probes} stale-hint probes");
            }
        }
        // 6 associativities × 4 set counts, and 256 ways × {1, 2, 8} sets.
        assert_eq!(geometries, 27);
    }
}
