//! The batched multi-config engine: one recorded pass re-timed per
//! configuration.
//!
//! The paper's latency-sensitivity experiments (Figs. 4 and 5) sweep *only*
//! the L2 hit time and the memory latency: every point shares the
//! computation, the scheduler, the core count and the full cache geometry.
//! The event engine still walks the compiled line stream once per point,
//! re-deriving an access sequence that cannot differ between them.  This
//! module amortises that walk: the event engine runs **once** per group
//! and every other configuration's result is assembled in closed form from
//! the recorded one.
//!
//! # Correctness: when is the schedule latency-independent?
//!
//! Schedulers observe no simulated times — their interface is
//! `init` / `task_enabled` / `next_task` / `ready_count` ([`ccs_sched`]).
//! On a **single core** the engine is a sequential loop: run a task to
//! completion, enable its ready successors, ask the scheduler for the next
//! task.  Latencies stretch or shrink the clock between those calls but
//! cannot reorder them, so the scheduler (including a seeded random-victim
//! stealer, whose RNG consumption is driven purely by the call sequence)
//! makes the identical decisions under every latency assignment: the task
//! order, the access sequence, and therefore every L1/L2 hit/miss/eviction
//! count are fixed by the first pass.  Only the *timing* differs.
//!
//! # The closed form
//!
//! The core blocks on every miss, so its clock is a sum of charges: every
//! stream step pays the L1 hit latency, every L1 miss the L2 hit latency,
//! every L2 miss the memory latency plus whatever it queued at the memory
//! controller, and the rest is the schedule's compute.  With `S` L1
//! accesses, `M1` L1 misses and `M2` memory requests (all copied from the
//! recording):
//!
//! ```text
//! cycles(c) = W + l1_hit·S + l2_hit·M1 + latency·M2 + Q(c)
//! ```
//!
//! where the compute `W` is the recording's `cycles` minus its own latency
//! charges and queueing, and `Q(c)` is config `c`'s total queueing.
//!
//! **`Q(c) = 0` whenever `latency + l1_hit + l2_hit ≥ service_interval`.**
//! A request starting at `s` frees the controller at `s + service_interval`;
//! the blocked core resumes at `s + latency` and probes the L1 and the L2
//! at least once more before its next request, so that request cannot
//! arrive before `s + latency + l1_hit + l2_hit`.
//!
//! Only a group with a replayed configuration that can queue
//! (`service_interval` past that bound) records a **tape** — tasks in
//! dispatch order plus one word per L1 miss, through the crate-private
//! `machine::Record` hook — and walks it through a fresh [`MainMemory`]
//! for each queueing configuration to get its `Q`.  Every other group runs
//! the recording pass with the no-op recorder and records nothing.
//!
//! With **multiple cores** this argument breaks: changing a latency moves a
//! core's completion relative to its peers, which flips dispatch order,
//! shared-L2 LRU interleaving and directory invalidations — the access
//! sequence itself moves.  Those groups **fall back** to one full event run
//! per configuration (still byte-identical, just not faster).  The
//! experiment layer's sweep planner
//! ([`Experiment::batch_groups`](../../ccs_experiment/struct.Experiment.html#method.batch_groups))
//! forms the groups; this module only decides replay vs fallback.
//!
//! The same argument makes a one-core run a function of the scheduler's
//! dispatch order alone, so the experiment layer calls this module once
//! per distinct one-core order (`ccs_sched::one_core_order`), not once
//! per scheduler: on one core `pdf`, `ws` and the sequential baseline
//! share one recording pass (DESIGN.md §11).
//!
//! The replay is **byte-identical** to the event engine for every
//! configuration — pinned by the equivalence suite
//! (`tests/batch_equivalence.rs`: all registered workloads × all
//! schedulers × random latency grids, queueing ones included, full
//! [`SimResult`] compared).

use ccs_cache::{MainMemory, MemoryStats};
use ccs_dag::{Computation, Dag, TaskId};
use ccs_sched::SchedulerSpec;

use crate::config::CmpConfig;
use crate::machine::{self, NoRecord, Record, SimEngine};
use crate::metrics::SimResult;

/// The outcome of one batched group: per-config results plus how they were
/// obtained.
#[derive(Debug)]
pub struct BatchRun {
    /// One result per input configuration, in input order — byte-identical
    /// to running each configuration through the event engine.
    pub results: Vec<SimResult>,
    /// Configurations served by re-timing the recorded pass.
    pub replayed: usize,
    /// Configurations that ran the full event engine (the recording pass,
    /// plus every config of a non-replayable group).
    pub full_runs: usize,
}

/// Whether `a` and `b` may share one simulated pass at all: identical core
/// count and cache geometry (capacity / line size / associativity of both
/// levels), leaving only the latency axes — L1/L2 hit latency, memory
/// latency and service interval — free.  The sweep planner groups points by
/// this predicate.
pub fn same_machine_shape(a: &CmpConfig, b: &CmpConfig) -> bool {
    let l3_shape = |c: &CmpConfig| {
        c.l3.as_ref()
            .map(|l3| (l3.capacity, l3.line_size, l3.associativity))
    };
    a.num_cores == b.num_cores
        && a.clusters == b.clusters
        && a.l1.capacity == b.l1.capacity
        && a.l1.line_size == b.l1.line_size
        && a.l1.associativity == b.l1.associativity
        && a.l2.capacity == b.l2.capacity
        && a.l2.line_size == b.l2.line_size
        && a.l2.associativity == b.l2.associativity
        && l3_shape(a) == l3_shape(b)
}

/// Whether `a` and `b` are the same simulated machine: equal in every field
/// the engines read — cores, clusters, L1, L2, L3 and memory.  Only the
/// name and the technology tag may differ, so on one computation and
/// scheduler the two give equal [`SimResult`]s up to `config_name`.
pub fn same_machine(a: &CmpConfig, b: &CmpConfig) -> bool {
    // Exhaustive, so a new field has to be sorted into read or ignored.
    let CmpConfig {
        name: _,
        technology: _,
        num_cores,
        clusters,
        l1,
        l2,
        l3,
        memory,
    } = a;
    *num_cores == b.num_cores
        && *clusters == b.clusters
        && *l1 == b.l1
        && *l2 == b.l2
        && *l3 == b.l3
        && *memory == b.memory
}

/// Whether a group of same-shape configurations qualifies for the
/// record/replay fast path: a single core (the latency-independence
/// argument in the module docs), a flat two-level hierarchy (the closed
/// form charges L2 outcomes only, so an L3 or clustered L2 cannot be
/// re-timed) and a shared geometry.  Other groups return `false` and fall
/// back to full event runs.
pub fn replayable(configs: &[CmpConfig]) -> bool {
    let Some(first) = configs.first() else {
        return false;
    };
    first.num_cores == 1
        && first.l3.is_none()
        && first.clusters == 1
        && configs[1..].iter().all(|c| same_machine_shape(first, c))
}

/// Whether no memory request of a single-core run under `config` can queue
/// at the controller: the next request comes at least `latency + l1_hit +
/// l2_hit` after the previous one started (module docs), and the
/// controller is free again after `service_interval`.
fn queue_free(config: &CmpConfig) -> bool {
    config.memory.latency + config.l1.hit_latency + config.l2.hit_latency
        >= config.memory.service_interval
}

/// The tape of one recorded pass: task dispatch order plus every L1 miss.
#[derive(Default)]
struct Tape {
    /// Tasks in dispatch order — on one core, the execution order.
    tasks: Vec<TaskId>,
    /// One packed word per L1 miss, in execution order:
    /// `stream_step << 1 | went_to_memory`.
    misses: Vec<u64>,
}

impl Record for Tape {
    #[inline]
    fn task_dispatched(&mut self, task: TaskId) {
        self.tasks.push(task);
    }

    #[inline]
    fn l1_miss(&mut self, step: usize, l2_hit: bool) {
        self.misses.push(((step as u64) << 1) | u64::from(!l2_hit));
    }
}

/// Simulate `comp` under every configuration of one batch group, returning
/// per-config results byte-identical to the event engine.
///
/// When the group is [`replayable`], the first configuration runs the event
/// engine and the rest are assembled in closed form from its result (a
/// tape is recorded only if some of them can queue at the memory
/// controller); otherwise every configuration runs the event engine in
/// full.  Each run builds a fresh scheduler from `sched` (schedulers are
/// stateful).
pub fn simulate_batch(
    comp: &Computation,
    dag: &Dag,
    configs: &[CmpConfig],
    sched: &SchedulerSpec,
) -> BatchRun {
    assert!(
        !configs.is_empty(),
        "batch needs at least one configuration"
    );
    if !replayable(configs) {
        let results = configs
            .iter()
            .map(|config| {
                let mut s = sched.build();
                machine::simulate_with_engine(comp, dag, config, s.as_mut(), SimEngine::EventDriven)
            })
            .collect();
        return BatchRun {
            results,
            replayed: 0,
            full_runs: configs.len(),
        };
    }

    let (head, rest) = configs.split_first().expect("non-empty group");
    let mut s = sched.build();
    let mut tape = None;
    let recorded = if rest.iter().all(queue_free) {
        machine::event_driven_rec(comp, dag, head, s.as_mut(), &mut NoRecord)
    } else {
        machine::event_driven_rec(comp, dag, head, s.as_mut(), tape.insert(Tape::default()))
    };
    // The schedule's compute: the recorded clock minus its latency charges.
    let compute = recorded.cycles - latency_cycles(head, &recorded) - recorded.memory.queue_cycles;
    let mut results = Vec::with_capacity(configs.len());
    for config in rest {
        let queue = match &tape {
            Some(tape) if !queue_free(config) => {
                let (walked, queue) = walk_tape(comp, config, tape);
                let closed_form = compute + latency_cycles(config, &recorded) + queue;
                debug_assert_eq!(closed_form, walked, "closed form vs tape walk");
                queue
            }
            _ => 0,
        };
        results.push(retime(config, &recorded, compute, queue));
    }
    results.insert(0, recorded);
    BatchRun {
        results,
        replayed: rest.len(),
        full_runs: 1,
    }
}

/// The cycles `config`'s latencies charge the recorded access sequence,
/// queueing aside: one L1 probe per access, one L2 probe per L1 miss and
/// one memory round trip per request.
fn latency_cycles(config: &CmpConfig, recorded: &SimResult) -> u64 {
    config.l1.hit_latency * recorded.l1.accesses
        + config.l2.hit_latency * recorded.l1.misses
        + config.memory.latency * recorded.memory.requests
}

/// The recorded single-core result re-timed under `config`, whose memory
/// requests queue for `queue` cycles in total.
///
/// Latency-independent metrics (cache hit/miss/eviction counts, task and
/// instruction totals) are copied from the recording; the clock, the
/// memory-controller statistics and the bandwidth utilisation follow from
/// the closed form in the module docs.
fn retime(config: &CmpConfig, recorded: &SimResult, compute: u64, queue: u64) -> SimResult {
    let cycles = compute + latency_cycles(config, recorded) + queue;
    let requests = recorded.memory.requests;
    let memory = MemoryStats {
        requests,
        busy_cycles: requests * config.memory.service_interval,
        queue_cycles: queue,
    };
    SimResult {
        config_name: config.name.clone(),
        scheduler: recorded.scheduler.clone(),
        num_cores: 1,
        clusters: 1,
        cycles,
        instructions: recorded.instructions,
        l1: recorded.l1,
        l2: recorded.l2,
        l3: recorded.l3,
        memory,
        bandwidth_utilization: memory.utilization(cycles),
        // One core, busy from the first dispatch to the last completion.
        core_busy: vec![cycles],
        tasks: recorded.tasks,
        l2_line_size: recorded.l2_line_size,
    }
}

/// Walk the tape under `config`, advancing the clock by each step's
/// compute and probe latencies and sending memory requests through a fresh
/// [`MainMemory`]; returns the final clock and the total queueing.
fn walk_tape(comp: &Computation, config: &CmpConfig, tape: &Tape) -> (u64, u64) {
    let stream = comp.line_stream(config.l2.line_size);
    let prefix = stream.pre_prefix();
    let l1_hit = config.l1.hit_latency;
    let l2_hit = config.l2.hit_latency;
    let mut memory = MainMemory::new(config.memory);

    let mut time = 0u64;
    let mut miss_idx = 0usize;
    for &task in &tape.tasks {
        let (start, end) = stream.range(task);
        let mut pos = start;
        // This task's misses are the next run of tape entries whose step
        // falls inside its (disjoint) stream window.
        while let Some(&packed) = tape.misses.get(miss_idx) {
            let m = (packed >> 1) as usize;
            if m < start || m >= end {
                break;
            }
            // Steps pos..=m: their compute cycles plus one L1 probe each;
            // the miss at `m` adds the L2 probe, and a memory round trip
            // when the tape says the L2 missed too.
            time += prefix[m + 1] - prefix[pos] + (m + 1 - pos) as u64 * l1_hit + l2_hit;
            if packed & 1 != 0 {
                time = memory.request(time);
            }
            pos = m + 1;
            miss_idx += 1;
        }
        // The task's trailing all-hit steps, then its closing compute.
        time += prefix[end] - prefix[pos] + (end - pos) as u64 * l1_hit;
        time += comp.task(task).post_compute;
    }
    debug_assert_eq!(miss_idx, tape.misses.len(), "walk consumed every miss");
    (time, memory.stats().queue_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::simulate_engine;
    use ccs_dag::{ComputationBuilder, GroupMeta};

    fn sample_comp() -> Computation {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let shared = space.alloc(16 * 1024);
        let leaves: Vec<_> = (0..12)
            .map(|i| {
                let private = space.alloc(4 * 1024);
                b.strand_with(|t| {
                    t.compute(i % 5 + 1)
                        .read_range(shared.base, shared.bytes / 2, 2)
                        .read_range(private.base, private.bytes, 3);
                    if i % 3 == 0 {
                        t.write_range(shared.base, 1024, 2);
                    }
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("batch"));
        b.finish(par)
    }

    /// Strands streaming fresh lines with no compute between accesses, so
    /// back-to-back memory requests are exactly `latency + l1_hit + l2_hit`
    /// apart: the queue-free bound is tight on this computation.
    fn streaming_comp() -> Computation {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let leaves: Vec<_> = (0..4)
            .map(|i| {
                let region = space.alloc(8 * 1024);
                b.strand_with(|t| {
                    t.compute(i + 1).read_range(region.base, region.bytes, 0);
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("stream"));
        b.finish(par)
    }

    fn config(cores: usize, l2_hit: u64, mem_latency: u64) -> CmpConfig {
        let mut cfg = CmpConfig::default_with_cores(if cores <= 1 { 1 } else { 16 }).unwrap();
        cfg.num_cores = cores;
        cfg.name = format!("b{cores}-{l2_hit}-{mem_latency}");
        cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, 1);
        cfg.l2 = ccs_cache::CacheConfig::new(64 * 1024, 128, 16, l2_hit);
        cfg.memory.latency = mem_latency;
        cfg
    }

    #[test]
    fn shape_and_replay_predicates() {
        let a = config(1, 13, 300);
        let b = config(1, 7, 900);
        assert!(same_machine_shape(&a, &b), "latency axes are free");
        assert!(replayable(&[a.clone(), b.clone()]));
        let wide = config(4, 13, 300);
        assert!(!same_machine_shape(&a, &wide));
        assert!(!replayable(&[wide.clone(), config(4, 7, 300)]), "p > 1");
        let mut fat = config(1, 13, 300);
        fat.l2 = ccs_cache::CacheConfig::new(128 * 1024, 128, 16, 13);
        assert!(!same_machine_shape(&a, &fat));
        assert!(!replayable(&[]));
        let mut with_l3 = config(1, 13, 300);
        with_l3.l3 = Some(ccs_cache::CacheConfig::new(1 << 20, 128, 16, 31));
        assert!(!same_machine_shape(&a, &with_l3), "L3 changes the shape");
        assert!(!replayable(&[with_l3]), "the closed form stops at the L2");
        let mut clustered = config(4, 13, 300);
        clustered.clusters = 2;
        assert!(!same_machine_shape(&wide, &clustered));
    }

    #[test]
    fn same_machine_ignores_only_the_name_and_technology() {
        let a = config(1, 13, 300);
        let mut renamed = a.clone();
        renamed.name = "other".into();
        renamed.technology = crate::Technology::Nm32;
        assert!(same_machine(&a, &renamed));
        let comp = sample_comp();
        let run = |cfg: &CmpConfig| simulate_engine(&comp, cfg, "pdf", SimEngine::EventDriven);
        let (x, mut y) = (run(&a), run(&renamed));
        y.config_name.clone_from(&x.config_name);
        assert_eq!(x, y, "an equal machine simulates alike up to the name");
        assert!(!same_machine(&a, &config(1, 7, 300)), "latency is read");
        assert!(!same_machine(&a, &config(1, 13, 900)));
        assert!(!same_machine(&a, &config(2, 13, 300)));
    }

    #[test]
    fn replayed_results_match_the_event_engine_per_config() {
        let comp = sample_comp();
        let dag = Dag::from_computation(&comp);
        let configs: Vec<CmpConfig> = [(13u64, 300u64), (7, 300), (19, 900), (13, 100)]
            .iter()
            .map(|&(l2, mem)| config(1, l2, mem))
            .collect();
        for sched in ["pdf", "ws", "ws-rand@7"] {
            let spec = SchedulerSpec::resolve(sched).unwrap();
            let run = simulate_batch(&comp, &dag, &configs, &spec);
            assert_eq!(run.replayed, configs.len() - 1);
            assert_eq!(run.full_runs, 1);
            for (cfg, got) in configs.iter().zip(&run.results) {
                let want = simulate_engine(&comp, cfg, spec.clone(), SimEngine::EventDriven);
                assert_eq!(got, &want, "{sched} / {}", cfg.name);
            }
        }
    }

    /// A single-core config with an explicit memory service interval.
    fn paced(l2_hit: u64, mem_latency: u64, service_interval: u64) -> CmpConfig {
        let mut cfg = config(1, l2_hit, mem_latency);
        cfg.memory.service_interval = service_interval;
        cfg.name = format!("{}-si{service_interval}", cfg.name);
        cfg
    }

    #[test]
    fn queueing_configs_replay_exactly_around_the_queue_free_bound() {
        // L1 hit 1 + L2 hit 7 + memory latency 22 = 30 cycles.
        let at_bound = paced(7, 22, 30);
        let below = paced(7, 22, 31);
        let deep = paced(7, 22, 400);
        assert!(queue_free(&at_bound));
        assert!(!queue_free(&below) && !queue_free(&deep));
        let groups = [
            // The recorded config queues, so `W` must subtract its queueing.
            vec![
                deep.clone(),
                at_bound.clone(),
                below.clone(),
                config(1, 13, 300),
            ],
            // Only replayed configs queue: the tape is walked for them.
            vec![
                config(1, 13, 300),
                below.clone(),
                deep.clone(),
                at_bound.clone(),
            ],
            // Nothing can queue: no tape at all.
            vec![at_bound.clone(), config(1, 19, 900)],
        ];
        let mut replayed_queueing = 0;
        for comp in [sample_comp(), streaming_comp()] {
            let dag = Dag::from_computation(&comp);
            for sched in ["pdf", "ws", "ws-rand@7"] {
                let spec = SchedulerSpec::resolve(sched).unwrap();
                for (g, configs) in groups.iter().enumerate() {
                    let run = simulate_batch(&comp, &dag, configs, &spec);
                    assert_eq!(run.replayed, configs.len() - 1);
                    assert_eq!(run.full_runs, 1);
                    if g == 0 {
                        let queued = run.results[0].memory.queue_cycles;
                        assert!(queued > 0, "{sched}: the recorded config queues");
                    }
                    for (i, (cfg, got)) in configs.iter().zip(&run.results).enumerate() {
                        let want =
                            simulate_engine(&comp, cfg, spec.clone(), SimEngine::EventDriven);
                        assert_eq!(got, &want, "{sched} / {}", cfg.name);
                        if queue_free(cfg) {
                            assert_eq!(want.memory.queue_cycles, 0, "{sched} / {}", cfg.name);
                        }
                        if i > 0 && got.memory.queue_cycles > 0 {
                            replayed_queueing += 1;
                        }
                    }
                }
            }
        }
        assert!(replayed_queueing > 0, "some replayed config must queue");
        // The bound is tight: one cycle past it, back-to-back misses queue.
        let past = simulate_engine(&streaming_comp(), &below, "pdf", SimEngine::EventDriven);
        assert!(past.memory.queue_cycles > 0, "{:?}", past.memory);
    }

    #[test]
    fn multicore_groups_fall_back_to_full_event_runs() {
        let comp = sample_comp();
        let dag = Dag::from_computation(&comp);
        let configs = vec![config(4, 13, 300), config(4, 7, 900)];
        let spec = SchedulerSpec::new("ws");
        let run = simulate_batch(&comp, &dag, &configs, &spec);
        assert_eq!(run.replayed, 0);
        assert_eq!(run.full_runs, 2);
        for (cfg, got) in configs.iter().zip(&run.results) {
            let want = simulate_engine(&comp, cfg, spec.clone(), SimEngine::EventDriven);
            assert_eq!(got, &want, "{}", cfg.name);
        }
    }
}
