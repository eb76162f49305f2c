//! The trace-driven, event-driven CMP simulator (Section 4.1).
//!
//! The machine model follows Table 1: single-threaded in-order scalar cores
//! (one instruction per cycle), private L1 caches, a shared L2, and an
//! off-chip memory with fixed latency and bounded bandwidth.  Execution is
//! trace-driven: every task carries its memory-reference trace, and the
//! simulator interleaves the per-core traces cycle-accurately while a
//! [`Scheduler`] decides which task each core runs next — exactly the
//! methodology of the paper ("executing the DAG on the simulated CMP in
//! accordance with the scheduler").
//!
//! Timing model per memory reference:
//!
//! 1. the preceding compute instructions retire at 1 instruction/cycle;
//! 2. the L1 is probed (its hit latency is charged always; an L1 hit
//!    completes the reference);
//! 3. on an L1 miss the shared L2 is probed after the L2 hit latency;
//! 4. on an L2 miss a request is issued to the memory controller, which
//!    accepts at most one request per `service_interval` cycles (queueing
//!    delay) and returns data `latency` cycles after accepting it.
//!
//! # Engines
//!
//! Two engines implement this model (selected by [`SimEngine`]):
//!
//! * the **event-driven** production engine (this module): a min-heap of
//!   packed `(ready_time, core)` event keys orders the cores, and the core at the head
//!   keeps executing micro-steps *inline* — jumping its local clock forward
//!   over compute runs and L1 hits — for as long as it remains the globally
//!   earliest event.  The heap is only touched when another core's pending
//!   event sorts first, so the common case (a core streaming through L1
//!   hits, or any single-core run) costs zero heap traffic.  Stores
//!   invalidate remote L1 copies through a flat line-id-indexed sharer
//!   directory in `O(sharers)` instead of broadcasting to all `p` L1s.
//!   Traces are consumed through
//!   the computation's precompiled [`LineStream`]: addresses are resolved
//!   to dense line ids once per `(computation, line size)` pair and the hot
//!   loop iterates flat `u32` lanes — no per-access line masking, straddle
//!   division or per-task pointer chasing — with a one-entry **MRU line
//!   filter** in front of each L1 (a read of the line a core touched last
//!   is a guaranteed hit on the MRU way, a state no-op that only the
//!   statistics need to see; see DESIGN.md §8).  The cache hierarchy
//!   itself is **id-native**: per-machine-shape [`SetLanes`] compiled on
//!   the stream map each line id straight to its L1/L2/L3 set index, line ids
//!   double as `u32` cache tags, and the L1s/L2 are
//!   [`CompiledCache`]s probed by `(set, tag)` — the hot loop never
//!   materialises an address.  Each probe is `O(1)` at any associativity:
//!   the line's way hint (a map from line id to way, its pages allocated
//!   as the cache touches them, bounded by the stream's `num_lines`) is
//!   confirmed by one tag compare, and LRU order is a per-set recency
//!   list whose head is the MRU way the filter relies on (DESIGN.md §9);
//! * the **reference** cycle-stepper (`reference` module): the seed loop,
//!   one heap round-trip per micro-step and a broadcast per store, retained
//!   as the executable specification (it reads per-task [`TaskTrace`]s
//!   materialised from the pool through a thin adapter);
//! * the **batched** multi-config engine ([`crate::batch`]): configurations
//!   differing only in latencies share one recorded event-engine pass and
//!   are re-timed per configuration where the schedule is provably
//!   latency-independent (single core), falling back to full event runs
//!   otherwise.  A single-config `SimEngine::Batch` run *is* the event
//!   engine.
//!
//! [`LineStream`]: ccs_dag::LineStream
//! [`SetLanes`]: ccs_dag::SetLanes
//! [`CompiledCache`]: ccs_cache::CompiledCache
//! [`TaskTrace`]: ccs_dag::TaskTrace
//!
//! The two engines are *metrics-identical* — same cycles, same hit/miss/
//! eviction counts — for every computation, configuration and scheduler;
//! see DESIGN.md §7 for the argument and `tests/engine_equivalence.rs` for
//! the property pinning it.
//!
//! Simplifications (documented in DESIGN.md): misses allocate immediately
//! (no MSHR modelling), the L2 is not strictly inclusive of the L1s, and
//! coherence is modelled as write-invalidation of remote L1 copies with no
//! timing cost.  These choices do not affect the L2 miss counts that drive
//! the paper's results.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ccs_cache::{line_tag, CompiledCache, MainMemory};
use ccs_dag::{
    CacheGeometry, Computation, Dag, LineStream, SetLanes, TaskId, STEP_ID_MASK, STEP_WRITE_BIT,
};
use ccs_sched::{Scheduler, SchedulerSpec};

use crate::config::CmpConfig;
use crate::metrics::SimResult;

/// Which simulator engine to run.
///
/// All engines implement the identical machine model and report identical
/// metrics; they differ only in wall-clock cost.  The CLI form (accepted by
/// `--engine`) is `"event"` / `"reference"` / `"batch"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// The production engine: event-heap time jumps, inline micro-step
    /// batching, directory-based invalidation.
    #[default]
    EventDriven,
    /// The retained seed loop: one heap round-trip per micro-step, broadcast
    /// invalidation.  Slow; kept as the executable specification for
    /// equivalence tests and as a `--engine reference` escape hatch.
    Reference,
    /// The batched multi-config engine ([`crate::batch`]): sweep points
    /// differing only in latencies share one recorded event-engine pass and
    /// are re-timed per configuration.  A single-config run is exactly the
    /// event engine; the experiment layer groups points before dispatching.
    Batch,
}

impl SimEngine {
    /// The CLI name (`"event"` / `"reference"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            SimEngine::EventDriven => "event",
            SimEngine::Reference => "reference",
            SimEngine::Batch => "batch",
        }
    }

    /// The engine whose *results* this engine reproduces byte for byte.
    /// `Batch` is a scheduling strategy over the event engine, not a
    /// different simulator, so canonical run-point keys (and therefore the
    /// result store) fold it onto `EventDriven` — a batched record and an
    /// event record of the same point are interchangeable by construction.
    pub fn canonical(self) -> SimEngine {
        match self {
            SimEngine::Batch => SimEngine::EventDriven,
            other => other,
        }
    }
}

impl std::fmt::Display for SimEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SimEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<SimEngine, String> {
        match s {
            "event" | "event-driven" => Ok(SimEngine::EventDriven),
            "reference" | "ref" | "cycle-stepped" => Ok(SimEngine::Reference),
            "batch" | "batched" => Ok(SimEngine::Batch),
            other => Err(format!("unknown engine {other:?} (event|reference|batch)")),
        }
    }
}

/// Observation hooks of the event engine, used by the batched engine
/// ([`crate::batch`]) to record one pass for replay and by
/// [`simulate_counted`] to count the engine's host work.
///
/// The engine is generic over the recorder and the no-op implementation
/// ([`NoRecord`]) inlines to nothing, so the plain [`simulate`] path
/// monomorphises to exactly the uninstrumented hot loop.
pub(crate) trait Record {
    /// A task was handed to a core (in dispatch order — on one core this is
    /// the execution order).
    fn task_dispatched(&mut self, task: TaskId);
    /// An L1 miss probed the shared L2 at stream step `step`; `l2_hit` says
    /// whether it was served there or went to main memory.
    fn l1_miss(&mut self, step: usize, l2_hit: bool);
    /// The running core yielded to another core's earlier event at `site`.
    #[inline(always)]
    fn core_switch(&mut self, _site: SwitchSite) {}
}

/// The recorder of the plain (non-batched) engine: records nothing.
pub(crate) struct NoRecord;

impl Record for NoRecord {
    #[inline(always)]
    fn task_dispatched(&mut self, _task: TaskId) {}
    #[inline(always)]
    fn l1_miss(&mut self, _step: usize, _l2_hit: bool) {}
}

/// Where in a reference the event engine switched cores: the running core
/// parked because another core's pending event sorts before its own next
/// one.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SwitchSite {
    /// An L1 miss waiting for its L2 probe.
    L2Probe,
    /// An L2 miss waiting for its L3 probe (three-level machines).
    L3Probe,
    /// A last-level miss waiting for main memory.
    Memory,
    /// Between two steps: a completed step (an L1 hit or a fill) left the
    /// core behind another core's event.  A resumed probe that misses
    /// parks at the site it then waits on, as the fused path does.
    Step,
}

/// Host-work counts of one event-engine run, from [`simulate_counted`].
///
/// They are deterministic functions of the computation, the machine and
/// the scheduler — the work half of a run's cost, independent of the host.
/// A *switch* is one yield of the running core to another core's earlier
/// event: each costs one event-heap sift and one save and reload of the
/// core's hot record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Switches while an L1 miss waited for its L2 probe.
    pub switches_l2_probe: u64,
    /// Switches while an L2 miss waited for its L3 probe.
    pub switches_l3_probe: u64,
    /// Switches while a last-level miss waited for main memory.
    pub switches_memory: u64,
    /// Switches between two steps of a task.
    pub switches_step: u64,
    /// Tasks handed to cores.
    pub dispatches: u64,
    /// L1 misses (each probes the L2).
    pub l1_misses: u64,
}

impl EngineCounts {
    /// Every switch, summed over the sites.
    pub fn switches(&self) -> u64 {
        self.switches_l2_probe + self.switches_l3_probe + self.switches_memory + self.switches_step
    }
}

impl Record for EngineCounts {
    #[inline]
    fn task_dispatched(&mut self, _task: TaskId) {
        self.dispatches += 1;
    }

    #[inline]
    fn l1_miss(&mut self, _step: usize, _l2_hit: bool) {
        self.l1_misses += 1;
    }

    #[inline]
    fn core_switch(&mut self, site: SwitchSite) {
        *match site {
            SwitchSite::L2Probe => &mut self.switches_l2_probe,
            SwitchSite::L3Probe => &mut self.switches_l3_probe,
            SwitchSite::Memory => &mut self.switches_memory,
            SwitchSite::Step => &mut self.switches_step,
        } += 1;
    }
}

/// What a core is currently doing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// Ready to start (or continue) the current step of the current task.
    #[default]
    NextOp,
    /// An L1 miss is probing the (cluster's) L2; resolves at the core's
    /// `time`.
    L2Probe { id: u32, is_write: bool },
    /// An L2 miss is probing the shared L3 (three-level hierarchies only);
    /// resolves at the core's `time`.
    L3Probe { id: u32, is_write: bool },
    /// A last-level miss is waiting for main memory; data arrives at the
    /// core's `time`.
    MemFill { id: u32, is_write: bool },
}

/// The widest machine the simulator accepts: the event engine's
/// hierarchical sharer mask — one 64-bit summary word over 64 core words —
/// covers 64 × 64 = 4096 cores, and `CmpConfig::validate` rejects wider
/// machines.
pub const MAX_DIRECTORY_CORES: usize = 64 * 64;

/// The event engine's sharer-tracking structure, picked by core count (see
/// DESIGN.md §8 and §12).  All variants maintain the same one-directional
/// invariant — core `c`'s L1 holds a line ⇒ the line's mask has `c`'s bit —
/// and tolerate stale bits, so they are interchangeable metrics-wise; they
/// differ only in the cost of a store.
enum Directory {
    /// One core: no remote copy can exist, so fills and stores skip the
    /// directory entirely.
    Single,
    /// 2–64 cores: one sharer word per line id, indexed flat.
    Flat(Vec<u64>),
    /// 65–[`MAX_DIRECTORY_CORES`] cores: per line id, a *summary word*
    /// (bit `w` = "core word `w` is non-zero") followed by `ceil(p/64)`
    /// core words.  A store walks only the set summary bits and the set
    /// core bits, keeping invalidation `O(sharers)` instead of the former
    /// `O(p)` broadcast.
    Hier {
        /// Words per line: `1 + ceil(p/64)`.
        stride: usize,
        words: Vec<u64>,
    },
}

/// The bits of an event key that hold the core id: `MAX_DIRECTORY_CORES`
/// cores need 12.
const CORE_BITS: u32 = MAX_DIRECTORY_CORES.trailing_zeros();

/// The first simulated time an event key cannot hold: `2^52` cycles.
const MAX_EVENT_TIME: u64 = 1 << (64 - CORE_BITS);

/// The packed event key `time << CORE_BITS | core`: keys order exactly as
/// `(time, core)` tuples, so one `u64` compare decides a yield.
///
/// # Panics
/// Panics when `time` reaches [`MAX_EVENT_TIME`], whose key would wrap.
#[inline]
fn event_key(time: u64, core: usize) -> u64 {
    assert_keyable(time);
    time << CORE_BITS | core as u64
}

/// Panics when `time` reaches [`MAX_EVENT_TIME`].
#[inline]
fn assert_keyable(time: u64) {
    assert!(
        time < MAX_EVENT_TIME,
        "simulated time {time} reaches the event-key bound of 2^52 cycles"
    );
}

/// The part of a core's state an inline run reads and writes, copied into a
/// local at each resume and back at each park.
#[derive(Clone, Copy, Debug, Default)]
struct HotCore {
    /// Index of the current step in the precompiled line stream.
    step: usize,
    /// One past the current task's last step, set at dispatch.
    end: usize,
    phase: Phase,
    /// The next simulation time this core needs attention.
    time: u64,
}

/// The part of a core's state touched only at dispatch and completion.
#[derive(Clone, Copy, Debug, Default)]
struct ColdCore {
    task: Option<TaskId>,
    /// When the current task was dispatched.
    task_started: u64,
    busy: u64,
}

/// Run `comp` on the CMP described by `config` under the selected scheduler,
/// using the default (event-driven) engine.
///
/// The scheduler is resolved through the [global
/// registry](ccs_sched::SchedulerRegistry::global): pass a registered name
/// (`"pdf"`, `"ws-rand@7"`) or a full [`SchedulerSpec`] — user-registered
/// schedulers work unmodified.
pub fn simulate(
    comp: &Computation,
    config: &CmpConfig,
    sched: impl Into<SchedulerSpec>,
) -> SimResult {
    simulate_engine(comp, config, sched, SimEngine::default())
}

/// [`simulate`], with an explicit engine choice.
pub fn simulate_engine(
    comp: &Computation,
    config: &CmpConfig,
    sched: impl Into<SchedulerSpec>,
    engine: SimEngine,
) -> SimResult {
    let dag = Dag::from_computation(comp);
    let mut sched = sched.into().build();
    simulate_with_engine(comp, &dag, config, sched.as_mut(), engine)
}

/// Run `comp` (with its pre-built `dag`) under an externally constructed
/// scheduler, using the default (event-driven) engine.
pub fn simulate_with(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
) -> SimResult {
    simulate_with_engine(comp, dag, config, sched, SimEngine::default())
}

/// [`simulate_with`], with an explicit engine choice.
pub fn simulate_with_engine(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
    engine: SimEngine,
) -> SimResult {
    match engine {
        SimEngine::EventDriven => event_driven(comp, dag, config, sched),
        SimEngine::Reference => crate::reference::simulate_reference(comp, dag, config, sched),
        // A batch of one is the event engine; multi-config batches enter
        // through `crate::batch::simulate_batch`, which owns the grouping.
        SimEngine::Batch => event_driven(comp, dag, config, sched),
    }
}

/// The event engine with its host-work counters: the same [`SimResult`]
/// as [`simulate_with`], plus the run's [`EngineCounts`].  Every other
/// entry point runs uncounted.
pub fn simulate_counted(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
) -> (SimResult, EngineCounts) {
    let mut counts = EngineCounts::default();
    let result = event_driven_rec(comp, dag, config, sched, &mut counts);
    (result, counts)
}

/// The event-driven production engine.
///
/// Ordering invariant: micro-steps are applied in exactly the ascending
/// `(time, core)` order of the reference cycle-stepper.  Pending events
/// live in a min-heap of `time << 12 | core` keys that is touched once per
/// *park*, not once per micro-step (a park hands the heap top on as the
/// next event with one sift), and the heap top after each take is the
/// earliest *other* pending event — which makes the continuation check a
/// single comparison: the running core keeps stepping inline while
/// its key sorts before that frozen top, which cannot
/// change while the core runs (other cores only mutate state when they
/// themselves are stepped).  That is precisely the condition under which
/// the reference would pop this same continuation event next, so shared
/// state (L2, memory controller, remote-L1 invalidations) is touched in an
/// identical sequence and the two engines are metrics-identical by
/// construction.
///
/// Traces are consumed through the computation's precompiled
/// [`LineStream`]: each core walks a contiguous `u32` window of
/// line-granular steps, so the per-access work is three streaming lane
/// loads plus the cache probes — the line masking, straddle division and
/// per-task `Vec` indirection of the seed are all gone from the hot loop.
fn event_driven(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
) -> SimResult {
    event_driven_rec(comp, dag, config, sched, &mut NoRecord)
}

/// [`event_driven`], generic over a [`Record`] observer.  With [`NoRecord`]
/// this monomorphises to the uninstrumented engine; the batched engine
/// passes a tape recorder to capture the dispatch and miss sequence of one
/// pass for per-config re-timing.
pub(crate) fn event_driven_rec<R: Record>(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
    rec: &mut R,
) -> SimResult {
    // Monomorphise the hot loop per hierarchy depth: the two-level variant
    // compiles to exactly the pre-L3 engine (paired lanes, no L3 branch in
    // any path), the three-level variant decodes the triple lanes and
    // probes the L3 between an L2 miss and memory.
    if config.l3.is_some() {
        event_loop::<R, true>(comp, dag, config, sched, rec)
    } else {
        event_loop::<R, false>(comp, dag, config, sched, rec)
    }
}

/// The engine body, monomorphised over `HAS_L3` (see [`event_driven_rec`]).
fn event_loop<R: Record, const HAS_L3: bool>(
    comp: &Computation,
    dag: &Dag,
    config: &CmpConfig,
    sched: &mut dyn Scheduler,
    rec: &mut R,
) -> SimResult {
    config.assert_valid();
    let p = config.num_cores;
    debug_assert_eq!(config.l3.is_some(), HAS_L3);
    let clusters = config.clusters;
    let cores_per_cluster = p / clusters;
    let n = comp.num_tasks();
    let line_size = config.l2.line_size;
    // Resolve addresses to dense line ids once per (computation, line
    // size); every simulation of this sweep point shares the compiled
    // stream through the computation's cache.
    let stream_arc = comp.line_stream(line_size);
    let stream: &LineStream = &stream_arc;
    let stream_packed = stream.packed();
    // Geometry-compiled lanes: line id → packed set indices, one table per
    // distinct machine shape, memoised on the stream so every scheduler ×
    // core-count point of a sweep shares it.  Together with the id-as-tag
    // convention (`line_tag`) the hot loop below never touches a 64-bit
    // address: probes are (u32 set, u32 tag) pairs, and the lower-level
    // sets ride in the high bits of the word the L1 probe already loaded —
    // an L1 (or L2) miss costs no extra lane traffic (DESIGN.md §9, §12).
    let l1_geometry = CacheGeometry::new(line_size, config.l1.num_sets());
    let l2_geometry = CacheGeometry::new(line_size, config.l2.num_sets());
    let lanes = match &config.l3 {
        Some(l3) => stream.geometry_triple(
            l1_geometry,
            l2_geometry,
            CacheGeometry::new(line_size, l3.num_sets()),
        ),
        None => stream.geometry_pair(l1_geometry, l2_geometry),
    };
    let set_lane: &[u64] = lanes.packed();

    let l1_hit_latency = config.l1.hit_latency;
    let l2_hit_latency = config.l2.hit_latency;
    let l3_hit_latency = config.l3.as_ref().map_or(0, |c| c.hit_latency);
    // Every cache is probed by the stream's line ids, so the id count
    // bounds its way-hint map (pages of which it allocates as it touches
    // them).
    let new_cache = |c: &ccs_cache::CacheConfig| {
        CompiledCache::new(c.num_sets(), c.associativity, stream.num_lines())
    };
    let mut l1s: Vec<CompiledCache> = (0..p).map(|_| new_cache(&config.l1)).collect();
    // One L2 per cluster (`clusters == 1` is the paper's single shared L2);
    // a core probes the L2 of cluster `core_id / cores_per_cluster`.
    let mut l2s: Vec<CompiledCache> = (0..clusters).map(|_| new_cache(&config.l2)).collect();
    let mut l3 = config.l3.as_ref().map(new_cache);
    let mut memory = MainMemory::new(config.memory);
    // Line-ownership directory: stores invalidate only the L1s that may
    // hold a copy (`O(sharers)`), instead of broadcasting to all `p`.  With
    // the stream's dense line ids the directory is a *flat sharer-mask
    // array indexed by line id* — one indexed load instead of the open-
    // addressing probe sequence a line-address map needs.  Bits are set on
    // every L1 allocation and only pruned by stores, so the mask is a
    // superset of the true holders (a stale bit costs one no-op
    // invalidation — metrics-identical to the broadcast).  A single core
    // has no remote copies to invalidate; past 64 cores the mask goes
    // hierarchical — a summary word over `ceil(p/64)` core words per line
    // (DESIGN.md §12) — so invalidation stays `O(sharers)` all the way to
    // `MAX_DIRECTORY_CORES`, the widest machine `CmpConfig::validate`
    // accepts.
    let mut directory = if p == 1 {
        Directory::Single
    } else if p <= 64 {
        Directory::Flat(vec![0u64; stream.num_lines()])
    } else {
        debug_assert!(p <= MAX_DIRECTORY_CORES, "validated core count");
        let stride = 1 + p.div_ceil(64);
        Directory::Hier {
            stride,
            words: vec![0u64; stream.num_lines() * stride],
        }
    };
    // One-entry MRU filter per core: the line id this core's last completed
    // access left at the MRU position of its L1 (`NO_LINE` = unknown).  A
    // read matching the filter is a guaranteed L1 hit on the MRU way — a
    // pure state no-op — so only the statistics are recorded.  Remote
    // stores clear the victimised cores' entries, keeping the guarantee
    // exact (see DESIGN.md §8 for the argument).
    const NO_LINE: u32 = u32::MAX;
    let mut mru: Vec<u32> = vec![NO_LINE; p];

    let mut hot: Vec<HotCore> = vec![HotCore::default(); p];
    let mut cold: Vec<ColdCore> = vec![ColdCore::default(); p];
    // A core probes the L2 of its cluster.
    let l2_of: Vec<usize> = (0..p).map(|c| c / cores_per_cluster).collect();
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

    // Pending events, keyed by `(time, core)` packed into one `u64`
    // ([`event_key`]) for deterministic ordering — the same min-heap
    // discipline as the reference, but touched once per *park* (a blocked
    // miss or a lost yield race), not once per micro-step, so heap traffic
    // is orders of magnitude lower.  Idle cores are tracked separately and
    // woken on completions.
    let mut active: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(p + 1);
    let mut idle: Vec<usize> = Vec::new();

    // Dispatch as much ready work as possible at `now`.  `first` is the
    // core that just completed a task (not yet back in `idle`): it is
    // offered work before the others — the reference's dispatch
    // preference — and binary-inserted into the sorted idle list if the
    // scheduler has nothing for it.  The remaining idle cores are offered
    // work in ascending id order through one forward compaction pass.
    //
    // `idle` is kept sorted **by construction** (cores only enter through
    // the binary insert below), so there is no per-dispatch
    // `sort_unstable` and no `remove`/`insert(0, ..)` churn — O(p) array
    // work per dispatch instead of O(p²).  The sequence of `next_task`
    // calls (which drives scheduler-internal state such as steal RNGs) is
    // exactly the reference's: `first`, then the rest ascending, with the
    // `ready_count` cut-off checked before every offer — so schedules,
    // and therefore metrics, cannot move.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<R: Record>(
        now: u64,
        first: Option<usize>,
        sched: &mut dyn Scheduler,
        stream: &LineStream,
        hot: &mut [HotCore],
        cold: &mut [ColdCore],
        idle: &mut Vec<usize>,
        active: &mut BinaryHeap<Reverse<u64>>,
        rec: &mut R,
    ) {
        debug_assert!(idle.windows(2).all(|w| w[0] < w[1]), "idle list unsorted");
        let mut activate = |core_id: usize, task: TaskId| {
            rec.task_dispatched(task);
            let (step, end) = stream.range(task);
            hot[core_id] = HotCore {
                step,
                end,
                phase: Phase::NextOp,
                time: now,
            };
            cold[core_id].task = Some(task);
            cold[core_id].task_started = now;
            active.push(Reverse(event_key(now, core_id)));
        };
        // The completing core gets first refusal; if it parks, it must
        // not be offered work again below, so its insert waits until
        // after the pass.
        let mut park_first = None;
        if let Some(f) = first {
            match if sched.ready_count() > 0 {
                sched.next_task(f)
            } else {
                None
            } {
                Some(task) => activate(f, task),
                None => park_first = Some(f),
            }
        }
        // One forward pass: assigned cores are dropped, still-idle cores
        // are compacted in place (ascending order preserved); the
        // unvisited tail after a ready-count cut-off is shifted down.
        let n_idle = idle.len();
        let mut write = 0;
        let mut read = 0;
        while read < n_idle {
            if sched.ready_count() == 0 {
                break;
            }
            let core_id = idle[read];
            read += 1;
            match sched.next_task(core_id) {
                Some(task) => activate(core_id, task),
                None => {
                    idle[write] = core_id;
                    write += 1;
                }
            }
        }
        idle.copy_within(read..n_idle, write);
        idle.truncate(write + (n_idle - read));
        if let Some(f) = park_first {
            let pos = idle.partition_point(|&c| c < f);
            idle.insert(pos, f);
        }
    }

    // Initial dispatch at time 0.
    idle.extend(0..p);
    dispatch(
        0,
        None,
        sched,
        stream,
        &mut hot,
        &mut cold,
        &mut idle,
        &mut active,
        rec,
    );

    // The reference also folds every popped event time into the makespan,
    // but a core's event times never exceed the finish time of the task it
    // is running, so max-over-finishes is the same value.
    let mut makespan = 0u64;
    // Scratch for newly enabled successors, reused across completions.
    let mut newly: Vec<TaskId> = Vec::new();

    // The event a park handed off: when a core parks, the heap top is by
    // construction the next event, so the parking core's key overwrites the
    // top's slot (one sift-down) and the top's key is carried here to run
    // next without touching the heap again.
    let mut handed_off: Option<u64> = None;

    while completed < n {
        // Take the earliest event; the heap top after it is the earliest
        // event any *other* core holds.  The latter is frozen for the whole
        // inline run: other cores' times only change when they are stepped,
        // and dispatch only runs at this core's task completion (which ends
        // the run).  `yield_key` = "yield to that event"; `u64::MAX` when
        // this core is alone.
        let key = match handed_off.take() {
            Some(key) => key,
            None => {
                active
                    .pop()
                    .expect("simulator deadlock: tasks remain but no core is active")
                    .0
            }
        };
        let yield_key = active.peek().map_or(u64::MAX, |top| top.0);
        let core_id = (key & ((1 << CORE_BITS) - 1)) as usize;
        let core_key = core_id as u64;
        debug_assert_eq!(hot[core_id].time, key >> CORE_BITS);
        // Hoisted per run: the hot core state lives in a local (register-
        // resident, written back on a park), and this core's L1 is split
        // out of the slice so probes skip the per-call indexing.
        let mut core = hot[core_id];
        let (l1s_below, rest) = l1s.split_at_mut(core_id);
        let (my_l1, l1s_above) = rest.split_first_mut().expect("core id in range");
        let my_l2 = &mut l2s[l2_of[core_id]];

        // Yield check: does the frozen top sort before this core at `time`?
        // A time past the key bound wraps here, but then the task's finish
        // is past it too, and the completion check below panics.
        macro_rules! yields {
            ($time:expr) => {
                yield_key < ($time << CORE_BITS | core_key)
            };
        }
        // Park this core at `site` and hand the frozen top on to run next.
        macro_rules! park {
            ($site:expr) => {
                rec.core_switch($site);
                *active.peek_mut().expect("a yield has an event to yield to") =
                    Reverse(event_key(core.time, core_id));
                handed_off = Some(yield_key);
                hot[core_id] = core;
                break;
            };
        }
        // A lower-level hit or a returning memory fill: install the line in
        // this core's L1 and move on to the next step.  The miss already
        // allocated the line at the MRU position with the right dirty bit,
        // and this core makes no other L1 accesses while blocked, so the
        // fill is a state no-op *unless* a remote store invalidated the
        // line in flight.  For the in-flight line the directory is exact
        // (stale bits only arise from evictions, and a blocked core evicts
        // nothing), so the sharer bit decides; with one core no remote
        // store exists at all.  Either way the line ends at the MRU
        // position of this L1, so the filter latches it.
        macro_rules! fill_and_advance {
            ($id:expr, $is_write:expr) => {
                match &mut directory {
                    Directory::Single => {}
                    Directory::Flat(dir) => {
                        let slot = &mut dir[$id as usize];
                        if *slot & (1u64 << core_id) == 0 {
                            my_l1.fill_compiled(
                                SetLanes::l1_set(set_lane[$id as usize]),
                                line_tag($id),
                                $is_write,
                            );
                            *slot |= 1u64 << core_id;
                        }
                    }
                    Directory::Hier { stride, words } => {
                        let base = $id as usize * *stride;
                        let bit = 1u64 << (core_id % 64);
                        let word = &mut words[base + 1 + core_id / 64];
                        if *word & bit == 0 {
                            my_l1.fill_compiled(
                                SetLanes::l1_set(set_lane[$id as usize]),
                                line_tag($id),
                                $is_write,
                            );
                            *word |= bit;
                            words[base] |= 1u64 << (core_id / 64);
                        }
                    }
                }
                mru[core_id] = $id;
                core.step += 1;
                core.phase = Phase::NextOp;
            };
        }

        // Step this core inline while it remains the globally earliest
        // event; yield the moment another core sorts first.  The resume
        // arms (`L2Probe`/`MemFill`) only run after such a yield — on the
        // all-inline path every phase of a reference is fused into the
        // `NextOp` arm.
        loop {
            match core.phase {
                Phase::NextOp => {
                    if core.step < core.end {
                        // One packed lane word holds both the preceding
                        // compute (charged once; zero on the trailing lines
                        // of a straddling reference) and the step, so the
                        // per-access stream traffic is a single load; the
                        // L1 probe latency is always paid.
                        let word = stream_packed[core.step];
                        core.time += LineStream::pre_of(word) as u64 + l1_hit_latency;
                        let step = LineStream::step_of(word);
                        let id = step & STEP_ID_MASK;
                        let is_write = step & STEP_WRITE_BIT != 0;
                        if !is_write && mru[core_id] == id {
                            // MRU filter: this core's last completed access
                            // left `id` at the MRU way of its L1 and no
                            // remote store invalidated it since, so the
                            // probe would be a hit that changes no cache
                            // state — record the hit and move on.
                            my_l1.record_mru_read_hit();
                            core.step += 1;
                        } else {
                            // Id-native probe: one packed lane word gives
                            // every set index, the id doubles as the u32
                            // tag — no address is ever formed.
                            let tag = line_tag(id);
                            let sets = set_lane[id as usize];
                            let l1_set = SetLanes::l1_set(sets);
                            let hit = my_l1.access_compiled(l1_set, tag, is_write);
                            match &mut directory {
                                Directory::Single => {}
                                Directory::Flat(dir) => {
                                    let slot = &mut dir[id as usize];
                                    if !hit {
                                        // The probe allocated the line: record
                                        // the copy.  The evicted victim's bit is
                                        // left stale on purpose (see the
                                        // directory comment above).
                                        *slot |= 1u64 << core_id;
                                    }
                                    if is_write {
                                        // Write-invalidate the sharing L1s only,
                                        // dropping their MRU-filter entries for
                                        // this line.  Private L1s share one
                                        // geometry, so the victim's set index is
                                        // this core's.
                                        let mut others = *slot & !(1u64 << core_id);
                                        *slot &= 1u64 << core_id;
                                        while others != 0 {
                                            let other = others.trailing_zeros() as usize;
                                            others &= others - 1;
                                            if other < core_id {
                                                l1s_below[other].invalidate_compiled(l1_set, tag);
                                            } else {
                                                l1s_above[other - core_id - 1]
                                                    .invalidate_compiled(l1_set, tag);
                                            }
                                            if mru[other] == id {
                                                mru[other] = NO_LINE;
                                            }
                                        }
                                    }
                                }
                                Directory::Hier { stride, words } => {
                                    // The hierarchical form of the flat arm
                                    // above: the summary word steers the walk
                                    // to the non-empty core words, so a store
                                    // visits O(sharers) words regardless of p.
                                    let base = id as usize * *stride;
                                    let my_word = core_id / 64;
                                    let my_bit = 1u64 << (core_id % 64);
                                    if !hit {
                                        words[base + 1 + my_word] |= my_bit;
                                        words[base] |= 1u64 << my_word;
                                    }
                                    if is_write {
                                        let mut summary = words[base];
                                        while summary != 0 {
                                            let w = summary.trailing_zeros() as usize;
                                            summary &= summary - 1;
                                            let mut others = words[base + 1 + w];
                                            if w == my_word {
                                                others &= !my_bit;
                                            }
                                            while others != 0 {
                                                let other =
                                                    w * 64 + others.trailing_zeros() as usize;
                                                others &= others - 1;
                                                if other < core_id {
                                                    l1s_below[other]
                                                        .invalidate_compiled(l1_set, tag);
                                                } else {
                                                    l1s_above[other - core_id - 1]
                                                        .invalidate_compiled(l1_set, tag);
                                                }
                                                if mru[other] == id {
                                                    mru[other] = NO_LINE;
                                                }
                                            }
                                            words[base + 1 + w] = if w == my_word {
                                                words[base + 1 + w] & my_bit
                                            } else {
                                                0
                                            };
                                        }
                                        words[base] = if words[base + 1 + my_word] != 0 {
                                            1u64 << my_word
                                        } else {
                                            0
                                        };
                                    }
                                }
                            }
                            if hit {
                                mru[core_id] = id;
                                core.step += 1;
                                // stay in NextOp
                            } else {
                                // L1 miss: the L2 probe resolves after the L2
                                // hit latency.  Fused fast path — run the
                                // probe (and, on a deeper miss, the L3 probe
                                // and memory fill) right now unless another
                                // core's event interleaves.
                                core.time += l2_hit_latency;
                                if yields!(core.time) {
                                    core.phase = Phase::L2Probe { id, is_write };
                                    park!(SwitchSite::L2Probe);
                                }
                                let l2_hit =
                                    my_l2.access_compiled(SetLanes::l2_set(sets), tag, is_write);
                                rec.l1_miss(core.step, l2_hit);
                                if l2_hit {
                                    fill_and_advance!(id, is_write);
                                } else if HAS_L3 {
                                    core.time += l3_hit_latency;
                                    if yields!(core.time) {
                                        core.phase = Phase::L3Probe { id, is_write };
                                        park!(SwitchSite::L3Probe);
                                    }
                                    let l3_hit = l3.as_mut().expect("HAS_L3").access_compiled(
                                        SetLanes::l3_set(sets),
                                        tag,
                                        is_write,
                                    );
                                    if l3_hit {
                                        fill_and_advance!(id, is_write);
                                    } else {
                                        core.time = memory.request(core.time);
                                        if yields!(core.time) {
                                            core.phase = Phase::MemFill { id, is_write };
                                            park!(SwitchSite::Memory);
                                        }
                                        fill_and_advance!(id, is_write);
                                    }
                                } else {
                                    core.time = memory.request(core.time);
                                    if yields!(core.time) {
                                        core.phase = Phase::MemFill { id, is_write };
                                        park!(SwitchSite::Memory);
                                    }
                                    fill_and_advance!(id, is_write);
                                }
                            }
                        }
                    } else {
                        // Task body finished: trailing compute, then
                        // completion.
                        let task_id = cold[core_id]
                            .task
                            .take()
                            .expect("active core without a task");
                        let finish = core.time.saturating_add(comp.task(task_id).post_compute);
                        // Every event time of the task is at most its
                        // finish, so this one check covers them all.
                        assert_keyable(finish);
                        makespan = makespan.max(finish);
                        cold[core_id].busy += finish - cold[core_id].task_started;
                        completed += 1;
                        // Enable newly ready successors in reverse sequential
                        // order (see the root-enabling comment above).
                        newly.clear();
                        for &s in dag.successors(task_id) {
                            in_deg[s.index()] -= 1;
                            if in_deg[s.index()] == 0 {
                                newly.push(s);
                            }
                        }
                        newly.sort_by_key(|t| std::cmp::Reverse(dag.seq_rank(*t)));
                        for &s in &newly {
                            sched.task_enabled(s, Some(core_id));
                        }
                        // This core is handed to dispatch as `first`: it
                        // gets the work preference and parks into the
                        // sorted idle list only if nothing fits.
                        dispatch(
                            finish,
                            Some(core_id),
                            sched,
                            stream,
                            &mut hot,
                            &mut cold,
                            &mut idle,
                            &mut active,
                            rec,
                        );
                        // The core went idle (any new task it was handed is
                        // a fresh pending event): leave the inline loop.
                        break;
                    }
                }
                Phase::L2Probe { id, is_write } => {
                    let l2_set = SetLanes::l2_set(set_lane[id as usize]);
                    let l2_hit = my_l2.access_compiled(l2_set, line_tag(id), is_write);
                    rec.l1_miss(core.step, l2_hit);
                    if l2_hit {
                        fill_and_advance!(id, is_write);
                    } else if HAS_L3 {
                        core.time += l3_hit_latency;
                        core.phase = Phase::L3Probe { id, is_write };
                        if yields!(core.time) {
                            park!(SwitchSite::L3Probe);
                        }
                    } else {
                        core.time = memory.request(core.time);
                        core.phase = Phase::MemFill { id, is_write };
                        if yields!(core.time) {
                            park!(SwitchSite::Memory);
                        }
                    }
                }
                Phase::L3Probe { id, is_write } => {
                    let l3_set = SetLanes::l3_set(set_lane[id as usize]);
                    let l3_hit = l3.as_mut().expect("HAS_L3").access_compiled(
                        l3_set,
                        line_tag(id),
                        is_write,
                    );
                    if l3_hit {
                        fill_and_advance!(id, is_write);
                    } else {
                        core.time = memory.request(core.time);
                        core.phase = Phase::MemFill { id, is_write };
                        if yields!(core.time) {
                            park!(SwitchSite::Memory);
                        }
                    }
                }
                Phase::MemFill { id, is_write } => {
                    fill_and_advance!(id, is_write);
                }
            }

            // The core wants to continue at its (possibly advanced) local
            // time.  If the earliest other pending event now sorts first,
            // yield to it; otherwise this core is still the globally
            // earliest event and steps again inline.
            if yields!(core.time) {
                park!(SwitchSite::Step);
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
        core_busy: cold.iter().map(|c| c.busy).collect(),
        tasks: n,
        l2_line_size: line_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{ComputationBuilder, GroupMeta};

    /// A computation of `width` strands each streaming over its own
    /// `bytes_per_task`-byte array, followed by a join strand.
    fn disjoint_streams(width: usize, bytes_per_task: u64) -> Computation {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let leaves: Vec<_> = (0..width)
            .map(|_| {
                let region = space.alloc(bytes_per_task);
                b.strand_with(|t| {
                    t.read_range(region.base, region.bytes, 3);
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("streams"));
        let join = b.strand_with(|t| {
            t.compute(10);
        });
        let root = b.seq(vec![par, join], GroupMeta::labeled("root"));
        b.finish(root)
    }

    /// A computation where every strand re-reads the same shared array.
    fn shared_streams(width: usize, bytes: u64) -> Computation {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let region = space.alloc(bytes);
        let leaves: Vec<_> = (0..width)
            .map(|_| {
                b.strand_with(|t| {
                    t.read_range(region.base, region.bytes, 3);
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("shared"));
        let comp_root = b.seq(vec![par], GroupMeta::labeled("root"));
        b.finish(comp_root)
    }

    /// A computation whose strands interleave writes to a shared array with
    /// private reads (exercises the invalidation/directory path).
    fn shared_writers(width: usize, bytes: u64) -> Computation {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let region = space.alloc(bytes);
        let leaves: Vec<_> = (0..width)
            .map(|_| {
                let private = space.alloc(bytes);
                b.strand_with(|t| {
                    t.read_range(region.base, region.bytes, 2);
                    t.write_range(region.base, region.bytes / 2, 2);
                    t.read_range(private.base, private.bytes, 2);
                    t.write_range(region.base + region.bytes / 2, region.bytes / 2, 2);
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("writers"));
        let comp_root = b.seq(vec![par], GroupMeta::labeled("root"));
        b.finish(comp_root)
    }

    fn tiny_config(cores: usize, l2_kb: u64) -> CmpConfig {
        let mut cfg = CmpConfig::default_with_cores(if cores <= 1 { 1 } else { 16 }).unwrap();
        cfg.num_cores = cores;
        cfg.name = format!("tiny-{cores}");
        cfg.l1 = ccs_cache::CacheConfig::new(4 * 1024, 128, 4, 1);
        cfg.l2 = ccs_cache::CacheConfig::new(l2_kb * 1024, 128, 16, 13);
        cfg
    }

    #[test]
    fn single_core_executes_all_instructions() {
        let comp = disjoint_streams(4, 16 * 1024);
        let cfg = tiny_config(1, 64);
        let r = simulate(&comp, &cfg, "pdf");
        assert_eq!(r.instructions, comp.total_work());
        assert_eq!(r.tasks, comp.num_tasks());
        // Every cycle accounted: cycles >= instructions (1 IPC peak).
        assert!(r.cycles >= r.instructions);
        assert!(r.l2.misses > 0, "cold misses must reach memory");
        assert_eq!(r.l2.misses, r.memory.requests);
    }

    #[test]
    fn parallel_run_is_faster_but_not_superlinear() {
        let comp = disjoint_streams(8, 8 * 1024);
        let seq = simulate(&comp, &tiny_config(1, 512), "pdf");
        for kind in ["pdf", "ws"] {
            let par = simulate(&comp, &tiny_config(4, 512), kind);
            let speedup = par.speedup_over(&seq);
            assert!(speedup > 1.5, "{kind}: speedup {speedup}");
            assert!(speedup < 4.5, "{kind}: speedup {speedup} super-linear");
        }
    }

    #[test]
    fn schedulers_execute_same_work_with_same_total_references() {
        let comp = disjoint_streams(6, 4 * 1024);
        let cfg = tiny_config(3, 128);
        let pdf = simulate(&comp, &cfg, "pdf");
        let ws = simulate(&comp, &cfg, "ws");
        assert_eq!(pdf.instructions, ws.instructions);
        assert_eq!(pdf.l1.accesses, ws.l1.accesses);
        assert_eq!(pdf.tasks, ws.tasks);
    }

    #[test]
    fn shared_working_set_hits_in_l2() {
        // 8 tasks re-reading one 32 KB array on a 256 KB L2: after the cold
        // pass everything hits in L2 (or L1).
        let comp = shared_streams(8, 32 * 1024);
        let cfg = tiny_config(4, 256);
        let r = simulate(&comp, &cfg, "pdf");
        let cold = 32 * 1024 / 128;
        assert_eq!(r.l2.misses, cold, "only compulsory misses expected");
    }

    #[test]
    fn disjoint_working_sets_thrash_small_l2() {
        // 8 tasks × 32 KB each = 256 KB aggregate on a 64 KB L2: running them
        // in parallel with disjoint working sets must miss far more than the
        // shared case.
        let comp = disjoint_streams(8, 32 * 1024);
        let cfg = tiny_config(4, 64);
        let r = simulate(&comp, &cfg, "ws");
        let cold = 8 * 32 * 1024 / 128;
        assert!(r.l2.misses >= cold, "at least all compulsory misses");
    }

    #[test]
    fn memory_bandwidth_utilization_is_bounded() {
        let comp = disjoint_streams(8, 16 * 1024);
        let cfg = tiny_config(8, 64);
        let r = simulate(&comp, &cfg, "ws");
        assert!(r.bandwidth_utilization > 0.0);
        assert!(r.bandwidth_utilization <= 1.0);
        assert!(r.core_utilization() <= 1.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let comp = disjoint_streams(5, 8 * 1024);
        let cfg = tiny_config(3, 128);
        for kind in ["pdf", "ws"] {
            let a = simulate(&comp, &cfg, kind);
            let b = simulate(&comp, &cfg, kind);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.l2.misses, b.l2.misses);
        }
    }

    #[test]
    fn zero_reference_tasks_complete() {
        let mut b = ComputationBuilder::new(128);
        let l = b.strand_with(|t| {
            t.compute(100);
        });
        let r2 = b.nop();
        let p = b.par(vec![l, r2], GroupMeta::default());
        let comp = b.finish(p);
        let cfg = tiny_config(2, 64);
        let r = simulate(&comp, &cfg, "pdf");
        assert_eq!(r.tasks, 2);
        assert_eq!(r.cycles, 100);
    }

    #[test]
    fn more_cores_than_tasks_is_fine() {
        let comp = disjoint_streams(2, 4 * 1024);
        let cfg = tiny_config(8, 128);
        let r = simulate(&comp, &cfg, "ws");
        assert_eq!(r.tasks, 3);
        assert!(r.cycles > 0);
    }

    #[test]
    fn engines_agree_on_stream_scenarios() {
        let scenarios: Vec<(&str, Computation)> = vec![
            ("disjoint", disjoint_streams(6, 8 * 1024)),
            ("shared", shared_streams(6, 16 * 1024)),
            ("writers", shared_writers(6, 8 * 1024)),
        ];
        for (name, comp) in &scenarios {
            for cores in [1usize, 2, 4] {
                for kind in ["pdf", "ws"] {
                    let cfg = tiny_config(cores, 128);
                    let fast = simulate_engine(comp, &cfg, kind, SimEngine::EventDriven);
                    let slow = simulate_engine(comp, &cfg, kind, SimEngine::Reference);
                    assert_eq!(fast, slow, "{name}/{kind}/{cores} cores");
                }
            }
        }
    }

    /// Dispatch-churn pin for the compacting idle-list dispatch: hundreds
    /// of short tasks over more cores than parallelism, so cores park and
    /// wake constantly and the scheduler sees a long sequence of
    /// `next_task` offers.  The results must be deterministic across
    /// repeats *and* byte-identical to the reference engine — which
    /// retains the seed's sort + remove/insert dispatch verbatim — for
    /// both schedulers and a seeded random-victim work stealer (whose RNG
    /// consumption pins the exact offer order, not just the outcome).
    #[test]
    fn dispatch_rework_preserves_offer_order_and_results() {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let shared = space.alloc(8 * 1024);
        let leaves: Vec<_> = (0..96)
            .map(|i| {
                b.strand_with(|t| {
                    t.compute(i % 7 + 1).read(shared.base + (i % 16) * 128, 8);
                    if i % 5 == 0 {
                        t.write(shared.base + (i % 16) * 128, 8);
                    }
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("churn"));
        let comp = b.finish(par);
        for cores in [3usize, 8, 16] {
            let cfg = tiny_config(cores, 128);
            for kind in ["pdf", "ws", "ws-rand@9"] {
                let fast = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
                let again = simulate_engine(&comp, &cfg, kind, SimEngine::EventDriven);
                assert_eq!(fast, again, "{kind} / {cores} cores must be deterministic");
                let slow = simulate_engine(&comp, &cfg, kind, SimEngine::Reference);
                assert_eq!(fast, slow, "{kind} / {cores} cores vs reference");
            }
        }
    }

    /// Three-level and clustered topologies: the event engine's packed
    /// triple lanes, per-cluster L2s and hierarchical sharer masks (96
    /// cores exercises the multi-word `Directory::Hier` arm) must stay
    /// byte-identical to the reference cycle-stepper.
    #[test]
    fn engines_agree_with_l3_clusters_and_hier_masks() {
        let scenarios: Vec<(&str, Computation)> = vec![
            ("shared", shared_streams(12, 8 * 1024)),
            ("writers", shared_writers(12, 4 * 1024)),
        ];
        for (name, comp) in &scenarios {
            for (cores, clusters) in [(4usize, 2usize), (8, 4), (96, 4)] {
                for kind in ["pdf", "ws"] {
                    let cfg = tiny_config(cores, 64).clustered(clusters).with_l3_mb(1);
                    let fast = simulate_engine(comp, &cfg, kind, SimEngine::EventDriven);
                    let slow = simulate_engine(comp, &cfg, kind, SimEngine::Reference);
                    assert_eq!(
                        fast, slow,
                        "{name}/{kind}/{cores} cores/{clusters} clusters"
                    );
                }
            }
        }
    }

    #[test]
    fn l3_absorbs_l2_misses() {
        // 8 tasks re-reading one 32 KB array: a 16 KB L2 thrashes, the 1 MB
        // L3 behind it catches the reuse.
        let comp = shared_streams(8, 32 * 1024);
        let cfg = tiny_config(4, 16).with_l3_mb(1);
        let r = simulate(&comp, &cfg, "pdf");
        assert!(r.l3.accesses > 0);
        assert_eq!(r.l3.accesses, r.l2.misses, "every L2 miss probes the L3");
        assert!(r.l3.misses < r.l3.accesses, "warm reuse hits in the L3");
        assert_eq!(r.l3.misses, r.memory.requests, "only L3 misses go off-chip");
        assert!(r.l3_mpki() > 0.0);
        let flat = simulate(&comp, &tiny_config(4, 16), "pdf");
        assert_eq!(flat.l3, ccs_cache::CacheStats::default());
        assert!(
            flat.memory.requests > r.memory.requests,
            "the L3 filters traffic"
        );
    }

    #[test]
    fn clustered_l2_misses_more_than_one_shared_l2() {
        // 8 tasks sharing one 32 KB array: with one shared 64 KB L2 only the
        // cold pass misses; split into 4×16 KB cluster slices, each cluster
        // re-fetches the array for itself.
        let comp = shared_streams(8, 32 * 1024);
        let shared = simulate(&comp, &tiny_config(8, 64), "pdf");
        let clustered = simulate(&comp, &tiny_config(8, 64).clustered(4), "pdf");
        assert_eq!(shared.instructions, clustered.instructions);
        assert!(
            clustered.l2.misses > shared.l2.misses,
            "partitioned slices lose constructive sharing: {} vs {}",
            clustered.l2.misses,
            shared.l2.misses
        );
    }

    #[test]
    fn engine_parses_and_prints() {
        assert_eq!("event".parse::<SimEngine>(), Ok(SimEngine::EventDriven));
        assert_eq!("reference".parse::<SimEngine>(), Ok(SimEngine::Reference));
        assert_eq!("batch".parse::<SimEngine>(), Ok(SimEngine::Batch));
        assert_eq!(SimEngine::default(), SimEngine::EventDriven);
        assert_eq!(SimEngine::Reference.to_string(), "reference");
        assert_eq!(SimEngine::Batch.to_string(), "batch");
        assert_eq!(SimEngine::Batch.canonical(), SimEngine::EventDriven);
        assert_eq!(SimEngine::Reference.canonical(), SimEngine::Reference);
        assert!("quantum".parse::<SimEngine>().is_err());
    }

    /// A single-config run through `SimEngine::Batch` is exactly the event
    /// engine (the batch grouping lives in the experiment layer).
    #[test]
    fn batch_engine_on_one_config_is_the_event_engine() {
        let comp = shared_writers(6, 8 * 1024);
        let cfg = tiny_config(4, 128);
        let event = simulate_engine(&comp, &cfg, "pdf", SimEngine::EventDriven);
        let batch = simulate_engine(&comp, &cfg, "pdf", SimEngine::Batch);
        assert_eq!(event, batch);
    }

    /// The exact host work of a small 2-core run: every switch site of a
    /// two-level machine fires, and the counted run reports the same
    /// result as the plain one.
    #[test]
    fn switch_counts_of_a_two_core_run_are_pinned() {
        let comp = shared_writers(4, 2 * 1024);
        let dag = Dag::from_computation(&comp);
        let count = |cfg: &CmpConfig| {
            let mut sched = SchedulerSpec::new("pdf").build();
            let (result, counts) = simulate_counted(&comp, &dag, cfg, sched.as_mut());
            assert_eq!(result, simulate(&comp, cfg, "pdf"));
            assert_eq!(counts.dispatches, result.tasks as u64);
            assert_eq!(counts.l1_misses, result.l1.misses);
            counts
        };
        let counts = count(&tiny_config(2, 64));
        assert_eq!(
            counts,
            EngineCounts {
                switches_l2_probe: 41,
                switches_l3_probe: 0,
                switches_memory: 80,
                switches_step: 13,
                dispatches: 4,
                l1_misses: 144,
            }
        );
        assert_eq!(counts.switches(), 134);
    }

    /// The widest machine: core ids up to 4095 fill every bit of the
    /// packed event key's core field, and the event engine must still
    /// order events exactly as the reference does.
    #[test]
    fn engines_agree_at_max_directory_cores() {
        let mut b = ComputationBuilder::new(128);
        let mut space = ccs_dag::AddressSpace::new();
        let shared = space.alloc(4 * 1024);
        let leaves: Vec<_> = (0..MAX_DIRECTORY_CORES as u64 + 4)
            .map(|i| {
                b.strand_with(|t| {
                    t.compute(i % 5).read(shared.base + (i % 32) * 128, 8);
                    if i % 64 == 0 {
                        t.write(shared.base + (i % 32) * 128, 8);
                    }
                })
            })
            .collect();
        let par = b.par(leaves, GroupMeta::labeled("wide"));
        let comp = b.finish(par);
        let cfg = tiny_config(MAX_DIRECTORY_CORES, 64);
        let fast = simulate_engine(&comp, &cfg, "pdf", SimEngine::EventDriven);
        let slow = simulate_engine(&comp, &cfg, "pdf", SimEngine::Reference);
        assert_eq!(fast, slow);
        assert!(fast.core_busy[MAX_DIRECTORY_CORES - 1] > 0, "core 4095 ran");
    }

    /// A finish time at the event-key bound panics with the bound, rather
    /// than wrapping into the core field.
    #[test]
    #[should_panic(expected = "event-key bound of 2^52 cycles")]
    fn a_time_past_the_key_bound_panics() {
        let mut b = ComputationBuilder::new(128);
        let long = b.strand(ccs_dag::TaskTrace::compute_only(1 << 53));
        let left = b.strand_with(|t| {
            t.compute(1).read(0, 8);
        });
        let right = b.strand_with(|t| {
            t.compute(1).read(4096, 8);
        });
        let after = b.par(vec![left, right], GroupMeta::default());
        let root = b.seq(vec![long, after], GroupMeta::default());
        let comp = b.finish(root);
        simulate(&comp, &tiny_config(2, 64), "pdf");
    }

    /// Collects the engine's dispatch sequence.
    struct Dispatches(Vec<TaskId>);

    impl Record for Dispatches {
        fn task_dispatched(&mut self, task: TaskId) {
            self.0.push(task);
        }
        fn l1_miss(&mut self, _step: usize, _l2_hit: bool) {}
    }

    /// A greedy scheduler that always runs the ready task with the largest
    /// id — an order no built-in scheduler produces.
    #[derive(Default)]
    struct LifoById(std::collections::BTreeSet<TaskId>);

    impl Scheduler for LifoById {
        fn init(&mut self, _dag: &Dag, _num_cores: usize) {
            self.0.clear();
        }
        fn task_enabled(&mut self, task: TaskId, _enabling_core: Option<usize>) {
            self.0.insert(task);
        }
        fn next_task(&mut self, _core: usize) -> Option<TaskId> {
            self.0.pop_last()
        }
        fn ready_count(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "lifo-by-id"
        }
    }

    /// The contract the experiment layer's one-core sharing stands on: the
    /// event engine dispatches exactly `ccs_sched::one_core_order` on one
    /// core, for every registered workload and every kind of scheduler, a
    /// test-local one included.  PDF and WS run the sequential order there;
    /// the central queue does not, so the key separates real classes.
    #[test]
    fn one_core_dispatch_order_is_the_executor_order() {
        let registry = ccs_workloads::WorkloadRegistry::global();
        let cfg = tiny_config(1, 64);
        let specs = [
            SchedulerSpec::new("pdf"),
            SchedulerSpec::new("ws"),
            SchedulerSpec::new("ws-rand").with_seed(7),
            SchedulerSpec::new("central"),
        ];
        let mut central_differs = false;
        let names = registry.names();
        assert!(
            names.len() >= 6,
            "expected the six built-in workloads, got {names:?}"
        );
        for name in &names {
            let ctx = ccs_workloads::BuildCtx::new(4096, 64 * 1024, 1);
            let comp = registry.build(name, &ctx).unwrap_or_else(|e| panic!("{e}"));
            let dag = Dag::from_computation(&comp);
            // `None` stands for the test-local scheduler.
            for spec in specs.iter().map(Some).chain([None]) {
                let build = || -> Box<dyn Scheduler> {
                    spec.map_or_else(|| Box::<LifoById>::default(), SchedulerSpec::build)
                };
                let label = spec.map_or("lifo-by-id".to_string(), |spec| spec.to_string());
                let order = ccs_sched::one_core_order(&dag, build().as_mut());
                let mut rec = Dispatches(Vec::new());
                event_driven_rec(&comp, &dag, &cfg, build().as_mut(), &mut rec);
                assert_eq!(
                    rec.0, order,
                    "{name} / {label}: engine and executor disagree"
                );
                match spec.map(|spec| spec.name.as_str()) {
                    Some("pdf" | "ws") => {
                        assert_eq!(order, dag.seq_order(), "{name} / {label}: not 1DF")
                    }
                    Some("central") => central_differs |= order != dag.seq_order(),
                    _ => {}
                }
            }
        }
        assert!(central_differs, "central ran 1DF on every workload");
    }
}
