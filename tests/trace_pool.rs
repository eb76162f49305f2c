//! Trace-pool equivalence: the flat one-lane arena must replay
//! the exact `(pre_compute, addr, size, kind)` sequence of the legacy
//! per-task `TaskTrace` representation, for every registered workload and
//! for arbitrary builder call sequences; the compiled line stream must equal
//! a push-grown reference expansion word for word, heap bytes included; and
//! the CSR `Dag` adjacency must equal an independently built nested-list
//! adjacency.

use ccs_dag::synth::{random_computation, SynthParams};
use ccs_dag::{
    AccessKind, Computation, ComputationBuilder, Dag, GroupMeta, MemRef, SpKind, TaskId,
    TraceBuilder, STEP_ID_MASK, STEP_WRITE_BIT,
};
use ccs_workloads::{BuildCtx, WorkloadRegistry};
use proptest::prelude::*;

/// Every op of every task, flattened in task-id order, as plain tuples.
fn pooled_sequence(comp: &Computation) -> Vec<(u32, u64, u32, bool)> {
    (0..comp.num_tasks() as u32)
        .flat_map(|t| {
            comp.trace(TaskId(t))
                .ops()
                .map(|op| {
                    (
                        op.pre_compute,
                        op.mem.addr,
                        op.mem.size,
                        op.mem.kind.is_write(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The same sequence through the *legacy* per-task `TaskTrace` form (each
/// task's trace materialised back out of the pool — the representation the
/// reference engine consumes).
fn legacy_sequence(comp: &Computation) -> Vec<(u32, u64, u32, bool)> {
    (0..comp.num_tasks() as u32)
        .flat_map(|t| {
            let trace = comp.trace(TaskId(t)).to_task_trace();
            trace
                .ops()
                .iter()
                .map(|op| {
                    (
                        op.pre_compute,
                        op.mem.addr,
                        op.mem.size,
                        op.mem.kind.is_write(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Pool invariants that make the flat layout trustworthy: per-task ranges
/// tile the pool contiguously in task-id order, cached `work` matches a
/// recount, and the task count of ops matches the pool length.
fn assert_pool_invariants(comp: &Computation) {
    let mut cursor = 0u32;
    for t in 0..comp.num_tasks() as u32 {
        let task = comp.task(TaskId(t));
        assert_eq!(task.ops.start, cursor, "task {t} range not contiguous");
        assert!(task.ops.end >= task.ops.start);
        cursor = task.ops.end;
        let view = comp.trace(TaskId(t));
        assert_eq!(view.num_refs(), task.ops.len());
        assert_eq!(view.instructions(), task.work, "task {t} work drifted");
        assert_eq!(view.post_compute(), task.post_compute);
    }
    assert_eq!(cursor as usize, comp.trace_pool().len(), "pool not tiled");
    assert_eq!(comp.total_refs(), comp.trace_pool().len() as u64);
}

/// The compiled line stream must expand exactly like `MemRef::lines` over
/// the pooled ops: same line addresses, same write flags, the op's
/// `pre_compute` on its first line and zero on straddle continuations.
fn assert_stream_matches(comp: &Computation, line_size: u64) {
    let stream = comp.line_stream(line_size);
    let mut expect: Vec<(u32, u64, bool)> = Vec::new();
    for t in 0..comp.num_tasks() as u32 {
        let (start, end) = stream.range(TaskId(t));
        assert_eq!(expect.len(), start, "task {t} stream range misaligned");
        for op in comp.trace(TaskId(t)).ops() {
            let mut pre = op.pre_compute;
            for line in op.mem.lines(line_size) {
                expect.push((pre, line, op.mem.kind.is_write()));
                pre = 0;
            }
        }
        assert_eq!(expect.len(), end, "task {t} stream range misaligned");
    }
    let got: Vec<(u32, u64, bool)> = (0..stream.num_steps())
        .map(|i| {
            let word = stream.packed()[i];
            let step = ccs_dag::LineStream::step_of(word);
            (
                ccs_dag::LineStream::pre_of(word),
                stream.line_addr()[(step & STEP_ID_MASK) as usize],
                step & STEP_WRITE_BIT != 0,
            )
        })
        .collect();
    assert_eq!(got, expect, "line stream diverges from per-op expansion");
}

#[test]
fn pooled_iteration_replays_legacy_traces_for_all_six_workloads() {
    // Small scale: the paper's inputs divided way down so all six kernels
    // build in milliseconds.
    let ctx = BuildCtx::new(2048, 64 * 1024, 4);
    let registry = WorkloadRegistry::global();
    let mut names = registry.names();
    names.sort();
    assert_eq!(
        names.len(),
        6,
        "expected the six built-in kernels: {names:?}"
    );
    for name in names {
        let comp = registry.build(&name, &ctx).expect("registered workload");
        assert!(comp.total_refs() > 0, "{name}: empty trace");
        assert_pool_invariants(&comp);
        assert_eq!(
            pooled_sequence(&comp),
            legacy_sequence(&comp),
            "{name}: pooled iteration diverges from legacy TaskTrace"
        );
        assert_stream_matches(&comp, comp.line_size());
    }
}

/// A reference expansion of `comp` at `line_size`: every op split through
/// `MemRef::lines`, ids assigned on first touch, every vector grown by
/// `push`.  Returns the packed words, the step index where each task starts
/// (plus the end), the line-address table and the heap bytes a stream with
/// these vectors holds: the step lane and the task starts sized exactly, the
/// line table at its push-grown capacity.
fn reference_stream(comp: &Computation, line_size: u64) -> (Vec<u64>, Vec<usize>, Vec<u64>, u64) {
    let mut ids: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let (mut packed, mut starts, mut line_addr) = (Vec::new(), vec![0], Vec::new());
    for t in 0..comp.num_tasks() as u32 {
        for op in comp.trace(TaskId(t)).ops() {
            let write = if op.mem.kind.is_write() {
                STEP_WRITE_BIT
            } else {
                0
            };
            let mut pre = op.pre_compute as u64;
            for line in op.mem.lines(line_size) {
                let id = *ids.entry(line).or_insert_with(|| {
                    line_addr.push(line);
                    line_addr.len() as u32 - 1
                });
                packed.push(pre << 32 | (id | write) as u64);
                pre = 0;
            }
        }
        starts.push(packed.len());
    }
    let heap = 8 * packed.len() + 8 * line_addr.capacity() + 4 * starts.len();
    (packed, starts, line_addr, heap as u64)
}

/// Compile `comp` at each line size and compare the stream with
/// [`reference_stream`] word for word, including its heap bytes (which
/// feed the reports' `peak_alloc_estimate`).
fn assert_stream_equals_reference(name: &str, comp: &Computation) {
    for line_size in [64, 128, 256] {
        let at = format!("{name} at {line_size}-byte lines");
        let stream = ccs_dag::LineStream::compile(comp, line_size);
        let (packed, starts, line_addr, heap) = reference_stream(comp, line_size);
        assert_eq!(stream.packed(), packed.as_slice(), "{at}: packed words");
        let got_starts: Vec<usize> = (0..comp.num_tasks() as u32)
            .map(|t| stream.range(TaskId(t)).0)
            .chain([stream.num_steps()])
            .collect();
        assert_eq!(got_starts, starts, "{at}: task starts");
        assert_eq!(stream.line_addr(), line_addr.as_slice(), "{at}: line_addr");
        assert_eq!(stream.heap_bytes(), heap, "{at}: heap bytes");
    }
}

#[test]
fn line_streams_equal_a_push_grown_reference_expansion() {
    let ctx = BuildCtx::new(2048, 64 * 1024, 4);
    let registry = WorkloadRegistry::global();
    let mut names = registry.names();
    names.sort();
    assert_eq!(
        names.len(),
        6,
        "expected the six built-in kernels: {names:?}"
    );
    for name in names {
        let comp = registry.build(&name, &ctx).expect("registered workload");
        assert_stream_equals_reference(&name, &comp);
    }

    // Hand-scattered addresses, 2^32 bytes apart: a span far too sparse
    // for the dense table, so the stream takes the hash-map interner.
    let mut b = ComputationBuilder::new(128);
    let strands: Vec<_> = (0..4u64)
        .map(|i| {
            b.strand_with(|t| {
                t.compute(i + 1).read(i << 32, 4).write((3 - i) << 32, 8);
                // Straddles a line boundary at every line size compiled.
                t.read(((i + 1) << 32) - 8, 16).read(0x40, 0);
            })
        })
        .collect();
    let root = b.seq(strands, GroupMeta::default());
    let scattered = b.finish(root);
    let (lo, hi) = scattered.trace_pool().span().expect("non-empty pool");
    assert!(
        (hi - lo) / 256 > 1 << 16,
        "the scattered span must defeat the dense table"
    );
    assert_stream_equals_reference("scattered", &scattered);
}

/// Independent nested-list adjacency, built with the seed's original
/// `Vec<Vec<TaskId>>` algorithm over the SP tree.
fn nested_adjacency(comp: &Computation) -> (Vec<Vec<TaskId>>, Vec<Vec<TaskId>>) {
    let n = comp.num_tasks();
    let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<TaskId>> = vec![Vec::new(); n];
    #[derive(Default, Clone)]
    struct Ends {
        sources: Vec<TaskId>,
        sinks: Vec<TaskId>,
    }
    let mut ends: Vec<Option<Ends>> = vec![None; comp.nodes().len()];
    for idx in 0..comp.nodes().len() {
        let node = &comp.nodes()[idx];
        let e = match node.kind {
            SpKind::Strand(t) => Ends {
                sources: vec![t],
                sinks: vec![t],
            },
            SpKind::Par => {
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for &c in &node.children {
                    let ce = ends[c.index()].as_ref().unwrap();
                    sources.extend_from_slice(&ce.sources);
                    sinks.extend_from_slice(&ce.sinks);
                }
                Ends { sources, sinks }
            }
            SpKind::Seq => {
                for w in node.children.windows(2) {
                    let left = ends[w[0].index()].as_ref().unwrap().clone();
                    let right = ends[w[1].index()].as_ref().unwrap().clone();
                    for &u in &left.sinks {
                        for &v in &right.sources {
                            succs[u.index()].push(v);
                            preds[v.index()].push(u);
                        }
                    }
                }
                let first = ends[node.children.first().unwrap().index()]
                    .as_ref()
                    .unwrap();
                let last = ends[node.children.last().unwrap().index()]
                    .as_ref()
                    .unwrap();
                Ends {
                    sources: first.sources.clone(),
                    sinks: last.sinks.clone(),
                }
            }
        };
        ends[idx] = Some(e);
    }
    (succs, preds)
}

#[test]
fn csr_adjacency_equals_nested_lists() {
    let params = SynthParams::default();
    for seed in 0..10u64 {
        let comp = random_computation(seed, &params);
        let dag = Dag::from_computation(&comp);
        let (succs, preds) = nested_adjacency(&comp);
        let total: usize = succs.iter().map(Vec::len).sum();
        assert_eq!(dag.num_edges(), total, "seed {seed}");
        for t in 0..comp.num_tasks() as u32 {
            let t = TaskId(t);
            assert_eq!(
                dag.successors(t),
                succs[t.index()].as_slice(),
                "seed {seed}"
            );
            assert_eq!(
                dag.predecessors(t),
                preds[t.index()].as_slice(),
                "seed {seed}"
            );
            assert_eq!(dag.in_degree(t), preds[t.index()].len(), "seed {seed}");
        }
    }
}

/// One random builder step: compute, a single access, or a range access.
#[derive(Clone, Debug)]
enum Step {
    Compute(u64),
    Access {
        addr: u64,
        size: u32,
        write: bool,
    },
    Range {
        addr: u64,
        bytes: u64,
        instr: u64,
        write: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..500).prop_map(Step::Compute),
        (0u64..1 << 20, 1u32..512, any::<bool>()).prop_map(|(addr, size, write)| Step::Access {
            addr,
            size,
            write
        }),
        (0u64..1 << 20, 0u64..4096, 0u64..16, any::<bool>()).prop_map(
            |(addr, bytes, instr, write)| Step::Range {
                addr,
                bytes,
                instr,
                write
            }
        ),
    ]
}

fn apply(tb: &mut TraceBuilder<'_>, steps: &[Step]) {
    for s in steps {
        match *s {
            Step::Compute(n) => {
                tb.compute(n);
            }
            Step::Access { addr, size, write } => {
                tb.access(if write {
                    MemRef::write(addr, size)
                } else {
                    MemRef::read(addr, size)
                });
            }
            Step::Range {
                addr,
                bytes,
                instr,
                write,
            } => {
                if write {
                    tb.write_range(addr, bytes, instr);
                } else {
                    tb.read_range(addr, bytes, instr);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Building strands through the pooled `strand_with` path must record
    /// exactly what the legacy path (standalone `TraceBuilder` +
    /// `strand(TaskTrace)`) records, for arbitrary builder call sequences
    /// split across several tasks.
    #[test]
    fn pooled_and_legacy_builders_record_identical_computations(
        tasks in prop::collection::vec(prop::collection::vec(step_strategy(), 0..12), 1..6),
    ) {
        let line_size = 128;
        let mut pooled = ComputationBuilder::new(line_size);
        let pooled_nodes: Vec<_> = tasks
            .iter()
            .map(|steps| pooled.strand_with(|t| apply(t, steps)))
            .collect();
        let root = pooled.seq(pooled_nodes, GroupMeta::default());
        let pooled = pooled.finish(root);

        let mut legacy = ComputationBuilder::new(line_size);
        let legacy_nodes: Vec<_> = tasks
            .iter()
            .map(|steps| {
                let mut tb = TraceBuilder::new(line_size);
                apply(&mut tb, steps);
                legacy.strand(tb.finish())
            })
            .collect();
        let root = legacy.seq(legacy_nodes, GroupMeta::default());
        let legacy = legacy.finish(root);

        prop_assert_eq!(pooled.total_work(), legacy.total_work());
        prop_assert_eq!(pooled.total_refs(), legacy.total_refs());
        prop_assert_eq!(pooled_sequence(&pooled), pooled_sequence(&legacy));
        assert_pool_invariants(&pooled);
        assert_stream_matches(&pooled, line_size);
        // Same steps, same stream — including the dense/sparse interner
        // split, which must be invisible in the ids' first-touch order.
        let a = pooled.line_stream(line_size);
        let b = legacy.line_stream(line_size);
        prop_assert_eq!(a.packed(), b.packed());
        prop_assert_eq!(a.line_addr(), b.line_addr());
    }

    /// `AccessKind` and size survive the packed `u32` meta field for the
    /// full supported size range.
    #[test]
    fn meta_lane_packing_round_trips(
        addr in any::<u64>(),
        size in 1u32..(1 << 31),
        write in any::<bool>(),
        pre in any::<u32>(),
    ) {
        let mut pool = ccs_dag::TracePool::new();
        let mem = if write { MemRef::write(addr, size) } else { MemRef::read(addr, size) };
        pool.push(pre, mem);
        let op = pool.op(0);
        prop_assert_eq!(op.mem, mem);
        prop_assert_eq!(op.pre_compute, pre);
        prop_assert_eq!(op.mem.kind.is_write(), write);
        prop_assert_eq!(op.mem.kind == AccessKind::Write, write);
    }
}
