//! Tasks, memory references and per-task traces.
//!
//! A *task* is a node in the computation DAG: a thread (or portion of a
//! thread) that has no internal dependences to or from other nodes
//! (Section 3 of the paper).  Each task carries a weight (its runtime in
//! instructions) and, for trace-driven simulation and working-set profiling,
//! an ordered list of memory references.
//!
//! Trace storage is *pooled*: inside a [`Computation`](crate::Computation)
//! every task's ops live in one flat [`TracePool`] arena
//! and the task holds only a [`TraceRange`] into it (see
//! the [`pool`](crate::pool) module).  The standalone [`TaskTrace`] value
//! type survives for callers that build or carry a single trace outside a
//! computation; [`ComputationBuilder`](crate::ComputationBuilder) copies it
//! into the pool on [`strand`](crate::ComputationBuilder::strand).

use std::fmt;

use crate::pool::{TracePool, TraceRange};

/// Identifier of a task inside a [`crate::Computation`].
///
/// Task ids are dense indices (`0..num_tasks`) assigned in *creation* order by
/// the builder.  The *sequential* (1DF) order used by the PDF scheduler is a
/// separate permutation computed by [`crate::Dag::seq_order`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Index into per-task arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Whether a memory reference reads or writes its target.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A single memory reference: a contiguous byte range plus an access kind.
///
/// Workload generators usually emit references at cache-line granularity (one
/// reference per touched line, see [`TraceBuilder`]), but byte-granular
/// references are also supported; the cache models split a reference that
/// crosses line boundaries into one probe per line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// Starting byte address in the synthetic virtual address space.
    pub addr: u64,
    /// Number of bytes touched (must be at least 1).
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl MemRef {
    /// A read of `size` bytes at `addr`.
    #[inline]
    pub fn read(addr: u64, size: u32) -> Self {
        MemRef {
            addr,
            size,
            kind: AccessKind::Read,
        }
    }

    /// A write of `size` bytes at `addr`.
    #[inline]
    pub fn write(addr: u64, size: u32) -> Self {
        MemRef {
            addr,
            size,
            kind: AccessKind::Write,
        }
    }

    /// Iterator over the cache-line addresses (aligned to `line_size`) that
    /// this reference touches.
    pub fn lines(&self, line_size: u64) -> impl Iterator<Item = u64> {
        debug_assert!(line_size.is_power_of_two());
        let first = self.addr & !(line_size - 1);
        let last = (self.addr + self.size.max(1) as u64 - 1) & !(line_size - 1);
        (0..=((last - first) / line_size)).map(move |i| first + i * line_size)
    }
}

/// One step of a task's trace: `pre_compute` compute-only instructions
/// followed by a single memory reference.
///
/// The memory reference itself accounts for one additional instruction
/// (the load/store), mirroring the in-order scalar core model of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Compute-only instructions executed immediately before `mem`.
    pub pre_compute: u32,
    /// The memory reference.
    pub mem: MemRef,
}

impl TraceOp {
    /// Instructions represented by this op (compute + the access itself).
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.pre_compute as u64 + 1
    }
}

/// A standalone task trace: a sequence of [`TraceOp`]s plus a trailing run of
/// compute-only instructions executed after the final memory reference.
///
/// Inside a [`Computation`](crate::Computation) traces are pooled (see
/// [`TracePool`]); `TaskTrace` is the owned value type for building a trace
/// outside a computation ([`TraceBuilder::finish`]) or carrying one around
/// (e.g. trace fusion in the coarsening pipeline).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskTrace {
    ops: Vec<TraceOp>,
    post_compute: u64,
}

impl TaskTrace {
    /// An empty trace (zero instructions).
    pub fn empty() -> Self {
        TaskTrace::default()
    }

    /// A compute-only trace of `instructions` instructions and no memory
    /// references.
    pub fn compute_only(instructions: u64) -> Self {
        TaskTrace {
            ops: Vec::new(),
            post_compute: instructions,
        }
    }

    /// Build a trace from raw parts.
    pub fn from_parts(ops: Vec<TraceOp>, post_compute: u64) -> Self {
        TaskTrace { ops, post_compute }
    }

    /// The ordered memory-reference ops.
    #[inline]
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Compute-only instructions after the last memory reference.
    #[inline]
    pub fn post_compute(&self) -> u64 {
        self.post_compute
    }

    /// Number of memory references in the trace.
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.ops.len()
    }

    /// Total instruction count of the task (compute + one per reference).
    pub fn instructions(&self) -> u64 {
        self.ops.iter().map(TraceOp::instructions).sum::<u64>() + self.post_compute
    }

    /// Iterate over the memory references in program order.
    pub fn refs(&self) -> impl Iterator<Item = &MemRef> {
        self.ops.iter().map(|op| &op.mem)
    }
}

/// A node of the computation DAG: instruction weight plus the location of
/// its memory trace in the computation's [`TracePool`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Task {
    /// The task's ops inside the owning computation's trace pool.
    pub ops: TraceRange,
    /// Compute-only instructions after the last memory reference.
    pub post_compute: u64,
    /// Cached instruction count (compute + one per reference).
    pub work: u64,
}

/// Where a [`TraceBuilder`] writes its ops: its own vector (standalone
/// builders that [`finish`](TraceBuilder::finish) into a [`TaskTrace`]) or a
/// borrowed slot of a computation's shared [`TracePool`].
#[derive(Debug)]
enum Dest<'p> {
    Owned(Vec<TraceOp>),
    Pool { pool: &'p mut TracePool, start: u32 },
}

/// Incremental builder for a task trace.
///
/// The builder offers two levels of granularity:
///
/// * [`TraceBuilder::access`] records a single reference verbatim;
/// * [`TraceBuilder::read_range`] / [`TraceBuilder::write_range`] record a
///   streaming access over a byte range, emitting **one reference per cache
///   line** with a caller-supplied number of compute instructions per line.
///   This is how the workload generators keep multi-megabyte traces tractable
///   while preserving the exact set of lines touched and the instruction
///   counts (Section 4 of DESIGN.md).
///
/// [`TraceBuilder::new`] gives a standalone builder whose
/// [`finish`](TraceBuilder::finish) produces an owned [`TaskTrace`];
/// [`ComputationBuilder::strand_with`](crate::ComputationBuilder::strand_with)
/// hands closures a builder that appends straight into the computation's
/// shared [`TracePool`] — same API, no per-task allocation.
#[derive(Debug)]
pub struct TraceBuilder<'p> {
    line_size: u64,
    pending_compute: u64,
    /// Instructions already committed to ops (pre-compute + one per ref),
    /// maintained incrementally so pooled finishes need no second pass.
    recorded_instr: u64,
    dest: Dest<'p>,
}

impl TraceBuilder<'static> {
    /// Create a standalone builder that coalesces range accesses at
    /// `line_size`-byte granularity. `line_size` must be a power of two.
    pub fn new(line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        TraceBuilder {
            line_size,
            pending_compute: 0,
            recorded_instr: 0,
            dest: Dest::Owned(Vec::new()),
        }
    }
}

impl<'p> TraceBuilder<'p> {
    /// A builder that appends straight into `pool` (used by
    /// `ComputationBuilder`).
    pub(crate) fn pooled(pool: &'p mut TracePool, line_size: u64) -> Self {
        debug_assert!(line_size.is_power_of_two());
        let start = pool.end_index();
        TraceBuilder {
            line_size,
            pending_compute: 0,
            recorded_instr: 0,
            dest: Dest::Pool { pool, start },
        }
    }

    /// The configured cache-line size.
    #[inline]
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    #[inline]
    fn push_op(&mut self, pre_compute: u32, mem: MemRef) {
        self.recorded_instr += pre_compute as u64 + 1;
        match &mut self.dest {
            Dest::Owned(ops) => ops.push(TraceOp { pre_compute, mem }),
            Dest::Pool { pool, .. } => pool.push(pre_compute, mem),
        }
    }

    /// Record `n` compute-only instructions.
    pub fn compute(&mut self, n: u64) -> &mut Self {
        self.pending_compute += n;
        self
    }

    /// Record a single memory reference.
    pub fn access(&mut self, mem: MemRef) -> &mut Self {
        // Split pending compute into u32-sized chunks if a pathological
        // amount of compute accumulated (keeps `pre_compute` lossless).
        while self.pending_compute > u32::MAX as u64 {
            self.push_op(u32::MAX, MemRef::read(mem.addr & !(self.line_size - 1), 1));
            self.pending_compute -= u32::MAX as u64 + 1;
        }
        let pre = self.pending_compute as u32;
        self.push_op(pre, mem);
        self.pending_compute = 0;
        self
    }

    /// Record a read of `size` bytes at `addr` as a single reference.
    pub fn read(&mut self, addr: u64, size: u32) -> &mut Self {
        self.access(MemRef::read(addr, size))
    }

    /// Record a write of `size` bytes at `addr` as a single reference.
    pub fn write(&mut self, addr: u64, size: u32) -> &mut Self {
        self.access(MemRef::write(addr, size))
    }

    fn range(&mut self, addr: u64, bytes: u64, instr_per_line: u64, kind: AccessKind) {
        if bytes == 0 {
            return;
        }
        let line = self.line_size;
        let first = addr & !(line - 1);
        let last = (addr + bytes - 1) & !(line - 1);
        let line_ref = |addr| MemRef {
            addr,
            size: line as u32,
            kind,
        };
        // The first line takes any pending compute, split by `access` if it
        // overflows a `u32`; every later line carries `instr_per_line`.
        self.compute(instr_per_line);
        self.access(line_ref(first));
        let rest = (last - first) / line;
        match (&mut self.dest, u32::try_from(instr_per_line)) {
            (Dest::Pool { pool, .. }, Ok(pre)) => {
                pool.push_lines(first + line, rest, line, pre, kind);
                self.recorded_instr += rest * (instr_per_line + 1);
            }
            _ => {
                for i in 1..=rest {
                    self.compute(instr_per_line);
                    self.access(line_ref(first + i * line));
                }
            }
        }
    }

    /// Record a streaming read of `bytes` bytes starting at `addr`:
    /// one reference per touched line, each preceded by `instr_per_line`
    /// compute instructions.
    pub fn read_range(&mut self, addr: u64, bytes: u64, instr_per_line: u64) -> &mut Self {
        self.range(addr, bytes, instr_per_line, AccessKind::Read);
        self
    }

    /// Record a streaming write of `bytes` bytes starting at `addr`.
    pub fn write_range(&mut self, addr: u64, bytes: u64, instr_per_line: u64) -> &mut Self {
        self.range(addr, bytes, instr_per_line, AccessKind::Write);
        self
    }

    /// Number of references recorded so far.
    pub fn num_refs(&self) -> usize {
        match &self.dest {
            Dest::Owned(ops) => ops.len(),
            Dest::Pool { pool, start } => pool.len() - *start as usize,
        }
    }

    /// Finish a standalone trace.
    ///
    /// # Panics
    /// Panics on a pool-backed builder (those are finished internally by
    /// `ComputationBuilder`, which records the range instead).
    pub fn finish(self) -> TaskTrace {
        match self.dest {
            Dest::Owned(ops) => TaskTrace {
                ops,
                post_compute: self.pending_compute,
            },
            Dest::Pool { .. } => {
                panic!("pool-backed TraceBuilder must be finished by its ComputationBuilder")
            }
        }
    }

    /// Finish a pool-backed trace: the recorded range, the trailing compute,
    /// and the total instruction count (the task's `work`).
    pub(crate) fn finish_pooled(self) -> (TraceRange, u64, u64) {
        match self.dest {
            Dest::Pool { pool, start } => (
                TraceRange {
                    start,
                    end: pool.end_index(),
                },
                self.pending_compute,
                self.recorded_instr + self.pending_compute,
            ),
            Dest::Owned(_) => unreachable!("finish_pooled on a standalone TraceBuilder"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_lines_single_line() {
        let r = MemRef::read(130, 4);
        let lines: Vec<u64> = r.lines(128).collect();
        assert_eq!(lines, vec![128]);
    }

    #[test]
    fn memref_lines_straddling() {
        let r = MemRef::write(120, 16);
        let lines: Vec<u64> = r.lines(128).collect();
        assert_eq!(lines, vec![0, 128]);
    }

    #[test]
    fn memref_lines_exact_span() {
        let r = MemRef::read(256, 256);
        let lines: Vec<u64> = r.lines(128).collect();
        assert_eq!(lines, vec![256, 384]);
    }

    #[test]
    fn trace_instruction_accounting() {
        let mut b = TraceBuilder::new(64);
        b.compute(10).read(0, 4).compute(5).write(64, 8).compute(3);
        let t = b.finish();
        assert_eq!(t.num_refs(), 2);
        // 10 + 1 + 5 + 1 + 3
        assert_eq!(t.instructions(), 20);
        assert_eq!(t.post_compute(), 3);
    }

    #[test]
    fn trace_compute_only() {
        let t = TaskTrace::compute_only(42);
        assert_eq!(t.instructions(), 42);
        assert_eq!(t.num_refs(), 0);
    }

    #[test]
    fn read_range_touches_each_line_once() {
        let mut b = TraceBuilder::new(128);
        b.read_range(128, 512, 3);
        let t = b.finish();
        assert_eq!(t.num_refs(), 4);
        let addrs: Vec<u64> = t.refs().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![128, 256, 384, 512]);
        // per line: 3 compute + 1 access
        assert_eq!(t.instructions(), 16);
    }

    #[test]
    fn read_range_unaligned_covers_partial_lines() {
        let mut b = TraceBuilder::new(128);
        b.read_range(100, 60, 0); // bytes 100..160 -> lines 0 and 128
        let t = b.finish();
        let addrs: Vec<u64> = t.refs().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 128]);
    }

    #[test]
    fn write_range_zero_bytes_is_noop() {
        let mut b = TraceBuilder::new(128);
        b.write_range(1024, 0, 5);
        let t = b.finish();
        assert_eq!(t.num_refs(), 0);
        assert_eq!(t.instructions(), 0);
    }

    #[test]
    fn pooled_builder_matches_standalone() {
        // The same builder calls must record the same ops whether they land
        // in an owned vector or straight in a shared pool.
        let record = |t: &mut TraceBuilder<'_>| {
            t.compute(4).read(0, 8).write_range(256, 300, 2).compute(6);
        };
        let mut owned = TraceBuilder::new(128);
        record(&mut owned);
        let standalone = owned.finish();

        let mut pool = TracePool::new();
        let mut pooled = TraceBuilder::pooled(&mut pool, 128);
        record(&mut pooled);
        assert_eq!(pooled.num_refs(), standalone.num_refs());
        let (range, post, work) = pooled.finish_pooled();
        assert_eq!(post, standalone.post_compute());
        assert_eq!(work, standalone.instructions());
        let view = pool.view(range, post);
        let pooled_ops: Vec<TraceOp> = view.ops().collect();
        assert_eq!(pooled_ops.as_slice(), standalone.ops());
        assert_eq!(view.instructions(), standalone.instructions());
    }

    /// The per-line loop `read_range`/`write_range` must stay equal to: one
    /// `compute(instr_per_line)` and one line-sized `access` per line.
    fn range_per_line(t: &mut TraceBuilder<'_>, addr: u64, bytes: u64, ipl: u64, kind: AccessKind) {
        let line = t.line_size();
        let (first, last) = (addr & !(line - 1), (addr + bytes - 1) & !(line - 1));
        for a in (first..=last).step_by(line as usize) {
            t.compute(ipl).access(MemRef {
                addr: a,
                size: line as u32,
                kind,
            });
        }
    }

    #[test]
    fn ranges_match_the_per_line_loop_standalone_and_pooled() {
        let big = u32::MAX as u64;
        // (pending compute before the range, instr_per_line).
        let cases = [(7, 3), (big + 10, 2), (0, big + 5)];
        for (pending, ipl) in cases {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let at = format!("pending {pending}, ipl {ipl}, {kind:?}");
                let bulk = |t: &mut TraceBuilder<'_>| {
                    t.compute(pending);
                    match kind {
                        AccessKind::Read => t.read_range(0x1010, 4 * 128, ipl),
                        AccessKind::Write => t.write_range(0x1010, 4 * 128, ipl),
                    };
                    t.compute(9);
                };
                let per_line = |t: &mut TraceBuilder<'_>| {
                    t.compute(pending);
                    range_per_line(t, 0x1010, 4 * 128, ipl, kind);
                    t.compute(9);
                };

                let standalone = |record: &dyn Fn(&mut TraceBuilder<'_>)| {
                    let mut t = TraceBuilder::new(128);
                    record(&mut t);
                    let trace = t.finish();
                    let work = trace.instructions();
                    (trace.ops().to_vec(), trace.post_compute(), work)
                };
                let pooled = |record: &dyn Fn(&mut TraceBuilder<'_>)| {
                    let mut pool = TracePool::new();
                    pool.push(0, MemRef::read(0x40, 4));
                    let mut t = TraceBuilder::pooled(&mut pool, 128);
                    record(&mut t);
                    let (range, post, work) = t.finish_pooled();
                    let view = pool.view(range, post);
                    assert_eq!(view.instructions(), work);
                    (view.ops().collect::<Vec<_>>(), post, work)
                };

                let expect = standalone(&per_line);
                // Five lines (0x1000..=0x1200), each split in two when its
                // compute overflows a u32.
                assert!(expect.0.len() >= 5, "{at}");
                assert_eq!(standalone(&bulk), expect, "standalone, {at}");
                assert_eq!(pooled(&per_line), expect, "pooled per-line, {at}");
                assert_eq!(pooled(&bulk), expect, "pooled bulk, {at}");
            }
        }
    }

    #[test]
    fn task_id_display() {
        assert_eq!(format!("{}", TaskId(3)), "T3");
        assert_eq!(format!("{:?}", TaskId(3)), "T3");
        assert_eq!(TaskId(5).index(), 5);
    }
}
