//! The flat trace arena: every [`TraceOp`] of a computation in one
//! contiguous lane of 16-byte records.
//!
//! The seed stored each task's trace as its own boxed `Vec<TraceOp>`, so a
//! simulated access chased a per-task heap pointer and the host's cache
//! behaviour — not the simulated algorithm — bounded throughput.  The
//! [`TracePool`] applies the paper's own locality discipline to the
//! simulator's data structures: all trace ops of a computation live in one
//! lane of `{addr, pre_compute, meta}` records (`meta` packs the access kind
//! and size), and each [`Task`](crate::Task) holds only a [`TraceRange`] —
//! a `(start, end)` pair of indices into the pool.  Builders append straight
//! into the pool, so building a computation performs O(1) allocations, not
//! one per task.  Readers take an op's fields together, so one lane costs
//! one capacity check per push and one streaming read per op.
//!
//! As ops are pushed the pool tracks the lowest and highest byte any of
//! them touches ([`TracePool::span`]), which is all the line-stream
//! compiler needs to size its interner — no pre-scan of the pool.
//!
//! [`TraceView`] is the read side: a borrowed window over one task's range
//! that reassembles [`TraceOp`]s on the fly.

use crate::task::{AccessKind, MemRef, TaskTrace, TraceOp};

/// Write flag in a record's packed `meta` (bit 31; bits 0..31 hold the size).
const WRITE_BIT: u32 = 1 << 31;
/// Mask of the size bits in a record's packed `meta`.
const SIZE_MASK: u32 = WRITE_BIT - 1;

/// A contiguous range of ops inside a [`TracePool`] — all a task keeps of
/// its trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceRange {
    /// Index of the first op in the pool.
    pub start: u32,
    /// One past the last op.
    pub end: u32,
}

impl TraceRange {
    /// Number of ops in the range.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the range contains no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The last byte a reference of `size` bytes at `addr` touches (a size-0
/// reference touches its first byte), saturating at the top of the
/// address space.
#[inline]
fn last_byte(addr: u64, size: u32) -> u64 {
    addr.saturating_add(size.max(1) as u64 - 1)
}

/// One op as the pool stores it: 16 bytes, the access kind in bit 31 of
/// `meta` and the byte size in its low 31 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Record {
    pub(crate) addr: u64,
    pub(crate) pre_compute: u32,
    meta: u32,
}

impl Record {
    #[inline]
    fn new(pre_compute: u32, addr: u64, size: u32, kind: AccessKind) -> Record {
        assert!(
            size <= SIZE_MASK,
            "reference size {size} exceeds the packed meta field"
        );
        let write = if kind.is_write() { WRITE_BIT } else { 0 };
        Record {
            addr,
            pre_compute,
            meta: size | write,
        }
    }

    /// Bytes touched.
    #[inline]
    pub(crate) fn size(&self) -> u32 {
        self.meta & SIZE_MASK
    }

    #[inline]
    pub(crate) fn is_write(&self) -> bool {
        self.meta & WRITE_BIT != 0
    }

    #[inline]
    fn op(&self) -> TraceOp {
        TraceOp {
            pre_compute: self.pre_compute,
            mem: self.mem(),
        }
    }

    #[inline]
    fn mem(&self) -> MemRef {
        MemRef {
            addr: self.addr,
            size: self.size(),
            kind: if self.is_write() {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }
}

/// The arena holding every trace op of a computation, in one lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracePool {
    ops: Vec<Record>,
    /// Lowest byte any op touches (`u64::MAX` while the pool is empty).
    lo: u64,
    /// Highest byte any op touches (a reference of size 0 touches one).
    hi: u64,
}

impl Default for TracePool {
    fn default() -> Self {
        TracePool {
            ops: Vec::new(),
            lo: u64::MAX,
            hi: 0,
        }
    }
}

impl TracePool {
    /// An empty pool.
    pub fn new() -> Self {
        TracePool::default()
    }

    /// Number of ops in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pool holds no ops.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append one op.  Panics if the reference size does not fit the packed
    /// `meta` field.  (`u32` indexing overflow is caught at range-creation
    /// time by the builders — `end_index` — so the hot path carries one
    /// branch, not two.)
    #[inline]
    pub fn push(&mut self, pre_compute: u32, mem: MemRef) {
        self.ops
            .push(Record::new(pre_compute, mem.addr, mem.size, mem.kind));
        self.cover(mem.addr, last_byte(mem.addr, mem.size));
    }

    /// Append `count` line-sized ops of one kind, the first at `first`
    /// (line-aligned) and each next one `line_size` bytes on, every one
    /// preceded by `pre_compute` instructions — the ops `count` calls of
    /// [`TracePool::push`] would append, in one reservation.
    pub(crate) fn push_lines(
        &mut self,
        first: u64,
        count: u64,
        line_size: u64,
        pre_compute: u32,
        kind: AccessKind,
    ) {
        if count == 0 {
            return;
        }
        let record = Record::new(pre_compute, first, line_size as u32, kind);
        self.ops.extend((0..count).map(|i| Record {
            addr: first + i * line_size,
            ..record
        }));
        let last = first + (count - 1) * line_size;
        self.cover(first, last_byte(last, record.size()));
    }

    /// Widen the span to cover bytes `lo..=hi`.
    #[inline]
    fn cover(&mut self, lo: u64, hi: u64) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    /// The lowest and highest byte any op touches (inclusive; a reference
    /// of size 0 counts as touching its first byte), or `None` for an
    /// empty pool.
    #[inline]
    pub fn span(&self) -> Option<(u64, u64)> {
        (!self.ops.is_empty()).then_some((self.lo, self.hi))
    }

    /// Reassemble op `i` (pool-wide index).
    #[inline]
    pub fn op(&self, i: usize) -> TraceOp {
        self.ops[i].op()
    }

    /// Reassemble the memory reference of op `i` (pool-wide index).
    #[inline]
    pub fn mem(&self, i: usize) -> MemRef {
        self.ops[i].mem()
    }

    /// Compute instructions preceding op `i` (pool-wide index).
    #[inline]
    pub fn pre_compute(&self, i: usize) -> u64 {
        self.ops[i].pre_compute as u64
    }

    /// The pool length as a range endpoint, checked against `u32`
    /// indexing.  Called once per strand by the builders.
    pub(crate) fn end_index(&self) -> u32 {
        u32::try_from(self.ops.len()).expect("trace pool exceeds u32 indexing")
    }

    /// Borrow a view over `range` with the given trailing compute.
    #[inline]
    pub fn view(&self, range: TraceRange, post_compute: u64) -> TraceView<'_> {
        TraceView {
            pool: self,
            range,
            post_compute,
        }
    }

    /// Heap bytes held by the lane (capacity, i.e. the arena footprint
    /// reported as `trace_bytes` in bench records).
    pub fn heap_bytes(&self) -> u64 {
        (self.ops.capacity() * std::mem::size_of::<Record>()) as u64
    }

    /// Drop unused lane capacity (called once when a builder finishes).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
    }
}

/// A borrowed window over one task's ops in the pool, plus the task's
/// trailing compute — the pool-backed replacement for `&TaskTrace`.
#[derive(Clone, Copy, Debug)]
pub struct TraceView<'a> {
    pool: &'a TracePool,
    range: TraceRange,
    post_compute: u64,
}

impl<'a> TraceView<'a> {
    /// Number of memory references in the trace.
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.range.len()
    }

    /// Whether the trace has no memory references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Op `i` of the task (task-local index).
    #[inline]
    pub fn op(&self, i: usize) -> TraceOp {
        debug_assert!(i < self.num_refs());
        self.pool.op(self.range.start as usize + i)
    }

    /// Compute-only instructions after the last memory reference.
    #[inline]
    pub fn post_compute(&self) -> u64 {
        self.post_compute
    }

    /// The range this view covers (pool-wide indices).
    #[inline]
    pub fn range(&self) -> TraceRange {
        self.range
    }

    /// The view's records, in program order.
    #[inline]
    pub(crate) fn records(&self) -> &'a [Record] {
        &self.pool.ops[self.range.start as usize..self.range.end as usize]
    }

    /// Iterate the ops in program order.
    pub fn ops(&self) -> impl Iterator<Item = TraceOp> + 'a {
        self.records().iter().map(Record::op)
    }

    /// Iterate the memory references in program order.
    pub fn refs(&self) -> impl Iterator<Item = MemRef> + 'a {
        self.records().iter().map(Record::mem)
    }

    /// Total instruction count (compute + one per reference).
    pub fn instructions(&self) -> u64 {
        self.ops().map(|op| op.instructions()).sum::<u64>() + self.post_compute
    }

    /// Materialise a standalone [`TaskTrace`] (the legacy per-task form,
    /// used by the reference engine's thin adapter and by trace surgery in
    /// `ccs-profile`).
    pub fn to_task_trace(&self) -> TaskTrace {
        TaskTrace::from_parts(self.ops().collect(), self.post_compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_reassemble_round_trip() {
        let mut pool = TracePool::new();
        pool.push(7, MemRef::read(0x1000, 128));
        pool.push(0, MemRef::write(0x2040, 8));
        assert_eq!(pool.len(), 2);
        assert_eq!(
            pool.op(0),
            TraceOp {
                pre_compute: 7,
                mem: MemRef::read(0x1000, 128)
            }
        );
        assert_eq!(pool.mem(1), MemRef::write(0x2040, 8));
        assert_eq!(pool.pre_compute(1), 0);
    }

    #[test]
    fn view_iterates_its_range_only() {
        let mut pool = TracePool::new();
        for i in 0..6u64 {
            pool.push(i as u32, MemRef::read(i * 64, 4));
        }
        let view = pool.view(TraceRange { start: 2, end: 5 }, 9);
        assert_eq!(view.num_refs(), 3);
        let addrs: Vec<u64> = view.refs().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![128, 192, 256]);
        assert_eq!(view.post_compute(), 9);
        // 3 refs + pre 2+3+4 + post 9
        assert_eq!(view.instructions(), 3 + 9 + 9);
        let trace = view.to_task_trace();
        assert_eq!(trace.num_refs(), 3);
        assert_eq!(trace.ops()[0], view.op(0));
    }

    #[test]
    #[should_panic(expected = "packed meta field")]
    fn oversized_reference_is_rejected() {
        let mut pool = TracePool::new();
        pool.push(0, MemRef::read(0, u32::MAX));
    }

    #[test]
    fn empty_pool_has_no_span() {
        assert_eq!(TracePool::new().span(), None);
        assert_eq!(TracePool::default().span(), None);
    }

    #[test]
    fn span_covers_straddling_and_zero_size_refs() {
        let mut pool = TracePool::new();
        pool.push(0, MemRef::read(0x1000, 4));
        assert_eq!(pool.span(), Some((0x1000, 0x1003)));
        // Straddles 0x1080 and 0x1100.
        pool.push(0, MemRef::write(0x10F8, 16));
        assert_eq!(pool.span(), Some((0x1000, 0x1107)));
        // A zero-size reference touches one byte, below and above the span.
        pool.push(0, MemRef::read(0x80, 0));
        assert_eq!(pool.span(), Some((0x80, 0x1107)));
        pool.push(0, MemRef::read(0x2000, 0));
        assert_eq!(pool.span(), Some((0x80, 0x2000)));
        // A reference inside the span leaves it alone.
        pool.push(0, MemRef::read(0x1800, 64));
        assert_eq!(pool.span(), Some((0x80, 0x2000)));
    }

    #[test]
    fn push_lines_equals_per_op_pushes() {
        for (count, line_size, kind) in [
            (0, 128, AccessKind::Read),
            (1, 128, AccessKind::Write),
            (5, 64, AccessKind::Read),
            (7, 256, AccessKind::Write),
        ] {
            let (mut bulk, mut per_op) = (TracePool::new(), TracePool::new());
            // An op below the range, so the range sets the span's top.
            for pool in [&mut bulk, &mut per_op] {
                pool.push(3, MemRef::read(0x40, 8));
            }
            bulk.push_lines(0x4000, count, line_size, 11, kind);
            for i in 0..count {
                let mem = MemRef {
                    addr: 0x4000 + i * line_size,
                    size: line_size as u32,
                    kind,
                };
                per_op.push(11, mem);
            }
            let at = format!("{count} lines of {line_size} bytes");
            assert_eq!(bulk.len(), per_op.len(), "{at}");
            let ops = |pool: &TracePool| (0..pool.len()).map(|i| pool.op(i)).collect::<Vec<_>>();
            assert_eq!(ops(&bulk), ops(&per_op), "{at}");
            assert_eq!(bulk.span(), per_op.span(), "{at}");
            assert_eq!(bulk, per_op, "{at}");
        }
    }

    #[test]
    fn heap_bytes_tracks_lanes() {
        let mut pool = TracePool::new();
        assert_eq!(TracePool::new().heap_bytes(), 0);
        for i in 0..100 {
            pool.push(0, MemRef::read(i * 64, 4));
        }
        pool.shrink_to_fit();
        assert_eq!(pool.heap_bytes(), 100 * (4 + 8 + 4));
    }
}
