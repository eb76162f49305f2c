//! Precompiled per-line access streams.
//!
//! The simulator engines consume traces one *cache line* at a time: every
//! [`MemRef`](crate::MemRef) is split into the lines it touches, each line
//! address is masked to its line boundary, and the number of lines per
//! reference is recomputed — per access, per cache level, per simulation.
//! Since a sweep simulates the same computation under every scheduler ×
//! core-count point at a fixed line size, all of that arithmetic is
//! invariant across the points.
//!
//! A [`LineStream`] performs the resolution **once per `(computation, line
//! size)` pair**: the pooled ops are expanded into one `u64` word per
//! line-granular step — the pre-access compute in the high 32 bits over the
//! line id and write flag in the low 32 — with one contiguous range per
//! task.  Line ids index a `line_addr` table holding the aligned addresses
//! the cache models need, so the hot loop does one streaming load per step
//! and zero divisions.  [`Computation::line_stream`] memoises the compiled
//! stream behind an `Arc`, so every simulation of the same computation at
//! the same line size shares one copy.
//!
//! The compile reads each pool record once.  The pool's tracked byte span
//! picks the line-id interner (a direct-mapped table, or a hash map for
//! scattered addresses) without a pre-scan, and the expansion loop is
//! monomorphised per interner, so no step matches on which one it has.
//!
//! On top of the stream sits the **geometry-compiled layer**: for the
//! machine shape a sweep simulates against — its `(L1, L2)` cache
//! geometries, plus an L3's when it has one — [`LineStream::geometry_pair`]
//! and [`LineStream::geometry_triple`] compile, once per shape and memoised
//! on the stream, a flat packed [`SetLanes`] table mapping every line id
//! to all its set indices in one `u64` word.  Together with the id-as-tag
//! convention (`ccs-cache::line_tag`: dense ids are collision-free tags in
//! every geometry) this removes the *remaining* address math from the
//! simulator: a probe becomes one lane load plus a shift and a mask, and
//! the `line_addr` table drops off the hot path entirely.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use crate::sp::Computation;
use crate::task::TaskId;

/// Multiplicative hasher for line addresses (Fibonacci hashing).  Stream
/// compilation interns one id per line-granular step; the default SipHash
/// costs more than the simulator's own per-access work, which would make
/// compilation — paid once per sweep configuration — eat the win it buys.
/// Line addresses are bump-allocated and line-aligned, so a single
/// multiply mixes them plenty.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        // 2^64 / phi, the classic Fibonacci-hashing multiplier.
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Write flag of a packed step (bits 0..31 hold the line id).
pub const STEP_WRITE_BIT: u32 = 1 << 31;
/// Mask of the line-id bits of a packed step.
pub const STEP_ID_MASK: u32 = STEP_WRITE_BIT - 1;

/// Line-address → line-id interner used during stream compilation: the
/// id of `line`, assigning the next id (and recording the address in
/// `line_addr`) on first touch.
///
/// Workload address spaces come from a bump allocator, so the touched lines
/// are dense within the pool's byte span; when that span is compact the
/// interner is [`DenseIds`], a direct-mapped table — first-touch assignment
/// with one indexed load per step, no hashing at all.  Pathologically
/// sparse traces (hand-built addresses) fall back to [`SparseIds`], a hash
/// map with a cheap multiplicative [`LineHasher`].  The expansion loop is
/// generic over this trait, so each interner gets its own monomorphised
/// loop and no step matches on the kind of interner.
trait Intern {
    fn intern(&mut self, line: u64, line_addr: &mut Vec<u64>) -> u32;
}

/// The next id for a newly touched `line`, recorded in `line_addr`.
#[inline]
fn assign(line: u64, line_addr: &mut Vec<u64>) -> u32 {
    let id = line_addr.len() as u32;
    assert!(id < STEP_ID_MASK, "line-id space exhausted");
    line_addr.push(line);
    id
}

/// Direct-mapped interner over a compact span of lines.
struct DenseIds {
    base: u64,
    shift: u32,
    /// Line index → id (`u32::MAX` = not yet interned).
    table: Vec<u32>,
}

/// Unassigned-slot sentinel of the dense interner.
const UNASSIGNED: u32 = u32::MAX;

impl Intern for DenseIds {
    #[inline]
    fn intern(&mut self, line: u64, line_addr: &mut Vec<u64>) -> u32 {
        let slot = &mut self.table[((line - self.base) >> self.shift) as usize];
        if *slot == UNASSIGNED {
            *slot = assign(line, line_addr);
        }
        *slot
    }
}

/// Hash-map interner for traces whose span is too sparse for a table.
struct SparseIds(HashMap<u64, u32, BuildHasherDefault<LineHasher>>);

impl Intern for SparseIds {
    #[inline]
    fn intern(&mut self, line: u64, line_addr: &mut Vec<u64>) -> u32 {
        *self
            .0
            .entry(line)
            .or_insert_with(|| assign(line, line_addr))
    }
}

/// The interner a pool's span calls for.
enum Interner {
    Dense(DenseIds),
    Sparse(SparseIds),
}

impl Interner {
    /// Pick dense or sparse interning from the byte span the pool tracked
    /// as its ops were pushed.
    fn for_pool(pool: &crate::pool::TracePool, line_size: u64) -> Interner {
        let shift = line_size.trailing_zeros();
        let Some((lo, hi)) = pool.span() else {
            return Interner::Dense(DenseIds {
                base: 0,
                shift,
                table: Vec::new(),
            });
        };
        let (min, max) = (lo & !(line_size - 1), hi & !(line_size - 1));
        let span_lines = ((max - min) >> shift) + 1;
        // The table costs 4 bytes per line in the span; accept it while it
        // stays within a small constant of the per-op records (bump-allocated
        // address spaces always do — only hand-scattered addresses don't).
        let budget = (pool.len() as u64 * 8).max(1 << 16);
        if span_lines <= budget {
            Interner::Dense(DenseIds {
                base: min,
                shift,
                table: vec![UNASSIGNED; span_lines as usize],
            })
        } else {
            Interner::Sparse(SparseIds(HashMap::with_capacity_and_hasher(
                pool.len() / 2,
                BuildHasherDefault::default(),
            )))
        }
    }
}

/// The set-indexing geometry of one cache level: everything the compiled
/// lanes depend on.  Two caches with equal line size and set count map
/// line ids to sets identically regardless of associativity, capacity or
/// latency — associativity only shapes the *cache's* way arrays, never the
/// id → set mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Cache line size in bytes (power of two; must equal the stream's).
    pub line_size: u64,
    /// Number of sets (need not be a power of two — the modulo is paid at
    /// compile time, once per line, never per probe).
    pub num_sets: u64,
}

impl CacheGeometry {
    /// Construct a geometry key.
    pub fn new(line_size: u64, num_sets: u64) -> CacheGeometry {
        assert!(num_sets > 0, "need at least one set");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheGeometry {
            line_size,
            num_sets,
        }
    }
}

/// The packed set-index lanes of one machine shape: per line id, the L1,
/// L2 and (when the machine has one) L3 set indices folded into a single
/// `u64` word, `l1_set | l2_set << L1_BITS | l3_set << (L1_BITS +
/// L2_BITS)`.  The L3 field is zero on machines without an L3.
///
/// The simulator probes the L2 only on an L1 miss (and the L3 only on an
/// L2 miss), and the sweeps this engine exists for are miss-heavy — so a
/// lower level's set index must not cost a second indexed load from a
/// cold lane on the miss path.  Packing every level into one word makes
/// the L1-hit path one 8-byte load (the same bandwidth as the old
/// `line_addr` load it replaces, minus all the modulo math) and makes each
/// deeper set a shift and a mask of the word already loaded.  Measured on
/// the quick sweep, a split-lane variant of this table was ~7% *slower*
/// than the address path; the packed form is what delivers the id-native
/// win (DESIGN.md §9).
///
/// The field widths cover 2 Mi sets per private level and 4 Mi in the L3
/// (the paper's largest L2 has 16 Ki); `CmpConfig::validate` rejects a
/// larger cache before a run, and the compile asserts the bound.
#[derive(Debug)]
pub struct SetLanes {
    l1: CacheGeometry,
    l2: CacheGeometry,
    l3: Option<CacheGeometry>,
    /// Line id → `l1_set | (l2_set << L1_BITS) | (l3_set << (L1_BITS + L2_BITS))`.
    packed: Vec<u64>,
}

impl SetLanes {
    /// Bits of the L1 set field (low bits of the word).
    pub const L1_BITS: u32 = 21;
    /// Bits of the L2 set field.
    pub const L2_BITS: u32 = 21;
    /// Bits of the L3 set field (high bits of the word).
    pub const L3_BITS: u32 = 64 - Self::L1_BITS - Self::L2_BITS;

    /// Compile the packed lanes for an `(l1, l2, l3)` machine shape over
    /// `stream`'s interned lines.
    ///
    /// # Panics
    /// Panics if any geometry's line size differs from the stream's (set
    /// indices would be meaningless), or if a set count exceeds its field.
    fn compile(
        stream: &LineStream,
        l1: CacheGeometry,
        l2: CacheGeometry,
        l3: Option<CacheGeometry>,
    ) -> SetLanes {
        let levels = [(l1, Self::L1_BITS), (l2, Self::L2_BITS)];
        for (geometry, bits) in levels.into_iter().chain(l3.map(|g| (g, Self::L3_BITS))) {
            assert_eq!(
                geometry.line_size,
                stream.line_size(),
                "geometry compiled against a stream of a different line size"
            );
            assert!(
                geometry.num_sets <= 1u64 << bits,
                "set count {} exceeds the {bits}-bit set-lane field",
                geometry.num_sets
            );
        }
        let shift = stream.line_size().trailing_zeros();
        // No L3 is one L3 set: every line's L3 field is 0.
        let sets = [l1.num_sets, l2.num_sets, l3.map_or(1, |g| g.num_sets)];
        let line_nos = stream.line_addr().iter().map(|&line| line >> shift);
        let pack = |l1_set: u64, l2_set: u64, l3_set: u64| {
            l1_set | (l2_set << Self::L1_BITS) | (l3_set << (Self::L1_BITS + Self::L2_BITS))
        };
        let packed = if sets.iter().all(|n| n.is_power_of_two()) {
            // Every cache of the paper's machines: a mask per level, no
            // division per line.
            let [m1, m2, m3] = sets.map(|n| n - 1);
            line_nos.map(|no| pack(no & m1, no & m2, no & m3)).collect()
        } else {
            let [n1, n2, n3] = sets;
            line_nos.map(|no| pack(no % n1, no % n2, no % n3)).collect()
        };
        SetLanes { l1, l2, l3, packed }
    }

    /// The L1 geometry of the lanes.
    pub fn l1_geometry(&self) -> CacheGeometry {
        self.l1
    }

    /// The L2 geometry of the lanes.
    pub fn l2_geometry(&self) -> CacheGeometry {
        self.l2
    }

    /// The L3 geometry of the lanes (`None` on a two-level machine).
    pub fn l3_geometry(&self) -> Option<CacheGeometry> {
        self.l3
    }

    /// The packed lane: line id → every set index in one word.
    #[inline]
    pub fn packed(&self) -> &[u64] {
        &self.packed
    }

    /// The L1 set index of a packed word.
    #[inline]
    pub const fn l1_set(word: u64) -> u32 {
        (word & ((1 << Self::L1_BITS) - 1)) as u32
    }

    /// The L2 set index of a packed word.
    #[inline]
    pub const fn l2_set(word: u64) -> u32 {
        ((word >> Self::L1_BITS) & ((1 << Self::L2_BITS) - 1)) as u32
    }

    /// The L3 set index of a packed word (0 on a two-level machine).
    #[inline]
    pub const fn l3_set(word: u64) -> u32 {
        (word >> (Self::L1_BITS + Self::L2_BITS)) as u32
    }

    /// Heap bytes held by the packed lane.
    pub fn heap_bytes(&self) -> u64 {
        (self.packed.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

/// The precompiled line-granular access stream of one computation at one
/// cache-line size.  See the module docs for the layout.
#[derive(Debug)]
pub struct LineStream {
    line_size: u64,
    /// One `u64` word per step: the pre-access compute count in the high
    /// 32 bits (the op's `pre_compute` on its first line, 0 on subsequent
    /// straddled lines) over the packed step (line id |
    /// [`STEP_WRITE_BIT`]) in the low 32.  One lane instead of two
    /// parallel `u32` lanes: the simulator reads *both* halves of every
    /// step, so splitting them costs a second streaming load and a second
    /// bounds check per access for nothing.
    packed: Vec<u64>,
    /// Line id → aligned line address.
    line_addr: Vec<u64>,
    /// Per-task step ranges: task `t` owns `packed[starts[t]..starts[t+1]]`.
    starts: Vec<u32>,
    /// Memoised packed set lanes, one per distinct machine shape
    /// (typically one per sweep).
    set_lanes: Mutex<LaneMemo>,
    /// Memoised prefix sums of the pre-access compute lane
    /// ([`LineStream::pre_prefix`]): the batched engine's tape-walk cursor.
    pre_prefix: Mutex<Option<Arc<Vec<u64>>>>,
}

/// Memo storage of the [`SetLanes`], keyed by `(l1, l2, l3)`: a short
/// association list — sweeps see one or two distinct machine shapes, so a
/// linear scan beats any map.
type LaneMemo = Vec<(
    (CacheGeometry, CacheGeometry, Option<CacheGeometry>),
    Arc<SetLanes>,
)>;

impl LineStream {
    /// Expand `comp`'s pooled trace at `line_size`-byte granularity.
    pub fn compile(comp: &Computation, line_size: u64) -> LineStream {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        match Interner::for_pool(comp.trace_pool(), line_size) {
            Interner::Dense(ids) => Self::expand(comp, line_size, ids),
            Interner::Sparse(ids) => Self::expand(comp, line_size, ids),
        }
    }

    /// The expansion loop, one copy per interner: each task's records are
    /// read once, in order, and every line an op touches becomes one step.
    fn expand(comp: &Computation, line_size: u64, mut ids: impl Intern) -> LineStream {
        let mask = !(line_size - 1);
        let mut packed: Vec<u64> = Vec::with_capacity(comp.trace_pool().len());
        // Grown by `push`, not pre-sized: its capacity is part of
        // `heap_bytes`, which the reports' `peak_alloc_estimate` reads.
        let mut line_addr: Vec<u64> = Vec::new();
        let mut starts: Vec<u32> = Vec::with_capacity(comp.num_tasks() + 1);
        starts.push(0);

        for t in 0..comp.num_tasks() as u32 {
            for op in comp.trace(TaskId(t)).records() {
                let first = op.addr & mask;
                let last = (op.addr + op.size().max(1) as u64 - 1) & mask;
                let write_bit = if op.is_write() { STEP_WRITE_BIT } else { 0 };
                let mut line = first;
                let mut op_pre = op.pre_compute;
                loop {
                    let id = ids.intern(line, &mut line_addr);
                    packed.push(((op_pre as u64) << 32) | (id | write_bit) as u64);
                    op_pre = 0;
                    if line == last {
                        break;
                    }
                    line += line_size;
                }
            }
            assert!(
                packed.len() < u32::MAX as usize,
                "line stream exceeds u32 indexing"
            );
            starts.push(packed.len() as u32);
        }

        packed.shrink_to_fit();
        LineStream {
            line_size,
            packed,
            line_addr,
            starts,
            set_lanes: Mutex::new(Vec::new()),
            pre_prefix: Mutex::new(None),
        }
    }

    /// The packed [`SetLanes`] of a two-level `(L1, L2)` machine, compiled
    /// on first use and shared afterwards — the form the simulator's hot
    /// loop consumes (one lane load serves every cache level; see the type
    /// docs).
    pub fn geometry_pair(&self, l1: CacheGeometry, l2: CacheGeometry) -> Arc<SetLanes> {
        self.set_lanes(l1, l2, None)
    }

    /// The packed [`SetLanes`] of an `(L1, L2, L3)` machine, compiled on
    /// first use and shared afterwards from the same memo as
    /// [`LineStream::geometry_pair`].
    pub fn geometry_triple(
        &self,
        l1: CacheGeometry,
        l2: CacheGeometry,
        l3: CacheGeometry,
    ) -> Arc<SetLanes> {
        self.set_lanes(l1, l2, Some(l3))
    }

    fn set_lanes(
        &self,
        l1: CacheGeometry,
        l2: CacheGeometry,
        l3: Option<CacheGeometry>,
    ) -> Arc<SetLanes> {
        let mut memo = self.set_lanes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, lanes)) = memo.iter().find(|(key, _)| *key == (l1, l2, l3)) {
            return Arc::clone(lanes);
        }
        let lanes = Arc::new(SetLanes::compile(self, l1, l2, l3));
        memo.push(((l1, l2, l3), Arc::clone(&lanes)));
        lanes
    }

    /// Prefix sums of the pre-access compute lane, compiled on first use
    /// and shared afterwards: `pre_prefix()[i]` is the total pre-access
    /// compute of steps `0..i` (length [`LineStream::num_steps`]` + 1`).
    ///
    /// This is the batched engine's **tape-walk cursor**: the compute
    /// cycles a single-core run spends between two recorded misses at steps
    /// `a < b` are `prefix[b] - prefix[a]` — one subtraction instead of
    /// re-walking the packed lane for each configuration of a latency sweep
    /// whose memory requests can queue (the only ones that walk the tape).
    pub fn pre_prefix(&self) -> Arc<Vec<u64>> {
        let mut slot = self.pre_prefix.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(prefix) = slot.as_ref() {
            return Arc::clone(prefix);
        }
        let mut prefix = Vec::with_capacity(self.packed.len() + 1);
        let mut sum = 0u64;
        prefix.push(0);
        for &word in &self.packed {
            sum += Self::pre_of(word) as u64;
            prefix.push(sum);
        }
        let prefix = Arc::new(prefix);
        *slot = Some(Arc::clone(&prefix));
        prefix
    }

    /// Number of distinct machine shapes whose [`SetLanes`] were compiled
    /// against this stream so far (diagnostics/tests).
    pub fn compiled_set_lanes(&self) -> usize {
        self.set_lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The cache-line size the stream was compiled for.
    #[inline]
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// The packed step lane: per step, `pre_compute` in the high 32 bits
    /// over `line id | STEP_WRITE_BIT` in the low 32 (split them with
    /// [`LineStream::pre_of`] / [`LineStream::step_of`]).
    #[inline]
    pub fn packed(&self) -> &[u64] {
        &self.packed
    }

    /// The pre-access compute count of a packed step word.
    #[inline]
    pub const fn pre_of(word: u64) -> u32 {
        (word >> 32) as u32
    }

    /// The `line id | STEP_WRITE_BIT` half of a packed step word.
    #[inline]
    pub const fn step_of(word: u64) -> u32 {
        word as u32
    }

    /// The line-id → aligned-address table.
    #[inline]
    pub fn line_addr(&self) -> &[u64] {
        &self.line_addr
    }

    /// The step range of one task.
    #[inline]
    pub fn range(&self, t: TaskId) -> (usize, usize) {
        (
            self.starts[t.index()] as usize,
            self.starts[t.index() + 1] as usize,
        )
    }

    /// Total line-granular steps in the stream.
    pub fn num_steps(&self) -> usize {
        self.packed.len()
    }

    /// Number of distinct cache lines the computation touches.
    pub fn num_lines(&self) -> usize {
        self.line_addr.len()
    }

    /// Heap bytes held by the compiled stream.
    ///
    /// Deliberately *excludes* the lazily memoised [`pre_prefix`] lane:
    /// this figure feeds the deterministic `peak_alloc_estimate` record
    /// field, which must not depend on whether a batched run compiled the
    /// tape-walk cursor on a shared stream first.
    ///
    /// [`pre_prefix`]: LineStream::pre_prefix
    pub fn heap_bytes(&self) -> u64 {
        (self.packed.capacity() * std::mem::size_of::<u64>()
            + self.line_addr.capacity() * std::mem::size_of::<u64>()
            + self.starts.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

impl Computation {
    /// The precompiled line stream of this computation at `line_size`,
    /// compiled on first use and shared (one per line size) afterwards.
    ///
    /// Simulations of the same computation at the same line size — every
    /// scheduler × core-count point of a sweep — reuse the same stream, so
    /// address-to-line resolution happens once per sweep configuration.
    pub fn line_stream(&self, line_size: u64) -> Arc<LineStream> {
        let mut cache = self.streams.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, stream)) = cache.iter().find(|(ls, _)| *ls == line_size) {
            return Arc::clone(stream);
        }
        let stream = Arc::new(LineStream::compile(self, line_size));
        cache.push((line_size, Arc::clone(&stream)));
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sp::{ComputationBuilder, GroupMeta};

    fn sample() -> Computation {
        let mut b = ComputationBuilder::new(128);
        let a = b.strand_with(|t| {
            t.compute(5).read(0x1000, 4).write(0x1040, 4); // same line twice
        });
        let c = b.strand_with(|t| {
            t.read(0x10F8, 16); // straddles 0x1080 and 0x1100
        });
        let root = b.seq(vec![a, c], GroupMeta::default());
        b.finish(root)
    }

    #[test]
    fn expansion_matches_per_op_line_iteration() {
        let comp = sample();
        let stream = LineStream::compile(&comp, 128);
        // Replay via MemRef::lines and compare.
        let mut expect: Vec<(u32, u64, bool)> = Vec::new();
        for t in 0..comp.num_tasks() as u32 {
            for op in comp.trace(TaskId(t)).ops() {
                let mut pre = op.pre_compute;
                for line in op.mem.lines(128) {
                    expect.push((pre, line, op.mem.kind.is_write()));
                    pre = 0;
                }
            }
        }
        let got: Vec<(u32, u64, bool)> = (0..stream.num_steps())
            .map(|i| {
                let w = stream.packed()[i];
                let s = LineStream::step_of(w);
                (
                    LineStream::pre_of(w),
                    stream.line_addr()[(s & STEP_ID_MASK) as usize],
                    s & STEP_WRITE_BIT != 0,
                )
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn ranges_partition_the_stream() {
        let comp = sample();
        let stream = LineStream::compile(&comp, 128);
        let (s0, e0) = stream.range(TaskId(0));
        let (s1, e1) = stream.range(TaskId(1));
        assert_eq!((s0, e0), (0, 2));
        assert_eq!((s1, e1), (2, 4), "straddling ref expands to two steps");
        assert_eq!(e1, stream.num_steps());
        // Lines 0x1000 (shared by both refs of task 0), 0x1080, 0x1100.
        assert_eq!(stream.num_lines(), 3);
        assert!(stream.heap_bytes() > 0);
    }

    /// Asserts that every field of every packed word of `lanes` equals
    /// `(line >> log2(line_size)) % num_sets` for its level's geometry,
    /// computed straight from `stream.line_addr()`.
    fn assert_lanes_match_address_math(stream: &LineStream, lanes: &SetLanes) {
        assert_eq!(lanes.packed().len(), stream.num_lines());
        assert!(lanes.heap_bytes() >= stream.num_lines() as u64 * 8);
        let shift = stream.line_size().trailing_zeros();
        let (l1, l2, l3) = (
            lanes.l1_geometry(),
            lanes.l2_geometry(),
            lanes.l3_geometry(),
        );
        let set = |line: u64, g: CacheGeometry| ((line >> shift) % g.num_sets) as u32;
        for (&line, &word) in stream.line_addr().iter().zip(lanes.packed()) {
            let at = format!("line {line:#x} in {l1:?}, {l2:?}, {l3:?}");
            assert_eq!(SetLanes::l1_set(word), set(line, l1), "L1 of {at}");
            assert_eq!(SetLanes::l2_set(word), set(line, l2), "L2 of {at}");
            let l3_set = l3.map_or(0, |g| set(line, g));
            assert_eq!(SetLanes::l3_set(word), l3_set, "L3 of {at}");
        }
    }

    /// The address math holds for power-of-two set counts (compiled with
    /// masks), non-power-of-two ones (compiled with `%`), machines with and
    /// without an L3, and each field at its widest.
    #[test]
    fn geometry_lanes_match_address_math() {
        let mut b = ComputationBuilder::new(128);
        let low = b.strand_with(|t| {
            t.read(0x1000, 4).read(0x10F8, 16); // 0x1000, 0x1080, 0x1100
        });
        // Line number 2^22 - 1: every bit of every field at the widest shape.
        let high = b.strand_with(|t| {
            t.write(((1 << 22) - 1) * 128, 8);
        });
        let root = b.seq(vec![low, high], GroupMeta::default());
        let comp = b.finish(root);
        let stream = comp.line_stream(128);
        assert_eq!(stream.num_lines(), 4);

        let g = |num_sets| CacheGeometry::new(128, num_sets);
        // (L1 sets, L2 sets, L3 sets).
        let shapes: [(u64, u64, Option<u64>); 6] = [
            (8, 32, None),
            (6, 20, None),
            (8, 32, Some(96)),
            (8, 32, Some(64)),
            (3, 5, Some(7)),
            (1 << 21, 1 << 21, Some(1 << 22)),
        ];
        for (l1, l2, l3) in shapes {
            let lanes = match l3 {
                Some(l3) => stream.geometry_triple(g(l1), g(l2), g(l3)),
                None => stream.geometry_pair(g(l1), g(l2)),
            };
            assert_eq!(lanes.l1_geometry(), g(l1));
            assert_eq!(lanes.l2_geometry(), g(l2));
            assert_eq!(lanes.l3_geometry(), l3.map(g));
            assert_lanes_match_address_math(&stream, &lanes);
        }
    }

    #[test]
    fn geometry_pairs_are_memoised_and_match_split_lanes() {
        let comp = sample();
        let stream = comp.line_stream(128);
        assert_eq!(stream.compiled_set_lanes(), 0);
        let l1 = CacheGeometry::new(128, 8);
        let l2 = CacheGeometry::new(128, 32);
        let pair = stream.geometry_pair(l1, l2);
        let again = stream.geometry_pair(l1, l2);
        assert!(Arc::ptr_eq(&pair, &again), "same pair shares one table");
        let swapped = stream.geometry_pair(l2, l1);
        assert!(!Arc::ptr_eq(&pair, &swapped));
        assert_eq!(stream.compiled_set_lanes(), 2);
        assert_eq!(pair.l3_geometry(), None);
        assert_lanes_match_address_math(&stream, &pair);
        assert_lanes_match_address_math(&stream, &swapped);
    }

    #[test]
    fn geometry_triples_are_memoised_and_match_split_lanes() {
        let comp = sample();
        let stream = comp.line_stream(128);
        let l1 = CacheGeometry::new(128, 8);
        let l2 = CacheGeometry::new(128, 32);
        let l3 = CacheGeometry::new(128, 96); // non-power-of-two set count
        let triple = stream.geometry_triple(l1, l2, l3);
        let again = stream.geometry_triple(l1, l2, l3);
        assert!(Arc::ptr_eq(&triple, &again), "same triple shares one table");
        assert_eq!(stream.compiled_set_lanes(), 1);
        // The pair with the same L1/L2 is its own memo entry, without an L3.
        let pair = stream.geometry_pair(l1, l2);
        assert!(!Arc::ptr_eq(&triple, &pair));
        assert_eq!(stream.compiled_set_lanes(), 2);
        assert_eq!(triple.l1_geometry(), l1);
        assert_eq!(triple.l2_geometry(), l2);
        assert_eq!(triple.l3_geometry(), Some(l3));
        assert_eq!(pair.l3_geometry(), None);
        assert_lanes_match_address_math(&stream, &triple);
    }

    #[test]
    #[should_panic(expected = "set-lane field")]
    fn triple_lane_rejects_oversized_set_counts() {
        let comp = sample();
        let stream = LineStream::compile(&comp, 128);
        let huge = CacheGeometry::new(128, 1 << 22); // > 21-bit L1 field
        let small = CacheGeometry::new(128, 8);
        let _ = stream.geometry_triple(huge, small, small);
    }

    #[test]
    #[should_panic(expected = "different line size")]
    fn geometry_line_size_must_match_stream() {
        let comp = sample();
        let stream = LineStream::compile(&comp, 128);
        let _ = stream.geometry_pair(CacheGeometry::new(64, 8), CacheGeometry::new(128, 8));
    }

    #[test]
    fn line_stream_is_cached_per_line_size() {
        let comp = sample();
        let a = comp.line_stream(128);
        let b = comp.line_stream(128);
        assert!(Arc::ptr_eq(&a, &b), "same line size shares one stream");
        let c = comp.line_stream(64);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.line_size(), 64);
        // A clone starts with an empty cache but compiles an equal stream.
        let clone = comp.clone();
        let d = clone.line_stream(128);
        assert_eq!(d.num_steps(), a.num_steps());
        assert_eq!(d.line_addr(), a.line_addr());
    }
}
