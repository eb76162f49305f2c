//! LU factorization workload (Section 4.2).
//!
//! Mirrors the Cilk LU benchmark: a dense `N × N` matrix of doubles is
//! factorized recursively; the matrix is split into four quadrants until the
//! quadrant size reaches the block size `B`, which controls the grain of
//! parallelism.  LU is the paper's representative of scientific codes with
//! small working sets: the L2 misses-per-instruction ratio is tiny, so PDF
//! reduces misses but cannot improve execution time.
//!
//! Recursive structure (the Cilk algorithm):
//!
//! ```text
//! lu(A):                      # A = [A00 A01; A10 A11]
//!   lu(A00)
//!   par { lower_solve(A01, A00) ; upper_solve(A10, A00) }
//!   schur(A11, A10, A01)      # A11 -= A10 * A01, fully parallel
//!   lu(A11)
//! ```

use ccs_dag::{
    AddressSpace, CallSite, Computation, ComputationBuilder, GroupMeta, Region, SpNodeId,
};

/// Parameters of the LU workload.
#[derive(Clone, Debug)]
pub struct LuParams {
    /// Matrix dimension (N × N doubles).
    pub n: u64,
    /// Block size B: quadrants of B × B are factored/updated by single tasks.
    pub block: u64,
    /// Bytes per element (doubles).
    pub elem_bytes: u64,
    /// Cache-line size for trace generation.
    pub line_size: u64,
}

impl LuParams {
    /// Defaults: doubles, 128-byte lines, 64×64 blocks.
    pub fn new(n: u64) -> Self {
        LuParams {
            n,
            block: 64.min(n),
            elem_bytes: 8,
            line_size: 128,
        }
    }

    /// Paper-proportional parameters scaled down by `scale` (1 = the paper's
    /// 2K×2K matrix; the dimension scales with `sqrt(scale)` so the
    /// matrix-to-cache ratio is preserved), with the block size tracking an
    /// L2 of `l2_bytes` via [`LuParams::block_for_l2`].  The single authority
    /// for how LU scales — used by the workload registry.
    pub fn scaled(scale: u64, l2_bytes: u64) -> Self {
        let scale = scale.max(1);
        let dim = (2048.0 / (scale as f64).sqrt()).round() as u64;
        let dim = dim.next_power_of_two().max(128);
        LuParams::new(dim).with_block(Self::block_for_l2(dim, l2_bytes))
    }

    /// The block size for an `n × n` factorization sharing an L2 of
    /// `l2_bytes`: one block (B² doubles) is kept a small fraction of the
    /// cache so LU stays compute-dense and cache-friendly as in the paper,
    /// clamped to the structural bounds `[16, n/4]` (so the recursion always
    /// has at least two levels of parallelism).  The cache-derived target is
    /// the only upper influence — there is deliberately no fixed cap, so the
    /// block grows with the cache.
    pub fn block_for_l2(n: u64, l2_bytes: u64) -> u64 {
        let upper = (n / 4).max(16).min(n.max(4));
        let lower = upper.clamp(4, 16);
        let block_target = ((l2_bytes / 64).max(256) as f64 / 8.0).sqrt() as u64;
        block_target.next_power_of_two().clamp(lower, upper)
    }

    /// Override the block size (the grain of parallelism).
    pub fn with_block(mut self, block: u64) -> Self {
        assert!(block >= 4 && block <= self.n, "block must be in [4, n]");
        self.block = block;
        self
    }

    /// Total input bytes (the dense matrix).
    pub fn total_bytes(&self) -> u64 {
        self.n * self.n * self.elem_bytes
    }
}

const LU_SITE: CallSite = CallSite::new("lu.rs", 40);

/// A quadrant of the matrix: row/column offset and extent in elements.
#[derive(Clone, Copy, Debug)]
struct Tile {
    row: u64,
    col: u64,
    size: u64,
}

impl Tile {
    fn quad(&self, i: u64, j: u64) -> Tile {
        let h = self.size / 2;
        Tile {
            row: self.row + i * h,
            col: self.col + j * h,
            size: h,
        }
    }
}

struct Generator {
    params: LuParams,
    matrix: Region,
}

impl Generator {
    /// Emit reads (and optionally writes) of every line of a tile, with
    /// `instr_per_elem` compute instructions per element.
    fn touch_tile(
        &self,
        t: &mut ccs_dag::TraceBuilder<'_>,
        tile: Tile,
        instr_per_elem: u64,
        write: bool,
    ) {
        let p = &self.params;
        let row_bytes = tile.size * p.elem_bytes;
        let instr_per_line = instr_per_elem * (p.line_size / p.elem_bytes);
        for r in 0..tile.size {
            let offset = ((tile.row + r) * p.n + tile.col) * p.elem_bytes;
            t.read_range(self.matrix.at(offset), row_bytes, instr_per_line);
            if write {
                t.write_range(self.matrix.at(offset), row_bytes, 0);
            }
        }
    }

    /// Factor the diagonal tile in place: one task of O(size³) work over a
    /// size² working set.
    fn lu_base(&self, b: &mut ComputationBuilder, a: Tile) -> SpNodeId {
        let size = a.size;
        b.strand_with_meta(
            GroupMeta::with_param("lu-base", size * size * self.params.elem_bytes).at(LU_SITE),
            |t| self.touch_tile(t, a, size, true),
        )
    }

    /// Triangular solve of `target` against the factored diagonal tile `diag`.
    fn solve_base(
        &self,
        b: &mut ComputationBuilder,
        target: Tile,
        diag: Tile,
        label: &'static str,
    ) -> SpNodeId {
        let size = target.size;
        b.strand_with_meta(
            GroupMeta::with_param(label, size * size * self.params.elem_bytes).at(LU_SITE),
            |t| {
                self.touch_tile(t, diag, size / 2, false);
                self.touch_tile(t, target, size / 2, true);
            },
        )
    }

    /// Schur complement base: `c -= a * b`.
    fn schur_base(&self, bb: &mut ComputationBuilder, c: Tile, a: Tile, b: Tile) -> SpNodeId {
        let size = c.size;
        bb.strand_with_meta(
            GroupMeta::with_param("schur-base", size * size * self.params.elem_bytes).at(LU_SITE),
            |t| {
                self.touch_tile(t, a, size / 2, false);
                self.touch_tile(t, b, size / 2, false);
                self.touch_tile(t, c, size, true);
            },
        )
    }

    fn solve(
        &self,
        b: &mut ComputationBuilder,
        target: Tile,
        diag: Tile,
        label: &'static str,
    ) -> SpNodeId {
        if target.size <= self.params.block {
            return self.solve_base(b, target, diag, label);
        }
        // Split the target into quadrants; all four can proceed after the
        // corresponding halves of the diagonal are available — model the
        // conservative (and simpler) schedule: quadrant solves in parallel.
        let quads: Vec<SpNodeId> = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| self.solve(b, target.quad(i, j), diag.quad(i, i), label))
            .collect();
        b.par(
            quads,
            GroupMeta::with_param(label, target.size * target.size * self.params.elem_bytes)
                .at(LU_SITE),
        )
    }

    fn schur(&self, bb: &mut ComputationBuilder, c: Tile, a: Tile, b: Tile) -> SpNodeId {
        if c.size <= self.params.block {
            return self.schur_base(bb, c, a, b);
        }
        // C_ij -= sum_k A_ik * B_kj: the four C quadrants are independent;
        // each needs two rank-updates in sequence.
        let mut quads = Vec::with_capacity(4);
        for i in 0..2 {
            for j in 0..2 {
                let first = self.schur(bb, c.quad(i, j), a.quad(i, 0), b.quad(0, j));
                let second = self.schur(bb, c.quad(i, j), a.quad(i, 1), b.quad(1, j));
                quads.push(
                    bb.seq(
                        vec![first, second],
                        GroupMeta::with_param(
                            "schur-quad",
                            c.size * c.size / 4 * self.params.elem_bytes,
                        )
                        .at(LU_SITE),
                    ),
                );
            }
        }
        bb.par(
            quads,
            GroupMeta::with_param("schur", c.size * c.size * self.params.elem_bytes).at(LU_SITE),
        )
    }

    fn lu(&self, b: &mut ComputationBuilder, a: Tile) -> SpNodeId {
        if a.size <= self.params.block {
            return self.lu_base(b, a);
        }
        let a00 = a.quad(0, 0);
        let a01 = a.quad(0, 1);
        let a10 = a.quad(1, 0);
        let a11 = a.quad(1, 1);

        let top = self.lu(b, a00);
        let s01 = self.solve(b, a01, a00, "lower-solve");
        let s10 = self.solve(b, a10, a00, "upper-solve");
        let solves = b.par(
            vec![s01, s10],
            GroupMeta::with_param("solves", a.size * a.size / 2 * self.params.elem_bytes)
                .at(LU_SITE),
        );
        let schur = self.schur(b, a11, a10, a01);
        let tail = self.lu(b, a11);
        b.seq(
            vec![top, solves, schur, tail],
            GroupMeta::with_param("lu", a.size * a.size * self.params.elem_bytes).at(LU_SITE),
        )
    }
}

/// Build the LU computation DAG and traces.
pub fn build(params: &LuParams) -> Computation {
    assert!(
        params.n.is_power_of_two(),
        "matrix dimension must be a power of two"
    );
    assert!(
        params.block.is_power_of_two(),
        "block size must be a power of two"
    );
    let mut space = AddressSpace::new();
    let matrix = space.alloc(params.total_bytes());
    let gen = Generator {
        params: params.clone(),
        matrix,
    };
    let mut b = ComputationBuilder::new(params.line_size);
    let root = gen.lu(
        &mut b,
        Tile {
            row: 0,
            col: 0,
            size: params.n,
        },
    );
    b.finish(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_dag::{Dag, TaskGroupTree};

    #[test]
    fn single_block_is_one_task() {
        let comp = build(&LuParams::new(64));
        assert_eq!(comp.num_tasks(), 1);
    }

    #[test]
    fn recursive_structure_is_valid() {
        let comp = build(&LuParams::new(256).with_block(64));
        let dag = Dag::from_computation(&comp);
        dag.validate().unwrap();
        TaskGroupTree::from_computation(&comp).validate().unwrap();
        assert!(dag.parallelism() > 1.0);
        assert!(comp.num_tasks() > 20);
    }

    #[test]
    fn smaller_blocks_mean_more_tasks() {
        let coarse = build(&LuParams::new(256).with_block(128));
        let fine = build(&LuParams::new(256).with_block(32));
        assert!(fine.num_tasks() > coarse.num_tasks());
    }

    #[test]
    fn footprint_matches_matrix_size() {
        let params = LuParams::new(128).with_block(32);
        let comp = build(&params);
        let mut lines = std::collections::HashSet::new();
        for (_, r) in comp.sequential_refs() {
            for l in r.lines(params.line_size) {
                lines.insert(l);
            }
        }
        let expect = params.total_bytes() / params.line_size;
        assert_eq!(lines.len() as u64, expect, "LU touches exactly the matrix");
    }

    #[test]
    fn work_grows_cubically() {
        let small = build(&LuParams::new(128).with_block(32)).total_work();
        let large = build(&LuParams::new(256).with_block(32)).total_work();
        let ratio = large as f64 / small as f64;
        assert!(
            ratio > 5.0 && ratio < 10.0,
            "ratio {ratio} not ~8 (n^3 scaling)"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        build(&LuParams::new(100));
    }
}
