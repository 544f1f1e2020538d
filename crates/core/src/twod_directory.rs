//! Compiled read path for the 2-D index: a fixed-stride patch arena with a
//! flattened cell index — the quadtree equivalent of the 1-D
//! [`crate::directory::CompiledDirectory`].
//!
//! The pointer quadtree ([`crate::twod::QuadPolyFit`]'s `Node` tree) is a
//! faithful build-time structure but a poor serving structure: every corner
//! evaluation chases `depth` heap pointers through `Vec<Node>` children
//! (dependent cache misses), re-reads the polynomial's `Vec` coefficients
//! through another indirection, and re-decides the split axes at every
//! level. At build (or decode) time this module compiles the certified
//! leaf patches into:
//!
//! * **a fixed-stride row arena** — each leaf is one contiguous row
//!   `[cu, su, cv, sv, c₀ … c_{k−1}]` (the affine normalizers followed by
//!   the graded-lex coefficients), so one row read brings everything a
//!   corner evaluation needs into cache;
//! * **a flattened cell index** — quadtree leaves are axis-aligned ranges
//!   of lattice *unit cells*, so a `res × res` table of row ids replaces
//!   the entire descent: point location is two `partition_point` calls
//!   over the lattice line coordinates plus one table load;
//! * **degree-monomorphized bivariate kernels** — the common degrees
//!   (1–3) get straight-line evaluation ladders; higher degrees fall back
//!   to a generic power-table loop. Every kernel replays
//!   [`polyfit_poly::BivariatePoly::eval`]'s operation sequence exactly,
//!   so compiled answers are **bitwise identical** to the pointer walk —
//!   a property the proptests and the `twod_hotpath` bench both gate on.
//!
//! Rectangle queries are four corner CF evaluations (inclusion–exclusion).
//! [`TwodDirectory::query_rect`] fuses them: each axis coordinate is
//! probed (domain-classified, clamped, located) once and shared by the two
//! corners that use it. Batches run this fused path one rect at a time
//! ([`crate::twod::QuadPolyFit::query_batch`]).

use polyfit_poly::{monomials, BivariatePoly};

use crate::twod::Lattice;

/// Row layout: `[cu, su, cv, sv]` then the coefficients.
const ROW_HEADER: usize = 4;

/// A certified quadtree leaf with its lattice-cell range, as handed to
/// [`TwodDirectory::compile`]. The range is over unit cells: the leaf
/// covers lattice lines `[i0, i1] × [j0, j1]`, i.e. unit cells
/// `[i0, i1) × [j0, j1)`.
pub(crate) struct LeafPatch<'a> {
    pub(crate) i0: usize,
    pub(crate) i1: usize,
    pub(crate) j0: usize,
    pub(crate) j1: usize,
    pub(crate) poly: &'a BivariatePoly,
}

/// Degree-monomorphized bivariate evaluation kernel.
///
/// Each arm replays the exact operation sequence of
/// [`BivariatePoly::eval_normalized`] — accumulate `c·sⁱ·tʲ` in graded-lex
/// order onto a `0.0` seed, powers built by repeated multiplication — with
/// the multiplications by an exact `1.0` (`s⁰`, `t⁰`) elided, which is an
/// IEEE identity and therefore preserves bitwise equality.
#[derive(Clone, Copy, Debug)]
enum BivarKernel {
    /// degree 1: `c₀ + c₁s + c₂t`
    Affine,
    /// degree 2 (the paper default).
    Quadratic,
    /// degree 3.
    Cubic,
    /// degrees 4–8: generic power-table loop.
    Generic(usize),
}

impl BivarKernel {
    fn for_degree(degree: usize) -> Self {
        match degree {
            1 => BivarKernel::Affine,
            2 => BivarKernel::Quadratic,
            3 => BivarKernel::Cubic,
            d => BivarKernel::Generic(d),
        }
    }
}

/// Per-axis probe of one query coordinate: domain classification, the
/// clamped coordinate, and the located unit cell. The fused rect path
/// computes it once per coordinate and shares it between two corners.
#[derive(Clone, Copy, Debug)]
struct AxisProbe {
    /// Strictly below the domain (CF is exactly 0 there).
    below: bool,
    /// At or beyond the top lattice line.
    top: bool,
    /// Coordinate clamped to the top lattice line.
    x: f64,
    /// Unit-cell index in `[0, res)`.
    cell: usize,
}

/// The compiled 2-D read path: flattened cell index + fixed-stride patch
/// arena. Built by [`crate::twod::QuadPolyFit`] at construction/decode
/// time; the pointer quadtree is retained as the verification oracle.
#[derive(Clone, Debug)]
pub struct TwodDirectory {
    res: usize,
    /// Lattice line coordinates per axis (`res + 1` entries, ascending —
    /// exactly `lattice.line_u(i)` / `line_v(j)` bit for bit).
    lines_u: Vec<f64>,
    lines_v: Vec<f64>,
    total: f64,
    /// `res × res` row-major: unit cell `(ci, cj)` → arena row id.
    cell_to_row: Vec<u32>,
    /// Fixed-stride leaf rows (`ROW_HEADER + coeff_count` f64s each).
    rows: Vec<f64>,
    row_stride: usize,
    kernel: BivarKernel,
}

impl TwodDirectory {
    /// Compile the certified leaves into the arena. Panics on internal
    /// invariant violations (non-tiling leaves, mixed degrees) — the
    /// builder produces uniform-degree tiling leaves by construction, and
    /// the decoder validates before calling.
    pub(crate) fn compile(lattice: Lattice, total: f64, leaves: &[LeafPatch<'_>]) -> Self {
        let res = lattice.res;
        assert!(res >= 2, "lattice resolution must be ≥ 2");
        assert!(res <= 1 << 14, "flattened cell index caps the resolution at 16384");
        assert!(!leaves.is_empty(), "cannot compile an empty patch set");
        assert!(leaves.len() <= u32::MAX as usize, "row ids are u32");
        let degree = leaves[0].poly.degree();
        let ncoef = leaves[0].poly.coeff_count();
        let row_stride = ROW_HEADER + ncoef;
        let mut rows = Vec::with_capacity(leaves.len() * row_stride);
        let mut cell_to_row = vec![u32::MAX; res * res];
        for (id, leaf) in leaves.iter().enumerate() {
            assert_eq!(leaf.poly.degree(), degree, "arena requires a uniform patch degree");
            let (cu, su, cv, sv) = leaf.poly.normalizers();
            rows.extend_from_slice(&[cu, su, cv, sv]);
            rows.extend_from_slice(leaf.poly.coeffs());
            for ci in leaf.i0..leaf.i1 {
                for cj in leaf.j0..leaf.j1 {
                    cell_to_row[ci * res + cj] = id as u32;
                }
            }
        }
        assert!(cell_to_row.iter().all(|&r| r != u32::MAX), "leaf patches must tile the lattice");
        TwodDirectory {
            res,
            lines_u: (0..=res).map(|i| lattice.line_u(i)).collect(),
            lines_v: (0..=res).map(|j| lattice.line_v(j)).collect(),
            total,
            cell_to_row,
            rows,
            row_stride,
            kernel: BivarKernel::for_degree(degree),
        }
    }

    /// Number of compiled leaf patches.
    pub fn num_rows(&self) -> usize {
        self.rows.len() / self.row_stride
    }

    /// Bytes of read-optimised acceleration state (arena + cell index +
    /// lattice lines). This is *on top of* the logical index size — the
    /// flattened cell index trades `4·res²` bytes for pointer-free point
    /// location.
    pub fn arena_bytes(&self) -> usize {
        self.rows.len() * 8
            + self.cell_to_row.len() * 4
            + (self.lines_u.len() + self.lines_v.len()) * 8
    }

    #[inline]
    fn row(&self, id: usize) -> &[f64] {
        &self.rows[id * self.row_stride..(id + 1) * self.row_stride]
    }

    /// Evaluate one arena row at raw coordinates — bitwise equal to
    /// `BivariatePoly::eval` on the corresponding leaf.
    #[inline]
    fn eval_row(&self, row: &[f64], u: f64, v: f64) -> f64 {
        let s = (u - row[0]) / row[1];
        let t = (v - row[2]) / row[3];
        let c = &row[ROW_HEADER..];
        match self.kernel {
            BivarKernel::Affine => {
                let mut acc = 0.0;
                acc += c[0];
                acc += c[1] * s;
                acc += c[2] * t;
                acc
            }
            BivarKernel::Quadratic => {
                let s2 = s * s;
                let t2 = t * t;
                let mut acc = 0.0;
                acc += c[0];
                acc += c[1] * s;
                acc += c[2] * t;
                acc += c[3] * s2;
                acc += c[4] * s * t;
                acc += c[5] * t2;
                acc
            }
            BivarKernel::Cubic => {
                let s2 = s * s;
                let t2 = t * t;
                let s3 = s2 * s;
                let t3 = t2 * t;
                let mut acc = 0.0;
                acc += c[0];
                acc += c[1] * s;
                acc += c[2] * t;
                acc += c[3] * s2;
                acc += c[4] * s * t;
                acc += c[5] * t2;
                acc += c[6] * s3;
                acc += c[7] * s2 * t;
                acc += c[8] * s * t2;
                acc += c[9] * t3;
                acc
            }
            BivarKernel::Generic(deg) => {
                const MAX_DEG: usize = 16;
                let mut spow = [1.0f64; MAX_DEG + 1];
                let mut tpow = [1.0f64; MAX_DEG + 1];
                for d in 1..=deg {
                    spow[d] = spow[d - 1] * s;
                    tpow[d] = tpow[d - 1] * t;
                }
                let mut acc = 0.0;
                for ((i, j), &cc) in monomials(deg).zip(c) {
                    acc += cc * spow[i] * tpow[j];
                }
                acc
            }
        }
    }

    /// Locate the unit cell owning `x` under the quadtree walk's
    /// `x > boundary ⇒ right child` rule: the number of *interior* lattice
    /// lines strictly below `x`. Every split boundary the walk compares
    /// against is one of these lines, so the flattened answer lands in the
    /// same leaf as the pointer descent for every input, boundary values
    /// and duplicated (absorbed) lines included.
    #[inline]
    fn cell_of(lines: &[f64], res: usize, x: f64) -> usize {
        lines[1..res].partition_point(|&l| l < x)
    }

    #[inline]
    fn probe_u(&self, u: f64) -> AxisProbe {
        let hi = self.lines_u[self.res];
        let x = u.min(hi);
        AxisProbe {
            below: u < self.lines_u[0],
            top: u >= hi,
            x,
            cell: Self::cell_of(&self.lines_u, self.res, x),
        }
    }

    #[inline]
    fn probe_v(&self, v: f64) -> AxisProbe {
        let hi = self.lines_v[self.res];
        let x = v.min(hi);
        AxisProbe {
            below: v < self.lines_v[0],
            top: v >= hi,
            x,
            cell: Self::cell_of(&self.lines_v, self.res, x),
        }
    }

    /// One corner CF evaluation from precomputed axis probes — replays
    /// the pointer path's exact guard order (0 below the domain corner,
    /// the total at/beyond the top corner, clamped eval elsewhere).
    #[inline]
    fn corner(&self, pu: AxisProbe, pv: AxisProbe) -> f64 {
        if pu.below || pv.below {
            return 0.0;
        }
        if pu.top && pv.top {
            return self.total;
        }
        let row = self.row(self.cell_to_row[pu.cell * self.res + pv.cell] as usize);
        self.eval_row(row, pu.x, pv.x)
    }

    /// Approximate `CF(u, v)` — bitwise equal to the pointer quadtree's
    /// [`crate::twod::QuadPolyFit::cf_walk`].
    pub fn cf(&self, u: f64, v: f64) -> f64 {
        self.corner(self.probe_u(u), self.probe_v(v))
    }

    /// Fused rectangle COUNT: four corner evaluations sharing one probe
    /// per distinct axis coordinate (2 locates per axis instead of 4).
    /// Bitwise equal to the scalar inclusion–exclusion over [`Self::cf`].
    pub fn query_rect(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> f64 {
        if u_lo >= u_hi || v_lo >= v_hi {
            return 0.0;
        }
        let (pul, puh) = (self.probe_u(u_lo), self.probe_u(u_hi));
        let (pvl, pvh) = (self.probe_v(v_lo), self.probe_v(v_hi));
        self.corner(puh, pvh) - self.corner(pul, pvh) - self.corner(puh, pvl)
            + self.corner(pul, pvl)
    }
}
