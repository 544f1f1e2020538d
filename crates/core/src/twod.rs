//! Two-key extension (paper Section VI): quadtree of bivariate polynomial
//! patches over the 2-D cumulative count surface.
//!
//! The 2-D cumulative function `CF(u, v) = |{p : p.u ≤ u, p.v ≤ v}|`
//! (Definition 5) turns a rectangle COUNT into four corner evaluations by
//! inclusion–exclusion. PolyFit approximates `CF` with one bivariate
//! polynomial per quadtree cell, splitting any cell whose achieved fitting
//! error exceeds δ (Fig. 13). With `δ = ε_abs/4` the four corner errors
//! compose into the absolute guarantee (Lemma 6); the relative certificate
//! is `A ≥ 4δ(1 + 1/ε_rel)` with an aggregate-R-tree fallback (Lemma 7).
//!
//! ## Lattice-based construction
//!
//! Evaluating the exact `CF` at arbitrary coordinates for millions of
//! fitting samples would dominate construction, so `CF` is materialised
//! once on a regular lattice ([`GridCF`]): a single `O(n + G²)` pass gives
//! exact counts at every lattice intersection. Quadtree cells are aligned
//! to the lattice and fitted against the (exact) lattice samples they
//! cover — every sample is a true value of `CF`, never an interpolation.
//! Small cells use *all* their lattice points; large cells subsample.
//! δ-certification therefore holds at lattice intersections; between them
//! `CF` can additionally vary by the population of one lattice strip, so
//! the lattice resolution should be chosen so strips are small relative to
//! δ (the default 1024 gives ~0.1% strips on uniform-ish data). The same
//! caveat applies to the original paper, which certifies at data points
//! while queries are arbitrary rectangles.
//!
//! ## Parallel construction, bitwise-deterministic
//!
//! Both construction phases shard across threads without changing a single
//! output bit relative to the serial path:
//!
//! * **Lattice accumulation** ([`GridCF::new_with`]) stages per-chunk
//!   `(bucket, weight)` streams in point order, then lets each worker own
//!   a contiguous *band of lattice rows* and scan the full stream,
//!   accumulating only its rows. Every cell's additions happen in global
//!   point order regardless of the band split, so the lattice is bitwise
//!   identical for every thread count.
//! * **Quadtree construction** wave-expands a frontier of cells — each
//!   wave's fits run through the shared work queue
//!   ([`crate::workqueue`]) — until the frontier oversubscribes the
//!   workers, then fans the remaining *deep* cells out as whole-subtree
//!   jobs. A skewed (OSM-style) distribution concentrates its splits in a
//!   few quadrants; because the frontier grows adaptively where cells keep
//!   splitting, those hot quadrants shatter into many independent jobs
//!   instead of serialising one worker. Every cell's fit depends only on
//!   the (deterministic) lattice and its range, and results are assembled
//!   in index order, so the tree is identical to serial recursion for
//!   every thread count.
//!
//! ## Read path
//!
//! Queries are served by a compiled patch arena with a flattened cell
//! index ([`crate::twod_directory::TwodDirectory`]), held bitwise equal to
//! the retained pointer quadtree ([`QuadPolyFit::cf_walk`] /
//! [`QuadPolyFit::query_walk`] — the verification oracle).

use polyfit_exact::dataset::Point2d;
use polyfit_lp::{fit_minimax_2d, Fit2dBackend};
use polyfit_poly::BivariatePoly;

use crate::build::{BuildOptions, MIN_POINTS_PER_CHUNK};
use crate::error::PolyFitError;
use crate::stats::IndexStats;
use crate::twod_directory::{LeafPatch, TwodDirectory};
use crate::workqueue::{oversubscribed_bounds, run_indexed_queue};

/// Configuration for the 2-D index.
#[derive(Clone, Copy, Debug)]
pub struct Quad2dConfig {
    /// Total degree of the bivariate patches (paper default: 2).
    pub degree: usize,
    /// Lattice resolution `G` (cells per axis) for the cumulative grid.
    pub grid_resolution: usize,
    /// Maximum quadtree depth.
    pub max_depth: usize,
    /// Sampling density for large cells: up to `(samples_per_axis+1)²`
    /// lattice points per fit; cells at or below this lattice extent use
    /// every lattice point they cover.
    pub samples_per_axis: usize,
    /// 2-D fitting backend.
    pub backend: Fit2dBackend,
}

impl Default for Quad2dConfig {
    fn default() -> Self {
        Quad2dConfig {
            degree: 2,
            grid_resolution: 1024,
            max_depth: 12,
            samples_per_axis: 8,
            backend: Fit2dBackend::LeastSquares,
        }
    }
}

/// The lattice geometry: resolution plus the affine line placement. Line
/// coordinates are always derived through [`Lattice::line_u`] /
/// [`Lattice::line_v`] — one expression shared by the grid, the quadtree
/// split planes, the compiled directory, and the serializer, so they all
/// agree bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Lattice {
    pub(crate) res: usize,
    pub(crate) u0: f64,
    pub(crate) v0: f64,
    pub(crate) step_u: f64,
    pub(crate) step_v: f64,
}

impl Lattice {
    /// Raw coordinate of lattice line `i` on the u-axis.
    #[inline]
    pub(crate) fn line_u(&self, i: usize) -> f64 {
        self.u0 + self.step_u * i as f64
    }

    /// Raw coordinate of lattice line `j` on the v-axis.
    #[inline]
    pub(crate) fn line_v(&self, j: usize) -> f64 {
        self.v0 + self.step_v * j as f64
    }
}

/// Exact cumulative measure sums on a regular lattice.
///
/// With unit measures this is the cumulative *count* surface of paper
/// Definition 5; with arbitrary non-negative measures it generalises the
/// index to 2-D range SUM ("we can also adopt our methods for other types
/// of range aggregate queries", Section VI).
#[derive(Clone, Debug)]
pub struct GridCF {
    lattice: Lattice,
    /// `(res+1)²` row-major: `prefix[i·(res+1)+j]` = Σ measures of points
    /// with `u ≤ line_u(i)` and `v ≤ line_v(j)`.
    prefix: Vec<f64>,
}

impl GridCF {
    /// Materialise the lattice CF from points, single-threaded. `O(n + G²)`.
    ///
    /// # Panics
    /// Panics if `points` is empty or `res` < 2.
    pub fn new(points: &[Point2d], res: usize) -> Self {
        Self::new_with(points, res, 1)
    }

    /// [`Self::new`] with the `O(n)` accumulation sharded across up to
    /// `threads` workers. Bitwise identical to the serial path for every
    /// thread count: bucketing is staged in point order (chunk boundaries
    /// are a function of `n` and `threads` only), and each worker owns a
    /// contiguous band of lattice rows, scanning the full staged stream so
    /// every cell receives its additions in global point order.
    pub fn new_with(points: &[Point2d], res: usize, threads: usize) -> Self {
        assert!(!points.is_empty(), "empty point set");
        assert!(res >= 2, "grid resolution must be ≥ 2");
        let mut u0 = f64::INFINITY;
        let mut u1 = f64::NEG_INFINITY;
        let mut v0 = f64::INFINITY;
        let mut v1 = f64::NEG_INFINITY;
        for p in points {
            assert!(p.u.is_finite() && p.v.is_finite(), "non-finite coordinates");
            u0 = u0.min(p.u);
            u1 = u1.max(p.u);
            v0 = v0.min(p.v);
            v1 = v1.max(p.v);
        }
        let step_u = ((u1 - u0) / res as f64).max(f64::MIN_POSITIVE);
        let step_v = ((v1 - v0) / res as f64).max(f64::MIN_POSITIVE);
        let w = res + 1;
        let mut counts = vec![0f64; w * w];
        // Point contributes to prefix entries at lattice lines ≥ its
        // coordinate: bucket it at the smallest such line index.
        let bucket = |p: &Point2d| -> usize {
            let iu = (((p.u - u0) / step_u).ceil() as usize).min(res);
            let iv = (((p.v - v0) / step_v).ceil() as usize).min(res);
            iu * w + iv
        };
        let threads = threads.max(1);
        if threads == 1 || points.len() < 2 * MIN_POINTS_PER_CHUNK {
            for p in points {
                counts[bucket(p)] += p.w;
            }
        } else {
            // Phase 1 — parallel bucketing: pure per-point work through
            // the shared queue; chunks concatenate back to point order.
            let bounds = oversubscribed_bounds(points.len(), threads, MIN_POINTS_PER_CHUNK);
            let staged: Vec<Vec<(u64, f64)>> = run_indexed_queue(bounds.len(), threads, |c| {
                let (lo, hi) = bounds[c];
                points[lo..hi].iter().map(|p| (bucket(p) as u64, p.w)).collect()
            });
            // Phase 2 — row-band scatter: each worker owns a contiguous
            // band of lattice rows and scans the whole staged stream in
            // point order, accumulating only its own rows. Per-cell
            // addition order equals the serial loop's, so the result is
            // bitwise identical for any thread count or band split.
            let nb = threads.min(w);
            std::thread::scope(|s| {
                let mut rest: &mut [f64] = &mut counts;
                let staged = &staged;
                let mut handles = Vec::with_capacity(nb);
                for b in 0..nb {
                    let (r_lo, r_hi) = (w * b / nb, w * (b + 1) / nb);
                    let (band, tail) = rest.split_at_mut((r_hi - r_lo) * w);
                    rest = tail;
                    handles.push(s.spawn(move || {
                        let lo = (r_lo * w) as u64;
                        let hi = (r_hi * w) as u64;
                        for chunk in staged {
                            for &(flat, pw) in chunk {
                                if flat >= lo && flat < hi {
                                    band[(flat - lo) as usize] += pw;
                                }
                            }
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("grid shard worker panicked");
                }
            });
        }
        // 2-D prefix sum in place. The row pass is independent per row, so
        // it shards by row bands (same per-row operation order — bitwise
        // identical); the column pass's dependence chain runs down the
        // rows, so it stays serial (`O(G²)`, dwarfed by the `O(n)`
        // accumulation at scale).
        if threads == 1 {
            for i in 0..w {
                for j in 1..w {
                    counts[i * w + j] += counts[i * w + j - 1];
                }
            }
        } else {
            let nb = threads.min(w);
            std::thread::scope(|s| {
                let mut rest: &mut [f64] = &mut counts;
                for b in 0..nb {
                    let (r_lo, r_hi) = (w * b / nb, w * (b + 1) / nb);
                    let (band, tail) = rest.split_at_mut((r_hi - r_lo) * w);
                    rest = tail;
                    s.spawn(move || {
                        for row in band.chunks_exact_mut(w) {
                            for j in 1..w {
                                row[j] += row[j - 1];
                            }
                        }
                    });
                }
            });
        }
        for i in 1..w {
            for j in 0..w {
                counts[i * w + j] += counts[(i - 1) * w + j];
            }
        }
        GridCF { lattice: Lattice { res, u0, v0, step_u, step_v }, prefix: counts }
    }

    /// Lattice resolution.
    pub fn resolution(&self) -> usize {
        self.lattice.res
    }

    /// The lattice geometry (resolution + line placement).
    pub(crate) fn lattice(&self) -> Lattice {
        self.lattice
    }

    /// Raw coordinate of lattice line `i` on the u-axis.
    #[inline]
    pub fn line_u(&self, i: usize) -> f64 {
        self.lattice.line_u(i)
    }

    /// Raw coordinate of lattice line `j` on the v-axis.
    #[inline]
    pub fn line_v(&self, j: usize) -> f64 {
        self.lattice.line_v(j)
    }

    /// Exact CF at lattice intersection `(i, j)`.
    #[inline]
    pub fn cf_at(&self, i: usize, j: usize) -> f64 {
        self.prefix[i * (self.lattice.res + 1) + j]
    }

    /// Total measure mass (point count for unit measures).
    pub fn total(&self) -> f64 {
        self.cf_at(self.lattice.res, self.lattice.res)
    }
}

pub(crate) enum Node {
    /// Split cell. `mid_u`/`mid_v` are `NAN` when that axis is not split.
    Internal { mid_u: f64, mid_v: f64, children: Vec<Node> },
    Leaf {
        poly: BivariatePoly,
        /// Achieved max error over the cell's fitted lattice samples.
        error: f64,
    },
}

/// The 2-D PolyFit index: quadtree of bivariate patches over `CF`, served
/// through a compiled patch arena.
pub struct QuadPolyFit {
    pub(crate) root: Node,
    pub(crate) delta: f64,
    pub(crate) lattice: Lattice,
    /// Data bounding box (domain of the surface).
    bbox: (f64, f64, f64, f64),
    pub(crate) total: f64,
    compiled: TwodDirectory,
    leaves: usize,
    uncertified_leaves: usize,
    max_leaf_error: f64,
    build_stats: IndexStats,
}

impl QuadPolyFit {
    /// Build with the bounded δ-error constraint, using every available
    /// core for the patch fits (see [`Self::build_with`]).
    pub fn build(
        points: &[Point2d],
        delta: f64,
        config: Quad2dConfig,
    ) -> Result<Self, PolyFitError> {
        Self::build_with(points, delta, config, &BuildOptions::auto())
    }

    /// Build through the shared pipeline: lattice accumulation is sharded
    /// by rows and the quadtree is wave-expanded into deep-cell jobs
    /// drained from the shared work queue (see the module docs). Every
    /// cell's fit is deterministic and results are assembled in index
    /// order, so the index is bitwise identical for every thread count.
    pub fn build_with(
        points: &[Point2d],
        delta: f64,
        config: Quad2dConfig,
        opts: &BuildOptions,
    ) -> Result<Self, PolyFitError> {
        if points.is_empty() {
            return Err(PolyFitError::EmptyDataset);
        }
        if delta <= 0.0 || !delta.is_finite() {
            return Err(PolyFitError::InvalidErrorBound { bound: delta });
        }
        if !(1..=8).contains(&config.degree) {
            return Err(PolyFitError::InvalidDegree { degree: config.degree });
        }
        let t0 = std::time::Instant::now();
        let threads = opts.effective_threads();
        let grid = GridCF::new_with(points, config.grid_resolution, threads);
        let builder = CellBuilder { grid: &grid, delta, cfg: &config };
        let root = build_tree(&builder, grid.resolution(), threads);
        Ok(Self::from_parts(root, delta, grid.lattice(), grid.total(), t0.elapsed()))
    }

    /// Assemble an index from a built (or decoded) tree: recomputes the
    /// summary statistics and compiles the read-path arena.
    pub(crate) fn from_parts(
        root: Node,
        delta: f64,
        lattice: Lattice,
        total: f64,
        build_time: std::time::Duration,
    ) -> Self {
        let res = lattice.res;
        let bbox = (lattice.line_u(0), lattice.line_u(res), lattice.line_v(0), lattice.line_v(res));
        let compiled = {
            let patches = collect_leaf_patches(&root, res);
            TwodDirectory::compile(lattice, total, &patches)
        };
        let mut idx = QuadPolyFit {
            root,
            delta,
            lattice,
            bbox,
            total,
            compiled,
            leaves: 0,
            uncertified_leaves: 0,
            max_leaf_error: 0.0,
            build_stats: IndexStats::default(),
        };
        let mut logical = 0usize;
        idx.scan(&mut logical);
        idx.build_stats =
            IndexStats { segments: idx.leaves, logical_size_bytes: logical, build_time };
        idx
    }

    fn scan(&mut self, logical: &mut usize) {
        fn walk(
            n: &Node,
            delta: f64,
            leaves: &mut usize,
            bad: &mut usize,
            worst: &mut f64,
            logical: &mut usize,
        ) {
            match n {
                Node::Leaf { poly, error } => {
                    *leaves += 1;
                    *worst = worst.max(*error);
                    if *error > delta * (1.0 + 1e-9) {
                        *bad += 1;
                    }
                    *logical += poly.coeff_count() * 8;
                }
                Node::Internal { children, .. } => {
                    *logical += 2 * 8 + children.len() * 4;
                    for c in children {
                        walk(c, delta, leaves, bad, worst, logical);
                    }
                }
            }
        }
        let (mut l, mut b, mut w) = (0usize, 0usize, 0f64);
        walk(&self.root, self.delta, &mut l, &mut b, &mut w, logical);
        self.leaves = l;
        self.uncertified_leaves = b;
        self.max_leaf_error = w;
    }

    /// Approximate `CF(u, v)` through the compiled arena; exact 0 below
    /// the domain corner and clamped to the bounding box elsewhere.
    /// Bitwise equal to [`Self::cf_walk`].
    pub fn cf(&self, u: f64, v: f64) -> f64 {
        self.compiled.cf(u, v)
    }

    /// `CF(u, v)` through the pointer quadtree — the verification oracle
    /// the compiled path is held bitwise equal to.
    pub fn cf_walk(&self, u: f64, v: f64) -> f64 {
        let (u0, u1, v0, v1) = self.bbox;
        if u < u0 || v < v0 {
            return 0.0;
        }
        if u >= u1 && v >= v1 {
            return self.total;
        }
        let (u, v) = (u.min(u1), v.min(v1));
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { poly, .. } => return poly.eval(u, v),
                Node::Internal { mid_u, mid_v, children } => {
                    let iu = usize::from(!mid_u.is_nan() && u > *mid_u);
                    let iv = usize::from(!mid_v.is_nan() && v > *mid_v);
                    let idx = if mid_u.is_nan() {
                        iv
                    } else if mid_v.is_nan() {
                        iu
                    } else {
                        iv * 2 + iu
                    };
                    node = &children[idx];
                }
            }
        }
    }

    /// Approximate rectangle COUNT over `(u_lo, u_hi] × (v_lo, v_hi]`
    /// (inclusion–exclusion, Section VI), served by the compiled arena
    /// with fused corner probes. Within `4δ` of the exact count at
    /// lattice-certified corners; bitwise equal to [`Self::query_walk`].
    pub fn query(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> f64 {
        self.compiled.query_rect(u_lo, u_hi, v_lo, v_hi)
    }

    /// [`Self::query`] through the pointer-quadtree oracle.
    pub fn query_walk(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> f64 {
        if u_lo >= u_hi || v_lo >= v_hi {
            return 0.0;
        }
        self.cf_walk(u_hi, v_hi) - self.cf_walk(u_lo, v_hi) - self.cf_walk(u_hi, v_lo)
            + self.cf_walk(u_lo, v_lo)
    }

    /// Batched rectangle COUNT: element `i` is `self.query(rects[i])`,
    /// one compiled rect at a time.
    pub fn query_batch(&self, rects: &[(f64, f64, f64, f64)]) -> Vec<f64> {
        rects.iter().map(|&(a, b, c, d)| self.query(a, b, c, d)).collect()
    }

    /// The compiled read-path directory.
    pub fn directory(&self) -> &TwodDirectory {
        &self.compiled
    }

    /// The per-corner error budget δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of leaf patches.
    pub fn num_leaves(&self) -> usize {
        self.leaves
    }

    /// Leaves whose achieved sample error exceeded δ because the lattice or
    /// depth limit was reached (0 on well-resolved builds).
    pub fn uncertified_leaves(&self) -> usize {
        self.uncertified_leaves
    }

    /// Worst achieved leaf sample error.
    pub fn max_leaf_error(&self) -> f64 {
        self.max_leaf_error
    }

    /// Logical serialized index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.build_stats.logical_size_bytes
    }

    /// Construction statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.build_stats
    }

    /// Data bounding box.
    pub fn bbox(&self) -> (f64, f64, f64, f64) {
        self.bbox
    }

    /// Total mass: `CF` at the top domain corner.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Lattice resolution (cells per axis) the index was built over.
    pub fn grid_resolution(&self) -> usize {
        self.lattice.res
    }

    /// Exhaustively verify the index against a lattice CF: returns the
    /// worst `|CF̃ − CF|` over **every** lattice intersection. Large cells
    /// are fitted on a subsample (see [`Quad2dConfig::samples_per_axis`]),
    /// so this audit can exceed the per-leaf sample errors; use it in
    /// tests/CI to choose a sampling density for your data.
    pub fn verify_against(&self, grid: &GridCF) -> f64 {
        let res = grid.resolution();
        let mut worst = 0.0f64;
        for i in 0..=res {
            let u = grid.line_u(i);
            for j in 0..=res {
                let err = (self.cf(u, grid.line_v(j)) - grid.cf_at(i, j)).abs();
                worst = worst.max(err);
            }
        }
        worst
    }
}

/// Collect every leaf with its lattice-cell range by replaying the split
/// geometry (splits always bisect the index range, so ranges are implied
/// by the tree shape — nothing is stored per node).
fn collect_leaf_patches(root: &Node, res: usize) -> Vec<LeafPatch<'_>> {
    fn walk<'a>(
        n: &'a Node,
        i0: usize,
        i1: usize,
        j0: usize,
        j1: usize,
        out: &mut Vec<LeafPatch<'a>>,
    ) {
        match n {
            Node::Leaf { poly, .. } => out.push(LeafPatch { i0, i1, j0, j1, poly }),
            Node::Internal { mid_u, mid_v, children } => {
                let im = (i0 + i1) / 2;
                let jm = (j0 + j1) / 2;
                match (!mid_u.is_nan(), !mid_v.is_nan()) {
                    (true, true) => {
                        walk(&children[0], i0, im, j0, jm, out);
                        walk(&children[1], im, i1, j0, jm, out);
                        walk(&children[2], i0, im, jm, j1, out);
                        walk(&children[3], im, i1, jm, j1, out);
                    }
                    (true, false) => {
                        walk(&children[0], i0, im, j0, j1, out);
                        walk(&children[1], im, i1, j0, j1, out);
                    }
                    (false, true) => {
                        walk(&children[0], i0, i1, j0, jm, out);
                        walk(&children[1], i0, i1, jm, j1, out);
                    }
                    (false, false) => unreachable!("internal node with no split axis"),
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(root, 0, res, 0, res, &mut out);
    out
}

/// A quadtree cell pending construction.
#[derive(Clone, Copy, Debug)]
struct Cell {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    depth: usize,
}

/// One construction step's outcome: the cell either certifies (or bottoms
/// out) as a leaf, or splits into child cells.
enum Expanded {
    Leaf(Node),
    Split { mid_u: f64, mid_v: f64, kids: Vec<Cell> },
}

/// Frontier cells per worker before switching from wave expansion to
/// whole-subtree fan-out — the same oversubscription policy as the 1-D
/// chunk queue: enough jobs that stragglers (deep cells over dense
/// clusters) don't idle the other workers.
const DEEP_CELL_OVERSUBSCRIPTION: usize = 4;

/// Build the quadtree for `[0, res]²`.
///
/// Serial (`threads ≤ 1`): plain recursion. Parallel: wave-expand the
/// frontier — each wave's fits drain from the shared work queue — until it
/// oversubscribes the workers, then fan the surviving cells out as
/// independent subtree jobs. Both paths make the identical fit decisions
/// in the identical order per cell, so the tree is the same, bit for bit,
/// for every thread count.
fn build_tree(builder: &CellBuilder<'_>, res: usize, threads: usize) -> Node {
    let root = Cell { i0: 0, i1: res, j0: 0, j1: res, depth: 0 };
    if threads <= 1 {
        return builder.build_cell(root);
    }
    /// Arena slot for deterministic reassembly in frontier order.
    enum Slot {
        Done(Node),
        Split { mid_u: f64, mid_v: f64, children: Vec<usize> },
    }
    let target = threads * DEEP_CELL_OVERSUBSCRIPTION;
    let mut slots: Vec<Option<Slot>> = vec![None];
    let mut frontier: Vec<(usize, Cell)> = vec![(0, root)];
    while !frontier.is_empty() && frontier.len() < target {
        let expanded =
            run_indexed_queue(frontier.len(), threads, |k| builder.expand_cell(frontier[k].1));
        let mut next = Vec::new();
        for (&(slot, _), e) in frontier.iter().zip(expanded) {
            match e {
                Expanded::Leaf(n) => slots[slot] = Some(Slot::Done(n)),
                Expanded::Split { mid_u, mid_v, kids } => {
                    let children = kids
                        .into_iter()
                        .map(|c| {
                            slots.push(None);
                            let id = slots.len() - 1;
                            next.push((id, c));
                            id
                        })
                        .collect();
                    slots[slot] = Some(Slot::Split { mid_u, mid_v, children });
                }
            }
        }
        frontier = next;
    }
    if !frontier.is_empty() {
        let nodes =
            run_indexed_queue(frontier.len(), threads, |k| builder.build_cell(frontier[k].1));
        for (&(slot, _), n) in frontier.iter().zip(nodes) {
            slots[slot] = Some(Slot::Done(n));
        }
    }
    fn resolve(slots: &mut [Option<Slot>], id: usize) -> Node {
        match slots[id].take().expect("every slot filled") {
            Slot::Done(n) => n,
            Slot::Split { mid_u, mid_v, children } => Node::Internal {
                mid_u,
                mid_v,
                children: children.into_iter().map(|c| resolve(slots, c)).collect(),
            },
        }
    }
    resolve(&mut slots, 0)
}

struct CellBuilder<'a> {
    grid: &'a GridCF,
    delta: f64,
    cfg: &'a Quad2dConfig,
}

impl CellBuilder<'_> {
    /// Build the whole subtree for one cell by recursive expansion.
    fn build_cell(&self, cell: Cell) -> Node {
        match self.expand_cell(cell) {
            Expanded::Leaf(n) => n,
            Expanded::Split { mid_u, mid_v, kids } => Node::Internal {
                mid_u,
                mid_v,
                children: kids.into_iter().map(|c| self.build_cell(c)).collect(),
            },
        }
    }

    /// Make one cell's fit-or-split decision. Depends only on the lattice
    /// and the cell, so it is safe to evaluate from any worker.
    fn expand_cell(&self, cell: Cell) -> Expanded {
        let Cell { i0, i1, j0, j1, depth } = cell;
        let (fit, error) = self.fit_cell(i0, i1, j0, j1);
        let splittable_u = i1 - i0 >= 2;
        let splittable_v = j1 - j0 >= 2;
        if error <= self.delta || depth >= self.cfg.max_depth || (!splittable_u && !splittable_v) {
            return Expanded::Leaf(Node::Leaf { poly: fit, error });
        }
        let im = (i0 + i1) / 2;
        let jm = (j0 + j1) / 2;
        let kid = |i0, i1, j0, j1| Cell { i0, i1, j0, j1, depth: depth + 1 };
        match (splittable_u, splittable_v) {
            (true, true) => Expanded::Split {
                mid_u: self.grid.line_u(im),
                mid_v: self.grid.line_v(jm),
                kids: vec![
                    kid(i0, im, j0, jm),
                    kid(im, i1, j0, jm),
                    kid(i0, im, jm, j1),
                    kid(im, i1, jm, j1),
                ],
            },
            (true, false) => Expanded::Split {
                mid_u: self.grid.line_u(im),
                mid_v: f64::NAN,
                kids: vec![kid(i0, im, j0, j1), kid(im, i1, j0, j1)],
            },
            (false, true) => Expanded::Split {
                mid_u: f64::NAN,
                mid_v: self.grid.line_v(jm),
                kids: vec![kid(i0, i1, j0, jm), kid(i0, i1, jm, j1)],
            },
            (false, false) => unreachable!("guarded above"),
        }
    }

    /// Fit one cell against its lattice samples; returns (poly, achieved
    /// max error over samples).
    fn fit_cell(&self, i0: usize, i1: usize, j0: usize, j1: usize) -> (BivariatePoly, f64) {
        let su = sample_indices(i0, i1, self.cfg.samples_per_axis);
        let sv = sample_indices(j0, j1, self.cfg.samples_per_axis);
        // For small cells the index lists cover every lattice line, making
        // certification exact on the lattice.
        let mut us = Vec::with_capacity(su.len() * sv.len());
        let mut vs = Vec::with_capacity(su.len() * sv.len());
        let mut ws = Vec::with_capacity(su.len() * sv.len());
        for &i in &su {
            for &j in &sv {
                us.push(self.grid.line_u(i));
                vs.push(self.grid.line_v(j));
                ws.push(self.grid.cf_at(i, j));
            }
        }
        let rect = (
            self.grid.line_u(i0),
            self.grid.line_u(i1),
            self.grid.line_v(j0),
            self.grid.line_v(j1),
        );
        let fit = fit_minimax_2d(&us, &vs, &ws, rect, self.cfg.degree, self.cfg.backend);
        (fit.poly, fit.error)
    }
}

/// Evenly spaced lattice line indices in `[lo, hi]`, always including both
/// endpoints; at most `per_axis + 1` entries unless the cell is small
/// enough to enumerate fully.
fn sample_indices(lo: usize, hi: usize, per_axis: usize) -> Vec<usize> {
    let span = hi - lo;
    if span <= per_axis {
        return (lo..=hi).collect();
    }
    let mut out: Vec<usize> = (0..=per_axis).map(|k| lo + (span * k) / per_axis).collect();
    out.dedup();
    out
}

/// 2-D COUNT driver with absolute and relative guarantees (Lemmas 6 & 7).
pub struct Guaranteed2dCount {
    index: QuadPolyFit,
    exact: Option<polyfit_exact::ARTree>,
}

impl Guaranteed2dCount {
    /// Problem 1 driver: `δ = ε_abs / 4` (Lemma 6).
    pub fn with_abs_guarantee(
        points: &[Point2d],
        eps_abs: f64,
        config: Quad2dConfig,
    ) -> Result<Self, PolyFitError> {
        let index = QuadPolyFit::build(points, eps_abs / 4.0, config)?;
        Ok(Guaranteed2dCount { index, exact: None })
    }

    /// Problem 2 driver with explicit δ and an aggregate-R-tree fallback.
    pub fn with_rel_guarantee(
        points: Vec<Point2d>,
        delta: f64,
        config: Quad2dConfig,
    ) -> Result<Self, PolyFitError> {
        let index = QuadPolyFit::build(&points, delta, config)?;
        let exact = polyfit_exact::ARTree::new(points);
        Ok(Guaranteed2dCount { index, exact: Some(exact) })
    }

    /// Absolute-guarantee rectangle COUNT.
    pub fn query_abs(&self, u_lo: f64, u_hi: f64, v_lo: f64, v_hi: f64) -> f64 {
        self.index.query(u_lo, u_hi, v_lo, v_hi)
    }

    /// Relative-guarantee rectangle COUNT: certificate
    /// `A ≥ 4δ(1 + 1/ε_rel)` (Lemma 7), exact aggregate R-tree fallback
    /// otherwise.
    pub fn query_rel(
        &self,
        u_lo: f64,
        u_hi: f64,
        v_lo: f64,
        v_hi: f64,
        eps_rel: f64,
    ) -> crate::drivers::RelAnswer {
        assert!(eps_rel > 0.0, "relative error must be positive");
        let approx = self.index.query(u_lo, u_hi, v_lo, v_hi);
        let threshold = 4.0 * self.index.delta() * (1.0 + 1.0 / eps_rel);
        if approx >= threshold {
            crate::drivers::RelAnswer { value: approx, used_fallback: false }
        } else {
            let exact =
                self.exact.as_ref().expect("relative-guarantee driver requires the exact fallback");
            let r = polyfit_exact::artree::Rect::new(u_lo, u_hi, v_lo, v_hi);
            // Closed-rectangle count; boundary-coincident points are
            // measure-zero for continuous workloads.
            crate::drivers::RelAnswer { value: exact.range_count(&r) as f64, used_fallback: true }
        }
    }

    /// The underlying quadtree index.
    pub fn index(&self) -> &QuadPolyFit {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_points(n: usize) -> Vec<Point2d> {
        // Deterministic two-cluster layout plus background.
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let a = ((h >> 32) as f64 / u32::MAX as f64) - 0.5;
                let b = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64) - 0.5;
                if i % 3 == 0 {
                    Point2d::new(20.0 + a * 4.0, 30.0 + b * 4.0, 1.0)
                } else if i % 3 == 1 {
                    Point2d::new(70.0 + a * 8.0, 60.0 + b * 8.0, 1.0)
                } else {
                    Point2d::new(a * 200.0, b * 150.0, 1.0)
                }
            })
            .collect()
    }

    fn brute_count(pts: &[Point2d], r: (f64, f64, f64, f64)) -> f64 {
        pts.iter().filter(|p| p.u > r.0 && p.u <= r.1 && p.v > r.2 && p.v <= r.3).count() as f64
    }

    fn test_config() -> Quad2dConfig {
        Quad2dConfig { grid_resolution: 128, ..Default::default() }
    }

    #[test]
    fn gridcf_matches_brute_force() {
        let pts = clustered_points(2000);
        let g = GridCF::new(&pts, 32);
        for &(i, j) in &[(0usize, 0usize), (32, 32), (16, 16), (5, 30), (31, 1)] {
            let (lu, lv) = (g.line_u(i), g.line_v(j));
            let brute = pts.iter().filter(|p| p.u <= lu && p.v <= lv).count() as f64;
            assert_eq!(g.cf_at(i, j), brute, "lattice ({i}, {j})");
        }
        assert_eq!(g.total(), 2000.0);
    }

    #[test]
    fn sharded_gridcf_bitwise_equal_for_every_thread_count() {
        // Enough points to clear the sharding floor; weighted measures so
        // floating-point addition order would show up immediately.
        let pts: Vec<Point2d> = clustered_points(20_000)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Point2d::new(p.u, p.v, 1.0 + (i % 7) as f64 * 0.125))
            .collect();
        let serial = GridCF::new(&pts, 64);
        for threads in [2usize, 3, 4, 8] {
            let par = GridCF::new_with(&pts, 64, threads);
            assert!(
                serial.prefix.iter().zip(&par.prefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads {threads}: lattice must be bitwise identical"
            );
        }
    }

    #[test]
    fn parallel_tree_build_bitwise_equal_to_serial() {
        let pts = clustered_points(20_000);
        let cfg = Quad2dConfig { grid_resolution: 64, ..Default::default() };
        let serial =
            QuadPolyFit::build_with(&pts, 15.0, cfg, &BuildOptions::with_threads(1)).unwrap();
        let reference = serial.to_bytes();
        for threads in [2usize, 4] {
            let par =
                QuadPolyFit::build_with(&pts, 15.0, cfg, &BuildOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(par.num_leaves(), serial.num_leaves(), "threads {threads}");
            assert_eq!(par.to_bytes(), reference, "threads {threads}: tree must be bitwise equal");
        }
    }

    #[test]
    fn compiled_read_path_matches_walk_oracle() {
        let pts = clustered_points(5000);
        let idx = QuadPolyFit::build(&pts, 25.0, test_config()).unwrap();
        let (u0, u1, v0, v1) = idx.bbox();
        let span_u = u1 - u0;
        let span_v = v1 - v0;
        for k in 0..400 {
            let h = (k as u64).wrapping_mul(0x2545F4914F6CDD1D);
            let fu = (h >> 40) as f64 / (1u64 << 24) as f64;
            let fv = ((h >> 16) & 0xFF_FFFF) as f64 / (1u64 << 24) as f64;
            let u = u0 + (fu * 1.4 - 0.2) * span_u;
            let v = v0 + (fv * 1.4 - 0.2) * span_v;
            assert_eq!(
                idx.cf(u, v).to_bits(),
                idx.cf_walk(u, v).to_bits(),
                "cf({u}, {v}) diverged from the oracle"
            );
        }
        // Boundary coordinates: exactly on lattice lines.
        for i in [0usize, 1, 64, 127, 128] {
            let u = idx.lattice.line_u(i);
            let v = idx.lattice.line_v(i);
            assert_eq!(idx.cf(u, v).to_bits(), idx.cf_walk(u, v).to_bits(), "line {i}");
        }
    }

    #[test]
    fn batched_rects_match_scalar_queries_bitwise() {
        let pts = clustered_points(5000);
        let idx = QuadPolyFit::build(&pts, 25.0, test_config()).unwrap();
        // Overlapping rects sharing corners, plus degenerates and NaN.
        let mut rects: Vec<(f64, f64, f64, f64)> = Vec::new();
        for k in 0..60 {
            let a = -30.0 + (k % 7) as f64 * 12.0;
            let b = a + 10.0 + (k % 5) as f64 * 25.0;
            let c = -40.0 + (k % 4) as f64 * 18.0;
            let d = c + 8.0 + (k % 6) as f64 * 20.0;
            rects.push((a, b, c, d));
        }
        rects.push((10.0, 10.0, 0.0, 5.0)); // degenerate u
        rects.push((20.0, 10.0, 0.0, 5.0)); // reversed u
        rects.push((f64::NAN, 10.0, 0.0, 5.0)); // NaN flows like scalar
        rects.push((-1e9, 1e9, -1e9, 1e9)); // beyond the domain
        let batch = idx.query_batch(&rects);
        for (r, got) in rects.iter().zip(&batch) {
            let want = idx.query(r.0, r.1, r.2, r.3);
            assert_eq!(got.to_bits(), want.to_bits(), "rect {r:?}: batch {got} vs scalar {want}");
        }
    }

    #[test]
    fn cf_within_delta_at_lattice_points() {
        let pts = clustered_points(5000);
        let cfg = test_config();
        let idx = QuadPolyFit::build(&pts, 25.0, cfg).unwrap();
        assert_eq!(idx.uncertified_leaves(), 0, "lattice should resolve δ=25");
        let g = GridCF::new(&pts, cfg.grid_resolution);
        for i in (0..=cfg.grid_resolution).step_by(7) {
            for j in (0..=cfg.grid_resolution).step_by(7) {
                let err = (idx.cf(g.line_u(i), g.line_v(j)) - g.cf_at(i, j)).abs();
                assert!(err <= 25.0 + 1e-6, "lattice ({i},{j}): err {err}");
            }
        }
    }

    #[test]
    fn rectangle_count_within_four_delta() {
        let pts = clustered_points(5000);
        let idx = QuadPolyFit::build(&pts, 25.0, test_config()).unwrap();
        let g = GridCF::new(&pts, 128);
        // Lattice-aligned rectangles: fully certified.
        for &(a, b, c, d) in
            &[(0usize, 128usize, 0usize, 128usize), (10, 50, 20, 90), (64, 65, 64, 65)]
        {
            let r = (g.line_u(a), g.line_u(b), g.line_v(c), g.line_v(d));
            let approx = idx.query(r.0, r.1, r.2, r.3);
            let truth = brute_count(&pts, r);
            assert!(
                (approx - truth).abs() <= 100.0 + 1e-6,
                "rect {r:?}: approx {approx} truth {truth}"
            );
        }
    }

    #[test]
    fn arbitrary_rectangles_close_to_truth() {
        let pts = clustered_points(5000);
        let idx = QuadPolyFit::build(&pts, 25.0, test_config()).unwrap();
        // Off-lattice corners: allow the lattice-strip slack on top of 4δ.
        for &(a, b, c, d) in
            &[(-30.0, 55.5, -40.0, 44.4), (15.3, 25.7, 25.1, 35.9), (60.0, 80.0, 50.0, 70.0)]
        {
            let approx = idx.query(a, b, c, d);
            let truth = brute_count(&pts, (a, b, c, d));
            assert!(
                (approx - truth).abs() <= 100.0 + 200.0,
                "rect ({a},{b},{c},{d}): approx {approx} truth {truth}"
            );
        }
    }

    #[test]
    fn empty_and_degenerate_queries() {
        let pts = clustered_points(500);
        let idx = QuadPolyFit::build(&pts, 10.0, test_config()).unwrap();
        assert_eq!(idx.query(10.0, 10.0, 0.0, 5.0), 0.0);
        assert_eq!(idx.query(20.0, 10.0, 0.0, 5.0), 0.0);
        assert_eq!(idx.cf(-1000.0, 0.0), 0.0);
    }

    #[test]
    fn whole_domain_query_equals_total() {
        let pts = clustered_points(3000);
        let idx = QuadPolyFit::build(&pts, 20.0, test_config()).unwrap();
        let (u0, u1, v0, v1) = idx.bbox();
        let full = idx.query(u0 - 1.0, u1 + 1.0, v0 - 1.0, v1 + 1.0);
        assert!((full - 3000.0).abs() <= 1e-6, "full {full}");
    }

    #[test]
    fn tighter_delta_more_leaves() {
        let pts = clustered_points(4000);
        let loose = QuadPolyFit::build(&pts, 100.0, test_config()).unwrap();
        let tight = QuadPolyFit::build(&pts, 10.0, test_config()).unwrap();
        assert!(tight.num_leaves() >= loose.num_leaves());
    }

    #[test]
    fn abs_driver_guarantee_on_lattice_rects() {
        let pts = clustered_points(5000);
        let d = Guaranteed2dCount::with_abs_guarantee(&pts, 100.0, test_config()).unwrap();
        let g = GridCF::new(&pts, 128);
        let r = (g.line_u(8), g.line_u(100), g.line_v(16), g.line_v(120));
        let truth = brute_count(&pts, r);
        assert!((d.query_abs(r.0, r.1, r.2, r.3) - truth).abs() <= 100.0 + 1e-6);
    }

    #[test]
    fn rel_driver_falls_back_on_small_counts() {
        let pts = clustered_points(5000);
        let d = Guaranteed2dCount::with_rel_guarantee(pts.clone(), 25.0, test_config()).unwrap();
        // Certificate threshold: 4·25·(1 + 1/0.5) = 300.
        let small = d.query_rel(0.0, 0.5, 0.0, 0.5, 0.5);
        assert!(small.used_fallback);
        let big = d.query_rel(-200.0, 200.0, -200.0, 200.0, 0.5);
        assert!(!big.used_fallback);
        assert!((big.value - 5000.0).abs() <= 25.0 * 4.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(matches!(
            QuadPolyFit::build(&[], 1.0, test_config()),
            Err(PolyFitError::EmptyDataset)
        ));
        let pts = clustered_points(10);
        assert!(matches!(
            QuadPolyFit::build(&pts, 0.0, test_config()),
            Err(PolyFitError::InvalidErrorBound { .. })
        ));
        let bad_cfg = Quad2dConfig { degree: 0, ..test_config() };
        assert!(matches!(
            QuadPolyFit::build(&pts, 1.0, bad_cfg),
            Err(PolyFitError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn full_lattice_audit_bounded() {
        let pts = clustered_points(5000);
        let cfg = test_config();
        let idx = QuadPolyFit::build(&pts, 25.0, cfg).unwrap();
        let grid = GridCF::new(&pts, cfg.grid_resolution);
        let worst = idx.verify_against(&grid);
        // Sampled certification is δ; the full-lattice audit may exceed it
        // on subsampled cells but must stay within a small multiple.
        assert!(worst <= 3.0 * 25.0, "full-lattice worst err {worst}");
    }

    #[test]
    fn denser_sampling_tightens_audit() {
        let pts = clustered_points(5000);
        let coarse_cfg = Quad2dConfig { samples_per_axis: 4, ..test_config() };
        let dense_cfg = Quad2dConfig { samples_per_axis: 16, ..test_config() };
        let grid = GridCF::new(&pts, test_config().grid_resolution);
        let coarse = QuadPolyFit::build(&pts, 25.0, coarse_cfg).unwrap().verify_against(&grid);
        let dense = QuadPolyFit::build(&pts, 25.0, dense_cfg).unwrap().verify_against(&grid);
        assert!(dense <= coarse + 25.0, "dense {dense} vs coarse {coarse}");
    }

    #[test]
    fn weighted_measures_give_range_sum() {
        // Non-unit measures: the same machinery answers 2-D range SUM.
        let pts: Vec<Point2d> = (0..4000)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let u = ((h >> 32) as f64 / u32::MAX as f64) * 100.0;
                let v = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64) * 100.0;
                Point2d::new(u, v, 1.0 + (i % 5) as f64)
            })
            .collect();
        let idx = QuadPolyFit::build(&pts, 40.0, test_config()).unwrap();
        let brute: f64 = pts
            .iter()
            .filter(|p| p.u > 20.0 && p.u <= 70.0 && p.v > 10.0 && p.v <= 90.0)
            .map(|p| p.w)
            .sum();
        let approx = idx.query(20.0, 70.0, 10.0, 90.0);
        // 4δ plus lattice-strip slack on off-lattice corners.
        assert!((approx - brute).abs() <= 4.0 * 40.0 + 200.0, "approx {approx} brute {brute}");
    }

    #[test]
    fn sample_indices_cover_endpoints() {
        assert_eq!(sample_indices(3, 5, 8), vec![3, 4, 5]);
        let s = sample_indices(0, 100, 8);
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 100);
        assert!(s.len() <= 9);
    }
}
