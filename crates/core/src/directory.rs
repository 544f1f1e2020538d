//! The segment-directory core shared by every 1-D PolyFit index.
//!
//! [`PolyFitSum`](crate::index_sum::PolyFitSum) and
//! [`PolyFitMax`](crate::index_max::PolyFitMax) both store the same thing:
//! the segments produced by δ-certified segmentation, plus a search
//! directory over their `lo_key`s (paper Fig. 6). [`CompiledDirectory`]
//! is that directory and the only read path: segments are flattened at
//! build time into fixed-stride rows of one contiguous arena
//! (`[lo, hi, center, scale, c₀ … c_d]`), so an endpoint evaluation
//! touches a single cache line instead of chasing a `Segment` struct and
//! its per-segment heap `Vec<f64>`. Lookups run a branchless search over
//! an Eytzinger-layout copy of the `lo_key` directory, and Horner
//! evaluation is monomorphized per degree, selected once at construction.
//! Property tests and the `query_hotpath` benchmark hold it to
//! bitwise-identical answers against a `partition_point` search over the
//! `Segment`s.
//!
//! Compiling is lossless: [`CompiledDirectory::segment`] reconstructs
//! the exact `Segment` (padding zeros trim back off because stored
//! polynomials never carry trailing zeros), which is how serialization
//! and the dynamic index's segment-reuse compaction read the directory.
//!
//! On top of the scalar primitives sits the **batched execution engine**
//! ([`CompiledDirectory::locate_batch`] /
//! [`CompiledDirectory::locate_eval_batch`]): probes are processed in
//! groups of [`DESCENT_LANES`], the Eytzinger descents of a group run in
//! branch-free lockstep (so the dependent cache misses of different
//! probes overlap instead of serialising), and the degree-monomorphized
//! Horner kernels evaluate the whole group as [`F64x8`] lane packs — 8
//! segment rows per arithmetic instruction, transposed from the arena
//! rows into per-coefficient lanes. Every lane evaluates an independent
//! row with the exact scalar operation order (no re-association, no
//! FMA), so the engine is held **bitwise-identical** to the scalar
//! [`CompiledDirectory::locate_eval`] path.

use polyfit_lanes::F64x8;
use polyfit_poly::{Polynomial, ShiftedPolynomial};

use crate::function::TargetFunction;
use crate::segment::Segment;
use crate::segmentation::SegmentSpec;

/// Materialise one segmentation spec into a [`Segment`]: fitted
/// polynomial, certified error, and the exact value extrema over the
/// covered points (the per-segment aggregates MAX queries and diagnostics
/// rely on). Shared by [`CompiledDirectory::from_specs`] and the
/// incremental compaction path, which emits segments one bounded step at
/// a time.
pub(crate) fn segment_from_spec(f: &TargetFunction, spec: SegmentSpec) -> Segment {
    let values = &f.values[spec.start..=spec.end];
    let value_max = values.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let value_min = values.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    Segment {
        lo_key: f.keys[spec.start],
        hi_key: f.keys[spec.end],
        poly: spec.fit.poly,
        error: spec.certified_error,
        value_max,
        value_min,
    }
}

// ---------------------------------------------------------------------------
// Compiled (flattened) read path
// ---------------------------------------------------------------------------

/// Degree-monomorphized Horner kernel, selected once at compile time from
/// the directory's uniform coefficient stride. Each unrolled arm performs
/// the exact multiply/add sequence of [`Polynomial::eval`] over the padded
/// row, so answers are bitwise-identical to evaluating the original
/// trimmed polynomial (padding zeros are absorbed exactly: `±0·t + c = c`
/// for the non-zero stored coefficients, and an all-zero row folds to the
/// zero polynomial's `+0.0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HornerKernel {
    /// No coefficients anywhere: the zero polynomial.
    Zero,
    /// Stride 1 (constant segments).
    Constant,
    /// Stride 2 (degree ≤ 1).
    Affine,
    /// Stride 3 (degree ≤ 2).
    Quadratic,
    /// Stride 4 (degree ≤ 3).
    Cubic,
    /// Any higher stride: the generic Horner loop.
    Generic,
}

impl HornerKernel {
    fn for_stride(stride: usize) -> Self {
        match stride {
            0 => HornerKernel::Zero,
            1 => HornerKernel::Constant,
            2 => HornerKernel::Affine,
            3 => HornerKernel::Quadratic,
            4 => HornerKernel::Cubic,
            _ => HornerKernel::Generic,
        }
    }
}

/// Number of row slots before the coefficients: `lo`, `hi`, `center`,
/// `scale`.
const ROW_HEADER: usize = 4;

/// Number of concurrent Eytzinger descents the batched engine keeps in
/// flight per group — one outstanding cache line per probe per level.
/// Matches [`F64x8::LANES`] so a located group feeds one lane-pack Horner
/// evaluation.
pub const DESCENT_LANES: usize = F64x8::LANES;

/// Run the selected Horner kernel over one arena row — the scalar
/// reference the lane kernels are held bitwise-equal to.
#[inline]
fn eval_row(kernel: HornerKernel, r: &[f64], k: f64) -> f64 {
    let t = (k.clamp(r[0], r[1]) - r[2]) / r[3];
    let c = &r[ROW_HEADER..];
    match kernel {
        HornerKernel::Zero => 0.0,
        HornerKernel::Constant => c[0],
        HornerKernel::Affine => c[1] * t + c[0],
        HornerKernel::Quadratic => (c[2] * t + c[1]) * t + c[0],
        HornerKernel::Cubic => ((c[3] * t + c[2]) * t + c[1]) * t + c[0],
        HornerKernel::Generic => {
            let mut acc = 0.0;
            for &cj in c.iter().rev() {
                acc = acc * t + cj;
            }
            acc
        }
    }
}

/// The flattened, cache-conscious segment directory — the default read
/// path behind every 1-D PolyFit index.
///
/// Layout: per segment one fixed-stride row `[lo, hi, center, scale,
/// c₀ … c_{s−1}]` in a single contiguous arena (`s` = the index-wide
/// maximum coefficient count, ≤ degree + 1; shorter polynomials are
/// zero-padded). One endpoint evaluation therefore reads one row — a
/// single cache line for degree ≤ 3 — where a `Vec<Segment>` search reads
/// a `Segment` struct *and* chases its heap-allocated coefficient vector.
///
/// Lookups use a branchless search over an Eytzinger (BFS) permutation of
/// the sorted `lo_key`s: the hot top levels of the implicit tree share a
/// handful of cache lines across all queries, and the loop executes no
/// data-dependent branches. A sorted `lo_keys` copy remains for
/// diagnostics and segment reconstruction.
#[derive(Clone, Debug)]
pub struct CompiledDirectory {
    /// `lo_key` per segment, ascending (diagnostics, reconstruction).
    lo_keys: Vec<f64>,
    /// Eytzinger-permuted `lo_keys`, 1-indexed; slot 0 is an unused pad.
    /// Kept keys-only (the slot → rank map lives in `eytz_rank`): packing
    /// ranks next to the keys halves the walk's cache-line density and
    /// measures strictly slower at every directory size.
    ///
    /// Padded with NaN out to `1 << levels` slots so the batched engine's
    /// lockstep descents can run a fixed `levels` iterations without
    /// per-lane depth branches: a NaN pad compares `false` against every
    /// probe, so a lane that exhausted its real subtree keeps turning
    /// left through pads without ever touching `pred`. Scalar walks slice
    /// the `h + 1` prefix (keeping their bounds checks elidable).
    eytz: Vec<f64>,
    /// Eytzinger slot (1-based) → sorted rank (0-based).
    eytz_rank: Vec<u32>,
    /// Depth of the Eytzinger tree: the fixed iteration count of a
    /// lockstep descent (`⌊log₂ h⌋ + 1`, or 0 when empty).
    levels: u32,
    /// The row arena: `h` rows of `ROW_HEADER + coeff_stride` floats, in
    /// sorted segment order (`eval` and segment reconstruction).
    rows: Vec<f64>,
    /// The same rows permuted into Eytzinger slot order (slot 0 unused):
    /// the fused point lookup indexes it directly with the predecessor
    /// slot the walk tracked, skipping the rank indirection — one fewer
    /// dependent cache miss on the hottest chain, bought with one extra
    /// copy of the arena.
    rows_eytz: Vec<f64>,
    row_stride: usize,
    coeff_stride: usize,
    kernel: HornerKernel,
    /// Certified error per segment (cold; diagnostics and reconstruction).
    errors: Vec<f64>,
    /// Exact `(value_max, value_min)` per segment (cold; extrema-tree
    /// leaves and reconstruction).
    extrema: Vec<(f64, f64)>,
    /// Largest certified error, folded once at construction.
    max_error: f64,
    /// Logical serialized size of the segments, folded once at
    /// construction.
    logical_bytes: usize,
}

impl CompiledDirectory {
    /// Compile segmentation output directly: each spec becomes a
    /// [`Segment`] carrying its fitted polynomial, certified error and
    /// value extrema.
    pub fn from_specs(f: &TargetFunction, specs: Vec<SegmentSpec>) -> Self {
        Self::from_segments(specs.into_iter().map(|spec| segment_from_spec(f, spec)).collect())
    }

    /// Compile already-assembled segments (the deserialization path).
    /// Segments must be sorted and tiling.
    pub fn from_segments(segments: Vec<Segment>) -> Self {
        let h = segments.len();
        let coeff_stride = segments.iter().map(|s| s.poly.coeff_count()).max().unwrap_or(0);
        let row_stride = ROW_HEADER + coeff_stride;
        let mut lo_keys = Vec::with_capacity(h);
        let mut rows = Vec::with_capacity(h * row_stride);
        let mut errors = Vec::with_capacity(h);
        let mut extrema = Vec::with_capacity(h);
        let mut max_error = 0.0f64;
        let mut logical_bytes = 0usize;
        for s in &segments {
            lo_keys.push(s.lo_key);
            rows.push(s.lo_key);
            rows.push(s.hi_key);
            rows.push(s.poly.center());
            rows.push(s.poly.scale_factor());
            let coeffs = s.poly.inner().coeffs();
            rows.extend_from_slice(coeffs);
            rows.resize(rows.len() + (coeff_stride - coeffs.len()), 0.0);
            errors.push(s.error);
            extrema.push((s.value_max, s.value_min));
            max_error = max_error.max(s.error);
            logical_bytes += s.logical_size_bytes();
        }
        let (eytz, eytz_rank, levels) = build_eytzinger(&lo_keys);
        let mut rows_eytz = vec![0.0f64; (h + 1) * row_stride];
        for (slot, &rank) in eytz_rank.iter().enumerate().skip(1) {
            let src = rank as usize * row_stride;
            rows_eytz[slot * row_stride..(slot + 1) * row_stride]
                .copy_from_slice(&rows[src..src + row_stride]);
        }
        CompiledDirectory {
            lo_keys,
            eytz,
            eytz_rank,
            levels,
            rows,
            rows_eytz,
            row_stride,
            coeff_stride,
            kernel: HornerKernel::for_stride(coeff_stride),
            errors,
            extrema,
            max_error,
            logical_bytes,
        }
    }

    /// Number of `lo_keys` ≤ `k` — `lo_keys.partition_point(|&lo| lo <= k)`
    /// computed branchlessly over the Eytzinger layout. NaN compares false
    /// against every key and lands on rank 0, exactly like
    /// `partition_point`.
    #[inline]
    fn upper_rank(&self, k: f64) -> usize {
        // Bound the walk by the indexed slice itself (the `h + 1` prefix
        // of the padded array) so the per-level bounds check is provably
        // redundant and elided.
        let eytz = &self.eytz[..self.lo_keys.len() + 1];
        let h = eytz.len() - 1;
        let mut i = 1usize;
        while i <= h {
            // `<=` as an integer: no data-dependent branch in the walk.
            i = 2 * i + usize::from(eytz[i] <= k);
        }
        // Undo the final descent: strip the trailing 1-bits (right turns)
        // plus the terminating 0; what remains is the Eytzinger slot of
        // the first key > `k`, or 0 when every key is ≤ `k`.
        i >>= i.trailing_ones() + 1;
        if i == 0 {
            h
        } else {
            self.eytz_rank[i] as usize
        }
    }

    /// Index of the segment owning `k` — the last segment whose `lo_key`
    /// is ≤ `k` — or `None` left of the first segment (and for NaN). Equal
    /// to `lo_keys().partition_point(|&lo| lo <= k).checked_sub(1)`.
    #[inline]
    pub fn locate(&self, k: f64) -> Option<usize> {
        self.upper_rank(k).checked_sub(1)
    }

    /// Evaluate segment `i`'s polynomial at `k`, clamped into the segment
    /// interval — bitwise-identical to
    /// [`Segment::eval_clamped`](crate::segment::Segment::eval_clamped)
    /// on the segment this row was compiled from, for any non-NaN `k`
    /// (±∞ clamp into the interval like every other key). NaN keys are a
    /// caller error: the query paths resolve them to `None` in
    /// `locate` before ever evaluating, and the padded kernels do
    /// not reproduce the trimmed polynomial's NaN propagation bit-for-bit.
    #[inline]
    pub fn eval(&self, i: usize, k: f64) -> f64 {
        eval_row(self.kernel, &self.rows[i * self.row_stride..(i + 1) * self.row_stride], k)
    }

    /// Locate-and-evaluate in one fused call — the point-query hot path.
    ///
    /// The walk tracks the predecessor slot with a conditional move (the
    /// last node whose key was ≤ `k` *is* the owning segment), so the
    /// answer row is read straight from the Eytzinger-ordered arena copy:
    /// no path recovery, no slot → rank indirection, one dependent cache
    /// miss after the walk. Bitwise-identical to
    /// `locate(k).map(|i| eval(i, k))`.
    #[inline]
    pub fn locate_eval(&self, k: f64) -> Option<f64> {
        let eytz = &self.eytz[..self.lo_keys.len() + 1];
        let h = eytz.len() - 1;
        let mut i = 1usize;
        let mut pred = 0usize;
        while i <= h {
            let le = eytz[i] <= k;
            pred = if le { i } else { pred };
            i = 2 * i + usize::from(le);
        }
        if pred == 0 {
            return None;
        }
        Some(eval_row(self.kernel, &self.rows_eytz[pred * self.row_stride..][..self.row_stride], k))
    }

    // -----------------------------------------------------------------
    // Batched execution engine: lockstep descents + lane-pack Horner
    // -----------------------------------------------------------------

    /// Descend one group of [`DESCENT_LANES`] probes in lockstep: every
    /// level issues one independent load per lane (the dependent misses
    /// of the K walks overlap), tracking each lane's predecessor slot
    /// with a conditional move exactly like [`Self::locate_eval`]. Runs a
    /// fixed `levels` iterations over the NaN-padded array — a lane whose
    /// real subtree is exhausted strides on through pads (`NaN <= k` is
    /// false, so `pred` is never disturbed and the walk only moves to
    /// ever-larger pad slots).
    #[inline]
    fn descend_group(&self, ks: &[f64; DESCENT_LANES]) -> [usize; DESCENT_LANES] {
        let eytz = self.eytz.as_slice();
        let mut i = [1usize; DESCENT_LANES];
        let mut pred = [0usize; DESCENT_LANES];
        for _ in 0..self.levels {
            for w in 0..DESCENT_LANES {
                let le = eytz[i[w]] <= ks[w];
                pred[w] = if le { i[w] } else { pred[w] };
                i[w] = 2 * i[w] + usize::from(le);
            }
        }
        pred
    }

    /// Lane-pack Horner over one located group: the `C` coefficients (and
    /// the row header) of the 8 predecessor rows are transposed from the
    /// Eytzinger-ordered arena into per-coefficient [`F64x8`] lanes, and
    /// the monomorphized multiply/add ladder runs once over the whole
    /// pack. Each lane performs the exact scalar operation sequence of
    /// [`eval_row`]'s degree-`C-1` arm on its own row — no re-association,
    /// no cross-lane arithmetic — so results are bitwise-identical to
    /// per-probe [`Self::locate_eval`]. Lanes with `pred == 0` (no owning
    /// segment) read the all-zero pad row; their values are garbage and
    /// the caller discards them.
    #[inline]
    fn eval_group<const C: usize>(
        &self,
        ks: &[f64; DESCENT_LANES],
        pred: &[usize; DESCENT_LANES],
    ) -> F64x8 {
        debug_assert_eq!(C, self.coeff_stride);
        let stride = self.row_stride;
        let rows = self.rows_eytz.as_slice();
        let lo = F64x8::from_fn(|w| rows[pred[w] * stride]);
        let hi = F64x8::from_fn(|w| rows[pred[w] * stride + 1]);
        let center = F64x8::from_fn(|w| rows[pred[w] * stride + 2]);
        let scale = F64x8::from_fn(|w| rows[pred[w] * stride + 3]);
        let t = (F64x8(*ks).clamp_ordered(lo, hi) - center) / scale;
        let mut acc = F64x8::from_fn(|w| rows[pred[w] * stride + ROW_HEADER + C - 1]);
        for p in (0..C - 1).rev() {
            let c = F64x8::from_fn(|w| rows[pred[w] * stride + ROW_HEADER + p]);
            acc = acc * t + c;
        }
        acc
    }

    /// [`Self::eval_group`] plus the `pred == 0 → None` resolution,
    /// handing each lane's answer to the sink.
    #[inline]
    fn emit_group<const C: usize>(
        &self,
        ks: &[f64; DESCENT_LANES],
        pred: &[usize; DESCENT_LANES],
        base: usize,
        sink: &mut impl FnMut(usize, Option<f64>),
    ) {
        let vals = self.eval_group::<C>(ks, pred);
        for w in 0..DESCENT_LANES {
            sink(base + w, (pred[w] != 0).then(|| vals[w]));
        }
    }

    /// Batched [`Self::locate`]: one lockstep descent group per
    /// [`DESCENT_LANES`] probes (remainder scalar). Probes may arrive in
    /// any order and include NaN/±∞; `out[j]` is bitwise-identical to
    /// `locate(keys[j])`.
    pub fn locate_batch(&self, keys: &[f64]) -> Vec<Option<usize>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut groups = keys.chunks_exact(DESCENT_LANES);
        for ks in &mut groups {
            let ks: &[f64; DESCENT_LANES] = ks.try_into().expect("exact chunk");
            let pred = self.descend_group(ks);
            for &p in &pred {
                out.push((p != 0).then(|| self.eytz_rank[p] as usize));
            }
        }
        out.extend(groups.remainder().iter().map(|&k| self.locate(k)));
        out
    }

    /// Batched fused locate-and-evaluate — the data-parallel engine the
    /// batch query paths dispatch probe groups through. Equivalent to
    /// `keys.iter().map(|&k| self.locate_eval(k))` with every answer
    /// bitwise-identical, but executed as lockstep descent groups feeding
    /// lane-pack Horner kernels. A `Generic`-kernel directory (degree > 3)
    /// evaluates each located lane with the scalar Horner loop.
    pub fn locate_eval_batch(&self, keys: &[f64]) -> Vec<Option<f64>> {
        let mut out = vec![None; keys.len()];
        self.locate_eval_batch_each(keys, &mut |j, v| out[j] = v);
        out
    }

    /// Engine core: run the batch and hand `(probe index, answer)` pairs
    /// to `sink` (grouped probes first, remainder last — not in probe
    /// order).
    pub(crate) fn locate_eval_batch_each(
        &self,
        keys: &[f64],
        sink: &mut impl FnMut(usize, Option<f64>),
    ) {
        let mut base = 0usize;
        while base + DESCENT_LANES <= keys.len() {
            let ks: &[f64; DESCENT_LANES] =
                keys[base..base + DESCENT_LANES].try_into().expect("exact chunk");
            let pred = self.descend_group(ks);
            match self.kernel {
                HornerKernel::Zero => {
                    for (w, &p) in pred.iter().enumerate() {
                        sink(base + w, (p != 0).then_some(0.0));
                    }
                }
                HornerKernel::Constant => self.emit_group::<1>(ks, &pred, base, sink),
                HornerKernel::Affine => self.emit_group::<2>(ks, &pred, base, sink),
                HornerKernel::Quadratic => self.emit_group::<3>(ks, &pred, base, sink),
                HornerKernel::Cubic => self.emit_group::<4>(ks, &pred, base, sink),
                HornerKernel::Generic => {
                    // Degree > 3: interleaved descents still pay off; the
                    // variable-length Horner loop stays scalar per lane.
                    for (w, (&p, &k)) in pred.iter().zip(ks).enumerate() {
                        let v = (p != 0).then(|| {
                            let row = &self.rows_eytz[p * self.row_stride..][..self.row_stride];
                            eval_row(self.kernel, row, k)
                        });
                        sink(base + w, v);
                    }
                }
            }
            base += DESCENT_LANES;
        }
        for (j, &k) in keys.iter().enumerate().skip(base) {
            sink(j, self.locate_eval(k));
        }
    }

    /// Number of segments `h`.
    pub fn len(&self) -> usize {
        self.lo_keys.len()
    }

    /// True when the directory holds no segments.
    pub fn is_empty(&self) -> bool {
        self.lo_keys.is_empty()
    }

    /// Sorted `lo_key` directory.
    pub fn lo_keys(&self) -> &[f64] {
        &self.lo_keys
    }

    /// `lo_key` of segment `i`.
    #[inline]
    pub fn lo_key(&self, i: usize) -> f64 {
        self.lo_keys[i]
    }

    /// `hi_key` of segment `i`.
    #[inline]
    pub fn hi_key(&self, i: usize) -> f64 {
        self.rows[i * self.row_stride + 1]
    }

    /// Certified error of segment `i`.
    #[inline]
    pub fn error(&self, i: usize) -> f64 {
        self.errors[i]
    }

    /// Largest certified per-segment error (≤ δ by construction;
    /// precomputed at construction).
    pub fn max_certified_error(&self) -> f64 {
        self.max_error
    }

    /// Logical serialized size of the segments (directory keys are
    /// derived from segment bounds, so they cost nothing extra;
    /// precomputed at construction).
    pub fn segments_logical_bytes(&self) -> usize {
        self.logical_bytes
    }

    /// The uniform per-row coefficient count (≤ degree + 1).
    pub fn coeff_stride(&self) -> usize {
        self.coeff_stride
    }

    /// Per-segment `(value_max, value_min)` aggregates, in segment order —
    /// the leaves of the MAX index's extrema tree.
    pub fn extrema_leaves(&self) -> Vec<(f64, f64)> {
        self.extrema.clone()
    }

    /// Reconstruct segment `i`'s polynomial. `Polynomial::new` trims the
    /// padding zeros back off, so the result equals the original segment's
    /// polynomial coefficient-for-coefficient.
    pub fn shifted_poly(&self, i: usize) -> ShiftedPolynomial {
        let r = &self.rows[i * self.row_stride..(i + 1) * self.row_stride];
        ShiftedPolynomial::new(Polynomial::new(r[ROW_HEADER..].to_vec()), r[2], r[3])
    }

    /// Reconstruct segment `i` exactly as it was compiled in.
    pub fn segment(&self, i: usize) -> Segment {
        let (value_max, value_min) = self.extrema[i];
        Segment {
            lo_key: self.lo_key(i),
            hi_key: self.hi_key(i),
            poly: self.shifted_poly(i),
            error: self.errors[i],
            value_max,
            value_min,
        }
    }

    /// Materialise every segment, ascending by key (serialization,
    /// diagnostics, oracle construction — cold paths).
    pub fn segments(&self) -> Vec<Segment> {
        (0..self.len()).map(|i| self.segment(i)).collect()
    }
}

/// Fill the Eytzinger array (and its slot → sorted-rank map) by an
/// in-order walk of the implicit complete tree, then pad it with NaN
/// sentinels out to `1 << levels` slots so the lockstep batched descent
/// can run every lane for exactly `levels` iterations without bounds
/// branches. Returns `(eytz, rank, levels)` where
/// `levels = ⌊log₂ h⌋ + 1` is the scalar walk's maximum step count.
///
/// Why pads are safe: `NaN <= k` is false for every `k`, so a lane that
/// lands on a pad never updates its predecessor and only ever steps to
/// the (even larger, also padded) left child `2i` — once a walk leaves
/// the real `1..=h` slots it can never re-enter them.
fn build_eytzinger(sorted: &[f64]) -> (Vec<f64>, Vec<u32>, u32) {
    let h = sorted.len();
    let levels = if h == 0 { 0 } else { usize::BITS - h.leading_zeros() };
    // Max index reachable at the last lockstep step is 2^levels - 1, so
    // 1 << levels slots always cover both the real tree and the pads.
    let padded = (1usize << levels).max(h + 1);
    let mut eytz = vec![f64::NAN; padded];
    let mut rank = vec![0u32; h + 1];
    fn fill(sorted: &[f64], eytz: &mut [f64], rank: &mut [u32], slot: usize, next: &mut usize) {
        if slot <= sorted.len() {
            fill(sorted, eytz, rank, 2 * slot, next);
            eytz[slot] = sorted[*next];
            rank[slot] = *next as u32;
            *next += 1;
            fill(sorted, eytz, rank, 2 * slot + 1, next);
        }
    }
    let mut next = 0usize;
    fill(sorted, &mut eytz, &mut rank, 1, &mut next);
    debug_assert_eq!(next, h);
    (eytz, rank, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyfit_poly::{Polynomial, ShiftedPolynomial};

    fn segment(lo: f64, hi: f64) -> Segment {
        Segment {
            lo_key: lo,
            hi_key: hi,
            poly: ShiftedPolynomial::new(Polynomial::new(vec![2.0]), 0.0, 1.0),
            error: 0.25,
            value_max: 1.0,
            value_min: 0.0,
        }
    }

    fn segments() -> Vec<Segment> {
        vec![segment(0.0, 10.0), segment(10.0, 20.0), segment(20.0, 30.0)]
    }

    /// The reference locate: the last segment whose `lo_key` is ≤ `k`.
    fn oracle_locate(segs: &[Segment], k: f64) -> Option<usize> {
        segs.partition_point(|s| s.lo_key <= k).checked_sub(1)
    }

    #[test]
    fn locate_finds_owning_segment() {
        let d = CompiledDirectory::from_segments(segments());
        assert_eq!(d.locate(-0.1), None);
        assert_eq!(d.locate(0.0), Some(0));
        assert_eq!(d.locate(9.99), Some(0));
        assert_eq!(d.locate(10.0), Some(1));
        assert_eq!(d.locate(25.0), Some(2));
        assert_eq!(d.locate(1e9), Some(2));
    }

    #[test]
    fn aggregates_and_sizes() {
        let d = CompiledDirectory::from_segments(segments());
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.max_certified_error(), 0.25);
        // 3 segments × (2 bounds + 1 coefficient) × 8 bytes.
        assert_eq!(d.segments_logical_bytes(), 3 * 24);
        assert_eq!(d.extrema_leaves(), vec![(1.0, 0.0); 3]);
        assert_eq!(d.segments().len(), 3);
    }

    #[test]
    fn compiled_matches_oracle_locate() {
        let segs = segments();
        let compiled = CompiledDirectory::from_segments(segs.clone());
        let probes = [
            f64::NEG_INFINITY,
            -5.0,
            -0.0,
            0.0,
            5.0,
            9.99,
            10.0,
            19.999999,
            20.0,
            30.0,
            1e18,
            f64::INFINITY,
            f64::NAN,
        ];
        for &k in &probes {
            assert_eq!(compiled.locate(k), oracle_locate(&segs, k), "key {k}");
        }
    }

    #[test]
    fn compiled_eval_matches_segment_eval() {
        // Degree-3 rows alongside shorter polynomials in one directory:
        // every kernel arm must absorb the padding bitwise.
        let mk = |lo: f64, hi: f64, coeffs: Vec<f64>| Segment {
            lo_key: lo,
            hi_key: hi,
            poly: ShiftedPolynomial::new(Polynomial::new(coeffs), 0.5 * (lo + hi), 0.5 * (hi - lo)),
            error: 0.1,
            value_max: 9.0,
            value_min: -9.0,
        };
        let segs = vec![
            mk(0.0, 4.0, vec![1.5, -0.25, 3.0, 0.125]),
            mk(4.0, 8.0, vec![2.0, 0.5]),
            mk(8.0, 16.0, vec![]),
            mk(16.0, 20.0, vec![-7.0]),
        ];
        let compiled = CompiledDirectory::from_segments(segs.clone());
        assert_eq!(compiled.coeff_stride(), 4);
        for (i, s) in segs.iter().enumerate() {
            for &k in &[-3.0, 0.0, 1.7, 4.0, 5.2, 9.9, 16.0, 18.5, 25.0] {
                assert_eq!(
                    compiled.eval(i, k).to_bits(),
                    s.eval_clamped(k).to_bits(),
                    "segment {i} at {k}"
                );
            }
            // Reconstruction round-trips exactly.
            let back = compiled.segment(i);
            assert_eq!(back.poly, s.poly, "segment {i}");
            assert_eq!(back.lo_key, s.lo_key);
            assert_eq!(back.hi_key, s.hi_key);
            assert_eq!(back.error, s.error);
        }
    }

    #[test]
    fn compiled_empty_directory() {
        let compiled = CompiledDirectory::from_segments(Vec::new());
        assert!(compiled.is_empty());
        assert_eq!(compiled.len(), 0);
        assert_eq!(compiled.locate(1.0), None);
        assert_eq!(compiled.locate(f64::NAN), None);
        assert_eq!(compiled.max_certified_error(), 0.0);
        assert_eq!(compiled.segments_logical_bytes(), 0);
    }

    /// Engine batch vs per-probe scalar reference, bit for bit.
    fn assert_batch_matches_scalar(compiled: &CompiledDirectory, keys: &[f64]) {
        let batch = compiled.locate_eval_batch(keys);
        let located = compiled.locate_batch(keys);
        assert_eq!(batch.len(), keys.len());
        assert_eq!(located.len(), keys.len());
        for (j, &k) in keys.iter().enumerate() {
            let scalar = compiled.locate_eval(k);
            match (batch[j], scalar) {
                (Some(b), Some(s)) => {
                    assert_eq!(b.to_bits(), s.to_bits(), "probe {j} (key {k})")
                }
                (b, s) => assert_eq!(b, s, "probe {j} (key {k})"),
            }
            assert_eq!(located[j], compiled.locate(k), "probe {j} (key {k})");
        }
    }

    #[test]
    fn batch_engine_matches_scalar_mixed_probes() {
        let compiled = CompiledDirectory::from_segments(segments());
        // Mixed NaN/±∞/boundary probes, in descent-hostile order, sized so
        // full groups AND a non-empty remainder both execute.
        let keys = [
            25.0,
            f64::NAN,
            -0.1,
            0.0,
            f64::INFINITY,
            9.99,
            f64::NEG_INFINITY,
            10.0,
            1e9,
            -0.0,
            20.0,
        ];
        assert_batch_matches_scalar(&compiled, &keys);
    }

    #[test]
    fn batch_engine_handles_tiny_directories_and_batches() {
        // h < DESCENT_LANES, including h = 1, plus batch sizes 0..2K+1
        // so every remainder length is exercised.
        for h in 1..DESCENT_LANES + 2 {
            let segs: Vec<Segment> =
                (0..h).map(|i| segment(i as f64 * 10.0, (i + 1) as f64 * 10.0)).collect();
            let compiled = CompiledDirectory::from_segments(segs);
            for batch in 0..=2 * DESCENT_LANES + 1 {
                let keys: Vec<f64> = (0..batch).map(|j| (j as f64 * 7.3) - 5.0).collect();
                assert_batch_matches_scalar(&compiled, &keys);
            }
        }
    }

    #[test]
    fn batch_engine_empty_directory() {
        let compiled = CompiledDirectory::from_segments(Vec::new());
        let keys = [0.0, 1.0, f64::NAN, f64::INFINITY, -3.5, 2.0, 7.0, 8.0, 9.0];
        assert!(compiled.locate_eval_batch(&keys).iter().all(Option::is_none));
        assert!(compiled.locate_batch(&keys).iter().all(Option::is_none));
    }

    #[test]
    fn batch_engine_covers_every_kernel_arm() {
        // One directory per coefficient stride 0..=5 (Zero through
        // Generic): the engine's kernel dispatch must agree with the
        // scalar arm bitwise in each case.
        for stride in 0..=5usize {
            let mk = |lo: f64, hi: f64, seed: usize| Segment {
                lo_key: lo,
                hi_key: hi,
                poly: ShiftedPolynomial::new(
                    Polynomial::new(
                        (0..stride).map(|p| (seed * 3 + p) as f64 * 0.37 - 1.1).collect(),
                    ),
                    0.5 * (lo + hi),
                    0.5 * (hi - lo),
                ),
                error: 0.1,
                value_max: 9.0,
                value_min: -9.0,
            };
            let segs: Vec<Segment> =
                (0..DESCENT_LANES + 3).map(|i| mk(i as f64, (i + 1) as f64, i)).collect();
            let compiled = CompiledDirectory::from_segments(segs);
            let keys: Vec<f64> = (0..3 * DESCENT_LANES)
                .map(|j| (j as f64 * 1.37) % 13.0 - 1.0)
                .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0])
                .collect();
            assert_batch_matches_scalar(&compiled, &keys);
        }
    }

    #[test]
    fn eytzinger_handles_duplicate_lo_keys() {
        // Duplicate lo_keys: locate must agree with partition_point's
        // "last segment with lo ≤ k" semantics.
        let segs = vec![
            segment(1.0, 1.0),
            segment(1.0, 1.0),
            segment(1.0, 2.0),
            segment(2.0, 3.0),
            segment(2.0, 5.0),
        ];
        let compiled = CompiledDirectory::from_segments(segs.clone());
        for &k in &[0.5, 1.0, 1.5, 2.0, 2.5, 10.0] {
            assert_eq!(compiled.locate(k), oracle_locate(&segs, k), "key {k}");
        }
        assert_eq!(compiled.locate(1.0), Some(2));
        assert_eq!(compiled.locate(2.0), Some(4));
    }
}
