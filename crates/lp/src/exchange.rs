//! Discrete Remez exchange algorithm for minimax polynomial fitting.
//!
//! The LP of paper Eq. 9 computes the degree-`deg` polynomial minimising the
//! maximum absolute deviation over `ℓ` points. By LP duality / Chebyshev's
//! equioscillation theorem, the optimum is characterised by a *reference* of
//! `deg + 2` points on which the residual attains `±E` with alternating
//! signs. The exchange algorithm searches for that reference directly:
//!
//! 1. pick an initial reference of `deg+2` points;
//! 2. solve the `(deg+2)×(deg+2)` linear system
//!    `Σ_j a_j·t_k^j + (−1)^k·h = y_k` for the coefficients and the levelled
//!    error `h`;
//! 3. scan all points for the largest residual; if it exceeds `|h|` beyond
//!    tolerance, swap it into the reference (keeping signs alternating) and
//!    repeat.
//!
//! Each iteration costs `O(deg³ + ℓ·deg)`; convergence is typically a
//! handful of iterations. The result is the *same optimum* the simplex
//! backend produces (verified in tests and by property tests), at a cost
//! that makes greedy segmentation over millions of keys practical.
//!
//! All computation happens in the normalized variable `t ∈ [−1, 1]`;
//! callers provide raw `(key, value)` points and receive a
//! [`ShiftedPolynomial`]-compatible
//! coefficient vector via [`crate::fit1d`].

// Index-based loops below walk several arrays in lockstep (tableau rows,
// activation/delta buffers); iterator zips would obscure the math.
#![allow(clippy::needless_range_loop)]

use polyfit_poly::ShiftedPolynomial;

use crate::dense::{solve_in_place, solve_linear_system, Matrix};

/// Basis used for the reference linear systems.
///
/// Both yield the same optimum; Chebyshev keeps the reference systems
/// well-conditioned at higher degrees (the monomial Vandermonde loses
/// roughly a digit of accuracy per degree even on `[−1, 1]`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Basis {
    /// Powers `t^j` (default).
    #[default]
    Monomial,
    /// Chebyshev polynomials `T_j(t)`.
    Chebyshev,
}

#[inline]
fn basis_eval(basis: Basis, coeffs: &[f64], t: f64) -> f64 {
    match basis {
        Basis::Monomial => horner(coeffs, t),
        Basis::Chebyshev => polyfit_poly::chebyshev::eval_clenshaw(coeffs, t),
    }
}

#[inline]
fn basis_fn(basis: Basis, j: usize, t: f64, prev: &mut (f64, f64)) -> f64 {
    match basis {
        Basis::Monomial => {
            // prev.0 carries t^{j-1}
            if j == 0 {
                prev.0 = 1.0;
            } else {
                prev.0 *= t;
            }
            prev.0
        }
        Basis::Chebyshev => {
            let v = match j {
                0 => 1.0,
                1 => t,
                _ => 2.0 * t * prev.0 - prev.1,
            };
            prev.1 = prev.0;
            prev.0 = v;
            v
        }
    }
}

/// Outcome of a minimax exchange fit in normalized coordinates.
#[derive(Clone, Debug)]
pub struct ExchangeFit {
    /// Ascending coefficients of the optimal polynomial in `t`.
    pub coeffs: Vec<f64>,
    /// The minimax error `E = max_i |y_i − P(t_i)|` at the optimum.
    pub error: f64,
    /// Number of exchange iterations performed.
    pub iterations: usize,
}

/// Relative convergence tolerance: stop when the worst residual exceeds the
/// levelled error by less than this factor.
const REL_TOL: f64 = 1e-9;
/// Iteration cap; the algorithm converges monotonically so hitting this
/// indicates numerically degenerate input, in which case the best levelled
/// solution so far is returned (its `error` field is still the true scanned
/// maximum residual, so downstream δ-checks remain sound).
const MAX_ITERS: usize = 200;

/// Minimax-fit `ys[i] ≈ P(ts[i])` with a degree-≤`deg` polynomial.
///
/// `ts` must be strictly increasing and already normalized (well
/// conditioned — ideally within `[−1, 1]`).
///
/// # Panics
/// Panics if `ts.len() != ys.len()`, if fewer than one point is supplied, or
/// if `ts` is not strictly increasing.
pub fn minimax_exchange(ts: &[f64], ys: &[f64], deg: usize) -> ExchangeFit {
    minimax_exchange_in_basis(ts, ys, deg, Basis::Monomial)
}

/// [`minimax_exchange`] with an explicit solve basis. Returned
/// coefficients are **always monomial** (Chebyshev solves are converted),
/// so downstream consumers are basis-agnostic.
pub fn minimax_exchange_in_basis(ts: &[f64], ys: &[f64], deg: usize, basis: Basis) -> ExchangeFit {
    assert_eq!(ts.len(), ys.len(), "point arrays must have equal length");
    assert!(!ts.is_empty(), "need at least one point");
    debug_assert!(
        ts.windows(2).all(|w| w[0] < w[1]),
        "normalized keys must be strictly increasing"
    );
    let l = ts.len();
    let m = deg + 2; // reference size
    if l <= deg + 1 {
        // Fewer points than coefficients: interpolate exactly, error 0.
        let coeffs = interpolate(ts, ys, deg);
        return ExchangeFit { coeffs, error: 0.0, iterations: 0 };
    }
    let mut reference = Vec::with_capacity(m);
    top_up_reference(&mut reference, l, m);

    let mut best: Option<ExchangeFit> = None;
    for iter in 0..MAX_ITERS {
        let (coeffs, h) = match solve_reference(ts, ys, &reference, deg, basis) {
            Some(sol) => sol,
            None => {
                // Singular reference system (pathological clustering): fall
                // back to the best solution seen, or a least-squares-like
                // safe default of interpolating the reference subset.
                if let Some(b) = best {
                    return finalize(b, basis);
                }
                let sub_t: Vec<f64> = reference.iter().map(|&i| ts[i]).collect();
                let sub_y: Vec<f64> = reference.iter().map(|&i| ys[i]).collect();
                let coeffs = interpolate(&sub_t[..deg + 1], &sub_y[..deg + 1], deg);
                let error = scan_max_residual(ts, ys, &coeffs, Basis::Monomial).1;
                return ExchangeFit { coeffs, error, iterations: iter };
            }
        };
        let (worst_idx, worst_err) = scan_max_residual(ts, ys, &coeffs, basis);
        let fit = ExchangeFit { coeffs, error: worst_err, iterations: iter + 1 };
        let improved = best.as_ref().is_none_or(|b| fit.error < b.error);
        if improved {
            best = Some(fit.clone());
        }
        if worst_err <= h.abs() * (1.0 + REL_TOL) + f64::EPSILON {
            // Equioscillation reached: levelled error equals global max.
            return finalize(fit, basis);
        }
        exchange_point(ts, ys, &fit.coeffs, &mut reference, worst_idx, basis);
    }
    finalize(best.expect("at least one exchange iteration ran"), basis)
}

/// Top the distinct `reference` (at most `m` entries) up to `m` of the
/// `l ≥ m` point indices from the `m` distinct ones spread evenly across
/// the range (a discrete stand-in for Chebyshev nodes), right end first,
/// and sort it. An empty reference becomes the evenly spread one.
fn top_up_reference(reference: &mut Vec<usize>, l: usize, m: usize) {
    for k in (0..m).rev() {
        let i = (k * (l - 1)) / (m - 1);
        if reference.len() < m && !reference.contains(&i) {
            reference.push(i);
        }
    }
    debug_assert_eq!(reference.len(), m, "the spread alone holds m distinct indices");
    reference.sort_unstable();
}

/// Largest reference [`minimax_within`] solves (on the stack): degree 8,
/// the highest PolyFit builds with.
const WITHIN_MAX_REF: usize = 10;

/// Reusable state of [`minimax_within`]: the normalised keys of the last
/// probe and the reference its exchange ended on, which warm-starts the
/// next probe.
#[derive(Clone, Debug, Default)]
pub struct WithinScratch {
    ts: Vec<f64>,
    reference: Vec<usize>,
}

impl WithinScratch {
    /// Start the next probe from the evenly spread reference. Reference
    /// indices count from the first point, so call this whenever the
    /// probed point sets stop sharing it (any reference is sound; a stale
    /// one only costs iterations).
    pub fn forget_reference(&mut self) {
        self.reference.clear();
    }
}

/// Decide whether the minimax error `E*` of fitting `values[i] ≈ P(keys[i])`
/// with a degree-≤`deg` polynomial is at most `delta`, stopping the
/// exchange as soon as one of its iterates settles the question.
///
/// Every iterate brackets `E*`. Its levelled error `|h|` is a lower bound
/// (de la Vallée Poussin: `|h|` is the optimum over the `deg + 2`
/// reference points alone), and its largest residual `worst` over all
/// points is an upper bound. With `margin = 1e-6·delta + 64·ε·max|value|`
/// (rounding in `h`, in `worst` and in the residuals a full fit scans)
/// this returns:
///
/// * `Some(false)` once `|h| > delta + margin`;
/// * `Some(true)` once `worst + margin + ε ≤ delta`;
/// * `None` when the exchange converges or stalls inside that band, meets
///   a singular reference system, or reaches the iteration cap.
///
/// A `Some(b)` is what [`fit_minimax`](crate::fit_minimax) with
/// [`FitBackend::Exchange`](crate::FitBackend::Exchange) would say
/// (`error <= delta`) whenever that fit converges: its error is the
/// largest residual of some polynomial, so at least `E*`, and at
/// convergence at most `E*·(1 + 1e-9) + ε`. Fewer than `deg + 2` points
/// are interpolated there with error 0, so they return `Some(0.0 <= delta)`.
///
/// Keys are normalised exactly as `fit_minimax` does, into `scratch`, and
/// the search starts from the reference the previous call ended on:
/// indices past `keys.len()` are dropped and evenly spread ones top it up.
/// Nothing is allocated once `scratch` has grown to the longest probe.
///
/// # Panics
/// Panics if `keys.len() != values.len()` or no point is supplied.
pub fn minimax_within(
    keys: &[f64],
    values: &[f64],
    deg: usize,
    delta: f64,
    scratch: &mut WithinScratch,
) -> Option<bool> {
    assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
    assert!(!keys.is_empty(), "need at least one point");
    let l = keys.len();
    let m = deg + 2;
    if l < m {
        return Some(0.0 <= delta);
    }
    if m > WITHIN_MAX_REF {
        return None;
    }
    let WithinScratch { ts, reference } = scratch;
    let (center, scale) = ShiftedPolynomial::normalizer(keys[0], keys[l - 1]);
    ts.clear();
    ts.extend(keys.iter().map(|&k| (k - center) / scale));
    let y_max = values.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
    let margin = 1e-6 * delta + 64.0 * f64::EPSILON * y_max;

    // Warm start: keep the previous reference's points that still exist.
    reference.retain(|&i| i < l);
    reference.truncate(m);
    top_up_reference(reference, l, m);

    for _ in 0..MAX_ITERS {
        let mut a = [0.0; WITHIN_MAX_REF * WITHIN_MAX_REF];
        let mut sol = [0.0; WITHIN_MAX_REF];
        for (k, &idx) in reference.iter().enumerate() {
            let mut pw = 1.0;
            for j in 0..=deg {
                a[k * m + j] = pw;
                pw *= ts[idx];
            }
            a[k * m + deg + 1] = if k % 2 == 0 { 1.0 } else { -1.0 };
            sol[k] = values[idx];
        }
        if !solve_in_place(&mut a[..m * m], &mut sol[..m]) {
            return None;
        }
        let h = sol[deg + 1].abs();
        if h > delta + margin {
            return Some(false);
        }
        let coeffs = &sol[..=deg];
        let (worst_idx, worst) = scan_max_residual(ts, values, coeffs, Basis::Monomial);
        if worst + margin + f64::EPSILON <= delta {
            return Some(true);
        }
        if worst <= h * (1.0 + REL_TOL) + f64::EPSILON || reference.contains(&worst_idx) {
            return None;
        }
        exchange_point(ts, values, coeffs, reference, worst_idx, Basis::Monomial);
    }
    None
}

/// Convert a fit's coefficients to the monomial basis if needed.
fn finalize(mut fit: ExchangeFit, basis: Basis) -> ExchangeFit {
    if basis == Basis::Chebyshev {
        fit.coeffs = polyfit_poly::chebyshev::chebyshev_to_monomial(&fit.coeffs);
    }
    fit
}

/// Solve the levelled system on the reference points:
/// `Σ_j a_j t_k^j + (−1)^k h = y_k`, unknowns `(a_0..a_deg, h)`.
fn solve_reference(
    ts: &[f64],
    ys: &[f64],
    reference: &[usize],
    deg: usize,
    basis: Basis,
) -> Option<(Vec<f64>, f64)> {
    let m = reference.len();
    debug_assert_eq!(m, deg + 2);
    let mut a = Matrix::zeros(m, m);
    let mut b = vec![0.0; m];
    for (k, &idx) in reference.iter().enumerate() {
        let t = ts[idx];
        let mut carry = (0.0, 0.0);
        for j in 0..=deg {
            a.set(k, j, basis_fn(basis, j, t, &mut carry));
        }
        a.set(k, deg + 1, if k % 2 == 0 { 1.0 } else { -1.0 });
        b[k] = ys[idx];
    }
    let sol = solve_linear_system(&a, &b)?;
    let h = sol[deg + 1];
    let mut coeffs = sol;
    coeffs.truncate(deg + 1);
    Some((coeffs, h))
}

/// Index and magnitude of the largest residual `|y − P(t)|` over all points.
fn scan_max_residual(ts: &[f64], ys: &[f64], coeffs: &[f64], basis: Basis) -> (usize, f64) {
    let mut worst_idx = 0usize;
    let mut worst = -1.0f64;
    for i in 0..ts.len() {
        let r = (ys[i] - basis_eval(basis, coeffs, ts[i])).abs();
        if r > worst {
            worst = r;
            worst_idx = i;
        }
    }
    (worst_idx, worst)
}

#[inline]
fn horner(coeffs: &[f64], t: f64) -> f64 {
    let mut acc = 0.0;
    for &c in coeffs.iter().rev() {
        acc = acc * t + c;
    }
    acc
}

#[inline]
fn residual(ts: &[f64], ys: &[f64], coeffs: &[f64], i: usize, basis: Basis) -> f64 {
    ys[i] - basis_eval(basis, coeffs, ts[i])
}

/// Single-point exchange: insert `new_idx` into the sorted reference while
/// preserving residual sign alternation (the classic Remez update).
fn exchange_point(
    ts: &[f64],
    ys: &[f64],
    coeffs: &[f64],
    reference: &mut [usize],
    new_idx: usize,
    basis: Basis,
) {
    let r_new = residual(ts, ys, coeffs, new_idx, basis);
    let m = reference.len();
    // Position of new_idx relative to the sorted reference.
    let pos = reference.partition_point(|&i| i < new_idx);
    if pos < m && reference[pos] == new_idx {
        return; // already in the reference; nothing to exchange
    }
    let same_sign = |i: usize| residual(ts, ys, coeffs, i, basis).signum() == r_new.signum();
    if pos == 0 {
        if same_sign(reference[0]) {
            reference[0] = new_idx;
        } else {
            // Shift everything right, dropping the far end, to keep
            // alternation with the new leftmost point.
            for k in (1..m).rev() {
                reference[k] = reference[k - 1];
            }
            reference[0] = new_idx;
        }
    } else if pos == m {
        if same_sign(reference[m - 1]) {
            reference[m - 1] = new_idx;
        } else {
            for k in 0..m - 1 {
                reference[k] = reference[k + 1];
            }
            reference[m - 1] = new_idx;
        }
    } else {
        // Interior: replace whichever neighbour shares the residual sign
        // (one of them must, since reference residuals alternate).
        if same_sign(reference[pos - 1]) {
            reference[pos - 1] = new_idx;
        } else {
            reference[pos] = new_idx;
        }
    }
    debug_assert!(reference.windows(2).all(|w| w[0] < w[1]), "reference must stay sorted");
}

/// Interpolate up to `deg+1` points exactly (Vandermonde solve), padding the
/// coefficient vector to length `deg + 1`.
fn interpolate(ts: &[f64], ys: &[f64], deg: usize) -> Vec<f64> {
    let n = ts.len().min(deg + 1);
    if n == 0 {
        return vec![0.0; deg + 1];
    }
    let mut a = Matrix::zeros(n, n);
    for r in 0..n {
        let mut pw = 1.0;
        for c in 0..n {
            a.set(r, c, pw);
            pw *= ts[r];
        }
    }
    let mut coeffs = solve_linear_system(&a, &ys[..n]).unwrap_or_else(|| {
        // Coincident points — fall back to a constant through the mean.
        let mean = ys[..n].iter().sum::<f64>() / n as f64;
        let mut v = vec![0.0; n];
        v[0] = mean;
        v
    });
    coeffs.resize(deg + 1, 0.0);
    coeffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn exact_polynomial_recovered() {
        // y = 1 − 2t + 3t² sampled at 40 points → error ~0.
        let ts: Vec<f64> = (0..40).map(|i| -1.0 + 2.0 * i as f64 / 39.0).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| 1.0 - 2.0 * t + 3.0 * t * t).collect();
        let fit = minimax_exchange(&ts, &ys, 2);
        assert!(fit.error < 1e-9, "error {}", fit.error);
        assert_close(fit.coeffs[0], 1.0, 1e-8);
        assert_close(fit.coeffs[1], -2.0, 1e-8);
        assert_close(fit.coeffs[2], 3.0, 1e-8);
    }

    #[test]
    fn constant_fit_of_two_points() {
        let fit = minimax_exchange(&[-1.0, 1.0], &[0.0, 1.0], 0);
        assert_close(fit.coeffs[0], 0.5, 1e-10);
        assert_close(fit.error, 0.5, 1e-10);
    }

    #[test]
    fn interpolation_when_few_points() {
        let fit = minimax_exchange(&[0.0, 1.0], &[3.0, 5.0], 3);
        assert_close(fit.error, 0.0, 1e-12);
        assert_close(horner(&fit.coeffs, 0.0), 3.0, 1e-10);
        assert_close(horner(&fit.coeffs, 1.0), 5.0, 1e-10);
    }

    #[test]
    fn known_minimax_of_t_squared_by_linear() {
        // Best linear approx of t² on dense grid over [-1,1]: error 1/8? No:
        // continuous best is a₀=1/2-1/8? Classic result: p(t)=t²: best
        // degree-1 approx on [-1,1] is L(t) = 1/2·? — residual t² − L(t)
        // equioscillates at −1, 0, 1 with E = 1/2·(max−min)... Using the
        // Chebyshev economization: t² = (T₀ + T₂)/2, so dropping T₂ gives
        // L = 1/2 and E = 1/2. With slope forced by symmetry the answer is
        // L(t) = 1/2, E = 1/2 on t ∈ {−1,0,1} grid.
        let ts: Vec<f64> = (0..201).map(|i| -1.0 + i as f64 / 100.0).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| t * t).collect();
        let fit = minimax_exchange(&ts, &ys, 1);
        assert_close(fit.error, 0.5, 1e-6);
        assert_close(fit.coeffs[0], 0.5, 1e-6);
        assert_close(fit.coeffs[1], 0.0, 1e-6);
    }

    #[test]
    fn error_is_true_max_residual() {
        let ts: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| (7.0 * t).sin()).collect();
        let fit = minimax_exchange(&ts, &ys, 3);
        let brute = ts
            .iter()
            .zip(&ys)
            .map(|(&t, &y)| (y - horner(&fit.coeffs, t)).abs())
            .fold(0.0f64, f64::max);
        assert_close(fit.error, brute, 1e-12);
    }

    #[test]
    fn monotone_step_data() {
        // Cumulative-count-like staircase.
        let ts: Vec<f64> = (0..100).map(|i| -1.0 + 2.0 * i as f64 / 99.0).collect();
        let ys: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
        let fit = minimax_exchange(&ts, &ys, 2);
        assert!(fit.error > 0.0 && fit.error < 5.0, "error {}", fit.error);
    }

    #[test]
    fn single_point() {
        let fit = minimax_exchange(&[0.3], &[42.0], 2);
        assert_close(fit.error, 0.0, 1e-12);
        assert_close(horner(&fit.coeffs, 0.3), 42.0, 1e-10);
    }

    #[test]
    fn converges_in_few_iterations() {
        let ts: Vec<f64> = (0..1000).map(|i| -1.0 + 2.0 * i as f64 / 999.0).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| t.exp()).collect();
        let fit = minimax_exchange(&ts, &ys, 4);
        assert!(fit.iterations < 30, "iterations {}", fit.iterations);
        // Known continuous minimax error of deg-4 fit to e^t on [-1,1] is
        // ≈ 5.45e-4; discrete grid should be close.
        assert!(fit.error < 6e-4, "error {}", fit.error);
        assert!(fit.error > 4e-4, "error {}", fit.error);
    }
}
