//! Small dense linear-algebra kernels.
//!
//! The exchange solver repeatedly solves `(deg+2) × (deg+2)` systems and the
//! 2-D least-squares backend solves normal equations of dimension
//! `O(deg²)` — tiny, so a straightforward Gaussian elimination with partial
//! pivoting is both adequate and dependency-free.

// Index-based loops below walk several arrays in lockstep (tableau rows,
// activation/delta buffers); iterator zips would obscure the math.
#![allow(clippy::needless_range_loop)]

/// A dense row-major matrix with basic accessors. Dimensions are validated
/// at construction.
#[derive(Clone, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }
}

/// Solve the square system `A·x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` if the matrix is (numerically) singular.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn solve_linear_system(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "system matrix must be square");
    assert_eq!(a.rows(), b.len(), "rhs length must match matrix");
    let mut m = a.data.clone();
    let mut x = b.to_vec();
    solve_in_place(&mut m, &mut x).then_some(x)
}

/// [`solve_linear_system`] without allocating: `a` holds the `n × n`
/// matrix row-major (`n = x.len()`) and is overwritten by the
/// elimination; `x` holds `b` on entry and the solution on success.
/// Returns `false` if the matrix is (numerically) singular. Performs the
/// same floating-point operations in the same order as
/// [`solve_linear_system`], so both return the same bits.
pub(crate) fn solve_in_place(a: &mut [f64], x: &mut [f64]) -> bool {
    let n = x.len();
    debug_assert_eq!(a.len(), n * n, "system matrix must be square");
    for col in 0..n {
        // Partial pivot: largest magnitude in the column at/below `col`.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                pivot = r;
            }
        }
        if best < f64::MIN_POSITIVE * 1e10 || !best.is_finite() {
            return false;
        }
        if pivot != col {
            for c in 0..n {
                a.swap(col * n + c, pivot * n + c);
            }
            x.swap(col, pivot);
        }
        let diag = a[col * n + col];
        for r in col + 1..n {
            let factor = a[r * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= factor * a[col * n + c];
            }
            x[r] -= factor * x[col];
        }
    }
    // Back substitution; `x[c]` already holds the solution for `c > r`.
    for r in (0..n).rev() {
        let mut acc = x[r];
        for c in r + 1..n {
            acc -= a[r * n + c] * x[c];
        }
        let diag = a[r * n + r];
        if diag == 0.0 || !diag.is_finite() {
            return false;
        }
        x[r] = acc / diag;
        if !x[r].is_finite() {
            return false;
        }
    }
    true
}

/// Least-squares solution of the (possibly overdetermined) system
/// `A·x ≈ b` via the normal equations `AᵀA x = Aᵀb`, with a tiny Tikhonov
/// ridge retried on singularity. Adequate for the well-conditioned
/// normalized bases used throughout this project.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), b.len(), "rhs length must match matrix");
    let m = a.rows();
    let n = a.cols();
    if m < n {
        return None;
    }
    let mut ata = Matrix::zeros(n, n);
    let mut atb = vec![0.0; n];
    for r in 0..m {
        for i in 0..n {
            let ari = a.get(r, i);
            if ari == 0.0 {
                continue;
            }
            atb[i] += ari * b[r];
            for j in i..n {
                let v = ata.get(i, j) + ari * a.get(r, j);
                ata.set(i, j, v);
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            ata.set(i, j, ata.get(j, i));
        }
    }
    if let Some(x) = solve_linear_system(&ata, &atb) {
        return Some(x);
    }
    // Singular normal matrix (e.g. duplicate sample coordinates): retry with
    // a small ridge, which biases towards the minimum-norm solution.
    let scale = (0..n).map(|i| ata.get(i, i)).fold(0.0f64, f64::max).max(1.0);
    let mut ridged = ata;
    for i in 0..n {
        let v = ridged.get(i, i) + 1e-10 * scale;
        ridged.set(i, i, v);
    }
    solve_linear_system(&ridged, &atb)
}

/// In-place row operation helper used by the simplex tableau:
/// `target ← target − factor · source`.
pub(crate) fn axpy_rows(m: &mut Matrix, target: usize, source: usize, factor: f64) {
    if factor == 0.0 {
        return;
    }
    let cols = m.cols;
    let (tstart, sstart) = (target * cols, source * cols);
    // Split borrows via raw indexing on the flat buffer.
    for c in 0..cols {
        let sval = m.data[sstart + c];
        m.data[tstart + c] -= factor * sval;
    }
}

/// Scale a row in place.
pub(crate) fn scale_row(m: &mut Matrix, row: usize, factor: f64) {
    for v in m.row_mut(row) {
        *v *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn solves_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve_linear_system(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_general_3x3() {
        let a = Matrix::from_rows(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let x = solve_linear_system(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 3.0, 1e-10);
        assert_close(x[2], -1.0, 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_linear_system(&a, &[3.0, 4.0]).unwrap();
        assert_close(x[0], 4.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve_linear_system(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn empty_system() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(solve_linear_system(&a, &[]), Some(vec![]));
    }

    #[test]
    fn least_squares_exact_when_square() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let x = least_squares(&a, &[5.0, 8.0]).unwrap();
        assert_close(x[0], 5.0, 1e-10);
        assert_close(x[1], 4.0, 1e-10);
    }

    #[test]
    fn least_squares_regression_line() {
        // y = 2x + 1 with symmetric noise ±0.1 → exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.1, 2.9, 5.1, 6.9];
        let mut a = Matrix::zeros(4, 2);
        for (r, &x) in xs.iter().enumerate() {
            a.set(r, 0, 1.0);
            a.set(r, 1, x);
        }
        // Closed form: slope = 9.8/5 = 1.96, intercept = 4 − 1.96·1.5 = 1.06.
        let coef = least_squares(&a, &ys).unwrap();
        assert_close(coef[0], 1.06, 1e-9);
        assert_close(coef[1], 1.96, 1e-9);
    }

    #[test]
    fn least_squares_underdetermined_none() {
        let a = Matrix::zeros(1, 2);
        assert!(least_squares(&a, &[1.0]).is_none());
    }

    #[test]
    fn least_squares_rank_deficient_uses_ridge() {
        // Two identical columns: infinitely many solutions; ridge picks one
        // that still reproduces b.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = least_squares(&a, &[2.0, 4.0, 6.0]).unwrap();
        assert_close(x[0] + x[1], 2.0, 1e-4);
    }
}
