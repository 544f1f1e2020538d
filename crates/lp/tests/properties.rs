//! Property-based tests for the fitting and LP layer.

use proptest::prelude::*;

use polyfit_lp::{
    fit_minimax, fit_minimax_2d, minimax_exchange_in_basis, minimax_within, Basis, Fit2dBackend,
    FitBackend, LpOutcome, LpProblem, Relation, WithinScratch,
};

fn keyed_values(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    proptest::collection::vec((0.01f64..5.0, -50.0f64..50.0), 2..max_len).prop_map(|pairs| {
        let mut key = 0.0;
        let mut keys = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (gap, v) in pairs {
            key += gap;
            keys.push(key);
            values.push(v);
        }
        (keys, values)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three 1-D backends agree on the optimal minimax error.
    #[test]
    fn three_backends_agree((keys, values) in keyed_values(40), deg in 0usize..4) {
        let ex = fit_minimax(&keys, &values, deg, FitBackend::Exchange);
        let ch = fit_minimax(&keys, &values, deg, FitBackend::ExchangeChebyshev);
        let sx = fit_minimax(&keys, &values, deg, FitBackend::Simplex);
        let tol = 1e-5 * sx.error.max(1.0);
        prop_assert!((ex.error - sx.error).abs() <= tol, "ex {} sx {}", ex.error, sx.error);
        prop_assert!((ch.error - sx.error).abs() <= tol, "ch {} sx {}", ch.error, sx.error);
    }

    /// The exchange fit's polynomial reproduces the reported error when
    /// re-evaluated from scratch (coefficients round-trip through the
    /// shifted representation).
    #[test]
    fn fit_is_self_consistent((keys, values) in keyed_values(50), deg in 0usize..3) {
        let fit = fit_minimax(&keys, &values, deg, FitBackend::Exchange);
        let brute = keys.iter().zip(&values)
            .map(|(&k, &v)| (v - fit.poly.eval(k)).abs())
            .fold(0.0f64, f64::max);
        prop_assert!((fit.error - brute).abs() <= 1e-7 * brute.max(1.0));
    }

    /// Chebyshev-basis exchange returns monomial coefficients: evaluating
    /// them as monomials reproduces the fit.
    #[test]
    fn chebyshev_basis_returns_monomials((keys, values) in keyed_values(30), deg in 0usize..4) {
        let (c, s) = polyfit_poly::ShiftedPolynomial::normalizer(keys[0], keys[keys.len()-1]);
        let ts: Vec<f64> = keys.iter().map(|&k| (k - c) / s).collect();
        let fit = minimax_exchange_in_basis(&ts, &values, deg, Basis::Chebyshev);
        let horner = |t: f64| fit.coeffs.iter().rev().fold(0.0, |acc, &cf| acc * t + cf);
        let brute = ts.iter().zip(&values)
            .map(|(&t, &v)| (v - horner(t)).abs())
            .fold(0.0f64, f64::max);
        prop_assert!((fit.error - brute).abs() <= 1e-6 * brute.max(1.0));
    }

    /// Feasible bounded LPs: the returned optimum satisfies every
    /// constraint (within tolerance).
    #[test]
    fn lp_solution_is_feasible(
        c0 in 0.1f64..5.0, c1 in 0.1f64..5.0,
        b0 in 1.0f64..20.0, b1 in 1.0f64..20.0, b2 in 1.0f64..20.0,
    ) {
        // min c·x s.t. x0 + x1 ≥ b0, x0 ≤ b1, x1 ≤ b2+b0 (feasible: x1 can
        // always absorb the demand).
        let mut p = LpProblem::new(2);
        p.minimize(vec![c0, c1]);
        p.add_constraint(vec![1.0, 1.0], Relation::Ge, b0);
        p.add_constraint(vec![1.0, 0.0], Relation::Le, b1);
        p.add_constraint(vec![0.0, 1.0], Relation::Le, b2 + b0);
        match p.solve() {
            LpOutcome::Optimal { x, objective } => {
                prop_assert!(x[0] + x[1] >= b0 - 1e-7);
                prop_assert!(x[0] <= b1 + 1e-7);
                prop_assert!(x[1] <= b2 + b0 + 1e-7);
                prop_assert!(x[0] >= -1e-9 && x[1] >= -1e-9);
                prop_assert!((objective - (c0 * x[0] + c1 * x[1])).abs() <= 1e-6 * objective.abs().max(1.0));
                // Optimality against the known closed form: serve b0 with
                // the cheaper variable first.
                let expected = if c0 <= c1 {
                    let x0 = b0.min(b1);
                    c0 * x0 + c1 * (b0 - x0)
                } else {
                    c1 * b0 // x1 is unconstrained up to b2+b0 ≥ b0
                };
                prop_assert!(objective <= expected + 1e-6 * expected.max(1.0));
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    /// 2-D least-squares error is an upper bound on the simplex minimax
    /// error, and both reproduce plane data exactly.
    #[test]
    fn fit2d_backend_ordering(seed in 0u64..500, deg in 1usize..3) {
        let mut us = Vec::new();
        let mut vs = Vec::new();
        let mut ws = Vec::new();
        for i in 0..25u64 {
            let h = (seed + i + 1).wrapping_mul(0x9E3779B97F4A7C15);
            let u = ((h >> 32) as f64 / u32::MAX as f64) * 10.0;
            let v = ((h & 0xFFFF_FFFF) as f64 / u32::MAX as f64) * 10.0;
            us.push(u);
            vs.push(v);
            ws.push((u * 0.7).sin() * 5.0 + v);
        }
        let rect = (0.0, 10.0, 0.0, 10.0);
        let ls = fit_minimax_2d(&us, &vs, &ws, rect, deg, Fit2dBackend::LeastSquares);
        let lp = fit_minimax_2d(&us, &vs, &ws, rect, deg, Fit2dBackend::Simplex);
        prop_assert!(lp.error <= ls.error * (1.0 + 1e-6) + 1e-9,
            "lp {} > ls {}", lp.error, ls.error);
    }

    /// `minimax_within` decides as the full exchange fit does: every
    /// `Some(b)` equals `fit_minimax(..).error <= δ`, for δ far from the
    /// optimum (where it must decide) and for δ within 1e-7 of it, from
    /// a cold start and from the reference another point set left
    /// behind. Values sit on offsets up to 1e12, where rounding in the
    /// residuals is far above 1e-7·δ.
    #[test]
    fn within_decides_as_the_full_fit(
        (keys, values) in keyed_values(60),
        deg in 1usize..9,
        offset_pick in 0usize..3,
        (warm_keys, warm_values) in keyed_values(60),
        warm_delta in 0.01f64..100.0,
    ) {
        let offset = [0.0, 1e6, 1e12][offset_pick];
        let values: Vec<f64> = values.iter().map(|v| v + offset).collect();
        let full = fit_minimax(&keys, &values, deg, FitBackend::Exchange).error;
        let far = [0.5 * full, 2.0 * full];
        let near = [
            full * (1.0 - 1e-7),
            full,
            full * (1.0 + 1e-7),
            full - 1e-7,
            full + 1e-7,
        ];
        let mut warm = WithinScratch::default();
        for delta in far.into_iter().chain(near).filter(|&d| d > 0.0) {
            let cold = minimax_within(&keys, &values, deg, delta, &mut WithinScratch::default());
            minimax_within(&warm_keys, &warm_values, deg, warm_delta, &mut warm);
            let warmed = minimax_within(&keys, &values, deg, delta, &mut warm);
            for (start, got) in [("cold", cold), ("warm", warmed)] {
                if let Some(b) = got {
                    prop_assert_eq!(b, full <= delta, "{} start, deg {}, delta {} vs error {}",
                        start, deg, delta, full);
                } else {
                    prop_assert!(!far.contains(&delta) || full <= 1e-12 * offset.max(1.0),
                        "{} start left delta {} undecided (error {}, deg {})",
                        start, delta, full, deg);
                }
            }
        }
    }
}
