//! Segmentation of the target function under the bounded δ-error
//! constraint (paper Section IV-D).
//!
//! * [`greedy_segmentation`] — the GS method (Algorithm 1), accelerated
//!   with exponential (galloping) search as the paper suggests: instead of
//!   admitting keys one at a time, the segment end is doubled until the
//!   δ-constraint breaks, then binary-searched. For the data-point metric,
//!   Lemma 1 (error monotonicity in the point set) makes this equivalent
//!   to the one-at-a-time loop, and Theorem 1 gives minimality of the
//!   segment count. The continuous metric (below) is not monotone in the
//!   point set — the polynomial can swing between keys — so there the two
//!   searches may tile differently: at degree 8 the gallop cut 8 segments
//!   where the one-at-a-time loop cut 11. Each segment is certified ≤ δ
//!   either way.
//! * [`dp_segmentation`] — the `O(n²)` dynamic-programming optimum the
//!   paper cites \[35\], kept as a test oracle for GS optimality.
//!
//! ## Error metrics
//!
//! SUM/COUNT indexes certify the **data-point minimax** error
//! `max_i |F(k_i) − P(k_i)|` — exactly Definition 2 — because their queries
//! only ever evaluate the polynomial at (clamped) key positions.
//!
//! MAX/MIN indexes additionally maximise the polynomial *between* keys
//! (Eq. 17), where the staircase `DF` is constant but the polynomial is
//! not. To keep Lemma 4/5 sound for every query position, their segments
//! are certified with the **continuous deviation**
//! `max_i max_{k∈[k_i,k_{i+1}]} |P(k) − m_i|`, computed exactly from the
//! polynomial's interval extrema. The continuous metric upper-bounds the
//! data-point metric, so segments may be slightly shorter; the δ-guarantee
//! in return holds for arbitrary real query endpoints, not just dataset
//! keys.
//!
//! ## Deciding probes by bounds
//!
//! A galloping or binary-search probe only asks whether the optimum `E*`
//! over `keys[start..=end]` is at most δ, and every iterate of the
//! exchange algorithm already brackets `E*`. For the data-point metric with
//! the default [`FitBackend::Exchange`], probes therefore go through
//! [`minimax_within`], which stops at the first iterate that settles the
//! question:
//!
//! * **Lower bound.** The levelled error `|h|` of the iterate's reference
//!   is the optimum over those `degree + 2` points alone (de la Vallée
//!   Poussin), so `|h| ≤ E*`. Every error a full fit reports is the largest
//!   residual of some polynomial over all the points, so at least `E*`:
//!   `|h| > δ + margin` means the full fit says infeasible too.
//! * **Upper bound.** The iterate's largest residual `worst` is at least
//!   `E*`, and a converged full fit reports at most `E*·(1 + 1e-9) + ε`:
//!   `worst + margin + ε ≤ δ` means it says feasible too.
//! * **The margin**, `1e-6·δ + 64·ε·max|F|`, absorbs rounding in `h`, in
//!   `worst` and in the residuals the full fit scans (the normalised key
//!   lies in `[−1, 1]`; `F` values can be large).
//! * **Full-fit fallback.** Where an exchange converges or stalls inside
//!   the band, meets a singular reference or runs out of iterations, the
//!   probe runs the full [`fit_range`] instead. The emitted segment carries
//!   the full `fit_range` fit for its end — the last feasible probe's when
//!   it ran one — so specs, serialized bytes and answers are the same as
//!   with full-fit probes throughout.
//! * **Safety net.** A bound can say feasible where the full fit would not
//!   converge to `E*` (iteration cap, singular reference) and so report an
//!   error above δ. If the emitted fit does not certify ≤ δ, the segment is
//!   redone with full-fit probes only: the δ-certificate never rests on a
//!   bound.
//!
//! The continuous metric and the other backends keep full-fit probes.

use polyfit_lp::{fit_minimax, minimax_within, FitBackend, MinimaxFit, WithinScratch};

use crate::config::PolyFitConfig;
use crate::function::TargetFunction;

/// How a candidate segment's error is certified against δ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorMetric {
    /// `max_i |F(k_i) − P(k_i)|` over the segment's keys (Definition 2).
    DataPoint,
    /// Exact maximum deviation between the polynomial and the staircase
    /// over the whole key interval.
    Continuous,
}

/// A fitted segment in index-point space: covers `keys[start..=end]`.
#[derive(Clone, Debug)]
pub struct SegmentSpec {
    /// First covered point index.
    pub start: usize,
    /// Last covered point index (inclusive).
    pub end: usize,
    /// The minimax fit over those points.
    pub fit: MinimaxFit,
    /// Certified error under the chosen metric (≥ `fit.error`).
    pub certified_error: f64,
}

/// Fit `keys[start..=end]` and certify under `metric`.
///
/// Exposed so the benchmark harness can measure fitting in isolation.
pub fn fit_range(
    f: &TargetFunction,
    start: usize,
    end: usize,
    degree: usize,
    backend: FitBackend,
    metric: ErrorMetric,
) -> (MinimaxFit, f64) {
    let keys = &f.keys[start..=end];
    let values = &f.values[start..=end];
    let fit = fit_minimax(keys, values, degree, backend);
    let certified = match metric {
        ErrorMetric::DataPoint => fit.error,
        ErrorMetric::Continuous => continuous_deviation(&fit, keys, values),
    };
    (fit, certified)
}

/// Exact deviation between the fitted polynomial and the staircase
/// `F(k) = values[i]` for `k ∈ [keys[i], keys[i+1])` over the segment
/// interval.
///
/// The polynomial's extremum over any gap is attained at a gap endpoint or
/// at a stationary point, so the derivative's roots are isolated *once*
/// over the whole segment and merged into the per-gap scan — `O(ℓ + deg)`
/// per call instead of `O(ℓ·deg)` root isolations.
fn continuous_deviation(fit: &MinimaxFit, keys: &[f64], values: &[f64]) -> f64 {
    let n = keys.len();
    let sp = &fit.poly;
    let mut dev: f64 = (values[n - 1] - sp.eval(keys[n - 1])).abs();
    if n == 1 {
        return dev;
    }
    // Stationary points in the normalized variable, mapped to raw keys.
    let deriv = sp.inner().derivative();
    let t_lo = sp.to_normalized(keys[0]);
    let t_hi = sp.to_normalized(keys[n - 1]);
    let stationary: Vec<f64> = polyfit_poly::roots_in_interval(&deriv, t_lo, t_hi)
        .into_iter()
        .map(|t| sp.to_raw(t))
        .collect();
    let mut s_idx = 0usize;
    // Polynomial values at gap boundaries are shared between neighbours.
    let mut p_left = sp.eval(keys[0]);
    for i in 0..n - 1 {
        let b = keys[i + 1];
        let p_right = sp.eval(b);
        let mut hi = p_left.max(p_right);
        let mut lo = p_left.min(p_right);
        while s_idx < stationary.len() && stationary[s_idx] <= b {
            let v = sp.eval(stationary[s_idx]);
            hi = hi.max(v);
            lo = lo.min(v);
            s_idx += 1;
        }
        dev = dev.max((hi - values[i]).max(values[i] - lo));
        p_left = p_right;
    }
    dev
}

/// Greedy segmentation (paper Algorithm 1) with galloping search.
///
/// Returns segments covering all points, each certified to error ≤ `delta`
/// under `metric` — except unavoidable single-point segments, which always
/// have error 0 anyway.
///
/// # Panics
/// Panics if the target function is empty or `delta` is not positive.
pub fn greedy_segmentation(
    f: &TargetFunction,
    cfg: &PolyFitConfig,
    delta: f64,
    metric: ErrorMetric,
) -> Vec<SegmentSpec> {
    assert!(!f.is_empty(), "cannot segment an empty function");
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
    greedy_segmentation_range(f, cfg, delta, metric, 0, f.len())
}

/// Greedy segmentation restricted to the point range `[lo, hi)`, producing
/// specs with *absolute* point indices. This is the worker kernel of the
/// chunk-parallel build pipeline ([`crate::build`]): each chunk runs the
/// same maximal-extension greedy as [`greedy_segmentation`], so every
/// emitted segment is individually certified to error ≤ `delta`.
pub(crate) fn greedy_segmentation_range(
    f: &TargetFunction,
    cfg: &PolyFitConfig,
    delta: f64,
    metric: ErrorMetric,
    lo: usize,
    hi: usize,
) -> Vec<SegmentSpec> {
    debug_assert!(lo < hi && hi <= f.len(), "invalid chunk range");
    let mut scratch = WithinScratch::default();
    let mut out = Vec::new();
    let mut start = lo;
    while start < hi {
        let spec = greedy_next_segment(f, cfg, delta, metric, start, hi, &mut scratch);
        start = spec.end + 1;
        out.push(spec);
    }
    out
}

/// Emit the single maximal segment starting at point `start` within the
/// range `[start, hi)` — one iteration of the greedy loop, exposed so the
/// incremental compaction machinery (`crate::dynamic`) can bound the work
/// per step to one segment at a time while producing output identical to
/// [`greedy_segmentation_range`]. `scratch` carries the decision probes'
/// buffers from one call to the next.
pub(crate) fn greedy_next_segment(
    f: &TargetFunction,
    cfg: &PolyFitConfig,
    delta: f64,
    metric: ErrorMetric,
    start: usize,
    hi: usize,
    scratch: &mut WithinScratch,
) -> SegmentSpec {
    let decide = metric == ErrorMetric::DataPoint && cfg.backend == FitBackend::Exchange;
    next_segment(f, cfg, delta, metric, start, hi, decide.then_some(scratch))
}

/// [`greedy_next_segment`]: probes go through [`minimax_within`] when
/// `decider` is given and through full fits otherwise (and where it
/// leaves a probe undecided).
fn next_segment(
    f: &TargetFunction,
    cfg: &PolyFitConfig,
    delta: f64,
    metric: ErrorMetric,
    start: usize,
    hi: usize,
    mut decider: Option<&mut WithinScratch>,
) -> SegmentSpec {
    debug_assert!(start < hi && hi <= f.len(), "invalid segment range");
    let cap = cfg.max_segment_len.unwrap_or(usize::MAX).max(1);
    let max_end = hi.min(start.saturating_add(cap)) - 1;
    if let Some(scratch) = decider.as_deref_mut() {
        scratch.forget_reference();
    }
    // Feasibility probe: can the segment extend to `end`? Returns the
    // full fit too when one ran.
    let mut probe = |end: usize| -> (bool, Option<(MinimaxFit, f64)>) {
        if let Some(scratch) = decider.as_deref_mut() {
            let (keys, values) = (&f.keys[start..=end], &f.values[start..=end]);
            if let Some(feasible) = minimax_within(keys, values, cfg.degree, delta, scratch) {
                return (feasible, None);
            }
        }
        let (fit, cert) = fit_range(f, start, end, cfg.degree, cfg.backend, metric);
        (cert <= delta, Some((fit, cert)))
    };
    // A single point always fits exactly (error 0): guaranteed progress.
    let mut good_end = start;
    // The full fit at `good_end`, when its probe ran one.
    let mut good_fit = None;
    if max_end > start {
        // Gallop: double the extension until infeasible or out of range.
        let mut bad_end: Option<usize> = None; // first known-bad end
        let mut step = 1usize;
        loop {
            let cand = (start + step).min(max_end);
            let (feasible, fit) = probe(cand);
            if !feasible {
                bad_end = Some(cand);
                break;
            }
            (good_end, good_fit) = (cand, fit);
            if cand == max_end {
                break;
            }
            step = step.saturating_mul(2);
        }
        // Binary search the maximal feasible end in (good_end, bad_end).
        if let Some(mut bad) = bad_end {
            while bad - good_end > 1 {
                let mid = good_end + (bad - good_end) / 2;
                match probe(mid) {
                    (true, fit) => (good_end, good_fit) = (mid, fit),
                    (false, _) => bad = mid,
                }
            }
        }
    }
    let (fit, certified_error) =
        good_fit.unwrap_or_else(|| fit_range(f, start, good_end, cfg.degree, cfg.backend, metric));
    if certified_error > delta {
        // Safety net: a decided probe said feasible, but the full fit did
        // not converge to the optimum there (iteration cap or singular
        // reference), so a full-fit probe would have said infeasible.
        // Redo the segment with full-fit probes only.
        return next_segment(f, cfg, delta, metric, start, hi, None);
    }
    SegmentSpec { start, end: good_end, fit, certified_error }
}

/// Dynamic-programming segmentation minimising the number of segments
/// subject to the δ-constraint — the optimal method the paper compares GS
/// against (Table II). `O(n²)` feasibility probes: use only on small
/// inputs (test oracle).
pub fn dp_segmentation(
    f: &TargetFunction,
    cfg: &PolyFitConfig,
    delta: f64,
    metric: ErrorMetric,
) -> Vec<SegmentSpec> {
    assert!(!f.is_empty(), "cannot segment an empty function");
    let n = f.len();
    let cap = cfg.max_segment_len.unwrap_or(usize::MAX).max(1);
    // best[i] = (min segments covering points 0..i, predecessor start)
    let mut best: Vec<Option<(usize, usize)>> = vec![None; n + 1];
    best[0] = Some((0, 0));
    for i in 1..=n {
        for j in i.saturating_sub(cap)..i {
            let Some((segs, _)) = best[j] else { continue };
            // candidate segment covers points j..=i-1
            let (_, cert) = fit_range(f, j, i - 1, cfg.degree, cfg.backend, metric);
            if cert <= delta {
                let cand = segs + 1;
                if best[i].is_none_or(|(s, _)| cand < s) {
                    best[i] = Some((cand, j));
                }
            }
        }
    }
    // Reconstruct.
    let mut bounds = Vec::new();
    let mut i = n;
    while i > 0 {
        let (_, j) = best[i].expect("DP always feasible: single points fit");
        bounds.push((j, i - 1));
        i = j;
    }
    bounds.reverse();
    bounds
        .into_iter()
        .map(|(s, e)| {
            let (fit, certified_error) = fit_range(f, s, e, cfg.degree, cfg.backend, metric);
            SegmentSpec { start: s, end: e, fit, certified_error }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TargetFunction;

    fn staircase(n: usize) -> TargetFunction {
        TargetFunction {
            keys: (0..n).map(|i| i as f64).collect(),
            values: (0..n)
                .map(|i| ((i * i) as f64).sqrt() * 3.0 + ((i as f64) * 0.9).sin() * 5.0)
                .collect(),
        }
    }

    fn check_cover(specs: &[SegmentSpec], n: usize) {
        assert_eq!(specs[0].start, 0);
        assert_eq!(specs.last().unwrap().end, n - 1);
        for w in specs.windows(2) {
            assert_eq!(w[0].end + 1, w[1].start, "segments must tile");
        }
    }

    #[test]
    fn gs_covers_and_respects_delta() {
        let f = staircase(300);
        let cfg = PolyFitConfig::with_degree(2);
        let specs = greedy_segmentation(&f, &cfg, 2.0, ErrorMetric::DataPoint);
        check_cover(&specs, 300);
        for s in &specs {
            assert!(s.certified_error <= 2.0, "certified {}", s.certified_error);
        }
    }

    #[test]
    fn gs_matches_dp_segment_count() {
        // Theorem 1: GS is optimal.
        let f = staircase(120);
        let cfg = PolyFitConfig::with_degree(1);
        for &delta in &[0.5, 1.0, 3.0, 10.0] {
            let gs = greedy_segmentation(&f, &cfg, delta, ErrorMetric::DataPoint);
            let dp = dp_segmentation(&f, &cfg, delta, ErrorMetric::DataPoint);
            assert_eq!(gs.len(), dp.len(), "delta {delta}");
        }
    }

    #[test]
    fn looser_delta_never_more_segments() {
        let f = staircase(400);
        let cfg = PolyFitConfig::default();
        let tight = greedy_segmentation(&f, &cfg, 1.0, ErrorMetric::DataPoint);
        let loose = greedy_segmentation(&f, &cfg, 20.0, ErrorMetric::DataPoint);
        assert!(loose.len() <= tight.len());
    }

    #[test]
    fn higher_degree_never_more_segments() {
        let f = staircase(400);
        let d1 =
            greedy_segmentation(&f, &PolyFitConfig::with_degree(1), 1.5, ErrorMetric::DataPoint);
        let d3 =
            greedy_segmentation(&f, &PolyFitConfig::with_degree(3), 1.5, ErrorMetric::DataPoint);
        assert!(d3.len() <= d1.len(), "deg3 {} vs deg1 {}", d3.len(), d1.len());
    }

    #[test]
    fn single_point_function() {
        let f = TargetFunction { keys: vec![5.0], values: vec![7.0] };
        let specs = greedy_segmentation(&f, &PolyFitConfig::default(), 1.0, ErrorMetric::DataPoint);
        assert_eq!(specs.len(), 1);
        assert_eq!((specs[0].start, specs[0].end), (0, 0));
        assert_eq!(specs[0].certified_error, 0.0);
    }

    #[test]
    fn linear_data_one_segment() {
        let f = TargetFunction {
            keys: (0..1000).map(|i| i as f64).collect(),
            values: (0..1000).map(|i| 2.0 * i as f64 + 1.0).collect(),
        };
        let specs =
            greedy_segmentation(&f, &PolyFitConfig::with_degree(1), 0.01, ErrorMetric::DataPoint);
        assert_eq!(specs.len(), 1);
    }

    #[test]
    fn max_segment_len_cap_respected() {
        let f =
            TargetFunction { keys: (0..100).map(|i| i as f64).collect(), values: vec![0.0; 100] };
        let cfg = PolyFitConfig { max_segment_len: Some(10), ..Default::default() };
        let specs = greedy_segmentation(&f, &cfg, 1.0, ErrorMetric::DataPoint);
        assert_eq!(specs.len(), 10);
        assert!(specs.iter().all(|s| s.end - s.start < 10));
    }

    #[test]
    fn continuous_metric_is_at_least_datapoint() {
        let f = staircase(100);
        let cfg = PolyFitConfig::default();
        for &(s, e) in &[(0usize, 40usize), (10, 99), (50, 60)] {
            let (_, dp) = fit_range(&f, s, e, cfg.degree, cfg.backend, ErrorMetric::DataPoint);
            let (_, cont) = fit_range(&f, s, e, cfg.degree, cfg.backend, ErrorMetric::Continuous);
            assert!(cont >= dp - 1e-9, "cont {cont} < dp {dp}");
        }
    }

    #[test]
    fn continuous_metric_segments_respect_delta() {
        let f = staircase(200);
        let cfg = PolyFitConfig::default();
        let specs = greedy_segmentation(&f, &cfg, 3.0, ErrorMetric::Continuous);
        check_cover(&specs, 200);
        for s in &specs {
            assert!(s.certified_error <= 3.0 + 1e-9);
        }
    }

    /// Literal Algorithm 1 of the paper: extend the segment one key at a
    /// time until the δ-constraint breaks. Kept as a *test-only oracle*:
    /// for the data-point metric, Lemma 1 monotonicity makes it equivalent
    /// to the shipped galloping [`greedy_segmentation`], and the property
    /// test below holds the two to segment-for-segment agreement. The
    /// continuous metric is not monotone (see the module docs), so the
    /// property holds it to the oracle only at degrees 1–3.
    fn greedy_segmentation_naive(
        f: &TargetFunction,
        cfg: &PolyFitConfig,
        delta: f64,
        metric: ErrorMetric,
    ) -> Vec<SegmentSpec> {
        assert!(!f.is_empty(), "cannot segment an empty function");
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        let n = f.len();
        let cap = cfg.max_segment_len.unwrap_or(usize::MAX).max(1);
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start;
            let mut good = fit_range(f, start, start, cfg.degree, cfg.backend, metric);
            while end + 1 < n && end + 1 - start < cap {
                let cand = fit_range(f, start, end + 1, cfg.degree, cfg.backend, metric);
                if cand.1 > delta {
                    break;
                }
                end += 1;
                good = cand;
            }
            out.push(SegmentSpec { start, end, fit: good.0, certified_error: good.1 });
            start = end + 1;
        }
        out
    }

    #[test]
    fn naive_gs_matches_galloping_gs() {
        let f = staircase(150);
        let cfg = PolyFitConfig::default();
        for &delta in &[1.0, 3.0, 12.0] {
            let fast = greedy_segmentation(&f, &cfg, delta, ErrorMetric::DataPoint);
            let naive = greedy_segmentation_naive(&f, &cfg, delta, ErrorMetric::DataPoint);
            assert_eq!(fast.len(), naive.len(), "delta {delta}");
            for (a, b) in fast.iter().zip(&naive) {
                assert_eq!((a.start, a.end), (b.start, b.end), "delta {delta}");
            }
        }
    }

    /// Every bit a segment carries: its span, polynomial, both errors.
    fn spec_bits(s: &SegmentSpec) -> (usize, usize, Vec<u64>, [u64; 4]) {
        let poly = &s.fit.poly;
        let coeffs = poly.inner().coeffs().iter().map(|c| c.to_bits()).collect();
        let scalars = [poly.center(), poly.scale_factor(), s.fit.error, s.certified_error];
        (s.start, s.end, coeffs, scalars.map(f64::to_bits))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Property: over random staircase shapes, degrees, length caps,
        /// and δ, the galloping search agrees with the literal one-key-at-
        /// a-time Algorithm 1 segment-for-segment and bit for bit (Lemma 1
        /// equivalence; the oracle decides every probe by a full fit, so
        /// this also holds the bound-decided probes to full-fit answers).
        /// Keys are integers or one ULP apart near 1.7e18; values are
        /// smooth or plateaus; δ is free or pinned within 1e-7·δ of the
        /// optimum of a prefix the gallop probes.
        #[test]
        fn gallop_equals_naive_oracle(
            n in 20usize..160,
            degree in 1usize..9,
            delta_tenths in 5u32..200,
            cap in 0usize..40,
            amp in 1.0f64..8.0,
            freq in 0.1f64..2.0,
            (ulp_keys, plateaus, pinned) in (0usize..2, 0usize..2, 0usize..2),
            near in -1.0f64..1.0,
        ) {
            let keys = if ulp_keys == 1 {
                let base = 1.7e18f64.to_bits();
                (0..n as u64).map(|i| f64::from_bits(base + i)).collect()
            } else {
                (0..n).map(|i| i as f64).collect()
            };
            let width = 2 + (freq * 4.0) as usize;
            let values = (0..n)
                .map(|i| match plateaus {
                    1 => (i / width) as f64 * amp,
                    _ => (i as f64).sqrt() * amp + (i as f64 * freq).sin() * amp,
                })
                .collect();
            let f = TargetFunction { keys, values };
            let cfg = PolyFitConfig {
                max_segment_len: (cap >= 2).then_some(cap),
                ..PolyFitConfig::with_degree(degree)
            };
            let mut delta = delta_tenths as f64 / 10.0;
            if pinned == 1 {
                // The gallop from point 0 probes ends 2^j; pin δ next to
                // the optimum over one of those prefixes.
                let end = (1usize << (1 + delta_tenths % 6)).min(n - 1);
                let (fit, _) = fit_range(&f, 0, end, degree, cfg.backend, ErrorMetric::DataPoint);
                if fit.error > 0.0 {
                    delta = fit.error * (1.0 + near * 1e-7);
                }
            }
            // The continuous deviation is not monotone in the point set
            // at higher degrees (the polynomial swings between keys), so
            // the oracle equivalence holds for it only at low degree.
            let metrics: &[ErrorMetric] = match degree {
                1..=3 => &[ErrorMetric::DataPoint, ErrorMetric::Continuous],
                _ => &[ErrorMetric::DataPoint],
            };
            for &metric in metrics {
                let fast = greedy_segmentation(&f, &cfg, delta, metric);
                let naive = greedy_segmentation_naive(&f, &cfg, delta, metric);
                proptest::prop_assert_eq!(fast.len(), naive.len());
                for (a, b) in fast.iter().zip(&naive) {
                    proptest::prop_assert_eq!(spec_bits(a), spec_bits(b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn zero_delta_panics() {
        let f = staircase(10);
        greedy_segmentation(&f, &PolyFitConfig::default(), 0.0, ErrorMetric::DataPoint);
    }
}
