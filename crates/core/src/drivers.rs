//! Query drivers turning the δ-certified index into user-facing guarantees
//! (paper Section V, Problems 1 and 2).
//!
//! * **Absolute guarantee** (Problem 1): build with `δ = ε_abs/2` for
//!   SUM/COUNT (Lemma 2) or `δ = ε_abs` for MAX/MIN (Lemma 4); every
//!   answer then satisfies the bound unconditionally — no fallback needed.
//! * **Relative guarantee** (Problem 2): the certificate
//!   `A ≥ 2δ(1 + 1/ε_rel)` (Lemma 3; `δ(1 + 1/ε_rel)` for MAX, Lemma 5)
//!   is checked per query. When it fails, the driver transparently answers
//!   with the exact structure (key-cumulative array / aggregate tree),
//!   exactly as Fig. 10 of the paper prescribes.

use polyfit_exact::dataset::{dedup_max, dedup_sum, sort_records, Record};
use polyfit_exact::{AggTree, KeyCumulativeArray};

use crate::config::PolyFitConfig;
use crate::function::{cumulative_function, step_function};
use crate::index_max::PolyFitMax;
use crate::index_sum::PolyFitSum;

/// Answer of a relative-guarantee query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelAnswer {
    /// The returned aggregate value.
    pub value: f64,
    /// True when the certificate failed and the exact method answered
    /// (the value is then exact, trivially satisfying the guarantee).
    pub used_fallback: bool,
}

/// SUM/COUNT driver with absolute and relative guarantees.
#[derive(Clone, Debug)]
pub struct GuaranteedSum {
    index: PolyFitSum,
    /// Exact fallback; present only for relative-guarantee drivers.
    exact: Option<KeyCumulativeArray>,
}

impl GuaranteedSum {
    /// Problem 1 driver: answers satisfy `|A − R| ≤ ε_abs` at dataset-key
    /// endpoints. Sets `δ = ε_abs / 2` per Lemma 2.
    ///
    /// # Panics
    /// Panics on invalid data or bounds (see [`PolyFitSum::build`] errors);
    /// use [`PolyFitSum::build`] directly for fallible construction.
    pub fn with_abs_guarantee(records: Vec<Record>, eps_abs: f64, config: PolyFitConfig) -> Self {
        let index =
            PolyFitSum::build(records, eps_abs / 2.0, config).expect("valid records and bounds");
        GuaranteedSum { index, exact: None }
    }

    /// Problem 2 driver: build with an explicit `δ` (the paper uses
    /// `δ = 50` for single-key experiments) and keep the exact structure
    /// for fallback.
    pub fn with_rel_guarantee(mut records: Vec<Record>, delta: f64, config: PolyFitConfig) -> Self {
        sort_records(&mut records);
        let records = dedup_sum(records);
        let exact = KeyCumulativeArray::new(&records);
        let f = cumulative_function(records).expect("non-empty records");
        let index = PolyFitSum::from_function(&f, delta, config);
        GuaranteedSum { index, exact: Some(exact) }
    }

    /// Absolute-guarantee query over `(lq, uq]`.
    #[inline]
    pub fn query_abs(&self, lq: f64, uq: f64) -> f64 {
        self.index.query(lq, uq)
    }

    /// Relative-guarantee query over `(lq, uq]`: certified approximate
    /// answer, or the exact answer when the Lemma 3 certificate fails.
    ///
    /// # Panics
    /// Panics if this driver was built with [`Self::with_abs_guarantee`]
    /// (no fallback structure available).
    pub fn query_rel(&self, lq: f64, uq: f64, eps_rel: f64) -> RelAnswer {
        assert!(eps_rel > 0.0, "relative error must be positive");
        let a = self.index.query(lq, uq);
        let threshold = 2.0 * self.index.delta() * (1.0 + 1.0 / eps_rel);
        if a >= threshold {
            RelAnswer { value: a, used_fallback: false }
        } else {
            let exact =
                self.exact.as_ref().expect("relative-guarantee driver requires the exact fallback");
            RelAnswer { value: exact.range_sum(lq, uq), used_fallback: true }
        }
    }

    /// The underlying PolyFit index.
    pub fn index(&self) -> &PolyFitSum {
        &self.index
    }

    /// The exact fallback structure, when present.
    pub fn exact(&self) -> Option<&KeyCumulativeArray> {
        self.exact.as_ref()
    }
}

/// MAX/MIN driver with absolute and relative guarantees.
#[derive(Clone, Debug)]
pub struct GuaranteedMax {
    index: PolyFitMax,
    exact: Option<AggTree>,
}

impl GuaranteedMax {
    /// Problem 1 driver: `|A − R| ≤ ε_abs` for any real endpoints (the MAX
    /// index certifies continuously). Sets `δ = ε_abs` per Lemma 4.
    pub fn with_abs_guarantee(records: Vec<Record>, eps_abs: f64, config: PolyFitConfig) -> Self {
        let index = PolyFitMax::build(records, eps_abs, config).expect("valid records and bounds");
        GuaranteedMax { index, exact: None }
    }

    /// Problem 2 driver with explicit δ and exact fallback.
    pub fn with_rel_guarantee(mut records: Vec<Record>, delta: f64, config: PolyFitConfig) -> Self {
        sort_records(&mut records);
        let records = dedup_max(records);
        let exact = AggTree::new(&records);
        let f = step_function(records).expect("non-empty records");
        let index = PolyFitMax::from_function(&f, delta, config);
        GuaranteedMax { index, exact: Some(exact) }
    }

    /// Absolute-guarantee MAX query over `[lq, uq]` (function semantics;
    /// `None` left of the key domain).
    #[inline]
    pub fn query_abs(&self, lq: f64, uq: f64) -> Option<f64> {
        self.index.query_max(lq, uq)
    }

    /// Relative-guarantee MAX query (Lemma 5 certificate
    /// `A ≥ δ(1 + 1/ε_rel)`, exact fallback otherwise).
    pub fn query_rel(&self, lq: f64, uq: f64, eps_rel: f64) -> Option<RelAnswer> {
        assert!(eps_rel > 0.0, "relative error must be positive");
        let a = self.index.query_max(lq, uq)?;
        let threshold = self.index.delta() * (1.0 + 1.0 / eps_rel);
        if a >= threshold {
            Some(RelAnswer { value: a, used_fallback: false })
        } else {
            let exact =
                self.exact.as_ref().expect("relative-guarantee driver requires the exact fallback");
            exact.range_max(lq, uq).map(|value| RelAnswer { value, used_fallback: true })
        }
    }

    /// The underlying PolyFit index.
    pub fn index(&self) -> &PolyFitMax {
        &self.index
    }

    /// The exact fallback structure, when present.
    pub fn exact(&self) -> Option<&AggTree> {
        self.exact.as_ref()
    }
}

/// MIN driver — the mirror of [`GuaranteedMax`] over the min-folded
/// staircase, completing the paper's four aggregate types.
#[derive(Clone, Debug)]
pub struct GuaranteedMin {
    index: PolyFitMax,
    exact: Option<AggTree>,
}

impl GuaranteedMin {
    /// Problem 1 driver: `|A − R| ≤ ε_abs` for any real endpoints.
    pub fn with_abs_guarantee(records: Vec<Record>, eps_abs: f64, config: PolyFitConfig) -> Self {
        let index =
            PolyFitMax::build_min(records, eps_abs, config).expect("valid records and bounds");
        GuaranteedMin { index, exact: None }
    }

    /// Problem 2 driver with explicit δ and exact fallback.
    pub fn with_rel_guarantee(mut records: Vec<Record>, delta: f64, config: PolyFitConfig) -> Self {
        sort_records(&mut records);
        // Fold duplicates by minimum so the exact tree matches the index.
        let mut folded: Vec<Record> = Vec::with_capacity(records.len());
        for r in records {
            match folded.last_mut() {
                Some(last) if last.key == r.key => last.measure = last.measure.min(r.measure),
                _ => folded.push(r),
            }
        }
        let exact = AggTree::new(&folded);
        let index = PolyFitMax::build_min(folded, delta, config).expect("non-empty records");
        GuaranteedMin { index, exact: Some(exact) }
    }

    /// Absolute-guarantee MIN query over `[lq, uq]` (function semantics).
    #[inline]
    pub fn query_abs(&self, lq: f64, uq: f64) -> Option<f64> {
        self.index.query_min(lq, uq)
    }

    /// Relative-guarantee MIN query. The Lemma 5 certificate mirrors to
    /// `A ≥ δ(1 + 1/ε_rel)` — with non-negative measures the relative
    /// error of a MIN estimate obeys `|A − R|/R ≤ δ/(A − δ)`, so the same
    /// threshold certifies.
    pub fn query_rel(&self, lq: f64, uq: f64, eps_rel: f64) -> Option<RelAnswer> {
        assert!(eps_rel > 0.0, "relative error must be positive");
        let a = self.index.query_min(lq, uq)?;
        let threshold = self.index.delta() * (1.0 + 1.0 / eps_rel);
        if a >= threshold {
            Some(RelAnswer { value: a, used_fallback: false })
        } else {
            let exact =
                self.exact.as_ref().expect("relative-guarantee driver requires the exact fallback");
            exact.range_min(lq, uq).map(|value| RelAnswer { value, used_fallback: true })
        }
    }

    /// The underlying PolyFit index.
    pub fn index(&self) -> &PolyFitMax {
        &self.index
    }
}

/// AVG driver — the paper's introductory example ("find the average stock
/// market index value in a specified time range") realised with two
/// PolyFit indexes and rigorous error composition.
///
/// With `|Ŝ − S| ≤ ε_S` and `|Ĉ − C| ≤ ε_C`, the average estimate
/// `Ŝ/Ĉ` satisfies
/// `|Ŝ/Ĉ − S/C| ≤ (ε_S + |Ŝ/Ĉ|·ε_C) / (Ĉ − ε_C)` whenever `Ĉ > ε_C`
/// — the bound is computed per query and returned alongside the value.
#[derive(Clone, Debug)]
pub struct GuaranteedAvg {
    sum: PolyFitSum,
    count: PolyFitSum,
    eps_sum: f64,
    eps_count: f64,
}

/// An average with its per-query certified error bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvgAnswer {
    /// Estimated average.
    pub value: f64,
    /// Certified absolute error bound for this particular query.
    pub bound: f64,
}

impl GuaranteedAvg {
    /// Build from records with absolute error budgets for the SUM and
    /// COUNT components.
    pub fn with_abs_guarantees(
        mut records: Vec<Record>,
        eps_sum: f64,
        eps_count: f64,
        config: PolyFitConfig,
    ) -> Self {
        sort_records(&mut records);
        let count_records: Vec<Record> = records.iter().map(|r| Record::new(r.key, 1.0)).collect();
        let sum = PolyFitSum::build(records, eps_sum / 2.0, config).expect("valid records");
        let count =
            PolyFitSum::build(count_records, eps_count / 2.0, config).expect("valid records");
        GuaranteedAvg { sum, count, eps_sum, eps_count }
    }

    /// Average of measures over `(lq, uq]` with a certified bound; `None`
    /// when the estimated count cannot be distinguished from zero
    /// (`Ĉ ≤ ε_C`).
    pub fn query(&self, lq: f64, uq: f64) -> Option<AvgAnswer> {
        self.compose(self.sum.query(lq, uq), self.count.query(lq, uq))
    }

    /// Compose component estimates into a certified average — the single
    /// definition of the bound arithmetic shared by the one-shot and
    /// batched paths.
    fn compose(&self, s_hat: f64, c_hat: f64) -> Option<AvgAnswer> {
        if c_hat <= self.eps_count {
            return None;
        }
        let value = s_hat / c_hat;
        let bound = (self.eps_sum + value.abs() * self.eps_count) / (c_hat - self.eps_count);
        Some(AvgAnswer { value, bound })
    }

    /// Batched [`Self::query`]: both component indexes answer through
    /// their 8-lane batch engine; the per-query composition is identical,
    /// so results match per-range calls bit-for-bit.
    pub fn query_batch(&self, ranges: &[(f64, f64)]) -> Vec<Option<AvgAnswer>> {
        let sums = self.sum.query_batch(ranges);
        let counts = self.count.query_batch(ranges);
        sums.into_iter().zip(counts).map(|(s_hat, c_hat)| self.compose(s_hat, c_hat)).collect()
    }

    /// The SUM component index.
    pub fn sum_index(&self) -> &PolyFitSum {
        &self.sum
    }

    /// The COUNT component index.
    pub fn count_index(&self) -> &PolyFitSum {
        &self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64, 1.0 + ((i * 11) % 5) as f64)).collect()
    }

    fn max_records(n: usize) -> Vec<Record> {
        (0..n).map(|i| Record::new(i as f64, 100.0 + ((i as f64) * 0.07).sin() * 40.0)).collect()
    }

    #[test]
    fn abs_sum_guarantee_holds() {
        let rs = sum_records(5000);
        let kca = KeyCumulativeArray::new(&rs);
        let d = GuaranteedSum::with_abs_guarantee(rs, 30.0, PolyFitConfig::default());
        for (l, u) in [(0.0, 4999.0), (100.0, 200.0), (2500.0, 2501.0)] {
            let err = (d.query_abs(l, u) - kca.range_sum(l, u)).abs();
            assert!(err <= 30.0 + 1e-9, "({l}, {u}]: err {err}");
        }
    }

    #[test]
    fn rel_sum_guarantee_holds_everywhere() {
        let rs = sum_records(5000);
        let kca = KeyCumulativeArray::new(&rs);
        let d = GuaranteedSum::with_rel_guarantee(rs, 50.0, PolyFitConfig::default());
        let eps = 0.01;
        for (l, u) in [
            (0.0, 4999.0),
            (10.0, 30.0), // small range → certificate fails → fallback
            (100.0, 4000.0),
            (2500.0, 2500.5),
        ] {
            let ans = d.query_rel(l, u, eps);
            let truth = kca.range_sum(l, u);
            if truth > 0.0 {
                let rel = (ans.value - truth).abs() / truth;
                assert!(rel <= eps + 1e-12, "({l}, {u}]: rel {rel} fb={}", ans.used_fallback);
            } else {
                assert_eq!(ans.value, 0.0);
                assert!(ans.used_fallback);
            }
        }
    }

    #[test]
    fn small_ranges_fall_back() {
        let rs = sum_records(5000);
        let d = GuaranteedSum::with_rel_guarantee(rs, 50.0, PolyFitConfig::default());
        let ans = d.query_rel(10.0, 12.0, 0.01);
        assert!(ans.used_fallback, "tiny range must fail the certificate");
        let big = d.query_rel(0.0, 4999.0, 0.01);
        assert!(!big.used_fallback, "huge range must pass the certificate");
    }

    #[test]
    #[should_panic(expected = "fallback")]
    fn abs_driver_cannot_answer_rel() {
        let d = GuaranteedSum::with_abs_guarantee(sum_records(100), 10.0, PolyFitConfig::default());
        d.query_rel(5.0, 6.0, 0.01);
    }

    #[test]
    fn abs_max_guarantee_holds() {
        let rs = max_records(3000);
        let tree = AggTree::new(&rs);
        let d = GuaranteedMax::with_abs_guarantee(rs, 5.0, PolyFitConfig::default());
        for (l, u) in [(0.0, 2999.0), (10.0, 20.0), (1500.5, 1600.5)] {
            let approx = d.query_abs(l, u).unwrap();
            let truth = tree.range_max(l, u).unwrap();
            assert!((approx - truth).abs() <= 5.0 + 1e-6, "[{l},{u}]");
        }
    }

    #[test]
    fn rel_max_guarantee_with_fallback() {
        let rs = max_records(3000);
        let tree = AggTree::new(&rs);
        let d = GuaranteedMax::with_rel_guarantee(rs, 50.0, PolyFitConfig::default());
        let eps = 0.01;
        // Measures ~100: certificate needs A ≥ 50·101 = 5050 → always falls
        // back, and the fallback is exact.
        let ans = d.query_rel(100.0, 200.0, eps).unwrap();
        assert!(ans.used_fallback);
        assert_eq!(ans.value, tree.range_max(100.0, 200.0).unwrap());
        // With a generous eps the certificate can pass.
        let d2 =
            GuaranteedMax::with_rel_guarantee(max_records(3000), 1.0, PolyFitConfig::default());
        let ans2 = d2.query_rel(100.0, 2000.0, 0.5).unwrap();
        assert!(!ans2.used_fallback);
        let truth = tree.range_max(100.0, 2000.0).unwrap();
        assert!((ans2.value - truth).abs() / truth <= 0.5 + 1e-12);
    }

    #[test]
    fn max_query_outside_domain() {
        let d = GuaranteedMax::with_abs_guarantee(max_records(100), 5.0, PolyFitConfig::default());
        assert_eq!(d.query_abs(-100.0, -50.0), None);
        assert_eq!(d.query_rel(-100.0, -50.0, 0.1), None);
    }

    #[test]
    fn min_driver_abs_guarantee() {
        let rs = max_records(2000);
        let mut sorted = rs.clone();
        sort_records(&mut sorted);
        let tree = AggTree::new(&sorted);
        let d = GuaranteedMin::with_abs_guarantee(rs, 5.0, PolyFitConfig::default());
        for (l, u) in [(0.0, 1999.0), (100.0, 400.0), (1500.5, 1700.5)] {
            let approx = d.query_abs(l, u).unwrap();
            let truth = tree.range_min(l, u).unwrap();
            assert!((approx - truth).abs() <= 5.0 + 1e-6, "[{l},{u}]");
        }
    }

    #[test]
    fn min_driver_rel_certifies_or_falls_back() {
        let rs = max_records(2000); // measures ~60..140
        let mut sorted = rs.clone();
        sort_records(&mut sorted);
        let tree = AggTree::new(&sorted);
        // Threshold 2·(1+1/0.1) = 22 < min measure → certified path.
        let d = GuaranteedMin::with_rel_guarantee(rs.clone(), 2.0, PolyFitConfig::default());
        let ans = d.query_rel(100.0, 1500.0, 0.1).unwrap();
        assert!(!ans.used_fallback);
        let truth = tree.range_min(100.0, 1500.0).unwrap();
        assert!((ans.value - truth).abs() / truth <= 0.1 + 1e-12);
        // Huge δ → always fallback, exact.
        let d2 = GuaranteedMin::with_rel_guarantee(rs, 1000.0, PolyFitConfig::default());
        let ans2 = d2.query_rel(100.0, 1500.0, 0.1).unwrap();
        assert!(ans2.used_fallback);
        assert_eq!(ans2.value, truth);
    }

    #[test]
    fn avg_bound_holds() {
        let rs = sum_records(10_000);
        let kca = KeyCumulativeArray::new(&rs);
        let cnt: Vec<Record> = rs.iter().map(|r| Record::new(r.key, 1.0)).collect();
        let kcnt = KeyCumulativeArray::new(&cnt);
        let d = GuaranteedAvg::with_abs_guarantees(rs, 50.0, 10.0, PolyFitConfig::default());
        for (l, u) in [(0.0, 9999.0), (100.0, 5000.0), (3000.0, 3100.0)] {
            let ans = d.query(l, u).expect("count distinguishable from zero");
            let truth = kca.range_sum(l, u) / kcnt.range_sum(l, u);
            assert!(
                (ans.value - truth).abs() <= ans.bound + 1e-9,
                "({l}, {u}]: value {} truth {truth} bound {}",
                ans.value,
                ans.bound
            );
        }
    }

    #[test]
    fn avg_refuses_empty_ranges() {
        let d = GuaranteedAvg::with_abs_guarantees(
            sum_records(1000),
            20.0,
            10.0,
            PolyFitConfig::default(),
        );
        assert!(d.query(5000.0, 6000.0).is_none(), "empty range must be None");
    }

    #[test]
    fn rel_answer_is_exact_when_fallback() {
        let rs = sum_records(1000);
        let kca = KeyCumulativeArray::new(&rs);
        let d = GuaranteedSum::with_rel_guarantee(rs, 100.0, PolyFitConfig::default());
        let ans = d.query_rel(1.0, 3.0, 0.001);
        assert!(ans.used_fallback);
        assert_eq!(ans.value, kca.range_sum(1.0, 3.0));
    }
}
