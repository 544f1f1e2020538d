//! Target functions derived from the dataset (paper Eq. 7).
//!
//! PolyFit never fits raw records; it fits one of two functions sampled at
//! the dataset's keys:
//!
//! * [`cumulative_function`] — `CF_sum(k) = R_sum(D, (−∞, k])`, the
//!   monotone prefix-sum curve used by SUM/COUNT indexes (Eq. 4);
//! * [`step_function`] — `DF_max(k)`, the key–measure staircase used by
//!   MAX/MIN indexes (Eq. 6).
//!
//! Both presort and fold duplicate keys with the aggregate-appropriate
//! rule, validating data on the way in.

use polyfit_exact::dataset::{dedup_max, dedup_sum, sort_records, Record};

use crate::error::PolyFitError;

/// A target function materialised as aligned `(keys, values)` arrays with
/// strictly increasing keys.
#[derive(Clone, Debug)]
pub struct TargetFunction {
    /// Strictly increasing keys.
    pub keys: Vec<f64>,
    /// Function value at each key.
    pub values: Vec<f64>,
}

impl TargetFunction {
    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no breakpoints exist.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key domain `[first, last]`.
    ///
    /// # Panics
    /// Panics if the function is empty.
    pub fn domain(&self) -> (f64, f64) {
        (self.keys[0], *self.keys.last().expect("non-empty function"))
    }
}

/// Refuse an empty record set or a non-finite key or measure with a
/// typed error — run it before [`sort_records`], which panics on them.
pub(crate) fn validate_records(records: &[Record]) -> Result<(), PolyFitError> {
    if records.is_empty() {
        return Err(PolyFitError::EmptyDataset);
    }
    for (i, r) in records.iter().enumerate() {
        if !r.key.is_finite() || !r.measure.is_finite() {
            return Err(PolyFitError::NonFiniteData { index: i });
        }
    }
    Ok(())
}

/// Build `CF_sum` from raw records: sort, fold duplicate keys by summing,
/// prefix-accumulate.
pub fn cumulative_function(mut records: Vec<Record>) -> Result<TargetFunction, PolyFitError> {
    validate_records(&records)?;
    sort_records(&mut records);
    let records = dedup_sum(records);
    let mut keys = Vec::with_capacity(records.len());
    let mut values = Vec::with_capacity(records.len());
    let mut acc = 0.0;
    for r in &records {
        acc += r.measure;
        keys.push(r.key);
        values.push(acc);
    }
    Ok(TargetFunction { keys, values })
}

/// Build `CF_sum` from records that are already sorted, deduplicated, and
/// finite — the compaction fast path, where the merged record set is
/// produced by a linear merge and re-sorting would waste the invariant.
/// The prefix fold is identical to [`cumulative_function`], so the values
/// are bitwise-equal to a from-scratch build over the same records.
///
/// # Panics
/// Debug-asserts the sorted/distinct invariant; an empty slice yields an
/// empty function (callers representing "no data" handle that case).
pub fn cumulative_function_sorted(records: &[Record]) -> TargetFunction {
    debug_assert!(
        records.windows(2).all(|w| w[0].key < w[1].key),
        "records must be sorted with distinct keys"
    );
    let mut keys = Vec::with_capacity(records.len());
    let mut values = Vec::with_capacity(records.len());
    let mut acc = 0.0;
    for r in records {
        acc += r.measure;
        keys.push(r.key);
        values.push(acc);
    }
    TargetFunction { keys, values }
}

/// Build `DF_max` from raw records: sort, fold duplicates by maximum.
///
/// The resulting staircase takes value `values[i]` on `[keys[i],
/// keys[i+1])`; MIN indexes reuse the same staircase with duplicates folded
/// by maximum too — use [`step_function_min`] when exact MIN semantics on
/// duplicate keys matter.
pub fn step_function(mut records: Vec<Record>) -> Result<TargetFunction, PolyFitError> {
    validate_records(&records)?;
    sort_records(&mut records);
    let records = dedup_max(records);
    Ok(TargetFunction {
        keys: records.iter().map(|r| r.key).collect(),
        values: records.iter().map(|r| r.measure).collect(),
    })
}

/// Like [`step_function`] but folding duplicate keys by *minimum*, for MIN
/// indexes.
pub fn step_function_min(mut records: Vec<Record>) -> Result<TargetFunction, PolyFitError> {
    validate_records(&records)?;
    sort_records(&mut records);
    // Fold duplicates keeping the minimum measure.
    let mut out: Vec<Record> = Vec::with_capacity(records.len());
    for r in records {
        match out.last_mut() {
            Some(last) if last.key == r.key => last.measure = last.measure.min(r.measure),
            _ => out.push(r),
        }
    }
    Ok(TargetFunction {
        keys: out.iter().map(|r| r.key).collect(),
        values: out.iter().map(|r| r.measure).collect(),
    })
}

impl PartialEq for TargetFunction {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.values == other.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_is_monotone_prefix() {
        let records = vec![Record::new(3.0, 2.0), Record::new(1.0, 5.0), Record::new(2.0, 1.0)];
        let f = cumulative_function(records).unwrap();
        assert_eq!(f.keys, vec![1.0, 2.0, 3.0]);
        assert_eq!(f.values, vec![5.0, 6.0, 8.0]);
    }

    #[test]
    fn cumulative_folds_duplicates() {
        let records = vec![Record::new(1.0, 1.0), Record::new(1.0, 2.0), Record::new(2.0, 3.0)];
        let f = cumulative_function(records).unwrap();
        assert_eq!(f.keys, vec![1.0, 2.0]);
        assert_eq!(f.values, vec![3.0, 6.0]);
    }

    #[test]
    fn step_function_keeps_max_on_duplicates() {
        let records = vec![Record::new(1.0, 4.0), Record::new(1.0, 9.0), Record::new(2.0, 3.0)];
        let f = step_function(records).unwrap();
        assert_eq!(f.values, vec![9.0, 3.0]);
    }

    #[test]
    fn step_function_min_keeps_min() {
        let records = vec![Record::new(1.0, 4.0), Record::new(1.0, 9.0)];
        let f = step_function_min(records).unwrap();
        assert_eq!(f.values, vec![4.0]);
    }

    #[test]
    fn empty_dataset_rejected() {
        assert_eq!(cumulative_function(vec![]), Err(PolyFitError::EmptyDataset));
        assert_eq!(step_function(vec![]), Err(PolyFitError::EmptyDataset));
    }

    #[test]
    fn non_finite_rejected_with_index() {
        let records = vec![Record::new(1.0, 1.0), Record::new(f64::NAN, 1.0)];
        assert_eq!(cumulative_function(records), Err(PolyFitError::NonFiniteData { index: 1 }));
    }

    #[test]
    fn sorted_prefix_matches_general_builder() {
        let records = vec![Record::new(1.0, 5.0), Record::new(2.0, 1.0), Record::new(3.0, 2.0)];
        let general = cumulative_function(records.clone()).unwrap();
        let fast = cumulative_function_sorted(&records);
        assert_eq!(general, fast);
        assert!(cumulative_function_sorted(&[]).is_empty());
    }

    #[test]
    fn domain_reports_extent() {
        let f = cumulative_function(vec![Record::new(5.0, 1.0), Record::new(-2.0, 1.0)]).unwrap();
        assert_eq!(f.domain(), (-2.0, 5.0));
    }
}
