//! Record vocabulary and dataset preparation shared by every index.
//!
//! The paper assumes distinct keys and non-negative measures
//! (Section III-A). Real datasets contain duplicates, so we fold them
//! before indexing: [`dedup_sum`] for SUM/COUNT targets (duplicate measures
//! add) and [`dedup_max`] for MAX/MIN targets (duplicates keep the
//! extremum — both, so MIN queries stay exact on the same structure).

/// A single `(key, measure)` record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    /// Search key (range predicates select on this).
    pub key: f64,
    /// Aggregated measure.
    pub measure: f64,
}

impl Record {
    /// Convenience constructor.
    pub fn new(key: f64, measure: f64) -> Self {
        Record { key, measure }
    }
}

/// A 2-D point with two keys and a measure (two-key extension,
/// Definition 4; COUNT uses `measure = 1`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point2d {
    /// First key (e.g. longitude).
    pub u: f64,
    /// Second key (e.g. latitude).
    pub v: f64,
    /// Measure.
    pub w: f64,
}

impl Point2d {
    /// Convenience constructor.
    pub fn new(u: f64, v: f64, w: f64) -> Self {
        Point2d { u, v, w }
    }
}

/// Sort records ascending by key. Total order is safe because keys are
/// required to be finite.
///
/// # Panics
/// Panics if any key is non-finite.
pub fn sort_records(records: &mut [Record]) {
    assert!(
        records.iter().all(|r| r.key.is_finite() && r.measure.is_finite()),
        "records must have finite keys and measures"
    );
    records.sort_by(|a, b| a.key.partial_cmp(&b.key).expect("finite keys compare"));
}

/// Fold duplicate keys by summing their measures. Input must be sorted.
pub fn dedup_sum(records: Vec<Record>) -> Vec<Record> {
    fold_duplicates(records, |acc, m| acc + m)
}

/// Fold duplicate keys by keeping the maximum measure. Input must be sorted.
pub fn dedup_max(records: Vec<Record>) -> Vec<Record> {
    fold_duplicates(records, f64::max)
}

/// Fold runs of equal keys in place, left to right into the first record
/// of each run.
fn fold_duplicates(mut records: Vec<Record>, fold: impl Fn(f64, f64) -> f64) -> Vec<Record> {
    debug_assert!(
        records.windows(2).all(|w| w[0].key <= w[1].key),
        "records must be sorted before deduplication"
    );
    records.dedup_by(|r, last| {
        let dup = last.key == r.key;
        if dup {
            last.measure = fold(last.measure, r.measure);
        }
        dup
    });
    records
}

/// Binary search over sorted keys: number of keys `≤ x` (the inclusive
/// rank used by cumulative functions). Shared helper so every structure
/// agrees on boundary behaviour.
#[inline]
pub fn rank_inclusive(keys: &[f64], x: f64) -> usize {
    keys.partition_point(|&k| k <= x)
}

/// Number of keys `< x` (exclusive rank).
#[inline]
pub fn rank_exclusive(keys: &[f64], x: f64) -> usize {
    keys.partition_point(|&k| k < x)
}

/// Batched ranks with a shared cursor: `out[i]` equals
/// `rank_inclusive(keys, queries[i])` (or `rank_exclusive` when
/// `inclusive` is false) for every query, computed by sorting the queries
/// once and galloping a single forward cursor over `keys`. Total cost
/// `O(m log m + m log(n/m))` instead of `m` independent `O(log n)`
/// searches — the sort-and-share kernel of the batched query path.
pub fn batch_ranks(keys: &[f64], queries: &[f64], inclusive: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries.len()).collect();
    order.sort_unstable_by(|&a, &b| queries[a].total_cmp(&queries[b]));
    let mut out = vec![0usize; queries.len()];
    let mut pos = 0usize;
    for &qi in &order {
        let x = queries[qi];
        if x.is_nan() {
            // `partition_point(k ≤ NaN)` is 0; don't move the cursor.
            continue;
        }
        pos = if inclusive { gallop(keys, pos, |k| k <= x) } else { gallop(keys, pos, |k| k < x) };
        out[qi] = pos;
    }
    out
}

/// Batched half-open range SUM over an inclusive prefix-sum
/// representation (`cum[i]` = Σ measures of records `0..=i`): the shared
/// kernel of `KeyCumulativeArray::range_sum_batch` and
/// `BPlusTree::range_sum_batch`, bitwise identical to evaluating
/// `CF(uq) − CF(lq)` per range with [`rank_inclusive`].
pub(crate) fn range_sum_batch_prefix(keys: &[f64], cum: &[f64], ranges: &[(f64, f64)]) -> Vec<f64> {
    let endpoints: Vec<f64> = ranges.iter().flat_map(|&(lq, uq)| [lq, uq]).collect();
    let ranks = batch_ranks(keys, &endpoints, true);
    let cf_of = |rank: usize| if rank == 0 { 0.0 } else { cum[rank - 1] };
    ranges
        .iter()
        .enumerate()
        .map(
            |(q, &(lq, uq))| {
                if lq >= uq {
                    0.0
                } else {
                    cf_of(ranks[2 * q + 1]) - cf_of(ranks[2 * q])
                }
            },
        )
        .collect()
}

/// First index at which `pred` turns false, given that it already holds
/// for every key before `from` (the ascending-sweep invariant). Identical
/// result to `keys.partition_point(pred)`.
fn gallop(keys: &[f64], from: usize, pred: impl Fn(f64) -> bool) -> usize {
    let n = keys.len();
    if from >= n || !pred(keys[from]) {
        return from;
    }
    // pred holds at `lo`; double the stride until it breaks or we run out.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && pred(keys[lo + step]) {
        lo += step;
        step = step.saturating_mul(2);
    }
    let hi = (lo + step).min(n);
    lo + 1 + keys[lo + 1..hi].partition_point(|&k| pred(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_ranks_match_per_query_ranks() {
        let keys: Vec<f64> = vec![1.0, 1.0, 2.0, 4.0, 4.0, 4.0, 7.0, 9.0];
        let queries = vec![5.0, -1.0, 4.0, 4.0, 9.0, 0.5, 100.0, 1.0, 7.0, 6.999, f64::NAN, 2.0];
        let incl = batch_ranks(&keys, &queries, true);
        let excl = batch_ranks(&keys, &queries, false);
        for (i, &q) in queries.iter().enumerate() {
            assert_eq!(incl[i], rank_inclusive(&keys, q), "inclusive rank of {q}");
            assert_eq!(excl[i], rank_exclusive(&keys, q), "exclusive rank of {q}");
        }
    }

    #[test]
    fn batch_ranks_empty_inputs() {
        assert!(batch_ranks(&[], &[1.0, 2.0], true).iter().all(|&r| r == 0));
        assert!(batch_ranks(&[1.0], &[], true).is_empty());
    }

    #[test]
    fn sorting_orders_by_key() {
        let mut rs = vec![Record::new(3.0, 1.0), Record::new(1.0, 2.0), Record::new(2.0, 3.0)];
        sort_records(&mut rs);
        let keys: Vec<f64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_key_panics() {
        let mut rs = vec![Record::new(f64::NAN, 1.0)];
        sort_records(&mut rs);
    }

    #[test]
    fn dedup_sum_folds() {
        let rs = vec![Record::new(1.0, 2.0), Record::new(1.0, 3.0), Record::new(2.0, 1.0)];
        let out = dedup_sum(rs);
        assert_eq!(out, vec![Record::new(1.0, 5.0), Record::new(2.0, 1.0)]);
    }

    #[test]
    fn dedup_max_keeps_extremum() {
        let rs = vec![Record::new(1.0, 2.0), Record::new(1.0, 7.0), Record::new(1.0, 3.0)];
        let out = dedup_max(rs);
        assert_eq!(out, vec![Record::new(1.0, 7.0)]);
    }

    #[test]
    fn dedup_empty() {
        assert!(dedup_sum(Vec::new()).is_empty());
    }

    #[test]
    fn ranks_at_boundaries() {
        let keys = [1.0, 2.0, 2.0, 5.0];
        assert_eq!(rank_inclusive(&keys, 0.5), 0);
        assert_eq!(rank_inclusive(&keys, 2.0), 3);
        assert_eq!(rank_exclusive(&keys, 2.0), 1);
        assert_eq!(rank_inclusive(&keys, 5.0), 4);
        assert_eq!(rank_inclusive(&keys, 9.0), 4);
        assert_eq!(rank_exclusive(&keys, 1.0), 0);
    }
}
